"""Process ranks end to end: the sanity of per-rank phase clocks under
real processes, and the ``parallel_executor`` knob (the collectives
themselves are tested under both launches in ``test_parallel.py``)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.parallel.comm import run_rank_programs


# Rank programs are module-level so process ranks can pickle them.

def _skewed_clock_program(comm):
    """Phase clocks under deliberate per-rank startup skew.

    Each rank sleeps ``0.1 * rank`` *before* starting its clocks —
    emulating multiprocessing's uneven process spin-up — then measures
    two phases separated by collectives, the same structure as the
    driver's fused exchange→K2→K3 program.
    """
    time.sleep(0.1 * comm.rank)
    t0 = time.perf_counter()
    comm.barrier()  # phase 1 ends at a synchronisation point
    t1 = time.perf_counter()
    comm.allreduce(np.zeros(2))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


class TestMpPhaseClockSanity:
    """The ROADMAP's 'parallel timing under the mp executor' pass.

    The driver splits the fused per-rank wall-clock into kernel phases
    and aggregates max-over-ranks; these tests pin the properties that
    make that split trustworthy for real processes: clocks are monotone
    (phases non-negative and finite) and startup skew is absorbed at
    the first synchronisation point instead of leaking into later
    phases.
    """

    def test_pipeline_phase_clocks_monotone_and_finite(self):
        from repro.generators.kronecker import kronecker_edges
        from repro.parallel.driver import _rank_program

        u, v = kronecker_edges(7, 4, seed=3)
        n = 128
        initial = np.full(n, 1.0 / n)
        outputs = run_rank_programs(
            _rank_program, 2, u, v, n, initial, 0.85, 4, "appendix",
            processes=True, timeout=120.0,
        )
        for _, _, _, k2_seconds, k3_seconds in outputs:
            assert np.isfinite(k2_seconds) and np.isfinite(k3_seconds)
            assert k2_seconds >= 0.0
            assert k3_seconds >= 0.0

    def test_max_over_ranks_bounds_every_rank(self):
        from repro.generators.kronecker import kronecker_edges
        from repro.parallel.driver import run_parallel_pipeline

        u, v = kronecker_edges(7, 4, seed=5)
        result = run_parallel_pipeline(u, v, 128, num_ranks=2, iterations=3,
                                       executor="mp")
        assert result.kernel2_seconds >= 0.0
        assert result.kernel3_seconds >= 0.0
        assert np.isfinite(result.kernel2_seconds)
        assert np.isfinite(result.kernel3_seconds)
        # The rank vector still matches the thread ranks', bit for bit.
        sim = run_parallel_pipeline(u, v, 128, num_ranks=2, iterations=3,
                                    executor="sim")
        assert np.array_equal(result.rank_vector, sim.rank_vector)

    def test_startup_skew_absorbed_at_first_sync(self):
        size = 3
        outputs = run_rank_programs(_skewed_clock_program, size,
                                    processes=True, timeout=120.0)
        phase1 = [out[0] for out in outputs]
        phase2 = [out[1] for out in outputs]
        # Clocks start after each rank's own (skewed) startup, so no
        # phase can be negative however uneven the spin-up.
        assert all(p >= 0.0 for p in phase1 + phase2)
        # The slowest rank (largest skew) reaches the barrier last and
        # waits on no one: max-over-ranks phase 1 reflects barrier wait,
        # bounded by the total injected skew plus scheduling slack.
        assert max(phase1) < 0.1 * (size - 1) + 2.0
        # Once synchronised, startup skew must not leak into the next
        # phase: every rank's phase 2 is collective-only time.
        assert max(phase2) < 2.0


class TestMpConfigKnob:
    """`PipelineConfig.parallel_executor` launches the parallel
    strategy's ranks as threads (``sim``) or processes (``mp``)."""

    def test_config_validates_executor_name(self):
        from repro.core.config import PipelineConfig

        with pytest.raises(ValueError, match="parallel_executor"):
            PipelineConfig(scale=6, parallel_executor="gpu")

    def test_mp_execution_matches_sim_bit_for_bit(self):
        from repro.api.runner import rank_sha256
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import run_pipeline

        def k3_traffic(result):
            k3 = [k for k in result.kernels
                  if k.kernel.value == "k3-pagerank"][0]
            return k3.details["traffic"]

        base = dict(scale=6, seed=3, execution="parallel",
                    parallel_ranks=2, iterations=3)
        sim = run_pipeline(PipelineConfig(parallel_executor="sim", **base))
        mp_run = run_pipeline(PipelineConfig(parallel_executor="mp", **base))
        assert rank_sha256(mp_run.rank) == rank_sha256(sim.rank)
        k2 = [k for k in mp_run.kernels if k.kernel.value == "k2-filter"][0]
        assert k2.details["parallel_executor"] == "mp"
        # Both launches report what the run moved: the same document.
        assert k3_traffic(mp_run) == k3_traffic(sim)
        assert k3_traffic(mp_run)["total_bytes"] > 0

    def test_runspec_carries_the_knob(self):
        from repro.api import RunSpec

        spec = RunSpec(scale=6, execution="parallel",
                       parallel_executor="mp")
        assert spec.to_config().parallel_executor == "mp"
