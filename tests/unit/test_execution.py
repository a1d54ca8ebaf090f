"""Unit tests for the stage table, executors, and artifact cache."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.backends.registry import get_backend
from repro.core.artifacts import (
    ArtifactCache,
    cache_key,
    k0_cache_fields,
    k1_cache_fields,
)
from repro.core.config import VALIDATION_MODES, KernelName, PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.core.executor import (
    SerialExecutor,
    ShardParallelExecutor,
    StreamingExecutor,
    available_executions,
    get_executor,
)
from repro.core.stages import (
    ARTIFACT_K0,
    ARTIFACT_RANK,
    STAGES,
    RankContract,
    StageContext,
)


class TestStages:
    def test_stages_shape(self):
        assert [s.kernel for s in STAGES] == list(KernelName)
        assert [s.provides for s in STAGES] == [
            "k0_dataset", "k1_dataset", "adjacency", "rank"]
        assert STAGES[0].officially_timed is False
        assert all(s.officially_timed for s in STAGES[1:])
        assert all(s.contract is not None for s in STAGES)
        assert [s.iterations_scaled for s in STAGES] == [
            False, False, False, True]

    def test_nominal_edges(self):
        config = PipelineConfig(scale=6, iterations=5)
        assert STAGES[1].nominal_edges(config) == 1024
        assert STAGES[3].nominal_edges(config) == 5120


class TestContractRunner:
    """Every executor checks, times and spans contracts the same way, and
    runs exactly the checks ``config.validation`` names."""

    @pytest.mark.parametrize("execution", available_executions())
    @pytest.mark.parametrize("validation", VALIDATION_MODES)
    def test_validation_mode_selects_the_checks(self, execution, validation):
        result = get_executor(execution).execute(PipelineConfig(
            scale=6, seed=1, execution=execution, validation=validation,
            trace=True,
        ))
        contracts = validation in ("contracts", "full")
        eigenvector = validation == "full"
        timed = ["contract_seconds" in k.details for k in result.kernels]
        assert timed == [contracts] * 4
        assert all(k.details.get("contract_seconds", 0.0) >= 0.0
                   for k in result.kernels)
        spans = [s["name"] for s in result.trace["spans"]
                 if s["cat"] == "verify"]
        expected = [f"contract:{kernel.value}" for kernel in KernelName
                    ] if contracts else []
        assert sorted(spans) == sorted(
            expected + (["validate"] if eigenvector else []))
        assert (result.validation is not None) == eigenvector
        if eigenvector:
            assert result.validation["passed"]


class TestContracts:
    def _ctx(self, config=PipelineConfig(scale=6, seed=1), **artifacts):
        ctx = StageContext(config=config, backend=get_backend("scipy"),
                           base_dir=Path("/nonexistent"))
        ctx.artifacts.update(artifacts)
        return ctx

    def test_missing_artifact_is_diagnosable(self):
        with pytest.raises(KernelContractError, match="never produced"):
            RankContract().check(self._ctx())

    def test_rank_contract_shape(self):
        ctx = self._ctx(**{ARTIFACT_RANK: np.ones(3)})
        with pytest.raises(KernelContractError, match="shape"):
            RankContract().check(ctx)

    def test_rank_contract_negative(self):
        rank = np.full(64, 1.0 / 64)
        rank[5] = -0.25
        ctx = self._ctx(**{ARTIFACT_RANK: rank})
        with pytest.raises(KernelContractError, match="negative"):
            RankContract().check(ctx)

    def test_rank_contract_passes(self):
        ctx = self._ctx(**{ARTIFACT_RANK: np.full(64, 1.0 / 64)})
        RankContract().check(ctx)  # no raise

    def test_filter_contract_rejects_non_finite_total(self):
        from repro.core.stages import ARTIFACT_ADJACENCY, FilterContract

        class _NaNHandle:
            num_vertices = 64
            pre_filter_entry_total = float("nan")

        ctx = self._ctx(**{ARTIFACT_ADJACENCY: _NaNHandle()})
        with pytest.raises(KernelContractError, match="non-finite"):
            FilterContract().check(ctx)

    def test_sort_contract_checks_pairs_across_shards_when_asked(
            self, tmp_path):
        from repro.core.stages import ARTIFACT_K1, SortContract
        from repro.edgeio.dataset import EdgeDataset

        # Each shard is in (u, v) order; the step between them, (1, 5)
        # then (1, 2), is in start-vertex order only.
        u = np.array([0, 1, 1, 2], dtype=np.int64)
        v = np.array([0, 5, 2, 3], dtype=np.int64)
        dataset = EdgeDataset.write(tmp_path / "k1", u, v, num_vertices=64,
                                    num_shards=2)
        artifacts = {ARTIFACT_K0: dataset, ARTIFACT_K1: dataset}
        SortContract().check(self._ctx(**artifacts))  # no raise
        pairs = PipelineConfig(scale=6, seed=1, sort_by_end_vertex=True)
        with pytest.raises(KernelContractError,
                           match=r"\(u, v\) across shard boundaries"):
            SortContract().check(self._ctx(config=pairs, **artifacts))


class TestRunDirectory:
    """The run's own file directory is made when a kernel first writes a
    file, and always removed: a warm run whose kernels all hit the
    artifact cache makes none."""

    @staticmethod
    def _made(monkeypatch, config):
        import tempfile

        from repro.core import stages

        made = []
        real = tempfile.mkdtemp

        def spy(*args, **kwargs):
            made.append(Path(real(*args, **kwargs)))
            return str(made[-1])

        with monkeypatch.context() as patch:
            # The module is shared: cache staging directories pass too.
            patch.setattr(stages.tempfile, "mkdtemp", spy)
            SerialExecutor().execute(config)
        return [path for path in made
                if path.name.startswith("repro-pipeline-")]

    def test_cold_run_makes_and_removes_one(self, monkeypatch):
        made = self._made(monkeypatch, PipelineConfig(scale=6, seed=1))
        assert len(made) == 1 and not made[0].exists()

    def test_cached_runs_make_none(self, monkeypatch, tmp_path):
        # K0 and K1 write into cache entries even on a miss.
        config = PipelineConfig(scale=6, seed=1, cache_dir=tmp_path / "c")
        assert self._made(monkeypatch, config) == []
        assert self._made(monkeypatch, config) == []

    def test_given_directory_is_kept(self, monkeypatch, tmp_path):
        config = PipelineConfig(scale=6, seed=1, data_dir=tmp_path / "d")
        assert self._made(monkeypatch, config) == []
        assert (tmp_path / "d" / "k0").is_dir()


class TestExecutorRegistry:
    def test_available(self):
        assert available_executions() == (
            "serial", "streaming", "parallel", "async",
        )

    def test_lookup(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("streaming"), StreamingExecutor)
        assert isinstance(get_executor("parallel"), ShardParallelExecutor)

    def test_lazy_async_lookup(self):
        from repro.core.async_executor import AsyncExecutor

        assert isinstance(get_executor("async"), AsyncExecutor)
        # Resolution is cached: the registry now holds the class itself.
        assert isinstance(get_executor("async"), AsyncExecutor)

    def test_unknown_raises_keyerror_listing_valid(self):
        with pytest.raises(KeyError, match="serial, streaming, parallel, async"):
            get_executor("quantum")


class TestConfigExecutionFields:
    def test_defaults(self):
        config = PipelineConfig(scale=6)
        assert config.execution == "serial"
        assert config.cache_dir is None
        assert config.parallel_ranks == 4

    def test_rejects_unknown_execution(self):
        with pytest.raises(ValueError, match="execution"):
            PipelineConfig(scale=6, execution="turbo")

    def test_rejects_bad_ranks_and_batch(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale=6, parallel_ranks=0)
        with pytest.raises(ValueError):
            PipelineConfig(scale=6, streaming_batch_edges=0)


class TestSweepCachePreference:
    @staticmethod
    def _sweep(repeats):
        from repro.api import RunSpec, SweepSpec

        return SweepSpec(base=RunSpec(scale=6, validation="off"),
                         scales=(6,), backends=("scipy",), repeats=repeats)

    def test_best_of_prefers_uncached_timings(self, monkeypatch):
        from repro.api import execute_sweep, runner
        from repro.core.results import KernelResult, PipelineResult

        calls = {"n": 0}

        def fake_run_pipeline(config):
            # First repeat: real (slow) K0/K1; later repeats: cache
            # hits that are much faster but meaningless as throughput.
            calls["n"] += 1
            hit = calls["n"] > 1
            result = PipelineResult(config=config)
            for kernel in KernelName:
                cached = hit and kernel in (KernelName.K0_GENERATE,
                                            KernelName.K1_SORT)
                result.kernels.append(
                    KernelResult(
                        kernel=kernel,
                        seconds=0.001 if hit else 0.5,
                        edges_processed=config.num_edges,
                        details={"artifact_cache": "hit"} if cached else {},
                    )
                )
            return result

        monkeypatch.setattr(runner, "run_pipeline", fake_run_pipeline)
        records = {r.kernel: r for r in execute_sweep(self._sweep(3))}
        # Cached K1 reads never displace the real sort measurement...
        assert records["k1-sort"].seconds == 0.5
        assert not records["k1-sort"].cached
        assert records["k0-generate"].seconds == 0.5
        # ...while genuinely re-measured kernels keep best-of as before.
        assert records["k2-filter"].seconds == 0.001

    def test_all_hit_records_are_flagged_cached(self, monkeypatch, caplog):
        # A warm cache (earlier sweep populated it) means every repeat
        # hits; the record is kept but marked so figures/reports can
        # tell cache-read speed from real throughput.
        import logging

        from repro.api import execute_sweep, runner
        from repro.core.results import KernelResult, PipelineResult

        def fake_run_pipeline(config):
            result = PipelineResult(config=config)
            for kernel in KernelName:
                cached = kernel in (KernelName.K0_GENERATE,
                                    KernelName.K1_SORT)
                result.kernels.append(
                    KernelResult(
                        kernel=kernel,
                        seconds=0.001,
                        edges_processed=config.num_edges,
                        details={"artifact_cache": "hit"} if cached else {},
                    )
                )
            return result

        monkeypatch.setattr(runner, "run_pipeline", fake_run_pipeline)
        with caplog.at_level(logging.WARNING, logger="repro.api"):
            records = {r.kernel: r for r in execute_sweep(self._sweep(2))}
        assert records["k1-sort"].cached
        assert not records["k2-filter"].cached
        assert any("artifact-cache read" in m for m in caplog.messages)

    def test_cached_records_excluded_from_figures(self):
        from repro.harness.figures import build_figure_series
        from repro.harness.records import MeasurementRecord

        records = [
            MeasurementRecord("scipy", 6, 1024, "k0-generate", 0.0001,
                              10_240_000.0, False, cached=True),
            MeasurementRecord("numpy", 6, 1024, "k0-generate", 0.1,
                              10_240.0, False),
        ]
        figure = build_figure_series("fig4", records)
        # The cache read never shows up as generate throughput.
        assert figure.backends() == ["numpy"]

    def test_cached_records_excluded_from_report_totals(self):
        from repro.harness.records import MeasurementRecord
        from repro.harness.report import build_report

        records = [
            MeasurementRecord("scipy", 6, 1024, "k1-sort", 0.0001,
                              10_240_000.0, True, cached=True),
            MeasurementRecord("scipy", 6, 1024, "k2-filter", 0.25,
                              4096.0, True),
            MeasurementRecord("scipy", 6, 1024, "k3-pagerank", 0.75,
                              27306.0, True),
        ]
        document = build_report(records)
        # Total sums only the really-measured kernels and is flagged.
        assert "| scipy | 6 | 1.0000 * |" in document
        assert "omits kernels served from the artifact cache" in document

    def test_cached_flag_survives_save_load(self, tmp_path):
        from repro.harness.records import (
            MeasurementRecord,
            load_records,
            save_records,
        )

        records = [
            MeasurementRecord("scipy", 6, 1024, "k0-generate", 0.001,
                              1024000.0, False, cached=True),
            MeasurementRecord("scipy", 6, 1024, "k1-sort", 0.5,
                              2048.0, True),
        ]
        for name in ("r.json", "r.csv"):
            path = tmp_path / name
            save_records(records, path)
            loaded = load_records(path)
            assert [r.cached for r in loaded] == [True, False]


class TestArtifactCacheUnit:
    def test_root_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.touch()
        with pytest.raises(ValueError, match="not a directory"):
            ArtifactCache(not_a_dir)

    def test_key_is_order_independent_and_sensitive(self):
        assert (cache_key({"a": 1, "b": 2})
                == cache_key({"b": 2, "a": 1}))
        assert cache_key({"a": 1}) != cache_key({"a": 2})

    def test_k0_and_k1_fields_differ(self):
        config = PipelineConfig(scale=6)
        assert (cache_key(k0_cache_fields(config))
                != cache_key(k1_cache_fields(config)))

    def test_key_tracks_executing_backend_not_config(self):
        # run_pipeline(config, backend=instance) may run a backend other
        # than config.backend; the cache must key on what actually ran.
        config = PipelineConfig(scale=6, backend="numpy")
        assert (cache_key(k0_cache_fields(config, "python"))
                != cache_key(k0_cache_fields(config)))
        assert (cache_key(k0_cache_fields(config, "numpy"))
                == cache_key(k0_cache_fields(config)))

    def test_k1_key_tracks_sort_order_not_sort_path(self):
        base = PipelineConfig(scale=6)
        other = base.with_overrides(sort_by_end_vertex=True)
        assert (cache_key(k1_cache_fields(base))
                != cache_key(k1_cache_fields(other)))
        # K0 does not depend on how Kernel 1 sorts.
        assert (cache_key(k0_cache_fields(base))
                == cache_key(k0_cache_fields(other)))
        # The in-memory and out-of-core sorts write the same files.
        streaming = base.with_overrides(execution="streaming")
        assert (cache_key(k1_cache_fields(base))
                == cache_key(k1_cache_fields(streaming)))

    def test_miss_then_hit(self, tmp_path, tiny_dataset):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []

        def producer(entry):
            calls.append(entry)
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            ds = EdgeDataset.write(entry, u, v, num_vertices=64)
            return ds, {"fresh": True}

        fields = {"kernel": "k0", "scale": 6}
        first, d1 = cache.dataset("k0", fields, producer)
        second, d2 = cache.dataset("k0", fields, producer)
        assert len(calls) == 1
        assert d1["artifact_cache"] == "miss"
        assert d2["artifact_cache"] == "hit"
        assert d1["artifact_cache_key"] == d2["artifact_cache_key"]
        assert second.num_edges == first.num_edges

    def test_torn_entry_is_purged_and_regenerated(self, tmp_path, tiny_dataset):
        cache = ArtifactCache(tmp_path / "cache")

        def producer(entry):
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            return EdgeDataset.write(entry, u, v, num_vertices=64), {}

        fields = {"kernel": "k0", "scale": 6}
        first, _ = cache.dataset("k0", fields, producer)
        # Corrupt the entry: delete a shard but keep the manifest.
        first.shard_paths()[0].unlink()
        repaired, details = cache.dataset("k0", fields, producer)
        assert details["artifact_cache"] == "miss"
        assert repaired.read_all()[0].shape == tiny_dataset.read_all()[0].shape

    def test_publish_leaves_no_staging_dirs(self, tmp_path, tiny_dataset):
        cache = ArtifactCache(tmp_path / "cache")

        def producer(entry):
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            return EdgeDataset.write(entry, u, v, num_vertices=64), {}

        dataset, details = cache.dataset("k0", {"scale": 6}, producer)
        # The published dataset lives at the final entry path...
        entry = cache.entry_dir("k0", details["artifact_cache_key"])
        assert dataset.directory == entry
        # ...and no process-private staging dirs remain behind.
        leftovers = [p for p in (tmp_path / "cache" / "k0").iterdir()
                     if ".tmp-" in p.name]
        assert leftovers == []

    def test_entry_records_provenance(self, tmp_path, tiny_dataset):
        cache = ArtifactCache(tmp_path / "cache")

        def producer(entry):
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            return EdgeDataset.write(entry, u, v, num_vertices=64), {}

        fields = {"kernel": "k0", "scale": 6, "seed": 9}
        _, details = cache.dataset("k0", fields, producer)
        entry = cache.entry_dir("k0", details["artifact_cache_key"])
        assert (entry / "cache-entry.json").exists()
        assert '"seed": 9' in (entry / "cache-entry.json").read_text()
