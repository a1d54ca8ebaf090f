"""Unit tests for the parallel substrate: partition, the communicator
under both launches (thread ranks, process ranks), its failure
semantics, traffic accounting, kernels."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.parallel.comm import payload_nbytes, run_rank_programs
from repro.parallel.kernels import exchange_edges_by_owner, parallel_kernel2
from repro.parallel.partition import RowPartition
from repro.parallel.traffic import TrafficLog

#: For the subprocess probe: import the package the way this process does.
_SRC = str(Path(repro.__file__).resolve().parents[1])


class TestPartition:
    def test_bounds_cover_all_rows(self):
        p = RowPartition(num_vertices=100, size=7)
        covered = []
        for rank in range(7):
            lo, hi = p.bounds(rank)
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_balanced_within_one(self):
        p = RowPartition(num_vertices=10, size=3)
        sizes = [p.local_count(r) for r in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_owner_of_matches_bounds(self):
        p = RowPartition(num_vertices=64, size=5)
        vertices = np.arange(64)
        owners = p.owner_of(vertices)
        for rank in range(5):
            lo, hi = p.bounds(rank)
            assert np.all(owners[lo:hi] == rank)

    def test_owner_rejects_out_of_range(self):
        p = RowPartition(num_vertices=8, size=2)
        with pytest.raises(ValueError):
            p.owner_of(np.array([8]))

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            RowPartition(num_vertices=4, size=2).bounds(2)

    def test_more_ranks_than_rows(self):
        p = RowPartition(num_vertices=2, size=4)
        sizes = [p.local_count(r) for r in range(4)]
        assert sum(sizes) == 2


# Rank programs are module-level so process ranks can pickle them.

def _allreduce_sum(comm):
    return comm.allreduce(np.array([float(comm.rank + 1)]))


def _allreduce_max_min(comm):
    hi = comm.allreduce(float(comm.rank), op="max")
    lo = comm.allreduce(float(comm.rank), op="min")
    return hi, lo


def _allreduce_unknown_op(comm):
    return comm.allreduce(1.0, op="xor")


def _bcast_from_rank_1(comm):
    payload = {"data": comm.rank} if comm.rank == 1 else None
    return comm.bcast(payload, root=1)


def _allgather(comm):
    return comm.allgather(comm.rank * 10)


def _alltoall(comm):
    payloads = [f"{comm.rank}->{dest}" for dest in range(comm.size)]
    return comm.alltoall(payloads)


def _alltoall_wrong_length(comm):
    return comm.alltoall([1])


def _send_recv(comm):
    if comm.rank == 0:
        comm.send(1, np.array([42]))
        return None
    return comm.recv(0)[0]


def _barrier(comm):
    comm.barrier()
    return comm.rank


def _single_rank(comm):
    assert comm.allreduce(5.0) == 5.0
    assert comm.allgather("x") == ["x"]
    comm.barrier()
    return comm.size


def _allreduce_mutate_then_again(comm):
    out = comm.allreduce(np.ones(3))
    out[0] = 99.0  # must not corrupt other ranks' view
    comm.barrier()
    again = comm.allreduce(np.ones(3))
    return again[0]


@pytest.fixture(params=[False, True], ids=["threads", "processes"])
def processes(request):
    """Both launches of the one communicator."""
    return request.param


class TestCollectives:
    def test_allreduce_sum(self, processes):
        results = run_rank_programs(_allreduce_sum, 4, processes=processes)
        assert all(r[0] == 10.0 for r in results)

    def test_allreduce_max_and_min(self, processes):
        for hi, lo in run_rank_programs(_allreduce_max_min, 3,
                                        processes=processes):
            assert (hi, lo) == (2.0, 0.0)

    def test_allreduce_unknown_op(self, processes):
        with pytest.raises(RuntimeError, match="failed.*unknown reduce op"):
            run_rank_programs(_allreduce_unknown_op, 2, processes=processes)

    def test_bcast_from_nonzero_root(self, processes):
        results = run_rank_programs(_bcast_from_rank_1, 3, processes=processes)
        assert results == [{"data": 1}] * 3

    def test_allgather_ordered(self, processes):
        results = run_rank_programs(_allgather, 3, processes=processes)
        assert results == [[0, 10, 20]] * 3

    def test_alltoall_personalised(self, processes):
        results = run_rank_programs(_alltoall, 3, processes=processes)
        assert results[1] == ["0->1", "1->1", "2->1"]
        assert results[2] == ["0->2", "1->2", "2->2"]

    def test_alltoall_wrong_length(self, processes):
        with pytest.raises(RuntimeError, match="alltoall needs 2 payloads"):
            run_rank_programs(_alltoall_wrong_length, 2, processes=processes)

    def test_send_recv(self, processes):
        results = run_rank_programs(_send_recv, 2, processes=processes)
        assert results[1] == 42

    def test_barrier_completes(self, processes):
        assert run_rank_programs(_barrier, 4, processes=processes) == [0, 1, 2, 3]

    def test_single_rank_group(self, processes):
        assert run_rank_programs(_single_rank, 1, processes=processes) == [1]

    def test_allreduce_returns_copy(self, processes):
        results = run_rank_programs(_allreduce_mutate_then_again, 3,
                                    processes=processes)
        assert all(v == float(3) for v in results)

    def test_size_validation(self, processes):
        with pytest.raises(ValueError):
            run_rank_programs(_barrier, 0, processes=processes)


def _rank_0_raises_others_in_barrier(comm):
    if comm.rank == 0:
        raise ValueError("rank 0 exploded")
    comm.barrier()


def _rank_1_raises_others_in_barrier(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()


def _rank_1_raises_rank_0_in_recv(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    if comm.rank == 0:
        return comm.recv(1)
    comm.barrier()


def _rank_1_calls_the_wrong_collective(comm):
    if comm.rank == 1:
        return comm.allreduce(1.0)
    comm.barrier()


def _rank_1_returns_early(comm):
    if comm.rank == 1:
        return "early"
    comm.barrier()


def _timed_failure(program, processes, timeout, fast_enough):
    """``(seconds, message)`` of a failing 3-rank run.  Retried (twice at
    most) while ``fast_enough(seconds)`` is false, so one scheduling
    stall of a shared host cannot fail a latency bound."""
    for _ in range(3):
        start = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            run_rank_programs(program, 3, processes=processes,
                              timeout=timeout)
        seconds = time.monotonic() - start
        if fast_enough(seconds):
            break
    return seconds, str(excinfo.value)


def _ranks_still_alive():
    threads = [t.name for t in threading.enumerate()
               if t.name.startswith("rank-")]
    children = [p.name for p in multiprocessing.active_children()
                if p.name.startswith("rank-")]
    return threads + children


class TestFailureSemantics:
    """A failing group raises fast, names the culprit, leaves nothing
    behind — whichever way the ranks were launched."""

    @pytest.mark.parametrize("program, expected", [
        (_rank_0_raises_others_in_barrier,
         "rank 0 failed: ValueError('rank 0 exploded')"),
        (_rank_1_raises_others_in_barrier,
         "rank 1 failed: ValueError('rank 1 exploded')"),
        (_rank_1_raises_rank_0_in_recv,
         "rank 1 failed: ValueError('rank 1 exploded')"),
        (_rank_1_calls_the_wrong_collective,
         "collective mismatch at hub: expected 'barrier', "
         "rank 1 sent 'allreduce'"),
    ], ids=["rank-0-raises", "rank-1-raises", "recv-from-failed-peer",
            "collective-mismatch"])
    def test_failure_raises_fast_with_the_real_error(
            self, processes, program, expected):
        seconds, message = _timed_failure(
            program, processes, 30.0, lambda s: s < 2.0)
        assert seconds < 2.0
        assert expected in message
        assert "terminated" not in message and "Empty()" not in message
        assert _ranks_still_alive() == []

    def test_early_return_times_out_as_a_deadlock(self, processes):
        timeout = 1.0
        seconds, message = _timed_failure(
            _rank_1_returns_early, processes, timeout,
            lambda s: s < timeout + 2.0)
        assert timeout <= seconds < timeout + 2.0
        assert "ranks [0, 2] deadlocked or timed out" in message
        assert _ranks_still_alive() == []

    def test_interpreter_exits_after_a_thread_rank_fails(self):
        # A rank blocked in recv() on a peer that raised must be woken:
        # a leaked rank thread keeps the interpreter from exiting.
        script = textwrap.dedent("""
            from repro.parallel import run_rank_programs

            def program(comm):
                if comm.rank == 1:
                    raise ValueError("boom")
                return comm.recv(1)

            try:
                run_rank_programs(program, 2, timeout=30.0)
            except RuntimeError as exc:
                assert "rank 1 failed: ValueError('boom')" in str(exc), exc
            else:
                raise SystemExit("no error raised")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def _allreduce_100_zeros(comm):
    comm.allreduce(np.zeros(100))  # 800 bytes


def _bcast_10_zeros(comm, root):
    comm.bcast(np.zeros(10) if comm.rank == root else None, root=root)


def _allreduce_scalar(comm):
    comm.allreduce(1.0)


def _allgather_and_alltoall(comm):
    comm.allgather(np.zeros(comm.rank + 1))
    comm.alltoall([np.zeros(dest + 1) for dest in range(comm.size)])
    comm.send((comm.rank + 1) % comm.size, np.zeros(2))
    comm.recv((comm.rank - 1) % comm.size)


class TestTrafficAccounting:
    def test_allreduce_bytes_naive_model(self, processes):
        traffic = TrafficLog()
        run_rank_programs(_allreduce_100_zeros, 4, processes=processes,
                          traffic=traffic)
        # Naive: 2 * (p-1) * payload = 2 * 3 * 800.
        assert traffic.bytes_by_op()["allreduce"] == 4800

    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_bytes(self, processes, root):
        traffic = TrafficLog()
        run_rank_programs(_bcast_10_zeros, 3, root, processes=processes,
                          traffic=traffic)
        assert traffic.bytes_by_op() == {"bcast": 2 * 80}

    def test_collectives_logged_once(self, processes):
        traffic = TrafficLog()
        run_rank_programs(_allreduce_scalar, 4, processes=processes,
                          traffic=traffic)
        assert len(traffic.records) == 1

    def test_allgather_alltoall_send_bytes(self, processes):
        traffic = TrafficLog()
        run_rank_programs(_allgather_and_alltoall, 3, processes=processes,
                          traffic=traffic)
        assert traffic.bytes_by_op() == {
            # every rank's value reaches the 2 others: (1+2+3) * 8 * 2
            "allgather": 96,
            # off-diagonal of the payload matrix: each dest d gets
            # (d+1) doubles from its 2 peers
            "alltoall": (1 + 2 + 3) * 8 * 2,
            "send": 3 * 16,
        }
        # Ranks log locally; the launcher merges the logs in rank order.
        assert [r.rank for r in traffic.records] == [0, 0, 0, 1, 2]

    def test_summary_shape(self):
        log = TrafficLog()
        log.record("send", 100, 1, rank=2)
        summary = log.summary()
        assert summary["total_bytes"] == 100
        assert summary["total_messages"] == 1
        assert summary["bytes_by_op"] == {"send": 100}

    def test_payload_nbytes(self):
        assert payload_nbytes(np.zeros(4)) == 32
        assert payload_nbytes(3) == 8
        assert payload_nbytes(True) == 1
        assert payload_nbytes(b"ab") == 2
        assert payload_nbytes("abc") == 3
        assert payload_nbytes([np.zeros(2), 1]) == 24
        assert payload_nbytes(object()) == 64


class TestExchangeAndKernels:
    def test_exchange_routes_to_owner(self):
        n = 16

        def program(comm, u, v):
            partition = RowPartition(num_vertices=n, size=comm.size)
            per = len(u) // comm.size
            start = comm.rank * per
            end = len(u) if comm.rank == comm.size - 1 else start + per
            lu, lv = exchange_edges_by_owner(
                comm, partition, u[start:end], v[start:end]
            )
            lo, hi = partition.bounds(comm.rank)
            assert np.all((lu >= lo) & (lu < hi))
            return len(lu)

        rng = np.random.default_rng(0)
        u = rng.integers(0, n, size=200).astype(np.int64)
        v = rng.integers(0, n, size=200).astype(np.int64)
        counts = run_rank_programs(program, 4, u, v)
        assert sum(counts) == 200

    @pytest.mark.parametrize("ranks", [1, 2, 3, 5])
    def test_exchange_keeps_every_edge_intact(self, ranks):
        # The shuffle only moves edges: the union over ranks is the input
        # multiset, each (u, v) pair still together.
        n = 23

        def program(comm, u, v):
            partition = RowPartition(num_vertices=n, size=comm.size)
            mine = slice(comm.rank, None, comm.size)
            return exchange_edges_by_owner(comm, partition, u[mine], v[mine])

        rng = np.random.default_rng(ranks)
        u = rng.integers(0, n, size=150).astype(np.int64)
        v = rng.integers(0, n, size=150).astype(np.int64)
        parts = run_rank_programs(program, ranks, u, v)
        got = sorted(zip(np.concatenate([p[0] for p in parts]).tolist(),
                         np.concatenate([p[1] for p in parts]).tolist()))
        assert got == sorted(zip(u.tolist(), v.tolist()))

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_parallel_kernel2_counts_each_eliminated_column_once(self, ranks):
        # Maximum in-degree 1: columns 1 and 3 are super-node *and* leaf.
        n = 4
        u = np.array([0, 2], dtype=np.int64)
        v = np.array([1, 3], dtype=np.int64)

        def program(comm):
            partition = RowPartition(num_vertices=n, size=comm.size)
            mask = partition.owner_of(u) == comm.rank
            matrix, details = parallel_kernel2(comm, partition, u[mask], v[mask])
            return details["eliminated_columns"], matrix.nnz

        results = run_rank_programs(program, ranks)
        assert [eliminated for eliminated, _ in results] == [2] * ranks
        assert sum(nnz for _, nnz in results) == 0

    def test_parallel_kernel2_reports_global_total(self):
        n = 8
        u = np.array([0, 0, 5, 7], dtype=np.int64)
        v = np.array([1, 1, 2, 2], dtype=np.int64)

        def program(comm):
            partition = RowPartition(num_vertices=n, size=comm.size)
            mask = partition.owner_of(u) == comm.rank
            matrix, details = parallel_kernel2(comm, partition, u[mask], v[mask])
            return details["pre_filter_entry_total"]

        totals = run_rank_programs(program, 2)
        assert all(t == 4.0 for t in totals)
