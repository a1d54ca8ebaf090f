"""Unit tests for the lane configuration of the process-worker runtime.

What is specific to lanes: the codec ops produce byte-identical
artifacts to in-process execution (over the pipe and over shared
memory), ``LaneTask`` descriptors dispatch, and the spans carry the
``lane-`` names.  The runtime itself (crash → replace, tokens,
prestart, shutdown, span merging) is covered once in
``test_procpool.py``.
"""

from __future__ import annotations

import signal
import subprocess
import textwrap
import time

import numpy as np
import pytest
from procpool_ops import HAS_PROC, TEST_OPS, children, gone, host

from repro.core.lanes import (
    DEFAULT_LANE_WORKERS,
    LANE_OPS,
    LaneTask,
    ProcessLanePool,
    run_lane_op,
)
from repro.core.procpool import ProcessPool, RemoteOpError
from repro.core.shmplane import ShardBuffer, shm_available
from repro.edgeio.dataset import read_shard_file, write_shard
from repro.edgeio.manifest import ShardInfo

needs_shm = pytest.mark.skipif(
    not shm_available(),
    reason="host cannot create shared-memory segments",
)
needs_proc = pytest.mark.skipif(not HAS_PROC, reason="no /proc")


def _wait_gone(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not all(gone(pid) for pid in pids):
        assert time.monotonic() < deadline, f"still running: {pids}"
        time.sleep(0.05)


def _edges(n=200, seed=3):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 1 << 12, n, dtype=np.int64),
        rng.integers(0, 1 << 12, n, dtype=np.int64),
    )


def _encode_payload(directory, index, u, v, fmt="tsv"):
    return dict(
        directory=str(directory), index=index, u=u, v=v,
        fmt=fmt, vertex_base=0,
    )


def _decode_payload(path, info):
    """A decode op's payload: the file, and the ShardInfo its write
    returned (what the read is checked against)."""
    return dict(path=str(path), info=info, fmt="tsv", vertex_base=0,
                num_vertices=1 << 12)


@pytest.fixture(scope="module")
def pool():
    lane_pool = ProcessLanePool(2)
    yield lane_pool
    lane_pool.shutdown()


class TestLaneOps:
    def test_registry_has_the_codec_ops(self):
        assert set(LANE_OPS) >= {"encode-shard", "decode-shard"}

    def test_run_lane_op_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown op"):
            run_lane_op("nope", {})

    def test_encode_op_matches_write_shard(self, tmp_path):
        u, v = _edges()
        (tmp_path / "ref").mkdir()
        reference = write_shard(tmp_path / "ref", 0, u, v,
                                fmt="tsv", vertex_base=0)
        info = run_lane_op(
            "encode-shard", _encode_payload(tmp_path / "lane", 0, u, v)
        )
        assert info == reference
        assert (
            (tmp_path / "lane" / info.name).read_bytes()
            == (tmp_path / "ref" / reference.name).read_bytes()
        )

    def test_decode_op_matches_read_shard_file(self, tmp_path):
        u, v = _edges()
        info = run_lane_op("encode-shard", _encode_payload(tmp_path, 0, u, v))
        path = tmp_path / "part-00000.tsv"
        lane_u, lane_v = run_lane_op("decode-shard",
                                     _decode_payload(path, info))
        ref_u, ref_v = read_shard_file(path, info, fmt="tsv", vertex_base=0,
                                       num_vertices=1 << 12)
        assert np.array_equal(lane_u, ref_u)
        assert np.array_equal(lane_v, ref_v)


@needs_shm
class TestShmLaneOps:
    """The zero-copy op variants: same bytes, segments via names."""

    def test_registry_has_the_shm_ops(self):
        assert {"encode-shard-shm", "decode-shard-shm"} <= set(LANE_OPS)

    def test_encode_shm_matches_plain_encode(self, tmp_path):
        u, v = _edges()
        buffer = ShardBuffer.create(u, v)
        try:
            info = run_lane_op("encode-shard-shm", dict(
                directory=str(tmp_path / "shm"), index=0,
                shm=buffer.name, start=0, end=len(u),
                fmt="tsv", vertex_base=0,
            ))
            reference = run_lane_op(
                "encode-shard", _encode_payload(tmp_path / "ref", 0, u, v)
            )
            assert info == reference
            assert (
                (tmp_path / "shm" / info.name).read_bytes()
                == (tmp_path / "ref" / reference.name).read_bytes()
            )
        finally:
            buffer.release()

    def test_encode_shm_slices_the_segment(self, tmp_path):
        # The shard plane ships ONE segment for all shards; each encode
        # op carves its own [start, end) window out of it.
        u, v = _edges(n=100)
        buffer = ShardBuffer.create(u, v)
        try:
            info = run_lane_op("encode-shard-shm", dict(
                directory=str(tmp_path / "shm"), index=1,
                shm=buffer.name, start=25, end=75,
                fmt="tsv", vertex_base=0,
            ))
            reference = run_lane_op("encode-shard", _encode_payload(
                tmp_path / "ref", 1, u[25:75], v[25:75]
            ))
            assert info == reference
            assert (
                (tmp_path / "shm" / info.name).read_bytes()
                == (tmp_path / "ref" / reference.name).read_bytes()
            )
        finally:
            buffer.release()

    def test_decode_shm_round_trip(self, tmp_path):
        u, v = _edges(seed=13)
        info = run_lane_op("encode-shard", _encode_payload(tmp_path, 0, u, v))
        name = run_lane_op("decode-shard-shm", _decode_payload(
            tmp_path / "part-00000.tsv", info,
        ))
        assert isinstance(name, str)  # only the name crosses the pipe
        adopted = ShardBuffer.attach(name, owner=True)
        try:
            du, dv = adopted.arrays()
            assert np.array_equal(du, u) and np.array_equal(dv, v)
        finally:
            adopted.release()

    def test_shm_ops_work_through_the_pool(self, pool, tmp_path):
        # Cross-process for real: the parent creates the segment, a
        # lane worker encodes from it by name.
        u, v = _edges(seed=17)
        buffer = ShardBuffer.create(u, v)
        try:
            info = pool.run("encode-shard-shm", dict(
                directory=str(tmp_path), index=0,
                shm=buffer.name, start=0, end=len(u),
                fmt="tsv", vertex_base=0,
            ))
            assert info.num_edges == len(u)
            name = pool.run("decode-shard-shm", _decode_payload(
                tmp_path / info.name, info,
            ))
            adopted = ShardBuffer.attach(name, owner=True)
            try:
                du, dv = adopted.arrays()
                assert np.array_equal(du, u) and np.array_equal(dv, v)
            finally:
                adopted.release()
        finally:
            buffer.release()

    @needs_proc
    def test_exported_segment_outlives_its_worker(self, tmp_path):
        # The worker creates the segment, exports it and exits (its own
        # resource tracker with it); the segment survives until the
        # adopting parent unlinks it, and is then gone.
        u, v = _edges(seed=19)
        info = run_lane_op("encode-shard", _encode_payload(tmp_path, 0, u, v))
        single = ProcessLanePool(1)
        try:
            name = single.run("decode-shard-shm", _decode_payload(
                tmp_path / info.name, info,
            ))
            worker = single._handles[0].process.pid
            helpers = children(worker)  # the worker's resource tracker
        finally:
            single.shutdown()
        _wait_gone([worker, *helpers])
        adopted = ShardBuffer.attach(name, owner=True)
        du, dv = adopted.arrays()
        assert np.array_equal(du, u) and np.array_equal(dv, v)
        del du, dv
        adopted.release()
        with pytest.raises(FileNotFoundError):
            ShardBuffer.attach(name)

    def test_workers_start_their_own_tracker(self):
        # A parent whose resource tracker runs (it made a segment)
        # passes nothing of it to a worker: the worker is a fresh
        # interpreter, so an attach there must drop its own duplicate
        # registration (bpo-39959).
        buffer = ShardBuffer.create(*_edges(n=4))
        single = ProcessPool(1, TEST_OPS, name="lane")
        try:
            assert single.run("tracker-inherited", None) is False
        finally:
            single.shutdown()
            buffer.release()


class TestProcessLanePool:
    def test_round_trip_bit_identical(self, pool, tmp_path):
        u, v = _edges()
        info = pool.run(
            "encode-shard", _encode_payload(tmp_path, 0, u, v)
        )
        (tmp_path / "ref").mkdir()
        reference = write_shard(tmp_path / "ref", 0, u, v,
                                fmt="tsv", vertex_base=0)
        assert info == reference
        assert (
            (tmp_path / info.name).read_bytes()
            == (tmp_path / "ref" / reference.name).read_bytes()
        )
        lane_u, lane_v = pool.run(
            "decode-shard", _decode_payload(tmp_path / info.name, info),
        )
        assert np.array_equal(lane_u, u) and np.array_equal(lane_v, v)

    def test_run_task_dispatches_descriptor(self, pool, tmp_path):
        u, v = _edges(seed=5)
        info = pool.run_task(
            LaneTask("encode-shard", _encode_payload(tmp_path, 1, u, v))
        )
        assert info.num_edges == len(u)

    def test_remote_error_fails_the_task_with_its_type_name(
        self, pool, tmp_path
    ):
        with pytest.raises(RemoteOpError, match="^FileNotFoundError: "):
            pool.run_task(LaneTask("decode-shard", _decode_payload(
                tmp_path / "missing.tsv", ShardInfo("missing.tsv", 0, 0),
            )))

    def test_run_task_timed_reports_queue_wait(self, pool, tmp_path):
        result, queue_wait = pool.run_task_timed(
            LaneTask("encode-shard", _encode_payload(tmp_path, 9, *_edges()))
        )
        assert result.num_edges == 200
        assert queue_wait >= 0.0

    @needs_proc
    def test_workers_exit_with_a_killed_host(self):
        # SIGKILL runs no shutdown(): each worker must read EOF on its
        # pipe and exit on its own.
        program = textwrap.dedent("""
            import sys
            from repro.core.lanes import ProcessLanePool
            pool = ProcessLanePool()
            pool.prestart()
            print(*(h.process.pid for h in pool._handles), flush=True)
            sys.stdin.read()
        """)
        parent = host(["-c", program], stdin=subprocess.PIPE,
                      stdout=subprocess.PIPE)
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == DEFAULT_LANE_WORKERS >= 1
            assert not any(gone(pid) for pid in pids)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            parent.stdin.close()
            parent.stdout.close()
        _wait_gone(pids)

    def test_traced_dispatch_uses_the_lane_span_names(self, pool, tmp_path):
        from repro.core import trace

        collector = trace.TraceCollector()
        with trace.activate(collector):
            pool.run("encode-shard", _encode_payload(tmp_path, 21, *_edges()))
        spans = {s.name: s for s in collector.spans()}
        assert set(spans) >= {"lane-dispatch:encode-shard",
                              "lane-op:encode-shard"}
        op = spans["lane-op:encode-shard"]
        assert op.cat == "lane" and op.proc.startswith("repro-lane-")
        assert op.parent_id == spans["lane-dispatch:encode-shard"].span_id
