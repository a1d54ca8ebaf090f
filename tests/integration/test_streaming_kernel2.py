"""Streaming (out-of-core) Kernel 2 vs the in-memory implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import get_backend
from repro.core.config import PipelineConfig
from repro.core.streaming import streaming_kernel2
from repro.edgeio.dataset import EdgeDataset
from repro.generators.kronecker import kronecker_edges


@pytest.fixture(scope="module")
def sorted_dataset(tmp_path_factory):
    u, v = kronecker_edges(9, 16, seed=17)
    base = tmp_path_factory.mktemp("streamk2")
    raw = EdgeDataset.write(base / "raw", u, v, num_vertices=512,
                            num_shards=4)
    config = PipelineConfig(scale=9, seed=17)
    backend = get_backend("scipy")
    k1, _ = backend.kernel1(config, raw, base / "k1")
    return k1


class TestStreamingMatchesInMemory:
    @pytest.mark.parametrize("batch_edges", [64, 500, 4096, 1 << 20])
    def test_identical_matrix_at_any_batch_size(self, sorted_dataset, batch_edges):
        config = PipelineConfig(scale=9, seed=17)
        reference, _ = get_backend("scipy").kernel2(config, sorted_dataset)
        result = streaming_kernel2(sorted_dataset, batch_edges=batch_edges)
        difference = abs(result.matrix - reference.to_scipy_csr())
        assert difference.nnz == 0 or difference.max() < 1e-15

    def test_entry_total_is_m(self, sorted_dataset):
        result = streaming_kernel2(sorted_dataset, batch_edges=300)
        assert result.pre_filter_entry_total == sorted_dataset.num_edges

    def test_batches_scale_with_budget(self, sorted_dataset):
        small = streaming_kernel2(sorted_dataset, batch_edges=128)
        large = streaming_kernel2(sorted_dataset, batch_edges=1 << 20)
        assert small.batches > large.batches
        # One input batch plus at most the carry-buffer flush.
        assert large.batches <= 2

    def test_eliminated_columns_match(self, sorted_dataset):
        config = PipelineConfig(scale=9, seed=17)
        _, details = get_backend("scipy").kernel2(config, sorted_dataset)
        result = streaming_kernel2(sorted_dataset, batch_edges=200)
        expected = details["supernode_columns"] + details["leaf_columns"]
        assert result.eliminated_columns == expected


class TestStreamingValidation:
    def test_rejects_unsorted_input(self, tmp_path):
        u = np.array([5, 1, 3], dtype=np.int64)
        v = np.array([0, 0, 0], dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "unsorted", u, v, num_vertices=8)
        with pytest.raises(ValueError, match="sorted"):
            streaming_kernel2(ds, batch_edges=2)

    def test_empty_dataset(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "empty", empty, empty,
                               num_vertices=4)
        result = streaming_kernel2(ds)
        assert result.matrix.nnz == 0
        assert result.pre_filter_entry_total == 0.0

    def test_single_row_spanning_batches(self, tmp_path):
        # Every edge shares one start vertex: the carry buffer holds the
        # entire stream until the end.
        u = np.zeros(100, dtype=np.int64)
        v = np.tile(np.arange(10, dtype=np.int64), 10)
        ds = EdgeDataset.write(tmp_path / "onerow", u, v, num_vertices=16)
        result = streaming_kernel2(ds, batch_edges=7)
        assert result.pre_filter_entry_total == 100.0

    def test_long_row_carry_matches_in_memory(self, tmp_path):
        # Row 5 spans six batches of 8 with duplicate columns inside and
        # across batches; batch 0 is exactly row 2, so it ends on a row
        # boundary and its carry meets a batch holding none of its row.
        row_lengths = {2: 8, 5: 45, 9: 3, 10: 1, 31: 14}
        u = np.repeat(np.fromiter(row_lengths, dtype=np.int64),
                      list(row_lengths.values()))
        v = (np.arange(len(u), dtype=np.int64) * 7) % 11 + 20
        ds = EdgeDataset.write(tmp_path / "longrow", u, v, num_vertices=64)
        config = PipelineConfig(scale=6, seed=1)
        reference, _ = get_backend("scipy").kernel2(config, ds)
        expected = reference.to_scipy_csr()
        assert expected.nnz > 0
        for overlap_io in (False, True):
            result = streaming_kernel2(ds, batch_edges=8,
                                       overlap_io=overlap_io)
            assert (result.matrix != expected).nnz == 0
            assert result.pre_filter_entry_total == len(u)
            assert result.matrix.has_canonical_format

    def test_dedup_runs_equal_whole_stream_collapse(self):
        from repro.core.streaming import _stream_dedup
        from repro.sort.inmemory import collapse_duplicates

        u = np.repeat(np.array([0, 3, 4, 9], dtype=np.int64), [5, 23, 1, 6])
        v = (np.arange(len(u), dtype=np.int64) * 5) % 7
        for size in (1, 2, 5, 6, 11, len(u)):
            runs = list(_stream_dedup(
                (u[s:s + size], v[s:s + size]) for s in range(0, len(u), size)
            ))
            for got, want in zip(map(np.concatenate, zip(*runs)),
                                 collapse_duplicates(u, v)):
                np.testing.assert_array_equal(got, want)
            # Only completed rows are emitted: no row appears in two runs.
            firsts = [run[0][0] for run in runs]
            lasts = [run[0][-1] for run in runs]
            assert all(a < b for a, b in zip(lasts, firsts[1:]))

    def test_rejects_backward_row_after_single_row_batch(self):
        from repro.core.streaming import _stream_dedup

        # The first batch is all row 5, so nothing had been emitted when
        # rows 3 and 4 arrive: the carry is the only witness.
        batches = [(np.array([5, 5]), np.array([1, 2])),
                   (np.array([3, 4]), np.array([0, 0]))]
        with pytest.raises(ValueError, match="backward row"):
            list(_stream_dedup(iter(batches)))

    def test_scratch_cleanup(self, tmp_path, sorted_dataset):
        scratch = tmp_path / "scratch"
        streaming_kernel2(sorted_dataset, batch_edges=256,
                          scratch_dir=scratch)
        assert not (scratch / "dedup.bin").exists()

    def test_batch_validation(self, sorted_dataset):
        with pytest.raises(ValueError):
            streaming_kernel2(sorted_dataset, batch_edges=0)

    def test_empty_source_emits_no_runs(self):
        from repro.core.streaming import _stream_dedup

        empty = np.empty(0, dtype=np.int64)
        assert list(_stream_dedup(iter([]))) == []
        assert list(_stream_dedup(iter([(empty, empty)]))) == []


class TestOverlappedPass1:
    """``overlap_io=True`` changes scheduling, never values."""

    def test_bit_identical_to_serial_pass1(self, sorted_dataset):
        serial = streaming_kernel2(sorted_dataset, batch_edges=500)
        overlapped = streaming_kernel2(sorted_dataset, batch_edges=500,
                                       overlap_io=True)
        np.testing.assert_array_equal(overlapped.matrix.indptr,
                                      serial.matrix.indptr)
        np.testing.assert_array_equal(overlapped.matrix.indices,
                                      serial.matrix.indices)
        np.testing.assert_array_equal(overlapped.matrix.data,
                                      serial.matrix.data)
        assert overlapped.unique_triples == serial.unique_triples
        assert overlapped.batches == serial.batches

    def test_io_overlap_reported_only_when_requested(self, sorted_dataset):
        assert streaming_kernel2(sorted_dataset).io_overlap is None
        io = streaming_kernel2(sorted_dataset, overlap_io=True).io_overlap
        assert io is not None
        for key in ("ingest_seconds", "compute_seconds", "spill_seconds",
                    "busy_seconds", "wall_seconds", "overlap_saved_seconds"):
            assert key in io
        assert io["wall_seconds"] > 0.0

    @pytest.mark.parametrize("batch_edges", [1, 311, 4096])
    def test_result_independent_of_batch_edges(self, sorted_dataset,
                                               batch_edges):
        # Any partition of the sorted stream into batches gives the
        # identical matrix (exact arithmetic), overlapped or not.
        reference = streaming_kernel2(sorted_dataset, batch_edges=700)
        fed = streaming_kernel2(sorted_dataset, batch_edges=batch_edges,
                                overlap_io=True)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(fed.matrix, name),
                                          getattr(reference.matrix, name))
        assert fed.pre_filter_entry_total == reference.pre_filter_entry_total

    def test_overlapped_rejects_unsorted_input(self, tmp_path):
        u = np.array([5, 1, 3], dtype=np.int64)
        v = np.array([0, 0, 0], dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "unsorted2", u, v, num_vertices=8)
        with pytest.raises(ValueError, match="sorted"):
            streaming_kernel2(ds, batch_edges=2, overlap_io=True)

    @pytest.mark.parametrize("overlap_io", [False, True])
    def test_spill_failure_surfaces_without_deadlock(
        self, monkeypatch, sorted_dataset, overlap_io
    ):
        # A dying spill lane must propagate its error and unwind both
        # worker threads, not hang the join.
        from repro.core import streaming as streaming_mod

        class ExplodingBlock:
            def tofile(self, fh):
                raise OSError("disk full")

        monkeypatch.setattr(
            streaming_mod._Pass1State,
            "absorb",
            lambda self, rows, cols, counts: ExplodingBlock(),
        )
        with pytest.raises(OSError, match="disk full"):
            streaming_kernel2(sorted_dataset, batch_edges=128,
                              overlap_io=overlap_io)


class TestKernel2Observability:
    PHASES = {"ingest", "dedup", "spill", "decide", "pass2", "normalize"}

    @pytest.mark.parametrize("overlap_io", [False, True])
    def test_phase_seconds_reported(self, sorted_dataset, overlap_io):
        result = streaming_kernel2(sorted_dataset, batch_edges=500,
                                   overlap_io=overlap_io)
        assert set(result.phases) == self.PHASES
        assert all(seconds >= 0.0 for seconds in result.phases.values())

    @pytest.mark.parametrize("execution", ["streaming", "async"])
    def test_executors_publish_phases(self, execution):
        from repro.core.pipeline import run_pipeline

        result = run_pipeline(PipelineConfig(scale=6, seed=3,
                                             execution=execution))
        # Async builds with the backend's own step, not this module.
        expected = {"streaming": self.PHASES,
                    "async": {"construct", "filter", "normalize"}}
        assert set(result.kernels[2].details["phases"]) == expected[execution]

    def test_pass_spans_only_under_a_collector(self, sorted_dataset):
        from repro.core import trace

        collector = trace.TraceCollector()
        with trace.activate(collector):
            with trace.span("task:k2-filter", cat="task") as task:
                streaming_kernel2(sorted_dataset, batch_edges=500)
        spans = {s.name: s for s in collector.spans()}
        assert spans["k2:pass1"].parent_id == task.span_id
        assert spans["k2:pass2"].parent_id == task.span_id
        assert spans["k2:pass1"].args["triples"] == spans["k2:pass2"].args["triples"]

        assert trace.current() is None
        streaming_kernel2(sorted_dataset, batch_edges=500)
        assert len(collector.spans()) == len(spans)
