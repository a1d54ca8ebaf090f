"""Unit tests for the GraphBLAS-lite substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grb import (
    LOR_LAND,
    MAX_TIMES,
    MIN_PLUS,
    Matrix,
    PLUS_TIMES,
    Vector,
    available_semirings,
    get_semiring,
    vxm,
)
from repro.grb.semiring import MAX, MIN, PLUS


class TestMonoid:
    def test_reduce_empty_gives_identity(self):
        assert PLUS.reduce(np.array([])) == 0.0
        assert MIN.reduce(np.array([])) == np.inf

    def test_segment_reduce_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        offsets = np.array([0, 2, 2, 4])
        out = PLUS.segment_reduce(values, offsets)
        assert np.array_equal(out, [3.0, 0.0, 7.0])

    def test_segment_reduce_trailing_empty(self):
        values = np.array([5.0])
        offsets = np.array([0, 1, 1])
        out = MAX.segment_reduce(values, offsets)
        assert out[0] == 5.0 and out[1] == -np.inf

    def test_segment_reduce_all_empty(self):
        out = PLUS.segment_reduce(np.array([]), np.array([0, 0, 0]))
        assert np.array_equal(out, [0.0, 0.0])

    def test_segment_reduce_min(self):
        values = np.array([3.0, 1.0, 2.0])
        offsets = np.array([0, 2, 3])
        out = MIN.segment_reduce(values, offsets)
        assert np.array_equal(out, [1.0, 2.0])


class TestSemiringRegistry:
    def test_contains_standards(self):
        names = set(available_semirings())
        assert {"plus_times", "min_plus", "max_times", "lor_land"} <= names

    def test_lookup(self):
        assert get_semiring("plus_times") is PLUS_TIMES

    def test_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_semiring("times_plus")


class TestVector:
    def test_constructors(self):
        assert Vector.zeros(3).to_dense().sum() == 0.0
        assert Vector.full(3, 2.0).reduce() == 6.0
        assert Vector.from_dense([1, 2]).size == 2

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Vector(np.zeros((2, 2)))

    def test_reduce_and_norm(self):
        x = Vector.from_dense([-1.0, 2.0])
        assert x.reduce() == 1.0

    def test_apply_shape_guard(self):
        x = Vector.from_dense([1.0, 2.0])
        with pytest.raises(ValueError):
            x.apply(lambda a: a[:1])

    def test_ewise_ops(self):
        x = Vector.from_dense([1.0, 2.0])
        y = Vector.from_dense([3.0, 4.0])
        assert x.ewise_add(y).to_dense().tolist() == [4.0, 6.0]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Vector.zeros(2).ewise_add(Vector.zeros(3))

    def test_values_view_is_readonly(self):
        x = Vector.from_dense([1.0])
        with pytest.raises(ValueError):
            x.values[0] = 2.0

    def test_scale_and_isclose(self):
        x = Vector.from_dense([1.0, 2.0])
        assert x.scale(2.0).isclose(Vector.from_dense([2.0, 4.0]))


class TestMatrixBuild:
    def test_duplicate_accumulation(self):
        rows = np.array([0, 0, 1], dtype=np.int64)
        cols = np.array([1, 1, 0], dtype=np.int64)
        m = Matrix.build(rows, cols, nrows=2, ncols=2)
        assert m.nvals == 2
        assert m.reduce_scalar() == 3.0  # sums to edge count (K2 contract)
        assert m.to_dense()[0, 1] == 2.0

    def test_custom_dup_monoid(self):
        rows = np.array([0, 0], dtype=np.int64)
        cols = np.array([0, 0], dtype=np.int64)
        vals = np.array([3.0, 5.0])
        m = Matrix.build(rows, cols, vals, nrows=1, ncols=1, dup=MAX)
        assert m.to_dense()[0, 0] == 5.0

    def test_empty_build(self):
        empty = np.empty(0, dtype=np.int64)
        m = Matrix.build(empty, empty, nrows=3, ncols=3)
        assert m.nvals == 0
        assert m.reduce_scalar() == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="row indices"):
            Matrix.build(np.array([5]), np.array([0]), nrows=2, ncols=2)
        with pytest.raises(ValueError, match="col indices"):
            Matrix.build(np.array([0]), np.array([5]), nrows=2, ncols=2)

    def test_from_dense_round_trip(self, rng):
        dense = (rng.random((5, 4)) < 0.4) * rng.random((5, 4))
        m = Matrix.from_dense(dense)
        assert np.allclose(m.to_dense(), dense)

    def test_invalid_row_ptr_rejected(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("args, match", [
        ((1, 1, [1, 1], [0], [1.0]), "start at 0"),
        ((1, 1, [0, 2], [0], [1.0]), "end at nnz"),
        ((1, 1, [0, 1], [0], [1.0, 2.0]), "same length"),
        ((-1, 1, [0], [], []), "nrows must be >= 0"),
    ], ids=["row-ptr-start", "row-ptr-end", "values-length", "negative-nrows"])
    def test_inconsistent_csr_rejected(self, args, match):
        nrows, ncols, row_ptr, col_idx, values = args
        with pytest.raises(ValueError, match=match):
            Matrix(nrows, ncols, np.array(row_ptr), np.array(col_idx),
                   np.array(values))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(rows=[0], cols=[0], nrows=0, ncols=1), "nrows must be >= 1"),
        (dict(rows=[0, 1], cols=[0], nrows=2, ncols=2), "rows and cols"),
        (dict(rows=[0], cols=[0], values=[1.0, 2.0], nrows=1, ncols=1),
         "rows and values"),
        (dict(rows=[-1], cols=[0], nrows=2, ncols=2), "row indices"),
    ], ids=["zero-rows", "cols-length", "values-length", "negative-row"])
    def test_build_rejects_bad_triples(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Matrix.build(**kwargs)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Matrix.from_dense(np.ones(3))


class TestMatrixOps:
    @pytest.fixture
    def sample(self):
        dense = np.array(
            [
                [0.0, 2.0, 0.0],
                [1.0, 0.0, 3.0],
                [0.0, 0.0, 0.0],
            ]
        )
        return Matrix.from_dense(dense), dense

    def test_reductions(self, sample):
        m, dense = sample
        assert np.allclose(m.reduce_rows(), dense.sum(axis=1))
        assert np.allclose(m.reduce_columns(), dense.sum(axis=0))
        assert m.reduce_scalar() == dense.sum()

    def test_reduce_columns_max(self, sample):
        m, dense = sample
        out = m.reduce_columns(MAX)
        # Empty columns give the monoid identity.
        expected = np.where(dense.any(axis=0), dense.max(axis=0), -np.inf)
        assert np.allclose(out, expected)

    def test_clear_columns(self, sample):
        m, dense = sample
        cleared = m.clear_columns(np.array([False, True, False]))
        expected = dense.copy()
        expected[:, 1] = 0.0
        assert np.allclose(cleared.to_dense(), expected)
        assert cleared.nvals == 2

    def test_clear_columns_mask_length(self, sample):
        m, _ = sample
        with pytest.raises(ValueError):
            m.clear_columns(np.array([True]))

    def test_scale_rows(self, sample):
        m, dense = sample
        scaled = m.scale_rows(np.array([1.0, 0.5, 2.0]))
        assert np.allclose(scaled.to_dense(), dense * [[1.0], [0.5], [2.0]])

    def test_prune(self):
        # An explicit zero is a stored entry until pruned.
        m = Matrix.build(np.array([0, 1, 1]), np.array([1, 0, 2]),
                         np.array([2.0, 0.0, 3.0]), nrows=3, ncols=3)
        assert m.nvals == 3
        assert m.prune().nvals == 2
        assert np.array_equal(m.prune().to_dense(), m.to_dense())

    def test_isclose(self, sample):
        m, dense = sample
        assert m.isclose(Matrix.from_dense(dense))
        assert not m.isclose(Matrix.from_dense(dense * 2))


class TestProducts:
    @pytest.fixture
    def chain(self):
        # 0 -> 1 -> 2 directed path with weight 1.
        return Matrix.from_dense(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        )

    def test_vxm_plus_times(self, chain):
        x = Vector.from_dense([1.0, 2.0, 4.0])
        y = vxm(x, chain)
        assert y.to_dense().tolist() == [0.0, 1.0, 2.0]

    def test_vxm_matches_dense(self, rng):
        dense = (rng.random((6, 6)) < 0.5) * rng.random((6, 6))
        m = Matrix.from_dense(dense)
        x = rng.random(6)
        got = vxm(Vector(x), m).to_dense()
        assert np.allclose(got, x @ dense)

    def test_min_plus_shortest_path_relaxation(self):
        # One Bellman-Ford relaxation: dist'[j] = min_i(dist[i] + w[i,j]).
        inf = np.inf
        m = Matrix.from_dense(
            np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        )  # edges 0->1 (w=2), 1->2 (w=3); absent entries are +inf
        dist = Vector.from_dense([0.0, inf, inf])
        step1 = vxm(dist, m, MIN_PLUS)
        assert step1.to_dense()[1] == 2.0          # reached 1 at cost 2
        assert step1.to_dense()[0] == inf          # no in-edges to 0
        step2 = vxm(Vector.from_dense(np.minimum(dist.to_dense(),
                                                 step1.to_dense())),
                    m, MIN_PLUS)
        assert step2.to_dense()[2] == 5.0          # 0 -> 1 -> 2 costs 2+3

    def test_lor_land_reachability(self):
        adj = Matrix.from_dense(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        )
        frontier = Vector.from_dense([1.0, 0.0, 0.0])
        reached = vxm(frontier, adj, LOR_LAND)
        assert reached.to_dense().tolist() == [0.0, 1.0, 0.0]

    def test_max_times(self):
        m = Matrix.from_dense(np.array([[0.5, 2.0], [0.0, 0.0]]))
        x = Vector.from_dense([2.0, 3.0])
        y = vxm(x, m, MAX_TIMES)
        assert y.to_dense().tolist() == [1.0, 4.0]

    def test_size_mismatch(self, chain):
        with pytest.raises(ValueError):
            vxm(Vector.zeros(2), chain)
