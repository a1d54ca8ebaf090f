"""Property-based tests for GraphBLAS-lite against scipy as the oracle."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.grb import Matrix, PLUS_TIMES, Vector, available_semirings, vxm
from repro.grb.semiring import LOR, MAX, MIN, PLUS

DIM = 12
MONOIDS = [PLUS, MIN, MAX, LOR]


@st.composite
def coo_triples(draw, max_entries=80, dim=DIM):
    m = draw(st.integers(min_value=0, max_value=max_entries))
    rows = draw(st.lists(st.integers(0, dim - 1), min_size=m, max_size=m))
    cols = draw(st.lists(st.integers(0, dim - 1), min_size=m, max_size=m))
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=m, max_size=m,
        )
    )
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


def _scipy_of(rows, cols, vals):
    return sp.coo_matrix((vals, (rows, cols)), shape=(DIM, DIM)).tocsr()


def _fold(monoid, values):
    """Left fold from the identity: the plain-Python account of a reduction."""
    return float(reduce(monoid.ufunc, values, monoid.identity))


def _stored_entries(rows, cols, vals, dup=PLUS):
    """``{(i, j): value}`` with duplicate coordinates folded by ``dup``."""
    groups = {}
    for i, j, w in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        groups.setdefault((i, j), []).append(w)
    return {key: _fold(dup, ws) for key, ws in groups.items()}


class TestBuildAgainstScipy:
    @given(triples=coo_triples())
    def test_dup_summing_matches_scipy(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        theirs = _scipy_of(rows, cols, vals)
        assert np.allclose(ours.to_dense(), theirs.toarray())

    @given(triples=coo_triples())
    def test_entry_total_conserved(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        assert np.isclose(ours.reduce_scalar(), vals.sum())

    @given(triples=coo_triples())
    def test_reductions_match_scipy(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        theirs = _scipy_of(rows, cols, vals)
        assert np.allclose(ours.reduce_rows(),
                           np.asarray(theirs.sum(axis=1)).ravel())
        assert np.allclose(ours.reduce_columns(),
                           np.asarray(theirs.sum(axis=0)).ravel())

    @pytest.mark.parametrize("dup", MONOIDS, ids=lambda m: m.name)
    @given(triples=coo_triples())
    def test_dup_monoid_folds_each_coordinate(self, dup, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM, dup=dup)
        entries = _stored_entries(rows, cols, vals, dup)
        assert ours.nvals == len(entries)
        want = np.zeros((DIM, DIM))
        for (i, j), w in entries.items():
            want[i, j] = w
        assert np.allclose(ours.to_dense(), want)


class TestMonoidReductions:
    @pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=10),
    )
    def test_segment_reduce_matches_fold(self, monoid, values, cuts):
        values = np.array(values, dtype=np.float64)
        # Any non-decreasing cut points, empty segments included.
        offsets = np.array(
            [0] + sorted(min(c, len(values)) for c in cuts) + [len(values)]
        )
        got = monoid.segment_reduce(values, offsets)
        want = [
            _fold(monoid, values[lo:hi]) for lo, hi in zip(offsets, offsets[1:])
        ]
        assert np.allclose(got, want)

    @pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
    @given(triples=coo_triples())
    def test_row_reduction_matches_fold(self, monoid, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        entries = _stored_entries(rows, cols, vals)
        want = [
            _fold(monoid, [w for (i, _), w in entries.items() if i == row])
            for row in range(DIM)
        ]
        assert np.allclose(ours.reduce_rows(monoid), want)

    @pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
    @given(triples=coo_triples())
    def test_column_reduction_matches_fold(self, monoid, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        entries = _stored_entries(rows, cols, vals)
        want = [
            _fold(monoid, [w for (_, j), w in entries.items() if j == col])
            for col in range(DIM)
        ]
        assert np.allclose(ours.reduce_columns(monoid), want)


class TestProductsAgainstDense:
    @settings(max_examples=60)
    @given(
        triples=coo_triples(),
        x=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                   min_size=DIM, max_size=DIM),
    )
    def test_vxm_matches_dense(self, triples, x):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        xv = np.array(x)
        got = vxm(Vector(xv), ours, PLUS_TIMES).to_dense()
        want = xv @ ours.to_dense()
        assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(available_semirings()))
    @given(
        triples=coo_triples(),
        x=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                   min_size=DIM, max_size=DIM),
    )
    def test_vxm_matches_fold_over_stored_entries(self, name, triples, x):
        # y[j] = add over stored A[i, j] of multiply(x[i], A[i, j]);
        # a column without stored entries holds the additive identity.
        semiring = available_semirings()[name]
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        entries = _stored_entries(rows, cols, vals)
        want = [
            _fold(semiring.add, [
                semiring.multiply(x[i], w)
                for (i, j), w in entries.items() if j == col
            ])
            for col in range(DIM)
        ]
        got = vxm(Vector(np.array(x)), ours, semiring).to_dense()
        assert np.allclose(got, want, atol=1e-9)

    @given(triples=coo_triples(),
           x=st.lists(st.floats(0, 5, allow_nan=False),
                      min_size=DIM, max_size=DIM))
    def test_normalised_product_keeps_mass_of_non_dangling_rows(self, triples, x):
        # Kernel 2's normalisation then Kernel 3's product: each row with
        # out-edges passes on exactly its share, a dangling row loses it.
        rows, cols, vals = triples
        counts = Matrix.build(rows, cols, np.abs(vals) + 1.0,
                              nrows=DIM, ncols=DIM)
        dout = counts.reduce_rows()
        factors = np.ones(DIM)
        factors[dout > 0] = 1.0 / dout[dout > 0]
        xv = np.array(x)
        spread = vxm(Vector(xv), counts.scale_rows(factors)).to_dense()
        assert np.isclose(spread.sum(), xv[dout > 0].sum())


class TestStructuralOps:
    @given(triples=coo_triples(), mask_seed=st.integers(0, 2**16))
    def test_clear_columns_removes_exactly_masked(self, triples, mask_seed):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        mask = np.random.default_rng(mask_seed).random(DIM) < 0.5
        cleared = ours.clear_columns(mask)
        dense = cleared.to_dense()
        assert np.all(dense[:, mask] == 0.0)
        unmasked = ~mask
        assert np.allclose(dense[:, unmasked], ours.to_dense()[:, unmasked])

    @given(triples=coo_triples())
    def test_scale_rows_linear(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        factors = np.arange(1.0, DIM + 1.0)
        scaled = ours.scale_rows(factors)
        assert np.allclose(scaled.to_dense(), ours.to_dense() * factors[:, None])

    @given(triples=coo_triples())
    def test_prune_preserves_dense_form(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        assert np.allclose(ours.prune().to_dense(), ours.to_dense())
