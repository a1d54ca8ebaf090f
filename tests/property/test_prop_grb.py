"""Property-based tests for GraphBLAS-lite against scipy as the oracle."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.grb import Matrix, PLUS_TIMES, Vector, mxv, vxm

DIM = 12


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

    @given(triples=coo_triples())
    def test_transpose_involution(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        assert ours.transpose().transpose().isclose(ours.prune())


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

    @settings(max_examples=60)
    @given(
        triples=coo_triples(),
        x=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                   min_size=DIM, max_size=DIM),
    )
    def test_mxv_matches_dense(self, triples, x):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        xv = np.array(x)
        got = mxv(ours, Vector(xv), PLUS_TIMES).to_dense()
        want = ours.to_dense() @ xv
        assert np.allclose(got, want, atol=1e-9)

    @given(triples=coo_triples())
    def test_vxm_equals_mxv_of_transpose(self, triples):
        rows, cols, vals = triples
        ours = Matrix.build(rows, cols, vals, nrows=DIM, ncols=DIM)
        x = Vector(np.linspace(-1, 1, DIM))
        a = vxm(x, ours).to_dense()
        b = mxv(ours.transpose(), x).to_dense()
        assert np.allclose(a, b, atol=1e-9)


class TestMxmAgainstDense:
    @settings(max_examples=40)
    @given(a=coo_triples(max_entries=50), b=coo_triples(max_entries=50))
    def test_mxm_matches_dense_product(self, a, b):
        from repro.grb.mxm import mxm

        ma = Matrix.build(*a, nrows=DIM, ncols=DIM)
        mb = Matrix.build(*b, nrows=DIM, ncols=DIM)
        got = mxm(ma, mb).to_dense()
        want = ma.to_dense() @ mb.to_dense()
        assert np.allclose(got, want, atol=1e-8)

    @settings(max_examples=30)
    @given(triples=coo_triples(max_entries=50))
    def test_ewise_add_matches_dense_sum(self, triples):
        from repro.grb.mxm import ewise_add

        m = Matrix.build(*triples, nrows=DIM, ncols=DIM)
        t = m.transpose()
        got = ewise_add(m, t).to_dense()
        assert np.allclose(got, m.to_dense() + t.to_dense(), atol=1e-9)

    @settings(max_examples=30)
    @given(a=coo_triples(max_entries=50), b=coo_triples(max_entries=50))
    def test_ewise_mult_matches_dense_hadamard(self, a, b):
        from repro.grb.mxm import ewise_mult

        ma = Matrix.build(*a, nrows=DIM, ncols=DIM)
        mb = Matrix.build(*b, nrows=DIM, ncols=DIM)
        got = ewise_mult(ma, mb).to_dense()
        # eWiseMult over the pattern intersection == dense Hadamard,
        # except where one side stores an explicit value and the other
        # stores nothing (dense also gives 0 there) — identical result.
        assert np.allclose(got, ma.to_dense() * mb.to_dense(), atol=1e-9)

    @settings(max_examples=25)
    @given(a=coo_triples(max_entries=40), mask=coo_triples(max_entries=40))
    def test_mask_and_complement_partition(self, a, mask):
        from repro.grb.mxm import apply_mask, ewise_add

        ma = Matrix.build(*a, nrows=DIM, ncols=DIM)
        mm = Matrix.build(*mask, nrows=DIM, ncols=DIM)
        kept = apply_mask(ma, mm)
        dropped = apply_mask(ma, mm, complement=True)
        recombined = ewise_add(kept, dropped)
        assert np.allclose(recombined.to_dense(), ma.to_dense(), atol=1e-12)


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
