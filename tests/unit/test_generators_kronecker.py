"""Unit tests for the Graph500 Kronecker generator (Kernel 0)."""

from __future__ import annotations

import contextlib
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import kronecker
from repro.generators.base import GeneratorSpec, validate_edge_list
from repro.generators.kronecker import KroneckerParams, kronecker_edges


# --- Frozen reference -------------------------------------------------------
# The generator as it stood before it was sliced: one pass per level over all
# ``num_edges`` draws, int64 throughout.  It defines the random stream every
# golden and rank digest was cut from; the library must reproduce it bit for
# bit.  Do not "tidy" it.


def _reference_block(scale, num_edges, params, rng):
    ab = params.a + params.b
    c_norm = params.c / (1.0 - ab)
    a_norm = params.a / ab

    u = np.zeros(num_edges, dtype=np.int64)
    v = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        ii_bit = rng.random(num_edges) > ab
        threshold = np.where(ii_bit, c_norm, a_norm)
        jj_bit = rng.random(num_edges) > threshold
        u += ii_bit.astype(np.int64) << level
        v += jj_bit.astype(np.int64) << level
    return u, v


def _reference_edges(scale, edge_factor, *, params, rng, num_edges=None):
    m = edge_factor << scale if num_edges is None else num_edges
    u, v = _reference_block(scale, m, params, rng)
    if params.permute_edges:
        order = rng.permutation(m)
        u, v = u[order], v[order]
    if params.permute_vertices:
        relabel = rng.permutation(1 << scale).astype(np.int64)
        u, v = relabel[u], relabel[v]
    return u, v


def _assert_same_edges(got, want, scale):
    # Same values as the int64 reference, held in the label dtype:
    # uint32 up to scale 32, int64 above.
    for g, w in zip(got, want):
        assert g.dtype == (np.uint32 if scale <= 32 else np.int64)
        assert g.flags.c_contiguous
        np.testing.assert_array_equal(g, w)


def _as_i8_bytes(labels):
    """The labels as little-endian int64 bytes, whatever their dtype."""
    return np.asarray(labels, dtype="<i8").tobytes()


#: sha256 of the little-endian int64 bytes of ``u`` then ``v`` for
#: ``kronecker_edges(14, 16, seed=1)``.
PINNED_S14_SEED1_SHA256 = (
    "d23ccfcaa27cc9a150571e85a3576ea0b4088db0f5f213e43936ea351fbf12b4"
)

_PARAMS = st.builds(
    KroneckerParams,
    permute_vertices=st.booleans(),
    permute_edges=st.booleans(),
)
# How ``_sliced`` cuts a stream of M edges: 0 full slices means M < slice;
# (1, 0) is M == slice; (k, 1) is M = k * slice + 1 whenever k divides M - 1.
_FULL_SLICES = st.sampled_from([0, 1, 2, 3, 5])
_TAIL = st.sampled_from([0, 1])


@contextlib.contextmanager
def _sliced(num_edges, full_slices, tail):
    """Patch ``_SLICE_EDGES`` so ``num_edges`` is ``full_slices`` slices
    plus about ``tail`` edges (a context manager: Hypothesis re-runs the
    test body, so a function-scoped ``monkeypatch`` fixture will not do)."""
    if full_slices == 0:
        slice_edges = num_edges + 1
    else:
        slice_edges = max(1, (num_edges - tail) // full_slices)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kronecker, "_SLICE_EDGES", slice_edges)
        yield


class TestStreamIsUnchanged:
    @settings(max_examples=60)
    @given(
        scale=st.integers(1, 12),
        edge_factor=st.integers(1, 16),
        seed=st.integers(0, 2**32),
        params=_PARAMS,
        num_edges=st.one_of(st.none(), st.integers(1, 5000)),
        full_slices=_FULL_SLICES,
        tail=_TAIL,
    )
    def test_edges_equal_reference(
        self, scale, edge_factor, seed, params, num_edges, full_slices, tail
    ):
        m = num_edges or edge_factor << scale
        with _sliced(m, full_slices, tail):
            got = kronecker_edges(scale, edge_factor, params=params,
                                  seed=seed, num_edges=num_edges)
        want = _reference_edges(scale, edge_factor, params=params,
                                rng=np.random.default_rng(seed),
                                num_edges=num_edges)
        _assert_same_edges(got, want, scale)

    def test_default_slice_is_crossed_at_benchmark_scale(self):
        # No monkeypatch: scale 13 is 2 * _SLICE_EDGES edges, so the shipped
        # constant's jump-ahead path runs against the reference as is.
        assert 16 << 13 > kronecker._SLICE_EDGES
        got = kronecker_edges(13, 16, seed=3)
        want = _reference_edges(13, 16, params=KroneckerParams(),
                                rng=np.random.default_rng(3))
        _assert_same_edges(got, want, 13)

    def test_wide_scale_accumulates_in_int64(self, monkeypatch):
        # Above scale 32 a label no longer fits the uint32 accumulator.
        monkeypatch.setattr(kronecker, "_SLICE_EDGES", 16)
        params = KroneckerParams(permute_vertices=False)
        got = kronecker_edges(34, 1, params=params, seed=2, num_edges=50)
        want = _reference_edges(34, 1, params=params,
                                rng=np.random.default_rng(2), num_edges=50)
        _assert_same_edges(got, want, 34)
        assert got[0].max() >= 1 << 32

    def test_pinned_digest(self):
        # A numpy release that moves PCG64, ``Generator.random`` or
        # ``permutation`` changes every golden and rank digest in the repo;
        # fail here, loudly, rather than there.
        u, v = kronecker_edges(14, 16, seed=1)
        digest = hashlib.sha256(_as_i8_bytes(u) + _as_i8_bytes(v)).hexdigest()
        assert digest == PINNED_S14_SEED1_SHA256


class TestCallerGenerator:
    """``seed`` may be the caller's own ``Generator``: it must be left where
    the reference leaves it, whatever the bit generator can or cannot do."""

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
         np.random.MT19937, np.random.SFC64],
    )
    @pytest.mark.parametrize("cached_half_draw", [False, True])
    @pytest.mark.parametrize("permute", [False, True])
    def test_edges_and_end_state_equal_reference(
        self, monkeypatch, bit_generator, cached_half_draw, permute
    ):
        monkeypatch.setattr(kronecker, "_SLICE_EDGES", 100)
        ours = np.random.Generator(bit_generator(42))
        theirs = np.random.Generator(bit_generator(42))
        if cached_half_draw:
            # One 32-bit draw leaves the other half of the 64-bit output
            # cached in the bit generator for the next 32-bit draw: one of
            # the permutation's, or the caller's after we return.
            for rng in (ours, theirs):
                rng.integers(0, 1 << 20, dtype=np.uint32)

        params = KroneckerParams(permute_vertices=permute,
                                 permute_edges=permute)
        got = kronecker_edges(6, 16, params=params, seed=ours)
        want = _reference_edges(6, 16, params=params, rng=theirs)
        _assert_same_edges(got, want, 6)
        np.testing.assert_array_equal(
            ours.integers(0, 1 << 20, size=3, dtype=np.uint32),
            theirs.integers(0, 1 << 20, size=3, dtype=np.uint32),
        )
        np.testing.assert_array_equal(ours.random(8), theirs.random(8))


_JUMPING = [np.random.PCG64, np.random.PCG64DXSM]


def _run_ranges(fill, ranges, threaded):
    """``fill`` every ``(first, last)`` range in the given order, or all at
    once from threads, with the interpreter switching threads as often as
    it can so that interleavings vary."""
    if not threaded:
        for first, last in ranges:
            fill(first, last)
        return
    threads = [threading.Thread(target=fill, args=r) for r in ranges]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestSliceRanges:
    """Any partition of the slices into contiguous ranges, generated in
    any order or concurrently, is the reference block."""

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        num_edges=st.integers(2, 3000),
        full_slices=st.sampled_from([2, 3, 5, 8]),
        tail=_TAIL,
        kind=st.sampled_from(_JUMPING),
        threaded=st.booleans(),
        data=st.data(),
    )
    def test_any_partition_equals_reference(
        self, scale, seed, num_edges, full_slices, tail, kind, threaded, data
    ):
        params = KroneckerParams()
        with _sliced(num_edges, full_slices, tail):
            step = kronecker._slice_edges(num_edges, kind)
            slices = -(-num_edges // step)
            cuts = data.draw(st.lists(st.integers(1, slices - 1),
                                      unique=True, max_size=slices - 1))
            bounds = [0, *sorted(cuts), slices]
            ranges = data.draw(st.permutations(list(zip(bounds, bounds[1:]))))
            entry = kind(seed).state
            u, v = kronecker._zero_labels(scale, num_edges)

            def fill(first, last):
                kronecker._kronecker_slices(scale, params, kind, entry,
                                            first, last, u, v)

            _run_ranges(fill, ranges, threaded)
        want = _reference_block(scale, num_edges, params,
                                np.random.Generator(kind(seed)))
        _assert_same_edges((u, v), want, scale)

    @pytest.mark.parametrize("kind", _JUMPING)
    @pytest.mark.parametrize("cached_half_draw", [False, True])
    @pytest.mark.parametrize("permute", [False, True])
    def test_tasks_equal_kronecker_edges_and_its_end_state(
        self, monkeypatch, kind, cached_half_draw, permute
    ):
        monkeypatch.setattr(kronecker, "_SLICE_EDGES", 100)
        ours = np.random.Generator(kind(42))
        theirs = np.random.Generator(kind(42))
        if cached_half_draw:
            for rng in (ours, theirs):
                rng.integers(0, 1 << 20, dtype=np.uint32)
        params = KroneckerParams(permute_vertices=permute,
                                 permute_edges=permute)
        tasks = kronecker.KroneckerTasks.split(6, 16, params=params, seed=ours)
        assert tasks.slices == 11
        _run_ranges(tasks.fill, [(5, 11), (0, 2), (2, 5)], threaded=True)
        (u, v), order, relabel = tasks.permute()
        got = tasks.place(u, order, relabel), tasks.place(v, order, relabel)
        want = kronecker_edges(6, 16, params=params, seed=theirs)
        _assert_same_edges(got, want, 6)
        assert ours.bit_generator.state == theirs.bit_generator.state
        np.testing.assert_array_equal(
            ours.integers(0, 1 << 20, size=3, dtype=np.uint32),
            theirs.integers(0, 1 << 20, size=3, dtype=np.uint32),
        )

    @pytest.mark.parametrize("kind", [np.random.Philox, np.random.MT19937,
                                      np.random.SFC64])
    def test_no_split_without_jump_ahead(self, kind):
        rng = np.random.Generator(kind(3))
        assert kronecker.KroneckerTasks.split(13, 16, seed=rng) is None

    def test_no_split_of_one_slice(self):
        assert 16 << 12 == kronecker._SLICE_EDGES
        assert kronecker.KroneckerTasks.split(12, 16, seed=1) is None
        assert kronecker.KroneckerTasks.split(13, 16, seed=1).slices == 2


class TestGeneratorSpec:
    def test_sizes_match_paper_formulas(self):
        spec = GeneratorSpec(scale=16, edge_factor=16)
        assert spec.num_vertices == 65536          # N = 2^S
        assert spec.num_edges == 16 * 65536        # M = k*N

    def test_scale_30_matches_paper_example(self):
        # "for a value of S = 30, N = 1,073,741,824, M = 17,179,869,184"
        spec = GeneratorSpec(scale=30, edge_factor=16)
        assert spec.num_vertices == 1_073_741_824
        assert spec.num_edges == 17_179_869_184

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            GeneratorSpec(scale=0)
        with pytest.raises(ValueError):
            GeneratorSpec(scale=41)

    def test_rejects_bad_edge_factor(self):
        with pytest.raises(ValueError):
            GeneratorSpec(scale=4, edge_factor=0)


class TestKroneckerParams:
    def test_default_is_graph500(self):
        params = KroneckerParams()
        assert (params.a, params.b, params.c) == (0.57, 0.19, 0.19)
        assert params.d == pytest.approx(0.05)

    def test_rejects_mass_overflow(self):
        with pytest.raises(ValueError, match="positive mass"):
            KroneckerParams(a=0.5, b=0.3, c=0.2)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            KroneckerParams(a=0.0)
        with pytest.raises(ValueError):
            KroneckerParams(a=1.5)


class TestKroneckerEdges:
    def test_shapes_and_bounds(self):
        u, v = kronecker_edges(8, 16, seed=1)
        assert len(u) == len(v) == 16 * 256
        validate_edge_list(u, v, 256)

    def test_dtype_is_the_label_dtype(self):
        u, v = kronecker_edges(5, 2, seed=1)
        assert u.dtype == np.uint32 and v.dtype == np.uint32

    @pytest.mark.parametrize("scale, dtype", [(32, np.uint32), (33, np.int64)])
    def test_label_dtype_switches_above_scale_32(self, scale, dtype):
        # Scale 32's labels are below 2**32; scale 33's need int64.  No
        # vertex relabelling: its table would hold 2**scale labels.
        params = KroneckerParams(permute_vertices=False)
        u, v = kronecker_edges(scale, num_edges=64, params=params, seed=4)
        assert u.dtype == v.dtype == dtype
        assert int(max(u.max(), v.max())) < 1 << scale

    def test_seeded_reproducibility(self):
        a = kronecker_edges(7, 8, seed=99)
        b = kronecker_edges(7, 8, seed=99)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = kronecker_edges(7, 8, seed=1)
        b = kronecker_edges(7, 8, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_num_edges_override(self):
        u, _ = kronecker_edges(6, 16, seed=3, num_edges=100)
        assert len(u) == 100

    def test_skew_toward_low_vertices_without_permutation(self):
        # With a=0.57 the distribution concentrates in the low quadrant;
        # disabling the vertex permutation exposes this directly.
        params = KroneckerParams(permute_vertices=False, permute_edges=False)
        u, _ = kronecker_edges(10, 16, seed=5, params=params)
        low_half = (u < 512).mean()
        assert low_half > 0.6  # E[P(low bit)] = a+b = 0.76 per level

    def test_power_law_like_degree_skew(self):
        u, v = kronecker_edges(10, 16, seed=11)
        n = 1 << 10
        din = np.bincount(v, minlength=n)
        # Heavy tail: max in-degree far above mean (uniform would be ~16).
        assert din.max() > 8 * din.mean()

    def test_duplicate_edges_exist(self):
        # The paper relies on duplicates ("a (u,v) edge may be generated
        # during kernel 0 more than once").
        u, v = kronecker_edges(8, 16, seed=2)
        pairs = u * (1 << 8) + v
        assert len(np.unique(pairs)) < len(pairs)
