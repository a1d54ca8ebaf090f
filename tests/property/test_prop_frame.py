"""Property-based tests for the mini dataframe against numpy oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.frame import Frame

values = st.integers(min_value=-1000, max_value=1000)


@st.composite
def frames(draw, max_rows=100):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    a = draw(st.lists(values, min_size=n, max_size=n))
    b = draw(st.lists(values, min_size=n, max_size=n))
    if n == 0:
        return Frame({"a": np.array([], dtype=np.int64),
                      "b": np.array([], dtype=np.int64)})
    return Frame({"a": np.array(a, dtype=np.int64),
                  "b": np.array(b, dtype=np.int64)})


class TestSortProperties:
    @given(f=frames())
    def test_sort_orders_key(self, f):
        out = f.sort_values("a")
        assert np.all(np.diff(out.column("a")) >= 0)

    @given(f=frames())
    def test_sort_is_permutation(self, f):
        out = f.sort_values("a")
        key = lambda fr: np.sort(fr.column("a") * 10007 + fr.column("b"))
        assert np.array_equal(key(f), key(out))

    @given(f=frames())
    def test_multi_key_sort_lexicographic(self, f):
        out = f.sort_values(["a", "b"])
        a = out.column("a")
        b = out.column("b")
        composite = a.astype(np.int64) * 4001 + b
        assert np.all(np.diff(composite) >= 0)


class TestGroupbyProperties:
    @given(f=frames())
    def test_groupby_size_total(self, f):
        out = f.groupby_size("a")
        assert out.column("size").sum() == f.num_rows or f.num_rows == 0

    @given(f=frames())
    def test_groupby_sum_matches_bincount(self, f):
        if f.num_rows == 0:
            return
        out = f.groupby_sum("a", "b")
        for key, total in zip(out.column("a"), out.column("b_sum")):
            mask = f.column("a") == key
            assert total == f.column("b")[mask].sum()

    @given(f=frames())
    def test_groupby_keys_unique_sorted(self, f):
        if f.num_rows == 0:
            return
        keys = f.groupby_size("a").column("a")
        assert np.array_equal(keys, np.unique(f.column("a")))


class TestFilterTakeProperties:
    @given(f=frames(), threshold=values)
    def test_filter_then_complement_partitions(self, f, threshold):
        mask = f.column("a") >= threshold
        kept = f.filter(mask)
        dropped = f.filter(~mask)
        assert kept.num_rows + dropped.num_rows == f.num_rows

    @given(f=frames())
    def test_concat_preserves_rows(self, f):
        assert f.concat(f).num_rows == 2 * f.num_rows
