"""Unit tests for the mini columnar dataframe."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame import Frame


class TestConstruction:
    def test_basic(self):
        f = Frame({"a": [1, 2], "b": [3.0, 4.0]})
        assert f.num_rows == 2
        assert f.column_names == ["a", "b"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one column"):
            Frame({})

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="length"):
            Frame({"a": [1], "b": [1, 2]})

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Frame({"a": np.zeros((2, 2))})

    def test_column_returns_copy(self):
        f = Frame({"a": [1, 2]})
        col = f.column("a")
        col[0] = 99
        assert f.column("a")[0] == 1

    def test_missing_column_names_available(self):
        f = Frame({"a": [1]})
        with pytest.raises(KeyError, match="available"):
            f.column("z")


class TestRowOps:
    @pytest.fixture
    def f(self):
        return Frame({"u": [2, 0, 1, 0], "v": [10, 20, 30, 40]})

    def test_take(self, f):
        out = f.take(np.array([1, 3]))
        assert out.column("v").tolist() == [20, 40]

    def test_filter(self, f):
        out = f.filter(f.column("u") == 0)
        assert out.column("v").tolist() == [20, 40]

    def test_filter_length_guard(self, f):
        with pytest.raises(ValueError):
            f.filter(np.array([True]))

    def test_sort_single_key_stable(self, f):
        out = f.sort_values("u")
        assert out.column("u").tolist() == [0, 0, 1, 2]
        assert out.column("v").tolist() == [20, 40, 30, 10]

    def test_sort_multi_key(self):
        f = Frame({"u": [1, 0, 1, 0], "v": [5, 9, 2, 1]})
        out = f.sort_values(["u", "v"])
        assert out.column("u").tolist() == [0, 0, 1, 1]
        assert out.column("v").tolist() == [1, 9, 2, 5]

    def test_sort_requires_keys(self, f):
        with pytest.raises(ValueError):
            f.sort_values([])

    def test_assign_and_select(self, f):
        out = f.assign(w=f.column("u") * 2).select(["w"])
        assert out.column_names == ["w"]
        assert out.column("w").tolist() == [4, 0, 2, 0]

    def test_concat(self, f):
        doubled = f.concat(f)
        assert doubled.num_rows == 8

    def test_concat_column_mismatch(self, f):
        with pytest.raises(ValueError, match="column mismatch"):
            f.concat(Frame({"x": [1]}))

    def test_head(self, f):
        assert f.head(2).num_rows == 2
        assert f.head(100).num_rows == 4


class TestGroupBy:
    def test_groupby_size(self):
        f = Frame({"k": [3, 1, 3, 3]})
        out = f.groupby_size("k")
        assert out.column("k").tolist() == [1, 3]
        assert out.column("size").tolist() == [1, 3]

    def test_groupby_sum(self):
        f = Frame({"k": [1, 2, 1], "x": [1.0, 10.0, 2.0]})
        out = f.groupby_sum("k", "x")
        assert out.column("x_sum").tolist() == [3.0, 10.0]

    def test_groupby_apply_scalar(self):
        f = Frame({"k": [0, 0, 1], "x": [1.0, 3.0, 5.0]})
        out = f.groupby_apply_scalar("k", lambda g: float(g.column("x").max()))
        assert out.column("result").tolist() == [3.0, 5.0]


class TestMerge:
    def test_inner(self):
        left = Frame({"k": [1, 2, 3], "a": [10, 20, 30]})
        right = Frame({"k": [2, 3, 4], "b": [200, 300, 400]})
        out = left.merge(right, on="k")
        assert out.column("k").tolist() == [2, 3]
        assert out.column("b").tolist() == [200, 300]

    def test_left_fills_zero(self):
        left = Frame({"k": [1, 2], "a": [10, 20]})
        right = Frame({"k": [2], "b": [200]})
        out = left.merge(right, on="k", how="left")
        assert out.column("b").tolist() == [0, 200]

    def test_left_with_empty_right(self):
        left = Frame({"k": [1], "a": [10]})
        right = Frame({"k": np.array([], dtype=np.int64),
                       "b": np.array([], dtype=np.int64)})
        out = left.merge(right, on="k", how="left")
        assert out.column("b").tolist() == [0]

    def test_invalid_how(self):
        f = Frame({"k": [1]})
        with pytest.raises(ValueError):
            f.merge(f, on="k", how="outer")


class TestEquality:
    def test_equals(self):
        a = Frame({"x": [1, 2]})
        assert a.equals(Frame({"x": [1, 2]}))
        assert not a.equals(Frame({"x": [1, 3]}))
        assert not a.equals(Frame({"y": [1, 2]}))
