"""Unit tests for repro._util.checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.checks import (
    check_bool,
    check_dtype,
    check_in_range,
    check_nonneg_int,
    check_positive_int,
    check_same_length,
)


class TestPositiveInt:
    def test_accepts_python_and_numpy_ints(self):
        assert check_positive_int("n", 3) == 3
        assert check_positive_int("n", np.int64(5)) == 5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            check_positive_int("n", 0)
        with pytest.raises(ValueError):
            check_positive_int("n", -2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            check_positive_int("n", True)
        with pytest.raises(TypeError):
            check_positive_int("n", 1.5)

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive_int("my_param", 0)


class TestNonnegInt:
    def test_accepts_zero(self):
        assert check_nonneg_int("n", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonneg_int("n", -1)


class TestBool:
    def test_accepts_bools(self):
        assert check_bool("flag", True) is True
        assert check_bool("flag", False) is False

    @pytest.mark.parametrize("value", [0, 1, "no", "yes", None, 1.0])
    def test_rejects_truthy_non_bools(self, value):
        with pytest.raises(TypeError, match="flag must be a bool"):
            check_bool("flag", value)


class TestInRange:
    def test_bounds_inclusive(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2.5, 1.0, 2.0)

    # The unit interval is how damping factors are validated.
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1])
    def test_accepts_unit_interval(self, value):
        out = check_in_range("damping", value, 0.0, 1.0)
        assert out == float(value) and isinstance(out, float)

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"damping must be within \[0.0, 1.0\]"):
            check_in_range("damping", value, 0.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="damping"):
            check_in_range("damping", float("nan"), 0.0, 1.0)

    @pytest.mark.parametrize("value", [None, "0.85", True])
    def test_rejects_non_numeric(self, value):
        with pytest.raises(TypeError, match="damping must be a real number"):
            check_in_range("damping", value, 0.0, 1.0)


class TestSameLength:
    def test_passes_equal(self):
        check_same_length("a", [1, 2], "b", [3, 4])

    def test_rejects_unequal_with_both_names(self):
        with pytest.raises(ValueError, match="alpha and beta"):
            check_same_length("alpha", [1], "beta", [1, 2])


class TestDtype:
    def test_accepts_matching_kind(self):
        arr = np.zeros(3, dtype=np.int64)
        assert check_dtype("a", arr, "i") is arr

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="dtype kind"):
            check_dtype("a", np.zeros(3), "i")

    def test_rejects_non_array(self):
        with pytest.raises(TypeError):
            check_dtype("a", [1, 2], "i")
