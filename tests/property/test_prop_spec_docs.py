"""Property tests for the spec parsers: what a parser accepts, it keeps
verbatim and well typed.

Each example takes a valid :class:`~repro.api.spec.RunSpec` (or
:class:`~repro.api.spec.SweepSpec`) document, replaces one field with an
arbitrary JSON value, and parses it.  Either the parser refuses it with
``ValueError``/``TypeError``, or the parsed spec carries exactly that
value, of the field's declared type — a parser never coerces ``"no"``
into a bool or ``"68"`` into the scales 6 and 8.
"""

from __future__ import annotations

import typing

from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, SweepSpec

#: Values a coercing parser would accept and change: numeric strings,
#: bools where ints or floats go, whole floats where ints go.
NEAR_MISSES = st.sampled_from([
    "68", "6", "0.85", "no", "yes", "numpy", "", True, False, 0, 1, 2,
    6.0, 6.5, 2.7, 0.5, [6.9, "7"], [True], [6, 8], ["numpy"], [],
])
JSON = st.one_of(NEAR_MISSES, st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6,
))

RUN_FIELDS = sorted(
    name for name in RunSpec.__dataclass_fields__
    if name not in ("spec_version", "data_dir")
)
RUN_TYPES = typing.get_type_hints(RunSpec)
SWEEP_TYPES = {"scales": (list, int), "backends": (list, str),
               "repeats": int}


def _is(value: object, kind: type) -> bool:
    """``isinstance`` without bool passing for a number; a float field
    takes any real number."""
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@settings(max_examples=400)
@given(field=st.sampled_from(RUN_FIELDS), value=JSON)
def test_runspec_keeps_what_it_accepts(field, value):
    doc = {**RunSpec(scale=6).to_dict(), field: value}
    try:
        spec = RunSpec.from_dict(doc)
    except (ValueError, TypeError):
        return
    assert spec.to_dict()[field] == value
    assert _is(value, RUN_TYPES[field]), (field, value)


@settings(max_examples=300)
@given(field=st.sampled_from(sorted(SWEEP_TYPES)), value=JSON)
def test_sweepspec_keeps_what_it_accepts(field, value):
    doc = {"base": RunSpec(scale=6).to_dict(), "scales": [6],
           "backends": ["scipy"], "repeats": 1, field: value}
    try:
        sweep = SweepSpec.from_dict(doc)
    except (ValueError, TypeError):
        return
    assert sweep.to_dict()[field] == value
    kind = SWEEP_TYPES[field]
    if isinstance(kind, tuple):
        container, entry = kind
        assert _is(value, container) and all(_is(v, entry) for v in value)
    else:
        assert _is(value, kind), (field, value)
