"""Vertex labels: the one dtype rule from Kernel 0 to Kernel 2.

A graph of scale ``S`` labels its vertices ``0 .. 2**S - 1``, so every
label of a graph up to scale 32 fits ``uint32``.  Kernels 0 to 2 hold
their edge lists in :data:`NARROW` (``uint32``, 4 bytes a label, 8 an
edge) whenever every label is below :data:`NARROW_LIMIT`, and in
:data:`WIDE` (``int64``) otherwise — from scale 33 up, and for the
negative labels a hand-written file may hold.  Both arrays of an edge
list share one dtype.  Values never change, only their width, so every
file, checksum and rank digest is the same whichever dtype held the
labels.

What stays ``int64`` — counts, offsets, ``indptr``, sort positions past
``2**32`` and the ``.npy`` shard payload on disk — is not a label, and
says why where it is allocated.

Arithmetic on narrow labels needs care.  ``uint32 - 1`` stays
``uint32`` on every supported numpy (numpy 2 promotes a Python int by
type, 1.21 by value, and a small positive constant fits either way),
so it wraps below zero and past ``2**32`` instead of widening.
:func:`shift_labels` is the one place labels move.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Labels of an edge list whose every label is below :data:`NARROW_LIMIT`.
NARROW = np.dtype(np.uint32)
#: Every other edge list's labels.
WIDE = np.dtype(np.int64)
#: Labels below this fit :data:`NARROW`: every graph up to scale 32.
NARROW_LIMIT = 1 << 32

LabelPair = Tuple[np.ndarray, np.ndarray]


def label_dtype(bound: int) -> np.dtype:
    """The dtype of labels that are all in ``[0, bound)``.

    >>> label_dtype(1 << 32), label_dtype((1 << 32) + 1)
    (dtype('uint32'), dtype('int64'))
    """
    return NARROW if bound <= NARROW_LIMIT else WIDE


def edge_dtype(u: np.ndarray, v: np.ndarray) -> np.dtype:
    """One dtype that holds both arrays without a scan: narrow only if
    both already are."""
    return NARROW if u.dtype == NARROW and v.dtype == NARROW else WIDE


def _span(u: np.ndarray, v: np.ndarray) -> Tuple[int, int]:
    """Smallest and largest label of the pair (``(0, 0)`` when empty)."""
    ends = [int(f(a)) for a in (u, v) if len(a) for f in (np.min, np.max)]
    return (min(ends), max(ends)) if ends else (0, 0)


def fit_labels(u: np.ndarray, v: np.ndarray) -> LabelPair:
    """``(u, v)`` in the dtype the rule gives their values.

    :data:`NARROW` when every label is in ``[0, 2**32)`` (a narrowing
    copy unless already narrow), else :data:`WIDE`.  For producers that
    learn the range only after parsing: the codec's general tokenizer,
    a ``.npy`` payload.
    """
    u, v = np.asarray(u), np.asarray(v)
    if edge_dtype(u, v) == NARROW:
        return u, v
    lo, hi = _span(u, v)
    dtype = NARROW if lo >= 0 and hi < NARROW_LIMIT else WIDE
    return u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def shift_labels(u: np.ndarray, v: np.ndarray, delta: int) -> LabelPair:
    """``(u + delta, v + delta)`` without wrapping.

    Narrow labels stay narrow when every shifted label does; otherwise
    the result is :data:`WIDE`, where a label below ``-delta`` shows as
    the negative it is, not as ``2**32 - 1``.  No shift returns the
    arrays themselves.
    """
    u, v = np.asarray(u), np.asarray(v)
    if not delta:
        return u, v
    if edge_dtype(u, v) == NARROW:
        lo, hi = _span(u, v)
        if lo + delta >= 0 and hi + delta < NARROW_LIMIT:
            # A scalar of the label dtype: uint32 on every numpy.
            step = NARROW.type(abs(delta))
            move = np.add if delta > 0 else np.subtract
            return move(u, step), move(v, step)
    shifted = u.astype(WIDE), v.astype(WIDE)
    for labels in shifted:
        labels += delta
    return shifted
