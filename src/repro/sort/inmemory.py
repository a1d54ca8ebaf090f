"""In-memory edge sorts.

Every sort here value-sorts one packed key per edge (:func:`_pack_pairs`),
so numpy may use its fastest sort and the result is still exact:
:func:`sort_edges` packs ``(u, position)`` — distinct keys, so the value
order is the stable one — or, with ``by_end_vertex``, ``(u, v)`` — equal
keys are identical pairs; :func:`pair_order` packs ``((u, v), position)``
or takes two stable packed passes, and :func:`collapse_duplicates` counts
equal ``(u, v)`` keys.  Labels no 64-bit key holds take numpy's
reference (``np.argsort(kind="stable")`` or ``np.lexsort``), which the
packed sorts equal bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util import check_same_length

EdgePair = Tuple[np.ndarray, np.ndarray]


def sorted_by(by_end_vertex: bool) -> str:
    """The ``sorted_by`` a Kernel 1 dataset's manifest records."""
    return "(u,v)" if by_end_vertex else "u"


def is_sorted_by_start(u: np.ndarray) -> bool:
    """True when start-vertex array ``u`` is non-decreasing."""
    if len(u) < 2:
        return True
    return bool(np.all(u[1:] >= u[:-1]))


def is_sorted_by_pair(u: np.ndarray, v: np.ndarray) -> bool:
    """True when the pairs ``(u, v)`` are in lexicographic order."""
    if len(u) < 2:
        return True
    head, tail = u[:-1], u[1:]
    return bool(np.all((tail > head) | ((tail == head) & (v[1:] >= v[:-1]))))


def _pack_pairs(
    a: np.ndarray, b: np.ndarray, spare: int = 0
) -> Optional[Tuple[np.ndarray, int]]:
    """``((a << shift) | b, shift)``, one unsigned key per pair: ``uint32``
    when the labels' bit lengths sum to <= 32, ``uint64`` up to 64;
    ``None`` for empty, non-integer, negative or wider labels, or when
    ``spare`` more bits would not fit beside them."""
    if (len(a) == 0 or a.dtype.kind not in "iu" or b.dtype.kind not in "iu"
            or int(a.min()) < 0 or int(b.min()) < 0):
        return None
    shift = int(b.max()).bit_length()
    bits = int(a.max()).bit_length() + shift
    if bits + spare > 64:
        return None
    key = np.dtype(np.uint32 if bits <= 32 else np.uint64)
    keys = a.astype(key)
    keys <<= key.type(shift)  # a scalar of the key dtype: an int would promote
    np.bitwise_or(keys, b, out=keys, dtype=key, casting="unsafe")  # no M-long copy
    return keys, shift


def _sorted_pairs(a: np.ndarray, b: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """:func:`_pack_pairs` with its keys value-sorted in place."""
    packed = _pack_pairs(a, b)
    if packed is not None:
        packed[0].sort()
    return packed


def _low(keys: np.ndarray, shift: int, dtype) -> np.ndarray:
    """The ``b`` half of packed keys, as ``dtype``."""
    mask = keys.dtype.type((1 << shift) - 1)
    return np.bitwise_and(keys, mask, out=np.empty(len(keys), dtype))


def _high(keys: np.ndarray, shift: int, dtype) -> np.ndarray:
    """The ``a`` half of packed keys, as ``dtype``; shifts ``keys`` in place."""
    keys >>= keys.dtype.type(shift)
    same_width = keys.itemsize == np.dtype(dtype).itemsize
    return keys.view(dtype) if same_width else keys.astype(dtype)


def _stable_order(keys: np.ndarray) -> Optional[np.ndarray]:
    """``np.argsort(keys, kind="stable")`` as a value sort of distinct
    ``(key, position)`` keys; ``None`` when no 64-bit key holds them."""
    packed = _sorted_pairs(keys, np.arange(len(keys)))
    return None if packed is None else _low(*packed, np.intp)


def pair_order(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stable lexicographic ``(u, v)`` sorting permutation.

    One stable packed pass over the ``(u, v)`` keys when ``(u, v,
    position)`` fits 64 bits, else two, over ``v`` and then over ``u``
    taken in that order.  The stable permutation is unique, so each
    equals ``np.lexsort((v, u))``, the call for labels no key holds.
    """
    packed = _pack_pairs(u, v, spare=(len(u) - 1).bit_length())
    if packed is not None:
        return _stable_order(packed[0])
    order = _stable_order(v)
    second = None if order is None else _stable_order(u[order])
    return np.lexsort((v, u)) if second is None else order[second]


def collapse_duplicates(
    u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort COO coordinates and count duplicate ``(u, v)`` pairs.

    Returns the distinct ``(rows, cols)`` in row-major order, in the
    input dtypes, with each pair's multiplicity as ``float64`` — the
    ``sparse(u, v, 1, N, N)`` construction without scipy (column-major
    as ``collapse_duplicates(v, u)``).  Equal packed keys are identical
    pairs, so this is a *value* sort (no permutation, stability or
    gathers); labels no key can hold go through :func:`pair_order`."""
    if len(u) == 0:
        return u, v, np.empty(0, dtype=np.float64)
    packed = _sorted_pairs(u, v)
    if packed is None:
        order = pair_order(u, v)
        su, sv = u[order], v[order]
        new_pair = np.r_[True, (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])]
        first = np.flatnonzero(new_pair)
        counts = np.diff(first, append=len(su)).astype(np.float64)
        return su[first], sv[first], counts
    keys, shift = packed
    new_pair = np.r_[True, keys[1:] != keys[:-1]]
    first = np.flatnonzero(new_pair)
    counts = np.empty(len(first), dtype=np.float64)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1] = len(keys) - first[-1]
    del first  # its block is what the distinct keys take; the M-long array goes
    keys = keys[new_pair]
    cols = _low(keys, shift, v.dtype)
    return _high(keys, shift, u.dtype), cols, counts


def sort_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    by_end_vertex: bool = False,
    algorithm: str = "numpy",
    num_vertices: int = 0,
) -> EdgePair:
    """Kernel 1's in-memory sort: the edges ordered by start vertex.

    The sort is stable — edges with equal ``u`` keep their input order —
    so it equals indexing by ``np.argsort(u, kind="stable")``.

    Parameters
    ----------
    u, v:
        Edge arrays.
    by_end_vertex:
        Also order ties by ``v``: the lexicographic ``(u, v)`` order of
        :func:`pair_order`, the paper's "should the end vertices also be
        sorted?" option.
    algorithm:
        Kept for callers that still name the sort: ``"numpy"`` is the
        only accepted value; any other raises :class:`ValueError`.
    num_vertices:
        Kept for the same callers; ignored.
    """
    if algorithm != "numpy":
        raise ValueError(
            f"unknown sort algorithm {algorithm!r}; the one in-memory sort "
            f"is 'numpy'"
        )
    check_same_length("u", u, "v", v)
    if by_end_vertex:
        # Equal (u, v) keys are identical pairs: a value sort is lexsort.
        packed = _sorted_pairs(u, v)
        if packed is None:
            order = pair_order(u, v)
            return u[order], v[order]
        sv = _low(*packed, v.dtype)
        return _high(*packed, u.dtype), sv
    # (u, position) keys are distinct: a value sort is the stable order.
    packed = _sorted_pairs(u, np.arange(len(u)))
    if packed is None:
        order = np.argsort(u, kind="stable")
        return u[order], v[order]
    sv = v[_low(*packed, np.intp)]
    return _high(*packed, u.dtype), sv
