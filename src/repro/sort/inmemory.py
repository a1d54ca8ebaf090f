"""In-memory edge sorts.

:func:`sort_edges` is Kernel 1's one in-memory sort: a stable sort of
``(u, v)`` by start vertex, keyed on 16-bit digits of ``u`` (see
:func:`_stable_order`), which numpy sorts by radix; with
``by_end_vertex`` it orders by ``(u, v)`` instead.

:func:`pair_order` is the one ``(u, v)`` lexicographic ordering every
kernel uses (``np.lexsort((v, u))``, by radix), and
:func:`collapse_duplicates` the one duplicate run-collapse: a value
sort of packed keys, on top of it for labels no key can hold.
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


def _radix_top(keys: np.ndarray) -> Optional[int]:
    """``max(keys)`` if 16-bit digit passes can order ``keys`` (integers
    in ``[0, 2**32)``, at least one of them), else ``None``."""
    if keys.dtype.kind not in "iu" or len(keys) == 0 or int(keys.min()) < 0:
        return None
    top = int(keys.max())
    return top if top < 2**32 else None


def _digit_order(keys: np.ndarray, top: int) -> np.ndarray:
    """Stable permutation of ``keys <= top``: one or two
    least-significant-digit-first passes over ``uint16`` digits."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # low digit
    if top >= 2**16:
        high = (keys >> 16).astype(np.uint16)[order]
        order = order[np.argsort(high, kind="stable")]
    return order


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of ``keys``.

    numpy's ``kind="stable"`` is a radix sort for 16-bit integers and a
    comparison merge sort (timsort, several times slower per element on
    unordered keys) for wider ones, so keys below 2**32 are sorted as
    one or two least-significant-digit-first passes over ``uint16``
    digits.  The stable permutation of an array is unique, so the
    result equals ``np.argsort(keys, kind="stable")`` exactly; wider or
    negative keys take that call.
    """
    top = _radix_top(keys)
    if top is None:
        return np.argsort(keys, kind="stable")
    return _digit_order(keys, top)


def pair_order(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stable lexicographic ``(u, v)`` sorting permutation.

    The one way this package orders edge pairs: a stable pass over
    ``v`` then a stable pass over ``u`` taken in that order, each pass
    the 16-bit-digit radix sort of :func:`_stable_order`.  A stable
    sorting permutation is unique, so the result equals
    ``np.lexsort((v, u))`` exactly; that call (a comparison sort,
    several times slower) remains for keys outside ``[0, 2**32)`` and
    non-integer keys.
    """
    u_top, v_top = _radix_top(u), _radix_top(v)
    if u_top is None or v_top is None:
        return np.lexsort((v, u))
    order = _digit_order(v, v_top)
    return order[_digit_order(u[order], u_top)]


def _pack_pairs(u: np.ndarray, v: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """``((u << shift) | v, shift)``, one unsigned key per pair: ``uint32``
    when the labels' bit lengths sum to <= 32 (every scale <= 16), ``uint64``
    up to 64; ``None`` for non-integer, negative or wider labels."""
    if (u.dtype.kind not in "iu" or v.dtype.kind not in "iu"
            or int(u.min()) < 0 or int(v.min()) < 0):
        return None
    shift = int(v.max()).bit_length()
    bits = int(u.max()).bit_length() + shift
    if bits > 64:
        return None
    key = np.dtype(np.uint32 if bits <= 32 else np.uint64)
    keys = u.astype(key)
    keys <<= key.type(shift)  # a scalar of the key dtype: an int would promote
    np.bitwise_or(keys, v, out=keys, dtype=key, casting="unsafe")  # no M-long copy
    return keys, shift


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
    packed = _pack_pairs(u, v)
    if packed is None:
        order = pair_order(u, v)
        su, sv = u[order], v[order]
        new_pair = np.r_[True, (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])]
        first = np.flatnonzero(new_pair)
        counts = np.diff(first, append=len(su)).astype(np.float64)
        return su[first], sv[first], counts
    keys, shift = packed
    keys.sort()
    new_pair = np.r_[True, keys[1:] != keys[:-1]]
    first = np.flatnonzero(new_pair)
    counts = np.empty(len(first), dtype=np.float64)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1] = len(keys) - first[-1]
    del first  # its block is what the distinct keys take; the M-long array goes
    keys = keys[new_pair]
    kd = keys.dtype.type
    cols = np.bitwise_and(keys, kd((1 << shift) - 1), out=np.empty(len(keys), v.dtype))
    keys >>= kd(shift)  # in place: the distinct keys become the rows
    same_width = keys.itemsize == u.dtype.itemsize
    return keys.view(u.dtype) if same_width else keys.astype(u.dtype), cols, counts


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
    order = pair_order(u, v) if by_end_vertex else _stable_order(u)
    return u[order], v[order]
