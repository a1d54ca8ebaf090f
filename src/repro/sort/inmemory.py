"""In-memory edge sorts.

Three interchangeable algorithms, all returning new ``(u, v)`` arrays
ordered by start vertex:

* :func:`numpy_sort_edges` — numpy ``argsort``; the general-purpose
  baseline.  Its stable sort is keyed on 16-bit digits of ``u`` (see
  :func:`_stable_order`), which numpy sorts by radix.
* :func:`counting_sort_edges` — O(M + N) counting sort exploiting the
  bounded key range ``u < N``; the natural choice for Kernel 1 since the
  benchmark fixes ``N = 2**scale`` and ``M = 16N``.
* :func:`radix_sort_edges` — LSD radix sort over fixed-width digits;
  O(M · ceil(bits/digit)) with no comparison, included as the classic
  HPC distribution sort and exercised by the sort ablation bench.

:func:`sort_edges` dispatches by algorithm name.

:func:`pair_order` is the one ``(u, v)`` lexicographic ordering every
kernel uses (``np.lexsort((v, u))``, by radix), and
:func:`collapse_duplicates` the one duplicate run-collapse: a value
sort of packed keys, on top of it for labels no key can hold.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util import check_positive_int, check_same_length

EdgePair = Tuple[np.ndarray, np.ndarray]

_ALGORITHMS = ("numpy", "counting", "radix")


def is_sorted_by_start(u: np.ndarray) -> bool:
    """True when start-vertex array ``u`` is non-decreasing."""
    if len(u) < 2:
        return True
    return bool(np.all(u[1:] >= u[:-1]))


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


def numpy_sort_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    by_end_vertex: bool = False,
    stable: bool = True,
) -> EdgePair:
    """Sort edges by ``u`` using numpy's ``argsort``.

    Parameters
    ----------
    u, v:
        Edge arrays.
    by_end_vertex:
        Also order ties by ``v`` (lexicographic ``(u, v)`` sort) — the
        paper's "should the end vertices also be sorted?" option.
    stable:
        Preserve input order among equal keys.  Ignored when
        ``by_end_vertex`` is set (the secondary key defines tie order).
    """
    check_same_length("u", u, "v", v)
    if by_end_vertex:
        order = pair_order(u, v)
    elif stable:
        order = _stable_order(u)
    else:
        order = np.argsort(u)
    return u[order], v[order]


def counting_sort_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    num_vertices: int,
    by_end_vertex: bool = False,
) -> EdgePair:
    """Counting sort by start vertex: O(M + N), always stable.

    Builds the output offsets from a histogram of ``u`` (exactly the
    CSR row-pointer construction), then scatters edges to their slots.

    Parameters
    ----------
    num_vertices:
        Exclusive upper bound on vertex labels (the histogram length).
    by_end_vertex:
        Apply a second counting pass on ``v`` first so the final order
        is lexicographic ``(u, v)``; stability of the second pass makes
        this a classic LSD two-pass sort.
    """
    check_same_length("u", u, "v", v)
    check_positive_int("num_vertices", num_vertices)
    if len(u) and (u.min() < 0 or u.max() >= num_vertices):
        raise ValueError(
            f"u labels outside [0, {num_vertices}): min={u.min()}, max={u.max()}"
        )

    if by_end_vertex:
        u, v = counting_sort_edges(v, u, num_vertices=num_vertices)[::-1]
        # After sorting by v (stable), sort by u (stable) => (u, v) order.

    counts = np.bincount(u, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    position = offsets[u].copy()
    # Stable scatter: edges with equal u are placed in input order by
    # bumping each key's cursor as we assign.  Vectorised via argsort of
    # the (already computed) destination start plus per-key sequence no.
    seq = _per_key_sequence(u, num_vertices)
    dest = position + seq
    out_u = np.empty_like(u)
    out_v = np.empty_like(v)
    out_u[dest] = u
    out_v[dest] = v
    return out_u, out_v


def _per_key_sequence(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """For each element, its 0-based occurrence index among equal keys.

    E.g. ``[3, 1, 3, 3, 1] -> [0, 0, 1, 2, 1]``.  Vectorised with a
    stable argsort + segmented arange.
    """
    m = len(keys)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # Position within each equal-key run of the sorted array.
    run_start = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    run_ids = np.cumsum(run_start) - 1
    first_index_of_run = np.flatnonzero(run_start)
    within_run = np.arange(m, dtype=np.int64) - first_index_of_run[run_ids]
    seq = np.empty(m, dtype=np.int64)
    seq[order] = within_run
    return seq


def radix_sort_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    digit_bits: int = 11,
    by_end_vertex: bool = False,
) -> EdgePair:
    """LSD radix sort by start vertex over ``digit_bits``-wide digits.

    Only the digits needed to cover ``max(u)`` are processed, so cost
    adapts to the actual key width.  Each pass is a stable counting sort
    on one digit, implemented with ``bincount`` + prefix sums.

    Parameters
    ----------
    digit_bits:
        Width of each radix digit (default 2**11 buckets per pass —
        a good cache/bucket-count balance for int64 keys).
    by_end_vertex:
        Sort lexicographically by ``(u, v)`` by radix-sorting ``v``
        first (LSD composition of stable passes).
    """
    check_same_length("u", u, "v", v)
    check_positive_int("digit_bits", digit_bits)
    if digit_bits > 24:
        raise ValueError(f"digit_bits too large ({digit_bits}); max 24")
    if len(u) == 0:
        return u.copy(), v.copy()
    if u.min() < 0:
        raise ValueError("radix sort requires non-negative keys")

    if by_end_vertex:
        v, u = radix_sort_edges(v, u, digit_bits=digit_bits)
        # Stable u-passes below preserve the v order among equal u.

    mask = (1 << digit_bits) - 1
    max_key = int(u.max())
    shift = 0
    out_u = u.copy()
    out_v = v.copy()
    while (max_key >> shift) > 0 or shift == 0:
        digits = (out_u >> shift) & mask
        counts = np.bincount(digits, minlength=mask + 1)
        offsets = np.zeros(mask + 2, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        seq = _per_key_sequence(digits, mask + 1)
        dest = offsets[digits] + seq
        next_u = np.empty_like(out_u)
        next_v = np.empty_like(out_v)
        next_u[dest] = out_u
        next_v[dest] = out_v
        out_u, out_v = next_u, next_v
        shift += digit_bits
        if shift >= 63:
            break
    return out_u, out_v


def sort_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    algorithm: str = "numpy",
    num_vertices: int = 0,
    by_end_vertex: bool = False,
) -> EdgePair:
    """Dispatch to a named in-memory sort.

    Parameters
    ----------
    algorithm:
        ``"numpy"``, ``"counting"``, or ``"radix"``.
    num_vertices:
        Required by the counting sort (histogram length).
    by_end_vertex:
        Lexicographic ``(u, v)`` ordering.

    Raises
    ------
    ValueError
        For unknown algorithm names, or counting sort without
        ``num_vertices``.
    """
    if algorithm == "numpy":
        return numpy_sort_edges(u, v, by_end_vertex=by_end_vertex)
    if algorithm == "counting":
        if num_vertices <= 0:
            raise ValueError("counting sort requires num_vertices > 0")
        return counting_sort_edges(
            u, v, num_vertices=num_vertices, by_end_vertex=by_end_vertex
        )
    if algorithm == "radix":
        return radix_sort_edges(u, v, by_end_vertex=by_end_vertex)
    raise ValueError(
        f"unknown sort algorithm {algorithm!r}; expected one of {_ALGORITHMS}"
    )
