"""TSV edge format: ``u\\tv\\n`` per edge (paper Section IV.A).

Encoding and decoding are the pipeline's data-movement hot path — every
Kernel 0 shard write and Kernel 1 shard read pays them — so both run as
**dense pure-numpy passes** over blocks of about ``_BLOCK_BYTES`` of
text, with no per-line Python string and no Python token list.

*Encode* lays a block out as a fixed-width byte matrix, one row
("plane") per output column: the ``u`` digits most-significant first, a
tab, the ``v`` digits, a newline.  Column widths come from ``max()``;
each digit plane is one ``q // 10`` step in ``uint32`` (``uint64`` only
when a label reaches 2**32); a parallel keep-plane ``q > 0`` marks the
leading zeros.  One transpose turns planes into lines and one compress
drops the marked bytes.

*Decode* indexes the separators instead of the digits: ``d = byte -
0x30`` wraps every non-digit above 9, ``flatnonzero(d > 9)`` lists them,
only those bytes are checked to be whitespace, and successive
differences give every token's end and length (a final token without a
newline gets a virtual terminator).  Values are accumulated by
gathering digit place ``k`` of every token right-aligned from a
zero-padded copy of ``d`` — ``int32`` when no token exceeds 9 digits —
separately for the even and odd tokens, so ``u`` and ``v`` come out
contiguous.

The string-kernel paths are kept as private functions: they back the
corruption diagnostics (exact error messages, line numbers via
:func:`parse_edge_line`), handle exotic but legal inputs the fast path
declines (signed labels, ``+`` prefixes, >18-digit tokens), and serve
as the reference implementation the test suite asserts the fast path
byte-identical to.

The paper's Matlab reference is 1-based; this library is 0-based
internally.  ``vertex_base`` selects the on-disk convention (default 0)
and conversion happens at this boundary only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util import check_nonneg_int, check_same_length
from repro.edgeio.errors import CorruptEdgeFileError

#: On-disk vertex labels start at this value by default.
DEFAULT_VERTEX_BASE = 0

_ASCII_ZERO = 0x30
_TAB = 0x09
_NEWLINE = 0x0A

#: Tokens longer than this may overflow int64 during the vectorized
#: accumulate; the legacy parser (whose ``np.array(tokens)`` conversion
#: reports overflow as corruption) handles them instead.
_MAX_FAST_DIGITS = 18

#: TSV bytes the fast paths work on at a time.  Larger shards are
#: encoded and decoded in blocks of about this size so the digit matrix
#: and the separator index stay cache-resident: measured against one
#: piece, a 2**20-edge shard (12 MB) encodes and decodes 15-25 % faster
#: and the benchmark's 65 536-edge shards (0.7 MB) 5-15 % faster.
_BLOCK_BYTES = 1 << 18


def encode_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    vertex_base: int = DEFAULT_VERTEX_BASE,
) -> bytes:
    """Render edge arrays to TSV bytes.

    Parameters
    ----------
    u, v:
        Integer edge arrays (0-based labels).
    vertex_base:
        Added to every label on output (0 keeps labels as-is, 1 writes
        Matlab-style 1-based labels).

    Returns
    -------
    bytes
        ``b"u\\tv\\n"`` per edge, empty for empty input.

    Examples
    --------
    >>> import numpy as np
    >>> encode_edges(np.array([0, 2]), np.array([1, 0]))
    b'0\\t1\\n2\\t0\\n'
    """
    check_same_length("u", u, "v", v)
    check_nonneg_int("vertex_base", vertex_base)
    if len(u) == 0:
        return b""
    u_out = np.asarray(u, dtype=np.int64) + vertex_base
    v_out = np.asarray(v, dtype=np.int64) + vertex_base
    if int(u_out.min()) < 0 or int(v_out.min()) < 0:
        # Negative labels are legal bytes-wise but rare enough that the
        # fast path does not carry sign logic; the string kernels do.
        return _encode_edges_strings(u_out, v_out)
    return _encode_edges_fast(u_out, v_out)


def _encode_edges_strings(u_out: np.ndarray, v_out: np.ndarray) -> bytes:
    """Reference encoder via numpy's string kernels (slow, general).

    Builds one Python string object per line; kept for negative labels
    and as the reference the tests compare the fast path against.
    """
    u_txt = np.char.mod("%d", u_out)
    v_txt = np.char.mod("%d", v_out)
    lines = np.char.add(np.char.add(u_txt, "\t"), np.char.add(v_txt, "\n"))
    return "".join(lines.tolist()).encode("ascii")


def _encode_edges_fast(u_out: np.ndarray, v_out: np.ndarray) -> bytes:
    """Dense fixed-width encoder; bytes identical to
    :func:`_encode_edges_strings` for non-negative labels."""
    u_top = int(u_out.max())
    v_top = int(v_out.max())
    # uint32 division is about twice as fast as uint64; every graph the
    # benchmark generates fits.
    dtype = np.uint32 if max(u_top, v_top) < 2**32 else np.uint64
    u_width = len(str(u_top))
    v_width = len(str(v_top))
    step = _BLOCK_BYTES // (u_width + v_width + 2)
    return b"".join(
        _encode_block(u_out[i:i + step], v_out[i:i + step],
                      u_width, v_width, dtype)
        for i in range(0, len(u_out), step)
    )


def _encode_block(
    u_out: np.ndarray,
    v_out: np.ndarray,
    u_width: int,
    v_width: int,
    dtype: type,
) -> bytes:
    """One block of lines as a ``(row width, edges)`` byte matrix.

    Rows (planes) are: ``u`` digits most-significant first, a tab,
    ``v`` digits, a newline.  ``keep`` is False exactly on leading
    zeros; those bytes are zeroed (no kept byte is NUL) and deleted
    from the transposed matrix, which leaves the lines.
    """
    width = u_width + v_width + 2
    planes = np.empty((width, len(u_out)), dtype=np.uint8)
    keep = np.ones(planes.shape, dtype=bool)
    for values, first, digits in ((u_out, 0, u_width),
                                  (v_out, u_width + 1, v_width)):
        q = values.astype(dtype)
        for row in range(first + digits - 1, first, -1):
            rest = q // 10
            np.subtract(q, rest * 10, out=planes[row], casting="unsafe")
            q = rest
            # A digit left of this one prints only if something
            # non-zero remains at or above it.
            np.greater(q, 0, out=keep[row - 1])
        planes[first] = q
    planes += _ASCII_ZERO
    planes[u_width] = _TAB
    planes[width - 1] = _NEWLINE
    planes *= keep
    return planes.T.tobytes().translate(None, b"\0")


def decode_edges(
    payload: bytes,
    *,
    vertex_base: int = DEFAULT_VERTEX_BASE,
    strict: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse TSV bytes back into ``(u, v)`` int64 arrays.

    Parameters
    ----------
    payload:
        File contents.
    vertex_base:
        Subtracted from every label on input.
    strict:
        When True, every line is validated individually and the first
        malformed line is reported with its line number; when False the
        buffer is tokenised in one shot (corruption is still detected,
        with a buffer-level message).

    Raises
    ------
    CorruptEdgeFileError
        On odd token counts or non-integer tokens.
    """
    check_nonneg_int("vertex_base", vertex_base)
    if not payload or not payload.strip():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    if strict:
        u_list = []
        v_list = []
        for lineno, raw in enumerate(payload.splitlines(), start=1):
            if not raw.strip():
                continue
            a, b = parse_edge_line(raw, lineno=lineno)
            u_list.append(a)
            v_list.append(b)
        u = np.array(u_list, dtype=np.int64) - vertex_base
        v = np.array(v_list, dtype=np.int64) - vertex_base
        return u, v

    decoded = _decode_edges_fast(payload)
    if decoded is None:
        decoded = _decode_edges_split(payload)
    u, v = decoded
    if vertex_base:
        u = u - vertex_base
        v = v - vertex_base
    return u, v


def _decode_edges_fast(
    payload: bytes,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Separator-indexed tokenizer: parse labels straight from the bytes.

    Handles the overwhelmingly common case — non-negative decimal
    labels separated by ASCII whitespace — without building a Python
    token list (``payload.split()`` allocates one PyObject per label,
    which dominates warm decode).  Returns ``None`` when the payload
    needs the general parser: any byte that is neither a digit nor
    whitespace (signs, letters — the legacy path owns the error
    wording), or a token long enough to overflow the int64 accumulate.
    The returned arrays are contiguous int64.
    """
    data = np.frombuffer(payload, dtype=np.uint8)
    size = len(data)
    u_parts = []
    v_parts = []
    num_tokens = 0
    start = 0
    while start < size:
        end = size
        if size - start > _BLOCK_BYTES:
            # Any whitespace byte ends a token, so cutting after a
            # newline never splits one; a block without a newline
            # takes the rest.
            cut = payload.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
            if cut > start:
                end = cut
        tokens = _index_tokens(data[start:end])
        start = end
        if tokens is None:
            return None
        digits, stops, lengths = tokens
        # Tokens pair up across the whole payload, not per line, so a
        # block that starts mid-pair hands its first token to ``v``.
        odd = num_tokens & 1
        u_parts.append(_gather_values(digits, stops[odd::2], lengths[odd::2]))
        v_parts.append(
            _gather_values(digits, stops[1 - odd::2], lengths[1 - odd::2])
        )
        num_tokens += len(stops)
    if num_tokens % 2 != 0:
        raise CorruptEdgeFileError(
            f"edge payload has an odd number of tokens ({num_tokens}); "
            "each edge needs exactly two vertex labels"
        )
    return (
        np.concatenate(u_parts, dtype=np.int64),
        np.concatenate(v_parts, dtype=np.int64),
    )


def _index_tokens(
    data: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Locate the tokens of one block from its separator positions.

    Returns ``(digits, stops, lengths)`` — the digit value of every
    byte (left-padded with ``_MAX_FAST_DIGITS`` zeros so a right-aligned
    gather never underruns), each token's exclusive end index in that
    padded buffer, and its length — or ``None`` when the block holds a
    byte that is neither digit nor whitespace or a token longer than
    ``_MAX_FAST_DIGITS``.
    """
    digits = np.zeros(_MAX_FAST_DIGITS + len(data), dtype=np.uint8)
    values = digits[_MAX_FAST_DIGITS:]
    np.subtract(data, _ASCII_ZERO, out=values)  # wraps: non-digits land > 9
    sep = np.flatnonzero(values > 9)
    found = data[sep]
    # bytes.split() splits on exactly this set: \t\n\x0b\x0c\r and space.
    if not bool((((found - _TAB) < 5) | (found == 0x20)).all()):
        return None
    if len(sep) == 0 or sep[-1] != len(data) - 1:
        sep = np.append(sep, len(data))  # last token has no terminator
    lengths = np.empty(len(sep), dtype=np.int64)
    lengths[0] = sep[0]
    np.subtract(sep[1:], sep[:-1], out=lengths[1:])
    lengths[1:] -= 1
    if int(lengths.min()) == 0:  # whitespace runs leave empty "tokens"
        real = lengths > 0
        sep = sep[real]
        lengths = lengths[real]
    if int(lengths.max(initial=0)) > _MAX_FAST_DIGITS:
        return None
    sep += _MAX_FAST_DIGITS
    return digits, sep, lengths


def _gather_values(
    digits: np.ndarray, stops: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Accumulate each token's value from its right-aligned digits.

    Place ``k`` (from the right) of every token is one gather at
    ``stops - 1 - k``, masked to zero where the token is shorter.
    ``int32`` holds any 9-digit token, which halves the traffic for
    every graph the benchmark generates.
    """
    widest = int(lengths.max(initial=0))
    dtype = np.int32 if widest <= 9 else np.int64
    at = stops - 1
    total = digits[at].astype(dtype)
    scale = 1
    for k in range(1, widest):
        at -= 1
        scale *= 10
        place = (digits[at] * (lengths > k)).astype(dtype)
        place *= dtype(scale)
        total += place
    return total


def _decode_edges_split(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """General tokenizer via ``payload.split()`` (slow, allocates a
    Python token list).  Owns the corruption error wording and the
    exotic-but-legal inputs (signed labels, ``+`` prefixes, tokens the
    int64 accumulate could overflow on)."""
    tokens = payload.split()
    if len(tokens) % 2 != 0:
        raise CorruptEdgeFileError(
            f"edge payload has an odd number of tokens ({len(tokens)}); "
            "each edge needs exactly two vertex labels"
        )
    try:
        flat = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CorruptEdgeFileError(
            f"edge payload contains a non-integer vertex label: {exc}"
        ) from exc
    return np.ascontiguousarray(flat[0::2]), np.ascontiguousarray(flat[1::2])


def parse_edge_line(raw: bytes, *, lineno: int = 0) -> Tuple[int, int]:
    """Parse one ``u\\tv`` line strictly.

    Raises
    ------
    CorruptEdgeFileError
        If the line does not contain exactly two integer fields.
    """
    parts = raw.split()
    if len(parts) != 2:
        raise CorruptEdgeFileError(
            f"line {lineno}: expected 2 fields, found {len(parts)}: {raw[:80]!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CorruptEdgeFileError(
            f"line {lineno}: non-integer vertex label in {raw[:80]!r}"
        ) from exc
