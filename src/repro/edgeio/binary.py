"""Binary (``.npy``) shard format.

The paper's pipeline is specified over text files, and Kernel 0/1 cost is
partly string formatting/parsing.  To let benchmarks isolate that cost
(``--file-format npy``), datasets can also be written as
``.npy`` shards holding an ``(m, 2) int64`` array per shard.  The dataset
manifest records which format a directory uses; both formats share all
other machinery, the shard writer and reader included: this module only
turns arrays into file bytes and back.

The file layout is ``int64`` whatever dtype the labels were held in
(:mod:`repro.labels`): encodes widen, private decodes narrow back to the
label dtype, and mapped decodes hand out the ``int64`` columns of the
mapping itself, which no process copies.
"""

from __future__ import annotations

import io
from typing import Tuple

import numpy as np

from repro._util import check_same_length
from repro.edgeio.errors import CorruptEdgeFileError
from repro.labels import fit_labels

#: Longest version 1.0 ``.npy`` header (magic, version, length, dict).
_MAX_HEADER_BYTES = 10 + 65535


def encode_binary_shard(u: np.ndarray, v: np.ndarray) -> bytes:
    """One binary shard's file bytes: a single ``(m, 2)`` little-endian
    int64 ``.npy`` array, whatever the labels' dtype (the on-disk layout,
    and so the bytes, do not depend on it)."""
    check_same_length("u", u, "v", v)
    stacked = np.empty((len(u), 2), dtype=np.int64)  # the file layout
    stacked[:, 0], stacked[:, 1] = u, v
    sink = io.BytesIO()
    np.save(sink, stacked)
    return sink.getvalue()


def decode_binary_shard(
    payload, *, mapped: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a binary shard's file bytes into ``(u, v)``: private
    arrays in the label dtype of their values (``uint32`` below
    ``2**32``), or, ``mapped``, read-only strided int64 views over a
    ``uint8`` :class:`numpy.memmap` of the file.

    The views share the OS page cache between concurrent readers of one
    file; consumers that need to mutate (or need contiguity) must
    ``.copy()`` — the copy-on-write seam of the zero-copy shard plane
    (ARCHITECTURE.md).  Raises :class:`CorruptEdgeFileError` unless the
    payload is one C-order ``(m, 2)`` integer ``.npy`` array.
    """
    # A mapping stays the base of every view (the mark of a mapped read).
    data = payload if mapped else np.frombuffer(payload, dtype=np.uint8)
    header = io.BytesIO(data[:_MAX_HEADER_BYTES].tobytes())
    try:  # np.save writes version 1.0 for every shard array
        if np.lib.format.read_magic(header) != (1, 0):
            raise ValueError("not a version 1.0 .npy header")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(header)
    except ValueError as exc:
        raise CorruptEdgeFileError(f"not a binary shard: {exc}") from exc
    if fortran or len(shape) != 2 or shape[1] != 2 or dtype.kind != "i":
        raise CorruptEdgeFileError(
            f"binary shard has shape {shape}, dtype {dtype}, fortran "
            f"order {fortran}: expected a C-order (m, 2) integer array"
        )
    body = data[header.tell():]
    if len(body) != shape[0] * 2 * dtype.itemsize:
        raise CorruptEdgeFileError(
            f"binary shard holds {len(body)} payload bytes, its header "
            f"declares {shape} {dtype}"
        )
    arr = body.view(dtype).reshape(shape)
    if mapped and dtype == np.int64:
        # The mapped columns as-is: narrowing them would make the private
        # copy the mapping exists to avoid.  Other dtypes read privately.
        return arr[:, 0], arr[:, 1]
    # Private columns (copies a private read makes anyway), contiguous
    # and writeable, in the label dtype.
    u, v = (np.require(a, requirements=["C", "W"])
            for a in fit_labels(arr[:, 0], arr[:, 1]))
    return u, v
