"""Binary (``.npy``) shard format.

The paper's pipeline is specified over text files, and Kernel 0/1 cost is
partly string formatting/parsing.  To let benchmarks isolate that cost
(``--file-format npy``), datasets can also be written as
``.npy`` shards holding an ``(m, 2) int64`` array per shard.  The dataset
manifest records which format a directory uses; both formats share all
other machinery.

The file layout is ``int64`` whatever dtype the labels were held in
(:mod:`repro.labels`): writes widen, private reads narrow back to the
label dtype, and memory-mapped reads hand out the ``int64`` columns of
the mapping itself, which no process copies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from repro._util import check_same_length
from repro.edgeio.errors import CorruptEdgeFileError
from repro.labels import fit_labels


def write_binary_shard(path: Path, u: np.ndarray, v: np.ndarray) -> int:
    """Write one binary shard; returns bytes written.

    The shard holds a single ``(m, 2)`` little-endian int64 array,
    whatever the labels' dtype: the on-disk layout (and so the bytes) do
    not depend on it.  Writing is atomic (temp + rename).
    """
    check_same_length("u", u, "v", v)
    path = Path(path)
    stacked = np.empty((len(u), 2), dtype=np.int64)  # the file layout
    stacked[:, 0], stacked[:, 1] = u, v
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, stacked)
    tmp.replace(path)
    return path.stat().st_size


def read_binary_shard(
    path: Path, *, mmap: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Read one binary shard back into ``(u, v)``: private arrays in the
    label dtype of their values (``uint32`` below ``2**32``).

    Parameters
    ----------
    mmap:
        Memory-map the payload instead of reading it: the returned
        columns are **read-only strided int64 views** over the OS page
        cache, so concurrent readers of one file share physical pages
        instead of each holding a private copy.  Consumers that need to
        mutate (or need contiguity) must ``.copy()`` — the copy-on-write
        seam of the zero-copy shard plane (ARCHITECTURE.md).

    Raises
    ------
    CorruptEdgeFileError
        If the file is not a 2-column int64 ``.npy`` array.
    """
    path = Path(path)
    try:
        arr = np.load(
            path, mmap_mode="r" if mmap else None, allow_pickle=False
        )
    except (ValueError, OSError) as exc:
        raise CorruptEdgeFileError(f"cannot read binary shard {path}: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CorruptEdgeFileError(
            f"binary shard {path} has shape {arr.shape}, expected (m, 2)"
        )
    if arr.dtype.kind != "i":
        raise CorruptEdgeFileError(
            f"binary shard {path} has dtype {arr.dtype}, expected integer"
        )
    if mmap and arr.dtype == np.int64 and isinstance(arr, np.memmap):
        # Hand out the mapped columns as-is: narrowing (or an
        # ascontiguousarray) here would silently defeat the point by
        # materialising private copies.  Any other on-disk dtype falls
        # through to private arrays.
        return arr[:, 0], arr[:, 1]
    # The column copies a private read makes anyway, in the label dtype.
    u, v = fit_labels(arr[:, 0], arr[:, 1])
    return np.ascontiguousarray(u), np.ascontiguousarray(v)
