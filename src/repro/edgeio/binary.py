"""Binary (``.npy``) shard format.

The paper's pipeline is specified over text files, and Kernel 0/1 cost is
partly string formatting/parsing.  To let benchmarks isolate that cost
(``--file-format npy``), datasets can also be written as
``.npy`` shards holding an ``(m, 2) int64`` array per shard.  The dataset
manifest records which format a directory uses; both formats share all
other machinery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from repro._util import check_same_length
from repro.edgeio.errors import CorruptEdgeFileError


def write_binary_shard(path: Path, u: np.ndarray, v: np.ndarray) -> int:
    """Write one binary shard; returns bytes written.

    The shard holds a single ``(m, 2)`` little-endian int64 array.
    Writing is atomic (temp + rename).
    """
    check_same_length("u", u, "v", v)
    path = Path(path)
    stacked = np.column_stack(
        [np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)]
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, stacked)
    tmp.replace(path)
    return path.stat().st_size


def read_binary_shard(
    path: Path, *, mmap: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Read one binary shard back into ``(u, v)``.

    Parameters
    ----------
    mmap:
        Memory-map the payload instead of reading it: the returned
        columns are **read-only strided views** over the OS page cache,
        so concurrent readers of one file share physical pages instead
        of each holding a private copy.  Consumers that need to mutate
        (or need contiguity) must ``.copy()`` — the copy-on-write seam
        of the zero-copy shard plane (ARCHITECTURE.md).

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
    arr = arr.astype(np.int64, copy=False)
    if mmap and isinstance(arr, np.memmap):
        # astype was a no-op view: hand out the mapped columns as-is
        # (an ascontiguousarray here would silently defeat the point
        # by materialising private copies).  A dtype that *did* need
        # converting fell through to a private array above.
        return arr[:, 0], arr[:, 1]
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
