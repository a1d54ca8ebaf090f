"""Sharded edge datasets: a directory of edge files plus a manifest.

``EdgeDataset`` is the unit of exchange between kernels: Kernel 0 writes
one, Kernel 1 reads it and writes another, Kernel 2 reads that.  The
shard count is the "free parameter" of paper Sections IV.A/B; shard
boundaries are byte-independent so shards can be produced or consumed in
parallel.

Key operations::

    ds = EdgeDataset.write(dir, u, v, num_vertices=N, num_shards=4)
    ds = EdgeDataset.publish(dir, shards, ...)  # manifest over written shards
    ds = EdgeDataset.open(dir)              # verify + load manifest
    u, v = ds.read_all()                    # concatenate every shard
    for u, v in ds.iter_shards(): ...       # stream shard-at-a-time
    with EdgeDataset.stream_writer(...) as w:
        w.append(u_block, v_block)          # out-of-core producer
"""

from __future__ import annotations

import zlib
from pathlib import Path
from types import TracebackType
from typing import Iterator, List, Optional, Tuple, Type

import numpy as np

from repro._util import check_nonneg_int, check_positive_int
from repro.edgeio.binary import read_binary_shard, write_binary_shard
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError
from repro.edgeio.format import DEFAULT_VERTEX_BASE, decode_edges, encode_edges
from repro.edgeio.manifest import DatasetManifest, ShardInfo

_SHARD_TEMPLATE = "part-{index:05d}.{ext}"
_EXTENSIONS = {"tsv": "tsv", "npy": "npy", "tsv.gz": "tsv.gz"}


def shard_slices(num_edges: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``num_edges`` into ``num_shards`` contiguous [start, end) ranges.

    Shard sizes differ by at most one edge; empty shards are allowed when
    ``num_shards > num_edges`` (the files are still written, which
    exercises downstream empty-shard handling).

    Examples
    --------
    >>> shard_slices(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    check_nonneg_int("num_edges", num_edges)
    check_positive_int("num_shards", num_shards)
    base = num_edges // num_shards
    remainder = num_edges % num_shards
    slices = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < remainder else 0)
        slices.append((start, start + size))
        start += size
    return slices


def _check_fmt(fmt: str) -> None:
    if fmt not in _EXTENSIONS:
        raise ValueError(f"fmt must be one of {sorted(_EXTENSIONS)}, got {fmt!r}")


def shard_file_name(index: int, fmt: str) -> str:
    """Canonical shard filename for ``index`` in format ``fmt``.

    Exposed so out-of-band producers/consumers (the async executor's
    per-shard tasks) can address shard files before a manifest exists.
    """
    _check_fmt(fmt)
    return _SHARD_TEMPLATE.format(index=index, ext=_EXTENSIONS[fmt])


def write_shard(
    directory: Path,
    index: int,
    u: np.ndarray,
    v: np.ndarray,
    *,
    fmt: str = "tsv",
    vertex_base: int = DEFAULT_VERTEX_BASE,
) -> ShardInfo:
    """Write one shard file (atomically) and return its manifest entry.

    This is the single-shard core of :meth:`EdgeDataset.write`, split
    out so shard writes can be scheduled as independent tasks; the
    caller is responsible for eventually handing the ``ShardInfo`` list
    to :meth:`EdgeDataset.publish` (shards without a manifest read as
    an incomplete dataset, by design).
    """
    name = shard_file_name(index, fmt)
    path = Path(directory) / name
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if fmt in ("tsv", "tsv.gz"):
        payload = encode_edges(u, v, vertex_base=vertex_base)
        if fmt == "tsv.gz":
            import gzip

            payload = gzip.compress(payload, compresslevel=6)
        return store_text_shard(path, payload, len(u))
    nbytes = write_binary_shard(path, u, v)
    return ShardInfo(name=name, num_edges=len(u), crc32=None, num_bytes=nbytes)


def store_text_shard(path: Path, payload: bytes, num_edges: int) -> ShardInfo:
    """Atomically store an encoded text shard; return its manifest entry
    (with the payload's CRC32)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    tmp.replace(path)
    return ShardInfo(
        name=path.name, num_edges=num_edges, crc32=zlib.crc32(payload),
        num_bytes=len(payload),
    )


def write_shards(
    directory: Path,
    u: np.ndarray,
    v: np.ndarray,
    *,
    num_shards: int,
    fmt: str,
    vertex_base: int,
) -> List[ShardInfo]:
    """Write full edge arrays as ``num_shards`` shard files, in order.

    The serial schedule of :func:`write_shard` over
    :func:`shard_slices` (the async executor schedules the same calls as
    tasks); hand the result to :meth:`EdgeDataset.publish`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return [
        write_shard(
            directory, index, u[start:end], v[start:end],
            fmt=fmt, vertex_base=vertex_base,
        )
        for index, (start, end) in enumerate(shard_slices(len(u), num_shards))
    ]


def read_shard_file(
    path: Path,
    *,
    fmt: str = "tsv",
    vertex_base: int = DEFAULT_VERTEX_BASE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Read one shard file back into ``(u, v)`` (0-based labels).

    The manifest-free counterpart of :meth:`EdgeDataset.read_shard`, for
    consumers that overlap shard reads with the producer still writing
    later shards (no count/bound verification — the producing task
    already holds the arrays, and contracts re-verify the published
    dataset).
    """
    _check_fmt(fmt)
    path = Path(path)
    if fmt in ("tsv", "tsv.gz"):
        return _decode_text_shard(path, path.read_bytes(), fmt, vertex_base)
    return read_binary_shard(path)


def _decode_text_shard(
    path: Path, payload: bytes, fmt: str, vertex_base: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a ``tsv``/``tsv.gz`` shard's file bytes into ``(u, v)``."""
    if fmt == "tsv.gz":
        import gzip

        try:
            payload = gzip.decompress(payload)
        except (OSError, EOFError, zlib.error) as exc:
            raise CorruptEdgeFileError(
                f"{path}: gzip decompression failed: {exc}"
            ) from exc
    return decode_edges(payload, vertex_base=vertex_base)


class EdgeDataset:
    """A verified, sharded, on-disk edge list.

    Instances are handles over a directory; the constructor does not touch
    the filesystem.  Use :meth:`write`, :meth:`stream_writer`, or
    :meth:`open` to produce one.
    """

    def __init__(
        self, directory: Path, manifest: DatasetManifest,
        *, mmap: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        #: Serve ``npy`` shard payloads as read-only memory-mapped
        #: views (text formats always decode into private arrays).
        self.mmap = bool(mmap)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total edges across all shards."""
        return self.manifest.num_edges

    @property
    def num_vertices(self) -> int:
        """Declared vertex-count bound ``N``."""
        return self.manifest.num_vertices

    @property
    def num_shards(self) -> int:
        """Number of shard files."""
        return len(self.manifest.shards)

    @property
    def fmt(self) -> str:
        """Payload format, ``"tsv"`` or ``"npy"``."""
        return self.manifest.fmt

    def shard_paths(self) -> List[Path]:
        """Absolute paths of every shard, in order."""
        return [self.directory / s.name for s in self.manifest.shards]

    def total_bytes(self) -> int:
        """Sum of shard sizes recorded in the manifest."""
        return sum(s.num_bytes for s in self.manifest.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeDataset({self.directory}, edges={self.num_edges}, "
            f"shards={self.num_shards}, fmt={self.fmt!r})"
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @classmethod
    def write(
        cls,
        directory: Path,
        u: np.ndarray,
        v: np.ndarray,
        *,
        num_vertices: int,
        num_shards: int = 1,
        vertex_base: int = DEFAULT_VERTEX_BASE,
        fmt: str = "tsv",
        extra: Optional[dict] = None,
    ) -> "EdgeDataset":
        """Write full in-memory edge arrays as a sharded dataset.

        Parameters
        ----------
        directory:
            Target directory (created if needed; existing shards with
            clashing names are overwritten).
        u, v:
            Edge arrays (0-based labels).
        num_vertices:
            Declared label bound ``N``.
        num_shards:
            File count — the benchmark's free parameter.
        vertex_base:
            On-disk label base.
        fmt:
            ``"tsv"`` (paper format) or ``"npy"``.
        extra:
            Free-form metadata stored in the manifest.
        """
        _check_fmt(fmt)
        check_positive_int("num_vertices", num_vertices)
        shards = write_shards(
            directory, u, v, num_shards=num_shards,
            fmt=fmt, vertex_base=vertex_base,
        )
        return cls.publish(
            directory, shards, num_vertices=num_vertices,
            vertex_base=vertex_base, fmt=fmt, extra=extra,
        )

    @classmethod
    def publish(
        cls,
        directory: Path,
        shards: List[ShardInfo],
        *,
        num_vertices: int,
        vertex_base: int,
        fmt: str,
        extra: Optional[dict],
    ) -> "EdgeDataset":
        """Turn already-written shard files into a dataset.

        Writes the manifest that makes ``directory`` openable — the one
        place a :class:`DatasetManifest` is assembled, whoever wrote the
        shards (:meth:`write`, the streaming writer, the pure-python
        backend, the async executor's per-shard tasks).  ``shards`` are
        the :func:`write_shard` results in shard order.
        """
        directory = Path(directory)
        manifest = DatasetManifest(
            num_vertices=num_vertices,
            num_edges=sum(shard.num_edges for shard in shards),
            vertex_base=vertex_base,
            shards=list(shards),
            fmt=fmt,
            extra=dict(extra or {}),
        )
        manifest.save(directory)
        return cls(directory, manifest)

    @classmethod
    def stream_writer(
        cls,
        directory: Path,
        *,
        num_vertices: int,
        vertex_base: int = DEFAULT_VERTEX_BASE,
        fmt: str = "tsv",
        edges_per_shard: int = 1 << 20,
        extra: Optional[dict] = None,
    ) -> "EdgeDatasetWriter":
        """Open a streaming writer that rolls shards every
        ``edges_per_shard`` appended edges.

        Use as a context manager; the manifest is written on clean exit.
        """
        return EdgeDatasetWriter(
            Path(directory),
            num_vertices=num_vertices,
            vertex_base=vertex_base,
            fmt=fmt,
            edges_per_shard=edges_per_shard,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, directory: Path, *, verify: bool = True, mmap: bool = False
    ) -> "EdgeDataset":
        """Open an existing dataset.

        Parameters
        ----------
        directory:
            Dataset directory containing ``manifest.json``.
        verify:
            Check shard existence and byte sizes against the manifest.
        mmap:
            Serve ``npy`` shard payloads as read-only memory-mapped
            views (see :func:`repro.edgeio.binary.read_binary_shard`);
            ignored for text formats.
        """
        directory = Path(directory)
        manifest = DatasetManifest.load(directory)
        if verify:
            manifest.verify_against(directory)
        return cls(directory, manifest, mmap=mmap)

    def read_shard(self, index: int, *, verify_checksum: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Read one shard into ``(u, v)`` (0-based labels).

        Raises
        ------
        CorruptEdgeFileError
            On parse failures, checksum mismatches, or labels outside
            the declared vertex bound.
        """
        info = self.manifest.shards[index]
        path = self.directory / info.name
        if self.fmt in ("tsv", "tsv.gz"):
            payload = path.read_bytes()
            if verify_checksum and info.crc32 is not None:
                actual = zlib.crc32(payload)
                if actual != info.crc32:
                    raise CorruptEdgeFileError(
                        f"{path}: CRC mismatch (manifest {info.crc32:#x}, "
                        f"file {actual:#x})"
                    )
            u, v = _decode_text_shard(
                path, payload, self.fmt, self.manifest.vertex_base
            )
        else:
            u, v = read_binary_shard(path, mmap=self.mmap)
        if len(u) != info.num_edges:
            raise CorruptEdgeFileError(
                f"{path}: decoded {len(u)} edges, manifest says {info.num_edges}"
            )
        self._check_bounds(path, u, v)
        return u, v

    def _check_bounds(self, path: Path, u: np.ndarray, v: np.ndarray) -> None:
        n = self.manifest.num_vertices
        for name, arr in (("u", u), ("v", v)):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise CorruptEdgeFileError(
                    f"{path}: {name} labels outside [0, {n}): "
                    f"min={arr.min()}, max={arr.max()}"
                )

    def iter_shards(self, *, verify_checksum: bool = False) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(u, v)`` per shard, in shard order."""
        for index in range(self.num_shards):
            yield self.read_shard(index, verify_checksum=verify_checksum)

    def iter_batches(self, batch_edges: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield fixed-size ``(u, v)`` batches spanning shard boundaries.

        The final batch may be short.  Useful for out-of-core consumers
        (external sort run generation) that want memory bounded by
        ``batch_edges`` regardless of shard layout.
        """
        check_positive_int("batch_edges", batch_edges)
        pending_u: List[np.ndarray] = []
        pending_v: List[np.ndarray] = []
        pending = 0
        for u, v in self.iter_shards():
            pending_u.append(u)
            pending_v.append(v)
            pending += len(u)
            while pending >= batch_edges:
                cat_u = np.concatenate(pending_u)
                cat_v = np.concatenate(pending_v)
                yield cat_u[:batch_edges], cat_v[:batch_edges]
                cat_u = cat_u[batch_edges:]
                cat_v = cat_v[batch_edges:]
                pending_u = [cat_u]
                pending_v = [cat_v]
                pending = len(cat_u)
        if pending:
            yield np.concatenate(pending_u), np.concatenate(pending_v)

    def read_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate every shard into full ``(u, v)`` arrays."""
        if self.num_shards == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        parts = list(self.iter_shards())
        u = np.concatenate([p[0] for p in parts])
        v = np.concatenate([p[1] for p in parts])
        return u, v


class EdgeDatasetWriter:
    """Streaming producer for :class:`EdgeDataset` (context manager).

    Appended blocks are buffered and flushed into shard files of
    ``edges_per_shard`` edges.  On clean ``__exit__`` the manifest is
    written; on exception the partial shards are left behind *without* a
    manifest so :meth:`EdgeDataset.open` refuses the directory — a crashed
    producer cannot masquerade as a complete dataset.
    """

    def __init__(
        self,
        directory: Path,
        *,
        num_vertices: int,
        vertex_base: int,
        fmt: str,
        edges_per_shard: int,
        extra: Optional[dict],
    ) -> None:
        _check_fmt(fmt)
        check_positive_int("num_vertices", num_vertices)
        check_positive_int("edges_per_shard", edges_per_shard)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.num_vertices = num_vertices
        self.vertex_base = vertex_base
        self.fmt = fmt
        self.edges_per_shard = edges_per_shard
        self.extra = dict(extra or {})
        self._buffer_u: List[np.ndarray] = []
        self._buffer_v: List[np.ndarray] = []
        self._buffered = 0
        self._shards: List[ShardInfo] = []
        self._closed = False

    def __enter__(self) -> "EdgeDatasetWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()

    def append(self, u: np.ndarray, v: np.ndarray) -> None:
        """Append an edge block; flushes full shards as needed."""
        if self._closed:
            raise RuntimeError("writer is closed")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if len(u) != len(v):
            raise ValueError(f"u and v lengths differ: {len(u)} != {len(v)}")
        self._buffer_u.append(u)
        self._buffer_v.append(v)
        self._buffered += len(u)
        while self._buffered >= self.edges_per_shard:
            self._flush_shard(self.edges_per_shard)

    def _flush_shard(self, count: int) -> None:
        cat_u = np.concatenate(self._buffer_u) if self._buffer_u else np.empty(0, np.int64)
        cat_v = np.concatenate(self._buffer_v) if self._buffer_v else np.empty(0, np.int64)
        take_u, rest_u = cat_u[:count], cat_u[count:]
        take_v, rest_v = cat_v[:count], cat_v[count:]
        index = len(self._shards)
        info = write_shard(
            self.directory, index, take_u, take_v,
            fmt=self.fmt, vertex_base=self.vertex_base,
        )
        self._shards.append(info)
        self._buffer_u = [rest_u]
        self._buffer_v = [rest_v]
        self._buffered = len(rest_u)

    def close(self) -> EdgeDataset:
        """Flush remaining edges, write the manifest, return the dataset."""
        if self._closed:
            return self._result
        if self._buffered or not self._shards:
            self._flush_shard(self._buffered)
        self._result = EdgeDataset.publish(
            self.directory, self._shards, num_vertices=self.num_vertices,
            vertex_base=self.vertex_base, fmt=self.fmt, extra=self.extra,
        )
        self._closed = True
        return self._result

    @property
    def result(self) -> EdgeDataset:
        """The dataset handle; only valid after :meth:`close`."""
        if not self._closed:
            raise RuntimeError("writer not closed yet")
        return self._result
