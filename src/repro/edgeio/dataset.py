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
    u, v = ds.read_all()                    # every shard, in one pair
    for u, v in ds.iter_shards(): ...       # stream shard-at-a-time
    with EdgeDataset.stream_writer(...) as w:
        w.append(u_block, v_block)          # out-of-core producer
"""

from __future__ import annotations

import gzip
import zlib
from pathlib import Path
from types import TracebackType
from typing import Iterator, List, Optional, Tuple, Type

import numpy as np

from repro._util import check_nonneg_int, check_positive_int
from repro.edgeio.binary import decode_binary_shard, encode_binary_shard
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError
from repro.edgeio.format import DEFAULT_VERTEX_BASE, decode_edges, encode_edges
from repro.edgeio.manifest import DatasetManifest, ShardInfo
from repro.labels import label_dtype

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
    """Encode and store one shard file; return its manifest entry.

    This is the single-shard core of :meth:`EdgeDataset.write`, split
    out so shard writes can be scheduled as independent tasks; the
    caller is responsible for eventually handing the ``ShardInfo`` list
    to :meth:`EdgeDataset.publish` (shards without a manifest read as
    an incomplete dataset, by design).  Labels are written as they are
    held (``uint32`` or ``int64``); the file's bytes do not depend on it.
    """
    path = Path(directory) / shard_file_name(index, fmt)
    if fmt == "npy":
        payload = encode_binary_shard(u, v)
    else:
        payload = encode_edges(u, v, vertex_base=vertex_base)
        if fmt == "tsv.gz":
            payload = gzip.compress(payload, compresslevel=6)
    return store_shard(path, payload, len(u))


def store_shard(path: Path, payload: bytes, num_edges: int) -> ShardInfo:
    """Atomically store an encoded shard; return its manifest entry,
    with the CRC32 every :func:`read_shard_file` checks.  The one shard
    writer, whatever the format and whoever encoded the payload."""
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
    u, v = np.asarray(u), np.asarray(v)
    return [
        write_shard(
            directory, index, u[start:end], v[start:end],
            fmt=fmt, vertex_base=vertex_base,
        )
        for index, (start, end) in enumerate(shard_slices(len(u), num_shards))
    ]


def read_shard_file(
    path: Path,
    info: ShardInfo,
    *,
    fmt: str,
    vertex_base: int,
    num_vertices: int,
    mmap: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Read one shard file back into ``(u, v)`` (0-based labels).

    The one shard reader: it checks the file's CRC32 against ``info``
    (what :func:`store_shard` returned), decodes, then checks the edge
    count against ``info`` and the labels against ``[0, num_vertices)``,
    raising :class:`CorruptEdgeFileError` naming the file.  With ``mmap``
    an ``npy`` shard is checked and decoded over a read-only mapping.
    """
    _check_fmt(fmt)
    mapped = mmap and fmt == "npy"
    payload = read_shard_bytes(path, info, mapped=mapped)
    try:
        if fmt == "npy":
            u, v = decode_binary_shard(payload, mapped=mapped)
        else:
            if fmt == "tsv.gz":
                payload = gzip.decompress(payload)
            u, v = decode_edges(payload, vertex_base=vertex_base)
    except (OSError, EOFError, zlib.error) as exc:  # from gzip
        raise CorruptEdgeFileError(
            f"{path}: gzip decompression failed: {exc}"
        ) from exc
    except CorruptEdgeFileError as exc:
        raise CorruptEdgeFileError(f"{path}: {exc}") from exc
    if len(u) != info.num_edges:
        raise CorruptEdgeFileError(
            f"{path}: decoded {len(u)} edges, manifest says {info.num_edges}"
        )
    for name, arr in (("u", u), ("v", v)):
        # Named as on disk; a label below the base decodes negative.
        if not len(arr):
            continue
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= num_vertices:
            raise CorruptEdgeFileError(
                f"{path}: {name} labels outside [{vertex_base}, "
                f"{num_vertices + vertex_base}) on disk: "
                f"min={lo + vertex_base}, max={hi + vertex_base}"
            )
    return u, v


def read_shard_bytes(path: Path, info: ShardInfo, *, mapped: bool = False):
    """A shard file's bytes (or, ``mapped``, a read-only ``uint8``
    mapping of them) once their CRC32 matches ``info``: the check half
    of :func:`read_shard_file`, for a consumer with its own decoder."""
    path = Path(path)
    if mapped:  # an npy file is never empty, so it always maps
        payload = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        payload = path.read_bytes()
    actual = zlib.crc32(payload)
    if actual != info.crc32:
        raise CorruptEdgeFileError(
            f"{path}: CRC mismatch (recorded {info.crc32:#x}, "
            f"file {actual:#x})"
        )
    return payload


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
        """Payload format: ``"tsv"``, ``"tsv.gz"`` or ``"npy"``."""
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
            ``"tsv"`` (paper format), ``"tsv.gz"`` or ``"npy"``.
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
    def open(cls, directory: Path, *, mmap: bool = False) -> "EdgeDataset":
        """Open an existing dataset: load its manifest and check that
        every shard exists with its recorded byte size.

        Parameters
        ----------
        directory:
            Dataset directory containing ``manifest.json``.
        mmap:
            Serve ``npy`` shard payloads as read-only memory-mapped
            views (see :func:`read_shard_file`); ignored for text
            formats.
        """
        directory = Path(directory)
        manifest = DatasetManifest.load(directory)
        manifest.verify_against(directory)
        return cls(directory, manifest, mmap=mmap)

    def read_shard(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read one shard into ``(u, v)`` (0-based labels), checked
        against its manifest entry by :func:`read_shard_file`."""
        info = self.manifest.shards[index]
        return read_shard_file(
            self.directory / info.name, info, fmt=self.fmt,
            vertex_base=self.manifest.vertex_base,
            num_vertices=self.num_vertices, mmap=self.mmap,
        )

    def iter_shards(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(u, v)`` per shard, in shard order."""
        for index in range(self.num_shards):
            yield self.read_shard(index)

    def iter_batches(self, batch_edges: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield fixed-size ``(u, v)`` batches spanning shard boundaries.

        The final batch may be short.  Useful for out-of-core consumers
        (external sort run generation, streaming Kernel 2's pass 1) that
        want memory bounded by ``batch_edges`` regardless of shard
        layout.

        Batches inside a shard are slices of it, so each edge is copied
        at most once: only a batch that straddles a shard boundary is
        joined, from the previous shards' short tail and the next
        shard's head.  Batches may therefore be views of the shard
        arrays (read-only when memory-mapped); consumers only read them.
        """
        check_positive_int("batch_edges", batch_edges)
        # The tail of earlier shards that did not fill a batch: slices of
        # the shard arrays themselves, so joining keeps their label dtype.
        carry_u: List[np.ndarray] = []
        carry_v: List[np.ndarray] = []
        carried = 0
        for u, v in self.iter_shards():
            start = 0
            if carried:
                start = min(batch_edges - carried, len(u))
                carry_u.append(u[:start])
                carry_v.append(v[:start])
                carried += start
                if carried < batch_edges:
                    continue
                yield np.concatenate(carry_u), np.concatenate(carry_v)
                carry_u, carry_v, carried = [], [], 0
            stop = start + (len(u) - start) // batch_edges * batch_edges
            for offset in range(start, stop, batch_edges):
                end = offset + batch_edges
                yield u[offset:end], v[offset:end]
            if stop < len(u):
                carry_u, carry_v = [u[stop:]], [v[stop:]]
                carried = len(u) - stop
        if carried:
            yield np.concatenate(carry_u), np.concatenate(carry_v)

    def read_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every shard, in order, as one ``(u, v)`` pair.

        The pair is allocated once from the manifest's per-shard edge
        counts, in the label dtype of ``num_vertices``, and each shard is
        copied into its slice after :meth:`read_shard` has checked its
        CRC32, count and bounds — so at most one decoded shard is alive
        beside the result, not every shard plus their concatenation.
        """
        sizes = [info.num_edges for info in self.manifest.shards]
        dtype = label_dtype(self.num_vertices)
        u = np.empty(sum(sizes), dtype=dtype)
        v = np.empty(sum(sizes), dtype=dtype)
        start = 0
        for index, size in enumerate(sizes):
            # In bounds, so every label fits the result's dtype.
            u[start:start + size], v[start:start + size] = self.read_shard(index)
            start += size
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
        u, v = np.asarray(u), np.asarray(v)
        if len(u) != len(v):
            raise ValueError(f"u and v lengths differ: {len(u)} != {len(v)}")
        self._buffer_u.append(u)
        self._buffer_v.append(v)
        self._buffered += len(u)
        while self._buffered >= self.edges_per_shard:
            self._flush_shard(self.edges_per_shard)

    def _flush_shard(self, count: int) -> None:
        empty = np.empty(0, label_dtype(self.num_vertices))
        cat_u = np.concatenate(self._buffer_u) if self._buffer_u else empty
        cat_v = np.concatenate(self._buffer_v) if self._buffer_v else empty
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
