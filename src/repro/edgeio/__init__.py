"""Edge-file I/O (the pipeline's on-disk substrate).

Kernels 0 and 1 exchange data through files of tab-separated vertex pairs
(``u\\tv\\n`` per edge, paper Section IV.A/B).  This package owns:

* :mod:`repro.edgeio.format` — encode/decode between edge arrays and the
  TSV byte format, including the 0-based/1-based vertex label option;
* :mod:`repro.edgeio.dataset` — :class:`EdgeDataset`, a sharded directory
  of edge files with a JSON manifest ("the number of files is a free
  parameter to be set by the implementer"), with the one shard writer
  and the one shard reader;
* :mod:`repro.edgeio.binary` — an optional ``.npy`` twin format used by
  ablation benchmarks to isolate string-parsing cost.

Every shard is written atomically (temp file + rename) with the CRC32 of
its bytes, which every read checks: no torn or changed shard passes.
"""

from __future__ import annotations

from repro.edgeio.format import (
    DEFAULT_VERTEX_BASE,
    decode_edges,
    encode_edges,
    parse_edge_line,
)
from repro.edgeio.dataset import EdgeDataset, shard_slices
from repro.edgeio.manifest import DatasetManifest, ShardInfo
from repro.edgeio.binary import decode_binary_shard, encode_binary_shard
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError

__all__ = [
    "CorruptEdgeFileError",
    "DatasetLayoutError",
    "DatasetManifest",
    "DEFAULT_VERTEX_BASE",
    "EdgeDataset",
    "ShardInfo",
    "decode_binary_shard",
    "decode_edges",
    "encode_binary_shard",
    "encode_edges",
    "parse_edge_line",
    "shard_slices",
]
