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

from repro._util.lazy import lazy_exports
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError

# The codecs and the dataset import numpy; the errors do not (the
# artifact cache's corruption rule names them at import).
__getattr__ = lazy_exports(__name__, {
    "DEFAULT_VERTEX_BASE": "repro.edgeio.format",
    "decode_edges": "repro.edgeio.format",
    "encode_edges": "repro.edgeio.format",
    "parse_edge_line": "repro.edgeio.format",
    "EdgeDataset": "repro.edgeio.dataset",
    "shard_slices": "repro.edgeio.dataset",
    "DatasetManifest": "repro.edgeio.manifest",
    "ShardInfo": "repro.edgeio.manifest",
    "decode_binary_shard": "repro.edgeio.binary",
    "encode_binary_shard": "repro.edgeio.binary",
})

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
