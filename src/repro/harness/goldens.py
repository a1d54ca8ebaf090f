"""Golden correctness records for pipeline runs.

The paper's "next steps" asks: *"What outputs should be recorded to
validate correctness?"*  This module is our answer — a compact,
JSON-serialisable :class:`GoldenRecord` capturing enough of each
kernel's output to detect an incorrect implementation without storing
the data itself:

* **K1** — edge count plus a CRC of the sorted edge stream (order
  matters for ``u``; ties ignore ``v`` order via per-row sorting);
* **K2** — nnz, eliminated column count, pre-filter entry total, the
  in/out-degree histograms, and a digest of the normalised values;
* **K3** — the top-``k`` vertices by rank, rank sum, and a quantised
  digest of the whole vector.

Records are deterministic for a given config (and backend-independent —
asserted by the cross-backend tests), so one stored golden validates
every implementation, present or future.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.backends.base import AdjacencyHandle
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset
from repro.sort.inmemory import sort_edges


def _digest_array(values: np.ndarray, *, decimals: int = 9) -> str:
    """Stable short digest of a float array (quantised against fp noise)."""
    quantised = np.round(np.asarray(values, dtype=np.float64), decimals)
    # Normalise -0.0 to 0.0 so the byte image is canonical.
    quantised = quantised + 0.0
    return hashlib.sha256(quantised.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class GoldenRecord:
    """Backend-independent correctness fingerprint of one pipeline run.

    Attributes
    ----------
    scale, edge_factor, seed:
        Identifying config echo.
    k1_num_edges:
        Edge count after sorting (must equal ``M``).
    k1_start_vertex_crc:
        CRC32 of the sorted start-vertex stream.
    k1_canonical_crc:
        CRC32 of the fully canonicalised edge stream (rows in order,
        ties sorted by end vertex) — catches end-vertex corruption
        without requiring implementations to sort ties.
    k2_nnz, k2_eliminated_columns, k2_entry_total:
        Kernel 2 structure.
    k2_out_degree_histogram / k2_in_degree_histogram:
        ``{degree: count}`` maps of the *filtered, unnormalised* counts
        matrix structure (stored-entry counts per row / column).
    k2_values_digest:
        Digest of the normalised matrix values in CSR order.
    k3_rank_sum:
        Final rank mass.
    k3_top_vertices:
        The ``top_k`` highest-ranked vertex ids, rank-descending
        (ties broken by vertex id).
    k3_rank_digest:
        Digest of the quantised rank vector.
    """

    scale: int
    edge_factor: int
    seed: int
    k1_num_edges: int
    k1_start_vertex_crc: int
    k1_canonical_crc: int
    k2_nnz: int
    k2_eliminated_columns: int
    k2_entry_total: float
    k2_out_degree_histogram: Dict[str, int]
    k2_in_degree_histogram: Dict[str, int]
    k2_values_digest: str
    k3_rank_sum: float
    k3_top_vertices: List[int]
    k3_rank_digest: str

    def to_json(self) -> str:
        """Stable JSON encoding."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GoldenRecord":
        """Inverse of :meth:`to_json`."""
        return cls(**json.loads(text))

    def save(self, path: Path) -> None:
        """Write the record to ``path``."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "GoldenRecord":
        """Read a record from ``path``."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def differences(self, other: "GoldenRecord") -> List[str]:
        """Human-readable list of fields on which two records disagree."""
        diffs = []
        for key, value in asdict(self).items():
            other_value = getattr(other, key)
            if key in ("k2_entry_total", "k3_rank_sum"):
                if abs(float(value) - float(other_value)) > 1e-9:
                    diffs.append(f"{key}: {value} != {other_value}")
            elif value != other_value:
                diffs.append(f"{key}: {value} != {other_value}")
        return diffs

    def matches(self, other: "GoldenRecord") -> bool:
        """True when no field differs (within float tolerance)."""
        return not self.differences(other)


def golden_from_outputs(
    config: PipelineConfig,
    k1_dataset: EdgeDataset,
    k2_handle: AdjacencyHandle,
    rank: np.ndarray,
    *,
    k2_details: Optional[dict] = None,
    top_k: int = 10,
) -> GoldenRecord:
    """Build a :class:`GoldenRecord` from kernel outputs.

    Parameters
    ----------
    config:
        The run's config (size/seed echo).
    k1_dataset:
        Kernel 1 output dataset.
    k2_handle:
        Kernel 2 output handle (any backend).
    rank:
        Kernel 3 output vector.
    k2_details:
        The kernel's details dict (for the eliminated-column count);
        recorded as -1 when omitted, the other fields still compared.
    top_k:
        Number of leading vertices to record.
    """
    # The CRCs cover little-endian int64 labels, the layout every golden
    # was recorded in, whatever dtype the dataset reads back as.
    u, v = (np.asarray(labels, dtype="<i8") for labels in k1_dataset.read_all())
    start_crc = zlib.crc32(np.ascontiguousarray(u).tobytes())
    # Canonicalise tie order so the record is implementation-neutral.
    canonical = np.column_stack(sort_edges(u, v, by_end_vertex=True))
    canonical_crc = zlib.crc32(np.ascontiguousarray(canonical).tobytes())

    matrix = k2_handle.to_scipy_csr()
    out_deg = np.diff(matrix.indptr)
    in_deg = np.bincount(matrix.indices, minlength=matrix.shape[1]) if matrix.nnz else np.zeros(matrix.shape[1], dtype=np.int64)

    def histogram(degrees: np.ndarray) -> Dict[str, int]:
        values, counts = np.unique(degrees[degrees > 0], return_counts=True)
        return {str(int(d)): int(c) for d, c in zip(values, counts)}

    eliminated = int((k2_details or {}).get("eliminated_columns", -1))

    top_order = np.lexsort((np.arange(len(rank)), -rank))[:top_k]

    return GoldenRecord(
        scale=config.scale,
        edge_factor=config.edge_factor,
        seed=config.seed,
        k1_num_edges=k1_dataset.num_edges,
        k1_start_vertex_crc=start_crc,
        k1_canonical_crc=canonical_crc,
        k2_nnz=int(matrix.nnz),
        k2_eliminated_columns=eliminated,
        k2_entry_total=float(k2_handle.pre_filter_entry_total),
        k2_out_degree_histogram=histogram(out_deg),
        k2_in_degree_histogram=histogram(in_deg),
        k2_values_digest=_digest_array(matrix.data),
        k3_rank_sum=float(rank.sum()),
        k3_top_vertices=[int(x) for x in top_order],
        k3_rank_digest=_digest_array(rank),
    )


def golden_for_config(config: PipelineConfig, *, top_k: int = 10) -> GoldenRecord:
    """Run the pipeline (via its backend) and produce the golden record.

    Deliberately backend-direct — the four kernels called in order,
    with no executor, cache or contracts — so it stays the independent
    reference the golden tests compare the executors' runs against.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.backends.registry import get_backend

    backend = get_backend(config.backend)
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as tmp:
        base = _Path(tmp)
        k0, _ = backend.kernel0(config, base / "k0")
        k1, _ = backend.kernel1(config, k0, base / "k1")
        handle, details = backend.kernel2(config, k1)
        rank, _ = backend.kernel3(config, handle)
        return golden_from_outputs(
            config, k1, handle, rank, k2_details=details, top_k=top_k
        )
