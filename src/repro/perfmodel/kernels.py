"""Per-kernel analytic cost models.

Each kernel's predicted time is the max of its bottleneck terms
(bandwidth roofline) plus the scalar-work term:

* **K0** — write ``M`` edges as text (~``bytes_per_edge_text`` bytes
  each): storage-write bound, plus per-edge formatting scalar work;
* **K1** — read + write the same bytes, plus ``sort_constant * M log M``
  comparison work through memory;
* **K2** — read bytes, plus several streaming passes over the edge
  arrays (dedup sort, bincounts, scatter);
* **K3** — ``iterations`` SpMVs: each touches every stored entry
  (value + column index + gather/scatter traffic ≈
  ``spmv_bytes_per_edge`` bytes), memory-bandwidth bound;
* **parallel K3** — adds the per-iteration allreduce term
  ``2 (p-1)/p * N * 8`` bytes at ``alpha + beta`` cost, the term the
  paper predicts dominates.

These are *shape* models: they exist to be compared against measured
edges/second curves (Figures 4–7) and to extrapolate — not to be exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro._util import check_positive_int
from repro.perfmodel.hardware import HardwareModel

#: Average text bytes per edge in TSV form ("123456\t654321\n" ≈ 14–16
#: bytes at benchmark scales).
TEXT_BYTES_PER_EDGE = 15.0
#: Binary bytes per edge in memory, as the paper models it (two int64;
#: the pipeline holds two uint32 labels, 8 bytes, up to scale 32).
MEM_BYTES_PER_EDGE = 16.0
#: Bytes a CSR/COO SpMV moves per stored entry (value 8B + index 8B +
#: amortised vector gather/scatter ≈ 8B).
SPMV_BYTES_PER_EDGE = 24.0


@dataclass(frozen=True)
class KernelPrediction:
    """Predicted cost breakdown for one kernel.

    Attributes
    ----------
    kernel:
        Kernel label (``k0`` … ``k3``).
    seconds:
        Predicted wall-clock seconds (max of terms + serial terms).
    edges_per_second:
        The benchmark metric implied by ``seconds``.
    terms:
        Named component times (storage/memory/network/scalar) — useful
        to see *which* resource the model thinks dominates.
    """

    kernel: str
    seconds: float
    edges_per_second: float
    terms: Dict[str, float]


def _prediction(kernel: str, edges_metric: int, terms: Dict[str, float]) -> KernelPrediction:
    seconds = max(terms.values()) if terms else 0.0
    eps = edges_metric / seconds if seconds > 0 else float("inf")
    return KernelPrediction(kernel=kernel, seconds=seconds,
                            edges_per_second=eps, terms=dict(terms))


def predict_kernel0(hw: HardwareModel, num_edges: int) -> KernelPrediction:
    """Generate + write: storage-write vs formatting-scalar roofline."""
    check_positive_int("num_edges", num_edges)
    text_bytes = num_edges * TEXT_BYTES_PER_EDGE
    terms = {
        "storage_write": text_bytes / hw.storage_write_bytes_per_s,
        "generate_memory": num_edges * MEM_BYTES_PER_EDGE / hw.mem_bw_bytes_per_s,
        "format_scalar": num_edges / hw.scalar_ops_per_s,
    }
    return _prediction("k0", num_edges, terms)


def predict_kernel1(hw: HardwareModel, num_edges: int) -> KernelPrediction:
    """Read + sort + write: the Sort-benchmark-like kernel."""
    check_positive_int("num_edges", num_edges)
    text_bytes = num_edges * TEXT_BYTES_PER_EDGE
    sort_bytes = (
        hw.sort_constant
        * num_edges
        * MEM_BYTES_PER_EDGE
        * max(1.0, math.log2(max(num_edges, 2)) / 16.0)
    )
    terms = {
        "storage_read": text_bytes / hw.storage_read_bytes_per_s,
        "storage_write": text_bytes / hw.storage_write_bytes_per_s,
        "sort_memory": sort_bytes / hw.mem_bw_bytes_per_s,
        "parse_scalar": num_edges / hw.scalar_ops_per_s,
    }
    return _prediction("k1", num_edges, terms)


def predict_kernel2(hw: HardwareModel, num_edges: int) -> KernelPrediction:
    """Read + construct + filter + normalise: ~6 streaming passes."""
    check_positive_int("num_edges", num_edges)
    text_bytes = num_edges * TEXT_BYTES_PER_EDGE
    passes = 6.0
    terms = {
        "storage_read": text_bytes / hw.storage_read_bytes_per_s,
        "construct_memory": passes * num_edges * MEM_BYTES_PER_EDGE / hw.mem_bw_bytes_per_s,
        "parse_scalar": num_edges / hw.scalar_ops_per_s,
    }
    return _prediction("k2", num_edges, terms)


def predict_kernel3(
    hw: HardwareModel, num_edges: int, *, iterations: int = 20
) -> KernelPrediction:
    """Fixed-iteration SpMV: memory-bandwidth bound."""
    check_positive_int("num_edges", num_edges)
    check_positive_int("iterations", iterations)
    spmv_bytes = iterations * num_edges * SPMV_BYTES_PER_EDGE
    terms = {
        "spmv_memory": spmv_bytes / hw.mem_bw_bytes_per_s,
    }
    return _prediction("k3", iterations * num_edges, terms)


def predict_parallel_kernel3(
    hw: HardwareModel,
    num_edges: int,
    num_vertices: int,
    num_ranks: int,
    *,
    iterations: int = 20,
) -> KernelPrediction:
    """Parallel K3: local SpMV shrinks with p, allreduce does not.

    The per-iteration allreduce of the length-``N`` float64 partial
    vector costs ``2(p-1) * (alpha + 8N * beta)`` under the naive model;
    this term's independence from ``p`` (in bytes per rank) is why the
    paper expects Kernel 3 to become network-limited.
    """
    check_positive_int("num_ranks", num_ranks)
    local = predict_kernel3(hw, max(num_edges // num_ranks, 1), iterations=iterations)
    vector_bytes = 8.0 * num_vertices
    allreduce_seconds = (
        iterations * 2.0 * (num_ranks - 1)
        * (hw.net_alpha_s + vector_bytes * hw.net_beta_s_per_byte)
    )
    terms = dict(local.terms)
    terms["allreduce_network"] = allreduce_seconds
    # Compute and communication overlap is not assumed: total is sum of
    # the local bottleneck and the network term.
    seconds = max(terms["spmv_memory"], 1e-30) + allreduce_seconds
    eps = iterations * num_edges / seconds if seconds > 0 else float("inf")
    return KernelPrediction("k3-parallel", seconds, eps, terms)


def predict_pipeline(
    hw: HardwareModel, num_edges: int, *, iterations: int = 20
) -> List[KernelPrediction]:
    """All four serial kernel predictions for one problem size."""
    return [
        predict_kernel0(hw, num_edges),
        predict_kernel1(hw, num_edges),
        predict_kernel2(hw, num_edges),
        predict_kernel3(hw, num_edges, iterations=iterations),
    ]
