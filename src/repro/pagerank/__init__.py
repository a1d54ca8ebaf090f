"""PageRank algorithms and validation.

:mod:`repro.pagerank.benchmark` implements Kernel 3's exact update as a
standalone function over any scipy CSR matrix.  Beyond the benchmark,
the paper's appendix sketches a taxonomy of PageRank variants (strongly
preferential, weakly preferential, sink) distinguished by their
dangling-node handling; :mod:`repro.pagerank.variants` implements them
plus a convergence-tested iteration (the oracles the Kernel 3 tests
compare against, with :mod:`repro.pagerank.dense`),
:mod:`repro.pagerank.validate` implements Section IV.D's eigenvector
cross-check, and :mod:`repro.pagerank.compare` measures how far two rank
vectors disagree.
"""

from __future__ import annotations

from repro.pagerank.benchmark import benchmark_pagerank
from repro.pagerank.variants import (
    PageRankResult,
    pagerank_converged,
    pagerank_sink,
    pagerank_strongly_preferential,
    pagerank_weakly_preferential,
)
from repro.pagerank.dense import dense_power_iteration, google_matrix
from repro.pagerank.validate import ValidationReport, spectral_rank, validate_rank
from repro.pagerank.compare import (
    DisplacementSummary,
    kendall_tau,
    rank_displacement,
    spearman_rho,
    top_k,
    top_k_overlap,
)

__all__ = [
    "DisplacementSummary",
    "PageRankResult",
    "ValidationReport",
    "benchmark_pagerank",
    "dense_power_iteration",
    "google_matrix",
    "kendall_tau",
    "pagerank_converged",
    "pagerank_sink",
    "pagerank_strongly_preferential",
    "pagerank_weakly_preferential",
    "rank_displacement",
    "spearman_rho",
    "spectral_rank",
    "top_k",
    "top_k_overlap",
    "validate_rank",
]
