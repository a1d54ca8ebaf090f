"""The dataframe backend: pipeline over :mod:`repro.frame`.

The analogue of the paper's "Python with Pandas" implementation.  Edges
live in a two-column frame; Kernel 1 is ``sort_values("u")``, Kernel 2's
degrees are ``groupby_sum`` aggregations joined back onto the edge
table, and Kernel 3's SpMV is the classic dataframe formulation:
*compute per-edge contributions, group by destination, sum*.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import Timings
from repro.backends.base import AdjacencyHandle, Backend, Details, KernelOutput
from repro.core.config import PipelineConfig
from repro.frame import Frame


class FrameAdjacency(AdjacencyHandle):
    """Kernel 2 output as an edge frame with a ``weight`` column."""

    def __init__(self, num_vertices: int, edges: Frame, pre_filter_total: float) -> None:
        self._n = num_vertices
        self.edges = edges  # columns: u, v, weight (deduplicated)
        self._pre_filter_total = float(pre_filter_total)

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return self.edges.num_rows

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    def to_scipy_csr(self) -> sp.csr_matrix:
        return sp.coo_matrix(
            (
                self.edges.column("weight"),
                (self.edges.column("u"), self.edges.column("v")),
            ),
            shape=(self._n, self._n),
        ).tocsr()


class DataframeBackend(Backend):
    """Columnar-dataframe implementation of all four kernels."""

    name = "dataframe"
    capabilities = frozenset({"serial", "streaming"})

    def adjacency_from_csr(self, matrix, pre_filter_total):
        # CSR -> COO yields row-major (u, then v) triples — the same
        # order the serial Kernel 2's key-groupby produces, so Kernel
        # 3's per-edge contribution sums see an identical ordering.
        coo = matrix.tocsr().tocoo()
        edges = Frame({
            "u": coo.row.astype(np.int64),
            "v": coo.col.astype(np.int64),
            "weight": coo.data.astype(np.float64),
        })
        return FrameAdjacency(matrix.shape[0], edges, pre_filter_total)

    # ------------------------------------------------------------------
    def sort_edges(self, config: PipelineConfig, u, v):
        keys = ["u", "v"] if config.sort_by_end_vertex else "u"
        frame = Frame({"u": u, "v": v}).sort_values(keys)
        return frame.column("u"), frame.column("v")

    # ------------------------------------------------------------------
    def build_adjacency(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray, n: int,
        timings: Timings,
    ) -> KernelOutput[AdjacencyHandle]:
        with timings.measure("construct"):
            edges = Frame({"u": u, "v": v})
            # Duplicate accumulation: count rows per (u, v) pair via a
            # composite key groupby — the dataframe idiom for sparse().
            key = edges.column("u") * n + edges.column("v")
            grouped = Frame({"key": key}).groupby_size("key")
            keys = grouped.column("key")
            weights = grouped.column("size").astype(np.float64)
            dedup = Frame({
                "u": keys // n,
                "v": keys % n,
                "weight": weights,
            })
            pre_filter_total = float(weights.sum())

        with timings.measure("filter"):
            din_frame = dedup.groupby_sum("v", "weight")
            din_vals = din_frame.column("weight_sum")
            max_in = din_vals.max() if len(din_vals) else 0.0
            supernode_count = leaf_count = eliminated_count = 0
            if max_in > 0:
                bad_mask = (din_vals == max_in) | (din_vals == 1)
                supernode_count = int((din_vals == max_in).sum())
                leaf_count = int((din_vals == 1).sum())
                eliminated_count = int(bad_mask.sum())
                bad_vertices = din_frame.column("v")[bad_mask]
                eliminate = np.zeros(n, dtype=bool)
                eliminate[bad_vertices] = True
                dedup = dedup.filter(~eliminate[dedup.column("v")])

        with timings.measure("normalize"):
            dout_frame = dedup.groupby_sum("u", "weight")
            joined = dedup.merge(
                dout_frame.select(["u", "weight_sum"]), on="u", how="left"
            )
            dout_per_edge = joined.column("weight_sum")
            weight = joined.column("weight")
            safe_dout = np.where(dout_per_edge > 0, dout_per_edge, 1.0)
            normalized = np.where(dout_per_edge > 0, weight / safe_dout, weight)
            dedup = dedup.assign(weight=normalized)
            nonzero_rows = int((dout_frame.column("weight_sum") > 0).sum())

        handle = FrameAdjacency(n, dedup, pre_filter_total)
        details: Details = {
            "phases": timings.as_dict(),
            "nnz": handle.nnz,
            "pre_filter_entry_total": pre_filter_total,
            "max_in_degree": float(max_in),
            "supernode_columns": supernode_count,
            "leaf_columns": leaf_count,
            "eliminated_columns": eliminated_count,
            "nonzero_rows": nonzero_rows,
        }
        return handle, details

    # ------------------------------------------------------------------
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        if not isinstance(matrix, FrameAdjacency):
            raise TypeError(
                f"dataframe backend needs FrameAdjacency, got {type(matrix).__name__}"
            )
        n = matrix.num_vertices
        edges = matrix.edges
        src = edges.column("u")
        dst = edges.column("v")
        weight = edges.column("weight")

        def product(r):
            contrib_frame = Frame({"v": dst, "contribution": r[src] * weight})
            spread_frame = contrib_frame.groupby_sum("v", "contribution")
            spread = np.zeros(n, dtype=np.float64)
            spread[spread_frame.column("v")] = spread_frame.column("contribution_sum")
            return spread

        return self.fixed_iterations(config, Timings(), product)
