"""The pure-Python backend: standard library only.

The analogue of the paper's plain "Python" serial code (Table I: 162
source lines): interpreted loops, ``random.Random``, f-string file
writing, ``list.sort``, and dict-based sparse rows.  Nothing numpy
touches the kernel hot paths — this backend anchors the *slow* end of
the Figures 4–7 spread exactly as interpreted-loop implementations do in
the paper.

The Kronecker recurrence matches the vectorised generator's structure
(same quadrant probabilities and conditional form) but consumes a
``random.Random`` stream, so the realised edge multiset differs from the
numpy backends for the same seed.  Cross-backend equality tests
therefore compare Kernels 1–3 on a shared Kernel 0 dataset, and compare
Kernel 0 distributionally.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro._util import Timings
from repro.backends.base import (
    AdjacencyHandle,
    Backend,
    Details,
    KernelOutput,
    kernel1_manifest,
)
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import (
    EdgeDataset,
    read_shard_bytes,
    shard_file_name,
    shard_slices,
    store_shard,
)
from repro.edgeio.manifest import ShardInfo


class PyAdjacency(AdjacencyHandle):
    """Kernel 2 output as dict-of-rows: ``{u: [(v, weight), ...]}``."""

    def __init__(
        self,
        num_vertices: int,
        rows: Dict[int, List[Tuple[int, float]]],
        pre_filter_total: float,
    ) -> None:
        self._n = num_vertices
        self.rows = rows
        self._pre_filter_total = float(pre_filter_total)

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    def to_scipy_csr(self) -> sp.csr_matrix:
        r_idx: List[int] = []
        c_idx: List[int] = []
        vals: List[float] = []
        for u, row in self.rows.items():
            for v, w in row:
                r_idx.append(u)
                c_idx.append(v)
                vals.append(w)
        return sp.coo_matrix(
            (vals, (r_idx, c_idx)), shape=(self._n, self._n)
        ).tocsr()


class PythonBackend(Backend):
    """Pure standard-library implementation of all four kernels.

    The one backend that replaces Kernels 0, 1 and 2 whole rather than
    the ``generate_edges``/``sort_edges``/``build_adjacency`` steps:
    lists of tuples and line-by-line file I/O *are* its implementation,
    so it shares only the manifest (:meth:`EdgeDataset.publish`) with
    the others.
    """

    name = "python"

    # ------------------------------------------------------------------
    # Kernel 0
    # ------------------------------------------------------------------
    def kernel0(self, config: PipelineConfig, out_dir: Path) -> KernelOutput[EdgeDataset]:
        timings = Timings()
        n = config.num_vertices
        m = config.num_edges
        rng = random.Random(config.seed)

        with timings.measure("generate"):
            edges = self._kronecker(config.scale, m, rng)
            rng.shuffle(edges)
            relabel = list(range(n))
            rng.shuffle(relabel)
            edges = [(relabel[u], relabel[v]) for u, v in edges]

        with timings.measure("write"):
            dataset = self._write_dataset(
                out_dir, edges, config, extra={"kernel": "k0", "generator": "kronecker-py"}
            )
        details: Details = {
            "phases": timings.as_dict(),
            "num_edges": dataset.num_edges,
            "num_shards": dataset.num_shards,
            "bytes_written": dataset.total_bytes(),
        }
        return dataset, details

    @staticmethod
    def _kronecker(scale: int, num_edges: int, rng: random.Random) -> List[Tuple[int, int]]:
        """Pure-python Graph500 Kronecker recurrence."""
        a, b, c = 0.57, 0.19, 0.19
        ab = a + b
        c_norm = c / (1.0 - ab)
        a_norm = a / ab
        edges: List[Tuple[int, int]] = []
        rand = rng.random
        for _ in range(num_edges):
            u = 0
            v = 0
            for level in range(scale):
                ii = rand() > ab
                jj = rand() > (c_norm if ii else a_norm)
                if ii:
                    u |= 1 << level
                if jj:
                    v |= 1 << level
            edges.append((u, v))
        return edges

    def _write_dataset(
        self,
        out_dir: Path,
        edges: List[Tuple[int, int]],
        config: PipelineConfig,
        *,
        extra: Dict[str, object],
    ) -> EdgeDataset:
        """Line-by-line TSV writing with f-strings (the pure-python way),
        wrapped in the shared manifest layout so downstream kernels and
        other backends can read the output."""
        if config.file_format != "tsv":
            raise ValueError("the pure-python backend only writes tsv files")
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        base = config.vertex_base
        shards: List[ShardInfo] = []
        for index, (start, end) in enumerate(
            shard_slices(len(edges), config.num_files)
        ):
            lines = [
                f"{u + base}\t{v + base}\n" for u, v in edges[start:end]
            ]
            payload = "".join(lines).encode("ascii")
            path = out_dir / shard_file_name(index, "tsv")
            shards.append(store_shard(path, payload, end - start))
        return EdgeDataset.publish(
            out_dir, shards, num_vertices=config.num_vertices,
            vertex_base=base, fmt="tsv", extra=extra,
        )

    @staticmethod
    def _read_edges(source: EdgeDataset) -> List[Tuple[int, int]]:
        """Line-by-line parse of every shard (pure-python path)."""
        base = source.manifest.vertex_base
        edges: List[Tuple[int, int]] = []
        for path, info in zip(source.shard_paths(), source.manifest.shards):
            for raw in read_shard_bytes(path, info).splitlines():
                if not raw.strip():
                    continue
                left, right = raw.split(b"\t")
                edges.append((int(left) - base, int(right) - base))
        return edges

    # ------------------------------------------------------------------
    # Kernel 1
    # ------------------------------------------------------------------
    def kernel1(
        self, config: PipelineConfig, source: EdgeDataset, out_dir: Path
    ) -> KernelOutput[EdgeDataset]:
        timings = Timings()
        with timings.measure("read"):
            edges = self._read_edges(source)
        with timings.measure("sort"):
            if config.sort_by_end_vertex:
                edges.sort()
            else:
                edges.sort(key=lambda e: e[0])
        with timings.measure("write"):
            dataset = self._write_dataset(
                out_dir, edges, config, extra=kernel1_manifest(config)
            )
        details: Details = {
            "phases": timings.as_dict(),
            "algorithm": "timsort",
            "num_shards": dataset.num_shards,
        }
        return dataset, details

    # ------------------------------------------------------------------
    # Kernel 2
    # ------------------------------------------------------------------
    def kernel2(
        self, config: PipelineConfig, source: EdgeDataset
    ) -> KernelOutput[AdjacencyHandle]:
        timings = Timings()
        n = source.num_vertices
        with timings.measure("read"):
            edges = self._read_edges(source)

        with timings.measure("construct"):
            counts: Dict[Tuple[int, int], float] = {}
            for pair in edges:
                counts[pair] = counts.get(pair, 0.0) + 1.0
            pre_filter_total = float(sum(counts.values()))

        with timings.measure("filter"):
            din: Dict[int, float] = {}
            for (_, v), w in counts.items():
                din[v] = din.get(v, 0.0) + w
            max_in = max(din.values()) if din else 0.0
            supernode_count = 0
            leaf_count = 0
            eliminate: Set[int] = set()
            if max_in > 0:
                for vertex, degree in din.items():
                    if degree == max_in:
                        eliminate.add(vertex)
                        supernode_count += 1
                    if degree == 1:
                        eliminate.add(vertex)
                        leaf_count += 1
                counts = {
                    (u, v): w for (u, v), w in counts.items() if v not in eliminate
                }

        with timings.measure("normalize"):
            dout: Dict[int, float] = {}
            for (u, _), w in counts.items():
                dout[u] = dout.get(u, 0.0) + w
            rows: Dict[int, List[Tuple[int, float]]] = {}
            for (u, v), w in counts.items():
                rows.setdefault(u, []).append((v, w / dout[u]))

        handle = PyAdjacency(n, rows, pre_filter_total)
        details: Details = {
            "phases": timings.as_dict(),
            "nnz": handle.nnz,
            "pre_filter_entry_total": pre_filter_total,
            "max_in_degree": float(max_in),
            "supernode_columns": supernode_count,
            "leaf_columns": leaf_count,
            "eliminated_columns": len(eliminate),
            "nonzero_rows": len(rows),
        }
        return handle, details

    # ------------------------------------------------------------------
    # Kernel 3
    # ------------------------------------------------------------------
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        if not isinstance(matrix, PyAdjacency):
            raise TypeError(
                f"python backend needs PyAdjacency, got {type(matrix).__name__}"
            )
        timings = Timings()
        with timings.measure("setup"):
            n = matrix.num_vertices
            c = config.damping
            r: List[float] = self.initial_rank(config).tolist()
            scale_by_n = config.formula == "appendix"
            rows = matrix.rows
        with timings.measure("iterate"):
            for _ in range(config.iterations):
                teleport = (1.0 - c) * sum(r)
                if scale_by_n:
                    teleport /= n
                nxt = [teleport] * n
                for u, row in rows.items():
                    ru = c * r[u]
                    if ru == 0.0:
                        continue
                    for v, w in row:
                        nxt[v] += ru * w
                r = nxt
            rank = np.array(r, dtype=np.float64)
        details: Details = {
            "phases": timings.as_dict(),
            "iterations": config.iterations,
            "damping": c,
            "rank_sum": float(rank.sum()),
        }
        return rank, details
