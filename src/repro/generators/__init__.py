"""Graph generators (Kernel 0 substrate).

The benchmark's Kernel 0 uses the Graph500 Kronecker generator
(:func:`kronecker_edges`).  The paper (Section IV.A and V) also points at
alternative generators that may ease validation — block two-level
Erdős–Rényi (BTER, Seshadhri et al. 2012) and the perfect power law (PPL,
Kepner 2012) — both of which are implemented here and, with a uniform
random multigraph and a deterministic ring, selectable by name through
:func:`get_generator` (``--generator``).

All generators return edge lists as a pair of ``int64`` arrays ``(u, v)``
with 0-based vertex labels, matching the library-wide convention.
"""

from __future__ import annotations

from repro.generators.base import EdgeList, GeneratorSpec
from repro.generators.kronecker import KroneckerParams, kronecker_edges
from repro.generators.bter import BTERParams, bter_edges
from repro.generators.ppl import PPLParams, ppl_degree_sequence, ppl_edges
from repro.generators.simple import erdos_renyi_edges, ring_graph_edges
from repro.generators.registry import available_generators, get_generator

__all__ = [
    "BTERParams",
    "EdgeList",
    "GeneratorSpec",
    "KroneckerParams",
    "PPLParams",
    "available_generators",
    "bter_edges",
    "erdos_renyi_edges",
    "get_generator",
    "kronecker_edges",
    "ppl_degree_sequence",
    "ppl_edges",
    "ring_graph_edges",
]
