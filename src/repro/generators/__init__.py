"""Graph generators (Kernel 0 substrate).

The benchmark's Kernel 0 uses the Graph500 Kronecker generator
(:func:`kronecker_edges`).  The paper (Section IV.A and V) also points at
alternative generators that may ease validation — block two-level
Erdős–Rényi (BTER, Seshadhri et al. 2012) and the perfect power law (PPL,
Kepner 2012) — both of which are implemented here and, with a uniform
random multigraph and a deterministic ring, selectable by name through
:func:`get_generator` (``--generator``).

All generators return edge lists as a pair of arrays ``(u, v)`` with
0-based vertex labels in the label dtype of :mod:`repro.labels`
(``uint32`` up to scale 32), matching the library-wide convention.
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports
from repro.generators.base import EdgeList, GeneratorSpec

# The generators themselves import numpy: loaded on first use, so the
# config layer can read GeneratorSpec without them.
__getattr__ = lazy_exports(__name__, {
    "KroneckerParams": "repro.generators.kronecker",
    "kronecker_edges": "repro.generators.kronecker",
    "BTERParams": "repro.generators.bter",
    "bter_edges": "repro.generators.bter",
    "PPLParams": "repro.generators.ppl",
    "ppl_degree_sequence": "repro.generators.ppl",
    "ppl_edges": "repro.generators.ppl",
    "erdos_renyi_edges": "repro.generators.simple",
    "ring_graph_edges": "repro.generators.simple",
    "available_generators": "repro.generators.registry",
    "get_generator": "repro.generators.registry",
})

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
