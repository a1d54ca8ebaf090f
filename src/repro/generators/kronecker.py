"""Graph500 Kronecker (R-MAT) edge generator — the paper's Kernel 0.

This is a vectorised transcription of the reference Matlab/Octave
``kronecker_generator`` published on graph500.org, which the paper cites
as the required Kernel 0 generator.  For each of ``M`` edges the generator
descends ``scale`` levels of the recursive 2x2 initiator matrix

    [A  B]        A = 0.57, B = 0.19,
    [C  D]        C = 0.19, D = 1 - A - B - C = 0.05

choosing one quadrant per level; the chosen quadrant contributes one bit
to each endpoint label.  The reference implementation draws, per level,
one uniform variate for the row bit and one for the column bit with the
conditional probability depending on the row bit — reproduced exactly
here (same recurrence, same conditional form) so distributions match.

All ``M`` edges come from one random stream.  Generation is cut into
slices of ``_SLICE_EDGES`` edges positioned by PCG64 jump-ahead (see the
constant), so the temporaries of a slice stay cache-resident whatever ``M``
is and the output is bit-for-bit what a single unsliced pass over the
stream produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util import check_positive_int, resolve_rng
from repro._util.rng import SeedLike
from repro.generators.base import EdgeList, GeneratorSpec


@dataclass(frozen=True)
class KroneckerParams:
    """Initiator probabilities and permutation switches.

    Attributes
    ----------
    a, b, c:
        Quadrant probabilities of the 2x2 initiator (``d = 1-a-b-c``).
        Defaults are the Graph500 values (0.57, 0.19, 0.19).
    permute_vertices:
        Apply a random relabelling of vertex ids, as the Graph500
        reference code does, to hide the recursive structure.
    permute_edges:
        Shuffle edge order after generation (Graph500 reference does
        this; irrelevant to the pipeline because Kernel 1 re-sorts).
    """

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    permute_vertices: bool = True
    permute_edges: bool = True

    def __post_init__(self) -> None:
        for name, p in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {p}")
        if self.a + self.b + self.c >= 1.0:
            raise ValueError(
                "a + b + c must be < 1 so quadrant d has positive mass; "
                f"got {self.a + self.b + self.c}"
            )

    @property
    def d(self) -> float:
        """Probability of the fourth quadrant."""
        return 1.0 - self.a - self.b - self.c


DEFAULT_PARAMS = KroneckerParams()


# Edges generated per slice.  The stream is level-major — level ``l`` draws
# ``M`` row variates then ``M`` column variates — so slice ``[s, e)`` reads
# its row variates of level ``l`` at draws ``2*l*M + s .. 2*l*M + e`` and its
# column variates ``M`` draws later.  ``Generator.random`` consumes exactly one
# 64-bit output per float64 variate and ``advance(k)`` skips exactly ``k``
# outputs on the PCG64 family, so jumping ``M - (e - s)`` after every draw
# lands each slice on the draws an unsliced pass would have used for it: a
# slice depends on nothing but the entry state and its own bounds.  2**16
# keeps the ~1.5 MiB of per-slice temporaries in cache (32k-128k measured
# flat; the unsliced pass was ~2x slower per edge at scale 18).
_SLICE_EDGES = 1 << 16

# Bit generators whose ``advance(k)`` is ``k`` float64 variates.  Philox
# advances its counter (four outputs a step); MT19937 and SFC64 cannot jump.
# Those take one unsliced pass: same stream, same result, larger temporaries.
_JUMP_AHEAD = (np.random.PCG64, np.random.PCG64DXSM)


def _kronecker_block(
    scale: int,
    num_edges: int,
    params: KroneckerParams,
    rng: np.random.Generator,
) -> EdgeList:
    """Generate ``num_edges`` Kronecker edges without permutations.

    Returns narrow labels (``uint32`` up to scale 32, else ``int64``); the
    caller widens once, after its gathers.  Leaves ``rng`` exactly
    ``2 * scale * num_edges`` draws past where it was, cached 32-bit half
    included, as the level-major pass over the whole stream does.
    """
    ab = params.a + params.b
    c_norm = params.c / (1.0 - ab)
    a_norm = params.a / ab

    bit_generator = rng.bit_generator
    sliced = num_edges > _SLICE_EDGES and isinstance(bit_generator, _JUMP_AHEAD)
    step = _SLICE_EDGES if sliced else num_edges
    entry = bit_generator.state if sliced else None

    dtype = np.uint32 if scale <= 32 else np.int64
    u = np.zeros(num_edges, dtype=dtype)
    v = np.zeros(num_edges, dtype=dtype)
    # Every temporary of a slice, allocated once: the variates, the row and
    # column bits, a boolean scratch and the shifted bits.
    buffers = (
        np.empty(step, dtype=np.float64),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=dtype),
    )
    for start in range(0, num_edges, step):
        n = min(step, num_edges - start)
        skip = num_edges - n
        u_bits, v_bits = u[start:start + n], v[start:start + n]
        buf, ii_bit, jj_bit, differ, shift = (b[:n] for b in buffers)
        if sliced:
            bit_generator.state = entry
            bit_generator.advance(start)
        for level in range(scale):
            # Row bit: 1 with probability 1-ab (lower half of the initiator).
            rng.random(out=buf)
            np.greater(buf, ab, out=ii_bit)
            if sliced:
                bit_generator.advance(skip)
            # Column bit conditional on the row bit, as in the reference
            # code: ``buf > (c_norm if ii_bit else a_norm)``, selected
            # between the two scalar compares without a threshold array.
            rng.random(out=buf)
            if sliced:
                bit_generator.advance(skip)
            np.greater(buf, a_norm, out=jj_bit)
            np.greater(buf, c_norm, out=differ)
            np.bitwise_xor(jj_bit, differ, out=differ)
            np.bitwise_and(differ, ii_bit, out=differ)
            np.bitwise_xor(jj_bit, differ, out=jj_bit)
            place = dtype(level)
            for bit, bits in ((ii_bit, u_bits), (jj_bit, v_bits)):
                np.left_shift(bit, place, out=shift, dtype=dtype)
                np.bitwise_or(bits, shift, out=bits)
    if sliced:
        # ``advance`` drops a cached 32-bit half-draw; a caller's generator
        # must keep it, the permutations that follow may consume it.
        bit_generator.state = entry
        bit_generator.advance(2 * scale * num_edges)
        end = bit_generator.state
        end["has_uint32"], end["uinteger"] = entry["has_uint32"], entry["uinteger"]
        bit_generator.state = end
    return u, v


def kronecker_edges(
    scale: int,
    edge_factor: int = 16,
    *,
    params: Optional[KroneckerParams] = None,
    seed: SeedLike = None,
    num_edges: Optional[int] = None,
) -> EdgeList:
    """Generate the full Kronecker edge list for one benchmark run.

    Parameters
    ----------
    scale:
        Graph500 scale ``S``; the graph has ``N = 2**S`` vertices.
    edge_factor:
        Average edges per vertex (paper default 16).
    params:
        Initiator probabilities / permutation switches; defaults to the
        Graph500 values.
    seed:
        Seed or generator for reproducible output.
    num_edges:
        Override the edge count (defaults to ``edge_factor * 2**scale``);
        used by tests.

    Returns
    -------
    (u, v):
        ``int64`` arrays of start and end vertices, 0-based.

    Examples
    --------
    >>> u, v = kronecker_edges(scale=4, edge_factor=2, seed=1)
    >>> u.shape, int(u.max()) < 16
    ((32,), True)
    """
    spec = GeneratorSpec(scale=scale, edge_factor=edge_factor)
    params = params or DEFAULT_PARAMS
    rng = resolve_rng(seed)
    m = spec.num_edges if num_edges is None else check_positive_int("num_edges", num_edges)

    u, v = _kronecker_block(scale, m, params, rng)
    if params.permute_edges:
        order = rng.permutation(m)
        u, v = u[order], v[order]
    if not params.permute_vertices:
        return u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    relabel = rng.permutation(spec.num_vertices).astype(np.int64, copy=False)
    return relabel.take(u), relabel.take(v)
