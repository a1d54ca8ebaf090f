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

A slice depends only on the stream's entry state and its own bounds, so
one function, :func:`_kronecker_slices`, generates any contiguous range
of slices on a bit generator of its own.  :func:`kronecker_edges` calls
it once over every slice, on the caller's thread.
:class:`KroneckerTasks` hands the same steps to a task graph: the async
executor runs disjoint slice ranges as concurrent tasks, then the
permutation draws, then one reorder-and-relabel gather per endpoint
array, and gets the same edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro._util import check_positive_int, resolve_rng
from repro._util.rng import SeedLike
from repro.generators.base import EdgeList, GeneratorSpec
from repro.labels import label_dtype


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


def _slice_edges(num_edges: int, kind: type) -> int:
    """Edges per slice of a block of ``num_edges`` draws from a ``kind``
    bit generator: the whole block unless the generator can jump."""
    if num_edges > _SLICE_EDGES and issubclass(kind, _JUMP_AHEAD):
        return _SLICE_EDGES
    return num_edges


def _kronecker_slices(
    scale: int,
    params: KroneckerParams,
    kind: type,
    entry: dict,
    first: int,
    last: int,
    u: np.ndarray,
    v: np.ndarray,
) -> dict:
    """OR the bits of slices ``first .. last - 1`` into ``u`` and ``v``.

    The block is ``len(u)`` edges drawn from a ``kind`` bit generator
    that starts in state ``entry``, cut into :func:`_slice_edges` slices.
    The draws come from a fresh ``kind`` instance with its own scratch
    buffers, so disjoint ranges may run in any order or on concurrent
    threads (numpy releases the GIL in the draws and the ufuncs).
    Returns that instance's final state: the block's end state when the
    range is a one-slice block.
    """
    ab = params.a + params.b
    c_norm = params.c / (1.0 - ab)
    a_norm = params.a / ab

    num_edges = len(u)
    step = _slice_edges(num_edges, kind)
    sliced = step < num_edges
    bit_generator = kind()
    bit_generator.state = entry
    rng = np.random.Generator(bit_generator)
    dtype = u.dtype.type
    # Every temporary of a slice, allocated once: the variates, the row and
    # column bits, a boolean scratch and the shifted bits.
    buffers = (
        np.empty(step, dtype=np.float64),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=np.bool_),
        np.empty(step, dtype=dtype),
    )
    for start in range(first * step, min(last * step, num_edges), step):
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
    return bit_generator.state


def _skip_block(bit_generator: np.random.BitGenerator, draws: int) -> None:
    """Move a jump-capable ``bit_generator`` ``draws`` float64 variates on,
    as drawing them would.  ``advance`` drops a cached 32-bit half-draw;
    drawing keeps it, and the permutations that follow may consume it."""
    entry = bit_generator.state
    bit_generator.advance(draws)
    end = bit_generator.state
    end["has_uint32"], end["uinteger"] = entry["has_uint32"], entry["uinteger"]
    bit_generator.state = end


def _zero_labels(scale: int, num_edges: int) -> EdgeList:
    dtype = label_dtype(1 << scale)
    return np.zeros(num_edges, dtype=dtype), np.zeros(num_edges, dtype=dtype)


def _kronecker_block(
    scale: int,
    num_edges: int,
    params: KroneckerParams,
    rng: np.random.Generator,
) -> EdgeList:
    """Generate ``num_edges`` Kronecker edges without permutations.

    Returns labels in :func:`~repro.labels.label_dtype` (``uint32`` up to
    scale 32, else ``int64``).  Leaves ``rng`` exactly
    ``2 * scale * num_edges`` draws past where it was, cached 32-bit half
    included, as the level-major pass over the whole stream does.  One
    call of :func:`_kronecker_slices` over every slice, on this thread.
    """
    bit_generator = rng.bit_generator
    kind, entry = type(bit_generator), bit_generator.state
    u, v = _zero_labels(scale, num_edges)
    slices = -(-num_edges // _slice_edges(num_edges, kind))
    end = _kronecker_slices(scale, params, kind, entry, 0, slices, u, v)
    if slices > 1:
        _skip_block(bit_generator, 2 * scale * num_edges)
    else:
        bit_generator.state = end
    return u, v


class KroneckerTasks:
    """:func:`kronecker_edges` cut into steps a task graph can place.

    Takes :func:`kronecker_edges`'s arguments; build it with
    :meth:`split`.  Run :meth:`fill` over disjoint slice ranges that
    cover ``range(slices)``, in any order or on concurrent threads; then
    :meth:`permute`, once; then :meth:`place` on each array it hands
    over, concurrently if wanted.  The arrays are
    :func:`kronecker_edges`'s bit for bit, and a caller's generator ends
    where :func:`kronecker_edges` leaves it.
    """

    def __init__(
        self,
        scale: int,
        edge_factor: int = 16,
        *,
        params: Optional[KroneckerParams] = None,
        seed: SeedLike = None,
        num_edges: Optional[int] = None,
    ) -> None:
        spec = GeneratorSpec(scale=scale, edge_factor=edge_factor)
        self.scale, self.num_vertices = scale, spec.num_vertices
        self.params = params or DEFAULT_PARAMS
        self.rng = resolve_rng(seed)
        m = spec.num_edges if num_edges is None else check_positive_int("num_edges", num_edges)
        bit_generator = self.rng.bit_generator
        self.kind, self.entry = type(bit_generator), bit_generator.state
        #: Slices in the block: the ranges :meth:`fill` takes partition
        #: ``range(slices)``.
        self.slices = -(-m // _slice_edges(m, self.kind))
        self._block: Optional[EdgeList] = _zero_labels(scale, m)

    @classmethod
    def split(cls, *args, **kwargs) -> Optional["KroneckerTasks"]:
        """The steps, or ``None`` where the block is one slice (too few
        edges, or a bit generator that cannot jump): nothing to split."""
        tasks = cls(*args, **kwargs)
        return tasks if tasks.slices > 1 else None

    def fill(self, first: int, last: int) -> None:
        """Generate slices ``first .. last - 1`` of the block."""
        u, v = self._block
        _kronecker_slices(self.scale, self.params, self.kind, self.entry,
                          first, last, u, v)

    def permute(self) -> Tuple[EdgeList, Optional[np.ndarray], Optional[np.ndarray]]:
        """Move the generator past the block and draw the edge order, then
        the relabelling table, as :func:`kronecker_edges` does; ``None``
        for each the params switch off.

        Hands the block over and keeps no reference to it: returns
        ``((u, v), order, relabel)`` for :meth:`place`.
        """
        (u, v), self._block = self._block, None
        _skip_block(self.rng.bit_generator, 2 * self.scale * len(u))
        order = relabel = None
        if self.params.permute_edges:
            order = self.rng.permutation(len(u))
        if self.params.permute_vertices:
            relabel = self.rng.permutation(self.num_vertices).astype(
                u.dtype, copy=False)
        return (u, v), order, relabel

    @staticmethod
    def place(
        labels: np.ndarray,
        order: Optional[np.ndarray],
        relabel: Optional[np.ndarray],
    ) -> np.ndarray:
        """One endpoint array of the block, reordered and relabelled."""
        if order is not None:
            labels = labels[order]
        return labels if relabel is None else relabel.take(labels)


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
        Start and end vertices, 0-based, in
        :func:`~repro.labels.label_dtype` of ``2**scale``: ``uint32`` up
        to scale 32, ``int64`` above.

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
    # Draw and gather in this order: the heap blocks freed here are the
    # ones Kernel 0's shard writes reuse.  Drawing the table before the
    # gathers leaves them unusable: 13 k more minor faults in a scale-18
    # serial write.
    if params.permute_edges:
        order = rng.permutation(m)
        u, v = u[order], v[order]
    if not params.permute_vertices:
        return u, v
    # The table holds labels too: its takes come out in the label dtype.
    relabel = rng.permutation(spec.num_vertices).astype(u.dtype, copy=False)
    return relabel.take(u), relabel.take(v)
