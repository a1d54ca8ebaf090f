"""Kernel 3 scales and shifts each product in place.

``Backend.fixed_iterations`` writes ``c * y + teleport`` into the
product's own vector ``y`` instead of allocating two more per iteration.
The operations and their order are those of the out-of-place step, so
the rank is the same bytes; the scipy product calls ``csr_matvec`` into
one of two vectors of its own and must never hand back the ``r`` it
read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import get_backend
from repro.backends.scipy_backend import matvec_product
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset
from repro.generators.kronecker import kronecker_edges
from repro.sort.inmemory import sort_edges

SCALE = 8


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    u, v = sort_edges(*kronecker_edges(SCALE, 16, seed=2))
    return EdgeDataset.write(tmp_path_factory.mktemp("k3") / "k1", u, v,
                             num_vertices=2**SCALE, num_shards=2)


def _kernel3_and_its_product(impl, config, handle, monkeypatch):
    """Kernel 3's rank and details, and the product it iterated."""
    captured = []
    real = impl.fixed_iterations

    def spy(config, timings, product):
        captured.append(product)
        return real(config, timings, product)

    with monkeypatch.context() as patch:
        patch.setattr(impl, "fixed_iterations", spy)
        rank, details = impl.kernel3(config, handle)
    return rank, details, captured[0]


def _out_of_place(impl, config, product):
    """The loop Kernel 3 ran before it iterated in place."""
    c, n = config.damping, config.num_vertices
    r = impl.initial_rank(config)
    for _ in range(config.iterations):
        teleport = (1.0 - c) * r.sum()
        if config.formula == "appendix":
            teleport /= n
        r = c * product(r) + teleport
    return r


@pytest.mark.parametrize("iterations", [1, 2, 3, 20])
@pytest.mark.parametrize("formula", ["appendix", "paper-body"])
@pytest.mark.parametrize("backend", ["scipy", "numpy", "dataframe"])
def test_rank_is_the_out_of_place_loops_bytes(
        dataset, monkeypatch, backend, formula, iterations):
    config = PipelineConfig(scale=SCALE, seed=2, formula=formula,
                            iterations=iterations)
    impl = get_backend(backend)
    handle, _ = impl.kernel2(config, dataset)
    rank, details, product = _kernel3_and_its_product(
        impl, config, handle, monkeypatch)
    assert rank.dtype == np.float64
    # The bytes first: scipy's rank is one of its product's two vectors,
    # which running that product again reuses.
    got = rank.tobytes()
    assert got == _out_of_place(impl, config, product).tobytes()
    if backend == "scipy":  # and the product is scipy's own ``at @ r``
        at = handle.matrix.T
        assert got == _out_of_place(impl, config, at.__matmul__).tobytes()
    seconds = details["iteration_seconds"]
    assert len(seconds) == iterations and min(seconds) >= 0.0
    assert sum(seconds) <= details["phases"]["iterate"]


def test_scipy_product_never_returns_its_operand(dataset):
    config = PipelineConfig(scale=SCALE, seed=2)
    impl = get_backend("scipy")
    handle, _ = impl.kernel2(config, dataset)
    at = handle.matrix.T
    product = matvec_product(at)
    r = impl.initial_rank(config)
    for _ in range(5):
        want = (at @ r).tobytes()
        y = product(r)
        assert not np.shares_memory(y, r)
        assert y.tobytes() == want
        r = y
    with pytest.raises(ValueError, match="shape"):
        product(r[:-1])  # csr_matvec itself would read past its end


def test_a_graph_without_edges_iterates_to_the_teleport(tmp_path,
                                                        monkeypatch):
    # numpy's bincount of no edges is int64: made float64 before the
    # in-place scaling, as the out-of-place step's ``c *`` made it.
    config = PipelineConfig(scale=2, seed=1, iterations=3)
    impl = get_backend("numpy")
    empty = np.zeros(0, dtype=np.int64)
    dataset = EdgeDataset.write(tmp_path / "k1", empty, empty,
                                num_vertices=4, num_shards=1)
    handle, _ = impl.kernel2(config, dataset)
    rank, _, product = _kernel3_and_its_product(
        impl, config, handle, monkeypatch)
    assert rank.dtype == np.float64
    assert rank.tobytes() == _out_of_place(impl, config, product).tobytes()
