"""Generated-input parity and memory checks for the NumPy backend's
deduplication helper and triangle kernel.

``_unique`` must equal ``np.unique`` on any int64 array.  The triangle kernel
must equal the python reference exactly: range counts over any partition of
the vertices sum to the whole-graph total (the chunk-parallel contract), and
per-vertex counts and the average clustering coefficient are identical.
Counting triangles keeps no per-triangle state, so its peak allocation stays
a small multiple of the symmetrised adjacency even on a near-clique with
millions of triangles.
"""

from __future__ import annotations

import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph import CSRGraph
from repro.graph.backend import get_backend, numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)

if numpy_available():
    import numpy as np

    from repro.graph.backend.numpy_backend import _unique

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


# --------------------------------------------------------------------------- #
# _unique
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(st.lists(INT64 | st.integers(min_value=-3, max_value=3), max_size=200))
@example([])
@example([7])
@example([5, 5, 5, 5])
@example([-9, -1, -9, 0, -(2**63), 2**63 - 1])
@example([1, 2, 2, 3, 10, 11])
def test_unique_equals_numpy_unique(values):
    data = np.array(values, dtype=np.int64)
    result = _unique(data)
    expected = np.unique(data)
    assert result.dtype == expected.dtype
    assert result.tolist() == expected.tolist()
    assert data.tolist() == values  # the input is left as it was


# --------------------------------------------------------------------------- #
# triangle kernel vs the python reference
# --------------------------------------------------------------------------- #
def _csr(n: int, edges) -> CSRGraph:
    """A directed snapshot with the given (possibly repeated) edges."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
    offsets = array("q", [0])
    targets = array("q")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return CSRGraph(offsets, targets, list(range(n)))


def _copy(csr: CSRGraph) -> CSRGraph:
    """The same snapshot with empty caches, so neither backend's derived
    forms leak into the other's run."""
    return CSRGraph(array("q", csr.offsets), array("q", csr.targets), list(csr.external_ids))


def _near_clique(n: int = 300, p: float = 0.7, seed: int = 13) -> CSRGraph:
    """Dense G(n, p) with each undirected edge stored in one random
    direction or both, plus self-loops on every seventh vertex."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        if u % 7 == 0:
            edges.append((u, u))
        for v in range(u + 1, n):
            if rng.random() < p:
                direction = rng.randrange(3)
                if direction != 1:
                    edges.append((u, v))
                if direction != 0:
                    edges.append((v, u))
    return _csr(n, edges)


@st.composite
def graphs_and_cuts(draw):
    """A random directed graph (self-loops and repeated edges allowed, any
    density) and a random partition of its vertex range."""
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [
        (u, v) for u in range(n) for v in range(n) if rng.random() < density
    ]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n + 1))]
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), max_size=4)))
    return _csr(n, edges), [0, *cuts, n]


def _assert_triangles_match(csr: CSRGraph, bounds: list[int]) -> None:
    python, numpy = get_backend("python"), get_backend("numpy")
    reference = _copy(csr)
    total = python.count_triangles(reference)
    chunks = [numpy.count_triangles(csr, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert sum(chunks) == total
    assert chunks == [
        python.count_triangles(reference, lo, hi) for lo, hi in zip(bounds, bounds[1:])
    ]
    assert numpy.count_triangles(csr) == total
    per_vertex = numpy.triangles_per_vertex(csr)
    assert per_vertex == python.triangles_per_vertex(reference)
    assert sum(per_vertex) == 3 * total
    assert numpy.average_clustering(csr) == python.average_clustering(reference)


@settings(max_examples=60, deadline=None)
@given(graphs_and_cuts())
def test_triangles_match_reference_on_generated_graphs(case):
    csr, bounds = case
    _assert_triangles_match(csr, bounds)


@pytest.fixture(scope="module")
def near_clique():
    return _near_clique()


def test_triangles_match_reference_on_near_clique(near_clique):
    rng = random.Random(5)
    cuts = sorted(rng.sample(range(1, near_clique.n), 5))
    _assert_triangles_match(_copy(near_clique), [0, *cuts, near_clique.n])


def test_count_triangles_memory_is_bounded_by_the_adjacency(near_clique):
    """No per-triangle buffer: the count peaks at a few times the bytes of
    the symmetrised targets, although the graph has ~1.5M triangles."""
    csr = _copy(near_clique)
    numpy = get_backend("numpy")
    numpy.warm_undirected(csr)
    symmetrised_bytes = len(csr.undirected_csr()[1]) * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        total = numpy.count_triangles(csr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total > 1_000_000
    assert peak <= 4 * symmetrised_bytes, (
        f"count_triangles peaked at {peak} bytes, "
        f"{peak / symmetrised_bytes:.1f}x the symmetrised targets"
    )
