"""Figure 15 (new) — kernel-backend comparison on the largest synthetic graph.

The SIGMOD 2014 Programming Contest analyses cited in PAPERS.md observe that
top-performing graph-analytics implementations all reduce traversals to flat
array kernels.  PR 1 froze the snapshot into flat ``array('q')`` buffers;
this figure measures what executing over those same arrays with vectorised
(NumPy) kernels buys on the two paper benchmark algorithms that dominate
whole-graph analytics time — PageRank and Connected Components — against the
bit-exact pure-Python reference backend.

Setup: ``Synthetic_XL``, a condensed graph generated with the Appendix C.1
generator at roughly 4x the edge count of the next-largest synthetic dataset
in the suite (Table 5's N2), snapshotted through C-DUP virtual-layer
expansion.  Each kernel runs on the heap-built snapshot *and* on a zero-copy
``mmap``-loaded snapshot file — the numpy views wrap the mapped pages
directly, so the speedup must survive persistence.

Timings exclude the per-snapshot one-off materialisations both backends
cache on first touch (offset/target lists for python, array views and the
symmetrised CSR for numpy); the cold first-call numbers are recorded as
separate rows.  A one-shot request pays the cold cost, so the cold
Connected Components rows are gated too: the numpy backend's first call,
symmetrisation included, must not be slower than the python reference's
first call.

Asserted: numpy >= 5x faster than python on warm PageRank and Connected
Components, and cold numpy Connected Components no slower than cold python,
heap-backed and mmap-backed, with results matching the reference (exact for
components, 1e-9 for PageRank).  Results land in
``benchmarks/results/fig15_backend_comparison.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets.synthetic import generate_condensed
from repro.graph import CSRGraph
from repro.graph.backend import get_backend, numpy_available
from repro.graph.cdup import CDupGraph

from benchmarks.conftest import record_rows

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the backend comparison needs numpy"
)

#: the largest synthetic dataset in the benchmark suite (cf. Synthetic_1 at
#: ~84k and N2 at ~156k directed edges)
SYNTHETIC_XL = dict(num_real=20000, num_virtual=12000, mean_size=7, std_size=2, seed=42)

PAGERANK_ITERATIONS = 30
REQUIRED_SPEEDUP = 5.0

_ROWS: list[dict[str, object]] = []


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """{"heap": built snapshot, "mmap": zero-copy load of its saved file}."""
    graph = CDupGraph(generate_condensed(**SYNTHETIC_XL))
    heap = graph.snapshot()
    path = tmp_path_factory.mktemp("fig15") / "synthetic_xl.csr"
    heap.save(path)
    mapped = CSRGraph.load(path, mmap=True)
    assert isinstance(mapped.offsets, memoryview)  # really the mapped file
    return {"heap": heap, "mmap": mapped}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _best_of(runs, fn, *args):
    result, elapsed = _timed(fn, *args)
    for _ in range(runs - 1):
        _, again = _timed(fn, *args)
        elapsed = min(elapsed, again)
    return result, elapsed


KERNELS = {
    "pagerank": lambda backend, csr: backend.pagerank(
        csr, 0.85, PAGERANK_ITERATIONS, 1.0e-9
    ),
    "components": lambda backend, csr: backend.connected_components(csr),
}


@pytest.mark.parametrize("storage", ["heap", "mmap"])
@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_numpy_backend_speedup(snapshots, storage, algorithm):
    csr = snapshots[storage]
    python_backend = get_backend("python")
    numpy_backend = get_backend("numpy")
    kernel = KERNELS[algorithm]

    # cold first-touch: includes the backend's per-snapshot materialisations
    # (recorded for transparency; cached for every later call on this csr)
    if "np_views" not in csr._backend_cache:
        _, python_cold = _timed(kernel, python_backend, csr)
        _, numpy_cold = _timed(kernel, numpy_backend, csr)
        for name, cold in (("python", python_cold), ("numpy", numpy_cold)):
            _ROWS.append(
                {
                    "algorithm": algorithm,
                    "snapshot": storage,
                    "backend": f"{name} (cold)",
                    "seconds": round(cold, 4),
                    "speedup": "",
                }
            )
        if algorithm == "components":
            assert numpy_cold <= python_cold, (
                f"cold components on the {storage} snapshot: numpy took "
                f"{numpy_cold:.3f} s, python {python_cold:.3f} s"
            )

    reference, python_seconds = _timed(kernel, python_backend, csr)
    result, numpy_seconds = _best_of(3, kernel, numpy_backend, csr)
    speedup = python_seconds / numpy_seconds

    if algorithm == "components":
        assert result == reference  # int kernel: exact
    else:
        worst = max(abs(a - b) for a, b in zip(result, reference))
        assert worst <= 1e-9, f"pagerank diverged by {worst}"

    for name, seconds in (("python", python_seconds), ("numpy", numpy_seconds)):
        _ROWS.append(
            {
                "algorithm": algorithm,
                "snapshot": storage,
                "backend": name,
                "seconds": round(seconds, 4),
                "speedup": f"{speedup:.1f}x" if name == "numpy" else "1.0x",
            }
        )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"{algorithm} on the {storage} snapshot: numpy backend is only "
        f"{speedup:.1f}x faster than the python reference (need >= "
        f"{REQUIRED_SPEEDUP}x)"
    )


def test_record_results(snapshots):
    csr = snapshots["heap"]
    record_rows(
        "fig15_backend_comparison",
        "Figure 15: kernel backend comparison -- Synthetic_XL "
        f"(n={csr.n}, m={csr.num_edges}), PageRank {PAGERANK_ITERATIONS} "
        "iterations / Connected Components, heap-built vs mmap-loaded snapshot",
        _ROWS,
    )
    assert len(_ROWS) >= 8
    # the cold components gate ran on both snapshots
    cold_components = {
        row["snapshot"]
        for row in _ROWS
        if row["algorithm"] == "components" and row["backend"] == "numpy (cold)"
    }
    assert cold_components == {"heap", "mmap"}
