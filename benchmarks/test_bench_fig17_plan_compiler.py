"""Figure 17 (new) — the optimizing plan compiler vs per-request serial kernels.

GraphGen's workload (Section 6 of the paper) analyses one extracted graph
with *batches* of traversal/centrality queries.  PR 5's scheduler amortised
pool forks and snapshot writes across such a batch, but each request still
ran its own full kernel: a ``closeness + diameter + betweenness`` batch
performed three independent full BFS/SSSP source sweeps over the same CSR.
The plan compiler (:mod:`repro.session.compiler`) lowers the batch into a
DAG of primitive nodes deduplicated by structural key, so all three
requests share **one** sweep — each source grows one traversal whose integer
tree feeds closeness stats and diameter eccentricities, and (for sampled
sources) whose Brandes pass feeds betweenness dependency vectors.

Measured here at ``parallelism=1`` on the python backend against the same
work done one request at a time: the three kernel entry points
(``closeness_kernel``, ``diameter_kernel``, ``betweenness_kernel``) on the
python backend, decoded as the plan decodes them, so the baseline's cost is
exactly the sum of its sweeps (no pool overhead muddies the ratio).  The
batch is closeness (n sources) + diameter with ``samples=n`` (a full
eccentricity sweep) + betweenness sampling n/5 sources.  The per-request
kernels traverse ``n + n + 0.285n`` source trees (a Brandes source costs
~2.85 plain traversals); the compiled path traverses ``n`` trees, 20% of
them Brandes — a ~1.9x projected speed-up.

Asserted:

* the compiled plan is >= 1.5x faster than the per-request kernels,
* compiled results are **bit-identical** to those kernels, floats included,
* the sweep instrumentation counter moves by exactly ``n`` (one traversal
  per source for the whole batch), and every result carries per-node
  computed/reused provenance with the sweep shared across all three.

Results land in ``benchmarks/results/fig17_plan_compiler.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms.centrality import betweenness_kernel, closeness_kernel
from repro.algorithms.shortest_paths import diameter_kernel
from repro.datasets.synthetic import generate_condensed
from repro.graph.backend import get_backend
from repro.graph.cdup import CDupGraph
from repro.relational.database import Database
from repro.session import GraphSession
from repro.session.compiler import CompilerCounters

from benchmarks.conftest import record_rows

REQUIRED_SPEEDUP = 1.5
REPEATS = 3

GRAPHS = {
    "synthetic_mid": dict(num_real=500, num_virtual=220, mean_size=6, std_size=2, seed=11),
}

_ROWS: list[dict[str, object]] = []


@pytest.fixture(scope="module")
def graphs():
    return {name: CDupGraph(generate_condensed(**spec)) for name, spec in GRAPHS.items()}


def _handle(graph):
    session = GraphSession(Database("fig17"), backend="python", parallelism=1)
    return session.wrap(graph)


def _batch(handle, n):
    return (
        handle.analyze()
        .closeness()
        .diameter(samples=n, seed=3)
        .betweenness(sample_size=max(2, n // 5), seed=7)
        .run()
    )


def _per_request(csr, n):
    """The batch's work with nothing shared: each request's serial kernel on
    its own, decoded like the plan's results (label -> values)."""
    backend = get_backend("python")
    return {
        "closeness": csr.decode(closeness_kernel(csr, backend=backend)),
        "diameter": diameter_kernel(csr, samples=n, seed=3, backend=backend),
        "betweenness": csr.decode(
            betweenness_kernel(csr, sample_size=max(2, n // 5), seed=7, backend=backend)
        ),
    }


def _best_of(repeats, fn, *args):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


class TestFig17PlanCompiler:
    def test_compiled_batch_shares_one_sweep_and_beats_per_request(self, graphs):
        graph = graphs["synthetic_mid"]
        handle = _handle(graph)
        csr = handle.snapshot()
        n = csr.n

        # correctness first: compiled == the per-request serial kernels,
        # floats included, on the same snapshot
        swept_before = CompilerCounters.sweep_traversals
        compiled_report = _batch(handle, n)
        swept = CompilerCounters.sweep_traversals - swept_before
        reference = _per_request(csr, n)
        assert compiled_report.labels() == list(reference)
        for got in compiled_report:
            assert got.values == reference[got.label], got.label

        # the whole batch traversed each source exactly once
        assert swept == n

        # per-node provenance: one sweep node, computed by the first request
        # and reused by the other two
        sweep_nodes = [
            [node for node in result.nodes if node.kind == "sweep"]
            for result in compiled_report
        ]
        assert all(len(nodes) == 1 for nodes in sweep_nodes)
        assert {nodes[0].key for nodes in sweep_nodes} == {sweep_nodes[0][0].key}
        assert [nodes[0].status for nodes in sweep_nodes] == [
            "computed",
            "reused",
            "reused",
        ]
        assert compiled_report.nodes_reused >= 2

        # latency: interleaved best-of measurements, re-measured up to twice
        # if a noisy-neighbor burst lands in one window (shared CI runners);
        # the projected ratio is ~1.9x with the measured Brandes factor
        for attempt in range(3):
            _, compiled_seconds = _best_of(REPEATS, _batch, handle, n)
            _, naive_seconds = _best_of(REPEATS, _per_request, csr, n)
            speedup = naive_seconds / compiled_seconds
            if speedup >= REQUIRED_SPEEDUP:
                break

        _ROWS.append(
            {
                "graph": f"synthetic_mid (n={n}, m={csr.num_edges})",
                "batch": f"closeness + diameter(samples={n}) + betweenness(k={max(2, n // 5)})",
                "compiled_s": round(compiled_seconds, 4),
                "serial_kernels_s": round(naive_seconds, 4),
                "speedup": f"{speedup:.2f}x",
                "sweep_traversals": f"{swept} vs {2 * n + max(2, n // 5)}",
                "note": f"asserted >= {REQUIRED_SPEEDUP}x, bit-identical",
            }
        )
        assert speedup >= REQUIRED_SPEEDUP, (
            f"compiled plan only {speedup:.2f}x faster than the per-request "
            f"serial kernels ({compiled_seconds:.4f}s vs {naive_seconds:.4f}s)"
        )

    def test_duplicate_requests_are_free_recorded(self, graphs):
        """CSE on duplicate requests: a plan asking for the same sampled
        betweenness twice computes it once — recorded unasserted beyond the
        reuse flag (the second request's marginal cost is one finaliser)."""
        graph = graphs["synthetic_mid"]
        handle = _handle(graph)
        n = handle.snapshot().n
        k = max(2, n // 5)

        csr = handle.snapshot()
        backend = get_backend("python")

        def doubled():
            return (
                handle.analyze()
                .betweenness(sample_size=k, seed=7)
                .betweenness(sample_size=k, seed=7)
                .run()
            )

        def twice():
            return [
                csr.decode(betweenness_kernel(csr, sample_size=k, seed=7, backend=backend))
                for _ in range(2)
            ]

        compiled_report, compiled_seconds = _best_of(REPEATS, doubled)
        naive_values, naive_seconds = _best_of(REPEATS, twice)
        assert compiled_report["betweenness#2"].reused
        assert compiled_report["betweenness"].values == naive_values[0]
        assert compiled_report["betweenness#2"].values == naive_values[1]
        _ROWS.append(
            {
                "graph": f"synthetic_mid (n={n})",
                "batch": f"betweenness(k={k}) x2 (duplicate request)",
                "compiled_s": round(compiled_seconds, 4),
                "serial_kernels_s": round(naive_seconds, 4),
                "speedup": f"{naive_seconds / compiled_seconds:.2f}x",
                "sweep_traversals": f"{k} vs {2 * k}",
                "note": "unasserted (CSE: duplicate resolves to one node)",
            }
        )

    def test_record_results(self):
        record_rows(
            "fig17_plan_compiler",
            "Figure 17 - optimizing plan compiler (shared-sweep DAG) vs the "
            "per-request serial kernels (parallelism=1, python backend)",
            _ROWS,
        )
