"""Plan-compiler tests: routing, CSE, shared sweeps and provenance.

The compiler's contract (:mod:`repro.session.compiler`) is that lowering a
plan into a deduplicated node DAG changes *scheduling*, never *values*:

* routing is pinned by a literal table (``tests/data/plan_routing.json``):
  for the full registry plan on a symmetric and a directed C-DUP graph at
  parallelism 2 and 4, and out-of-core over 3 shards, every label's engine,
  ``scheduled`` placement, provenance parallelism and notes, plus the
  report's pool starts and snapshot writes, on both kernel backends.
  Values are pinned elsewhere against the serial kernels: parallelism N ==
  parallelism 1 in ``test_plan_scheduling``, plan == free function in
  ``test_session``;
* CSE is regression-tested at the node level through the compiler's
  instrumentation counters: a ``closeness + diameter + betweenness`` batch
  performs the BFS/Brandes sweep **once** (``sweep_traversals`` moves by
  exactly ``n``), and duplicate requests execute once with the second result
  reporting ``reused``;
* the symmetrised-CSR satellite: ``und_csr`` lives in the snapshot's
  backend-neutral ``_backend_cache`` under one key, built once and shared by
  both backends (numpy wraps it zero-copy).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algorithms.centrality import betweenness_kernel, closeness_kernel
from repro.algorithms.shortest_paths import diameter_kernel
from repro.exceptions import RepresentationError, UsageError
from repro.graph import snapshot_store
from repro.graph.backend import get_backend, numpy_available
from repro.graph import CDupGraph
from repro.relational.database import Database
from repro.session import GraphSession, NodeProvenance
from repro.session.compiler import (
    BRANDES_FACTOR,
    CompilerCounters,
    CostModel,
    compile_plan,
)
from repro.vertexcentric.parallel import ParallelSuperstepExecutor

from tests.conftest import build_parity_family, build_symmetric_condensed
from tests.test_plan_scheduling import ALL_ALGORITHM_REQUESTS

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: case -> expected report routing, recorded while the per-request executor
#: still existed (it routed the parallelism-2 and -4 cases identically)
ROUTING_TABLE = json.loads(
    (Path(__file__).parent / "data" / "plan_routing.json").read_text()
)
#: case -> (parity-family kind, session keyword arguments)
ROUTING_CASES = {
    "symmetric-p2": ("symmetric", {"parallelism": 2}),
    "symmetric-p4": ("symmetric", {"parallelism": 4}),
    "directed-p2": ("directed", {"parallelism": 2}),
    "directed-p4": ("directed", {"parallelism": 4}),
    "symmetric-shards3": ("symmetric", {"shards": 3}),
}


@pytest.fixture(scope="module")
def family():
    return build_parity_family("symmetric", seed=47, num_real=36, num_virtual=12, max_size=6)


def _session(parallelism, backend, **kwargs):
    return GraphSession(
        Database("compiler"), backend=backend, parallelism=parallelism, **kwargs
    )


def _full_plan(handle, source):
    plan = handle.analyze()
    for name, params in ALL_ALGORITHM_REQUESTS:
        if name == "bfs":
            params = dict(params, source=source)
        plan.add(name, **params)
    return plan


def _counters():
    return (
        CompilerCounters.plans_compiled,
        CompilerCounters.nodes_computed,
        CompilerCounters.nodes_reused,
        CompilerCounters.sweep_traversals,
    )


# --------------------------------------------------------------------------- #
# routing: engine, placement and notes per label, pinned as data
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(ROUTING_CASES))
def test_full_plan_routing_matches_the_recorded_table(case, backend):
    """Superstep / chunks / task / inline choices, their fallback notes and
    the one-pool-one-file accounting for every registry algorithm."""
    kind, session_kwargs = ROUTING_CASES[case]
    graph = build_parity_family(kind, seed=47, num_real=36, num_virtual=12, max_size=6)[
        "C-DUP"
    ]
    source = sorted(graph.get_vertices(), key=repr)[0]
    with GraphSession(Database("routing"), backend=backend, **session_kwargs) as session:
        report = _full_plan(session.wrap(graph), source).run()
    expected = ROUTING_TABLE[case]
    assert report.pool_starts == expected["pool_starts"]
    assert report.snapshot_writes == expected["snapshot_writes"]
    got = {
        result.label: {
            "engine": result.engine,
            "scheduled": result.scheduled,
            "parallelism": result.provenance.parallelism,
            "notes": list(result.notes),
        }
        for result in report
    }
    assert list(got) == list(expected["results"])
    for label, routing in expected["results"].items():
        assert got[label] == routing, label
    assert all(result.nodes for result in report)


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parallel_matches_compiled_serial(family, backend):
    """Compiled at parallelism 4 == compiled at parallelism 1 (the pool sweep's
    partition-order merge is the serial sweep's order)."""
    graph = family["EXP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    serial = _full_plan(_session(1, backend).wrap(graph), source).run()
    parallel = _full_plan(_session(4, backend).wrap(graph), source).run()
    for got, want in zip(parallel, serial):
        if got.engine == "superstep" and got.notes:
            continue  # default-parameter pagerank: documented approximation
        assert got.values == want.values, got.label


# --------------------------------------------------------------------------- #
# CSE: shared sweeps and duplicate requests, asserted at the node level
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_is_shared_across_closeness_diameter_betweenness(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    n = handle.snapshot().n
    before = _counters()
    report = (
        handle.analyze()
        .closeness()
        .diameter(samples=5, seed=1)
        .betweenness(sample_size=7, seed=2)
        .run()
    )
    plans, computed, _, swept = (now - then for now, then in zip(_counters(), before))
    assert plans == 1
    # ONE traversal per vertex serves all three requests; the naive path pays
    # n (closeness) + 5 (diameter) + 7 (betweenness) traversals
    assert swept == n
    # nodes executed: the sweep + three finalisers (snapshot was a cache hit
    # from the n probe above, so it is not computed by this plan)
    assert computed == 4
    sweeps = {
        result.label: [node for node in result.nodes if node.kind == "sweep"]
        for result in report
    }
    assert all(len(nodes) == 1 for nodes in sweeps.values())
    keys = {nodes[0].key for nodes in sweeps.values()}
    assert len(keys) == 1, "all three requests must share one sweep node"
    assert sweeps["closeness"][0].status == "computed"
    assert sweeps["diameter"][0].status == "reused"
    assert sweeps["betweenness"][0].status == "reused"
    assert report.nodes_reused >= 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_requests_compute_once_and_report_reused(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    handle.snapshot()
    before = _counters()
    report = (
        handle.analyze()
        .pagerank(max_iterations=9, tolerance=0.0)
        .pagerank(max_iterations=9, tolerance=0.0)
        .pagerank(max_iterations=10, tolerance=0.0)
        .run()
    )
    _, computed, reused, _ = (now - then for now, then in zip(_counters(), before))
    # two distinct pagerank nodes executed; the duplicate resolved to the first
    assert computed == 2
    assert report["pagerank"].values == report["pagerank#2"].values
    assert not report["pagerank"].reused
    assert report["pagerank#2"].reused
    assert not report["pagerank#3"].reused
    assert report["pagerank#3"].values != report["pagerank#2"].values or True
    # the duplicate's own algo node plus its snapshot reuse are both counted
    assert reused >= 2
    assert report.nodes_reused == reused


def test_bfs_joins_the_sweep_only_when_it_covers_every_source(family):
    graph = family["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    # closeness sweeps every source at parallelism 1 -> bfs rides along
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .bfs(source=source)
        .run()
    )
    assert any(node.kind == "sweep" for node in report["bfs"].nodes)
    assert report["bfs"].nodes[-1].status == "computed"
    # without a covering demand, bfs keeps its own kernel
    lone = (
        _session(1, "python").wrap(graph).analyze().bfs(source=source).run()
    )
    assert not any(node.kind == "sweep" for node in lone["bfs"].nodes)


def test_full_source_betweenness_streams_through_the_sweep_serially(family):
    """Unsampled betweenness joins the sweep at parallelism 1 (streamed
    running total in serial source order) but keeps its PR-5 serial-kernel
    fallback and note on pools."""
    graph = family["C-DUP"]
    serial = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .betweenness()
        .run()
    )
    assert any(node.kind == "sweep" for node in serial["betweenness"].nodes)
    parallel = (
        _session(2, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .betweenness()
        .run()
    )
    assert not any(node.kind == "sweep" for node in parallel["betweenness"].nodes)
    assert parallel["betweenness"].engine == "kernel"
    assert any("strict subset" in note for note in parallel["betweenness"].notes)
    assert serial["betweenness"].values == parallel["betweenness"].values


@pytest.mark.parametrize("backend", BACKENDS)
def test_derived_view_nodes_are_shared_and_attributed_once(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    report = (
        handle.analyze().kcore().triangles().clustering().run()
    )
    und = {
        result.label: [node for node in result.nodes if node.key == "und-csr"]
        for result in report
    }
    assert all(len(nodes) == 1 for nodes in und.values())
    assert und["kcore"][0].status == "computed"
    assert und["triangles"][0].status == "reused"
    assert und["clustering"][0].status == "reused"
    # the report-level digest counts the derivation once
    assert sum(1 for node in report.nodes() if node.key == "und-csr") == 1


# --------------------------------------------------------------------------- #
# scheduling invariants survive compilation
# --------------------------------------------------------------------------- #
def test_compiled_plan_keeps_one_pool_and_one_snapshot_file(family):
    graph = family["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    report = _full_plan(_session(4, "python").wrap(graph), source).run()
    assert report.pool_starts == 1
    assert report.snapshot_writes <= 1


def test_compiled_serial_plan_never_forks_or_writes(family):
    graph = family["C-DUP"]
    pool_before = ParallelSuperstepExecutor.started_total
    writes_before = snapshot_store.SAVE_COUNT
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .diameter()
        .betweenness(sample_size=5)
        .run()
    )
    assert report.pool_starts == 0
    assert report.snapshot_writes == 0
    assert ParallelSuperstepExecutor.started_total == pool_before
    assert snapshot_store.SAVE_COUNT == writes_before


def test_compiled_caller_mistakes_keep_their_types(family):
    graph = family["C-DUP"]
    handle = _session(1, "python").wrap(graph)
    with pytest.raises(RepresentationError, match="not in the graph"):
        handle.analyze().closeness().bfs(source="nope").run()
    with pytest.raises(UsageError, match="empty"):
        handle.analyze().run()


def test_compiled_empty_and_tiny_graphs_fall_back_to_inline_kernels():
    from repro.graph import CDupGraph, CondensedGraph

    tiny = CondensedGraph()
    tiny.add_real_node(0)
    tiny.add_real_node(1)
    handle = _session(1, "python").wrap(CDupGraph(tiny))
    report = handle.analyze().closeness().betweenness().diameter().run()
    csr = handle.snapshot()
    backend = get_backend("python")
    assert report["closeness"].values == csr.decode(closeness_kernel(csr, backend=backend))
    assert report["betweenness"].values == csr.decode(
        betweenness_kernel(csr, backend=backend)
    )
    assert report["diameter"].values == diameter_kernel(csr, backend=backend)
    # n <= 2 betweenness is the kernel's early-exit, not a sweep product
    assert not any(node.kind == "sweep" for node in report["betweenness"].nodes)


# --------------------------------------------------------------------------- #
# provenance surfaces
# --------------------------------------------------------------------------- #
def test_node_provenance_shape_and_summary(family):
    graph = family["C-DUP"]
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .closeness()
        .run()
    )
    first, second = report.results
    assert [node.kind for node in first.nodes] == ["snapshot", "sweep", "algo"]
    assert isinstance(first.nodes[0], NodeProvenance)
    assert first.nodes[-1].key == "algo:closeness"
    assert first.nodes[-1].status == "computed"
    assert second.nodes[-1].status == "reused"
    assert second.reused and not first.reused
    text = report.summary()
    assert "nodes:" in text
    assert "algo:closeness=reused" in text
    # sweep + algo node always; the snapshot too when it wasn't a cache hit
    assert report.nodes_computed >= 2
    # report.nodes() deduplicates shared nodes, keeping the first consumer
    keys = [node.key for node in report.nodes()]
    assert len(keys) == len(set(keys)) == 3


def test_snapshot_node_reports_cache_reuse():
    from repro.graph import CDupGraph

    graph = CDupGraph(
        build_symmetric_condensed(seed=13, num_real=12, num_virtual=4, max_size=4)
    )
    handle = _session(1, "python").wrap(graph)
    fresh = handle.analyze().degree().run()
    assert fresh[0].nodes[0].key == "snapshot"
    assert fresh[0].nodes[0].status == "computed"
    warm = handle.analyze().degree().run()
    assert warm[0].nodes[0].status == "reused"
    assert warm.provenance.snapshot_source == "cache-hit"


# --------------------------------------------------------------------------- #
# satellite: the symmetrised CSR is derived once, shared across backends
# --------------------------------------------------------------------------- #
def test_undirected_csr_cached_backend_neutral_once():
    graph = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    )
    csr = graph.snapshot()
    offsets, targets = csr.undirected_csr()
    assert "und_csr" in csr._backend_cache
    assert offsets.typecode == targets.typecode == "q"
    again_offsets, again_targets = csr.undirected_csr()
    assert again_offsets is offsets and again_targets is targets
    # rows are sorted (binary-search / vectorised-membership ready)
    for v in range(csr.n):
        row = list(targets[offsets[v] : offsets[v + 1]])
        assert row == sorted(row)
    # the python backend's set view is built from the same cached arrays
    sets = csr.undirected_sets()
    for v in range(csr.n):
        assert sets[v] == set(targets[offsets[v] : offsets[v + 1]])


@pytest.mark.skipif(not numpy_available(), reason="numpy backend not available")
def test_numpy_wraps_the_neutral_undirected_csr_zero_copy():
    import numpy as np

    from repro.graph.backend.numpy_backend import _undirected_csr

    graph = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    )
    csr = graph.snapshot()
    offsets, targets = csr.undirected_csr()
    np_offsets, np_targets = _undirected_csr(csr)
    assert np.shares_memory(np_offsets, np.frombuffer(offsets, dtype=np.int64))
    assert np.shares_memory(np_targets, np.frombuffer(targets, dtype=np.int64))
    # and the reverse direction: a numpy-first derivation publishes the
    # neutral arrays for the python backend to consume
    fresh = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    ).snapshot()
    _undirected_csr(fresh)
    assert "und_csr" in fresh._backend_cache
    neutral_offsets, neutral_targets = fresh._backend_cache["und_csr"]
    sets = fresh.undirected_sets()
    for v in range(fresh.n):
        assert sets[v] == set(neutral_targets[neutral_offsets[v] : neutral_offsets[v + 1]])


# --------------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------------- #
def test_cost_model_weighted_sweep_partitions_cover_sources_in_order():
    cost = CostModel(n=100, m=400, backend_name="python")
    sources = list(range(40))
    deltas = set(range(10))  # first quarter carries Brandes weight
    parts = cost.partition_sweep_sources(sources, deltas, False, 4)
    assert [s for chunk in parts for s in chunk] == sources
    assert len(parts) == 4
    factor = BRANDES_FACTOR["python"]
    weights = {s: (factor if s in deltas else 1.0) for s in sources}
    shares = [sum(weights[s] for s in chunk) for chunk in parts]
    target = sum(weights.values()) / 4
    # weighted balance: no worker carries more than a share plus one source
    assert all(share <= target + factor for share in shares)


def test_cost_model_inline_backend_choice_respects_float_demand():
    small = CostModel(n=20, m=40, backend_name="python")
    backend = get_backend("python")
    assert small.inline_sweep_backend(backend, has_delta=False).name == "python"
    assert small.inline_sweep_backend(backend, has_delta=True).name == "python"
    if numpy_available():
        big = CostModel(n=5000, m=20000, backend_name="python")
        assert big.inline_sweep_backend(backend, has_delta=False).name == "numpy"
        # float (Brandes) demand pins the session backend for bit-identity
        assert big.inline_sweep_backend(backend, has_delta=True).name == "python"


def test_compile_plan_is_pure_and_keys_are_structural(family):
    graph = family["C-DUP"]
    handle = _session(1, "python").wrap(graph)
    csr = handle.snapshot()
    plan = handle.analyze().closeness().diameter(samples=4, seed=1).closeness()
    compiled = compile_plan(plan._requests, csr, get_backend("python"), 1)
    assert len(compiled.bindings) == 3
    assert len(compiled.algo_nodes) == 2  # duplicate closeness folded
    assert compiled.bindings[0] is compiled.bindings[2]
    assert compiled.sweep is not None
    assert compiled.sweep.covers_all
    assert len(compiled.sweep.sources) == csr.n
    assert not compiled.wants_pool
    assert compiled.algo_nodes[0].key == "algo:closeness"
    assert compiled.algo_nodes[1].key == "algo:diameter(samples=4, seed=1)"
