"""The batch workloads, and what every workload shares.

A batch job is what a user of the session API runs: a fresh
``GraphSession``, ``session.graph(query)``, ``handle.snapshot()`` and one
compiled analysis plan.  Jobs run back to back for the measuring window.

Every workload returns an :class:`Outcome`: operations attempted and failed
(a failed correctness check counts as a failure), end-to-end metrics from
untraced operations, per-layer metrics from traced ones, and the input's
properties.  With tracing on, untraced and traced jobs alternate, so the
tracing overhead is measured in the same run (the serve workload, in
``serve.py``, splits its window in two instead).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs
from spans import Span, Tracer, children, covered, self_seconds
from speed import Speed

#: set-ups per run, each a fresh load and a warm-up job; ``setup_s`` is
#: their median (the first one of a run also imports what the program
#: imports lazily, so it is always the slowest)
SETUPS_BATCH = 3
#: a run always measures at least this many jobs, so it has a median
MIN_JOBS = 3
#: float results of repeated jobs must agree within this absolute tolerance
FLOAT_TOLERANCE = 1e-9

BACKEND_METHODS = (
    "connected_components", "count_triangles", "triangles_per_vertex",
    "label_propagation", "pagerank", "core_numbers", "degrees", "bfs_tree",
    "brandes_tree", "tree_stats", "warm_undirected",
)
PLAN_ALGORITHMS = (
    "degree", "pagerank", "components", "kcore", "triangles",
    "label_propagation", "diameter", "betweenness", "bfs",
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile, samples)``.  Below 21 samples that percentile lies
    at or under the median, and the median is reported: a run that short has
    no measurable tail."""
    ordered = sorted(values)
    if len(ordered) < 21:
        return p50(ordered), 50.0, len(ordered)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# result checks
# --------------------------------------------------------------------------- #
def same(a: Any, b: Any) -> bool:
    """Integers and strings exactly, floats within FLOAT_TOLERANCE."""
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and abs(a - b) <= FLOAT_TOLERANCE
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same(value, b[key]) for key, value in a.items()
        )
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple)) and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    return a == b


def valid_labelling(labels: dict, components: dict) -> bool:
    """Label propagation starts from one label per vertex and copies labels
    along edges only, so every vertex is labelled with a vertex of its own
    connected component."""
    return labels.keys() == components.keys() and all(
        label in components and components[label] == components[vertex]
        for vertex, label in labels.items()
    )


# --------------------------------------------------------------------------- #
# tracing: which public calls are wrapped
# --------------------------------------------------------------------------- #
def install_tracing(tracer: Tracer) -> None:
    from repro.core.extractor import Extractor
    from repro.core.graphgen import GraphGen
    from repro.graph.backend import get_backend
    from repro.graph.snapshot_store import SnapshotStore
    from repro.relational.database import Database
    from repro.session import AnalysisPlan, GraphHandle, GraphSession
    from repro.vertexcentric.parallel import ParallelSuperstepExecutor

    tracer.wrap(Database, "create_table", "relational.create_table")
    tracer.wrap(Database, "insert", "relational.insert", lambda rows, *_: {"rows": rows})
    tracer.wrap(GraphGen, "plan", "core.planner.plan")
    tracer.wrap(
        Extractor, "extract_condensed", "core.extractor.extract_condensed",
        lambda result, *_: _extraction_attrs(result[1]),
    )
    tracer.wrap(GraphSession, "__init__", "session.open")
    tracer.wrap(GraphSession, "graph", "session.graph")
    tracer.wrap(GraphSession, "close", "session.close")
    tracer.wrap(GraphHandle, "snapshot", "graph.kernel.snapshot")
    tracer.wrap(
        SnapshotStore, "fetch", "graph.snapshot_store.fetch",
        lambda result, *_: {"outcome": result[1]},
    )
    tracer.wrap(AnalysisPlan, "run", "session.plan.run", lambda report, *_: _plan_attrs(report))
    tracer.wrap(ParallelSuperstepExecutor, "start", "session.scheduler.pool_start")
    backend = get_backend()
    for method in BACKEND_METHODS:
        if hasattr(backend, method):
            tracer.wrap(backend, method, f"graph.backend.{method}")


def _extraction_attrs(report) -> dict:
    return {
        "condensed_edges": report.condensed_edges,
        "virtual_nodes": report.virtual_nodes,
        "fallbacks": sum(1 for note in report.notes if "fell back" in note),
    }


def _plan_attrs(report) -> dict:
    return {
        "pool_starts": report.pool_starts,
        "nodes_computed": report.nodes_computed,
        "nodes_reused": report.nodes_reused,
        "results": [
            [result.algorithm, result.seconds, result.engine, result.scheduled]
            for result in report
        ],
    }


def by_op(spans: list[Span], ops: list[str]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {op: [] for op in ops}
    for span in spans:
        if span.op in grouped:
            grouped[span.op].append(span)
    return grouped


def layer_metrics(
    tracer: Tracer, ops: list[str], setups: list[str], walls: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics shared by every workload.  Times and counts are
    means per operation (job or request) over the traced operations."""
    spans = tracer.spans
    per_op = by_op(spans, ops)
    by_parent = children(spans)
    count = max(1, len(ops))

    def per_op_seconds(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name and s.op in per_op) / count

    def per_op_calls(name: str) -> float:
        return sum(1 for s in spans if s.name == name and s.op in per_op) / count

    metrics: dict[str, tuple[float, str]] = {}
    per_setup = by_op(spans, setups)
    metrics["relational.load_s"] = (p50([
        sum(s.seconds for s in group if s.name.startswith("relational."))
        for group in per_setup.values()
    ]), "s")
    metrics["relational.rows"] = (p50([
        sum(s.attrs.get("rows", 0) for s in group if s.name == "relational.insert")
        for group in per_setup.values()
    ]), "count")

    metrics["core.planner.plan_s"] = (per_op_seconds("core.planner.plan"), "s")
    metrics["core.extractor.extract_s"] = (
        per_op_seconds("core.extractor.extract_condensed"), "s")
    extractions = [s for s in spans if s.name == "core.extractor.extract_condensed"]
    rows = metrics["relational.rows"][0]
    last = extractions[-1].attrs if extractions else {}
    metrics["core.extractor.rows_per_s"] = (
        rows / p50([s.seconds for s in extractions]) if extractions else 0.0, "1/s")
    metrics["core.extractor.condensed_edges"] = (last.get("condensed_edges", 0), "count")
    metrics["core.extractor.virtual_nodes"] = (last.get("virtual_nodes", 0), "count")
    metrics["core.extractor.fallbacks"] = (
        sum(s.attrs["fallbacks"] for s in extractions), "count")

    metrics["graph.kernel.snapshot_s"] = (per_op_seconds("graph.kernel.snapshot"), "s")
    metrics["graph.snapshot_store.fetch_s"] = (
        per_op_seconds("graph.snapshot_store.fetch"), "s")
    fetches = [s for s in spans if s.name == "graph.snapshot_store.fetch" and s.op in per_op]
    metrics["graph.snapshot_store.hits"] = (
        sum(1 for s in fetches if s.attrs["outcome"] == "hit") / count, "count")
    metrics["graph.snapshot_store.misses"] = (
        sum(1 for s in fetches if s.attrs["outcome"] != "hit") / count, "count")

    for method in BACKEND_METHODS:
        metrics[f"graph.backend.{method}_s"] = (per_op_seconds(f"graph.backend.{method}"), "s")
        metrics[f"graph.backend.{method}.calls"] = (
            per_op_calls(f"graph.backend.{method}"), "count")

    runs = [s for s in spans if s.name == "session.plan.run" and s.op in per_op]
    results = [result for s in runs for result in s.attrs["results"]]
    metrics["session.plan.run_s"] = (per_op_seconds("session.plan.run"), "s")
    metrics["session.plan.self_s"] = (
        sum(self_seconds(s, by_parent) for s in runs) / count, "s")
    for algorithm in PLAN_ALGORITHMS:
        metrics[f"session.plan.{algorithm}_s"] = (
            sum(seconds for name, seconds, _, _ in results if name == algorithm) / count, "s")
    for counter in ("nodes_computed", "nodes_reused"):
        metrics[f"session.compiler.{counter}"] = (
            sum(s.attrs[counter] for s in runs) / count, "count")
    metrics["session.scheduler.pool_starts"] = (
        sum(s.attrs["pool_starts"] for s in runs) / count, "count")
    metrics["session.scheduler.pool_start_s"] = (
        per_op_seconds("session.scheduler.pool_start"), "s")
    metrics["session.scheduler.pooled_requests"] = (
        sum(1 for *_, scheduled in results if scheduled == "pool") / count, "count")
    metrics["session.scheduler.worker_peak_rss_mb"] = (
        peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")

    # share of each operation's wall time that its top-level spans cover
    coverage = []
    for op, group in per_op.items():
        top = [(s.start, s.end) for s in group if s.parent is None]
        coverage.append(covered(top) / walls[op])
    metrics["trace.coverage"] = (p50(coverage), "ratio")
    return metrics


def engines(tracer: Tracer) -> dict[str, str]:
    """Which engine each algorithm ran on, from the traced plan runs."""
    return {
        name: f"{engine}/{scheduled}"
        for span in tracer.spans if span.name == "session.plan.run"
        for name, _, engine, scheduled in span.attrs["results"]
    }


# --------------------------------------------------------------------------- #
# batch workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Batch:
    """A job run back to back: extract, snapshot, one compiled plan."""

    relations: Callable[[int], inputs.Relations]
    #: (handle, relations) -> the analysis plan one job runs
    plan: Callable[[Any, inputs.Relations], Any]
    parallelism: int = 1
    snapshot_cache: bool = False

    def run(self, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
        from repro.graph.analysis import representation_stats

        outcome = Outcome()
        relations = self.relations(seed)
        speed = Speed()
        tracer = Tracer() if trace else None
        store = tempfile.mkdtemp(prefix="snapshots-", dir=workdir) if self.snapshot_cache else None
        first: dict[str, Any] | None = None
        #: (total, write, read) seconds as measured, and the speed factor
        timings: dict[bool, list[tuple[float, float, float, float]]] = {False: [], True: []}
        walls: dict[str, float] = {}
        traced_ops: list[str] = []
        try:
            # a set-up is what precedes a user's first timed job: the rows
            # loaded into a fresh Database and one warm-up job on it (which
            # also fills the snapshot cache, when there is one)
            if tracer is not None:
                install_tracing(tracer)
            setup_times = []
            for index in range(SETUPS_BATCH):
                op = f"setup{index}"
                db = job = None
                gc.collect()
                with op_scope(tracer, op):
                    started = time.perf_counter()
                    db = inputs.load(relations)
                    job = self._job(db, relations, store, outcome, op)
                    elapsed = time.perf_counter() - started
                setup_times.append(elapsed * speed.scale())
                if job is None:
                    continue
                _, current, handle, csr = job
                if first is None:
                    outcome.info.update({
                        "rows": relations.rows,
                        "condensed_edges": current["counts"][0],
                        "virtual_nodes": current["counts"][1],
                        "vertices": csr.n,
                        "csr_edges": csr.num_edges,
                        "estimated_bytes": representation_stats(handle.graph).estimated_bytes,
                    })
                first = _check(first, current, outcome, op)
                handle = csr = None
            if tracer is not None:
                tracer.restore()
            outcome.metrics["setup_s"] = (p50(setup_times), "s")

            started = time.perf_counter()
            while True:
                traced = trace and len(timings[False]) > len(timings[True])
                op = f"job{len(timings[False]) + len(timings[True])}"
                # each job starts from a collected heap, so the previous
                # job's garbage lands neither in its time nor in its memory
                job = None
                gc.collect()
                if traced:
                    install_tracing(tracer)
                try:
                    with op_scope(tracer if traced else None, op):
                        job = self._job(db, relations, store, outcome, op)
                finally:
                    if traced:
                        tracer.restore()
                factor = speed.scale()
                if job is not None:
                    times, current, _, _ = job
                    timings[traced].append((*times, factor))
                    if traced:
                        traced_ops.append(op)
                        walls[op] = times[0]
                    first = _check(first, current, outcome, op)
                # stop before a job that would likely overrun the window
                elapsed = time.perf_counter() - started
                typical = p50([t[0] for t in timings[False] + timings[True]])
                if len(timings[False]) >= MIN_JOBS and elapsed + typical > seconds:
                    break
                if not timings[False] and elapsed > seconds:
                    break
            if store is not None:
                outcome.info["snapshot_cache_bytes"] = _tree_bytes(store)
        finally:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)

        untraced = timings[False]
        jobs = [total * factor for total, _, _, factor in untraced]
        reads = [read * factor * 1000.0 for _, _, read, factor in untraced]
        writes = [write * factor * 1000.0 for _, write, _, factor in untraced]
        read_tail, percentile, samples = tail(reads)
        outcome.metrics.update({
            "job_s_p50": (p50(jobs), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "read_ms_p50": (p50(reads), "ms"),
            "read_ms_tail": (read_tail, "ms"),
            "write_ms_p50": (p50(writes), "ms"),
            "ops_per_s": (len(jobs) / sum(jobs) if jobs else 0.0, "ops/s"),
        })
        outcome.info.update({
            "jobs": len(jobs),
            "job_s_p50_measured": round(p50([t[0] for t in untraced]), 4),
            "reference_ms_p50": round(p50(speed.samples) * 1000.0, 2),
            "read_ms_tail": f"p{percentile:.1f} of {samples} plan runs",
        })
        if tracer is not None:
            setups = [f"setup{i}" for i in range(SETUPS_BATCH)]
            layers = layer_metrics(tracer, traced_ops, setups, walls)
            csr_edges = outcome.info.get("csr_edges", 0)
            condensed = outcome.info.get("condensed_edges", 0)
            layers["graph.kernel.csr_edges"] = (csr_edges, "count")
            layers["graph.kernel.expansion_ratio"] = (
                csr_edges / condensed if condensed else 0.0, "ratio")
            layers["graph.estimated_bytes"] = (outcome.info.get("estimated_bytes", 0), "bytes")
            layers["graph.snapshot_store.bytes_written"] = (
                outcome.info.get("snapshot_cache_bytes", 0), "bytes")
            layers.update(_no_service())
            traced_jobs = [total * factor for total, _, _, factor in timings[True]]
            layers["trace.overhead"] = (
                p50(traced_jobs) / p50(jobs) - 1.0 if traced_jobs and jobs else 0.0, "ratio")
            outcome.metrics = layers
            outcome.info["engines"] = engines(tracer)
            outcome.info["traced_jobs"] = len(traced_jobs)
            outcome.tracer = tracer
        return outcome

    def _job(self, db, relations: inputs.Relations, store: str | None, outcome: Outcome, op: str):
        """One job on ``db``: ``((total, write, read) seconds, what the
        checks compare, handle, snapshot)``, or None when it raised, which
        counts as a failed operation."""
        from repro.session import GraphSession

        outcome.attempted += 1
        try:
            t0 = time.perf_counter()
            session = GraphSession(db, parallelism=self.parallelism, snapshot_cache=store)
            try:
                t1 = time.perf_counter()
                handle = session.graph(relations.query)
                csr = handle.snapshot()
                t2 = time.perf_counter()
                report = self.plan(handle, relations).run()
                t3 = time.perf_counter()
            finally:
                session.close()
            t4 = time.perf_counter()
        except Exception as exc:  # a failed job is counted, not fatal
            outcome.fail(f"{op}: {type(exc).__name__}: {exc}")
            return None
        current = {
            "counts": (
                handle.extraction.report.condensed_edges,
                handle.extraction.report.virtual_nodes,
                handle.extraction.report.real_nodes,
            ),
            "hash": csr.content_hash,
            "values": {result.label: result.values for result in report},
        }
        return (t4 - t0, t2 - t1, t3 - t2), current, handle, csr


def _check(first: dict | None, current: dict, outcome: Outcome, op: str) -> dict:
    """Compare a job with the run's first one; returns the reference."""
    if first is None:
        return current
    problem = _compare(first, current)
    if problem:
        outcome.fail(f"{op}: {problem}")
    return first


def _compare(first: dict, current: dict) -> str | None:
    if current["counts"] != first["counts"]:
        return f"extraction counts {current['counts']} != {first['counts']}"
    if current["hash"] != first["hash"]:
        return "snapshot content hash changed between jobs"
    values = current["values"]
    if values.keys() != first["values"].keys():
        return f"result labels {sorted(values)} != {sorted(first['values'])}"
    for label, value in values.items():
        if label == "label_propagation":
            if not valid_labelling(value, values["components"]):
                return "label_propagation is not a valid labelling"
        elif not same(value, first["values"][label]):
            return f"{label} differs from the first job"
    return None


def _no_service() -> dict[str, tuple[float, str]]:
    """Service-layer metrics of a workload that does not serve requests."""
    return {
        "service.app.hit_ms_p50": (0.0, "ms"),
        "service.app.miss_ms_p50": (0.0, "ms"),
        "service.app.add_edge_ms_p50": (0.0, "ms"),
        "service.codec.encode_ms_p50": (0.0, "ms"),
        "service.http.overhead_ms_p50": (0.0, "ms"),
        "service.cache.hit_ratio": (0.0, "ratio"),
        "service.cache.invalidations": (0, "count"),
        "service.admission.rejected": (0, "count"),
    }


def _tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory) for name in names
    )


def op_scope(tracer: Tracer | None, op_id: str):
    return tracer.op(op_id) if tracer is not None else nullcontext()
