"""The serve workload: ``GraphService`` over loopback HTTP.

The service runs with default settings (parallelism 1, not incremental) over
a co-author graph.  A closed loop of client threads, each on one keep-alive
connection, sends ``POST /analyze`` requests drawn Zipf-like from a fixed
catalogue and, every ``write_every``-th operation, a ``POST /edges`` that adds
a random edge: each write moves the snapshot's content hash, which evicts the
whole result cache.  With tracing on, the loop runs untraced for half the
window and traced for the other half.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import inputs
from spans import Tracer
from speed import Speed
from workloads import (
    Outcome, by_op, engines, install_tracing, layer_metrics, op_scope, p50, peak_rss_mb,
    tail,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS_SERVE = 5


@dataclass
class _Record:
    op: str
    kind: str
    key: int | None
    status: int
    round_trip: float
    wall: float
    #: writes completed before the read, or None when a write overlapped it
    epoch: int | None
    cache: dict | None = None
    #: digest of the response's values; records outlive the response, and
    #: the values themselves would inflate the process's peak memory
    digest: bytes | None = None


class _Epochs:
    """Counts writes so each read can be placed between two of them."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.started = 0
        self.done = 0

    def snapshot(self) -> tuple[int, int]:
        with self.lock:
            return self.started, self.done


@dataclass(frozen=True)
class Serve:
    """``GraphService`` over loopback HTTP, default settings, driven by a
    closed loop of keep-alive clients."""

    entities: int
    groups: int
    mean_group: int
    clients: int
    write_every: int

    def run(self, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
        from repro.service import GraphService, make_server, serve_in_thread
        from repro.session import GraphSession

        outcome = Outcome()
        relations = inputs.cooccurrence(seed, self.entities, self.groups, self.mean_group)
        linked = sorted({entity for entity, _ in relations.tables["R"][1]})
        catalogue = inputs.catalogue(seed, linked)
        streams = [
            inputs.operations(seed, client, len(catalogue), self.entities, self.write_every)
            for client in range(self.clients)
        ]
        tracer = Tracer() if trace else None
        if tracer is not None:
            install_tracing(tracer)
        setup_times = []
        running = []
        speed = Speed()
        try:
            # set-ups run on the CPU throughout and are reported at the
            # reference speed (speed.py); round trips are reported as measured
            for index in range(SETUPS_SERVE):
                if running:
                    _stop(*running.pop())
                # as for batch jobs: the previous set-up's garbage is not
                # collected inside this one's time
                db = session = handle = service = server = thread = None
                gc.collect()
                with op_scope(tracer, f"setup{index}"):
                    started = time.perf_counter()
                    db = inputs.load(relations)
                    session = GraphSession(db)
                    handle = session.graph(relations.query)
                    handle.snapshot()
                    service = GraphService(session, handle)
                    server = make_server(service)
                    thread = serve_in_thread(server)
                    elapsed = time.perf_counter() - started
                running.append((server, thread, service))
                setup_times.append(elapsed * speed.scale())
            if tracer is not None:
                tracer.restore()
            outcome.metrics["setup_s"] = (p50(setup_times), "s")
            csr = handle.snapshot()
            report = handle.extraction.report
            outcome.info.update({
                "rows": relations.rows,
                "condensed_edges": report.condensed_edges,
                "virtual_nodes": report.virtual_nodes,
                "vertices": csr.n,
                "csr_edges": csr.num_edges,
                "catalogue": len(catalogue),
                "clients": self.clients,
                "writes": f"1 in {self.write_every} operations",
            })
            address = server.server_address[:2]
            epochs = _Epochs()
            phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
            results: dict[bool, tuple[list[_Record], float, dict, dict]] = {}
            for traced, length in phases:
                if traced:
                    _install_service_tracing(tracer)
                try:
                    results[traced] = self._phase(
                        address, catalogue, streams, epochs, length,
                        tracer if traced else None, outcome,
                    )
                finally:
                    if traced:
                        tracer.restore()
        finally:
            while running:
                _stop(*running.pop())

        records, elapsed, _, _ = results[False]
        ok = [r for r in records if r.status == 200]
        reads = [r.round_trip * 1000.0 for r in ok if r.kind == "read"]
        writes = [r.round_trip * 1000.0 for r in ok if r.kind == "write"]
        read_tail, percentile, samples = tail(reads)
        outcome.metrics.update({
            "job_s_p50": (p50([r.round_trip for r in ok]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "read_ms_p50": (p50(reads), "ms"),
            "read_ms_tail": (read_tail, "ms"),
            "write_ms_p50": (p50(writes), "ms"),
            "ops_per_s": (len(ok) / elapsed, "ops/s"),
        })
        hits = sum(1 for r in ok if r.kind == "read" and r.cache["misses"] == 0)
        outcome.info.update({
            "reads": len(reads),
            "writes_sent": len(writes),
            "hit_ratio": round(hits / len(reads), 4) if reads else 0.0,
            "read_ms_tail": f"p{percentile:.1f} of {samples} reads",
        })
        if tracer is not None:
            traced_records, _, before, after = results[True]
            ops = [r.op for r in traced_records]
            layers = layer_metrics(
                tracer, ops, [f"setup{i}" for i in range(SETUPS_SERVE)],
                {r.op: r.wall for r in traced_records},
            )
            layers["graph.kernel.csr_edges"] = (csr.num_edges, "count")
            layers["graph.kernel.expansion_ratio"] = (
                csr.num_edges / report.condensed_edges, "ratio")
            from repro.graph.analysis import representation_stats

            layers["graph.estimated_bytes"] = (
                representation_stats(handle.graph).estimated_bytes, "bytes")
            layers["graph.snapshot_store.bytes_written"] = (0, "bytes")
            layers.update(_service_layers(tracer, traced_records, before, after))
            traced_reads = [
                r.round_trip for r in traced_records if r.kind == "read" and r.status == 200
            ]
            untraced_reads = [r.round_trip for r in ok if r.kind == "read"]
            layers["trace.overhead"] = (p50(traced_reads) / p50(untraced_reads) - 1.0, "ratio")
            outcome.metrics = layers
            outcome.info["engines"] = engines(tracer)
            outcome.tracer = tracer
        return outcome

    def _phase(self, address, catalogue, streams, epochs, length, tracer, outcome):
        """One closed-loop phase of ``length`` seconds; returns the records,
        the elapsed time and ``/stats`` before and after."""
        before = _get(address, "/stats")
        records: list[_Record] = []
        errors: list[str] = []
        started = time.perf_counter()
        deadline = started + length
        threads = [
            threading.Thread(
                target=_client,
                args=("t" if tracer else "u", address, client, catalogue, streams[client],
                      epochs, deadline, tracer, records, errors),
            )
            for client in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        after = _get(address, "/stats")

        outcome.attempted += len(records) + len(errors)
        for error in errors:
            outcome.fail(error)
        for record in records:
            if record.status != 200:
                outcome.fail(f"{record.op}: HTTP {record.status}")
        sent = sum(1 for r in records if r.kind == "read") + sum(
            1 for e in errors if e.startswith("read")
        )
        counted = after["admission"]["requests"] - before["admission"]["requests"]
        if counted != sent:
            outcome.fail(f"/stats counted {counted} analyze requests, {sent} were sent")
        _check_hits(records, outcome)
        return records, elapsed, before, after


def _client(phase, address, client, catalogue, stream, epochs, deadline, tracer, records, errors):
    connection = http.client.HTTPConnection(*address, timeout=60)
    count = 0
    try:
        while time.perf_counter() < deadline:
            kind, argument = next(stream)
            op = f"{phase}c{client}-{count}"
            count += 1
            if kind == "read":
                name, params = catalogue[argument]
                path, body = "/analyze", {"algorithm": name, "params": params}
            else:
                path, body = "/edges", {"source": argument[0], "target": argument[1]}
                argument = None
            data = json.dumps(body).encode("utf-8")
            if kind == "write":
                with epochs.lock:
                    epochs.started += 1
            first = epochs.snapshot()
            started = time.perf_counter()
            scope = tracer.op(op) if tracer else nullcontext()
            request = tracer.span("client.request") if tracer else nullcontext()
            try:
                with scope, request as span:
                    headers = {"Content-Type": "application/json"}
                    if span is not None:
                        headers["X-Bench-Op"] = f"{op} {span.id}"
                    connection.request("POST", path, data, headers)
                    response = connection.getresponse()
                    raw = response.read()
                    round_trip = time.perf_counter() - started
                    payload = json.loads(raw)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                errors.append(f"{kind} {op}: {type(exc).__name__}: {exc}")
                return
            wall = time.perf_counter() - started
            if kind == "write":
                with epochs.lock:
                    epochs.done += 1
            last = epochs.snapshot()
            clean = first[0] == first[1] == last[0] == last[1]
            record = _Record(op, kind, argument, response.status, round_trip, wall,
                             first[1] if clean else None)
            if kind == "read" and response.status == 200:
                record.cache = payload["cache"]
                record.digest = hashlib.sha256(
                    json.dumps(payload["results"][0]["values"]).encode("utf-8")
                ).digest()
            records.append(record)
    finally:
        connection.close()


def _check_hits(records: list[_Record], outcome: Outcome) -> None:
    """Every read equals the miss that filled its cache entry in the same
    epoch (reads that overlapped a write have no epoch and are skipped)."""
    filled: dict[tuple[int, int], _Record] = {}
    for record in records:
        if record.kind == "read" and record.status == 200 and record.epoch is not None:
            if record.cache["misses"]:
                filled.setdefault((record.epoch, record.key), record)
    checked = 0
    for record in records:
        if record.kind != "read" or record.status != 200 or record.epoch is None:
            continue
        fill = filled.get((record.epoch, record.key))
        if fill is None or fill is record:
            continue
        checked += 1
        if record.digest != fill.digest:
            outcome.fail(f"{record.op}: response differs from {fill.op}, which filled the cache")
    outcome.info["reads_checked"] = outcome.info.get("reads_checked", 0) + checked


def _get(address, path: str) -> dict:
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _stop(server, thread, service) -> None:
    server.shutdown()
    server.server_close()
    thread.join()
    service.close()


def _install_service_tracing(tracer: Tracer) -> None:
    import repro.service.http as http_layer
    from repro.service.app import GraphService

    install_tracing(tracer)
    handle_post = http_layer.GraphServiceHandler.do_POST

    def do_post(handler):
        op, _, parent = (handler.headers.get("X-Bench-Op") or "").partition(" ")
        with tracer.op(op or None, int(parent) if parent else None):
            with tracer.span("service.http.handle"):
                handle_post(handler)

    tracer.patch(http_layer.GraphServiceHandler, "do_POST", do_post)
    tracer.wrap(
        GraphService, "analyze", "service.app.analyze",
        lambda report, *_: {"misses": report.cache["misses"]},
    )
    tracer.wrap(GraphService, "add_edge", "service.app.add_edge")
    tracer.wrap(http_layer, "encode_report", "service.codec.encode_report")
    tracer.wrap(http_layer, "dumps", "service.codec.dumps")


def _service_layers(tracer, records, before, after) -> dict[str, tuple[float, str]]:
    per_op = by_op(tracer.spans, [r.op for r in records])
    hit, miss, add_edge, codec, overhead = [], [], [], [], []
    for record in records:
        group = per_op[record.op]
        if record.kind == "write":
            add_edge.extend(s.seconds * 1000.0 for s in group if s.name == "service.app.add_edge")
            continue
        app = [s for s in group if s.name == "service.app.analyze"]
        if not app or record.status != 200:
            continue
        (miss if app[0].attrs["misses"] else hit).append(app[0].seconds * 1000.0)
        encode = sum(s.seconds for s in group if s.name.startswith("service.codec."))
        codec.append(encode * 1000.0)
        overhead.append((record.round_trip - app[0].seconds - encode) * 1000.0)
    cache = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("hits", "misses", "invalidations")
    }
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.app.hit_ms_p50": (p50(hit), "ms"),
        "service.app.miss_ms_p50": (p50(miss), "ms"),
        "service.app.add_edge_ms_p50": (p50(add_edge), "ms"),
        "service.codec.encode_ms_p50": (p50(codec), "ms"),
        "service.http.overhead_ms_p50": (p50(overhead), "ms"),
        "service.cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "service.cache.invalidations": (cache["invalidations"], "count"),
        "service.admission.rejected": (
            after["admission"]["rejected"] - before["admission"]["rejected"], "count"),
    }
