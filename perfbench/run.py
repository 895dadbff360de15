"""The repository benchmark: relational rows to HTTP, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload extract --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in a fresh process, so its peak memory is
its own.  Inputs are generated from ``--seed``; the program under ``src/`` is
driven only through its public API.  With ``--trace 0`` the last line of
standard output is a JSON object whose metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, measured
by wrapping the public call each layer receives.  Set-ups and batch jobs are
timed at a reference CPU speed (``speed.py``), because the shared host's own
speed drifts over minutes.  Earlier lines describe the input, the
environment and any failed check.  A failed check makes ``correct`` false.
Traced runs write their spans to ``.perfbench_out/``.

Workloads (see README.md in this directory for why each exists):

* ``extract``: a 60k-row co-occurrence self-join; extraction dominates.
* ``analyze``: a small three-join chain hiding a 41x larger graph; kernels
  dominate.
* ``analyze_pool``: ``analyze`` at parallelism 2 with a snapshot cache, the
  only workload on the worker pool and the snapshot store.
* ``serve``: ``GraphService`` over loopback HTTP, 2 keep-alive clients in a
  closed loop, 98% cached-or-not reads and 2% edge writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

import inputs  # noqa: E402
from serve import Serve  # noqa: E402
from workloads import Batch  # noqa: E402

#: the analyze input: the paper's Layered_1 shape at 600 entities, 512 of
#: them joined, which hides a near-clique of about 262k CSR edges
LAYERED = dict(entities=600, covered=512, rows_a=1200, rows_b=2000,
               selectivity_outer=0.05, selectivity_inner=0.10)


def _layered(seed: int) -> inputs.Relations:
    return inputs.layered(seed, **LAYERED)


def _full_plan(handle, relations: inputs.Relations):
    # a BFS source the join reaches, not one of the isolated entities
    joined = relations.tables["A"][1]
    return (
        handle.analyze()
        .pagerank().components().kcore().triangles().label_propagation()
        .diameter(samples=16).betweenness(sample_size=16)
        .bfs(source=joined[len(joined) // 2][1])
    )


WORKLOADS = {
    "extract": Batch(
        relations=lambda seed: inputs.cooccurrence(
            seed, entities=12000, groups=7500, mean_group=8
        ),
        plan=lambda handle, relations: handle.analyze().degree().components(),
    ),
    "analyze": Batch(relations=_layered, plan=_full_plan),
    "analyze_pool": Batch(
        relations=_layered, plan=_full_plan, parallelism=2, snapshot_cache=True
    ),
    "serve": Serve(entities=3000, groups=2500, mean_group=8, clients=2, write_every=50),
}


def fingerprint() -> dict:
    from repro.graph.backend import get_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": get_backend().name,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as loose:
                return loose.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        declared = json.load(spec)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = declared_metrics(bool(args.trace))
    os.makedirs(OUT, exist_ok=True)

    outcome = WORKLOADS[args.workload].run(args.seed, args.seconds, bool(args.trace), OUT)
    environment = fingerprint()
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("input: " + json.dumps(outcome.info))
    print("environment: " + json.dumps(environment))
    print(f"error_rate: {outcome.failed / max(1, outcome.attempted)} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    if outcome.tracer is not None:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        outcome.tracer.dump(path, {"workload": args.workload, "seed": args.seed, **environment})
        print(f"spans: {path}")

    wrong = [
        name for name, unit in names.items()
        if name not in outcome.metrics or outcome.metrics[name][1] != unit
    ]
    if wrong:
        print(f"error: metrics missing or in another unit: {wrong}", file=sys.stderr)
        return 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
