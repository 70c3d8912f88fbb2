"""Benchmark of the enriques package, one workload per run.

    python3 perfbench/run.py --workload verify|sweep|large --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``enriques`` from
``src/`` and nowhere else, and exits with code 2 when that is missing.
Each workload is a closed loop: one caller in one thread sends the next op
when the previous one has returned.  Every op's outputs are checked
(``workloads.check_op``); a raised or failed op counts in ``failed``.

``--trace 0`` times the workload untraced for ``--seconds`` in whole
passes over its ops and prints the end-to-end metrics, in reference
seconds: each timing divided by the machine's speed when it was taken
(``calibrate.py``).  ``--trace 1`` runs
one untraced and one traced pass in each of two fresh processes, fails
unless their exact counts agree, and prints the per-layer metrics.  The
last stdout line is the JSON result; the lines before it are a readable
summary.  A fuller record, and the traced spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Timeline  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, check_op, gate_selftest_ops, make_ops, run_op  # noqa: E402

# Percentile of the per-op median latencies reported as op_tail_ms, fixed per
# workload so that commits stay comparable: the highest that leaves at least
# ten ops beyond it (1,835 sweep ops, 100 large ops).  The 10 verify ops
# leave ten beyond no percentile; p80 leaves two.
TAIL_PERCENTILE = {"verify": 80.0, "sweep": 99.0, "large": 90.0}
CHILD_TIMEOUT_S = 85
# op time between two calibration kernel calls, and the calls on each
# side of a set-up
CALIBRATE_EVERY_S = 0.05
NEIGHBOURS_OF_SETUP = 2
EXIT_NO_SOURCES = 2


class SourcesMissing(Exception):
    pass


def import_enriques() -> Any:
    """Import ``enriques`` afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "enriques" or n.startswith("enriques.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("enriques")
        importlib.import_module("enriques.cli")
    except ImportError as exc:
        raise SourcesMissing(f"cannot import enriques from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise SourcesMissing(f"enriques was imported from {package.__file__}, not {SRC}")
    return package


def setup(workload: str, seed: int) -> tuple[float, Any, list]:
    """Import the package and build the workload's ops; returns the time taken."""
    started = time.perf_counter()
    E = import_enriques()
    ops = make_ops(E, workload, seed, ROOT)
    return time.perf_counter() - started, E, ops


@dataclass
class Pass:
    """One pass over the ops: each op's start and latency, in op order, and
    the failures."""

    starts: list[float]
    latencies: list[float]
    seconds: float
    failures: list[str]


def run_pass(
    E: Any,
    ops: list,
    order: list[int],
    tracer: Tracer | None = None,
    timeline: Timeline | None = None,
) -> Pass:
    starts = [0.0] * len(ops)
    latencies = [0.0] * len(ops)
    failures = []
    started = time.perf_counter()
    for i in order:
        span = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        try:
            result = run_op(E, ops[i])
            problems = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"raised {type(exc).__name__}: {exc}"]
        starts[i] = t0
        latencies[i] = time.perf_counter() - t0
        if timeline:
            timeline.tick(latencies[i])
        if tracer:
            tracer.end_op(span)
        if problems is None:
            problems = check_op(E, ops[i], result)
        if problems:
            failures.append(f"{describe(ops[i])}: {'; '.join(problems)}")
    return Pass(starts, latencies, time.perf_counter() - started, failures)


def describe(op: Any) -> str:
    if op.argv:
        return " ".join(op.argv)
    return f"{op.kind} {op.spec.k},{op.spec.l},{op.spec.p},{op.spec.q}"


def gate_selftest(E: Any) -> bool:
    """True when the gate counts both deliberately wrong ops as failed."""
    for op in gate_selftest_ops(E):
        try:
            if not check_op(E, op, run_op(E, op)):
                return False
        except Exception:  # raising also counts as a failed op
            pass
    return True


def percentile(ordered: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, with the count beyond it."""
    rank = max(1, ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(
    workload: str, passes: list[Pass], timeline: Timeline
) -> tuple[dict[str, float], dict[str, Any]]:
    """Metrics from each op's median latency over the passes, in reference
    seconds.

    A shared machine's speed drifts by tens of percent within a run and
    between runs.  Dividing each latency by the calibration kernel's time
    around it cancels that drift: on thirteen 10 s windows of ``verify``
    the spread of ``ops_per_s`` fell from 0.23 (per-op best wall times) to
    0.03 (per-op median reference times).
    """
    per_op = list(zip(*(p.latencies for p in passes)))
    normalised = [
        [timeline.normalise(p.starts[i], p.latencies[i]) for p in passes]
        for i in range(len(per_op))
    ]
    medians = sorted(statistics.median(latencies) for latencies in normalised)
    p50, _ = percentile(medians, 50)
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(medians, pct)
    metrics = {
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": p50 * 1000,
        "op_tail_ms": tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(len(latencies) for latencies in per_op)
    failed = sum(len(p.failures) for p in passes)
    details = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "tail_percentile": pct,
        "ops_beyond_tail": beyond,
        "pass_times_s": [p.seconds for p in passes],
        "op_latencies_s": per_op,
        "op_reference_latencies_s": normalised,
        "kernel_times_s": timeline.seconds,
        "reference_kernel_s": REFERENCE_S,
        "ops_per_s_wall": attempted / sum(p.seconds for p in passes),
    }
    return metrics, details


def metadata(workload: str, seed: int) -> dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "enriques").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared(kind: str) -> list[dict[str, str]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def select(metrics: dict[str, float], kind: str) -> dict[str, dict[str, Any]]:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared(kind)}


def save(name: str, record: dict[str, Any]) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")


def untraced_main(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """Whole passes until ``seconds`` have gone (at least one), each after a
    fresh set-up; the first pass keeps the seeded op order, later ones
    reshuffle it."""
    rng = random.Random(seed)
    timeline = Timeline(CALIBRATE_EVERY_S)
    setups: list[tuple[float, float]] = []
    passes: list[Pass] = []
    order: list[int] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        for _ in range(NEIGHBOURS_OF_SETUP):
            timeline.calibrate()
        setup_started = time.perf_counter()
        elapsed, E, ops = setup(workload, seed)
        setups.append((setup_started, elapsed))
        for _ in range(NEIGHBOURS_OF_SETUP):
            timeline.calibrate()
        if passes:
            rng.shuffle(order)
        else:
            order = list(range(len(ops)))
        passes.append(run_pass(E, ops, order, timeline=timeline))
    metrics, details = end_to_end(workload, passes, timeline)
    setup_times = [timeline.normalise(start, elapsed) for start, elapsed in setups]
    metrics["setup_s"] = statistics.median(setup_times)
    details["setup_wall_s"] = [elapsed for _, elapsed in setups]
    failures = [f for p in passes for f in p.failures]
    gate_ok = gate_selftest(E)
    meta = metadata(workload, seed)
    print(
        f"{workload} seed {seed}: {len(ops)} ops x {len(passes)} passes, "
        f"{details['attempted']} attempted, {details['failed']} failed, "
        f"gate self-test {'ok' if gate_ok else 'FAILED'}"
    )
    print(
        f"op_tail_ms is p{details['tail_percentile']:g} of the {len(ops)} ops' median latencies, "
        f"{details['ops_beyond_tail']} ops beyond it"
    )
    for name, value in select(metrics, "end_to_end").items():
        print(f"  {name} {value['value']:.6g} {value['unit']}")
    print(f"  error_rate {details['error_rate']:.6g} ratio")
    print(
        f"times are in reference seconds: the calibration kernel took a median "
        f"{statistics.median(timeline.seconds) * 1000:.3g} ms here against "
        f"{REFERENCE_S * 1000:g} ms; wall-clock ops_per_s {details['ops_per_s_wall']:.6g}"
    )
    print(f"run on {meta['cpu']}, nproc {meta['nproc']}, Python {meta['python']}, commit {meta['commit']}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    save(
        f"{workload}-seed{seed}-trace0.json",
        {"meta": meta, "metrics": metrics, "details": details, "setup_times_s": setup_times,
         "failures": failures, "gate_selftest_ok": gate_ok},
    )
    return {
        "correct": not failures and gate_ok,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": select(metrics, "end_to_end"),
    }


def child_main(workload: str, seed: int, child: int) -> dict[str, Any]:
    """One fresh process of a traced run: an untraced pass, then a traced one."""
    _, E, ops = setup(workload, seed)
    order = list(range(len(ops)))
    plain = run_pass(E, ops, order)
    tracer = Tracer()
    tracer.install(E)
    traced = run_pass(E, ops, order, tracer)
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_ops_per_s"] = len(ops) / plain.seconds
    metrics["trace.traced_ops_per_s"] = len(ops) / traced.seconds
    metrics["trace.slowdown"] = traced.seconds / plain.seconds
    tracer.write_spans(OUT / f"{workload}-seed{seed}-child{child}.spans.csv.gz")
    return {
        "metrics": metrics,
        "attempted": 2 * len(ops),
        "failures": plain.failures + traced.failures,
        "gate_ok": gate_selftest(E),
    }


def traced_main(workload: str, seed: int) -> dict[str, Any]:
    children = []
    for child in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--child", str(child)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        children.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = (c["metrics"] for c in children)
    # exact counts must repeat between the two processes
    exact = [m["name"] for m in declared("per_layer") if m["unit"] in ("count", "bytes")]
    differ = [name for name in exact if first[name] != second[name]]
    metrics = {
        name: value if name in exact else (value + second[name]) / 2
        for name, value in first.items()
    }
    gate_ok = all(c["gate_ok"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    failed = len(failures)
    print(
        f"{workload} seed {seed} traced in two processes: {attempted} attempted, {failed} failed, "
        f"gate self-test {'ok' if gate_ok else 'FAILED'}, "
        f"exact counts {'repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}"
    )
    for name, value in sorted(select(metrics, "per_layer").items()):
        print(f"  {name} {value['value']:.6g} {value['unit']}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    save(
        f"{workload}-seed{seed}-trace1.json",
        {"meta": metadata(workload, seed), "metrics": metrics, "counts_differ": differ,
         "failures": failures, "gate_selftest_ok": gate_ok},
    )
    return {
        "correct": failed == 0 and gate_ok and not differ,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, "per_layer"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            result = child_main(args.workload, args.seed, args.child)
        elif args.trace:
            result = traced_main(args.workload, args.seed)
        else:
            result = untraced_main(args.workload, args.seed, args.seconds)
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOURCES
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
