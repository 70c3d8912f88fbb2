"""Alternating parent/change runs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent REV --pr N [--seed 11]

Extracts revision ``REV`` and ``HEAD`` with ``git archive`` into two new
temporary directories, then runs ``python3 perfbench/run.py --workload W
--seed S --trace 0`` (the benchmark's own run length) in each, alternately,
ten times per workload, for every workload that ``BENCHMARK.json``
lists.  Both sides run from their committed files alone, so neither sees
uncommitted edits or a bytecode cache the other lacks.  Both runs of a pair use the same seed (``--seed``
plus the pair's index), and the side that runs first swaps from pair to
pair, so a drift in the machine's speed falls on both sides alike.  The
result goes to ``BENCH_<N>.json`` at the repository root: the commits,
the interpreter, the machine, the value of ``PYTHONDONTWRITEBYTECODE``
(set, each run compiles the package from source, which ``setup_s``
measures), each run's ``correct``/``failed`` and
end-to-end metrics, per workload and side the median and interquartile
range of every metric, and per workload and end-to-end metric the number
of pairs the change won (was strictly better in, in the direction
``BENCHMARK.json`` gives as ``better``) and the no-regression verdict: the
relative change of the medians and whether it is worse than the metric's
``bound``.  The metrics worse than their bound are printed at the end and
listed under ``worse_than_bound``.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")
PAIRS = 10  # a gain counts only if the change wins nine pairs of ten


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(revision: str, tree: Path) -> None:
    """Write the committed files of ``revision`` into the new directory ``tree``."""
    archive = tree.with_suffix(".tar")
    with archive.open("wb") as handle:
        subprocess.run(["git", "archive", revision], cwd=ROOT, check=True, stdout=handle)
    # the "data" filter exists from Python 3.10.12 and 3.11.4; the archive
    # is the local repository's own, so older interpreters extract it as is
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(tree, **safe)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int) -> dict[str, Any]:
    """One benchmark run in ``tree``: its last stdout line, parsed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict[str, float]:
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "iqr": 0.0}
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": high - low}


def workloads() -> list[str]:
    """The names of the workloads in ``BENCHMARK.json``, in its order."""
    return [entry["name"] for entry in json.loads(BENCHMARK.read_text())["workloads"]]


def end_to_end() -> dict[str, dict[str, Any]]:
    """Each end-to-end metric of ``BENCHMARK.json`` with its entry, which
    gives ``better`` (the better direction) and ``bound``."""
    spec = json.loads(BENCHMARK.read_text())
    return {entry["name"]: entry for entry in spec["end_to_end"]}


def pairs_won(runs: list[dict[str, Any]], better: dict[str, str]) -> dict[str, int]:
    """Per metric, the number of pairs whose change run beat the parent run."""
    metrics = {(run["pair"], run["side"]): run["metrics"] for run in runs}
    won = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        won[name] = sum(
            sign * (metrics[pair, "change"][name] - metrics[pair, "parent"][name]) > 0
            for pair in range(PAIRS)
        )
    return won


def verdict(
    sides: dict[str, dict[str, dict[str, float]]], metrics: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Per end-to-end metric, ``relative_change``, the change's median over
    the parent's less one, and ``worse_than_bound``: whether it is worse,
    in the metric's ``better`` direction, by more than its ``bound``."""
    out = {}
    for name, entry in metrics.items():
        relative = sides["change"][name]["median"] / sides["parent"][name]["median"] - 1
        worse = -relative if entry["better"] == "higher" else relative
        out[name] = {"relative_change": relative, "worse_than_bound": worse > entry["bound"]}
    return out


def machine() -> dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"system": platform.platform(), "cpu": cpu, "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"

    record: dict[str, Any] = {
        "pr": args.pr,
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "machine": machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "pairs": PAIRS,
        "workloads": {},
    }
    metrics = end_to_end()
    better = {name: entry["better"] for name, entry in metrics.items()}
    flagged = []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            extract(record[side], trees[side])
        for workload in workloads():
            runs = []
            for pair in range(PAIRS):
                seed = args.seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, seed)
                    runs.append({"pair": pair, "seed": seed, "side": side, **result})
                    print(workload, pair, side, json.dumps(result["metrics"]), flush=True)
            sides = {}
            for side in SIDES:
                mine = [run for run in runs if run["side"] == side]
                sides[side] = {
                    name: summary([run["metrics"][name] for run in mine])
                    for name in mine[0]["metrics"]
                }
            won = pairs_won(runs, better)
            checked = verdict(sides, metrics)
            flagged += [f"{workload}.{name}" for name, v in checked.items() if v["worse_than_bound"]]
            print(workload, "pairs won by the change:", json.dumps(won), flush=True)
            record["workloads"][workload] = {
                **sides, "pairs_won": won, "verdict": checked, "runs": runs,
            }
    record["worse_than_bound"] = flagged
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("worse than their bound:", ", ".join(flagged) if flagged else "none")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
