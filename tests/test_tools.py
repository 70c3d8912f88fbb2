"""The repository's own measuring scripts under ``tools/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class Box:
    """Class docstring."""

    size = 1

    def grow(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is not a docstring"""
        return text

    async def wait(self):
        """Async docstring."""
        return os.sep
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    code_lines = load("code_lines").code_lines
    # counted: import, class, size, def grow, text, return, async def, return
    assert code_lines(SOURCE) == 8
    assert code_lines('def f():\n    """Only a docstring."""\n') == 1


def test_bench_pairs_runs_every_workload_of_the_benchmark():
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    assert load("bench_pairs").workloads() == [entry["name"] for entry in spec["workloads"]]


def test_summary_gives_the_median_and_the_inclusive_interquartile_range():
    summary = load("bench_pairs").summary
    assert summary([3.0]) == {"median": 3.0, "iqr": 0.0}
    # inclusive quartiles of 1..5 are 2 and 4
    assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "iqr": 2.0}
    assert summary([1.0, 2.0]) == {"median": 1.5, "iqr": 0.5}


def test_pairs_won_counts_strict_wins_in_each_metric_direction():
    bench_pairs = load("bench_pairs")
    runs = []
    for pair in range(bench_pairs.PAIRS):
        # the change is faster in the first seven pairs, tied in the rest,
        # and uses more memory in every pair
        speed = {"parent": 10.0, "change": 11.0 if pair < 7 else 10.0}
        for side in bench_pairs.SIDES:
            metrics = {"ops_per_s": speed[side], "peak_rss_mb": 20.0 + (side == "change")}
            runs.append({"pair": pair, "side": side, "metrics": metrics})
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
    assert bench_pairs.pairs_won(runs, better) == {"ops_per_s": 7, "peak_rss_mb": 0}


def test_verdict_flags_a_metric_worse_than_its_bound():
    bench_pairs = load("bench_pairs")
    runs = []
    for pair in range(bench_pairs.PAIRS):
        # the change is 30% slower and uses 20% more memory in every pair
        for side, slower, larger in [("parent", 1.0, 1.0), ("change", 0.7, 1.2)]:
            metrics = {"ops_per_s": 100.0 * slower, "peak_rss_mb": 50.0 * larger}
            runs.append({"pair": pair, "side": side, "metrics": metrics})
    sides = {
        side: {
            name: bench_pairs.summary([r["metrics"][name] for r in runs if r["side"] == side])
            for name in ("ops_per_s", "peak_rss_mb")
        }
        for side in bench_pairs.SIDES
    }
    metrics = {
        "ops_per_s": {"better": "higher", "bound": 0.25},
        "peak_rss_mb": {"better": "lower", "bound": 0.25},
    }
    checked = bench_pairs.verdict(sides, metrics)
    assert checked["ops_per_s"]["worse_than_bound"]
    assert checked["ops_per_s"]["relative_change"] == pytest.approx(-0.3)
    assert not checked["peak_rss_mb"]["worse_than_bound"]
    assert checked["peak_rss_mb"]["relative_change"] == pytest.approx(0.2)


def test_verdict_reads_the_direction_and_bound_of_every_benchmark_metric():
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    metrics = load("bench_pairs").end_to_end()
    assert list(metrics) == [entry["name"] for entry in spec["end_to_end"]]
    assert all({"better", "bound"} <= set(entry) for entry in metrics.values())


SAMPLE = '''def reached(x):
    """Docstring,
    over two lines."""
    if x > 0:
        return x + 1
    return -x


def unreached():
    global STATE
    STATE = 1
    return STATE
'''

SAMPLE_TEST = '''import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "lib"))

from sample import reached


def test_reached():
    assert reached(1) == 2
'''


def test_unreached_lines_prints_the_body_statements_no_test_ran(tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "sample.py").write_text(SAMPLE)
    (tmp_path / "test_sample.py").write_text(SAMPLE_TEST)
    tool = str(TOOLS / "unreached_lines.py")
    pytest_args = [str(tmp_path / "test_sample.py"), "-q", "-p", "no:cacheprovider"]
    out = subprocess.run(
        [sys.executable, tool, str(tmp_path / "lib"), *pytest_args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert "1 passed" in out.stderr
    # docstrings, the def lines and the global statement are not reported
    assert out.stdout.splitlines() == [
        "sample.py:6 return -x",
        "sample.py:11 STATE = 1",
        "sample.py:12 return STATE",
        "3 unreached statements",
    ]
