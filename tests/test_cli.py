"""Command line interface: golden outputs, exit codes, round trips."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import enriques.cli
import enriques.jump
from enriques import (
    EnumerationLimitError,
    MaximalityReport,
    QuasihomogeneousSpec,
    construct_adjacent_diagram,
    diagram_from_json,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    enumerate_minimal_diagrams,
    minimal_diagram,
    verify_maximality,
)
from enriques.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden(name):
    return (GOLDEN / name).read_text()


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def test_diagram_text_golden(capsys):
    code, out, _ = invoke(capsys, "diagram", "--minimal", "x^6+y^9")
    assert code == 0
    assert out == golden("x6y9_minimal.txt")


def test_diagram_json_golden(capsys):
    code, out, _ = invoke(capsys, "diagram", "--minimal", "--format", "json", "x^6+y^9")
    assert code == 0
    assert out == golden("x6y9_minimal.json")


def test_diagram_dot_golden(capsys):
    code, out, _ = invoke(capsys, "diagram", "--minimal", "--format", "dot", "x^6+y^9")
    assert code == 0
    assert out == golden("x6y9_minimal.dot")


def test_adjacent_diagram_goldens():
    e = construct_adjacent_diagram(minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9)))
    assert diagram_to_text(e) == golden("x6y9_adjacent.txt")
    assert diagram_to_json(e) == golden("x6y9_adjacent.json")
    assert diagram_to_dot(e) == golden("x6y9_adjacent.dot")


def test_jump_text_golden(capsys):
    code, out, _ = invoke(capsys, "jump", "x^6+y^9")
    assert code == 0
    assert out == golden("jump_x6y9.txt")


def test_jump_json_golden(capsys):
    code, out, _ = invoke(capsys, "jump", "--format", "json", "x^6+y^9")
    assert code == 0
    assert out == golden("jump_x6y9.json")


def test_json_round_trip_of_goldens():
    for name in ("x6y9_minimal.json", "x6y9_adjacent.json"):
        text = golden(name)
        assert diagram_to_json(diagram_from_json(text)) == text


def test_numeric_and_polynomial_specs_agree(capsys):
    _, from_poly, _ = invoke(capsys, "diagram", "--minimal", "x^6+y^9")
    _, from_tuple, _ = invoke(capsys, "diagram", "--minimal", "0,0,6,9")
    assert from_poly == from_tuple


# ---------------------------------------------------------------------------
# remaining commands
# ---------------------------------------------------------------------------

def test_info_output(capsys):
    code, out, _ = invoke(capsys, "info", "x^6+y^9")
    assert code == 0
    assert out == (
        "spec 0,0,6,9\n"
        "polynomial x^6+y^9\n"
        "d_tilde 3\n"
        "r 2\n"
        "s 3\n"
        "d 3\n"
        "t 3\n"
        "w 2\n"
        "w_x 3\n"
        "w_y 2\n"
        "W 18\n"
        "mu 40\n"
    )


def test_info_on_a_huge_exponent(capsys):
    # the chain length is read off the partial quotients; no diagram is built
    code, out, _ = invoke(capsys, "info", "0,0,2,2000000000001")
    assert code == 0
    assert "t 1000000000002\n" in out
    assert out.endswith("mu 2000000000000\n")


@pytest.mark.timed
def test_huge_germs_are_refused_before_they_are_built(capsys):
    # each command is bounded by what it builds: mu the complete diagram,
    # diagram and jump the minimal chain, about 10^12 vertices either way;
    # the bound is checked before the Euclid walk allocates any of them
    start = time.perf_counter()
    for command, size in (("mu", 1000000000003), ("diagram", 1000000000002),
                          ("jump", 1000000000002)):
        code, out, err = invoke(capsys, command, "0,0,2,2000000000001")
        assert (code, out) == (1, ""), command
        assert f"{size} vertices" in err and "100000" in err
    assert time.perf_counter() - start < 5
    assert invoke(capsys, "info", "0,0,2,2000000000001")[0] == 0


@pytest.mark.timed
def test_a_huge_adjacent_diagram_is_refused_before_it_is_built(capsys):
    # the minimal diagram is one vertex of weight 10^7; its E_D would add
    # a run of 10^7 - 2 vertices
    start = time.perf_counter()
    for command in ("jump", "verify"):
        code, out, err = invoke(capsys, command, "0,0,10000000,10000000")
        assert (code, out) == (1, ""), command
        assert "E_D would have 9999999 vertices" in err and "100000" in err
    assert time.perf_counter() - start < 5


def test_mu_with_oracle_check(capsys):
    code, out, _ = invoke(capsys, "mu", "--check", "0,0,2,3")
    assert code == 0
    assert out == "2\noracle 2 match\n"


def test_mu_check_reports_a_mismatch_with_exit_1(capsys, monkeypatch):
    # an oracle one above the diagram's Milnor number
    monkeypatch.setattr(enriques.cli, "milnor_orlik", lambda spec: 3)
    code, out, _ = invoke(capsys, "mu", "--check", "0,0,2,3")
    assert (code, out) == (1, "2\noracle 3 MISMATCH\n")


def test_diagram_complete_flag(capsys):
    code, out, _ = invoke(capsys, "diagram", "--complete", "0,0,2,3")
    assert code == 0
    # the complete cusp cluster keeps its free weight-1 tail
    assert out == (
        "0 w=2 root\n"
        "  1 w=1 free\n"
        "    2 w=1 satellite prox=[1,0]\n"
        "      3 w=1 free\n"
    )


def test_adjacent_yes(capsys):
    code, out, _ = invoke(capsys, "adjacent", "x^2+y^3", "x^2+y^2")
    assert code == 0
    assert out == (
        "Yes extra_vertex_bound=1\n"
        "representative:\n"
        "  0 w=2 root\n"
        "    1 w=1 free\n"
        "      2 w=1 satellite prox=[1,0]\n"
        "witness embedding [[0, 0]]\n"
        "witness kappa [2]\n"
        "witness ord_nu [2]\n"
        "witness ord_kappa [2]\n"
    )


def test_adjacent_no_up_to_bound(capsys):
    code, out, _ = invoke(capsys, "adjacent", "x^2+y^2", "x^2+y^3")
    assert code == 0
    assert out == "NoUpToBound extra_vertex_bound=3\n"


def test_adjacent_explicit_bound(capsys):
    code, out, _ = invoke(capsys, "adjacent", "x^2+y^2", "x^2+y^3", "--extra-bound", "5")
    assert code == 0
    assert out == "NoUpToBound extra_vertex_bound=5\n"


def test_adjacent_outputs_are_pinned(capsys):
    # SHA-256 of stdout and exit code of `adjacent A B --extra-bound 2` over
    # every ordered pair of the 55 germs with q <= 5, recorded at e33fd9b
    germs = [
        f"{k},{l},{p},{q}"
        for p in range(1, 6)
        for q in range(p, 6)
        for k in (0, 1)
        for l in (0, 1)
        if k + l + p >= 2
    ]
    assert len(germs) == 55
    digest = hashlib.sha256()
    yes = 0
    for source in germs:
        for target in germs:
            code, out, _ = invoke(capsys, "adjacent", source, target, "--extra-bound", "2")
            yes += out.startswith("Yes")
            digest.update(f"{out}exit {code}\n".encode())
    assert yes == 1381
    assert digest.hexdigest() == (
        "755eadeb12eb4caf7d368191041582b0f9ba16b9be84aeb482aca6ee2f1e6225"
    )


def test_enumerate_text(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--max-vertices", "2", "--max-weight", "2")
    assert code == 0
    assert out == "(1r)\n(2r)\n(2r(2f))\n"


def test_enumerate_json(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "--max-vertices", "2", "--max-weight", "2", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    assert rows[0] == {
        "root": 0,
        "vertices": [{"id": 0, "weight": 1, "parent": None, "proximate_to": []}],
    }


def test_verify_output(capsys):
    code, out, _ = invoke(capsys, "verify", "0,0,2,3")
    assert code == 0
    assert out == (
        "spec 0,0,2,3\n"
        "bounds max_vertices=7 max_weight=4 extra_bound=2\n"
        "mu 2\n"
        "lambda_lin 1\n"
        "threshold 1\n"
        "examined 325\n"
        "refuted 325\n"
        "attained_max_mu 1\n"
        "status verified\n"
    )


def test_verify_exits_1_at_the_candidate_cap(capsys, monkeypatch):
    monkeypatch.setattr(enriques.jump, "DEFAULT_MAX_CANDIDATES", 434)
    code, out, err = invoke(capsys, "verify", "0,0,2,3")
    assert (code, out) == (1, "")
    assert err == "error: enumeration exceeded the cap of 434 candidates\n"


# a weight bound far above the cap: 2,000,000 root weights of the lone root
# alone pass the default cap of 1,000,000 candidates
HUGE_WEIGHT = {
    "enumerate": (
        ["enumerate", "--max-vertices", "1", "--max-weight", "2000000"],
        lambda: list(enumerate_minimal_diagrams(1, 2_000_000)),
    ),
    "verify": (
        ["verify", "0,0,2,3", "--max-weight", "2000000"],
        lambda: verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3), max_weight=2_000_000),
    ),
}


@pytest.mark.parametrize("command", sorted(HUGE_WEIGHT))
def test_a_huge_weight_bound_meets_the_cap_before_it_allocates(capsys, command):
    argv, call = HUGE_WEIGHT[command]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: enumeration exceeded the cap of 1000000 candidates\n"
    # neither the root weights' tuples nor verify's table of squared root
    # weights grows with the bound before the cap is checked
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_verify_contradiction_exit_code(capsys, monkeypatch):
    # the exit-code contract for a finding is tested with a stubbed report,
    # since the bounded search finds none for any germ in range
    fake = MaximalityReport(
        spec=QuasihomogeneousSpec(0, 0, 2, 3),
        status="contradiction",
        max_vertices=7,
        max_weight=4,
        extra_bound=2,
        mu_D=2,
        lambda_lin=1,
        examined=10,
        refuted=9,
        attained_max_mu=1,
        contradictions=(("(2r(2f))", 3),),
    )
    monkeypatch.setattr(enriques.cli, "verify_maximality", lambda spec, **kw: fake)
    code, out, _ = invoke(capsys, "verify", "0,0,2,3")
    assert code == 3
    assert "contradiction (2r(2f)) mu=3\n" in out
    assert out.endswith("status contradiction\n")


def test_jump_semi_text(capsys):
    code, out, _ = invoke(capsys, "jump", "--semi", "x^6+y^9")
    assert code == 0
    assert out == golden("jump_x6y9.txt") + "semi true\n"


def test_jump_semi_json(capsys):
    code, out, _ = invoke(capsys, "jump", "--semi", "--format", "json", "x^6+y^9")
    assert code == 0
    data = json.loads(out)
    assert data["semi"] is True
    assert list(data.keys())[-1] == "semi"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_parse_error_exits_one(capsys):
    code, out, err = invoke(capsys, "info", "x^2+")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_domain_error_exits_one(capsys):
    code, _, err = invoke(capsys, "verify", "0,0,2,3", "--max-vertices", "1")
    assert code == 1
    assert "below the minimal diagram size" in err


def test_long_chain_succeeds(capsys):
    # the minimal chain of x^2+y^5001 has 2,502 vertices, deeper than the
    # interpreter's recursion limit
    code, out, err = invoke(capsys, "diagram", "--format", "json", "x^2+y^5001")
    assert code == 0, err
    assert len(json.loads(out)["vertices"]) == 2502
    for argv in (("jump", "x^2+y^5001"), ("mu", "--check", "x^2+y^5001")):
        code, _, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)


def test_large_germs_succeed(capsys):
    # the node's complete diagram has 3 vertices, the ordinary 5,000-fold
    # point's 5,001 (one root and its 5,000 free leaves)
    for spec, mu, size in (("y*(x+y^5000)", 1, 3), ("x^5000+y^5000", 24990001, 5001)):
        code, out, err = invoke(capsys, "mu", spec)
        assert (code, out) == (0, f"{mu}\n"), err
        code, out, err = invoke(capsys, "diagram", "--complete", "--format", "json", spec)
        assert code == 0, err
        assert len(json.loads(out)["vertices"]) == size
    # the adjacent diagrams grow runs of 4,997 and 2,999 satellites
    for spec, lambda_lin in (("x^5000+y^5000", 4998), ("x*y*(x^3000+y^3000)", 3000)):
        code, out, err = invoke(capsys, "jump", "--format", "json", spec)
        assert code == 0, err
        assert json.loads(out)["lambda_lin"] == lambda_lin


def test_unknown_command_exits_two(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_missing_required_option_exits_two(capsys):
    code, _, _ = invoke(capsys, "enumerate", "--max-weight", "2")
    assert code == 2


def test_conflicting_diagram_flags_exit_two(capsys):
    code, _, _ = invoke(capsys, "diagram", "--minimal", "--complete", "0,0,2,3")
    assert code == 2


def test_no_command_exits_two(capsys):
    assert invoke(capsys, )[0] == 2


PARSER_CALLS = [
    ["verify", "0,0,2,3"],
    ["verify", "not-a-germ"],
    ["frobnicate"],
    ["--help"],
    ["jump", "x^6+y^9"],
]


def test_run_reuses_one_parser_as_if_each_call_had_a_fresh_one(capsys, monkeypatch):
    reused = [invoke(capsys, *argv) for argv in PARSER_CALLS * 2]
    assert enriques.cli._parser() is enriques.cli._parser()
    monkeypatch.setattr(enriques.cli, "_parser", enriques.cli.build_parser)
    fresh = [invoke(capsys, *argv) for argv in PARSER_CALLS * 2]
    assert [code for code, _, _ in reused] == [0, 1, 2, 0, 0] * 2
    assert reused == fresh
    assert enriques.cli.build_parser() is not enriques.cli.build_parser()


def child_env():
    # a child process imports the same enriques as this one
    src = str(pathlib.Path(enriques.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "enriques.cli", "info", "0,0,2,3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0
    assert "mu 2" in out.stdout


def assert_an_early_close_exits_1_without_traceback(argv, first):
    child = subprocess.Popen(
        [sys.executable, "-m", "enriques.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert child.stdout.readline() == first
    child.stdout.close()
    assert child.stderr.read() == b""
    child.stderr.close()
    assert child.wait() == 1


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # 214 KB of keys, far more than a pipe holds, so a write fails after
    # the reader has gone
    argv = ["enumerate", "--max-vertices", "8", "--max-weight", "6"]
    assert_an_early_close_exits_1_without_traceback(argv, b"(1r)\n")


def test_a_streamed_json_report_closed_early_gets_no_traceback():
    # the jump report is written in pieces; 247 KB is more than a pipe holds
    argv = ["jump", "--format", "json", "0,0,2,999"]
    assert_an_early_close_exits_1_without_traceback(argv, b"{\n")


class ClosingReader(io.TextIOBase):
    """A stdout whose reader goes away after ``limit`` characters: a write
    past that raises BrokenPipeError.  Its descriptor is a real file's."""

    def __init__(self, limit, descriptor):
        self.left = limit
        self.descriptor = descriptor
        self.written = 0

    def write(self, text):
        if len(text) > self.left:
            raise BrokenPipeError(32, "Broken pipe")
        self.left -= len(text)
        self.written += len(text)
        return len(text)

    def fileno(self):
        return self.descriptor


def test_a_streamed_json_report_closed_early_in_process_exits_1(capsys, monkeypatch, tmp_path):
    # the same early close as above, in this process: the report stops at
    # the first piece past 4 KB, and what stdout still holds goes to devnull
    with open(tmp_path / "stdout", "w") as target:
        reader = ClosingReader(4096, target.fileno())
        monkeypatch.setattr(sys, "stdout", reader)
        code = run(["jump", "--format", "json", "0,0,2,399"])
        monkeypatch.undo()
        assert code == 1
        assert 0 < reader.written <= 4096
        assert capsys.readouterr().err == ""
