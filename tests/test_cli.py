"""Command line interface: golden outputs, exit codes, round trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import enriques.cli
from enriques import (
    MaximalityReport,
    QuasihomogeneousSpec,
    construct_adjacent_diagram,
    diagram_from_json,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    minimal_diagram,
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


def test_mu_with_oracle_check(capsys):
    code, out, _ = invoke(capsys, "mu", "--check", "0,0,2,3")
    assert code == 0
    assert out == "2\noracle 2 match\n"


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


def test_console_script_entry_point():
    # the child process imports the same enriques as this one
    src = str(pathlib.Path(enriques.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "enriques.cli", "info", "0,0,2,3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert "mu 2" in out.stdout
