"""Inputs, ops and the correctness gate of the benchmark's three workloads.

``verify``: one ``enriques verify k,l,p,q`` CLI call per op, on germs whose
default bounds satisfy ``max_vertices + max_weight <= 12``.  The 48 such
germs fall into 17 equal-work classes (germs with one minimal diagram run
the same enumeration and the same ``geq`` searches); the 10 classes that
examine fewer than 1,000 candidates are used.  The seed picks one germ of
each and the order, so every seed does the same work.

``sweep``: every germ with ``q <= 30`` (1,830 germs) plus the five
golden-file CLI commands, in seeded order.  A germ op builds the complete
diagram, computes the jump, re-checks its witness, round-trips ``E_D``
through JSON and, for ``q <= 12``, runs the inverse membership query.

``large``: about 100 germs with ``2 <= p <= 5``, ``q < 1000`` and a minimal
chain of 100 to 400 vertices, one drawn from each of 100 strata of equal
chain-length range, so every seed draws the same size profile.  A large op
validates the complete diagram, computes the jump, re-checks its witness
and round-trips ``D_min`` through JSON.

Ops call the package through its module attributes at call time, so the
tracer's wrappers see every call.  Checks compare against references off
the timed code path: the Milnor-Orlik formula, the closed-form jump of the
exponents, the independent witness checker, golden bytes and pinned counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify", "sweep", "large")

# criterion-7 CLI commands and the golden files their stdout must equal
GOLDEN_COMMANDS = (
    (("diagram", "--minimal", "x^6+y^9"), "x6y9_minimal.txt"),
    (("diagram", "--minimal", "--format", "json", "x^6+y^9"), "x6y9_minimal.json"),
    (("diagram", "--minimal", "--format", "dot", "x^6+y^9"), "x6y9_minimal.dot"),
    (("jump", "x^6+y^9"), "jump_x6y9.txt"),
    (("jump", "--format", "json", "x^6+y^9"), "jump_x6y9.json"),
)

# the 10 of the 17 classes that examine fewer candidates; the other 7
# examine 1,155 to 1,825 and would make a pass three times longer
VERIFY_EXAMINED_BELOW = 1000
SWEEP_Q_MAX = 30
SWEEP_INVERSE_Q_MAX = 12
LARGE_P = range(2, 6)
LARGE_Q_BELOW = 1000
LARGE_CHAIN = (100, 400)
LARGE_STRATA = 100


@dataclass(frozen=True)
class Op:
    """One unit of work.

    ``kind`` is "cli" (``argv`` through ``enriques.cli.run``, covering the
    verify ops), "germ" (a sweep op) or "large".  ``expected`` holds the
    pinned verify record, the golden text, or the minimal chain length.
    """

    kind: str
    spec: Any = None
    argv: tuple[str, ...] = ()
    expected: Any = None
    inverse: bool = False
    tamper: bool = False


def chain_length(p: int, q: int) -> int:
    """Vertices of the minimal chain of x^p + y^q: the number of states of
    the subtractive Euclid walk, i.e. the sum of the partial quotients of q/p."""
    a, b, total = q, p, 0
    while b:
        quotient, remainder = divmod(a, b)
        total += quotient
        a, b = b, remainder
    return total


def load_verify_pins() -> list[dict[str, Any]]:
    return json.loads((HERE / "verify_pins.json").read_text())


def make_ops(E: Any, workload: str, seed: int, root: Path) -> list[Op]:
    """The workload's ops, a function of ``seed`` alone."""
    rng = random.Random(seed)
    spec = E.QuasihomogeneousSpec
    if workload == "verify":
        classes: dict[str, list[dict[str, Any]]] = {}
        for pin in load_verify_pins():
            if pin["examined"] < VERIFY_EXAMINED_BELOW:
                classes.setdefault(pin["class"], []).append(pin)
        ops = []
        for name in sorted(classes):
            pin = rng.choice(classes[name])
            k, l, p, q = map(int, pin["spec"].split(","))
            ops.append(Op("cli", spec(k, l, p, q), ("verify", pin["spec"]), pin))
    elif workload == "sweep":
        ops = [
            Op("germ", spec(k, l, p, q), inverse=q <= SWEEP_INVERSE_Q_MAX)
            for p in range(1, SWEEP_Q_MAX + 1)
            for q in range(p, SWEEP_Q_MAX + 1)
            for k in (0, 1)
            for l in (0, 1)
            if k + l + p >= 2
        ]
        golden = root / "tests" / "golden"
        ops += [
            Op("cli", argv=argv, expected=(golden / name).read_text())
            for argv, name in GOLDEN_COMMANDS
        ]
    elif workload == "large":
        low, high = LARGE_CHAIN
        lengths = {(p, q): chain_length(p, q) for p in LARGE_P for q in range(p, LARGE_Q_BELOW)}
        candidates = sorted(
            (t, k, l, p, q)
            for (p, q), t in lengths.items()
            if low <= t <= high
            for k in (0, 1)
            for l in (0, 1)
        )
        size = len(candidates)
        ops = []
        for i in range(LARGE_STRATA):
            t, k, l, p, q = rng.choice(
                candidates[i * size // LARGE_STRATA : (i + 1) * size // LARGE_STRATA]
            )
            ops.append(Op("large", spec(k, l, p, q), expected=t))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def gate_selftest_ops(E: Any) -> list[Op]:
    """Two ops the gate must count as failed: a witness with one ``kappa``
    entry changed, and a verify op held to a wrong ``examined`` count."""
    pin = next(p for p in load_verify_pins() if p["spec"] == "0,0,2,3")
    wrong = dict(pin, examined=pin["examined"] + 1)
    return [
        Op("germ", E.QuasihomogeneousSpec(0, 0, 6, 9), tamper=True),
        Op("cli", E.QuasihomogeneousSpec(0, 0, 2, 3), ("verify", "0,0,2,3"), wrong),
    ]


@dataclass(frozen=True)
class GermResult:
    mu: int
    jump: int
    witness_ok: bool
    json_text: str
    json_again: str
    violations: int = 0
    minimal_size: int = 0
    member: Any = None


def run_op(E: Any, op: Op) -> Any:
    """Do the op's work; this is the timed part."""
    if op.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = E.cli.run(list(op.argv))
        return code, out.getvalue()
    complete = E.build_enriques_diagram(op.spec)
    violations = len(E.validate_axioms(complete.diagram)) if op.kind == "large" else 0
    mu = E.milnor_number(complete)
    report = E.lambda_lin(op.spec)
    witness = report.adjacency_witness
    if op.tamper:
        kappa = list(witness.kappa)
        vertex, value = kappa[-1]
        kappa[-1] = (vertex, value + 1)
        witness = replace(witness, kappa=tuple(kappa))
    witness_ok = E.check_geq_witness(report.representative, report.E_D, witness)
    shipped = report.D_min if op.kind == "large" else report.E_D
    text = E.diagram_to_json(shipped)
    again = E.diagram_to_json(E.diagram_from_json(text))
    member = E.check_Q_membership(report.D_min).spec if op.inverse else None
    return GermResult(
        mu, report.lambda_lin, witness_ok, text, again, violations, len(report.D_min), member
    )


def check_op(E: Any, op: Op, result: Any) -> list[str]:
    """Failed checks of one op; empty when every output is right."""
    if op.kind == "cli":
        code, out = result
        if op.argv[0] == "verify":
            return _check_verify(E, op, code, out)
        problems = [] if code == 0 else [f"exit code {code}"]
        if out != op.expected:
            problems.append("stdout differs from the golden file")
        return problems
    problems = []
    mu = E.milnor_orlik(op.spec)
    inv = E.derived_invariants(op.spec)
    if result.mu != mu:
        problems.append(f"mu {result.mu} != milnor_orlik {mu}")
    if result.jump != E.expected_jump(inv.d, inv.w):
        problems.append(f"lambda_lin {result.jump} != expected_jump")
    if result.witness_ok is not True:
        problems.append("check_geq_witness rejected the witness")
    if result.json_again != result.json_text:
        problems.append("JSON round trip changed the bytes")
    if op.kind == "large":
        if result.violations:
            problems.append(f"{result.violations} axiom violations in the complete diagram")
        if result.minimal_size != op.expected:
            problems.append(f"minimal chain has {result.minimal_size} vertices, not {op.expected}")
    if op.inverse and (result.member is None or E.milnor_orlik(result.member) != mu):
        problems.append(f"check_Q_membership returned {result.member}")
    return problems


def _check_verify(E: Any, op: Op, code: int, out: str) -> list[str]:
    pin = op.expected
    fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    mu = E.milnor_orlik(op.spec)
    inv = E.derived_invariants(op.spec)
    jump = E.expected_jump(inv.d, inv.w)
    expected = {
        "bounds": (
            f"max_vertices={pin['max_vertices']} max_weight={pin['max_weight']} extra_bound=2"
        ),
        "mu": str(mu),
        "lambda_lin": str(jump),
        "examined": str(pin["examined"]),
        "refuted": str(pin["examined"]),
        "attained_max_mu": str(mu - jump),
        "status": "verified",
    }
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += [
        f"{key} {fields.get(key)!r} != {value!r}"
        for key, value in expected.items()
        if fields.get(key) != value
    ]
    return problems
