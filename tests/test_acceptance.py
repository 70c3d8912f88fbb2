"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the pass/fail list or
add ``-s`` to see the printed criterion lines.
"""

import json
import pathlib
import time

import pytest

from enriques import (
    QuasihomogeneousSpec,
    add_leaf,
    build_enriques_diagram,
    canonical_key,
    check_geq_witness,
    diagram_from_json,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    expected_jump,
    geq,
    lambda_lin,
    milnor_number,
    milnor_orlik,
    minimal_diagram,
    verify_maximality,
)
from enriques.cli import run as cli_run

import test_properties

GOLDEN = pathlib.Path(__file__).parent / "golden"


def all_specs(q_max):
    for p in range(1, q_max + 1):
        for q in range(p, q_max + 1):
            for k in (0, 1):
                for l in (0, 1):
                    if k + l + p >= 2:
                        yield QuasihomogeneousSpec(k, l, p, q)


def report(line):
    print(line)


@pytest.mark.timed
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    count = 0
    for spec in all_specs(30):
        assert milnor_number(build_enriques_diagram(spec)) == milnor_orlik(spec), spec
        count += 1
    elapsed = time.perf_counter() - started
    assert count == 1830
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    report(f"criterion 1: PASS oracle equivalence on {count} specs in {elapsed:.2f}s")


def test_criterion_2_closed_form_consistency():
    count = 0
    for spec in all_specs(30):
        r = lambda_lin(spec)
        assert r.lambda_lin == r.mu_D - r.mu_E, spec
        assert r.lambda_lin == expected_jump(r.d, r.w), spec
        count += 1
    report(f"criterion 2: PASS three jump computations agree on {count} specs")


def test_criterion_3_published_values():
    main = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    assert main.lambda_lin == 3
    assert sorted(main.D_min.nu.values(), reverse=True) == [6, 3, 3]
    assert sorted(main.E_D.nu.values(), reverse=True) == [6, 3, 2, 2]
    assert main.mu_D == 40 and main.mu_E == 37
    assert lambda_lin(QuasihomogeneousSpec(0, 0, 2, 2)).lambda_lin == 1
    for n in range(3, 31):
        assert lambda_lin(QuasihomogeneousSpec(0, 0, n, n)).lambda_lin == n - 2, n
    report("criterion 3: PASS published jump values and diagram weights reproduced")


@pytest.mark.timed
def test_criterion_4_adjacency_witnesses():
    started = time.perf_counter()
    count = 0
    for spec in all_specs(12):
        m = minimal_diagram(spec)
        r = lambda_lin(spec)
        end = next(v for v in m.diagram.vertices if not m.diagram.children[v])
        representative = add_leaf(m, end, 1)
        assert canonical_key(representative) == canonical_key(r.representative), spec
        witness = geq(representative, r.E_D)
        assert witness is not None, spec
        assert check_geq_witness(representative, r.E_D, witness), spec
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"witness sweep took {elapsed:.2f}s"
    report(f"criterion 4: PASS checked witnesses for {count} specs in {elapsed:.2f}s")


def test_criterion_5_bounded_maximality():
    specs = [
        (0, 0, 2, 3), (0, 0, 3, 3), (0, 0, 2, 4), (0, 0, 4, 6),
        (0, 0, 3, 6), (1, 1, 1, 1), (0, 0, 4, 4),
    ]
    for tup in specs:
        spec = QuasihomogeneousSpec(*tup)
        r = verify_maximality(spec)
        m = minimal_diagram(spec)
        assert r.max_vertices == len(m) + 4, tup
        assert r.max_weight == m.nu[m.diagram.root] + 2, tup
        assert r.extra_bound == 2, tup
        assert r.status == "verified", (tup, r.status, r.contradictions)
        assert r.contradictions == (), tup
        assert r.attained_max_mu == r.mu_D - r.lambda_lin, tup
    report(f"criterion 5: PASS bounded maximality verified for {len(specs)} specs")


def test_criterion_6_property_suites():
    test_properties.test_generated_diagrams_satisfy_the_axioms()
    test_properties.test_minimalize_is_idempotent_and_reaches_minimality()
    test_properties.test_mu_is_invariant_under_leaf_addition_and_minimalization()
    test_properties.test_canonical_key_matches_independent_isomorphism_checker()
    test_properties.test_enumeration_yields_distinct_valid_minimal_diagrams()
    report("criterion 6: PASS five randomized property suites, 1000+ cases each")


def test_criterion_7_cli_golden_files(capsys):
    checks = [
        (["diagram", "--minimal", "x^6+y^9"], "x6y9_minimal.txt"),
        (["diagram", "--minimal", "--format", "json", "x^6+y^9"], "x6y9_minimal.json"),
        (["diagram", "--minimal", "--format", "dot", "x^6+y^9"], "x6y9_minimal.dot"),
        (["jump", "x^6+y^9"], "jump_x6y9.txt"),
        (["jump", "--format", "json", "x^6+y^9"], "jump_x6y9.json"),
    ]
    for argv, name in checks:
        assert cli_run(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / name).read_text(), name
    e = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9)).E_D
    assert diagram_to_text(e) == (GOLDEN / "x6y9_adjacent.txt").read_text()
    assert diagram_to_json(e) == (GOLDEN / "x6y9_adjacent.json").read_text()
    assert diagram_to_dot(e) == (GOLDEN / "x6y9_adjacent.dot").read_text()
    for name in ("x6y9_minimal.json", "x6y9_adjacent.json"):
        text = (GOLDEN / name).read_text()
        assert diagram_to_json(diagram_from_json(text)) == text
    report("criterion 7: PASS golden files byte-exact and JSON round-trip stable")
