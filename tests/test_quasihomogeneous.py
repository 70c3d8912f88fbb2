"""Parsing, derived invariants, diagram construction and Q membership."""

import hashlib
import json
from math import gcd

import pytest

import enriques.diagram
import enriques.quasihomogeneous
from enriques import (
    DiagramError,
    QuasihomogeneousSpec,
    SpecParseError,
    build_enriques_diagram,
    canonical_key,
    check_Q_membership,
    derived_invariants,
    diagram_to_json,
    enumerate_minimal_diagrams,
    is_complete,
    is_minimal,
    jump_report_to_dict,
    lambda_lin,
    milnor_number,
    milnor_orlik,
    minimal_diagram,
    parse_spec,
    single_vertex,
    weighted_diagram,
)
from enriques.quasihomogeneous import bamboo_invariants, is_bamboo
from helpers import leaning_bamboo, wd
from test_acceptance import all_specs


# ---------------------------------------------------------------------------
# spec construction and parsing
# ---------------------------------------------------------------------------

def test_spec_field_validation():
    with pytest.raises(ValueError):
        QuasihomogeneousSpec(2, 0, 2, 3)
    with pytest.raises(ValueError):
        QuasihomogeneousSpec(0, 0, 0, 3)
    with pytest.raises(ValueError):
        QuasihomogeneousSpec(0, 0, 3, 2)
    with pytest.raises(ValueError):
        QuasihomogeneousSpec(0, 0, 1, 1)
    assert QuasihomogeneousSpec(0, 1, 1, 1).polynomial == "y*(x^1+y^1)"


def test_polynomial_rendering():
    assert QuasihomogeneousSpec(0, 0, 6, 9).polynomial == "x^6+y^9"
    assert QuasihomogeneousSpec(1, 1, 1, 1).polynomial == "x*y*(x^1+y^1)"
    assert QuasihomogeneousSpec(1, 0, 2, 3).polynomial == "x*(x^2+y^3)"


def test_parse_numeric_form():
    assert parse_spec("0,0,6,9") == QuasihomogeneousSpec(0, 0, 6, 9)
    # exponents are normalised so that p <= q, swapping the axis factors
    assert parse_spec("0,0,9,6") == QuasihomogeneousSpec(0, 0, 6, 9)
    assert parse_spec("1,0,3,2") == QuasihomogeneousSpec(0, 1, 2, 3)


def test_parse_polynomial_form():
    assert parse_spec("x^6+y^9") == QuasihomogeneousSpec(0, 0, 6, 9)
    assert parse_spec("x^9+y^6") == QuasihomogeneousSpec(0, 0, 6, 9)
    assert parse_spec("x*y*(x^1+y^1)") == QuasihomogeneousSpec(1, 1, 1, 1)
    assert parse_spec("x*(x^2+y^3)") == QuasihomogeneousSpec(1, 0, 2, 3)
    assert parse_spec("y*(x^2+y^5)") == QuasihomogeneousSpec(0, 1, 2, 5)
    assert parse_spec("x^6 + y^9") == QuasihomogeneousSpec(0, 0, 6, 9)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x^0+y^3", "exponent must be positive"),
        ("y^3+x^2", "x term must come first"),
        ("x^2+y^3+z", "unexpected character 'z' at position 8"),
        ("x*x*(x^2+y^3)", "duplicate x prefix"),
        ("1,2,3", "four comma-separated integers"),
        ("2,0,2,3", "k and l must be 0 or 1"),
        ("0,0,1,1", "k + l + p >= 2"),
        ("x^2", "unexpected end of input"),
        ("x^2+y^3)", "trailing ')'"),
        ("x^-1+y^2", "unexpected character '-'"),
        ("", "empty specification"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert fragment in str(exc.value)


def test_spec_parse_error_is_a_value_error():
    assert issubclass(SpecParseError, ValueError)


# ---------------------------------------------------------------------------
# derived invariants and the oracle
# ---------------------------------------------------------------------------

def test_derived_invariants_examples():
    inv = derived_invariants(QuasihomogeneousSpec(0, 0, 6, 9))
    assert (inv.d_tilde, inv.r, inv.s) == (3, 2, 3)
    assert (inv.d, inv.t, inv.w) == (3, 3, 2)
    assert (inv.w_x, inv.w_y, inv.W) == (3, 2, 18)


@pytest.mark.parametrize(
    "spec,d,t,w,mu",
    [
        ((0, 0, 2, 3), 1, 3, 2, 2),
        ((0, 0, 4, 6), 2, 3, 2, 15),
        ((0, 0, 2, 4), 2, 2, 1, 3),
        ((0, 0, 3, 3), 3, 1, 0, 4),
        ((1, 1, 1, 1), 3, 1, 0, 4),
        ((1, 0, 2, 3), 1, 3, 2, 7),
        ((0, 1, 1, 5), 1, 5, 1, 1),
    ],
)
def test_invariant_table(spec, d, t, w, mu):
    sp = QuasihomogeneousSpec(*spec)
    inv = derived_invariants(sp)
    assert (inv.d, inv.t, inv.w) == (d, t, w)
    assert milnor_orlik(sp) == mu


def subtractive_euclid_states(r, s):
    """States of the Euclid walk on (r, s) by its definition: subtract the
    smaller from the larger until they are equal, counting each state."""
    count = 1
    while r != s:
        if r < s:
            s -= r
        else:
            r -= s
        count += 1
    return count


def test_chain_length_matches_the_subtractive_walk():
    # with k = 1 every coprime pair is a valid germ whose (r, s) is (p, q)
    pairs = 0
    for q in range(1, 300):
        for p in range(1, q + 1):
            if gcd(p, q) == 1:
                t = derived_invariants(QuasihomogeneousSpec(1, 0, p, q)).t
                assert t == subtractive_euclid_states(p, q), (p, q)
                pairs += 1
    assert pairs == 27318


def test_oracle_against_weights_directly():
    # (W - w_x)(W - w_y) / (w_x w_y) for x^6+y^9 with weights (3,2), W = 18
    assert milnor_orlik(QuasihomogeneousSpec(0, 0, 6, 9)) == 40


# ---------------------------------------------------------------------------
# diagram construction
# ---------------------------------------------------------------------------

def test_build_full_diagram_is_complete_with_oracle_mu():
    for spec in [(0, 0, 6, 9), (0, 0, 2, 3), (1, 1, 1, 1), (1, 0, 2, 3), (0, 0, 4, 6)]:
        sp = QuasihomogeneousSpec(*spec)
        full = build_enriques_diagram(sp)
        assert is_complete(full)
        assert milnor_number(full) == milnor_orlik(sp)


def test_build_leaf_count_and_root_weight():
    for spec in [(0, 0, 6, 9), (1, 1, 1, 1), (1, 0, 2, 3), (0, 1, 1, 5)]:
        sp = QuasihomogeneousSpec(*spec)
        inv = derived_invariants(sp)
        full = build_enriques_diagram(sp)
        d = full.diagram
        leaves = [v for v in d.vertices if not d.children[v]]
        assert len(leaves) == inv.d_tilde + sp.k + sp.l
        assert full.nu[d.root] == sp.k + sp.l + inv.d_tilde * inv.r


def test_minimal_diagram_examples():
    assert canonical_key(minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))) == "(6r(3f(3a)))"
    assert canonical_key(minimal_diagram(QuasihomogeneousSpec(0, 0, 2, 3))) == "(2r(1f(1a)))"
    assert canonical_key(minimal_diagram(QuasihomogeneousSpec(1, 1, 1, 1))) == "(3r)"
    assert canonical_key(minimal_diagram(QuasihomogeneousSpec(0, 0, 4, 6))) == "(4r(2f(2a)))"


def test_minimal_diagram_is_minimal_and_preserves_mu():
    sp = QuasihomogeneousSpec(1, 0, 2, 3)
    m = minimal_diagram(sp)
    assert is_minimal(m)
    assert milnor_number(m) == milnor_orlik(sp) == 7


def test_one_branch_node_family_collapses_to_a_single_vertex():
    # y*(x^1+y^q) defines a node for every q: the walk emits a long chain
    # whose tail unwinds completely, leaving the plain double point
    for q in (2, 3, 5, 9):
        sp = QuasihomogeneousSpec(0, 1, 1, q)
        full = build_enriques_diagram(sp)
        assert is_complete(full)
        assert milnor_number(full) == milnor_orlik(sp) == 1
        m = minimal_diagram(sp)
        assert canonical_key(m) == "(2r)"
        assert bamboo_invariants(m) == (2, 1, 0)


# ---------------------------------------------------------------------------
# bamboo profile and Q membership
# ---------------------------------------------------------------------------

def test_is_bamboo():
    assert is_bamboo(single_vertex(2))
    assert is_bamboo(leaning_bamboo([6, 3, 3]))
    assert not is_bamboo(wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 4, 1: 2, 2: 2}))


def test_bamboo_invariants_profile():
    assert bamboo_invariants(single_vertex(4)) == (4, 1, 0)
    assert bamboo_invariants(leaning_bamboo([6, 3, 3])) == (3, 3, 2)
    assert bamboo_invariants(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 2})) == (2, 2, 1)
    with pytest.raises(DiagramError):
        bamboo_invariants(wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 4, 1: 2, 2: 2}))


def test_q_membership_certified_by_reconstruction():
    rep = check_Q_membership(minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9)))
    assert rep.is_bamboo and (rep.d, rep.t) == (3, 3)
    assert rep.constraints_hold
    assert rep.in_Q
    assert rep.spec == QuasihomogeneousSpec(0, 0, 6, 9)


def test_q_membership_certificate_is_first_match():
    # single weight-3 vertex arises from both x^3+y^3 and x*y*(x+y);
    # candidates are scanned in (p, q, k, l) order so the latter wins
    rep = check_Q_membership(single_vertex(3))
    assert rep.spec == QuasihomogeneousSpec(1, 1, 1, 1)
    assert not rep.constraints_hold


def test_q_membership_short_chain_constraints_are_informational():
    # the printed excess bounds fail on one-vertex chains that still
    # reconstruct, so the constraint flag must not gate certification
    rep = check_Q_membership(single_vertex(2))
    assert rep.in_Q and not rep.constraints_hold


def test_bamboo_outside_q_fails_reconstruction():
    # two transverse branches resolved together: a chain with root excess 5
    # that no quasihomogeneous germ reproduces
    rep = check_Q_membership(leaning_bamboo([8, 3, 3]))
    assert rep.is_bamboo and (rep.d, rep.t) == (3, 3)
    assert not rep.constraints_hold
    assert rep.spec is None and not rep.in_Q


def test_non_bamboo_report_is_all_none():
    rep = check_Q_membership(wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 4, 1: 2, 2: 2}))
    assert rep.is_bamboo is False
    assert rep.d is None and rep.t is None and rep.constraints_hold is None
    assert not rep.in_Q


def test_q_membership_requires_minimal_input():
    with pytest.raises(DiagramError):
        check_Q_membership(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 1}))


def test_round_trip_membership_over_a_spec_sweep():
    for k, l, p, q in [
        (0, 0, 2, 3), (0, 0, 3, 3), (0, 0, 2, 4), (0, 0, 4, 6),
        (0, 0, 3, 6), (1, 1, 1, 1), (0, 0, 4, 4), (0, 1, 1, 5),
        (1, 0, 2, 3), (0, 0, 5, 7), (1, 1, 2, 5),
    ]:
        sp = QuasihomogeneousSpec(k, l, p, q)
        rep = check_Q_membership(minimal_diagram(sp))
        assert rep.in_Q
        assert minimal_diagram(rep.spec).key == minimal_diagram(sp).key


def test_q_membership_reports_are_pinned():
    # SHA-256 of the concatenated report reprs, recorded before candidates
    # with the wrong Milnor number were skipped
    germs = hashlib.sha256()
    for spec in all_specs(20):
        germs.update(repr(check_Q_membership(minimal_diagram(spec))).encode())
    assert germs.hexdigest() == (
        "1a59c5dd494a0243ef74b5272dd1493ec7e3dcd0017cf77b0b0047338060a37c"
    )
    enumerated = hashlib.sha256()
    members = 0
    for w in enumerate_minimal_diagrams(6, 5):
        report = check_Q_membership(w)
        enumerated.update(repr(report).encode())
        members += report.in_Q
    assert members == 109
    assert enumerated.hexdigest() == (
        "fe09b495cc69abb43d920bf25665f76edfeb2d3c4b181ac5348aa4e2ecb88b6a"
    )


def test_q_membership_rebuilds_only_germs_with_the_right_milnor_number(monkeypatch):
    built = []

    def recording(spec):
        built.append(spec)
        return minimal_diagram(spec)

    sources = [minimal_diagram(spec) for spec in all_specs(20)]
    monkeypatch.setattr(enriques.quasihomogeneous, "minimal_diagram", recording)
    most = 0
    for w in sources:
        built.clear()
        assert check_Q_membership(w).in_Q
        assert {milnor_orlik(spec) for spec in built} == {milnor_number(w)}
        most = max(most, len(built))
    assert most <= 3


def test_complete_diagrams_and_jump_reports_are_pinned():
    # SHA-256 of the complete diagrams' JSON and of the jump reports over
    # the 1,830 germs with q <= 30, recorded before the builder was
    # rewritten as a single construction
    diagrams = hashlib.sha256()
    reports = hashlib.sha256()
    for spec in all_specs(30):
        diagrams.update(diagram_to_json(build_enriques_diagram(spec)).encode())
        report = json.dumps(jump_report_to_dict(lambda_lin(spec)), indent=2) + "\n"
        reports.update(report.encode())
    assert diagrams.hexdigest() == (
        "e1083217ee8dee5cae9fd82d348a051027a9a2bbaf2327f112a5faf95c60255e"
    )
    assert reports.hexdigest() == (
        "d518a3139209de5b1fb98f828ff2125f1bd3d2de153a959ce05a3f5f9283bb0e"
    )


def test_build_constructs_one_diagram(monkeypatch):
    # every weighted diagram is made through weighted_diagram; count the
    # calls from both modules that the builder could reach
    calls = []

    def counting(*args):
        calls.append(args)
        return weighted_diagram(*args)

    monkeypatch.setattr(enriques.quasihomogeneous, "weighted_diagram", counting)
    monkeypatch.setattr(enriques.diagram, "weighted_diagram", counting)
    for k, l, p, q in [(0, 0, 6, 9), (1, 1, 4, 6), (0, 1, 1, 9), (0, 0, 30, 30)]:
        calls.clear()
        build_enriques_diagram(QuasihomogeneousSpec(k, l, p, q))
        assert len(calls) == 1, (k, l, p, q)
