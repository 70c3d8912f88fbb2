"""Parsing, derived invariants, diagram construction and Q membership."""

import hashlib
import itertools
import json
import random
import re
import time
from math import gcd

import pytest

import enriques.diagram
import enriques.quasihomogeneous
from enriques import (
    DiagramError,
    InvalidDiagramError,
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
    minimalize,
    parse_spec,
    single_vertex,
)
from enriques.quasihomogeneous import bamboo_invariants, is_bamboo
from helpers import count_constructions, leaning_bamboo, wd, zero_satellite_chain
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


@pytest.mark.parametrize(
    "fields,name",
    [((0, 0, 2.0, 3), "p"), ((0, 0, 2, 3.5), "q"), ((True, 0, 2, 3), "k"), ((0, 0, 2, "2"), "q")],
)
def test_spec_fields_must_be_ints(fields, name):
    # a bool is an int to Python but not here, as for diagram weights
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        QuasihomogeneousSpec(*fields)


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


SPEC_ALPHABET = "xy^*+()012"
MUTATION_ALPHABET = SPEC_ALPHABET + "3456789 ,-z"


def valid_spec_texts():
    """Accepted spellings of small germs: polynomial, swapped, bare and numeric."""
    texts = []
    for k in (0, 1):
        for l in (0, 1):
            for p in range(1, 5):
                for q in range(p, 7):
                    if k + l + p < 2:
                        continue
                    spec = QuasihomogeneousSpec(k, l, p, q)
                    texts += [spec.polynomial, f"{k},{l},{p},{q}", f" {k}, {l} ,{q},{p} "]
                    if not k and not l:
                        texts += [f"x^{q}+y^{p}", f"(x^{p} + y^{q})", f"x+y^{q}"]
    return texts


def spec_corpus():
    """Every string of length <= 5 over SPEC_ALPHABET, then 20,000 seeded
    mutations (one to three inserts, deletes, substitutions or swaps) of
    the valid spellings."""
    for n in range(6):
        for chars in itertools.product(SPEC_ALPHABET, repeat=n):
            yield "".join(chars)
    rng = random.Random(2023)
    valid = valid_spec_texts()
    for _ in range(20_000):
        text = rng.choice(valid)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            move = rng.randrange(4)
            if move == 0:
                text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
            elif move == 1:
                text = text[:at] + text[at + 1:]
            elif move == 2:
                text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at + 1:]
            else:
                text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
        yield text


# a polynomial-form rejection names where it went wrong, unless the text
# is blank or the germ is smooth (a range error, not a syntax error)
POSITIONED = re.compile(
    r"position \d+|end of input|^empty specification$|^k \+ l \+ p >= 2 required"
)


def test_parse_spec_accepts_and_rejects_exactly_as_pinned():
    # SHA-256 of every accepted string with its spec, in corpus order,
    # recorded before the parser was rewritten as one LL(1) pass
    accepted = hashlib.sha256()
    count = 0
    for text in spec_corpus():
        try:
            spec = parse_spec(text)
        except SpecParseError as exc:
            if "," not in text:
                assert POSITIONED.search(str(exc)), (text, str(exc))
            continue
        accepted.update(f"{text!r}={spec.k},{spec.l},{spec.p},{spec.q}\n".encode())
        count += 1
    assert count == 2401
    assert accepted.hexdigest() == (
        "8b0dc8fb74642ad11f5e4b71038bc4920da2d6dceeb5e1764372338779ddb628"
    )


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
    with pytest.raises(DiagramError, match="requires a minimal diagram"):
        check_Q_membership(zero_satellite_chain())


def test_minimality_readers_refuse_an_axiom_5_violation():
    # 2 and 3 are both proximate to 1 and to its parent 0; the weights alone
    # make a consistent minimal non-bamboo
    pairs = [(1, 0), (2, 1), (2, 0), (3, 1), (3, 0)]
    w = wd(0, {1: 0, 2: 1, 3: 1}, pairs, {0: 4, 1: 2, 2: 1, 3: 1})
    readers = (is_minimal, minimalize, check_Q_membership, milnor_number, is_complete,
               bamboo_invariants)
    for reader in readers:
        with pytest.raises(InvalidDiagramError, match="proximate to both 0 and 1") as caught:
            reader(w)
        assert [v.axiom for v in caught.value.violations] == [5]


@pytest.mark.timed
def test_complete_diagram_with_many_leaves_on_one_vertex_builds_in_linear_time():
    # x^50000 + y^50000 hangs 50,000 leaves on the root; adding each one to
    # the root's children tuple on its own took about 3.5 s
    started = time.perf_counter()
    w = build_enriques_diagram(QuasihomogeneousSpec(0, 0, 50_000, 50_000))
    assert time.perf_counter() - started < 1
    assert w.diagram.children[0] == tuple(range(1, 50_001))


@pytest.mark.timed
def test_q_membership_certifies_a_germ_whose_complete_diagram_exceeds_the_bound():
    # x*(x^99999+y^999990) has a complete diagram of 100,010 vertices, but
    # only its 10-vertex minimal chain is rebuilt
    n = 10
    chain = wd(0, {i: i - 1 for i in range(1, n)}, [(i, i - 1) for i in range(1, n)],
               {i: 100_000 for i in range(n)})
    started = time.perf_counter()
    report = check_Q_membership(chain)
    assert time.perf_counter() - started < 1
    assert report.spec == QuasihomogeneousSpec(1, 0, 99999, 999990)


def test_q_membership_rebuilds_only_chains_of_the_input_length(monkeypatch):
    # x*y*(x+y^58) shares the Milnor number of x^3+y^60 and comes first in
    # (p, q, k, l) order, but its chain has 58 vertices, not 20: it is
    # skipped, not built, so a bound of 20 still certifies the chain
    w = minimal_diagram(QuasihomogeneousSpec(0, 0, 3, 60))
    assert milnor_orlik(QuasihomogeneousSpec(1, 1, 1, 58)) == milnor_number(w)
    monkeypatch.setattr(enriques.quasihomogeneous, "MAX_DIAGRAM_VERTICES", len(w))
    assert check_Q_membership(w).spec == QuasihomogeneousSpec(1, 0, 2, 40)


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


def scanned_membership(w):
    """The certifying germ by scanning every q up to the weight total, in
    (p, q, k, l) order, rebuilding each germ with ``w``'s Milnor number."""
    total = sum(w.nu.values())
    root = w.nu[w.root]
    mu = milnor_number(w)
    candidates = sorted(
        (root - k - l, q, k, l)
        for k in (0, 1)
        for l in (0, 1)
        if root - k - l >= 1 and root >= 2
        for q in range(root - k - l, total + 1)
    )
    for p, q, k, l in candidates:
        spec = QuasihomogeneousSpec(k, l, p, q)
        if milnor_orlik(spec) == mu and minimal_diagram(spec).key == w.key:
            return spec
    return None


def test_milnor_orlik_increases_strictly_in_q_except_for_the_node():
    for k in (0, 1):
        for l in (0, 1):
            for p in range(1, 40):
                if k + l + p < 2:
                    continue
                mus = [milnor_orlik(QuasihomogeneousSpec(k, l, p, q)) for q in range(p, 200)]
                if (k, l, p) == (0, 1, 1):
                    assert set(mus) == {1}
                else:
                    assert all(a < b for a, b in zip(mus, mus[1:])), (k, l, p)


def test_q_membership_bisection_matches_the_scan():
    for spec in all_specs(12):
        w = minimal_diagram(spec)
        assert check_Q_membership(w).spec == scanned_membership(w), spec


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
    # count every weighted diagram constructed, whichever builder makes
    # it, and fail on any minimalize call
    def refusing(w):
        raise AssertionError("minimalize called")

    assert "minimalize" not in vars(enriques.quasihomogeneous)
    monkeypatch.setattr(enriques.diagram, "minimalize", refusing)
    built = count_constructions(monkeypatch)
    for build in (build_enriques_diagram, minimal_diagram):
        for k, l, p, q in [(0, 0, 6, 9), (1, 1, 4, 6), (0, 1, 1, 9), (0, 0, 30, 30)]:
            built.clear()
            build(QuasihomogeneousSpec(k, l, p, q))
            assert len(built) == 1, (build.__name__, k, l, p, q)


@pytest.mark.parametrize(
    ("build", "check", "refusal", "message"),
    [
        (build_enriques_diagram, "is_complete", lambda w: False, "is not complete"),
        (build_enriques_diagram, "milnor_orlik", lambda spec: -1, "has the wrong Milnor number"),
        (minimal_diagram, "is_minimal", lambda w: False, "is not minimal"),
        (minimal_diagram, "milnor_orlik", lambda spec: -1, "has the wrong Milnor number"),
    ],
    ids=["complete", "complete-milnor", "minimal", "minimal-milnor"],
)
def test_builders_raise_when_a_self_check_fails(monkeypatch, build, check, refusal, message):
    # each builder cross-checks its result; a failed check is an
    # implementation bug and raises instead of returning the diagram
    spec = QuasihomogeneousSpec(0, 0, 6, 9)
    monkeypatch.setattr(enriques.quasihomogeneous, check, refusal)
    with pytest.raises(RuntimeError, match=re.escape(f"constructed diagram for {spec} {message}")):
        build(spec)


def test_build_refuses_exactly_the_germs_above_the_vertex_bound(monkeypatch):
    # the count read off derived_invariants is the built diagram's size
    for build in (build_enriques_diagram, minimal_diagram):
        for spec in all_specs(20):
            size = len(build(spec))
            monkeypatch.setattr(enriques.quasihomogeneous, "MAX_DIAGRAM_VERTICES", size)
            assert len(build(spec)) == size
            monkeypatch.setattr(enriques.quasihomogeneous, "MAX_DIAGRAM_VERTICES", size - 1)
            with pytest.raises(DiagramError, match=f"would have {size} vertices"):
                build(spec)
            monkeypatch.undo()
    assert enriques.quasihomogeneous.MAX_DIAGRAM_VERTICES == 100_000


def test_minimal_diagram_is_the_minimalized_complete_diagram():
    # the oracle: the walk's chain alone against the parent's construction
    count = 0
    for spec in all_specs(60):
        assert minimal_diagram(spec).key == minimalize(build_enriques_diagram(spec)).key, spec
        count += 1
    assert count == 7260
