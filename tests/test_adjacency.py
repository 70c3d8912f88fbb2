"""Domination witnesses, the independent checker, and bounded adjacency."""

import json
import random
from dataclasses import replace

import pytest

import enriques.adjacency
import enriques.diagram
import enriques.enumeration
from enriques import (
    AdjacencyVerdict,
    GeqWitness,
    InconsistentDiagramError,
    InvalidDiagramError,
    ProximityDiagram,
    QuasihomogeneousSpec,
    SubdiagramEmbedding,
    add_leaf,
    canonical_form,
    canonical_key,
    check_geq_witness,
    construct_adjacent_diagram,
    diagram_type,
    enumerate_minimal_diagrams,
    geq,
    lambda_lin,
    linear_adjacent,
    milnor_number,
    minimal_diagram,
    proximity_diagram,
    single_vertex,
    weighted_diagram,
    witness_to_dict,
)
from enriques.adjacency import class_representatives
from helpers import (
    cusp_complete,
    cusp_minimal,
    leaning_bamboo,
    proximity_pairs,
    random_consistent,
    reference_geq,
    wd,
)
from test_jump import PINS


# ---------------------------------------------------------------------------
# geq
# ---------------------------------------------------------------------------

def test_geq_is_reflexive():
    w = cusp_minimal()
    witness = geq(w, w)
    assert witness is not None
    assert witness.embedding.pairs == ((0, 0), (1, 1), (2, 2))
    assert witness.kappa == ((0, 2), (1, 1), (2, 1))
    assert check_geq_witness(w, w, witness)


def test_geq_cusp_dominates_node():
    witness = geq(cusp_minimal(), single_vertex(2))
    assert witness.embedding.pairs == ((0, 0),)
    assert witness.kappa == ((0, 2),)
    assert check_geq_witness(cusp_minimal(), single_vertex(2), witness)


def test_geq_node_does_not_dominate_cusp():
    assert geq(single_vertex(2), cusp_minimal()) is None


def test_geq_needs_the_extra_free_vertex():
    # the minimal diagram itself fails against its adjacent diagram; one
    # added free weight-1 vertex at the chain end repairs the values
    m = minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))
    e = construct_adjacent_diagram(m)
    assert geq(m, e) is None
    grown = add_leaf(m, 2, 1)
    witness = geq(grown, e)
    assert witness is not None
    assert witness.embedding.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert witness.kappa == ((0, 6), (1, 3), (2, 3), (3, 1))
    assert check_geq_witness(grown, e, witness)


def test_geq_witness_may_exclude_vertices():
    upper = leaning_bamboo([6, 3, 3])
    lower = cusp_complete()
    witness = geq(upper, lower)
    assert witness is not None
    # the complete cluster's tail vertex is excluded, value transported as 0
    assert witness.embedding.pairs == ((0, 0), (1, 1), (2, 2))
    assert dict(witness.kappa)[3] == 0
    assert check_geq_witness(upper, lower, witness)


def test_geq_ord_check_property():
    w = cusp_minimal()
    data = witness_to_dict(w, w, geq(w, w))
    assert data["ord_nu"] == [2, 3, 6]
    assert data["ord_kappa"] == [2, 3, 6]


def test_geq_rejects_inconsistent_upper():
    inconsistent = wd(0, {1: 0}, [(1, 0)], {0: 1, 1: 2})
    with pytest.raises(InconsistentDiagramError):
        geq(inconsistent, single_vertex(1))


def test_geq_rejects_invalid_diagrams():
    broken = weighted_diagram(
        proximity_diagram(0, {1: 0}, [(1, 0), (0, 1)]), {0: 2, 1: 1}
    )
    with pytest.raises(InvalidDiagramError):
        geq(broken, single_vertex(1))
    with pytest.raises(InvalidDiagramError):
        geq(single_vertex(3), broken)


def test_geq_respects_satellite_second_targets():
    # same weights, but the lower end leans on its grandparent while the
    # upper end leans on its great-grandparent's slot; shapes differ
    upper = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 1)],
        {0: 3, 1: 2, 2: 1, 3: 1},
    )
    lower = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 0)],
        {0: 3, 1: 2, 2: 1, 3: 1},
    )
    # the mismatched satellite cannot be mapped, only excluded, and the
    # lower weight on it then has no image to come from
    assert geq(upper, lower) is None
    weightless = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 0)],
        {0: 3, 1: 2, 2: 1, 3: 0},
    )
    witness = geq(upper, weightless)
    assert witness.embedding.pairs == ((0, 0), (1, 1), (2, 2))
    assert check_geq_witness(upper, weightless, witness)


def test_geq_and_lambda_lin_compute_no_canonical_form(monkeypatch):
    # the search walks the lower preorder and the upper children by id, and
    # the jump's self-check compares Milnor numbers, so neither keys anything
    calls = []

    def counting(record):
        calls.append(len(record))
        return canonical_form(record)

    monkeypatch.setattr(enriques.enumeration, "canonical_form", counting)
    monkeypatch.setattr(enriques.diagram, "canonical_form", counting)
    assert geq(cusp_complete(), cusp_minimal()) is not None
    assert geq(single_vertex(2), cusp_minimal()) is None
    lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    assert calls == []


# ---------------------------------------------------------------------------
# the reference search: the plain DFS that tries every image, then
# exclusion, and re-sums the targets' values for each
# ---------------------------------------------------------------------------

def same_search(upper, lower):
    """Assert that ``geq`` and ``reference_geq`` give the same verdict and
    the same witness, and that a witness passes the checker; True when
    there is one."""
    witness = geq(upper, lower)
    assert witness == reference_geq(upper, lower), (upper, lower)
    if witness is None:
        return False
    assert check_geq_witness(upper, lower, witness), (upper, lower)
    return True


def star(children, root_weight):
    """A root of weight ``root_weight`` with ``children`` free weight-1
    children."""
    kids = range(1, children + 1)
    weights = {0: root_weight, **dict.fromkeys(kids, 1)}
    return wd(0, {v: 0 for v in kids}, [(v, 0) for v in kids], weights)


def test_geq_matches_the_reference_on_seeded_pairs():
    rng = random.Random(31)
    found = 0
    for _ in range(20_000):
        upper = random_consistent(rng, 8)
        found += same_search(upper, random_consistent(rng, 7))
    assert found == 10_485


def test_geq_matches_the_reference_on_the_stars():
    # k free children above cannot take k + 1 below, and the search tries
    # every placement first; k below is the identity
    for k in range(8):
        assert not same_search(star(k, k + 1), star(k + 1, k + 1))
        assert same_search(star(k, k + 1), star(k, k + 1))


def test_geq_matches_the_reference_on_every_light_candidate_of_the_pins():
    # each maximal representative at extra_bound 1, 2 and 3 against every
    # minimal diagram within the pin's bounds that the root weight does not
    # refute and whose Milnor number is above the threshold: the candidates
    # verify searches, and the germ's own class, which it skips
    pins = json.loads(PINS.read_text())
    enumerated = {}
    searched = found = 0
    for pin in pins:
        jump = lambda_lin(QuasihomogeneousSpec(*map(int, pin["spec"].split(","))))
        d_min = jump.D_min
        bounds = (pin["max_vertices"], pin["max_weight"])
        if bounds not in enumerated:
            enumerated[bounds] = list(enumerate_minimal_diagrams(*bounds))
        light = [
            candidate
            for candidate in enumerated[bounds]
            if candidate.nu[candidate.root] <= d_min.nu[d_min.root]
            and milnor_number(candidate) > jump.mu_D - jump.lambda_lin
        ]
        for extra in (1, 2, 3):
            for upper in class_representatives(diagram_type(d_min), extra):
                if len(upper) == len(d_min) + extra:
                    for candidate in light:
                        found += same_search(upper, candidate)
                        searched += 1
    assert (searched, found) == (21_769, 306)


# ---------------------------------------------------------------------------
# the independent checker
# ---------------------------------------------------------------------------

def fresh_case():
    m = minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))
    e = construct_adjacent_diagram(m)
    grown = add_leaf(m, 2, 1)
    return grown, e, geq(grown, e)


def test_checker_rejects_tampered_kappa():
    upper, lower, witness = fresh_case()
    doctored = tuple((v, k + 1) if v == 1 else (v, k) for v, k in witness.kappa)
    assert not check_geq_witness(upper, lower, replace(witness, kappa=doctored))


def test_checker_rejects_non_injective_embedding():
    upper, lower, witness = fresh_case()
    pairs = tuple((v, 0) for v, _ in witness.embedding.pairs)
    bad = replace(witness, embedding=SubdiagramEmbedding(pairs=pairs))
    assert not check_geq_witness(upper, lower, bad)


def test_checker_rejects_broken_predecessor_closure():
    upper, lower, witness = fresh_case()
    pairs = tuple(p for p in witness.embedding.pairs if p[0] != 1)
    bad = replace(witness, embedding=SubdiagramEmbedding(pairs=pairs))
    assert not check_geq_witness(upper, lower, bad)


def test_checker_rejects_kind_mismatch():
    # mapping a satellite onto a free vertex is a shape violation even if
    # every number happens to line up
    upper = wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1)], {0: 9, 1: 4, 2: 4})
    lower = cusp_minimal()
    forced = GeqWitness(
        embedding=SubdiagramEmbedding(pairs=((0, 0), (1, 1), (2, 2))),
        kappa=((0, 9), (1, 4), (2, 4)),
    )
    assert not check_geq_witness(upper, lower, forced)


def test_checker_rejects_witness_for_other_diagrams():
    upper, lower, witness = fresh_case()
    assert not check_geq_witness(upper, single_vertex(1), witness)


def test_checker_rejects_missing_kappa_entries():
    upper, lower, witness = fresh_case()
    assert not check_geq_witness(upper, lower, replace(witness, kappa=witness.kappa[:-1]))


def with_pairs(witness, *pairs):
    return replace(witness, embedding=SubdiagramEmbedding(pairs=pairs))


def tampered(w, proximity=(), weights=()):
    """``w`` with proximity pairs added and weights replaced."""
    nu = {**w.nu, **dict(weights)}
    return wd(w.root, w.diagram.parent, [*proximity_pairs(w.diagram), *proximity], nu)


# each case tampers the x^6+y^9 jump witness (vertex 2 is a satellite on
# 1 and 0, vertex 3 a free end) or one of its diagrams
@pytest.mark.parametrize(
    "tamper",
    [
        # the lower root proximate to a vertex breaks axiom 1
        lambda up, lo, w: (up, tampered(lo, [(0, 1)]), w),
        # the upper end outweighs its parent
        lambda up, lo, w: (tampered(up, weights=[(3, 4)]), lo, w),
        lambda up, lo, w: (up, lo, with_pairs(w, *w.embedding.pairs, (3, 3))),
        lambda up, lo, w: (up, lo, with_pairs(w, (0, 0), (1, 1), (2, 2), (3, 9))),
        lambda up, lo, w: (up, lo, with_pairs(w, (0, 1), (1, 0), (2, 2), (3, 3))),
        lambda up, lo, w: (up, lo, with_pairs(w, (0, 0), (1, 1), (2, 3), (3, 2))),
        # both ends become satellites, the upper one on the root and the
        # lower one on vertex 1; a heavier upper root stays consistent
        lambda up, lo, w: (tampered(up, [(3, 0)], [(0, 7)]), tampered(lo, [(3, 1)]), w),
        # a kappa entry of three numbers, and an unhashable vertex
        lambda up, lo, w: (up, lo, replace(w, kappa=((0, 1, 2),))),
        lambda up, lo, w: (up, lo, replace(w, kappa=(([0], 1), *w.kappa[1:]))),
        # the right entries, in a list instead of a tuple
        lambda up, lo, w: (up, lo, replace(w, kappa=list(w.kappa))),
    ],
    ids=[
        "invalid-lower",
        "inconsistent-upper",
        "lower-vertex-twice",
        "image-off-upper",
        "root-off-upper-root",
        "wrong-upper-parent",
        "wrong-second-target",
        "kappa-triple",
        "unhashable-vertex",
        "kappa-list",
    ],
)
def test_checker_rejects_tampered_cases(tamper):
    assert not check_geq_witness(*tamper(*fresh_case()))


def test_checker_derives_the_lower_value_system_itself():
    # a copy of the cusp whose cached orders are zero: the search trusts
    # the cache and finds a witness that maps the root alone, which the
    # checker, deriving the orders 2, 3, 6 itself, must reject
    cusp = cusp_minimal()
    zeroed = weighted_diagram(cusp.diagram, cusp.nu)
    zeroed.__dict__["orders"] = {v: 0 for v in cusp.diagram.vertices}
    witness = geq(single_vertex(2), zeroed)
    assert witness.embedding.pairs == ((0, 0),)
    assert not check_geq_witness(single_vertex(2), zeroed, witness)
    # and a sound witness stays accepted whatever the lower cache says
    upper, lower, witness = fresh_case()
    corrupt = weighted_diagram(lower.diagram, lower.nu)
    corrupt.__dict__["orders"] = {v: o - 1 for v, o in lower.orders.items()}
    assert check_geq_witness(upper, corrupt, witness)


def test_checker_walks_no_cached_preorder():
    # the x^6+y^9 jump's E_D, copied with its preorder cache reversed: the
    # checker orders the values from the parent map and still accepts
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    d = report.E_D.diagram
    copy = ProximityDiagram(d.root, d.parent, d.prox_targets)
    copy.__dict__["preorder"] = tuple(reversed(d.preorder))
    lower = weighted_diagram(copy, report.E_D.nu)
    assert check_geq_witness(report.representative, lower, report.adjacency_witness)


def test_checker_derives_the_upper_excesses_itself():
    # the upper end outweighs its parent, but the excess cache claims
    # every excess is zero; the search trusts the cache and finds a witness
    upper, lower, _ = fresh_case()
    heavy = tampered(upper, weights=[(3, 4)])
    heavy.__dict__["excess"] = {v: 0 for v in heavy.diagram.vertices}
    witness = geq(heavy, lower)
    assert witness is not None
    assert not check_geq_witness(heavy, lower, witness)


def test_checker_rejects_a_lower_vertex_its_walk_misses(monkeypatch):
    # vertices 1 and 2 are each other's parent, a cycle off the root; with
    # the axiom check stubbed out, the embedding and kappa pass, and the
    # walk from the root that orders the values misses both
    lower = wd(0, {1: 2, 2: 1}, [(1, 2), (2, 1)], {0: 1, 1: 1, 2: 1})
    witness = GeqWitness(
        embedding=SubdiagramEmbedding(pairs=((0, 0),)),
        kappa=((0, 1), (1, 0), (2, 0)),
    )
    monkeypatch.setattr(enriques.adjacency, "validate_axioms", lambda diagram: [])
    assert not check_geq_witness(single_vertex(1), lower, witness)


def test_checker_accepts_untampered_witnesses():
    upper, lower, witness = fresh_case()
    assert check_geq_witness(upper, lower, witness)


# ---------------------------------------------------------------------------
# class representatives and linear adjacency
# ---------------------------------------------------------------------------

def test_class_representatives_levels():
    reps = [canonical_key(r) for r in class_representatives(diagram_type(single_vertex(2)), 2)]
    assert reps == ["(2r)", "(2r(1f))", "(2r(1f(1f)))", "(2r(1f)(1f))"]


def test_class_representatives_respect_excess():
    # the cusp chain admits growth only at its end, one shape per level
    reps = [canonical_key(r) for r in class_representatives(diagram_type(cusp_minimal()), 2)]
    assert reps == ["(2r(1f(1a)))", "(2r(1f(1a(1f))))", "(2r(1f(1a(1f(1f)))))"]


def test_class_representatives_preserve_mu():
    t = diagram_type(cusp_minimal())
    for rep in class_representatives(t, 3):
        assert milnor_number(rep) == 2


def test_linear_adjacent_cusp_to_node():
    verdict = linear_adjacent(diagram_type(cusp_minimal()), diagram_type(single_vertex(2)))
    assert verdict.holds
    assert verdict.extra_vertex_bound == 1
    assert canonical_key(verdict.representative) == "(2r(1f(1a)))"
    assert verdict.witness.embedding.pairs == ((0, 0),)
    assert check_geq_witness(verdict.representative, single_vertex(2), verdict.witness)


def test_linear_adjacent_node_to_cusp_fails():
    verdict = linear_adjacent(diagram_type(single_vertex(2)), diagram_type(cusp_minimal()))
    assert verdict == AdjacencyVerdict(holds=False, extra_vertex_bound=3)


def test_linear_adjacent_needs_enough_extra_vertices():
    m = diagram_type(minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9)))
    e = diagram_type(construct_adjacent_diagram(m.representative))
    assert not linear_adjacent(m, e, extra_bound=0).holds
    verdict = linear_adjacent(m, e)
    assert verdict.holds
    assert len(verdict.representative) == 4


def test_linear_adjacent_rejects_negative_bound():
    t = diagram_type(single_vertex(2))
    with pytest.raises(ValueError):
        linear_adjacent(t, t, extra_bound=-1)


def test_class_representatives_rejects_a_negative_level_count():
    t = diagram_type(single_vertex(2))
    with pytest.raises(ValueError, match="extra_vertices must be nonnegative"):
        next(class_representatives(t, -1))


@pytest.mark.parametrize("bound", [1.5, True, "2"])
def test_linear_adjacent_bound_must_be_an_integer(bound):
    t = diagram_type(single_vertex(2))
    with pytest.raises(ValueError, match="extra_bound must be an integer"):
        linear_adjacent(t, t, extra_bound=bound)
    with pytest.raises(ValueError, match="extra_vertices must be an integer"):
        list(class_representatives(t, bound))


def test_linear_adjacent_is_reflexive():
    t = diagram_type(cusp_minimal())
    assert linear_adjacent(t, t, extra_bound=0).holds
