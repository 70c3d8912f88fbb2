"""Adjacent-diagram surgery, the jump closed form, and bounded maximality."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

import enriques.diagram
import enriques.jump
import enriques.quasihomogeneous
from enriques import (
    AdjacencyVerdict,
    DiagramError,
    EnumerationLimitError,
    InvalidDiagramError,
    ProximityDiagram,
    QuasihomogeneousSpec,
    WeightedDiagram,
    add_leaf,
    build_enriques_diagram,
    canonical_key,
    check_geq_witness,
    class_representatives,
    construct_adjacent_diagram,
    diagram_from_json,
    diagram_to_json,
    diagram_type,
    enumerate_minimal_diagrams,
    expected_jump,
    geq,
    is_consistent,
    is_minimal,
    lambda_lin,
    lambda_lin_semi,
    milnor_number,
    milnor_orlik,
    minimal_diagram,
    minimalize,
    relabel,
    remove_vertices,
    single_vertex,
    total_excess,
    validate_axioms,
    verify_maximality,
    weighted_diagram,
)
from enriques.adjacency import adjacency_verdict
from enriques.enumeration import DEFAULT_MAX_CANDIDATES, _minimal_families
from enriques.quasihomogeneous import bamboo_chain, is_bamboo
from helpers import (
    count_constructions,
    count_scans,
    count_validations,
    cusp_minimal,
    excess_milnor,
    leaning_bamboo,
    random_consistent,
    wd,
    zero_satellite_chain,
)
from test_acceptance import all_specs

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "verify_pins.json"


# ---------------------------------------------------------------------------
# construct_adjacent_diagram
# ---------------------------------------------------------------------------

def test_adjacent_of_cusp_is_the_node():
    e = construct_adjacent_diagram(cusp_minimal())
    assert canonical_key(e) == "(2r)"
    assert milnor_number(e) == 1


def test_adjacent_of_node_is_smooth_point():
    e = construct_adjacent_diagram(single_vertex(2))
    assert canonical_key(e) == "(1r)"
    assert milnor_number(e) == 0


def test_adjacent_weight_two_chain():
    m = minimal_diagram(QuasihomogeneousSpec(0, 0, 4, 6))
    e = construct_adjacent_diagram(m)
    assert canonical_key(e) == "(4r(2f(1a(1a))))"
    assert milnor_number(m) - milnor_number(e) == 2


def test_adjacent_high_weight_end():
    m = minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))
    e = construct_adjacent_diagram(m)
    assert canonical_key(e) == "(6r(3f(2a(2f))))"
    assert is_minimal(e)
    assert milnor_number(e) == 37


def test_adjacent_single_high_weight_grows_a_satellite_run():
    e = construct_adjacent_diagram(single_vertex(5))
    assert canonical_key(e) == "(4r(2f(1a(1b))))"
    assert milnor_number(e) == 13


def test_adjacent_excess_bookkeeping():
    # the surgery changes the total excess by a case-dependent constant
    cases = [
        (cusp_minimal(), 1),                                      # d = 1
        (single_vertex(2), -1),                                   # d = 2, t = 1
        (minimal_diagram(QuasihomogeneousSpec(0, 0, 4, 6)), 0),   # d = 2: w - 2
        (minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9)), 1),   # d = 3: w - d + 2
        (single_vertex(5), -3),                                   # d = 5, w = 0
    ]
    for m, delta in cases:
        e = construct_adjacent_diagram(m)
        assert total_excess(e) - total_excess(m) == delta


def test_adjacent_requires_minimal_bamboo():
    with pytest.raises(DiagramError):
        construct_adjacent_diagram(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 1}))
    with pytest.raises(DiagramError):
        construct_adjacent_diagram(
            wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 4, 1: 2, 2: 2})
        )
    with pytest.raises(DiagramError, match="requires a minimal diagram"):
        construct_adjacent_diagram(zero_satellite_chain())


def test_adjacent_refuses_an_invalid_bamboo():
    # parent 2 of satellite 3 is not proximate to 0, yet the diagram is a
    # minimal chain by weights alone; the minimality check refuses it too
    edges, pairs = ((1, 0), (2, 1), (3, 2)), ((1, 0), (2, 1), (3, 0), (3, 2))
    D = WeightedDiagram(ProximityDiagram(0, edges, pairs), (3, 2, 1, 1))
    for check in (is_minimal, construct_adjacent_diagram):
        with pytest.raises(InvalidDiagramError, match="parent 2 of satellite 3") as caught:
            check(D)
        assert [v.axiom for v in caught.value.violations] == [4]


def test_adjacent_rejects_the_smooth_point():
    with pytest.raises(DiagramError):
        construct_adjacent_diagram(single_vertex(1))


def test_adjacent_refuses_exactly_the_diagrams_above_the_vertex_bound(monkeypatch):
    # for d >= 2 minimalizing removes nothing, so the count checked before
    # the surgery is E_D's size
    checked = 0
    for spec in all_specs(20):
        D = minimal_diagram(spec)
        if D.nu[bamboo_chain(D)[-1]] < 2:
            continue
        size = len(construct_adjacent_diagram(D))
        monkeypatch.setattr(enriques.quasihomogeneous, "MAX_DIAGRAM_VERTICES", size)
        assert len(construct_adjacent_diagram(D)) == size
        monkeypatch.setattr(enriques.quasihomogeneous, "MAX_DIAGRAM_VERTICES", size - 1)
        with pytest.raises(DiagramError, match=f"E_D would have {size} vertices"):
            construct_adjacent_diagram(D)
        monkeypatch.undo()
        checked += 1
    assert checked > 300


def test_adjacent_works_outside_q():
    # surgery only needs the chain shape, not a quasihomogeneous origin
    m = leaning_bamboo([8, 3, 3])
    e = construct_adjacent_diagram(m)
    assert is_minimal(e)
    assert milnor_number(m) - milnor_number(e) == expected_jump(3, 2)


def adjacent_by_leaves(D):
    """The surgery of construct_adjacent_diagram made one add_leaf rebuild
    per new vertex, for comparison."""
    chain = bamboo_chain(D)
    end = chain[-1]
    d = D.nu[end]
    if d == 1:
        return minimalize(remove_vertices(D, [end]))
    if d == 2 and len(chain) == 1:
        return single_vertex(1)
    lowered = weighted_diagram(D.diagram, {**D.nu, end: d - 1})
    if d == 2:
        return minimalize(add_leaf(lowered, end, 1, second=chain[-2]))
    grown = add_leaf(lowered, end, 2)
    for _ in range(d - 3):
        grown = add_leaf(grown, max(grown.diagram.vertices), 1, second=end)
    return minimalize(grown)


def test_adjacent_matches_the_leaf_by_leaf_surgery():
    # equal as objects, vertex ids included, on each germ's chain and on a
    # seeded relabelling of a longer one, negative ids included, where a
    # d = 2 satellite's second target may have a larger id than its parent
    # (the reference grows a lone root's E_D at vertex 0)
    rng = random.Random(25)
    relabelled = higher_second = 0
    for spec in all_specs(30):
        D = minimal_diagram(spec)
        assert construct_adjacent_diagram(D) == adjacent_by_leaves(D), spec
        if len(D) == 1:
            continue
        ids = rng.sample(range(-2 * len(D), 2 * len(D)), len(D))
        D = relabel(D, dict(zip(D.diagram.vertices, ids)))
        assert construct_adjacent_diagram(D) == adjacent_by_leaves(D), spec
        *_, second, end = bamboo_chain(D)
        relabelled += 1
        higher_second += D.nu[end] == 2 and second > end
    assert relabelled == 1682 and higher_second > 100


def test_adjacent_matches_the_leaf_by_leaf_surgery_on_every_minimal_bamboo():
    # any minimal bamboo, not only a germ's chain; equal as objects, and minimal
    checked = ends_of_weight_one = 0
    for D in enumerate_minimal_diagrams(8, 6):
        if not is_bamboo(D) or D.nu[bamboo_chain(D)[-1]] * len(D) <= 1:
            continue
        E = construct_adjacent_diagram(D)
        assert E == adjacent_by_leaves(D) and is_minimal(E), canonical_key(D)
        checked += 1
        ends_of_weight_one += D.nu[bamboo_chain(D)[-1]] == 1
    assert (checked, ends_of_weight_one) == (3254, 1581)


def test_a_surgery_that_keeps_the_milnor_number_raises(monkeypatch):
    # x^6+y^9 has d = 3: the surgery's one construction is made to return D
    D = minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))
    monkeypatch.setattr(enriques.jump, "WeightedDiagram", lambda diagram, weights: D)
    with pytest.raises(RuntimeError, match="lower the Milnor number"):
        construct_adjacent_diagram(D)


def test_adjacent_diagram_is_constructed_once(monkeypatch):
    # one construction, a drop or the grown chain; a rebuild per new
    # vertex would make 29 for x^30+y^30
    sources = [
        minimal_diagram(QuasihomogeneousSpec(*spec))
        for spec in [(0, 0, 30, 30), (0, 0, 2, 3), (0, 0, 4, 6), (0, 0, 6, 9), (1, 1, 3, 5)]
    ] + [single_vertex(2), leaning_bamboo([8, 3, 3])]
    built = count_constructions(monkeypatch, most=1)
    for D in sources:
        built.clear()
        construct_adjacent_diagram(D)
        assert len(built) == 1


# ---------------------------------------------------------------------------
# expected_jump
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,w,value",
    [
        (1, 0, 1), (1, 1, 1), (1, 2, 1),
        (2, 0, 1), (2, 1, 1), (2, 2, 2),
        (3, 0, 1), (3, 1, 2), (3, 2, 3),
        (4, 1, 3), (5, 0, 3), (6, 2, 6),
    ],
)
def test_expected_jump_table(d, w, value):
    assert expected_jump(d, w) == value


def test_expected_jump_domain():
    with pytest.raises(ValueError):
        expected_jump(0, 0)
    with pytest.raises(ValueError):
        expected_jump(2, 3)
    for d, w, named in [(2.5, 1, "d"), (True, True, "d"), (3, 1.0, "w"), (2, "1", "w")]:
        with pytest.raises(ValueError, match=f"{named} must be an integer"):
            expected_jump(d, w)


# ---------------------------------------------------------------------------
# lambda_lin
# ---------------------------------------------------------------------------

def test_lambda_lin_main_example():
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    assert (report.d, report.t, report.w) == (3, 3, 2)
    assert report.mu_D == 40 and report.mu_E == 37
    assert report.lambda_lin == 3
    assert len(report.representative) == 4
    assert not report.semi
    assert check_geq_witness(report.representative, report.E_D, report.adjacency_witness)


def test_package_paths_read_no_pair_views(monkeypatch):
    # every diagram stores its maps and no pairs, whether _grown or
    # remove_vertices derived it or the constructor scanned them; its
    # parent_edges and proximity views are built only when read, and no
    # path of the package, nor == or hash, reads them
    derived = []

    def recording(*args):
        derived.append(made(*args))
        return derived[-1]

    made = enriques.diagram._derived
    monkeypatch.setattr(enriques.diagram, "_derived", recording)
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    D, E, rep = report.D_min, report.E_D, report.representative
    assert check_geq_witness(rep, E, report.adjacency_witness)
    assert validate_axioms(E.diagram) == []
    assert minimalize(rep) == D and minimalize(rep).key == D.key
    hash(E.diagram)
    read = diagram_from_json(diagram_to_json(E))
    assert read.key == E.key
    relabelled = relabel(E, {v: v + 1 for v in E.diagram.vertices})
    assert verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3)).status == "verified"
    for d in (D.diagram, E.diagram, rep.diagram):
        assert any(d is out for out in derived)
    for d in (*derived, read.diagram, relabelled.diagram):
        assert not {"parent_edges", "proximity"} & d.__dict__.keys()
    assert getattr(E.diagram, "no_such_field", None) is None
    # a read builds each view once, as the constructor would hold it
    assert E.diagram.proximity is E.diagram.proximity
    shifted = tuple((v + 1, p + 1) for v, p in E.diagram.parent_edges)
    assert relabelled.diagram.parent_edges == shifted


def test_lambda_lin_equal_exponents_sweep():
    # x^n + y^n jumps by n - 2, except the node which jumps to smoothness
    assert lambda_lin(QuasihomogeneousSpec(0, 0, 2, 2)).lambda_lin == 1
    for n in range(3, 13):
        assert lambda_lin(QuasihomogeneousSpec(0, 0, n, n)).lambda_lin == n - 2


@pytest.mark.parametrize(
    "spec,value",
    [
        ((0, 0, 2, 3), 1),
        ((0, 0, 5, 5), 3),
        ((0, 0, 4, 6), 2),
        ((0, 0, 2, 4), 1),
        ((1, 1, 1, 1), 1),
        ((1, 0, 2, 3), 1),
        ((0, 0, 6, 8), 2),
    ],
)
def test_lambda_lin_values(spec, value):
    assert lambda_lin(QuasihomogeneousSpec(*spec)).lambda_lin == value


def test_lambda_lin_one_branch_node_family():
    # the family y*(x+y^q) shares the node's diagram type; its jump is 1
    # under every reading of the case split
    for q in (2, 3, 7):
        report = lambda_lin(QuasihomogeneousSpec(0, 1, 1, q))
        assert report.lambda_lin == 1
        assert canonical_key(report.D_min) == "(2r)"
        assert (report.d, report.t, report.w) == (2, 1, 0)


def test_lambda_lin_depends_only_on_the_type():
    a = lambda_lin(QuasihomogeneousSpec(1, 0, 1, 2))
    b = lambda_lin(QuasihomogeneousSpec(0, 0, 2, 4))
    assert a.D_min.key == b.D_min.key == "(2r(2f))"
    assert a.lambda_lin == b.lambda_lin == 1
    assert a.E_D.key == b.E_D.key


def test_lambda_lin_consistency_over_a_range():
    for p in range(1, 8):
        for q in range(p, 9):
            for k in (0, 1):
                for l in (0, 1):
                    if k + l + p < 2:
                        continue
                    spec = QuasihomogeneousSpec(k, l, p, q)
                    report = lambda_lin(spec)
                    assert report.mu_D == milnor_orlik(spec)
                    assert report.mu_D - report.mu_E == report.lambda_lin


def test_lambda_lin_semi_only_flags_the_report():
    plain = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    semi = lambda_lin_semi(QuasihomogeneousSpec(0, 0, 6, 9))
    assert semi.semi and not plain.semi
    assert semi.lambda_lin == plain.lambda_lin
    assert semi.E_D.key == plain.E_D.key


def test_lambda_lin_raises_when_its_jump_computations_disagree(monkeypatch):
    # the exponent case split is one of the three computations it compares
    spec = QuasihomogeneousSpec(0, 0, 6, 9)
    monkeypatch.setattr(enriques.jump, "_closed_form", lambda spec: -1)
    with pytest.raises(RuntimeError, match=re.escape(f"jump computations disagree for {spec}")):
        lambda_lin(spec)


def test_lambda_lin_raises_without_an_adjacency_witness(monkeypatch):
    spec = QuasihomogeneousSpec(0, 0, 6, 9)
    monkeypatch.setattr(enriques.jump, "geq", lambda upper, lower: None)
    with pytest.raises(RuntimeError, match=re.escape(f"no adjacency witness for {spec} against")):
        lambda_lin(spec)


# ---------------------------------------------------------------------------
# verify_maximality
# ---------------------------------------------------------------------------

def test_verify_maximality_cusp_defaults():
    report = verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3))
    assert report.status == "verified"
    assert (report.max_vertices, report.max_weight, report.extra_bound) == (7, 4, 2)
    assert report.mu_D == 2 and report.lambda_lin == 1
    assert report.examined == report.refuted == 325
    assert report.attained_max_mu == 1
    assert report.contradictions == ()


def test_verify_maximality_explicit_bounds():
    report = verify_maximality(
        QuasihomogeneousSpec(0, 0, 2, 3), max_vertices=6, max_weight=4, extra_bound=2
    )
    assert report.status == "verified"
    assert report.examined == report.refuted == 209
    assert report.attained_max_mu == 1


def test_verify_maximality_node():
    report = verify_maximality(QuasihomogeneousSpec(1, 1, 1, 1))
    assert report.status == "verified"
    assert (report.max_vertices, report.max_weight) == (5, 5)
    assert report.mu_D == 4 and report.lambda_lin == 1
    assert report.examined == report.refuted == 332
    assert report.attained_max_mu == 3


@pytest.mark.parametrize("spec,count", [((1, 1, 2, 2), 780), ((0, 0, 2, 5), 472)])
def test_verify_maximality_pinned_counts(spec, count):
    report = verify_maximality(QuasihomogeneousSpec(*spec))
    assert report.status == "verified"
    assert report.examined == report.refuted == count


def test_root_stage_counts_are_pinned_at_a_wide_bound():
    # the root stage is counted per non-root weighting, by arithmetic
    report = verify_maximality(QuasihomogeneousSpec(0, 0, 5, 7))
    assert (report.examined, report.refuted, report.refuted_by_root) == (45289, 45289, 42385)


@pytest.mark.parametrize("cap", [1, 100, 434])
def test_verify_raises_at_the_candidate_cap(monkeypatch, cap):
    # 434 is the largest cap that stops verify for 0,0,2,3: its enumeration
    # holds 435 shapes and weightings
    monkeypatch.setattr(enriques.jump, "DEFAULT_MAX_CANDIDATES", cap)
    with pytest.raises(EnumerationLimitError, match=f"the cap of {cap} candidates"):
        verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3))
    monkeypatch.setattr(enriques.jump, "DEFAULT_MAX_CANDIDATES", 435)
    assert verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3)).examined == 325


@pytest.mark.parametrize("spec, cap, examined", [((0, 0, 3, 4), 2280, 1990), ((0, 0, 5, 7), 48040, 45289)])
def test_verify_cap_boundary_counts_every_shape_and_weighting(monkeypatch, spec, cap, examined):
    # the enumeration holds cap + 1 shapes and weightings, admitted level by
    # level: one fewer stops verify, and exactly that many lets it finish
    spec = QuasihomogeneousSpec(*spec)
    monkeypatch.setattr(enriques.jump, "DEFAULT_MAX_CANDIDATES", cap)
    with pytest.raises(EnumerationLimitError, match=f"the cap of {cap} candidates"):
        verify_maximality(spec)
    monkeypatch.setattr(enriques.jump, "DEFAULT_MAX_CANDIDATES", cap + 1)
    assert verify_maximality(spec).examined == examined


@pytest.mark.parametrize("spec", [(0, 0, 2, 9), (0, 0, 3, 7)])
def test_root_stage_counts_only_heavy_candidates_above_the_threshold(spec):
    # here some candidates with a heavy root sit at or below the threshold,
    # so the count by bisection must leave exactly those out
    spec = QuasihomogeneousSpec(*spec)
    report = verify_maximality(spec)
    jump = lambda_lin(spec)
    root_weight = jump.D_min.nu[jump.D_min.root]
    threshold = jump.mu_D - jump.lambda_lin
    heavy = [
        milnor_number(candidate)
        for candidate in enumerate_minimal_diagrams(report.max_vertices, report.max_weight)
        if candidate.nu[candidate.root] > root_weight
    ]
    assert threshold in heavy and min(heavy) < threshold
    assert report.refuted_by_root == sum(mu > threshold for mu in heavy)


def test_root_stage_refutations_are_sound():
    # lemma: a candidate whose root outweighs D_min's is dominated by no
    # class representative, since every representative keeps D_min's root
    spec = QuasihomogeneousSpec(0, 0, 2, 3)
    report = verify_maximality(spec)
    assert report.refuted_by_root == 315
    assert verify_maximality(QuasihomogeneousSpec(1, 1, 1, 1)).refuted_by_root == 300

    jump = lambda_lin(spec)
    root_weight = jump.D_min.nu[jump.D_min.root]
    threshold = jump.mu_D - jump.lambda_lin
    heavy = [
        candidate
        for candidate in enumerate_minimal_diagrams(report.max_vertices, report.max_weight)
        if candidate.nu[candidate.root] > root_weight
        and milnor_number(candidate) > threshold
    ]
    assert len(heavy) == report.refuted_by_root
    representatives = list(class_representatives(diagram_type(jump.D_min), 2))
    assert len(representatives) > 1
    for candidate in heavy:
        for representative in representatives:
            assert geq(representative, candidate) is None


def test_root_stage_routes_only_light_candidates_to_the_search(monkeypatch):
    lowers = []

    def always_adjacent(representatives, lower, extra_bound):
        lowers.append(lower)
        return AdjacencyVerdict(holds=True, extra_vertex_bound=extra_bound)

    monkeypatch.setattr(enriques.jump, "adjacency_verdict", always_adjacent)
    report = verify_maximality(QuasihomogeneousSpec(0, 0, 2, 3))
    assert report.status == "contradiction"
    assert report.examined == 325
    assert report.refuted == report.refuted_by_root == 315
    assert len(report.contradictions) == 10
    # only the ten candidates whose root weight is at most 2; attainment
    # comes from the jump's witness, not from a search against E_D
    assert len(lowers) == 10
    assert all(lower.nu[lower.root] <= 2 for lower in lowers)
    assert [key for key, _ in report.contradictions] == [
        lower.key for lower in sorted(lowers, key=lambda lower: (len(lower), lower.key))
    ]


@pytest.mark.parametrize("extra_bound", [1, 2, 3])
def test_verify_searches_against_the_maximal_representatives(monkeypatch, extra_bound):
    searched = []

    def recording(representatives, lower, bound):
        searched.append([r.key for r in representatives])
        return adjacency_verdict(representatives, lower, bound)

    monkeypatch.setattr(enriques.jump, "adjacency_verdict", recording)
    spec = QuasihomogeneousSpec(1, 1, 2, 2)
    report = verify_maximality(spec, extra_bound=extra_bound)
    D_min = lambda_lin(spec).D_min
    top = sorted(
        r.key
        for r in class_representatives(diagram_type(D_min), extra_bound)
        if len(r) == len(D_min) + extra_bound
    )
    assert len(searched) == report.examined - report.refuted_by_root > 0
    assert all(sorted(keys) == top for keys in searched)


def test_verify_maximality_bound_validation():
    spec = QuasihomogeneousSpec(0, 0, 6, 9)
    with pytest.raises(ValueError):
        verify_maximality(spec, max_vertices=2)
    with pytest.raises(ValueError):
        verify_maximality(spec, max_weight=3)
    with pytest.raises(ValueError):
        verify_maximality(spec, extra_bound=0)


@pytest.mark.parametrize(
    "bound",
    [{"max_vertices": 5.5}, {"max_weight": 4.0}, {"extra_bound": 1.5}, {"extra_bound": True}],
)
def test_verify_maximality_bounds_must_be_integers(bound):
    (name,) = bound
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        verify_maximality(QuasihomogeneousSpec(0, 0, 6, 9), **bound)


def test_verify_maximality_attained_value_is_mu_of_e():
    spec = QuasihomogeneousSpec(0, 0, 2, 4)
    report = verify_maximality(spec)
    jump = lambda_lin(spec)
    assert report.attained_max_mu == jump.mu_E == jump.mu_D - jump.lambda_lin


def test_jump_representative_is_a_level_one_class_representative():
    # the lemma behind verify's attainment: D_min plus a leaf at its final,
    # positive-excess chain end is among the first level of added leaves
    for spec in all_specs(30):
        report = lambda_lin(spec)
        level_one = {
            r.key
            for r in class_representatives(diagram_type(report.D_min), 1)
            if len(r) == len(report.D_min) + 1
        }
        assert report.representative.key in level_one, spec


def test_diagram_type_of_e_differs_from_source():
    for spec in [(0, 0, 2, 3), (0, 0, 6, 9), (0, 0, 5, 5), (1, 1, 1, 1)]:
        report = lambda_lin(QuasihomogeneousSpec(*spec))
        assert diagram_type(report.E_D) != diagram_type(report.D_min)


def light_candidates(spec):
    """Shapes (parent edges and proximity pairs) of the candidates that
    verify_maximality must search: minimal diagrams within its bounds, other
    than D_min, above the threshold and no heavier at the root than D_min."""
    report = verify_maximality(spec)
    jump = lambda_lin(spec)
    root_weight = jump.D_min.nu[jump.D_min.root]
    return [
        (w.diagram.parent_edges, w.diagram.proximity)
        for w in enumerate_minimal_diagrams(report.max_vertices, report.max_weight)
        if w.nu[w.root] <= root_weight
        and w.key != jump.D_min.key
        and milnor_number(w) > jump.mu_D - jump.lambda_lin
    ]


@pytest.mark.parametrize(
    "spec,searched,shapes", [((0, 0, 2, 3), 10, 10), ((1, 1, 2, 2), 111, 33)]
)
def test_verify_builds_diagrams_only_for_light_candidates(monkeypatch, spec, searched, shapes):
    # light candidates of one shape share one structure, validated once
    spec = QuasihomogeneousSpec(*spec)
    light = light_candidates(spec)
    assert (len(light), len(set(light))) == (searched, shapes)
    built = count_constructions(monkeypatch)
    validated = count_validations(monkeypatch)
    # the constant part: the jump, the representatives, each validated, and
    # the attainment check
    jump = lambda_lin(spec)
    representatives = list(class_representatives(diagram_type(jump.D_min), 2))
    for representative in representatives:
        assert representative.diagram.violations == ()
    adjacency_verdict(representatives, jump.E_D, 2)
    fixed_builds, fixed_validations = len(built), len(validated)
    built.clear()
    validated.clear()

    report = verify_maximality(spec)
    assert len(light) == report.examined - report.refuted_by_root > 0
    assert len(built) == len(light) + fixed_builds
    assert len(validated) <= len(set(light)) + fixed_validations


def test_jumps_and_verification_walk_no_diagram(monkeypatch):
    # every diagram they make is grown or pruned from the lone root, so it
    # inherits its verdict and derives its maps from its source's; only a
    # diagram read from outside is walked, and built by scanning its pairs
    text = diagram_to_json(lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9)).E_D)
    walked = count_validations(monkeypatch)
    scanned = count_scans(monkeypatch)
    for spec in [(0, 0, 2, 3), (0, 0, 6, 9), (1, 1, 3, 5), (0, 1, 2, 9), (1, 0, 1, 5)]:
        lambda_lin(QuasihomogeneousSpec(*spec))
        build_enriques_diagram(QuasihomogeneousSpec(*spec))
    verify_maximality(QuasihomogeneousSpec(0, 0, 4, 6))
    assert walked == [] and scanned == []
    read = diagram_from_json(text)
    assert walked == [read.diagram] and scanned == [read.diagram]


def test_milnor_number_matches_the_excess_definition():
    count = 0
    for spec in all_specs(30):
        report = lambda_lin(spec)
        for w in (build_enriques_diagram(spec), report.D_min, report.E_D):
            assert milnor_number(w) == excess_milnor(w), spec
            count += 1
    rng = random.Random(26)
    for case in range(2_000):
        w = random_consistent(rng)
        assert milnor_number(w) == excess_milnor(w), case
    assert count == 3 * 1830


def test_record_milnor_number_matches_the_excess_definition():
    count = 0
    for family in _minimal_families(7, 6, DEFAULT_MAX_CANDIDATES):
        structure = family.structure
        diagrams = [
            weighted_diagram(structure, dict(enumerate(weights)))
            for weights in family.weightings
        ]
        for mu, w in zip(family.mus, diagrams):
            assert is_consistent(w)
            assert mu == milnor_number(w) == excess_milnor(w)
            count += 1
    assert count == 3891


def test_maximal_representatives_decide_every_light_candidate():
    # the leaf-monotonicity lemma: a candidate no representative at level
    # extra_bound dominates is dominated by no class representative
    pins = json.loads(PINS.read_text())
    enumerated = {}
    searched = expected = 0
    for pin in pins:
        spec = QuasihomogeneousSpec(*map(int, pin["spec"].split(",")))
        report = verify_maximality(spec)
        jump = lambda_lin(spec)
        bounds = (report.max_vertices, report.max_weight)
        if bounds not in enumerated:
            enumerated[bounds] = list(enumerate_minimal_diagrams(*bounds))
        representatives = list(class_representatives(diagram_type(jump.D_min), 2))
        maximal = [r for r in representatives if len(r) == len(jump.D_min) + 2]
        # E_D, which a level-one representative dominates, is dominated at
        # the top level too
        assert adjacency_verdict(maximal, jump.E_D, 2).holds
        for candidate in enumerated[bounds]:
            if (
                candidate.nu[candidate.root] <= jump.D_min.nu[jump.D_min.root]
                and candidate.key != jump.D_min.key
                and milnor_number(candidate) > report.mu_D - report.lambda_lin
            ):
                every = adjacency_verdict(representatives, candidate, 2).holds
                assert adjacency_verdict(maximal, candidate, 2).holds == every, pin["spec"]
                searched += 1
        expected += report.examined - report.refuted_by_root
    assert searched == expected > 0


def test_maximality_reports_are_pinned():
    # SHA-256 of the reports of the 48 germs of perfbench/verify_pins.json,
    # one repr per line in file order; recorded before verify_maximality
    # read enumeration records instead of diagrams
    pins = json.loads(PINS.read_text())
    digest = hashlib.sha256()
    for pin in pins:
        spec = QuasihomogeneousSpec(*map(int, pin["spec"].split(",")))
        digest.update((repr(verify_maximality(spec)) + "\n").encode())
    assert len(pins) == 48
    assert digest.hexdigest() == (
        "4af8ee94d6012ee4b56c934e6e5968a7fd87a192c8a48f31c7a47637d956c8c8"
    )
