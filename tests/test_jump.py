"""Adjacent-diagram surgery, the jump closed form, and bounded maximality."""

import pytest

import enriques.diagram
import enriques.jump
from enriques import (
    AdjacencyVerdict,
    DiagramError,
    QuasihomogeneousSpec,
    add_leaf,
    canonical_key,
    check_geq_witness,
    class_representatives,
    construct_adjacent_diagram,
    diagram_type,
    enumerate_minimal_diagrams,
    expected_jump,
    geq,
    is_minimal,
    lambda_lin,
    lambda_lin_semi,
    milnor_number,
    milnor_orlik,
    minimal_diagram,
    minimalize,
    remove_vertices,
    single_vertex,
    total_excess,
    verify_maximality,
    weighted_diagram,
)
from enriques.quasihomogeneous import bamboo_chain
from helpers import cusp_minimal, leaning_bamboo, wd
from test_acceptance import all_specs


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


def test_adjacent_rejects_the_smooth_point():
    with pytest.raises(DiagramError):
        construct_adjacent_diagram(single_vertex(1))


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
    # equal as objects, vertex ids included
    for spec in all_specs(30):
        D = minimal_diagram(spec)
        assert construct_adjacent_diagram(D) == adjacent_by_leaves(D), spec


def test_adjacent_diagram_is_constructed_once(monkeypatch):
    # one construction for the surgery and at most one removal in
    # minimalize; a rebuild per new vertex would make 29 for x^30+y^30
    calls = []

    def counting(*args):
        calls.append(args)
        if len(calls) > 2:
            raise AssertionError("the surgery constructed more than two diagrams")
        return weighted_diagram(*args)

    sources = [
        minimal_diagram(QuasihomogeneousSpec(*spec))
        for spec in [(0, 0, 30, 30), (0, 0, 2, 3), (0, 0, 4, 6), (0, 0, 6, 9), (1, 1, 3, 5)]
    ] + [single_vertex(2), leaning_bamboo([8, 3, 3])]
    monkeypatch.setattr(enriques.jump, "weighted_diagram", counting)
    monkeypatch.setattr(enriques.diagram, "weighted_diagram", counting)
    for D in sources:
        calls.clear()
        construct_adjacent_diagram(D)
        assert 1 <= len(calls) <= 2


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
    # E_D for attainment, then the ten candidates whose root weight is at most 2
    assert len(lowers) == 11
    assert lowers[0].key == lambda_lin(QuasihomogeneousSpec(0, 0, 2, 3)).E_D.key
    assert all(lower.nu[lower.root] <= 2 for lower in lowers)
    assert [key for key, _ in report.contradictions] == [lower.key for lower in lowers[1:]]


def test_verify_maximality_bound_validation():
    spec = QuasihomogeneousSpec(0, 0, 6, 9)
    with pytest.raises(ValueError):
        verify_maximality(spec, max_vertices=2)
    with pytest.raises(ValueError):
        verify_maximality(spec, max_weight=3)
    with pytest.raises(ValueError):
        verify_maximality(spec, extra_bound=0)


def test_verify_maximality_attained_value_is_mu_of_e():
    spec = QuasihomogeneousSpec(0, 0, 2, 4)
    report = verify_maximality(spec)
    jump = lambda_lin(spec)
    assert report.attained_max_mu == jump.mu_E == jump.mu_D - jump.lambda_lin


def test_diagram_type_of_e_differs_from_source():
    for spec in [(0, 0, 2, 3), (0, 0, 6, 9), (0, 0, 5, 5), (1, 1, 1, 1)]:
        report = lambda_lin(QuasihomogeneousSpec(*spec))
        assert diagram_type(report.E_D) != diagram_type(report.D_min)
