"""Axioms, invariants and surgery on weighted Enriques diagrams."""

import random
import time

import pytest

import enriques.diagram
from enriques import (
    DiagramError,
    InconsistentDiagramError,
    InvalidDiagramError,
    Kind,
    UnknownVertexError,
    Violation,
    add_leaf,
    canonical_key,
    canonical_order,
    classify,
    diagram_type,
    excesses,
    is_complete,
    is_consistent,
    is_minimal,
    milnor_number,
    minimalize,
    order_of_values,
    proximity_diagram,
    relabel,
    remove_vertices,
    require_valid,
    single_vertex,
    total_excess,
    validate_axioms,
    weighted_diagram,
)
from helpers import (
    cusp_complete,
    cusp_minimal,
    isomorphic,
    leaning_bamboo,
    random_consistent,
    wd,
)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_valid_diagrams_have_no_violations():
    for w in (single_vertex(3), cusp_minimal(), cusp_complete(), leaning_bamboo([6, 3, 3])):
        assert validate_axioms(w.diagram) == []
        require_valid(w.diagram)


def test_structural_cycle_is_reported():
    d = proximity_diagram(0, {1: 2, 2: 1}, [(1, 2), (2, 1)])
    vs = validate_axioms(d)
    assert [(v.axiom, v.vertices) for v in vs] == [(0, (1,))]


def test_structural_self_proximity_is_reported():
    d = proximity_diagram(0, {1: 0}, [(1, 0), (1, 1)])
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(0, (1,))]


def test_structural_unknown_vertex_in_proximity():
    d = proximity_diagram(0, {1: 0}, [(1, 0), (1, 7)])
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(0, (7,))]


def test_structural_root_with_parent_entry():
    d = proximity_diagram(0, {0: 1, 1: 0}, [(1, 0)])
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(0, (0,))]


def test_axiom1_root_proximate_to_nothing():
    d = proximity_diagram(0, {1: 0}, [(1, 0), (0, 1)])
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(1, (0,))]


def test_axiom2_vertex_must_lean_on_parent():
    d = proximity_diagram(0, {1: 0, 2: 1}, [(1, 0), (2, 0)])
    vs = validate_axioms(d)
    assert [(v.axiom, v.vertices) for v in vs] == [(2, (2, 1))]
    assert "parent" in vs[0].message


def test_axiom3_at_most_two_targets():
    d = proximity_diagram(
        0, {1: 0, 2: 1, 3: 2}, [(1, 0), (2, 1), (3, 2), (3, 1), (3, 0)]
    )
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(3, (3,))]


def test_axiom4_second_target_must_be_parents_target():
    # 3 leans on its parent 2 and on 0, but 2 does not lean on 0
    d = proximity_diagram(0, {1: 0, 2: 1, 3: 2}, [(1, 0), (2, 1), (3, 2), (3, 0)])
    assert [(v.axiom, v.vertices) for v in validate_axioms(d)] == [(4, (3, 2, 0))]


def test_axiom5_no_two_vertices_share_a_proximity_pair():
    d = proximity_diagram(
        0, {1: 0, 2: 1, 3: 1}, [(1, 0), (2, 1), (2, 0), (3, 1), (3, 0)]
    )
    vs = validate_axioms(d)
    assert [(v.axiom, v.vertices) for v in vs] == [(5, (0, 1, 2, 3))]


def axiom5_reference(d):
    """Axiom 5 by its definition: for each proximity pair, scan every vertex."""
    prox = set(d.proximity)
    out = []
    for source, target in d.proximity:
        both = [u for u in d.vertices if (u, source) in prox and (u, target) in prox]
        if len(both) > 1:
            message = f"{len(both)} vertices proximate to both {target} and {source}"
            out.append(Violation(5, (target, source, *sorted(both)), message))
    return sorted(out, key=lambda v: v.vertices)


def test_axiom5_matches_its_quadratic_definition():
    rng = random.Random(5)
    violating = 0
    for _ in range(3000):
        n = rng.randint(2, 9)
        parent = {i: rng.randrange(i) for i in range(1, n)}
        prox = set()
        for i in range(1, n):
            if rng.random() < 0.9:
                prox.add((i, parent[i]))
            for j in rng.sample(range(n), rng.randint(0, 2)):
                if j != i:
                    prox.add((i, j))
        d = proximity_diagram(0, parent, prox)
        expected = axiom5_reference(d)
        assert [v for v in validate_axioms(d) if v.axiom == 5] == expected
        violating += bool(expected)
    assert violating > 100


def test_validate_axioms_is_fast_on_a_long_chain():
    d = leaning_bamboo([1] * 20000).diagram
    started = time.perf_counter()
    assert validate_axioms(d) == []
    assert time.perf_counter() - started < 5


def test_consecutive_satellites_on_the_same_far_target_are_legal():
    # each pair (previous, far target) carries exactly one common source
    d = proximity_diagram(
        0,
        {1: 0, 2: 1, 3: 2, 4: 3},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 0), (4, 3), (4, 0)],
    )
    assert validate_axioms(d) == []


def test_require_valid_raises_with_violations():
    d = proximity_diagram(0, {1: 0}, [(1, 0), (0, 1)])
    with pytest.raises(InvalidDiagramError) as exc:
        require_valid(d)
    assert exc.value.violations[0].axiom == 1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_kinds_and_finality():
    w = cusp_complete()
    d = w.diagram
    assert classify(d, 0).kind is Kind.ROOT and not classify(d, 0).final
    assert classify(d, 1).kind is Kind.FREE
    assert classify(d, 2).kind is Kind.SATELLITE and not classify(d, 2).final
    assert classify(d, 3).kind is Kind.FREE and classify(d, 3).final


def test_classify_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        classify(single_vertex(1).diagram, 9)


# ---------------------------------------------------------------------------
# values, excesses, Milnor number
# ---------------------------------------------------------------------------

def test_order_of_values_cusp():
    assert order_of_values(cusp_minimal()) == {0: 2, 1: 3, 2: 6}


def test_order_of_values_accumulates_over_both_targets():
    w = leaning_bamboo([6, 3, 3])
    assert order_of_values(w) == {0: 6, 1: 9, 2: 18}


def test_order_of_values_rejects_root_on_a_parent_cycle():
    # the root's parent is its own child: the preorder walk would cycle
    w = weighted_diagram(proximity_diagram(0, {0: 1, 1: 0}, [(1, 0)]), {0: 2, 1: 1})
    with pytest.raises(InvalidDiagramError):
        order_of_values(w)


def test_excesses_cusp():
    w = cusp_minimal()
    assert excesses(w) == {0: 0, 1: 0, 2: 1}
    assert total_excess(w) == 1


def test_milnor_numbers():
    assert milnor_number(single_vertex(1)) == 0
    assert milnor_number(single_vertex(2)) == 1
    assert milnor_number(cusp_minimal()) == 2
    assert milnor_number(cusp_complete()) == 2
    assert milnor_number(leaning_bamboo([6, 3, 3])) == 40


def test_milnor_number_of_adjacent_shape():
    w = add_leaf(leaning_bamboo([6, 3, 2]), 2, 2)
    assert milnor_number(w) == 37


def test_inconsistent_diagram_rejected():
    w = wd(0, {1: 0}, [(1, 0)], {0: 1, 1: 2})
    assert not is_consistent(w)
    assert excesses(w)[0] == -1
    with pytest.raises(InconsistentDiagramError):
        milnor_number(w)


# ---------------------------------------------------------------------------
# completeness and minimality
# ---------------------------------------------------------------------------

def test_is_complete():
    assert is_complete(cusp_complete())
    assert not is_complete(cusp_minimal())
    # a lone root is final but not free
    assert not is_complete(single_vertex(1))


def test_complete_rejects_weight_one_free_leaning_on_weight_one_free():
    w = wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1)], {0: 2, 1: 1, 2: 1})
    assert not is_complete(w)


def test_is_minimal():
    assert is_minimal(single_vertex(1))
    assert is_minimal(cusp_minimal())
    assert not is_minimal(cusp_complete())
    # free weight-1 leaf with no satellite leaning on it
    assert not is_minimal(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 1}))
    # free weight-0 vertex
    assert not is_minimal(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 0}))
    assert not is_minimal(single_vertex(0))


def test_minimalize_cusp():
    m = minimalize(cusp_complete())
    assert is_minimal(m)
    assert canonical_key(m) == "(2r(1f(1a)))"
    assert isomorphic(m, cusp_minimal())


def test_minimalize_is_idempotent_and_preserves_mu():
    w = cusp_complete()
    m = minimalize(w)
    assert minimalize(m) is m or canonical_key(minimalize(m)) == canonical_key(m)
    assert milnor_number(m) == milnor_number(w)


def test_minimalize_cascades_through_exposed_leaves():
    w = wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1)], {0: 3, 1: 1, 2: 1})
    m = minimalize(w)
    assert len(m) == 1 and m.nu[m.root] == 3


def test_minimalize_requires_consistency():
    w = wd(0, {1: 0}, [(1, 0)], {0: 1, 1: 2})
    with pytest.raises(InconsistentDiagramError):
        minimalize(w)


def test_minimalize_keeps_pinned_weight_one_free_vertices():
    m = minimalize(leaning_bamboo([2, 1, 1]))
    # vertex 1 is free of weight 1 but the satellite end leans on it
    assert len(m) == 3


def test_weight_zero_satellite_class_has_no_minimal_member():
    # class moves only touch free vertices, so a weight-0 satellite can
    # never be removed and keeps pinning its free weight-0 target; the
    # fixed point of minimalize is honest but fails the predicate
    w = wd(
        0,
        {1: 0, 2: 1},
        [(1, 0), (2, 1), (2, 0)],
        {0: 1, 1: 0, 2: 0},
    )
    assert is_consistent(w)
    m = minimalize(w)
    assert canonical_key(m) == canonical_key(w)
    assert not is_minimal(m)


def fixed_point_minimalize(w):
    """minimalize by its definition: peel final free weight-0/1 vertices
    one layer per rebuild until none is left."""
    current = w
    while True:
        d = current.diagram
        removable = [
            v
            for v in d.vertices
            if v != d.root
            and not d.children[v]
            and len(d.prox_targets[v]) == 1
            and current.nu[v] in (0, 1)
        ]
        if not removable:
            return current
        current = remove_vertices(current, removable)


def test_minimalize_matches_the_fixed_point_definition():
    rng = random.Random(11)
    shrank = 0
    for _ in range(3000):
        w = random_consistent(rng, max_vertices=10)
        expected = fixed_point_minimalize(w)
        assert minimalize(w) == expected
        shrank += len(expected) < len(w)
    assert shrank > 1000


def test_minimalize_returns_its_input_when_nothing_is_removable():
    w = leaning_bamboo([2, 1, 1])
    assert minimalize(w) is w


def test_minimalize_removes_a_long_free_chain_in_one_construction(monkeypatch):
    # a free weight-1 chain collapses to its root; peeling it one layer per
    # rebuild would make 19,999 diagrams
    n = 20000
    w = wd(
        0,
        {v: v - 1 for v in range(1, n)},
        [(v, v - 1) for v in range(1, n)],
        dict.fromkeys(range(n), 1),
    )
    expected = single_vertex(1)
    calls = []

    def counting(*args):
        calls.append(args)
        if len(calls) > 1:
            raise AssertionError("minimalize constructed more than one diagram")
        return weighted_diagram(*args)

    monkeypatch.setattr(enriques.diagram, "weighted_diagram", counting)
    started = time.perf_counter()
    m = minimalize(w)
    assert time.perf_counter() - started < 5
    assert len(calls) == 1
    assert m == expected


def test_minimalize_rejects_a_vertex_off_the_root():
    # vertex 2 has no parent, so the preorder walk from the root misses it
    w = wd(0, {1: 2}, [(1, 2)], {0: 1, 1: 1, 2: 1})
    assert is_consistent(w)
    with pytest.raises(InvalidDiagramError):
        minimalize(w)


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def test_remove_vertices_requires_successor_closed_set():
    w = cusp_minimal()
    with pytest.raises(DiagramError):
        remove_vertices(w, [1])
    out = remove_vertices(w, [2])
    assert sorted(out.diagram.vertices) == [0, 1]


def test_remove_vertices_protects_root():
    with pytest.raises(DiagramError):
        remove_vertices(single_vertex(2), [0])


def test_add_free_leaf_allocates_fresh_id():
    w = add_leaf(cusp_minimal(), 2, 1)
    assert 3 in w.diagram.vertices
    assert w.diagram.parent[3] == 2
    assert w.diagram.prox_targets[3] == (2,)
    assert w.nu[3] == 1


def test_add_free_leaf_preserves_mu():
    w = cusp_minimal()
    assert milnor_number(add_leaf(w, 2, 1)) == milnor_number(w)
    assert milnor_number(add_leaf(w, 2, 0)) == milnor_number(w)


def test_add_free_leaf_unknown_parent():
    with pytest.raises(UnknownVertexError):
        add_leaf(single_vertex(1), 5, 1)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_key_examples():
    assert canonical_key(single_vertex(1)) == "(1r)"
    assert canonical_key(cusp_minimal()) == "(2r(1f(1a)))"
    assert canonical_key(leaning_bamboo([6, 3, 3])) == "(6r(3f(3a)))"


def test_canonical_key_distinguishes_second_target_position():
    # both chains have weights (2,1,1,1) but the last satellite differs in
    # which of its parent's targets it shares
    a = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 1)],
        {0: 2, 1: 1, 2: 1, 3: 1},
    )
    b = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 0)],
        {0: 2, 1: 1, 2: 1, 3: 1},
    )
    ka, kb = canonical_key(a), canonical_key(b)
    assert ka != kb
    assert ka == "(2r(1f(1a(1a))))"
    assert kb == "(2r(1f(1a(1b))))"


def test_canonical_key_is_relabelling_invariant():
    w = cusp_complete()
    r = relabel(w, {0: 10, 1: 7, 2: 3, 3: 0})
    assert canonical_key(r) == canonical_key(w)
    assert isomorphic(r, w)


def test_canonical_key_sorts_sibling_subtrees():
    a = wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 5, 1: 2, 2: 3})
    b = wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 5, 1: 3, 2: 2})
    assert canonical_key(a) == canonical_key(b) == "(5r(2f)(3f))"


def test_canonical_order_root_first_children_by_key():
    w = wd(0, {1: 0, 2: 0}, [(1, 0), (2, 0)], {0: 5, 1: 3, 2: 2})
    assert canonical_order(w) == (0, 2, 1)


def test_relabel_requires_bijection():
    with pytest.raises(DiagramError):
        relabel(cusp_minimal(), {0: 0, 1: 1, 2: 1})


def test_diagram_type_equality_and_hash():
    t1 = diagram_type(cusp_complete())
    t2 = diagram_type(relabel(cusp_minimal(), {0: 4, 1: 9, 2: 6}))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != diagram_type(single_vertex(2))
    assert is_minimal(t1.representative)
