"""Builders that derive diagrams from the sorted pairs and maps they hold,
against reference recipes that go through the map adapters.

Each reference unpacks the pairs into a parent map, a proximity list and a
weight map and hands them to ``proximity_diagram`` and
``weighted_diagram``, which sort, dedupe and check them.  The builders
under test append to or filter the source's maps and weights; both must
give equal diagrams: equal pairs and weights, and the four structural
maps equal in values and key order.
"""

import random

import pytest

from enriques import (
    DiagramError,
    WeightedDiagram,
    add_leaf,
    build_enriques_diagram,
    derived_invariants,
    minimal_diagram,
    minimalize,
    proximity_diagram,
    remove_vertices,
    weighted_diagram,
)
from enriques.enumeration import DEFAULT_MAX_CANDIDATES, _minimal_families
from enriques.quasihomogeneous import _chain_length
from helpers import cusp_minimal, random_consistent
from test_acceptance import all_specs


def reference_add_leaf(w, at, weight, second=None):
    d = w.diagram
    new = max(d.vertices) + 1
    parent = dict(d.parent_edges)
    parent[new] = at
    prox = list(d.proximity)
    prox.append((new, at))
    if second is not None:
        prox.append((new, second))
    nu = dict(w.nu)
    nu[new] = weight
    return weighted_diagram(proximity_diagram(d.root, parent, prox), nu)


def reference_remove_vertices(w, drop):
    dropped = set(drop)
    d = w.diagram
    parent = {v: p for v, p in d.parent_edges if v not in dropped}
    prox = [(s, t) for s, t in d.proximity if s not in dropped and t not in dropped]
    nu = {v: w.nu[v] for v in d.vertices if v not in dropped}
    return weighted_diagram(proximity_diagram(d.root, parent, prox), nu)


def reference_minimalize(w):
    d = w.diagram
    removable = set()
    for v in reversed(d.preorder[1:]):
        free_and_light = len(d.prox_targets[v]) == 1 and w.nu[v] in (0, 1)
        if free_and_light and removable.issuperset(d.children[v]):
            removable.add(v)
    return reference_remove_vertices(w, removable) if removable else w


def reference_chain(spec):
    """The resolution walk as maps: parent, proximity pairs, weights, and
    the last vertex on the x axis."""
    inv = derived_invariants(spec)
    a, b = inv.r, inv.s
    side_a = side_b = None
    parent, prox, nu = {}, [], {}
    x_axis = 0
    for vertex in range(_chain_length(spec, inv)):
        weight = inv.d_tilde * min(a, b)
        if side_a is None:
            weight += spec.k
            x_axis = vertex
        if side_b is None:
            weight += spec.l
        nu[vertex] = weight
        if vertex:
            parent[vertex] = vertex - 1
            for target in (side_a, side_b):
                if target is not None:
                    prox.append((vertex, target))
        if a < b:
            b -= a
            side_b = vertex
        else:
            a -= b
            side_a = vertex
    return parent, prox, nu, x_axis


def reference_minimal_diagram(spec):
    parent, prox, nu, _ = reference_chain(spec)
    return weighted_diagram(proximity_diagram(0, parent, prox), nu)


def reference_complete_diagram(spec):
    inv = derived_invariants(spec)
    parent, prox, nu, x_axis = reference_chain(spec)
    end = len(nu) - 1
    for at in [end] * inv.d_tilde + [x_axis] * spec.k + [0] * spec.l:
        vertex = len(nu)
        parent[vertex] = at
        prox.append((vertex, at))
        nu[vertex] = 1
    return weighted_diagram(proximity_diagram(0, parent, prox), nu)


def reference_structure(shape):
    parent = {i: shape[i][0] for i in range(1, len(shape))}
    prox = [(i, t) for i in range(1, len(shape)) for t in shape[i][:2] if t >= 0]
    return proximity_diagram(0, parent, prox)


def assert_same(built, reference):
    assert built == reference
    for name in ("vertices", "parent", "children", "prox_targets"):
        got, expected = getattr(built.diagram, name), getattr(reference.diagram, name)
        assert got == expected and list(got) == list(expected), name


def random_diagrams():
    rng = random.Random(20)
    return [random_consistent(rng, max_vertices=9) for _ in range(300)]


def test_add_leaf_matches_the_map_recipe_at_every_vertex():
    leaves = 0
    for w in random_diagrams():
        d = w.diagram
        for at in d.vertices:
            # free, and every vertex as the second target: ``at`` itself
            # (still free), ids below ``at`` and ids above it
            for second in (None, *d.vertices):
                assert_same(add_leaf(w, at, 1, second), reference_add_leaf(w, at, 1, second))
                leaves += 1
    assert leaves > 10000


def test_remove_vertices_matches_the_map_recipe_for_every_final_vertex():
    removals = 0
    for w in random_diagrams():
        d = w.diagram
        for v in d.vertices:
            if v != d.root and not d.children[v]:
                assert_same(remove_vertices(w, [v]), reference_remove_vertices(w, [v]))
                removals += 1
    assert removals > 500


def test_minimalize_matches_the_map_recipe():
    shrank = 0
    for w in random_diagrams():
        m = minimalize(w)
        assert_same(m, reference_minimalize(w))
        shrank += m is not w
    assert shrank > 50


def test_germ_builders_match_the_map_recipe():
    specs = list(all_specs(30))
    for spec in specs:
        assert_same(minimal_diagram(spec), reference_minimal_diagram(spec))
        assert_same(build_enriques_diagram(spec), reference_complete_diagram(spec))
    assert len(specs) > 1800


def test_family_structures_match_the_map_recipe():
    shapes = 0
    for family in _minimal_families(9, 7, DEFAULT_MAX_CANDIDATES):
        assert family.structure == reference_structure(family.shape)
        shapes += 1
    assert shapes == 2538


def test_weighted_diagram_built_directly_takes_only_int_weights():
    # the check lives in the constructor, so no builder can skip it
    with pytest.raises(DiagramError, match="weight must be an integer"):
        WeightedDiagram(cusp_minimal().diagram, (2.5, 1, True))
