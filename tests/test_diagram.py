"""Axioms, invariants and surgery on weighted Enriques diagrams."""

import hashlib
import random
import time
import tracemalloc
from itertools import permutations

import pytest

from enriques import (
    DiagramError,
    InconsistentDiagramError,
    InvalidDiagramError,
    Kind,
    ProximityDiagram,
    UnknownVertexError,
    Violation,
    WeightedDiagram,
    add_leaf,
    bamboo_invariants,
    canonical_key,
    canonical_order,
    classify,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    diagram_type,
    excesses,
    geq,
    is_bamboo,
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
from enriques.diagram import _grown, _preorder
from enriques.quasihomogeneous import bamboo_chain
from helpers import (
    count_constructions,
    cusp_complete,
    cusp_minimal,
    isomorphic,
    leaning_bamboo,
    proximity_pairs,
    random_consistent,
    random_proximity,
    reference_form,
    reference_maps,
    reference_preorder,
    reference_validate_axioms,
    wd,
    zero_satellite_chain,
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
    proximity = proximity_pairs(d)
    prox = set(proximity)
    out = []
    for source, target in proximity:
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


@pytest.mark.timed
def test_validate_axioms_is_fast_on_a_long_chain():
    d = leaning_bamboo([1] * 20000).diagram
    started = time.perf_counter()
    assert validate_axioms(d) == []
    assert time.perf_counter() - started < 5


def hub_over_a_chain(n, free_children):
    """A chain 0..n-1 and a hub n below its end, proximate to every chain
    vertex, with ``free_children`` free children of the hub."""
    hub = n
    kids = range(hub + 1, hub + 1 + free_children)
    parent = {**{i: i - 1 for i in range(1, n)}, hub: n - 1, **dict.fromkeys(kids, hub)}
    targets = {**{i: [i - 1] for i in range(1, n)}, hub: list(range(n))}
    targets.update((c, [hub]) for c in kids)
    return ProximityDiagram(0, parent, targets)


@pytest.mark.parametrize("free_children", [0, 300])
def test_validate_axioms_is_linear_in_one_vertex_target_count(free_children):
    # the hub's targets make 89,700 ordered pairs: a check that lists them
    # cannot stay under the bound
    d = hub_over_a_chain(300, free_children)
    tracemalloc.start()
    try:
        violations = validate_axioms(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(v.axiom, v.vertices) for v in violations] == [(3, (300,))]
    assert peak < 2_000_000


def hub_with_satellites(n, strays=0):
    """``hub_over_a_chain(n, 0)`` with one satellite child of the hub per
    chain vertex ``t``, proximate to the hub and ``t``; the last
    ``strays`` of them lean on a child of the hub instead (axiom 4)."""
    hub = n
    kids = range(hub + 1, 2 * n + 1)
    seconds = [*range(n - strays), *kids[:strays]]
    parent = {**{i: i - 1 for i in range(1, n)}, hub: n - 1, **dict.fromkeys(kids, hub)}
    targets = {**{i: [i - 1] for i in range(1, n)}, hub: list(range(n))}
    targets.update((c, [hub, t]) for c, t in zip(kids, seconds))
    return ProximityDiagram(0, parent, targets)


@pytest.mark.timed
def test_validate_axioms_looks_up_a_wide_parents_targets_once():
    # 40,000 satellite children of a hub with 40,000 targets: a scan of
    # the hub's targets per child makes about 8e8 comparisons and cannot
    # stay under the bound
    d = hub_with_satellites(40_000)
    started = time.perf_counter()
    violations = validate_axioms(d)
    assert time.perf_counter() - started < 2
    assert [(v.axiom, v.vertices) for v in violations] == [(3, (40_000,))]


def test_consecutive_satellites_on_the_same_far_target_are_legal():
    # each pair (previous, far target) carries exactly one common source
    d = proximity_diagram(
        0,
        {1: 0, 2: 1, 3: 2, 4: 3},
        [(1, 0), (2, 1), (2, 0), (3, 2), (3, 0), (4, 3), (4, 0)],
    )
    assert validate_axioms(d) == []


def random_map(rng):
    """A proximity map of 1-7 vertices that breaks the axioms now and then:
    cycles, missing parents, a root with a parent, and stray and self
    proximity pairs, some naming ids outside the tree."""
    n = rng.randint(1, 7)
    parent = {}
    targets = {0: []}
    prox = []
    for v in range(1, n):
        roll = rng.random()
        if roll < 0.8:
            parent[v] = rng.randrange(v)
        elif roll < 0.92:
            parent[v] = rng.randrange(n)
        targets[v] = []
        if v in parent and rng.random() < 0.9:
            targets[v].append(parent[v])
        if rng.random() < 0.4:
            choices = targets.get(parent.get(v), []) if rng.random() < 0.6 else range(n)
            if choices:
                targets[v].append(rng.choice(choices))
        prox += [(v, t) for t in targets[v]]
    if rng.random() < 0.05:
        parent[0] = rng.randrange(n)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        prox.append((rng.randrange(n + 2), rng.randrange(n + 2)))
    return proximity_diagram(0, parent, prox)


def test_validate_axioms_is_pinned_on_random_maps():
    # SHA-256 of the violation lists of 20,000 seeded random maps, recorded
    # before validation became one walk per parent chain
    digest = hashlib.sha256()
    rng = random.Random(20_000)
    valid = 0
    axioms = set()
    for _ in range(20_000):
        violations = validate_axioms(random_map(rng))
        digest.update(repr([(v.axiom, v.vertices, v.message) for v in violations]).encode())
        valid += not violations
        axioms.update(v.axiom for v in violations)
    assert axioms == {0, 1, 2, 3, 4, 5}
    assert valid == 5732
    assert digest.hexdigest() == (
        "1932a29474a9a2bacd2ff1a6a8bb53302b3ebd46d213f5f0d5a0271a55e2923c"
    )


def test_every_reader_gives_a_value_or_a_diagram_error_on_random_maps():
    # each public reader of a weighted diagram meets seeded random maps,
    # which break the axioms now and then, each time on a fresh copy, so
    # none reads a fact that another cached; the system of values used to
    # walk only the tree check and raise KeyError at a target that is not
    # an ancestor
    readers = {
        "orders": order_of_values,
        "excess": excesses,
        "milnor_number": milnor_number,
        "is_complete": is_complete,
        "is_minimal": is_minimal,
        "minimalize": minimalize,
        "key": canonical_key,
        "canonical_order": canonical_order,
        "json": diagram_to_json,
        "dot": diagram_to_dot,
        "text": diagram_to_text,
        "classify": lambda w: classify(w.diagram, w.diagram.vertices[-1]),
        "add_leaf": lambda w: add_leaf(w, w.diagram.vertices[-1], 1, w.root),
        "remove_vertices": lambda w: remove_vertices(w, [w.diagram.vertices[-1]]),
        "relabel": lambda w: relabel(w, {v: v + 1 for v in w.diagram.vertices}),
        "geq": lambda w: geq(w, w),
        "bamboo_invariants": bamboo_invariants,
        "is_bamboo": is_bamboo,
        "bamboo_chain": bamboo_chain,
    }
    rng = random.Random(5)
    refused = dict.fromkeys(readers, 0)
    invalid = 0
    for _ in range(5_000):
        d = random_map(rng)
        weights = tuple(rng.randint(0, 3) for _ in d.vertices)
        invalid += bool(validate_axioms(d))
        for name, reader in readers.items():
            w = WeightedDiagram(ProximityDiagram(d.root, d.parent, d.prox_targets), weights)
            try:
                reader(w)
            except DiagramError:
                refused[name] += 1
    # the readers that need only a valid diagram refuse exactly the 3,562
    # invalid maps; the others refuse inconsistent weights, the lone root
    # or a fork as well, or nothing
    assert invalid == 3_562
    needs_valid = ["orders", "is_complete", "is_minimal", "key", "canonical_order"]
    needs_valid += ["json", "dot", "text", "classify", "is_bamboo", "bamboo_chain"]
    assert {refused[name] for name in needs_valid} == {invalid}, refused
    assert refused["excess"] == refused["add_leaf"] == refused["relabel"] == 0, refused
    assert min(set(refused.values()) - {0}) == invalid, refused


def perturbed(rng, d):
    """``d`` with one proximity pair added between two of its vertices, or
    one of its pairs dropped: each of axioms 0-5 breaks now and then."""
    proximity = proximity_pairs(d)
    pairs = set(proximity)
    if pairs and rng.random() < 0.3:
        pairs.remove(rng.choice(proximity))
    else:
        pairs.add((rng.choice(d.vertices), rng.choice(d.vertices)))
    return proximity_diagram(d.root, d.parent, pairs)


def chain_star_caterpillar(n):
    """A chain of ``n`` vertices whose later vertices lean on their
    grandparent too, a root with ``n`` free children, and a free spine of
    ``n`` vertices each with a satellite leaf on it and its parent."""
    chain = leaning_bamboo([1] * n).diagram
    star = proximity_diagram(0, {v: 0 for v in range(1, n + 1)}, [(v, 0) for v in range(1, n + 1)])
    parent, prox = {}, []
    for i in range(1, n):
        parent[i] = i - 1
        prox.append((i, i - 1))
        parent[n + i] = i
        prox += [(n + i, i), (n + i, i - 1)]
    caterpillar = proximity_diagram(0, parent, prox)
    return chain, star, caterpillar


def test_the_core_passes_match_their_references():
    # validate_axioms, _preorder and the canonical form against the plain
    # versions kept in tests/helpers.py: the same violation lists (axiom,
    # vertices, message and order), the same walks and, on a valid
    # diagram, the same key and canonical ids
    rng = random.Random(29)
    diagrams = [*chain_star_caterpillar(300), *chain_star_caterpillar(3)]
    diagrams += [hub_with_satellites(n, strays) for n in (3, 40) for strays in (0, 2)]
    for i in range(9_000):
        d = random_proximity(rng, 12)
        diagrams.append((d, random_map(rng), perturbed(rng, d))[i % 3])
    diagrams += [perturbed(rng, d) for d in chain_star_caterpillar(4) for _ in range(30)]
    invalid, only_axiom_5, axioms = 0, 0, set()
    for d in diagrams:
        violations = validate_axioms(d)
        assert violations == reference_validate_axioms(d), d
        invalid += bool(violations)
        only_axiom_5 += {v.axiom for v in violations} == {5}
        axioms.update(v.axiom for v in violations)
        if d.root not in d.parent:
            assert _preorder(d.children, d.root) == reference_preorder(d.children, d.root)
        if violations:
            continue
        start = rng.choice(d.vertices)
        assert _preorder(d.children, start) == reference_preorder(d.children, start)
        w = WeightedDiagram(d, tuple(rng.randint(0, 3) for _ in d.vertices))
        assert (w.key, list(w.canonical_ids.items())) == (
            (lambda key, ids: (key, list(ids.items())))(*reference_form(w))
        ), d
    assert axioms == {0, 1, 2, 3, 4, 5}
    # 4,755 of the 9,100 diagrams break an axiom, 35 of them axiom 5 alone
    assert invalid >= 4_500 and only_axiom_5 >= 30, (invalid, only_axiom_5)


def random_run(rng, d, stray=0.0):
    """1-3 ``(parent, second)`` entries for ``_grown(d, run)``, naming ids
    made so far (``d``'s and the run's earlier ones), each id with chance
    ``stray`` one not yet made instead (its own or a later one of the run,
    the next id after the run, or -1); whether some entry names one, and
    whether some entry's parent is a vertex the run makes after it."""
    top = d.vertices[-1]
    length = rng.randint(1, 3)
    run, unmade, forward = [], False, False
    for new in range(top + 1, top + length + 1):
        made = [*d.vertices, *range(top + 1, new)]
        strays = [*range(new, top + length + 2), -1]
        parent = rng.choice(strays if rng.random() < stray else made)
        second = None if rng.random() < 0.3 else rng.choice(strays if rng.random() < stray else made)
        unmade |= parent in strays or second in strays
        forward |= new < parent <= top + length
        run.append((parent, second))
    return run, unmade, forward


def constructed_growth(d, run):
    """``d`` grown by ``run`` as the constructor builds it from the maps:
    each entry's new vertex takes the next id, with its parent and, as its
    sorted targets, the parent alone or with a distinct ``second``."""
    parent, targets = dict(d.parent), dict(d.prox_targets)
    for new, (p, second) in enumerate(run, d.vertices[-1] + 1):
        parent[new] = p
        targets[new] = sorted({p, p if second is None else second})
    return ProximityDiagram(d.root, parent, targets)


def test_a_derived_diagram_inherits_its_verdict_exactly_when_it_is_valid():
    # grown or pruned from a valid source whose verdict is cached, a
    # diagram is seeded with the clean verdict exactly when validate_axioms
    # finds nothing; a run that names an id not yet made is refused
    rng = random.Random(26)
    counts = {"seeded": 0, "invalid": 0, "refused": 0, "forward": 0, "removed": 0}
    axioms = set()
    for _ in range(30_000):
        d = random_proximity(rng)
        assert d.violations == ()
        run, unmade, forward = random_run(rng, d, stray=0.1)
        if unmade:
            with pytest.raises(DiagramError, match="not yet made"):
                _grown(d, run)
            counts["refused"] += 1
            counts["forward"] += forward
        else:
            grown = _grown(d, run)
            seeded = "violations" in grown.__dict__
            violations = validate_axioms(grown)
            assert seeded == (not violations), (d, run)
            axioms.update(v.axiom for v in violations)
            counts["seeded"] += seeded
            counts["invalid"] += bool(violations)
        if len(d.vertices) > 1:
            below = _preorder(d.children, rng.choice(d.vertices[1:]))
            kept = remove_vertices(WeightedDiagram(d, (1,) * len(d.vertices)), below).diagram
            assert kept.__dict__["violations"] == () and validate_axioms(kept) == []
            counts["removed"] += 1
    # 9,625 seeded, 11,581 invalid, 8,794 refused (878 of them with a
    # later parent) and 26,245 removals
    assert counts["seeded"] >= 9_000 and counts["invalid"] >= 11_000, counts
    assert counts["refused"] >= 8_000 and counts["forward"] >= 700, counts
    assert counts["removed"] >= 25_000, counts
    assert axioms == {4, 5}


def test_a_relabelled_diagram_inherits_its_verdict_exactly_when_it_is_valid():
    # the sources are random valid diagrams, grown by random runs that
    # break an axiom about two times in three; a run that names an id not
    # yet made is refused by _grown, and that source is built by the
    # constructor from the same pairs; every source's verdict is cached,
    # and each is renamed to distinct ids, negative ones included
    rng = random.Random(27)
    counts = {"seeded": 0, "invalid": 0, "refused": 0}
    for _ in range(5_000):
        d = random_proximity(rng)
        source = d
        if rng.random() < 0.7:
            run, unmade, _ = random_run(rng, d, stray=0.1)
            if unmade:
                with pytest.raises(DiagramError, match="not yet made"):
                    _grown(d, run)
                counts["refused"] += 1
                source = constructed_growth(d, run)
            else:
                source = _grown(d, run)
        clean = validate_axioms(source) == []
        source.violations
        ids = rng.sample(range(-20, 30), len(source.vertices))
        w = WeightedDiagram(source, (1,) * len(ids))
        renamed = relabel(w, dict(zip(source.vertices, ids))).diagram
        seeded = "violations" in renamed.__dict__
        assert seeded == clean, source
        assert (validate_axioms(renamed) == []) == clean, source
        counts["seeded"] += seeded
        counts["invalid"] += not clean
    # 2,582 seeded, 2,418 invalid and 1,056 refused runs
    assert counts["seeded"] >= 2_000 and counts["invalid"] >= 2_000, counts
    assert counts["refused"] >= 1_000, counts


def test_a_derived_diagram_starts_no_walk_for_a_source_without_a_verdict():
    d = proximity_diagram(0, {1: 0, 2: 1}, [(1, 0), (2, 1), (2, 0)])
    grown = _grown(d, [(2, 1)])
    renamed = relabel(WeightedDiagram(d, (2, 1, 1)), {0: 5, 1: 3, 2: 4}).diagram
    for diagram in (d, grown, renamed):
        assert "violations" not in diagram.__dict__
    assert grown.violations == () and renamed.violations == ()


def test_structural_maps_match_the_reference_in_values_and_order():
    # the random maps include invalid ones: cycles, missing parents and
    # proximity pairs naming ids outside the tree
    rng = random.Random(20_000)
    diagrams = [random_map(rng) for _ in range(20_000)]
    rng = random.Random(2024)
    diagrams += [random_proximity(rng) for _ in range(2_000)]
    for d in diagrams:
        for name, expected in reference_maps(d).items():
            got = getattr(d, name)
            assert got == expected, (d, name)
            if isinstance(expected, dict):
                assert list(got) == list(expected), (d, name)


def assert_maps_as_constructed(d):
    """``d``'s four maps equal, in values and key order, the ones the
    constructor derives from ``d``'s own ``parent`` and ``prox_targets``."""
    built = ProximityDiagram(d.root, d.parent, d.prox_targets)
    for name in ("vertices", "parent", "children", "prox_targets"):
        got, expected = getattr(d, name), getattr(built, name)
        assert got == expected, (d, name)
        if isinstance(expected, dict):
            assert list(got) == list(expected), (d, name)


def successors(d, v):
    """``v`` and every vertex below it, each once even on a parent cycle."""
    seen, stack = {v}, [v]
    while stack:
        for child in d.children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def test_derived_maps_equal_the_constructors():
    # valid and invalid sources, half of them with a cached verdict, grown
    # by random runs of made ids; each source and each grown diagram then
    # drops a random vertex and everything below it.  An invalid source is
    # refused; a valid one, with its verdict cached or not, is pruned to
    # the diagram the constructor builds from its pairs less the dropped
    # vertices', and the result inherits the clean verdict
    rng = random.Random(28)
    counts = {"cached": 0, "walked": 0, "invalid": 0}
    for i in range(20_000):
        d = random_map(rng) if i % 2 else random_proximity(rng)
        if rng.random() < 0.5:
            d.violations
        run = random_run(rng, d)[0]
        grown = _grown(d, run)
        assert grown == constructed_growth(d, run)
        assert_maps_as_constructed(grown)
        for source in (d, grown):
            drop = successors(source, rng.choice(source.vertices))
            if source.root in drop:
                continue
            w = WeightedDiagram(source, tuple(range(len(source.vertices))))
            cached = "violations" in source.__dict__
            if validate_axioms(source):
                with pytest.raises(InvalidDiagramError):
                    remove_vertices(w, drop)
                counts["invalid"] += 1
                continue
            kept = remove_vertices(w, drop)
            assert kept.diagram == ProximityDiagram(
                source.root,
                {v: p for v, p in source.parent.items() if v not in drop},
                {
                    v: [t for t in targets if t not in drop]
                    for v, targets in source.prox_targets.items()
                    if v not in drop
                },
            )
            left = tuple(v for v in source.vertices if v not in drop)
            assert kept.diagram.vertices == left
            assert kept.weights == tuple(source.vertices.index(v) for v in left)
            assert kept.diagram.__dict__["violations"] == ()
            assert_maps_as_constructed(kept.diagram)
            counts["cached" if cached else "walked"] += 1
    # 6,122 removals from a cached clean verdict, 6,265 from a valid source
    # walked on the spot and 17,109 refused
    assert counts["cached"] >= 5_500 and counts["walked"] >= 5_500, counts
    assert counts["invalid"] >= 15_000, counts


def test_structural_maps_are_not_fields():
    a = proximity_diagram(0, {1: 0}, [(1, 0)])
    b = proximity_diagram(0, {1: 0}, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert "children" not in repr(a)


def test_the_constructor_keeps_none_of_its_callers_objects():
    # the caller's maps and target lists, changed after the build, change
    # neither the diagram nor its hash
    parent, targets = {1: 0, 2: 1}, {1: [0], 2: [0, 1]}
    d = ProximityDiagram(0, parent, targets)
    expected = hash(d)
    parent[1] = 2
    parent[3] = 2
    targets[1].append(2)
    targets[2].clear()
    targets[3] = [2]
    assert d == ProximityDiagram(0, {1: 0, 2: 1}, {1: [0], 2: [0, 1]})
    assert hash(d) == expected
    assert (d.vertices, d.parent) == ((0, 1, 2), {1: 0, 2: 1})
    assert d.prox_targets == {0: (), 1: (0,), 2: (1, 0)}


def test_proximity_diagram_reads_a_repeated_pair_once():
    d = proximity_diagram(0, {1: 0, 2: 1}, [(2, 0), (1, 0), (2, 1), (1, 0), (2, 0)])
    assert d == proximity_diagram(0, {1: 0, 2: 1}, [(1, 0), (2, 1), (2, 0)])
    assert d.prox_targets == {0: (), 1: (0,), 2: (1, 0)}
    assert validate_axioms(d) == []


def test_proximity_diagram_output_rebuilds_as_is():
    rng = random.Random(20_000)
    diagrams = [random_map(rng) for _ in range(2_000)]
    rng = random.Random(2024)
    diagrams += [random_proximity(rng) for _ in range(500)]
    for d in diagrams:
        assert ProximityDiagram(d.root, d.parent, d.prox_targets) == d
        assert_maps_as_constructed(d)


@pytest.mark.parametrize("items", [(2, 1), (2, 1, 1, 1)])
def test_weighted_diagram_built_directly_must_weigh_each_vertex_once(items):
    with pytest.raises(DiagramError, match="one weight per vertex"):
        WeightedDiagram(cusp_minimal().diagram, items)


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


def test_vertex_ids_must_be_integers():
    # 3.0 and True hash like the ids 3 and 1, and a list is unhashable
    w = cusp_complete()
    calls = [
        lambda: remove_vertices(w, [3.0]),
        lambda: classify(w.diagram, True),
        lambda: classify(w.diagram, [1]),
        lambda: remove_vertices(w, [[3]]),
    ]
    for call in calls:
        with pytest.raises(DiagramError, match="vertex id must be an integer, got"):
            call()


def test_classify_rejects_a_non_root_vertex_proximate_to_nothing():
    d = proximity_diagram(0, {1: 0}, [])
    with pytest.raises(InvalidDiagramError) as exc:
        classify(d, 1)
    assert [(v.axiom, v.vertices) for v in exc.value.violations] == [(2, (1, 0))]


@pytest.mark.parametrize(
    "d, v, expected",
    [
        # vertex 3 has three targets (axiom 3)
        (
            proximity_diagram(0, {1: 0, 2: 1, 3: 2}, [(1, 0), (2, 1), (3, 2), (3, 1), (3, 0)]),
            3,
            [(3, (3,))],
        ),
        # vertex 2 leans on the root alone, not on its parent 1 (axiom 2)
        (proximity_diagram(0, {1: 0, 2: 1}, [(1, 0), (2, 0)]), 2, [(2, (2, 1))]),
        # the root leans on its child (axiom 1)
        (proximity_diagram(0, {1: 0}, [(1, 0), (0, 1)]), 0, [(1, (0,))]),
    ],
    ids=["three-targets", "not-proximate-to-parent", "root-proximate"],
)
def test_classify_rejects_an_axiom_violating_diagram(d, v, expected):
    with pytest.raises(InvalidDiagramError) as exc:
        classify(d, v)
    assert [(x.axiom, x.vertices) for x in exc.value.violations] == expected


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


@pytest.mark.parametrize("parent", [{0: 1, 1: 0}, {1: 2}])
def test_preorder_is_the_tree_check(parent):
    # read before any verdict: a root on a parent cycle, and a vertex off
    # the root, leave the walk from the root short
    d = proximity_diagram(0, parent, [(1, parent[1])])
    with pytest.raises(InvalidDiagramError):
        d.preorder


def test_values_and_milnor_number_reject_a_vertex_off_the_root():
    # vertex 2 has no parent: the values and the Milnor number used to
    # read {0: 1} and -1 off the root's part alone
    w = wd(0, {1: 2}, [(1, 2)], {0: 1, 1: 1, 2: 1})
    assert is_consistent(w)
    with pytest.raises(InvalidDiagramError):
        order_of_values(w)
    with pytest.raises(InvalidDiagramError):
        milnor_number(w)


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


def test_complete_rejects_a_non_final_vertex_with_positive_excess():
    # the root weighs 2 over one weight-1 source
    w = wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1)], {0: 2, 1: 1, 2: 1})
    assert excesses(w)[0] == 1
    assert not is_complete(w)


def test_complete_rejects_a_final_free_leaf_on_a_free_weight_one_vertex():
    # every non-final excess is zero, so only the final vertex's proximity
    # to a free weight-1 vertex makes the diagram incomplete
    w = wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1)], {0: 1, 1: 1, 2: 1})
    assert all(excesses(w)[v] == 0 for v in (0, 1))
    assert not is_complete(w)


def test_is_minimal_rejects_an_inconsistent_diagram():
    # the free vertex outweighs the root; no other minimality rule fails
    w = wd(0, {1: 0}, [(1, 0)], {0: 1, 1: 2})
    assert not is_minimal(w)


def test_is_minimal():
    assert is_minimal(single_vertex(1))
    assert is_minimal(cusp_minimal())
    assert not is_minimal(cusp_complete())
    # free weight-1 leaf with no satellite leaning on it
    assert not is_minimal(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 1}))
    # free weight-0 vertex
    assert not is_minimal(wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 0}))
    assert not is_minimal(single_vertex(0))
    # valid and consistent, but its end is a weight-0 satellite
    w = zero_satellite_chain()
    assert w.diagram.violations == () and is_consistent(w)
    assert not is_minimal(w)


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


@pytest.mark.timed
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
    built = count_constructions(monkeypatch, most=1)
    started = time.perf_counter()
    m = minimalize(w)
    assert time.perf_counter() - started < 5
    assert len(built) == 1
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
    # a key that is no vertex cannot make up for two vertices given one id,
    # even from a source whose clean verdict the result would inherit
    w = cusp_minimal()
    assert w.diagram.violations == ()
    with pytest.raises(DiagramError, match="bijection"):
        relabel(w, {0: 0, 1: 0, 2: 1, 7: 2})


@pytest.mark.parametrize(
    "mapping",
    [
        {0: "a", 1: 2, 2: 3},
        {0: 0.0, 1: 1.5, 2: 2.5},
        {0: False, 1: True, 2: 2},
        {0: 0, 1: True, 2: 2},
    ],
)
def test_relabel_refuses_ids_that_are_not_integers(mapping):
    # in every insertion order: a set of the ids keeps whichever of the
    # equal 1 and True it meets first
    for order in permutations(mapping):
        with pytest.raises(DiagramError, match="vertex id must be an integer"):
            relabel(cusp_minimal(), {v: mapping[v] for v in order})


def test_relabel_names_the_id_that_is_not_an_integer():
    # the renamed parent map names the children 2, 1 and 'x': the string id
    # is what is reported
    w = wd(0, {1: 0, 2: 1, 3: 2}, [(1, 0), (2, 1), (3, 2)], {0: 4, 1: 2, 2: 1, 3: 1})
    with pytest.raises(DiagramError, match="vertex id must be an integer, got 'x'"):
        relabel(w, {0: 0, 1: 2, 2: 1, 3: "x"})


@pytest.mark.parametrize(
    "root, edges, pairs",
    [
        (0, {"1": 0}, {"1": [0]}),
        (0.0, {1: 0.0}, {1: [0.0]}),
        (0, {True: 0}, {True: [0]}),
        # True equals the id 1 named before it, so a set of the ids hides it
        (0, {1: 0}, {True: [0]}),
    ],
)
def test_diagram_refuses_ids_that_are_not_integers(root, edges, pairs):
    # edges is the parent map, pairs the map of targets
    with pytest.raises(DiagramError, match="vertex id must be an integer"):
        ProximityDiagram(root=root, parent=edges, prox_targets=pairs)


@pytest.mark.parametrize(
    "edges, pairs, named",
    [
        ({"c": "p"}, {"c": ["p"]}, "'c'"),
        ({1: "p"}, {1: ["t"]}, "'p'"),
        ({1: 0}, {"s": ["t"]}, "'s'"),
        ({1: 0}, {1: ["t"]}, "'t'"),
        # a source with no targets names no vertex, but it is still checked
        ({1: 0}, {1: [0], "s": []}, "'s'"),
    ],
)
def test_diagram_names_the_first_id_that_is_not_an_integer(edges, pairs, named):
    # ids are checked child, parent, then source and each target, vertex by
    # vertex; edges is the parent map, pairs the map of targets
    with pytest.raises(DiagramError, match=f"vertex id must be an integer, got {named}$"):
        ProximityDiagram(root=0, parent=edges, prox_targets=pairs)


def test_relabel_names_a_vertex_the_mapping_misses():
    w = wd(0, {1: 0}, [(1, 0)], {0: 2, 1: 1})
    with pytest.raises(DiagramError, match="vertex 1"):
        relabel(w, {0: 1, 2: 0})


def test_weighted_diagram_names_a_vertex_without_weight():
    d = proximity_diagram(0, {1: 0}, [(1, 0)])
    with pytest.raises(DiagramError, match="no weight for vertex 1"):
        weighted_diagram(d, {0: 1})


def test_weighted_diagram_names_every_weighed_id_that_is_not_a_vertex():
    with pytest.raises(DiagramError, match=r"not vertices: \[9\]"):
        weighted_diagram(proximity_diagram(0, {}, []), {0: 1, 9: 4})
    d = proximity_diagram(0, {1: 0}, [(1, 0)])
    with pytest.raises(DiagramError, match=r"not vertices: \[7, 3\]"):
        weighted_diagram(d, {7: 1, 0: 2, 1: 1, 3: 5})


@pytest.mark.parametrize("weight", [2.7, True, "2", "x"])
def test_weighted_diagram_takes_only_int_weights(weight):
    d = proximity_diagram(0, {1: 0}, [(1, 0)])
    with pytest.raises(DiagramError, match="weight must be an integer"):
        weighted_diagram(d, {0: 2, 1: weight})


def test_minimalize_refuses_a_root_of_weight_zero():
    with pytest.raises(DiagramError, match="root of positive weight"):
        minimalize(single_vertex(0))
    with pytest.raises(DiagramError, match="root of positive weight"):
        diagram_type(single_vertex(0))


def test_diagram_type_equality_and_hash():
    t1 = diagram_type(cusp_complete())
    t2 = diagram_type(relabel(cusp_minimal(), {0: 4, 1: 9, 2: 6}))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != diagram_type(single_vertex(2))
    assert is_minimal(t1.representative)
