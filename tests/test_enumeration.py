"""Bounded enumeration of minimal diagrams up to isomorphism."""

import hashlib
import random
import time
from itertools import islice

import pytest

import enriques.diagram
import enriques.enumeration
from enriques import (
    EnumerationLimitError,
    InvalidDiagramError,
    WeightedDiagram,
    canonical_key,
    enumerate_minimal_diagrams,
    is_minimal,
    minimal_diagram,
    parse_spec,
    validate_axioms,
)
from enriques.cli import run
from enriques.diagram import canonical_form
from enriques.enumeration import _least_in_orbit, _live_children, _weightings
from helpers import (
    reference_extensions,
    reference_milnor_numbers,
    reference_orbit_pairs,
    reference_twins,
    reference_weightings,
    wd,
)


def keys(max_vertices, max_weight, **kw):
    return [canonical_key(w) for w in enumerate_minimal_diagrams(max_vertices, max_weight, **kw)]


def test_single_vertex_bounds():
    assert keys(1, 1) == ["(1r)"]
    assert keys(1, 3) == ["(1r)", "(2r)", "(3r)"]


def test_two_vertices_weight_two():
    assert keys(2, 2) == ["(1r)", "(2r)", "(2r(2f))"]


def test_three_vertices_weight_two():
    assert keys(3, 2) == [
        "(1r)",
        "(2r)",
        "(2r(2f))",
        "(2r(1f(1a)))",
        "(2r(2f(2f)))",
    ]


def test_counts_at_small_bounds():
    assert len(keys(2, 2)) == 3
    assert len(keys(3, 2)) == 5
    assert len(keys(1, 3)) == 3


def test_yields_are_valid_minimal_and_deduplicated():
    seen = set()
    sizes = []
    for w in enumerate_minimal_diagrams(4, 3):
        assert validate_axioms(w.diagram) == []
        assert is_minimal(w)
        k = canonical_key(w)
        assert k not in seen
        seen.add(k)
        sizes.append(len(w))
    # levels come out by increasing vertex count
    assert sizes == sorted(sizes)
    assert len(seen) == 24


def test_vertex_ids_are_dense_with_root_zero():
    for w in enumerate_minimal_diagrams(3, 2):
        assert w.diagram.root == 0
        assert sorted(w.diagram.vertices) == list(range(len(w)))


def test_within_level_order_is_by_key():
    by_size = {}
    for w in enumerate_minimal_diagrams(4, 2):
        by_size.setdefault(len(w), []).append(canonical_key(w))
    for ks in by_size.values():
        assert ks == sorted(ks)


def test_weight_bound_is_respected():
    for w in enumerate_minimal_diagrams(3, 4):
        assert all(1 <= v <= 4 for v in w.nu.values())


def test_candidate_cap_raises():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_minimal_diagrams(6, 4, max_candidates=50))


@pytest.mark.parametrize("cap,before", [(10, 6), (100, 85), (500, 286), (4000, 1869)])
def test_candidate_cap_fires_after_the_same_levels(cap, before):
    # the cap counts live shapes plus distinct minimal diagrams; a level is
    # yielded in full before the next level's shapes are counted
    yielded = []
    with pytest.raises(EnumerationLimitError):
        for w in enumerate_minimal_diagrams(7, 6, max_candidates=cap):
            yielded.append(w)
    assert len(yielded) == before


def test_argument_validation():
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(2, 0))
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(2, 2, max_candidates=0))


@pytest.mark.parametrize(
    "bounds, name",
    [((5.5, 3), "max_vertices"), ((4, 3.0), "max_weight"), ((True, 3), "max_vertices")],
)
def test_bounds_must_be_integers(bounds, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        list(enumerate_minimal_diagrams(*bounds))
    with pytest.raises(ValueError, match="max_candidates must be an integer"):
        list(enumerate_minimal_diagrams(4, 3, max_candidates=10.0**6))


def test_monotone_in_bounds():
    small = set(keys(3, 2))
    assert small <= set(keys(4, 2))
    assert small <= set(keys(3, 3))


def test_enumerate_output_is_pinned_byte_for_byte(capsys):
    # digests of `enriques enumerate --max-vertices 7 --max-weight 6` in
    # both formats; they pin every canonical key and canonical order
    expected = {
        "text": "24e71367626be4fa322d00de63a0c8a9946c929bff3b8c4ef72e428f336d626a",
        "json": "37d139ac23063be1a6301e82d7c738e7790d92eaab4ecd4342874f5eab74fd92",
    }
    for fmt, digest in expected.items():
        assert run(["enumerate", "--max-vertices", "7", "--max-weight", "6", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3891
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_diagrams_of_one_shape_share_one_proximity_structure():
    yielded = list(enumerate_minimal_diagrams(6, 4))
    shapes = {w.diagram for w in yielded}
    assert len({id(w.diagram) for w in yielded}) == len(shapes) < len(yielded)
    assert all(w.diagram.violations == () for w in yielded)


def test_seeded_key_matches_the_recomputed_one():
    # the key seeded from the enumeration's canonical_form equals the one a
    # fresh diagram computes from its own record
    count = 0
    for w in enumerate_minimal_diagrams(8, 6):
        assert w.key == WeightedDiagram(w.diagram, w.weights).key
        count += 1
    assert count == 7351


def test_enumerate_computes_each_canonical_form_once(monkeypatch, capsys):
    # one call per diagram yielded: the shapes are generated once each with
    # no key, the orbit test, not a key, drops the weightings that repeat a
    # class, and printing the keys adds none
    calls = []

    def counting(record):
        calls.append(len(record))
        return canonical_form(record)

    monkeypatch.setattr(enriques.enumeration, "canonical_form", counting)
    monkeypatch.setattr(enriques.diagram, "canonical_form", counting)
    assert run(["enumerate", "--max-vertices", "8", "--max-weight", "6"]) == 0
    assert capsys.readouterr().out.count("\n") == 7351
    assert len(calls) == 7351


def test_canonical_key_rejects_foreign_second_target():
    # satellite 3 leans on the root, but its parent 2 is proximate only to 1
    w = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (3, 2), (3, 0)],
        {0: 3, 1: 2, 2: 1, 3: 1},
    )
    with pytest.raises(InvalidDiagramError):
        canonical_key(w)


def _excess(rec):
    out = [entry[2] for entry in rec]
    for parent, second, weight in rec[1:]:
        out[parent] -= weight
        if second >= 0:
            out[second] -= weight
    return out


def _is_minimal_rec(rec):
    # weights are generated in [1, max_weight] and extensions keep every
    # excess nonnegative, so only the free weight-one condition can fail
    satellite_targets = set()
    for parent, second, _ in rec[1:]:
        if second >= 0:
            satellite_targets.add(parent)
            satellite_targets.add(second)
    for i in range(1, len(rec)):
        parent, second, weight = rec[i]
        if second < 0 and weight == 1 and i not in satellite_targets:
            return False
    return True


def weighted_bfs(max_vertices, max_weight):
    """The weighted breadth-first enumeration the shape-first one replaced.

    It grows every consistent weighted record one final vertex at a time,
    with every weight its targets' excess allows, folds each level by
    canonical key and keeps the minimal records.  Returns ``(vertex count,
    key, largest weight)`` triples in yield order: by vertex count, then by
    key."""
    level = {}
    for weight in range(1, max_weight + 1):
        rec = ((-1, -1, weight),)
        level[canonical_form(rec)[0]] = rec
    out = [(1, key, level[key][0][2]) for key in sorted(level)]
    for size in range(2, max_vertices + 1):
        next_level = {}
        for rec in level.values():
            excess = _excess(rec)
            satellite_pairs = {(p, s) for p, s, _ in rec if s >= 0}
            for parent in range(len(rec)):
                seconds = [-1] + [t for t in rec[parent][:2] if t >= 0]
                for second in seconds:
                    if (parent, second) in satellite_pairs:
                        continue
                    cap = excess[parent]
                    if second >= 0:
                        cap = min(cap, excess[second])
                    for weight in range(1, min(max_weight, cap) + 1):
                        child = rec + ((parent, second, weight),)
                        next_level.setdefault(canonical_form(child)[0], child)
        level = next_level
        for key in sorted(level):
            if _is_minimal_rec(level[key]):
                out.append((size, key, max(entry[2] for entry in level[key])))
    return out


def full_weightings(shape, max_weight):
    # the walk holds the root back: each non-root weighting stands for every
    # root weight from its least one to max_weight
    for weights, _, low in _weightings(shape, max_weight):
        for root in range(low, max_weight + 1):
            yield [root, *weights[1:]]


def keyed_dedup(max_vertices, max_weight):
    """The dedup the orbit test replaced: the shape-first enumeration with
    every minimal weighting keyed by canonical_form and folded by key.
    Returns ``(vertex count, key, largest weight)`` triples in yield order,
    as weighted_bfs does."""
    out = []
    level = [((-1, -1, 0),)]
    for size in range(1, max_vertices + 1):
        found = {}
        for shape in level:
            for weights in full_weightings(shape, max_weight):
                record = [(p, s, x) for (p, s, _), x in zip(shape, weights)]
                found.setdefault(canonical_form(record)[0], max(weights))
        out.extend((size, key, found[key]) for key in sorted(found))
        shapes = {}
        for shape in level:
            for child in reference_extensions(shape, max_weight):
                shapes.setdefault(canonical_form(child)[0], child)
        level = list(shapes.values())
    return out


BFS_BOUNDS = [(8, 6), (7, 8), (9, 4), (10, 3), (11, 3)]


@pytest.mark.parametrize("bound", BFS_BOUNDS)
def test_matches_the_weighted_bfs_at_every_smaller_bound(bound):
    oracle = weighted_bfs(*bound)
    for max_vertices in range(1, bound[0] + 1):
        for max_weight in range(1, bound[1] + 1):
            expected = [
                key for size, key, top in oracle if size <= max_vertices and top <= max_weight
            ]
            assert keys(max_vertices, max_weight) == expected, (max_vertices, max_weight)


@pytest.mark.parametrize("bound", BFS_BOUNDS)
def test_orbit_test_keeps_the_classes_of_the_keyed_dedup(bound):
    oracle = keyed_dedup(*bound)
    for max_vertices in range(1, bound[0] + 1):
        for max_weight in range(1, bound[1] + 1):
            expected = [
                key for size, key, top in oracle if size <= max_vertices and top <= max_weight
            ]
            assert keys(max_vertices, max_weight) == expected, (max_vertices, max_weight)


def has_symmetry(shape):
    # some automorphism moves a vertex exactly when two vertices, each
    # marked alone by weight 1, give the same key
    marked = {
        canonical_form([(p, s, int(v == x)) for v, (p, s, _) in enumerate(shape)])[0]
        for x in range(len(shape))
    }
    return len(marked) < len(shape)


def test_orbit_test_keeps_one_weighting_per_class_and_skips_rigid_shapes(monkeypatch):
    tried = []
    weighed = [0]
    tested = []
    symmetric = {}

    def counting_weightings(shape, max_weight):
        for weights, rest, low in _weightings(shape, max_weight):
            tried.append(shape)
            weighed[0] += max_weight + 1 - low
            yield weights, rest, low

    def recording_children(entry, max_weight):
        for child in _live_children(entry, max_weight):
            symmetric[child[0]] = bool(child[2])
            yield child

    def recording_test(weights, pairs):
        tested.append(pairs)
        return _least_in_orbit(weights, pairs)

    monkeypatch.setattr(enriques.enumeration, "_weightings", counting_weightings)
    monkeypatch.setattr(enriques.enumeration, "_live_children", recording_children)
    monkeypatch.setattr(enriques.enumeration, "_least_in_orbit", recording_test)
    assert sum(1 for _ in enumerate_minimal_diagrams(9, 7)) == 45503
    # 46,809 weightings, drawn as 33,650 weightings of the non-root vertices
    assert weighed[0] == 46809
    assert len(tried) == 33650
    # the generator made every shape but the lone root; a test runs
    # exactly for the non-root weightings of shapes with a non-trivial group
    assert len(symmetric) + 1 == len(set(tried))
    for shape, pairs in symmetric.items():
        assert pairs == has_symmetry(shape), shape
    assert all(tested)
    assert len(tested) == sum(symmetric.get(shape, False) for shape in tried) > 0


def generated_levels(max_vertices, max_weight):
    # the orderly generator's shapes, one list per vertex count
    level = [(((-1, -1, 0),), (), (), 1)]
    for _ in range(max_vertices):
        yield level
        level = [child for entry in level for child in _live_children(entry, max_weight)]


def reference_levels(max_vertices, max_weight):
    # every live shape by extension, folded by canonical_form
    level = [((-1, -1, 0),)]
    for _ in range(max_vertices):
        yield level
        grown = {}
        for shape in level:
            for child in reference_extensions(shape, max_weight):
                grown.setdefault(canonical_form(child)[0], child)
        level = list(grown.values())


def runs_of(entry):
    # the index runs of an entry's twin pairs
    indices = list(range(len(entry[0])))
    return [(left(indices), right(indices)) for left, right in entry[2]]


ORACLE_BOUNDS = [(13 - w, w) for w in range(1, 13)] + [(9, 7), (11, 3), (6, 10)]


@pytest.mark.parametrize("bound", ORACLE_BOUNDS)
def test_orderly_generation_makes_each_live_shape_once(bound):
    # each bound with V + W <= 13 is a prefix of the levels of (13 - W, W)
    shapes = symmetric = 0
    for grown, expected in zip(generated_levels(*bound), reference_levels(*bound)):
        made = [canonical_form(entry[0])[0] for entry in grown]
        assert len(set(made)) == len(made)
        assert set(made) == {canonical_form(shape)[0] for shape in expected}
        for entry in grown:
            # the record lists its vertices in canonical_form's preorder, and
            # each pair is the two runs of one twin pair of the re-encoding
            shape, _, pairs, least_root = entry
            assert least_root == least_root_weight(shape)
            children = canonical_form(shape)[1]
            assert children == [sorted(kids) for kids in children], shape
            twins = reference_twins(shape)[2]
            assert sorted(runs_of(entry)) == sorted(
                (list(range(c, d)), list(range(d, 2 * d - c))) for c, d in twins
            ), shape
            if bound == (9, 7):
                assert bool(pairs) == has_symmetry(shape), shape
            symmetric += bool(pairs)
        shapes += len(grown)
    if bound == (9, 7):
        assert (shapes, symmetric) == (2538, 311)


def grown_entry(*appends):
    # the generator's entry made by appending each (parent, second) in turn,
    # with no weight bound
    entry = (((-1, -1, 0),), (), (), 1)
    for parent, second in appends:
        children = _live_children(entry, 10**9)
        entry = next(child for child in children if child[0][-1] == (parent, second, 0))
    return entry


def test_live_children_pointers_twins_and_letters():
    # a b satellite: vertex 3 leans on 0, the second target of its parent 2
    shape = grown_entry((0, -1), (1, 0), (2, 0))[0]
    assert shape[3] == (2, 0, 0)
    # vertex 3 repeats the root's child 1 and vertex 4 completes the repeat
    # of 1's subtree: the twin pair (1, 3) is made at 4's parent
    entry = grown_entry((0, -1), (1, -1), (0, -1), (3, -1))
    assert entry[1] == (3, 0) and runs_of(entry) == [([1, 2], [3, 4])]
    # a twin's subtree is closed: every child of the entry hangs at the root
    assert {child[0][-1][0] for child in _live_children(entry, 10**9)} == {0}
    # vertex 2 is an a satellite, so the free vertex 4 makes the run of 3
    # already smaller than the run of 1, and 4 may take any child
    entry = grown_entry((0, -1), (1, 0), (0, -1), (3, -1))
    assert entry[1] == (0, 0) and entry[2] == ()
    assert (4, 3, 0) in {child[0][-1] for child in _live_children(entry, 10**9)}
    # only a free vertex can repeat its sibling's token: no second a child
    entry = grown_entry((0, -1), (1, 0))
    assert (1, 0, 0) not in {child[0][-1] for child in _live_children(entry, 10**9)}


def assert_twins_are_equal_keyed_neighbours(record):
    # canonical_form's key and children are the re-encoding's, so its
    # equal-code siblings are adjacent, as the re-encoding's twins
    key, children, twins = reference_twins(record)
    assert canonical_form(record) == (key, children), record
    return len(twins)


def test_canonical_form_twins_match_a_re_encoding_on_random_records():
    # small weights on random trees give many equal sibling subtrees
    rng = random.Random(16)
    found = 0
    for _ in range(3000):
        record = [(-1, -1, rng.randint(0, 1))]
        for v in range(1, rng.randint(1, 12)):
            parent = rng.randrange(v)
            second = rng.choice([-1, *(t for t in record[parent][:2] if t >= 0)])
            record.append((parent, second, rng.randint(0, 1)))
        found += assert_twins_are_equal_keyed_neighbours(record)
    assert found > 500


def test_canonical_form_twins_match_a_re_encoding_on_every_live_shape():
    shapes = [family.shape for family in enriques.enumeration._minimal_families(9, 7, 10**6)]
    assert len(shapes) == 2538
    symmetric = sum(assert_twins_are_equal_keyed_neighbours(shape) > 0 for shape in shapes)
    assert symmetric == 311


def least_root_weight(shape):
    # the least minimal weighting: 2 on a free final vertex, 1 on a
    # satellite final vertex or the lone root, the sum of the sources
    # elsewhere; sources come after their targets in a record
    owed = [0] * len(shape)
    for v in range(len(shape) - 1, 0, -1):
        parent, second, _ = shape[v]
        for t in (parent, second) if second >= 0 else (parent,):
            owed[t] += owed[v] or (2 if second < 0 else 1)
    return owed[0] or 1


def test_constant_time_placement_check_matches_the_least_weighting():
    unbounded = 10**9
    level = {"": ((-1, -1, 0),)}
    checked = 0
    for _ in range(6):
        grown = {}
        for shape in level.values():
            children = list(reference_extensions(shape, unbounded))
            for max_weight in range(1, 7):
                kept = list(reference_extensions(shape, max_weight))
                assert kept == [c for c in children if least_root_weight(c) <= max_weight]
                checked += len(children)
            for child in children:
                grown.setdefault(canonical_form(child)[0], child)
        level = grown
    assert checked > 10_000


def test_no_placement_lowers_the_least_minimal_root_weight():
    # the monotonicity that lets the shape search drop dead shapes: with no
    # weight bound, every placement keeps or raises the least root weight
    unbounded = 10**9
    level = {"": ((-1, -1, 0),)}
    checked = 0
    for _ in range(7):
        grown = {}
        for shape in level.values():
            before = least_root_weight(shape)
            for child in reference_extensions(shape, unbounded):
                assert least_root_weight(child) >= before, child
                grown.setdefault(canonical_form(child)[0], child)
                checked += 1
        level = grown
    assert checked > 10_000


@pytest.mark.parametrize("bound", [(8, 6), (11, 3), (6, 10)])
def test_every_extended_shape_has_a_minimal_weighting(monkeypatch, bound):
    # no dead shape is grown: each shape the search extends is live
    extended = []

    def recording(entry, max_weight):
        extended.append(entry[0])
        return _live_children(entry, max_weight)

    monkeypatch.setattr(enriques.enumeration, "_live_children", recording)
    for _ in enriques.enumeration._minimal_families(*bound, 10**6):
        pass
    assert extended
    for shape in extended:
        assert next(_weightings(shape, bound[1]), None) is not None, shape


def reference_family(shape, max_weight):
    # the root-first search with the orbit test, and the Milnor numbers of
    # the kept weightings computed after it
    pairs = reference_orbit_pairs(*reference_twins(shape)[1:])
    kept = [
        tuple(weights)
        for weights in reference_weightings(shape, max_weight)
        if not pairs or _least_in_orbit(weights, pairs)
    ]
    return sorted(zip(kept, reference_milnor_numbers(shape, kept)))


def heavy_summary(expected, root_bound, max_weight):
    # per non-root weighting with a root above the bound: its least such
    # root and its Milnor number without the root's term, which must be the
    # same for every root, and those roots must run up to max_weight
    roots = {}
    for weights, mu in expected:
        root = weights[0]
        if root > root_bound:
            roots.setdefault(weights[1:], []).append((root, mu - root * (root - 2)))
    for found in roots.values():
        assert [root for root, _ in found] == list(range(found[0][0], max_weight + 1))
        assert len({rest for _, rest in found}) == 1
    return sorted(found[0] for found in roots.values())


def compare_with_the_reference(max_vertices, max_weight):
    families = 0
    for root_bound in {None, max(max_weight - 2, 1)}:
        light = max_weight if root_bound is None else root_bound
        for family in enriques.enumeration._minimal_families(
            max_vertices, max_weight, 10**6, root_bound
        ):
            expected = reference_family(family.shape, max_weight)
            assert sorted(zip(family.weightings, family.mus)) == [
                (weights, mu) for weights, mu in expected if weights[0] <= light
            ], family.shape
            assert sorted(family.heavy) == heavy_summary(expected, light, max_weight)
            families += root_bound is None
    return families


def test_root_last_walk_matches_the_root_first_reference():
    # every family of every bound with V + W <= 13, with and without a root
    # bound two below the weight bound, as verify's defaults give
    bounds = [(v, w) for v in range(1, 13) for w in range(1, 14 - v)]
    assert sum(compare_with_the_reference(*bound) for bound in bounds) == 2478
    assert compare_with_the_reference(9, 7) == 2538


def test_weighting_search_on_a_deep_free_chain():
    # every non-root vertex is free with no satellite source, so it weighs
    # at least 2, and the chain leaves no room above that
    shape = ((-1, -1, 0),) + tuple((i - 1, -1, 0) for i in range(1, 5000))
    found = list(full_weightings(shape, 2))
    assert found == [[2] * 5000]


def capped_weightings(shape, max_weight, cap):
    # full_weightings over at most cap non-root weightings: a walk that lets
    # a slack go below 0 never stops, and the cap makes it fail instead
    found = []
    for weights, _, low in islice(_weightings(shape, max_weight), cap):
        found += ((root, *weights[1:]) for root in range(low, max_weight + 1))
    return sorted(found)


# shapes with a satellite whose second target runs out of slack before its
# parent: the lone satellite 2 of (1, 0) at weights (6, 4, 2) leaves the
# root no slack and vertex 1 a slack of 2, and the satellite 3 of (2, 1) at
# (6, 6, 4, 2) leaves vertex 1 none and vertex 2 a slack of 2; the walk must
# back up past a satellite when either of its two targets is spent
SECOND_TARGET_FIRST = [
    ((-1, -1, 0), (0, -1, 0), (1, 0, 0)),
    ((-1, -1, 0), (0, -1, 0), (1, -1, 0), (2, 1, 0)),
    ((-1, -1, 0), (0, -1, 0), (1, 0, 0), (2, 1, 0), (0, -1, 0)),
]


def test_the_backtrack_reads_both_targets_of_a_satellite():
    for shape in SECOND_TARGET_FIRST:
        # a shape is live from its least root weight on
        least_root = next(reference_weightings(shape, 99))[0]
        for max_weight in range(least_root, least_root + 7):
            expected = sorted(tuple(w) for w in reference_weightings(shape, max_weight))
            assert expected, (shape, max_weight)
            found = capped_weightings(shape, max_weight, len(expected) + 1)
            assert found == expected, (shape, max_weight)


def test_a_shape_that_is_not_live_has_no_weighting():
    # the least weighting is (5, 2, 1, 1, 2): the root owes free vertex 1's
    # 2, satellite 2's 1 and free vertex 4's 2, so below weight 5 the walk,
    # capped at ten weightings, must be empty rather than endless
    shape = ((-1, -1, 0), (0, -1, 0), (1, 0, 0), (2, 1, 0), (0, -1, 0))
    assert list(islice(_weightings(shape, 4), 10)) == []
    assert capped_weightings(shape, 5, 10) == [(5, 2, 1, 1, 2)]


def test_the_walks_work_at_the_verify_workloads_bounds(monkeypatch):
    # the ten germs of the verify benchmark at verify_maximality's default
    # bounds: len(D_min) + 4 vertices, root weight + 2 and a root bound of
    # D_min's root weight
    specs = ["1,1,1,1", "0,1,2,4", "1,0,2,4", "1,0,1,3", "0,0,2,3"]
    specs += ["0,1,1,12", "0,0,4,4", "0,0,2,5", "0,0,2,8", "1,0,1,2"]
    walked, dropped = [0], [0]

    def counting_weightings(shape, max_weight):
        for found in _weightings(shape, max_weight):
            walked[0] += 1
            yield found

    def counting_test(weights, pairs):
        kept = _least_in_orbit(weights, pairs)
        dropped[0] += not kept
        return kept

    monkeypatch.setattr(enriques.enumeration, "_weightings", counting_weightings)
    monkeypatch.setattr(enriques.enumeration, "_least_in_orbit", counting_test)
    shapes = light = heavy = 0
    for spec in specs:
        D_min = minimal_diagram(parse_spec(spec))
        root = D_min.nu[D_min.root]
        for family in enriques.enumeration._minimal_families(len(D_min) + 4, root + 2, 10**6, root):
            shapes += 1
            light += len(family.weightings)
            heavy += len(family.heavy)
    assert (shapes, walked[0], dropped[0], light, heavy) == (912, 3182, 44, 343, 3138)


@pytest.mark.timed
def test_deep_narrow_bounds_run_fast():
    start = time.perf_counter()
    assert keys(1000, 1) == ["(1r)"]
    # at weight 1 only the lone root is live, and by the reachability lemma
    # no level follows the first empty one
    families = list(enriques.enumeration._minimal_families(10**6, 1, 10**6))
    assert [family.weightings for family in families] == [[(1,)]]
    assert keys(10**9, 1) == ["(1r)"]
    assert time.perf_counter() - start < 10
