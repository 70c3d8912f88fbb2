"""Randomized property suites over generated diagrams.

Each suite runs at least 1000 seeded cases; failures print the case index
through pytest's assertion message so a seed can be replayed.
"""

import random

from enriques import (
    QuasihomogeneousSpec,
    add_leaf,
    canonical_key,
    canonical_order,
    check_geq_witness,
    derived_invariants,
    enumerate_minimal_diagrams,
    geq,
    is_consistent,
    is_minimal,
    lambda_lin,
    milnor_number,
    minimal_diagram,
    minimalize,
    relabel,
    remove_vertices,
    validate_axioms,
    weighted_diagram,
    witness_to_dict,
)
from enriques.quasihomogeneous import bamboo_invariants, is_bamboo
from helpers import isomorphic, random_consistent, random_proximity


def test_generated_diagrams_satisfy_the_axioms():
    rng = random.Random(1404)
    for case in range(1000):
        d = random_proximity(rng)
        assert validate_axioms(d) == [], f"case {case}"


def test_minimalize_is_idempotent_and_reaches_minimality():
    rng = random.Random(2718)
    for case in range(1000):
        w = random_consistent(rng)
        m = minimalize(w)
        assert is_minimal(m), f"case {case}"
        assert minimalize(m).key == m.key, f"case {case}"


def test_mu_is_invariant_under_leaf_addition_and_minimalization():
    rng = random.Random(3141)
    for case in range(1000):
        w = random_consistent(rng)
        mu = milnor_number(w)
        assert milnor_number(minimalize(w)) == mu, f"case {case}"
        spots = [v for v in w.diagram.vertices if w.excess[v] >= 1]
        if spots:
            grown = add_leaf(w, rng.choice(spots), 1)
            assert is_consistent(grown), f"case {case}"
            assert milnor_number(grown) == mu, f"case {case}"
        anywhere = rng.choice(w.diagram.vertices)
        assert milnor_number(add_leaf(w, anywhere, 0)) == mu, f"case {case}"


def test_excess_consistency_and_minimality_match_references_from_the_pairs():
    # the references read the proximity pairs alone; raising one weight
    # makes some targets' excesses negative, so both verdicts of each
    # predicate occur
    rng = random.Random(1729)
    verdicts = set()
    for case in range(2000):
        w = random_consistent(rng)
        if case % 2:
            nu = dict(w.nu)
            nu[rng.choice(w.diagram.vertices)] += rng.randint(1, 2)
            w = weighted_diagram(w.diagram, nu)
        d = w.diagram
        excess = {v: w.nu[v] for v in d.vertices}
        satellites = {s for s, _ in d.proximity if sum(a == s for a, _ in d.proximity) == 2}
        pinned = set()
        for source, target in d.proximity:
            excess[target] -= w.nu[source]
            if source in satellites:
                pinned.add(target)
        consistent = min(excess.values()) >= 0
        free = [v for v in d.vertices if v != d.root and v not in satellites]
        minimal = (
            consistent
            and w.nu[d.root] >= 1
            and all(w.nu[v] >= 2 or (w.nu[v] == 1 and v in pinned) for v in free)
        )
        assert w.excess == excess and list(w.excess) == list(excess), f"case {case}"
        assert is_consistent(w) == consistent, f"case {case}"
        assert is_minimal(w) == minimal, f"case {case}"
        verdicts.add((consistent, minimal))
    assert verdicts == {(True, True), (True, False), (False, False)}


def pinned_rule(w):
    """The earlier minimality predicate, kept as an oracle: consistent, a
    root of positive weight, and every free vertex of weight at least 2,
    or of weight 1 where a satellite is proximate to it."""
    if not is_consistent(w) or w.nu[w.root] < 1:
        return False
    d = w.diagram
    pinned = {t for targets in d.prox_targets.values() if len(targets) == 2 for t in targets}
    for v in d.vertices:
        if v == d.root or len(d.prox_targets[v]) != 1:
            continue
        if w.nu[v] == 0 or (w.nu[v] == 1 and v not in pinned):
            return False
    return True


def test_is_minimal_matches_the_pinned_rule_unless_a_satellite_weighs_zero():
    # weights are an extra of 0-3 over the sources' weights, so weight-0
    # satellites occur; every fourth diagram has one weight raised, which
    # leaves some targets with a negative excess
    rng = random.Random(2323)
    seen = set()
    for case in range(6000):
        d = random_proximity(rng)
        sources = {v: [] for v in d.vertices}
        for source, target in d.proximity:
            sources[target].append(source)
        nu = {}
        for v in reversed(d.preorder):
            nu[v] = rng.choice((0, 0, 1, 1, 2, 3)) + sum(nu[s] for s in sources[v])
        if case % 4 == 0:
            nu[rng.choice(d.vertices)] += rng.randint(1, 2)
        w = weighted_diagram(d, nu)
        zero_satellite = any(
            nu[v] == 0 for v in d.vertices if len(d.prox_targets[v]) == 2
        )
        minimal = is_minimal(w)
        if zero_satellite:
            assert not minimal, f"case {case}"
        else:
            assert minimal == pinned_rule(w), f"case {case}"
        if is_consistent(w) and nu[d.root] >= 1 and not zero_satellite:
            m = minimalize(w)
            assert is_minimal(m), f"case {case}"
            assert minimal == (m is w), f"case {case}"
        seen.add((zero_satellite, minimal, pinned_rule(w)))
    # both verdicts occur without a weight-0 satellite, and so does a
    # weight-0 satellite that the pinned rule passes
    assert {(False, True, True), (False, False, False), (True, False, True)} <= seen


def test_canonical_key_matches_independent_isomorphism_checker():
    rng = random.Random(5772)
    for case in range(1000):
        a = random_consistent(rng, max_vertices=5)
        if case % 2 == 0:
            ids = list(a.diagram.vertices)
            shuffled = rng.sample(range(100), len(ids))
            b = relabel(a, dict(zip(ids, shuffled)))
        else:
            b = random_consistent(rng, max_vertices=5)
        same_key = canonical_key(a) == canonical_key(b)
        assert same_key == isomorphic(a, b), f"case {case}"


def test_enumeration_yields_distinct_valid_minimal_diagrams():
    seen = set()
    count = 0
    for w in enumerate_minimal_diagrams(7, 5):
        assert validate_axioms(w.diagram) == []
        assert is_minimal(w)
        key = canonical_key(w)
        assert key not in seen, key
        seen.add(key)
        count += 1
    assert count >= 1000


def test_geq_is_reflexive_with_checkable_witness():
    rng = random.Random(6174)
    for case in range(1000):
        w = random_consistent(rng, max_vertices=6)
        witness = geq(w, w)
        assert witness is not None, f"case {case}"
        assert check_geq_witness(w, w, witness), f"case {case}"


def _dominated_pair(rng, case):
    """A seeded ``(upper, lower)`` pair: unrelated diagrams, the upper with
    final vertices removed (a weight raised in every other case), or the
    lower with free leaves added where the excess allows."""
    upper = random_consistent(rng, max_vertices=7)
    if case % 3 == 0:
        return upper, random_consistent(rng, max_vertices=7)
    if case % 3 == 1:
        lower = upper
        for _ in range(rng.randrange(len(upper))):
            d = lower.diagram
            finals = [v for v in d.vertices if v != d.root and not d.children[v]]
            lower = remove_vertices(lower, [rng.choice(finals)])
        if case % 2:
            nu = dict(lower.nu)
            nu[rng.choice(lower.diagram.vertices)] += 1
            lower = weighted_diagram(lower.diagram, nu)
        return upper, lower
    lower = upper
    for _ in range(rng.randint(1, 3)):
        at = rng.choice(upper.diagram.vertices)
        upper = add_leaf(upper, at, rng.randint(0, upper.excess[at]))
    return upper, lower


def test_geq_verdict_does_not_depend_on_the_labelling():
    # every constraint at a lower vertex reads only its ancestors, so any
    # root-first order decides the same: relabelling both diagrams reorders
    # the lower preorder and the upper children but keeps the verdict, and
    # each witness, whichever the labelling picks, passes the checker
    rng = random.Random(2111)
    verdicts = []
    for case in range(600):
        upper, lower = _dominated_pair(rng, case)
        found = geq(upper, lower)
        verdicts.append(found is not None)
        for _ in range(3):
            u = relabel(upper, dict(zip(upper.diagram.vertices, rng.sample(range(50), len(upper)))))
            l = relabel(lower, dict(zip(lower.diagram.vertices, rng.sample(range(50), len(lower)))))
            witness = geq(u, l)
            assert (witness is not None) == verdicts[-1], f"case {case}"
            assert witness is None or check_geq_witness(u, l, witness), f"case {case}"
        assert found is None or check_geq_witness(upper, lower, found), f"case {case}"
    assert 150 < sum(verdicts) < 500


def test_canonical_order_is_a_root_first_permutation():
    rng = random.Random(8128)
    for case in range(1000):
        w = random_consistent(rng)
        order = canonical_order(w)
        assert order[0] == w.diagram.root, f"case {case}"
        assert sorted(order) == sorted(w.diagram.vertices), f"case {case}"
        assert [w.canonical_ids[v] for v in order] == list(range(len(order))), f"case {case}"


def test_builder_profile_matches_derived_invariants():
    # deterministic sweep; the one-branch node family y*(x+y^q) with q >= 2
    # is excluded because its chain unwinds to the plain node
    for p in range(1, 11):
        for q in range(p, 11):
            for k in (0, 1):
                for l in (0, 1):
                    if k + l + p < 2:
                        continue
                    if (k, l, p) == (0, 1, 1) and q >= 2:
                        continue
                    spec = QuasihomogeneousSpec(k, l, p, q)
                    inv = derived_invariants(spec)
                    m = minimal_diagram(spec)
                    assert is_bamboo(m)
                    assert bamboo_invariants(m) == (inv.d, inv.t, inv.w), spec


def values_from_pairs(d, weight):
    """System of values of ``weight`` read off the proximity pairs alone:
    a vertex's value is its weight plus its targets' values, found once
    every target's value is known."""
    targets = {v: [t for s, t in d.proximity if s == v] for v in d.vertices}
    out = {}
    while len(out) < len(targets):
        for v, ts in targets.items():
            if v not in out and all(t in out for t in ts):
                out[v] = weight[v] + sum(out[t] for t in ts)
    return out


def test_witness_value_systems_match_references_from_the_pairs():
    # every germ with q <= 12: the emitted ord_nu and ord_kappa of the
    # jump's witness are the value systems of the lower weights and of
    # kappa, and ord_nu <= ord_kappa at every vertex
    germs = 0
    for p in range(1, 13):
        for q in range(p, 13):
            for k in (0, 1):
                for l in (0, 1):
                    if k + l + p < 2:
                        continue
                    spec = QuasihomogeneousSpec(k, l, p, q)
                    report = lambda_lin(spec)
                    lower, witness = report.E_D, report.adjacency_witness
                    data = witness_to_dict(report.representative, lower, witness)
                    order = list(lower.canonical_ids)
                    ord_nu = values_from_pairs(lower.diagram, lower.nu)
                    ord_kappa = values_from_pairs(lower.diagram, dict(witness.kappa))
                    assert data["ord_nu"] == [ord_nu[v] for v in order], spec
                    assert data["ord_kappa"] == [ord_kappa[v] for v in order], spec
                    assert all(map(int.__le__, data["ord_nu"], data["ord_kappa"])), spec
                    germs += 1
    assert germs == 300
