"""Shared fixtures and an independent isomorphism checker for the test suite.

The isomorphism checker deliberately avoids canonical keys so it can serve
as a second opinion on them: it matches rooted diagrams by backtracking over
child permutations, requiring weights, proximity degrees and second targets
to correspond under the partial map built so far.
"""

import itertools
import random
from operator import itemgetter

import enriques.diagram
from enriques import (
    GeqWitness,
    InconsistentDiagramError,
    ProximityDiagram,
    SubdiagramEmbedding,
    WeightedDiagram,
    is_consistent,
    proximity_diagram,
    require_valid,
    total_excess,
    weighted_diagram,
)


def wd(root, parent, prox, nu):
    return weighted_diagram(proximity_diagram(root, parent, prox), nu)


def cusp_minimal():
    """Weights (2,1,1), the end leaning on the root."""
    return wd(0, {1: 0, 2: 1}, [(1, 0), (2, 1), (2, 0)], {0: 2, 1: 1, 2: 1})


def cusp_complete():
    """The cusp cluster with its free weight-1 tail restored."""
    return wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (2, 0), (3, 2)],
        {0: 2, 1: 1, 2: 1, 3: 1},
    )


def zero_satellite_chain():
    """Valid and consistent 3-vertex chain (2, 1, 0) whose weight-0
    satellite end leans on the free weight-1 vertex and the root: in a
    class with no minimal member."""
    d = ProximityDiagram(0, ((1, 0), (2, 1)), ((1, 0), (2, 0), (2, 1)))
    return WeightedDiagram(d, (2, 1, 0))


def leaning_bamboo(weights):
    """Chain whose third and later vertices lean on their grandparent.

    weights[0] is the root weight.  Every non-root vertex is proximate to its
    parent; vertices from index 2 on are satellites with the grandparent as
    second target.
    """
    parent = {}
    prox = []
    for i in range(1, len(weights)):
        parent[i] = i - 1
        prox.append((i, i - 1))
        if i >= 2:
            prox.append((i, i - 2))
    return wd(0, parent, prox, dict(enumerate(weights)))


def count_constructions(monkeypatch, most=None) -> list:
    """The list every :class:`WeightedDiagram` built from here on is
    appended to, through its ``__post_init__``, which every construction
    runs whichever builder makes it.  Past ``most`` constructions the
    next one raises, so a builder that rebuilds per vertex fails fast."""
    built = []
    post_init = WeightedDiagram.__post_init__

    def counting(self):
        built.append(self)
        if most is not None and len(built) > most:
            raise AssertionError(f"more than {most} weighted diagrams constructed")
        post_init(self)

    monkeypatch.setattr(WeightedDiagram, "__post_init__", counting)
    return built


def count_validations(monkeypatch) -> list:
    """The list every diagram whose axioms are checked from here on is
    appended to: the cached verdict and ``validate_axioms`` both read
    ``_axiom_violations`` through ``enriques.diagram``."""
    walked = []
    axiom_violations = enriques.diagram._axiom_violations

    def counting(diagram, reach):
        walked.append(diagram)
        return axiom_violations(diagram, reach)

    monkeypatch.setattr(enriques.diagram, "_axiom_violations", counting)
    return walked


def count_scans(monkeypatch) -> list:
    """The list every diagram that ``ProximityDiagram.__post_init__`` scans
    from here on is appended to: each one built from pairs rather than
    derived from a source's maps."""
    scanned = []
    post_init = ProximityDiagram.__post_init__

    def counting(self, parent_edges, proximity):
        scanned.append(self)
        post_init(self, parent_edges, proximity)

    monkeypatch.setattr(ProximityDiagram, "__post_init__", counting)
    return scanned


def excess_milnor(w: WeightedDiagram) -> int:
    """The Milnor number by its excess definition, sum nu*(nu-1) + 1 minus
    the total excess: the reference for ``milnor_number``."""
    return sum(x * (x - 1) for x in w.weights) + 1 - total_excess(w)


def _second_target(d: ProximityDiagram, v: int):
    p = d.parent.get(v)
    for t in d.prox_targets[v]:
        if t != p:
            return t
    return None


def isomorphic(a: WeightedDiagram, b: WeightedDiagram) -> bool:
    """Weight- and proximity-preserving rooted isomorphism test."""
    if len(a) != len(b):
        return False
    da, db = a.diagram, b.diagram

    def match(u, v, image):
        if a.nu[u] != b.nu[v]:
            return False
        if len(da.prox_targets[u]) != len(db.prox_targets[v]):
            return False
        su, sv = _second_target(da, u), _second_target(db, v)
        if (su is None) != (sv is None):
            return False
        # targets are ancestors, so su is already mapped when u is reached
        if su is not None and image[su] != sv:
            return False
        image[u] = v
        cu, cv = da.children[u], db.children[v]
        if len(cu) != len(cv):
            return False
        for perm in itertools.permutations(cv):
            trial = dict(image)
            if all(match(x, y, trial) for x, y in zip(cu, perm)):
                image.update(trial)
                return True
        return False

    return match(da.root, db.root, {})


def random_proximity(rng: random.Random, max_vertices=8) -> ProximityDiagram:
    """Random axiom-valid proximity diagram with 1..max_vertices vertices."""
    n = rng.randint(1, max_vertices)
    parent = {}
    prox = []
    targets = {0: []}
    used_pairs = set()
    for v in range(1, n):
        p = rng.randrange(v)
        second = None
        options = [t for t in targets[p] if (p, t) not in used_pairs]
        if options and rng.random() < 0.4:
            second = rng.choice(options)
        parent[v] = p
        prox.append((v, p))
        targets[v] = [p]
        if second is not None:
            prox.append((v, second))
            targets[v].append(second)
            used_pairs.add((p, second))
    return proximity_diagram(0, parent, prox)


def random_consistent(rng: random.Random, max_vertices=8, max_excess=2) -> WeightedDiagram:
    """Random consistent weighted diagram built from nonnegative excesses.

    Satellites are kept at weight >= 1: a weight-0 satellite would pin its
    targets while being unremovable by any class move, so its class has no
    minimal member and lies outside every operation's useful domain.
    """
    d = random_proximity(rng, max_vertices)
    sources = {v: [] for v in d.vertices}
    for source, target in d.proximity:
        sources[target].append(source)
    nu = {}
    for v in reversed(d.preorder):
        nu[v] = rng.randint(0, max_excess) + sum(nu[q] for q in sources[v])
        if nu[v] == 0 and len(d.prox_targets[v]) == 2:
            nu[v] = 1
    if nu[d.root] == 0:
        nu[d.root] = 1
    return weighted_diagram(d, nu)


def reference_maps(d: ProximityDiagram) -> dict:
    """The four structural maps of ``d``, each derived on its own from the
    pairs and re-sorted: a second opinion on the single pass that builds
    them with the diagram."""
    seen = {d.root}
    for child, parent in d.parent_edges:
        seen.add(child)
        seen.add(parent)
    for source, target in d.proximity:
        seen.add(source)
        seen.add(target)
    vertices = tuple(sorted(seen))
    parent = dict(d.parent_edges)

    kids = {v: [] for v in vertices}
    for child, p in d.parent_edges:
        kids[p].append(child)
    children = {v: tuple(sorted(k)) for v, k in kids.items()}

    out = {v: [] for v in vertices}
    for source, target in d.proximity:
        out[source].append(target)
    prox_targets = {}
    for v, targets in out.items():
        p = parent.get(v)
        if p is not None and p in targets:
            rest = sorted(t for t in targets if t != p)
            prox_targets[v] = (p, *rest)
        else:
            prox_targets[v] = tuple(sorted(targets))
    return {
        "vertices": vertices,
        "parent": parent,
        "children": children,
        "prox_targets": prox_targets,
    }


# ---------------------------------------------------------------------------
# references for the diagram core's linear passes: the plain versions the
# package used before each pass was rewritten for less work per vertex
# ---------------------------------------------------------------------------

def reference_preorder(children, start) -> list:
    """``start`` and its descendants, each parent before its children and
    siblings in the order ``children`` lists them."""
    order = []
    stack = [start]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order


def reference_validate_axioms(d: ProximityDiagram) -> list:
    """The violations of ``d``: every structural defect from a missing
    parent and a walk of each parent chain, axioms 1-4 at every vertex, and
    axiom 5 by intersecting the source sets of each pair's two ends."""
    Violation = enriques.diagram.Violation
    violations = []
    parent = d.parent

    if d.root in parent:
        violations.append(Violation(0, (d.root,), f"root {d.root} has a parent"))
    for v in d.vertices:
        if v != d.root and v not in parent:
            violations.append(Violation(0, (v,), f"non-root vertex {v} has no parent"))
    for source, target in d.proximity:
        if source == target:
            violations.append(Violation(0, (source,), f"vertex {source} proximate to itself"))

    walk_of = {d.root: None}
    for v in d.vertices:
        u = v
        while u not in walk_of and u in parent:
            walk_of[u] = v
            u = parent[u]
        if walk_of.get(u) == v:
            violations.append(Violation(0, (v,), f"parent chain from {v} has a cycle"))

    def ordered(found):
        return sorted(found, key=lambda v: (v.axiom, v.vertices))

    if violations:
        return ordered(violations)

    prox_targets = d.prox_targets
    for v in d.vertices:
        targets = prox_targets[v]
        if v == d.root:
            if targets:
                violations.append(Violation(1, (v,), f"root {v} is proximate to {list(targets)}"))
            continue
        p = parent[v]
        if p not in targets:
            violations.append(
                Violation(2, (v, p), f"vertex {v} is not proximate to its parent {p}")
            )
        if len(targets) > 2:
            violations.append(
                Violation(3, (v,), f"vertex {v} is proximate to {len(targets)} vertices")
            )
        if len(targets) == 2:
            if p not in targets:
                violations.append(
                    Violation(4, (v,), f"vertex {v} is proximate to two non-parents")
                )
            elif targets[1] not in prox_targets[p]:
                violations.append(
                    Violation(
                        4,
                        (v, p, targets[1]),
                        f"parent {p} of satellite {v} is not proximate to {targets[1]}",
                    )
                )
    sources = {v: set() for v in d.vertices}
    for source, target in d.proximity:
        sources[target].add(source)
    for source, target in d.proximity:
        both = sources[source] & sources[target]
        if len(both) > 1:
            violations.append(
                Violation(
                    5,
                    (target, source, *sorted(both)),
                    f"{len(both)} vertices proximate to both {target} and {source}",
                )
            )
    return ordered(violations)


def reference_form(w: WeightedDiagram) -> tuple:
    """The key and the canonical ids of the valid diagram ``w``: its record
    built one vertex of ``diagram.preorder`` at a time, through
    ``canonical_form``, and the ids read off its canonical walk."""
    d = w.diagram
    position = {v: i for i, v in enumerate(d.preorder)}
    record = [(-1, -1, w.nu[d.root])]
    for v in d.preorder[1:]:
        parent = d.parent[v]
        targets = d.prox_targets[v]
        second = position[targets[1]] if len(targets) > 1 else -1
        record.append((position[parent], second, w.nu[v]))
    key, children = enriques.diagram.canonical_form(record)
    return key, {d.preorder[i]: n for n, i in enumerate(reference_preorder(children, 0))}


def reference_weightings(shape, max_weight):
    """The enumeration's weighting search before it held the root back: every
    minimal consistent weighting of ``shape``, root included, by an
    iterative search over the vertices in index order (the yielded list is
    reused).  ``shape`` must be live for ``max_weight``."""
    n = len(shape)
    targets = [[t for t in entry[:2] if t >= 0] for entry in shape]
    owed = [0] * n
    least = [0] * n
    for v in range(n - 1, -1, -1):
        least[v] = owed[v] or (2 if len(targets[v]) == 1 else 1)
        for t in targets[v]:
            owed[t] += least[v]
    weights, slack = least[:], [0] * n
    v = 0
    while v >= 0:
        slack[v] = weights[v] - owed[v]
        if v < n - 1:
            v += 1
            continue
        yield weights
        while v >= 0 and (weights[v] == max_weight or 0 in [slack[t] for t in targets[v]]):
            for t in targets[v]:
                slack[t] += weights[v] - least[v]
            weights[v] = least[v]
            v -= 1
        if v >= 0:
            weights[v] += 1
            for t in targets[v]:
                slack[t] -= 1


def reference_extensions(shape, max_weight):
    """The shape search's extension step before orderly generation: every
    shape one final vertex larger whose least minimal root weight is
    within bounds, in any vertex order, to be folded by ``canonical_form``."""
    paths = [1] * len(shape) + [0]  # paths[-1] is 0: "no second target" adds nothing
    final_weight = [1] + [2 if second < 0 else 1 for _, second, _ in shape[1:]]
    has_child = [False] * len(shape)
    for i, (parent, second, _) in enumerate(shape[1:], 1):
        paths[i] = paths[parent] + paths[second]
        has_child[parent] = True
    least_root = sum(p * c for p, c, busy in zip(paths, final_weight, has_child) if not busy)
    satellite_pairs = {(p, s) for p, s, _ in shape if s >= 0}
    for parent in range(len(shape)):
        # the parent stops being final unless it already has a child
        rest = least_root - (0 if has_child[parent] else paths[parent] * final_weight[parent])
        for second in (-1, *(t for t in shape[parent][:2] if t >= 0)):
            # a free final vertex weighs 2 and a satellite one 1
            grown = 2 * paths[parent] if second < 0 else paths[parent] + paths[second]
            # skip a second vertex proximate to both parent and second
            if (parent, second) not in satellite_pairs and rest + grown <= max_weight:
                yield shape + ((parent, second, 0),)


def reference_twins(record):
    """The key of a diagram record, every vertex's children in key order
    and the *twins*, each two consecutive children in key order with equal
    subtree codes, by a recursive re-encoding of each subtree apart from
    ``canonical_form`` (children of equal code keep their index order)."""

    def code(v):
        parent, second, weight = record[v]
        letter = "r" if parent < 0 else "f" if second < 0 else "ab"[second != record[parent][0]]
        return f"({weight}{letter}{''.join(sorted(code(c) for c in children[v]))})"

    children = [[] for _ in record]
    for v in range(1, len(record)):
        children[record[v][0]].append(v)
    codes = [code(v) for v in range(len(record))]
    twins = []
    for kids in children:
        kids.sort(key=codes.__getitem__)
        twins += [(c, d) for c, d in zip(kids, kids[1:]) if codes[c] == codes[d]]
    return codes[0], children, twins


def reference_orbit_pairs(children, twins):
    """The orbit test of a shape in any vertex order, given its children
    lists in key order and its twins as ``reference_twins`` returns them:
    for every twin pair, the getters of the two subtrees' weight runs in
    canonical preorder.  Empty when the identity is the only automorphism."""
    if not twins:
        return ()
    order = enriques.diagram._preorder(children, 0)
    at = {v: i for i, v in enumerate(order)}
    # a twin's run directly follows its left sibling's run, and equal codes
    # give runs of one length
    return tuple(
        (itemgetter(*order[at[c] : at[d]]), itemgetter(*order[at[d] : 2 * at[d] - at[c]]))
        for c, d in twins
    )


def reference_milnor_numbers(shape, weightings):
    """Each weighting's Milnor number ``1 + sum nu*(nu - 2 + |targets|)``,
    read off the shape's records term by term after the search."""
    coefficients = [2] + [1 if second < 0 else 0 for _, second, _ in shape[1:]]
    for weights in weightings:
        yield 1 + sum([x * (x - c) for x, c in zip(weights, coefficients)])


def reference_geq(upper: WeightedDiagram, lower: WeightedDiagram):
    """The plain domination search, the oracle for ``geq``'s verdict and
    witness: for each vertex it tries every candidate image, then
    exclusion, re-summing the targets' ``ord_kappa`` values for each and
    checking the inequality after the choice.

    ``upper`` must be a valid consistent diagram; ``lower`` must be valid.
    Lower vertices are taken in ``lower.diagram.preorder``, each mapped
    to an unused child of its parent's image with the same kind (a
    satellite's second target must correspond) or excluded with its
    subtree.  A constraint at a vertex reads only its ancestors, so any
    root-first order gives the same verdict.  Images are tried by id
    before exclusion: the witness is the first in lower preorder with
    upper children by id, so a relabelling of a branching diagram may
    pick another valid one.  Returns None when there is no witness.
    """
    require_valid(upper.diagram)
    require_valid(lower.diagram)
    if not is_consistent(upper):
        raise InconsistentDiagramError("the dominating diagram must be consistent")

    lo = lower.diagram
    up = upper.diagram
    order = lo.preorder
    ord_nu = lower.orders

    image: dict[int, int] = {}
    used: set[int] = set()
    ord_kappa: dict[int, int] = {}

    def candidates(v: int) -> list[int | None]:
        """Images to try for ``v`` given the choices so far, then exclusion."""
        out: list[int | None] = []
        if v == lo.root:
            out.append(up.root)
        else:
            v_targets = lo.prox_targets[v]
            parent_image = image.get(lo.parent[v])
            if parent_image is not None:
                for u in up.children[parent_image]:
                    if u in used:
                        continue
                    u_targets = up.prox_targets[u]
                    if len(u_targets) != len(v_targets):
                        continue
                    if len(v_targets) == 2 and image.get(v_targets[1]) != u_targets[1]:
                        continue
                    out.append(u)
        out.append(None)
        return out

    # depth-first search with an explicit stack: one iterator of untried
    # choices per decided vertex of ``order``
    pending = [iter(candidates(order[0]))]
    while pending:
        v = order[len(pending) - 1]
        if v in ord_kappa:  # a deeper vertex ran out of choices: undo this one
            used.discard(image.pop(v, None))
            del ord_kappa[v]
        v_targets = lo.prox_targets[v]
        for choice in pending[-1]:
            value = upper.nu[choice] if choice is not None else 0
            ord_value = value + sum(ord_kappa[t] for t in v_targets)
            if ord_nu[v] <= ord_value:
                break
        else:
            pending.pop()
            continue
        if choice is not None:
            image[v] = choice
            used.add(choice)
        ord_kappa[v] = ord_value
        if len(pending) == len(order):
            return GeqWitness(
                embedding=SubdiagramEmbedding(pairs=tuple(sorted(image.items()))),
                kappa=tuple([(v, upper.nu[image[v]] if v in image else 0) for v in lo.vertices]),
            )
        pending.append(iter(candidates(order[len(pending)])))
    return None

