"""Abstract Enriques diagrams: rooted proximity trees with vertex weights.

An Enriques diagram is a finite rooted tree together with a binary
*proximity* relation on its vertices.  Vertices stand for infinitely near
points of a plane curve singularity; "Q proximate to P" records that Q lies
on the exceptional divisor created by blowing up P.  The relation obeys
five axioms:

1. the root is proximate to no vertex;
2. every non-root vertex is proximate to its immediate predecessor;
3. no vertex is proximate to more than two vertices;
4. if a vertex is proximate to two vertices, one of them is its immediate
   predecessor, and the predecessor is itself proximate to the other;
5. given vertices P and Q with Q proximate to P, at most one vertex is
   proximate to both P and Q.

A non-root vertex proximate to exactly one vertex is *free*; one proximate
to two is a *satellite*.  A vertex with no successor is *final*.

A *weighted* diagram attaches an integer weight to every vertex (the
multiplicity of the corresponding infinitely near point).  The *excess* of
P is its weight minus the total weight of the vertices proximate to P; a
diagram is *consistent* when every excess is nonnegative.  Consistent
diagrams are exactly the ones realised by curve germs, and two weighted
diagrams describe the same topological type precisely when they differ in
free vertices of weight one (or removable free vertices of weight zero).
Each such equivalence class contains a unique *minimal* diagram, computed
here by :func:`minimalize`, and is identified by the relabelling-invariant
:func:`canonical_key` of that minimal member.  Keys and canonical orders
come from one routine, :func:`canonical_form`, which the bounded
enumeration shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import permutations
from typing import Iterable, Mapping, Sequence

__all__ = [
    "DiagramError",
    "InvalidDiagramError",
    "InconsistentDiagramError",
    "UnknownVertexError",
    "Violation",
    "Kind",
    "VertexKind",
    "ProximityDiagram",
    "WeightedDiagram",
    "DiagramType",
    "proximity_diagram",
    "weighted_diagram",
    "single_vertex",
    "validate_axioms",
    "classify",
    "order_of_values",
    "excesses",
    "total_excess",
    "milnor_number",
    "is_consistent",
    "is_complete",
    "is_minimal",
    "minimalize",
    "canonical_form",
    "canonical_key",
    "canonical_order",
    "require_valid",
    "add_leaf",
    "remove_vertices",
    "relabel",
    "diagram_type",
]


class DiagramError(Exception):
    """Base class for diagram domain errors."""


class InvalidDiagramError(DiagramError):
    """The diagram violates the proximity axioms."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = tuple(violations)
        detail = "; ".join(v.message for v in self.violations)
        super().__init__(detail or "invalid diagram")


class InconsistentDiagramError(DiagramError):
    """An operation that needs nonnegative excesses met a negative one."""


class UnknownVertexError(DiagramError):
    """A vertex id does not belong to the diagram."""


@dataclass(frozen=True)
class Violation:
    """One axiom violation.  ``axiom`` 0 flags structural tree defects."""

    axiom: int
    vertices: tuple[int, ...]
    message: str


class Kind(Enum):
    ROOT = "root"
    FREE = "free"
    SATELLITE = "satellite"


@dataclass(frozen=True)
class VertexKind:
    """Classification of one vertex: its kind and whether it is final."""

    kind: Kind
    final: bool


@dataclass(frozen=True)
class ProximityDiagram:
    """Immutable rooted tree with a proximity relation.

    ``parent_edges`` holds ``(child, parent)`` pairs sorted by child;
    ``proximity`` holds ``(source, target)`` pairs, sorted, where the
    source is proximate to the target.  Use :func:`proximity_diagram`
    to build instances from mappings.
    """

    root: int
    parent_edges: tuple[tuple[int, int], ...]
    proximity: tuple[tuple[int, int], ...]

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        seen = {self.root}
        for child, parent in self.parent_edges:
            seen.add(child)
            seen.add(parent)
        for source, target in self.proximity:
            seen.add(source)
            seen.add(target)
        return tuple(sorted(seen))

    @cached_property
    def parent(self) -> Mapping[int, int]:
        return dict(self.parent_edges)

    @cached_property
    def children(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for child, parent in self.parent_edges:
            out[parent].append(child)
        return {v: tuple(sorted(kids)) for v, kids in out.items()}

    @cached_property
    def prox_targets(self) -> Mapping[int, tuple[int, ...]]:
        """Vertices each vertex is proximate to, immediate predecessor first."""
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for source, target in self.proximity:
            out[source].append(target)
        result = {}
        for v, targets in out.items():
            parent = self.parent.get(v)
            if parent is not None and parent in targets:
                rest = sorted(t for t in targets if t != parent)
                result[v] = (parent, *rest)
            else:
                result[v] = tuple(sorted(targets))
        return result

    @cached_property
    def prox_sources(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for source, target in self.proximity:
            out[target].append(source)
        return {v: tuple(sorted(s)) for v, s in out.items()}

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        """Vertices root first, each parent before its children.

        Visits each vertex at most once; a parent map that leads back to a
        visited vertex raises :class:`InvalidDiagramError`."""
        order: list[int] = []
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen:
                raise InvalidDiagramError(self.violations)
            seen.add(v)
            order.append(v)
            stack.extend(reversed(self.children.get(v, ())))
        return tuple(order)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Axiom violations, found once by :func:`validate_axioms`."""
        return tuple(validate_axioms(self))

    def require_vertex(self, v: int) -> None:
        if v not in self.children:
            raise UnknownVertexError(f"unknown vertex id {v!r}")


def proximity_diagram(
    root: int,
    parent: Mapping[int, int],
    proximity: Iterable[tuple[int, int]],
) -> ProximityDiagram:
    """Build a :class:`ProximityDiagram` from a parent map and proximity pairs."""
    return ProximityDiagram(
        root=root,
        parent_edges=tuple(sorted(parent.items())),
        proximity=tuple(sorted(set(proximity))),
    )


@dataclass(frozen=True)
class WeightedDiagram:
    """A proximity diagram together with one integer weight per vertex."""

    diagram: ProximityDiagram
    weight_items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if tuple(v for v, _ in self.weight_items) != self.diagram.vertices:
            raise DiagramError("weights must cover exactly the vertex set")

    @cached_property
    def nu(self) -> Mapping[int, int]:
        return dict(self.weight_items)

    @property
    def root(self) -> int:
        return self.diagram.root

    @cached_property
    def excess(self) -> Mapping[int, int]:
        nu = self.nu
        return {
            v: nu[v] - sum(nu[s] for s in self.diagram.prox_sources[v])
            for v in self.diagram.vertices
        }

    @cached_property
    def orders(self) -> Mapping[int, int]:
        nu = self.nu
        targets = self.diagram.prox_targets
        out: dict[int, int] = {}
        for v in self.diagram.preorder:
            out[v] = nu[v] + sum(out[t] for t in targets[v])
        return out

    @cached_property
    def record(self) -> tuple[tuple[int, int, int], ...]:
        """The diagram as :func:`canonical_form` reads it, one ``(parent,
        second, weight)`` entry per vertex of ``diagram.preorder``, targets
        given by preorder position.  Raises :class:`InvalidDiagramError` for
        a vertex not below the root or a satellite whose second target is
        not one of its parent's targets."""
        d = self.diagram
        if d.root in d.parent or len(d.preorder) != len(d.vertices):
            raise InvalidDiagramError(d.violations)
        position = {v: i for i, v in enumerate(d.preorder)}
        out = [(-1, -1, self.nu[d.root])]
        for v in d.preorder[1:]:
            parent = d.parent[v]
            targets = d.prox_targets[v]
            if len(targets) > 1 and targets[1] not in d.prox_targets[parent]:
                raise InvalidDiagramError(d.violations)
            second = position[targets[1]] if len(targets) > 1 else -1
            out.append((position[parent], second, self.nu[v]))
        return tuple(out)

    @cached_property
    def _canonical(self) -> tuple[str, tuple[int, ...]]:
        key, children = canonical_form(self.record)
        preorder = self.diagram.preorder
        order: list[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            order.append(preorder[i])
            stack.extend(reversed(children[i]))
        return key, tuple(order)

    @property
    def key(self) -> str:
        """Canonical key, see :func:`canonical_key`."""
        return self._canonical[0]

    @property
    def canonical_order(self) -> tuple[int, ...]:
        """Vertex ids in canonical order, see :func:`canonical_order`."""
        return self._canonical[1]

    def __len__(self) -> int:
        return len(self.diagram.vertices)


def weighted_diagram(diagram: ProximityDiagram, nu: Mapping[int, int]) -> WeightedDiagram:
    """Attach weights to ``diagram``; ``nu`` must cover every vertex."""
    items = tuple(sorted((v, int(nu[v])) for v in diagram.vertices))
    return WeightedDiagram(diagram=diagram, weight_items=items)


def single_vertex(weight: int) -> WeightedDiagram:
    """The one-vertex diagram of the given weight (vertex id 0)."""
    return weighted_diagram(proximity_diagram(0, {}, []), {0: weight})


# ---------------------------------------------------------------------------
# axioms and classification
# ---------------------------------------------------------------------------

def validate_axioms(d: ProximityDiagram) -> list[Violation]:
    """Check the five proximity axioms plus tree structure.

    Returns a list of :class:`Violation`, empty when the diagram is valid.
    Axiom number 0 marks structural defects (broken parent map, proximity
    pairs naming unknown vertices, cycles).
    """
    violations: list[Violation] = []
    vertices = set(d.vertices)
    parent = dict(d.parent_edges)

    if d.root in parent:
        violations.append(Violation(0, (d.root,), f"root {d.root} has a parent"))
    for v in sorted(vertices):
        if v != d.root and v not in parent:
            violations.append(Violation(0, (v,), f"non-root vertex {v} has no parent"))
    for source, target in d.proximity:
        if source == target:
            violations.append(Violation(0, (source,), f"vertex {source} proximate to itself"))
        for end in (source, target):
            if end not in vertices:
                violations.append(Violation(0, (end,), f"proximity names unknown vertex {end}"))

    # parent chains must reach the root without cycles
    state: dict[int, int] = {}  # 1 = in progress, 2 = ok
    for v in sorted(vertices):
        path = []
        u = v
        while True:
            if u == d.root or state.get(u) == 2:
                break
            if state.get(u) == 1 or u in path:
                violations.append(Violation(0, (v,), f"parent chain from {v} has a cycle"))
                break
            path.append(u)
            nxt = parent.get(u)
            if nxt is None:
                break  # already reported as missing parent
            u = nxt
        for w in path:
            state[w] = 2

    if violations:
        return _sorted_violations(violations)

    prox_targets = d.prox_targets
    prox_set = set(d.proximity)
    for v in sorted(vertices):
        targets = prox_targets[v]
        if v == d.root:
            if targets:
                violations.append(
                    Violation(1, (v,), f"root {v} is proximate to {list(targets)}")
                )
            continue
        p = parent[v]
        if (v, p) not in prox_set:
            violations.append(
                Violation(2, (v, p), f"vertex {v} is not proximate to its parent {p}")
            )
        if len(targets) > 2:
            violations.append(
                Violation(3, (v,), f"vertex {v} is proximate to {len(targets)} vertices")
            )
        if len(targets) == 2:
            if p not in targets:
                # axiom 4 presupposes one target is the parent; axiom 2 already
                # fired, so only report the non-parent pair here.
                violations.append(
                    Violation(4, (v,), f"vertex {v} is proximate to two non-parents")
                )
            else:
                other = targets[0] if targets[1] == p else targets[1]
                if (p, other) not in prox_set:
                    violations.append(
                        Violation(
                            4,
                            (v, p, other),
                            f"parent {p} of satellite {v} is not proximate to {other}",
                        )
                    )
    sharing: dict[tuple[int, int], list[int]] = {}  # pair -> vertices proximate to both
    for u in vertices:
        for pair in permutations(set(prox_targets[u]), 2):
            sharing.setdefault(pair, []).append(u)
    for source, target in d.proximity:
        both = sharing.get((source, target), [])
        if len(both) > 1:
            violations.append(
                Violation(
                    5,
                    (target, source, *sorted(both)),
                    f"{len(both)} vertices proximate to both {target} and {source}",
                )
            )
    return _sorted_violations(violations)


def _sorted_violations(violations: list[Violation]) -> list[Violation]:
    return sorted(violations, key=lambda v: (v.axiom, v.vertices))


def require_valid(d: ProximityDiagram) -> None:
    """Raise :class:`InvalidDiagramError` unless ``d`` satisfies the axioms."""
    if d.violations:
        raise InvalidDiagramError(d.violations)


def classify(d: ProximityDiagram, v: int) -> VertexKind:
    """Kind (root / free / satellite) and finality of vertex ``v``."""
    d.require_vertex(v)
    final = not d.children[v]
    if v == d.root:
        return VertexKind(Kind.ROOT, final)
    degree = len(d.prox_targets[v])
    if degree == 2:
        return VertexKind(Kind.SATELLITE, final)
    if degree == 1:
        return VertexKind(Kind.FREE, final)
    raise InvalidDiagramError(
        [Violation(2, (v,), f"non-root vertex {v} is proximate to nothing")]
    )


# ---------------------------------------------------------------------------
# weights: orders, excesses, Milnor number
# ---------------------------------------------------------------------------

def order_of_values(w: WeightedDiagram) -> dict[int, int]:
    """System of values: ord(P) = weight(P) plus ord of every proximity target.

    Computed root first; the value at P is the order of vanishing, at the
    point P, of the total transform of a germ whose multiplicities are the
    weights.
    """
    return dict(w.orders)


def excesses(w: WeightedDiagram) -> dict[int, int]:
    """Excess of every vertex: weight minus total weight proximate to it."""
    return dict(w.excess)


def total_excess(w: WeightedDiagram) -> int:
    return sum(w.excess.values())


def is_consistent(w: WeightedDiagram) -> bool:
    """True when every excess is nonnegative."""
    return all(r >= 0 for r in w.excess.values())


def milnor_number(w: WeightedDiagram) -> int:
    """Milnor number of the consistent weighted diagram ``w``.

    mu = sum of weight*(weight-1) over all vertices, plus one, minus the
    total excess.  Raises :class:`InconsistentDiagramError` when some excess
    is negative: the Milnor number of an inconsistent diagram is undefined.
    """
    if not is_consistent(w):
        raise InconsistentDiagramError("Milnor number requires a consistent diagram")
    nu = w.nu
    square_term = sum(weight * (weight - 1) for weight in nu.values())
    return square_term + 1 - total_excess(w)


def is_complete(w: WeightedDiagram) -> bool:
    """True when ``w`` is the full diagram of a resolved germ.

    Every non-final vertex has excess zero, and every final vertex is free
    of weight one and not proximate to another free vertex of weight one.
    """
    d = w.diagram
    nu = w.nu
    for v in d.vertices:
        final = not d.children[v]
        if not final:
            if w.excess[v] != 0:
                return False
            continue
        kind = classify(d, v)
        if kind.kind is not Kind.FREE or nu[v] != 1:
            return False
        for t in d.prox_targets[v]:
            if nu[t] == 1 and classify(d, t).kind is Kind.FREE:
                return False
    return True


def _has_satellite_source(w: WeightedDiagram, v: int) -> bool:
    d = w.diagram
    return any(len(d.prox_targets[s]) == 2 for s in d.prox_sources[v])


def is_minimal(w: WeightedDiagram) -> bool:
    """True for the distinguished representative of an equivalence class.

    A minimal diagram is consistent, has a root of positive weight, no free
    vertex of weight zero, and free vertices of weight one only where a
    satellite is proximate to them.
    """
    if not is_consistent(w):
        return False
    if w.nu[w.root] < 1:
        return False
    d = w.diagram
    for v in d.vertices:
        if v == d.root or len(d.prox_targets[v]) != 1:
            continue
        weight = w.nu[v]
        if weight == 0:
            return False
        if weight == 1 and not _has_satellite_source(w, v):
            return False
    return True


# ---------------------------------------------------------------------------
# surgery: removal, leaves, minimalization
# ---------------------------------------------------------------------------

def remove_vertices(w: WeightedDiagram, drop: Iterable[int]) -> WeightedDiagram:
    """Drop a successor-closed set of vertices (no member may have a kept child)."""
    dropped = set(drop)
    if w.root in dropped:
        raise DiagramError("cannot remove the root")
    d = w.diagram
    for v in dropped:
        d.require_vertex(v)
        for child in d.children[v]:
            if child not in dropped:
                raise DiagramError(f"vertex {v} still has successor {child}")
    parent = {v: p for v, p in d.parent_edges if v not in dropped}
    prox = [
        (s, t) for s, t in d.proximity if s not in dropped and t not in dropped
    ]
    nu = {v: w.nu[v] for v in d.vertices if v not in dropped}
    return weighted_diagram(proximity_diagram(d.root, parent, prox), nu)


def add_leaf(
    w: WeightedDiagram, at: int, weight: int, second: int | None = None
) -> WeightedDiagram:
    """Attach a new final vertex of the given weight below ``at``.

    The new vertex takes the next unused id and is proximate to ``at``
    and, when ``second`` is given, to ``second`` as well, which makes it
    a satellite; otherwise it is free.
    """
    d = w.diagram
    d.require_vertex(at)
    new = max(d.vertices) + 1
    parent = dict(d.parent_edges)
    parent[new] = at
    prox = list(d.proximity)
    prox.append((new, at))
    if second is not None:
        d.require_vertex(second)
        prox.append((new, second))
    nu = dict(w.nu)
    nu[new] = weight
    return weighted_diagram(proximity_diagram(d.root, parent, prox), nu)


def minimalize(w: WeightedDiagram) -> WeightedDiagram:
    """The unique minimal diagram equivalent to ``w``.

    Class moves remove final free vertices of weight zero or one until none
    is left; each removal can expose another.  One reverse-preorder pass
    finds that fixed point's whole removable set: a non-root free vertex of
    weight zero or one is removable exactly when all its children are,
    because a satellite proximate to ``v`` is a descendant of ``v`` and is
    never removable, so ``v`` becomes final exactly when every child is
    removed.  The set is dropped by one :func:`remove_vertices` (``w`` is
    returned when it is empty).  The Milnor number is preserved.
    """
    if not is_consistent(w):
        raise InconsistentDiagramError("minimalize requires a consistent diagram")
    d = w.diagram
    if len(d.preorder) != len(d.vertices):
        raise InvalidDiagramError(d.violations)
    removable: set[int] = set()
    for v in reversed(d.preorder[1:]):
        free_and_light = len(d.prox_targets[v]) == 1 and w.nu[v] in (0, 1)
        if free_and_light and removable.issuperset(d.children[v]):
            removable.add(v)
    return remove_vertices(w, removable) if removable else w


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonical_form(
    record: Sequence[tuple[int, int, int]],
) -> tuple[str, list[list[int]]]:
    """Canonical key of a diagram record, and every vertex's children in key order.

    ``record[i]`` is ``(parent, second, weight)`` for vertex ``i``: the
    index of its parent, below ``i`` (``-1`` for the root at index 0), the
    index of its second proximity target, one of the parent's own targets
    (``-1`` for none), and its weight.  Subtree codes are built bottom-up
    as in the Aho-Hopcroft-Ullman tree encoding: a vertex's weight, its
    letter (``r`` root, ``f`` free, ``a``/``b`` a satellite whose second
    target is the parent's first/second target) and its children's codes
    in sorted order, all in parentheses.  The key is the root's code;
    siblings with equal codes keep their index order.
    """
    children: list[list[int]] = [[] for _ in record]
    for i in range(1, len(record)):
        children[record[i][0]].append(i)
    codes = [""] * len(record)
    for i in range(len(record) - 1, -1, -1):
        parent, second, weight = record[i]
        if parent < 0:
            letter = "r"
        elif second < 0:
            letter = "f"
        else:
            letter = "a" if second == record[parent][0] else "b"
        # a used child code is cleared: a chain would otherwise hold
        # quadratically many characters
        kids = children[i]
        if not kids:
            codes[i] = f"({weight}{letter})"
        elif len(kids) == 1:
            codes[i] = f"({weight}{letter}{codes[kids[0]]})"
            codes[kids[0]] = ""
        else:
            kids.sort(key=codes.__getitem__)
            codes[i] = f"({weight}{letter}{''.join([codes[c] for c in kids])})"
            for c in kids:
                codes[c] = ""
    return codes[0], children


def canonical_key(w: WeightedDiagram) -> str:
    """Relabelling-invariant encoding of a weighted diagram.

    Two weighted diagrams have equal keys exactly when some bijection of
    their vertices preserves the root, the parent map, the proximity
    relation and the weights.  The key is :func:`canonical_form` of the
    diagram's record: sibling subtrees appear sorted by code, and a
    satellite's second proximity target is recorded by its position among
    the parent's own targets, so the key never mentions vertex ids.
    """
    return w.key


def canonical_order(w: WeightedDiagram) -> tuple[int, ...]:
    """Vertices in canonical traversal order (root first, children by key,
    equal subtrees by vertex id); computed once per diagram."""
    return w.canonical_order


def relabel(w: WeightedDiagram, mapping: Mapping[int, int]) -> WeightedDiagram:
    """Rename vertices through a bijection (used for normalisation and tests)."""
    values = set(mapping.values())
    if len(values) != len(w.diagram.vertices):
        raise DiagramError("relabelling must be a bijection on the vertex set")
    d = w.diagram
    parent = {mapping[v]: mapping[p] for v, p in d.parent_edges}
    prox = [(mapping[s], mapping[t]) for s, t in d.proximity]
    nu = {mapping[v]: w.nu[v] for v in d.vertices}
    return weighted_diagram(proximity_diagram(mapping[d.root], parent, prox), nu)


# ---------------------------------------------------------------------------
# types (equivalence classes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramType:
    """Equivalence class of weighted diagrams, held by its minimal member."""

    representative: WeightedDiagram
    key: str

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagramType):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def diagram_type(w: WeightedDiagram) -> DiagramType:
    """The type of ``w``: minimalize and take the canonical key."""
    minimal = minimalize(w)
    return DiagramType(representative=minimal, key=minimal.key)
