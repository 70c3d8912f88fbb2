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
Each such equivalence class without a weight-0 satellite contains a
unique *minimal* diagram, computed here by :func:`minimalize`, and is
identified by the relabelling-invariant :func:`canonical_key` of that
minimal member.  Keys and canonical orders come from one routine,
:func:`canonical_form`, which the bounded enumeration shares; only a
diagram that :func:`validate_axioms` passes has them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import filterfalse
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

    Every diagram stores ``root``, the four maps below and the facts it
    caches, whichever way it was made.  The constructor takes the two maps
    it stores: ``parent``, each child's parent, and ``prox_targets``, each
    source's targets (the vertices it is proximate to), a list or tuple in
    any order, repeats allowed.  Every id must be an ``int`` (not a bool),
    else :class:`DiagramError` is raised.  One scan checks every id, child
    then parent, then source and each target, and derives fresh maps: the
    caller's dicts and lists are never kept.  The vertices are the root
    and the ids ``parent`` and the non-empty target lists name.  That scan
    is the one path for outside input: :func:`relabel`, ``diagram_from_dict``
    and the adapter :func:`proximity_diagram`, for callers that hold
    ``(source, target)`` pairs, all build through it.  The two builders
    that change a diagram they already hold derive the new one's maps from
    its source's instead (:func:`_derived`): :func:`_grown` appends
    vertices, and :func:`remove_vertices` drops them.  Equality and hashing
    read ``root``, ``parent`` and ``prox_targets``, and the repr shows
    them.  Validity is decided lazily, by :func:`validate_axioms` through
    ``violations``, for a diagram built from outside input; a diagram that
    :func:`_grown`, :func:`remove_vertices` or :func:`relabel` derives
    from one with a clean verdict inherits it instead.
    ``vertices`` holds the sorted ids and ``parent`` maps each child to
    its parent, keyed in child order; ``children`` and ``prox_targets``
    are keyed in vertex order, with children sorted and targets listing
    the immediate predecessor first, then the rest sorted, each once.  The
    inverse relation, the vertices proximate to each vertex, is not kept:
    its readers (excess, minimality) walk ``prox_targets``.
    """

    root: int
    parent: dict[int, int]
    prox_targets: dict[int, tuple[int, ...]]
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    children: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # every diagram keys parent in child order, so equal ones list it alike
        return hash((self.root, tuple(self.parent.items())))

    def __post_init__(self) -> None:
        ids = {_integer(self.root, "vertex id")}
        given = self.parent
        for child, p in given.items():
            if type(child) is not int or type(p) is not int:
                _integer(child, "vertex id")
                _integer(p, "vertex id")
            ids.add(child)
            ids.add(p)
        parent = {child: given[child] for child in sorted(given)}
        children: dict[int, list[int]] = {}
        for child, p in parent.items():
            children.setdefault(p, []).append(child)
        targets: dict[int, tuple[int, ...]] = {}
        for source, listed in self.prox_targets.items():
            if type(source) is not int:
                _integer(source, "vertex id")
            for t in listed:
                if type(t) is not int:
                    _integer(t, "vertex id")
            if not listed:
                continue
            ids.add(source)
            ids.update(listed)
            if len(listed) > 1:
                p = parent.get(source)
                # the parent first, then the rest sorted, each once; a lone
                # target and a distinct pair led by the parent, as a free
                # vertex and a satellite are written out, are kept as they are
                if len(listed) > 2 or listed[0] != p or listed[1] == p:
                    rest = set(listed)
                    listed = (p, *sorted(rest - {p})) if p in rest else sorted(rest)
            targets[source] = tuple(listed)
        vertices = tuple(sorted(ids))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "children", _frozen(children, vertices))
        object.__setattr__(self, "prox_targets", _frozen(targets, vertices))

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        """Vertices root first, each parent before its children.

        The tree check, the same reach that :func:`validate_axioms` makes:
        raises :class:`InvalidDiagramError` when the root has a parent or
        the walk from the root misses a vertex (a missing parent or a cycle
        off the root)."""
        order = self._reach()
        if len(order) != len(self.vertices):
            raise InvalidDiagramError(self.violations)
        return tuple(order)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Axiom violations, found once by :func:`validate_axioms` unless
        a builder seeded the empty verdict inherited from a valid source.
        A tree reach that covers every vertex is kept as ``preorder``."""
        reach = self._reach()
        if len(reach) == len(self.vertices):
            self.__dict__.setdefault("preorder", tuple(reach))
        return tuple(_axiom_violations(self, reach))

    def _reach(self) -> list[int]:
        """The vertices :func:`_preorder` reaches from the root, none when
        the root has a parent."""
        return [] if self.root in self.parent else _preorder(self.children, self.root)

    def require_vertex(self, v: int) -> int:
        """``v`` itself when it is an ``int`` vertex id here, else DiagramError."""
        if _integer(v, "vertex id") not in self.children:
            raise UnknownVertexError(f"unknown vertex id {v!r}")
        return v


def proximity_diagram(
    root: int,
    parent: Mapping[int, int],
    proximity: Iterable[tuple[int, int]],
) -> ProximityDiagram:
    """Build a :class:`ProximityDiagram` from a parent map and
    ``(source, target)`` pairs in any order, repeats allowed: the adapter
    for callers that hold pairs.  It groups the targets by source; the
    diagram makes every check."""
    targets: dict[int, list[int]] = {}
    for source, target in proximity:
        targets.setdefault(source, []).append(target)
    return ProximityDiagram(root, parent, targets)


def _frozen(lists: dict[int, list[int]], keys: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """``lists`` as tuples keyed in ``keys`` order, empty where absent."""
    return {v: tuple(lists.get(v, ())) for v in keys}


def _preorder(
    children: Mapping[int, Sequence[int]] | Sequence[Sequence[int]], start: int
) -> list[int]:
    """``start`` and its descendants, each parent before its children and
    siblings in the order ``children`` lists them: the one tree walk.

    A lone child, as along a chain, is pushed as it is; more children are
    pushed reversed in one slice, so the first is popped first.  Each
    vertex is visited once per time a ``children`` list names it: on a
    map derived from parents (one parent per vertex) and a ``start`` with
    no parent, that is once."""
    order: list[int] = []
    stack = [start]
    pop, push, visit = stack.pop, stack.append, order.append
    while stack:
        v = pop()
        visit(v)
        kids = children[v]
        if len(kids) == 1:
            push(kids[0])
        elif kids:
            stack += kids[::-1]
    return order


@dataclass(frozen=True)
class WeightedDiagram:
    """A proximity diagram together with one integer weight per vertex:
    ``weights[i]`` weighs ``diagram.vertices[i]``.

    Every construction checks, in this one place, that there is one
    weight per vertex and that each is an ``int`` (not a bool), else
    :class:`DiagramError` is raised.  Builders that hold the weights in
    vertex order call it directly; :func:`weighted_diagram` is the adapter
    for a map of weights by vertex id."""

    diagram: ProximityDiagram
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.diagram.vertices):
            raise DiagramError("weights must give one weight per vertex")
        for weight in self.weights:
            if type(weight) is not int:
                _integer(weight, "weight")

    @cached_property
    def nu(self) -> Mapping[int, int]:
        return dict(zip(self.diagram.vertices, self.weights))

    @property
    def root(self) -> int:
        return self.diagram.root

    @cached_property
    def excess(self) -> Mapping[int, int]:
        """Each vertex's weight less the weights of the vertices proximate
        to it: every vertex's weight is taken off each of its targets."""
        out = dict(self.nu)
        targets = self.diagram.prox_targets
        for v, weight in self.nu.items():
            for t in targets[v]:
                out[t] -= weight
        return out

    @cached_property
    def orders(self) -> Mapping[int, int]:
        """System of values, see :func:`order_of_values`."""
        require_valid(self.diagram)
        nu = self.nu
        targets = self.diagram.prox_targets
        out: dict[int, int] = {}
        value = out.__getitem__
        for v in self.diagram.preorder:
            out[v] = nu[v] + sum(map(value, targets[v]))
        return out

    @cached_property
    def milnor_number(self) -> int:
        """Milnor number, see :func:`milnor_number`: computed once, and
        the validity and consistency checks raise again on every read."""
        d = self.diagram
        require_valid(d)
        if not is_consistent(self):
            raise InconsistentDiagramError("Milnor number requires a consistent diagram")
        targets = d.prox_targets
        return 1 + sum(x * (x - 2 + len(targets[v])) for v, x in zip(d.vertices, self.weights))

    @cached_property
    def _form(self) -> tuple[str, Mapping[int, int]]:
        """The key and the canonical ids, from :func:`canonical_form` of the
        diagram's record: one ``(parent, second, weight)`` entry per vertex
        of ``diagram.preorder``, targets given by preorder position.  Only a
        valid diagram has them: any axiom violation raises
        :class:`InvalidDiagramError` listing every violation, read from the
        cached ``diagram.violations``."""
        d = self.diagram
        require_valid(d)
        order, nu, targets = d.preorder, self.nu, d.prox_targets
        n = len(order)
        position = dict(zip(order, range(n)))
        # a valid diagram lists each non-root vertex's parent first
        record = [(-1, -1, nu[order[0]])] + [
            (position[t[0]], position[t[1]] if len(t) > 1 else -1, nu[v])
            for v in order[1:]
            for t in (targets[v],)
        ]
        key, children = canonical_form(record)
        return key, dict(zip(map(order.__getitem__, _preorder(children, 0)), range(n)))

    @cached_property
    def key(self) -> str:
        """Canonical key, see :func:`canonical_key`."""
        return self._form[0]

    @property
    def canonical_ids(self) -> Mapping[int, int]:
        """Each vertex id's canonical position, inserted in canonical order
        (see :func:`canonical_order`); ``_form``, which caches it with the
        key, is the one place positions are derived."""
        return self._form[1]

    def __len__(self) -> int:
        return len(self.diagram.vertices)


def weighted_diagram(diagram: ProximityDiagram, nu: Mapping[int, int]) -> WeightedDiagram:
    """Attach the weights of a map by vertex id to ``diagram``: the adapter
    for callers that hold a map.  ``nu`` must weigh every vertex, with the
    type check of :class:`WeightedDiagram`, and nothing else, else
    :class:`DiagramError` is raised, in that order."""
    try:
        w = WeightedDiagram(diagram, tuple([nu[v] for v in diagram.vertices]))
    except KeyError as exc:
        raise DiagramError(f"no weight for vertex {exc.args[0]!r}") from None
    if len(nu) != len(w.weights):
        strays = [v for v in nu if v not in diagram.children]
        raise DiagramError(f"weights for ids that are not vertices: {strays}")
    return w


def _integer(value: object, what: str, error: type[Exception] = DiagramError) -> int:
    """``value`` itself when it is an ``int`` and not a bool, else ``error``
    naming ``what``: the one check of outside integers (weights, vertex ids,
    JSON input, and, with ``ValueError``, the search bounds and the germ
    exponents)."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def keyed_diagram(diagram: ProximityDiagram, weights: tuple[int, ...], key: str) -> WeightedDiagram:
    """``WeightedDiagram(diagram, weights)`` with its canonical key ``key``
    already known (it is not checked)."""
    w = WeightedDiagram(diagram, weights)
    w.__dict__["key"] = key
    return w


# the lone root, vertex id 0, that every diagram grown from nothing starts
# at; it is valid, so every diagram grown from it inherits its verdict
_ROOT = ProximityDiagram(0, {}, {})
_ROOT.__dict__["violations"] = ()


def single_vertex(weight: int) -> WeightedDiagram:
    """The one-vertex diagram of the given weight (vertex id 0)."""
    return WeightedDiagram(_ROOT, (weight,))


def _derived(
    root: int,
    vertices: tuple[int, ...],
    parent: dict[int, int],
    children: dict[int, tuple[int, ...]],
    prox_targets: dict[int, tuple[int, ...]],
    clean: bool,
) -> ProximityDiagram:
    """A diagram with the maps that :func:`_grown` or
    :func:`remove_vertices` derived from its source's, set as given and
    seeded with the clean verdict when ``clean``: the fields the
    constructor sets, without its scan.  The builder vouches that the maps
    are the ones that scan would derive from ``parent`` and
    ``prox_targets`` themselves (``parent`` keyed in child order), and an
    oracle test holds them to it."""
    out = object.__new__(ProximityDiagram)
    out.__dict__.update(
        root=root,
        vertices=vertices,
        parent=parent,
        children=children,
        prox_targets=prox_targets,
    )
    if clean:
        out.__dict__["violations"] = ()
    return out


def _grown(d: ProximityDiagram, run: Iterable[tuple[int, int | None]]) -> ProximityDiagram:
    """``d`` grown by one new final vertex per ``(parent, second)`` of
    ``run``, in order: the one builder that appends vertices.

    Each new vertex takes the next id after the largest, and is proximate
    to ``parent`` alone when ``second`` is None or ``parent`` (a free
    vertex), else to both (a satellite).  Each id an entry names must be
    made already, a vertex of ``d`` or of an earlier entry, else
    :class:`DiagramError` is raised: a stray id, or a parent the run makes
    after its child.  ``run`` is read once, lazily.  The maps are ``d``'s,
    copied, with the new vertices keyed last, so still in id order: a new
    vertex's targets are its parent and its second, and each parent's new
    children, which carry the largest ids, extend its tuple once, so the
    work beyond the copies is linear in the run, with no constructor scan
    (:func:`_derived`).

    The result inherits ``d``'s verdict when ``d`` already holds a clean
    one (it is only peeked at, never computed here) and the new vertices
    keep every axiom.  Only they are checked: each satellite's second
    target is one of its parent's targets (axiom 4), and no other child
    of that parent has the same two targets (axiom 5).  Nothing else can
    break: a new vertex names only older vertices, it is proximate to its
    parent and at most one more vertex, and the only vertices proximate
    to both ends of a pair ``(Q, P)`` of a valid diagram are the children
    of ``Q`` whose second target is ``P``.  Otherwise the verdict is left
    to :func:`validate_axioms`."""
    parent = dict(d.parent)
    children = dict(d.children)
    targets = dict(d.prox_targets)
    born: dict[int, list[int]] = {}
    top = new = d.vertices[-1]
    for p, second in run:
        new += 1
        # children holds every id made so far
        if p not in children or second is not None and second not in children:
            raise DiagramError(f"vertex {new} names an id not yet made: {(p, second)}")
        children[new] = ()
        born.setdefault(p, []).append(new)
        parent[new] = p
        targets[new] = (p,) if second is None or second == p else (p, second)
    for p, kids in born.items():
        children[p] += tuple(kids)
    made = range(top + 1, new + 1)
    clean = d.__dict__.get("violations") == ()
    if clean:
        for v in made:
            t, p = targets[v], parent[v]
            if len(t) == 2 and (
                t[1] not in targets[p] or [targets[c] for c in children[p]].count(t) > 1
            ):
                clean = False
                break
    return _derived(d.root, d.vertices + tuple(made), parent, children, targets, clean)


# ---------------------------------------------------------------------------
# axioms and classification
# ---------------------------------------------------------------------------

def validate_axioms(d: ProximityDiagram) -> list[Violation]:
    """Check the five proximity axioms plus tree structure.

    Returns a list of :class:`Violation`, empty when the diagram is valid,
    sorted by axiom, then vertices.  Axiom number 0 marks structural
    defects (a root with a parent, a missing parent, self-proximity,
    cycles); when there is one, only those are listed.

    The tree is decided in one step: one :func:`_preorder` reach down
    ``children`` from a root that has no parent.  Each vertex the reach
    meets is met through its one parent, so when it covers every vertex,
    no vertex misses a parent and no parent chain cycles.  Only when it
    falls short are the violations named: each vertex is checked for a
    parent, and each parent chain is walked once (a walk stops at the root
    or at any vertex an earlier walk passed), so this too is linear.

    Axioms 1-4, and self-proximity, can only fail at the root and at a
    vertex whose targets are not exactly ``(parent,)``; only those are
    checked, each in time linear in its targets: axiom 4 looks a second
    target up among the parent's targets in a set where there are more
    than two.  When axioms 0-4 hold, axiom 5 holds exactly when no two
    satellites have the same targets.  Every target is then an ancestor
    (a parent, or by axiom 4 a target of one), so for a pair ``(Q, P)``,
    ``Q`` proximate to ``P``, ``P`` is a proper ancestor of ``Q``.  A
    vertex proximate to both has at most two targets, so exactly these,
    and its parent is the nearer ancestor: it is a satellite whose targets
    are ``(Q, P)``, in that order.  Conversely two satellites with targets
    ``(Q, P)`` share the pair, since by axiom 4 ``Q`` is proximate to
    ``P``.  Otherwise, or when axioms 1-4 fail, axiom 5 is read off each
    pair ``(source, target)``: the vertices proximate to both are the
    intersection of their two source sets, and an intersection iterates
    the smaller set, so on any input with ``P`` pairs it costs at most
    ``O(P**1.5)``.  On a valid diagram the whole check is linear.  It
    caches nothing on ``d``.
    """
    return _axiom_violations(d, d._reach())


def _axiom_violations(d: ProximityDiagram, reach: list[int]) -> list[Violation]:
    """:func:`validate_axioms` given the tree reach of ``d``."""
    violations: list[Violation] = []
    parent = d.parent
    root = d.root
    prox_targets = d.prox_targets

    if len(reach) != len(d.vertices):
        return _structural_violations(d)

    # a vertex proximate to its parent alone keeps axioms 0-4
    odd = [v for v, p in parent.items() if prox_targets[v] != (p,)]
    for v in (root, *odd):
        if v in prox_targets[v]:
            violations.append(Violation(0, (v,), f"vertex {v} proximate to itself"))
    if violations:
        return _sorted_violations(violations)

    if prox_targets[root]:
        violations.append(
            Violation(1, (root,), f"root {root} is proximate to {list(prox_targets[root])}")
        )
    # axiom 4 looks a satellite's second target up among its parent's
    # targets: as a set where there are more than two, since such a
    # parent may have as many satellite children as it has targets
    wide = {v: set(prox_targets[v]) for v in (root, *odd) if len(prox_targets[v]) > 2}
    for v in odd:
        targets = prox_targets[v]
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
                # axiom 4 presupposes one target is the parent; axiom 2 already
                # fired, so only report the non-parent pair here.
                violations.append(
                    Violation(4, (v,), f"vertex {v} is proximate to two non-parents")
                )
            elif targets[1] not in wide.get(p, prox_targets[p]):
                violations.append(
                    Violation(
                        4,
                        (v, p, targets[1]),
                        f"parent {p} of satellite {v} is not proximate to {targets[1]}",
                    )
                )
    # with axioms 0-4 kept, every odd vertex is a satellite
    if not violations and len(set(map(prox_targets.__getitem__, odd))) == len(odd):
        return violations
    sources: dict[int, set[int]] = {v: set() for v in d.vertices}
    for source, targets in prox_targets.items():
        for target in targets:
            sources[target].add(source)
    for source, targets in prox_targets.items():
        for target in targets:
            both = sources[source] & sources[target]
            if len(both) > 1:
                violations.append(
                    Violation(
                        5,
                        (target, source, *sorted(both)),
                        f"{len(both)} vertices proximate to both {target} and {source}",
                    )
                )
    return _sorted_violations(violations)


def _structural_violations(d: ProximityDiagram) -> list[Violation]:
    """The structural defects of ``d``, whose tree :func:`validate_axioms`
    found broken: a root with a parent, each non-root vertex with no
    parent, each self-proximity and each parent chain that cycles."""
    violations: list[Violation] = []
    parent = d.parent

    if d.root in parent:
        violations.append(Violation(0, (d.root,), f"root {d.root} has a parent"))
    for v in d.vertices:
        if v != d.root and v not in parent:
            violations.append(Violation(0, (v,), f"non-root vertex {v} has no parent"))
    for v, targets in d.prox_targets.items():
        if v in targets:
            violations.append(Violation(0, (v,), f"vertex {v} proximate to itself"))

    # parent chains must reach the root without cycles; walk_of[u] is the
    # walk that first passed u, so a walk that stops on its own mark cycled
    walk_of: dict[int, int | None] = {d.root: None}
    for v in d.vertices:
        u = v
        while u not in walk_of and u in parent:
            walk_of[u] = v
            u = parent[u]
        if walk_of.get(u) == v:
            violations.append(Violation(0, (v,), f"parent chain from {v} has a cycle"))
    return _sorted_violations(violations)


def _sorted_violations(violations: list[Violation]) -> list[Violation]:
    return sorted(violations, key=lambda v: (v.axiom, v.vertices))


def require_valid(d: ProximityDiagram) -> None:
    """Raise :class:`InvalidDiagramError` unless ``d`` satisfies the axioms."""
    if d.violations:
        raise InvalidDiagramError(d.violations)


def classify(d: ProximityDiagram, v: int) -> VertexKind:
    """Kind (root / free / satellite) and finality of vertex ``v``.

    The kind is read as the target count (two for a satellite), which
    holds on a valid diagram: an axiom violation raises
    :class:`InvalidDiagramError`, read from the cached
    ``diagram.violations``."""
    d.require_vertex(v)
    require_valid(d)
    final = not d.children[v]
    if v == d.root:
        return VertexKind(Kind.ROOT, final)
    if len(d.prox_targets[v]) == 2:
        return VertexKind(Kind.SATELLITE, final)
    return VertexKind(Kind.FREE, final)


# ---------------------------------------------------------------------------
# weights: orders, excesses, Milnor number
# ---------------------------------------------------------------------------

def order_of_values(w: WeightedDiagram) -> dict[int, int]:
    """System of values: ord(P) = weight(P) plus ord of every proximity target.

    Computed root first; the value at P is the order of vanishing, at the
    point P, of the total transform of a germ whose multiplicities are the
    weights.  Only a valid diagram has them: an axiom violation raises
    :class:`InvalidDiagramError`, read from the cached
    ``diagram.violations``.
    """
    return dict(w.orders)


def excesses(w: WeightedDiagram) -> dict[int, int]:
    """Excess of every vertex: weight minus total weight proximate to it."""
    return dict(w.excess)


def total_excess(w: WeightedDiagram) -> int:
    return sum(w.excess.values())


def is_consistent(w: WeightedDiagram) -> bool:
    """True when every excess is nonnegative."""
    return min(w.excess.values()) >= 0


def milnor_number(w: WeightedDiagram) -> int:
    """Milnor number of the valid consistent weighted diagram ``w``.

    mu = sum of weight*(weight-1) over all vertices, plus one, minus the
    total excess.  Summing ``nu_P - sum of nu_Q over Q proximate to P``
    over all ``P`` counts each weight ``nu_Q`` once for ``Q`` and once
    against each of its targets, so the total excess is ``sum nu_Q*(1 -
    |targets(Q)|)`` and mu is ``1 + sum nu*(nu - 2 + |targets|)``: the
    root counts its weight twice against its square, a free vertex once
    and a satellite not at all.  No term depends on the order of the
    vertices, so the sum runs over ``diagram.vertices`` and ``weights``
    side by side, without a tree walk, once per diagram: ``w`` caches it
    as ``w.milnor_number``, next to ``excess`` and ``orders``.  The tree
    is still checked, with the other axioms: a violation raises
    :class:`InvalidDiagramError`, read from the cached
    ``diagram.violations``, and a negative excess
    :class:`InconsistentDiagramError`, on every call: the Milnor number of
    an inconsistent diagram is undefined.
    """
    return w.milnor_number


def is_complete(w: WeightedDiagram) -> bool:
    """True when ``w`` is the full diagram of a resolved germ.

    Every non-final vertex has excess zero, and every final vertex is free
    of weight one (a *simple* point) and not proximate to another simple
    point.  A vertex's kind is read as its target count (none for the
    root, one for a free vertex), which holds on a valid diagram: an axiom
    violation raises :class:`InvalidDiagramError`, read from the cached
    ``diagram.violations``.
    """
    d = w.diagram
    require_valid(d)
    simple = {v for v in d.vertices if w.nu[v] == 1 and len(d.prox_targets[v]) == 1}
    return all(
        w.excess[v] == 0 if d.children[v] else v in simple and simple.isdisjoint(d.prox_targets[v])
        for v in d.vertices
    )


def is_minimal(w: WeightedDiagram) -> bool:
    """True for the distinguished representative of an equivalence class:
    ``w`` is consistent, every weight is at least 1, and every final free
    vertex weighs at least 2.

    Unless a satellite weighs 0, this is the rule of a positive root and
    of weight 2 or more on each free vertex that no satellite is proximate
    to: a leaf's excess is its weight, nothing is proximate to a final
    vertex, and by consistency the children of a free weight-1 vertex that
    no satellite is proximate to are such vertices too, down to a final one.
    An axiom violation raises :class:`InvalidDiagramError`, read from the
    cached ``diagram.violations``.
    """
    d = w.diagram
    require_valid(d)
    return (
        is_consistent(w)
        and min(w.weights) >= 1
        and all(
            x >= 2
            for v, x in zip(d.vertices, w.weights)
            if not d.children[v] and len(d.prox_targets[v]) == 1
        )
    )


# ---------------------------------------------------------------------------
# surgery: removal, leaves, minimalization
# ---------------------------------------------------------------------------

def remove_vertices(w: WeightedDiagram, drop: Iterable[int]) -> WeightedDiagram:
    """Drop a successor-closed set of vertices (no member may have a kept child).

    Only a valid diagram is pruned: an axiom violation raises
    :class:`InvalidDiagramError`, read from the cached
    ``diagram.violations``.  The maps are ``w.diagram``'s, copied, less
    the dropped vertices' keys; a kept parent's children are filtered
    once, whatever number of them goes (:func:`_derived`).  Every target
    is an ancestor of its source, so every kept vertex keeps its parent
    and its targets and only loses sources: the drop keeps every axiom
    and the result inherits the clean verdict."""
    d = w.diagram
    dropped = {d.require_vertex(v) for v in drop}
    if w.root in dropped:
        raise DiagramError("cannot remove the root")
    for v in dropped:
        for child in d.children[v]:
            if child not in dropped:
                raise DiagramError(f"vertex {v} still has successor {child}")
    require_valid(d)
    vertices = tuple(filterfalse(dropped.__contains__, d.vertices))
    weights = tuple(map(w.nu.__getitem__, vertices))
    parent = dict(d.parent)
    children = dict(d.children)
    targets = dict(d.prox_targets)
    for v in dropped:
        del children[v], targets[v], parent[v]
    for p in {d.parent[v] for v in dropped} - dropped:
        children[p] = tuple(filterfalse(dropped.__contains__, children[p]))
    return WeightedDiagram(_derived(d.root, vertices, parent, children, targets, True), weights)


def add_leaf(
    w: WeightedDiagram, at: int, weight: int, second: int | None = None
) -> WeightedDiagram:
    """Attach a new final vertex of the given weight below ``at``.

    The new vertex takes the next unused id and is proximate to ``at``
    and, when ``second`` is given and is not ``at``, to ``second`` as
    well, which makes it a satellite; otherwise it is free.  Both ids must
    be vertices here; the entry ``(at, second)`` goes to :func:`_grown`
    and the weight after the others.
    """
    d = w.diagram
    d.require_vertex(at)
    if second is not None:
        d.require_vertex(second)
    return WeightedDiagram(_grown(d, [(at, second)]), (*w.weights, weight))


def minimalize(w: WeightedDiagram) -> WeightedDiagram:
    """The unique minimal diagram equivalent to ``w``.

    Class moves remove final free vertices of weight zero or one until none
    is left; each removal can expose another.  One reverse-preorder pass
    finds that fixed point's whole removable set: a non-root free vertex of
    weight zero or one is removable exactly when all its children are,
    because a satellite proximate to ``v`` is a descendant of ``v`` and is
    never removable, so ``v`` becomes final exactly when every child is
    removed.  The set is dropped by one :func:`remove_vertices` (``w`` is
    returned when it is empty).  The Milnor number is preserved, and the
    result is minimal unless a satellite weighs 0.  An axiom violation
    raises :class:`InvalidDiagramError`, and a root of weight below one
    :class:`DiagramError`: no minimal diagram has one.
    """
    require_valid(w.diagram)
    if not is_consistent(w):
        raise InconsistentDiagramError("minimalize requires a consistent diagram")
    if w.nu[w.root] < 1:
        raise DiagramError("minimalize requires a root of positive weight")
    d = w.diagram
    removable: set[int] = set()
    for v in reversed(d.preorder[1:]):
        free_and_light = len(d.prox_targets[v]) == 1 and w.nu[v] in (0, 1)
        if free_and_light and removable.issuperset(d.children[v]):
            removable.add(v)
    return remove_vertices(w, removable) if removable else w


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonical_form(record: Sequence[tuple[int, int, int]]) -> tuple[str, list[list[int]]]:
    """Canonical key of a diagram record and every vertex's children in
    key order.

    ``record[i]`` is ``(parent, second, weight)`` for vertex ``i``: the
    index of its parent, below ``i`` (``-1`` for the root at index 0), the
    index of its second proximity target, one of the parent's own targets
    (``-1`` for none), and its weight.  Subtree codes are built bottom-up
    as in the Aho-Hopcroft-Ullman tree encoding: a vertex's weight, its
    letter (``r`` root, ``f`` free, ``a``/``b`` a satellite whose second
    target is the parent's first/second target) and its children's codes
    in sorted order, all in parentheses.  The key is the root's code;
    siblings with equal codes keep their index order.  This is the one
    routine that builds or compares subtree codes.
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
    the parent's own targets, so the key never mentions vertex ids.  Only
    a valid diagram has a key: an axiom violation raises
    :class:`InvalidDiagramError` listing every violation.
    """
    return w.key


def canonical_order(w: WeightedDiagram) -> tuple[int, ...]:
    """Vertices in canonical traversal order (root first, children by key,
    equal subtrees by vertex id), the keys of the cached ``w.canonical_ids``;
    an invalid diagram raises :class:`InvalidDiagramError` as for
    :func:`canonical_key`."""
    return tuple(w.canonical_ids)


def relabel(w: WeightedDiagram, mapping: Mapping[int, int]) -> WeightedDiagram:
    """Rename vertices through a bijection (used for normalisation and tests).

    A renaming keeps every axiom, so the result inherits ``w``'s verdict
    when ``w`` already holds a clean one (it is only peeked at, never
    computed here)."""
    d = w.diagram
    for v in d.vertices:
        if v not in mapping:
            raise DiagramError(f"relabelling does not map vertex {v!r}")
    if len({mapping[v] for v in d.vertices}) != len(d.vertices):
        raise DiagramError("relabelling must be a bijection on the vertex set")
    parent = {mapping[v]: mapping[p] for v, p in d.parent.items()}
    targets = {mapping[v]: [mapping[t] for t in ts] for v, ts in d.prox_targets.items()}
    nu = {mapping[v]: w.nu[v] for v in d.vertices}
    renamed = ProximityDiagram(mapping[d.root], parent, targets)
    if d.__dict__.get("violations") == ():
        renamed.__dict__["violations"] = ()
    return weighted_diagram(renamed, nu)


# ---------------------------------------------------------------------------
# types (equivalence classes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramType:
    """Equivalence class of weighted diagrams, held by its minimal member."""

    representative: WeightedDiagram = field(compare=False)
    key: str


def diagram_type(w: WeightedDiagram) -> DiagramType:
    """The type of ``w``: minimalize and take the canonical key."""
    minimal = minimalize(w)
    return DiagramType(representative=minimal, key=minimal.key)
