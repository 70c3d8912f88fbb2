"""Bounded enumeration of minimal consistent weighted diagrams.

The enumeration first generates the *shapes* within the bounds, then the
minimal weightings of each shape: the "structure first, then its
colourings" split of orderly generation (R. C. Read, "Every one a
winner", *Ann. Discrete Math.* 2, 1978).

A shape is a diagram record whose weights are all 0: a tuple of
``(parent, second_target, 0)`` triples indexed by vertex, root at index
0, with ``-1`` marking absent entries, the record form read by
:func:`enriques.diagram.canonical_form`.  Shapes grow one final vertex at
a time and are folded up to isomorphism by that canonical form.  A shape
is *live* if it has a minimal weighting in ``[1, max_weight]``, and only
live shapes are kept.

*Least-weight lemma.*  A shape's least minimal weighting gives a final
vertex ``c`` = 2 if it is a free non-root vertex and ``c`` = 1 if it is a
satellite or the lone root, and every other vertex the sum of its
proximity sources' weights (the bound of 2 on a free vertex adds nothing
once it has a child: a free child already weighs 2, and a satellite
child is proximate to it, which lifts the bound).  Every vertex weighs at
most its parent, so the root weight is the largest, and unrolling the
sums gives the least minimal root weight ``m = sum over final f of
paths[f] * c[f]``, with ``paths[v] = paths[parent] + paths[second]`` and
``paths`` of the root 1.  A new final vertex ``x`` adds ``paths[x] *
c[x]`` to ``m`` and, when its parent ``p`` had no child, takes away
``paths[p] * c[p]``, so each placement is checked in constant time.

*Reachability.*  ``m`` never decreases when a vertex ``x`` is placed under
``p`` with second target ``s``.  If ``p`` already has a child, ``m`` grows
by ``paths[x] * c[x]``; otherwise it changes by ``paths[x] * c[x] -
paths[p] * c[p]``.  When ``p`` is a satellite or the root, ``c[p]`` is 1
and ``paths[x] >= paths[p]``.  When ``p`` is free, its only proximity
target is its parent, so ``s`` is absent or that parent, and ``paths[s]
= paths[p]``: a free ``x`` and a satellite ``x`` both add ``2 *
paths[p]``, which is what ``p`` took.  So a shape without a minimal
weighting within the bound has no descendant with one, and dropping the
last vertex of a live shape leaves a live shape: the live shapes are
reached through live shapes alone.  The two-vertex chain, for one, is
live at weight 2 with the weighting ``(2r(2f))``, the minimal diagram of
``x^2 + y^4``.

The weights of a shape are chosen in index order, so every target comes
before its sources.  A vertex weighs at least the sum of its sources'
least weights, and at least 2 when it is a free non-root vertex that no
satellite is proximate to; these least weights are the least minimal
weighting.  A vertex weighs at most ``max_weight`` and at most what each
target can spare once the target's unweighted sources take their least
weights.  Every range is therefore non-empty and every completed
weighting is minimal and consistent.  The weightings are keyed and
deduplicated per vertex count by :func:`_minimal_records`, which keeps each
one as a :class:`_Record` (key, shape and weights) that
:func:`~enriques.jump.verify_maximality` reads without building a diagram.
:func:`_diagrams` builds one diagram per record, its canonical key seeded
from the record, and the diagrams of one shape share one
:class:`~enriques.diagram.ProximityDiagram`, so its cached facts, axiom
violations included, are computed once per shape.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .diagram import (
    DiagramError,
    ProximityDiagram,
    WeightedDiagram,
    canonical_form,
    keyed_diagram,
    proximity_diagram,
)

__all__ = ["EnumerationLimitError", "enumerate_minimal_diagrams", "DEFAULT_MAX_CANDIDATES"]

DEFAULT_MAX_CANDIDATES = 1_000_000

# vertex record: (parent index, second proximity target index, weight)
_Rec = tuple[int, int, int]


class _Record(NamedTuple):
    """A minimal diagram found by the enumeration: vertex ``i`` has parent
    ``shape[i][0]``, second proximity target ``shape[i][1]`` and weight
    ``weights[i]``."""

    key: str
    shape: tuple[_Rec, ...]
    weights: tuple[int, ...]

    @property
    def milnor_number(self) -> int:
        """``sum nu*(nu-1) + 1 - root weight + satellite weights``, which is
        :func:`~enriques.diagram.milnor_number` for a consistent weighting
        (the derivation is in :func:`~enriques.jump.verify_maximality`)."""
        weights = self.weights
        satellites = sum([x for (_, second, _), x in zip(self.shape, weights) if second >= 0])
        return sum([x * (x - 1) for x in weights]) + 1 - weights[0] + satellites


class EnumerationLimitError(DiagramError):
    """The candidate cap was reached before the bounds were exhausted."""


def _admit(seen: int, max_candidates: int) -> int:
    if seen >= max_candidates:
        raise EnumerationLimitError(f"enumeration exceeded the cap of {max_candidates} candidates")
    return seen + 1


def _extensions(shape: tuple[_Rec, ...], max_weight: int) -> Iterator[tuple[_Rec, ...]]:
    """Every shape one final vertex larger whose least minimal root weight is
    within bounds."""
    paths = [1] * len(shape) + [0]  # paths[-1] is 0: "no second target" adds nothing
    final_weight = [1] + [2 if second < 0 else 1 for _, second, _ in shape[1:]]
    has_child = [False] * len(shape)
    for i in range(1, len(shape)):
        parent, second, _ = shape[i]
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


def _weightings(shape: tuple[_Rec, ...], max_weight: int) -> Iterator[list[int]]:
    """Every minimal consistent weighting of ``shape`` with weights at most
    ``max_weight``, by an iterative search over the vertices in index order
    (the yielded list is reused)."""
    n = len(shape)
    targets = [[t for t in entry[:2] if t >= 0] for entry in shape]
    propped = {t for p, s, _ in shape if s >= 0 for t in (p, s)}  # a satellite is proximate
    owed = [0] * n  # the sources' least weights
    least = [0] * n
    for v in range(n - 1, -1, -1):
        least[v] = max(owed[v], 2 if len(targets[v]) == 1 and v not in propped else 1)
        if least[v] > max_weight:
            return  # the root would weigh at least as much
        for t in targets[v]:
            owed[t] += least[v]
    # weights[u] is least[u] for every u after v; slack[t] is what a weighted
    # t can still spare once its sources not yet weighted take their least
    weights, slack = least[:], [0] * n
    v = 0
    while v >= 0:
        slack[v] = weights[v] - owed[v]
        if v < n - 1:
            v += 1
            continue
        yield weights
        # back up to the last vertex that can still rise, resetting the rest
        while v >= 0 and (weights[v] == max_weight or 0 in [slack[t] for t in targets[v]]):
            for t in targets[v]:
                slack[t] += weights[v] - least[v]
            weights[v] = least[v]
            v -= 1
        if v >= 0:
            weights[v] += 1
            for t in targets[v]:
                slack[t] -= 1


def _minimal_records(
    max_vertices: int, max_weight: int, max_candidates: int
) -> Iterator[list[_Record]]:
    """For each vertex count from 1 to ``max_vertices``, every minimal diagram
    of that count within the bounds, once per isomorphism class, as records
    sorted by canonical key.  Arguments and the candidate cap are as for
    :func:`enumerate_minimal_diagrams`.
    """
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be positive, got {max_vertices}")
    if max_weight < 1:
        raise ValueError(f"max_weight must be positive, got {max_weight}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be positive, got {max_candidates}")

    level: list[tuple[_Rec, ...]] = [((-1, -1, 0),)]
    seen = _admit(0, max_candidates)
    for size in range(1, max_vertices + 1):
        found: dict[str, _Record] = {}
        for shape in level:
            for weights in _weightings(shape, max_weight):
                key = canonical_form([(p, s, x) for (p, s, _), x in zip(shape, weights)])[0]
                if key not in found:
                    seen = _admit(seen, max_candidates)
                    found[key] = _Record(key, shape, tuple(weights))
        yield sorted(found.values())
        if size == max_vertices:
            return
        shapes: dict[str, tuple[_Rec, ...]] = {}
        for shape in level:
            for child in _extensions(shape, max_weight):
                key = canonical_form(child)[0]
                if key not in shapes:
                    seen = _admit(seen, max_candidates)
                    shapes[key] = child
        level = list(shapes.values())


def _diagrams(records: Iterable[_Record]) -> Iterator[WeightedDiagram]:
    """Each record's diagram, with vertex ids its indices and its canonical
    key seeded from the record; diagrams of one shape share one
    :class:`ProximityDiagram`."""
    structures: dict[tuple[_Rec, ...], ProximityDiagram] = {}
    for key, shape, weights in records:
        diagram = structures.get(shape)
        if diagram is None:
            parent = {i: shape[i][0] for i in range(1, len(shape))}
            prox = [(i, t) for i in range(1, len(shape)) for t in shape[i][:2] if t >= 0]
            diagram = structures[shape] = proximity_diagram(0, parent, prox)
        yield keyed_diagram(diagram, weights, key)


def enumerate_minimal_diagrams(
    max_vertices: int,
    max_weight: int,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Iterator[WeightedDiagram]:
    """Yield every minimal diagram within the bounds, once per isomorphism class.

    Covers all minimal consistent weighted diagrams with at most
    ``max_vertices`` vertices and every weight in ``[1, max_weight]``.
    Diagrams are yielded by increasing vertex count and, within one count,
    by canonical key, so the order is deterministic.  Vertex ids of yielded
    diagrams are dense with root 0.

    ``max_candidates`` caps the number of distinct live shapes plus distinct
    minimal diagrams the enumeration may hold; exceeding the cap raises
    :class:`EnumerationLimitError`.
    """
    for level in _minimal_records(max_vertices, max_weight, max_candidates):
        yield from _diagrams(level)
