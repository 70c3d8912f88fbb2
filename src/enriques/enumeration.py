"""Bounded enumeration of minimal consistent weighted diagrams.

Diagrams are generated up to isomorphism by growing one final vertex at a
time.  Every consistent diagram can be reached this way: removing a final
vertex keeps a diagram consistent, so running the construction backwards
from any target always stays inside the search space.  Intermediate
diagrams need not be minimal (the minimal cusp diagram, for instance, is
only reachable through a non-minimal two-vertex chain), so the walk covers
all consistent diagrams within the bounds and yields the minimal ones.

Internally a diagram is a tuple of ``(parent, second_target, weight)``
triples indexed by vertex, root at index 0, with ``-1`` marking absent
entries: the record form read by :func:`enriques.diagram.canonical_form`,
which folds isomorphic duplicates here and computes every canonical key.
Yielded diagrams that differ only in weights share one
:class:`~enriques.diagram.ProximityDiagram` per enumeration call, built
once per record shape (its ``(parent, second_target)`` pairs), so the
proximity structure's cached facts, axiom violations included, are
computed once per shape rather than once per diagram.
"""

from __future__ import annotations

import os
from typing import Iterator

from .diagram import (
    DiagramError,
    ProximityDiagram,
    WeightedDiagram,
    canonical_form,
    proximity_diagram,
    weighted_diagram,
)

__all__ = ["EnumerationLimitError", "enumerate_minimal_diagrams", "DEFAULT_MAX_CANDIDATES"]

DEFAULT_MAX_CANDIDATES = 1_000_000
_ENV_CAP = "ENRIQUES_MAX_CANDIDATES"

# vertex record: (parent index, second proximity target index, weight)
_Rec = tuple[int, int, int]


class EnumerationLimitError(DiagramError):
    """The candidate cap was reached before the bounds were exhausted."""


def _excess(rec: tuple[_Rec, ...]) -> list[int]:
    out = [entry[2] for entry in rec]
    for parent, second, weight in rec[1:]:
        out[parent] -= weight
        if second >= 0:
            out[second] -= weight
    return out


def _is_minimal_rec(rec: tuple[_Rec, ...]) -> bool:
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


def _to_weighted(
    rec: tuple[_Rec, ...], shapes: dict[tuple[tuple[int, int], ...], ProximityDiagram]
) -> WeightedDiagram:
    """The record as a weighted diagram whose proximity structure is the one
    ``shapes`` holds for the record's ``(parent, second)`` pairs."""
    shape = tuple((parent, second) for parent, second, _ in rec)
    diagram = shapes.get(shape)
    if diagram is None:
        parent = {i: shape[i][0] for i in range(1, len(shape))}
        prox = []
        for i in range(1, len(shape)):
            prox.append((i, shape[i][0]))
            if shape[i][1] >= 0:
                prox.append((i, shape[i][1]))
        diagram = shapes[shape] = proximity_diagram(0, parent, prox)
    return weighted_diagram(diagram, {i: rec[i][2] for i in range(len(rec))})


def enumerate_minimal_diagrams(
    max_vertices: int,
    max_weight: int,
    *,
    max_candidates: int | None = None,
) -> Iterator[WeightedDiagram]:
    """Yield every minimal diagram within the bounds, once per isomorphism class.

    Covers all minimal consistent weighted diagrams with at most
    ``max_vertices`` vertices and every weight in ``[1, max_weight]``.
    Diagrams are yielded by increasing vertex count and, within one count,
    by canonical key, so the order is deterministic.  Vertex ids of yielded
    diagrams are dense with root 0.

    ``max_candidates`` caps the number of distinct diagrams (minimal or
    not) the walk may hold; when omitted, the ``ENRIQUES_MAX_CANDIDATES``
    environment variable applies, then a built-in default.  Exceeding the
    cap raises :class:`EnumerationLimitError`.
    """
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be positive, got {max_vertices}")
    if max_weight < 1:
        raise ValueError(f"max_weight must be positive, got {max_weight}")
    if max_candidates is None:
        max_candidates = int(os.environ.get(_ENV_CAP, DEFAULT_MAX_CANDIDATES))
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be positive, got {max_candidates}")

    level: dict[str, tuple[_Rec, ...]] = {}
    for weight in range(1, max_weight + 1):
        rec: tuple[_Rec, ...] = (((-1, -1, weight)),)
        level[canonical_form(rec)[0]] = rec
    seen = len(level)
    if seen > max_candidates:
        raise EnumerationLimitError(
            f"enumeration exceeded the cap of {max_candidates} candidate diagrams"
        )

    # weighted diagrams of one shape share its cached proximity facts
    shapes: dict[tuple[tuple[int, int], ...], ProximityDiagram] = {}
    for key in sorted(level):
        yield _to_weighted(level[key], shapes)

    for _ in range(max_vertices - 1):
        next_level: dict[str, tuple[_Rec, ...]] = {}
        for rec in level.values():
            excess = _excess(rec)
            satellite_pairs = {(p, s) for p, s, _ in rec if s >= 0}
            for parent in range(len(rec)):
                targets = [rec[parent][0], rec[parent][1]]
                seconds = [-1] + [t for t in targets if t >= 0]
                for second in seconds:
                    if (parent, second) in satellite_pairs:
                        continue  # a vertex proximate to both already exists
                    cap = excess[parent]
                    if second >= 0:
                        cap = min(cap, excess[second])
                    for weight in range(1, min(max_weight, cap) + 1):
                        child = rec + ((parent, second, weight),)
                        key = canonical_form(child)[0]
                        if key not in next_level:
                            next_level[key] = child
                            seen += 1
                            if seen > max_candidates:
                                raise EnumerationLimitError(
                                    "enumeration exceeded the cap of "
                                    f"{max_candidates} candidate diagrams"
                                )
        level = next_level
        for key in sorted(level):
            if _is_minimal_rec(level[key]):
                yield _to_weighted(level[key], shapes)
