"""Domination of weighted diagrams and linear adjacency of their types.

A consistent diagram (D', nu') dominates (D, nu) when some
predecessor-closed piece of D embeds into D' preserving the root, parents
and the proximity pattern, such that transporting the weights of D' back
onto D through the embedding (zero off the embedded part) gives a system
of values at least that of nu at every vertex of D.  The embedding and
the transported weights form a :class:`GeqWitness`; both value systems
are functions of the lower diagram and those weights, so
:func:`check_geq_witness` derives them itself, without trusting the
search.

One singularity type is *linear adjacent* to another when some consistent
representative of the first class dominates the minimal diagram of the
second.  Class representatives differ from the minimal diagram by extra
free weight-1 vertices, of which an unbounded number could in principle be
needed; :func:`linear_adjacent` therefore searches up to an explicit
number of added vertices and reports an honest
"no witness within this bound" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagram import (
    DiagramType,
    InconsistentDiagramError,
    WeightedDiagram,
    _integer,
    add_leaf,
    is_consistent,
    require_valid,
    validate_axioms,
)

__all__ = [
    "SubdiagramEmbedding",
    "GeqWitness",
    "AdjacencyVerdict",
    "geq",
    "check_geq_witness",
    "class_representatives",
    "adjacency_verdict",
    "linear_adjacent",
]


@dataclass(frozen=True)
class SubdiagramEmbedding:
    """Isomorphism between predecessor-closed subdiagrams, as (lower, upper) pairs."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GeqWitness:
    """Certificate that the upper diagram dominates the lower one.

    ``kappa`` holds the transported weights on the lower diagram's
    vertices (upper weight at the image, zero off the embedded part), as
    (vertex, value) pairs sorted by vertex.  The value systems of the
    lower weights and of ``kappa`` are not stored: both are computed in
    the lower diagram by whoever reads them.
    """

    embedding: SubdiagramEmbedding
    kappa: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AdjacencyVerdict:
    """Outcome of a bounded linear-adjacency search.

    ``holds`` means certified: ``representative`` is a consistent member
    of the source class and ``witness`` proves it dominates the target's
    minimal diagram.  Otherwise no representative with at most
    ``extra_vertex_bound`` added free weight-1 vertices works; the
    relation might still hold beyond the bound.
    """

    holds: bool
    extra_vertex_bound: int
    representative: WeightedDiagram | None = None
    witness: GeqWitness | None = None


def geq(upper: WeightedDiagram, lower: WeightedDiagram) -> GeqWitness | None:
    """Search for a witness that ``upper`` dominates ``lower``.

    ``upper`` must be a valid consistent diagram; ``lower`` must be valid.
    Lower vertices are taken in ``lower.diagram.preorder``, each mapped
    to an unused child of its parent's image with the same kind (a
    satellite's second target must correspond) or excluded with its
    subtree.  A constraint at a vertex reads only its ancestors, so any
    root-first order gives the same verdict.

    Every target of ``v`` is an ancestor, so the sum ``S(v)`` of the
    targets' ``ord_kappa`` values is fixed once ``v``'s ancestors are
    decided: an image ``u`` keeps ``v``'s inequality exactly when
    ``upper.nu[u] >= ord_nu[v] - S(v)``, and exclusion exactly when
    ``ord_nu[v] <= S(v)``.  So each vertex's options are listed once, when
    the search reaches it, holding only those that keep the inequality;
    the choices left out are those a search trying every image would
    reject on the spot, and the witness is the same.  Images are tried by
    id before exclusion: the witness is the first in lower preorder with
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

    def options(v: int) -> list[tuple[int | None, int]]:
        """The choices for ``v`` that keep its inequality, given its
        ancestors' choices, each with its ``ord_kappa`` value: images by
        id, then exclusion, listed in reverse so the next to try is last."""
        v_targets = lo.prox_targets[v]
        fixed = 0
        for t in v_targets:
            fixed += ord_kappa[t]
        need = ord_nu[v] - fixed
        if v == lo.root:
            images: tuple[int, ...] = (up.root,)
        else:
            parent_image = image.get(lo.parent[v])
            images = () if parent_image is None else up.children[parent_image]
        out: list[tuple[int | None, int]] = []
        for u in images:
            u_targets = up.prox_targets[u]
            if u in used or upper.nu[u] < need or len(u_targets) != len(v_targets):
                continue
            # a satellite's image leans on the image of its second target
            if len(v_targets) < 2 or image.get(v_targets[1]) == u_targets[1]:
                out.append((u, upper.nu[u] + fixed))
        if need <= 0:
            out.append((None, fixed))
        out.reverse()
        return out

    # depth-first search with an explicit stack: the untried options of
    # each decided vertex of ``order``
    pending = [options(order[0])]
    while pending:
        v = order[len(pending) - 1]
        used.discard(image.pop(v, None))  # undo v's earlier image, if any
        untried = pending[-1]
        if not untried:
            pending.pop()
            continue
        choice, ord_kappa[v] = untried.pop()
        if choice is not None:
            image[v] = choice
            used.add(choice)
        if len(pending) == len(order):
            return GeqWitness(
                embedding=SubdiagramEmbedding(pairs=tuple(sorted(image.items()))),
                kappa=tuple([(v, upper.nu[image[v]] if v in image else 0) for v in lo.vertices]),
            )
        pending.append(options(order[len(pending)]))
    return None


def check_geq_witness(
    upper: WeightedDiagram, lower: WeightedDiagram, witness: GeqWitness
) -> bool:
    """Check a witness's embedding and transported weights, then the
    domination inequality; True only if all of it holds.

    Checks are independent of the search: diagram validity, injectivity
    and predecessor-closedness of the embedding, preservation of root,
    parent, kind and satellite targets, the transported weights, and the
    inequality ord_nu <= ord_kappa at every vertex of ``lower``.  The
    upper excesses and both value systems are derived here from the
    weights and the maps that :func:`~enriques.diagram.validate_axioms`
    has just checked (each diagram's parent and proximity targets, which
    it holds from the start), never read from the diagrams' cached facts
    that the search fills.  Any defect, including a tampered or malformed
    array, returns False.
    """
    if validate_axioms(upper.diagram) or validate_axioms(lower.diagram):
        return False
    lo = lower.diagram
    up = upper.diagram
    upper_nu = dict(zip(up.vertices, upper.weights))
    upper_excess = dict(upper_nu)
    for source, targets in up.prox_targets.items():
        for target in targets:
            upper_excess[target] -= upper_nu[source]
    if min(upper_excess.values()) < 0:
        return False
    image, kappa = _int_pairs(witness.embedding.pairs), _int_pairs(witness.kappa)
    if image is None or kappa is None:
        return False
    if len(set(image.values())) != len(image):
        return False
    lower_vertices = set(lo.vertices)
    if not set(image).issubset(lower_vertices):
        return False
    if not set(image.values()).issubset(set(up.vertices)):
        return False
    for v, u in image.items():
        if v == lo.root:
            if u != up.root:
                return False
            continue
        parent = lo.parent[v]
        if parent not in image:
            return False
        if up.parent.get(u) != image[parent]:
            return False
        v_targets = lo.prox_targets[v]
        u_targets = up.prox_targets[u]
        if len(v_targets) != len(u_targets):
            return False
        if len(v_targets) == 2 and image.get(v_targets[1]) != u_targets[1]:
            return False

    if set(kappa) != lower_vertices:
        return False
    for v in lo.vertices:
        expected = upper_nu[image[v]] if v in image else 0
        if kappa[v] != expected:
            return False

    # every target of a vertex is an ancestor, so a walk from the root over
    # the checked parent map orders the values; the cached preorder is not read
    below: dict[int, list[int]] = {}
    for v, p in lo.parent.items():
        below.setdefault(p, []).append(v)
    order = [lo.root]
    for v in order:
        order.extend(below.get(v, ()))
    if len(order) != len(lo.vertices):
        return False
    lower_nu = dict(zip(lo.vertices, lower.weights))
    ord_nu: dict[int, int] = {}
    ord_kappa: dict[int, int] = {}
    for v in order:
        ord_nu[v] = lower_nu[v] + sum(ord_nu[t] for t in lo.prox_targets[v])
        ord_kappa[v] = kappa[v] + sum(ord_kappa[t] for t in lo.prox_targets[v])
    return all(ord_nu[v] <= ord_kappa[v] for v in order)


def _int_pairs(array: object) -> dict[int, int] | None:
    """``array`` as a dict when it is a tuple of ``(int, int)`` tuples whose
    first entries are distinct (bools are not ints here); None otherwise."""
    if type(array) is not tuple:
        return None
    for pair in array:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        if type(pair[0]) is not int or type(pair[1]) is not int:
            return None
    out = dict(array)
    return out if len(out) == len(array) else None


def class_representatives(
    source: DiagramType, extra_vertices: int
) -> Iterator[WeightedDiagram]:
    """Consistent members of the class, by number of added free weight-1 vertices.

    Level zero is the minimal diagram itself; each further level attaches
    one more pendant free weight-1 vertex at any vertex whose excess
    allows it (keeping the diagram consistent), deduplicated by canonical
    key.  Within a level the order follows the canonical keys, so the
    stream is deterministic.  A negative or non-``int`` ``extra_vertices``
    raises ``ValueError`` when the stream is first read.
    """
    if _integer(extra_vertices, "extra_vertices", ValueError) < 0:
        raise ValueError(f"extra_vertices must be nonnegative, got {extra_vertices}")
    level = {source.representative.key: source.representative}
    yield source.representative
    for _ in range(extra_vertices):
        next_level: dict[str, WeightedDiagram] = {}
        for key in sorted(level):
            current = level[key]
            for at in current.diagram.vertices:
                if current.excess[at] < 1:
                    continue
                grown = add_leaf(current, at, 1)
                grown_key = grown.key
                if grown_key not in next_level:
                    next_level[grown_key] = grown
        level = next_level
        for key in sorted(level):
            yield level[key]


def linear_adjacent(
    source: DiagramType, target: DiagramType, extra_bound: int | None = None
) -> AdjacencyVerdict:
    """Decide, up to a representative-size bound, whether ``source`` is
    linear adjacent to ``target``.

    Tries every consistent representative of the source class with up to
    ``extra_bound`` added free weight-1 vertices (default: the number of
    vertices of the target's minimal diagram) against the target's minimal
    diagram, in key order, and returns the first :func:`geq` witness.
    A negative verdict is only conclusive up to the bound.
    """
    if extra_bound is None:
        extra_bound = len(target.representative)
    _integer(extra_bound, "extra_bound", ValueError)
    if extra_bound < 0:
        raise ValueError(f"extra_bound must be nonnegative, got {extra_bound}")
    return adjacency_verdict(
        class_representatives(source, extra_bound), target.representative, extra_bound
    )


def adjacency_verdict(
    representatives: Iterable[WeightedDiagram], lower: WeightedDiagram, extra_bound: int
) -> AdjacencyVerdict:
    """Verdict from the first of ``representatives`` (consistent members of
    one class with at most ``extra_bound`` added vertices, drawn lazily)
    that dominates ``lower``; negative up to the bound when none does."""
    for representative in representatives:
        witness = geq(representative, lower)
        if witness is not None:
            return AdjacencyVerdict(
                holds=True,
                extra_vertex_bound=extra_bound,
                representative=representative,
                witness=witness,
            )
    return AdjacencyVerdict(holds=False, extra_vertex_bound=extra_bound)
