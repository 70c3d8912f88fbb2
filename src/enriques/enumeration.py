"""Bounded enumeration of minimal consistent weighted diagrams.

The enumeration first generates the *shapes* within the bounds, then the
minimal weightings of each shape: the "structure first, then its
colourings" split of orderly generation (R. C. Read, "Every one a
winner", *Ann. Discrete Math.* 2, 1978).

A shape is a diagram record whose weights are all 0: a tuple of
``(parent, second_target, 0)`` triples indexed by vertex, root at index
0, with ``-1`` marking absent entries, the record form read by
:func:`enriques.diagram.canonical_form`.  Shapes grow one final vertex at
a time, and orderly generation (below) makes each isomorphism class once.
A shape is *live* if it has a minimal weighting in ``[1, max_weight]``,
and only live shapes are kept.

*Least-weight lemma.*  A shape's least minimal weighting gives a final
vertex ``c`` = 2 if it is a free non-root vertex and ``c`` = 1 if it is a
satellite or the lone root, and every other vertex the sum of its
proximity sources' weights, at least 1 as a child is a source (this is
:func:`~enriques.diagram.is_minimal`'s rule: every weight at least 1 and
every final free vertex at least 2).  Every vertex weighs at most its
parent, so the root weight is the largest, and unrolling the sums gives
the least minimal root weight ``m = sum over final f of paths[f] *
c[f]``, with ``paths[v] = paths[parent] + paths[second]`` and
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

*Orderly generation.*  A shape lists its vertices in canonical preorder:
the root, then each child's subtree in turn, children in the key order of
:func:`~enriques.diagram.canonical_form`.  A vertex's *token* is ``3 *
depth + letter``, with letters f 0, b 1 and a 2.  Two sibling subtrees'
codes compare as their token runs in preorder compare, the other way
round: at the first difference, the deeper vertex, or at one depth the
letter first in ``a < b < f``, opens the smaller code, and a run that is
a prefix of the other gives the larger code.  So a record is in
canonical preorder exactly when, at every vertex, the token runs of
consecutive children do not increase.  These are the canonical level
sequences of T. Beyer and S. M. Hedetniemi, "Constant time generation of
rooted trees", *SIAM J. Comput.* 9 (1980), with a letter at each level.
A vertex appended in preorder is a child of a vertex on the *rightmost
path*, from the root to the last vertex.  Dropping the last vertex of a
canonical shape leaves a canonical shape, since each run it shortens
keeps a prefix (the prefix property), and it leaves a live shape of a
live one, by the reachability lemma, since that vertex is final.  So, as
in S. Nakano and T. Uno's generation of rooted trees (WG 2003), each live
shape is made exactly once, from the one shape without its last vertex,
with no key and no dictionary.

:func:`_live_children` checks a new vertex ``x`` under ``p`` in
``O(depth)``.  Its liveness is the constant-time check above, on the
least minimal root weight that each shape carries.  Siblings
are sorted by their first tokens, so a satellite ``x`` with the letter of
``p``'s last child would repeat a second target: at most one ``a`` and
one ``b`` child per vertex, as axiom 5 asks.  For canonicity, ``x``
extends the runs of ``p`` and of its non-root ancestors and starts its
own, compared from the first token of ``p``'s last child.  Each non-root
vertex of the rightmost path keeps one pointer: while its run equals a
prefix of its previous sibling's, the index of the sibling's next token,
which ``x``'s token must not exceed; 0 once the run is already smaller,
or when it has no previous sibling.  A smaller token sets the pointer to
0 and an equal one moves it on.  A pointer that reaches its own vertex
``d`` makes a new twin pair ``(c, d)``, whose runs are the index ranges
``[c, d)`` and ``[d, 2d - c)``.  No vertex can join ``d``'s subtree after
that, as a deeper token exceeds ``d``'s own, so a twin pair never
changes.

The weights of a shape are chosen in index order, so every target comes
before its sources.  A vertex weighs at least its least weight of the
lemma, its ``c`` when it is final and else the sum of its sources' least
weights.  A vertex weighs at most ``max_weight`` and at most what each
target can spare once the target's unweighted sources take their least
weights.  Every range is therefore non-empty and every completed
weighting is minimal and consistent.  Each shape's targets are set up
once, as a tuple per vertex: ``(parent,)`` for a free vertex and
``(parent, second)`` for a satellite.  So the search backs up past a
vertex by reading the slack of its one or two targets in place, and each
step of the walk does constant work per vertex it passes, with no list
built.  The root is held at ``max_weight`` while the other
vertices are weighted, so each weighting of theirs is visited once: the
root's range, from the sum of its sources' weights (1 for a lone root)
to ``max_weight``, is read off its slack at the end.  The Milnor number
``1 + sum nu*(nu - 2 + |targets|)`` of
:func:`~enriques.diagram.milnor_number` is carried along the walk
without the root's term, one term per weighted vertex, so each root
weight ``r`` only adds ``r*(r - 2)``.

*Orbit lemma.*  The shapes of one vertex count are pairwise
non-isomorphic, so two weightings give isomorphic diagrams exactly when
they weight one shape and an automorphism of the shape carries one onto
the other.  Those automorphisms are generated by the swaps of two sibling
subtrees with equal codes: a swap keeps every parent, and it keeps every
second target, because a code records a satellite's second target by its
place among its parent's targets.  In a shape's canonical preorder,
equal-code siblings are adjacent, their subtrees are adjacent runs of
one length, and a swap matches the two runs place by place.  In each
orbit exactly one weighting has non-decreasing weight runs on every two
consecutive equal-code siblings, and it is the orbit's lexicographically
least weight sequence in this order.  If two such runs decreased,
swapping them would give a smaller sequence in the orbit; conversely, by
induction on the subtree, every subtree's run of such a weighting is the
least of its orbit, and the runs of each group of equal-code siblings,
each least, are sorted, which is the least arrangement.  This is the
orderly test of Read and of B. D. McKay, "Isomorph-free exhaustive
generation", *J. Algorithms* 26 (1998), applied to weightings.  Each
live shape's pairs of runs are its twin pairs, found as the shape is
made and read as two slices of the weight list; a shape without twins
has the identity as its only automorphism and takes no test.
The test makes one comparison of two runs per pair, at most ``n - 1``
of them, and never lists the group, whose order grows factorially with
equal siblings.  A weight is read at most twice per group of equal-code
siblings around it, and a run that holds an inner group is more than
twice as long as the inner runs, so a test reads at most ``2n`` weights
on a shape without nested groups and ``O(n log n)`` at worst.

The root never lies in a twin's run, so the test runs once per weighting
of the other vertices and holds for every root weight.

So :func:`_minimal_families` keeps each minimal diagram once with no key
at all, as the :class:`_Family` of its shape's weightings.  The diagrams
of one family share its :attr:`_Family.structure`, one
:class:`~enriques.diagram.ProximityDiagram` built on first use, so its
cached facts, axiom violations included, are computed once per shape.
:func:`~enriques.jump.verify_maximality` reads each family as it is
yielded and builds a diagram only for a candidate it searches, keeping
none once searched.  It passes its root bound, and the weightings with a
heavier root become no tuples: each weighting of the other vertices
leaves only its least heavy root weight and its Milnor number less the
root's term, from which the heavy candidates are counted.
:func:`enumerate_minimal_diagrams` keys every diagram it yields, for its
order, and seeds the diagram with that key.  The families come in one
stream in vertex-count order, and each says whether it is the last of
its count, so a count is sorted and yielded before the next count's
shapes are counted against the cap.  A family is admitted to the cap in
one step, before it is yielded, so the cap stops the stream after the
same families as one admission per weighting would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterator

from .diagram import (
    _ROOT,
    DiagramError,
    ProximityDiagram,
    WeightedDiagram,
    _grown,
    _integer,
    canonical_form,
    keyed_diagram,
)

__all__ = ["EnumerationLimitError", "enumerate_minimal_diagrams", "DEFAULT_MAX_CANDIDATES"]

DEFAULT_MAX_CANDIDATES = 1_000_000

# vertex record: (parent index, second proximity target index, weight)
_Rec = tuple[int, int, int]
# the weight runs of two consecutive equal-code sibling subtrees
_Pair = tuple[itemgetter, itemgetter]
# a canonical shape, the pointers of its rightmost path, its orbit pairs and
# its least minimal root weight
_Entry = tuple[tuple[_Rec, ...], tuple[int, ...], tuple[_Pair, ...], int]


@dataclass
class _Family:
    """The minimal weightings of one live shape, one per isomorphism class,
    and whether the shape is the last live one of its vertex count.

    ``weightings`` holds those with root weight at most the enumeration's
    root bound and ``mus`` their Milnor numbers, in the coefficient form
    that :func:`~enriques.diagram.milnor_number` states and proves, ``1 +
    sum nu*(nu - 2 + |targets|)``.  The heavier ones are only summed up in
    ``heavy``: for each non-root weighting that takes such a root, its
    least root weight above the bound and its Milnor number without the
    root's term ``r*(r - 2)``; every root weight from there to
    ``max_weight`` completes it."""

    shape: tuple[_Rec, ...]
    weightings: list[tuple[int, ...]]
    mus: list[int]
    heavy: list[tuple[int, int]]
    last: bool

    @cached_property
    def structure(self) -> ProximityDiagram:
        """The shape as a diagram with vertex ids its indices, shared by every
        weighting's diagram: :func:`~enriques.diagram._grown` grows the lone
        root by each later vertex's ``(parent, second)``, None for ``-1``."""
        return _grown(_ROOT, [(p, None if s < 0 else s) for p, s, _ in self.shape[1:]])

    def key(self, weights: tuple[int, ...]) -> str:
        """The canonical key of one weighting of the shape."""
        return canonical_form([(p, s, x) for (p, s, _), x in zip(self.shape, weights)])[0]


class EnumerationLimitError(DiagramError):
    """The candidate cap was reached before the bounds were exhausted."""


def _admit(seen: int, max_candidates: int) -> int:
    """``seen``, the number of candidates held after an admission, when it
    is within the cap; :class:`EnumerationLimitError` otherwise."""
    if seen > max_candidates:
        raise EnumerationLimitError(f"enumeration exceeded the cap of {max_candidates} candidates")
    return seen


def _live_children(entry: _Entry, max_weight: int) -> Iterator[_Entry]:
    """Every canonical shape one final vertex larger than the canonical one
    of ``entry`` whose least minimal root weight is within bounds, each
    with its pointers, orbit pairs and least minimal root weight, by the
    orderly generation in the module docstring.  An entry's pointers are
    one per non-root vertex of its rightmost path, root side first."""
    shape, pointers, pairs, least_root = entry
    n = len(shape)
    paths = [1] * n + [0]  # paths[-1] is 0: "no second target" adds nothing
    tokens = [0] * n
    for i, (parent, second, _) in enumerate(shape[1:], 1):
        paths[i] = paths[parent] + paths[second]
        # a token is 3 * depth plus the letter (see the module docstring)
        letter = 0 if second < 0 else 2 if second == shape[parent][0] else 1
        tokens[i] = tokens[parent] // 3 * 3 + 3 + letter
    rightmost = [n - 1]
    while rightmost[0]:
        rightmost.insert(0, shape[rightmost[0]][0])
    runs = list(zip(rightmost[1:], pointers))
    for j, (parent, sibling) in enumerate(zip(rightmost, rightmost[1:] + [0])):
        # the last vertex is the one final vertex of the rightmost path, and
        # stops being final: a free one weighs 2 and a satellite or the root 1
        rest = least_root
        if not sibling:
            rest -= paths[parent] * (2 if parent and shape[parent][1] < 0 else 1)
        # letters f 0, a 2 and b 1: no second target, the parent's parent and
        # the parent's second target; a root has neither and a free vertex
        # no second target
        for letter, second in (0, -1), (2, shape[parent][0]), (1, shape[parent][1]):
            if second < 0 < letter:
                break
            # a free final vertex weighs 2 and a satellite one 1
            grown = 2 * paths[parent] if second < 0 else paths[parent] + paths[second]
            token = tokens[parent] // 3 * 3 + 3 + letter
            # the new vertex follows its sibling, the parent's last child: two
            # satellite children with one second target break axiom 5
            if rest + grown > max_weight or sibling and letter and token == tokens[sibling]:
                continue
            # the runs the new vertex extends: the parent's and its non-root
            # ancestors', then its own, compared from its sibling's first token
            new_pointers, new_pairs = [], pairs
            for v, at in (*runs[:j], (n, sibling)):
                if at:
                    if token > tokens[at]:
                        break
                    at = at + 1 if token == tokens[at] else 0
                    if at == v:
                        # v's run now equals its sibling's: a new twin pair
                        c = 2 * v - n - 1
                        new_pairs += ((itemgetter(slice(c, v)), itemgetter(slice(v, n + 1))),)
                new_pointers.append(at)
            else:  # no run grew past its sibling's
                yield shape + ((parent, second, 0),), tuple(new_pointers), new_pairs, rest + grown


def _weightings(shape: tuple[_Rec, ...], max_weight: int) -> Iterator[tuple[list[int], int, int]]:
    """Every minimal consistent weighting of the non-root vertices of
    ``shape`` with weights at most ``max_weight``, by an iterative search
    over them in index order with the root held at ``max_weight``.  Each
    comes with its Milnor number without the root's term and the root's
    least weight, the sum of its sources' weights (1 for a lone root): the
    root may weigh anything from there to ``max_weight``.  The yielded list
    is reused and the search never reads its root entry, which the caller
    may set.  ``shape`` must be live: the lone root, or a shape
    :func:`_live_children` yields for ``max_weight``, so that no least weight,
    the root's being the largest, exceeds ``max_weight``."""
    n = len(shape)
    # none for the root, (parent,) for a free vertex, (parent, second) for a
    # satellite
    targets = [()] + [(p,) if s < 0 else (p, s) for p, s, _ in shape[1:]]
    # a free vertex's term is x*(x - 1) and a satellite's x*x; the root's
    # term is left out
    coefficients = [0] + [2 - len(tv) for tv in targets[1:]]
    owed, least = [0] * n, [0] * n  # owed: the sources' least weights
    for v in range(n - 1, 0, -1):
        # a child is a source, so only a final vertex owes nothing: a free
        # one weighs 2 and a satellite 1; the root's least is never read
        least[v] = owed[v] or 3 - len(targets[v])
        for t in targets[v]:
            owed[t] += least[v]
    # weights[u] is least[u] for every u after v; slack[t] is what a weighted
    # t can still spare once its sources not yet weighted take their least
    # (a non-root entry is set before it is read); mu[u] is 1 plus the terms
    # of the vertices 1 to u
    weights, slack, mu = [max_weight, *least[1:]], [max_weight - owed[0]] * n, [1] * n
    v = 1
    while True:
        for u in range(v, n):
            x = weights[u]
            slack[u] = x - owed[u]
            mu[u] = mu[u - 1] + x * (x - coefficients[u])
        yield weights, mu[-1], max_weight - slack[0] or 1
        # back up to the last vertex that can still rise, resetting the rest;
        # a vertex weighs at most its parent, so the targets' slack bounds
        # it: one or two entries, read in place
        v = n - 1
        while v and not (slack[(tv := targets[v])[0]] and (len(tv) == 1 or slack[tv[1]])):
            for t in tv:
                slack[t] += weights[v] - least[v]
            weights[v] = least[v]
            v -= 1
        if not v:
            return
        weights[v] += 1
        for t in tv:
            slack[t] -= 1


def _least_in_orbit(weights: list[int], pairs: tuple[_Pair, ...]) -> bool:
    """Whether ``weights`` is the one weighting of its orbit that the shape's
    non-empty ``pairs`` keep (the orbit lemma in the module docstring)."""
    for left, right in pairs:
        if left(weights) > right(weights):
            return False
    return True


def _minimal_families(
    max_vertices: int, max_weight: int, max_candidates: int, root_bound: int | None = None
) -> Iterator[_Family]:
    """Each live shape with at most ``max_vertices`` vertices, with its
    minimal weightings within the bounds, one per isomorphism class, in
    vertex-count order.  The counts stop before the first one with no live
    shape: by the reachability lemma in the module docstring, no larger
    count has one either.  Arguments and the candidate cap are as for
    :func:`enumerate_minimal_diagrams`; each family is admitted to the cap
    whole before it is yielded.  A ``root_bound`` of at most ``max_weight``
    keeps the weightings with a heavier root out of ``weightings``, in
    :attr:`_Family.heavy` alone.
    """
    for name, bound in [
        ("max_vertices", max_vertices),
        ("max_weight", max_weight),
        ("max_candidates", max_candidates),
    ]:
        if _integer(bound, name, ValueError) < 1:
            raise ValueError(f"{name} must be positive, got {bound}")

    light = max_weight if root_bound is None else root_bound
    level: list[_Entry] = [(((-1, -1, 0),), (), (), 1)]
    seen = 1  # the lone root's shape
    for size in range(1, max_vertices + 1):
        for i, (shape, _, pairs, _) in enumerate(level, 1):
            family = _Family(shape, [], [], [], i == len(level))
            for weights, rest, low in _weightings(shape, max_weight):
                if pairs and not _least_in_orbit(weights, pairs):
                    continue
                seen += max_weight + 1 - low
                for root in range(low, light + 1):
                    weights[0] = root
                    family.weightings.append(tuple(weights))
                    family.mus.append(rest + root * (root - 2))
                if light < max_weight:
                    family.heavy.append((max(low, light + 1), rest))
            seen = _admit(seen, max_candidates)
            yield family
        if size == max_vertices:
            return
        grown = []
        for entry in level:
            for child in _live_children(entry, max_weight):
                seen = _admit(seen + 1, max_candidates)
                grown.append(child)
        if not grown:
            return
        level = grown


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
    families: list[_Family] = []
    for family in _minimal_families(max_vertices, max_weight, max_candidates):
        families.append(family)
        if not family.last:
            continue
        keyed = [
            (member.key(weights), i, weights)
            for i, member in enumerate(families)
            for weights in member.weightings
        ]
        for key, i, weights in sorted(keyed):
            yield keyed_diagram(families[i].structure, weights, key)
        families = []
