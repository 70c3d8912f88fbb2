"""Quasihomogeneous plane germs x^k y^l (x^p + ... + y^q) and their diagrams.

A germ in this family is fixed by four integers: ``k, l`` in {0, 1} switch
the smooth branches along the axes on or off, and ``1 <= p <= q`` are the
corner exponents of the weighted-homogeneous part.  ``k + l + p >= 2``
keeps the germ singular and nonsmooth.  :func:`parse_spec` reads both the
plain ``"k,l,p,q"`` form and polynomial syntax such as ``"x*y*(x^2+y^3)"``.

One subtractive Euclid walk on the normalised exponent pair simulates the
resolution: it drives a chain of infinitely near points (stopping at the
root for the node y(x + y^q)).  That chain is the germ's minimal diagram
(:func:`minimal_diagram`); :func:`build_enriques_diagram` adds gcd(p, q)
simple points on the chain end and one extra free point per axis branch to
give the complete diagram.  Each builder hands the walk, vertex by vertex
and with any leaves after it, to :func:`~enriques.diagram._grown`, which
grows the lone root into the one diagram returned.  The builder checks it
on the spot against the Milnor number formula of Milnor and Orlik
(:func:`milnor_orlik`), so a bug here fails fast instead of poisoning
downstream computations.  A germ whose diagram would have more than
:data:`MAX_DIAGRAM_VERTICES` vertices is refused with
:class:`~enriques.diagram.DiagramError` before anything is allocated: the
minimal diagram counts the walk's ``t`` vertices (one for the node), the
complete one gcd(p, q) + k + l leaves more.
:func:`derived_invariants` works at any size.

:func:`check_Q_membership` answers the inverse question: given a minimal
weighted diagram, does it arise from some germ of this family?
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator

from .diagram import (
    _ROOT,
    DiagramError,
    WeightedDiagram,
    _grown,
    _integer,
    is_complete,
    is_minimal,
    milnor_number,
    require_valid,
)

__all__ = [
    "SpecParseError",
    "QuasihomogeneousSpec",
    "DerivedInvariants",
    "QMembershipReport",
    "parse_spec",
    "derived_invariants",
    "milnor_orlik",
    "build_enriques_diagram",
    "minimal_diagram",
    "is_bamboo",
    "bamboo_chain",
    "bamboo_invariants",
    "check_Q_membership",
    "MAX_DIAGRAM_VERTICES",
]

# Largest diagram any builder constructs.  At this size `enriques mu`
# takes about a second and 120 MB; the Euclid walk of a germ like
# x^2+y^(2*10^12+1) would otherwise allocate 10^12 vertices.
MAX_DIAGRAM_VERTICES = 100_000


def _refuse_above_bound(size: int, what: str) -> None:
    """Raise :class:`DiagramError` when ``what`` would have more than
    :data:`MAX_DIAGRAM_VERTICES` vertices; called before building it."""
    if size > MAX_DIAGRAM_VERTICES:
        raise DiagramError(
            f"{what} would have {size} vertices, more than the bound of {MAX_DIAGRAM_VERTICES}"
        )


class SpecParseError(ValueError):
    """A germ specification string could not be parsed or is out of range."""


@dataclass(frozen=True)
class QuasihomogeneousSpec:
    """Exponents of x^k y^l (x^p + ... + y^q), normalised to p <= q.

    Each field must be an ``int``; a bool, float or string raises
    ``ValueError`` naming the field."""

    k: int
    l: int
    p: int
    q: int

    def __post_init__(self) -> None:
        for name, value in zip("klpq", (self.k, self.l, self.p, self.q)):
            _integer(value, name, ValueError)
        if self.k not in (0, 1) or self.l not in (0, 1):
            raise ValueError(f"k and l must be 0 or 1, got k={self.k}, l={self.l}")
        if self.p < 1:
            raise ValueError(f"exponents must be positive, got p={self.p}, q={self.q}")
        if self.p > self.q:
            raise ValueError(f"exponents must satisfy p <= q, got p={self.p}, q={self.q}")
        if self.k + self.l + self.p < 2:
            raise ValueError(
                "k + l + p >= 2 required for a singular germ, "
                f"got k={self.k}, l={self.l}, p={self.p}"
            )

    @cached_property
    def polynomial(self) -> str:
        """Human-readable polynomial form of the germ."""
        prefix = ("x*" if self.k else "") + ("y*" if self.l else "")
        core = f"x^{self.p}+y^{self.q}"
        return f"{prefix}({core})" if prefix else core


@dataclass(frozen=True)
class DerivedInvariants:
    """Numerical invariants read off a germ specification.

    ``d_tilde`` is gcd(p, q) and ``r, s`` the coprime quotients.  ``w_x``
    and ``w_y`` are the weights making the germ weighted-homogeneous of
    degree ``W``.  The triple ``(d, t, w)`` is read off the Euclid walk:
    ``t`` vertices in a chain, end weight ``d``, with ``w`` recording the
    shape (0: single vertex, 1: chain ending free, 2: chain ending in a
    satellite).  It describes the minimal diagram of every germ but the
    node ``y*(x+y^q)`` with ``q >= 2``: there the walk gives ``(1, q, 1)``,
    while the minimal diagram, a lone root of weight 2, is ``(2, 1, 0)``,
    the triple that :class:`~enriques.jump.JumpReport` carries.
    """

    d_tilde: int
    r: int
    s: int
    d: int
    t: int
    w: int
    w_x: int
    w_y: int
    W: int


def parse_spec(text: str) -> QuasihomogeneousSpec:
    """Parse ``"k,l,p,q"`` or polynomial syntax like ``"x*y*(x^2+y^3)"``.

    The polynomial form is ``[x*][y*](x^p+y^q)``; the parentheses may be
    dropped when there is no prefix, and an exponent of one may be written
    as a bare variable.  The x term must precede the y term.  Exponents are
    normalised so that p <= q (swapping the roles of x and y when needed).
    Raises :class:`SpecParseError` with the offending token and position,
    or with the range check of :class:`QuasihomogeneousSpec` that the
    normalised germ fails.
    """
    text = text.strip()
    if not text:
        raise SpecParseError("empty specification")
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 4:
            raise SpecParseError(f"expected four comma-separated integers, got {len(parts)}")
        for part in parts:
            if not re.fullmatch(r"-?\d+", part):
                raise SpecParseError(f"not an integer: {part!r}")
        k, l, p, q = map(int, parts)
    else:
        k, l, p, q = _parse_polynomial(text)
    if p > q:
        k, l, p, q = l, k, q, p
    try:
        return QuasihomogeneousSpec(k, l, p, q)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None


_TOKEN = re.compile(r"\s*(?:(\d+)|([xy])|([\^*+()])|(.))", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, position)`` per token; kind is "int", "var" or the symbol."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 4:
            raise SpecParseError(f"unexpected character {m[4]!r} at position {m.start()}")
        kind = ("int", "var", m[3])[m.lastindex - 1]
        tokens.append((kind, m[m.lastindex], m.start(m.lastindex)))
    return tokens


def _parse_polynomial(text: str) -> tuple[int, int, int, int]:
    """``[x*][y*](x^p+y^q)`` in one LL(1) pass: each power is read first,
    and a ``*`` after it makes it a prefix factor; otherwise it is the
    first term of the sum."""
    tokens = _tokenize(text)[::-1]

    def peek() -> str | None:
        return tokens[-1][0] if tokens else None

    def take(kind: str | None = None) -> tuple[str, str, int]:
        if not tokens:
            raise SpecParseError(f"unexpected end of input after {text!r}")
        token = tokens.pop()
        if kind is not None and token[0] != kind:
            raise SpecParseError(
                f"expected {kind!r} but found {token[1]!r} at position {token[2]}"
            )
        return token

    def power() -> tuple[str, int, int]:
        kind, var, pos = take()
        if kind != "var":
            raise SpecParseError(f"expected a variable but found {var!r} at position {pos}")
        if peek() != "^":
            return var, 1, pos
        take()
        _, value, at = take("int")
        if int(value) < 1:
            raise SpecParseError(f"exponent must be positive, got {value!r} at position {at}")
        return var, int(value), pos

    k = l = 0
    while True:
        opened = peek() == "("
        if opened:
            take()
        elif (k or l) and peek() not in ("var", None):
            raise SpecParseError(
                f"the sum must be parenthesised after a prefix (position {tokens[-1][2]})"
            )
        var, p, pos = power()
        if opened or peek() != "*":
            break
        if p != 1:
            raise SpecParseError(
                f"the {var} prefix must have exponent 1, got {p} at position {pos}"
            )
        if var == "x":
            if k:
                raise SpecParseError(f"duplicate x prefix at position {pos}")
            if l:
                raise SpecParseError(f"the x prefix must precede the y prefix (position {pos})")
            k = 1
        else:
            if l:
                raise SpecParseError(f"duplicate y prefix at position {pos}")
            l = 1
        take()
    if (k or l) and not opened:
        raise SpecParseError(f"the sum must be parenthesised after a prefix (position {pos})")
    if var != "x":
        raise SpecParseError(f"the x term must come first, found {var!r} at position {pos}")
    take("+")
    var, q, pos = power()
    if var != "y":
        raise SpecParseError(f"the second term must be in y, found {var!r} at position {pos}")
    if opened:
        take(")")
    if tokens:
        _, value, pos = tokens[-1]
        raise SpecParseError(f"unexpected trailing {value!r} at position {pos}")
    return k, l, p, q


def _euclid_states(r: int, s: int) -> int:
    """States of the subtractive Euclid walk on (r, s): the partial quotients' sum."""
    count = 0
    while r:
        count += s // r
        r, s = s % r, r
    return count


def derived_invariants(spec: QuasihomogeneousSpec) -> DerivedInvariants:
    """Weights, weighted degree and the expected chain profile of ``spec``."""
    d_tilde = gcd(spec.p, spec.q)
    r = spec.p // d_tilde
    s = spec.q // d_tilde
    w_x = s
    w_y = r
    W = (spec.k + spec.p) * w_x + spec.l * w_y
    t = _euclid_states(r, s)
    if spec.p == spec.q:
        w = 0
        d = spec.k + spec.l + spec.p
    elif spec.q % spec.p == 0:
        w = 1
        d = spec.k + spec.p
    else:
        w = 2
        d = d_tilde
    return DerivedInvariants(
        d_tilde=d_tilde, r=r, s=s, d=d, t=t, w=w, w_x=w_x, w_y=w_y, W=W
    )


def milnor_orlik(spec: QuasihomogeneousSpec) -> int:
    """Milnor number of the germ, from its weights and weighted degree.

    For a weighted-homogeneous germ of degree W with variable weights
    w_x, w_y the Milnor number is (W - w_x)(W - w_y) / (w_x w_y), always
    an integer.
    """
    inv = derived_invariants(spec)
    numerator = (inv.W - inv.w_x) * (inv.W - inv.w_y)
    mu, remainder = divmod(numerator, inv.w_x * inv.w_y)
    assert remainder == 0, f"non-integral Milnor number for {spec}"
    return mu


def _chain_length(spec: QuasihomogeneousSpec, inv: DerivedInvariants) -> int:
    """Vertices of the walk's chain, the germ's minimal diagram: the walk's
    ``t`` states, or one for the node y(x + y^q).

    For ``p == 1`` and ``k == 0`` the walk stops at the root: walking on
    would leave surplus final free simple points on free simple points.  No
    other germ has one: axis leaves sit on the root or on an x-axis vertex
    of weight at least two, so only an end leaf on a free end of weight one
    can be surplus; the end is free only if r = 1, and has weight
    gcd(p, q) + k = 1 only if p = 1 and k = 0.
    """
    return 1 if spec.p == 1 and not spec.k else inv.t


def _chain(spec: QuasihomogeneousSpec, complete: bool) -> WeightedDiagram:
    """The resolution walk's chain, plus the leaves when ``complete``, as
    one diagram grown from the lone root by :func:`_grown`.

    A subtractive Euclid walk on the coprime pair (r, s) creates one chain
    vertex per state, numbered from the root 0, for :func:`_chain_length`
    states; the last one is the chain end.  The walk tracks which side of
    each state still carries an axis: while a side is unresolved its ``k``
    or ``l`` branch passes through the chain vertex and bumps the weight by
    one.  The chain vertex of a state is proximate to the most recent
    vertices of the two sides.  One of them is the vertex before it, its
    parent, and the other its second target, so the vertex is free while
    one side is fresh and a satellite once both carry vertices: the walk
    hands each vertex after the root to :func:`_grown` as a ``(parent,
    second)`` entry as it goes.  The complete diagram's leaves of weight 1
    follow: gcd(p, q) free simple points on the chain end and one final
    simple point per active axis, the x axis on its last chain vertex and
    the y axis on the root.

    When the diagram would exceed :data:`MAX_DIAGRAM_VERTICES` vertices,
    :class:`~enriques.diagram.DiagramError` names it before any vertex is
    allocated.
    """
    inv = derived_invariants(spec)
    length = _chain_length(spec, inv)
    leaves = inv.d_tilde + spec.k + spec.l if complete else 0
    built = "complete diagram" if complete else "minimal diagram"
    _refuse_above_bound(length + leaves, f"the {built} of {spec.polynomial}")
    weights: list[int] = []

    def run() -> Iterator[tuple[int, int | None]]:
        a, b = inv.r, inv.s
        side_a: int | None = None  # newest vertex on the x side
        side_b: int | None = None  # newest vertex on the y side
        x_axis = 0
        for vertex in range(length):
            weight = inv.d_tilde * min(a, b)
            if side_a is None:
                weight += spec.k
                x_axis = vertex
            if side_b is None:
                weight += spec.l
            weights.append(weight)
            if vertex:
                yield vertex - 1, side_b if side_a == vertex - 1 else side_a
            if a < b:
                b -= a
                side_b = vertex
            else:
                a -= b
                side_a = vertex
        if complete:
            for at in [length - 1] * inv.d_tilde + [x_axis] * spec.k + [0] * spec.l:
                weights.append(1)
                yield at, None

    diagram = _grown(_ROOT, run())
    return WeightedDiagram(diagram, tuple(weights))


def build_enriques_diagram(spec: QuasihomogeneousSpec) -> WeightedDiagram:
    """Complete Enriques diagram of the germ, built by resolution walk.

    The walk's chain (see :func:`minimal_diagram`), then gcd(p, q) free
    simple points on the chain end and one final simple point per active
    axis (the x axis on its last chain vertex, the y axis on the root),
    each leaf taking the next id: :func:`_chain` grows them all in one
    diagram.

    The result is verified to be complete and to have the Milnor number
    predicted by :func:`milnor_orlik`; any mismatch raises RuntimeError.
    Its vertex count, the walk's ``t`` states (one for the node) plus the
    leaves, is known up front: above :data:`MAX_DIAGRAM_VERTICES` it
    raises :class:`~enriques.diagram.DiagramError` instead.
    """
    result = _chain(spec, complete=True)
    if not is_complete(result):
        raise RuntimeError(f"constructed diagram for {spec} is not complete")
    if milnor_number(result) != milnor_orlik(spec):
        raise RuntimeError(f"constructed diagram for {spec} has the wrong Milnor number")
    return result


def minimal_diagram(spec: QuasihomogeneousSpec) -> WeightedDiagram:
    """Minimal weighted diagram of the germ: the resolution walk's chain.

    The complete diagram is this chain plus free weight-1 leaves, and
    those are exactly what minimalization removes, so the chain is built
    alone, as one diagram of the walk's ``t`` vertices (one for the node).
    It is verified to be minimal and to have the Milnor number predicted by
    :func:`milnor_orlik`; any mismatch raises RuntimeError.  Above
    :data:`MAX_DIAGRAM_VERTICES` vertices it raises
    :class:`~enriques.diagram.DiagramError` before building anything.
    """
    result = _chain(spec, complete=False)
    if not is_minimal(result):
        raise RuntimeError(f"constructed diagram for {spec} is not minimal")
    if milnor_number(result) != milnor_orlik(spec):
        raise RuntimeError(f"constructed diagram for {spec} has the wrong Milnor number")
    return result


def is_bamboo(w: WeightedDiagram) -> bool:
    """True when the diagram is a single chain (every vertex has at most one
    child).  An axiom violation raises
    :class:`~enriques.diagram.InvalidDiagramError`, read from the cached
    ``diagram.violations``."""
    require_valid(w.diagram)
    return all(len(children) <= 1 for children in w.diagram.children.values())


def bamboo_chain(w: WeightedDiagram) -> list[int]:
    """Vertices of a bamboo from the root to the end of the chain.

    ``w`` must be a bamboo (see :func:`is_bamboo`): each vertex's one child
    follows it in ``diagram.preorder``, so the preorder is the chain.  An
    axiom violation raises :class:`~enriques.diagram.InvalidDiagramError`,
    as for :func:`is_bamboo`."""
    require_valid(w.diagram)
    return list(w.diagram.preorder)


def bamboo_invariants(w: WeightedDiagram) -> tuple[int, int, int]:
    """Profile (d, t, w) of a minimal bamboo: end weight, length, end shape.

    The shape flag is the end's target count: 0 for a single vertex (the
    root), 1 when the chain ends in a free vertex, 2 when it ends in a
    satellite.  An axiom violation raises
    :class:`~enriques.diagram.InvalidDiagramError`, read from the cached
    ``diagram.violations``, and a diagram that is not a bamboo
    :class:`DiagramError`.
    """
    if not is_bamboo(w):
        raise DiagramError("diagram is not a bamboo")
    chain = w.diagram.preorder
    return w.nu[chain[-1]], len(chain), len(w.diagram.prox_targets[chain[-1]])


@dataclass(frozen=True)
class QMembershipReport:
    """Structural findings and, when one exists, a germ matching a minimal diagram.

    ``is_bamboo`` says whether the diagram is a single chain at all;
    ``d`` and ``t`` are the end weight and length of that chain;
    ``constraints_hold`` records the excess conditions every
    quasihomogeneous chain satisfies; ``spec`` is a germ whose minimal
    diagram reproduces the input, or None when no germ does.  All fields
    after ``is_bamboo`` are None for non-chains.
    """

    is_bamboo: bool
    d: int | None
    t: int | None
    constraints_hold: bool | None
    spec: QuasihomogeneousSpec | None

    @property
    def in_Q(self) -> bool:
        return self.spec is not None


def check_Q_membership(w: WeightedDiagram) -> QMembershipReport:
    """Test whether a minimal diagram arises from a quasihomogeneous germ.

    ``w`` must be minimal.  Non-chains are rejected outright.  For chains
    the report records the excess constraints every long quasihomogeneous
    chain satisfies (root excess at most one, ditto just before the first
    satellite, zero elsewhere before the end), but membership itself is
    decided by reconstruction alone: the root weight of a germ's minimal
    diagram always equals p + k + l, so only four (k, l) choices and one
    bounded exponent q remain.  Per (k, l), bisection finds the one q
    whose Milnor number is ``w``'s (as a match's must be); only those
    germs are rebuilt and compared by canonical key, and the certifying
    germ is the first match in (p, q, k, l) order.  A germ is rebuilt only
    when its chain, counted by :func:`derived_invariants`, has ``w``'s
    length, so membership builds nothing larger than ``w``: a member within
    :data:`MAX_DIAGRAM_VERTICES` is certified however large its complete
    diagram (x*(x^99999+y^999990) certifies the 10-vertex free chain of
    weight 10^5 per vertex), and a longer chain raises :class:`DiagramError`.
    """
    if not is_minimal(w):
        raise DiagramError("membership test requires a minimal diagram")
    if not is_bamboo(w):
        return QMembershipReport(
            is_bamboo=False, d=None, t=None, constraints_hold=None, spec=None
        )
    diag = w.diagram
    chain = bamboo_chain(w)
    d_end, t = w.nu[chain[-1]], len(chain)
    # the vertex just before the first satellite may have excess one
    spared = next((i - 1 for i, v in enumerate(chain) if len(diag.prox_targets[v]) == 2), None)
    constraints = w.excess[chain[0]] <= 1 and all(
        w.excess[chain[i]] <= (1 if i == spared else 0) for i in range(1, t - 1)
    )
    total = sum(w.nu.values())
    mu = milnor_number(w)
    candidates = []
    for k in (0, 1):
        for l in (0, 1):
            p = w.nu[diag.root] - k - l
            if p < 1 or k + l + p < 2:
                continue
            # milnor_orlik is (k+p-1)(k+p) q/p plus a term free of q: it
            # increases strictly in q, except for y(x+y^q), a node for
            # every q, so the least q reaching mu is the only one to rebuild
            qs = range(p, total + 1)
            at = bisect_left(qs, mu, key=lambda q: milnor_orlik(QuasihomogeneousSpec(k, l, p, q)))
            if at < len(qs):
                candidate = QuasihomogeneousSpec(k, l, p, qs[at])
                # a germ whose chain has another length cannot match
                inv = derived_invariants(candidate)
                if milnor_orlik(candidate) == mu and _chain_length(candidate, inv) == t:
                    candidates.append(candidate)
    candidates.sort(key=lambda c: (c.p, c.q, c.k, c.l))
    spec = next((c for c in candidates if minimal_diagram(c).key == w.key), None)
    return QMembershipReport(
        is_bamboo=True, d=d_end, t=t, constraints_hold=constraints, spec=spec
    )
