"""Quasihomogeneous plane germs x^k y^l (x^p + ... + y^q) and their diagrams.

A germ in this family is fixed by four integers: ``k, l`` in {0, 1} switch
the smooth branches along the axes on or off, and ``1 <= p <= q`` are the
corner exponents of the weighted-homogeneous part.  ``k + l + p >= 2``
keeps the germ singular and nonsmooth.  :func:`parse_spec` reads both the
plain ``"k,l,p,q"`` form and polynomial syntax such as ``"x*y*(x^2+y^3)"``.

:func:`build_enriques_diagram` produces the complete weighted diagram of
the germ by simulating the resolution: a subtractive Euclid walk on the
normalised exponent pair drives a chain of infinitely near points (stopping
at the root for the node y(x + y^q)), gcd(p, q) simple points finish the
chain and the axis branches contribute one extra free point each, all
constructed as one diagram.  The result is checked on the spot against the
Milnor number formula of Milnor and Orlik (:func:`milnor_orlik`), so a bug
here fails fast instead of poisoning downstream computations.

:func:`check_Q_membership` answers the inverse question: given a minimal
weighted diagram, does it arise from some germ of this family?
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .diagram import (
    DiagramError,
    WeightedDiagram,
    is_complete,
    is_minimal,
    milnor_number,
    minimalize,
    proximity_diagram,
    weighted_diagram,
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
]


class SpecParseError(ValueError):
    """A germ specification string could not be parsed or is out of range."""


@dataclass(frozen=True)
class QuasihomogeneousSpec:
    """Exponents of x^k y^l (x^p + ... + y^q), normalised to p <= q."""

    k: int
    l: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.k not in (0, 1) or self.l not in (0, 1):
            raise ValueError(f"k and l must be 0 or 1, got k={self.k}, l={self.l}")
        if not (1 <= self.p <= self.q):
            raise ValueError(f"exponents must satisfy 1 <= p <= q, got p={self.p}, q={self.q}")
        if self.k + self.l + self.p < 2:
            raise ValueError(
                f"k + l + p >= 2 required for a singular germ, got {self.k + self.l + self.p}"
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
    degree ``W``.  The triple ``(d, t, w)`` describes the minimal diagram:
    ``t`` vertices in a chain, end weight ``d``, with ``w`` recording the
    shape (0: single vertex, 1: chain ending free, 2: chain ending in a
    satellite).
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
    Raises :class:`SpecParseError` with the offending token and position.
    """
    text = text.strip()
    if not text:
        raise SpecParseError("empty specification")
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 4:
            raise SpecParseError(f"expected four comma-separated integers, got {len(parts)}")
        values = []
        for part in parts:
            if not re.fullmatch(r"-?\d+", part):
                raise SpecParseError(f"not an integer: {part!r}")
            values.append(int(part))
        k, l, p, q = values
        if k not in (0, 1) or l not in (0, 1):
            raise SpecParseError(f"k and l must be 0 or 1, got k={k}, l={l}")
        if p < 1 or q < 1:
            raise SpecParseError(f"exponents must be positive, got p={p}, q={q}")
    else:
        k, l, p, q = _parse_polynomial(text)
    if p > q:
        k, l, p, q = l, k, q, p
    if k + l + p < 2:
        raise SpecParseError(
            f"k + l + p >= 2 required for a singular germ, got k={k}, l={l}, p={p}"
        )
    return QuasihomogeneousSpec(k, l, p, q)


_TOKEN = re.compile(r"\s*(?:(\d+)|([xy])|(\^)|(\*)|(\+)|(\()|(\)))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            bad = text[pos:].lstrip()
            raise SpecParseError(f"unexpected character {bad[0]!r} at position {pos}")
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            sym = m.group(3) or m.group(4) or m.group(5) or m.group(6) or m.group(7)
            tokens.append((sym, sym, m.end() - 1))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str, int]], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise SpecParseError(f"unexpected end of input after {self.text!r}")
        self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.next()
        if token[0] != kind:
            raise SpecParseError(
                f"expected {kind!r} but found {token[1]!r} at position {token[2]}"
            )
        return token


def _parse_power(stream: _TokenStream) -> tuple[str, int, int]:
    """One factor ``x``, ``y``, ``x^n`` or ``y^n``; returns (variable, exponent, position)."""
    kind, value, pos = stream.next()
    if kind != "var":
        raise SpecParseError(f"expected a variable but found {value!r} at position {pos}")
    exponent = 1
    nxt = stream.peek()
    if nxt is not None and nxt[0] == "^":
        stream.next()
        kind2, value2, pos2 = stream.expect("int")
        exponent = int(value2)
        if exponent < 1:
            raise SpecParseError(f"exponent must be positive, got {value2!r} at position {pos2}")
    return value, exponent, pos


def _parse_sum(stream: _TokenStream) -> tuple[int, int]:
    """``x^p + y^q`` with the x term first; returns (p, q)."""
    var1, exp1, pos1 = _parse_power(stream)
    if var1 != "x":
        raise SpecParseError(f"the x term must come first, found {var1!r} at position {pos1}")
    stream.expect("+")
    var2, exp2, pos2 = _parse_power(stream)
    if var2 != "y":
        raise SpecParseError(f"the second term must be in y, found {var2!r} at position {pos2}")
    return exp1, exp2


def _parse_polynomial(text: str) -> tuple[int, int, int, int]:
    stream = _TokenStream(_tokenize(text), text)
    k = l = 0
    # prefix factors are each followed by '*'
    while True:
        token = stream.peek()
        if token is None:
            raise SpecParseError(f"unexpected end of input after {text!r}")
        if token[0] != "var":
            break
        after = (
            stream.tokens[stream.index + 1]
            if stream.index + 1 < len(stream.tokens)
            else None
        )
        lookahead = {after[0] if after is not None else None}
        if after is not None and after[0] == "^":
            third = (
                stream.tokens[stream.index + 3]
                if stream.index + 3 < len(stream.tokens)
                else None
            )
            lookahead = {third[0] if third is not None else None}
        if "*" not in lookahead:
            break  # not a prefix factor: it belongs to the sum
        var, exponent, pos = _parse_power(stream)
        if exponent != 1:
            raise SpecParseError(
                f"the {var} prefix must have exponent 1, got {exponent} at position {pos}"
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
        stream.expect("*")
    token = stream.peek()
    if token is None:
        raise SpecParseError(f"missing polynomial part in {text!r}")
    if token[0] == "(":
        stream.next()
        p, q = _parse_sum(stream)
        stream.expect(")")
    else:
        if k or l:
            raise SpecParseError(
                f"the sum must be parenthesised after a prefix (position {token[2]})"
            )
        p, q = _parse_sum(stream)
    trailing = stream.peek()
    if trailing is not None:
        raise SpecParseError(
            f"unexpected trailing {trailing[1]!r} at position {trailing[2]}"
        )
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


def build_enriques_diagram(spec: QuasihomogeneousSpec) -> WeightedDiagram:
    """Complete Enriques diagram of the germ, built by resolution walk.

    A subtractive Euclid walk on the coprime pair (r, s) creates one chain
    vertex per state.  The walk tracks which side of each state still
    carries an axis: while a side is unresolved its ``k`` or ``l`` branch
    passes through the chain vertex and bumps the weight by one.  The chain
    vertex of a state is proximate to the most recent vertices of the two
    sides, which makes it free while one side is fresh and a satellite once
    both carry vertices.  The walk, then gcd(p, q) free simple points on the
    chain end and one final simple point per active axis (the x axis on its
    last chain vertex, the y axis on the root) fill one set of maps, and
    the diagram is constructed once.

    For ``p == 1`` and ``k == 0`` the walk stops at the root: y(x + y^q)
    is a node, and walking on would leave surplus final free simple points
    on free simple points.  No other germ has one: axis leaves sit on the
    root or on an x-axis vertex of weight at least two, so only an end leaf
    on a free end of weight one can be surplus; the end is free only if
    r = 1, and has weight gcd(p, q) + k = 1 only if p = 1 and k = 0.

    The result is verified to be complete and to have the Milnor number
    predicted by :func:`milnor_orlik`; any mismatch raises RuntimeError.
    """
    inv = derived_invariants(spec)
    a, b = inv.r, inv.s
    node = spec.p == 1 and not spec.k
    side_a: int | None = None  # newest vertex on the x side
    side_b: int | None = None  # newest vertex on the y side
    parent: dict[int, int] = {}
    prox: list[tuple[int, int]] = []
    nu: dict[int, int] = {}
    x_axis = 0
    while True:
        vertex = len(nu)
        weight = inv.d_tilde * min(a, b)
        if side_a is None:
            weight += spec.k
            x_axis = vertex
        if side_b is None:
            weight += spec.l
        nu[vertex] = weight
        if vertex:
            parent[vertex] = vertex - 1
            for target in (side_a, side_b):
                if target is not None:
                    prox.append((vertex, target))
        if a == b or node:
            end = vertex
            break
        if a < b:
            b -= a
            side_b = vertex
        else:
            a -= b
            side_a = vertex

    for at in [end] * inv.d_tilde + [x_axis] * spec.k + [0] * spec.l:
        vertex = len(nu)
        parent[vertex] = at
        prox.append((vertex, at))
        nu[vertex] = 1
    result = weighted_diagram(proximity_diagram(0, parent, prox), nu)

    if not is_complete(result):
        raise RuntimeError(f"constructed diagram for {spec} is not complete")
    if milnor_number(result) != milnor_orlik(spec):
        raise RuntimeError(f"constructed diagram for {spec} has the wrong Milnor number")
    return result


def minimal_diagram(spec: QuasihomogeneousSpec) -> WeightedDiagram:
    """Minimal weighted diagram of the germ."""
    return minimalize(build_enriques_diagram(spec))


def is_bamboo(w: WeightedDiagram) -> bool:
    """True when the diagram is a single chain (every vertex has at most one child)."""
    return all(len(children) <= 1 for children in w.diagram.children.values())


def bamboo_chain(w: WeightedDiagram) -> list[int]:
    """Vertices of a bamboo from the root to the end of the chain."""
    d = w.diagram
    chain = [d.root]
    while d.children[chain[-1]]:
        chain.append(d.children[chain[-1]][0])
    return chain


def bamboo_invariants(w: WeightedDiagram) -> tuple[int, int, int]:
    """Profile (d, t, w) of a minimal bamboo: end weight, length, end shape.

    The shape flag is 0 for a single vertex, 1 when the chain ends in a
    free vertex, 2 when it ends in a satellite.
    """
    if not is_bamboo(w):
        raise DiagramError("diagram is not a bamboo")
    chain = bamboo_chain(w)
    end = chain[-1]
    depth = len(chain)
    if depth == 1:
        shape = 0
    elif len(w.diagram.prox_targets[end]) == 2:
        shape = 2
    else:
        shape = 1
    return w.nu[end], depth, shape


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
    bounded exponent q remain.  Only a candidate with ``w``'s Milnor number
    (as a match must have) is rebuilt and compared by canonical key, and
    the certifying germ is the first match in (p, q, k, l) order.
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
    first_satellite = None
    for index, v in enumerate(chain):
        if len(diag.prox_targets[v]) == 2:
            first_satellite = index
            break
    spared = first_satellite - 1 if first_satellite is not None else None
    constraints = w.excess[chain[0]] <= 1
    if spared is not None and spared >= 1 and w.excess[chain[spared]] > 1:
        constraints = False
    for index in range(1, t - 1):
        if index == spared:
            continue
        if w.excess[chain[index]] != 0:
            constraints = False
    total = sum(w.nu.values())
    root_weight = w.nu[diag.root]
    candidates = []
    for k in (0, 1):
        for l in (0, 1):
            p = root_weight - k - l
            if p < 1 or k + l + p < 2:
                continue
            for q in range(p, max(total, p) + 1):
                candidates.append((p, q, k, l))
    spec = None
    mu = milnor_number(w)
    for p, q, k, l in sorted(candidates):
        candidate = QuasihomogeneousSpec(k, l, p, q)
        if milnor_orlik(candidate) == mu and minimal_diagram(candidate).key == w.key:
            spec = candidate
            break
    return QMembershipReport(
        is_bamboo=True, d=d_end, t=t, constraints_hold=constraints, spec=spec
    )
