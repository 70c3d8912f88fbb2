"""The Milnor-number jump of quasihomogeneous germs under linear deformations.

The minimal diagram of a quasihomogeneous germ is a chain with end weight
``d``, length ``t`` and end shape ``w``.  Deforming the germ linearly can
lower the Milnor number, and the smallest achievable drop (the *jump*) is
computed here three independent ways that must agree:

* surgery on the chain end produces an explicitly adjacent diagram
  (:func:`construct_adjacent_diagram`) whose Milnor number sits exactly
  one jump below;
* the drop has the closed form of :func:`expected_jump` in ``d`` and ``w``;
* a case split on the exponents alone gives the same number.

:func:`lambda_lin` packages the three computations, the constructed
diagram, and a domination witness proving the adjacency really holds.
:func:`verify_maximality` then checks, by exhaustive bounded enumeration,
that no other type sits strictly between: every enumerated minimal diagram
of different type with Milnor number above ``mu - jump`` is refuted as a
linear-adjacency target.  The bound ``mu - jump`` itself is attained by
``E_D``, whose domination witness :func:`lambda_lin` already holds, so a
maximality report is either "verified" or "contradiction".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from math import gcd, isqrt

from .adjacency import GeqWitness, adjacency_verdict, class_representatives, geq
from .diagram import (
    DiagramError,
    WeightedDiagram,
    _grown,
    _integer,
    add_leaf,
    diagram_type,
    is_minimal,
    milnor_number,
    remove_vertices,
)
from .enumeration import DEFAULT_MAX_CANDIDATES, _minimal_families
from .quasihomogeneous import (
    QuasihomogeneousSpec,
    _refuse_above_bound,
    bamboo_chain,
    bamboo_invariants,
    is_bamboo,
    minimal_diagram,
)

__all__ = [
    "JumpReport",
    "MaximalityReport",
    "construct_adjacent_diagram",
    "expected_jump",
    "lambda_lin",
    "lambda_lin_semi",
    "verify_maximality",
]


@dataclass(frozen=True)
class JumpReport:
    """Jump value of a germ with all supporting evidence.

    ``lambda_lin`` = ``mu_D`` - ``mu_E``; ``E_D`` is the constructed
    adjacent diagram and ``adjacency_witness`` proves that
    ``representative`` (the minimal diagram plus one free weight-1 vertex
    at the chain end) dominates it.  The report leaves maximality
    unverified; :func:`verify_maximality` checks it separately and returns
    a :class:`MaximalityReport`.  ``semi`` marks input declared as the
    quasihomogeneous initial part of a semi-quasihomogeneous germ; the
    jump is unchanged because both germs share one diagram type.
    """

    spec: QuasihomogeneousSpec
    d: int
    t: int
    w: int
    D_min: WeightedDiagram
    mu_D: int
    E_D: WeightedDiagram
    mu_E: int
    lambda_lin: int
    representative: WeightedDiagram
    adjacency_witness: GeqWitness
    semi: bool = False


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of the bounded search for a better adjacent type.

    ``status`` is "verified" when every enumerated candidate above the
    threshold ``mu_D - lambda_lin`` was refuted, and "contradiction" when
    some candidate was adjacent after all (each such finding is listed
    with its canonical key and Milnor number).  ``attained_max_mu`` is the
    threshold, attained by the jump's ``E_D``.  A verified report only
    means no counterexample exists within the stated bounds.  ``refuted`` counts
    every refuted candidate; ``refuted_by_root`` counts those among them
    that the root-weight stage of :func:`verify_maximality` refuted
    without a domination search.
    """

    spec: QuasihomogeneousSpec
    status: str
    max_vertices: int
    max_weight: int
    extra_bound: int
    mu_D: int
    lambda_lin: int
    examined: int
    refuted: int
    attained_max_mu: int
    contradictions: tuple[tuple[str, int], ...] = ()
    refuted_by_root: int = 0


def construct_adjacent_diagram(D: WeightedDiagram) -> WeightedDiagram:
    """Minimal diagram of an adjacent type exactly one jump below ``D``.

    ``D`` must be a valid minimal chain with end weight ``d`` and length
    ``t``, ``d*t > 1``; an axiom violation raises
    :class:`~enriques.diagram.InvalidDiagramError`.  For ``d = 1`` the
    end, a satellite, is dropped with its parent when that is free of
    weight 1, in one :func:`~enriques.diagram.remove_vertices`.
    Otherwise the end is lowered to ``d - 1`` and gains a child: for
    ``d = 2`` a weight-1 satellite of the last two chain vertices (a lone
    root just becomes the weight-1 single vertex); for ``d >= 3`` a free
    weight-2 vertex and below it ``d - 3`` weight-1 satellites of their
    parent and the end, the run that :func:`~enriques.diagram._grown`
    appends with ids after ``D``'s largest.  Every weight stays at least 1
    and the new end is a satellite, the root or free of weight at least 2
    (a dropped parent's parent weighs 2 or more), so ``E_D`` is minimal as
    built.  A Milnor number not below ``D``'s raises RuntimeError.  Above
    :data:`~enriques.quasihomogeneous.MAX_DIAGRAM_VERTICES` vertices,
    ``t + d - 2`` (``t + 1`` for ``d = 2`` and ``t > 1``),
    :class:`DiagramError` is raised before the run is allocated.
    """
    if not is_minimal(D):
        raise DiagramError("adjacent-diagram construction requires a minimal diagram")
    if not is_bamboo(D):
        raise DiagramError("adjacent-diagram construction requires a bamboo")
    chain = bamboo_chain(D)
    end = chain[-1]
    d = D.nu[end]
    t = len(chain)
    if d * t <= 1:
        raise DiagramError("the one-vertex weight-1 diagram has no adjacent diagram")
    # d = 2 adds one satellite, none to a lone root; otherwise d - 2 vertices
    _refuse_above_bound(t + (t > 1 if d == 2 else d - 2), "the adjacent diagram E_D")

    if d == 1:
        free = len(D.diagram.prox_targets[chain[-2]]) == 1
        result = remove_vertices(D, chain[-2:] if free and D.nu[chain[-2]] == 1 else [end])
    else:
        weights = list(D.weights)
        weights[D.diagram.vertices.index(end)] = d - 1
        if d == 2:
            run = [(end, chain[-2])] if t > 1 else []
            weights += [1] * len(run)
        else:
            # each satellite hangs below the vertex added before it
            first = D.diagram.vertices[-1] + 1
            run = [(end, None)] + [(v, end) for v in range(first, first + d - 3)]
            weights += [2] + [1] * (d - 3)
        result = WeightedDiagram(_grown(D.diagram, run), tuple(weights))

    if milnor_number(result) >= milnor_number(D):
        raise RuntimeError("adjacent-diagram surgery failed to lower the Milnor number")
    return result


def expected_jump(d: int, w: int) -> int:
    """Closed form of the jump in terms of the chain profile (d, w); a
    ``d`` or ``w`` that is not an ``int`` raises ``ValueError``."""
    _integer(d, "d", ValueError)
    _integer(w, "w", ValueError)
    if d < 1 or w not in (0, 1, 2):
        raise ValueError(f"need d >= 1 and w in {{0,1,2}}, got d={d}, w={w}")
    if d == 1:
        return 1
    if d == 2:
        return 1 if w == 0 else w
    return d - 2 + w


def _closed_form(spec: QuasihomogeneousSpec) -> int:
    if spec.p == spec.q:
        total = spec.k + spec.l + spec.p
        return 1 if total == 2 else total - 2
    if spec.q % spec.p == 0:
        return 1 if spec.p + spec.k <= 2 else spec.p + spec.k - 1
    return gcd(spec.p, spec.q)


def lambda_lin(spec: QuasihomogeneousSpec) -> JumpReport:
    """Jump of the germ under linear deformations, fully cross-checked.

    Builds the minimal diagram, reads off its chain profile (d, t, w),
    constructs the adjacent diagram, and computes the jump three ways: as
    the Milnor number drop, from the profile, and from the exponent case
    split.  Disagreement or a failed adjacency witness raises
    RuntimeError, since each would mean an implementation bug.
    """
    D_min = minimal_diagram(spec)
    d, t, w = bamboo_invariants(D_min)
    E = construct_adjacent_diagram(D_min)
    mu_D = milnor_number(D_min)
    mu_E = milnor_number(E)
    drop = mu_D - mu_E
    profile = expected_jump(d, w)
    closed = _closed_form(spec)
    if not (drop == profile == closed):
        raise RuntimeError(
            f"jump computations disagree for {spec}: "
            f"mu drop {drop}, profile form {profile}, exponent form {closed}"
        )
    representative = add_leaf(D_min, bamboo_chain(D_min)[-1], 1)
    witness = geq(representative, E)
    if witness is None:
        raise RuntimeError(f"no adjacency witness for {spec} against its own E_D")
    return JumpReport(
        spec=spec,
        d=d,
        t=t,
        w=w,
        D_min=D_min,
        mu_D=mu_D,
        E_D=E,
        mu_E=mu_E,
        lambda_lin=drop,
        representative=representative,
        adjacency_witness=witness,
    )


def lambda_lin_semi(spec: QuasihomogeneousSpec) -> JumpReport:
    """Jump for a declared semi-quasihomogeneous germ.

    ``spec`` is the quasihomogeneous initial part; the full germ has the
    same diagram type, hence the same jump.  The report is flagged.
    """
    return replace(lambda_lin(spec), semi=True)


def verify_maximality(
    spec: QuasihomogeneousSpec,
    max_vertices: int | None = None,
    max_weight: int | None = None,
    extra_bound: int | None = None,
) -> MaximalityReport:
    """Exhaustively check, within bounds, that the jump cannot be smaller.

    Enumerates every minimal diagram with at most ``max_vertices``
    vertices and weights at most ``max_weight`` (defaults: minimal diagram
    size plus 4, root weight plus 2).  Each one of a different type with
    Milnor number above ``mu_D - lambda_lin`` must fail the bounded
    linear-adjacency search from the germ's type; a hit is reported as a
    contradiction finding, never swallowed.  Candidates with Milnor number
    at or above ``mu_D`` take part in the sweep as well, so the search
    also confirms that adjacency strictly lowered the Milnor number here.
    The bound is attained, which makes ``mu_D - lambda_lin`` the exact
    maximum over adjacent types within bounds.

    Candidates are refuted in two stages.  The first, the root-weight
    stage, rests on this lemma: no class representative dominates a
    candidate whose root weight exceeds that of ``D_min``.  Proof: every
    representative is ``D_min`` with free leaves added, and adding a leaf
    never changes an existing weight, so each representative's root
    weight is ``D_min``'s root weight ``r``.  A domination witness maps the
    lower root to the upper root or excludes it, so the transported value
    at the candidate's root is ``r`` or 0; the root is proximate to
    nothing, so its value in the candidate is its weight, which exceeds
    ``r``.  The inequality fails at the root.  Such candidates are counted
    as examined and refuted (and in ``refuted_by_root``) inside the
    enumeration's walk, without a key, a weight tuple, a diagram or a
    search: the walk holds the root back, and for each weighting of the
    other vertices, with Milnor number ``rest + r*(r - 2)`` at root weight
    ``r``, the heavy root weights with a Milnor number above the threshold
    are an interval, counted by one bisection.  Every other candidate, a light
    one, goes to the second stage, the bounded domination search of
    :func:`~enriques.adjacency.adjacency_verdict`, as the enumeration
    yields it, except ``D_min``'s own class: only a weighting with
    ``D_min``'s vertex count and Milnor number can be that class, and
    only such a weighting is keyed before it is searched.  The
    contradictions are listed by vertex count, then key.

    The search runs against the maximal representatives only, those with
    ``extra_bound`` added leaves, by the leaf-monotonicity lemma: if ``R'``
    is a consistent ``R`` plus one free weight-1 leaf, every witness that
    ``R`` dominates ``L`` is a witness that ``R'`` does.  The embedding
    lands in ``R``, inside ``R'``, and keeps parents, kinds and second
    targets, and the transported weights, so ``ord_kappa``, do not change.
    Every representative below level ``extra_bound`` has such a leaf to
    grow: any final vertex has nothing proximate to it, so its excess is
    its weight, at least 1, and
    :func:`~enriques.adjacency.class_representatives` attaches a leaf at
    every vertex of positive excess.  So a candidate that no maximal
    representative dominates is dominated by no representative at all.

    Attainment needs no search: it is the jump's own certificate.
    :func:`lambda_lin` returns ``representative``, ``D_min`` plus one free
    weight-1 leaf at the chain end, with a witness that it dominates
    ``E_D``, and raises when there is none.  That representative is a
    level-1 class representative: the chain end is final, so its excess
    is its weight, at least 1.  As ``extra_bound`` is at least 1, ``E_D``
    is adjacent within the bound and ``attained_max_mu`` is ``mu_E``; the
    class representatives serve the refutation search only.

    Candidates are read off the enumeration's families (a shape and its
    minimal weightings, one per isomorphism class), and only those that
    reach the search become diagrams, on one shared structure per shape,
    keyed only for the ``D_min`` class check and contradictions.  Each
    weighting's Milnor number is carried along the enumeration's walk, in
    the coefficient form that :func:`~enriques.diagram.milnor_number`
    states and proves.
    """
    report = lambda_lin(spec)
    D_min = report.D_min
    if max_vertices is None:
        max_vertices = len(D_min) + 4
    if max_weight is None:
        max_weight = D_min.nu[D_min.root] + 2
    if extra_bound is None:
        extra_bound = 2
    for name, bound in [
        ("max_vertices", max_vertices),
        ("max_weight", max_weight),
        ("extra_bound", extra_bound),
    ]:
        _integer(bound, name, ValueError)
    if max_vertices < len(D_min):
        raise ValueError(
            f"max_vertices {max_vertices} is below the minimal diagram size {len(D_min)}"
        )
    if max_weight < max(D_min.nu.values()):
        raise ValueError(
            f"max_weight {max_weight} is below the largest minimal-diagram weight"
        )
    if extra_bound < 1:
        raise ValueError("extra_bound must be at least 1 to certify attainment")

    threshold = report.mu_D - report.lambda_lin
    top = len(D_min) + extra_bound
    maximal = [r for r in class_representatives(diagram_type(D_min), extra_bound) if len(r) == top]
    root_weight = D_min.nu[D_min.root]
    # a weighting's Milnor number is rest + r*(r - 2) = rest - 1 + squares[r]
    # for root weight r, and squares rises from r = 1 on; rest is at least 1,
    # so every root weight past the list's end is above the threshold
    squares = [(r - 1) ** 2 for r in range(min(max_weight, isqrt(max(threshold, 0)) + 2) + 1)]
    refuted_by_root, searched, found = 0, 0, []
    for family in _minimal_families(max_vertices, max_weight, DEFAULT_MAX_CANDIDATES, root_weight):
        for first, rest in family.heavy:
            # the root weights from first to max_weight above the threshold
            refuted_by_root += max_weight + 1 - bisect_right(squares, threshold + 1 - rest, first)
        for weights, mu in zip(family.weightings, family.mus):
            if mu <= threshold:
                continue
            if len(weights) == len(D_min) and mu == report.mu_D:
                if family.key(weights) == D_min.key:
                    continue
            candidate = WeightedDiagram(family.structure, weights)
            searched += 1
            if adjacency_verdict(maximal, candidate, extra_bound).holds:
                found.append((len(candidate), candidate.key, mu))
    contradictions = tuple((key, mu) for _, key, mu in sorted(found))
    examined = refuted_by_root + searched
    return MaximalityReport(
        spec=spec,
        status="contradiction" if contradictions else "verified",
        max_vertices=max_vertices,
        max_weight=max_weight,
        extra_bound=extra_bound,
        mu_D=report.mu_D,
        lambda_lin=report.lambda_lin,
        examined=examined,
        refuted=examined - len(contradictions),
        attained_max_mu=report.mu_E,
        contradictions=contradictions,
        refuted_by_root=refuted_by_root,
    )
