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
linear-adjacency target, and the bound ``mu - jump`` itself is attained.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .adjacency import GeqWitness, adjacency_verdict, class_representatives, geq
from .diagram import (
    DiagramError,
    WeightedDiagram,
    add_leaf,
    diagram_type,
    is_minimal,
    milnor_number,
    minimalize,
    proximity_diagram,
    weighted_diagram,
)
from .enumeration import enumerate_minimal_diagrams
from .quasihomogeneous import (
    QuasihomogeneousSpec,
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
    threshold ``mu_D - lambda_lin`` was refuted and the threshold itself
    is attained; "contradiction" when some candidate was adjacent after
    all (each such finding is listed with its canonical key and Milnor
    number); "unverified" when nothing was refutable but attainment could
    not be certified within the bound.  A verified report only means no
    counterexample exists within the stated bounds.  ``refuted`` counts
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
    attained_max_mu: int | None
    contradictions: tuple[tuple[str, int], ...] = ()
    refuted_by_root: int = 0


def construct_adjacent_diagram(D: WeightedDiagram) -> WeightedDiagram:
    """Minimal diagram of an adjacent type exactly one jump below ``D``.

    ``D`` must be a minimal chain with end weight ``d`` and length ``t``,
    ``d*t > 1``.  The surgery depends on the end vertex: for ``d = 1``
    drop it; for ``d = 2`` lower it to 1 and hang a new weight-1 vertex
    proximate to the last two chain vertices (a lone root of weight 2
    simply becomes the weight-1 single vertex); for ``d >= 3`` lower the
    end to ``d - 1``, attach a free vertex of weight 2, and below it a
    run of ``d - 3`` weight-1 vertices each proximate to its parent and
    to the chain end.  The edit is made on copies of ``D``'s maps, new
    vertices taking the ids after ``D``'s largest, and the one diagram it
    gives is minimalized; the result is always of a different type than ``D``.
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

    parent = dict(D.diagram.parent)
    prox = list(D.diagram.proximity)
    nu = dict(D.nu)
    if d == 1:
        del parent[end], nu[end]
        prox = [pair for pair in prox if pair[0] != end]
    else:
        nu[end] = d - 1
        if d == 2:
            run = [(chain[-2], 1)] if t > 1 else []
        else:
            run = [(None, 2)] + [(end, 1)] * (d - 3)
        at = end
        for new, (second, weight) in enumerate(run, max(D.diagram.vertices) + 1):
            parent[new], nu[new] = at, weight
            prox.extend((new, target) for target in (at, second) if target is not None)
            at = new
    result = minimalize(weighted_diagram(proximity_diagram(D.root, parent, prox), nu))

    if result.key == D.key:
        raise RuntimeError("adjacent-diagram surgery failed to change the type")
    return result


def expected_jump(d: int, w: int) -> int:
    """Closed form of the jump in terms of the chain profile (d, w)."""
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
    Finally the bound must be attained: the constructed adjacent diagram
    itself is certified adjacent, making ``mu_D - lambda_lin`` the exact
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
    as examined and refuted (and in ``refuted_by_root``) without a search;
    they cannot be ``D_min`` itself, so their canonical key is never
    needed.  Every other candidate goes to the second stage, the bounded
    domination search of :func:`~enriques.adjacency.adjacency_verdict`.
    """
    report = lambda_lin(spec)
    D_min = report.D_min
    if max_vertices is None:
        max_vertices = len(D_min) + 4
    if max_weight is None:
        max_weight = D_min.nu[D_min.root] + 2
    if extra_bound is None:
        extra_bound = 2
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
    source = diagram_type(D_min)
    representatives = list(class_representatives(source, extra_bound))

    attained = adjacency_verdict(representatives, report.E_D, extra_bound)
    root_weight = D_min.nu[D_min.root]
    examined = 0
    refuted = 0
    refuted_by_root = 0
    contradictions: list[tuple[str, int]] = []
    for candidate in enumerate_minimal_diagrams(max_vertices, max_weight):
        heavy_root = candidate.nu[candidate.root] > root_weight
        if not heavy_root and candidate.key == D_min.key:
            continue
        mu_candidate = milnor_number(candidate)
        if mu_candidate <= threshold:
            continue
        examined += 1
        if heavy_root:
            refuted += 1
            refuted_by_root += 1
            continue
        verdict = adjacency_verdict(representatives, candidate, extra_bound)
        if verdict.holds:
            contradictions.append((candidate.key, mu_candidate))
        else:
            refuted += 1

    if contradictions:
        status = "contradiction"
    elif attained.holds:
        status = "verified"
    else:
        status = "unverified"
    return MaximalityReport(
        spec=spec,
        status=status,
        max_vertices=max_vertices,
        max_weight=max_weight,
        extra_bound=extra_bound,
        mu_D=report.mu_D,
        lambda_lin=report.lambda_lin,
        examined=examined,
        refuted=refuted,
        attained_max_mu=report.mu_E if attained.holds else None,
        contradictions=tuple(contradictions),
        refuted_by_root=refuted_by_root,
    )
