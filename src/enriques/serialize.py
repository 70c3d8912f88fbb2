"""Serialization of diagrams, witnesses and reports: JSON, DOT and text.

All emitters reindex vertices into canonical order (root 0, children by
canonical key), so two isomorphic diagrams serialize to identical bytes
and emitting a parsed emission is byte-stable.

Diagram JSON schema::

    {"root": 0, "vertices": [{"id": 0, "weight": 6, "parent": null,
                              "proximate_to": []}, ...]}

with dense ids in canonical order and, for non-root vertices, the parent
listed first in ``proximate_to`` followed by the remaining target.
Witness JSON carries both diagrams plus the embedding pairs and the
weight/value arrays indexed by the lower diagram's canonical ids.  DOT
output marks satellite vertices gray and tags every edge with the kind of
its child vertex; text output is an indented outline, one vertex per line.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .adjacency import GeqWitness
from .diagram import (
    DiagramError,
    WeightedDiagram,
    canonical_order,
    proximity_diagram,
    require_valid,
    weighted_diagram,
)
from .jump import JumpReport

__all__ = [
    "diagram_to_dict",
    "diagram_from_dict",
    "diagram_to_json",
    "diagram_from_json",
    "diagram_to_dot",
    "diagram_to_text",
    "witness_to_dict",
    "jump_report_to_dict",
]


def _canonical_ids(w: WeightedDiagram) -> dict[int, int]:
    return {v: i for i, v in enumerate(canonical_order(w))}


def diagram_to_dict(w: WeightedDiagram) -> dict[str, Any]:
    """Diagram as a JSON-ready dict in the frozen schema."""
    ids = _canonical_ids(w)
    d = w.diagram
    vertices = []
    for v in canonical_order(w):
        targets = d.prox_targets[v]
        if targets:
            head = ids[d.parent[v]]
            rest = sorted(ids[t] for t in targets if t != d.parent[v])
            proximate_to = [head, *rest]
        else:
            proximate_to = []
        vertices.append(
            {
                "id": ids[v],
                "weight": w.nu[v],
                "parent": ids[d.parent[v]] if v != d.root else None,
                "proximate_to": proximate_to,
            }
        )
    return {"root": 0, "vertices": vertices}


def diagram_from_dict(data: Mapping[str, Any]) -> WeightedDiagram:
    """Rebuild a diagram from the JSON schema, with int ids and weights; validates the axioms."""
    try:
        root = data["root"]
        rows = data["vertices"]
    except (KeyError, TypeError) as exc:
        raise DiagramError(f"malformed diagram object: missing {exc}") from None
    parent: dict[int, int] = {}
    prox: list[tuple[int, int]] = []
    nu: dict[int, int] = {}
    try:
        for row in rows:
            vid = _integer(row["id"], "vertex id")
            if vid in nu:
                raise DiagramError(f"duplicate vertex id {vid}")
            nu[vid] = _integer(row["weight"], "weight")
            if row["parent"] is not None:
                parent[vid] = _integer(row["parent"], "parent")
            for target in row["proximate_to"]:
                prox.append((vid, _integer(target, "proximity target")))
    except (KeyError, TypeError) as exc:
        raise DiagramError(f"malformed vertex row: {exc}") from None
    if _integer(root, "root") not in nu:
        raise DiagramError(f"root {root!r} is not among the vertex ids")
    diagram = proximity_diagram(root, parent, prox)
    require_valid(diagram)
    return weighted_diagram(diagram, nu)


def _integer(value: Any, what: str) -> int:
    if type(value) is not int:
        raise DiagramError(f"{what} must be an integer, got {value!r}")
    return value


def diagram_to_json(w: WeightedDiagram) -> str:
    return json.dumps(diagram_to_dict(w), indent=2) + "\n"


def diagram_from_json(text: str) -> WeightedDiagram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"invalid JSON: {exc}") from None
    return diagram_from_dict(data)


def diagram_to_dot(w: WeightedDiagram) -> str:
    """DOT digraph; satellites are filled gray, edges carry the child's kind."""
    ids = _canonical_ids(w)
    d = w.diagram
    order = canonical_order(w)
    lines = ["digraph enriques {", "  node [shape=circle];"]
    for v in order:
        attrs = f'label="{w.nu[v]}"'
        if len(d.prox_targets[v]) == 2:
            attrs += ", style=filled, fillcolor=gray"
        lines.append(f"  v{ids[v]} [{attrs}];")
    for v in order:
        if v == d.root:
            continue
        kind = "satellite" if len(d.prox_targets[v]) == 2 else "free"
        lines.append(f'  v{ids[d.parent[v]]} -> v{ids[v]} [kind="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_text(w: WeightedDiagram, indent: str = "") -> str:
    """Indented outline, one vertex per line in canonical order."""
    ids = _canonical_ids(w)
    d = w.diagram
    depth: dict[int, int] = {d.root: 0}
    lines = []
    for v in canonical_order(w):
        if v != d.root:
            depth[v] = depth[d.parent[v]] + 1
        targets = d.prox_targets[v]
        if not targets:
            kind = "root"
        elif len(targets) == 1:
            kind = "free"
        else:
            kind = f"satellite prox=[{ids[targets[0]]},{ids[targets[1]]}]"
        lines.append(f"{indent}{'  ' * depth[v]}{ids[v]} w={w.nu[v]} {kind}")
    return "\n".join(lines) + "\n"


def witness_to_dict(
    upper: WeightedDiagram, lower: WeightedDiagram, witness: GeqWitness
) -> dict[str, Any]:
    """Witness as a JSON-ready dict, arrays indexed by lower canonical ids."""
    upper_ids = _canonical_ids(upper)
    lower_ids = _canonical_ids(lower)
    embedding = sorted(
        [lower_ids[v], upper_ids[u]] for v, u in witness.embedding.pairs
    )
    by_position = sorted(lower_ids, key=lower_ids.__getitem__)
    kappa = dict(witness.kappa)
    ord_nu = dict(witness.ord_nu)
    ord_kappa = dict(witness.ord_kappa)
    return {
        "upper": diagram_to_dict(upper),
        "lower": diagram_to_dict(lower),
        "embedding": embedding,
        "kappa": [kappa[v] for v in by_position],
        "ord_nu": [ord_nu[v] for v in by_position],
        "ord_kappa": [ord_kappa[v] for v in by_position],
    }


def jump_report_to_dict(report: JumpReport) -> dict[str, Any]:
    """Jump report as a JSON-ready dict in the frozen key order.

    A jump report carries no maximality verdict, so that block is constant.
    """
    out: dict[str, Any] = {
        "spec": [report.spec.k, report.spec.l, report.spec.p, report.spec.q],
        "d": report.d,
        "t": report.t,
        "w": report.w,
        "mu": report.mu_D,
        "lambda_lin": report.lambda_lin,
        "E_D": diagram_to_dict(report.E_D),
        "witness": witness_to_dict(
            report.representative, report.E_D, report.adjacency_witness
        ),
        "maximality": {
            "status": "unverified",
            "max_vertices": None,
            "max_weight": None,
            "extra_bound": None,
        },
    }
    if report.semi:
        out["semi"] = True
    return out
