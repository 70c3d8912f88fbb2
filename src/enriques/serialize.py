"""Serialization of diagrams, witnesses and reports: JSON, DOT and text.

All emitters reindex vertices into canonical order (root 0, children by
canonical key), so two isomorphic diagrams serialize to identical bytes
and emitting a parsed emission is byte-stable.

Diagram JSON schema::

    {"root": 0, "vertices": [{"id": 0, "weight": 6, "parent": null,
                              "proximate_to": []}, ...]}

with dense ids in canonical order and, for non-root vertices, the parent
listed first in ``proximate_to`` followed by the remaining target.
Witness JSON carries both diagrams plus the embedding pairs, the
transported weights and the two value systems, which are derived from
the lower diagram and those weights when the witness is emitted; the
arrays are indexed by the lower diagram's canonical ids.  DOT
output marks satellite vertices gray and tags every edge with the kind of
its child vertex; text output is an indented outline, one vertex per line,
indented at most 64 levels deep.

The JSON emitters write each vertex row and array directly, one f-string
each, as ``json.dumps(..., indent=2)`` would lay it out: with an indent,
the standard library falls back to its pure-Python encoder, which cost
more than computing a jump.  :func:`diagram_to_dict`,
:func:`witness_to_dict` and :func:`jump_report_to_dict` passed to
``json.dumps(..., indent=2)`` stay the reference that the tests compare
the emitters with, byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sized
from typing import Any, Mapping

from .adjacency import GeqWitness
from .diagram import (
    DiagramError,
    ProximityDiagram,
    WeightedDiagram,
    _integer,
    require_valid,
    weighted_diagram,
)
from .jump import JumpReport
from .quasihomogeneous import MAX_DIAGRAM_VERTICES

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

# deepest indentation, in levels, that diagram_to_text prints
_TEXT_INDENT_CAP = 64


# one vertex row: id, weight, parent id and target ids
_Row = tuple[int, int, int | None, tuple[int, ...]]


def _rows(w: WeightedDiagram) -> list[_Row]:
    """``(id, weight, parent id, target ids)`` per vertex in canonical order.

    Ids are canonical positions, the root's parent id is None, and the
    target ids list the parent first, as ``prox_targets`` does.  The root
    comes first in canonical order, with no targets on a valid diagram."""
    d = w.diagram
    ids = w.canonical_ids
    position = ids.__getitem__
    nu, parent, targets = w.nu, d.parent, d.prox_targets
    items = iter(ids.items())
    root, _ = next(items)
    return [(0, nu[root], None, ())] + [
        (i, nu[v], ids[parent[v]], tuple(map(position, targets[v]))) for v, i in items
    ]


def _int_list(items: Iterable[Any], pad: str) -> str:
    """The JSON list of ``items`` (ints, or lists already written at the
    next level) as ``json.dumps(..., indent=2)`` lays it out with every
    line after the first indented by ``pad``."""
    inner = f",\n{pad}  ".join(map(str, items))
    return f"[\n{pad}  {inner}\n{pad}]" if inner else "[]"


def _diagram_json(rows: list[_Row], pad: str) -> Iterator[str]:
    """The text ``json.dumps(diagram_to_dict(w), indent=2)`` gives for the
    :func:`_rows` of ``w``, with every line after the first indented by
    ``pad``: one piece per row, between a head and a tail."""
    yield f'{{\n{pad}  "root": 0,\n{pad}  "vertices": ['
    row = f"\n{pad}    {{\n{pad}      "
    key = f",\n{pad}      "
    end = f"\n{pad}    }}"
    item = f"\n{pad}        "
    close = f"\n{pad}      ]"
    sep = ""
    for i, weight, parent, targets in rows:
        if not targets:
            listed = "[]"
        elif len(targets) == 1:
            listed = f"[{item}{targets[0]}{close}"
        else:
            listed = f"[{item}{targets[0]},{item}{targets[1]}{close}"
        yield (
            f'{sep}{row}"id": {i}{key}"weight": {weight}{key}"parent": '
            f'{"null" if parent is None else parent}{key}"proximate_to": {listed}{end}'
        )
        sep = ","
    yield f"\n{pad}  ]\n{pad}}}"


def diagram_to_dict(w: WeightedDiagram) -> dict[str, Any]:
    """Diagram as a JSON-ready dict in the frozen schema."""
    vertices = [
        {"id": i, "weight": weight, "parent": parent, "proximate_to": list(targets)}
        for i, weight, parent, targets in _rows(w)
    ]
    return {"root": 0, "vertices": vertices}


def diagram_from_dict(data: Mapping[str, Any]) -> WeightedDiagram:
    """Rebuild a diagram from the JSON schema, with int ids and weights; validates the axioms.

    More than :data:`~enriques.quasihomogeneous.MAX_DIAGRAM_VERTICES` vertex
    rows raise :class:`DiagramError`: before any row is read when the rows
    have a length, else on reaching the first row past the bound."""
    try:
        root = data["root"]
        rows = data["vertices"]
    except (KeyError, TypeError) as exc:
        raise DiagramError(f"malformed diagram object: missing {exc}") from None
    if isinstance(rows, Sized) and len(rows) > MAX_DIAGRAM_VERTICES:
        raise DiagramError(
            f"diagram has {len(rows)} vertex rows, "
            f"more than the bound of {MAX_DIAGRAM_VERTICES}"
        )
    parent: dict[int, int] = {}
    prox: dict[int, list[int]] = {}
    nu: dict[int, int] = {}
    try:
        for row in rows:
            if len(nu) == MAX_DIAGRAM_VERTICES:
                raise DiagramError(
                    f"diagram has more vertex rows than the bound of {MAX_DIAGRAM_VERTICES}"
                )
            vid = _integer(row["id"], "vertex id")
            if vid in nu:
                raise DiagramError(f"duplicate vertex id {vid}")
            nu[vid] = row["weight"]
            if row["parent"] is not None:
                parent[vid] = _integer(row["parent"], "parent")
            prox[vid] = [_integer(t, "proximity target") for t in row["proximate_to"]]
    except (KeyError, TypeError) as exc:
        raise DiagramError(f"malformed vertex row: {exc}") from None
    if _integer(root, "root") not in nu:
        raise DiagramError(f"root {root!r} is not among the vertex ids")
    diagram = ProximityDiagram(root, parent, prox)
    require_valid(diagram)
    return weighted_diagram(diagram, nu)


def diagram_to_json(w: WeightedDiagram) -> str:
    """Diagram as JSON text in the frozen schema, two-space indented, with
    a final newline.  Only a valid diagram is written, as
    :func:`diagram_from_json` reads back: an axiom violation raises
    :class:`~enriques.diagram.InvalidDiagramError`."""
    return "".join(_diagram_json(_rows(w), "")) + "\n"


def diagram_from_json(text: str) -> WeightedDiagram:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DiagramError(f"invalid JSON: {exc}") from None
    return diagram_from_dict(data)


def diagram_to_dot(w: WeightedDiagram) -> str:
    """DOT digraph; satellites are filled gray, edges carry the child's kind."""
    rows = _rows(w)
    lines = ["digraph enriques {", "  node [shape=circle];"]
    for i, weight, _, targets in rows:
        attrs = f'label="{weight}"'
        if len(targets) == 2:
            attrs += ", style=filled, fillcolor=gray"
        lines.append(f"  v{i} [{attrs}];")
    for i, _, parent, targets in rows[1:]:
        kind = "satellite" if len(targets) == 2 else "free"
        lines.append(f'  v{parent} -> v{i} [kind="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_text(w: WeightedDiagram, indent: str = "") -> str:
    """Indented outline, one vertex per line in canonical order.

    A line is indented by its vertex's depth, at most 64 levels (two
    spaces each); a deeper line ends with ``depth=<N>``, so the text grows
    linearly with the chain length."""
    depth: list[int] = []
    lines = []
    for i, weight, parent, targets in _rows(w):
        depth.append(0 if parent is None else depth[parent] + 1)
        if not targets:
            kind = "root"
        elif len(targets) == 1:
            kind = "free"
        else:
            kind = f"satellite prox=[{targets[0]},{targets[1]}]"
        if depth[i] > _TEXT_INDENT_CAP:
            kind += f" depth={depth[i]}"
        lines.append(f"{indent}{'  ' * min(depth[i], _TEXT_INDENT_CAP)}{i} w={weight} {kind}")
    return "\n".join(lines) + "\n"


def _witness_arrays(
    upper: WeightedDiagram, lower: WeightedDiagram, witness: GeqWitness
) -> dict[str, list]:
    """The witness's four arrays, indexed by lower canonical ids, as
    :func:`witness_to_dict`, the report writer and the CLI's text output
    give them.

    ``ord_nu`` and ``ord_kappa`` are the value systems
    (:attr:`~enriques.diagram.WeightedDiagram.orders`) of the lower
    weights and of ``kappa`` on the lower diagram."""
    upper_ids = upper.canonical_ids
    ids = lower.canonical_ids
    kappa = dict(witness.kappa)
    d = lower.diagram
    ord_kappa = WeightedDiagram(d, tuple([kappa[v] for v in d.vertices])).orders
    return {
        "embedding": sorted([ids[v], upper_ids[u]] for v, u in witness.embedding.pairs),
        "kappa": [kappa[v] for v in ids],
        "ord_nu": [lower.orders[v] for v in ids],
        "ord_kappa": [ord_kappa[v] for v in ids],
    }


def witness_to_dict(
    upper: WeightedDiagram, lower: WeightedDiagram, witness: GeqWitness
) -> dict[str, Any]:
    """Witness as a JSON-ready dict: both diagrams, then the arrays of
    :func:`_witness_arrays`."""
    arrays = _witness_arrays(upper, lower, witness)
    return {"upper": diagram_to_dict(upper), "lower": diagram_to_dict(lower), **arrays}


def jump_report_to_dict(report: JumpReport) -> dict[str, Any]:
    """Jump report as a JSON-ready dict in the frozen key order.

    A jump report carries no maximality verdict, so that block is constant.
    ``E_D`` is the witness's lower diagram, so ``"E_D"`` and the
    witness's ``"lower"`` are one dict, built once.
    """
    witness = witness_to_dict(report.representative, report.E_D, report.adjacency_witness)
    out: dict[str, Any] = {
        "spec": [report.spec.k, report.spec.l, report.spec.p, report.spec.q],
        "d": report.d,
        "t": report.t,
        "w": report.w,
        "mu": report.mu_D,
        "lambda_lin": report.lambda_lin,
        "E_D": witness["lower"],
        "witness": witness,
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


def _jump_report_json(report: JumpReport) -> Iterator[str]:
    """The text ``json.dumps(jump_report_to_dict(report), indent=2)``
    gives, in pieces: one per diagram row, array and block.  ``E_D``'s
    rows are found once, for ``"E_D"`` and the witness's ``"lower"``."""
    spec = report.spec
    yield (
        f'{{\n  "spec": {_int_list([spec.k, spec.l, spec.p, spec.q], "  ")},\n'
        f'  "d": {report.d},\n  "t": {report.t},\n  "w": {report.w},\n'
        f'  "mu": {report.mu_D},\n  "lambda_lin": {report.lambda_lin},\n  "E_D": '
    )
    lower = _rows(report.E_D)
    yield from _diagram_json(lower, "  ")
    yield ',\n  "witness": {\n    "upper": '
    yield from _diagram_json(_rows(report.representative), "    ")
    yield ',\n    "lower": '
    yield from _diagram_json(lower, "    ")
    arrays = _witness_arrays(report.representative, report.E_D, report.adjacency_witness)
    arrays["embedding"] = [_int_list(pair, "      ") for pair in arrays["embedding"]]
    for field, values in arrays.items():
        yield f',\n    "{field}": {_int_list(values, "    ")}'
    yield (
        '\n  },\n  "maximality": {\n    "status": "unverified",\n'
        '    "max_vertices": null,\n    "max_weight": null,\n    "extra_bound": null\n  }'
    )
    yield ',\n  "semi": true\n}' if report.semi else "\n}"
