"""JSON, DOT and text emission, plus the structured report objects."""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import enriques.diagram
from enriques import (
    MAX_DIAGRAM_VERTICES,
    DiagramError,
    ProximityDiagram,
    WeightedDiagram,
    check_geq_witness,
    QuasihomogeneousSpec,
    add_leaf,
    InvalidDiagramError,
    build_enriques_diagram,
    canonical_key,
    canonical_order,
    construct_adjacent_diagram,
    diagram_from_dict,
    diagram_from_json,
    diagram_to_dict,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    enumerate_minimal_diagrams,
    geq,
    jump_report_to_dict,
    lambda_lin,
    lambda_lin_semi,
    minimal_diagram,
    relabel,
    single_vertex,
    witness_to_dict,
)
from enriques.serialize import _jump_report_json
from helpers import cusp_minimal, random_consistent, wd
from test_acceptance import all_specs

GOLDEN = Path(__file__).parent / "golden"


def reference_json(w):
    """What diagram_to_json writes: the dict schema through json.dumps."""
    return json.dumps(diagram_to_dict(w), indent=2) + "\n"


def reference_report(report):
    """What the report writer writes: the dict schema through json.dumps."""
    return json.dumps(jump_report_to_dict(report), indent=2)


def test_diagram_dict_schema():
    data = diagram_to_dict(cusp_minimal())
    assert data == {
        "root": 0,
        "vertices": [
            {"id": 0, "weight": 2, "parent": None, "proximate_to": []},
            {"id": 1, "weight": 1, "parent": 0, "proximate_to": [0]},
            {"id": 2, "weight": 1, "parent": 1, "proximate_to": [1, 0]},
        ],
    }


def test_diagram_dict_normalises_ids():
    scrambled = relabel(cusp_minimal(), {0: 5, 1: 9, 2: 2})
    assert diagram_to_dict(scrambled) == diagram_to_dict(cusp_minimal())


def test_satellite_proximity_lists_parent_first():
    data = diagram_to_dict(cusp_minimal())
    assert data["vertices"][2]["proximate_to"] == [1, 0]


def test_json_round_trip_is_stable():
    for w in (single_vertex(3), cusp_minimal(), minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))):
        text = diagram_to_json(w)
        assert text.endswith("\n")
        again = diagram_from_json(text)
        assert canonical_key(again) == canonical_key(w)
        assert diagram_to_json(again) == text


def test_writers_match_the_reference_on_every_small_germ():
    # the complete diagram, D_min, E_D and representative of each of the
    # 1,830 germs with q <= 30, and each germ's jump report
    diagrams = reports = 0
    for spec in all_specs(30):
        report = lambda_lin(spec)
        for w in (build_enriques_diagram(spec), report.D_min, report.E_D, report.representative):
            assert diagram_to_json(w) == reference_json(w), spec
            diagrams += 1
        assert "".join(_jump_report_json(report)) == reference_report(report), spec
        reports += 1
    assert (diagrams, reports) == (7_320, 1_830)


def test_report_writer_matches_the_reference_on_semi_reports():
    reports = [lambda_lin_semi(spec) for spec in all_specs(7)]
    assert len(reports) == 105 and all(report.semi for report in reports)
    for report in reports:
        assert "".join(_jump_report_json(report)) == reference_report(report), report.spec


def test_diagram_writer_matches_the_reference_on_random_diagrams():
    # branching diagrams, which no germ's chain has: several children per
    # vertex, satellites leaning on any ancestor's target
    rng = random.Random(27)
    sizes = set()
    branching = satellites = 0
    for _ in range(600):
        w = random_consistent(rng, max_vertices=12)
        assert diagram_to_json(w) == reference_json(w), w
        sizes.add(len(w))
        branching += any(len(c) > 1 for c in w.diagram.children.values())
        satellites += any(len(t) == 2 for t in w.diagram.prox_targets.values())
    # 468 branching diagrams and 379 with a satellite
    assert sizes == set(range(1, 13)) and branching >= 400 and satellites >= 300
    for w in (single_vertex(1), single_vertex(17)):
        assert '"proximate_to": []' in diagram_to_json(w)
        assert diagram_to_json(w) == reference_json(w)


def test_diagram_writer_matches_the_reference_on_the_goldens_and_a_long_chain():
    for name in ("x6y9_minimal.json", "x6y9_adjacent.json"):
        text = (GOLDEN / name).read_text()
        w = diagram_from_json(text)
        assert diagram_to_json(w) == reference_json(w) == text
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))
    text = (GOLDEN / "jump_x6y9.json").read_text()
    assert "".join(_jump_report_json(report)) == reference_report(report) == text.removesuffix("\n")
    e = lambda_lin(QuasihomogeneousSpec(0, 0, 2, 39999)).E_D
    assert len(e) == 19_999
    assert diagram_to_json(e) == reference_json(e)


def test_json_uses_two_space_indent():
    text = diagram_to_json(single_vertex(1))
    assert text == (
        '{\n  "root": 0,\n  "vertices": [\n    {\n      "id": 0,\n'
        '      "weight": 1,\n      "parent": null,\n      "proximate_to": []\n'
        "    }\n  ]\n}\n"
    )


def row(**fields):
    """One vertex row of the diagram JSON schema, a weight-1 root unless changed."""
    return {"id": 0, "weight": 1, "parent": None, "proximate_to": [], **fields}


@pytest.mark.parametrize(
    "data,fragment",
    [
        ({}, "root"),
        ({"root": 0}, "vertices"),
        ({"root": 0, "vertices": [{"id": 0, "weight": 1}]}, "parent"),
        (
            {
                "root": 0,
                "vertices": [
                    {"id": 0, "weight": 1, "parent": None, "proximate_to": []},
                    {"id": 0, "weight": 1, "parent": 0, "proximate_to": [0]},
                ],
            },
            "duplicate vertex id",
        ),
        ({"root": 0, "vertices": [row(weight=2.7)]}, "weight must be an integer"),
        ({"root": 0, "vertices": [row(weight=True)]}, "weight must be an integer"),
        ({"root": 0, "vertices": [row(weight="3")]}, "weight must be an integer"),
        ({"root": 0, "vertices": [row(id=0.0)]}, "vertex id must be an integer"),
        ({"root": False, "vertices": [row()]}, "root must be an integer"),
        (
            {"root": 0, "vertices": [row(weight=2), row(id=1, parent=0.9, proximate_to=[0])]},
            "parent must be an integer",
        ),
        (
            {"root": 0, "vertices": [row(weight=2), row(id=1, parent=0, proximate_to=[0.2])]},
            "proximity target must be an integer",
        ),
        ({"root": 5, "vertices": [row()]}, "root 5 is not among the vertex ids"),
    ],
)
def test_from_dict_rejects_malformed_input(data, fragment):
    with pytest.raises(DiagramError) as exc:
        diagram_from_dict(data)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        '{"root": 0,',
        # nesting past the interpreter's recursion limit
        "[" * 100_000,
        # an integer past the interpreter's limit on digits converted
        '{"root": ' + "9" * 5000 + ', "vertices": []}',
    ],
    ids=["truncated", "deep", "long-integer"],
)
def test_from_json_rejects_unreadable_text(text):
    with pytest.raises(DiagramError, match="invalid JSON"):
        diagram_from_json(text)


def test_from_dict_refuses_too_many_rows_before_reading_them():
    # the rows are not even dicts: reading one would fail differently
    rows = [None] * (MAX_DIAGRAM_VERTICES + 1)
    with pytest.raises(DiagramError, match=f"{MAX_DIAGRAM_VERTICES + 1} vertex rows"):
        diagram_from_dict({"root": 0, "vertices": rows})
    with pytest.raises(DiagramError, match="malformed vertex row"):
        diagram_from_dict({"root": 0, "vertices": rows[:MAX_DIAGRAM_VERTICES]})


def test_from_dict_refuses_too_many_rows_from_a_generator():
    def chain(n):
        yield {"id": 0, "weight": 1, "parent": None, "proximate_to": []}
        for i in range(1, n):
            yield {"id": i, "weight": 1, "parent": i - 1, "proximate_to": [i - 1]}

    rows = chain(MAX_DIAGRAM_VERTICES + 5)
    with pytest.raises(DiagramError, match=f"bound of {MAX_DIAGRAM_VERTICES}"):
        diagram_from_dict({"root": 0, "vertices": rows})
    # refused at the first row past the bound, the rest left unread
    assert next(rows)["id"] == MAX_DIAGRAM_VERTICES + 1
    assert len(diagram_from_dict({"root": 0, "vertices": chain(1000)})) == 1000
    with pytest.raises(DiagramError, match="malformed vertex row"):
        diagram_from_dict({"root": 0, "vertices": 5})


def test_from_dict_refuses_a_row_no_edge_reaches():
    data = {
        "root": 0,
        "vertices": [
            {"id": 0, "weight": 2, "parent": None, "proximate_to": []},
            {"id": 1, "weight": 1, "parent": 0, "proximate_to": [0]},
            {"id": 7, "weight": 5, "parent": None, "proximate_to": []},
        ],
    }
    with pytest.raises(DiagramError, match=r"not vertices: \[7\]"):
        diagram_from_dict(data)


def test_from_dict_validates_axioms():
    data = {
        "root": 0,
        "vertices": [
            {"id": 0, "weight": 2, "parent": None, "proximate_to": []},
            {"id": 1, "weight": 1, "parent": 0, "proximate_to": []},
        ],
    }
    with pytest.raises(DiagramError):
        diagram_from_dict(data)


@pytest.mark.parametrize(
    "emit", [canonical_key, canonical_order, diagram_to_json, diagram_to_dot, diagram_to_text]
)
def test_keys_and_emitters_refuse_an_axiom_5_violation(emit):
    # satellites 2 and 3 are both proximate to 1 and 0; a key or document
    # of it would name a diagram that diagram_from_json refuses
    w = wd(0, {1: 0, 2: 1, 3: 1}, [(1, 0), (2, 1), (2, 0), (3, 1), (3, 0)], {0: 4, 1: 2, 2: 1, 3: 1})
    with pytest.raises(InvalidDiagramError, match="2 vertices proximate to both 0 and 1"):
        emit(w)


@pytest.mark.timed
def test_from_dict_reads_a_chain_with_falling_ids_in_linear_time():
    # the deepest vertex has the smallest id, so the first parent chain
    # walked is the whole chain; a walk that scanned its own path for
    # cycles took 13 s at 40,000 rows
    n = 50_000
    rows = [
        {"id": n - 1 - i, "weight": 1, "parent": n - i if i else None,
         "proximate_to": [n - i] if i else []}
        for i in range(n)
    ]
    started = time.perf_counter()
    w = diagram_from_dict({"root": n - 1, "vertices": rows})
    assert time.perf_counter() - started < 2
    assert len(w) == n and w.diagram.parent[0] == 1


def test_dot_output():
    assert diagram_to_dot(cusp_minimal()) == (
        "digraph enriques {\n"
        "  node [shape=circle];\n"
        '  v0 [label="2"];\n'
        '  v1 [label="1"];\n'
        '  v2 [label="1", style=filled, fillcolor=gray];\n'
        '  v0 -> v1 [kind="free"];\n'
        '  v1 -> v2 [kind="satellite"];\n'
        "}\n"
    )


def test_text_output_and_indent():
    assert diagram_to_text(cusp_minimal()) == (
        "0 w=2 root\n"
        "  1 w=1 free\n"
        "    2 w=1 satellite prox=[1,0]\n"
    )
    assert diagram_to_text(single_vertex(4), indent="| ") == "| 0 w=4 root\n"


def test_text_indent_is_capped_so_a_deep_chain_prints_short_lines():
    chain = minimal_diagram(QuasihomogeneousSpec(0, 0, 2, 799))  # depth 400
    lines = diagram_to_text(chain).splitlines()
    assert len(lines) == len(chain) == 401
    assert lines[64] == "  " * 64 + "64 w=2 free"
    assert lines[65] == "  " * 64 + "65 w=2 free depth=65"
    assert lines[-1] == "  " * 64 + "400 w=1 satellite prox=[399,398] depth=400"
    assert max(map(len, lines)) == len(lines[-1])


def test_witness_dict_arrays_follow_lower_canonical_ids():
    m = minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9))
    e = construct_adjacent_diagram(m)
    grown = add_leaf(m, 2, 1)
    data = witness_to_dict(grown, e, geq(grown, e))
    assert data["embedding"] == [[0, 0], [1, 1], [2, 2], [3, 3]]
    assert data["kappa"] == [6, 3, 3, 1]
    assert data["ord_nu"] == [6, 9, 17, 19]
    assert data["ord_kappa"] == [6, 9, 18, 19]
    assert data["upper"] == diagram_to_dict(grown)
    assert data["lower"] == diagram_to_dict(e)


def test_jump_report_dict_key_order():
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 2, 3))
    data = jump_report_to_dict(report)
    assert list(data.keys()) == [
        "spec", "d", "t", "w", "mu", "lambda_lin", "E_D", "witness", "maximality",
    ]
    assert data["spec"] == [0, 0, 2, 3]
    assert data["mu"] == 2
    assert data["lambda_lin"] == 1
    assert data["maximality"] == {
        "status": "unverified",
        "max_vertices": None,
        "max_weight": None,
        "extra_bound": None,
    }


def test_jump_report_dict_semi_flag_is_last_and_optional():
    plain = jump_report_to_dict(lambda_lin(QuasihomogeneousSpec(0, 0, 2, 3)))
    assert "semi" not in plain
    flagged = jump_report_to_dict(lambda_lin_semi(QuasihomogeneousSpec(0, 0, 2, 3)))
    assert list(flagged.keys())[-1] == "semi"
    assert flagged["semi"] is True


def test_jump_report_dict_is_json_serialisable():
    data = jump_report_to_dict(lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9)))
    text = json.dumps(data)
    assert json.loads(text)["lambda_lin"] == 3


def test_emitters_are_pinned():
    # SHA-256 of every emission, recorded at 8068afa: text with and without
    # an indent, JSON and DOT of each minimal diagram up to 7 vertices and
    # weight 5 and of each germ's complete diagram and E_D for q <= 30,
    # plus each of those germs' jump report as JSON
    digest = hashlib.sha256()
    emissions = 0

    def emit(text):
        nonlocal emissions
        digest.update(text.encode())
        digest.update(b"\0")
        emissions += 1

    reports = [lambda_lin(spec) for spec in all_specs(30)]
    diagrams = [*enumerate_minimal_diagrams(7, 5)]
    diagrams += [build_enriques_diagram(report.spec) for report in reports]
    diagrams += [report.E_D for report in reports]
    for w in diagrams:
        emit(diagram_to_text(w))
        emit(diagram_to_text(w, indent="| "))
        emit(diagram_to_json(w))
        emit(diagram_to_dot(w))
    for report in reports:
        emit(json.dumps(jump_report_to_dict(report)))
    assert emissions == 21_302
    assert digest.hexdigest() == (
        "1fbe5904376edba976d48b9a62d3b04477c3cadbba114d72e8b7634b91604e0c"
    )


def test_a_diagram_read_from_json_walks_its_tree_once(monkeypatch):
    text = diagram_to_json(minimal_diagram(QuasihomogeneousSpec(0, 0, 6, 9)))
    walks = []
    walk = enriques.diagram._preorder

    def counting(children, start):
        walks.append(start)
        return walk(children, start)

    monkeypatch.setattr(enriques.diagram, "_preorder", counting)
    assert diagram_to_json(diagram_from_json(text)) == text
    # the validation's reach, kept as preorder, and the canonical form's
    # walk over positions
    assert len(walks) == 2


def test_the_witness_check_seeds_no_cache():
    report = lambda_lin(QuasihomogeneousSpec(0, 0, 6, 9))

    def fresh(w):
        d = w.diagram
        return WeightedDiagram(ProximityDiagram(d.root, d.parent_edges, d.proximity), w.weights)

    upper, lower = fresh(report.representative), fresh(report.E_D)
    assert check_geq_witness(upper, lower, report.adjacency_witness)
    for w in (upper, lower):
        assert "preorder" not in w.diagram.__dict__
        assert "violations" not in w.diagram.__dict__
