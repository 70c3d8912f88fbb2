"""JSON, DOT and text emission, plus the structured report objects."""

import json

import pytest

from enriques import (
    DiagramError,
    QuasihomogeneousSpec,
    add_leaf,
    canonical_key,
    construct_adjacent_diagram,
    diagram_from_dict,
    diagram_from_json,
    diagram_to_dict,
    diagram_to_dot,
    diagram_to_json,
    diagram_to_text,
    geq,
    jump_report_to_dict,
    lambda_lin,
    lambda_lin_semi,
    minimal_diagram,
    relabel,
    single_vertex,
    witness_to_dict,
)
from helpers import cusp_minimal


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
    ],
)
def test_from_dict_rejects_malformed_input(data, fragment):
    with pytest.raises(DiagramError) as exc:
        diagram_from_dict(data)
    assert fragment in str(exc.value)


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
