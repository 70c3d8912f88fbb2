"""The package namespace: one declaration of each public name, in its module."""

import importlib

import enriques

MODULES = ("diagram", "enumeration", "quasihomogeneous", "adjacency", "jump", "serialize")

# enriques.__all__ at 8068afa, grouped by the module that defines each name
EXPORTED_AT_8068AFA = {
    "diagram": (
        "DiagramError", "InvalidDiagramError", "InconsistentDiagramError",
        "UnknownVertexError", "Violation", "Kind", "VertexKind", "ProximityDiagram",
        "WeightedDiagram", "DiagramType", "proximity_diagram", "weighted_diagram",
        "single_vertex", "validate_axioms", "require_valid", "classify",
        "order_of_values", "excesses", "total_excess", "is_consistent", "is_complete",
        "is_minimal", "milnor_number", "minimalize", "canonical_key", "canonical_order",
        "add_leaf", "remove_vertices", "relabel", "diagram_type",
    ),
    "enumeration": (
        "EnumerationLimitError", "enumerate_minimal_diagrams", "DEFAULT_MAX_CANDIDATES",
    ),
    "quasihomogeneous": (
        "SpecParseError", "QuasihomogeneousSpec", "DerivedInvariants",
        "QMembershipReport", "parse_spec", "derived_invariants", "milnor_orlik",
        "build_enriques_diagram", "MAX_DIAGRAM_VERTICES", "minimal_diagram",
        "is_bamboo", "bamboo_invariants", "check_Q_membership",
    ),
    "adjacency": (
        "SubdiagramEmbedding", "GeqWitness", "AdjacencyVerdict", "geq",
        "check_geq_witness", "class_representatives", "linear_adjacent",
    ),
    "jump": (
        "JumpReport", "MaximalityReport", "construct_adjacent_diagram",
        "expected_jump", "lambda_lin", "lambda_lin_semi", "verify_maximality",
    ),
    "serialize": (
        "diagram_to_dict", "diagram_from_dict", "diagram_to_json", "diagram_from_json",
        "diagram_to_dot", "diagram_to_text", "witness_to_dict", "jump_report_to_dict",
    ),
}


def test_earlier_exports_resolve_to_their_module_objects():
    assert sum(map(len, EXPORTED_AT_8068AFA.values())) == 68
    for module_name, names in EXPORTED_AT_8068AFA.items():
        module = importlib.import_module(f"enriques.{module_name}")
        for name in names:
            assert name in enriques.__all__, name
            assert getattr(enriques, name) is getattr(module, name), name
    assert "__version__" in enriques.__all__
    assert len(set(enriques.__all__)) == len(enriques.__all__)


def test_package_exports_exactly_the_module_lists():
    modules = [importlib.import_module(f"enriques.{name}") for name in MODULES]
    expected = [name for module in modules for name in module.__all__]
    assert sorted(enriques.__all__) == sorted([*expected, "__version__"])
    for name in ("adjacency_verdict", "bamboo_chain", "canonical_form"):
        assert name in enriques.__all__
        assert callable(getattr(enriques, name))
