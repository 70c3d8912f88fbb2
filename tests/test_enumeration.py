"""Bounded enumeration of minimal diagrams up to isomorphism."""

import hashlib

import pytest

from enriques import (
    EnumerationLimitError,
    InvalidDiagramError,
    canonical_key,
    enumerate_minimal_diagrams,
    is_minimal,
    validate_axioms,
)
from enriques.cli import run
from helpers import wd


def keys(max_vertices, max_weight, **kw):
    return [canonical_key(w) for w in enumerate_minimal_diagrams(max_vertices, max_weight, **kw)]


def test_single_vertex_bounds():
    assert keys(1, 1) == ["(1r)"]
    assert keys(1, 3) == ["(1r)", "(2r)", "(3r)"]


def test_two_vertices_weight_two():
    assert keys(2, 2) == ["(1r)", "(2r)", "(2r(2f))"]


def test_three_vertices_weight_two():
    assert keys(3, 2) == [
        "(1r)",
        "(2r)",
        "(2r(2f))",
        "(2r(1f(1a)))",
        "(2r(2f(2f)))",
    ]


def test_counts_at_small_bounds():
    assert len(keys(2, 2)) == 3
    assert len(keys(3, 2)) == 5
    assert len(keys(1, 3)) == 3


def test_yields_are_valid_minimal_and_deduplicated():
    seen = set()
    sizes = []
    for w in enumerate_minimal_diagrams(4, 3):
        assert validate_axioms(w.diagram) == []
        assert is_minimal(w)
        k = canonical_key(w)
        assert k not in seen
        seen.add(k)
        sizes.append(len(w))
    # levels come out by increasing vertex count
    assert sizes == sorted(sizes)
    assert len(seen) == 24


def test_vertex_ids_are_dense_with_root_zero():
    for w in enumerate_minimal_diagrams(3, 2):
        assert w.diagram.root == 0
        assert sorted(w.diagram.vertices) == list(range(len(w)))


def test_within_level_order_is_by_key():
    by_size = {}
    for w in enumerate_minimal_diagrams(4, 2):
        by_size.setdefault(len(w), []).append(canonical_key(w))
    for ks in by_size.values():
        assert ks == sorted(ks)


def test_weight_bound_is_respected():
    for w in enumerate_minimal_diagrams(3, 4):
        assert all(1 <= v <= 4 for v in w.nu.values())


def test_candidate_cap_raises():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_minimal_diagrams(6, 4, max_candidates=50))


def test_argument_validation():
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(2, 0))
    with pytest.raises(ValueError):
        list(enumerate_minimal_diagrams(2, 2, max_candidates=0))


def test_monotone_in_bounds():
    small = set(keys(3, 2))
    assert small <= set(keys(4, 2))
    assert small <= set(keys(3, 3))


def test_enumerate_output_is_pinned_byte_for_byte(capsys):
    # digests of `enriques enumerate --max-vertices 7 --max-weight 6` in
    # both formats; they pin every canonical key and canonical order
    expected = {
        "text": "24e71367626be4fa322d00de63a0c8a9946c929bff3b8c4ef72e428f336d626a",
        "json": "37d139ac23063be1a6301e82d7c738e7790d92eaab4ecd4342874f5eab74fd92",
    }
    for fmt, digest in expected.items():
        assert run(["enumerate", "--max-vertices", "7", "--max-weight", "6", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3891
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_diagrams_of_one_shape_share_one_proximity_structure():
    yielded = list(enumerate_minimal_diagrams(6, 4))
    shapes = {(w.diagram.parent_edges, w.diagram.proximity) for w in yielded}
    assert len({id(w.diagram) for w in yielded}) == len(shapes) < len(yielded)
    assert all(w.diagram.violations == () for w in yielded)


def test_canonical_key_rejects_foreign_second_target():
    # satellite 3 leans on the root, but its parent 2 is proximate only to 1
    w = wd(
        0,
        {1: 0, 2: 1, 3: 2},
        [(1, 0), (2, 1), (3, 2), (3, 0)],
        {0: 3, 1: 2, 2: 1, 3: 1},
    )
    with pytest.raises(InvalidDiagramError):
        canonical_key(w)
