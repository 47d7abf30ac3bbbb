"""Each construction certifies its result with a raise, under ``python -O`` too.

``src/negset`` holds no ``assert`` statement, so ``python -O`` runs the same
program, and every failed check raises :class:`InvariantError`, which the CLI
reports as an internal error.  Every test below breaks the step that a kept
check certifies and expects the check to raise.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import negset
from negset import (
    NEG,
    POS,
    ClassGraph,
    InvariantError,
    SignedGraph,
    balance,
    bipartite_negation_for_antibalanced_planar,
    disjoint_partner,
    minimality,
    negation,
    packing,
    packing_number,
    switching_for_negation_set,
    triangle_certificate_for_complete,
)

from corpus import complete_graph, cycle_graph


def _generic_failure(node: ast.AST) -> bool:
    """An ``assert``, or a raise of a type that says nothing about who is at fault."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in {"RuntimeError", "AssertionError"}


def test_library_holds_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(negset.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _generic_failure(node)
    ]
    assert found == []


def test_switching_must_realize_the_negation_set(monkeypatch):
    g = cycle_graph(5).negate_edges([(0, 1)])
    # an all-zero colouring switches nothing, which realizes E⁻, not {(1, 2)}
    monkeypatch.setattr(
        balance, "_two_color", lambda rows, flips={}, full=1: ([0] * len(rows), 0, None, 1)
    )
    with pytest.raises(InvariantError, match="does not realize"):
        switching_for_negation_set(g, [(1, 2)])


def test_triangle_certificate_must_verify(monkeypatch):
    g = complete_graph(6).negate_edges([(0, 1), (0, 2)])
    # one colour for two edges at vertex 0 gives both triangles the edge 0-3
    monkeypatch.setattr(
        minimality, "misra_gries_edge_coloring", lambda n, edges: dict.fromkeys(edges, 0)
    )
    with pytest.raises(InvariantError, match="triangle certificate"):
        triangle_certificate_for_complete(g, [(0, 1), (0, 2)])


def test_disjoint_partner_must_avoid_the_negative_edges(monkeypatch):
    g = cycle_graph(4).negate_edges([(0, 1)])
    # every vertex labelled with an odd class switches nothing, so the
    # partner is E⁻ itself
    classes = packing.negative_component_classes(g)
    odd = classes._replace(class_of=(1,) * g.n)
    monkeypatch.setattr(negation, "negative_component_classes", lambda h: odd)
    with pytest.raises(InvariantError, match="member 1 overlaps"):
        disjoint_partner(g)


def test_antibalanced_construction_must_be_bipartite(monkeypatch):
    g = complete_graph(4, NEG)
    # {1, 2, 3} in place of the all-negative switching (which is empty):
    # with colour classes 2 and 3 it switches {1}, leaving the negative
    # triangle 0 2 3
    monkeypatch.setattr(
        negation, "switching_for_negation_set", lambda h, b: frozenset({1, 2, 3})
    )
    with pytest.raises(InvariantError, match="not bipartite"):
        bipartite_negation_for_antibalanced_planar(g, [0, 1, 2, 3])


def test_scan_distance_must_not_exceed_the_contracted_bound(monkeypatch):
    g = cycle_graph(5).negate_edges([(0, 1)])
    # Distances are cut at the bound, so a bound below the scan's answer
    # leaves the scan no unbalanced class graph.
    monkeypatch.setattr(packing, "_contracted_bound", lambda g, classes: 0)
    with pytest.raises(InvariantError, match="no class graph within the cut bound 0 is unbalanced"):
        packing_number(g)


def test_balance_witness_colouring_must_agree_with_every_edge(monkeypatch):
    g = cycle_graph(4).negate_edges([(0, 1), (2, 3)])
    # one colour for every vertex puts the negative edge 0-1 inside a side
    monkeypatch.setattr(
        balance, "_two_color", lambda rows, flips={}, full=1: ([0] * len(rows), 0, None, 1)
    )
    with pytest.raises(InvariantError, match="disagrees with the Harary bipartition"):
        balance.check_balance(g)


@pytest.mark.parametrize("circle", [(1, 2, 3), (0, 2, 1)], ids=["positive", "non-circle"])
def test_balance_witness_circle_must_be_negative(monkeypatch, circle):
    # K4 minus the edge 0-2, negative on 0-1: 1 2 3 is a positive triangle
    g = SignedGraph(4, [(0, 1, NEG), (0, 3, POS), (1, 2, POS), (1, 3, POS), (2, 3, POS)])
    monkeypatch.setattr(balance, "_tree_circle", lambda parent, u, w: circle)
    with pytest.raises(InvariantError, match="not a negative circle"):
        balance.check_balance(g)


def test_harary_sides_needs_a_balanced_class_graph():
    # classes 0, 1 and 2 close the negative triangle 0-1 (negative), 1-2, 0-2
    cg = ClassGraph(2, 1, frozenset({(0, 2), (1, 2)}))
    assert not cg.balanced()
    with pytest.raises(InvariantError, match="unbalanced class graph"):
        cg.harary_sides()
