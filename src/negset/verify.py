"""Result checks shared by the constructions and the tests; each raises ``InvariantError``."""

from __future__ import annotations

from typing import Iterable

from .balance import is_balanced, is_negation_set
from .errors import InvariantError
from .graph import NEG, Edge, EdgeSubset, SignedGraph, as_edge_set


def forest(n: int, edges: Iterable[Edge]) -> None:
    """Union-find cycle test: ``edges`` on vertices ``0..n-1`` must form a forest."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise InvariantError(f"edge ({u}, {v}) closes a circle")
        parent[ru] = rv


def bipartite(n: int, edges: Iterable[Edge]) -> None:
    """``edges`` on vertices ``0..n-1`` must form a bipartite graph."""
    if not is_balanced(SignedGraph(n, [(u, v, NEG) for u, v in edges])):
        raise InvariantError("edge set is not bipartite")


def family(g: SignedGraph, members: Iterable[EdgeSubset | Iterable[Edge]]) -> None:
    """Every member must be a negation set of ``g``, and no edge may lie in two."""
    used: set[Edge] = set()
    for i, member in enumerate(members):
        if not is_negation_set(g, member):
            raise InvariantError(f"family member {i} is not a negation set")
        edges = as_edge_set(g, member)
        if not used.isdisjoint(edges):
            raise InvariantError(f"family member {i} overlaps an earlier member")
        used |= edges
