"""Result checks shared by the constructions and the tests; each raises ``InvariantError``."""

from __future__ import annotations

from typing import Iterable

from .balance import failing_negation_sets, is_balanced
from .errors import InvariantError
from .graph import NEG, Edge, SignedGraph, as_edge_set


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


def family(g: SignedGraph, members: Iterable[Iterable[Edge]]) -> None:
    """Every member must be a negation set of ``g``, and no edge may lie in two.

    Members are checked in order, and the first that fails raises.  Member i
    is a negation set when ``g`` with its edges negated is balanced;
    :func:`negset.balance.failing_negation_sets` decides every member in
    one signed BFS.  A member that cannot be read as edges of ``g`` raises
    once every member before it has passed.
    """
    sets: list[frozenset[Edge]] = []
    unreadable = None
    for member in members:
        try:
            sets.append(as_edge_set(g, member))
        except (TypeError, ValueError) as exc:
            unreadable = exc
            break
    failing = failing_negation_sets(g, sets)
    used: set[Edge] = set()
    for i, edges in enumerate(sets):
        if failing >> i & 1:
            raise InvariantError(f"family member {i} is not a negation set")
        if not used.isdisjoint(edges):
            raise InvariantError(f"family member {i} overlaps an earlier member")
        used |= edges
    if unreadable is not None:
        raise unreadable
