"""Result checks shared by the constructions and the tests; each raises ``InvariantError``."""

from __future__ import annotations

from typing import Iterable

from .balance import failing_flips, is_balanced
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
    is read once, OR-ing bit i into its edges' flip masks, where an edge
    already holding a bit is an overlap; one
    :func:`negset.balance.failing_flips` BFS then decides every member.  A
    member that cannot be read as edges of ``g`` raises once every member
    before it has passed.
    """
    flips: dict[Edge, int] = {}
    full = 0
    overlap = unreadable = None
    for i, member in enumerate(members):
        try:
            edges = as_edge_set(g, member)
        except (TypeError, ValueError) as exc:
            unreadable = exc
            break
        bit = 1 << i
        full |= bit
        for e in edges:
            mask = flips.get(e, 0)
            if mask and overlap is None:
                overlap = i
            flips[e] = mask | bit
    failing = failing_flips(g, flips, full)
    first = (failing & -failing).bit_length() - 1
    if failing and (overlap is None or first <= overlap):
        raise InvariantError(f"family member {first} is not a negation set")
    if overlap is not None:
        raise InvariantError(f"family member {overlap} overlaps an earlier member")
    if unreadable is not None:
        raise unreadable
