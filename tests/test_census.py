"""Exhaustive census over the networkx graph atlas.

Every connected atlas graph up to ``max_n`` vertices, under every unbalanced
signing up to switching, goes through the packing number and, at maximum
degree four, the acyclic construction, each checked against an answer that
does not share its code.  A signing is fixed up to switching by the signs of
the edges outside a spanning tree kept positive, so each class is met once.
The tier-1 test runs the census at n <= 6; ``tests/scale.py`` runs it at
n <= 7, as

    PYTHONPATH=src:tests python -c 'import test_census; print(test_census.census(7))'
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterator
from unittest import mock

import networkx as nx

from negset import (
    NEG,
    POS,
    MinusK5Detected,
    SignedGraph,
    acyclic_negation,
    is_balanced,
    is_negation_set,
)
from negset import oracle, packing, verify
from negset.packing import component_packing_number


def unbalanced_signings(max_n: int) -> Iterator[SignedGraph]:
    """Each connected atlas graph with n <= max_n, once per unbalanced switching class."""
    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if n > max_n:
            break
        if n < 3 or not nx.is_connected(atlas):
            continue
        tree = {tuple(sorted(e)) for e in nx.bfs_edges(atlas, 0)}
        pairs = sorted(tuple(sorted(e)) for e in atlas.edges())
        free = [e for e in pairs if e not in tree]
        for signs in product((POS, NEG), repeat=len(free)):
            if NEG not in signs:
                continue  # the all-positive signing is the balanced class
            sign = dict(zip(free, signs))
            yield SignedGraph(n, [(u, v, sign.get((u, v), POS)) for u, v in pairs])


def census(max_n: int) -> Counter:
    """Check every unbalanced atlas signing with n <= max_n; return what was reached.

    ``signings`` counts the inputs, ``searches`` the exact packing searches
    and ``mixed`` those that found a family mixing bipartitions.
    """
    counts: Counter = Counter()
    search = packing._exact_packing

    def counted(g, classes, scan_size):
        members = search(g, classes, scan_size)
        counts["searches"] += 1
        counts["mixed"] += bool(members)
        return members

    with mock.patch.object(packing, "_exact_packing", counted):
        for g in unbalanced_signings(max_n):
            counts["signings"] += 1
            mine = component_packing_number(g).packing_number
            brute = oracle.brute_packing_number(g)
            if mine != brute:
                raise AssertionError(f"{g.edges()}: packing number {mine}, brute force {brute}")
            if g.max_degree() <= 4:
                _check_acyclic(g)
    return counts


def _check_acyclic(g: SignedGraph) -> None:
    """An acyclic negation set, or MinusK5Detected exactly on a signing equivalent to -K5."""
    minus_k5 = g.n == 5 and g.edge_count == 10 and is_balanced(g.negate_edges(g.edge_pairs()))
    try:
        result = acyclic_negation(g)
    except MinusK5Detected:
        if not minus_k5:
            raise AssertionError(f"{g.edges()}: MinusK5Detected off -K5") from None
        return
    if minus_k5:
        raise AssertionError(f"{g.edges()}: -K5 got a negation set")
    negation = result.negation_set
    verify.forest(g.n, negation)
    if not is_negation_set(g, negation):
        raise AssertionError(f"{g.edges()}: acyclic set is not a negation set")


def test_census_up_to_six_vertices():
    counts = census(6)
    # 4,389 switching classes; 376 exact searches, 196 of them finding a mixed family
    assert counts == Counter(signings=4389, searches=376, mixed=196)
