"""Shared builders and property-testing strategies for the suite.

Strategies build graphs from hypothesis primitives (spanning tree plus
extras) instead of driving the seeded generators of ``corpus.py``, so
failing examples shrink well.  The generators themselves are tested in
``test_oracle.py``.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

from negset import NEG, POS, SignedGraph, is_balanced
from negset.negation import negative_circles

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@st.composite
def connected_signed_graphs(draw, min_n: int = 2, max_n: int = 7):
    """Connected signed graph: random spanning tree plus extra signed edges."""
    n = draw(st.integers(min_n, max_n))
    pairs = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        pairs.append((u, v))
    pool = sorted(set(combinations(range(n), 2)) - set(pairs))
    if pool:
        pairs += draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    signs = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SignedGraph(n, [(u, v, NEG if s else POS) for (u, v), s in zip(pairs, signs)])


@st.composite
def subquartic_signed_graphs(draw, min_n: int = 3, max_n: int = 10):
    """Connected signed graph with maximum degree at most four."""
    n = draw(st.integers(min_n, max_n))
    deg = [0] * n
    pairs = []
    for v in range(1, n):
        # A partial tree always leaves some earlier vertex below the cap.
        u = draw(st.sampled_from([w for w in range(v) if deg[w] < 4]))
        pairs.append((u, v))
        deg[u] += 1
        deg[v] += 1
    pool = sorted(set(combinations(range(n), 2)) - set(pairs))
    if pool:
        for u, v in draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))):
            if deg[u] < 4 and deg[v] < 4:
                pairs.append((u, v))
                deg[u] += 1
                deg[v] += 1
    signs = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SignedGraph(n, [(u, v, NEG if s else POS) for (u, v), s in zip(pairs, signs)])


@st.composite
def vertex_subsets(draw, graph_strategy):
    """A graph together with a subset of its vertices."""
    g = draw(graph_strategy)
    xs = draw(st.frozensets(st.integers(0, g.n - 1)))
    return g, xs


def edge_set_is_bipartite(n: int, edges) -> bool:
    """Whether the edge set, viewed as a graph on ``n`` vertices, is bipartite."""
    return is_balanced(SignedGraph(n, [(u, v, NEG) for u, v in edges]))


def assert_trace_replays(g: SignedGraph, trace, negation_set) -> None:
    """Replay an ``acyclic`` rewrite log of ``(switched, strict)`` pairs on ``g``.

    Every strict rewrite must lower the number of fully negative circles in
    the 4-core, and the replayed switchings must end at ``negation_set``, a
    set of ``(u, v)`` pairs with ``u < v``.  No edge joins two core
    components, so the whole-core count drops exactly when the count in the
    component being rewritten does.
    """
    core = g.k_core(4)[0]
    switched: set[int] = set()

    def core_circles() -> int:
        return len(negative_circles(g.switch(switched).induced(core)))

    for vertices, strict in trace:
        before = core_circles() if strict else None
        switched.symmetric_difference_update(vertices)
        if strict:
            assert core_circles() < before, (vertices, before)
    assert g.switch(switched).negative_edges() == negation_set
