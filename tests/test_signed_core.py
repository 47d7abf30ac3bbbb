"""The signed-adjacency hot paths against the slower code they replace.

* The acyclic construction's circle index reads the negative 2-core of the
  components each rewrite touched, and after every rewrite must return
  exactly the tuple the exhaustive enumerator gives on the whole component.
  On plaquette tori its work grows linearly with the vertex count.
* Its heap sweeps must switch the same vertices, in the same order, as
  rescanning for the smallest violator after every switch (kept here as the
  reference).
* ``is_negation_set`` decides without building graphs and must agree with
  the graph-building definition, and so must ``is_minimal``, which uses it.
* Long negative corridors must not overflow the interpreter's call stack.
* The -K5 test reads five vertices' signs in place and must agree with
  ``is_antibalanced`` on the induced K5.
* Tracing must not repeat the construction's circle searches.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    MinusK5Detected,
    SignedGraph,
    acyclic_negation,
    is_antibalanced,
    is_balanced,
    is_minimal,
    is_negation_set,
)
from negset import negation
from negset.graph import edge_key
from negset.negation import (
    _CircleIndex,
    _component_k5_check,
    _enumerate_circles,
    _sweep,
    _Work,
    negative_circles,
)
from negset.sgio import load_path

from conftest import subquartic_signed_graphs
from corpus import cycle_graph

GOLDEN = Path(__file__).parent / "golden"


def work_on(g: SignedGraph, switched) -> _Work:
    w = _Work(g)
    w.active |= set(range(g.n))
    for v in switched:
        w.rewrite("setup", "setup", (v,), False)
    return w


def reference_sweep(w: _Work, verts, threshold: int) -> list[int]:
    """The rescan the heap sweep replaces: smallest violator, every time."""
    order = []
    while True:
        v = min((u for u in verts if len(w.neg_neighbors(u)) >= threshold), default=None)
        if v is None:
            return order
        w.rewrite("reference", "reference", (v,), False)
        order.append(v)


def swept(w: _Work, verts, threshold: int) -> list[int]:
    """The vertices one heap sweep switches, in order, read from the log."""
    start = len(w.log)
    _sweep(w, verts, threshold, "sweep")
    return [v for entry in w.log[start:] for v in entry.switched]


signings = st.tuples(
    subquartic_signed_graphs(min_n=3, max_n=14), st.sets(st.integers(0, 13))
).map(lambda t: (t[0], {v for v in t[1] if v < t[0].n}))


def assert_index_matches_the_enumerator(w: _Work, verts) -> None:
    circles = _enumerate_circles(verts, w.neg_neighbors)
    assert w.circles.every(w) == circles
    assert w.circles.first(w) == (circles[0] if circles else None)


@given(signings)
def test_core_circle_search_matches_the_enumerator(case):
    g, switched = case
    w = work_on(g, switched)
    everything = range(g.n)
    w.circles = _CircleIndex(everything)
    assert_index_matches_the_enumerator(w, everything)
    # after the preprocess sweep every negative degree is at most two, so
    # the core is 2-regular and its cycles are walked directly
    _sweep(w, everything, 3, "preprocess")
    assert_index_matches_the_enumerator(w, everything)


@given(signings, st.lists(st.sets(st.integers(0, 13), max_size=3), max_size=12))
def test_circle_index_follows_every_rewrite(case, rewrites):
    g, switched = case
    w = work_on(g, switched)
    everything = range(g.n)
    w.circles = _CircleIndex(everything)
    for vertices in rewrites:
        w.rewrite("main", "test", [v for v in vertices if v < g.n], False)
        assert_index_matches_the_enumerator(w, everything)


def plaquette_torus(side: int) -> SignedGraph:
    """The side x side torus grid whose negative edges are unit squares, every third cell.

    The same signing as the benchmark's ``torus-plaquettes`` family, without
    its random offset and relabelling.
    """
    pairs = set()
    for r in range(side):
        for c in range(side):
            v = r * side + c
            pairs.add(edge_key(v, r * side + (c + 1) % side))
            pairs.add(edge_key(v, ((r + 1) % side) * side + c))
    negative = set()
    for r in range(0, side - 1, 3):
        for c in range(0, side - 1, 3):
            a, b = r * side + c, r * side + c + 1
            d, e = (r + 1) * side + c, (r + 1) * side + c + 1
            negative |= {edge_key(a, b), edge_key(d, e), edge_key(a, d), edge_key(b, e)}
    edges = [(u, v, NEG if (u, v) in negative else POS) for u, v in sorted(pairs)]
    return SignedGraph(side * side, edges)


def test_circle_search_work_grows_linearly_on_plaquette_tori(monkeypatch):
    # 4x the vertices reads about 4x the negative rows; re-peeling the whole
    # core on every pass reads about 16x
    neg_neighbors = _Work.neg_neighbors
    calls = []

    def counted(self, v):
        calls.append(v)
        return neg_neighbors(self, v)

    monkeypatch.setattr(_Work, "neg_neighbors", counted)
    counts = []
    for side in (24, 48):
        calls.clear()
        acyclic_negation(plaquette_torus(side))
        counts.append(len(calls))
    assert counts[1] <= 5 * counts[0]


@given(signings, st.data())
def test_heap_sweep_switches_like_the_rescan(case, data):
    g, switched = case
    fast, slow = work_on(g, switched), work_on(g, switched)
    everything = range(g.n)
    assert swept(fast, everything, 3) == reference_sweep(slow, everything, 3)
    assert fast.switching() == slow.switching()
    # threshold two terminates on vertices of degree at most three, the
    # peeled layers the reattach sweep works on
    low = [v for v in everything if len(g.signed_rows()[v]) <= 3]
    batch = data.draw(st.sets(st.sampled_from(low)) if low else st.just(set()))
    assert swept(fast, batch, 2) == reference_sweep(slow, batch, 2)
    assert fast.switching() == slow.switching()


@given(signings, st.data())
def test_build_free_checks_match_their_definitions(case, data):
    g, switched = case
    pairs = sorted(g.edge_pairs())
    b = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    product_balanced = is_balanced(g.negate_edges(b))
    assert is_negation_set(g, b) == product_balanced
    if product_balanced:
        rest = SignedGraph(g.n, [(u, v, s) for u, v, s in g.edges() if (u, v) not in b])
        assert is_minimal(g, b) == rest.is_connected()
    negation = g.switch(switched).negative_edges()
    assert is_negation_set(g, negation)


def corridor_circulant(n: int, closed: bool) -> SignedGraph:
    """C_n(1, 2) whose negative edges form the Hamiltonian path (or cycle) i ~ i+1."""
    negative = {(i, i + 1) for i in range(n - 1)}
    if closed:
        negative.add((0, n - 1))
    pairs = sorted({edge_key(i, (i + d) % n) for i in range(n) for d in (1, 2)})
    return SignedGraph(n, [(u, v, NEG if (u, v) in negative else POS) for u, v in pairs])


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_long_negative_corridor_does_not_overflow(closed):
    g = corridor_circulant(1200, closed)
    result = acyclic_negation(g)
    assert g.switch(result.switching).negative_edges() == result.negation_set
    forest = SignedGraph(g.n, [(u, v, NEG) for u, v in result.negation_set])
    assert len(result.negation_set) == g.n - len(forest.connected_components())


def test_enumerator_walks_a_long_circle_iteratively():
    assert negative_circles(cycle_graph(1200, NEG)) == (tuple(range(1200)),)


def test_k5_check_matches_antibalance_on_every_signing():
    pairs = list(combinations(range(5), 2))
    detected = 0
    for mask in range(1 << len(pairs)):
        g = SignedGraph(5, [(u, v, NEG if mask >> i & 1 else POS) for i, (u, v) in enumerate(pairs)])
        try:
            _component_k5_check(work_on(g, ()), (0, 1, 2, 3, 4))
        except MinusK5Detected:
            assert is_antibalanced(g)
            detected += 1
        else:
            assert not is_antibalanced(g)
    assert detected == 16  # the switchings of -K5, one per vertex subset up to complement


@pytest.mark.parametrize("stem", ["torus12", "quartic200-negative"])
def test_tracing_adds_no_circle_search(stem, monkeypatch):
    g = load_path(GOLDEN / f"{stem}.sg")
    refresh = negation._CircleIndex.refresh
    calls = []

    def counted(index, w):
        calls.append(index)
        return refresh(index, w)

    monkeypatch.setattr(negation._CircleIndex, "refresh", counted)
    counts = []
    for trace in (False, True):
        calls.clear()
        acyclic_negation(g, trace=trace)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
