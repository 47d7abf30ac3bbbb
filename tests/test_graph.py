"""Core signed-graph data structure: construction, switching, subsets."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    MalformedCertificateError,
    SignedGraph,
    edge_key,
)
from negset.graph import (
    as_edge_set,
    as_vertex_set,
    row_sign,
)

from conftest import connected_signed_graphs, vertex_subsets
from corpus import complete_graph, cube_graph, cycle_graph, negate_all, path_graph, positive_neighbors


def triangle():
    return SignedGraph(3, [(0, 1, POS), (1, 2, NEG), (0, 2, NEG)])


class TestConstruction:
    def test_edge_key_orders_endpoints(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key(1, 2) == (1, 2)

    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            SignedGraph(2, [(1, 1, POS)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="outside"):
            SignedGraph(2, [(0, 2, POS)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            SignedGraph(3, [(0, 1, POS), (1, 0, NEG)])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            SignedGraph(2, [(0, 1, 7)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SignedGraph(-1)

    def test_counts_and_accessors(self):
        g = triangle()
        assert g.n == 3
        assert g.edge_count == 3
        rows = g.signed_rows()
        assert row_sign(rows, 0, 1) == POS
        assert row_sign(rows, 2, 1) == NEG
        assert row_sign(rows, 0, 2) and not row_sign(rows, 0, 0)
        assert rows[0] == ((1, POS), (2, NEG))
        assert positive_neighbors(g, 0) == (1,)
        with pytest.raises(ValueError, match=r"vertex 3 outside 0\.\.2"):
            g.induced([0, 3])
        assert g.max_degree() == 2
        assert g.positive_edges() == frozenset({(0, 1)})
        assert g.negative_edges() == frozenset({(1, 2), (0, 2)})

    def test_equality_and_hash(self):
        a = triangle()
        b = SignedGraph(3, [(0, 2, NEG), (1, 2, NEG), (0, 1, POS)])
        assert a == a
        assert a == b
        assert hash(a) == hash(b)
        assert a != negate_all(a)
        assert a.__eq__((3, 3)) is NotImplemented and a != (3, 3)
        assert repr(a) == "SignedGraph(n=3, m=3)"

    def test_factories(self):
        assert complete_graph(4).edge_count == 6
        assert cycle_graph(5).edge_count == 5
        with pytest.raises(ValueError, match="at least 3 vertices"):
            cycle_graph(2)
        assert path_graph(4).edge_count == 3
        q = cube_graph()
        assert q.n == 8 and q.edge_count == 12
        assert all(len(row) == 3 for row in q.signed_rows())
        assert cycle_graph(3, NEG).negative_edges() == frozenset(
            {(0, 1), (1, 2), (0, 2)}
        )


class TestSignedRows:
    @given(connected_signed_graphs(), st.randoms(use_true_random=False))
    def test_rows_match_edges_and_a_resigned_copy(self, g, rng):
        # any edge order, either endpoint first
        edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in g.edges()]
        rng.shuffle(edges)
        h = SignedGraph(g.n, edges)
        expected: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
        for u, v, s in h.edges():
            expected[u].append((v, s))
            expected[v].append((u, s))
        assert h.signed_rows() == tuple(tuple(sorted(row)) for row in expected)
        xs = [v for v in range(h.n) if rng.random() < 0.5]
        switched = h.switch(xs)
        assert switched.signed_rows() == SignedGraph(h.n, switched.edges()).signed_rows()


def reference_rows(n: int, edges) -> tuple:
    """Rows of the dict-first constructor: each edge validated into a map, then sorted rows.

    Raises its ``ValueError`` for the first bad edge in input order.
    """
    signs: dict = {}
    for u, v, s in edges:
        e = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if s not in (POS, NEG):
            raise ValueError(f"edge ({u}, {v}) has invalid sign {s!r}")
        if e in signs:
            raise ValueError(f"parallel edge ({u}, {v})")
        signs[e] = s
    rows: list[list] = [[] for _ in range(n)]
    for (u, v), s in signs.items():
        rows[u].append((v, s))
        rows[v].append((u, s))
    return tuple(tuple(sorted(row)) for row in rows)


def build_outcome(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


class TestConstructionOrder:
    """One validating pass builds the rows, whatever order the edges come in."""

    @given(st.data())
    def test_any_edge_order_gives_the_reference_rows_or_error(self, data):
        n = data.draw(st.integers(0, 12))
        ends = st.integers(-1, n)
        sign = st.sampled_from([POS, NEG, POS, NEG, 0])
        edges = data.draw(st.lists(st.tuples(ends, ends, sign), max_size=30))
        order = data.draw(st.sampled_from(["sorted", "reversed", "shuffled", "duplicated", "flipped"]))
        if order == "sorted":
            edges.sort(key=lambda e: (min(e[:2]), max(e[:2])))
        elif order == "reversed":
            edges.sort(key=lambda e: (min(e[:2]), max(e[:2])), reverse=True)
        elif order == "shuffled":
            edges = data.draw(st.permutations(edges))
        elif order == "duplicated" and edges:
            edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(edges)))
        elif order == "flipped":
            edges = [(v, u, s) for u, v, s in edges]
        expected = build_outcome(reference_rows, n, edges)
        for given_edges in (edges, iter(edges)):
            got = build_outcome(lambda n, e: SignedGraph(n, e).signed_rows(), n, given_edges)
            assert got == expected

    @given(connected_signed_graphs(max_n=10), st.randoms(use_true_random=False))
    def test_valid_edges_in_any_order_give_the_same_graph(self, g, rng):
        edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in g.edges()]
        rng.shuffle(edges)
        h = SignedGraph(g.n, edges)
        assert h == g and hash(h) == hash(g)
        assert h.signed_rows() == reference_rows(g.n, edges)
        assert h.edges() == g.edges() and h.edge_count == g.edge_count
        # a switched copy equals the graph built with the cut's signs flipped
        xs = [v for v in range(g.n) if rng.random() < 0.5]
        cut = g.cut(xs)
        flipped = SignedGraph(g.n, [(u, v, -s if edge_key(u, v) in cut else s) for u, v, s in edges])
        switched = g.switch(xs)
        assert switched == flipped and hash(switched) == hash(flipped)

    @given(connected_signed_graphs(max_n=8))
    def test_one_edge_lookups_agree_with_the_edges(self, g):
        signs = {(u, v): s for u, v, s in g.edges()}
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                assert row_sign(g.signed_rows(), u, v) == signs.get(edge_key(u, v), 0)

    def test_a_non_int_or_negative_endpoint_is_no_edge(self):
        g = triangle()
        # vertex 2's row holds 0 and 1, but -1 must not read it from the end; 1.0 must not match 1
        rows = g.signed_rows()
        assert row_sign(rows, -1, 0) == 0 and row_sign(rows, 0, 1.0) == 0
        assert row_sign(rows, 1.0, 0) == 0 and row_sign(rows, 0, "a") == 0


class TestSwitching:
    def test_switch_flips_exactly_the_cut(self):
        g = triangle()
        rows = g.switch({0}).signed_rows()
        assert row_sign(rows, 0, 1) == NEG
        assert row_sign(rows, 0, 2) == POS
        assert row_sign(rows, 1, 2) == NEG

    @given(vertex_subsets(connected_signed_graphs()))
    def test_switch_is_an_involution(self, gx):
        g, xs = gx
        assert g.switch(xs).switch(xs) == g

    @given(vertex_subsets(connected_signed_graphs()))
    def test_switch_negatives_are_symmetric_difference_with_cut(self, gx):
        g, xs = gx
        cut = set(g.cut(xs))
        assert set(g.switch(xs).negative_edges()) == set(g.negative_edges()) ^ cut

    @given(vertex_subsets(connected_signed_graphs()))
    def test_switching_complement_is_equivalent(self, gx):
        g, xs = gx
        complement = frozenset(range(g.n)) - xs
        assert g.switch(xs) == g.switch(complement)

    def test_negate_edges_and_negate_all(self):
        g = triangle()
        h = g.negate_edges([(1, 2)])
        assert row_sign(h.signed_rows(), 1, 2) == POS
        assert h.negate_edges([(1, 2)]) == g
        assert negate_all(g).negative_edges() == frozenset({(0, 1)})

    def test_circle_sign(self):
        g = triangle()
        assert g.circle_edges((0, 1, 2))[1] == POS
        assert g.negate_edges([(0, 1)]).circle_edges((0, 1, 2))[1] == NEG

    def test_circle_edges(self):
        g = cycle_graph(4).negate_edges([(2, 3)])
        assert g.circle_edges([3, 0, 1, 2]) == (frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), NEG)
        for cycle, message in [
            ((0, 1), r"circle \(0, 1\) has fewer than 3 vertices"),
            ([0, 1, 0], r"circle \(0, 1, 0\) repeats a vertex"),
            ((0, 1, 2), r"circle \(0, 1, 2\) uses missing edge \(2, 0\)"),
            ((0, 1, 4), r"circle \(0, 1, 4\) uses missing edge \(1, 4\)"),
            ((-1, 0, 1), r"circle \(-1, 0, 1\) uses missing edge \(-1, 0\)"),
            ((0, 1.0, 2), r"circle \(0, 1\.0, 2\) uses missing edge \(0, 1\.0\)"),
            ((0, "a", 2), r"circle \(0, 'a', 2\) uses missing edge \(0, a\)"),
        ]:
            with pytest.raises(MalformedCertificateError, match=message):
                g.circle_edges(cycle)


class TestSubgraphs:
    def test_induced_mapping_round_trip(self):
        g = SignedGraph(5, [(0, 2, POS), (2, 4, NEG), (1, 3, POS)])
        vs = [4, 0, 2]
        sub = g.induced(vs)
        to_host = sorted(vs)
        assert sub.n == 3
        assert sub.edge_count == 2
        for a, b in sub.edge_pairs():
            u, v = to_host[a], to_host[b]
            assert u < v  # the map is increasing, so a lifted edge stays normalized
            assert row_sign(g.signed_rows(), u, v) == row_sign(sub.signed_rows(), a, b)

    @given(st.data())
    def test_induced_and_components_of_a_vertex_set(self, data):
        n = data.draw(st.integers(1, 9))
        ends = st.integers(0, n - 1)
        drawn = data.draw(st.lists(st.tuples(ends, ends, st.sampled_from([POS, NEG]))))
        signs = {edge_key(u, v): s for u, v, s in drawn if u != v}
        g = SignedGraph(n, [(u, v, s) for (u, v), s in signs.items()])
        vs = data.draw(st.frozensets(st.integers(0, n - 1)))
        sub = g.induced(vs)
        to_host = sorted(vs)
        index = {v: i for i, v in enumerate(to_host)}
        assert isinstance(sub, SignedGraph)
        assert sub.n == len(vs)
        assert sub.edges() == tuple(
            (index[u], index[v], s) for u, v, s in g.edges() if u in vs and v in vs
        )
        lifted = tuple(
            tuple(to_host[i] for i in comp) for comp in sub.connected_components()
        )
        assert g.connected_components(vs) == lifted
        assert g.connected_components(range(n)) == g.connected_components()
        assert g.is_connected() == (len(g.connected_components()) <= 1)

    def test_connected_components(self):
        g = SignedGraph(6, [(0, 1, POS), (1, 2, POS), (0, 2, POS), (2, 3, POS), (4, 5, NEG)])
        assert g.connected_components() == ((0, 1, 2, 3), (4, 5))
        assert not g.is_connected()

    def test_k_core_peels_in_batches(self):
        # K4 with a pendant path: the 2-core is K4, peeled outside-in.
        g = SignedGraph(6, [(u, v, POS) for u, v in
                            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]])
        core, batches = g.k_core(2)
        assert core == frozenset({0, 1, 2, 3})
        assert batches == (frozenset({5}), frozenset({4}))
        full, none_removed = g.k_core(0)
        assert none_removed == ()
        assert full == frozenset(range(g.n))
        with pytest.raises(ValueError, match="nonnegative"):
            g.k_core(-1)

    @given(st.data())
    def test_k_core_batches_match_a_rescan_peel(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        keys = {edge_key(u, v) for u, v in data.draw(st.lists(pairs, max_size=30)) if u != v}
        g = SignedGraph(n, [(u, v, POS) for u, v in keys])
        k = data.draw(st.integers(0, 5))
        # reference: every batch rescans the live vertices for degree below k
        alive, batches = set(range(n)), []
        while batch := frozenset(v for v in alive if sum(w in alive for w, _ in g.signed_rows()[v]) < k):
            batches.append(batch)
            alive -= batch
        assert g.k_core(k) == (frozenset(alive), tuple(batches))

    def test_k_core_peels_a_cascade_one_layer_per_batch(self):
        # C_n(1, 2) minus the edge 0-1 peels from the gap inward, in about n / 4 batches
        n = 40
        pairs = {edge_key(i, (i + d) % n) for i in range(n) for d in (1, 2)} - {(0, 1)}
        core, batches = SignedGraph(n, [(u, v, POS) for u, v in pairs]).k_core(4)
        assert core == frozenset()
        assert sum(map(len, batches)) == n and len(batches) >= n // 4


class TestSubsetWrappers:
    """``as_edge_set`` and ``as_vertex_set``, which validate sets from outside the package."""

    def test_edge_subset_validates_membership(self):
        g = triangle()
        assert as_edge_set(g, [(1, 0)]) == frozenset({(0, 1)})
        for pairs, message in [
            ([(0, 5)], r"\(0, 5\) is not an edge of the host graph"),
            ([(-1, 0)], r"\(-1, 0\) is not an edge of the host graph"),
            ([(0, 1.0)], r"vertex 1\.0 is not an integer"),
            (frozenset({(1.0, 2)}), r"vertex 1\.0 is not an integer"),
            ([(0, 1), ("a", 2)], "vertex 'a' is not an integer"),
        ]:
            with pytest.raises(ValueError, match=message):
                as_edge_set(g, pairs)

    def test_vertex_subset_validates_membership(self):
        g = triangle()
        assert as_vertex_set(g, [2, 0, 2]) == frozenset({0, 2})
        with pytest.raises(ValueError, match="vertex 3 outside host range"):
            as_vertex_set(g, frozenset({3}))
        with pytest.raises(ValueError, match=r"vertex 1\.0 is not an integer"):
            as_vertex_set(g, frozenset({1.0}))
        with pytest.raises(ValueError, match="vertex 'a' is not an integer"):
            as_vertex_set(g, frozenset({"a"}))

    def test_the_hosts_own_negative_edges_pass_unchecked(self):
        g, h = triangle(), triangle()
        neg = g.negative_edges()
        assert g.negative_edges() is neg
        assert as_edge_set(g, neg) is neg
        assert as_edge_set(h, neg) == neg
        with pytest.raises(ValueError, match="not an edge"):
            as_edge_set(path_graph(3), neg)

    def test_as_edge_set_returns_a_normalized_frozenset_as_is(self):
        g = triangle()
        ys = frozenset({(0, 1), (1, 2)})
        assert as_edge_set(g, ys) is ys
        assert as_edge_set(g, frozenset({(1, 0)})) == frozenset({(0, 1)})
        with pytest.raises(ValueError, match="not an edge"):
            as_edge_set(path_graph(3), frozenset({(0, 2)}))

    @given(connected_signed_graphs(max_n=8), st.data())
    def test_as_edge_set_agrees_with_the_edge_pairs(self, g, data):
        edges = sorted(g.edge_pairs())
        ends = st.integers(-1, g.n)
        pair = st.one_of(
            st.sampled_from(edges),
            st.sampled_from(edges).map(lambda e: e[::-1]),
            st.tuples(ends, ends),
            ends.map(lambda u: (u, u)),
        )
        pairs = data.draw(st.lists(pair, max_size=8))
        want = frozenset(edge_key(u, v) for u, v in pairs)
        if want <= set(edges):
            for ys in (pairs, tuple(pairs), iter(pairs), frozenset(pairs)):
                assert as_edge_set(g, ys) == want
            assert as_edge_set(g, want) is want
        else:
            for ys in (pairs, tuple(pairs), iter(pairs), frozenset(pairs)):
                with pytest.raises(ValueError, match="is not an edge of the host graph"):
                    as_edge_set(g, ys)

    def test_validating_a_small_cut_allocates_only_the_set(self):
        # C_n(1, 2) at n = 24k; nine spread vertices cut 36 edges, given reversed
        n = 24000
        g = SignedGraph(n, sorted((*edge_key(i, (i + d) % n), POS) for i in range(n) for d in (1, 2)))
        pairs = [(v, u) for u, v in g.cut(range(0, 900, 100))]
        tracemalloc.start()
        try:
            ys = as_edge_set(g, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ys) == 36 and peak < 64 * 1024

    @given(st.frozensets(st.integers(0, 2)))
    def test_as_vertex_set_accepts_plain_iterables(self, xs):
        assert as_vertex_set(triangle(), xs) == xs
