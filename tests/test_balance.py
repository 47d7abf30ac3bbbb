"""Balance, switching equivalence, and negation-set membership."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    HararyBipartition,
    PreconditionError,
    SignedGraph,
    check_balance,
    is_antibalanced,
    is_balanced,
    is_minimal,
    is_negation_set,
    negation_set_from_switching,
    oracle,
    switching_equivalent,
    switching_for_negation_set,
)
from negset import balance
from negset.balance import failing_flips

from conftest import connected_signed_graphs, vertex_subsets
from corpus import complete_graph, cycle_graph, path_graph


class TestCheckBalance:
    def test_all_positive_is_balanced(self):
        result = check_balance(complete_graph(5))
        assert result.balanced
        assert result.negative_circle is None
        assert result.bipartition is not None
        left, right = result.bipartition.left, result.bipartition.right
        assert set(left) | set(right) == set(range(5))
        assert set(left).isdisjoint(right)

    def test_even_cycle_one_negative_is_unbalanced(self):
        result = check_balance(cycle_graph(4).negate_edges([(0, 1)]))
        assert not result.balanced
        assert result.bipartition is None

    def test_two_negatives_on_cycle_is_balanced(self):
        g = cycle_graph(6).negate_edges([(0, 1), (3, 4)])
        assert check_balance(g).balanced

    def test_negative_circle_witness_is_genuinely_negative(self):
        g = complete_graph(5).negate_edges([(0, 1), (2, 3), (1, 4)])
        result = check_balance(g)
        assert not result.balanced
        circle = result.negative_circle
        assert circle is not None
        assert len(set(circle)) == len(circle) >= 3
        assert g.circle_sign(circle) == NEG

    def test_bipartition_realizes_balance(self):
        # Switching the left side must make every edge positive.
        g = cycle_graph(6).negate_edges([(1, 2), (4, 5)])
        result = check_balance(g)
        assert result.balanced
        switched = g.switch(result.bipartition.left)
        assert not switched.negative_edges()

    def test_bipartition_covers_disconnected_graphs(self):
        g = SignedGraph(5, [(0, 1, NEG), (2, 3, NEG), (3, 4, POS)])
        result = check_balance(g)
        assert result.balanced
        assert set(result.bipartition.left) | set(result.bipartition.right) == set(range(5))
        assert not g.switch(result.bipartition.left).negative_edges()

    def test_edgeless_graph(self):
        result = check_balance(SignedGraph(3))
        assert result.balanced

    @given(connected_signed_graphs())
    def test_witnesses_are_consistent(self, g):
        result = check_balance(g)
        if result.balanced:
            assert not g.switch(result.bipartition.left).negative_edges()
        else:
            assert g.circle_sign(result.negative_circle) == NEG


class TestYesNoAnswersBuildNoResults:
    """The yes/no questions read the BFS colouring and build no result objects."""

    @pytest.fixture
    def bipartition_builds(self, monkeypatch):
        calls = []
        original = HararyBipartition.__new__

        def counting(cls, left, right):
            calls.append(left)
            return original(cls, left, right)

        monkeypatch.setattr(HararyBipartition, "__new__", staticmethod(counting))
        return calls

    def test_yes_answers_build_no_bipartition(self, bipartition_builds):
        g = cycle_graph(6).negate_edges([(0, 1), (3, 4)])
        h = g.switch([1, 2, 3])
        assert is_balanced(g)
        assert is_negation_set(g, h.negative_edges())
        assert switching_equivalent(g, h)
        assert bipartition_builds == []
        # check_balance still builds its certificate.
        assert check_balance(g).balanced
        assert len(bipartition_builds) == 1

    def test_empty_graph(self):
        g = SignedGraph(0)
        assert is_balanced(g)
        assert is_negation_set(g, [])
        assert switching_for_negation_set(g, []) == frozenset()


class TestSwitchingInvariance:
    @given(vertex_subsets(connected_signed_graphs()))
    def test_balance_is_switching_invariant(self, gx):
        g, xs = gx
        assert is_balanced(g) == is_balanced(g.switch(xs))

    @given(vertex_subsets(connected_signed_graphs()))
    def test_switchings_are_equivalent(self, gx):
        g, xs = gx
        assert switching_equivalent(g, g.switch(xs))

    def test_inequivalent_signings(self):
        g = cycle_graph(4)
        assert not switching_equivalent(g, g.negate_edges([(0, 1)]))

    def test_different_underlying_graphs_are_rejected(self):
        from negset import PreconditionError

        with pytest.raises(PreconditionError, match="underlying"):
            switching_equivalent(cycle_graph(4), path_graph(4))

    def test_antibalance(self):
        assert is_antibalanced(cycle_graph(4, NEG))
        assert is_antibalanced(complete_graph(3).negate_edges([(0, 1)]))
        assert not is_antibalanced(cycle_graph(4).negate_edges([(0, 1)]))


class TestNegationSets:
    @given(connected_signed_graphs())
    def test_negative_edge_set_is_always_a_negation_set(self, g):
        assert is_negation_set(g, g.negative_edges())

    @given(vertex_subsets(connected_signed_graphs()))
    def test_every_switching_yields_a_negation_set(self, gx):
        g, xs = gx
        b = negation_set_from_switching(g, xs)
        assert is_negation_set(g, b)
        assert set(b) == set(g.negative_edges()) ^ set(g.cut(xs))

    def test_non_negation_set_is_rejected(self):
        # One negative edge of an odd cycle: {e} union {f} has even size,
        # but every negation set of this signing has odd size.
        g = cycle_graph(5).negate_edges([(0, 1)])
        assert not is_negation_set(g, [(0, 1), (2, 3)])
        assert is_negation_set(g, [(2, 3)])

    @given(vertex_subsets(connected_signed_graphs()))
    def test_switching_reconstruction(self, gx):
        g, xs = gx
        b = negation_set_from_switching(g, xs)
        x = switching_for_negation_set(g, b)
        assert negation_set_from_switching(g, x) == b
        assert 0 not in x  # pinned representative

    def test_switching_for_non_negation_set_raises(self):
        from negset import PreconditionError

        g = cycle_graph(5).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError, match="not a negation set"):
            switching_for_negation_set(g, [(0, 1), (2, 3)])

    def test_odd_cycle_negation_sets_have_fixed_parity(self):
        # For a signed circle, negation sets are exactly the edge subsets
        # with the same size parity as the negative edge set.
        g = cycle_graph(5).negate_edges([(0, 1), (1, 2), (2, 3)])
        from itertools import combinations

        edges = sorted(g.edge_pairs())
        for r in range(len(edges) + 1):
            for sub in combinations(edges, r):
                assert is_negation_set(g, sub) == (r % 2 == 1)


@st.composite
def signed_graphs(draw, max_n: int = 10):
    """A signed graph on 1..max_n vertices with any edge set, often disconnected."""
    n = draw(st.integers(1, max_n))
    pool = list(combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return SignedGraph(n, [(u, v, NEG if draw(st.booleans()) else POS) for u, v in sorted(pairs)])


def hand_cut(g: SignedGraph, xs) -> frozenset:
    return frozenset((u, v) for u, v in g.edge_pairs() if (u in xs) != (v in xs))


class TestProductSigning:
    """Membership reads the product signing, G with b negated, in at most one BFS."""

    @given(st.data())
    def test_membership_agrees_with_the_oracle(self, data):
        g = data.draw(st.one_of(connected_signed_graphs(max_n=10), signed_graphs()))
        # every negation set: the switchings that fix vertex 0 reach them all,
        # some of them twice or more on a disconnected graph
        sets = set(oracle.negation_sets(g, oracle.all_switchings(g)))
        pairs = g.edge_pairs()
        negative = g.negative_edges()
        switched = negative ^ hand_cut(g, data.draw(st.frozensets(st.integers(0, g.n - 1))))
        candidates = [negative, sorted(negative), switched, pairs]
        subset = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        candidates.append(frozenset(subset))
        if pairs:
            candidates.append(switched ^ {data.draw(st.sampled_from(pairs))})
        connected = g.is_connected()
        component_min = {min(c) for c in g.connected_components()}
        for b in candidates:
            bs = frozenset(b)
            member = bs in sets
            target = SignedGraph(g.n, [(u, v, NEG if (u, v) in bs else POS) for u, v in pairs])
            # a fresh copy has no E⁻ built; g keeps its own
            for h in (SignedGraph(g.n, g.edges()), g):
                assert is_negation_set(h, b) == member
                assert switching_equivalent(h, target) == member
                if member:
                    x = switching_for_negation_set(h, b)
                    assert negative ^ hand_cut(g, x) == bs
                    assert not x & component_min
                else:
                    with pytest.raises(PreconditionError, match="not a negation set"):
                        switching_for_negation_set(h, b)
                if not connected:
                    with pytest.raises(PreconditionError, match="requires a connected graph"):
                        is_minimal(h, b)
                elif not member:
                    with pytest.raises(PreconditionError, match="b is not a negation set of g"):
                        is_minimal(h, b)
                else:
                    assert is_minimal(h, b) == oracle.brute_is_minimal(g, b)
        assert is_antibalanced(g) == (frozenset(pairs) in sets)
        assert is_antibalanced(SignedGraph(g.n, g.edges())) == (frozenset(pairs) in sets)

    @pytest.fixture
    def flipped(self, monkeypatch):
        """The flipped edge set of every BFS."""
        seen = []
        bfs = balance._two_color

        def recording(rows, flips={}, full=1):
            seen.append(frozenset(flips))
            return bfs(rows, flips, full)

        monkeypatch.setattr(balance, "_two_color", recording)
        return seen

    def test_the_kept_negative_edges_need_no_bfs(self, flipped):
        # C6 negative on 0-1, 1-2, 2-3
        g = cycle_graph(6).negate_edges([(0, 1), (1, 2), (2, 3)])
        # a listed set is flipped, and E⁻ is not built for it
        assert is_negation_set(g, [(0, 1)])
        assert g.built_negative_edges() is None
        assert flipped == [frozenset({(0, 1)})]
        # E⁻ itself, once kept, needs no BFS; E⁻ with one edge more (even,
        # where every negation set of this circle is odd) one
        flipped.clear()
        assert is_negation_set(g, g.negative_edges())
        assert not is_minimal(g, g.negative_edges())
        assert not is_negation_set(g, g.negative_edges() | {(3, 4)})
        assert flipped == [frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})]

    def test_an_all_positive_graph_needs_no_bfs_for_its_empty_negative_set(self, flipped):
        g = complete_graph(5)
        assert is_negation_set(g, g.negative_edges())
        assert is_minimal(g, g.negative_edges())
        assert switching_for_negation_set(g, g.negative_edges()) == frozenset()
        assert flipped == []
        # the same empty set, before E⁻ is kept, is decided by one BFS
        h = complete_graph(5)
        assert is_negation_set(h, [])
        assert flipped == [frozenset()]


@st.composite
def negation_set_families(draw, sizes=(1, 63, 64, 65)):
    """A graph and a family of edge sets, negation sets mixed with others.

    A member is the negation set of a random switching, E⁻ with one edge
    toggled (not a negation set when that edge is on a circle), or a random
    edge subset.  The sizes put the highest bit on both sides of a
    machine-word boundary.
    """
    g = draw(connected_signed_graphs(min_n=3))
    pairs = g.edge_pairs()
    negative = frozenset(g.negative_edges())
    members = []
    for _ in range(draw(st.sampled_from(sizes))):
        kind = draw(st.sampled_from(["switching", "toggled", "subset"]))
        if kind == "switching":
            xs = draw(st.frozensets(st.integers(0, g.n - 1)))
            members.append(negation_set_from_switching(g, xs))
        elif kind == "toggled":
            members.append(negative ^ {draw(st.sampled_from(pairs))})
        else:
            members.append(frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))))
    return g, members


def failing_members(g, sets) -> int:
    """:func:`failing_flips` on a family: member i negates its edges in bit i."""
    flips = {}
    for i, edges in enumerate(sets):
        for e in edges:
            flips[e] = flips.get(e, 0) | 1 << i
    return failing_flips(g, flips, (1 << len(sets)) - 1)


class TestFailingNegationSets:
    @given(negation_set_families())
    def test_bits_agree_with_the_one_set_test(self, gm):
        g, members = gm
        failing = failing_members(g, members)
        assert failing >> len(members) == 0
        for i, b in enumerate(members):
            assert (failing >> i & 1) == (not is_negation_set(g, b))

    @given(connected_signed_graphs(min_n=3))
    def test_a_whole_enumeration_passes_and_its_toggles_fail(self, g):
        sets = oracle.enumerate_negation_sets(g)
        assert failing_members(g, sets) == 0
        # Toggling an edge that lies on a circle leaves no negation set.
        pairs = g.edge_pairs()
        on_circle = [
            e for e in pairs
            if SignedGraph(g.n, [(u, v, POS) for u, v in pairs if (u, v) != e]).is_connected()
        ]
        if on_circle:
            toggled = [s ^ {on_circle[0]} for s in sets]
            assert failing_members(g, toggled) == (1 << len(sets)) - 1

    def test_empty_family(self):
        assert failing_members(cycle_graph(3).negate_edges([(0, 1)]), []) == 0
