"""The brute-force switching-enumeration oracle and its graph corpus."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import NEG, POS, IterationBudgetError, PreconditionError, SignedGraph, is_negation_set, load_path
from negset import oracle

import corpus
from corpus import complete_graph, cycle_graph, negate_all, path_graph
from conftest import connected_signed_graphs

GOLDEN = Path(__file__).parent / "golden"


class TestEnumeration:
    def test_connected_graphs_have_a_set_per_cut(self):
        # On a connected graph, distinct switching sets modulo complement
        # give distinct negation sets: 2^(n-1) in total.
        for g in [
            cycle_graph(4).negate_edges([(0, 1)]),
            complete_graph(4, NEG),
            path_graph(5).negate_edges([(1, 2)]),
        ]:
            assert len(oracle.enumerate_negation_sets(g)) == 2 ** (g.n - 1)

    def test_contains_the_negative_edge_set(self):
        g = cycle_graph(5).negate_edges([(0, 1), (2, 3)])
        assert g.negative_edges() in oracle.enumerate_negation_sets(g)

    def test_cycle_sets_are_exactly_the_parity_class(self):
        g = cycle_graph(6).negate_edges([(0, 1)])
        sets = set(oracle.enumerate_negation_sets(g))
        edges = sorted(g.edge_pairs())
        expected = {
            frozenset(sub)
            for r in range(1, len(edges) + 1, 2)
            for sub in combinations(edges, r)
        }
        assert sets == expected

    @given(connected_signed_graphs(max_n=6))
    def test_agrees_with_the_fast_membership_test(self, g):
        sets = set(oracle.enumerate_negation_sets(g))
        for b in sets:
            assert is_negation_set(g, b)

    def test_results_are_sorted_by_size(self):
        g = complete_graph(4).negate_edges([(0, 1), (2, 3)])
        sizes = [len(s) for s in oracle.enumerate_negation_sets(g)]
        assert sizes == sorted(sizes)


def reference_negation_sets(g):
    """Every subset of vertices 1..n-1 switched through ``g.switch``, sorted like the oracle."""
    rest = range(1, g.n)
    seen = {
        g.switch(xs).negative_edges()
        for r in range(g.n)
        for xs in combinations(rest, r)
    }
    return tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))


class TestGrayCodeEnumeration:
    @given(connected_signed_graphs(max_n=9))
    def test_matches_switching_every_subset(self, g):
        sets = oracle.enumerate_negation_sets(g)
        assert sets == reference_negation_sets(g)
        assert oracle.frustration_index(g) == len(sets[0])
        columns = tuple(oracle.negative_columns(g))
        assert oracle.frustration_index(g, columns=columns) == len(sets[0])

    @given(connected_signed_graphs(max_n=9))
    def test_shared_enumeration_gives_the_same_answers(self, g):
        sets = oracle.enumerate_negation_sets(g)
        columns = tuple(oracle.negative_columns(g))
        sample = {g.negative_edges(), *sets[:4], *sets[-2:]}
        for b in sample:
            assert oracle.brute_is_minimal(g, b, columns=columns) == oracle.brute_is_minimal(g, b)
        if frozenset() in sets:
            for shared in (None, columns):
                with pytest.raises(PreconditionError, match="unbalanced"):
                    oracle.brute_packing_number(g, columns=shared)
        else:
            assert oracle.brute_packing_number(g, columns=columns) == oracle.brute_packing_number(g)

    def test_edgeless_and_single_vertex_graphs(self):
        assert oracle.enumerate_negation_sets(SignedGraph(1)) == (frozenset(),)
        assert oracle.enumerate_negation_sets(SignedGraph(0)) == (frozenset(),)
        assert oracle.frustration_index(SignedGraph(1)) == 0


def switched_columns(g):
    """Per edge, bit j set when ``g.switch`` of Gray switching j's vertices leaves it negative.

    The Gray code ``j ^ (j >> 1)`` of switching j has bit k set when vertex
    k + 1 is switched, so vertex 0 is never switched.
    """
    switched = [
        g.switch([k + 1 for k in range(g.n - 1) if (j ^ (j >> 1)) >> k & 1]).negative_edges()
        for j in range(1 << max(g.n - 1, 0))
    ]
    return tuple(
        int("".join("1" if e in negative else "0" for negative in reversed(switched)), 2)
        for e in g.edge_pairs()
    )


def column_corpus():
    """Every corpus family as given and all negative, the golden 12-vertex input,
    and seeded random graphs up to 14 vertices."""
    for name, base in corpus.corpus_families():
        yield name, base
        yield f"-{name}", negate_all(base)
    yield "oracle-subquartic12", load_path(str(GOLDEN / "oracle-subquartic12.sg"))
    for seed in range(6):
        yield f"subquartic-{seed}", corpus.random_subquartic_graph(random.Random(seed), n_max=14)
        yield f"random-{seed}", corpus.random_signed_graph(random.Random(seed), n_max=10)


def reference_packing_number(g, sets):
    """Largest family of pairwise-disjoint enumerated sets that holds E⁻, by branch and bound."""
    candidates = [s for s in sets if s.isdisjoint(g.negative_edges())]
    best = 0

    def extend(start, used, size):
        nonlocal best
        best = max(best, size)
        for i in range(start, len(candidates)):
            if size + len(candidates) - i <= best:
                return
            if candidates[i].isdisjoint(used):
                extend(i + 1, used | candidates[i], size + 1)

    extend(0, frozenset(), 0)
    return best + 1


class TestColumns:
    def test_columns_match_switching_each_gray_set(self):
        for name, g in column_corpus():
            assert g.n <= 14, name
            assert tuple(oracle.negative_columns(g)) == switched_columns(g), name

    @given(connected_signed_graphs(max_n=10))
    def test_column_answers_match_the_enumerated_sets(self, g):
        sets = oracle.enumerate_negation_sets(g)
        columns = tuple(oracle.negative_columns(g))
        smallest = len(sets[0])
        assert oracle.frustration_index(g, columns=columns) == smallest
        assert corpus.minimum_negation_sets(g) == tuple(s for s in sets if len(s) == smallest)
        for b in {g.negative_edges(), *sets[:4], *sets[-2:]}:
            expected = not any(s < b for s in sets)
            assert oracle.brute_is_minimal(g, b, columns=columns) == expected
        if frozenset() not in sets:
            expected = reference_packing_number(g, sets)
            assert oracle.brute_packing_number(g, columns=columns) == expected

    @given(connected_signed_graphs(max_n=8), st.data())
    def test_sets_of_a_mask_are_its_switchings_sets(self, g, data):
        full = oracle.all_switchings(g)
        mask = data.draw(st.integers(0, full))
        sets = [
            g.switch([k + 1 for k in range(g.n - 1) if (j ^ (j >> 1)) >> k & 1]).negative_edges()
            for j in range(full.bit_length())
            if mask >> j & 1
        ]
        assert oracle.negation_sets(g, mask) == tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))

    def test_minimality_sample_holds_minimal_and_non_minimal_sets(self):
        # oracle-verify's minimality row: E- and the switchings of vertices 1-3
        g = load_path(str(GOLDEN / "oracle-packing10.sg"))
        sample = oracle.negation_sets(g, oracle.all_switchings(g) & 0xFF)
        assert len(sample) == 8
        assert {oracle.brute_is_minimal(g, s) for s in sample} == {True, False}


class TestScaleGuards:
    def test_vertex_cap(self):
        # enumerate_negation_sets makes all 2^(n-1) sets, so the set budget
        # caps it at 16 vertices
        assert len(oracle.enumerate_negation_sets(path_graph(16))) == oracle.SET_COUNT
        with pytest.raises(PreconditionError, match="65536 sets exceed the enumeration budget of 32768"):
            oracle.enumerate_negation_sets(path_graph(17))

    def test_set_budget_is_checked_before_any_mask(self):
        # 2^19 sets, and 2^16 packing candidates, would take tens of MB as masks
        g = cycle_graph(18).negate_edges([(0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="524288 sets exceed"):
                oracle.enumerate_negation_sets(path_graph(20))
            with pytest.raises(PreconditionError, match="65536 sets exceed"):
                oracle.brute_packing_number(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_packing_step_budget(self):
        # C_n with one negative edge packs its n edges; the search grows about
        # 8x per vertex: 2^21.4 checks at n = 10, 2^24.7 at n = 11
        assert oracle.brute_packing_number(cycle_graph(10).negate_edges([(0, 1)])) == 10
        with pytest.raises(PreconditionError, match=f"budget of {oracle.PACKING_STEPS} checks"):
            oracle.brute_packing_number(cycle_graph(11).negate_edges([(0, 1)]))

    def test_disconnected_graphs_are_rejected(self):
        g = SignedGraph(4, [(0, 1, NEG), (2, 3, NEG)])
        with pytest.raises(PreconditionError, match="connected"):
            oracle.enumerate_negation_sets(g)
        with pytest.raises(PreconditionError, match="connected"):
            oracle.frustration_index(g)

    def test_frustration_index_applies_the_cap(self):
        # its one cap is the column budget: P_25 has 24 columns of 2^24 bits
        with pytest.raises(PreconditionError, match=r"24 columns of 2\^24 bits exceed .* 32 MiB"):
            oracle.frustration_index(path_graph(25))

    def test_column_budget_is_checked_before_the_graph_is_walked(self, monkeypatch):
        def no_walk(self, vertices):
            raise AssertionError("the component walk ran")

        monkeypatch.setattr(SignedGraph, "_component_walk", no_walk)
        with pytest.raises(PreconditionError, match=r"graph's 26 columns of 2\^25 bits exceed"):
            oracle.negative_columns(cycle_graph(26))

    def test_column_budget_is_checked_before_any_column(self):
        # C_26: 26 columns of 2^25 bits, about 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=r"26 columns of 2\^25 bits exceed .* 32 MiB"):
                oracle.frustration_index(cycle_graph(26))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_column_budget_boundary(self):
        # a 24-vertex path plus chords: m columns of 2^23 bits, 2^28 bits at m = 32
        chords = [(0, v, POS) for v in range(2, 11)]
        at_budget = SignedGraph(24, [(i, i + 1, POS) for i in range(23)] + chords)
        assert at_budget.edge_count << 23 == oracle.COLUMN_BITS
        oracle._check_scale(at_budget)
        over = SignedGraph(24, at_budget.edges() + ((0, 11, POS),))
        with pytest.raises(PreconditionError, match="budget"):
            oracle._check_scale(over)
        # a connected graph within the budget has at most 24 vertices
        oracle._check_scale(path_graph(24))
        with pytest.raises(PreconditionError, match="budget"):
            oracle._check_scale(path_graph(25))


class TestDerivedQuantities:
    def test_frustration_anchors(self):
        assert oracle.frustration_index(cycle_graph(5).negate_edges([(0, 1)])) == 1
        assert oracle.frustration_index(cycle_graph(4).negate_edges([(0, 1), (1, 2)])) == 0
        assert oracle.frustration_index(complete_graph(5, NEG)) == 4

    def test_minimum_sets_of_the_all_negative_k5(self):
        sets = corpus.minimum_negation_sets(complete_graph(5, NEG))
        assert len(sets) == 10  # one per 2-element switching set
        assert all(len(s) == 4 for s in sets)

    def test_brute_minimality_requires_a_negation_set(self):
        g = cycle_graph(5).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError, match="negation set"):
            oracle.brute_is_minimal(g, [(0, 1), (1, 2)])

    def test_brute_unique_minimum(self):
        g = complete_graph(6).negate_edges([(0, 1)])
        assert corpus.brute_is_unique_minimum(g, [(0, 1)])
        assert not corpus.brute_is_unique_minimum(g, [(0, 2)])

    def test_brute_packing_anchors(self):
        assert oracle.brute_packing_number(cycle_graph(5).negate_edges([(0, 1)])) == 5
        assert oracle.brute_packing_number(cycle_graph(3).negate_edges([(0, 1)])) == 3
        # A nonbipartite negative set blocks any disjoint partner.
        g = complete_graph(5).negate_edges([(0, 1), (1, 2), (0, 2)])
        assert oracle.brute_packing_number(g) == 1

    def test_brute_packing_rejects_balanced_graphs(self):
        with pytest.raises(PreconditionError, match="unbalanced"):
            oracle.brute_packing_number(cycle_graph(4).negate_edges([(0, 1), (1, 2)]))


class TestLargestDisjoint:
    """The one disjoint-family branch and bound, against every subset of a short mask list."""

    @staticmethod
    def random_masks(seed: int) -> list[int]:
        rng = random.Random(seed)
        bits = rng.randint(1, 12)
        # an AND of two draws sets a quarter of the bits, so families grow past one
        return [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(rng.randint(0, 10))]

    def test_matches_every_combination(self):
        for seed in range(300):
            masks = self.random_masks(seed)
            floor = seed % 4
            largest = max(
                k
                for k in range(len(masks) + 1)
                if any(
                    all(a & b == 0 for a, b in combinations(family, 2))
                    for family in combinations(masks, k)
                )
            )
            found = oracle.largest_disjoint(masks, floor, "refused")
            if largest <= floor:
                assert found == [], (seed, masks, floor)
                continue
            assert len(found) == largest, (seed, masks, floor)
            assert all(a & b == 0 for a, b in combinations(found, 2)), (seed, masks)
            rest = iter(masks)  # in list order: a subsequence of masks
            assert all(any(mask == m for m in rest) for mask in found), (seed, masks)

    def test_step_budget_raises_the_callers_refusal(self, monkeypatch):
        masks = [1 << i for i in range(10)]
        assert oracle.largest_disjoint(masks, 0, "the search ran out") == masks
        # the first call alone checks all ten masks
        monkeypatch.setattr(oracle, "PACKING_STEPS", len(masks) - 1)
        with pytest.raises(IterationBudgetError) as info:
            oracle.largest_disjoint(masks, 0, "the search ran out")
        assert isinstance(info.value, PreconditionError)
        assert str(info.value) == "the search ran out"


class TestCorpus:
    def test_family_shapes(self):
        families = dict(corpus.corpus_families())
        assert set(families) == {"C3", "C4", "C5", "C6", "K4", "K5", "K4_pendant", "Q3"}
        assert families["C6"].n == 6 and families["C6"].edge_count == 6
        assert families["K5"].edge_count == 10
        assert families["K4_pendant"].n == 5 and families["K4_pendant"].edge_count == 7
        assert families["Q3"].n == 8
        assert all(len(row) == 3 for row in families["Q3"].signed_rows())

    def test_all_signings_is_exhaustive_and_distinct(self):
        base = cycle_graph(4)
        signings = list(corpus.all_signings(base))
        assert len(signings) == 16
        assert len(set(signings)) == 16
        assert all(s.n == base.n and s.edge_pairs() == base.edge_pairs() for s in signings)

    def test_random_signed_graph_is_connected_and_reproducible(self):
        a = [corpus.random_signed_graph(random.Random(5)) for _ in range(3)]
        b = [corpus.random_signed_graph(random.Random(5)) for _ in range(3)]
        assert a == b
        for _ in range(30):
            g = corpus.random_signed_graph(random.Random(_), n_max=7)
            assert g.is_connected() and 2 <= g.n <= 7

    def test_random_subquartic_graph_respects_the_cap(self):
        for seed in range(30):
            g = corpus.random_subquartic_graph(random.Random(seed))
            assert g.is_connected()
            assert g.max_degree() <= 4

    def test_random_complete_signing(self):
        g = corpus.random_complete_signing(random.Random(0), 7, 3)
        assert g.edge_count == 21
        assert len(g.negative_edges()) == 3
        with pytest.raises(ValueError, match="more negative edges"):
            corpus.random_complete_signing(random.Random(0), 4, 7)
