"""Structured negation sets: disjoint partners, bipartite constructions for
antibalanced graphs, and the acyclic (forest) construction for max degree 4."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    InvariantError,
    MinusK5Detected,
    PreconditionError,
    SignedGraph,
    acyclic_negation,
    bipartite_negation_for_antibalanced_planar,
    disjoint_partner,
    is_balanced,
    is_negation_set,
    negation_set_from_switching,
    switching_for_negation_set,
)
from negset import negation, oracle, verify
from negset.negation import negative_circles
from negset.sgio import load_path

from conftest import (
    assert_trace_replays,
    connected_signed_graphs,
    edge_set_is_bipartite,
    subquartic_signed_graphs,
)
from corpus import circulant_pairs, complete_graph, cube_graph, cycle_graph, from_underlying, negate_all


def assert_valid_acyclic(g: SignedGraph, result) -> None:
    """The three output contracts: switching-consistent, forest, balancing."""
    switched = g.switch(result.switching)
    assert switched.negative_edges() == result.negation_set
    verify.forest(g.n, result.negation_set)
    assert is_balanced(g.negate_edges(result.negation_set))


def acyclic_unless_minus_k5(g: SignedGraph, **kwargs):
    """``acyclic_negation(g)``, or ``None`` when ``g`` holds a -K5 block.

    Random subquartic graphs can contain a K5 switching-equivalent to -K5,
    which has no acyclic negation set; the refusal must name such a block.
    """
    try:
        return acyclic_negation(g, **kwargs)
    except MinusK5Detected as exc:
        sub = g.induced(sorted(exc.vertices))
        assert sub.edge_count == 10 and is_balanced(negate_all(sub))
        return None


class TestDisjointPartner:
    def test_even_cycle_single_negative(self):
        g = cycle_graph(4).negate_edges([(0, 1)])
        partner = disjoint_partner(g)
        assert is_negation_set(g, partner)
        assert partner.isdisjoint(g.negative_edges())

    def test_odd_negative_circle_is_rejected(self):
        g = complete_graph(5).negate_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionError, match="odd circle"):
            disjoint_partner(g)

    def test_balanced_graph_gets_a_partner_avoiding_nothing(self):
        g = cycle_graph(4).negate_edges([(0, 1), (1, 2)])
        assert is_balanced(g)
        partner = disjoint_partner(g)
        assert partner.isdisjoint(g.negative_edges())

    @given(connected_signed_graphs())
    def test_succeeds_exactly_on_bipartite_negative_sets(self, g):
        if edge_set_is_bipartite(g.n, g.negative_edges()):
            partner = disjoint_partner(g)
            assert is_negation_set(g, partner)
            assert partner.isdisjoint(g.negative_edges())
        else:
            with pytest.raises(PreconditionError):
                disjoint_partner(g)


class TestBipartiteNegationForAntibalanced:
    def test_all_negative_k4(self):
        g = complete_graph(4, NEG)
        out = bipartite_negation_for_antibalanced_planar(g, [0, 1, 2, 3])
        assert g.switch(out.switching).negative_edges() == out.negation_set
        assert is_negation_set(g, out.negation_set)
        assert edge_set_is_bipartite(g.n, out.negation_set)

    def test_all_negative_octahedron(self):
        edges = [
            (u, v, NEG)
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in {(0, 3), (1, 4), (2, 5)}
        ]
        g = SignedGraph(6, edges)
        out = bipartite_negation_for_antibalanced_planar(g, [0, 1, 2, 0, 1, 2])
        assert is_negation_set(g, out.negation_set)
        assert edge_set_is_bipartite(g.n, out.negation_set)

    def test_switched_antibalanced_wheel(self):
        hub_edges = [(0, v, NEG) for v in range(1, 6)]
        rim = [(v, v % 5 + 1, NEG) for v in range(1, 6)]
        g0 = SignedGraph(6, hub_edges + rim)
        # 5-wheel: hub its own color, rim colored 1,2,1,2,3
        coloring = [0, 1, 2, 1, 2, 3]
        g = g0.switch({1, 4})
        out = bipartite_negation_for_antibalanced_planar(g, coloring)
        assert is_negation_set(g, out.negation_set)
        assert edge_set_is_bipartite(g.n, out.negation_set)

    def test_rejects_bad_colorings(self):
        g = complete_graph(4, NEG)
        with pytest.raises(PreconditionError, match="0..3"):
            bipartite_negation_for_antibalanced_planar(g, [0, 1, 2, 4])
        with pytest.raises(PreconditionError, match="not proper"):
            bipartite_negation_for_antibalanced_planar(g, [0, 0, 1, 2])

    def test_rejects_non_antibalanced_graphs(self):
        g = cycle_graph(4).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError, match="antibalanced"):
            bipartite_negation_for_antibalanced_planar(g, [0, 1, 0, 1])


def test_constructions_build_no_resigned_copy(monkeypatch):
    """Each construction reads a switching's negation set as E⁻ △ cut(X) off its input.

    The answers are taken first with ``switch`` and ``negate_edges`` in
    place, then again with both raising.
    """
    hub = [(0, v, NEG) for v in range(1, 6)]
    wheel = SignedGraph(6, hub + [(v, v % 5 + 1, NEG) for v in range(1, 6)])
    antibalanced, coloring = [wheel, wheel.switch({1, 4})], [0, 1, 2, 1, 2, 3]
    # C_10(1, 2) with a negative 10-circle: 4-regular, so its 4-core is the whole graph
    pairs = [(i, (i + d) % 10, d) for i in range(10) for d in (1, 2)]
    circulant = SignedGraph(10, [(u, v, NEG if d == 1 else POS) for u, v, d in pairs])
    partnered = [cycle_graph(4), cycle_graph(6).negate_edges([(0, 1), (2, 3)]), circulant]
    switchings = [(g, x) for g in partnered for x in ([], [0], [1, 2, 3])]

    def answers():
        sets = [negation_set_from_switching(g, x) for g, x in switchings]
        return (
            [disjoint_partner(g) for g in partnered],
            [bipartite_negation_for_antibalanced_planar(g, coloring) for g in antibalanced],
            sets,
            [switching_for_negation_set(g, b) for (g, _), b in zip(switchings, sets)],
            acyclic_negation(circulant, trace=True),
        )

    expected = answers()
    assert expected[2] == [g.switch(x).negative_edges() for g, x in switchings]
    assert expected[0][0] == frozenset()

    def refuse(*args):
        raise AssertionError("a construction built a re-signed copy")

    for name in ("switch", "negate_edges"):
        monkeypatch.setattr(SignedGraph, name, refuse)
    assert answers() == expected


@st.composite
def connected_adjacencies(draw, max_n: int = 10):
    """Adjacency lists of a connected graph on distinct labels: a tree, unicyclic or dense.

    A random tree gets no extra edge, one, or between two and n; dense stops
    at 2n - 1 edges, which keeps exhaustive circle enumeration small.
    """
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(range(3 * max_n)))[:n]
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pool = sorted(set(combinations(range(n), 2)) - pairs)
    shape = draw(st.sampled_from(("tree", "unicyclic", "dense")))
    if pool and shape != "tree":
        size = min(len(pool), 1 if shape == "unicyclic" else draw(st.integers(2, n)))
        pairs.update(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)))
    nbrs: dict[int, list[int]] = {labels[v]: [] for v in range(n)}
    for u, v in pairs:
        nbrs[labels[u]].append(labels[v])
        nbrs[labels[v]].append(labels[u])
    return nbrs


class TestNegativeCircles:
    def test_enumeration_on_a_negative_clique(self):
        g = complete_graph(4, NEG)
        circles = negative_circles(g)
        # K4 has 4 triangles and 3 four-cycles
        assert len(circles) == 7
        assert all(c[0] == min(c) and c[1] < c[-1] for c in circles)

    def test_only_negative_edges_count(self):
        g = cycle_graph(5).negate_edges([(0, 1), (1, 2)])
        assert negative_circles(g) == ()
        assert negative_circles(cycle_graph(5, NEG)) == ((0, 1, 2, 3, 4),)

    @given(connected_adjacencies())
    def test_component_circles_agree_with_the_enumerator(self, nbrs):
        assert negation._component_circles(nbrs) == negation._enumerate_circles(nbrs, nbrs.__getitem__)


def rescanning_sweep(w, verts, threshold: int, phase: str) -> None:
    """The sweep's specification: rescan every member for the smallest violator after each switch."""
    members = sorted(verts)
    while True:
        v = next((v for v in members if w.neg_degree(v) >= threshold), None)
        if v is None:
            return
        w.rewrite(phase, phase, (v,), False)


def sweep_runs(g: SignedGraph, active, members, threshold: int) -> list:
    """The log and factors of ``_sweep`` and of the reference, each from a fresh state."""
    runs = []
    for sweep in (negation._sweep, rescanning_sweep):
        w = negation._Work(g)
        w.active = set(active)
        sweep(w, members, threshold, "reattach")
        runs.append((w.log, w.factor))
    return runs


class TestSweep:
    @given(subquartic_signed_graphs(max_n=12), st.sampled_from((2, 3)), st.data())
    @settings(max_examples=120)
    def test_sweep_matches_the_rescanning_reference(self, g, threshold, data):
        active = data.draw(st.frozensets(st.sampled_from(range(g.n))))
        # a switch lowers the active negative edge count only at active degree
        # below 2 * threshold, and the reference may not terminate otherwise
        eligible = [v for v in sorted(active) if sum(x in active for x in g.neighbors(v)) < 2 * threshold]
        members = data.draw(st.frozensets(st.sampled_from(eligible))) if eligible else frozenset()
        runs = sweep_runs(g, active, members, threshold)
        assert runs[0] == runs[1]

    def test_a_switched_vertex_is_recounted(self):
        # 0 switches first and drops to no negative edge; switching 1 then
        # gives it back one, which must not count on top of its old three
        g = SignedGraph(6, [(0, 1, NEG), (0, 2, NEG), (0, 3, NEG), (1, 4, NEG), (1, 5, NEG)])
        runs = sweep_runs(g, range(6), {0, 1}, 2)
        assert runs[0] == runs[1]
        assert [t.switched for t in runs[0][0]] == [(0,), (1,)]


class TestAcyclicNegation:
    def test_balanced_graph_keeps_its_forest(self):
        # Two disjoint negative edges on a balanced hexagon already form a
        # forest, so no rewriting is needed at all.
        g = cycle_graph(6).negate_edges([(0, 1), (2, 3)])
        result = acyclic_negation(g)
        assert_valid_acyclic(g, result)
        assert result.stats.passes == 0

    def test_small_unbalanced_graphs(self):
        for g in [
            cycle_graph(5).negate_edges([(0, 1)]),
            cycle_graph(3, NEG),
            complete_graph(4, NEG),
            cube_graph().negate_edges([(0, 1), (2, 3)]),
        ]:
            assert_valid_acyclic(g, acyclic_negation(g))

    def test_disconnected_input_is_rejected(self):
        g = SignedGraph(4, [(0, 1, NEG), (2, 3, NEG)])
        with pytest.raises(PreconditionError, match="connected"):
            acyclic_negation(g)

    def test_high_degree_core_is_rejected(self):
        g = complete_graph(6)
        with pytest.raises(PreconditionError, match="degree above four"):
            acyclic_negation(g)

    def test_a_high_degree_vertex_outside_the_core_is_accepted(self):
        # C_8(1, 2) plus a pendant on 0: degree five at 0, but the 4-core is 4-regular
        pairs = circulant_pairs(8, 1, 2) + [(0, 8)]
        g = from_underlying(9, pairs, pairs)
        assert g.max_degree() == 5
        assert_valid_acyclic(g, acyclic_negation(g))

    def test_all_negative_k5_is_detected(self):
        with pytest.raises(MinusK5Detected):
            acyclic_negation(complete_graph(5, NEG))

    def test_switched_k5_is_still_detected(self):
        g = complete_graph(5, NEG).switch({0, 2})
        with pytest.raises(MinusK5Detected):
            acyclic_negation(g)

    def test_k5_block_inside_a_larger_graph_is_detected(self):
        # A pendant path hangs off the bad clique; the 4-core is still -K5.
        base = [(u, v, NEG) for u in range(5) for v in range(u + 1, 5)]
        g = SignedGraph(7, base + [(4, 5, POS), (5, 6, NEG)])
        with pytest.raises(MinusK5Detected):
            acyclic_negation(g)

    def test_k5_signings_that_are_not_antibalanced_pass(self):
        g = complete_graph(5, NEG).negate_edges([(0, 1)])
        assert_valid_acyclic(g, acyclic_negation(g))

    def test_trace_is_none_by_default(self):
        result = acyclic_negation(cycle_graph(3, NEG))
        assert result.stats.trace is None

    @given(subquartic_signed_graphs(max_n=12))
    @settings(max_examples=120)
    def test_random_subquartic_sweep(self, g):
        result = acyclic_unless_minus_k5(g, trace=True)
        if result is None:
            return
        assert_valid_acyclic(g, result)
        assert_trace_replays(
            g, [(t.switched, t.strict) for t in result.stats.trace], result.negation_set
        )

    @given(subquartic_signed_graphs(max_n=12))
    def test_tracing_only_returns_the_log_that_replays_to_the_switching(self, g):
        plain = acyclic_unless_minus_k5(g)
        if plain is None:
            return
        traced = acyclic_negation(g, trace=True)
        assert traced.negation_set == plain.negation_set
        assert traced.switching == plain.switching
        assert traced.stats.passes == plain.stats.passes
        log = traced.stats.trace
        assert plain.stats.passes == sum(entry.phase == "main" for entry in log)
        replayed: set[int] = set()
        for entry in log:
            replayed ^= set(entry.switched)
        assert replayed == traced.switching

    @given(subquartic_signed_graphs(max_n=12))
    def test_oracle_frustration_lower_bound(self, g):
        result = acyclic_unless_minus_k5(g)
        if result is None:
            return
        assert len(result.negation_set) >= oracle.frustration_index(g)


_FOREST_CHECK_SCRIPT = """
from negset import NEG, InvariantError, SignedGraph, negation

assert not __debug__
negation._solve_core_component = lambda w, comp: None
n = 8
g = SignedGraph(n, [(i, (i + d) % n, NEG) for i in range(n) for d in (1, 2)])
try:
    negation.acyclic_negation(g)
except InvariantError as exc:
    print(exc)
"""


def test_forest_check_survives_python_O():
    src = Path(negation.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FOREST_CHECK_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    # the unsolved circulant's negative edges are the whole graph
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith("closes a circle")


def golden_graph(stem: str) -> SignedGraph:
    return load_path(Path(__file__).parent / "golden" / f"{stem}.sg")


class TestAcyclicHardInstances:
    """Inputs built to reach the later rewrite cases (golden reports pin their traces)."""

    def test_march_necklace(self):
        g = golden_graph("necklace-march22")
        assert g.max_degree() == 4
        result = acyclic_negation(g, trace=True)
        assert_valid_acyclic(g, result)
        labels = {t.label for t in result.stats.trace}
        assert {"episode-start", "march-advance", "shared-pair-shift",
                "split-positive-neighbors"} <= labels

    def test_finale_necklace(self):
        g = golden_graph("necklace-finale22")
        assert g.max_degree() == 4
        result = acyclic_negation(g, trace=True)
        assert_valid_acyclic(g, result)
        labels = {t.label for t in result.stats.trace}
        assert {"episode-start", "episode-finale"} <= labels

    @pytest.mark.xfail(
        strict=True,
        raises=InvariantError,
        reason="open: removing the residual triangle separates its replacement circles, "
        "and no rewrite handles that case yet",
    )
    def test_gadget_triangle(self):
        g = golden_graph("gadget-triangle18")
        assert g.n == 18
        assert {g.degree(v) for v in g.vertices()} == {4}
        assert g.circle_sign((0, 1, 2)) == NEG
        result = acyclic_negation(g)
        assert_valid_acyclic(g, result)

    def test_a_failed_run_leaves_no_reference_cycle(self):
        # the run's data are freed by reference counting alone, as cli.main's
        # paused collector needs, also when the construction gives up
        g = golden_graph("gadget-triangle18")
        failed = False
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            try:
                acyclic_negation(g)
            except InvariantError:
                failed = True
            gc.collect()
            cyclic = [o for o in gc.garbage if isinstance(o, (negation._Work, negation._CircleIndex))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert failed
        assert cyclic == []

    def test_pair_shift_instance(self):
        g = golden_graph("pair-shift8")
        result = acyclic_negation(g, trace=True)
        assert_valid_acyclic(g, result)
        labels = {t.label for t in result.stats.trace}
        assert {"shared-pair-shift", "split-positive-neighbors"} <= labels

    def test_branching_negative_core_uses_the_exhaustive_enumerator(self, monkeypatch):
        # After its first rewrite this input's negative 2-core has a vertex
        # of negative degree three, which the cycle walk cannot read off.
        calls = []
        enumerate_circles = negation._enumerate_circles

        def counted(verts, nbrs):
            calls.append(len(verts))
            return enumerate_circles(verts, nbrs)

        monkeypatch.setattr(negation, "_enumerate_circles", counted)
        g = golden_graph("circle-fallback22")
        assert_valid_acyclic(g, acyclic_negation(g))
        assert calls

    def test_passes_stay_within_budget(self):
        for stem in ("necklace-march22", "necklace-finale22"):
            g = golden_graph(stem)
            result = acyclic_negation(g)
            assert result.stats.passes <= max(100, 10 * g.n * g.edge_count)

    def test_exhausted_rewrite_budget_is_an_invariant_failure(self, monkeypatch):
        # a rewrite that switches nothing meets the same circle on every pass
        monkeypatch.setattr(
            negation, "_classify", lambda w, circle: negation._Action("chord", (), True)
        )
        g = SignedGraph(8, [(i, (i + d) % 8, NEG) for i in range(8) for d in (1, 2)])
        with pytest.raises(InvariantError, match="rewrite budget of 1280 passes"):
            acyclic_negation(g)

    def test_a_stale_preferred_circle_is_an_invariant_failure(self, monkeypatch):
        # the shift switches a, b and v4 and follows the fully negative a b v3;
        # planted instead, a b v4 keeps its edge a v4 positive
        classify = negation._classify
        planted = []

        def plant(w, circle):
            action = classify(w, circle)
            if action is not None and action.label == "shared-pair-shift":
                action = action._replace(follow=action.switched)
                planted.append(action.follow)
            return action

        monkeypatch.setattr(negation, "_classify", plant)
        with pytest.raises(InvariantError, match=r"preferred circle \(.*\) is not fully negative"):
            acyclic_negation(golden_graph("pair-shift8"))
        assert len(planted) == 1


class TestClassifyCases:
    """White-box checks that each rewrite case fires on its designed shape."""

    @staticmethod
    def classify(g: SignedGraph, circle):
        from negset.negation import _CircleIndex, _classify, _Work

        w = _Work(g)
        w.active = set(range(g.n))
        w.circles = _CircleIndex(range(g.n))
        return _classify(w, circle)

    def test_high_negative_degree(self):
        g = SignedGraph(4, [(0, 1, NEG), (1, 2, NEG), (0, 2, NEG), (0, 3, NEG)])
        action = self.classify(g, (0, 1, 2))
        assert action.label == "high-negative-degree"
        assert action.switched == (0,)
        assert action.strict

    def test_chord(self):
        g = SignedGraph(4, [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG),
                            (0, 2, POS)])
        action = self.classify(g, (0, 1, 2, 3))
        assert action.label == "chord"
        assert action.switched == (0, 2)

    def test_split_positive_neighbors(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (0, 5, POS), (4, 12, NEG), (5, 13, NEG)]
        edges += [(1, 6, POS), (1, 7, POS), (6, 7, NEG)]
        edges += [(2, 8, POS), (2, 9, POS), (8, 9, NEG)]
        edges += [(3, 10, POS), (3, 11, POS), (10, 11, NEG)]
        action = self.classify(SignedGraph(14, edges), (0, 1, 2, 3))
        assert action.label == "split-positive-neighbors"
        assert action.switched == (0,)

    def test_attached_positive_neighbor(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (0, 5, POS), (4, 6, NEG), (4, 7, NEG), (5, 6, NEG)]
        edges += [(1, 8, POS), (1, 9, POS), (8, 9, NEG)]
        edges += [(2, 10, POS), (2, 11, POS), (10, 11, NEG)]
        edges += [(3, 12, POS), (3, 13, POS), (12, 13, NEG)]
        action = self.classify(SignedGraph(14, edges), (0, 1, 2, 3))
        assert action.label == "attached-positive-neighbor"
        assert action.switched == (4, 0)

    def test_shared_neighbor_junction(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (1, 4, POS), (4, 5, NEG), (5, 6, NEG), (5, 7, NEG)]
        edges += [(0, 8, POS), (8, 6, NEG), (1, 9, POS), (9, 7, NEG)]
        edges += [(2, 10, POS), (2, 11, POS), (10, 11, NEG)]
        edges += [(3, 12, POS), (3, 13, POS), (12, 13, NEG)]
        action = self.classify(SignedGraph(14, edges), (0, 1, 2, 3))
        assert action.label == "shared-neighbor-junction"
        assert action.switched == (0, 5)

    def test_shared_pair_rectangle(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (0, 5, POS), (1, 4, POS), (1, 5, POS)]
        edges += [(4, 6, NEG), (5, 7, NEG), (6, 7, NEG)]
        edges += [(2, 8, POS), (2, 9, POS), (8, 9, NEG)]
        edges += [(3, 10, POS), (3, 11, POS), (10, 11, NEG)]
        action = self.classify(SignedGraph(12, edges), (0, 1, 2, 3))
        assert action.label == "shared-pair-rectangle"
        assert action.switched == (0, 1, 4, 5)

    def test_shared_pair_shift(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (0, 5, POS), (1, 4, POS), (1, 5, POS), (4, 5, NEG)]
        edges += [(2, 6, POS), (2, 7, POS), (6, 7, NEG)]
        edges += [(3, 8, POS), (3, 9, POS), (8, 9, NEG)]
        action = self.classify(SignedGraph(10, edges), (0, 1, 2, 3))
        assert action.label == "shared-pair-shift"
        assert not action.strict
        assert action.switched == (0, 1, 5)
        assert action.follow == (0, 1, 4)

    def test_nonadjacent_shared_collapse(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        edges += [(0, 4, POS), (0, 5, POS), (2, 4, POS), (2, 5, POS), (4, 5, NEG)]
        edges += [(1, 6, POS), (1, 7, POS), (6, 7, NEG)]
        edges += [(3, 8, POS), (3, 9, POS), (8, 9, NEG)]
        action = self.classify(SignedGraph(10, edges), (0, 1, 2, 3))
        assert action.label == "nonadjacent-shared-collapse"
        assert action.switched == (0, 2, 4)

    def test_residual_episode_shape_returns_none(self):
        edges = [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG)]
        for i, v in enumerate(range(4)):
            a, b = 4 + 2 * i, 5 + 2 * i
            edges += [(v, a, POS), (v, b, POS), (a, b, NEG)]
        assert self.classify(SignedGraph(12, edges), (0, 1, 2, 3)) is None

    def test_corridor_kinds(self):
        from negset.negation import _corridor, _Work

        g = SignedGraph(5, [(0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (2, 4, NEG)])
        w = _Work(g)
        w.active = set(range(5))
        assert _corridor(w, 0) == ([0, 1, 2], "junction")
        assert _corridor(w, 3) == ([3, 2], "junction")
        h = SignedGraph(3, [(0, 1, NEG), (1, 2, NEG)])
        w2 = _Work(h)
        w2.active = {0, 1, 2}
        assert _corridor(w2, 0) == ([0, 1, 2], "leaf")
