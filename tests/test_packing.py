"""Exact packing numbers for disjoint families of negation sets."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    ClassGraph,
    InvariantError,
    IterationBudgetError,
    PreconditionError,
    SignedGraph,
    build_class_graph,
    class_distances,
    negative_component_classes,
    packing_number,
    thresholds,
)
from negset import oracle, packing, verify
from negset.sgio import load_path

import corpus
from corpus import (
    complete_graph,
    counterexample_hexagon,
    cycle_graph,
    has_negative_digon,
    long_hexagon,
    path_graph,
    quartic_negative_matching,
    three_blobs,
)
from conftest import connected_signed_graphs, edge_set_is_bipartite


def assert_valid_family(g: SignedGraph, result) -> None:
    assert result.packing_number == len(result.family)
    assert result.family[0] == g.negative_edges()
    verify.family(g, result.family)


class TestAnchors:
    def test_five_cycle_single_negative(self):
        g = cycle_graph(5).negate_edges([(0, 1)])
        result = packing_number(g)
        assert result.packing_number == 5
        assert_valid_family(g, result)
        assert result.distance == 4
        assert result.realizing_bipartition is not None
        b1, b2 = result.realizing_bipartition
        assert set(b1) == {0} and set(b2) == {1} or set(b1) == {1} and set(b2) == {0}

    def test_triangle_single_negative(self):
        g = cycle_graph(3).negate_edges([(0, 1)])
        result = packing_number(g)
        assert result.packing_number == 3
        assert_valid_family(g, result)
        assert result.distance == 2

    def test_even_cycle_matches_length(self):
        # One negative edge on C_n packs into n singleton layers.
        for n in range(3, 8):
            g = cycle_graph(n).negate_edges([(0, 1)])
            assert packing_number(g).packing_number == n

    def test_nonbipartite_negative_set_packs_alone(self):
        g = complete_graph(5).negate_edges([(0, 1), (1, 2), (0, 2)])
        result = packing_number(g)
        assert result.packing_number == 1
        assert result.family[0] == g.negative_edges()
        assert result.realizing_bipartition is None


class TestPreconditions:
    def test_disconnected_graph(self):
        g = SignedGraph(4, [(0, 1, NEG), (2, 3, NEG)])
        with pytest.raises(PreconditionError, match="connected"):
            packing_number(g)

    def test_balanced_graph(self):
        g = cycle_graph(4).negate_edges([(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="balanced"):
            packing_number(g)


class TestMixedBipartitionInstances:
    def test_hexagon_counterexample(self):
        g = counterexample_hexagon()
        result = packing_number(g)
        assert result.packing_number == 4
        assert_valid_family(g, result)
        # No single stable bipartition realizes this family.
        assert result.realizing_bipartition is None
        assert result.distance is None
        assert oracle.brute_packing_number(g) == 4

    def test_alternating_hexagon(self):
        g = SignedGraph(6, [
            (0, 1, NEG), (1, 2, POS), (2, 3, NEG),
            (3, 4, POS), (4, 5, NEG), (0, 5, POS),
        ])
        result = packing_number(g)
        assert result.packing_number == 4
        assert_valid_family(g, result)
        assert oracle.brute_packing_number(g) == 4

    def test_single_component_instances_never_need_the_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exhaustive fallback invoked on a certified instance")

        monkeypatch.setattr(packing, "_exact_packing", forbidden)
        for g in [
            cycle_graph(5).negate_edges([(0, 1)]),
            cycle_graph(6).negate_edges([(0, 1), (1, 2), (2, 3)]),
            complete_graph(5).negate_edges([(0, 1)]),
        ]:
            result = packing_number(g)
            assert_valid_family(g, result)
            assert result.realizing_bipartition is not None

    def test_k5_matching_search_confirms_the_scan(self):
        # Two negative components on K5: the exhaustive search finds no
        # improvement, so the single-bipartition witness is kept.
        g = complete_graph(5).negate_edges([(0, 3), (1, 2)])
        result = packing_number(g)
        assert_valid_family(g, result)
        assert result.packing_number == oracle.brute_packing_number(g) == 2
        assert result.realizing_bipartition is not None
        assert result.distance == 1

    def test_c8_triple_matching_search_improves_the_scan(self):
        # Three negative components on C8: layered families top out at 4,
        # but mixing bipartitions packs all five positive edges separately.
        g = cycle_graph(8).negate_edges([(0, 1), (2, 3), (4, 5)])
        result = packing_number(g)
        assert_valid_family(g, result)
        assert result.packing_number == oracle.brute_packing_number(g) == 6
        assert result.realizing_bipartition is None

    # The hexagon's search has 2 bits: 4 cuts, each counted at 256 bits, so
    # a table budget of 1023 bits refuses them and one of 1024 admits them.
    @pytest.mark.parametrize(
        "budget, value", [("COLUMN_BITS", (256 << 2) - 1), ("PACKING_STEPS", 1)], ids=["cuts", "steps"]
    )
    def test_budget_guard_reports_scan_floor(self, monkeypatch, budget, value):
        monkeypatch.setattr(oracle, budget, value)
        with pytest.raises(IterationBudgetError, match="lower bound is 3"):
            packing_number(counterexample_hexagon())

    # Random 4-regular graphs on 6,000 vertices with ten disjoint negative
    # edges, like the benchmark's uniform-k10 ops: the scan stops below the
    # bound and the cut table is refused.  The scan values 6 and 7 are what
    # one-sided class BFSs to the full bound give, which the meet must match.
    @pytest.mark.parametrize("seed, scan", [(0, 6), (5, 7)])
    def test_budget_message_names_the_same_scan_lower_bound(self, seed, scan):
        g = quartic_negative_matching(seed, 6000, 10)
        message = (
            r"exact packing search needs 2\^5989 cuts of 12000 bits, over its budget of 32 MiB; "
            rf"the scan lower bound is {scan}$"
        )
        with pytest.raises(IterationBudgetError, match=message):
            packing_number(g)

    def test_cut_table_budget_admits_a_table_that_fits(self, monkeypatch):
        monkeypatch.setattr(oracle, "COLUMN_BITS", 256 << 2)
        assert packing_number(counterexample_hexagon()).packing_number == 4

    def test_budget_runs_out_before_any_family_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a family was certified before the budget check")

        monkeypatch.setattr(oracle, "COLUMN_BITS", (256 << 2) - 1)
        monkeypatch.setattr(verify, "family", forbidden)
        with pytest.raises(IterationBudgetError, match="lower bound is 3"):
            packing_number(counterexample_hexagon())

    def test_a_large_cut_table_is_refused_before_the_walk(self):
        # few search bits but wide cuts: 2^17 cuts of 18,021 bits would hold
        # about 300 MB, so the gate counts bits, not cuts
        g = long_hexagon(15)
        tracemalloc.start()
        try:
            with pytest.raises(IterationBudgetError, match=r"2\^17 cuts of 18021 bits.* lower bound is 3$"):
                packing_number(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_a_long_walk_holds_only_the_cuts_it_walks(self):
        # 2 search bits over 60,006 edges: the search holds its start cut and
        # two toggles, not one edge mask per vertex (n masks of up to m bits)
        g = long_hexagon(0, length=10001)
        tracemalloc.start()
        try:
            assert packing_number(g).packing_number == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20

    @given(connected_signed_graphs(max_n=9))
    @settings(max_examples=120)
    def test_every_class_free_vertex_reaches_a_class(self, g):
        # The exact search enumerates every class-free vertex; this pins why
        # none is wasted: on a connected unbalanced graph with bipartite E-,
        # each shares a positive component with some class vertex.
        from negset import is_balanced

        if is_balanced(g) or not edge_set_is_bipartite(g.n, g.negative_edges()):
            return
        in_class = frozenset().union(*negative_component_classes(g).flat())
        positive = SignedGraph(g.n, [(u, v, POS) for u, v in g.positive_edges()])
        for comp in positive.connected_components():
            assert in_class.intersection(comp)


@st.composite
def split_negative_graphs(draw, max_n: int = 9):
    """Connected signed graph whose E⁻ is bipartite with at least two components.

    A negative edge joins two vertices of one drawn group with opposite drawn
    colours; edges 01 (group 0) and 23 (group 1) are always negative.
    """
    g = draw(connected_signed_graphs(min_n=4, max_n=max_n))
    rest = g.n - 4
    group = [0, 0, 1, 1] + draw(st.lists(st.integers(0, 2), min_size=rest, max_size=rest))
    color = [0, 1, 0, 1] + draw(st.lists(st.integers(0, 1), min_size=rest, max_size=rest))
    signs = {(u, v): s for u, v, s in g.edges()} | {(0, 1): NEG, (2, 3): NEG}
    return SignedGraph(g.n, [
        (u, v, s if group[u] == group[v] and color[u] != color[v] else POS)
        for (u, v), s in signs.items()
    ])


def dense_class_distances(g: SignedGraph, classes) -> list[list[float]]:
    """Reference 2m × 2m matrix: one plain BFS per class over the positive
    edges, then the least distance to each class; ``inf`` when not joined."""
    adjacency: dict[int, list[int]] = {v: [] for v in g.vertices()}
    for u, v in g.positive_edges():
        adjacency[u].append(v)
        adjacency[v].append(u)
    flat = classes.flat()
    matrix = []
    for cls in flat:
        dist = dict.fromkeys(cls, 0)
        queue = list(cls)
        for x in queue:
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        matrix.append([min(dist.get(v, math.inf) for v in other) for other in flat])
    return matrix


def contracted_reference(g: SignedGraph, classes) -> float:
    """One plain BFS per component over the positive multigraph with every
    class contracted to one node and every class-free vertex a node of its own."""
    flat = classes.flat()
    node_of = {v: idx for idx, cls in enumerate(flat) for v in cls}
    for v in g.vertices():
        node_of.setdefault(v, len(flat) + v)
    adjacency: dict[int, set[int]] = {node: set() for node in node_of.values()}
    for u, v in g.positive_edges():
        if node_of[u] != node_of[v]:
            adjacency[node_of[u]].add(node_of[v])
            adjacency[node_of[v]].add(node_of[u])
    expected = []
    for i in range(classes.m):
        dist = {2 * i: 0}
        queue = [2 * i]
        for x in queue:
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        expected.append(dist.get(2 * i + 1, math.inf))
    return min(expected)


def alternating_c6() -> SignedGraph:
    """C_6 with alternating signs: three one-edge negative components, each
    class reaching only the next component's class by a positive edge."""
    return SignedGraph(6, [
        (0, 1, POS), (1, 2, NEG), (2, 3, POS),
        (3, 4, NEG), (4, 5, POS), (0, 5, NEG),
    ])


def disconnected_fixture_cycle() -> SignedGraph:
    """The balanced 8-cycle of golden ``packing-disconnected``: its two negative
    edges split it into two positive paths, each from a class of one
    component to a class of the other."""
    g = load_path(Path(__file__).parent / "golden" / "packing-disconnected.sg")
    cycle = next(comp for comp in g.connected_components() if len(comp) == 8)
    return g.induced(cycle)


#: Inputs whose contracted bound is ``inf``; the blobs put many components'
#: classes in each of three closed regions.
INFINITE_BOUND = {
    "alternating-c6": alternating_c6,
    "disconnected-cycle": disconnected_fixture_cycle,
    "three-blobs": lambda: three_blobs(7, size=12, links=2),
}

#: Inputs with a finite bound, one negative component or several.
FINITE_BOUND = {
    "quartic-one-negative": lambda: quartic_negative_matching(3, 60),
    "quartic-ten-negative": lambda: quartic_negative_matching(3, 120, 10),
}

BOUND_INPUTS = {**INFINITE_BOUND, **FINITE_BOUND}


class CountingRows:
    """Stands in for ``signed_rows()``, counting the rows read."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __getitem__(self, v):
        self.reads += 1
        return self.rows[v]


def bound_row_reads(monkeypatch, g: SignedGraph) -> tuple[float, int]:
    """``_contracted_bound`` on g, with the rows it reads counted."""
    classes = negative_component_classes(g)
    rows = CountingRows(g.signed_rows())
    monkeypatch.setattr(SignedGraph, "signed_rows", lambda self: rows)
    return packing._contracted_bound(g, classes), rows.reads


class TestContractedBound:
    @given(split_negative_graphs())
    @settings(max_examples=150)
    def test_matches_bfs_over_the_contracted_multigraph(self, g):
        classes = negative_component_classes(g)
        assert classes.m >= 2
        assert packing._contracted_bound(g, classes) == contracted_reference(g, classes)

    @pytest.mark.parametrize("make", INFINITE_BOUND.values(), ids=INFINITE_BOUND)
    def test_no_joined_component_gives_infinity(self, make):
        g = make()
        classes = negative_component_classes(g)
        assert classes.m >= 2
        assert packing._contracted_bound(g, classes) == contracted_reference(g, classes) == math.inf

    @pytest.mark.parametrize("make", FINITE_BOUND.values(), ids=FINITE_BOUND)
    def test_matches_the_reference_on_quartic_signings(self, make):
        g = make()
        classes = negative_component_classes(g)
        bound = packing._contracted_bound(g, classes)
        assert math.isfinite(bound) and bound == contracted_reference(g, classes)

    def test_one_component_meets_halfway(self, monkeypatch):
        # two balls of about half the distance each, not one ball of the whole
        g = quartic_negative_matching(5000, 5000)
        bound, reads = bound_row_reads(monkeypatch, g)
        assert math.isfinite(bound)
        assert reads < g.n // 10

    def test_a_closed_region_settles_every_component_it_splits(self, monkeypatch):
        # 900 components, every one split between two 2,000-vertex blobs: each
        # search that runs out records its blob, so the bound walks a few blobs
        g = three_blobs(3)
        bound, reads = bound_row_reads(monkeypatch, g)
        assert bound == math.inf
        assert reads <= 2 * g.n


class TestAgainstBruteForce:
    @given(connected_signed_graphs(max_n=7))
    @settings(max_examples=80)
    def test_matches_switching_enumeration(self, g):
        from negset import is_balanced

        if is_balanced(g) or not g.negative_edges():
            return
        if not edge_set_is_bipartite(g.n, g.negative_edges()):
            return
        result = packing_number(g)
        assert_valid_family(g, result)
        assert result.packing_number == oracle.brute_packing_number(g)

    def test_exhaustive_small_cycles(self):
        for n in (4, 5, 6):
            for g in corpus.all_signings(cycle_graph(n)):
                from negset import is_balanced

                if is_balanced(g):
                    continue
                if not edge_set_is_bipartite(g.n, g.negative_edges()):
                    continue
                result = packing_number(g)
                assert_valid_family(g, result)
                assert result.packing_number == oracle.brute_packing_number(g)


def assert_dense_reference_at_every_limit(g: SignedGraph) -> None:
    """``class_distances`` is the dense matrix capped, at every finite limit up
    to one past the largest finite distance, and at ``inf``."""
    classes = negative_component_classes(g)
    dense = dense_class_distances(g, classes)
    top = max((d for row in dense for d in row if math.isfinite(d)), default=0)
    for limit in (*range(top + 2), math.inf):
        expected = {
            (a, b): d
            for a, row in enumerate(dense)
            for b, d in enumerate(row)
            if a < b and math.isfinite(d) and d <= limit
        }
        assert class_distances(g, classes, limit) == expected, limit


class TestClassMachinery:
    def test_classes_split_components_by_parity(self):
        # Negative edges 01, 05, 23: one path component {1, 0, 5} and one
        # edge component {2, 3}, ordered by smallest vertex.
        g = counterexample_hexagon()
        classes = negative_component_classes(g)
        assert classes.m == 2
        flat = classes.flat()
        assert flat[0] == frozenset({0})
        assert flat[1] == frozenset({1, 5})
        assert flat[2] == frozenset({2})
        assert flat[3] == frozenset({3})

    def test_no_negative_edges_is_rejected(self):
        with pytest.raises(PreconditionError, match="no negative edges"):
            negative_component_classes(cycle_graph(4))

    def test_odd_negative_circle_is_rejected(self):
        g = complete_graph(4).negate_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionError, match="odd circle"):
            negative_component_classes(g)

    def test_class_distances_are_symmetric_with_zero_diagonal(self):
        g = cycle_graph(6).negate_edges([(0, 1), (3, 4)])
        classes = negative_component_classes(g)
        dist = class_distances(g, classes, math.inf)
        dense = dense_class_distances(g, classes)
        size = 2 * classes.m
        for a in range(size):
            # a class's distance to itself is 0, so the table keeps no key for it
            assert dense[a][a] == 0 and (a, a) not in dist
            for b in range(size):
                assert dense[a][b] == dense[b][a]
        # one key per joined unordered pair, read the same from either class's BFS
        assert dist == {
            (a, b): dense[a][b]
            for a in range(size)
            for b in range(a + 1, size)
            if math.isfinite(dense[a][b])
        }

    def test_unreachable_classes_get_infinity(self):
        # The positive subgraph of an all-negative path is empty.
        g = path_graph(3, NEG)
        classes = negative_component_classes(g)
        dist = class_distances(g, classes, math.inf)
        assert dist == {}
        assert dense_class_distances(g, classes)[0][1] == math.inf

    @given(connected_signed_graphs(max_n=9), st.integers(0, 9))
    @settings(max_examples=120)
    def test_cut_off_distances_are_the_full_matrix_capped(self, g, limit):
        negative = g.negative_edges()
        if not negative or not edge_set_is_bipartite(g.n, negative):
            return
        classes = negative_component_classes(g)
        full = class_distances(g, classes, math.inf)
        capped = {pair: d for pair, d in full.items() if d <= limit}
        assert class_distances(g, classes, limit) == capped

    @given(split_negative_graphs(max_n=14))
    @settings(max_examples=100)
    def test_sparse_table_is_the_dense_reference_within_the_limit(self, g):
        assert_dense_reference_at_every_limit(g)

    @pytest.mark.parametrize("make", BOUND_INPUTS.values(), ids=BOUND_INPUTS)
    def test_half_depth_meet_is_the_dense_reference(self, make):
        assert_dense_reference_at_every_limit(make())

    def test_thresholds_are_distinct_ascending_finite(self):
        g = cycle_graph(6).negate_edges([(0, 1), (3, 4)])
        classes = negative_component_classes(g)
        ws = thresholds(class_distances(g, classes, math.inf))
        assert list(ws) == sorted(set(ws))
        assert all(isinstance(w, int) and w >= 1 for w in ws)

    def test_class_graph_mirror_closure(self):
        g = cycle_graph(6).negate_edges([(0, 1), (3, 4)])
        classes = negative_component_classes(g)
        dist = class_distances(g, classes, math.inf)
        for w in thresholds(dist):
            cg = build_class_graph(classes, dist, w)
            assert cg.threshold == w
            for u, v in cg.positive_edges:
                assert (min(u ^ 1, v ^ 1), max(u ^ 1, v ^ 1)) in cg.positive_edges

    def test_digon_detection(self):
        g = cycle_graph(4).negate_edges([(0, 1)])
        classes = negative_component_classes(g)
        dist = class_distances(g, classes, math.inf)
        last = build_class_graph(classes, dist, thresholds(dist)[-1])
        # at the largest threshold the two classes of the single component
        # are within reach of each other, closing a digon
        assert has_negative_digon(last)
        assert not last.balanced()

    def test_class_graph_rejects_a_loop(self):
        with pytest.raises(ValueError, match="loop at class 1"):
            ClassGraph(1, 1, frozenset({(1, 1)}))

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 1)], ids=["above", "negative"])
    def test_class_graph_rejects_a_class_index_out_of_range(self, edge):
        with pytest.raises(ValueError, match="class index out of range"):
            ClassGraph(1, 1, frozenset({edge}))

    def test_class_graph_balance_builds_no_signed_graph(self, monkeypatch):
        builds = []
        original = SignedGraph.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SignedGraph, "__init__", counting)
        # a +/- digon on classes 0 and 1, and a balanced square on two components
        digon = ClassGraph(1, 1, frozenset({(0, 1)}))
        square = ClassGraph(2, 1, frozenset({(0, 2), (1, 3)}))
        assert not digon.balanced()
        with pytest.raises(InvariantError, match="unbalanced class graph"):
            digon.harary_sides()
        assert square.balanced()
        assert square.harary_sides() == frozenset({0, 2})
        assert builds == []

    def test_class_graph_is_coloured_once_when_built(self, monkeypatch):
        digon = ClassGraph(1, 1, frozenset({(0, 1)}))
        square = ClassGraph(2, 1, frozenset({(0, 2), (1, 3)}))

        def no_bfs(*args, **kwargs):
            raise AssertionError("a class graph was coloured again")

        monkeypatch.setattr(packing, "_two_color", no_bfs)
        assert not digon.balanced()
        with pytest.raises(InvariantError, match="unbalanced class graph"):
            digon.harary_sides()
        assert square.balanced()
        assert square.harary_sides() == frozenset({0, 2})


def scan_sequence(g: SignedGraph):
    classes = negative_component_classes(g)
    dist = class_distances(g, classes, math.inf)
    ws = thresholds(dist)
    graphs = [build_class_graph(classes, dist, w) for w in ws]
    return classes, dist, ws, graphs


class TestBalanceScanShape:
    @given(connected_signed_graphs(max_n=7))
    @settings(max_examples=80)
    def test_scan_balance_is_monotone_non_increasing(self, g):
        from negset import is_balanced

        if is_balanced(g) or not g.negative_edges():
            return
        if not edge_set_is_bipartite(g.n, g.negative_edges()):
            return
        _, _, _, graphs = scan_sequence(g)
        balanced_flags = [cg.balanced() for cg in graphs]
        for earlier, later in zip(balanced_flags, balanced_flags[1:]):
            assert earlier or not later

    @given(connected_signed_graphs(max_n=7))
    @settings(max_examples=80)
    def test_intra_component_threshold_forces_a_digon(self, g):
        from negset import is_balanced

        if is_balanced(g) or not g.negative_edges():
            return
        if not edge_set_is_bipartite(g.n, g.negative_edges()):
            return
        classes, dist, ws, graphs = scan_sequence(g)
        # the two classes of one component are the pair (2i, 2i + 1)
        intra = [d for (a, b), d in dist.items() if b == a ^ 1]
        if not intra:
            return
        mu = next(k for k, w in enumerate(ws) if w >= min(intra))
        assert has_negative_digon(graphs[mu])
        assert not graphs[mu].balanced()

    def test_scan_stops_exactly_at_first_unbalanced_class_graph(self):
        g = cycle_graph(5).negate_edges([(0, 1)])
        _, _, ws, graphs = scan_sequence(g)
        result = packing_number(g)
        first_unbalanced = next(k for k, cg in enumerate(graphs) if not cg.balanced())
        assert result.distance == ws[first_unbalanced]


_CHECK_FAMILY_SCRIPT = """
from negset import NEG, POS, InvariantError, SignedGraph, verify

assert not __debug__
g = SignedGraph(5, [(i, (i + 1) % 5, NEG if i == 0 else POS) for i in range(5)])
member = g.negative_edges()
for family in ([member, member], [member, frozenset()]):
    try:
        verify.family(g, family)
    except InvariantError as exc:
        print(exc)
"""


def test_family_check_survives_python_O():
    src = Path(packing.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHECK_FAMILY_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines() == [
        "family member 1 overlaps an earlier member",
        "family member 1 is not a negation set",
    ]
