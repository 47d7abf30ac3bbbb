"""Minimality of negation sets, minimum/uniqueness certificates, edge coloring."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    MalformedCertificateError,
    PreconditionError,
    SignedGraph,
    is_minimal,
    is_negation_set,
    negation_set_from_switching,
    triangle_certificate_for_complete,
    unique_minimum_by_size,
    verify_disjoint_circle_certificate,
    verify_two_circle_certificate,
)
from negset import oracle
from negset.minimality import misra_gries_edge_coloring

import corpus
from corpus import complete_graph, cycle_graph, path_graph
from conftest import connected_signed_graphs


class TestIsMinimal:
    def test_bridge_edge_is_never_in_a_minimal_set(self):
        # A tree is balanced, so the empty set is a negation set and every
        # nonempty negation set strictly contains it.
        g = path_graph(4).negate_edges([(1, 2)])
        assert not is_minimal(g, [(1, 2)])
        assert is_minimal(g, [])

    def test_single_negative_edge_on_cycle_is_minimal(self):
        g = cycle_graph(5).negate_edges([(0, 1)])
        assert is_minimal(g, [(0, 1)])

    def test_whole_cycle_is_not_minimal(self):
        g = cycle_graph(5, NEG)
        assert not is_minimal(g, g.negative_edges())

    def test_preconditions(self):
        disconnected = SignedGraph(4, [(0, 1, POS), (2, 3, NEG)])
        with pytest.raises(PreconditionError, match="connected"):
            is_minimal(disconnected, [(2, 3)])
        g = cycle_graph(5).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError, match="negation set"):
            is_minimal(g, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("b", [[(0, 1)], [(3, 4)]], ids=["first-component", "second-component"])
    def test_disconnection_is_reported_before_a_non_negation_set(self, b):
        # two positive triangles: one negated edge closes a negative triangle
        # in its own component, found before or after the second BFS root
        g = SignedGraph(6, [(0, 1, POS), (0, 2, POS), (1, 2, POS), (3, 4, POS), (3, 5, POS), (4, 5, POS)])
        assert not is_negation_set(g, b)
        with pytest.raises(PreconditionError, match="connected"):
            is_minimal(g, b)

    @given(connected_signed_graphs(max_n=7))
    def test_agrees_with_brute_force(self, g):
        rng = random.Random(g.edge_count * 1000003 + g.n)
        sets = list(oracle.enumerate_negation_sets(g))
        sample = sets if len(sets) <= 24 else rng.sample(sets, 24)
        for b in sample:
            assert is_minimal(g, b) == oracle.brute_is_minimal(g, b)

    @given(connected_signed_graphs(max_n=7))
    def test_minimal_sets_have_no_proper_negation_subset(self, g):
        for b in oracle.enumerate_negation_sets(g):
            if not is_minimal(g, b):
                continue
            for r in range(len(b)):
                for sub in combinations(sorted(b), r):
                    assert not is_negation_set(g, sub)


class TestDisjointCircleCertificate:
    def test_accepts_a_valid_triangle_pair(self):
        g = complete_graph(6).negate_edges([(0, 1), (2, 3)])
        cert = [(0, 1, 4), (2, 3, 5)]
        assert verify_disjoint_circle_certificate(g, [(0, 1), (2, 3)], cert)

    def test_rejects_wrong_count(self):
        g = complete_graph(6).negate_edges([(0, 1), (2, 3)])
        assert not verify_disjoint_circle_certificate(g, [(0, 1), (2, 3)], [(0, 1, 4)])

    def test_rejects_positive_circle(self):
        g = complete_graph(6).negate_edges([(0, 1), (2, 3)])
        cert = [(0, 1, 4), (2, 5, 3)]  # second triangle has two negatives? no, zero
        assert g.circle_sign((2, 5, 3)) == NEG  # touches (2,3) once: negative
        bad = [(0, 1, 4), (4, 5, 2)]  # all-positive triangle
        assert g.circle_sign((4, 5, 2)) == POS
        assert not verify_disjoint_circle_certificate(g, [(0, 1), (2, 3)], bad)

    def test_rejects_shared_edges(self):
        g = complete_graph(6).negate_edges([(0, 1), (2, 3)])
        cert = [(0, 1, 4), (2, 3, 4)]
        # The two triangles share no edge (different supports), so this one
        # is actually fine; force a genuine share instead.
        assert verify_disjoint_circle_certificate(g, [(0, 1), (2, 3)], cert)
        g2 = complete_graph(5).negate_edges([(0, 1), (0, 2)])
        shares = [(0, 1, 3), (0, 3, 2)]  # both use edge (0, 3)
        assert not verify_disjoint_circle_certificate(g2, [(0, 1), (0, 2)], shares)

    def test_malformed_circles_raise(self):
        g = complete_graph(5).negate_edges([(0, 1)])
        with pytest.raises(MalformedCertificateError, match="fewer than 3"):
            verify_disjoint_circle_certificate(g, [(0, 1)], [(0, 1)])
        with pytest.raises(MalformedCertificateError, match="repeats"):
            verify_disjoint_circle_certificate(g, [(0, 1)], [(0, 1, 0)])
        g2 = cycle_graph(5).negate_edges([(0, 1)])
        with pytest.raises(MalformedCertificateError, match="missing edge"):
            verify_disjoint_circle_certificate(g2, [(0, 1)], [(0, 1, 3)])

    def test_non_negation_set_raises(self):
        g = complete_graph(5).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError):
            verify_disjoint_circle_certificate(g, [(0, 1), (1, 2)], [])

    def test_valid_certificate_implies_minimum(self):
        # Metamorphic check: whenever the verifier accepts, the brute-force
        # frustration index equals |b|.
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice([5, 6, 7])
            g = corpus.random_complete_signing(rng, n, rng.randint(1, 2))
            b = sorted(g.negative_edges())
            cert = triangle_certificate_for_complete(g, b)
            if cert is None:
                continue
            assert verify_disjoint_circle_certificate(g, b, cert)
            assert oracle.frustration_index(g) == len(b)


class TestTriangleCertificate:
    def test_empty_negative_set(self):
        assert triangle_certificate_for_complete(complete_graph(5), []) == ()

    def test_matching_gets_one_triangle_per_edge(self):
        g = complete_graph(7).negate_edges([(0, 1), (2, 3)])
        cert = triangle_certificate_for_complete(g, [(0, 1), (2, 3)])
        assert cert is not None and len(cert) == 2
        for tri in cert:
            assert g.circle_sign(tri) == NEG

    def test_returns_none_when_spares_run_out(self):
        # A 5-vertex star of negative edges from vertex 0 covers every spare.
        g = complete_graph(5).negate_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
        assert triangle_certificate_for_complete(g, g.negative_edges()) is None

    def test_requires_complete_graph(self):
        g = cycle_graph(5).negate_edges([(0, 1)])
        with pytest.raises(PreconditionError, match="complete"):
            triangle_certificate_for_complete(g, [(0, 1)])

    def test_certificates_survive_switching(self):
        # The negation set does not need to be the current negative edge set.
        rng = random.Random(11)
        for _ in range(20):
            g0 = corpus.random_complete_signing(rng, 7, 2)
            b = sorted(g0.negative_edges())
            x = frozenset(rng.sample(range(7), rng.randint(0, 3)))
            g = g0.switch(x)
            cert = triangle_certificate_for_complete(g, b)
            if cert is not None:
                assert verify_disjoint_circle_certificate(g, b, cert)


class TestTwoCircleCertificate:
    def test_accepts_hand_built_pairs(self):
        g = complete_graph(7).negate_edges([(0, 1)])
        pairs = [((0, 1), (0, 1, 2), (0, 1, 3))]
        assert verify_two_circle_certificate(g, [(0, 1)], pairs)

    def test_rejects_wrong_intersection(self):
        g = complete_graph(7).negate_edges([(0, 1)])
        # The two triangles share the edge (0, 2) as well once we pick
        # overlapping spares: (0,1,2) and (0,2,1) are the same circle.
        pairs = [((0, 1), (0, 1, 2), (0, 2, 1))]
        assert not verify_two_circle_certificate(g, [(0, 1)], pairs)

    def test_rejects_uncovered_edges(self):
        g = complete_graph(7).negate_edges([(0, 1), (2, 3)])
        pairs = [((0, 1), (0, 1, 4), (0, 1, 5))]
        assert not verify_two_circle_certificate(g, g.negative_edges(), pairs)

    def test_rejects_positive_circles(self):
        g = complete_graph(7).negate_edges([(0, 1)])
        pairs = [((0, 1), (0, 1, 2), (0, 2, 3))]  # second circle positive
        assert not verify_two_circle_certificate(g, [(0, 1)], pairs)

    def test_rejects_pairs_whose_unions_share_an_edge(self):
        g = complete_graph(7).negate_edges([(0, 1), (2, 3)])
        first = ((0, 1), (0, 1, 4), (0, 1, 5))
        apart = ((2, 3), (2, 3, 4), (2, 3, 6))
        assert verify_two_circle_certificate(g, g.negative_edges(), [first, apart])
        # (2, 3, 0, 5) also uses the edge (0, 5) of the first pair's union
        touching = ((2, 3), (2, 3, 4), (2, 3, 0, 5))
        assert not verify_two_circle_certificate(g, g.negative_edges(), [first, touching])


class TestUniqueMinimumBySize:
    def test_bound_boundary(self):
        g = complete_graph(6).negate_edges([(0, 1), (2, 3)])
        assert unique_minimum_by_size(g, [(0, 1), (2, 3)])  # 4 <= 4
        g7 = complete_graph(7).negate_edges([(0, 1), (2, 3), (4, 5)])
        assert not unique_minimum_by_size(g7, g7.negative_edges())  # 6 > 5

    def test_agrees_with_brute_force_when_conclusive(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.choice([6, 7])
            g = corpus.random_complete_signing(rng, n, rng.randint(1, 3))
            b = g.negative_edges()
            if unique_minimum_by_size(g, b):
                assert corpus.brute_is_unique_minimum(g, b)

    def test_requires_complete_graph(self):
        with pytest.raises(PreconditionError, match="complete"):
            unique_minimum_by_size(cycle_graph(4), [])


class TestEdgeColoring:
    @given(connected_signed_graphs(min_n=2, max_n=8))
    def test_coloring_is_proper_and_bounded(self, g):
        edges = sorted(g.edge_pairs())
        coloring = misra_gries_edge_coloring(g.n, edges)
        assert set(coloring) == set(edges)
        # proper at every vertex
        for v in g.vertices():
            incident = [coloring[e] for e in edges if v in e]
            assert len(incident) == len(set(incident))
        # Vizing bound
        if edges:
            assert max(coloring.values()) + 1 <= g.max_degree() + 1

    def test_empty_edge_set(self):
        assert misra_gries_edge_coloring(4, []) == {}
