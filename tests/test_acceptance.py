"""Acceptance suite: ten end-to-end criteria over the reference corpus.

Each test prints a single pass line with its coverage numbers (visible with
``pytest -s``; under plain ``pytest -v`` the test name itself is the line).
The corpus is: every signing of C3-C6 and K4 (exhaustive), plus 200 seeded
random connected signed graphs on at most 7 vertices; the larger families
(K5, K4 plus a pendant, the 3-cube) join where a criterion asks for them.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest

from negset import (
    MinusK5Detected,
    acyclic_negation,
    build_class_graph,
    check_balance,
    class_distances,
    disjoint_partner,
    is_balanced,
    is_minimal,
    is_negation_set,
    negative_component_classes,
    packing_number,
    parse,
    serialize,
    thresholds,
    triangle_certificate_for_complete,
    verify_disjoint_circle_certificate,
)
from negset import oracle
from negset.errors import PreconditionError
from negset.graph import SignedGraph

import corpus
from corpus import complete_graph, cycle_graph, has_negative_digon, negate_all
from conftest import edge_set_is_bipartite
from test_negation import assert_valid_acyclic
from test_packing import assert_valid_family

SEED = 20260816
EXHAUSTIVE_NAMES = ("C3", "C4", "C5", "C6", "K4")


def exhaustive_signings():
    for name, base in corpus.corpus_families():
        if name in EXHAUSTIVE_NAMES:
            yield from corpus.all_signings(base)


def random_signings(count=200, n_max=7, seed=SEED):
    rng = random.Random(seed)
    return [corpus.random_signed_graph(rng, n_max=n_max) for _ in range(count)]


def small_corpus():
    yield from exhaustive_signings()
    yield from random_signings()


def packing_eligible(g: SignedGraph) -> bool:
    return (
        g.is_connected()
        and not is_balanced(g)
        and bool(g.negative_edges())
        and edge_set_is_bipartite(g.n, g.negative_edges())
    )


def test_criterion_01_negation_set_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for g in small_corpus():
        sets = set(oracle.enumerate_negation_sets(g))
        edges = sorted(g.edge_pairs())
        if len(edges) <= 12:
            candidates = [
                frozenset(sub)
                for r in range(len(edges) + 1)
                for sub in combinations(edges, r)
            ]
        else:
            rng = random.Random(len(edges) * 7919 + g.n)
            candidates = list(sets) + [
                frozenset(e for e in edges if rng.random() < 0.5) for _ in range(200)
            ]
        for b in candidates:
            assert is_negation_set(g, b) == (b in sets), (
                f"membership disagreement on {sorted(g.negative_edges())} "
                f"candidate {sorted(b)}"
            )
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"criterion 01 negation-set oracle equivalence: PASS "
        f"({checked} membership checks, 0 mismatches, {elapsed:.1f}s)"
    )


def test_criterion_02_minimality_oracle_equivalence():
    checked = 0
    for g in small_corpus():
        columns = tuple(oracle.negative_columns(g))
        for b in oracle.enumerate_negation_sets(g):
            assert is_minimal(g, b) == oracle.brute_is_minimal(g, b, columns=columns), (
                f"minimality disagreement on {sorted(g.negative_edges())} "
                f"set {sorted(b)}"
            )
            checked += 1
    print(
        f"criterion 02 minimality oracle equivalence: PASS "
        f"({checked} negation sets compared, 0 mismatches)"
    )


def test_criterion_03_unique_minimum_bound():
    rng = random.Random(SEED)
    for trial in range(50):
        n = rng.choice([6, 7, 8])
        size = rng.randint(1, (n - 2) // 2)
        g = corpus.random_complete_signing(rng, n, size)
        assert 2 * size <= n - 2
        assert corpus.brute_is_unique_minimum(g, g.negative_edges()), (
            f"trial {trial}: K{n} with negatives {sorted(g.negative_edges())} "
            f"has a non-unique minimum"
        )
    print(
        "criterion 03 unique-minimum size bound: PASS "
        "(50 seeded complete signings, 0 exceptions)"
    )


def test_criterion_04_triangle_certificates():
    rng = random.Random(SEED + 1)
    certified = 0
    attempts = 0
    while certified < 50:
        attempts += 1
        assert attempts < 600, "could not collect 50 certified instances"
        n = rng.choice([6, 7, 8])
        g = corpus.random_complete_signing(rng, n, rng.randint(1, 3))
        b = g.negative_edges()
        cert = triangle_certificate_for_complete(g, b)
        if cert is None:
            continue
        assert verify_disjoint_circle_certificate(g, b, cert)
        assert oracle.frustration_index(g) == len(b)
        certified += 1
    print(
        f"criterion 04 triangle certificates: PASS "
        f"(50 certificates verified in {attempts} draws, 0 exceptions)"
    )


def test_criterion_05_disjointness_implies_bipartite():
    pair_count = 0
    partner_count = 0
    for g in small_corpus():
        sets = oracle.enumerate_negation_sets(g)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i].isdisjoint(sets[j]):
                    assert edge_set_is_bipartite(g.n, sets[i])
                    assert edge_set_is_bipartite(g.n, sets[j])
                    pair_count += 1
        bipartite = edge_set_is_bipartite(g.n, g.negative_edges())
        try:
            partner = disjoint_partner(g)
            assert bipartite
            assert partner.isdisjoint(g.negative_edges())
            assert is_negation_set(g, partner)
        except PreconditionError:
            assert not bipartite
        partner_count += 1
    print(
        f"criterion 05 disjointness implies bipartite: PASS "
        f"({pair_count} disjoint pairs, {partner_count} partner calls, 0 exceptions)"
    )


def test_criterion_06_acyclic_construction_on_random_subquartic_graphs():
    start = time.monotonic()
    rng = random.Random(SEED + 2)
    done = 0
    skipped = 0
    while done < 100:
        g = corpus.random_subquartic_graph(rng, n_max=12)
        try:
            result = acyclic_negation(g)
        except MinusK5Detected as exc:
            # not counted toward the 100: the criterion excludes such blocks
            block = sorted(exc.vertices)
            sub = g.induced(block)
            assert sub.edge_count == 10 and is_balanced(negate_all(sub))
            skipped += 1
            continue
        assert_valid_acyclic(g, result)
        done += 1
    with pytest.raises(MinusK5Detected):
        acyclic_negation(negate_all(complete_graph(5)))
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"criterion 06 acyclic construction: PASS "
        f"(100 graphs, {skipped} excluded K5 blocks, {elapsed:.1f}s)"
    )


def test_criterion_07_acyclic_sets_dominate_the_frustration_index():
    checked = 0
    skipped_k5 = 0
    for name, base in corpus.corpus_families():
        if base.max_degree() > 4:
            continue
        for g in corpus.all_signings(base):
            try:
                result = acyclic_negation(g)
            except MinusK5Detected:
                skipped_k5 += 1
                continue
            assert len(result.negation_set) >= oracle.frustration_index(g), (
                f"{name} signing {sorted(g.negative_edges())} produced a set "
                f"below the frustration index"
            )
            checked += 1
    print(
        f"criterion 07 acyclic vs frustration: PASS "
        f"({checked} signings, {skipped_k5} K5-equivalent skips, 0 violations)"
    )


def packing_corpus():
    for name, base in corpus.corpus_families():
        if base.n <= 7:
            yield from corpus.all_signings(base)
    yield from random_signings()


def test_criterion_08_packing_exactness():
    start = time.monotonic()
    checked = 0
    for g in packing_corpus():
        if not (g.is_connected() and not is_balanced(g)):
            continue
        result = packing_number(g)
        assert_valid_family(g, result)
        assert result.packing_number == oracle.brute_packing_number(g), (
            f"packing disagreement on n={g.n} negatives "
            f"{sorted(g.negative_edges())}"
        )
        checked += 1
    anchors = {
        5: packing_number(cycle_graph(5).negate_edges([(0, 1)])).packing_number,
        3: packing_number(cycle_graph(3).negate_edges([(0, 1)])).packing_number,
    }
    assert anchors == {5: 5, 3: 3}
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"criterion 08 packing exactness: PASS "
        f"({checked} eligible signings, 0 mismatches, anchors C5=5 C3=3, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_09_balance_scan_shape():
    scans = 0
    digons = 0
    for g in packing_corpus():
        if not packing_eligible(g):
            continue
        classes = negative_component_classes(g)
        dist = class_distances(g, classes, math.inf)
        ws = thresholds(dist)
        graphs = [build_class_graph(classes, dist, w) for w in ws]
        flags = [cg.balanced() for cg in graphs]
        for earlier, later in zip(flags, flags[1:]):
            assert earlier or not later, "balance scan is not monotone"
        # the two classes of one component are the pair (2i, 2i + 1)
        intra = [d for (a, b), d in dist.items() if b == a ^ 1]
        if intra:
            mu = next(k for k, w in enumerate(ws) if w >= min(intra))
            assert has_negative_digon(graphs[mu])
            assert not graphs[mu].balanced()
            digons += 1
        scans += 1
    print(
        f"criterion 09 balance-scan shape: PASS "
        f"({scans} scans monotone, {digons} digon thresholds confirmed)"
    )


def test_criterion_10_format_round_trip():
    count = 0
    for name, base in corpus.corpus_families():
        for g in corpus.all_signings(base):
            text = serialize(g)
            assert parse(text) == g
            assert serialize(parse(text)) == text
            count += 1
    for g in random_signings(n_max=8, seed=SEED + 3):
        text = serialize(g)
        assert parse(text) == g
        assert serialize(parse(text)) == text
        count += 1
    print(f"criterion 10 format round trip: PASS ({count} graphs, bit-exact)")
