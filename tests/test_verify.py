"""The result checks of :mod:`negset.verify` against independent references.

Each check is compared with a brute-force answer on every small input of a
family, and the forest and bipartite rejections run once more under
``python -O`` (the family and end-to-end forest rejections do so in
``test_packing.py`` and ``test_negation.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from negset import NEG, InvariantError, SignedGraph, oracle, verify
from negset.graph import complete_graph
from negset.negation import negative_circles


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except InvariantError:
        return True
    return False


def edge_subsets(pairs):
    for mask in range(1 << len(pairs)):
        yield [e for i, e in enumerate(pairs) if mask >> i & 1]


@pytest.mark.parametrize("n", [4, 5], ids=["K4", "K5"])
def test_forest_and_bipartite_agree_with_circle_enumeration(n):
    for edges in edge_subsets(complete_graph(n).edge_pairs()):
        circles = negative_circles(SignedGraph(n, [(u, v, NEG) for u, v in edges]))
        assert rejects(verify.forest, n, edges) == bool(circles), edges
        assert rejects(verify.bipartite, n, edges) == any(len(c) % 2 for c in circles), edges


SMALL_CORPUS = [(name, base) for name, base in oracle.corpus_families() if base.n <= 6]


@pytest.mark.parametrize("base", [b for _, b in SMALL_CORPUS], ids=[n for n, _ in SMALL_CORPUS])
def test_family_agrees_with_the_enumerated_negation_sets(base):
    g = base.negate_edges(base.edge_pairs()[:1])
    sets = oracle.enumerate_negation_sets(g)
    for s, t in product(sets, repeat=2):
        assert rejects(verify.family, g, [s, t]) == bool(s & t), (s, t)
    for edges in edge_subsets(g.edge_pairs()):
        if frozenset(edges) not in sets:
            assert rejects(verify.family, g, [edges]), edges


_REJECTIONS_SCRIPT = """
from negset import InvariantError, verify

assert not __debug__
triangle = [(0, 1), (1, 2), (0, 2)]
for check in (verify.forest, verify.bipartite):
    try:
        check(3, triangle)
    except InvariantError as exc:
        print(exc)
"""


def test_forest_and_bipartite_checks_survive_python_O():
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECTIONS_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines() == [
        "edge (0, 2) closes a circle",
        "edge set is not bipartite",
    ]
