"""The result checks of :mod:`negset.verify` against independent references.

Each check is compared with a brute-force answer on every small input of a
family, the one-BFS family check also with a per-member lookup among the
oracle's enumerated negation sets on random families, and the forest and
bipartite rejections run once more under ``python -O`` (the family and
end-to-end forest rejections do so in ``test_packing.py`` and
``test_negation.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    InvariantError,
    SignedGraph,
    is_balanced,
    negation_set_from_switching,
    oracle,
    packing_number,
    verify,
)
from negset.negation import negative_circles

import corpus
from conftest import edge_set_is_bipartite
from corpus import complete_graph, cycle_graph


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


SMALL_CORPUS = [(name, base) for name, base in corpus.corpus_families() if base.n <= 6]


@pytest.mark.parametrize("base", [b for _, b in SMALL_CORPUS], ids=[n for n, _ in SMALL_CORPUS])
def test_family_agrees_with_the_enumerated_negation_sets(base):
    g = base.negate_edges(base.edge_pairs()[:1])
    sets = oracle.enumerate_negation_sets(g)
    for s, t in product(sets, repeat=2):
        assert rejects(verify.family, g, [s, t]) == bool(s & t), (s, t)
    for edges in edge_subsets(g.edge_pairs()):
        if frozenset(edges) not in sets:
            assert rejects(verify.family, g, [edges]), edges


def family_failure(g, members) -> str | None:
    """The message :func:`verify.family` raises on ``members``, or ``None``."""
    try:
        verify.family(g, members)
    except InvariantError as exc:
        return str(exc)
    return None


def reference_family_failure(g, members) -> str | None:
    """One lookup among the enumerated negation sets and one disjointness test per member.

    Membership comes from the brute-force oracle, not from a signed BFS, so
    the reference shares no code with the one-BFS check it is compared with.
    """
    negation_sets = set(oracle.enumerate_negation_sets(g))
    used: set = set()
    for i, member in enumerate(members):
        if frozenset(member) not in negation_sets:
            return f"family member {i} is not a negation set"
        if used & member:
            return f"family member {i} overlaps an earlier member"
        used |= member
    return None


@st.composite
def families(draw):
    """A graph and three or more edge sets: its packing family, some members replaced.

    The graph is a positive circle on up to eight vertices with some chords
    and one to three edges negated, so packing families run up to eight
    members.  A replacement is a random edge set, the negation set of a
    random switching, or a copy of another member, so families are
    accepted, fail on a non-negation set or fail on an overlap, at any
    position.
    """
    n = draw(st.integers(3, 8))
    pairs = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    chords = sorted(set(combinations(range(n), 2)) - set(pairs))
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True, max_size=3))
    g = SignedGraph(n, [(u, v, POS) for u, v in pairs])
    g = g.negate_edges(draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=3)))
    members = []
    if not is_balanced(g) and edge_set_is_bipartite(g.n, g.negative_edges()):
        members = list(packing_number(g).family)
    while len(members) < 3:
        xs = draw(st.frozensets(st.integers(0, n - 1)))
        members.append(negation_set_from_switching(g, xs))
    for i in draw(st.lists(st.integers(0, len(members) - 1), max_size=2)):
        kind = draw(st.sampled_from(["edges", "switching", "copy"]))
        if kind == "edges":
            members[i] = frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)))
        elif kind == "switching":
            xs = draw(st.frozensets(st.integers(0, n - 1)))
            members[i] = negation_set_from_switching(g, xs)
        else:
            members[i] = members[draw(st.integers(0, len(members) - 1))]
    return g, members


@given(families())
@settings(max_examples=200)
def test_family_fails_like_the_per_member_reference(case):
    g, members = case
    assert family_failure(g, members) == reference_family_failure(g, members)


def test_family_reports_a_bad_last_member():
    # C8 with three negative edges packs into six members: E- and the five
    # positive edges one by one.
    g = cycle_graph(8).negate_edges([(0, 1), (2, 3), (4, 5)])
    members = list(packing_number(g).family)
    assert len(members) == 6
    assert family_failure(g, members) is None
    for last, message in (
        (frozenset(), "family member 5 is not a negation set"),
        (members[0], "family member 5 overlaps an earlier member"),
    ):
        spoiled = [*members[:-1], last]
        assert family_failure(g, spoiled) == reference_family_failure(g, spoiled) == message
    # A member naming a non-edge raises only after every earlier member passed.
    assert family_failure(g, [members[0], frozenset(), [(0, 2)]]) == (
        "family member 1 is not a negation set"
    )
    with pytest.raises(ValueError, match="not an edge"):
        verify.family(g, [*members, [(0, 2)]])


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
