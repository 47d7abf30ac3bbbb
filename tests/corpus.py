"""Small-graph corpus for the suite: named families, exhaustive signings, seeded generators.

The generators keep their names and seeds: golden ``.sg`` headers cite them
(``random_signed_graph seed 5``).  They are tested in ``test_oracle.py``.
The small graph helpers at the top are used by the tests alone.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from negset import NEG, POS, ClassGraph, SignedGraph
from negset.graph import Edge, as_edge_set, edge_key
from negset.oracle import NegationSets, _smallest, all_switchings, negation_sets, negative_columns


def complete_graph(n: int, sign: int = POS) -> SignedGraph:
    return SignedGraph(n, [(u, v, sign) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int, sign: int = POS) -> SignedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SignedGraph(n, [(i, (i + 1) % n, sign) for i in range(n)])


def path_graph(n: int, sign: int = POS) -> SignedGraph:
    return SignedGraph(n, [(i, i + 1, sign) for i in range(n - 1)])


def negate_all(g: SignedGraph) -> SignedGraph:
    """``g`` with every edge negated."""
    return g.negate_edges(g.edge_pairs())


def positive_neighbors(g: SignedGraph, v: int) -> tuple[int, ...]:
    return tuple(w for w, s in g.signed_rows()[v] if s == POS)


def has_negative_digon(cg: ClassGraph) -> bool:
    """Whether a positive class edge runs parallel to a negative one."""
    return any((2 * i, 2 * i + 1) in cg.positive_edges for i in range(cg.m))


def from_underlying(n: int, pairs: Iterable[Edge], negative: Iterable[Edge] = ()) -> SignedGraph:
    """Sign the ``(u, v)``, ``u < v``, pairs: negative where listed in ``negative``."""
    neg = set(negative)
    return SignedGraph(n, [(u, v, NEG if (u, v) in neg else POS) for u, v in pairs])


def cube_graph(sign: int = POS) -> SignedGraph:
    """The 3-cube: vertices 0..7 as bit vectors, edges between Hamming neighbors."""
    edges = []
    for u in range(8):
        for bit in (1, 2, 4):
            v = u ^ bit
            if u < v:
                edges.append((u, v, sign))
    return SignedGraph(8, edges)


def counterexample_hexagon() -> SignedGraph:
    """Three negative edges in two negative components on a hexagon; single-bipartition
    layering reaches only three disjoint sets but a mixed family reaches four."""
    return SignedGraph(6, [
        (0, 1, NEG), (1, 2, POS), (2, 3, NEG),
        (3, 4, POS), (4, 5, POS), (0, 5, NEG),
    ])


def long_hexagon(pendants: int, length: int = 3001) -> SignedGraph:
    """:func:`counterexample_hexagon` with many edges and ``2 + pendants`` exact-search bits.

    Each negative edge becomes a negative path of ``length`` edges, with a
    positive chord between every two path vertices two steps apart (one
    class); ``pendants`` class-free vertices hang off the last path vertex.
    The scan and the contracted bound still disagree, so ``packing`` reaches
    its exact search.  With 15 pendants: 9,021 vertices, 18,021 edges and
    17 search bits (the two components' swap, vertex 4 and the pendants).
    """
    base = counterexample_hexagon()
    n, edges = base.n, []
    for u, v, s in base.edges():
        if s != NEG:
            edges.append((u, v, s))
            continue
        path = [u, *range(n, n + length - 1), v]
        n += length - 1
        edges += [(a, b, NEG) for a, b in zip(path, path[1:])]
        edges += [(a, b, POS) for a, b in zip(path, path[2:])]
    edges += [(n - 1, n + i, POS) for i in range(pendants)]
    return SignedGraph(n + pendants, edges)


def minimum_negation_sets(g: SignedGraph) -> NegationSets:
    """All negation sets of minimum size, sorted by edges, by the oracle's columns."""
    columns = tuple(negative_columns(g))
    return negation_sets(g, _smallest(columns, all_switchings(g))[1])


def brute_is_unique_minimum(g: SignedGraph, b: Iterable[Edge]) -> bool:
    """Whether ``b`` is the only negation set of minimum size, by the oracle."""
    return minimum_negation_sets(g) == (as_edge_set(g, b),)


def corpus_families() -> tuple[tuple[str, SignedGraph], ...]:
    """Named all-positive underlying graphs used for exhaustive sign sweeps."""
    k4_pendant = from_underlying(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    )
    return (
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("K4_pendant", k4_pendant),
        ("Q3", cube_graph()),
    )


def all_signings(g: SignedGraph) -> Iterator[SignedGraph]:
    """Every assignment of signs to the edges of ``g`` (2^m graphs)."""
    pairs = g.edge_pairs()
    m = len(pairs)
    for mask in range(1 << m):
        yield SignedGraph(
            g.n,
            [
                (u, v, NEG if mask >> i & 1 else POS)
                for i, (u, v) in enumerate(pairs)
            ],
        )


def random_signed_graph(
    rng: random.Random, n_max: int = 8, extra_edge_prob: float = 0.4
) -> SignedGraph:
    """Random connected signed graph: random spanning tree plus extras."""
    n = rng.randint(2, n_max)
    pairs = set()
    for v in range(1, n):
        pairs.add(edge_key(v, rng.randrange(v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < extra_edge_prob:
                pairs.add((u, v))
    negative = [e for e in pairs if rng.random() < 0.5]
    return from_underlying(n, sorted(pairs), negative)


def random_subquartic_graph(
    rng: random.Random, n_max: int = 12, extra_edge_prob: float = 0.6
) -> SignedGraph:
    """Random connected signed graph with maximum degree at most 4.

    Grows a degree-capped random tree, then adds extra edges wherever both
    endpoints still have spare degree.
    """
    n = rng.randint(2, n_max)
    deg = [0] * n
    pairs = set()
    for v in range(1, n):
        options = [u for u in range(v) if deg[u] < 4]
        if not options:
            n = v
            deg = deg[:n]
            break
        u = rng.choice(options)
        pairs.add(edge_key(u, v))
        deg[u] += 1
        deg[v] += 1
    slots = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    rng.shuffle(slots)
    for u, v in slots:
        if deg[u] < 4 and deg[v] < 4 and rng.random() < extra_edge_prob:
            pairs.add((u, v))
            deg[u] += 1
            deg[v] += 1
    negative = [e for e in pairs if rng.random() < 0.5]
    return from_underlying(n, sorted(pairs), negative)


def random_quartic_pairs(rng: random.Random, n: int, offset: int = 0) -> list[Edge]:
    """Random 4-regular simple graph on ``offset .. offset + n - 1``, sorted.

    Two random Hamiltonian cycles, the second redrawn until it shares no
    edge with the first (n >= 7 makes that likely).
    """
    def tour() -> set[Edge]:
        order = rng.sample(range(offset, offset + n), n)
        return {edge_key(order[i - 1], order[i]) for i in range(n)}

    first = tour()
    while True:
        second = tour()
        if first.isdisjoint(second):
            return sorted(first | second)


def quartic_negative_matching(seed: int, n: int = 2000, k: int = 1) -> SignedGraph:
    """A random 4-regular graph with ``k`` random disjoint negative edges.

    With k = 1 it is always unbalanced: every edge of a union of two
    Hamiltonian cycles lies on a circle.
    """
    rng = random.Random(seed)
    pairs = random_quartic_pairs(rng, n)
    negative: list[Edge] = []
    used: set[int] = set()
    for u, v in rng.sample(pairs, len(pairs)):
        if len(negative) == k:
            break
        if u not in used and v not in used:
            negative.append((u, v))
            used |= {u, v}
    return from_underlying(n, pairs, negative)


def three_blobs(seed: int, size: int = 2000, links: int = 300) -> SignedGraph:
    """Three random 4-regular blobs joined only by negative edges.

    Each pair of blobs gets ``links`` negative edges, and no two negative
    edges share a vertex, so every negative component is one edge whose
    classes sit in different blobs: the contracted bound is ``inf``.  Three
    negative edges closing a triangle of blobs make the graph unbalanced.
    """
    rng = random.Random(seed)
    pairs = [p for blob in range(3) for p in random_quartic_pairs(rng, size, blob * size)]
    # each blob draws 2 * links distinct ends and spends them in order
    ends = [iter(rng.sample(range(blob * size, (blob + 1) * size), 2 * links)) for blob in range(3)]
    negative = [
        (next(ends[a]), next(ends[b])) for a, b in ((0, 1), (0, 2), (1, 2)) for _ in range(links)
    ]
    return from_underlying(3 * size, sorted(pairs + negative), negative)


def random_complete_signing(
    rng: random.Random, n: int, negative_count: int
) -> SignedGraph:
    """K_n with a uniformly random negative edge set of the given size."""
    g = complete_graph(n)
    pairs = list(g.edge_pairs())
    if negative_count > len(pairs):
        raise ValueError("more negative edges requested than edges available")
    negative = rng.sample(pairs, negative_count)
    return from_underlying(n, pairs, negative)
