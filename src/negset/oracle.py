"""Brute-force ground truth by switching enumeration.

Everything here is deliberately naive: enumerate all ``2^(n-1)`` switchings
of a small connected graph (vertex 0 pinned to break the complement
symmetry), read off their negative edge sets, and answer questions by
inspection.  The fast implementations elsewhere in the package are tested
against these answers on a corpus of small graphs, so nothing here calls
them.

A switching is held as a GF(2) mask over the edges, and each vertex has an
incidence mask of the edges it touches: switching the vertex XORs that mask
into the negative-edge mask.  A Gray code over vertices ``1..n-1`` changes
one vertex per step, so the whole enumeration is ``2^(n-1)`` XORs with no
graph built per switching.  The query functions take the finished
enumeration as an optional ``sets`` argument, so a caller that asks several
questions of one graph (``negset oracle-verify``) enumerates once.

All entry points enforce a vertex cap (default 16) and raise
:class:`~negset.errors.PreconditionError` beyond it rather than silently
taking forever.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .errors import InvariantError, PreconditionError
from .graph import (
    NEG,
    POS,
    Edge,
    SignedGraph,
    as_edge_set,
    complete_graph,
    cube_graph,
    cycle_graph,
    edge_key,
)

DEFAULT_MAX_N = 16

#: An enumeration as returned by :func:`enumerate_negation_sets`.
NegationSets = tuple[frozenset[Edge], ...]


def _check_scale(g: SignedGraph, max_n: int) -> None:
    if not g.is_connected():
        raise PreconditionError("switching enumeration requires a connected graph")
    if g.n > max_n:
        raise PreconditionError(
            f"graph has {g.n} vertices, above the enumeration cap {max_n}"
        )


def _negative_masks(g: SignedGraph, max_n: int) -> Iterator[int]:
    """Negative-edge mask of every switching that fixes vertex 0, in Gray-code order.

    Bit ``i`` stands for ``g.edge_pairs()[i]``.  On a connected graph each
    mask is a distinct negation set.
    """
    _check_scale(g, max_n)
    incidence = [0] * g.n
    mask = 0
    for i, (u, v, s) in enumerate(g.edges()):
        incidence[u] |= 1 << i
        incidence[v] |= 1 << i
        if s == NEG:
            mask |= 1 << i
    yield mask
    for x in range(1, 1 << max(g.n - 1, 0)):
        # Gray codes x - 1 and x differ in the lowest set bit of x; bit k
        # stands for vertex k + 1, so vertex 0 stays pinned.
        mask ^= incidence[(x & -x).bit_length()]
        yield mask


def enumerate_negation_sets(g: SignedGraph, max_n: int = DEFAULT_MAX_N) -> NegationSets:
    """All negation sets of a small connected graph, sorted by (size, edges).

    Enumerates every switching set not containing vertex 0; on a connected
    graph that hits each switching function exactly once, so each negation
    set appears exactly once.
    """
    pairs = g.edge_pairs()
    rows = []
    for mask in set(_negative_masks(g, max_n)):
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        rows.append((len(bits), bits))
    # Edge i precedes edge j exactly when i < j, so ascending bit lists sort
    # like the sorted edge lists.
    rows.sort()
    return tuple(frozenset([pairs[i] for i in bits]) for _, bits in rows)


def frustration_index(
    g: SignedGraph, max_n: int = DEFAULT_MAX_N, *, sets: NegationSets | None = None
) -> int:
    """Minimum number of negative edges over all switchings.

    ``sets``, here and in :func:`brute_is_minimal` and
    :func:`brute_packing_number`, is ``enumerate_negation_sets(g, max_n)``
    when the caller already has it; by default the switchings are enumerated.
    """
    if sets is not None:
        return min(map(len, sets))
    return min(mask.bit_count() for mask in _negative_masks(g, max_n))


def minimum_negation_sets(g: SignedGraph, max_n: int = DEFAULT_MAX_N) -> NegationSets:
    """All negation sets of minimum size."""
    sets = enumerate_negation_sets(g, max_n)
    best = len(sets[0])
    return tuple(s for s in sets if len(s) == best)


def brute_is_minimal(
    g: SignedGraph,
    b: Iterable[Edge],
    max_n: int = DEFAULT_MAX_N,
    *,
    sets: NegationSets | None = None,
) -> bool:
    """Whether no negation set is a proper subset of ``b``.

    Since negation sets are closed downward only through other negation sets,
    checking every enumerated set suffices; ``b`` itself must be a negation
    set or the question is ill-posed.
    """
    bs = as_edge_set(g, b)
    if sets is None:
        sets = enumerate_negation_sets(g, max_n)
    if bs not in sets:
        raise PreconditionError("b is not a negation set of g")
    return not any(s < bs for s in sets)


def brute_is_unique_minimum(
    g: SignedGraph, b: Iterable[Edge], max_n: int = DEFAULT_MAX_N
) -> bool:
    bs = as_edge_set(g, b)
    return minimum_negation_sets(g, max_n) == (bs,)


def brute_packing_number(
    g: SignedGraph, max_n: int = DEFAULT_MAX_N, *, sets: NegationSets | None = None
) -> int:
    """Maximum size of a pairwise-disjoint family of negation sets containing E⁻(g).

    Straight branch and bound over the enumerated sets.  Only defined for
    unbalanced graphs (a balanced graph has the empty negation set, for which
    disjoint packing is meaningless).
    """
    if sets is None:
        sets = enumerate_negation_sets(g, max_n)
    if frozenset() in sets:
        raise PreconditionError("packing number is defined for unbalanced graphs")
    b = g.negative_edges()
    if b not in sets:  # pragma: no cover - E⁻ is always a negation set
        raise InvariantError("E⁻(g) missing from its own enumeration")
    candidates = [s for s in sets if s.isdisjoint(b)]
    candidates.sort(key=len)
    best = 0

    def extend(start: int, chosen: list[frozenset[Edge]]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (len(candidates) - start) <= best:
            return
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(c.isdisjoint(d) for d in chosen):
                chosen.append(c)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return best + 1


# -- test corpus ---------------------------------------------------------------


def corpus_families() -> tuple[tuple[str, SignedGraph], ...]:
    """Named all-positive underlying graphs used for exhaustive sign sweeps."""
    k4_pendant = SignedGraph.from_underlying(
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
    return SignedGraph.from_underlying(n, sorted(pairs), negative)


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
    return SignedGraph.from_underlying(n, sorted(pairs), negative)


def random_complete_signing(
    rng: random.Random, n: int, negative_count: int
) -> SignedGraph:
    """K_n with a uniformly random negative edge set of the given size."""
    g = complete_graph(n)
    pairs = list(g.edge_pairs())
    if negative_count > len(pairs):
        raise ValueError("more negative edges requested than edges available")
    negative = rng.sample(pairs, negative_count)
    return SignedGraph.from_underlying(n, pairs, negative)
