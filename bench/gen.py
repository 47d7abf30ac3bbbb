"""Seeded input generators and op schedules for the benchmark workloads.

Everything here is standard library and independent of ``negset``: the
program under test only ever sees the ``.sg`` text these functions produce.
A workload is an endless sequence of *rounds*; a round is a fixed mix of ops
(command, input, extra arguments), and a run executes a fixed number of
whole rounds, so it always measures the same mix whatever its seed.  Every op gets its own input
text (a fresh switching or relabelling plus an ``c op <id>`` comment line),
so no input repeats within a run.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, count, zip_longest

import checks

POS = 1
NEG = -1

#: Main-phase rewrite labels of the acyclic construction, plus the two sweeps.
ACYCLIC_LABELS = (
    "high-negative-degree",
    "chord",
    "split-positive-neighbors",
    "isolated-positive-neighbor",
    "attached-positive-neighbor",
    "shared-neighbor-junction",
    "shared-pair-rectangle",
    "shared-pair-shift",
    "nonadjacent-shared-collapse",
    "five-wheel-collapse",
    "march-degenerate",
    "march-advance",
    "march-junction",
    "episode-start",
    "episode-finale",
    "circle-preference",
    "replacement-junction",
    "preprocess",
    "reattach",
)


@dataclass
class Op:
    """One CLI invocation: ``negset <cmd> <input> --json <args...>``."""

    cmd: str
    family: str
    n: int
    edges: list  # (u, v, sign) with u < v
    args: list = field(default_factory=list)


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def sg_text(op_id: int, n: int, edges) -> str:
    """``.sg`` text with a per-op comment line, edges sorted."""
    lines = [f"c op {op_id}\n", f"p sg {n} {len(edges)}\n"]
    lines.extend(f"e {u} {v} {'-' if s == NEG else '+'}\n" for u, v, s in sorted(edges))
    return "".join(lines)


def edge_arg(pairs) -> str:
    return ",".join(f"{u}-{v}" for u, v in sorted(pairs))


# -- graph families --------------------------------------------------------------


def quartic_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random 4-regular simple graph: union of two edge-disjoint Hamiltonian cycles.

    The second cycle is redrawn until it shares no edge with the first.
    """
    order = list(range(n))
    rng.shuffle(order)
    first = {edge_key(order[i - 1], order[i]) for i in range(n)}
    while True:
        rng.shuffle(order)
        second = {edge_key(order[i - 1], order[i]) for i in range(n)}
        if first.isdisjoint(second):
            return sorted(first | second)


def torus_pairs(side: int) -> list[tuple[int, int]]:
    """The side x side grid on a torus (4-regular for side >= 3)."""
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            pairs.append(edge_key(v, r * side + (c + 1) % side))
            pairs.append(edge_key(v, ((r + 1) % side) * side + c))
    return sorted(pairs)


def circulant_pairs(n: int) -> list[tuple[int, int]]:
    """C_n(1, 2): vertex i joined to i +- 1 and i +- 2 (4-regular for n >= 5)."""
    return sorted({edge_key(i, (i + d) % n) for i in range(n) for d in (1, 2)})


def switch(edges, xs) -> list[tuple[int, int, int]]:
    return [(u, v, -s if (u in xs) != (v in xs) else s) for u, v, s in edges]


def random_switch(rng: random.Random, n: int, edges):
    return switch(edges, {v for v in range(n) if rng.random() < 0.5})


def relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v, s in edges:
        a, b = edge_key(perm[u], perm[v])
        out.append((a, b, s))
    return out


def adjacency(n: int, pairs) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def ball(adj, root: int, radius: int) -> list[int]:
    """Vertices within ``radius`` hops of ``root``, in BFS order."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return list(dist)


def cut(pairs, xs) -> list[tuple[int, int]]:
    return [(u, v) for u, v in pairs if (u in xs) != (v in xs)]


def bipartite_subset(rng: random.Random, n: int, candidates, k: int):
    """Up to ``k`` edges of ``candidates`` (random order) forming a bipartite graph.

    Union-find with parity: an edge that would close an odd circle is skipped.
    """
    parent = list(range(n))
    parity = [0] * n

    def find(x: int) -> tuple[int, int]:
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    pool = list(candidates)
    rng.shuffle(pool)
    chosen = []
    for u, v in pool:
        if len(chosen) == k:
            break
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            if pu == pv:
                continue
        else:
            parent[ru] = rv
            parity[ru] = pu ^ pv ^ 1
        chosen.append((u, v))
    return chosen


# -- workloads ---------------------------------------------------------------------

#: Vertex counts of the check-large graphs: three sizes, so that op times spread
#: evenly instead of clustering by command and the median op is stable.
CHECK_LARGE_SIZES = (16_000, 24_000, 32_000)
CHECK_LARGE_COMMANDS = ("balance", "negation-check", "minimal")


def check_large(seed: int):
    """balance / negation-check / minimal on three signings of 4-regular graphs.

    Signings: a random switching of all-positive (balanced, full BFS and a full
    bipartition report), the same with one edge flipped (a late conflict), and
    a uniform 50% signing (an early conflict).  A round runs every command on
    every size, the signing rotating so that three rounds cover all 27
    combinations; ``negation-check`` on the late conflict and ``minimal`` on
    the balanced signing take ``--edges`` as the cut of a small ball.  Each op
    switches its signing afresh, so every input is distinct.
    """
    rng = random.Random(seed)
    graphs = [(n, quartic_pairs(rng, n)) for n in CHECK_LARGE_SIZES]
    graphs = [(n, pairs, adjacency(n, pairs)) for n, pairs in graphs]
    for r in count():
        ops = []
        for j, (n, pairs, adj) in enumerate(graphs):
            for c, cmd in enumerate(CHECK_LARGE_COMMANDS):
                kind = ("balanced", "late-conflict", "uniform")[(j + c + r) % 3]
                if kind == "balanced":
                    edges = [(u, v, POS) for u, v in pairs]
                elif kind == "late-conflict":
                    flip = rng.randrange(len(pairs))
                    edges = [(u, v, NEG if i == flip else POS) for i, (u, v) in enumerate(pairs)]
                else:
                    edges = [(u, v, NEG if rng.random() < 0.5 else POS) for u, v in pairs]
                args = []
                if (cmd, kind) in (("negation-check", "late-conflict"), ("minimal", "balanced")):
                    args = ["--edges", edge_arg(cut(pairs, set(ball(adj, rng.randrange(n), 2))))]
                ops.append(Op(cmd, kind, n, random_switch(rng, n, edges), args))
        yield ops


def plaquette_torus(rng: random.Random, side: int):
    """Torus whose negative edges are vertex-disjoint unit squares, every third cell."""
    pairs = torus_pairs(side)
    dr, dc = rng.randrange(3), rng.randrange(3)
    negative = set()
    for r in range(dr, side - 1, 3):
        for c in range(dc, side - 1, 3):
            a, b = r * side + c, r * side + c + 1
            d, e = (r + 1) * side + c, (r + 1) * side + c + 1
            negative |= {edge_key(a, b), edge_key(d, e), edge_key(a, d), edge_key(b, e)}
    return [(u, v, NEG if (u, v) in negative else POS) for u, v in pairs]


def corridor_circulant(n: int, closed: bool):
    """C_n(1, 2) whose negative edges form the Hamiltonian path (or cycle) i ~ i+1."""
    negative = {edge_key(i, i + 1) for i in range(n - 1)}
    if closed:
        negative.add(edge_key(0, n - 1))
    return [(u, v, NEG if (u, v) in negative else POS) for u, v in circulant_pairs(n)]


def rotate(n: int, edges, shift: int):
    """Relabel i -> i + shift (mod n): an automorphism of the circulant's underlying graph."""
    return [(*edge_key((u + shift) % n, (v + shift) % n), s) for u, v, s in edges]


def corridor_ops(rng: random.Random, n: int):
    """Both corridor kinds at size n, in the circulant's own vertex order, randomly rotated.

    The construction's cost depends on vertex order; a random relabelling
    makes these inputs 20x cheaper, so only rotations are used.
    """
    return [
        Op("acyclic", "corridor-cycle" if closed else "corridor-path", n,
           rotate(n, corridor_circulant(n, closed), rng.randrange(n)))
        for closed in (False, True)
    ]


#: (n, negative probability) of the random 4-regular signings in one acyclic round;
#: the sizes form a ladder so that op times spread evenly and the median is stable.
ACYCLIC_QUARTIC = ((600, 0.5), (900, 0.5), (1200, 0.5), (1600, 0.5), (800, 1.0), (1200, 1.0))
ACYCLIC_TORI = (24, 30, 36)


def acyclic_quartic(seed: int):
    """``acyclic`` on random 4-regular signings, plaquette tori and negative corridors."""
    rng = random.Random(seed)
    while True:
        ops = []
        for n, p in ACYCLIC_QUARTIC:
            edges = [(u, v, NEG if rng.random() < p else POS) for u, v in quartic_pairs(rng, n)]
            ops.append(Op("acyclic", f"quartic-p{p:g}", n, edges))
        for side in ACYCLIC_TORI:
            ops.append(Op("acyclic", "torus-plaquettes", side * side,
                          relabel(rng, side * side, plaquette_torus(rng, side))))
        yield ops + corridor_ops(rng, 800)


def acyclic_corridor(seed: int):
    """Negative corridors with n >= 1200, on which the construction's recursion overflows."""
    rng = random.Random(seed)
    while True:
        yield corridor_ops(rng, 1200) + corridor_ops(rng, 1600)


def sparse_negatives(rng: random.Random, n: int, k: int, clustered: bool):
    """4-regular graph with ``k`` bipartite negative edges, placed uniformly or in a ball.

    Redrawn until the signing is unbalanced (it almost always is).
    """
    while True:
        pairs = quartic_pairs(rng, n)
        if clustered:
            adj = adjacency(n, pairs)
            inside = set(ball(adj, rng.randrange(n), rng.randint(3, 6)))
            candidates = [(u, v) for u, v in pairs if u in inside and v in inside]
        else:
            candidates = pairs
        negative = set(bipartite_subset(rng, n, candidates, k))
        edges = [(u, v, NEG if (u, v) in negative else POS) for u, v in pairs]
        if not checks.balanced(checks.Graph(n, edges)):
            return edges


#: (n, negative edges, clustered) per packing-sparse op, one round; sizes form a
#: ladder so that op times spread evenly and the median is stable.
PACKING_MIX = (
    (2000, 1, False),
    (5000, 1, False),
    (8000, 1, False),
    (2000, 6, True),
    (2000, 12, True),
    (3000, 16, True),
    (4000, 24, True),
    (2000, 40, False),
    (2000, 80, False),
    (3000, 8, False),
    (4000, 8, False),
    (6000, 10, False),
    (8000, 10, False),
)


def packing_sparse(seed: int):
    """``packing`` on 4-regular graphs with few bipartite negative edges.

    Whether an instance with several negative components ends in a budget
    exit is a property of the instance drawn (about half do), so fresh
    instances per seed would make ``answered_ratio`` a binomial sample of a
    few ops.  The instances therefore come from one fixed corpus round, and
    every round replays it under a fresh random relabelling drawn from the
    run seed: every run measures the same problems under new vertex names.
    """
    rng = random.Random(seed)
    while True:
        yield [
            Op("packing", f"{'ball' if clustered else 'uniform'}-k{k}", n, relabel(rng, n, edges))
            for n, k, clustered, edges in packing_corpus()
        ]


@cache
def packing_corpus():
    corpus = random.Random("packing-sparse")
    return tuple((n, k, clustered, sparse_negatives(corpus, n, k, clustered))
                 for n, k, clustered in PACKING_MIX)


def random_connected(rng: random.Random, n: int, extra: float):
    """Random spanning tree plus extra edges, uniform random signs."""
    pairs = {edge_key(v, rng.randrange(v)) for v in range(1, n)}
    for u, v in combinations(range(n), 2):
        if rng.random() < extra:
            pairs.add((u, v))
    return [(u, v, NEG if rng.random() < 0.5 else POS) for u, v in sorted(pairs)]


def random_subquartic(rng: random.Random, n: int):
    """Connected graph of maximum degree 4: a degree-capped tree plus extras."""
    deg = [0] * n
    pairs = set()
    for v in range(1, n):
        u = rng.choice([x for x in range(v) if deg[x] < 4])
        pairs.add(edge_key(u, v))
        deg[u] += 1
        deg[v] += 1
    slots = [p for p in combinations(range(n), 2) if p not in pairs]
    rng.shuffle(slots)
    for u, v in slots:
        if deg[u] < 4 and deg[v] < 4 and rng.random() < 0.6:
            pairs.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return [(u, v, NEG if rng.random() < 0.5 else POS) for u, v in sorted(pairs)]


def complete_signing(rng: random.Random, n: int, k: int):
    pairs = list(combinations(range(n), 2))
    negative = set(rng.sample(pairs, k))
    return [(u, v, NEG if (u, v) in negative else POS) for u, v in pairs]


def all_signings(n: int, pairs):
    for mask in range(1 << len(pairs)):
        yield [(u, v, NEG if mask >> i & 1 else POS) for i, (u, v) in enumerate(pairs)]


SMALL_FAMILIES = (
    ("C3", 3, [(0, 1), (1, 2), (0, 2)]),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ("C6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    ("K4", 4, list(combinations(range(4), 2))),
)
SIGNING_COMMANDS = ("balance", "negation-check", "minimal", "acyclic", "packing", "frustration")
RANDOM_COMMANDS = ("balance", "negation-check", "minimal", "packing", "frustration", "oracle-verify")


def small_corpus(seed: int):
    """Every command on small inputs: signings of C3-C6 and K4, random graphs, K_n signings."""
    rng = random.Random(seed)
    while True:
        ops = []
        for name, n, pairs in SMALL_FAMILIES:
            for i, edges in enumerate(all_signings(n, pairs)):
                cmd = SIGNING_COMMANDS[i % len(SIGNING_COMMANDS)]
                ops.append(Op(cmd, f"signing-{name}", n, relabel(rng, n, edges)))
        for n in range(4, 12):
            for cmd in RANDOM_COMMANDS:
                ops.append(Op(cmd, "random", n, random_connected(rng, n, 0.3)))
        for n in (8, 10, 12, 13, 14):
            edges = random_subquartic(rng, n)
            ops.append(Op("acyclic", "subquartic", n, edges))
            ops.append(Op("oracle-verify", "subquartic", n, random_subquartic(rng, n)))
        for n in range(6, 13):
            k = rng.randint(1, n // 2)
            ops.append(Op("certify-minimum", "complete", n, complete_signing(rng, n, k)))
            ops.append(Op("certify-unique", "complete", n, complete_signing(rng, n, k)))
        yield ops


def large_mix(seed: int):
    """One round of each large family: check-large, acyclic-quartic, packing-sparse.

    Their ops are interleaved, so each family's ops spread over the whole run
    and a few seconds of a slow host affect every family alike.
    """
    families = (check_large(seed), acyclic_quartic(seed), packing_sparse(seed))
    while True:
        ops = []
        for group in zip_longest(*(next(family) for family in families)):
            ops.extend(op for op in group if op is not None)
        yield ops


WORKLOADS = {
    "large-mix": large_mix,
    "small-corpus": small_corpus,
    "check-large": check_large,
    "acyclic-quartic": acyclic_quartic,
    "packing-sparse": packing_sparse,
    "acyclic-corridor": acyclic_corridor,
}

#: Timed seconds of one round at the seed commit on a 2-core x86 VM.  A run
#: executes ``seconds / ROUND_SECONDS`` whole rounds (at least one), so every
#: run of a workload times the same op list whatever the machine's momentary
#: speed, and a faster program simply finishes its rounds sooner.
ROUND_SECONDS = {
    "large-mix": 28.0,
    "small-corpus": 13.0,
    "check-large": 6.5,
    "acyclic-quartic": 11.5,
    "packing-sparse": 10.5,
    "acyclic-corridor": 2.0,
}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))
