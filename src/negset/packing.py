"""Exact packing numbers for the negative edge set of a signed graph.

The packing number of ``E⁻(g)`` is the size of the largest family of
pairwise disjoint negation sets that contains ``E⁻(g)`` itself.  When the
negative subgraph is bipartite, the number equals ``d + 1`` where ``d`` is
the largest positive-subgraph distance between the two sides of a stable
bipartition of the negative subgraph, maximized over all such bipartitions.

:func:`packing_number` goes classes, bound, distances, scan, family.  The
class distances are a sparse table ``{(a, b): d}`` holding only the class
pairs within the bound.  The scan builds a sequence of small signed "class
graphs" on the 2m bipartition classes, one per distinct distance of that
table, and finds the first unbalanced one; its threshold ``w_p`` is the
best distance over single bipartitions.

The scan value is exact whenever it matches the shortest-path upper bound:
every member of a disjoint family must separate the two classes of every
negative component, so no family can be larger than the distance between a
component's classes in the positive subgraph with classes contracted.  The
bound is one bidirectional BFS per component over the host's signed rows,
stepping over negative entries, from both classes at once; each is stopped
once it can no longer beat the best so far, and a side that runs out
closes a region that settles every later component it splits.  It comes
first, because ``w_p`` never exceeds it: the class BFSs meet halfway, each
stopped at half the bound's depth, and a class pair beyond it has no key.
With one negative component the two figures always coincide.  With several
they can genuinely differ — families may mix cuts from different
bipartitions — and then an exact (exponential, budget-kept) search over
class-respecting switchings decides whether a mixed family beats the scan.

Only then is one family built and certified: the mixed family when the
search found one, else the ``w_p + 1`` layered switchings measured from one
side of the last balanced class graph's bipartition.  The class graphs
and the certificate both go through the package's one signed BFS: a class
graph is 2-coloured once, when it is built, and the certificate
two-colours every member at once, bit-parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from . import oracle, verify
from .balance import _two_color, is_balanced
from .errors import InvariantError, IterationBudgetError, PreconditionError
from .graph import NEG, POS, Edge, SignedGraph, edge_key

__all__ = [
    "NegativeComponentClasses",
    "ClassGraph",
    "PackingResult",
    "negative_component_classes",
    "class_distances",
    "thresholds",
    "build_class_graph",
    "packing_number",
    "component_packing_number",
]

BALANCED_MESSAGE = (
    "the graph is balanced: every cut is a negation set, and packing "
    "them is the cut-packing problem, which this solver does not attempt"
)


@dataclass(frozen=True)
class NegativeComponentClasses:
    """Stable bipartition classes of each negative-subgraph component.

    ``classes[i]`` holds the pair ``(V_i1, V_i2)`` for the i-th component,
    ordered by smallest vertex; ``V_i1`` is the class containing that
    smallest vertex.  ``class_of[v]`` is v's class index in :meth:`flat`
    order, or -1 when v is class-free (has no negative edge); one BFS fills both.
    """

    classes: tuple[tuple[frozenset[int], frozenset[int]], ...]
    class_of: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.classes)

    def flat(self) -> tuple[frozenset[int], ...]:
        """The 2m classes interleaved: class index 2i is V_i1, 2i+1 is V_i2."""
        return tuple(cls for pair in self.classes for cls in pair)


@dataclass(frozen=True)
class ClassGraph:
    """Signed multigraph on the 2m bipartition classes.

    Class ``2i`` and ``2i + 1`` are always joined by a negative edge; the
    positive edges come from a distance threshold.  A positive edge parallel
    to a negative one forms a negative digon, which the signed BFS over the
    multigraph's rows meets as an ordinary colouring conflict.  That BFS
    runs once, in the pass that validates the edges and builds the rows.
    """

    m: int
    threshold: int
    positive_edges: frozenset[Edge]
    _left: frozenset[int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = frozenset(edge_key(*e) for e in self.positive_edges)
        object.__setattr__(self, "positive_edges", norm)
        # Unsorted rows, negative entry first: no answer reads their order.
        rows = [[(c ^ 1, NEG)] for c in range(2 * self.m)]
        for u, v in norm:
            if not (0 <= u < 2 * self.m and 0 <= v < 2 * self.m):
                raise ValueError(f"class index out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at class {u} is not allowed")
            rows[u].append((v, POS))
            rows[v].append((u, POS))
        color, conflict, _, _ = _two_color(rows)
        left = None if conflict else frozenset(c for c, side in enumerate(color) if side == 0)
        object.__setattr__(self, "_left", left)

    def balanced(self) -> bool:
        return self._left is not None

    def harary_sides(self) -> frozenset[int]:
        """Class indices on the left of the Harary split (balanced only).

        The split is normalized per component (smallest class index lands on
        the left), so the result is deterministic even when the class graph
        is disconnected.
        """
        if self._left is None:
            raise InvariantError("harary_sides called on an unbalanced class graph")
        return self._left


@dataclass(frozen=True)
class PackingResult:
    """Packing number of E⁻(g) with an explicit witnessing family."""

    packing_number: int
    family: tuple[frozenset[Edge], ...]
    realizing_bipartition: tuple[frozenset[int], frozenset[int]] | None
    distance: int | None


def negative_component_classes(g: SignedGraph) -> NegativeComponentClasses:
    """Two-color each component of the negative subgraph.

    Raises :class:`PreconditionError` when there are no negative edges (the
    construction is undefined) or when some component is not bipartite (an
    odd fully negative circle rules out any disjoint partner, so the class
    machinery never applies).
    """
    rows = g.signed_rows()
    class_of = [-1] * g.n
    classes: list[tuple[frozenset[int], frozenset[int]]] = []
    # Only the ends of negative edges carry a class; a component's smallest
    # vertex is its first root.
    for root in sorted(set(chain.from_iterable(g.negative_edges()))):
        if class_of[root] >= 0:
            continue
        class_of[root] = 2 * len(classes)
        queue = [root]
        sides: tuple[list[int], list[int]] = ([root], [])
        for u in queue:
            for w, s in rows[u]:
                if s == POS:
                    continue
                if class_of[w] < 0:
                    class_of[w] = class_of[u] ^ 1
                    sides[class_of[w] & 1].append(w)
                    queue.append(w)
                elif class_of[w] == class_of[u]:
                    raise PreconditionError(
                        "the negative subgraph contains an odd circle, so its "
                        "components have no stable bipartition"
                    )
        classes.append((frozenset(sides[0]), frozenset(sides[1])))
    if not classes:
        raise PreconditionError(
            "the graph has no negative edges; there are no classes to build"
        )
    return NegativeComponentClasses(tuple(classes), tuple(class_of))


def _positive_distances(
    g: SignedGraph, sources: Iterable[int], limit: float = math.inf
) -> dict[int, int]:
    """Multi-source BFS over the rows' positive entries: ``{v: distance}``, in
    BFS order, for the vertices within ``limit``."""
    rows = g.signed_rows()
    dist = dict.fromkeys(sources, 0)
    queue = list(dist)
    for u in queue:
        step = dist[u] + 1
        if step > limit:
            # BFS order: every vertex still queued is at least this deep.
            break
        for w, sign in rows[u]:
            if sign == POS and w not in dist:
                dist[w] = step
                queue.append(w)
    return dist


def class_distances(
    g: SignedGraph, classes: NegativeComponentClasses, limit: float = math.inf
) -> dict[Edge, int]:
    """Least positive-subgraph distance ``{(a, b): d}``, ``a < b``, between classes.

    Class indices follow :meth:`NegativeComponentClasses.flat`.  A pair that
    is not joined, or is farther apart than ``limit``, has no key.  With a
    finite ``limit`` the BFSs meet halfway: one per class, each stopped at
    depth ⌈limit/2⌉, and a pair's distance is its least ``da + db`` over the
    vertices both classes reach.  That is exact: on a shortest path of
    length d the vertex ⌈d/2⌉ steps from one class is ⌊d/2⌋ from the other.
    With no limit, where a meet would pair every class with every other at
    every vertex, or a limit of 1, where half the depth is the whole, one BFS
    per class to depth ``limit`` reads the class of every vertex it reaches;
    BFS order meets each class first at its distance.
    """
    class_of = classes.class_of
    pairs: dict[Edge, int] = {}
    if limit <= 1 or math.isinf(limit):
        for a, cls in enumerate(classes.flat()):
            for v, d in _positive_distances(g, cls, limit).items():
                if class_of[v] > a:
                    pairs.setdefault((a, class_of[v]), d)
        return pairs
    # met[v]: the (class, depth) of every earlier class BFS that reached v
    met: dict[int, list[tuple[int, int]]] = {}
    for a, cls in enumerate(classes.flat()):
        for v, d in _positive_distances(g, cls, -(-limit // 2)).items():
            if v not in met:
                met[v] = [(a, d)]
                continue
            seen = met[v]
            for b, e in seen:
                if d + e <= limit and d + e < pairs.get((b, a), limit + 1):
                    pairs[b, a] = d + e
            seen.append((a, d))
    return pairs


def thresholds(distances: dict[Edge, int]) -> tuple[int, ...]:
    """Distinct class distances, ascending."""
    return tuple(sorted(set(distances.values())))


def build_class_graph(
    classes: NegativeComponentClasses, distances: dict[Edge, int], w: int
) -> ClassGraph:
    """The class graph of the scan at threshold ``w``.

    Positive edges join class pairs within distance ``w``, closed under
    the mirror swap that exchanges the two classes of every component: if
    (V_iα, V_jβ) is within threshold then (V_iᾱ, V_jβ̄) is also added.
    """
    positive: set[Edge] = set()
    for (a, b), d in distances.items():
        if d <= w:
            positive.add((a, b))
            # mirror both endpoints into the opposite classes
            positive.add(edge_key(a ^ 1, b ^ 1))
    return ClassGraph(classes.m, w, frozenset(positive))


def _contracted_bound(g: SignedGraph, classes: NegativeComponentClasses) -> float:
    """Least distance between the two classes of a component, classes contracted.

    The distance is measured in the positive multigraph with every class
    contracted to one node.  Contraction can only shorten paths compared
    with plain positive distances, and the shorter figure is the sound
    family-size bound: every family member is a cut separating the two
    contracted nodes of every component, so it spends at least one edge of
    any fixed shortest path between them.  One bidirectional BFS per
    component over the host's signed rows, negative entries skipped, from
    classes 2i and 2i + 1 at once: each step grows the side with the smaller
    frontier by one level, and a vertex reached in a class brings in its
    whole class at the same depth.  Since only the minimum is used, a search
    gives up once its radii ``ra + rb + 1`` reach the best bound so far.  A
    side whose frontier runs out has walked a closed region, with no
    positive edge leaving it; a later component with one class inside a
    recorded region and the other outside gets ``inf`` with no search.
    ``inf`` when no component's classes are joined by a positive path.
    """
    flat = classes.flat()
    class_of = classes.class_of
    rows = g.signed_rows()
    region: dict[int, int] = {}  # vertex -> the component whose search closed its region
    bound = math.inf
    for i in range(classes.m):
        first, second = flat[2 * i], flat[2 * i + 1]
        # A closed region holding one class but not the other: no positive path.
        if region and region.get(next(iter(first))) != region.get(next(iter(second))):
            continue
        bound = min(bound, _meeting_distance(rows, flat, class_of, i, bound, region))
    return bound


def _meeting_distance(
    rows: Sequence[Sequence[tuple[int, int]]],
    flat: tuple[frozenset[int], ...],
    class_of: tuple[int, ...],
    i: int,
    cutoff: float,
    region: dict[int, int],
) -> float:
    """The bidirectional BFS of :func:`_contracted_bound` for component i:
    its contracted distance when below ``cutoff``, else ``inf``.  A side that
    runs out maps every vertex of its closed region to i in ``region``."""
    # The two sides are alike: "near" is the one grown next, "far" the other.
    near, far = flat[2 * i], flat[2 * i + 1]  # frontiers
    near_depth, far_depth = dict.fromkeys(near, 0), dict.fromkeys(far, 0)
    near_radius = far_radius = 0
    while near_radius + far_radius + 1 < cutoff:
        if len(far) < len(near):
            near, far = far, near
            near_depth, far_depth = far_depth, near_depth
            near_radius, far_radius = far_radius, near_radius
        step = near_radius + 1
        grown: list[int] = []
        for u in near:
            for w, sign in rows[u]:
                if sign == NEG or w in near_depth:
                    continue
                if w in far_depth:
                    # The sides stay disjoint while their radii sum below the
                    # distance, so every meet of this first level totals it.
                    return step + far_depth[w]
                c = class_of[w]
                reached = flat[c] if c >= 0 else (w,)
                for x in reached:
                    near_depth[x] = step
                grown.extend(reached)
        if not grown:
            region.update(dict.fromkeys(near_depth, i))
            return math.inf
        near, near_radius = grown, step
    return math.inf


_EXACT_SEARCH_STEPS = 1 << 22


def _exact_packing(
    g: SignedGraph, classes: NegativeComponentClasses, scan_size: int
) -> list[frozenset[Edge]]:
    """Members beyond E⁻ of a family larger than ``scan_size``, else ``[]``.

    A switching yields a negation set disjoint from E⁻(g) exactly when it
    takes one whole class from every negative component plus any set of
    class-free vertices, and the negation set is then the positive-edge cut
    of that switching.  Every class-free vertex is enumerated.  A class-free
    vertex has only positive edges, so a positive component holding no
    class vertex has no edge leaving it; in a connected graph it would be
    the whole graph, which would then have no negative edge and be
    balanced, and balanced input is rejected upstream.  The search is
    exponential and kept behind two budgets, each raising
    :class:`IterationBudgetError`: its 2^bits cuts, counted as max(m, 256)
    bits each (an int of m bits, never under an int's header), must fit
    ``oracle.COLUMN_BITS`` before the first is made, capping memory; and
    at most 2^22 candidate checks are made, each ``extend`` call counting
    the cuts left to it, capping time.  The 32 MiB table budget counts the
    cuts' bits, not what the held table costs: each cut is also an int
    object and a list slot, so the 2^20 cuts of 24 bits that
    ``long_hexagon(18, length=1)`` admits peak at 56 MiB traced, held in
    one list and sorted in place.  Only the start cut and the ``bits``
    toggles are made from the graph, each one ``g.cut`` encoded over
    ``g.edge_pairs()``.  The scan family's size seeds the branch and bound
    so only strict improvements are explored.
    """
    free = [v for v, c in enumerate(classes.class_of) if c < 0]
    bits = (classes.m - 1) + len(free)
    width = max(g.edge_count, 256)
    if width > oracle.COLUMN_BITS >> bits:  # width * 2^bits > COLUMN_BITS, with no int of 2^bits made
        raise IterationBudgetError(
            f"exact packing search needs 2^{bits} cuts of {width} bits, over its budget of "
            f"{oracle.COLUMN_BITS >> 23} MiB; the scan lower bound is {scan_size}"
        )

    pairs = g.edge_pairs()

    def encode(cut: frozenset[Edge]) -> int:
        # Bit i is pairs[i]; base 2 parses in linear time, with no digit limit.
        return int("".join("1" if e in cut else "0" for e in reversed(pairs)), 2)

    # One Gray-code walk from the cut of all first classes reaches every
    # class-respecting switching, each step swapping the classes of one
    # component 1..m-1 or toggling one free vertex.  Each such cut holds
    # all of E⁻ and no toggle touches it, so clearing E⁻ once at the start
    # leaves the positive-edge cuts.  Two switchings holding component 0's
    # first class differ by a set with a nonempty cut in a connected graph,
    # so no cut repeats.
    toggles = [encode(g.cut(first | second)) for first, second in classes.classes[1:]]
    toggles += [encode(g.cut((v,))) for v in free]
    mask = encode(g.cut(v for first, _ in classes.classes for v in first) - g.negative_edges())
    cuts = [mask]
    for x in range(1, 1 << len(toggles)):
        mask ^= toggles[(x & -x).bit_length() - 1]
        cuts.append(mask)

    def edge_bits(mask: int) -> frozenset[Edge]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(pairs[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # In place, by (size, value): a stable sort by size keeps the value order.
    cuts.sort()
    cuts.sort(key=int.bit_count)
    best: list[int] = []
    best_size = scan_size - 1
    steps = 0

    def extend(start: int, used: int, chosen: list[int]) -> None:
        nonlocal best, best_size, steps
        steps += len(cuts) - start
        if steps > _EXACT_SEARCH_STEPS:
            raise IterationBudgetError(
                f"exact packing search needs more candidate checks than its budget of "
                f"{_EXACT_SEARCH_STEPS}; the scan lower bound is {scan_size}"
            )
        if len(chosen) > best_size:
            best, best_size = list(chosen), len(chosen)
        for idx in range(start, len(cuts)):
            if len(chosen) + (len(cuts) - idx) <= best_size:
                break
            cut = cuts[idx]
            if used & cut:
                continue
            chosen.append(cut)
            extend(idx + 1, used | cut, chosen)
            chosen.pop()

    extend(0, 0, [])
    # best is a subsequence of cuts, so already in its order
    return [edge_bits(mask) for mask in best]


def packing_number(g: SignedGraph) -> PackingResult:
    """Largest family of pairwise disjoint negation sets containing E⁻(g).

    The graph must be connected and unbalanced; :class:`PreconditionError`
    is raised otherwise.  :func:`component_packing_number` computes it.
    """
    if not g.is_connected():
        raise PreconditionError("packing numbers are defined for connected graphs")
    if is_balanced(g):
        raise PreconditionError(BALANCED_MESSAGE)
    return component_packing_number(g)


def component_packing_number(g: SignedGraph) -> PackingResult:
    """:func:`packing_number` of a graph already known to be connected and unbalanced.

    Neither precondition is checked again.  When the negative subgraph
    is not bipartite no second disjoint negation set can exist, so the
    family is just ``(E⁻(g),)``.  Otherwise the class-graph scan finds the
    best single-bipartition distance ``w_p``, which is exact when it meets
    the contracted shortest-path bound (always true for one negative
    component); otherwise an exhaustive search over class-respecting
    switchings decides whether a family that mixes bipartitions does better.
    The family returned is the mixed one, else ``w_p + 1`` layered
    switchings.  Results from the mixed search carry
    ``realizing_bipartition=None`` and ``distance=None``.
    """
    base = g.negative_edges()
    try:
        classes = negative_component_classes(g)
    except PreconditionError:
        # An unbalanced graph has a negative edge, so the error is an odd
        # fully negative circle: no second disjoint negation set exists.
        return PackingResult(1, (base,), None, None)
    # The witnessed family can never beat the contracted shortest-path bound,
    # so the scan's answer lies within it and farther class pairs get no key.
    bound = _contracted_bound(g, classes)
    dist = class_distances(g, classes, bound)
    # The last balanced class graph of the scan; the empty one, whose Harary
    # sides are exactly the first classes, stands in before the first step.
    last = ClassGraph(classes.m, 0, frozenset())
    for w in thresholds(dist):
        cg = build_class_graph(classes, dist, w)
        if not cg.balanced():
            break
        last = cg
    else:
        # An unbalanced graph always has a finite optimal distance, at most
        # the bound, so some class graph in the cut scan must be unbalanced.
        raise InvariantError(f"no class graph within the cut bound {bound} is unbalanced")
    w_p = cg.threshold
    # Pinched between the layered family below and the bound above, the scan
    # value is exact; otherwise a family mixing bipartitions may do better.
    members = _exact_packing(g, classes, w_p + 1) if w_p < bound else []
    bipartition = distance = None
    if not members:
        side = last.harary_sides()
        b1 = frozenset(v for v, c in enumerate(classes.class_of) if c in side)
        b2 = frozenset(v for v, c in enumerate(classes.class_of) if c >= 0 and c not in side)
        reach = _positive_distances(g, b1, w_p)
        # Member i is E⁻ switched by the layer {v : reach(v) <= i}, where a
        # vertex beyond w_p reads w_p.  Every negative edge joins b1 to b2 and
        # so lies in that layer's cut, which leaves exactly the positive edges
        # from distance i to distance i + 1.
        layers: list[set[Edge]] = [set() for _ in range(w_p)]
        for u, v in g.positive_edges():
            du, dv = reach.get(u, w_p), reach.get(v, w_p)
            if du != dv:
                layers[min(du, dv)].add((u, v))
        members = [frozenset(layer) for layer in layers]
        bipartition, distance = (b1, b2), w_p
    family = [base, *members]
    verify.family(g, family)
    return PackingResult(len(family), tuple(family), bipartition, distance)
