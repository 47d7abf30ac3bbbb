"""Constructing structured negation sets.

Three constructions live here:

* :func:`disjoint_partner` — when the negative subgraph is bipartite, produce
  a second negation set sharing no edge with the current one (switch one
  stable side of every negative component plus all untouched vertices).

* :func:`bipartite_negation_for_antibalanced_planar` — for an antibalanced
  graph with a proper 4-coloring (always available when planar), a switching
  whose negation set is bipartite: first switch to the all-negative signing,
  then switch two of the four color classes.

* :func:`acyclic_negation` — for connected graphs of maximum degree four, a
  switching whose negative edges form a *forest*.  This is the heavy one: the
  4-core is peeled off, each core component is ground down by a case analysis
  that repeatedly eliminates fully negative circles (each rewrite marked
  strict reduces their number; the others set up one that does), and the
  peeled layers are reattached with a greedy sweep.  The lone obstruction is
  a core component switching-equivalent to the all-negative K5, which is
  tested once, when the component is entered, and reported via
  :class:`~negset.errors.MinusK5Detected`.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import verify
from .balance import negation_set_from_switching, switching_for_negation_set
from .errors import InvariantError, MinusK5Detected, PreconditionError
from .graph import NEG, POS, Edge, SignedGraph, edge_key, row_sign
from .packing import negative_component_classes

# -- disjoint partner ----------------------------------------------------------


def disjoint_partner(g: SignedGraph) -> frozenset[Edge]:
    """A negation set disjoint from E⁻(g), which exists iff E⁻(g) is bipartite.

    Switches every even class of ``negative_component_classes`` (the stable
    side holding its component's smallest vertex) and every class-free
    vertex, both read off ``class_of``.  Every negative edge then lies in the
    cut, so the partner avoids E⁻ entirely; without negative edges it is
    empty.  Raises :class:`PreconditionError` when the negative subgraph has
    an odd circle.
    """
    if not g.negative_edges():
        return frozenset()
    class_of = negative_component_classes(g).class_of
    x = [v for v, c in enumerate(class_of) if c % 2 == 0 or c < 0]
    partner = negation_set_from_switching(g, x)
    verify.family(g, [g.negative_edges(), partner])
    return partner


# -- antibalanced planar construction ------------------------------------------


class BipartiteNegation(NamedTuple):
    """A switching together with the (bipartite) negation set it realizes."""

    negation_set: frozenset[Edge]
    switching: frozenset[int]


def bipartite_negation_for_antibalanced_planar(
    g: SignedGraph, coloring: Sequence[int] | Mapping[int, int]
) -> BipartiteNegation:
    """Bipartite negation set for an antibalanced graph with a proper 4-coloring.

    ``coloring`` assigns each vertex a color in ``0..3`` with adjacent
    vertices differing (for planar graphs such a coloring always exists; it
    is the caller's job to supply one).  The construction first takes the
    switching that realizes the whole edge set, taking the signing to
    all-negative, then additionally switches color classes 2 and 3; the
    remaining negative edges only ever join classes {0,1} or {2,3}, hence
    form a bipartite graph.
    """
    colors = [coloring[v] for v in range(g.n)]
    if any(c not in (0, 1, 2, 3) for c in colors):
        raise PreconditionError("coloring must use colors 0..3")
    for u, v, _ in g.edges():
        if colors[u] == colors[v]:
            raise PreconditionError(f"coloring is not proper at edge ({u}, {v})")
    try:
        w = switching_for_negation_set(g, g.edge_pairs())
    except PreconditionError:
        raise PreconditionError("graph is not antibalanced") from None
    x = w ^ frozenset(v for v in range(g.n) if colors[v] >= 2)
    negation = negation_set_from_switching(g, x)
    verify.bipartite(g.n, negation)
    return BipartiteNegation(negation, x)


# -- fully negative circles -----------------------------------------------------


def negative_circles(g: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """All circles of the negative subgraph, canonical and sorted.

    Canonical form: the cycle starts at its smallest vertex and runs toward
    the smaller of its two neighbors on the cycle.  The enumeration is
    exhaustive, so its output can be exponential in the graph size: only
    tests call it.  The acyclic construction searches the negative 2-core
    instead.
    """
    return _enumerate_circles(range(g.n), g.negative_neighbors)


def _enumerate_circles(verts: Iterable[int], nbrs) -> tuple[tuple[int, ...], ...]:
    found: list[tuple[int, ...]] = []
    for root in sorted(verts):
        # simple cycles whose smallest vertex is the root, each reported in a
        # single direction by requiring second vertex < last vertex; an
        # explicit stack of neighbor iterators keeps deep paths off the
        # interpreter's call stack
        path = [root]
        on_path = {root}
        stack = [iter(sorted(nbrs(root)))]
        while stack:
            for w in stack[-1]:
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        found.append(tuple(path))
                elif w > root and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(sorted(nbrs(w))))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return tuple(sorted(found, key=_circle_order))


def _circle_order(circle: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(circle)), circle


# -- acyclic negation sets for maximum degree four -------------------------------


class TraceEntry(NamedTuple):
    """One rewrite of the construction, logged by the call that switches it.

    Every run keeps the log, and ``trace=True`` returns it as
    ``stats.trace``.  Entries with ``strict`` set are the documented rewrites
    that strictly reduce the number of fully negative circles in the 4-core.
    Replaying every entry's ``switched`` set, in order, on the input
    reproduces the construction's signs after each rewrite.
    """

    phase: str  # "preprocess" | "main" | "reattach"
    label: str
    switched: tuple[int, ...]
    strict: bool


class AcyclicStats(NamedTuple):
    """``passes`` counts the log's main-phase entries: each pass logs exactly one."""

    passes: int
    trace: tuple[TraceEntry, ...] | None


class AcyclicResult(NamedTuple):
    negation_set: frozenset[Edge]
    switching: frozenset[int]
    stats: AcyclicStats


class _Work:
    """Switching state over a fixed host graph: one ±1 factor per vertex.

    The current sign of host edge uw is its host sign times ``factor[u] *
    factor[w]``, so a switch flips one factor in O(1) and the signs always
    equal the host switched by :meth:`switching`.  Every switch goes through
    :meth:`rewrite`, which logs it, so replaying ``log`` reproduces the
    factors.  The degree/neighbor queries read the host's signed rows,
    restricted to the active vertex set, which grows as peeled layers are
    reattached.  While a core component is being ground down, ``circles``
    holds its :class:`_CircleIndex`, and each rewrite marks the vertices it
    switched and their neighbours there.
    """

    __slots__ = ("rows", "factor", "active", "log", "circles")

    def __init__(self, host: SignedGraph):
        self.rows = host.signed_rows()
        self.factor = [POS] * host.n
        self.active: set[int] = set()
        self.log: list[TraceEntry] = []
        self.circles: _CircleIndex | None = None

    def rewrite(self, phase: str, label: str, vertices: Sequence[int], strict: bool) -> None:
        """Switch ``vertices`` and log the switch as one :class:`TraceEntry`."""
        factor = self.factor
        for v in set(vertices):
            factor[v] = -factor[v]
        if self.circles is not None:
            # only edges at a switched vertex change sign
            dirty = self.circles.dirty
            for v in vertices:
                dirty.add(v)
                dirty.update(x for x, _ in self.rows[v])
        self.log.append(TraceEntry(phase, label, tuple(sorted(vertices)), strict))

    def switching(self) -> frozenset[int]:
        return frozenset(v for v, f in enumerate(self.factor) if f == NEG)

    def neighbors(self, v: int) -> list[int]:
        active = self.active
        return [w for w, _ in self.rows[v] if w in active]

    def neg_neighbors(self, v: int) -> list[int]:
        active, factor = self.active, self.factor
        want = NEG * factor[v]
        return [w for w, s in self.rows[v] if w in active and s * factor[w] == want]

    def pos_neighbors(self, v: int) -> list[int]:
        active, factor = self.active, self.factor
        want = factor[v]
        return [w for w, s in self.rows[v] if w in active and s * factor[w] == want]

    def neg_degree(self, v: int) -> int:
        return len(self.neg_neighbors(v))

    def edge_sign(self, u: int, v: int) -> int:
        """The current sign of host edge uv; 0 when uv is no edge."""
        return row_sign(self.rows, u, v) * self.factor[u] * self.factor[v]


def _sweep(w: _Work, verts: Iterable[int], threshold: int, phase: str) -> None:
    """Switch the smallest vertex of negative degree >= threshold until none is left.

    Each switch is logged as its own ``phase`` rewrite.  Every member must be
    active with fewer than ``2 * threshold`` active neighbours, as both
    callers guarantee: a switch then leaves its vertex below the threshold
    and lowers the number of negative active edges, so the sweep ends.
    Nothing else switches while it runs, so the members' negative degrees
    are counted once into a dict, and after each switch one pass over the
    switched vertex's row recounts it and moves each member neighbour's
    count by one.  A min-heap holds every violator (plus stale entries,
    dropped when popped); a neighbour is pushed only when its count went up
    to the threshold or past it, since one whose count fell is in the heap
    already if it violates.  So the sweep picks the same vertex as rescanning
    ``verts`` for the smallest violator after every switch, at
    O(deg + log n) per switch instead of O(|verts|).
    """
    active, factor, rows = w.active, w.factor, w.rows
    degree = {v: w.neg_degree(v) for v in verts}
    heap = [v for v in sorted(degree) if degree[v] >= threshold]
    while heap:
        v = heapq.heappop(heap)
        if degree[v] < threshold:
            continue
        w.rewrite(phase, phase, (v,), False)
        # edge vx is negative now exactly when s * factor[x] == -factor[v]
        negative = -factor[v]
        count = 0
        for x, s in rows[v]:
            if x not in active:
                continue
            if s * factor[x] == negative:
                count += 1
                if x in degree:
                    degree[x] += 1
                    if degree[x] >= threshold:
                        heapq.heappush(heap, x)
            elif x in degree:
                degree[x] -= 1
        degree[v] = count


class _CircleIndex:
    """The fully negative circles of one core component, kept across rewrites.

    Circles lie inside components of the negative subgraph, so the index
    labels every vertex with its negative component's smallest vertex and
    keeps each component's circles under that label, plus one min-heap of
    every circle under :func:`_circle_order` whose entries go stale (and
    are dropped when they reach the top) once their component is
    recomputed.  A rewrite changes signs only on edges at the vertices it
    switches, so every negative component it changes holds one of those
    vertices or their neighbours, which :meth:`_Work.rewrite` adds to
    ``dirty``.  :meth:`refresh` drops the old components of the dirty
    vertices and reads the new ones off by a walk from each, so a pass costs
    the size of the components it touched rather than of the whole core.
    ``verts`` must be closed under active adjacency (a component), so the
    only other vertices a rewrite in it marks are inactive; every vertex
    starts dirty.  Each query takes the :class:`_Work` whose signs it reads:
    the work state holds the index and not the other way round, so the two
    form no reference cycle.
    """

    __slots__ = ("label", "by_label", "heap", "dirty", "stamp")

    def __init__(self, verts: Iterable[int]):
        self.label: dict[int, int] = {}
        self.by_label: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}
        self.heap: list[tuple[tuple, int, int]] = []
        self.dirty = set(verts)
        self.stamp = 0

    def refresh(self, w: _Work) -> None:
        """Recompute the circles of every negative component holding a dirty vertex."""
        dirty, label, by_label = self.dirty, self.label, self.by_label
        active = w.active
        for v in dirty:
            by_label.pop(label.get(v), None)
        seen: set[int] = set()
        for v in dirty:
            if v in seen or v not in active:
                continue
            seen.add(v)
            nbrs: dict[int, list[int]] = {}
            stack = [v]
            while stack:
                u = stack.pop()
                nbrs[u] = around = w.neg_neighbors(u)
                for x in around:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            root = min(nbrs)
            for u in nbrs:
                label[u] = root
            found = _component_circles(nbrs)
            if found:
                self.stamp += 1
                by_label[root] = self.stamp, found
                for circle in found:
                    heapq.heappush(self.heap, (_circle_order(circle), self.stamp, root))
        dirty.clear()

    def first(self, w: _Work) -> tuple[int, ...] | None:
        """The least fully negative circle under :func:`_circle_order`, or None."""
        self.refresh(w)
        heap, by_label = self.heap, self.by_label
        while heap:
            key, stamp, root = heap[0]
            if by_label.get(root, (None,))[0] == stamp:
                return key[1]
            heapq.heappop(heap)
        return None

    def every(self, w: _Work) -> tuple[tuple[int, ...], ...]:
        """Every fully negative circle, canonical and sorted."""
        self.refresh(w)
        found = [c for _, cs in self.by_label.values() for c in cs]
        return tuple(sorted(found, key=_circle_order))


def _component_circles(nbrs: dict[int, list[int]]) -> tuple[tuple[int, ...], ...]:
    """The circles of one negative component, given as adjacency lists, canonical and sorted.

    Circles live in the 2-core, so vertices of negative degree below two are
    peeled first.  A 2-regular core is a disjoint union of cycles, each read
    off by one walk; a core vertex of negative degree three or more falls
    back to the exhaustive enumerator on the core alone.  Either way the
    result equals ``_enumerate_circles`` on the whole component.  The
    component is connected, so with fewer edges than vertices it is a tree
    and has no circle to peel for.
    """
    if sum(map(len, nbrs.values())) < 2 * len(nbrs):
        return ()
    core = _negative_core(nbrs)
    if any(len(around) > 2 for around in core.values()):
        return _enumerate_circles(core, core.__getitem__)
    circles = []
    seen: set[int] = set()
    for root in sorted(core):
        if root in seen:
            continue
        # root is the cycle's smallest vertex; walk toward its smaller neighbor
        seen.add(root)
        circle = [root]
        prev, cur = root, min(core[root])
        while cur != root:
            seen.add(cur)
            circle.append(cur)
            a, b = core[cur]
            prev, cur = cur, b if a == prev else a
        circles.append(tuple(circle))
    return tuple(sorted(circles, key=_circle_order))


def _negative_core(nbrs: dict[int, list[int]]) -> dict[int, list[int]]:
    """The 2-core of a negative adjacency, as adjacency lists."""
    degree = {v: len(a) for v, a in nbrs.items()}
    peel = [v for v, d in degree.items() if d < 2]
    removed = set(peel)
    for v in peel:
        for x in nbrs[v]:
            degree[x] -= 1
            if degree[x] == 1:
                removed.add(x)
                peel.append(x)
    return {
        v: [x for x in a if x not in removed] for v, a in nbrs.items() if v not in removed
    }


def _still_fully_negative(w: _Work, circle: tuple[int, ...]) -> bool:
    k = len(circle)
    return all(w.edge_sign(circle[i], circle[(i + 1) % k]) == NEG for i in range(k))


def _corridor(w: _Work, start: int) -> tuple[list[int], str]:
    """Walk the unique negative path out of a degree-one vertex of Σ:E⁻.

    Every fully negative walk leaving ``start`` begins along this corridor,
    so its first branch vertex (negative degree >= 3) lies on *all* negative
    paths out of ``start``.  Returns the walked vertices (inclusive) and how
    the walk ended: at a ``"junction"`` or at a ``"leaf"``.
    """
    path = [start]
    prev, cur = start, w.neg_neighbors(start)[0]
    while True:
        path.append(cur)
        around = w.neg_neighbors(cur)
        if len(around) >= 3:
            return path, "junction"
        if len(around) == 1:
            return path, "leaf"
        nxt = around[0] if around[1] == prev else around[1]
        prev, cur = cur, nxt


class _Action(NamedTuple):
    label: str
    switched: tuple[int, ...]
    strict: bool
    follow: tuple[int, ...] | None = None  # circle to examine on the next pass


def _classify(w: _Work, circle: tuple[int, ...]) -> _Action | None:
    """Match the current fully negative circle against the rewrite cases, in order.

    Each case may rely on every earlier one having failed.  Past the chord
    case, each circle vertex has negative degree two and two positive
    neighbors, all outside the circle.  Past the split case, those two lie in
    one negative component, so neither has negative degree zero (it would be
    a component by itself).  Past the attached case, each has negative degree
    exactly one.  Returns None in the residual shape, where no two circle
    vertices share a positive neighbor; the two-circle episode handles it.
    """
    cset = set(circle)
    k = len(circle)
    circle_edges = {edge_key(circle[i], circle[(i + 1) % k]) for i in range(k)}

    # a circle vertex with extra negative edges: switch it alone
    for v in sorted(cset):
        if w.neg_degree(v) >= 3:
            return _Action("high-negative-degree", (v,), True)

    # a chord (necessarily positive): switch both of its ends
    for u in sorted(cset):
        for x in w.neighbors(u):
            if x in cset and u < x and (u, x) not in circle_edges:
                return _Action("chord", (u, x), True)

    # a circle vertex whose positive neighbors sit in different components of
    # the negative subgraph: switching it cannot close a new circle
    w.circles.refresh(w)
    label = w.circles.label
    pos_of = {v: w.pos_neighbors(v) for v in sorted(cset)}
    for v in sorted(cset):
        pns = pos_of[v]
        if label[pns[0]] != label[pns[1]]:
            return _Action("split-positive-neighbors", (v,), True)

    # a positive neighbor of the circle with negative degree two or more
    neighbor_anchors: dict[int, int] = {}
    for v in sorted(cset):
        for z in pos_of[v]:
            neighbor_anchors.setdefault(z, v)
    for z in sorted(neighbor_anchors):
        if w.neg_degree(z) >= 2:
            return _Action("attached-positive-neighbor", (z, neighbor_anchors[z]), True)

    ordered = sorted(cset)
    # two circle vertices sharing exactly one positive neighbor: the shared
    # neighbor and the two unshared ones are three leaves of one negative
    # component, so the shared neighbor's corridor ends at a branch vertex,
    # and switching the anchor together with it removes the circle and every
    # candidate replacement at once; failing that, the first pair sharing both
    pair = None
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            shared = set(pos_of[a]) & set(pos_of[b])
            if len(shared) == 1:
                path, kind = _corridor(w, shared.pop())
                if kind != "junction":
                    raise InvariantError(
                        "shared positive neighbor has an unbranched negative corridor"
                    )
                return _Action("shared-neighbor-junction", (a, path[-1]), True)
            if len(shared) == 2 and pair is None:
                pair = a, b, sorted(shared)
    if pair is None:
        return None

    a, b, (v3, v4) = pair
    if w.edge_sign(v3, v4) != NEG:
        return _Action("shared-pair-rectangle", (a, b, v3, v4), True)
    if edge_key(a, b) in circle_edges:
        # trade the circle for the fully negative triangle a b v3
        return _Action("shared-pair-shift", (a, b, v4), False, follow=(a, b, v3))
    return _Action("nonadjacent-shared-collapse", (a, b, v3), True)


class _Episode(NamedTuple):
    far_vertex: int
    path: tuple[int, ...]


def _derive_replacement(w: _Work, v: int) -> tuple[tuple[int, ...] | None, int | None]:
    """The circle that would become fully negative on switching circle vertex v.

    Returns ``(circle, None)`` when the corridor between v's positive
    neighbors is clean (the circle is then unique), or ``(None, junction)``
    when the corridor branches first — in which case switching ``{v,
    junction}`` kills every candidate replacement at once.
    """
    path, kind = _corridor(w, min(w.pos_neighbors(v)))
    if kind == "junction":
        return None, path[-1]
    return (v, *path), None


def _component_k5_check(w: _Work, comp: tuple[int, ...]) -> None:
    """Raise :class:`MinusK5Detected` when ``comp`` is switching-equivalent to -K5.

    A 5-vertex component of the 4-core is K5, since each of its vertices has
    four neighbours inside it.  It is equivalent to -K5 when it is
    antibalanced (negating every edge balances it).  The six triangles
    through ``comp[0]`` span the circle space of K5, so that holds exactly
    when each of them is negative under the current signs.  Switching keeps a
    signing antibalanced or not, so this one test on entry covers every
    signing the rewrites later reach.
    """
    if len(comp) != 5:
        return
    hub = comp[0]
    if all(
        w.edge_sign(hub, a) * w.edge_sign(hub, b) * w.edge_sign(a, b) == NEG
        for a, b in combinations(comp[1:], 2)
    ):
        raise MinusK5Detected(comp)


def _solve_core_component(w: _Work, comp: tuple[int, ...]) -> None:
    _component_k5_check(w, comp)

    # grind every negative degree down to two before touching circles
    _sweep(w, comp, 3, "preprocess")

    # every core vertex has four core neighbours, so comp spans 2|comp| edges
    budget = max(100, 10 * len(comp) * 2 * len(comp))
    preferred: tuple[int, ...] | None = None
    episode: _Episode | None = None

    w.circles = _CircleIndex(comp)
    for _ in range(budget):
        # each rewrite that names a circle leaves it fully negative: a certificate
        if preferred is not None and not _still_fully_negative(w, preferred):
            raise InvariantError(f"preferred circle {preferred} is not fully negative")
        circle = preferred if preferred is not None else w.circles.first(w)
        if circle is None:
            w.circles = None
            return

        action = _classify(w, circle)
        if action is None:
            preferred, episode = _case_three(w, circle, episode)
            continue
        episode = None
        w.rewrite("main", action.label, action.switched, action.strict)
        preferred = action.follow

    raise InvariantError(
        f"component {comp} exceeded the rewrite budget of {budget} passes"
    )


def _case_three(
    w: _Work,
    circle: tuple[int, ...],
    episode: _Episode | None,
) -> tuple[tuple[int, ...] | None, _Episode | None]:
    """Residual case: vertex-disjoint circles linked through the positive part.

    One episode pins a start circle and a connecting path, then marches the
    start circle along the path one switch at a time until it sits next to
    the far circle's contact vertex; a final three-vertex switch removes the
    marched circle (any transient debris carries high negative degree and is
    cleaned up by later passes).
    """
    if episode is not None:
        wn = episode.path[-1]
        contact = min(
            (z for z in circle if w.edge_sign(z, wn) == POS),
            default=None,
        )
        if contact is not None:
            w.rewrite("main", "episode-finale", (episode.far_vertex, contact, wn), False)
            return None, None
        # the marched circle holds a path vertex but never the far endpoint:
        # the path is a shortest one, so only its vertex next to the endpoint
        # touches the far circle's negative path (and that vertex would be the
        # contact above), and nothing else switched touches that path either
        cset = set(circle)
        on_path = [j for j, p in enumerate(episode.path) if p in cset]
        wi = episode.path[on_path[-1]]
        replacement, junction = _derive_replacement(w, wi)
        if junction is not None:
            w.rewrite("main", "march-junction", (wi, junction), True)
            return None, None
        w.rewrite("main", "march-advance", (wi,), False)
        return replacement, episode

    # new episode: first prefer any circle that still matches an earlier case
    for other in w.circles.every(w):
        if other != circle and _classify(w, other) is not None:
            w.rewrite("main", "circle-preference", (), False)
            return other, None

    # junction guard on each replacement circle
    replacements: dict[int, tuple[int, ...]] = {}
    for v in sorted(circle):
        replacement, junction = _derive_replacement(w, v)
        if junction is not None:
            w.rewrite("main", "replacement-junction", (v, junction), True)
            return None, None
        replacements[v] = replacement

    pick = _pick_episode_pair(w, circle, replacements)
    if pick is None:
        raise InvariantError(
            "no vertex-disjoint replacement circles joined by a path avoiding the circle"
        )
    v1, v2, path = pick
    w.rewrite("main", "episode-start", (v1,), False)
    return replacements[v1], _Episode(v2, path)


def _pick_episode_pair(
    w: _Work,
    circle: tuple[int, ...],
    replacements: dict[int, tuple[int, ...]],
) -> tuple[int, int, tuple[int, ...]] | None:
    cset = set(circle)
    for v1 in sorted(replacements):
        d1 = set(replacements[v1]) - {v1}
        for v2 in sorted(replacements):
            if v2 == v1:
                continue
            d2 = set(replacements[v2]) - {v2}
            path = _connecting_path(w, d1, d2, cset)
            if path is not None:
                return v1, v2, path
    return None


def _connecting_path(
    w: _Work, sources: set[int], targets: set[int], forbidden: set[int]
) -> tuple[int, ...] | None:
    """Breadth-first path from one replacement circle to the other.

    Interior vertices avoid both circles and the circle being replaced; edge
    signs do not matter.  Returns the vertex path including both endpoints.
    """
    parent: dict[int, int | None] = {s: None for s in sources}
    queue = sorted(sources)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for x in w.neighbors(u):
            if x in parent or x in forbidden:
                continue
            parent[x] = u
            if x in targets:
                path = [x]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(x)
    return None


def acyclic_negation(g: SignedGraph, trace: bool = False) -> AcyclicResult:
    """Switch a connected max-degree-4 graph so its negative edges form a forest.

    Peels down to the 4-core, eliminates every fully negative circle in each
    core component through the case rewrites, then reattaches the peeled
    layers batch by batch, sweeping each batch until its vertices carry at
    most one negative edge.  Raises :class:`MinusK5Detected` when a core
    component is switching-equivalent to the all-negative K5 (the one graph
    without an acyclic negation set), and :class:`PreconditionError` for
    disconnected input or a core vertex of degree above four.  Every run logs
    its rewrites; ``trace=True`` returns the log as ``stats.trace``.
    """
    if not g.is_connected():
        raise PreconditionError("acyclic negation construction requires a connected graph")
    core, batches = g.k_core(4)
    w = _Work(g)
    w.active |= core
    if g.max_degree() > 4 and any(len(w.neighbors(v)) > 4 for v in core):
        raise PreconditionError("the 4-core has a vertex of degree above four")

    # with nothing peeled, the connected input is its own one core component
    comps = (tuple(range(g.n)),) if core and not batches else g.connected_components(core)
    for comp in comps:
        _solve_core_component(w, comp)

    for batch in reversed(batches):
        w.active |= batch
        _sweep(w, batch, 2, "reattach")

    switching = w.switching()
    negation = negation_set_from_switching(g, switching)
    verify.forest(g.n, negation)
    passes = sum(entry.phase == "main" for entry in w.log)
    stats = AcyclicStats(passes, tuple(w.log) if trace else None)
    return AcyclicResult(negation, switching, stats)

