"""Core signed-graph data model.

A :class:`SignedGraph` is an immutable simple undirected graph on densely
indexed vertices ``0..n-1`` with a sign (``+1`` or ``-1``) attached to every
edge.  All higher-level operations (switching, balance checking, negation-set
machinery) are built from the primitives here.

A set of vertices is a frozenset of ints, and a set of edges a frozenset of
pairs ``(u, v)`` with ``u < v`` (:func:`edge_key`), in no particular order.
:func:`as_vertex_set` and :func:`as_edge_set` validate a set that comes from
outside the package against its host graph.  Every one-edge lookup is
:func:`row_sign`, a bisection of the graph's sorted signed rows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .errors import MalformedCertificateError

POS = 1
NEG = -1

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalized (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _edge_fault(n: int, u: int, v: int, s: int) -> str:
    """Why :class:`SignedGraph` rejects edge ``(u, v, s)``, checked in this order."""
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
    if u == v:
        return f"loop at vertex {u} is not allowed"
    if s not in (POS, NEG):
        return f"edge ({u}, {v}) has invalid sign {s!r}"
    return f"parallel edge ({u}, {v})"


def row_sign(rows: Sequence[Sequence[tuple[int, int]]], u: object, v: object) -> int:
    """The package's one edge lookup: uv's sign, bisected out of u's sorted row, or 0 for no edge.

    Only an int in ``0..len(rows)-1`` indexes a row, never one from the end; ``1.0`` is no vertex."""
    if isinstance(u, int) and isinstance(v, int) and 0 <= u < len(rows):
        row = rows[u]
        i = bisect_left(row, (v,))
        if i < len(row) and row[i][0] == v:
            return row[i][1]
    return 0


class SignedGraph:
    """Immutable simple signed graph.

    ``edges`` is an iterable of ``(u, v, sign)`` triples with ``sign`` in
    ``{+1, -1}``.  Loops, parallel edges, out-of-range endpoints, and invalid
    signs are rejected at construction time, so every live instance is a
    well-formed simple signed graph.

    The one validating pass over ``edges`` builds the signed rows.  Edges
    in strictly increasing ``(min, max)`` order, as ``.sg`` files and every
    copy made here list them, land in already sorted rows and cannot
    repeat.  From the first edge out of that order on, each edge is checked
    against a set of those before it, and the rows are sorted at the end.
    """

    __slots__ = ("_n", "_m", "_rows", "_negative")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        pa = pb = -1  # the last edge, while they arrive in increasing order
        seen: set[Edge] | None = None  # every edge so far, once they do not
        for u, v, s in edges:
            if u < v:
                a = u
                b = v
            else:
                a = v
                b = u
            if not (0 <= a and b < n and a != b and (s == POS or s == NEG)):
                raise ValueError(_edge_fault(n, u, v, s))
            if seen is None:
                if a > pa or (a == pa and b > pb):
                    pa = a
                    pb = b
                else:
                    seen = {(x, w) for x, row in enumerate(rows) for w, _ in row if x < w}
            if seen is not None:
                if (a, b) in seen:
                    raise ValueError(_edge_fault(n, u, v, s))
                seen.add((a, b))
            rows[a].append((b, s))
            rows[b].append((a, s))
        if seen is not None:
            for row in rows:
                row.sort()
        self._n = n
        self._m = sum(map(len, rows)) // 2
        self._rows = tuple(map(tuple, rows))
        self._negative: frozenset[Edge] | None = None

    # -- basic queries --------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return self._m

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as sorted ``(u, v, sign)`` triples, lexicographic."""
        return tuple((u, w, s) for u, row in enumerate(self._rows) for w, s in row if u < w)

    def edge_pairs(self) -> tuple[Edge, ...]:
        return tuple((u, w) for u, row in enumerate(self._rows) for w, _ in row if u < w)

    def signed_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex ``(neighbour, sign)`` pairs in neighbour order.

        The graph's one adjacency, which every neighbourhood query reads.
        """
        return self._rows

    def max_degree(self) -> int:
        return max(map(len, self._rows), default=0)

    def positive_edges(self) -> frozenset[Edge]:
        return frozenset((u, w) for u, row in enumerate(self._rows) for w, s in row if u < w and s == POS)

    def negative_edges(self) -> frozenset[Edge]:
        """E⁻, read off the rows once and kept; :func:`as_edge_set` takes it unchecked."""
        if self._negative is None:
            self._negative = frozenset(
                (u, w) for u, row in enumerate(self._rows) for w, s in row if u < w and s == NEG
            )
        return self._negative

    def built_negative_edges(self) -> frozenset[Edge] | None:
        """E⁻ if :meth:`negative_edges` has already built it, else ``None``; builds nothing."""
        return self._negative

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        """Hash of the signed rows, recomputed on each call."""
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SignedGraph(n={self._n}, m={self._m})"

    # -- switching and negation -----------------------------------------------

    def switch(self, x: Iterable[int]) -> "SignedGraph":
        """Negate every edge with exactly one end in ``x``.

        Switching preserves all circle signs; iterating it over subsets
        enumerates exactly the negation sets of the graph.
        """
        return self._negated(self.cut(x))

    def negate_edges(self, y: Iterable[Edge]) -> "SignedGraph":
        """Flip the signs of exactly the edges in ``y``."""
        return self._negated(as_edge_set(self, y))

    def _negated(self, flips: frozenset[Edge]) -> "SignedGraph":
        """A copy with the normalized edges in ``flips`` negated, fed in row order (the sorted path)."""
        rows = self._rows
        return SignedGraph(
            self._n,
            ((u, w, -s if (u, w) in flips else s) for u, row in enumerate(rows) for w, s in row if u < w),
        )

    def circle_edges(self, cycle: Sequence[int]) -> tuple[frozenset[Edge], int]:
        """Edge set and sign (product of edge signs) of a closed vertex cycle.

        ``cycle`` lists distinct vertices; the closing edge from last back to
        first is implied.  Raises :class:`MalformedCertificateError` when the
        input is not a cycle of this graph.  Each edge is one
        :func:`row_sign` lookup.
        """
        k = len(cycle)
        if k < 3:
            raise MalformedCertificateError(f"circle {tuple(cycle)} has fewer than 3 vertices")
        if len(set(cycle)) != k:
            raise MalformedCertificateError(f"circle {tuple(cycle)} repeats a vertex")
        edges = []
        sign = POS
        for i in range(k):
            u, v = cycle[i], cycle[(i + 1) % k]
            s = row_sign(self._rows, u, v)
            if not s:
                raise MalformedCertificateError(f"circle {tuple(cycle)} uses missing edge ({u}, {v})")
            edges.append(edge_key(u, v))
            sign *= s
        return frozenset(edges), sign

    # -- subgraphs --------------------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "SignedGraph":
        """Subgraph induced on ``vertices``, reindexed densely.

        Vertex i of the result is the i-th smallest of ``vertices``; the map
        is increasing, so an edge lifts back to a normalized host edge.  It
        reads only the kept vertices' rows.
        """
        to_host = sorted(set(vertices))
        for v in to_host:
            if not 0 <= v < self._n:
                raise ValueError(f"vertex {v} outside 0..{self._n - 1}")
        from_host = {v: i for i, v in enumerate(to_host)}
        rows = self._rows
        edges = [
            (i, from_host[w], s)
            for i, u in enumerate(to_host)
            for w, s in rows[u]
            if u < w and w in from_host
        ]
        return SignedGraph(len(to_host), edges)

    def cut(self, x: Iterable[int]) -> frozenset[Edge]:
        """Edges with exactly one end in ``x``, read off the rows of its vertices."""
        xs = as_vertex_set(self, x)
        rows = self._rows
        return frozenset((u, w) if u < w else (w, u) for u in xs for w, _ in rows[u] if w not in xs)

    # -- connectivity -----------------------------------------------------------

    def connected_components(
        self, vertices: Iterable[int] | None = None
    ) -> tuple[tuple[int, ...], ...]:
        """Components of the subgraph induced on ``vertices`` (default: all).

        Read through this graph's rows, without a copy; each is sorted, ordered by smallest vertex.
        """
        return tuple(tuple(sorted(comp)) for comp in self._component_walk(vertices))

    def is_connected(self) -> bool:
        """At most one component; the empty graph counts as connected."""
        return len(next(self._component_walk(None), ())) == self._n

    def _component_walk(self, vertices: Iterable[int] | None) -> Iterator[list[int]]:
        """The package's one component walk: each component, unsorted, by smallest vertex."""
        rows = self._rows
        if vertices is None:
            roots, seen = range(self._n), [False] * self._n
        else:
            roots, seen = sorted(as_vertex_set(self, vertices)), [True] * self._n
            for v in roots:
                seen[v] = False
        for root in roots:
            if seen[root]:
                continue
            seen[root] = True
            comp = [root]
            stack = [root]
            while stack:
                u = stack.pop()
                for w, _ in rows[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            yield comp

    # -- cores -------------------------------------------------------------------

    def k_core(self, k: int) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
        """The k-core's vertices plus the ordered peel batches that were deleted.

        The core is a vertex set of this graph, not a copy.  Each batch holds
        the vertices whose degree dropped below ``k`` at that stage (deleted
        simultaneously).  Reattaching the batches in reverse order replays the
        peeling's intermediate graphs, as the acyclic reattachment phase needs.
        A worklist peel: the next batch is the live neighbours of this batch
        whose degree has just fallen below ``k``, so the peel is O(n + m).
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        rows = self._rows
        deg = [len(row) for row in rows]
        alive = [True] * self._n
        batch = [v for v in range(self._n) if deg[v] < k]
        batches: list[frozenset[int]] = []
        while batch:
            batches.append(frozenset(batch))
            for v in batch:
                alive[v] = False
            falling = []
            for v in batch:
                for w, _ in rows[v]:
                    if alive[w]:
                        deg[w] -= 1
                        if deg[w] == k - 1:
                            falling.append(w)
            batch = falling
        return frozenset(v for v in range(self._n) if alive[v]), tuple(batches)


# -- validation of outside sets ---------------------------------------------


def as_vertex_set(g: SignedGraph, x: Iterable[int]) -> frozenset[int]:
    """Coerce to a validated plain frozenset of vertices of g."""
    xs = frozenset(x)
    for v in xs:
        if not isinstance(v, int):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} outside host range")
    return xs


def as_edge_set(g: SignedGraph, y: Iterable[Edge]) -> frozenset[Edge]:
    """Coerce to a validated plain frozenset of normalized edges of g, one :func:`row_sign` per pair.

    A frozenset of normalized edges comes back as the same object, the host's own E⁻ unchecked."""
    if y is g._negative:
        return y
    as_is = isinstance(y, frozenset)
    ys = y if as_is else tuple(y)
    rows = g._rows
    for e in ys:
        u, v = e
        if not row_sign(rows, u, v):
            for x in (u, v):
                if not isinstance(x, int):
                    raise ValueError(f"vertex {x!r} is not an integer")
            raise ValueError(f"{edge_key(u, v)} is not an edge of the host graph")
        as_is = as_is and u < v and type(e) is tuple
    return ys if as_is else frozenset(edge_key(u, v) for u, v in ys)

