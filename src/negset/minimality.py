"""Minimality and minimum certificates for negation sets.

A negation set is *minimal* (no negation set is properly contained in it)
exactly when deleting it leaves the graph connected, which makes minimality a
connectivity check.  Minimum-ness is harder; this module implements
sufficient-condition certificates:

* a family of pairwise edge-disjoint negative circles, one per edge of the
  set, certifies minimum size;
* on complete graphs such a family of triangles can be constructed whenever
  enough vertices remain outside the set's support, using a proper edge
  coloring to hand each color class its own spare vertex;
* two negative circles per edge, overlapping exactly in that edge and with
  pairwise disjoint unions, certify a *unique* minimum (given the set is
  already known to be minimum);
* on complete graphs, any negation set with ``2|b| <= n - 2`` is
  automatically the unique minimum.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .balance import product_coloring
from .errors import InvariantError, PreconditionError
from .graph import NEG, Edge, SignedGraph, as_edge_set, edge_key

Triangle = tuple[int, int, int]
CirclePair = tuple[Edge, tuple[int, ...], tuple[int, ...]]


def is_minimal(g: SignedGraph, b: Iterable[Edge]) -> bool:
    """Whether negation set ``b`` contains no smaller negation set.

    Characterization: ``b`` is minimal iff the graph with ``b`` deleted is
    still connected.  Requires ``g`` connected, checked first, and ``b`` a
    negation set.  One BFS of the product signing settles both: when ``b``
    is a negation set it visits all of ``g``, from one root iff ``g`` is
    connected, so the connectivity walk runs only when that BFS stopped at
    a conflict or did not run (``b`` is the E⁻ that ``g`` keeps).  G − b is
    built from the rows and the set just validated.
    """
    bs = as_edge_set(g, b)
    _, conflict, _, roots = product_coloring(g, bs)
    if not (g.is_connected() if conflict or roots is None else roots <= 1):
        raise PreconditionError("minimality characterization requires a connected graph")
    if conflict:
        raise PreconditionError("b is not a negation set of g")
    rows = g.signed_rows()
    return SignedGraph(
        g.n, ((u, w, s) for u, row in enumerate(rows) for w, s in row if u < w and (u, w) not in bs)
    ).is_connected()


def _negation_set(g: SignedGraph, b: Iterable[Edge]) -> frozenset[Edge]:
    """``b`` as an edge set of g, validated once; raises unless its product signing is balanced."""
    bs = as_edge_set(g, b)
    if product_coloring(g, bs)[1]:
        raise PreconditionError("b is not a negation set of g")
    return bs


def verify_disjoint_circle_certificate(
    g: SignedGraph, b: Iterable[Edge], circles: Iterable[Sequence[int]]
) -> bool:
    """Check a minimum certificate: ``|b|`` pairwise edge-disjoint negative circles.

    The circles are not required to touch ``b`` at all; their existence alone
    bounds every negation set from below.  Structurally broken circles raise
    :class:`MalformedCertificateError`; semantic failures (wrong count, a
    positive circle, shared edges) return ``False``.
    """
    return _disjoint_negative(g, len(_negation_set(g, b)), circles)


def _disjoint_negative(g: SignedGraph, count: int, circles: Iterable[Sequence[int]]) -> bool:
    """Whether ``circles`` are ``count`` pairwise edge-disjoint negative circles of g."""
    walked = [g.circle_edges(c) for c in circles]
    used: set[Edge] = set()
    for es, sign in walked:
        if sign != NEG or used & es:
            return False
        used |= es
    return len(walked) == count


def verify_two_circle_certificate(
    g: SignedGraph, b: Iterable[Edge], pairs: Iterable[CirclePair]
) -> bool:
    """Check a uniqueness certificate for a set already known to be minimum.

    For each edge ``e`` of ``b`` the certificate supplies two negative
    circles whose edge sets intersect exactly in ``{e}``; the unions of the
    pairs must be pairwise disjoint across edges.  Under the hypothesis that
    ``b`` is minimum (not checked here), a valid certificate makes it the
    unique minimum.  Every edge of ``b`` must be covered exactly once.
    """
    bs = _negation_set(g, b)
    entries = [(edge_key(*e), g.circle_edges(c1), g.circle_edges(c2)) for e, c1, c2 in pairs]
    if sorted(e for e, *_ in entries) != sorted(bs):
        return False
    used: set[Edge] = set()
    for e, (es1, sign1), (es2, sign2) in entries:
        if sign1 != NEG or sign2 != NEG:
            return False
        if es1 & es2 != {e}:
            return False
        union = es1 | es2
        if used & union:
            return False
        used |= union
    return True


def unique_minimum_by_size(g: SignedGraph, b: Iterable[Edge]) -> bool:
    """Size-only uniqueness test on complete graphs: ``2|b| <= n - 2``.

    Returns ``True`` when the bound certifies ``b`` as the unique minimum
    negation set, ``False`` when the test is inconclusive.
    """
    _require_complete(g)
    bs = _negation_set(g, b)
    return 2 * len(bs) <= g.n - 2


def _require_complete(g: SignedGraph) -> None:
    if g.edge_count != g.n * (g.n - 1) // 2:
        raise PreconditionError("this certificate construction needs a complete graph")


def triangle_certificate_for_complete(
    g: SignedGraph, b: Iterable[Edge]
) -> tuple[Triangle, ...] | None:
    """Construct edge-disjoint negative triangles proving ``b`` minimum, on K_n.

    Properly edge-colors the graph spanned by ``b`` and assigns each color
    class its own spare vertex outside ``b``'s support; the triangle on an
    edge plus its class spare is negative (circle signs are switching
    invariant, and in the switching where ``b`` is the negative edge set the
    two spare edges are positive).  Triangles of one class share the spare
    but not edges; across classes they are disjoint by coloring.  Returns
    ``None`` when fewer spare vertices exist than colors used; raises
    ``InvariantError`` when the triangles fail
    :func:`verify_disjoint_circle_certificate`.
    """
    _require_complete(g)
    bs = _negation_set(g, b)
    if not bs:
        return ()
    support = {v for e in bs for v in e}
    spare_pool = [v for v in range(g.n) if v not in support]
    coloring = misra_gries_edge_coloring(g.n, bs)
    colors_used = sorted(set(coloring.values()))
    if len(spare_pool) < len(colors_used):
        return None
    spare_of = dict(zip(colors_used, spare_pool))
    cert = tuple((u, v, spare_of[coloring[(u, v)]]) for u, v in sorted(bs))
    if not _disjoint_negative(g, len(bs), cert):
        raise InvariantError("triangle certificate is not edge-disjoint and negative")
    return cert


def misra_gries_edge_coloring(n: int, edges: Iterable[Edge]) -> dict[Edge, int]:
    """Proper edge coloring with at most Δ+1 colors (Misra–Gries).

    Colors are 0-based ints.  The greedy Δ+1 bound of simpler schemes is not
    enough for the spare-vertex counting above, hence the fan/rotation
    algorithm.
    """
    edge_list = sorted({edge_key(*e) for e in edges})
    deg: dict[int, int] = {}
    for u, v in edge_list:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    delta = max(deg.values(), default=0)
    ncolors = delta + 1
    color_of: dict[Edge, int] = {}
    # at[v] maps color -> neighbor joined by an edge of that color
    at: dict[int, dict[int, int]] = {v: {} for v in deg}

    def free(x: int) -> int:
        for c in range(ncolors):
            if c not in at[x]:
                return c
        raise InvariantError("no free color at a vertex of degree <= delta")

    def assign(x: int, y: int, c: int) -> None:
        # every call colours the new edge or an edge just unassigned
        color_of[edge_key(x, y)] = c
        at[x][c] = y
        at[y][c] = x

    def unassign(x: int, y: int) -> None:
        e = edge_key(x, y)
        c = color_of.pop(e)
        del at[x][c]
        del at[y][c]

    for u, v in edge_list:
        # maximal fan of u starting at v
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for c in sorted(at[u]):
                w = at[u][c]
                if w not in in_fan and c not in at[last]:
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)
        c = free(u)
        d = free(fan[-1])
        if c != d:
            # invert the maximal cd-path starting at u (u lacks c, so it starts
            # with d if it starts at all)
            path = [u]
            cur, want = u, d
            while want in at[cur]:
                cur = at[cur][want]
                if cur in path:  # pragma: no cover - cd paths cannot cycle
                    raise InvariantError("cd path loops")
                path.append(cur)
                want = c if want == d else d
            seq = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
            for x, y in seq:
                unassign(x, y)
            want = d
            for x, y in seq:
                assign(x, y, c if want == d else d)
                want = c if want == d else d
        # first fan vertex where d is now free
        w_idx = next(i for i, w in enumerate(fan) if d not in at[w])
        # rotate the prefix: clear it, then shift each color one edge down
        shift = [color_of[edge_key(u, fan[i + 1])] for i in range(w_idx)]
        for i in range(1, w_idx + 1):
            unassign(u, fan[i])
        for i in range(w_idx):
            assign(u, fan[i], shift[i])
        assign(u, fan[w_idx], d)
    return color_of
