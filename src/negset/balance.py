"""Balance, switching equivalence, and negation-set membership.

A signed graph is *balanced* when every circle has positive sign, which
happens exactly when the vertices split into two sides with all positive
edges inside a side and all negative edges across.  :func:`check_balance`
produces that bipartition, or a negative circle witnessing imbalance.

A *negation set* is any edge set that appears as the negative edge set of
some switching of the graph.  Membership reduces to a balance check: ``b`` is
a negation set of ``g`` iff negating ``b`` in ``g`` yields a balanced graph
(equivalently, ``g`` and the graph signed negatively exactly on ``b`` are
switching equivalent).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvariantError, PreconditionError
from .graph import (
    NEG,
    Edge,
    SignedGraph,
    as_edge_set,
)


class HararyBipartition(NamedTuple):
    """Vertex split with positive edges within sides, negative edges across.

    Per component, the side containing the component's smallest vertex lands
    in ``left``, making the result deterministic.
    """

    left: frozenset[int]
    right: frozenset[int]


class BalanceResult(NamedTuple):
    balanced: bool
    bipartition: HararyBipartition | None
    negative_circle: tuple[int, ...] | None


def check_balance(g: SignedGraph) -> BalanceResult:
    """Decide balance; return the bipartition or a negative-circle witness.

    Runs a signed BFS two-coloring per component.  On a coloring conflict the
    tree paths to the conflict edge close into a circle whose sign is
    necessarily negative, which is returned as the witness.  Either witness
    is checked against ``g`` before it is returned: the circle's sign, or
    every edge against the coloring, in one pass over the rows.
    """
    color, conflict, circle, _ = _two_color(g.signed_rows())
    if conflict:
        try:
            negative = g.circle_edges(circle)[1] == NEG
        except ValueError:
            negative = False
        if not negative:
            raise InvariantError(f"balance witness {circle} is not a negative circle")
        return BalanceResult(False, None, circle)
    for u, row in enumerate(g.signed_rows()):
        cu = color[u]
        for w, s in row:
            if (cu != color[w]) != (s == NEG):
                raise InvariantError(f"edge ({u}, {w}) disagrees with the Harary bipartition")
    left = frozenset(v for v, c in enumerate(color) if c == 0)
    right = frozenset(v for v, c in enumerate(color) if c == 1)
    return BalanceResult(True, HararyBipartition(left, right), None)


def _two_color(
    rows: Sequence[Sequence[tuple[int, int]]],
    flips: Mapping[Edge, int] = {},
    full: int = 1,
) -> tuple[list[int], int, tuple[int, ...] | None, int]:
    """Signed BFS two-colouring of up to ``full.bit_length()`` signings at once.

    ``rows`` are per-vertex ``(neighbour, sign)`` rows.  Signing i negates,
    besides the negative edges, every edge whose ``flips`` mask has bit i,
    and bit i of a vertex's potential is its colour under signing i.  The
    BFS tree is the same for every signing, so an edge that disagrees with
    its ends' potentials in bit i closes a negative circle of signing i.

    Returns ``(potentials, conflict, circle, roots)``: bit i of ``conflict``
    is set when signing i is unbalanced, and ``roots`` counts the BFS roots
    started.  The BFS stops once every signing has disagreed (``conflict ==
    full``), with ``circle`` the tree circle through that last edge;
    otherwise ``circle`` is ``None`` and ``roots`` is the number of
    components.  Flips are applied while reading the rows, so no negated
    graph is ever built; a key is built and looked up only in the rows of
    the vertices that touch a flipped edge.
    """
    n = len(rows)
    flip = flips.get
    touched = bytearray(n)
    for u, w in flips:
        touched[u] = touched[w] = 1
    potential = [-1] * n
    parent = [-1] * n
    conflict = 0
    roots = 0
    for root in range(n):
        if potential[root] >= 0:
            continue
        roots += 1
        potential[root] = 0
        queue = [root]
        for u in queue:
            pu = potential[u]
            hit = touched[u]
            for w, s in rows[u]:
                want = pu ^ full if s == NEG else pu
                if hit:
                    want ^= flip((u, w) if u < w else (w, u), 0)
                pw = potential[w]
                if pw < 0:
                    potential[w] = want
                    parent[w] = u
                    queue.append(w)
                elif pw != want:
                    conflict |= pw ^ want
                    if conflict == full:
                        return potential, conflict, _tree_circle(parent, u, w), roots
    return potential, conflict, None, roots


def _tree_circle(parent, u: int, w: int) -> tuple[int, ...]:
    """Close the BFS tree paths from u and w into the circle through edge uw.

    Walks u's parent chain to its root, then w's chain up to the first
    vertex on it: their lowest common ancestor.
    """
    pu = [u]
    while parent[pu[-1]] >= 0:
        pu.append(parent[pu[-1]])
    index = {v: i for i, v in enumerate(pu)}
    pw = [w]
    while pw[-1] not in index:
        pw.append(parent[pw[-1]])
    # pu up to the common ancestor, then pw back down from below it.
    return tuple(pu[: index[pw.pop()] + 1] + pw[::-1])


def is_balanced(g: SignedGraph) -> bool:
    return not _two_color(g.signed_rows())[1]


def is_antibalanced(g: SignedGraph) -> bool:
    """True when negating every edge yields a balanced graph: when E is a negation set."""
    return not failing_flips(g, dict.fromkeys(g.edge_pairs(), 1), 1)


def switching_equivalent(g: SignedGraph, h: SignedGraph) -> bool:
    """Whether two signings of the same underlying graph differ by a switching.

    Equivalent to ``h``'s negative edges being a negation set of ``g``: the
    product signing, negative where the two disagree, is balanced.  Raises
    :class:`PreconditionError` when the underlying graphs differ.
    """
    if g.n != h.n or g.edge_pairs() != h.edge_pairs():
        raise PreconditionError("graphs have different underlying edge sets")
    return not product_coloring(g, h.negative_edges())[1]


def product_coloring(
    g: SignedGraph, bs: frozenset[Edge]
) -> tuple[list[int], int, tuple[int, ...] | None, int | None]:
    """Two-colour the product signing: ``g`` with the edges of ``bs`` negated.

    ``bs`` holds edges of ``g`` as :func:`as_edge_set` returns them.  Returns
    ``(potentials, conflict, circle, roots)`` as :func:`_two_color` does,
    from one signed BFS that flips ``bs``.  When ``bs`` is the E⁻ that ``g``
    keeps (empty on an all-positive ``g``), the product is all positive,
    hence balanced with every potential 0: then no BFS runs and ``roots``
    is ``None``.
    """
    negative = g.built_negative_edges()
    if negative is not None and negative == bs:
        return [0] * g.n, 0, None, None
    return _two_color(g.signed_rows(), dict.fromkeys(bs, 1))


def is_negation_set(g: SignedGraph, b: Iterable[Edge]) -> bool:
    """Whether ``b`` occurs as the negative edge set of some switching of ``g``.

    ``b`` is a negation set iff the signing that is negative exactly on ``b``
    is switching equivalent to ``g``, i.e. iff their product signing is
    balanced.  :func:`product_coloring` decides that in one signed BFS, in
    O(n + m), and with no BFS at all when ``b`` is the E⁻ that ``g`` keeps.
    """
    return not product_coloring(g, as_edge_set(g, b))[1]


def failing_flips(g: SignedGraph, flips: Mapping[Edge, int], full: int) -> int:
    """Bitmask of the edge sets, one per bit of ``full``, that are not negation sets of ``g``.

    Edge set i holds the edges whose ``flips`` mask has bit i; edges are
    keyed ``(u, v)`` with ``u < v``.  One signed BFS decides every set, set
    i negating its edges in bit i.
    """
    return _two_color(g.signed_rows(), flips, full)[1]


def negation_set_from_switching(g: SignedGraph, x: Iterable[int]) -> frozenset[Edge]:
    """The negation set realized by switching ``x``: ``E⁻(g) △ cut(x)``.

    Read off ``g`` itself, with no switched copy.
    """
    return g.negative_edges() ^ g.cut(x)


def switching_for_negation_set(g: SignedGraph, b: Iterable[Edge]) -> frozenset[int]:
    """A switching set realizing negation set ``b`` (smallest-vertex side fixed).

    Raises :class:`PreconditionError` when ``b`` is not a negation set.  The
    returned set never contains vertex 0 of a component, which pins down one
    of the two complementary representatives per component.
    """
    bs = as_edge_set(g, b)
    color, conflict, _, _ = product_coloring(g, bs)
    if conflict:
        raise PreconditionError("the given edge set is not a negation set")
    # Switching one side of the product's bipartition flips exactly the edges
    # where g and the target signing disagree.
    x = frozenset(v for v, c in enumerate(color) if c == 1)
    if negation_set_from_switching(g, x) != bs:
        raise InvariantError("switching does not realize the negation set")
    return x
