"""Brute-force ground truth by switching enumeration.

Everything here is deliberately naive: take all ``N = 2^(n-1)`` switchings
of a small connected graph (vertex 0 pinned to break the complement
symmetry) and answer questions by inspecting their negative edge sets.  The
fast implementations elsewhere in the package are tested against these
answers, so nothing here calls them.

The switchings are held bit-sliced, in Gray-code order over vertices
``1..n-1``: :func:`negative_columns` gives each edge an N-bit int whose bit
j is set when the edge is negative under switching j, so switching 0 is
E⁻.  A question becomes a few whole-column operations; no set is built per
switching.  The query functions take the finished columns as ``columns``,
so a caller that asks several questions of one graph (``negset
oracle-verify``) builds them once.  Where sets are needed,
:func:`negation_sets` reads switching j's set off its Gray code as one edge
mask, E⁻ XOR the incidence masks of the vertices it switches; there is no
second walk.

Each entry point is gated by what it builds, not by a vertex count, and
stops at the first gate that fails: the m columns of 2^(n-1) bits must fit
``COLUMN_BITS``, tested from n and m alone before the graph is walked; the
graph must be connected; a call may make at most ``SET_COUNT`` sets or
masks, tested in :func:`_masks_at` before the first; the packing search may
make ``PACKING_STEPS`` checks.  Each budget raises ``IterationBudgetError``.

:func:`largest_disjoint` is the package's one branch and bound for a
largest pairwise-disjoint family of masks: the brute-force packing search
runs it over switchings' edge masks, and packing's exact search over its
class-respecting cuts.  Since both answers share it, it is tested alone.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import IterationBudgetError, PreconditionError
from .graph import NEG, Edge, SignedGraph, as_edge_set

#: The most bits the m columns of 2^(n-1) bits (n <= 24 if connected), or packing's cuts, may hold: 32 MiB.
COLUMN_BITS = 1 << 28

#: The most negation sets or edge masks one call may make: every set at n = 16.
SET_COUNT = 1 << 15

#: The most candidate checks in one :func:`largest_disjoint` search, each call counting the masks left.
PACKING_STEPS = 1 << 22

#: An enumeration as returned by :func:`enumerate_negation_sets`.
NegationSets = tuple[frozenset[Edge], ...]


def _check_scale(g: SignedGraph) -> None:
    # m * 2^(n-1) > COLUMN_BITS, with no int of 2^(n-1) made on a large n
    if g.edge_count > COLUMN_BITS >> max(g.n - 1, 0):
        raise IterationBudgetError(
            f"graph's {g.edge_count} columns of 2^{g.n - 1} bits exceed the enumeration budget of "
            f"{COLUMN_BITS >> 23} MiB"
        )
    if not g.is_connected():
        raise PreconditionError("switching enumeration requires a connected graph")


def enumerate_negation_sets(g: SignedGraph) -> NegationSets:
    """All negation sets of a small connected graph, sorted by (size, edges).

    Enumerates every switching set not containing vertex 0; on a connected
    graph that hits each switching function exactly once, so each negation
    set appears exactly once.
    """
    _check_scale(g)
    return negation_sets(g, all_switchings(g))


def all_switchings(g: SignedGraph) -> int:
    """The mask with one bit per switching that fixes vertex 0, ``2^(n-1)`` bits."""
    return (1 << (1 << max(g.n - 1, 0))) - 1


def negative_columns(g: SignedGraph) -> Iterator[int]:
    """Per edge of ``g.edge_pairs()``, the switchings under which it is negative.

    Bit j of an edge's column is set when the edge is negative under Gray
    switching j, whose Gray code ``j ^ (j >> 1)`` has bit k set when vertex
    k + 1 is switched.  The scale is checked at the call; the columns are
    made as they are read, so a caller that reads each once holds one at a
    time.
    """
    _check_scale(g)
    full = all_switchings(g)
    count = full.bit_length()
    switched = [0] * g.n
    for k in range(g.n - 1):
        # Gray code j switches vertex k + 1 when bits k and k + 1 of j
        # differ: a period of 2^(k+2) switchings, off 2^k, on 2^(k+1), off 2^k.
        pattern = ((1 << (2 << k)) - 1) << (1 << k)
        width = 4 << k
        while width < count:
            pattern |= pattern << width
            width <<= 1
        switched[k + 1] = pattern & full
    return (switched[u] ^ switched[v] ^ (full if s == NEG else 0) for u, v, s in g.edges())


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    digits = format(mask, "b")[::-1]
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def _masks_at(g: SignedGraph, mask: int) -> list[int]:
    """The edge masks of the negation sets of the switchings in ``mask``: bit i is ``g.edge_pairs()[i]``.

    Only the selected switchings are read: the Gray code of switching j,
    ``j ^ (j >> 1)``, has bit k set when vertex k + 1 is switched, and its
    set is E⁻ △ cut(X), built from the switched vertices' incidence masks.
    The cut of a vertex set is the XOR of its members' masks: an edge inside
    the set toggles twice and cancels.  The column budget keeps the table of
    n masks of m bits small.
    """
    if mask.bit_count() > SET_COUNT:
        raise IterationBudgetError(f"{mask.bit_count()} sets exceed the enumeration budget of {SET_COUNT}")
    incidence = [0] * g.n
    negative = 0
    for i, (u, v, s) in enumerate(g.edges()):
        incidence[u] |= 1 << i
        incidence[v] |= 1 << i
        if s == NEG:
            negative |= 1 << i
    masks = []
    for j in _bits(mask):
        edges = negative
        for k in _bits(j ^ (j >> 1)):
            edges ^= incidence[k + 1]
        masks.append(edges)
    return masks


def negation_sets(g: SignedGraph, switchings: int) -> NegationSets:
    """The negation sets of the Gray switchings in mask ``switchings``, sorted by (size, edges).

    Bit j of the mask selects switching j, as in :func:`negative_columns`:
    ``all_switchings(g) & 0xFF`` selects E⁻ and the switchings of every
    subset of vertices 1–3.  Edge i precedes edge j exactly when i < j, so
    ascending edge-index rows sort like the sorted edge lists.
    """
    pairs = g.edge_pairs()
    rows = sorted((list(_bits(edges)) for edges in _masks_at(g, switchings)), key=lambda row: (len(row), row))
    return tuple(frozenset([pairs[i] for i in row]) for row in rows)


def _smallest(columns: Iterable[int], full: int) -> tuple[int, int]:
    """The least set size over the switchings in ``full``, and the mask of those that reach it.

    Sizes are bit-sliced: bit j of plane k is bit k of switching j's size.
    Each column is added into the planes by a ripple carry, and then dropped.
    """
    planes: list[int] = []
    for carry in columns:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    size, reach = 0, full
    for k in reversed(range(len(planes))):
        low = reach & ~planes[k]
        if low:
            reach = low
        else:
            size |= 1 << k
    return size, reach


def frustration_index(g: SignedGraph, *, columns: Iterable[int] | None = None) -> int:
    """Minimum number of negative edges over all switchings.

    ``columns``, here and in :func:`brute_is_minimal` and
    :func:`brute_packing_number`, is ``tuple(negative_columns(g))`` when the
    caller already has it; by default it is built.
    """
    if columns is None:
        columns = negative_columns(g)
    return _smallest(columns, all_switchings(g))[0]


def brute_is_minimal(g: SignedGraph, b: Iterable[Edge], *, columns: Iterable[int] | None = None) -> bool:
    """Whether no negation set is a proper subset of ``b``.

    A switching's set lies inside ``b`` exactly when the switching has no
    bit in a column outside ``b``; it equals ``b`` when it also has a bit in
    every column inside.  ``b`` itself must be a negation set or the
    question is ill-posed.
    """
    bs = as_edge_set(g, b)
    if columns is None:
        columns = negative_columns(g)
    inside, outside = -1, 0
    for column, e in zip(columns, g.edge_pairs()):
        if e in bs:
            inside &= column
        else:
            outside |= column
    within = all_switchings(g) & ~outside
    own = within & inside
    if not own:
        raise PreconditionError("b is not a negation set of g")
    # On a connected graph each negation set has exactly one switching.
    return within == own


def brute_packing_number(g: SignedGraph, *, columns: Iterable[int] | None = None) -> int:
    """Maximum size of a pairwise-disjoint family of negation sets containing E⁻(g).

    :func:`largest_disjoint` over the sets disjoint from E⁻, sorted by size:
    the switchings with no bit in an E⁻ column, the only ones made into edge
    masks.  Only defined for unbalanced graphs (a balanced graph has the
    empty negation set, for which disjoint packing is meaningless).
    """
    columns = tuple(negative_columns(g) if columns is None else columns)
    anywhere = negative = 0
    for column in columns:
        anywhere |= column
        if column & 1:  # negative under switching 0, the identity
            negative |= column
    full = all_switchings(g)
    if anywhere != full:
        raise PreconditionError("packing number is defined for unbalanced graphs")
    candidates = sorted(_masks_at(g, full & ~negative), key=int.bit_count)
    refusal = f"brute-force packing search passed its budget of {PACKING_STEPS} checks"
    return len(largest_disjoint(candidates, 0, refusal)) + 1


def largest_disjoint(masks: Sequence[int], floor: int, refusal: str) -> list[int]:
    """A largest pairwise-disjoint family of ``masks`` when it has more than ``floor`` members, else ``[]``.

    Branch and bound over the masks in the caller's order, so a family is a
    subsequence of ``masks`` and the first largest one found is returned;
    a branch stops once the masks left to it cannot beat the best so far.
    Each call counts the masks left to it, and past ``PACKING_STEPS``
    checks in all it raises ``IterationBudgetError(refusal)``.
    """
    best: list[int] = []
    best_size = floor
    steps = 0

    def extend(start: int, used: int, chosen: list[int]) -> None:
        nonlocal best, best_size, steps
        steps += len(masks) - start
        if steps > PACKING_STEPS:
            raise IterationBudgetError(refusal)
        if len(chosen) > best_size:
            best, best_size = list(chosen), len(chosen)
        for idx in range(start, len(masks)):
            if len(chosen) + (len(masks) - idx) <= best_size:
                break
            mask = masks[idx]
            if used & mask:
                continue
            chosen.append(mask)
            extend(idx + 1, used | mask, chosen)
            chosen.pop()

    extend(0, 0, [])
    return best
