"""Differential checks against networkx, at sizes the brute-force oracle cannot reach.

The reference side never calls the package's own graph algorithms: balance
(on the signed double cover), forests, connectivity, components and
relabelling come from networkx, and signs after a switching or a negation
are recomputed edge by edge.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import networkx as nx
import pytest

from negset import (
    NEG,
    POS,
    MinusK5Detected,
    SignedGraph,
    acyclic_negation,
    check_balance,
    cli,
    is_balanced,
    is_minimal,
    is_negation_set,
    serialize,
)


def signed_graph(nxg: nx.Graph) -> SignedGraph:
    """A networkx graph on nodes 0..n-1 with a ``sign`` on every edge."""
    edges = [(u, v, d["sign"]) for u, v, d in nxg.edges(data=True)]
    return SignedGraph(nxg.number_of_nodes(), edges)


def sign_edges(rng: random.Random, nxg: nx.Graph, p: float) -> nx.Graph:
    for u, v in nxg.edges():
        nxg[u][v]["sign"] = NEG if rng.random() < p else POS
    return nxg


def balanced(nxg: nx.Graph) -> bool:
    """Harary's test on the signed double cover: no vertex meets its own copy."""
    cover = nx.Graph()
    cover.add_nodes_from((v, side) for v in nxg for side in (0, 1))
    for u, v, d in nxg.edges(data=True):
        flip = d["sign"] == NEG
        cover.add_edges_from(((u, side), (v, side ^ flip)) for side in (0, 1))
    label = {x: i for i, comp in enumerate(nx.connected_components(cover)) for x in comp}
    return all(label[(v, 0)] != label[(v, 1)] for v in nxg)


def random_switching(rng: random.Random, nxg: nx.Graph) -> nx.Graph:
    """``nxg`` signed as a random proper switching of all-positive: balanced, an edge negative."""
    side = {v for v in nxg if rng.random() < 0.5}
    first, last = rng.sample(list(nxg), 2)
    side = (side | {first}) - {last}
    for u, v in nxg.edges():
        nxg[u][v]["sign"] = NEG if (u in side) != (v in side) else POS
    return nxg


def negated(nxg: nx.Graph, edges) -> nx.Graph:
    """A copy of ``nxg`` with the signs of ``edges`` flipped."""
    out = nxg.copy()
    for u, v in edges:
        out[u][v]["sign"] = -out[u][v]["sign"]
    return out


def random_quartic(rng: random.Random, n: int) -> nx.Graph:
    """A connected random 4-regular graph on 0..n-1."""
    while True:
        nxg = nx.random_regular_graph(4, n, seed=rng.randrange(1 << 30))
        if nx.is_connected(nxg):
            return nxg


def random_subquartic(rng: random.Random, n: int) -> nx.Graph:
    """A connected graph of maximum degree four: a capped random tree plus capped extras."""
    nxg = nx.empty_graph(n)
    for v in range(1, n):
        nxg.add_edge(rng.choice([u for u in range(v) if nxg.degree(u) < 4]), v)
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        if nxg.degree(u) < 4 and nxg.degree(v) < 4:
            nxg.add_edge(u, v)
    return nxg


def assert_acyclic_matches_reference(nxg: nx.Graph) -> None:
    g = signed_graph(nxg)
    try:
        result = acyclic_negation(g)
    except MinusK5Detected as exc:
        block = nxg.subgraph(exc.vertices)
        assert block.number_of_edges() == 10
        # antibalanced: the six triangles through one vertex, which span the
        # circle space of K5, are all negative
        hub, *rest = sorted(exc.vertices)
        assert all(
            nxg[hub][a]["sign"] * nxg[hub][b]["sign"] * nxg[a][b]["sign"] == NEG
            for i, a in enumerate(rest)
            for b in rest[i + 1 :]
        )
        return
    switched = result.switching
    realized = {
        (min(u, v), max(u, v))
        for u, v, d in nxg.edges(data=True)
        if d["sign"] * (-1 if (u in switched) != (v in switched) else 1) == NEG
    }
    assert realized == result.negation_set
    forest = nx.empty_graph(nxg.number_of_nodes())
    forest.add_edges_from(realized)
    assert nx.is_forest(forest)


@pytest.mark.parametrize("n", [20, 50, 100, 200, 400, 600])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_acyclic_on_random_quartic_signings(n, p):
    rng = random.Random(n * 100 + round(10 * p))
    assert_acyclic_matches_reference(sign_edges(rng, random_quartic(rng, n), p))


def assert_balance_matches_reference(nxg: nx.Graph) -> None:
    g = signed_graph(nxg)
    result = check_balance(g)
    assert result.balanced == is_balanced(g) == balanced(nxg)
    if result.balanced:
        left, right = result.bipartition.left, result.bipartition.right
        assert left.isdisjoint(right) and left | right == set(nxg)
        assert all(
            ((u in left) != (v in left)) == (d["sign"] == NEG)
            for u, v, d in nxg.edges(data=True)
        )
    else:
        circle = result.negative_circle
        k = len(circle)
        assert k == len(set(circle)) >= 3
        sign = POS
        for i in range(k):
            sign *= nxg.edges[circle[i], circle[(i + 1) % k]]["sign"]
        assert sign == NEG


def assert_membership_matches_reference(rng: random.Random, nxg: nx.Graph) -> None:
    """Three edge sets: E-, E- plus a random cut, and E- with one edge toggled.

    A set is a negation set iff negating it leaves the graph balanced, and a
    negation set is minimal iff deleting it leaves the graph connected.
    """
    g = signed_graph(nxg)
    pairs = [(min(u, v), max(u, v)) for u, v in nxg.edges()]
    negative = {e for e in pairs if nxg.edges[e]["sign"] == NEG}
    side = {v for v in nxg if rng.random() < 0.5}
    cut = {(u, v) for u, v in pairs if (u in side) != (v in side)}
    for b in (negative, negative ^ cut, negative ^ {rng.choice(pairs)}):
        expected = balanced(negated(nxg, b))
        assert is_negation_set(g, b) == expected
        if expected:
            rest = nxg.copy()
            rest.remove_edges_from(b)
            assert is_minimal(g, b) == nx.is_connected(rest)


@pytest.mark.parametrize("n", [20, 50, 100, 200, 400, 600])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_balance_membership_and_minimality_on_random_quartic_signings(n, p):
    # each graph is checked twice: randomly signed, and as a random switching
    # of the all-positive signing, which is balanced
    rng = random.Random(n * 100 + round(10 * p))
    nxg = sign_edges(rng, random_quartic(rng, n), p)
    for signed in (nxg, random_switching(rng, nxg.copy())):
        assert_balance_matches_reference(signed)
        assert_membership_matches_reference(rng, signed)


@pytest.mark.parametrize("seed", range(30))
def test_acyclic_on_random_plaquette_tori(seed):
    # negating the four sides of random unit squares, plus scattered negative
    # edges, leaves many fully negative circles for the main phase
    rng = random.Random(seed)
    side = rng.randint(5, 20)
    grid = sign_edges(rng, nx.grid_2d_graph(side, side, periodic=True), 0.05)
    for r in range(side):
        for c in range(side):
            if rng.random() < 0.2:
                r1, c1 = (r + 1) % side, (c + 1) % side
                square = [(r, c), (r, c1), (r1, c1), (r1, c)]
                for i in range(4):
                    grid.edges[square[i], square[(i + 1) % 4]]["sign"] *= -1
    order = list(grid)
    rng.shuffle(order)
    assert_acyclic_matches_reference(nx.relabel_nodes(grid, {v: i for i, v in enumerate(order)}))


@pytest.mark.parametrize("seed", range(200))
def test_acyclic_on_random_subquartic_signings(seed):
    rng = random.Random(seed)
    nxg = random_subquartic(rng, rng.randint(3, 14))
    assert_acyclic_matches_reference(sign_edges(rng, nxg, rng.choice([0.2, 0.5, 0.8])))


def run_cli(tmp_path, name: str, g: SignedGraph, command: str, err=None):
    path = tmp_path / f"{name}.sg"
    path.write_text(serialize(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err or io.StringIO()):
        code = cli.main([command, str(path), "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def random_connected(rng: random.Random, k: int) -> nx.Graph:
    part = nx.gnp_random_graph(k, 0.5, seed=rng.randrange(1 << 30))
    for v in range(1, k):
        part.add_edge(rng.randrange(v), v)
    return part


def balanced_above_the_cap(rng: random.Random) -> nx.Graph:
    """A balanced connected graph with negative edges, larger than the oracle's default cap."""
    return random_switching(rng, random_connected(rng, rng.randint(17, 24)))


def glued_host(rng: random.Random) -> nx.Graph:
    """Random small connected components plus isolated vertices, ids shuffled together.

    Every other host or so also gets a balanced component above the oracle's cap.
    """
    parts = []
    for _ in range(rng.randint(2, 6)):
        part = random_connected(rng, rng.randint(2, 7))
        parts.append(sign_edges(rng, part, rng.choice([0.0, 0.3, 0.6])))
    if rng.random() < 0.5:
        parts.append(balanced_above_the_cap(rng))
    parts.append(nx.empty_graph(rng.randint(0, 5)))
    host = nx.disjoint_union_all(parts)
    order = list(host)
    rng.shuffle(order)
    return nx.relabel_nodes(host, dict(zip(host, order)))


def lift(section: dict, to_host: list[int]) -> dict:
    """A one-component report section with its vertex ids mapped back to the host."""
    out = dict(section)
    out["vertices"] = [to_host[v] for v in section["vertices"]]
    if "family" in section:
        out["family"] = [
            [[to_host[u], to_host[v]] for u, v in member] for member in section["family"]
        ]
    if section.get("bipartition"):
        out["bipartition"] = {
            side: [to_host[v] for v in vs] for side, vs in section["bipartition"].items()
        }
    return out


def assert_sections_match_components(tmp_path, host: nx.Graph, command: str) -> None:
    """Each section is the command's answer on that component alone.

    A component the double cover finds balanced has no packing number and
    frustration index 0, whatever its size; any other is run on its own.
    """
    code, report = run_cli(tmp_path, "host", signed_graph(host), command)
    if code != cli.EXIT_HOLDS:
        # only packing refuses, and only when every component is balanced
        assert command == "packing" and code == cli.EXIT_PRECONDITION
        assert balanced(host)
        return
    sections = {tuple(s["vertices"]): s for s in report["components"]}
    components = sorted(sorted(c) for c in nx.connected_components(host))
    assert list(sections) == [tuple(c) for c in components]
    for i, comp in enumerate(components):
        alone = nx.relabel_nodes(host.subgraph(comp), {v: j for j, v in enumerate(comp)})
        if balanced(alone):
            answer = {"balanced": True} if command == "packing" else {"frustration_index": 0}
            expected = {"vertices": comp, **answer}
        else:
            code, report = run_cli(tmp_path, f"component{i}", signed_graph(alone), command)
            assert code == cli.EXIT_HOLDS
            (section,) = report["components"]
            expected = lift(section, comp)
        assert sections[tuple(comp)] == expected


@pytest.mark.parametrize("command", ["packing", "frustration"])
@pytest.mark.parametrize("seed", range(40))
def test_per_component_sections_match_each_component_alone(tmp_path, command, seed):
    assert_sections_match_components(tmp_path, glued_host(random.Random(seed)), command)


@pytest.mark.parametrize("command", ["packing", "frustration"])
@pytest.mark.parametrize("seed", range(5))
def test_connected_balanced_input_above_the_cap(tmp_path, command, seed):
    host = balanced_above_the_cap(random.Random(seed))
    assert_sections_match_components(tmp_path, host, command)


def clustered_quartic(rng: random.Random, n: int, clusters: int) -> nx.Graph:
    """A random 4-regular graph whose negative edges form ``clusters`` small trees.

    The trees grow only along edges across one random 2-colouring, so E⁻
    stays bipartite even where two of them meet.
    """
    nxg = random_quartic(rng, n)
    side = {v: rng.random() < 0.5 for v in nxg}
    negative = set()
    for seed in rng.sample(list(nxg), clusters):
        tree = [seed]
        for _ in range(rng.randint(2, 8)):
            grow = [(u, v) for u in tree for v in nxg[u] if side[u] != side[v] and v not in tree]
            if not grow:
                break
            u, v = rng.choice(grow)
            tree.append(v)
            negative.add((min(u, v), max(u, v)))
    for u, v in nxg.edges():
        nxg[u][v]["sign"] = NEG if (min(u, v), max(u, v)) in negative else POS
    return nxg


def contracted_bound(nxg: nx.Graph) -> float:
    """Least positive distance between the two classes of a negative component.

    Each class, from ``nx.bipartite`` on a component of the negative
    subgraph, is contracted to one node of the positive graph first.
    """
    negative = nx.Graph([(u, v) for u, v, d in nxg.edges(data=True) if d["sign"] == NEG])
    node, pairs = {}, []
    for i, comp in enumerate(nx.connected_components(negative)):
        for j, cls in enumerate(nx.bipartite.sets(negative.subgraph(comp))):
            node.update(dict.fromkeys(cls, ("class", i, j)))
        pairs.append((("class", i, 0), ("class", i, 1)))
    contracted = nx.Graph()
    contracted.add_nodes_from(node.get(v, v) for v in nxg)
    contracted.add_edges_from(
        (node.get(u, u), node.get(v, v)) for u, v, d in nxg.edges(data=True) if d["sign"] == POS
    )
    joined = [(a, b) for a, b in pairs if nx.has_path(contracted, a, b)]
    return min((nx.shortest_path_length(contracted, a, b) for a, b in joined), default=math.inf)


CLUSTERED_CASES = [
    (20, 1), (50, 1), (100, 1), (100, 2), (200, 1), (200, 3), (400, 2), (400, 4), (600, 1), (600, 3)
]


def test_packing_families_on_clustered_quartic_signings(tmp_path):
    """Each ``packing`` family checks out on the double cover and within the networkx bound.

    Every member is a negation set, the members are disjoint, member 0 is
    E⁻, and the number never beats the contracted bound plus one.  With
    one negative component the scan settles the number; with several,
    the exact search may exit 3 on its budget.  Those exits are counted and
    may be at most one case in three, so the slice keeps checking families.
    """
    budget_exits = []
    for n, clusters in CLUSTERED_CASES:
        for seed in range(3):
            nxg = clustered_quartic(random.Random(n * 100 + clusters * 10 + seed), n, clusters)
            err = io.StringIO()
            code, report = run_cli(tmp_path, "clustered", signed_graph(nxg), "packing", err)
            if code == cli.EXIT_PRECONDITION and not balanced(nxg):
                assert "exact packing search needs" in err.getvalue()
                budget_exits.append((n, clusters, seed))
                continue
            assert code == cli.EXIT_HOLDS
            (section,) = report["components"]
            family = [{tuple(e) for e in member} for member in section["family"]]
            signs = {(min(u, v), max(u, v)): d["sign"] for u, v, d in nxg.edges(data=True)}
            assert family[0] == {e for e, sign in signs.items() if sign == NEG}
            assert all(balanced(negated(nxg, member)) for member in family)
            assert sum(map(len, family)) == len(set().union(*family))
            packing_number = section["packing_number"]
            assert packing_number == len(family) <= contracted_bound(nxg) + 1
            if section["distance"] is not None:
                assert section["distance"] == packing_number - 1
    assert len(budget_exits) <= len(CLUSTERED_CASES), budget_exits
