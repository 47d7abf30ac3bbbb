"""Independent checkers for every command's ``--json`` output.

Standard library only and independent of ``negset``: each checker reads the
``.sg`` input with its own parser and verifies the report against it with
its own O(m) signed BFS, union-find or bitmask code (the frustration check
enumerates 2^(n-1) switchings of graphs the CLI itself caps at 16 vertices).
:func:`classify` sorts an op into ``answered`` (a definite, checked result),
``budget`` (exit 3 from an exhausted search budget) or ``failed`` (a crash, an
exit code the input does not allow, or a report that fails its check).
"""

from __future__ import annotations

import json
import re

POS = 1
NEG = -1

ANSWERED = "answered"
BUDGET = "budget"
FAILED = "failed"


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Graph:
    """Signed graph read from ``.sg`` text (this module's own parser).

    Edges are numbered in input order; ``neg`` and the other edge masks are
    bytearrays indexed by edge number, and ``adj[v]`` lists ``(w, edge)``.
    """

    def __init__(self, n: int, edges):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.neg = bytearray()
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._index: dict[tuple[int, int], int] | None = None
        for i, (u, v, s) in enumerate(edges):
            self.edges.append((u, v) if u < v else (v, u))
            self.neg.append(s == NEG)
            self.adj[u].append((v, i))
            self.adj[v].append((u, i))

    @property
    def index(self) -> dict[tuple[int, int], int]:
        """Edge number of each ``(u, v)`` pair, ``u < v``."""
        if self._index is None:
            self._index = dict(zip(self.edges, range(len(self.edges))))
        return self._index

    @classmethod
    def parse(cls, text: str) -> "Graph":
        n = None
        edges = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0] == "c":
                continue
            if fields[0] == "p":
                n = int(fields[2])
            else:
                edges.append((int(fields[1]), int(fields[2]), NEG if fields[3] == "-" else POS))
        return cls(n, edges)

    def negative(self) -> set:
        return {e for e, neg in zip(self.edges, self.neg) if neg}

    def mask(self, pairs) -> bytearray:
        """Edge mask of ``pairs``; every pair must be an edge."""
        out = bytearray(len(self.edges))
        for e in pairs:
            require(e in self.index, f"{e} is not an edge")
            out[self.index[e]] = 1
        return out

    def induced(self, vertices) -> "Graph":
        """Subgraph on ``vertices`` with host labels kept (other vertices isolated)."""
        vs = set(vertices)
        return Graph(self.n, [
            (u, v, NEG if neg else POS)
            for (u, v), neg in zip(self.edges, self.neg) if u in vs and v in vs
        ])


def key(pair) -> tuple[int, int]:
    u, v = pair
    return (u, v) if u < v else (v, u)


def coloring(g: Graph, negative=None):
    """Signed BFS two-coloring (negative edges cross), or None on a conflict.

    ``negative`` is an edge mask overriding the graph's own signs.
    """
    negative = g.neg if negative is None else negative
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            cu = color[u]
            for w, i in g.adj[u]:
                want = cu ^ negative[i]
                if color[w] < 0:
                    color[w] = want
                    queue.append(w)
                elif color[w] != want:
                    return None
    return color


def balanced(g: Graph, negative=None) -> bool:
    return coloring(g, negative) is not None


def is_negation_set(g: Graph, b) -> bool:
    """``b`` is a negation set iff the signing negative on E⁻ △ b is balanced."""
    b_mask = g.mask(b)
    return balanced(g, bytes(x ^ y for x, y in zip(g.neg, b_mask)))


def components(g: Graph, removed=None) -> list[list[int]]:
    """Vertex lists of the components, ignoring edges set in the ``removed`` mask."""
    removed = removed or bytes(len(g.edges))
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for u in comp:
            for w, i in g.adj[u]:
                if not seen[w] and not removed[i]:
                    seen[w] = True
                    comp.append(w)
        out.append(comp)
    return out


def connected(g: Graph, removed=None) -> bool:
    return len(components(g, removed)) <= 1


def is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_circle(g: Graph, circle) -> None:
    k = len(circle)
    require(k >= 3 and len(set(circle)) == k, f"circle {circle} is not a simple cycle")
    sign = POS
    for i in range(k):
        e = key((circle[i], circle[(i + 1) % k]))
        require(e in g.index, f"circle uses a non-edge {e}")
        sign *= NEG if g.neg[g.index[e]] else POS
    require(sign == NEG, "reported circle is not negative")


def frustration(g: Graph, vertices) -> int:
    """Minimum negative edges over all switchings of one component (Gray code)."""
    vs = sorted(vertices)
    where = {v: i for i, v in enumerate(vs)}
    incidence = [0] * len(vs)
    negative = 0
    for i, (u, v) in enumerate(g.edges):
        if u in where:
            incidence[where[u]] |= 1 << i
            incidence[where[v]] |= 1 << i
            negative |= g.neg[i] << i
    mask = negative
    best = mask.bit_count()
    previous = 0
    for x in range(1, 1 << max(len(vs) - 1, 0)):
        gray = x ^ (x >> 1)
        mask ^= incidence[(gray ^ previous).bit_length()]  # vertex 0 stays pinned
        previous = gray
        best = min(best, mask.bit_count())
    return best


def requested_edges(g: Graph, args) -> set:
    if "--edges" in args:
        spec = args[args.index("--edges") + 1]
        return {key(map(int, chunk.split("-"))) for chunk in spec.split(",")}
    return g.negative()


def pairs(report_edges) -> set:
    return {key(e) for e in report_edges}


def is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


# -- per-command checkers: (g, args, code, report, stderr) -> outcome ---------------


def _balance(g, args, code, d, err):
    if code == 0:
        require(d["balanced"] is True, "exit 0 without balanced=true")
        left, right = set(d["bipartition"]["left"]), set(d["bipartition"]["right"])
        require(not left & right and left | right == set(range(g.n)), "bipartition is not a partition")
        for (u, v), neg in zip(g.edges, g.neg):
            require(((u in left) == (v in left)) != neg, f"edge {u}-{v} violates the bipartition")
        return ANSWERED
    require(code == 1 and d["balanced"] is False, f"balance exit {code}")
    check_circle(g, d["negative_circle"])
    return ANSWERED


def _negation_check(g, args, code, d, err):
    b = requested_edges(g, args)
    require(pairs(d["edges"]) == b and len(d["edges"]) == len(b), "report lists other edges")
    truth = is_negation_set(g, b)
    require(d["negation_set"] is truth and code == (0 if truth else 1), "wrong membership answer")
    return ANSWERED


def _minimal(g, args, code, d, err):
    b = requested_edges(g, args)
    if not connected(g) or not is_negation_set(g, b):
        require(code == 3, "precondition violated but exit is not 3")
        return ANSWERED
    require(pairs(d["edges"]) == b, "report lists other edges")
    truth = connected(g, g.mask(b))
    require(d["minimal"] is truth and code == (0 if truth else 1), "wrong minimality answer")
    return ANSWERED


def _certify_minimum(g, args, code, d, err):
    b = requested_edges(g, args)
    if not is_complete(g) or not is_negation_set(g, b):
        require(code == 3, "precondition violated but exit is not 3")
        return ANSWERED
    require(pairs(d["edges"]) == b, "report lists other edges")
    degree: dict[int, int] = {}
    for e in b:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    spare = g.n - len(degree)
    if code == 1:
        require(d["certificate"] is None, "exit 1 with a certificate")
        require(spare < max(degree.values(), default=0) + 1, "inconclusive although spare vertices suffice")
        return ANSWERED
    require(code == 0, f"certify-minimum exit {code}")
    cert = d["certificate"]
    require(len(cert) == len(b), "certificate size differs from |b|")
    used: set = set()
    for tri in cert:
        check_circle(g, tri)
        edges = {key((tri[i], tri[(i + 1) % 3])) for i in range(3)}
        require(not edges & used, "certificate triangles share an edge")
        used |= edges
    return ANSWERED


def _certify_unique(g, args, code, d, err):
    b = requested_edges(g, args)
    if not is_complete(g) or not is_negation_set(g, b):
        require(code == 3, "precondition violated but exit is not 3")
        return ANSWERED
    truth = 2 * len(b) <= g.n - 2
    require(d["unique_minimum"] is truth and code == (0 if truth else 1), "wrong size-bound answer")
    return ANSWERED


def _core_max_degree(g: Graph, k: int) -> int:
    deg = [len(a) for a in g.adj]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] < k]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for w, _ in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] < k:
                    alive[w] = False
                    stack.append(w)
    return max((deg[v] for v in range(g.n) if alive[v]), default=0)


def _acyclic(g, args, code, d, err):
    if code == 4:
        block = [int(x) for x in re.findall(r"\d+", err.split("vertices", 1)[1])]
        require(len(set(block)) == 5, "K5 report does not name five vertices")
        sub = g.induced(block)
        require(len(sub.edges) == 10, "reported K5 block is not complete")
        require(balanced(sub, bytes(1 - x for x in sub.neg)), "reported K5 is not antibalanced")
        return ANSWERED
    if code == 3:
        if not connected(g) or _core_max_degree(g, 4) > 4:
            return ANSWERED
        require("budget" in err, f"unexplained exit 3: {err.strip()}")
        return BUDGET
    require(code == 0, f"acyclic exit {code}")
    xs = set(d["switching"])
    negative = pairs(d["negation_set"])
    realized = {e for e, neg in zip(g.edges, g.neg) if neg != ((e[0] in xs) != (e[1] in xs))}
    require(realized == negative, "switching does not realize the reported set")
    require(is_forest(g.n, negative), "reported acyclic negation set contains a cycle")
    require(isinstance(d["passes"], int) and d["passes"] >= 0, "bad pass count")
    return ANSWERED


def _packing(g, args, code, d, err):
    if code == 3:
        if balanced(g):
            return ANSWERED
        require("budget" in err, f"unexplained exit 3: {err.strip()}")
        return BUDGET
    require(code == 0, f"packing exit {code}")
    sections = d["components"]
    require(
        sorted(sorted(s["vertices"]) for s in sections) == sorted(sorted(c) for c in components(g)),
        "sections are not the components",
    )
    for section in sections:
        comp = g.induced(section["vertices"])
        if section["balanced"]:
            require(balanced(comp), "component reported balanced is not")
            continue
        require(not balanced(comp), "component reported unbalanced is balanced")
        family = [pairs(member) for member in section["family"]]
        require(len(family) == section["packing_number"] >= 1, "family size differs from the packing number")
        require(family[0] == comp.negative(), "the family does not start with E-")
        require(sum(map(len, family)) == len(set().union(*family)), "family members share an edge")
        for member in family:
            require(is_negation_set(comp, member), "a family member is not a negation set")
        if section["bipartition"] is not None:
            require(section["distance"] == section["packing_number"] - 1, "distance disagrees with the number")
    return ANSWERED


def _frustration(g, args, code, d, err):
    comps = components(g)
    if code == 3:
        require(max(map(len, comps)) > 16, "exit 3 below the vertex cap")
        return ANSWERED
    require(code == 0, f"frustration exit {code}")
    values = {tuple(sorted(s["vertices"])): s["frustration_index"] for s in d["components"]}
    require(set(values) == {tuple(sorted(c)) for c in comps}, "sections are not the components")
    for comp, value in values.items():
        require(value == frustration(g, comp), f"wrong frustration index for {comp}")
    require(d["total"] == sum(values.values()), "total is not the sum")
    return ANSWERED


def _oracle_verify(g, args, code, d, err):
    rows = {row["name"]: (row["outcome"], row["detail"]) for row in d["checks"]}
    require(all(o in ("pass", "skip") for o, _ in rows.values()), "an oracle cross-check failed")
    require(code == 0, f"oracle-verify exit {code} with no failed row")
    if "negation enumeration" in rows:  # above the enumeration cap: nothing else ran
        return ANSWERED
    outcome, detail = rows["acyclic set at least frustration index"]
    if outcome == "pass":
        require(int(detail.split(">=")[1]) == frustration(g, range(g.n)), "wrong frustration in detail")
    negative_bipartite = balanced(Graph(g.n, [(u, v, NEG) for u, v in g.negative()]))
    eligible = connected(g) and not balanced(g) and bool(g.negative()) and negative_bipartite
    outcome, _ = rows["packing number agrees with brute force"]
    require((outcome == "pass") == eligible, "packing cross-check ran on the wrong inputs")
    return ANSWERED


CHECKERS = {
    "balance": _balance,
    "negation-check": _negation_check,
    "minimal": _minimal,
    "certify-minimum": _certify_minimum,
    "certify-unique": _certify_unique,
    "acyclic": _acyclic,
    "packing": _packing,
    "frustration": _frustration,
    "oracle-verify": _oracle_verify,
}


def classify(cmd: str, text: str, args, code, exc, out: str, err: str) -> tuple[str, str]:
    """(outcome, reason) of one op; ``reason`` is empty unless the op failed."""
    if exc is not None:
        return FAILED, f"uncaught {exc}"
    try:
        g = Graph.parse(text)
        report = json.loads(out) if out.strip() else None
        if code in (0, 1):
            require(report is not None and report.get("command") == cmd, "missing or foreign report")
        outcome = CHECKERS[cmd](g, args, code, report, err)
    except CheckError as e:
        return FAILED, str(e)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        return FAILED, f"malformed report: {type(e).__name__}: {e}"
    return outcome, ""
