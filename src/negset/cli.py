"""Command-line surface: file I/O, reports, and DOT export.

Exit codes: 0 the checked property holds (or the computation succeeded),
1 the property fails, 2 usage or parse error (or an ``--output`` file that
cannot be opened), 3 precondition or budget error, 4 an antibalanced-K₅
block stopped the acyclic construction, 5 any other exception, such as a
bug or a failed write to stdout (one line
``internal error: <type>: <message>`` on stderr, no traceback).  A stdout
closed by its reader is not a failure: the command's own code is returned.

Each op runs with the cyclic garbage collector paused.  Its data hold no
reference cycles, so reference counting frees them all, while the collector
would otherwise rescan the input graph's many small tuples over and over as
they are allocated.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii as _json_string
from typing import Sequence

from . import oracle
from .balance import check_balance, failing_flips, is_balanced, is_negation_set
from .errors import (
    MinusK5Detected,
    PreconditionError,
    SgParseError,
)
from .graph import NEG, Edge, SignedGraph, as_edge_set, edge_key
from .minimality import (
    is_minimal,
    triangle_certificate_for_complete,
    unique_minimum_by_size,
)
from .negation import acyclic_negation
from .packing import BALANCED_MESSAGE, component_packing_number, packing_number
from .sgio import load_path

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MINUS_K5 = 4
EXIT_INTERNAL = 5

_DOT_PALETTE = (
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "saddlebrown",
    "deeppink",
    "teal",
    "goldenrod",
)


class _UsageError(Exception):
    pass


class _Report:
    """Accumulates the human-readable lines and the JSON payload of one run."""

    def __init__(self, command: str):
        self.lines: list[str] = []
        self.data: dict = {"command": command}

    def say(self, text: str) -> None:
        self.lines.append(text)

    def emit(self, args) -> None:
        text = _json_text(self.data) if args.json else "\n".join(self.lines)
        if args.output:
            try:
                fp = open(args.output, "w", encoding="utf-8")
            except OSError as exc:
                raise _UsageError(str(exc)) from exc
            with fp:
                fp.write(text + "\n")
        else:
            try:
                print(text)
            except BrokenPipeError:
                # The reader closed stdout, which is no fault of the command.
                # Point the descriptor at devnull, so that the interpreter's
                # last flush of what is still buffered raises no further.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, at indent ``pad``.

    With an indent, json encodes in pure Python, one call per element.
    Here a list of plain ints is one join, a list of plain int pairs is one
    ``%`` over a repeated template, and every other container recurses.
    Strings, dict keys among them, go to json's own C string encoder, which
    raises ``TypeError`` for a key that is not a string; other scalars go to
    ``json.dumps``.  The member types are compared exactly, so bools, which
    json writes as ``true``/``false``, stay on the general path.
    """
    if isinstance(value, str):
        return _json_string(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        pairs = kinds <= {list, tuple} and set(map(len, value)) == {2}
        flat = tuple(chain.from_iterable(value)) if pairs else ()
        if kinds == {int}:
            body = sep.join(map(str, value))
        elif pairs and set(map(type, flat)) == {int}:
            deep = inner + "  "
            body = sep.join([f"[\n{deep}%d,\n{deep}%d\n{inner}]"] * len(value)) % flat
        else:
            body = sep.join([_json_text(x, inner) for x in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_json_string(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(value)


def _edges_or_negative(g: SignedGraph, args) -> frozenset[Edge]:
    """``--edges`` (``0-1,2-3``, commas or spaces between pairs) as an edge set of g.

    Defaults to E⁻ when the flag is absent; an explicit empty list is a usage
    error.  The one place where a bad pair becomes a usage error."""
    if args.edges is None:
        return g.negative_edges()
    out = []
    for chunk in args.edges.replace(",", " ").split():
        parts = chunk.split("-")
        if len(parts) != 2:
            raise _UsageError(f"bad edge {chunk!r}: expected the form u-v")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _UsageError(f"bad edge {chunk!r}: endpoints must be integers") from None
        out.append((u, v))
    if not out:
        raise _UsageError("--edges is empty")
    try:
        return as_edge_set(g, out)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# -- commands -------------------------------------------------------------------


def _cmd_balance(g: SignedGraph, args, report: _Report) -> int:
    result = check_balance(g)
    report.data["balanced"] = result.balanced
    if result.balanced:
        left = sorted(result.bipartition.left)
        right = sorted(result.bipartition.right)
        report.data["bipartition"] = {"left": left, "right": right}
        report.data["negative_circle"] = None
        report.say("balanced")
        report.say("left:  " + " ".join(map(str, left)))
        report.say("right: " + " ".join(map(str, right)))
        return EXIT_HOLDS
    report.data["bipartition"] = None
    report.data["negative_circle"] = result.negative_circle
    report.say("unbalanced")
    report.say("negative circle: " + " ".join(map(str, result.negative_circle)))
    return EXIT_FAILS


def _verdict(g: SignedGraph, args, report: _Report, question, key: str, yes: str, no: str) -> int:
    """Ask ``question(g, edges)`` of ``--edges``; report it under ``key`` and say ``yes`` or ``no``."""
    edges = _edges_or_negative(g, args)
    ok = question(g, edges)
    report.data["edges"] = sorted(edges)
    report.data[key] = ok
    report.say(yes if ok else no)
    return EXIT_HOLDS if ok else EXIT_FAILS


# Each command names its question at call time, so a rebinding of the module's name is seen.
def _cmd_negation_check(g: SignedGraph, args, report: _Report) -> int:
    return _verdict(g, args, report, is_negation_set, "negation_set", "negation set", "not a negation set")


def _cmd_minimal(g: SignedGraph, args, report: _Report) -> int:
    no = "not minimal: a proper subset is a negation set"
    return _verdict(g, args, report, is_minimal, "minimal", "minimal", no)


def _cmd_certify_minimum(g: SignedGraph, args, report: _Report) -> int:
    edges = _edges_or_negative(g, args)
    cert = triangle_certificate_for_complete(g, edges)
    report.data["edges"] = sorted(edges)
    if cert is None:
        report.data["certificate"] = None
        report.say("inconclusive: not enough spare vertices for a triangle certificate")
        return EXIT_FAILS
    report.data["certificate"] = cert
    report.say(f"minimum certified by {len(cert)} edge-disjoint negative triangles")
    for tri in cert:
        report.say("  triangle: " + " ".join(map(str, tri)))
    return EXIT_HOLDS


def _cmd_certify_unique(g: SignedGraph, args, report: _Report) -> int:
    yes = "unique minimum (size bound 2|b| <= n - 2 holds)"
    no = "inconclusive: size bound 2|b| <= n - 2 fails"
    return _verdict(g, args, report, unique_minimum_by_size, "unique_minimum", yes, no)


def _cmd_acyclic(g: SignedGraph, args, report: _Report) -> int:
    result = acyclic_negation(g, trace=args.trace)
    edges = sorted(result.negation_set)
    switching = sorted(result.switching)
    report.data["negation_set"] = edges
    report.data["switching"] = switching
    report.data["passes"] = result.stats.passes
    report.say(f"acyclic negation set with {len(edges)} edges")
    report.say("edges: " + " ".join(f"{u}-{v}" for u, v in edges))
    report.say("switching: " + " ".join(map(str, switching)))
    if args.trace:
        report.data["trace"] = [t._asdict() for t in result.stats.trace]
        report.say(f"trace ({len(result.stats.trace)} rewrites):")
        for t in result.stats.trace:
            report.say(
                f"  [{t.phase}] {t.label}: switched "
                + " ".join(map(str, t.switched))
                + (" (strict)" if t.strict else "")
            )
    return EXIT_HOLDS


def _component_views(g: SignedGraph):
    """Whether g is balanced, and ``(vertices, graph)`` per connected component.

    The vertices are sorted, components come by smallest vertex, and vertex
    i of a component's graph is ``vertices[i]``.  One :func:`is_balanced`
    call decides the whole input: every graph of a balanced input is None.
    Otherwise the only component's graph is the input itself; of several,
    each with a negative edge is copied, and its graph is that copy unless
    the copy is balanced.  The graphs are made as they are read.
    """
    comps = g.connected_components()
    if is_balanced(g):
        return True, zip(comps, repeat(None))
    if len(comps) == 1:
        return False, zip(comps, (g,))
    return False, ((comp, _unbalanced_copy(g, comp)) for comp in comps)


def _unbalanced_copy(g: SignedGraph, vertices: tuple[int, ...]) -> SignedGraph | None:
    """The component of g on ``vertices`` as its own graph, or None when it is balanced."""
    rows = g.signed_rows()
    if all(s != NEG for u in vertices for _, s in rows[u]):
        return None
    copy = g.induced(vertices)
    return None if is_balanced(copy) else copy


def _cmd_packing(g: SignedGraph, args, report: _Report) -> int:
    balanced, views = _component_views(g)
    if balanced:
        raise PreconditionError(BALANCED_MESSAGE)
    sections = []
    report.data["components"] = sections
    for vertices, graph in views:
        host = list(vertices)
        if graph is None:
            sections.append({"vertices": host, "balanced": True})
            report.say(f"component {host}: balanced, no packing number")
            continue
        result = component_packing_number(graph)
        # vertices is increasing, so a lifted edge stays normalized
        family = [sorted((vertices[u], vertices[v]) for u, v in member) for member in result.family]
        section = {
            "vertices": host,
            "balanced": False,
            "packing_number": result.packing_number,
            "family": family,
            "distance": result.distance,
            "bipartition": None,
        }
        if result.realizing_bipartition is not None:
            b1, b2 = result.realizing_bipartition
            section["bipartition"] = {
                "left": sorted(vertices[v] for v in b1),
                "right": sorted(vertices[v] for v in b2),
            }
        sections.append(section)
        report.say(f"component {host}: packing number {result.packing_number}")
        for i, member in enumerate(family):
            name = "E-" if i == 0 else f"N{i - 1}"
            report.say(
                f"  {name}: " + " ".join(f"{u}-{v}" for u, v in member)
            )
        if result.distance is not None:
            report.say(f"  realizing distance: {result.distance}")
    return EXIT_HOLDS


def _cmd_frustration(g: SignedGraph, args, report: _Report) -> int:
    sections = []
    total = 0
    for vertices, graph in _component_views(g)[1]:
        value = 0 if graph is None else oracle.frustration_index(graph)
        total += value
        sections.append({"vertices": list(vertices), "frustration_index": value})
        report.say(f"component {list(vertices)}: frustration index {value}")
    report.data["components"] = sections
    report.data["total"] = total
    report.say(f"total: {total}")
    return EXIT_HOLDS


def _oracle_checks(g: SignedGraph):
    """Yield (name, outcome, detail) rows; outcome is pass/fail/skip."""

    def row(name, ok, detail=""):
        return (name, "pass" if ok else "fail", detail)

    # Balance is switching invariant: switch every subset of vertices 1-3.
    base = is_balanced(g)
    trio = range(1, min(g.n, 4))
    invariant = all(is_balanced(g.switch(x)) == base for k in range(4) for x in combinations(trio, k))
    yield row("balance switching-invariant", invariant)

    # One column build, shared by every brute-force row below.
    try:
        columns = tuple(oracle.negative_columns(g))
    except PreconditionError as exc:
        yield ("negation enumeration", "skip", str(exc))
        return
    pairs = g.edge_pairs()
    identity = frozenset(e for e, column in zip(pairs, columns) if column & 1)
    yield row("E- enumerated as a negation set", identity == g.negative_edges())
    failing = failing_flips(g, dict(zip(pairs, columns)), oracle.all_switchings(g))
    yield row("enumeration agrees with is_negation_set", failing == 0)

    # E- and the switchings of every subset of vertices 1-3.
    sample = oracle.negation_sets(g, oracle.all_switchings(g) & 0xFF)
    ok = all(
        is_minimal(g, s) == oracle.brute_is_minimal(g, s, columns=columns)
        for s in sample
    )
    yield row("minimality agrees with brute force", ok)

    packing = "packing number agrees with brute force"
    if base:
        yield (packing, "skip", "needs an unbalanced graph")
    else:
        try:
            mine = component_packing_number(g).packing_number
            brute = oracle.brute_packing_number(g, columns=columns)
        except PreconditionError as exc:
            yield (packing, "skip", str(exc))
        else:
            if mine == brute == 1:
                # The brute force reads 1 exactly when E- holds an odd circle, which
                # every negation set meets: the row passes only on bipartite E-.
                yield (packing, "skip", "1 vs 1, E- holds an odd circle")
            else:
                yield row(packing, mine == brute, f"{mine} vs {brute}")

    if g.max_degree() <= 4 and not base:
        try:
            result = acyclic_negation(g)
        except MinusK5Detected:
            yield ("acyclic set at least frustration index", "skip", "antibalanced K5 block")
        else:
            fi = oracle.frustration_index(g, columns=columns)
            yield row(
                "acyclic set at least frustration index",
                len(result.negation_set) >= fi,
                f"{len(result.negation_set)} >= {fi}",
            )
    else:
        yield ("acyclic set at least frustration index", "skip", "needs unbalanced with max degree 4")


def _cmd_oracle_verify(g: SignedGraph, args, report: _Report) -> int:
    rows = list(_oracle_checks(g))
    report.data["checks"] = [
        {"name": name, "outcome": outcome, "detail": detail}
        for name, outcome, detail in rows
    ]
    width = max(len(name) for name, _, _ in rows)
    for name, outcome, detail in rows:
        suffix = f"  ({detail})" if detail else ""
        report.say(f"{name:<{width}}  {outcome}{suffix}")
    failed = any(outcome == "fail" for _, outcome, _ in rows)
    report.say("FAIL" if failed else "OK")
    return EXIT_FAILS if failed else EXIT_HOLDS


def export_dot(g: SignedGraph, annotations: Sequence[frozenset[Edge]] = ()) -> str:
    """DOT text: positive edges solid, negative dashed red.

    ``annotations`` is an ordered family of edge sets; every member gets its
    own color (palette cycling past eight members).
    """
    color_of: dict[Edge, str] = {}
    for i, member in enumerate(annotations):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for e in member:
            color_of[edge_key(*e)] = color
    lines = ["graph signed {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v, s in g.edges():
        attrs = ["style=solid"] if s != NEG else ["style=dashed", "color=red"]
        special = color_of.get((u, v))
        if special is not None:
            attrs = [a for a in attrs if not a.startswith("color")]
            attrs.append(f"color={special}")
            attrs.append("penwidth=2")
        lines.append(f"  {u} -- {v} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)


def _cmd_export_dot(g: SignedGraph, args, report: _Report) -> int:
    annotations: list[frozenset[Edge]] = []
    if args.packing:
        annotations = list(packing_number(g).family)
    elif args.edges is not None:
        annotations = [_edges_or_negative(g, args)]
    text = export_dot(g, annotations)
    report.data["dot"] = text
    report.say(text)
    return EXIT_HOLDS


_OPTIONS = {
    "--edges": {"help": "edge list, e.g. 0-1,2-3 (default: the negative edges)"},
    "--trace": {"action": "store_true", "help": "log every rewrite"},
    "--packing": {"action": "store_true", "help": "color the packing family, one color per member"},
}

# command -> (handler, help, its options besides path, --json and --output).
# Two options exclude each other: export-dot colours --edges or the packing family.
_COMMANDS = {
    "balance": (_cmd_balance, "decide balance; print the bipartition or a negative circle", ()),
    "negation-check": (_cmd_negation_check, "test whether --edges is a negation set", ("--edges",)),
    "minimal": (_cmd_minimal, "test whether --edges is a minimal negation set", ("--edges",)),
    "certify-minimum": (
        _cmd_certify_minimum,
        "build a disjoint-triangle minimum certificate (complete graphs)",
        ("--edges",),
    ),
    "certify-unique": (_cmd_certify_unique, "size-bound uniqueness test (complete graphs)", ("--edges",)),
    "acyclic": (_cmd_acyclic, "construct an acyclic negation set (max degree 4)", ("--trace",)),
    "packing": (_cmd_packing, "exact packing number with a witnessing family", ()),
    "frustration": (
        _cmd_frustration,
        "brute-force frustration index (per component; its columns must fit "
        f"{oracle.COLUMN_BITS >> 23} MiB)",
        (),
    ),
    "oracle-verify": (_cmd_oracle_verify, "cross-check fast paths against brute force on this input", ()),
    "export-dot": (
        _cmd_export_dot,
        "emit DOT (positive solid, negative dashed red)",
        ("--edges", "--packing"),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="negset",
        description="Balance, negation sets, minimality, acyclic construction, "
        "and packing numbers of signed graphs (.sg files).",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help=".sg input file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--output", "-o", help="write the report to a file")
        choice = p.add_mutually_exclusive_group() if len(options) > 1 else p
        for flag in options:
            choice.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the cyclic collector is paused for the op and restored after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        g = load_path(args.path)
    except (SgParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _Report(args.command)
    try:
        code = _COMMANDS[args.command][0](g, args, report)
        report.emit(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MinusK5Detected as exc:
        print(
            "antibalanced K5 block on vertices "
            + " ".join(map(str, sorted(exc.vertices))),
            file=sys.stderr,
        )
        return EXIT_MINUS_K5
    return code


if __name__ == "__main__":
    sys.exit(main())
