"""Reading and writing the plain-text ``.sg`` signed-graph format.

Format, line by line:

* optional comment lines starting with ``c`` (ignored), blank lines ignored;
* one header ``p sg <n> <m>``;
* exactly ``m`` edge lines ``e <u> <v> <+|->`` with ``0 <= u < v < n``.

Parsing is strict: loops, duplicate edges, bad signs, endpoint order
violations, and header/edge-count mismatches all raise
:class:`~negset.errors.SgParseError` carrying the offending line number.
:func:`serialize` emits edges sorted lexicographically, so
``serialize(parse(text))`` is byte-identical for canonically ordered input.
"""

from __future__ import annotations

import io
from typing import TextIO

from .errors import SgParseError
from .graph import NEG, POS, SignedGraph

_SIGN_CHAR = {POS: "+", NEG: "-"}
_CHAR_SIGN = {"+": POS, "-": NEG}


def parse(text: str) -> SignedGraph:
    """Parse ``.sg`` text into a :class:`SignedGraph`.

    Each line is checked for syntax only; building the graph checks the
    edges as a whole, and a duplicate it rejects is traced back to its line.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int, int]] = []
    lines = text.splitlines()
    try:
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "e":
                if n == -1:
                    raise SgParseError("edge line before header", line=lineno)
                if len(fields) != 4:
                    raise SgParseError("edge line must be 'e <u> <v> <+|->'", line=lineno)
                try:
                    u, v = int(fields[1]), int(fields[2])
                except ValueError:
                    raise SgParseError("edge endpoints must be integers", line=lineno) from None
                s = _CHAR_SIGN.get(fields[3])
                if s is None:
                    raise SgParseError(f"invalid sign {fields[3]!r}", line=lineno)
                if not 0 <= u < v < n:
                    raise SgParseError(
                        f"loop at vertex {u}" if u == v
                        else f"edge ({u}, {v}) violates 0 <= u < v < {n}",
                        line=lineno,
                    )
                edges.append((u, v, s))
            elif tag == "p":
                if n != -1:
                    raise SgParseError("duplicate header", line=lineno)
                if len(fields) != 4 or fields[1] != "sg":
                    raise SgParseError("header must be 'p sg <n> <m>'", line=lineno)
                try:
                    n, m = int(fields[2]), int(fields[3])
                except ValueError:
                    raise SgParseError("header counts must be integers", line=lineno) from None
                if n < 0 or m < 0:
                    raise SgParseError("header counts must be nonnegative", line=lineno)
            elif tag[0] != "c":
                raise SgParseError(f"unrecognized line type {tag!r}", line=lineno)
    except SgParseError:
        # a duplicate edge on an earlier line is the first error in the file
        _raise_duplicate(lines, edges)
        raise
    if n == -1:
        raise SgParseError("missing 'p sg' header")
    try:
        g = SignedGraph(n, edges)
    except ValueError:
        _raise_duplicate(lines, edges)
        raise
    if len(edges) != m:
        raise SgParseError(f"header promised {m} edges, found {len(edges)}")
    return g


def _raise_duplicate(lines: list[str], edges: list[tuple[int, int, int]]) -> None:
    """Raise the error for the first repeated edge in ``edges``, at its line, if any."""
    seen: set[tuple[int, int]] = set()
    for i, (u, v, _) in enumerate(edges):
        if (u, v) in seen:
            break
        seen.add((u, v))
    else:
        return
    # every edge line up to the repeat was appended, so it is the i-th one
    edge_lines = [lineno for lineno, line in enumerate(lines, start=1) if line.split()[:1] == ["e"]]
    raise SgParseError(f"duplicate edge ({u}, {v})", line=edge_lines[i])


def serialize(g: SignedGraph) -> str:
    """Canonical ``.sg`` text: header then edges sorted lexicographically."""
    out = io.StringIO()
    out.write(f"p sg {g.n} {g.edge_count}\n")
    for u, v, s in g.edges():
        out.write(f"e {u} {v} {_SIGN_CHAR[s]}\n")
    return out.getvalue()


def load(fp: TextIO) -> SignedGraph:
    return parse(fp.read())


def load_path(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fp:
        return load(fp)


def dump(g: SignedGraph, fp: TextIO) -> None:
    fp.write(serialize(g))
