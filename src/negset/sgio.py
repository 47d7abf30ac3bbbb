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

A text is *canonical* when it is zero or more comment lines, each ``c``
followed by no line break of :meth:`str.splitlines`, then the header
``p sg <n> <m>``, then exactly ``m`` lines ``e <u> <v> <+|->``, every line
ending in a line feed, with single spaces, decimal digits and ``u < v``.
:func:`serialize` writes canonical text, with the edges in increasing
order.  A canonical text is checked by one regular expression for its
head and one for its edge lines, split once, and handed to
:class:`~negset.graph.SignedGraph` whole.  Any other text, and any
canonical text the graph rejects, goes through the line loop, which is the
only code that names an error's line.
"""

from __future__ import annotations

import io
import operator
import re
from typing import TextIO

from .errors import SgParseError
from .graph import NEG, POS, SignedGraph

_SIGN_CHAR = {POS: "+", NEG: "-"}
_CHAR_SIGN = {"+": POS, "-": NEG}

#: The comment lines and the header of a canonical text; n and m are the groups.
_CANONICAL_HEAD = re.compile(r"(?:c[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*\n)*p sg ([0-9]+) ([0-9]+)\n")
#: The edge lines of a canonical text.
_CANONICAL_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+ [+-]\n)*")


def parse(text: str) -> SignedGraph:
    """Parse ``.sg`` text into a :class:`SignedGraph`.

    A canonical text (see the module docstring) takes one validated pass;
    any other text, or an invalid one, is read line by line.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> SignedGraph | None:
    """The graph of a canonical text, or None when the text is not canonical or not valid.

    The regular expressions leave two checks to Python: ``u < v`` over the
    endpoint lists, and the edge count.  The graph checks the rest.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None or _CANONICAL_EDGES.fullmatch(text, head.end()) is None:
        return None
    toks = text[head.end():].split()
    try:
        n, m = int(head[1]), int(head[2])
        us = list(map(int, toks[1::4]))
        vs = list(map(int, toks[2::4]))
    except ValueError:  # a number longer than int() reads
        return None
    signs = list(map(_CHAR_SIGN.__getitem__, toks[3::4]))
    del toks  # the number strings are not kept while the rows are built
    if len(us) != m or not all(map(operator.lt, us, vs)):
        return None
    try:
        return SignedGraph(n, zip(us, vs, signs))
    except ValueError:
        return None


def _parse_lines(text: str) -> SignedGraph:
    """Parse any ``.sg`` text line by line, naming the line of the first error.

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
        if n == -1:
            raise SgParseError("missing 'p sg' header")
        g = SignedGraph(n, edges)
    except ValueError:  # SgParseError too
        # a duplicate edge on an earlier line is the first error in the file
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
