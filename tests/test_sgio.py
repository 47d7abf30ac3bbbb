""".sg format: parse/serialize round trips and diagnostics with line numbers."""

from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import NEG, POS, SgParseError, SignedGraph, dump, load, load_path, parse, serialize
from negset.sgio import _parse_canonical, _parse_lines

from conftest import connected_signed_graphs
from corpus import cycle_graph


SAMPLE = """\
c a triangle with one negative edge
p sg 3 3
e 0 1 +
e 1 2 -
e 0 2 +
"""


class TestParse:
    def test_sample(self):
        g = parse(SAMPLE)
        assert g.n == 3
        assert g.negative_edges() == frozenset({(1, 2)})

    def test_blank_lines_and_comments_are_skipped(self):
        g = parse("c heading\n\np sg 2 1\nc mid\ne 0 1 -\n\n")
        assert g.edge_count == 1

    def test_edgeless_graph(self):
        assert parse("p sg 4 0\n").n == 4

    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            ("e 0 1 +\n", "before header", 1),
            ("p sg 3 1\np sg 3 1\n", "duplicate header", 2),
            ("p sg x 1\n", "integers", 1),
            ("p sg 3 -1\n", "nonnegative", 1),
            ("p graph 3 1\n", "p sg", 1),
            ("p sg 3 1\ne 0 1\n", "edge line", 2),
            ("p sg 3 1\ne 0 one +\n", "integers", 2),
            ("p sg 3 1\ne 0 1 ?\n", "sign", 2),
            ("p sg 3 1\ne 1 1 +\n", "loop", 2),
            ("p sg 3 1\ne 1 0 +\n", "0 <= u < v", 2),
            ("p sg 3 1\ne 0 9 +\n", "0 <= u < v", 2),
            ("p sg 3 2\ne 0 1 +\ne 0 1 -\n", "duplicate edge", 3),
            ("p sg 3 1\nq 0 1 +\n", "unrecognized", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(SgParseError, match=fragment) as exc:
            parse(text)
        assert exc.value.line == line

    def test_missing_header(self):
        with pytest.raises(SgParseError, match="missing"):
            parse("c nothing else\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(SgParseError, match="promised"):
            parse("p sg 3 2\ne 0 1 +\n")


class TestRoundTrip:
    @given(connected_signed_graphs(max_n=8))
    def test_parse_serialize_identity(self, g):
        assert parse(serialize(g)) == g

    @given(connected_signed_graphs(max_n=8))
    def test_serialize_is_canonical(self, g):
        text = serialize(g)
        assert serialize(parse(text)) == text

    def test_streams_and_paths(self, tmp_path):
        g = cycle_graph(5, NEG)
        buf = io.StringIO()
        dump(g, buf)
        assert load(io.StringIO(buf.getvalue())) == g
        p = tmp_path / "c5.sg"
        p.write_text(serialize(g))
        assert load_path(p) == g

    def test_serialized_header_matches_counts(self):
        g = SignedGraph(4, [(0, 3, POS), (1, 2, NEG)])
        lines = serialize(g).splitlines()
        assert lines[0] == "p sg 4 2"
        assert len([l for l in lines if l.startswith("e ")]) == 2


@st.composite
def signed_graphs(draw, max_n: int = 30):
    """Any simple signed graph on at most ``max_n`` vertices, connected or not."""
    n = draw(st.integers(0, max_n))
    ends = st.integers(0, max(n - 1, 0))
    pairs = {(min(u, v), max(u, v)) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=60)) if u != v}
    signs = draw(st.lists(st.sampled_from([POS, NEG]), min_size=len(pairs), max_size=len(pairs)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(sorted(pairs), signs)])


def outcome(read, text):
    """The graph and its rows that ``read`` makes of ``text``, or its error's message and line."""
    try:
        g = read(text)
    except SgParseError as exc:
        return str(exc), exc.line
    return g, g.signed_rows()


def relayout(text: str, layout: str) -> str:
    """The same .sg content with comments between the lines, tabs or CRLF line ends."""
    lines = text.splitlines()
    if layout == "comments":
        return "".join(f"{line}\nc after line {i}\n" for i, line in enumerate(lines, 1))
    if layout == "tabs":
        return "".join(line.replace(" ", "\t") + "\n" for line in lines)
    return "".join(line + "\r\n" for line in lines)


class TestCanonicalPath:
    """The one-pass reader of canonical text against the line loop."""

    @given(signed_graphs(), st.sampled_from(["comments", "tabs", "crlf"]))
    def test_every_layout_reads_as_the_same_graph(self, g, layout):
        canonical = serialize(g)
        other = relayout(canonical, layout)
        assert _parse_canonical(canonical) == g
        assert _parse_canonical(other) is None
        for text in (canonical, "c a comment\n" + canonical, other):
            h = parse(text)
            assert h == g and h.signed_rows() == g.signed_rows()

    MUTATIONS = (
        "swap endpoints",
        "duplicate line",
        "vertex out of range",
        "bad sign",
        "missing line",
        "extra line",
        "no final newline",
        "line separator in a comment",
    )

    @given(signed_graphs().filter(lambda g: g.edge_count > 0), st.sampled_from(MUTATIONS), st.data())
    def test_mutated_texts_read_as_the_line_loop_reads_them(self, g, mutation, data):
        lines = serialize(g).splitlines(keepends=True)
        i = data.draw(st.integers(1, len(lines) - 1), label="edge line")
        _, u, v, sign = lines[i].split()
        if mutation == "swap endpoints":
            lines[i] = f"e {v} {u} {sign}\n"
        elif mutation == "duplicate line":
            lines.insert(i, lines[i])
        elif mutation == "vertex out of range":
            lines[i] = f"e {u} {g.n} {sign}\n"
        elif mutation == "bad sign":
            lines[i] = f"e {u} {v} *\n"
        elif mutation == "missing line":
            del lines[i]
        elif mutation == "extra line":
            lines.append(lines[i])
        elif mutation == "no final newline":
            lines[-1] = lines[-1].rstrip("\n")
        else:
            lines.insert(0, "c one\u2028two\n")
        text = "".join(lines)
        fast = _parse_canonical(text)
        if fast is not None:
            assert fast == _parse_lines(text)
        assert outcome(parse, text) == outcome(_parse_lines, text)
        if mutation != "no final newline":
            with pytest.raises(SgParseError):
                parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "p sg 3 1\ne 0 1 +\n" + "c late\n",
            "p sg 3 1\ne 0 1 +\np sg 3 1\n",
            "p sg 3 1\ne  0 1 +\n",
            "p sg 3 1\ne 0 1 +",
            "p sg 3 1\ne 0 1 + \n",
            "c x\x0bp sg 3 0\np sg 3 1\ne 0 1 +\n",
            "p sg 3 1\ne 0 \u0661 +\n",
            " p sg 3 1\ne 0 1 +\n",
            "p sg 3 1\ne 0 " + "9" * 5000 + " +\n",
        ],
    )
    def test_texts_outside_the_canonical_form_take_the_line_loop(self, text):
        assert _parse_canonical(text) is None
        assert outcome(parse, text) == outcome(_parse_lines, text)
