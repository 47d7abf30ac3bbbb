"""Byte-identity of ``--json`` reports on a small golden corpus.

Each case runs ``negset.cli.main`` in-process on a committed ``.sg`` fixture
under ``tests/golden/`` and compares stdout with the committed report
``tests/golden/<case>.json``.  The reports pin every choice rule of the
algorithms (smallest violator first, lexicographically first circle, the
balance witness circle, the packing family), so a refactor that changes any
answer, or the order of the rewrites in a ``--trace`` log, fails here.

Every main-phase rewrite label of the acyclic construction appears in some
golden ``acyclic --trace`` report, and every such report replays: each
strict rewrite lowers the number of fully negative circles in the 4-core,
and the switchings end at the reported negation set.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from negset import balance, cli, negation
from negset.sgio import load_path

from conftest import assert_trace_replays

GOLDEN = Path(__file__).parent / "golden"
BALL_CUT = "@check400-ball-cut.edges"

#: case name -> (command, fixture stem, extra arguments); an argument starting
#: with ``@`` is replaced by the contents of that file in ``tests/golden``.
CASES = {
    "acyclic-torus12": ("acyclic", "torus12", ["--trace"]),
    "acyclic-corridor200-path": ("acyclic", "corridor200-path", []),
    "acyclic-corridor200-cycle": ("acyclic", "corridor200-cycle", ["--trace"]),
    "acyclic-quartic200-negative": ("acyclic", "quartic200-negative", ["--trace"]),
    "acyclic-quartic300-mixed": ("acyclic", "quartic300-mixed", ["--trace"]),
    "acyclic-quartic200-mixed": ("acyclic", "quartic200-mixed", ["--trace"]),
    "acyclic-subquartic26": ("acyclic", "subquartic26", ["--trace"]),
    "packing-scan": ("packing", "packing-scan", []),
    "packing-mixed": ("packing", "packing-mixed", []),
    "packing-disconnected": ("packing", "packing-disconnected", []),
    "packing-odd-negative": ("packing", "packing-odd-negative", []),
    "frustration-disconnected": ("frustration", "frustration-disconnected", []),
    "acyclic-core-and-peel": ("acyclic", "core-and-peel", ["--trace"]),
    "balance-late": ("balance", "check400-late", []),
    "balance-balanced": ("balance", "check400-balanced", []),
    "negation-check-ball-cut": ("negation-check", "check400-late", ["--edges", BALL_CUT]),
    "negation-check-default": ("negation-check", "check400-balanced", []),
    "minimal-ball-cut": ("minimal", "check400-balanced", ["--edges", BALL_CUT]),
    "minimal-default": ("minimal", "check400-late", []),
    "minimal-torus12": ("minimal", "torus12", []),
    "oracle-verify-packing10": ("oracle-verify", "oracle-packing10", []),
    "oracle-verify-subquartic12": ("oracle-verify", "oracle-subquartic12", []),
    "frustration-connected11": ("frustration", "frustration11", []),
    "acyclic-pair-rectangle10": ("acyclic", "pair-rectangle10", ["--trace"]),
    "acyclic-pair-collapse10": ("acyclic", "pair-collapse10", ["--trace"]),
    "acyclic-necklace-march22": ("acyclic", "necklace-march22", ["--trace"]),
    "acyclic-necklace-finale22": ("acyclic", "necklace-finale22", ["--trace"]),
    "acyclic-pair-shift8": ("acyclic", "pair-shift8", ["--trace"]),
    "acyclic-high-degree8": ("acyclic", "high-degree8", ["--trace"]),
    "acyclic-attached8": ("acyclic", "attached8", ["--trace"]),
    "acyclic-shared-junction21": ("acyclic", "shared-junction21", ["--trace"]),
    "acyclic-replacement-junction17": ("acyclic", "replacement-junction17", ["--trace"]),
    "acyclic-march-junction30": ("acyclic", "march-junction30", ["--trace"]),
    "acyclic-circle-fallback22": ("acyclic", "circle-fallback22", ["--trace"]),
    "certify-minimum-path12": ("certify-minimum", "certify12-path", []),
    "certify-minimum-star9": ("certify-minimum", "certify9-star", []),
    "certify-unique-path12": ("certify-unique", "certify12-path", []),
    "certify-unique-star9": ("certify-unique", "certify9-star", []),
}


def argv_of(case: str) -> list[str]:
    command, stem, extra = CASES[case]
    args = [
        (GOLDEN / a[1:]).read_text().strip() if a.startswith("@") else a for a in extra
    ]
    return [command, str(GOLDEN / f"{stem}.sg"), "--json", *args]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, capsys):
    cli.main(argv_of(case))
    expected = (GOLDEN / f"{case}.json").read_text()
    assert capsys.readouterr().out == expected


TRACED = sorted(
    case
    for case, (command, _, extra) in CASES.items()
    if command == "acyclic" and "--trace" in extra
)


def rewrite_labels() -> set[str]:
    """Label literals that ``negation.py`` passes to ``_Action`` or to a main-phase ``rewrite``."""
    labels = set()
    for node in ast.walk(ast.parse(Path(negation.__file__).read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_Action":
            label = node.args[0]
        elif name == "rewrite" and getattr(node.args[0], "value", None) == "main":
            label = node.args[1]
        else:
            continue
        if isinstance(label, ast.Constant):
            labels.add(label.value)
        else:  # logging an _Action's label, collected at the _Action call
            assert getattr(label, "attr", None) == "label", f"line {node.lineno}"
    return labels


def test_every_rewrite_label_has_a_golden_trace():
    traced = set()
    for case in TRACED:
        report = json.loads((GOLDEN / f"{case}.json").read_text())
        traced |= {entry["label"] for entry in report["trace"]}
    labels = rewrite_labels()
    assert {"chord", "shared-pair-shift", "episode-start"} <= labels
    assert labels - traced == set()


@pytest.mark.parametrize("case", TRACED)
def test_golden_trace_replays(case):
    report = json.loads((GOLDEN / f"{case}.json").read_text())
    g = load_path(GOLDEN / f"{CASES[case][1]}.sg")
    trace = [(entry["switched"], entry["strict"]) for entry in report["trace"]]
    assert_trace_replays(g, trace, {tuple(e) for e in report["negation_set"]})


def test_certify_minimum_decides_the_set_once_and_builds_no_edge_map(monkeypatch, capsys):
    """At most one signed BFS decides the set: none for E⁻, whose product signing is all
    positive, and one for the same set listed by ``--edges``.  The triangles are walked by
    one-edge lookups on the rows."""
    calls = []
    decide = balance._two_color

    def deciding(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(balance, "_two_color", deciding)
    golden = (GOLDEN / "certify-minimum-path12.json").read_text()
    listed = ",".join(f"{u}-{v}" for u, v in json.loads(golden)["edges"])
    for extra, bfs in (([], 0), (["--edges", listed], 1)):
        calls.clear()
        assert cli.main(argv_of("certify-minimum-path12") + extra) == 0
        assert capsys.readouterr().out == golden
        assert len(calls) == bfs
