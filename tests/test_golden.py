"""Byte-identity of ``--json`` reports on a small golden corpus.

Each case runs ``negset.cli.main`` in-process on a committed ``.sg`` fixture
under ``tests/golden/`` and compares stdout with the committed report
``tests/golden/<case>.json``.  The reports pin every choice rule of the
algorithms (smallest violator first, lexicographically first circle, the
balance witness circle, the packing family), so a refactor that changes any
answer, or the order of the rewrites in a ``--trace`` log, fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from negset import cli

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
    "oracle-verify-packing10": ("oracle-verify", "oracle-packing10", ["--seed", "3"]),
    "oracle-verify-subquartic12": ("oracle-verify", "oracle-subquartic12", []),
    "frustration-connected11": ("frustration", "frustration11", []),
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
