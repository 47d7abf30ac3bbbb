"""Command line interface: exit codes, JSON reports, DOT export."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negset import (
    NEG,
    POS,
    IterationBudgetError,
    PreconditionError,
    SignedGraph,
    balance,
    cli,
    is_negation_set,
    load_path,
    negation,
    oracle,
    packing,
    serialize,
)
from negset.cli import (
    EXIT_FAILS,
    EXIT_HOLDS,
    EXIT_INTERNAL,
    EXIT_MINUS_K5,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    export_dot,
    main,
)

import corpus
from corpus import complete_graph, cycle_graph

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def write_sg(tmp_path):
    def _write(g: SignedGraph, name: str = "input.sg") -> str:
        p = tmp_path / name
        p.write_text(serialize(g))
        return str(p)

    return _write


@pytest.fixture
def c5_one_negative(write_sg):
    return write_sg(cycle_graph(5).negate_edges([(0, 1)]))


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def builds(monkeypatch):
    """A list that grows by one per ``SignedGraph.__init__`` call."""
    calls = []
    init = SignedGraph.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SignedGraph, "__init__", counted)
    return calls


class TestBalanceCommand:
    def test_balanced_graph(self, capsys, write_sg):
        path = write_sg(cycle_graph(4).negate_edges([(0, 1), (1, 2)]))
        code, report = run_json(capsys, ["balance", path, "--json"])
        assert code == EXIT_HOLDS
        assert report["balanced"] is True
        assert report["negative_circle"] is None
        sides = report["bipartition"]
        assert sorted(sides["left"] + sides["right"]) == [0, 1, 2, 3]

    def test_unbalanced_graph_exits_one_with_a_circle(self, capsys, c5_one_negative):
        code, report = run_json(capsys, ["balance", c5_one_negative, "--json"])
        assert code == EXIT_FAILS
        assert report["balanced"] is False
        assert len(report["negative_circle"]) == 5

    def test_plain_text_output(self, capsys, c5_one_negative):
        assert main(["balance", c5_one_negative]) == EXIT_FAILS
        out = capsys.readouterr().out
        assert "unbalanced" in out


class TestMembershipCommands:
    def test_negation_check_accepts(self, c5_one_negative):
        assert main(["negation-check", c5_one_negative, "--edges", "2-3"]) == EXIT_HOLDS

    def test_negation_check_rejects(self, c5_one_negative):
        assert main(["negation-check", c5_one_negative, "--edges", "0-1,1-2"]) == EXIT_FAILS

    def test_minimal(self, c5_one_negative):
        assert main(["minimal", c5_one_negative, "--edges", "0-1"]) == EXIT_HOLDS

    def test_minimal_defaults_to_negative_edges(self, capsys, write_sg):
        path = write_sg(cycle_graph(5, NEG))
        assert main(["minimal", path]) == EXIT_FAILS
        assert "not minimal" in capsys.readouterr().out

    def test_repeated_edge_is_listed_once(self, capsys, c5_one_negative):
        argv = ["negation-check", c5_one_negative, "--edges", "2-3,3-2", "--json"]
        code, report = run_json(capsys, argv)
        assert code == EXIT_HOLDS
        assert report["edges"] == [[2, 3]]

    def test_edge_argument_naming_a_non_edge_is_usage_error(self, c5_one_negative):
        assert main(["negation-check", c5_one_negative, "--edges", "0-2"]) == EXIT_USAGE

    def test_malformed_edge_list_is_usage_error(self, c5_one_negative):
        assert main(["negation-check", c5_one_negative, "--edges", "zap"]) == EXIT_USAGE

    @pytest.mark.parametrize("spec", [",", "0-x"], ids=["empty", "non-integer"])
    def test_empty_or_non_integer_edge_list_is_usage_error(self, c5_one_negative, spec):
        assert main(["negation-check", c5_one_negative, "--edges", spec]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["negation-check", "minimal", "export-dot"])
    def test_explicit_empty_edge_list_does_not_mean_the_negative_edges(
        self, capsys, c5_one_negative, command
    ):
        assert main([command, c5_one_negative, "--edges", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --edges is empty\n"


class TestCertificateCommands:
    def test_certify_minimum_on_a_complete_graph(self, capsys, write_sg):
        path = write_sg(complete_graph(6).negate_edges([(0, 1), (2, 3)]))
        code, report = run_json(
            capsys, ["certify-minimum", path, "--edges", "0-1,2-3", "--json"]
        )
        assert code == EXIT_HOLDS
        assert len(report["certificate"]) == 2

    def test_certify_minimum_inconclusive(self, write_sg):
        g = complete_graph(5).negate_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
        assert main(["certify-minimum", write_sg(g)]) == EXIT_FAILS  # defaults to E-

    def test_certify_minimum_needs_a_complete_graph(self, c5_one_negative):
        assert main(["certify-minimum", c5_one_negative]) == EXIT_PRECONDITION

    def test_certify_unique(self, write_sg):
        path = write_sg(complete_graph(6).negate_edges([(0, 1), (2, 3)]))
        assert main(["certify-unique", path]) == EXIT_HOLDS
        path7 = write_sg(complete_graph(7).negate_edges([(0, 1), (2, 3), (4, 5)]))
        assert main(["certify-unique", path7]) == EXIT_FAILS


class TestAcyclicCommand:
    def test_reports_forest_and_switching(self, capsys, c5_one_negative):
        code, report = run_json(capsys, ["acyclic", c5_one_negative, "--json"])
        assert code == EXIT_HOLDS
        assert report["negation_set"] == [[0, 1]]
        assert report["switching"] == []

    def test_trace_entries_in_json(self, capsys, write_sg):
        g = SignedGraph(8, [
            (0, 1, NEG), (1, 2, NEG), (2, 3, NEG), (0, 3, NEG), (4, 5, NEG), (6, 7, NEG),
            (0, 4, POS), (0, 5, POS), (1, 4, POS), (1, 5, POS),
            (2, 6, POS), (2, 7, POS), (3, 6, POS), (3, 7, POS),
            (4, 6, POS), (5, 7, POS),
        ])
        code, report = run_json(capsys, ["acyclic", write_sg(g), "--trace", "--json"])
        assert code == EXIT_HOLDS
        assert report["trace"]
        assert {"phase", "label", "switched"} <= set(report["trace"][0])

    def test_all_negative_k5_exit_code(self, capsys, write_sg):
        path = write_sg(complete_graph(5, NEG))
        assert main(["acyclic", path]) == EXIT_MINUS_K5
        assert "K5" in capsys.readouterr().err

    def test_degree_five_core_is_a_precondition_error(self, write_sg):
        assert main(["acyclic", write_sg(complete_graph(6))]) == EXIT_PRECONDITION

    def test_builds_only_the_parsed_graph(self, capsys, builds):
        # the 4-core and its components are read off the parsed graph
        assert main(["acyclic", str(GOLDEN / "core-and-peel.sg"), "--trace"]) == EXIT_HOLDS
        assert len(builds) == 1


class TestPackingCommand:
    def test_single_component_report(self, capsys, c5_one_negative):
        code, report = run_json(capsys, ["packing", c5_one_negative, "--json"])
        assert code == EXIT_HOLDS
        (comp,) = report["components"]
        assert comp["packing_number"] == 5
        assert comp["distance"] == 4
        assert len(comp["family"]) == 5

    def test_component_sections_for_disconnected_input(self, capsys, write_sg):
        g = SignedGraph(8, [
            (0, 1, NEG), (1, 2, POS), (0, 2, POS),
            (3, 4, NEG), (4, 5, POS), (5, 6, POS), (6, 7, POS), (3, 7, POS),
        ])
        code, report = run_json(capsys, ["packing", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        assert len(report["components"]) == 2
        by_vertices = {tuple(c["vertices"]): c for c in report["components"]}
        assert by_vertices[(0, 1, 2)]["packing_number"] == 3
        assert by_vertices[(3, 4, 5, 6, 7)]["packing_number"] == 5
        # family members are lifted back to host vertex ids
        host_edges = {
            tuple(e) for c in report["components"] for mem in c["family"] for e in mem
        }
        assert (3, 4) in host_edges

    def test_mixed_bipartition_instance_reports_null_witness(self, capsys, write_sg):
        g = SignedGraph(6, [
            (0, 1, NEG), (1, 2, POS), (2, 3, NEG),
            (3, 4, POS), (4, 5, POS), (0, 5, NEG),
        ])
        code, report = run_json(capsys, ["packing", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        (comp,) = report["components"]
        assert comp["packing_number"] == 4
        assert comp["bipartition"] is None
        assert comp["distance"] is None

    def test_balanced_input_is_a_precondition_error(self, write_sg):
        path = write_sg(cycle_graph(4).negate_edges([(0, 1), (1, 2)]))
        assert main(["packing", path]) == EXIT_PRECONDITION

    def test_exact_search_past_its_step_budget_exits_three(self, capsys):
        # 12 search bits, a cut table inside its budget, but the branch and bound needs
        # more than 2^22 candidate checks; bounded by the table alone it answers 6 after ~10 s
        code = main(["packing", str(GOLDEN / "packing-search20.sg"), "--json"])
        out, err = capsys.readouterr()
        assert code == EXIT_PRECONDITION and out == ""
        assert "exact packing search needs" in err and "budget" in err


class TestFrustrationCommand:
    def test_totals_components(self, capsys, write_sg):
        g = SignedGraph(6, [
            (0, 1, NEG), (1, 2, NEG), (0, 2, NEG),
            (3, 4, NEG), (4, 5, NEG), (3, 5, NEG),
        ])
        code, report = run_json(capsys, ["frustration", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        assert report["total"] == 2
        assert [c["frustration_index"] for c in report["components"]] == [1, 1]

    def test_cap_applies(self, capsys, write_sg):
        # the oracle's column budget is frustration's one gate: on a cycle it
        # admits 24 vertices, 24 columns of 2^23 bits, and no more
        path = write_sg(cycle_graph(25).negate_edges([(0, 1)]))
        assert main(["frustration", path]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "graph's 25 columns of 2^24 bits exceed the enumeration budget of 32 MiB" in err

    def test_column_budget_applies_under_a_raised_cap(self, capsys, write_sg):
        # the column budget raised the old 16-vertex cap to 24 vertices on a
        # cycle, and still refuses C_26, which an explicit cap of 26 once let in
        path = write_sg(cycle_graph(26).negate_edges([(0, 1)]))
        assert main(["frustration", path]) == EXIT_PRECONDITION
        assert "budget of 32 MiB" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(17, 25))
    def test_cycles_above_sixteen_vertices_have_the_closed_form(self, capsys, write_sg, n):
        # C_n with k negative edges has frustration index k mod 2
        k = n - 16
        path = write_sg(cycle_graph(n).negate_edges([(i, i + 1) for i in range(0, 2 * k, 2)]))
        code, report = run_json(capsys, ["frustration", path, "--json"])
        assert code == EXIT_HOLDS
        assert report["total"] == k % 2

    @pytest.mark.parametrize("switched", [(), (0, 3, 4, 11)], ids=["positive", "switched"])
    def test_balanced_connected_input_is_zero_above_the_cap(
        self, capsys, monkeypatch, write_sg, switched
    ):
        calls = []
        monkeypatch.setattr(oracle, "frustration_index", lambda *a, **k: calls.append(a))
        path = write_sg(SignedGraph(20, [(i, i + 1, POS) for i in range(19)]).switch(switched))
        code, report = run_json(capsys, ["frustration", path, "--json"])
        assert code == EXIT_HOLDS
        assert report["components"] == [{"vertices": list(range(20)), "frustration_index": 0}]
        assert report["total"] == 0
        assert calls == []

    def test_all_positive_component_is_zero_above_the_cap(self, capsys, write_sg):
        # a 20-vertex positive path beside a negative triangle: the path has
        # no negative edge, so it never reaches the oracle
        edges = [(i, i + 1, POS) for i in range(19)]
        edges += [(20, 21, NEG), (21, 22, NEG), (20, 22, NEG)]
        code, report = run_json(capsys, ["frustration", write_sg(SignedGraph(23, edges)), "--json"])
        assert code == EXIT_HOLDS
        assert [c["frustration_index"] for c in report["components"]] == [0, 1]
        assert report["total"] == 1


class TestComponentCopies:
    """The per-component commands copy only the unbalanced components of an unbalanced input."""

    TRIANGLE = [0, 1, 2]

    @pytest.fixture
    def triangle_and_isolated(self, write_sg):
        return write_sg(SignedGraph(2003, [(0, 1, NEG), (1, 2, POS), (0, 2, POS)]))

    def test_packing(self, capsys, builds, triangle_and_isolated):
        builds.clear()
        code, report = run_json(capsys, ["packing", triangle_and_isolated, "--json"])
        assert code == EXIT_HOLDS
        assert len(builds) == 2  # the parse and the triangle's copy
        triangle = {
            "vertices": self.TRIANGLE,
            "balanced": False,
            "packing_number": 3,
            "family": [[[0, 1]], [[0, 2]], [[1, 2]]],
            "distance": 2,
            "bipartition": {"left": [0], "right": [1]},
        }
        isolated = [{"vertices": [v], "balanced": True} for v in range(3, 2003)]
        assert report["components"] == [triangle, *isolated]

    def test_frustration(self, capsys, builds, triangle_and_isolated):
        builds.clear()
        code, report = run_json(capsys, ["frustration", triangle_and_isolated, "--json"])
        assert code == EXIT_HOLDS
        assert len(builds) == 2
        isolated = [{"vertices": [v], "frustration_index": 0} for v in range(3, 2003)]
        assert report["components"] == [
            {"vertices": self.TRIANGLE, "frustration_index": 1}, *isolated
        ]
        assert report["total"] == 1

    @pytest.fixture
    def ten_balanced(self, write_sg):
        """Ten disjoint balanced 23-vertex components, each with negative edges."""
        rng = random.Random(23)
        edges = []
        for c in range(10):
            base = 23 * c
            side = [v % 2 for v in range(23)]  # both sides used: a negative tree edge
            pairs = {(v - 1, v) for v in range(1, 23)}
            pairs |= {tuple(sorted(rng.sample(range(23), 2))) for _ in range(20)}
            edges += [
                (base + u, base + v, NEG if side[u] != side[v] else POS) for u, v in sorted(pairs)
            ]
        return write_sg(SignedGraph(230, edges))

    def test_balanced_input_packing_builds_only_the_parse(self, capsys, builds, ten_balanced):
        builds.clear()
        assert main(["packing", ten_balanced, "--json"]) == EXIT_PRECONDITION
        assert len(builds) == 1
        assert capsys.readouterr() == ("", f"error: {packing.BALANCED_MESSAGE}\n")

    def test_balanced_input_frustration_builds_only_the_parse(self, capsys, builds, ten_balanced):
        builds.clear()
        code, report = run_json(capsys, ["frustration", ten_balanced, "--json"])
        assert code == EXIT_HOLDS
        assert len(builds) == 1
        assert report == {
            "command": "frustration",
            "components": [
                {"vertices": list(range(23 * c, 23 * c + 23)), "frustration_index": 0}
                for c in range(10)
            ],
            "total": 0,
        }

    @pytest.mark.parametrize("command", ["packing", "frustration"])
    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(6),
            cycle_graph(6).switch([1, 2]),
            cycle_graph(5).negate_edges([(0, 1)]),
            complete_graph(5).negate_edges([(0, 1), (2, 3)]),
        ],
        ids=["positive", "switched", "odd-negative", "K5"],
    )
    def test_connected_input_takes_one_balance_check(self, monkeypatch, write_sg, command, g):
        calls = []
        check = cli.is_balanced
        monkeypatch.setattr(cli, "is_balanced", lambda h: calls.append(h) or check(h))
        main([command, write_sg(g)])
        assert len(calls) == 1

    def test_header_only_packing_peaks_within_twice_balance(self, capsys, tmp_path):
        # every vertex is its own balanced component: packing must exit before
        # it builds one report section per vertex
        path = tmp_path / "header.sg"
        path.write_text("p sg 50000 0\n")
        peaks = {}
        for command in ("balance", "packing"):
            tracemalloc.start()
            try:
                code = main([command, str(path), "--json"])
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == (EXIT_HOLDS if command == "balance" else EXIT_PRECONDITION)
        capsys.readouterr()
        assert peaks["packing"] <= 2 * peaks["balance"], peaks


class TestOracleVerifyCommand:
    def test_passes_on_a_small_graph(self, capsys, c5_one_negative, write_sg):
        assert main(["oracle-verify", c5_one_negative]) == EXIT_HOLDS
        out = capsys.readouterr().out
        assert "OK" in out
        assert "fail" not in out
        # a balanced C5: the packing and acyclic rows need an unbalanced graph
        balanced = write_sg(cycle_graph(5).negate_edges([(0, 1), (1, 2)]), "balanced.sg")
        code, report = run_json(capsys, ["oracle-verify", balanced, "--json"])
        assert code == EXIT_HOLDS
        rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
        assert rows.pop("packing number agrees with brute force") == ("skip", "needs an unbalanced graph")
        assert rows.pop("acyclic set at least frustration index") == (
            "skip", "needs unbalanced with max degree 4"
        )
        assert [outcome for outcome, _ in rows.values()] == ["pass"] * 4

    def test_large_graphs_skip_enumeration_checks(self, capsys, write_sg):
        path = write_sg(corpus.path_graph(40).negate_edges([(0, 1)]))
        assert main(["oracle-verify", path]) == EXIT_HOLDS
        rows = capsys.readouterr().out.splitlines()
        assert (
            "negation enumeration         skip  "
            "(graph's 39 columns of 2^39 bits exceed the enumeration budget of 32 MiB)"
        ) in rows

    def test_column_budget_skips_enumeration_checks(self, capsys, write_sg):
        path = write_sg(cycle_graph(26).negate_edges([(0, 1)]))
        code, report = run_json(capsys, ["oracle-verify", path, "--json"])
        assert code == EXIT_HOLDS
        assert report["checks"] == [
            {"name": "balance switching-invariant", "outcome": "pass", "detail": ""},
            {
                "name": "negation enumeration",
                "outcome": "skip",
                "detail": "graph's 26 columns of 2^25 bits exceed the enumeration budget of 32 MiB",
            },
        ]

    def test_every_row_runs_above_sixteen_vertices(self, capsys, write_sg):
        # a signing of C_20(1, 5): 40 columns of 2^19 bits, inside the column budget
        rng = random.Random(20)
        pairs = sorted({tuple(sorted((i, (i + d) % 20))) for i in range(20) for d in (1, 5)})
        g = SignedGraph(20, [(u, v, NEG if rng.random() < 0.3 else POS) for u, v in pairs])
        code, report = run_json(capsys, ["oracle-verify", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        assert [c["outcome"] for c in report["checks"]] == ["pass"] * 6

    def test_packing_row_skips_past_the_step_budget(self, capsys, write_sg):
        # C_14 with one negative edge: 2^12 candidates, and a branch and bound
        # that grows about 8x per vertex, to some 2^33 checks unbounded
        path = write_sg(cycle_graph(14).negate_edges([(0, 1)]))
        start = time.perf_counter()
        code, report = run_json(capsys, ["oracle-verify", path, "--json"])
        assert time.perf_counter() - start < 10
        assert code == EXIT_HOLDS
        rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
        assert rows.pop("packing number agrees with brute force") == (
            "skip",
            f"brute-force packing search passed its budget of {oracle.PACKING_STEPS} checks",
        )
        assert [outcome for outcome, _ in rows.values()] == ["pass"] * 5

    def test_packing_row_skips_past_the_exact_search_budget(self, capsys):
        # packing's own exact search runs out of candidate checks on this
        # input (as `negset packing` does, exit 3): the row reads skip
        start = time.perf_counter()
        code, report = run_json(capsys, ["oracle-verify", str(GOLDEN / "packing-search20.sg"), "--json"])
        assert time.perf_counter() - start < 10
        assert code == EXIT_HOLDS
        rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
        assert rows.pop("packing number agrees with brute force") == (
            "skip",
            f"exact packing search needs more candidate checks than its budget of "
            f"{oracle.PACKING_STEPS}; the scan lower bound is 5",
        )
        assert [outcome for outcome, _ in rows.values()] == ["pass"] * 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["frustration", "--max-n", "5"],
            ["oracle-verify", "--max-n", "5"],
            ["oracle-verify", "--seed", "3"],
        ],
        ids=["frustration-max-n", "oracle-verify-max-n", "oracle-verify-seed"],
    )
    def test_size_and_seed_flags_are_usage_errors(self, capsys, c5_one_negative, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], c5_one_negative, *argv[1:]])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_report(self, capsys, c5_one_negative):
        code, report = run_json(capsys, ["oracle-verify", c5_one_negative, "--json"])
        assert code == EXIT_HOLDS
        assert all(c["outcome"] in {"pass", "skip"} for c in report["checks"])

    @pytest.mark.parametrize(
        "text", ["p sg 4 2\ne 0 1 -\ne 2 3 +\n", "p sg 3 0\n"], ids=["two-edges", "edgeless"]
    )
    def test_disconnected_graphs_skip_enumeration_checks(self, capsys, tmp_path, text):
        path = tmp_path / "input.sg"
        path.write_text(text)
        code, report = run_json(capsys, ["oracle-verify", str(path), "--json"])
        assert code == EXIT_HOLDS
        assert report["checks"] == [
            {"name": "balance switching-invariant", "outcome": "pass", "detail": ""},
            {
                "name": "negation enumeration",
                "outcome": "skip",
                "detail": "switching enumeration requires a connected graph",
            },
        ]

    def test_minus_k5_skips_the_packing_and_acyclic_rows(self, capsys, write_sg):
        # E- of a switched -K5 holds a triangle, which every negation set meets,
        # so both packing numbers read 1; -K5 has no acyclic negation set
        g = complete_graph(5, NEG).switch({0, 2})
        code, report = run_json(capsys, ["oracle-verify", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
        assert rows["packing number agrees with brute force"] == ("skip", "1 vs 1, E- holds an odd circle")
        assert rows["acyclic set at least frustration index"] == ("skip", "antibalanced K5 block")
        assert [c["outcome"] for c in report["checks"]].count("pass") == 4

    def test_packing_row_fails_when_the_fast_path_misses_an_odd_circle(self, capsys, monkeypatch, write_sg):
        g = complete_graph(5, NEG).switch({0, 2})
        wrong = packing.PackingResult(2, (g.negative_edges(), frozenset()), None, None)
        monkeypatch.setattr(cli, "component_packing_number", lambda graph: wrong)
        code, report = run_json(capsys, ["oracle-verify", write_sg(g), "--json"])
        assert code == EXIT_FAILS
        rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
        assert rows["packing number agrees with brute force"] == ("fail", "2 vs 1")

    def test_small_golden_inputs_pass_or_skip_every_row(self, capsys):
        small = [path for path in sorted(GOLDEN.glob("*.sg")) if load_path(str(path)).n <= 16]
        assert len(small) == 13
        for path in small:
            code, report = run_json(capsys, ["oracle-verify", str(path), "--json"])
            rows = {c["name"]: (c["outcome"], c["detail"]) for c in report["checks"]}
            assert code == EXIT_HOLDS, path.name
            assert {outcome for outcome, _ in rows.values()} <= {"pass", "skip"}, (path.name, rows)
            if path.name == "packing-odd-negative.sg":
                assert rows["packing number agrees with brute force"] == (
                    "skip", "1 vs 1, E- holds an odd circle"
                )

    def test_enumerates_once_per_op(self, capsys, monkeypatch, write_sg):
        # Connected, unbalanced, bipartite E- and max degree 4: every row runs.
        g = corpus.random_subquartic_graph(random.Random(29), n_max=10)
        assert g.n == 10
        # _two_color is bound in every module that imports it.
        holders = {
            "negative_columns": [oracle],
            "enumerate_negation_sets": [oracle],
            "_two_color": [balance, packing],
        }
        calls = dict.fromkeys(holders, 0)
        for name, modules in holders.items():
            for module in modules:
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        code, report = run_json(capsys, ["oracle-verify", write_sg(g), "--json"])
        assert code == EXIT_HOLDS
        assert [c["outcome"] for c in report["checks"]] == ["pass"] * 6
        # The 512 switchings take one BFS between them, not one each.
        two_color = calls.pop("_two_color")
        assert two_color <= 32, f"{two_color} signed BFS runs"
        assert calls == {"negative_columns": 1, "enumerate_negation_sets": 0}

    def test_agreement_row_fails_on_a_non_negation_set(self, capsys, monkeypatch):
        # Toggle the first edge, which lies on a circle, in the last switching's
        # set: the highest bit of the one BFS's mask.
        path = str(GOLDEN / "oracle-subquartic12.sg")
        g = load_path(path)
        columns = list(oracle.negative_columns(g))
        top = 1 << ((1 << (g.n - 1)) - 1)
        columns[0] ^= top
        bad = frozenset(e for e, column in zip(g.edge_pairs(), columns) if column & top)
        assert not is_negation_set(g, bad)
        monkeypatch.setattr(oracle, "negative_columns", lambda *a, **k: iter(columns))
        code, report = run_json(capsys, ["oracle-verify", path, "--json"])
        assert code == EXIT_FAILS
        rows = {c["name"]: c["outcome"] for c in report["checks"]}
        assert rows["enumeration agrees with is_negation_set"] == "fail"


class TestParserReuse:
    def test_parser_is_built_once_and_keeps_no_options(self, tmp_path):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        path = str(tmp_path / "input.sg")
        assert parser.parse_args(["acyclic", path, "--trace"]).trace is True
        assert parser.parse_args(["acyclic", path]).trace is False
        assert parser.parse_args(["minimal", path, "--edges", "0-1"]).edges == "0-1"
        assert parser.parse_args(["minimal", path]).edges is None

    @pytest.mark.parametrize(
        "first, second",
        [
            (["minimal", "--edges", "1-2"], ["minimal"]),
            (["export-dot", "--packing"], ["export-dot"]),
            (["acyclic", "--trace"], ["acyclic"]),
        ],
        ids=["minimal-edges", "export-dot-packing", "acyclic-trace"],
    )
    def test_a_second_call_inherits_nothing(self, capsys, c5_one_negative, first, second):
        def isolated(argv):
            cli._build_parser.cache_clear()
            code = main(argv)
            return code, capsys.readouterr()

        argv_first = [first[0], c5_one_negative, "--json", *first[1:]]
        argv_second = [second[0], c5_one_negative, "--json", *second[1:]]
        expected = [isolated(argv_first), isolated(argv_second)]
        cli._build_parser.cache_clear()
        got = []
        for argv in (argv_first, argv_second):
            got.append((main(argv), capsys.readouterr()))
        assert got == expected


class TestExportDot:
    def test_sign_styles(self, capsys, c5_one_negative):
        assert main(["export-dot", c5_one_negative]) == EXIT_HOLDS
        out = capsys.readouterr().out
        assert "0 -- 1 [style=dashed, color=red]" in out
        assert "1 -- 2 [style=solid]" in out

    def test_packing_families_get_distinct_colors(self, capsys, c5_one_negative):
        assert main(["export-dot", c5_one_negative, "--packing"]) == EXIT_HOLDS
        out = capsys.readouterr().out
        colors = {
            part.split("color=")[1].split("]")[0].split(",")[0]
            for part in out.splitlines()
            if "color=" in part
        }
        assert len(colors) == 5

    def test_packing_on_disconnected_input_is_a_precondition_error(self, capsys, write_sg):
        path = write_sg(SignedGraph(4, [(0, 1, NEG), (2, 3, NEG)]))
        assert main(["export-dot", path, "--packing"]) == EXIT_PRECONDITION
        message = "packing numbers are defined for connected graphs"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_edge_highlight(self, capsys, c5_one_negative):
        assert main(["export-dot", c5_one_negative, "--edges", "2-3"]) == EXIT_HOLDS
        out = capsys.readouterr().out
        assert "2 -- 3 [style=solid, color=blue, penwidth=2]" in out

    def test_edge_highlight_of_a_non_edge_is_a_usage_error(self, capsys, c5_one_negative):
        assert main(["export-dot", c5_one_negative, "--edges", "0-9"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: (0, 9) is not an edge of the host graph\n"

    def test_edges_with_packing_is_a_usage_error(self, capsys, c5_one_negative):
        # Either flag picks what is coloured; together one would be ignored.
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", c5_one_negative, "--packing", "--edges", "9-9"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --edges: not allowed with argument --packing" in captured.err

    def test_json_report_carries_the_dot_text(self, capsys, c5_one_negative):
        code, report = run_json(capsys, ["export-dot", c5_one_negative, "--json"])
        assert code == EXIT_HOLDS
        g = cycle_graph(5).negate_edges([(0, 1)])
        assert report == {"command": "export-dot", "dot": export_dot(g)}

    def test_output_file_replaces_stdout(self, capsys, tmp_path, c5_one_negative):
        assert main(["export-dot", c5_one_negative]) == EXIT_HOLDS
        plain = capsys.readouterr().out
        target = tmp_path / "graph.dot"
        assert main(["export-dot", c5_one_negative, "--output", str(target)]) == EXIT_HOLDS
        assert capsys.readouterr().out == ""
        assert target.read_text() == plain

    def test_export_dot_function_is_reusable(self):
        g = cycle_graph(3).negate_edges([(0, 1)])
        text = export_dot(g, [frozenset({(1, 2)})])
        assert text.startswith("graph signed {")
        assert text.rstrip().endswith("}")


_INTS = st.integers() | st.integers(-(10**40), 10**40)
_PAIRS = st.tuples(_INTS, _INTS) | st.lists(_INTS, min_size=2, max_size=2)
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | st.text()
_LEAF_LISTS = (
    st.lists(_INTS)
    | st.lists(st.booleans())
    | st.lists(_PAIRS)
    | st.lists(_INTS | _PAIRS)
    | st.lists(st.tuples(st.booleans() | _INTS, st.booleans() | _INTS))
)
REPORT_VALUES = st.recursive(
    _SCALARS | _LEAF_LISTS,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


class TestReportWriter:
    """``--json`` reports are written as ``json.dumps(indent=2, sort_keys=True)`` writes them."""

    @given(REPORT_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_a_key_that_is_not_a_string_raises(self):
        with pytest.raises(TypeError):
            cli._json_text({"inner": [{1: 2}]})

    def test_a_large_report(self):
        rng = random.Random(32)
        edges = sorted((rng.randrange(32_000), rng.randrange(32_000)) for _ in range(32_000))
        report = {"command": "negation-check", "edges": edges, "negation_set": True}
        assert cli._json_text(report) == json.dumps(report, indent=2, sort_keys=True)


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        assert main(["balance", str(tmp_path / "absent.sg")]) == EXIT_USAGE

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text("p sg 3 1\ne 0 9 +\n")
        assert main(["balance", str(bad)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "binary.sg"
        bad.write_bytes(b"p sg 2 0\n\xff\xfe\n")
        assert main(["balance", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, c5_one_negative):
        target = tmp_path / "absent" / "report.json"
        assert main(["balance", c5_one_negative, "--output", str(target)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_stdout_write_is_not_usage_error(self, capsys, monkeypatch, c5_one_negative):
        class FailingStdout:
            def write(self, text):
                raise OSError(errno.EIO, "Input/output error")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert main(["balance", c5_one_negative]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: OSError: ")

    def test_closed_stdout_keeps_the_exit_code(self, capsys, monkeypatch, tmp_path, c5_one_negative):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["balance", c5_one_negative]) == EXIT_FAILS
            assert capsys.readouterr().err == ""
            # What the interpreter still flushes at exit goes to devnull.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_internal_error_exits_five_with_one_line(self, capsys, monkeypatch, c5_one_negative):
        def broken(g, args, report):
            raise RuntimeError("no such case")

        monkeypatch.setitem(cli._COMMANDS, "balance", broken)
        assert main(["balance", c5_one_negative]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: no such case\n"

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch, c5_one_negative):
        def broken(dist):
            raise ValueError("boom")

        monkeypatch.setattr(packing, "thresholds", broken)
        assert main(["packing", c5_one_negative]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: ValueError: boom\n"

    def test_exhausted_rewrite_budget_exits_five(self, capsys, monkeypatch, write_sg):
        monkeypatch.setattr(
            negation, "_classify", lambda w, circle: negation._Action("chord", (), True)
        )
        path = write_sg(SignedGraph(8, [(i, (i + d) % 8, NEG) for i in range(8) for d in (1, 2)]))
        assert main(["acyclic", path]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: InvariantError: component ")

    # Every oracle budget, shrunk until it refuses its input: gate -> (budget,
    # value, library call, command, input).  The oracle's brute-force packing
    # search runs only in oracle-verify, which reports its refusal as a skipped
    # row.  Packing's exact search shares that search's step budget and trips
    # it first on the hexagon, so the oracle's gate takes C_8 with one
    # negative edge, which packing settles with no exact search.
    HEXAGON = corpus.counterexample_hexagon()
    CYCLE8 = cycle_graph(8).negate_edges([(0, 1)])
    BUDGET_GATES = {
        "oracle-columns": ("COLUMN_BITS", 1, oracle.frustration_index, "frustration", HEXAGON),
        "oracle-sets": ("SET_COUNT", 1, oracle.enumerate_negation_sets, "oracle-verify", HEXAGON),
        "oracle-steps": ("PACKING_STEPS", 1, oracle.brute_packing_number, "oracle-verify", CYCLE8),
        "packing-table": ("COLUMN_BITS", (256 << 2) - 1, packing.packing_number, "packing", HEXAGON),
        "packing-steps": ("PACKING_STEPS", 1, packing.packing_number, "packing", HEXAGON),
    }

    @pytest.mark.parametrize("gate", BUDGET_GATES)
    def test_every_budget_raises_one_error_and_exits_three(self, capsys, monkeypatch, write_sg, gate):
        budget, value, call, command, g = self.BUDGET_GATES[gate]
        monkeypatch.setattr(oracle, budget, value)
        with pytest.raises(IterationBudgetError, match="budget") as info:
            call(g)
        assert isinstance(info.value, PreconditionError)
        code = main([command, write_sg(g)])
        out, err = capsys.readouterr()
        if gate == "oracle-steps":
            assert code == EXIT_HOLDS and f"skip  ({info.value})" in out
        else:
            assert code == EXIT_PRECONDITION and out == "" and "budget" in err

    def test_output_file(self, capsys, tmp_path, c5_one_negative):
        target = tmp_path / "report.json"
        code = main(["balance", c5_one_negative, "--json", "--output", str(target)])
        assert code == EXIT_FAILS
        report = json.loads(target.read_text())
        assert report["balanced"] is False

    def test_json_reports_are_deterministic(self, capsys, c5_one_negative):
        _, first = run_json(capsys, ["packing", c5_one_negative, "--json"])
        _, second = run_json(capsys, ["packing", c5_one_negative, "--json"])
        assert first == second


class TestCollectorPause:
    @pytest.fixture(params=[EXIT_HOLDS, EXIT_FAILS, EXIT_USAGE, EXIT_PRECONDITION, EXIT_INTERNAL])
    def op(self, request, monkeypatch, tmp_path, write_sg):
        """(argv, expected exit code), one per exit path."""
        code = request.param
        if code == EXIT_HOLDS:
            return ["balance", write_sg(cycle_graph(4))], code
        if code == EXIT_FAILS:
            return ["balance", write_sg(cycle_graph(5).negate_edges([(0, 1)]))], code
        if code == EXIT_USAGE:
            bad = tmp_path / "bad.sg"
            bad.write_text("p sg 3 1\ne 0 9 +\n")
            return ["balance", str(bad)], code
        if code == EXIT_PRECONDITION:
            return ["packing", write_sg(cycle_graph(4))], code

        def broken(g, args, report):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "balance", broken)
        return ["balance", write_sg(cycle_graph(4))], code

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_callers_collector_state(self, capsys, op, enabled):
        argv, expected = op
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert main(argv) == expected
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_collector_is_paused_during_the_op(self, monkeypatch, write_sg):
        seen = []

        def probe(g, args, report):
            seen.append(gc.isenabled())
            return EXIT_HOLDS

        monkeypatch.setitem(cli._COMMANDS, "balance", probe)
        was = gc.isenabled()
        gc.enable()
        try:
            assert main(["balance", write_sg(cycle_graph(4))]) == EXIT_HOLDS
        finally:
            gc.enable() if was else gc.disable()
        assert seen == [False]



# -- fuzz ------------------------------------------------------------------------

_SG_TOKENS = ["p", "sg", "e", "c", "+", "-", "0", "1", "2", "3", "7", "8", "9", "-1", "2.5", "x"]
_EDGE_COMMANDS = {"negation-check", "minimal", "certify-minimum", "certify-unique", "export-dot"}
_EDGE_SPECS = st.one_of(
    st.lists(
        st.tuples(st.integers(-1, 9), st.integers(-1, 9)), min_size=1, max_size=4
    ).map(lambda pairs: ",".join(f"{u}-{v}" for u, v in pairs)),
    st.sampled_from(["", "zap", "0-", "1-2-3", "a-b", " , "]),
)


@st.composite
def sg_texts(draw):
    """Short ``.sg`` text with n <= 8; half of it gets one to three line edits."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(st.sampled_from([POS, NEG]))) for u, v in chosen]
    lines = serialize(SignedGraph(n, edges)).splitlines()
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, len(lines)))
        junk = " ".join(draw(st.lists(st.sampled_from(_SG_TOKENS), max_size=5)))
        edit = draw(st.sampled_from(["insert", "replace", "drop"]))
        if edit == "insert":
            lines.insert(i, junk)
        else:
            lines[i : i + 1] = [junk] if edit == "replace" else []
    return "\n".join(lines) + "\n"


@st.composite
def cli_argvs(draw, path: str):
    """A command on ``path`` with a random selection of its flags."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command, path]
    if draw(st.booleans()):
        argv.append("--json")
    if command in _EDGE_COMMANDS and draw(st.booleans()):
        argv += ["--edges", draw(_EDGE_SPECS)]
    if command == "acyclic" and draw(st.booleans()):
        argv.append("--trace")
    if command == "export-dot" and draw(st.booleans()):
        argv.append("--packing")
    return argv


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "input.sg")


@given(text=sg_texts(), data=st.data())
def test_fuzzed_input_and_flags_exit_in_range_without_traceback(fuzz_path, text, data):
    with open(fuzz_path, "w", encoding="utf-8") as fp:
        fp.write(text)
    argv = data.draw(cli_argvs(fuzz_path))
    out, err = io.StringIO(), io.StringIO()
    # one oracle budget shrunk, so that these small inputs reach each of its refusals
    budget = data.draw(st.sampled_from([None, "COLUMN_BITS", "SET_COUNT", "PACKING_STEPS"]))
    shrunk = contextlib.nullcontext()
    if budget is not None:
        shrunk = mock.patch.object(oracle, budget, data.draw(st.sampled_from([1, 8, 64])))
    with shrunk, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in range(6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
