"""Tests of the benchmark harness itself: generators, checkers and tracer."""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations

import pytest

import checks
import gen
import spans
import worker
from negset import cli, graph


def first_round(workload: str, seed: int) -> list[str]:
    return [gen.sg_text(i, op.n, op.edges) for i, op in enumerate(next(gen.WORKLOADS[workload](seed)))]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, monkeypatch):
    monkeypatch.setattr(gen, "CHECK_LARGE_SIZES", (300, 400, 500))
    assert first_round(workload, 7) == first_round(workload, 7)
    assert first_round(workload, 7) != first_round(workload, 8)


def test_no_input_repeats_within_a_run():
    rounds = gen.small_corpus(3)
    texts = [gen.sg_text(i, op.n, op.edges) for i, op in enumerate(next(rounds) + next(rounds))]
    assert len(set(texts)) == len(texts)


def run_cli(tmp_path, cmd: str, n: int, edges, *args):
    path = tmp_path / f"{cmd}.sg"
    text = gen.sg_text(0, n, edges)
    path.write_text(text)
    code, exc, out, err, _ = worker.run_op(cli.main, [cmd, str(path), "--json", *args])
    assert exc is None
    return text, code, out, err


def outcome(cmd, text, code, out, err, *args):
    return checks.classify(cmd, text, list(args), code, None, out, err)


def test_balance_checker_rejects_a_moved_vertex(tmp_path):
    rng = random.Random(1)
    edges = gen.random_switch(rng, 40, [(u, v, gen.POS) for u, v in gen.quartic_pairs(rng, 40)])
    text, code, out, err = run_cli(tmp_path, "balance", 40, edges)
    assert code == 0 and outcome("balance", text, code, out, err) == (checks.ANSWERED, "")
    report = json.loads(out)
    moved = report["bipartition"]["left"].pop()
    report["bipartition"]["right"].append(moved)
    verdict, reason = outcome("balance", text, code, json.dumps(report), err)
    assert verdict == checks.FAILED and "violates the bipartition" in reason


def test_packing_checker_rejects_a_shared_edge(tmp_path):
    # a 6-cycle with one negative edge: the packing family has six members
    edges = [(i, (i + 1) % 6, gen.NEG if i == 0 else gen.POS) for i in range(6)]
    edges = [(*gen.edge_key(u, v), s) for u, v, s in edges]
    text, code, out, err = run_cli(tmp_path, "packing", 6, edges)
    assert outcome("packing", text, code, out, err) == (checks.ANSWERED, "")
    report = json.loads(out)
    family = report["components"][0]["family"]
    assert len(family) >= 2
    family[1].append(family[0][0])
    verdict, reason = outcome("packing", text, code, json.dumps(report), err)
    assert verdict == checks.FAILED and "share an edge" in reason


def test_acyclic_checker_rejects_a_cycle(tmp_path):
    # all-negative K4: E- itself contains triangles
    edges = [(u, v, gen.NEG) for u, v in combinations(range(4), 2)]
    text, code, out, err = run_cli(tmp_path, "acyclic", 4, edges)
    assert outcome("acyclic", text, code, out, err) == (checks.ANSWERED, "")
    report = json.loads(out)
    report["switching"] = []
    report["negation_set"] = [[u, v] for u, v, _ in edges]
    verdict, reason = outcome("acyclic", text, code, json.dumps(report), err)
    assert verdict == checks.FAILED and "contains a cycle" in reason


def test_crash_and_budget_are_classified():
    assert checks.classify("acyclic", "p sg 1 0\n", [], None, "RecursionError", "", "")[0] == checks.FAILED
    text = gen.sg_text(0, 3, [(0, 1, gen.NEG), (1, 2, gen.POS), (0, 2, gen.POS)])
    budget = "error: exact packing search needs 2^30 switchings (budget 2^20)"
    assert checks.classify("packing", text, [], 3, None, "", budget)[0] == checks.BUDGET
    assert checks.classify("packing", text, [], 3, None, "", "error: other")[0] == checks.FAILED


def negset_bindings():
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("negset")}
    return modules, dict(vars(graph.SignedGraph))


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    rng = random.Random(2)
    edges = [(u, v, gen.NEG if rng.random() < 0.3 else gen.POS) for u, v in gen.quartic_pairs(rng, 30)]
    path = tmp_path / "g.sg"
    path.write_text(gen.sg_text(0, 30, edges))
    argv = ["minimal", str(path), "--json"]
    before = negset_bindings()
    untraced = worker.run_op(cli.main, argv)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.is_minimal is not before[0]["negset.cli"]["is_minimal"]
        assert graph.SignedGraph.__init__ is not before[1]["__init__"]
        traced = worker.run_op(lambda a: tracer.call(spans.ROOT, cli.main, a), argv)
    finally:
        tracer.uninstall()

    after = negset_bindings()
    assert after[1] == before[1]
    for name, namespace in before[0].items():
        assert all(after[0][name][key] is value for key, value in namespace.items())
    assert traced[:4] == untraced[:4]
    assert tracer.call_count("minimality.is_minimal") == 1
    assert tracer.call_count("graph.build") >= 2
    assert tracer.self_ms(spans.ROOT) > 0
