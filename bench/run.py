"""negset benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/negset``)::

    python3 bench/run.py --workload large-mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 40 [--trace 1]

One workload per invocation: ``setup_s`` is measured first, as the median
wall time of fresh interpreters that import ``negset.cli`` and exit; then
``worker.py`` runs the workload's ops in one fresh interpreter (a closed loop
with one client, one op at a time) and exits; then every op's output is
checked here by ``checks.py``, so checking time never counts as latency.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``--all`` runs every workload, each
in its own interpreter, one after another, prints a table of all metrics and
writes them to ``.bench_out/results.json``.

End-to-end metrics (untraced run):

* ``ops_per_s``: ops that did not fail / summed wall time of the op list's
  ``cli.main`` calls (1/s);
* ``latency_p50_ms``: median wall time of one ``cli.main`` call (argparse,
  ``.sg`` load, command, report);
* ``latency_tail_ms``: the highest percentile, at most p90, with at least ten
  samples beyond it (p50 for runs under 20 ops); the table shows which;
* ``answered_ratio``: ops with a definite, checked result / attempted ops
  (an exhausted search budget completes but does not answer);
* ``peak_rss_mb``: ``ru_maxrss`` of the worker interpreter;
* ``setup_s``: median fresh-interpreter ``import negset.cli`` time.

The three op-time metrics are scaled to a reference interpreter speed.  On a
shared 2-vCPU VM the interpreter's speed drifts by up to 1.8x over minutes,
which made ten-run spreads of the raw times reach 0.36.  A fixed pure-Python
kernel (``worker.speed_kernel``, 10 ms at full speed) is timed at least every
0.5 s, and each op's time is multiplied by ``REFERENCE_KERNEL_S`` over the
latest kernel time.  The table also prints the unscaled values.  ``setup_s``
and the per-layer times are unscaled: the kernel does not track process
start-up.

``fail_ratio`` (failed / attempted) is printed in the table; the JSON line
carries it as ``failed`` and ``attempted``.  Latency percentiles are taken
over ops that did not fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from worker import REFERENCE_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
#: The workloads the benchmark gates on, in BENCHMARK.json order.
WORKLOADS = ("large-mix", "small-corpus")
#: Not gated: the three families of large-mix one at a time, and the defect probe
#: ``acyclic-corridor``, whose long negative corridors crash the seed commit.
#: ``--all`` runs them too.
UNGATED = ("check-large", "acyclic-quartic", "packing-sparse", "acyclic-corridor")
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("answered_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
UNITS = dict(END_TO_END) | {"sgio.parse_bytes": "bytes", "trace.overhead_ratio": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a metric: ``*_ms`` layer times are ms, other layer metrics are counts."""
    return UNITS.get(name) or ("ms" if name.endswith("_ms") else "count")


def source_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str) -> float:
    """Median wall time of a fresh interpreter that imports ``negset.cli`` and exits."""
    env = source_env(root)
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import negset.cli"], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest percentile <= 90 with ten samples beyond it.

    Percentiles interpolate like ``statistics.median``, so p50 is the median.
    """
    pct = max(50, min(90, math.floor(100 * (1 - 10 / len(latencies)))))
    if len(latencies) < 2:
        return latencies[0], pct
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def packing_paths(record: dict, report: dict | None, outcome: str) -> dict:
    paths = {"scan": 0, "mixed": 0, "budget_out": int(outcome == checks.BUDGET)}
    if record["code"] == 0 and report is not None:
        for section in report["components"]:
            if not section["balanced"]:
                paths["scan" if section["bipartition"] is not None else "mixed"] += 1
    return paths


def evaluate(workdir: str, trace: bool):
    """Check every op; return (ops, summary) with each op's outcome filled in."""
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as fp:
        summary = json.load(fp)
    ops = []
    with open(os.path.join(workdir, "ops.jsonl"), encoding="utf-8") as fp:
        for line in fp:
            rec = json.loads(line)
            with open(os.path.join(workdir, f"{rec['id']}.sg"), encoding="utf-8") as f:
                text = f.read()
            with open(os.path.join(workdir, f"{rec['id']}.out"), encoding="utf-8") as f:
                out = f.read()
            rec["outcome"], rec["reason"] = checks.classify(
                rec["cmd"], text, rec["args"], rec["code"], rec["exc"], out, rec["stderr"]
            )
            if trace and not rec["identical"] and rec["outcome"] != checks.FAILED:
                rec["outcome"], rec["reason"] = checks.FAILED, "traced report differs from untraced"
            if trace and rec["outcome"] != checks.FAILED:
                report = json.loads(out) if rec["code"] in (0, 1) else None
                if rec["cmd"] == "acyclic" and report is not None:
                    rec["passes"] = report["passes"]
                if rec["cmd"] == "packing":
                    rec["paths"] = packing_paths(rec, report, rec["outcome"])
            ops.append(rec)
    return ops, summary


def end_to_end(ops, summary, setup_s):
    """Metrics and table notes; op times are scaled to the reference interpreter speed."""
    done = [op for op in ops if op["outcome"] != checks.FAILED]
    ok = [op["seconds"] * REFERENCE_KERNEL_S / op["kernel"] for op in done]
    raw = [op["seconds"] for op in done]
    value, pct = tail(ok) if ok else (0.0, 0)
    metrics = {
        "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
        "latency_p50_ms": statistics.median(ok) * 1000 if ok else 0.0,
        "latency_tail_ms": value * 1000,
        "answered_ratio": sum(op["outcome"] == checks.ANSWERED for op in ops) / len(ops),
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": setup_s,
    }
    notes = {"latency_tail_ms": f"p{pct} of {len(ok)} ops"}
    if raw:
        notes["ops_per_s"] = f"unscaled {len(raw) / sum(raw):.4f}"
        notes["latency_p50_ms"] = f"unscaled {statistics.median(raw) * 1000:.4f}"
        notes["latency_tail_ms"] += f", unscaled {tail(raw)[0] * 1000:.4f}"
    return metrics, notes


def per_layer(ops, summary):
    metrics = dict(summary["layers"])
    metrics["negation.passes"] = sum(op.get("passes", 0) for op in ops)
    for path in ("scan", "mixed", "budget_out"):
        metrics[f"packing.path.{path}"] = sum(op.get("paths", {}).get(path, 0) for op in ops)
    metrics["trace.overhead_ratio"] = sum(op["traced_seconds"] for op in ops) / sum(
        op["seconds"] for op in ops
    )
    return metrics


def run_workload(root: str, args) -> int:
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = measure_setup(root)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
        ]
        try:
            subprocess.run(cmd, env=source_env(root), cwd=root, check=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the {args.workload} worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        except subprocess.CalledProcessError as exc:
            print(f"error: the {args.workload} worker exited {exc.returncode}", file=sys.stderr)
            return 1
        ops, summary = evaluate(workdir, bool(args.trace))
        if args.trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            shutil.move(os.path.join(workdir, "spans.tsv"),
                        os.path.join(out_dir, f"{args.workload}.spans.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op["outcome"] == checks.FAILED]
    for op in failed[:10]:
        print(f"FAILED op {op['id']} {op['cmd']} {op['family']} n={op['n']}: {op['reason']}")
    if args.trace:
        metrics, notes = per_layer(ops, summary), {}
    else:
        metrics, notes = end_to_end(ops, summary, setup_s)
    print(f"workload {args.workload}: {len(ops)} ops, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"  {'fail_ratio':44} {len(failed) / len(ops):14.4f} ratio")
    for name, value in metrics.items():
        unit = unit_of(name)
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44} {value:14.4f} {unit}{note}")
    for cmd in sorted({op["cmd"] for op in ops}):
        times = [op["seconds"] * 1000 for op in ops if op["cmd"] == cmd]
        print(f"  {cmd:>16}: {len(times):4} ops, median {statistics.median(times):10.2f} ms")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(root: str, args) -> int:
    """Every workload, gated or not, each in a fresh interpreter, one at a time."""
    results = {}
    code = 0
    for workload in WORKLOADS + UNGATED:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[workload] = json.loads(lines[-1])
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fp:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "workloads": results}, fp, indent=2)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + UNGATED)
    ap.add_argument("--all", action="store_true", help="run every workload, one at a time")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "negset", "cli.py")):
        print("error: run from the root of a negset checkout (src/negset/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(root, args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_workload(root, args)


if __name__ == "__main__":
    sys.exit(main())
