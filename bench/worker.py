"""Run one workload in this interpreter, one op at a time, through ``negset.cli.main``.

Started by ``run.py`` as a fresh interpreter per workload, with ``src`` on
``PYTHONPATH``.  Each op's input is generated here between timed calls and
written as an ``.sg`` file; only the ``cli.main`` call is timed, with stdout
and stderr captured.  The run is ``gen.round_count`` whole rounds, about
``--seconds`` of timed ops at the seed commit (half as many rounds when
traced).  Per op, the report, stderr,
exit code or exception and the wall time go to ``<workdir>/ops.jsonl``;
``summary.json`` gets the peak RSS and, with ``--trace 1``, the per-layer
totals.

In traced mode every op runs twice, untraced and traced (the order
alternates per op), and the two reports must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
import time

import gen
import spans

#: Wall-time cap of one op; an op past it counts as failed.
OP_CAP_S = 60
#: Address-space cap of the worker, so a runaway op fails instead of starving the host.
MEMORY_CAP_BYTES = 4 << 30
#: Seconds of one ``speed_kernel`` pass on the reference host (2-core x86 VM) at full speed.
REFERENCE_KERNEL_S = 0.010
#: Wall seconds between two speed samples.
SPEED_SAMPLE_EVERY_S = 0.5


class OpTimeout(BaseException):
    """Raised into an op by SIGALRM once it runs past the cap."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(call, argv):
    """One CLI call: (exit code or None, exception name or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except OpTimeout:
        exc = "OpTimeout"
    except Exception as e:  # any crash of the program is a result to report
        exc = type(e).__name__
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, exc, out.getvalue(), err.getvalue(), elapsed


def speed_kernel() -> float:
    """Best of three passes of a fixed pure-Python kernel (dict, str, sort), in seconds.

    ``run.py`` scales each op's time by ``REFERENCE_KERNEL_S`` over the latest
    sample, which cancels most of the host's drift in interpreter speed.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        width = 0
        for i in range(30_000):
            k = (i * 7919) % 5003
            table[k] = table.get(k, 0) + i
            width += len(str(i))
        sorted(table.items())
        best = min(best, time.perf_counter() - start)
    return best


def label_counts(text: str) -> dict[str, int]:
    """Rewrite labels of one untimed ``acyclic_negation(trace=True)`` pass."""
    from negset.negation import acyclic_negation
    from negset.sgio import parse

    counts: dict[str, int] = {}
    try:
        result = acyclic_negation(parse(text), trace=True)
    except Exception:  # the timed op already reports the failure
        return counts
    for entry in result.stats.trace or ():
        counts[entry.label] = counts.get(entry.label, 0) + 1
    return counts


def layer_totals(tracer: spans.Tracer, labels: dict[str, int]) -> dict[str, float]:
    t = tracer
    out = {
        "cli.self_ms": t.self_ms("cli.main"),
        "sgio.parse_self_ms": t.self_ms("sgio.parse"),
        "sgio.parse_bytes": t.counters["sgio.parse_bytes"],
        "graph.build_calls": t.call_count("graph.build"),
        "graph.build_ms": t.self_ms("graph.build"),
        "graph.switch_calls": t.call_count("graph.switch"),
        "graph.switch_ms": t.self_ms("graph.switch"),
        "graph.k_core_ms": t.self_ms("graph.k_core"),
        "graph.components_ms": t.self_ms("graph.components"),
        "balance.check_calls": t.call_count("balance.check"),
        "balance.check_ms": t.self_ms("balance.check"),
        "balance.negation_check_ms": t.self_ms("balance.negation_check"),
        "minimality.is_minimal_ms": t.self_ms("minimality.is_minimal"),
        "minimality.certificate_ms": t.self_ms("minimality.certificate"),
        "negation.acyclic_self_ms": t.self_ms("negation.acyclic"),
        "negation.circle_enum_ms": t.self_ms("negation.circle_enum"),
        "packing.class_count": t.counters["packing.class_count"],
        "packing.classes_ms": t.self_ms("packing.classes"),
        "packing.distances_ms": t.self_ms("packing.distances"),
        "packing.scan_steps": t.counters["packing.scan_steps"],
        "packing.scan_ms": t.self_ms("packing.scan"),
        "packing.self_ms": t.self_ms("packing.packing_number"),
        "oracle.enumerate_ms": t.self_ms("oracle.enumerate"),
        "oracle.switchings": t.counters["oracle.switchings"],
        "oracle.brute_packing_ms": t.self_ms("oracle.brute_packing"),
    }
    for label in gen.ACYCLIC_LABELS:
        out[f"negation.label.{label}"] = labels.get(label, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)
    from negset import cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: negset imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    labels: dict[str, int] = {}
    rounds = gen.WORKLOADS[args.workload](args.seed)
    op_id = 0
    kernel, sampled = speed_kernel(), time.perf_counter()
    with open(os.path.join(args.workdir, "ops.jsonl"), "w", encoding="utf-8") as log:
        # a traced run times every op twice, so it runs half the rounds
        seconds = args.seconds / 2 if args.trace else args.seconds
        for _ in range(gen.round_count(args.workload, seconds)):
            for op in next(rounds):
                text = gen.sg_text(op_id, op.n, op.edges)
                path = os.path.join(args.workdir, f"{op_id}.sg")
                with open(path, "w", encoding="utf-8") as fp:
                    fp.write(text)
                argv_op = [op.cmd, path, "--json", *op.args]
                if time.perf_counter() - sampled >= SPEED_SAMPLE_EVERY_S:
                    kernel, sampled = speed_kernel(), time.perf_counter()
                record = {"id": op_id, "cmd": op.cmd, "family": op.family, "n": op.n,
                          "args": op.args, "kernel": kernel}
                if tracer is None:
                    code, exc, out, err, seconds = run_op(cli.main, argv_op)
                else:
                    traced_first = op_id % 2 == 1
                    results = {}
                    for traced in (traced_first, not traced_first):
                        if traced:
                            tracer.op = op_id
                            tracer.install()
                            try:
                                results[traced] = run_op(
                                    lambda a: tracer.call(spans.ROOT, cli.main, a), argv_op
                                )
                            finally:
                                tracer.uninstall()
                        else:
                            results[traced] = run_op(cli.main, argv_op)
                    code, exc, out, err, seconds = results[False]
                    traced_result = results[True]
                    record["traced_seconds"] = traced_result[4]
                    record["identical"] = traced_result[:4] == (code, exc, out, err)
                    if op.cmd == "acyclic":
                        for label, count in label_counts(text).items():
                            labels[label] = labels.get(label, 0) + count
                with open(os.path.join(args.workdir, f"{op_id}.out"), "w", encoding="utf-8") as fp:
                    fp.write(out)
                record.update(code=code, exc=exc, stderr=err[-2000:], seconds=seconds)
                log.write(json.dumps(record) + "\n")
                op_id += 1

    summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        summary["layers"] = layer_totals(tracer, labels)
        tracer.write_spans(os.path.join(args.workdir, "spans.tsv"))
    with open(os.path.join(args.workdir, "summary.json"), "w", encoding="utf-8") as fp:
        json.dump(summary, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
