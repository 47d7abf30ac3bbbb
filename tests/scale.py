"""Scale checks: ``python3 tests/scale.py`` runs every case of ``CASES`` and exits 1 if one fails.

Each case writes its inputs into a temporary directory and runs ``negset.cli`` in a fresh
interpreter under a timeout; its exit code, stderr and, by ``bench/checks.py``, report are checked.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests")]
sys.path[:0] = [*PATHS, str(ROOT / "bench")]

import checks  # noqa: E402
import corpus  # noqa: E402
import gen  # noqa: E402
import negset  # noqa: E402

PACKING_ROW = "packing number agrees with brute force"
# A child forked from this process would start with its size as peak RSS, so a small
# interpreter launches it and ends its stderr with a line of its exit code and peak RSS (KiB).
LAUNCH = """import resource, subprocess, sys
timeout, *argv = sys.argv[1:]
try:
    code = subprocess.run(argv, timeout=float(timeout)).returncode
except subprocess.TimeoutExpired:
    code = "timeout"
sys.stderr.write(f"\\n{code} {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}")"""
Run = namedtuple("Run", "argv code out err peak_kib")


def require(cond: bool, message: str) -> None:
    """Raise ``AssertionError(message)`` unless ``cond``, also under ``python -O``."""
    if not cond:
        raise AssertionError(message)


def run(argv: list[str], label: str, timeout: float, code=0, err=()) -> Run:
    """Run ``python3 argv``; fail past ``timeout`` s, on an exit not in ``code`` or a missing ``err`` text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(PATHS)}
    start = time.monotonic()
    launch = [sys.executable, "-c", LAUNCH, str(timeout), sys.executable, *argv]
    child = subprocess.run(launch, capture_output=True, text=True, env=env)
    wall = time.monotonic() - start
    err_text, _, usage = child.stderr.rpartition("\n")
    exit_code, peak = usage.split()
    require(exit_code != "timeout", f"{label}: no exit within {timeout} s")
    done = Run(argv, int(exit_code), child.stdout, err_text, int(peak))
    print(f"  {wall:7.2f} s {done.peak_kib / 1024:8.1f} MB  exit {done.code}  {label}", flush=True)
    tail = done.err.strip()[-500:]
    codes = (code,) if isinstance(code, int) else code
    require(done.code in codes, f"{label}: exit {done.code}, expected {code}: {tail}")
    missing = [text for text in err if text not in done.err]
    require(not missing, f"{label}: stderr lacks {missing}: {tail}")
    return done


def cli(cmd: str, path: Path, *args: str, **expect) -> Run:
    """``negset cmd path --json args`` through :func:`run`."""
    argv = ["-m", "negset.cli", cmd, str(path), "--json", *args]
    return run(argv, " ".join([cmd, path.name, *args]), **expect)


def answered(done: Run) -> Run:
    """Fail unless ``bench/checks.py`` classifies the CLI run as answered."""
    cmd, path, _, *args = done.argv[2:]
    outcome, why = checks.classify(cmd, Path(path).read_text(), args, done.code, None, done.out, done.err)
    require(outcome == checks.ANSWERED, f"{cmd} {Path(path).name}: {outcome} {why}")
    return done


def oracle_rows(done: Run, budget=()) -> dict[str, tuple[str, str]]:
    """``oracle-verify``'s rows by name; each must pass or, if named in ``budget``, skip on a budget."""
    rows = {c["name"]: (c["outcome"], c["detail"]) for c in json.loads(done.out)["checks"]}
    skips = {name for name in budget if rows[name][0] == "skip" and "budget" in rows[name][1]}
    require(all(row[0] == "pass" or name in skips for name, row in rows.items()), f"rows: {rows}")
    return rows


def lean(done: Run, base: Run) -> None:
    require(done.peak_kib <= 2 * base.peak_kib, f"peak RSS {done.peak_kib} KiB, over twice {base.peak_kib}")


def write(tmp: Path, name: str, graph) -> Path:
    path = tmp / name
    path.write_text(graph if isinstance(graph, str) else negset.serialize(graph))
    return path


def cascade100k(tmp: Path) -> None:
    # a peel that rescans the live vertices per batch took about a minute at this size
    answered(cli("acyclic", write(tmp, "cascade100k.sg", corpus.cascade_circulant()), timeout=30))


def quartic100k(tmp: Path) -> None:
    # nothing peels and every vertex starts at negative degree four, so the preprocess sweep
    # makes 52,816 switches: a sweep that rescanned its members after each switch would be quadratic
    answered(cli("acyclic", write(tmp, "quartic100k.sg", corpus.negative_quartic()), timeout=30))


def check100k(tmp: Path) -> None:
    canonical = write(tmp, "check100k.sg", corpus.switched_circulant())
    # a comment after the header is outside the canonical form: this copy is read line by line
    head, _, edges = canonical.read_text().partition("\n")
    looped = write(tmp, "check100k-loop.sg", f"{head}\nc not canonical: a comment after the header\n{edges}")
    for cmd in ("balance", "negation-check", "minimal"):
        report, copy = (answered(cli(cmd, path, code=(0, 1), timeout=60)).out for path in (canonical, looped))
        canonical_json = json.dumps(json.loads(report), indent=2, sort_keys=True) + "\n"
        require(report == copy == canonical_json, f"{cmd}: the reports differ or are not json.dumps's")
    # the star of 0 is a negation set that cuts 0 off; the edge 0-1 is no cut, so minimal refuses it
    star = "0-1,0-7,0-99993,0-99999"
    for edges, cmd, code in ((star, "negation-check", 0), (star, "minimal", 1),
                             ("0-1", "negation-check", 1), ("0-1", "minimal", 3)):
        answered(cli(cmd, canonical, "--edges", edges, code=code, timeout=60))
    nonedge = ["is not an edge of the host graph"]
    cli("negation-check", canonical, "--edges", "0-2", code=2, timeout=60, err=nonedge)


def certify300(tmp: Path) -> None:
    path = write(tmp, "certify300.sg", corpus.complete_matching())
    for cmd in ("certify-minimum", "certify-unique"):
        answered(cli(cmd, path, code=(0, 1), timeout=60))


def brute_force(tmp: Path) -> None:
    for n, timeout in ((16, 60), (20, 60), (23, 30)):
        path = write(tmp, f"oracle{n}.sg", corpus.circulant_signing(n))
        oracle_rows(cli("oracle-verify", path, timeout=timeout))
    path = write(tmp, "oracle22.sg", corpus.circulant_signing(22))
    total = json.loads(cli("frustration", path, timeout=60).out)["total"]
    # bench/checks.py's own Gray walk over the 2^21 switchings
    expected = checks.frustration(checks.Graph.parse(path.read_text()), range(22))
    require(total == expected, f"frustration total {total}, expected {expected}")
    # one negative component, so packing's search never runs: the row reads the brute force's refusal
    path = write(tmp, "cycle14.sg", corpus.cycle_graph(14).negate_edges([(0, 1)]))
    row = oracle_rows(cli("oracle-verify", path, timeout=30), budget=[PACKING_ROW])[PACKING_ROW]
    require(row[1] == "brute-force packing search passed its budget of 4194304 checks", f"packing row {row}")


def isolated2m(tmp: Path) -> None:
    # a balanced input is decided by one BFS, before any per-component work
    path = write(tmp, "isolated2m.sg", "p sg 2000000 0\n")
    balance = cli("balance", path, "--output", os.devnull, timeout=60)
    lean(cli("packing", path, "--output", os.devnull, code=3, timeout=60), balance)


def hexagon17(tmp: Path) -> None:
    # 17 search bits, but each cut has 18,021 bits: the table is refused before its first cut
    path = write(tmp, "hexagon17.sg", corpus.long_hexagon(15))
    balance = cli("balance", path, "--output", os.devnull, code=1, timeout=10)
    refusal = ["budget", "needs 2^17 cuts of 18021 bits", "the scan lower bound is 3"]
    lean(cli("packing", path, "--output", os.devnull, code=3, timeout=10, err=refusal), balance)


def hexagon40k(tmp: Path) -> None:
    # 120,006 vertices, 2 search bits: a table of one edge mask per vertex took 2 GB on it
    path = write(tmp, "hexagon40k.sg", corpus.long_hexagon(0, length=40001))
    balance = cli("balance", path, code=1, timeout=60)
    lean(answered(cli("packing", path, timeout=60)), balance)


def packing_refusals(tmp: Path) -> None:
    # 12 search bits: the branch and bound passes 2^22 candidate checks
    path = ROOT / "tests" / "golden" / "packing-search20.sg"
    cli("packing", path, code=3, timeout=30, err=["budget", "the scan lower bound is 5"])
    outcome, detail = oracle_rows(cli("oracle-verify", path, timeout=30), budget=[PACKING_ROW])[PACKING_ROW]
    require("the scan lower bound is 5" in detail, f"packing row {outcome}: {detail}")
    # every negative edge of three_blobs joins two blobs, so the contracted bound is inf
    refusal = ["budget", "needs 2^5099 cuts of 12900 bits", "the scan lower bound is 2"]
    cli("packing", write(tmp, "blobs6k.sg", corpus.three_blobs(3)), code=3, timeout=30, err=refusal)


def packing100k(tmp: Path) -> None:
    # 8,582 negative components: a scan over a dense table of class distances ran past 300 s
    n = 100000
    text = gen.sg_text(0, n, gen.sparse_negatives(random.Random(n), n, n // 10, False))
    answered(cli("packing", write(tmp, "packing100k.sg", text), timeout=60))


def census7(tmp: Path) -> None:
    # every unbalanced switching class of the 971 connected atlas graphs with n <= 7 and a cycle
    done = run(["-c", "import test_census; print(test_census.census(7))"], "census(7)", timeout=120)
    print(f"    {done.out.strip()}")


CASES = [cascade100k, quartic100k, check100k, certify300, brute_force, isolated2m, hexagon17, hexagon40k,
         packing_refusals, packing100k, census7]


def main() -> int:
    failed = []
    for case in CASES:
        print(case.__name__, flush=True)
        with tempfile.TemporaryDirectory(prefix=f"negset-{case.__name__}-") as tmp:
            try:
                case(Path(tmp))
            except Exception as exc:
                failed.append(case.__name__)
                why = exc if isinstance(exc, AssertionError) else traceback.format_exc()
                print(f"  FAIL {case.__name__}: {why}", flush=True)
    print(f"failed: {' '.join(failed)}" if failed else f"all {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
