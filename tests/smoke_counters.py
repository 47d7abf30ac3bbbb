"""Check a traced benchmark run: five span counters nonzero and ``correct`` true.

Reads the run's last line, the JSON summary ``bench/run.py`` prints, on
stdin, prints the counters that read 0 and exits 0 when none does and the
run is correct, else 1.  A counter at 0 means work moved out of the names
``bench/spans.py`` wraps.

    python3 bench/run.py --workload small-corpus --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 tests/smoke_counters.py
"""

from __future__ import annotations

import json
import sys

COUNTERS = (
    "packing.scan_steps",
    "packing.class_count",
    "graph.build_calls",
    "balance.check_calls",
    "minimality.is_minimal_ms",
)


def main() -> int:
    run = json.load(sys.stdin)
    zero = [k for k in COUNTERS if not run["metrics"][k]["value"]]
    print("span counters at 0:", zero)
    return 0 if run["correct"] is True and not zero else 1


if __name__ == "__main__":
    sys.exit(main())
