"""The result records: immutable tuples, and no ``dataclasses`` at CLI startup."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from negset import (
    AcyclicResult,
    BalanceResult,
    BipartiteNegation,
    HararyBipartition,
    NegativeComponentClasses,
    PackingResult,
    TraceEntry,
)
from negset.negation import AcyclicStats

SRC = Path(__file__).resolve().parent.parent / "src"

#: every public record with its fields, in order
RECORDS = [
    (HararyBipartition, ("left", "right")),
    (BalanceResult, ("balanced", "bipartition", "negative_circle")),
    (NegativeComponentClasses, ("classes", "class_of")),
    (PackingResult, ("packing_number", "family", "realizing_bipartition", "distance")),
    (BipartiteNegation, ("negation_set", "switching")),
    (TraceEntry, ("phase", "label", "switched", "strict")),
    (AcyclicStats, ("passes", "trace")),
    (AcyclicResult, ("negation_set", "switching", "stats")),
]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a bare interpreter loads neither module, so any hit comes from negset
    code = "import negset.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_is_immutable_and_unpacks_in_field_order(record, fields):
    values = [object() for _ in fields]
    rec = record(*values)
    unpacked = [*rec]
    assert len(unpacked) == len(values)
    assert all(got is want for got, want in zip(unpacked, values))
    for name, value in zip(fields, values):
        assert getattr(rec, name) is value
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
