"""The scale runner's CLI helper, on a 5-cycle with one negative edge."""

from __future__ import annotations

import json

import pytest

import scale
from corpus import cycle_graph


@pytest.fixture
def cycle5(tmp_path):
    return scale.write(tmp_path, "cycle5.sg", cycle_graph(5).negate_edges([(0, 1)]))


def test_packing_run_is_answered(cycle5):
    run = scale.answered(scale.cli("packing", cycle5, timeout=30))
    assert run.code == 0
    assert json.loads(run.out)["components"][0]["packing_number"] == 5
    assert run.peak_kib > 0


@pytest.mark.parametrize("expect, message", [
    ({"code": 1}, "exit 0, expected 1"),
    ({"err": ["no such text"]}, "stderr lacks"),
    ({"timeout": 0}, "no exit within 0 s"),
])
def test_a_broken_expectation_fails(cycle5, expect, message):
    with pytest.raises(AssertionError, match=message):
        scale.cli("packing", cycle5, **{"timeout": 30, **expect})
