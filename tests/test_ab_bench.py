"""The statistics of the parent/change A/B runner, on made-up result
lines of the benchmark."""
import importlib
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
METRICS = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def ab_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("ab_bench")


def _line(wall_s, valid_share=1.0, gmean=300.0, failed=0):
    values = {"wall_s": wall_s, "valid_share": valid_share,
              "parallel_print_s_gmean": gmean}
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value} for name, value in values.items()}}


def _rows(result):
    return {row["name"]: row for row in result["metrics"]}


def test_identical_runs_are_a_tie(ab_bench):
    runs = [_line(0.1 + 0.01 * i) for i in range(10)]
    rows = _rows(ab_bench.compare(runs, runs, METRICS))
    assert set(rows) == {m["name"] for m in METRICS}
    wall = rows["wall_s"]
    assert wall["ratio"] == 1.0 and wall["interval"] == (1.0, 1.0)
    assert wall["wins"] == 0 and wall["pairs"] == 10 and not wall["worse"]
    assert wall["parent"] == pytest.approx((0.145, 0.1225, 0.1675))
    # A metric that no run reports has no statistics and is not worse.
    assert rows["setup_s"]["parent"] is None and not rows["setup_s"]["worse"]


def test_a_slower_change_is_worse_beyond_the_bound(ab_bench):
    parent = [_line(0.1 + 0.001 * i) for i in range(10)]
    change = [_line(1.3 * (0.1 + 0.001 * i)) for i in range(10)]
    wall = _rows(ab_bench.compare(parent, change, METRICS))["wall_s"]
    assert wall["ratio"] == pytest.approx(1.3)
    assert wall["interval"] == pytest.approx((1.3, 1.3))
    assert wall["wins"] == 0 and wall["worse"]
    # The other way round the change wins every pair and is not worse.
    wall = _rows(ab_bench.compare(change, parent, METRICS))["wall_s"]
    assert wall["wins"] == 10 and not wall["worse"]


def test_higher_is_better_and_nulls(ab_bench):
    parent = [_line(0.1, valid_share=1.0, gmean=None) for _ in range(4)]
    change = [_line(0.1, valid_share=0.8, gmean=None) for _ in range(4)]
    rows = _rows(ab_bench.compare(parent, change, METRICS))
    assert rows["valid_share"]["ratio"] == pytest.approx(0.8)
    assert rows["valid_share"]["worse"]
    gmean = rows["parallel_print_s_gmean"]
    assert gmean["parent"] is None and gmean["ratio"] is None
    assert gmean["nulls"] == (4, 4) and not gmean["worse"]
    # Null in the change only: the change lost its valid results.
    rows = _rows(ab_bench.compare([_line(0.1)] * 4, change, METRICS))
    assert rows["parallel_print_s_gmean"]["worse"]
    # More nulls in the change than in the parent is worse too.
    parent = [_line(0.1, gmean=None)] + [_line(0.1)] * 9
    change = [_line(0.1, gmean=None)] * 10
    gmean = _rows(ab_bench.compare(parent, change, METRICS))["parallel_print_s_gmean"]
    assert gmean["nulls"] == (1, 10) and gmean["ratio"] is None
    assert gmean["worse"]
    # Fewer nulls in the change is not.
    gmean = _rows(ab_bench.compare(change, parent, METRICS))["parallel_print_s_gmean"]
    assert not gmean["worse"]


def test_failed_share_and_report(ab_bench):
    result = ab_bench.compare([_line(0.1, failed=1)] * 2, [_line(0.1)] * 2,
                              METRICS)
    assert result["failed_share"] == {"parent": 0.1, "change": 0.0}
    text = ab_bench.report(result)
    assert "wall_s" in text and "failed/attempted: parent 0.1000" in text
