"""Tests of the benchmark's metric math; no tier is spawned.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from layers import Tracer  # noqa: E402
from metrics import (  # noqa: E402
    check_result, count_mismatches, history_slowdown, imbalance,
    makespan_efficiency, parse_proc_stat, parse_proc_status, percentile,
    self_time,
)

from repro.engine.results import ScenarioResult  # noqa: E402


# -- percentiles ---------------------------------------------------------------

def test_percentile_returns_value_and_sample_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50.0, 100)
    assert percentile(values, 99) == (99.0, 100)
    assert percentile(values, 100) == (100.0, 100)
    assert percentile([7.0], 99) == (7.0, 1)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == (3.0, 5)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- /proc parsing -----------------------------------------------------------

def test_proc_stat_counts_fields_after_the_last_paren():
    line = ("4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 900 0 3 0 "
            "157 42 0 0 20 0 3 0 1000 123456 789 18446744073709551615")
    assert parse_proc_stat(line) == (157, 42)


def test_proc_stat_of_this_process():
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("no /proc on this platform")
    with open("/proc/self/stat") as fh:
        utime, stime = parse_proc_stat(fh.read())
    assert utime >= 0 and stime >= 0


def test_proc_status_reads_vm_sizes_in_kb():
    text = ("Name:\tpython3\nState:\tS (sleeping)\nVmPeak:\t  300000 kB\n"
            "VmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\nThreads:\t3\n")
    sizes = parse_proc_status(text)
    assert sizes == {"VmPeak": 300000, "VmHWM": 51200, "VmRSS": 40960}


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # children overlap (1-3, 2-5) and stick out of the span (9-12)
    children = [(1, 3), (2, 5), (7, 8), (9, 12)]
    assert self_time((0, 10), children) == pytest.approx(4.0)
    assert self_time((0, 10), []) == 10.0
    assert self_time((0, 10), [(11, 12)]) == 10.0


def test_tracer_run_spec_overhead_is_span_self_time():
    tracer = Tracer()
    tracer.spans = [
        ("run_spec", 0.0, 1.0, -1),
        ("scenario.E1", 0.25, 0.75, 0),
        ("run_spec", 2.0, 2.5, -1),
        ("scenario.E2", 2.1, 2.4, 2),
    ]
    assert tracer.run_spec_overheads() == pytest.approx([0.5, 0.2])
    assert tracer.scenario_walls() == {"E1": [0.5], "E2": [pytest.approx(0.3)]}


def test_tracer_counts_a_scenario_and_restores_the_program():
    from repro.engine import executor, registry
    from repro.tlm.quantum import QuantumKeeper

    registry.load_all()
    original_sync = QuantumKeeper.__dict__["sync"]
    original_run_spec = executor.run_spec
    original_fn = registry.get("A5").fn
    with Tracer() as tracer:
        result = executor.run_spec(registry.get("A5").spec)
    assert result.ok
    assert tracer.counts["tlm.syncs"] > 0
    assert tracer.counts["sim.events"] > 0
    assert tracer.scenario_walls()["A5"]
    assert QuantumKeeper.__dict__["sync"] is original_sync
    assert executor.run_spec is original_run_spec
    assert registry.get("A5").fn is original_fn


# -- cluster figures ---------------------------------------------------------

def test_makespan_efficiency_uses_the_larger_lower_bound():
    # one long spec dominates: bound is the longest spec (4s)
    assert makespan_efficiency([4, 1, 1], 2, 5.0) == pytest.approx(0.8)
    # evenly divisible work reaches the perfect split
    assert makespan_efficiency([1, 1, 1, 1], 2, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        makespan_efficiency([], 2, 1.0)


def test_history_slowdown_is_last_over_first():
    assert history_slowdown([2.0, 3.0, 4.0]) == pytest.approx(2.0)
    assert history_slowdown([2.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        history_slowdown([1.0])


def test_imbalance_is_max_over_mean():
    assert imbalance([1.0, 1.0]) == 1.0
    assert imbalance([3.0, 1.0]) == pytest.approx(1.5)


# -- correctness gate --------------------------------------------------------

def _result(**overrides) -> ScenarioResult:
    fields = dict(
        name="A4", spec_hash="abc", status="ok",
        verdict={"anneal_beats_greedy": True, "random_is_best": False},
        expected_false=("random_is_best",),
        rows=[{"mapper": "anneal", "makespan": 17258.6, "map_time_ms": 164.9},
              {"mapper": "greedy", "makespan": 24271.0, "map_time_ms": 0.2}],
    )
    fields.update(overrides)
    return ScenarioResult(**fields)


def test_gate_passes_an_identical_result():
    assert check_result(_result(), _result()) is None


def test_gate_trips_on_a_corrupted_row():
    corrupted = _result()
    corrupted.rows[0]["makespan"] = 17258.7
    assert "rows differ" in check_result(corrupted, _result())


def test_gate_trips_on_a_missing_row():
    assert check_result(_result(rows=_result().rows[:1]), _result())


def test_gate_ignores_host_timed_columns_only():
    retimed = _result()
    retimed.rows[0]["map_time_ms"] = 175.2
    assert check_result(retimed, _result()) is None


def test_gate_compares_tuples_and_lists_alike():
    wire = _result(rows=[{"path": [1, 2]}])
    local = _result(rows=[{"path": (1, 2)}])
    assert check_result(wire, local) is None


def test_gate_checks_verdicts_except_negative_controls():
    assert check_result(_result()) is None
    broken = _result(verdict={"anneal_beats_greedy": False,
                              "random_is_best": False})
    assert "anneal_beats_greedy" in check_result(broken)


def test_gate_trips_on_failed_status_and_foreign_reference():
    assert "status error" in check_result(_result(status="error"))
    assert "another spec" in check_result(_result(),
                                          _result(spec_hash="def"))


def test_count_mismatches_names_counters_that_moved():
    same = {"sim.events": 10, "noc.packets": 5}
    assert count_mismatches([same, dict(same)]) == []
    moved = {"sim.events": 11, "noc.packets": 5}
    assert count_mismatches([same, moved]) == ["sim.events"]
    assert count_mismatches([]) == []
