"""Unit tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ScriptedClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # bench [0, 10] > a [1, 7] > b [2, 3], b [4, 6]; then c [8, 9]
    tracer = harness.Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 6, 7, 8, 9, 10))
    tracer.enter("bench")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"bench": 3, "a": 3, "b": 3, "c": 1}
    assert tracer.total_s["a"] == 6 and tracer.calls["b"] == 2
    assert sum(tracer.self_s.values()) == tracer.total_s["bench"]
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    names = {span_id: name for span_id, _, name, *_ in tracer.spans}
    assert {names[s]: names.get(p) for s, p in parents.items()} == {
        "b": "a", "a": "bench", "c": "bench", "bench": None,
    }


def test_tracer_keeps_a_bounded_span_list_but_counts_every_span():
    tracer = harness.Tracer(clock=ScriptedClock(*range(6)), keep=2)
    for _ in range(3):
        tracer.enter("x")
        tracer.exit()
    assert len(tracer.spans) == 2 and tracer.dropped == 1 and tracer.calls["x"] == 3


def test_tracer_knows_which_spans_are_open():
    tracer = harness.Tracer(clock=ScriptedClock(0, 1, 2, 3))
    tracer.enter("outer")
    tracer.enter("inner")
    assert tracer.inside("outer") and tracer.inside("inner")
    tracer.exit()
    assert tracer.inside("outer") and not tracer.inside("inner")
    tracer.exit()
    assert not tracer.inside("outer")


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(range(1, 101)) == (90.0, 90, 10)
    assert harness.tail(range(1, 100)) == (50.0, 50, 49)
    assert harness.tail(range(1, 1001)) == (99.0, 990, 10)
    assert harness.tail(range(1, 10000)) == (99.0, 9900, 99)
    assert harness.tail(range(1, 10001)) == (99.9, 9990, 10)
    assert harness.tail(range(1, 200001)) == (99.9, 199800, 200)
    assert harness.tail([5.0] * 19) == (100.0, 5.0, 0)


def test_tail_ignores_input_order():
    values = [3.0, 1.0, 2.0] * 40
    assert harness.tail(values) == harness.tail(sorted(values))


def test_median_is_the_nearest_rank_p50():
    assert harness.median([4, 1, 3, 2]) == 2
    assert harness.median([4, 1, 3, 2, 5]) == 3


def test_tally_counts_failures_against_attempts():
    tally = harness.Tally()
    assert tally.fail_ratio == 0.0
    for problem in (None, "wrong", None, "wrong", "raised ValueError"):
        tally.record(problem)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.fail_ratio == 3 / 5
    assert tally.problems == {"wrong": 2, "raised ValueError": 1}


def test_pacer_subtracts_samples_inside_and_scales_by_the_nearby_ones():
    pacer = harness.Pacer(nominal_s=2.0)
    for at, took in ((0, 1), (10, 2), (20, 4), (30, 3)):
        pacer.record_sample(at, took)
    # no sample inside: the one before and the one after set the pace
    assert pacer.interval(3, 5) == (pytest.approx(2 * 2 / 1.5), 2)
    # samples at 10 and 20 are inside: 20 s less their 6 s, paced by all four
    scaled, raw = pacer.interval(5, 25)
    assert raw == 14 and scaled == pytest.approx(14 * 2 / 2.5)
    pacer.add(3, 5)
    pacer.add(5, 25)
    assert pacer.times() == ([pytest.approx(2 * 2 / 1.5), scaled], [2, 14])


def test_pacer_needs_a_sample():
    with pytest.raises(ValueError):
        harness.Pacer().interval(0, 1)


def test_pacer_samples_while_on_and_stops_after():
    with harness.Pacer(every_s=0.002) as pacer:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
    taken = len(pacer.took)
    assert taken >= 5 and all(took > 0 for took in pacer.took)
    start = time.perf_counter()
    while time.perf_counter() - start < 0.02:
        pass
    assert len(pacer.took) == taken


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = [(name, unit) for name, unit, *_ in layers.PER_LAYER] + [("tracing_overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == reported
