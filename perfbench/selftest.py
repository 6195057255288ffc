"""Tests of the benchmark's own machinery (not of the system it measures).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The file name does not match pytest's ``test_*.py`` pattern on purpose: the
repository's tier-1 ``pytest`` run never collects it.
"""

import fnmatch
import json
import re
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import run
import workloads
from repro.api import SourceSpec
from repro.obs import CacheStats, Span, Trace

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, children=(), **attributes):
    node = Span(name, attributes, start_s=start)
    node.children.extend(children)
    return node.finish(end_s=end)


# ---------------------------------------------------------------------- #
# the open loop
# ---------------------------------------------------------------------- #
def test_open_schedule_is_reproducible_from_the_seed():
    due, kernels = workloads.open_schedule(7, 500, 40.0, 24)
    again_due, again_kernels = workloads.open_schedule(7, 500, 40.0, 24)
    other_due, _ = workloads.open_schedule(8, 500, 40.0, 24)
    np.testing.assert_array_equal(due, again_due)
    np.testing.assert_array_equal(kernels, again_kernels)
    assert not np.array_equal(due, other_due)
    assert due[0] >= 0.0 and np.all(np.diff(due) >= 0)
    assert kernels.min() >= 0 and kernels.max() < 24
    # 500 arrivals at 40/s fill 12.5 s, with exponential gaps (mean 25 ms)
    assert 12.0 < due[-1] < 12.5
    assert np.mean(np.diff(due)) == pytest.approx(0.025, rel=0.05)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_counts_latency_from_the_due_time():
    clock = FakeClock()
    stall_s = {0: 0.5, 1: 0.0, 2: 0.0}

    def submit(request):
        # request 0 stalls the sender for 0.5 s, so request 1 (due at
        # 0.1 s) goes out 0.4 s late; its latency must include that wait
        clock.now += stall_s[request]
        future = Future()
        future.set_result(request * 10.0)
        return future

    calls = run.open_loop(submit, [0, 1, 2], [0.0, 0.1, 0.7],
                          lambda request, value: value == request * 10.0,
                          clock=clock, sleep=clock.sleep)
    assert calls.latencies_s() == pytest.approx([0.5, 0.4, 0.0])
    assert calls.lag == pytest.approx([0.0, 0.4, 0.0])
    assert calls.ok == [True, True, True]


def test_open_loop_counts_refused_and_wrong_answers_as_failed():
    clock = FakeClock()

    def submit(request):
        if request == 1:
            raise RuntimeError("refused")
        future = Future()
        future.set_result(float(request))
        return future

    calls = run.open_loop(submit, [0, 1, 2], [0.0, 0.1, 0.2],
                          lambda request, value: request == 0,
                          clock=clock, sleep=clock.sleep)
    assert calls.ok == [True, False, False]
    assert (calls.attempted, calls.failed) == (3, 2)
    summary = calls.summary(slo_s=0.1)
    assert summary["slo_ok_share"] == pytest.approx(1 / 3)


def test_closed_loop_times_the_call_and_not_the_check():
    clock = FakeClock()

    def call(job):
        clock.now += 0.25
        return len(job)

    def check(index, result):
        clock.now += 1.0
        return index != 1

    calls = run.closed_loop(call, [[1], [1, 2], [3]], check, clock=clock)
    assert calls.latencies_s() == pytest.approx([0.25, 0.25, 0.25])
    assert calls.ok == [True, False, True]
    summary = calls.summary(slo_s=1.0)
    # a closed loop's rate: kernels answered correctly per second waited
    assert summary["rps"] == pytest.approx(2 / 0.75)


# ---------------------------------------------------------------------- #
# host-speed adjustment
# ---------------------------------------------------------------------- #
def test_each_latency_is_scaled_by_the_probes_around_it():
    speed = hostspeed.HostSpeed()
    # the host halves its speed at t = 10 s
    speed.at = [float(t) for t in range(20)]
    speed.took = [0.005] * 10 + [0.010] * 10
    reference = hostspeed.REFERENCE_PROBE_S
    np.testing.assert_allclose(speed.probe_s([2.5, 17.5, -1.0, 99.0]),
                               [0.005, 0.010, 0.005, 0.010])
    # around the step, the window's median: four probes each side
    assert speed.probe_s([9.5])[0] == pytest.approx(0.0075)
    assert speed.adjust([0.1, 0.2], [2.5, 17.5]) == pytest.approx(
        [0.1 * reference / 0.005, 0.2 * reference / 0.010])
    # time on a timer is kept, only the rest is scaled
    assert speed.adjust([0.001, 0.2], [2.5, 17.5], timer_s=0.002) == \
        pytest.approx([0.001, 0.002 + 0.198 * reference / 0.010])
    with pytest.raises(ValueError):
        hostspeed.HostSpeed().probe_s([0.0])


def fake_probe(clock, took=0.01):
    def load():
        clock.now += took
    return hostspeed.HostSpeed(clock=clock, load=load)


def test_the_closed_loop_probes_between_calls_and_not_inside_them():
    clock = FakeClock()

    def call(job):
        clock.now += 0.25
        return len(job)

    speed = fake_probe(clock, took=0.01)
    calls = run.closed_loop(call, [[1], [1, 2], [3]], lambda i, r: True,
                            clock=clock, speed=speed)
    assert calls.latencies_s() == pytest.approx([0.25, 0.25, 0.25])
    assert speed.took == pytest.approx([0.01] * 4)
    summary = calls.summary(slo_s=1.0)
    scale = hostspeed.REFERENCE_PROBE_S / 0.01
    assert summary["p50_ms"] == pytest.approx(250.0)
    assert summary["p50_adj_ms"] == pytest.approx(250.0 * scale)
    assert summary["rps_adj"] == pytest.approx(4 / (0.75 * scale))


def test_the_open_loop_probes_only_before_and_after_its_requests():
    clock = FakeClock()
    sent_at = []

    def submit(request):
        sent_at.append(clock.now)
        future = Future()
        future.set_result(float(request))
        return future

    speed = fake_probe(clock, took=0.01)
    calls = run.open_loop(submit, [0, 1, 2], [0.0, 0.5, 0.56],
                          lambda request, value: value == request,
                          clock=clock, sleep=clock.sleep, speed=speed)
    assert calls.ok == [True, True, True]
    assert len(speed.took) == 2 * run.PROBE_BURST
    assert max(speed.at[:run.PROBE_BURST]) < min(sent_at)
    assert min(speed.at[run.PROBE_BURST:]) > max(sent_at)
    assert calls.lag == pytest.approx([0.0, 0.0, 0.0])
    # the schedule sets the open loop's length: its rate is not scaled
    summary = calls.summary(slo_s=0.1)
    assert summary["rps_adj"] == summary["rps"]


def test_the_probe_is_deterministic_work():
    assert hostspeed.reference_load() == hostspeed.reference_load()


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children():
    grandchild = span("g", 2.0, 3.0)
    first = span("a", 1.0, 4.0, [grandchild])
    second = span("b", 3.0, 6.0)            # overlaps a by one second
    leaking = span("c", 9.0, 12.0)          # only [9, 10] is inside root
    root = span("root", 0.0, 10.0, [first, second, leaking])
    assert layers.self_time_s(root) == pytest.approx(10.0 - 5.0 - 1.0)
    assert layers.self_time_s(first) == pytest.approx(2.0)
    assert layers.self_time_s(grandchild) == pytest.approx(1.0)
    assert layers.covered_s([], 0.0, 1.0) == 0.0


def test_a_shared_execute_span_counts_once():
    execute = span("serve.execute", 1.0, 2.0)
    traces = [Trace(f"t{i}", span("serve.request", 0.0, 3.0, [execute]))
              for i in range(3)]
    names = [node.name for node, _ in layers.walk_distinct(traces)]
    assert names.count("serve.execute") == 1
    assert names.count("serve.request") == 3


def test_queue_wait_of_queued_and_inline_requests():
    queued = span("serve.request", 0.0, 1.0, [
        span("serve.submit", 0.0, 0.1), span("serve.queue", 0.1, 0.4),
        span("serve.execute", 0.4, 1.0)])
    inline = span("serve.request", 0.0, 1.0, [
        span("serve.submit", 0.0, 0.1), span("serve.encode", 0.15, 0.5),
        span("stage.PredictStage", 0.5, 1.0)])
    assert layers.queue_wait_s(queued) == pytest.approx(0.3)
    assert layers.queue_wait_s(inline) == pytest.approx(0.05)


def test_span_metrics_are_per_kernel_medians_in_ms():
    def request(start):
        parse = span("stage.ParseStage", start + 0.1, start + 0.3)
        encode = span("serve.encode", start + 0.1, start + 0.4, [parse],
                      batch_size=2)
        conv = span("gnn.conv.0", start + 0.5, start + 0.7)
        forward = span("engine.forward", start + 0.5, start + 0.8, [conv],
                       num_graphs=2)
        return Trace("t", span("serve.request", start, start + 1.0, [
            span("serve.submit", start, start + 0.1), encode, forward]))

    metrics = layers.span_metrics([request(0.0), request(5.0)], [])
    assert metrics["clang.parse_ms"] == pytest.approx(100.0)   # 0.2 s / 2
    assert metrics["api.encode_ms"] == pytest.approx(100.0)
    assert metrics["gnn.forward_ms"] == pytest.approx(300.0)
    assert metrics["gnn.head_ms"] == pytest.approx(100.0)
    assert metrics["gnn.conv.0_ms"] == pytest.approx(200.0)
    assert metrics["serve.batch_size.mean"] == pytest.approx(2.0)


# ---------------------------------------------------------------------- #
# cache deltas
# ---------------------------------------------------------------------- #
def test_hit_share_uses_before_after_deltas():
    before = CacheStats("edge-layout", hits=10, misses=5, evictions=0,
                        size=3, capacity=8)
    after = CacheStats("edge-layout", hits=13, misses=6, evictions=0,
                       size=4, capacity=8)
    assert layers.hit_share(before, after) == pytest.approx(0.75)
    assert layers.hit_share(after, after) == 0.0


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def spec(length, tag=""):
    return SourceSpec(source=tag + "x" * (length - len(tag)))


def test_select_by_size_takes_the_nearest_distinct_kernels():
    pool = [spec(100), spec(210), spec(190, "a"), spec(190, "b"), spec(500)]
    chosen = workloads.select_by_size(pool, [200, 180, 480])
    assert [len(item.source) for item in chosen] == [210, 190, 500]
    twice = workloads.select_by_size(pool, [190, 190])
    assert len({item.source for item in twice}) == 2
    with pytest.raises(ValueError):
        workloads.select_by_size(pool[:1], [100, 100])


def test_inputs_digest_changes_with_any_input():
    first = workloads.inputs_digest([spec(10)], np.arange(3.0))
    assert first == workloads.inputs_digest([spec(10)], np.arange(3.0))
    assert first != workloads.inputs_digest([spec(11)], np.arange(3.0))
    assert first != workloads.inputs_digest([spec(10)], np.arange(4.0))


# ---------------------------------------------------------------------- #
# the contract
# ---------------------------------------------------------------------- #
def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_every_name_is_well_formed_and_used_once():
    benchmark = benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark[key]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert {w["name"] for w in benchmark["workloads"]} <= set(run.WORKLOADS)
    end_to_end = {e["name"] for e in benchmark["end_to_end"]}
    assert "setup_s" in end_to_end
    assert not end_to_end & set(run.UNGATED_UNITS)


def test_the_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "warm-jobs", "--seed", "1",
                     "--seconds", "1"]) == 2


def test_nothing_here_joins_the_tier1_test_run():
    for path in HERE.rglob("*.py"):
        assert not fnmatch.fnmatch(path.name, "test_*.py"), path
        assert not fnmatch.fnmatch(path.name, "*_test.py"), path
        assert path.name != "conftest.py", path
