"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from e2e.compare import verdict
from e2e.schedule import Pace, Schedule, Timeline
from e2e.stats import percentile, slo_search, summarize, supported_percentile
from e2e.trace import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
        (100000, 99.99),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert supported_percentile(n) == expected

    def test_order_statistic_is_inverted_cdf(self):
        ordered = list(range(1, 1001))
        assert percentile(ordered, 5000) == 500
        assert percentile(ordered, 9900) == 990
        assert math.isnan(percentile([], 9900))

    def test_summary_reports_sample_count(self):
        summary = summarize([3.0, 1.0, 2.0] * 10)
        assert summary["n"] == 30
        assert summary["p50"] == 2.0
        assert summary["supported"] == 50.0


def _events(seed, count, **kwargs):
    timeline = Timeline(Schedule(seed, 4.4, 100.0, **kwargs))
    out = []
    for _ in range(count):
        kind, flow, t = timeline.pop()
        if kind == "arrive" and flow % 3:
            timeline.admitted(flow)
        out.append((kind, flow, t))
    return out


class TestSchedule:
    def test_same_seed_same_events(self):
        assert _events(7, 5000) == _events(7, 5000)
        assert _events(7, 500) != _events(8, 500)

    def test_flows_do_not_depend_on_consumption_pattern(self):
        a = Schedule(3, 4.4, 100.0, mix={"x": 0.3, "y": 0.7})
        b = Schedule(3, 4.4, 100.0, mix={"x": 0.3, "y": 0.7})
        late = [(b.arrival(i), b.hold(i), b.flow_class(i))
                for i in range(9000, 9010)]
        assert [(a.arrival(i), a.hold(i), a.flow_class(i))
                for i in range(9010)][9000:] == late

    def test_rate_rescales_only_wall_clock_time(self):
        events = _events(5, 2000)
        sim = [t for _, _, t in events]
        slow = Pace(4.4, 1000.0, wall_start=10.0, sim_start=sim[0])
        fast = Pace(4.4, 4000.0, wall_start=10.0, sim_start=sim[0])
        for t in sim:
            assert math.isclose(slow.due(t) - 10.0, 4 * (fast.due(t) - 10.0),
                                rel_tol=1e-12, abs_tol=1e-12)
        # One unit of simulated time carries lam decisions at every rate.
        assert math.isclose(fast.due(sim[0] + 1.0) - 10.0, 4.4 / 4000.0)

    def test_bursts_cover_every_arrival_once(self):
        timeline = Timeline(Schedule(1, 5.0, 500.0, mix={"a": 0.5, "b": 0.5}),
                            window=12.8)
        seen = []
        for _ in range(50):
            _, (arrivals, departures), end = timeline.pop()
            assert not departures
            for flows in arrivals.values():
                seen.extend(flows)
                assert all(timeline.schedule.arrival(f) <= end for f in flows)
        assert sorted(seen) == list(range(len(seen)))

    def test_departures_follow_admission(self):
        timeline = Timeline(Schedule(2, 4.4, 100.0))
        kind, flow, t0 = timeline.pop()
        timeline.admitted(flow)
        departures = []
        while len(departures) < 1:
            kind, other, t = timeline.pop()
            assert t >= t0
            if kind == "depart":
                departures.append((other, t))
        schedule = timeline.schedule
        assert departures == [(flow, schedule.arrival(flow) + schedule.hold(flow))]


class TestSelfTime:
    def test_nested_sync_spans(self):
        # root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        start = [0, 10, 15, 50]
        end = [100, 40, 25, 90]
        parent = [-1, 0, 1, 0]
        assert list(self_times(start, end, parent)) == [30, 20, 10, 40]

    def test_overlapping_children_count_once(self):
        # Concurrent awaits: children [10,60) and [30,80) cover [10,80).
        start = [0, 10, 30, 200]
        end = [100, 60, 80, 250]
        parent = [-1, 0, 0, -1]
        assert list(self_times(start, end, parent)) == [30, 50, 50, 50]

    def test_children_are_clipped_to_their_parent(self):
        start = [0, 90]
        end = [100, 150]
        parent = [-1, 0]
        assert list(self_times(start, end, parent)) == [90, 60]

    def test_tracer_self_times_partition_the_root(self):
        tracer = Tracer()
        tracer.enabled = True

        def leaf():
            time.sleep(0.002)

        inner = tracer.wrap(leaf, "core.x:leaf")
        with tracer.span("bench:request", 7):
            inner()
            inner()
        totals = tracer.totals()
        root = totals["bench:request"]
        assert totals["core.x:leaf"]["calls"] == 2
        assert root["self_ns"] + totals["core.x:leaf"]["self_ns"] == \
            pytest.approx(root["total_ns"])
        assert set(np.frombuffer(tracer.request, dtype=np.int64)) == {7}


class TestSloSearch:
    @staticmethod
    def _p99_ms(rate, capacity=5000.0):
        """A fake p99 curve: M/M/1-like growth towards ``capacity``."""
        return math.inf if rate >= capacity else 2.0 / (1.0 - rate / capacity)

    def test_finds_the_knee_within_the_final_bracket(self):
        tried = []

        async def probe(rate):
            tried.append(rate)
            return self._p99_ms(rate) <= 20.0

        rate, history = asyncio.run(slo_search(probe, 2000.0, 6000.0, 5))
        knee = 5000.0 * (1 - 2.0 / 20.0)
        assert rate <= knee
        resolution = (6000.0 / 2000.0) ** (1 / 2 ** 5)
        assert rate * resolution > knee
        assert [r for r, _ in history] == tried and len(tried) == 5

    def test_all_probes_failing_returns_the_floor(self):
        async def probe(rate):
            return False

        rate, history = asyncio.run(slo_search(probe, 100.0, 400.0, 3))
        assert rate == 100.0
        assert [passed for _, passed in history] == [False] * 3


class TestVerdict:
    def test_same_distribution_is_unchanged(self):
        runs = {s: 100.0 + s % 3 for s in range(10)}
        assert verdict(runs, dict(runs), "higher", 0.1)["verdict"] == \
            "unchanged"

    def test_consistent_gain_is_improved(self):
        parent = {s: 100.0 + s % 3 for s in range(10)}
        change = {s: 110.0 + s % 3 for s in range(10)}
        assert verdict(parent, change, "higher", 0.1)["verdict"] == "improved"
        assert verdict(change, parent, "lower", 0.1)["verdict"] == "improved"

    def test_worse_beyond_bound_is_regressed(self):
        parent = {s: 100.0 + s % 3 for s in range(10)}
        change = {s: 80.0 + s % 3 for s in range(10)}
        assert verdict(parent, change, "higher", 0.1)["verdict"] == \
            "regressed"

    def test_wide_spread_is_unresolved(self):
        parent = {s: 100.0 + 30 * (s % 2) for s in range(10)}
        change = {s: 95.0 + 30 * (s % 2) for s in range(10)}
        assert verdict(parent, change, "higher", 0.1)["verdict"] == \
            "unresolved"


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, section):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed <= 20.0, f"smoke run took {elapsed:.1f}s"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = _declared(section)
    for workload in ("gateway-nearcap", "served-single",
                     "served-burst-classed", "cluster-replicated"):
        for name, unit in declared.items():
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert math.isfinite(metric["value"])
