"""End-to-end admission benchmark: four workloads, one command.

Usage::

    python3 benchmarks/e2e/run.py --seed 0                   # all workloads
    python3 benchmarks/e2e/run.py --workload served-single --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload gateway-nearcap --trace 1 \\
        --out spans/                                         # per-layer run
    python3 benchmarks/e2e/run.py --smoke                    # ~20 s check

An untraced run (``--trace 0``) measures the end-to-end metrics; a traced
run (``--trace 1``) measures the per-layer metrics.  Each run prints a
report, then as its last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when a correctness
check fails or a fixed-rate phase stays invalid.  See README.md for the
metric dictionary and the workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import gc
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
RESULTS = BENCH_DIR / "results.jsonl"

#: ``name: (unit, better, meaning)`` of every end-to-end metric.
END_TO_END = {
    "setup_s": ("s", "lower", "median time to bring the system up"),
    "sat_dps": ("1/s", "higher", "decisions/s in the closed-loop phase"),
    "call_p50_us": ("us", "lower", "median call time in the closed loop"),
    "call_p99_us": ("us", "lower", "p99 call time in the closed loop"),
    "lat_p50_ms.low": ("ms", "lower", "median latency from due, low rate"),
    "lat_p99_ms.low": ("ms", "lower", "p99 latency from due, low rate"),
    "lat_p50_ms.high": ("ms", "lower", "median latency from due, high rate"),
    "lat_p99_ms.high": ("ms", "lower", "p99 latency from due, high rate"),
    "slo_rate_dps": ("1/s", "higher", "highest rate meeting the SLO"),
    "failed_frac": ("ratio", "lower", "failed over attempted operations"),
    "overflow_frac": ("ratio", "lower", "measured p_f over the timed phases"),
    "utilization": ("ratio", "higher", "mean link utilization, timed phases"),
    "peak_rss_mb": ("MiB", "lower", "peak RSS of the processes under test"),
}

#: ``name: (unit, meaning)`` of every per-layer metric.
PER_LAYER = {
    "core.controllers.us_per_decision": ("us", "controller self time"),
    "core.controllers.calls_per_decision": ("count", "target evaluations"),
    "core.estimators.us_per_decision": ("us", "estimator self time"),
    "runtime.feed.us_per_decision": ("us", "measurement feed self time"),
    "runtime.link.us_per_decision": ("us", "link self time"),
    "runtime.link.ticks_per_decision": ("count", "link ticks"),
    "runtime.link.decisions_per_call": ("count", "decisions per link admit"),
    "runtime.gateway.us_per_decision": ("us", "gateway + placement self"),
    "runtime.gateway.decisions_per_call": ("count", "per gateway admit"),
    "runtime.gateway.failovers": ("count", "quarantine failovers"),
    "service.protocol.encode_us_per_frame": ("us", "frame encode time"),
    "service.protocol.decode_us_per_frame": ("us", "frame decode time"),
    "service.protocol.bytes_per_decision": ("B", "wire bytes encoded"),
    "service.protocol.frames_per_decision": ("count", "request frames"),
    "service.protocol.json_fallback_frac": ("ratio", "frames off v2"),
    "service.server.cpu_us_per_decision": ("us", "server process CPU"),
    "service.server.self_us_per_decision": ("us", "server CPU not traced"),
    "service.server.request_latency_p99_ms": ("ms", "server histogram p99"),
    "service.server.coalesced_frac": ("ratio", "requests coalesced"),
    "service.server.decisions_per_gateway_call": ("count", "from counters"),
    "service.server.digest_us_per_decision": ("us", "decision digest time"),
    "service.server.shed": ("count", "requests shed"),
    "service.server.timeouts": ("count", "requests timed out"),
    "service.client.rtt_p50_ms": ("ms", "client call round trip"),
    "service.client.rtt_p99_ms": ("ms", "client call round trip"),
    "service.client.inflight_mean": ("count", "requests in flight"),
    "service.client.retried": ("count", "client retries"),
    "service.replication.supervisor_us_per_decision": ("us", "routing self"),
    "service.replication.follower_wakeups_per_decision": ("count", "wakes"),
    "service.replication.leader_cpu_us_per_decision": ("us", "leader CPU"),
    "service.replication.follower_cpu_us_per_decision": ("us", "follower"),
    "bench.gen_lag_p99_ms": ("ms", "generator lateness"),
    "bench.cpu_frac": ("ratio", "bench process CPU over wall"),
    "bench.trace_overhead": ("ratio", "untraced over traced sat_dps - 1"),
}


class Settings:
    """Run-length knobs derived from ``--seconds`` and ``--smoke``.

    Three fifths of the measured time go to ``rounds`` rounds of one
    low, one high and one saturation window each, so the phases see the
    same stretches of machine time; throughput is the median over rounds
    and latency percentiles pool the rounds' samples.  The saturation
    window gets half of each round: its throughput is the one timing the
    benchmark declares.  The rest of the time goes to the SLO probes.
    """

    def __init__(self, seconds: float, smoke: bool) -> None:
        self.smoke = smoke
        self.rounds = 1 if smoke else 4
        round_seconds = 0.6 * seconds / self.rounds
        self.open_window = 0.25 * round_seconds
        self.sat_window = 0.5 * round_seconds
        self.probes = 2 if smoke else 4
        self.probe = 0.4 * seconds / self.probes
        #: Length of each phase of a traced run.
        self.traced_phase = 0.2 * seconds
        #: Warm-up length in holding times of simulated time.
        self.warm_holds = 1.0 if smoke else 3.0
        #: Extra attempts for a fixed-rate window that came out invalid.
        self.retries = 0 if smoke else 2

    def setups(self, workload) -> int:
        return 1 if self.smoke else workload.setups


def _setup_path() -> None:
    """Import ``repro`` from this checkout's ``src`` and ``e2e`` from here."""
    here = str(BENCH_DIR)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for entry in (str(BENCH_DIR.parent), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import repro from {ROOT / 'src'}: "
                         f"{exc}") from None
    origin = Path(repro.__file__).resolve().parent.parent
    if origin != (ROOT / "src").resolve():
        raise SystemExit(f"error: imported repro from {origin}, not from "
                         f"{ROOT / 'src'}")


def _link_window(before: list[dict], after: list[dict]) -> tuple[float, float]:
    """``(utilization, overflow fraction)`` between two sets of snapshots."""
    observed = used = overload = 0.0
    for snap0, snap1 in zip(before, after):
        for name, link1 in snap1["links"].items():
            link0 = snap0["links"][name]
            observed += link1["observed_time"] - link0["observed_time"]
            used += (link1["mean_utilization"] * link1["observed_time"]
                     - link0["mean_utilization"] * link0["observed_time"])
            overload += link1["overload_time"] - link0["overload_time"]
    if observed <= 0:
        return math.nan, math.nan
    return used / observed, overload / observed


def _counter_delta(before, after, suffix: str) -> float:
    total = 0.0
    for snap0, snap1 in zip(before, after):
        for name, value in snap1["counters"].items():
            if name.endswith(suffix):
                total += value - snap0["counters"].get(name, 0)
    return total


def _histogram_count_delta(before, after, name: str) -> float:
    return sum(
        snap1["histograms"][name]["count"] - snap0["histograms"][name]["count"]
        for snap0, snap1 in zip(before, after)
        if name in snap1["histograms"]
    )


def _cpu(workload) -> dict[str, float]:
    from e2e.workloads import proc_cpu_s

    return {
        role: sum(proc_cpu_s(pid) for pid in pids)
        for role, pids in workload.processes().items()
    }


def _follower_wakeups(workload) -> float:
    from e2e.workloads import proc_wakeups

    return sum(proc_wakeups(pid)
               for pid in workload.processes().get("follower", ()))


async def _fixed_rate(workload, name: str, rate: float, settings) -> object:
    from e2e.phases import PhaseRecord, open_loop

    retried = []
    for attempt in range(settings.retries + 1):
        rec = PhaseRecord(name, rate)
        await open_loop(workload, rec, settings.open_window)
        problems = rec.problems()
        if not problems:
            break
        retried.extend(problems)
    rec.retried = retried
    return rec


def _median(records, value) -> float:
    return statistics.median(value(rec) for rec in records)


async def _timed_phases(workload, settings, report) -> dict:
    """The untraced run: rounds of low, high and sat, then the SLO search."""
    from e2e.phases import PhaseRecord, closed_loop, open_loop
    from e2e.stats import slo_search, summarize
    from e2e.workloads import proc_hwm_mb

    before = await workload.snapshots()
    lows, highs, sats = [], [], []
    for _ in range(settings.rounds):
        lows.append(await _fixed_rate(workload, "low", workload.rates[0],
                                      settings))
        highs.append(await _fixed_rate(workload, "high", workload.rates[1],
                                       settings))
        sat = PhaseRecord("sat")
        await closed_loop(workload, sat, settings.sat_window)
        sats.append(sat)
    probes = []

    async def probe(rate: float) -> bool:
        rec = PhaseRecord(f"probe@{rate:.0f}", rate)
        await open_loop(workload, rec, settings.probe)
        probes.append(rec)
        return rec.meets_slo()

    # The search brackets are pinned rates, not measured ones, so the
    # probed rates do not inherit the noise of another phase.
    if all(rec.meets_slo() for rec in highs):
        floor = workload.rates[1]
    elif all(rec.meets_slo() for rec in lows):
        floor = workload.rates[0]
    else:
        floor = workload.rates[0] / 4.0
    slo_rate, _ = await slo_search(probe, floor, workload.rates[2],
                                   settings.probes)
    after = await workload.snapshots()
    utilization, overflow = _link_window(before, after)
    rss = sum(proc_hwm_mb(pid) for pids in workload.processes().values()
              for pid in pids)
    phases = [*lows, *highs, *sats, *probes]
    report["phases"] = phases
    report["invalid"] = [
        f"{rec.name}: {problem}"
        for rec in (*lows, *highs) for problem in rec.problems()
    ]
    attempted = sum(rec.attempted for rec in phases)
    failed = sum(rec.failed for rec in phases)
    report["attempted"], report["failed"] = attempted, failed

    def lat(records, key, scale):
        # Percentiles pool every round's samples; a median over rounds
        # would rest each p99 on too few samples at the low rates.
        return summarize(
            [x for rec in records for x in rec.latencies]
        )[key] * scale

    return {
        "setup_s": statistics.median(report["setups"]),
        "sat_dps": _median(sats, lambda rec: rec.dps),
        "call_p50_us": lat(sats, "p50", 1e6),
        "call_p99_us": lat(sats, "p99", 1e6),
        "lat_p50_ms.low": lat(lows, "p50", 1e3),
        "lat_p99_ms.low": lat(lows, "p99", 1e3),
        "lat_p50_ms.high": lat(highs, "p50", 1e3),
        "lat_p99_ms.high": lat(highs, "p99", 1e3),
        "slo_rate_dps": slo_rate,
        "failed_frac": failed / max(1, attempted),
        "overflow_frac": overflow,
        "utilization": utilization,
        "peak_rss_mb": rss,
    }


def _sum_totals(totals: dict, layer: str, methods=None) -> dict:
    from e2e.trace import layer_of

    out = {"calls": 0, "units": 0, "total_ns": 0.0, "self_ns": 0.0}
    for name, row in totals.items():
        if layer_of(name) != layer:
            continue
        method = name.split(":", 1)[1].rsplit(".", 1)[-1]
        if methods is not None and method not in methods:
            continue
        for key in out:
            out[key] += row[key]
    return out


async def _traced_phases(workload, settings, report, out_dir) -> dict:
    """The traced run: sat untraced, then sat and low with spans on."""
    from e2e.phases import PhaseRecord, closed_loop, open_loop
    from e2e.stats import percentile
    from e2e.trace import merge_totals

    tracer = workload.tracer
    plain = PhaseRecord("sat-untraced")
    await closed_loop(workload, plain, settings.traced_phase)
    before = await workload.snapshots()
    cpu0, wakeups0 = _cpu(workload), _follower_wakeups(workload)
    await workload.trace(True)
    sat = PhaseRecord("sat")
    await closed_loop(workload, sat, settings.traced_phase)
    await workload.trace(False)
    report["coverage"] = (
        tracer.outer_durations_ns("bench").sum() / 1e9 / sat.wall
    )
    # The open-loop phase runs at the low rate: tracing costs a share of
    # capacity, which would push the high rate towards saturation.
    since = time.perf_counter_ns()
    await workload.trace(True)
    low = PhaseRecord("low", workload.rates[0])
    await open_loop(workload, low, settings.traced_phase)
    await workload.trace(False)
    cpu1, wakeups1 = _cpu(workload), _follower_wakeups(workload)
    after = await workload.snapshots()
    report["phases"] = [plain, sat, low]
    report["invalid"] = []
    report["attempted"] = sum(rec.attempted for rec in (sat, low))
    report["failed"] = sum(rec.failed for rec in (sat, low))

    local = tracer.totals()
    remote, remote_tally = await workload.remote_totals()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{workload.name}-bench.npz")
        await workload.write_remote_spans(out_dir)
    totals = merge_totals(local, remote)
    tally = dict(tracer.tally)
    for key, value in remote_tally.items():
        tally[key] = tally.get(key, 0) + value
    decisions = max(1, sat.decisions + low.decisions)

    def per_decision_us(layer, source=totals) -> float:
        return _sum_totals(source, layer)["self_ns"] / 1e3 / decisions

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    admits = ("admit", "admit_many")
    link = _sum_totals(totals, "runtime.link", admits)
    gateway = _sum_totals(totals, "runtime.gateway", admits)
    encode = _sum_totals(totals, "service.protocol",
                         ("encode_request", "encode_response"))
    requests = _sum_totals(totals, "service.protocol", ("encode_request",))
    decode = _sum_totals(totals, "service.protocol", ("decode_frame_body",))
    digest = _sum_totals(totals, "service.server", ("digest_record",))
    server_cpu = cpu1.get("server", 0.0) - cpu0.get("server", 0.0)
    if "leader" in cpu1:
        server_cpu = cpu1["leader"] - cpu0["leader"]
    server_cpu_us = server_cpu * 1e6 / decisions
    traced_in_server = sum(
        per_decision_us(layer, remote)
        for layer in ("core.controllers", "core.estimators", "runtime.feed",
                      "runtime.link", "runtime.gateway", "service.protocol",
                      "service.server")
    )
    rtt = sorted(tracer.outer_durations_ns("service.client", since) / 1e6)
    latency = {}
    for snap in after:
        for name, hist in snap["histograms"].items():
            if name.startswith("service.") and name.endswith(
                ".request_latency"
            ) and hist["p99"] is not None:
                latency[name] = hist["p99"] * 1e3
    n_admits = _counter_delta(before, after, "gateway.admits")
    n_rejects = _counter_delta(before, after, "gateway.rejects")
    gateway_calls = (
        _histogram_count_delta(before, after, "gateway.decision_latency")
        + _histogram_count_delta(before, after, "gateway.batch_size")
    )
    return {
        "core.controllers.us_per_decision": per_decision_us(
            "core.controllers"),
        "core.controllers.calls_per_decision": _sum_totals(
            totals, "core.controllers")["calls"] / decisions,
        "core.estimators.us_per_decision": per_decision_us("core.estimators"),
        "runtime.feed.us_per_decision": per_decision_us("runtime.feed"),
        "runtime.link.us_per_decision": per_decision_us("runtime.link"),
        "runtime.link.ticks_per_decision": _sum_totals(
            totals, "runtime.link", ("tick",))["calls"] / decisions,
        "runtime.link.decisions_per_call": ratio(link["units"],
                                                 link["calls"]),
        "runtime.gateway.us_per_decision": per_decision_us("runtime.gateway"),
        "runtime.gateway.decisions_per_call": ratio(gateway["units"],
                                                    gateway["calls"]),
        "runtime.gateway.failovers": _counter_delta(before, after,
                                                    "gateway.failovers"),
        "service.protocol.encode_us_per_frame": ratio(
            encode["total_ns"] / 1e3, encode["calls"]),
        "service.protocol.decode_us_per_frame": ratio(
            decode["total_ns"] / 1e3, decode["calls"]),
        "service.protocol.bytes_per_decision": tally.get(
            "protocol.bytes", 0) / decisions,
        "service.protocol.frames_per_decision": requests["calls"] / decisions,
        "service.protocol.json_fallback_frac": ratio(
            tally.get("protocol.json_frames", 0),
            encode["calls"] + decode["calls"]),
        "service.server.cpu_us_per_decision": server_cpu_us,
        "service.server.self_us_per_decision": (
            server_cpu_us - traced_in_server if remote else 0.0),
        "service.server.request_latency_p99_ms": max(latency.values(),
                                                     default=0.0),
        "service.server.coalesced_frac": ratio(
            _counter_delta(before, after, ".coalesced"),
            _counter_delta(before, after, ".requests")),
        "service.server.decisions_per_gateway_call": ratio(
            n_admits + n_rejects, gateway_calls),
        "service.server.digest_us_per_decision": digest["total_ns"] / 1e3
        / decisions,
        "service.server.shed": _counter_delta(before, after, ".shed"),
        "service.server.timeouts": _counter_delta(before, after, ".timeouts"),
        "service.client.rtt_p50_ms": percentile(rtt, 5000) if rtt else 0.0,
        "service.client.rtt_p99_ms": percentile(rtt, 9900) if rtt else 0.0,
        "service.client.inflight_mean": (
            statistics.fmean(low.backlog) if low.backlog else 0.0),
        "service.client.retried": float(workload.retried()),
        "service.replication.supervisor_us_per_decision": per_decision_us(
            "service.replication"),
        "service.replication.follower_wakeups_per_decision": (
            wakeups1 - wakeups0) / decisions,
        "service.replication.leader_cpu_us_per_decision": (
            cpu1.get("leader", 0.0) - cpu0.get("leader", 0.0)) * 1e6
        / decisions,
        "service.replication.follower_cpu_us_per_decision": (
            cpu1.get("follower", 0.0) - cpu0.get("follower", 0.0)) * 1e6
        / decisions,
        "bench.gen_lag_p99_ms": low.gen_lag_p99_ms(),
        "bench.cpu_frac": low.cpu_frac,
        "bench.trace_overhead": ratio(plain.dps, sat.dps) - 1.0,
    }


async def run_workload(name: str, seed: int, trace: bool, settings,
                       out_dir) -> dict:
    """Set up, warm, measure and check one workload; returns its report."""
    from e2e.phases import PhaseRecord, closed_loop
    from e2e.trace import Tracer
    from e2e.workloads import WORKLOADS

    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    workload = cls(seed, tracer)
    if tracer is not None:
        workload.instrument()
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "setups": [], "checks": []}
    try:
        for i in range(settings.setups(workload)):
            report["setups"].append(await workload.setup())
            if i < settings.setups(workload) - 1:
                await workload.teardown()
        # The bench process freezes its start-up heap so that the load
        # generator's collections stay short; processes under test other
        # than this one keep their collector as deployed.
        gc.freeze()
        warm = PhaseRecord("warmup")
        if workload.sync:
            workload.sha = hashlib.sha256()
        await closed_loop(workload, warm, None,
                          until_sim=settings.warm_holds * workload.holding_time)
        if workload.sync:
            prefix, workload.sha = workload.sha.hexdigest(), None
            if tracer is not None:
                tracer.enabled = True
            replayed = workload.replay_digest(warm.items)
            if tracer is not None:
                tracer.enabled = False
                tracer.reset()
            report["checks"].append((
                "traced-digest-equals-untraced" if trace
                else "digest-reproducible",
                replayed == prefix,
                f"{warm.items} items: run {prefix[:16]} vs replay "
                f"{replayed[:16]}",
            ))
        if trace:
            metrics = await _traced_phases(workload, settings, report,
                                           out_dir)
            if workload.sync:
                report["checks"].append((
                    "span-coverage", report["coverage"] >= 0.9,
                    f"self times cover {report['coverage']:.1%} of the "
                    "closed-loop wall time",
                ))
        else:
            metrics = await _timed_phases(workload, settings, report)
        report["checks"] += await workload.finish()
    except BaseException:
        try:
            await workload.teardown()
        except Exception as exc:  # already failing; report and re-raise
            print(f"teardown after failure also failed: {exc!r}",
                  file=sys.stderr)
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    if workload.errors:
        report["errors"] = dict(workload.errors)
    report["metrics"] = metrics
    return report


def _run(coro):
    """Run ``coro`` on a ``select()`` event loop.

    Its timeouts have microsecond resolution where epoll's have one
    millisecond, which would otherwise dominate the latency of a request
    due a fraction of a millisecond after the previous one.
    """
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(
            selectors.SelectSelector()
        )
    ) as runner:
        return runner.run(coro)


def _stop_resource_tracker() -> None:
    """Stop the helper process the ``spawn`` start method launches.

    It would exit by itself once this process has; stopping it here means
    every process the benchmark started has ended before it returns.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _format(value: float) -> str:
    if value == 0 or not math.isfinite(value):
        return str(value)
    return f"{value:.6g}"


def print_report(report: dict, catalog: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"trace {report['trace']}) ==")
    print("  setups: " + ", ".join(f"{s:.4f}s" for s in report["setups"]))
    for rec in report["phases"]:
        lat = rec.latency()
        line = (f"  phase {rec.name:<14} {rec.decisions:>7} decisions "
                f"{rec.dps:>9.1f}/s  p50 {lat['p50'] * 1e3:8.3f} ms  "
                f"p99 {lat['p99'] * 1e3:8.3f} ms  (n={lat['n']}, highest "
                f"supported percentile {lat['supported']})")
        if rec.rate:
            line += (f"  offered {rec.rate:.0f}/s lag p99 "
                     f"{rec.gen_lag_p99_ms():.2f} ms cpu {rec.cpu_frac:.2f}")
            for problem in getattr(rec, "retried", ()):
                line += f"\n    retried after: {problem}"
        print(line)
    for name, value in report["metrics"].items():
        print(f"  {name:<50} {_format(value):>14} {catalog[name][0]}")
    for name, ok, detail in report["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for problem in report["invalid"]:
        print(f"  INVALID {problem}")
    if report.get("errors"):
        print(f"  errors: {report['errors']}")


def _declared(trace: bool) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _record(label: str, report: dict, seconds: float, correct: bool) -> None:
    entry = {
        "label": label,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workload": report["workload"],
        "seed": report["seed"],
        "seconds": seconds,
        "trace": report["trace"],
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default 20, "
                             "1.2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="directory for the traced run's spans")
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload; validity limits "
                             "are reported, not enforced")
    parser.add_argument("--record", metavar="LABEL",
                        help=f"append each result to {RESULTS.name}")
    args = parser.parse_args(argv)
    _setup_path()
    from e2e.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from "
                     f"{list(WORKLOADS)}")
    seconds = args.seconds or (1.2 if args.smoke else 20.0)
    settings = Settings(seconds, args.smoke)
    trace = bool(args.trace)
    catalog = PER_LAYER if trace else END_TO_END
    declared = _declared(trace) or list(catalog)

    correct = valid = True
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        report = _run(run_workload(name, args.seed, trace, settings,
                                   args.out))
        print_report(report, catalog)
        ok = all(passed for _, passed, _ in report["checks"])
        correct &= ok
        valid &= not report["invalid"] or settings.smoke
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric in declared:
            metrics[prefix + metric] = {
                "value": report["metrics"][metric],
                "unit": catalog[metric][0],
            }
        if args.record:
            _record(args.record, report, seconds, ok)
        sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    _stop_resource_tracker()
    return 0 if correct and valid else 1


if __name__ == "__main__":
    sys.exit(main())
