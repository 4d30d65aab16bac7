"""Phase drivers: open loop at a fixed rate, closed loop, SLO probes.

A driver pulls items from a workload's :class:`~schedule.Timeline` and
hands each to the workload's ``issue`` (or ``issue_sync`` for an
in-process system), which records outcomes into a :class:`PhaseRecord`.
Every latency is timed from the request's *due* time: its scheduled
wall-clock instant in an open loop, its send time in a closed loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import statistics
import time
from array import array

from e2e.schedule import Pace
from e2e.stats import backlog_grew, summarize

#: Seconds between in-flight backlog samples.
SAMPLE_EVERY = 0.01
#: Seconds an open phase may take to drain after its last request.
DRAIN_TIMEOUT = 30.0
#: Latency limit of the SLO search, on the p99.
SLO_MS = 20.0
#: Largest share of failed requests a passing SLO probe may have.
SLO_FAILED = 0.001
#: Validity limits for a fixed-rate phase.
MAX_GEN_LAG_MS = 5.0
MAX_CPU_FRAC = 0.9
#: Sub-windows an SLO probe's p99 is taken over (it uses their median);
#: three keep a p99 supported at the lowest probed rates.
PROBE_WINDOWS = 3

_NO_SPAN = contextlib.nullcontext()


class PhaseRecord:
    """What one phase measured."""

    def __init__(self, name: str, rate: float | None = None) -> None:
        self.name = name
        self.rate = rate
        #: Per-decision latency in seconds; a failed decision is ``inf``.
        self.latencies = array("d")
        #: Due time of each entry of ``latencies``.
        self.dues = array("d")
        #: Generator lateness per scheduled arrival item, seconds.
        self.lags: list[float] = []
        #: In-flight backlog samples (requests).
        self.backlog: list[float] = []
        self.decisions = 0
        self.attempted = 0
        self.failed = 0
        self.inflight = 0
        #: Schedule items issued.
        self.items = 0
        self.wall = 0.0
        self.cpu = 0.0

    def decided(self, count: int, due: float) -> None:
        """``count`` decisions due at ``due``, answered just now."""
        self.decisions += count
        self.attempted += count
        self.latencies.extend([time.perf_counter() - due] * count)
        self.dues.extend([due] * count)

    def operated(self, count: int = 1) -> None:
        """``count`` flow departures applied."""
        self.attempted += count

    def fail(self, count: int, due: float | None = None) -> None:
        """``count`` flow operations failed; decision requests pass ``due``."""
        self.attempted += count
        self.failed += count
        if due is not None:
            self.latencies.extend([math.inf] * count)
            self.dues.extend([due] * count)

    @property
    def dps(self) -> float:
        return self.decisions / self.wall if self.wall > 0 else 0.0

    def latency(self) -> dict:
        return summarize(self.latencies)

    def gen_lag_p99_ms(self) -> float:
        return summarize(self.lags)["p99"] * 1e3 if self.lags else 0.0

    @property
    def cpu_frac(self) -> float:
        return self.cpu / self.wall if self.wall > 0 else 0.0

    def grew(self) -> bool:
        # Growth must exceed the arrivals of one SLO interval: a backlog
        # that large has added about the SLO to every later request.
        floor = max(8.0, (self.rate or 0.0) * SLO_MS / 1e3)
        return backlog_grew(self.backlog, floor)

    def problems(self) -> list[str]:
        """Why a fixed-rate phase is invalid (empty when valid)."""
        out = []
        if self.gen_lag_p99_ms() > MAX_GEN_LAG_MS:
            out.append(f"generator lag p99 {self.gen_lag_p99_ms():.2f} ms "
                       f"> {MAX_GEN_LAG_MS} ms")
        if self.cpu_frac > MAX_CPU_FRAC:
            out.append(f"bench cpu {self.cpu_frac:.2f} > {MAX_CPU_FRAC}")
        if self.grew():
            out.append("in-flight backlog grew")
        return out

    def windowed_p99(self, windows: int = PROBE_WINDOWS) -> float:
        """Median over equal sub-windows (by due time) of their p99.

        A pause shorter than a sub-window, such as one garbage
        collection, moves one sub-window's p99 and not the median;
        queueing that persists moves all of them.
        """
        if not self.dues:
            return math.nan
        first, last = min(self.dues), max(self.dues)
        width = (last - first) / windows or 1.0
        bins: list[list[float]] = [[] for _ in range(windows)]
        for due, latency in zip(self.dues, self.latencies):
            bins[min(int((due - first) / width), windows - 1)].append(latency)
        return statistics.median(summarize(b)["p99"] for b in bins if b)

    def meets_slo(self) -> bool:
        return (
            self.windowed_p99() * 1e3 <= SLO_MS
            and self.failed <= SLO_FAILED * max(1, self.attempted)
            and not self.grew()
        )


def _span(workload, index: int):
    """The bench's own span around request ``index``; a no-op untraced."""
    tracer = workload.tracer
    if tracer is None:
        return _NO_SPAN
    return tracer.span("bench:request", index)


async def _run_item(workload, item, due, rec, index):
    rec.inflight += 1
    try:
        with _span(workload, index):
            await workload.issue(item, due, rec)
    finally:
        rec.inflight -= 1


async def _drain(tasks: set, rec: PhaseRecord) -> None:
    if not tasks:
        return
    done, pending = await asyncio.wait(set(tasks), timeout=DRAIN_TIMEOUT)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
        rec.fail(len(pending))
    for task in done:
        task.result()


async def open_loop(workload, rec: PhaseRecord, seconds: float) -> None:
    """Offer ``rec.rate`` decisions/s on the workload's schedule for ``seconds``."""
    timeline = workload.timeline
    loop = asyncio.get_running_loop()
    cpu0 = time.process_time()
    pace = Pace(workload.lam, rec.rate, time.perf_counter(), timeline.clock)
    end = pace.wall_start + seconds
    next_sample = pace.wall_start
    tasks: set = set()
    index = 0
    while True:
        due = pace.due(timeline.peek_time())
        if due >= end:
            break
        now = time.perf_counter()
        if now >= next_sample:
            rec.backlog.append(rec.inflight + max(0.0, now - due) * rec.rate)
            next_sample = now + SAMPLE_EVERY
        if due > now:
            # Re-peek after sleeping: a departure may have been queued.
            await asyncio.sleep(due - now)
            continue
        item = timeline.pop()
        if item[0] in ("arrive", "burst"):
            rec.lags.append(now - due)
        index += 1
        if workload.sync:
            with _span(workload, index):
                workload.issue_sync(item, due, rec)
        else:
            task = loop.create_task(_run_item(workload, item, due, rec, index))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    await _drain(tasks, rec)
    rec.items = index
    rec.wall = time.perf_counter() - pace.wall_start
    rec.cpu = time.process_time() - cpu0


async def closed_loop(workload, rec: PhaseRecord, seconds: float | None,
                      *, until_sim: float | None = None) -> None:
    """``workload.callers`` callers, each sending its next item on completion.

    Runs for ``seconds`` of wall time or, for a warm-up, until the
    schedule's clock reaches ``until_sim``.
    """
    timeline = workload.timeline
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    horizon = until_sim if until_sim is not None else math.inf

    def more() -> bool:
        return time.perf_counter() < deadline and timeline.clock < horizon

    if workload.sync:
        while more():
            rec.items += 1
            with _span(workload, rec.items):
                workload.issue_sync(timeline.pop(), time.perf_counter(), rec)
    else:
        async def caller() -> None:
            while more():
                rec.items += 1
                await _run_item(workload, timeline.pop(), time.perf_counter(),
                                rec, rec.items)

        await asyncio.gather(*(caller() for _ in range(workload.callers)))
    rec.wall = time.perf_counter() - start
    rec.cpu = time.process_time() - cpu0
