"""Replay driver: batched workload generation for gateway load tests.

Pushes a large synthetic workload -- Poisson flow arrivals, exponential
holding times, periodic measurement ticks, optional measurement-plane
outages -- through an :class:`~repro.runtime.gateway.AdmissionGateway` and
reports throughput (decisions per wall-clock second) plus the final
metrics snapshot.  Arrival times are pre-generated in numpy batches so the
Python-level event loop is dominated by the decisions under test, not by
random-variate generation.

Two arrival modes:

* **sequential** (default): every arrival is resolved with one
  ``gateway.admit(flow_id, t)`` round-trip at its exact Poisson timestamp.
* **batched** (``batch_window=w``): arrival and departure timestamps are
  quantized up to the next multiple of ``w``, and all requests landing on
  the same instant are drained with a single ``gateway.admit_many`` /
  ``depart_many`` call -- the burst-of-simultaneous-requests regime the
  batched decision path exists for.  Quantization delays each request by
  at most ``w``; choose ``w`` well below the holding time.

This is the engine behind ``repro serve-replay``; the replication and
scaling layers build on the same driver.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.runtime.faults import FaultPlan
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.observability import digest_record

__all__ = ["FeedOutage", "ReplayReport", "replay"]

logger = logging.getLogger(__name__)

_ARRIVAL_BATCH = 8192

# Event kinds, ordered so simultaneous events resolve deterministically:
# departures free capacity before arrivals contend for it; ticks refresh
# measurements before decisions at the same instant.
_TICK = 0
_DEPART = 1
_ARRIVE = 2
_OUTAGE_START = 3
_OUTAGE_END = 4


@dataclass(frozen=True)
class FeedOutage:
    """A measurement-plane outage on one link's feed.

    The feed is paused at ``start`` and resumed at ``start + duration`` --
    the replay analogue of a stats collector dying and being restarted,
    used to exercise the links' degradation/recovery path under load.
    """

    link: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0.0 or self.duration <= 0.0:
            raise ParameterError("outage needs start >= 0 and duration > 0")


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run.

    ``decisions_per_sec`` counts admission decisions (admits + rejects)
    against wall-clock time; ``events`` counts everything the driver
    processed (decisions, departures, ticks, outage edges).
    """

    events: int
    arrivals: int
    admitted: int
    rejected: int
    departures: int
    ticks: int
    simulated_time: float
    wall_seconds: float
    decisions_per_sec: float
    events_per_sec: float
    final_flows: int
    metrics: dict = field(repr=False)
    #: Number of ``admit_many`` bursts issued (0 in sequential mode).
    batches: int = 0
    #: Gateway-wide overflow fraction: total link time with measured
    #: aggregate above capacity, over total observed link time.
    overflow_fraction: float = 0.0
    #: SHA-256 over the ordered decision stream (``collect_digest=True``);
    #: two runs with identical decisions have identical digests.
    decision_digest: str | None = None
    #: Per-link injected-fault counters (when a fault plan was applied).
    fault_summary: dict | None = None


def replay(
    gateway: AdmissionGateway,
    *,
    n_events: int,
    arrival_rate: float,
    holding_time: float,
    tick_period: float,
    seed: int | None = 0,
    outages: Sequence[FeedOutage] = (),
    batch_window: float | None = None,
    fault_plan: FaultPlan | None = None,
    collect_digest: bool = False,
    metrics_writer=None,
) -> ReplayReport:
    """Drive ``gateway`` with a synthetic workload until ``n_events``.

    Parameters
    ----------
    gateway : AdmissionGateway
        The system under test (links must be freshly built or at least
        driven with a clock consistent with this run's, which starts at 0).
    n_events : int
        Stop after this many processed events (>= 1).
    arrival_rate : float
        Poisson flow-arrival intensity (flows per unit time, > 0).
    holding_time : float
        Mean exponential flow holding time (> 0).
    tick_period : float
        Gateway-wide measurement tick period (> 0).  Ticks drive the
        links' clocks and feed polling between request events.
    seed : int, optional
        Workload RNG seed (arrivals and holding times).
    outages : sequence of FeedOutage
        Measurement outages to inject.
    batch_window : float, optional
        Enable batched arrival mode: quantize request timestamps up to
        multiples of this window and resolve each instant's requests with
        one ``admit_many``/``depart_many`` burst (must be positive).
    fault_plan : FaultPlan, optional
        Chaos scenario: every targeted link's feed is wrapped in a seeded
        :class:`~repro.runtime.faults.FaultyFeed` before the run, and the
        per-link injected-fault counters are returned in
        ``ReplayReport.fault_summary``.
    collect_digest : bool
        Stream every admission decision into a SHA-256; the hex digest is
        returned in ``ReplayReport.decision_digest`` (used by
        ``chaos-replay`` to assert byte-for-byte reproducibility).
    metrics_writer : MetricsJsonlWriter, optional
        Periodic snapshot sink (see
        :class:`~repro.runtime.observability.MetricsJsonlWriter`): polled
        on every measurement tick and flushed once at the end of the run,
        so the output covers the full simulated horizon.

    Returns
    -------
    ReplayReport
    """
    if n_events < 1:
        raise ParameterError("n_events must be at least 1")
    if arrival_rate <= 0.0 or holding_time <= 0.0 or tick_period <= 0.0:
        raise ParameterError(
            "arrival_rate, holding_time and tick_period must be positive"
        )
    if batch_window is not None and batch_window <= 0.0:
        raise ParameterError("batch_window must be positive")
    rng = np.random.default_rng(seed)
    for outage in outages:
        gateway.link(outage.link)  # validate names up front
    faulty_feeds = None
    if fault_plan is not None:
        faulty_feeds = fault_plan.wrap(gateway)
    digest = hashlib.sha256() if collect_digest else None

    def record(flow_id, decision) -> None:
        digest.update(digest_record(flow_id, decision))

    # (time, kind, seq, payload) -- seq breaks ties deterministically.
    heap: list[tuple[float, int, int, object]] = []
    seq = 0

    def push(when: float, kind: int, payload: object = None) -> None:
        nonlocal seq
        heapq.heappush(heap, (when, kind, seq, payload))
        seq += 1

    arrival_times = rng.exponential(1.0 / arrival_rate, size=_ARRIVAL_BATCH).cumsum()
    arrival_cursor = 0

    def next_arrival_time() -> float:
        """Consume one raw Poisson arrival time (batched mode only)."""
        nonlocal arrival_times, arrival_cursor
        t = float(arrival_times[arrival_cursor])
        arrival_cursor += 1
        if arrival_cursor >= arrival_times.size:
            arrival_times = t + rng.exponential(
                1.0 / arrival_rate, size=_ARRIVAL_BATCH
            ).cumsum()
            arrival_cursor = 0
        return t

    if batch_window is None:
        push(float(arrival_times[0]), _ARRIVE)
    else:

        def quantize(t: float) -> float:
            return math.ceil(t / batch_window) * batch_window

        pending_raw = next_arrival_time()

        def schedule_burst() -> None:
            """Coalesce raw arrivals sharing a window into one event."""
            nonlocal pending_raw
            when = quantize(pending_raw)
            count = 1
            while True:
                raw = next_arrival_time()
                if quantize(raw) == when:
                    count += 1
                else:
                    pending_raw = raw
                    break
            push(when, _ARRIVE, count)

        schedule_burst()
    push(tick_period, _TICK)
    for outage in outages:
        push(outage.start, _OUTAGE_START, outage.link)
        push(outage.start + outage.duration, _OUTAGE_END, outage.link)

    events = arrivals = admitted = rejected = departures = ticks = batches = 0
    next_flow_id = 0
    now = 0.0
    t0 = time.perf_counter()

    while events < n_events and heap:
        now, kind, _, payload = heapq.heappop(heap)
        if kind == _TICK:
            gateway.tick(now)
            if metrics_writer is not None:
                metrics_writer.poll(now)
            ticks += 1
            events += 1
            push(now + tick_period, _TICK)
        elif kind == _DEPART:
            if batch_window is None:
                gateway.depart(payload, now)
                departures += 1
                events += 1
            else:
                flow_ids = [payload]
                while heap and heap[0][0] == now and heap[0][1] == _DEPART:
                    flow_ids.append(heapq.heappop(heap)[3])
                gateway.depart_many(flow_ids, now)
                departures += len(flow_ids)
                events += len(flow_ids)
        elif kind == _ARRIVE and batch_window is None:
            arrivals += 1
            events += 1
            flow_id = next_flow_id
            next_flow_id += 1
            decision = gateway.admit(flow_id, now)
            if digest is not None:
                record(flow_id, decision)
            if decision.admitted:
                admitted += 1
                push(now + rng.exponential(holding_time), _DEPART, flow_id)
            else:
                rejected += 1
            arrival_cursor += 1
            if arrival_cursor >= arrival_times.size:
                arrival_times = now + rng.exponential(
                    1.0 / arrival_rate, size=_ARRIVAL_BATCH
                ).cumsum()
                arrival_cursor = 0
            push(float(arrival_times[arrival_cursor]), _ARRIVE)
        elif kind == _ARRIVE:
            count = payload
            flow_ids = list(range(next_flow_id, next_flow_id + count))
            next_flow_id += count
            decisions = gateway.admit_many(flow_ids, now)
            if digest is not None:
                for flow_id, decision in zip(flow_ids, decisions):
                    record(flow_id, decision)
            batches += 1
            arrivals += count
            events += count
            admitted_ids = [
                flow_id
                for flow_id, decision in zip(flow_ids, decisions)
                if decision.admitted
            ]
            admitted += len(admitted_ids)
            rejected += count - len(admitted_ids)
            if admitted_ids:
                for flow_id, hold in zip(
                    admitted_ids,
                    rng.exponential(holding_time, size=len(admitted_ids)),
                ):
                    push(quantize(now + hold), _DEPART, flow_id)
            schedule_burst()
        elif kind == _OUTAGE_START:
            gateway.link(payload).feed.pause()
            logger.info("outage: paused feed of link %s at t=%.6g", payload, now)
        else:  # _OUTAGE_END
            gateway.link(payload).feed.resume()
            logger.info("outage: resumed feed of link %s at t=%.6g", payload, now)

    wall = time.perf_counter() - t0
    if metrics_writer is not None:
        # Flush the final partial interval at the final clock (no-op if a
        # periodic snapshot already landed exactly there).
        metrics_writer.close(now)
    decisions = admitted + rejected
    observed = sum(link.observed_time for link in gateway.links)
    overload = sum(link.overload_time for link in gateway.links)
    logger.info(
        "replay: %d events (%d arrivals, %d admits, %d rejects, %d departures, "
        "%d ticks) in %.3fs -- %.0f decisions/s",
        events, arrivals, admitted, rejected, departures, ticks, wall,
        decisions / wall if wall > 0 else float("inf"),
    )
    return ReplayReport(
        events=events,
        arrivals=arrivals,
        admitted=admitted,
        rejected=rejected,
        departures=departures,
        ticks=ticks,
        simulated_time=now,
        wall_seconds=wall,
        decisions_per_sec=decisions / wall if wall > 0.0 else float("inf"),
        events_per_sec=events / wall if wall > 0.0 else float("inf"),
        final_flows=gateway.n_flows,
        metrics=gateway.snapshot(),
        batches=batches,
        overflow_fraction=overload / observed if observed > 0.0 else 0.0,
        decision_digest=digest.hexdigest() if digest is not None else None,
        fault_summary=(
            {name: dict(feed.injected) for name, feed in faulty_feeds.items()}
            if faulty_feeds is not None
            else None
        ),
    )
