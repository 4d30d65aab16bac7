"""Seeded flow schedules on simulated time, and their wall-clock pacing.

A workload's whole input is a :class:`Schedule`: Poisson flow arrivals at
``lam`` per unit of simulated time, an exponential holding time per flow
and, for multi-class workloads, a class per flow.  It is a pure function
of the seed.  A :class:`Timeline` turns it into the request stream a
driver consumes -- arrivals in order, plus the departure of every flow
the system admitted -- and a :class:`Pace` maps simulated time onto
wall-clock due times for one phase.  Changing the offered rate changes
only the pace, never the events, so the gateway sits at the same
operating point at every rate.
"""

from __future__ import annotations

import heapq
import math
from array import array

import numpy as np

#: Flows drawn per chunk.  Every stream is drawn in chunks of this fixed
#: size, so flow ``i`` is identical however the schedule is consumed.
CHUNK = 4096


class Schedule:
    """Arrival time, holding time and class of flow ``0, 1, 2, ...``.

    Parameters
    ----------
    seed : int
        Workload seed; arrivals, holding times and classes each come from
        their own ``numpy`` stream derived from it.
    lam : float
        Arrival rate per unit of simulated time.
    holding_time : float
        Mean exponential holding time (simulated time).
    mix : dict, optional
        ``{class_name: probability}``; flows are classless without it.
    """

    def __init__(self, seed: int, lam: float, holding_time: float, mix=None):
        self.lam = float(lam)
        self.holding_time = float(holding_time)
        self._arrival_rng = np.random.default_rng([seed, 0])
        self._hold_rng = np.random.default_rng([seed, 1])
        self._class_rng = np.random.default_rng([seed, 2])
        if mix:
            self.classes = sorted(mix)
            p = np.array([mix[name] for name in self.classes], dtype=float)
            self._class_p = p / p.sum()
        else:
            self.classes = None
        self._arrivals: list[array] = []
        self._holds: list[array] = []
        self._class_idx: list[array] = []
        self._last = 0.0

    def _chunk(self, i: int) -> int:
        k = i // CHUNK
        while len(self._arrivals) <= k:
            gaps = self._arrival_rng.exponential(1.0 / self.lam, CHUNK)
            times = self._last + np.cumsum(gaps)
            self._last = float(times[-1])
            self._arrivals.append(array("d", times))
            self._holds.append(array(
                "d", self._hold_rng.exponential(self.holding_time, CHUNK)
            ))
            if self.classes is not None:
                self._class_idx.append(array("q", self._class_rng.choice(
                    len(self.classes), CHUNK, p=self._class_p
                )))
        return k

    def arrival(self, i: int) -> float:
        return self._arrivals[self._chunk(i)][i % CHUNK]

    def hold(self, i: int) -> float:
        return self._holds[self._chunk(i)][i % CHUNK]

    def flow_class(self, i: int) -> str | None:
        if self.classes is None:
            return None
        return self.classes[self._class_idx[self._chunk(i)][i % CHUNK]]


class Timeline:
    """The request stream a driver consumes, in simulated-time order.

    Single-flow workloads (``window=None``) get one item per arrival and
    one per departure: ``("arrive", flow, t)`` / ``("depart", flow, t)``,
    plus ``("tick", None, t)`` every ``tick_period`` when set.  Burst
    workloads get one item per batch window ``w``: ``("burst", (arrivals,
    departures), T)`` where ``arrivals`` maps class to the flows that
    arrived in ``(T - w, T]`` and ``departures`` lists the admitted flows
    due to leave by ``T``.  A departure enters the stream only once the
    caller reports the flow admitted (:meth:`admitted`), and never earlier
    than the stream's own clock.
    """

    def __init__(self, schedule: Schedule, *, window: float | None = None,
                 tick_period: float | None = None):
        self.schedule = schedule
        self.window = window
        self.tick_period = tick_period
        self.clock = 0.0
        self.next_flow = 0
        self._next_tick = tick_period
        self._departs: list[tuple[float, int]] = []
        self._window_end = window

    def admitted(self, flow: int) -> None:
        """Queue the departure of a flow the system admitted."""
        when = self.schedule.arrival(flow) + self.schedule.hold(flow)
        heapq.heappush(self._departs, (when, flow))

    def peek_time(self) -> float:
        """Simulated time of the next item."""
        if self.window is not None:
            return self._window_end
        t = self.schedule.arrival(self.next_flow)
        if self._departs and self._departs[0][0] < t:
            t = self._departs[0][0]
        if self._next_tick is not None and self._next_tick < t:
            t = self._next_tick
        return max(t, self.clock)

    def pop(self):
        """Remove and return the next item."""
        if self.window is not None:
            return self._pop_burst()
        t_arrive = self.schedule.arrival(self.next_flow)
        t_depart = self._departs[0][0] if self._departs else math.inf
        t_tick = self._next_tick if self._next_tick is not None else math.inf
        if t_tick < t_arrive and t_tick <= t_depart:
            self._next_tick += self.tick_period
            kind, flow, t = "tick", None, t_tick
        elif t_depart < t_arrive:
            t, flow = heapq.heappop(self._departs)
            kind = "depart"
        else:
            kind, flow, t = "arrive", self.next_flow, t_arrive
            self.next_flow += 1
        self.clock = max(self.clock, t)
        return kind, flow, self.clock

    def _pop_burst(self):
        end = self._window_end
        arrivals: dict = {}
        schedule = self.schedule
        while schedule.arrival(self.next_flow) <= end:
            flow = self.next_flow
            arrivals.setdefault(schedule.flow_class(flow), []).append(flow)
            self.next_flow += 1
        departures = []
        while self._departs and self._departs[0][0] <= end:
            departures.append(heapq.heappop(self._departs)[1])
        self._window_end = end + self.window
        self.clock = end
        return "burst", (arrivals, departures), end


class Pace:
    """Wall-clock due times for one phase offered at ``rate`` decisions/s.

    The schedule carries ``lam`` decisions per unit of simulated time, so
    one unit lasts ``lam / rate`` wall seconds; the phase starts at
    ``wall_start`` with simulated time ``sim_start``.
    """

    def __init__(self, lam: float, rate: float, wall_start: float,
                 sim_start: float):
        self.wall_per_sim = lam / rate
        self.wall_start = wall_start
        self.sim_start = sim_start

    def due(self, t_sim: float) -> float:
        return self.wall_start + (t_sim - self.sim_start) * self.wall_per_sim
