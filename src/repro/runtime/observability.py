"""Observability: decision tracing, metrics export and profiling hooks.

The runtime can batch admissions and survive faulted feeds, but an
operator debugging a tripped chaos bound or a quarantined link needs to
see *why*: which measurement the estimator held at decision time, what
target the controller derived from it, and how long the hot path took.
The paper's whole argument is that estimator error flows into admission
decisions (Props 3.1/3.3, eqns 29-38); this module exposes that flow as
first-class telemetry.  Three cooperating pieces:

:class:`DecisionTracer`
    A bounded ring buffer of structured :class:`TraceEvent` records --
    admit/reject decisions (with the measured ``mu_hat``/``sigma_hat``,
    the target count, occupancy and decision latency), gateway failovers,
    link health transitions, feed breaker transitions and injected
    faults.  Events export as JSONL, and the decision subset feeds a
    running SHA-256 that is byte-for-byte compatible with
    ``replay(collect_digest=True)``: a traced replay and an untraced one
    of the same workload produce the same digest.

:func:`render_prometheus` / :class:`MetricsJsonlWriter`
    Exporters over the existing :class:`~repro.runtime.metrics.MetricsRegistry`.
    ``render_prometheus`` renders every instrument in the Prometheus text
    exposition format (dotted runtime names become metric names with a
    ``link`` label, label values are escaped per the spec, histograms
    emit cumulative ``_bucket``/``_sum``/``_count`` series).
    ``MetricsJsonlWriter`` appends periodic point-in-time snapshots as
    JSON lines, driven by the replay clock.  Both are served from
    ``repro serve-replay --metrics-out/--prom-out/--trace-out``.

:class:`Profiler`
    Opt-in ``perf_counter_ns`` timers around the admit / admit_many /
    estimator-read / placement hot paths, surfaced as nanosecond
    histograms in the registry.  When no profiler is attached the hot
    paths pay a single ``is not None`` check (asserted <10% overhead by
    the bench gate); when attached, the histograms quantify exactly where
    a decision's time goes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, TextIO

from repro.errors import ParameterError, RuntimeStateError
from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    json_safe,
)

__all__ = [
    "DecisionTracer",
    "MetricsJsonlWriter",
    "PROFILE_NS_BUCKETS",
    "Profiler",
    "TraceEvent",
    "digest_record",
    "escape_label_value",
    "render_prometheus",
]


def digest_record(flow_id, decision) -> bytes:
    """One decision's line in every decision digest.

    ``replay(collect_digest=True)``, :class:`DecisionTracer`, the served
    journal digest and the overload scenario all hash this line.  UTF-8,
    not ASCII: the protocol accepts any Unicode flow id, and a digest
    helper must never be the thing that raises on one.
    """
    return (
        f"{flow_id}|{int(decision.admitted)}|{decision.reason}|"
        f"{decision.link}|{decision.n_flows}|{decision.target!r}\n"
    ).encode("utf-8")


#: Default ring-buffer capacity: enough for a full chaos soak iteration
#: without unbounded memory on a long-lived gateway.
DEFAULT_TRACE_CAPACITY = 65_536

#: Geometric nanosecond buckets, 100 ns .. 1 s, for hot-path timers.
PROFILE_NS_BUCKETS = tuple(100.0 * (10.0 ** (k / 3.0)) for k in range(22))

#: Event kinds emitted by the runtime (``TraceEvent.kind`` values).
EVENT_KINDS = (
    "admit",
    "reject",
    "failover",
    "health",
    "breaker",
    "fault",
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observability event.

    Attributes
    ----------
    seq : int
        Monotone sequence number (assigned by the tracer; survives ring
        eviction, so gaps reveal dropped history).
    t : float
        Simulation/link-clock time of the event (the ``now`` the runtime
        was driven with -- *not* wall clock).
    kind : str
        One of :data:`EVENT_KINDS`.
    link : str or None
        Deciding/affected link name (``None`` for gateway-wide events).
    flow_id : hashable or None
        The flow involved (decisions and failovers).
    reason : str or None
        Decision reason (``"target"``, ``"quarantined"``, ...).
    mu_hat, sigma_hat : float
        The estimator state the decision was made on (NaN when there was
        no usable estimate, and for non-decision events).
    target : float
        Admissible flow count tested against (NaN when unavailable).
    n_flows : int or None
        Link occupancy *after* the decision (decisions only).
    health : str or None
        Link health at decision time, or the new state for ``health``
        events.
    detail : str or None
        Free-form qualifier: ``"old->new"`` for transitions, the fault
        kind for ``fault`` events.
    latency : float or None
        Wall-clock seconds spent deciding (decisions only).  Excluded
        from deterministic exports because wall time varies run to run.
    """

    seq: int
    t: float
    kind: str
    link: str | None = None
    flow_id: Hashable | None = None
    reason: str | None = None
    mu_hat: float = math.nan
    sigma_hat: float = math.nan
    target: float = math.nan
    n_flows: int | None = None
    health: str | None = None
    detail: str | None = None
    latency: float | None = None

    def to_dict(self, *, deterministic: bool = False) -> dict:
        """Compact dict view: ``None``/NaN fields dropped.

        With ``deterministic=True`` the wall-clock ``latency`` field is
        omitted, so two replays of the same seeded workload serialize to
        byte-identical JSONL (the golden-trace contract).
        """
        out: dict = {"seq": self.seq, "t": self.t, "kind": self.kind}
        for key in ("link", "flow_id", "reason"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key in ("mu_hat", "sigma_hat", "target"):
            value = getattr(self, key)
            if not math.isnan(value):
                out[key] = value
        for key in ("n_flows", "health", "detail"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if not deterministic and self.latency is not None:
            out["latency"] = self.latency
        return out

    def to_json(self, *, deterministic: bool = False) -> str:
        """One JSONL line (stable key order)."""
        return json.dumps(
            json_safe(self.to_dict(deterministic=deterministic)),
            sort_keys=True,
        )


class DecisionTracer:
    """Bounded ring buffer of :class:`TraceEvent` plus a decision digest.

    The tracer is shared by the links and the gateway (like the metrics
    registry): links emit health/breaker transitions, fault injectors
    emit fault events, and the gateway emits one event per admission
    decision and per failover.  Decisions additionally stream into a
    SHA-256 using exactly the line format of
    ``replay(collect_digest=True)``, so ``tracer.digest()`` equals
    ``ReplayReport.decision_digest`` for the same run -- the property the
    golden-trace regression pins down.

    Parameters
    ----------
    capacity : int
        Maximum events retained (oldest evicted first).  The digest and
        the per-kind counts cover *all* events ever recorded, not just
        the retained window.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ParameterError("tracer capacity must be at least 1")
        self.capacity = int(capacity)
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self._sha = hashlib.sha256()
        self._decisions = 0
        self.counts: dict[str, int] = {kind: 0 for kind in EVENT_KINDS}

    # -- recording ---------------------------------------------------------

    def _emit(self, **fields) -> TraceEvent:
        event = TraceEvent(seq=self._seq, **fields)
        self._seq += 1
        self._events.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        return event

    def record_decision(
        self, flow_id: Hashable, decision, now: float,
        latency: float | None = None,
    ) -> None:
        """Record one admission decision (and fold it into the digest)."""
        self._emit(
            t=float(now),
            kind="admit" if decision.admitted else "reject",
            link=decision.link,
            flow_id=flow_id,
            reason=decision.reason,
            mu_hat=decision.mu_hat,
            sigma_hat=decision.sigma_hat,
            target=decision.target,
            n_flows=decision.n_flows,
            health=decision.health,
            latency=latency,
        )
        self._sha.update(digest_record(flow_id, decision))
        self._decisions += 1

    def record_failover(
        self, flow_id: Hashable, link: str, now: float
    ) -> None:
        """Record a request bouncing off a quarantined link."""
        self._emit(t=float(now), kind="failover", link=link, flow_id=flow_id)

    def record_health(
        self, link: str, old, new, now: float, staleness: float
    ) -> None:
        """Record a link health transition (degrade/quarantine/recover)."""
        self._emit(
            t=float(now),
            kind="health",
            link=link,
            health=new.value,
            detail=f"{old.value}->{new.value}",
        )

    def record_breaker(self, link: str, old, new, now: float) -> None:
        """Record a feed circuit-breaker transition."""
        self._emit(
            t=float(now),
            kind="breaker",
            link=link,
            detail=f"{old.value}->{new.value}",
        )

    def record_fault(self, link: str, fault_kind: str, now: float) -> None:
        """Record one injected measurement fault firing."""
        self._emit(t=float(now), kind="fault", link=link, detail=fault_kind)

    # -- read side ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Retained events, oldest first."""
        return tuple(self._events)

    @property
    def total_events(self) -> int:
        """Events ever recorded (>= ``len(self)`` once the ring wraps)."""
        return self._seq

    @property
    def decisions(self) -> int:
        """Admission decisions ever recorded (digest inputs)."""
        return self._decisions

    def digest(self) -> str:
        """SHA-256 hex digest of the ordered decision stream so far."""
        return self._sha.hexdigest()

    def clear(self) -> None:
        """Drop retained events and reset the digest and counts."""
        self._events.clear()
        self._seq = 0
        self._sha = hashlib.sha256()
        self._decisions = 0
        self.counts = {kind: 0 for kind in EVENT_KINDS}

    # -- export ------------------------------------------------------------

    def event_lines(self, *, deterministic: bool = False) -> Iterator[str]:
        """JSONL lines for the retained events, oldest first."""
        for event in self._events:
            yield event.to_json(deterministic=deterministic)

    def to_jsonl(self, destination, *, deterministic: bool = False) -> int:
        """Write the retained events as JSONL; returns the line count.

        ``destination`` is a path or an open text file.  Deterministic
        mode drops wall-clock fields so seeded replays export
        byte-identically (see :meth:`TraceEvent.to_dict`).
        """
        if hasattr(destination, "write"):
            return self._write_jsonl(destination, deterministic)
        with open(destination, "w", encoding="utf-8") as fh:
            return self._write_jsonl(fh, deterministic)

    def _write_jsonl(self, fh: TextIO, deterministic: bool) -> int:
        lines = 0
        for line in self.event_lines(deterministic=deterministic):
            fh.write(line + "\n")
            lines += 1
        return lines


# -- Prometheus text exporter -------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="value"``.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _metric_identity(name: str, namespace: str) -> tuple[str, str]:
    """Map a dotted registry name to (prometheus_name, label_block).

    ``link.<link>.<metric>`` becomes ``<ns>_link_<metric>{link="<link>"}``
    so per-link series aggregate naturally; everything else keeps its
    dotted path with dots flattened to underscores.
    """
    parts = name.split(".")
    if len(parts) >= 3 and parts[0] == "link":
        metric = _NAME_SANITIZE.sub("_", "_".join(parts[2:]))
        label = f'{{link="{escape_label_value(parts[1])}"}}'
        return f"{namespace}_link_{metric}", label
    return f"{namespace}_{_NAME_SANITIZE.sub('_', '_'.join(parts))}", ""


def _format_value(value: float) -> str:
    """Prometheus sample value: repr floats, special-case non-finite."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registry: MetricsRegistry, *, namespace: str = "repro"
) -> str:
    """Render every registered instrument in Prometheus text format.

    Counters render as ``counter``, gauges as ``gauge`` (a never-set
    gauge exposes ``NaN``, which Prometheus parses), histograms as the
    canonical cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count`` -- including never-observed histograms, which export all
    zeros rather than being dropped (so dashboards can tell "no
    observations yet" from "metric missing").
    """
    if not _NAME_SANITIZE.sub("_", namespace):
        raise ParameterError("namespace must be non-empty")
    namespace = _NAME_SANITIZE.sub("_", namespace)
    # Group series by prometheus metric name so multi-link series share
    # one HELP/TYPE header, as the format requires.
    blocks: dict[str, dict] = {}
    for name in registry.names():
        instrument = registry.get(name)
        prom_name, label = _metric_identity(name, namespace)
        if isinstance(instrument, Histogram):
            kind = "histogram"
        elif isinstance(instrument, Counter):
            kind = "counter"
        elif isinstance(instrument, Gauge):
            kind = "gauge"
        else:  # pragma: no cover - registry only hands out the three types
            continue
        block = blocks.setdefault(
            prom_name, {"kind": kind, "help": instrument.help, "series": []}
        )
        block["series"].append((label, instrument))

    lines: list[str] = []
    for prom_name in sorted(blocks):
        block = blocks[prom_name]
        help_text = block["help"].replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {prom_name} {help_text}")
        lines.append(f"# TYPE {prom_name} {block['kind']}")
        for label, instrument in block["series"]:
            if block["kind"] == "histogram":
                lines.extend(_histogram_lines(prom_name, label, instrument))
            else:
                lines.append(
                    f"{prom_name}{label} {_format_value(instrument.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def _histogram_lines(prom_name: str, label: str, histogram: Histogram):
    bare = label[1:-1] if label else ""
    for bound, cumulative in histogram.cumulative_buckets():
        le = "+Inf" if math.isinf(bound) else repr(float(bound))
        joined = f'{bare},le="{le}"' if bare else f'le="{le}"'
        yield f"{prom_name}_bucket{{{joined}}} {cumulative}"
    yield f"{prom_name}_sum{label} {_format_value(histogram.sum)}"
    yield f"{prom_name}_count{label} {histogram.count}"


# -- periodic JSONL snapshots -------------------------------------------------


class MetricsJsonlWriter:
    """Append periodic registry snapshots as JSON lines.

    Driven by the replay/link clock: :meth:`poll` is cheap when the
    interval has not elapsed and writes one ``{"t": now, "counters": ...,
    "gauges": ..., "histograms": ...}`` line when it has.  NaN/inf values
    are serialized as ``null`` (JSONL consumers choke on bare NaN).

    A run almost never ends exactly on an interval boundary, so whatever
    accumulated after the last periodic snapshot would be lost without a
    final flush.  :meth:`close` writes that final partial interval -- at
    the explicit ``now`` when given, else at the last polled clock -- and
    skips it when nothing advanced since the last write, so the tail is
    flushed exactly once.  ``close`` is idempotent; both ``replay()`` and
    ``AdmissionServer.stop()`` call it, as does the CLI's ``finally``.

    Parameters
    ----------
    registry : MetricsRegistry
        The registry to snapshot.
    destination : path or open text file
        Where the lines go.  A path is opened for writing and owned (and
        closed) by the writer; an open file is borrowed.
    interval : float
        Minimum simulated time between snapshots (> 0).
    """

    def __init__(
        self, registry: MetricsRegistry, destination, *, interval: float
    ) -> None:
        if interval <= 0.0:
            raise ParameterError("snapshot interval must be positive")
        self.registry = registry
        self.interval = float(interval)
        self._next_due: float | None = None
        self._last_seen: float | None = None
        self._last_write: float | None = None
        self._closed = False
        self.snapshots = 0
        if hasattr(destination, "write"):
            self._fh: TextIO = destination
            self._owns_fh = False
        else:
            self._fh = open(destination, "w", encoding="utf-8")
            self._owns_fh = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (further writes are rejected)."""
        return self._closed

    def poll(self, now: float) -> bool:
        """Write a snapshot if ``interval`` has elapsed; returns whether.

        Always remembers ``now`` as the clock's latest position, so a
        later ``close()`` can flush the partial interval it falls in.
        """
        self._last_seen = float(now)
        if self._next_due is not None and now < self._next_due:
            return False
        self.write(now)
        return True

    def write(self, now: float) -> None:
        """Unconditionally append one snapshot line at time ``now``."""
        if self._closed:
            raise RuntimeStateError("metrics writer is closed")
        payload = {"t": float(now)}
        payload.update(self.registry.snapshot())
        self._fh.write(json.dumps(json_safe(payload), sort_keys=True) + "\n")
        self.snapshots += 1
        self._last_seen = float(now)
        self._last_write = float(now)
        self._next_due = float(now) + self.interval

    def close(self, now: float | None = None) -> None:
        """Flush the final partial interval and release the file.

        The closing snapshot lands at ``now`` when given, else at the
        last polled clock; it is skipped when that instant was already
        written (no duplicate lines).  Idempotent: later calls no-op.
        """
        if self._closed:
            return
        final = float(now) if now is not None else self._last_seen
        if final is not None and final != self._last_write:
            self.write(final)
        self._closed = True
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "MetricsJsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- profiling hooks ----------------------------------------------------------


class Profiler:
    """Opt-in hot-path timers, surfaced as nanosecond histograms.

    Attach one profiler to the links and the gateway (like the registry
    and the tracer); each instrumented site brackets its work with
    ``time.perf_counter_ns()`` and feeds the elapsed nanoseconds into the
    matching histogram:

    * ``profile.admit_ns`` -- one single-request link decision;
    * ``profile.admit_many_ns`` -- one batched link burst (whole burst);
    * ``profile.estimator_read_ns`` -- one estimate read on the decision
      path;
    * ``profile.placement_ns`` -- one gateway placement choice.

    When *no* profiler is attached the instrumented sites reduce to a
    single ``is not None`` test -- the disabled-path overhead the bench
    gate bounds.  The profiler deliberately has no global on/off switch:
    attaching it *is* the switch, so the disabled path stays branch-free.
    """

    SITES = ("admit", "admit_many", "estimator_read", "placement")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.admit = self.registry.histogram(
            "profile.admit_ns",
            "link admit() nanoseconds",
            buckets=PROFILE_NS_BUCKETS,
        )
        self.admit_many = self.registry.histogram(
            "profile.admit_many_ns",
            "link admit_many() nanoseconds per burst",
            buckets=PROFILE_NS_BUCKETS,
        )
        self.estimator_read = self.registry.histogram(
            "profile.estimator_read_ns",
            "estimator read nanoseconds on the decision path",
            buckets=PROFILE_NS_BUCKETS,
        )
        self.placement = self.registry.histogram(
            "profile.placement_ns",
            "gateway placement choice nanoseconds",
            buckets=PROFILE_NS_BUCKETS,
        )

    @staticmethod
    def now_ns() -> int:
        """The clock the hot paths bracket with (perf_counter_ns)."""
        return time.perf_counter_ns()

    def summary(self) -> dict:
        """Per-site latency summaries (ns), for reports and the CLI."""
        return {
            site: getattr(self, site).summary() for site in self.SITES
        }
