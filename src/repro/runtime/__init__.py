"""Online admission-control runtime.

Where :mod:`repro.simulation` reproduces the paper's *offline* experiments
(discrete-event loops that own the clock and the traffic), this package is
the *online* half the ROADMAP's production north-star needs: a long-lived
gateway that serves admission decisions from a request/response API, fed by
periodic measurement streams, and surviving measurement-plane failures --
degrading to the theory's conservative adjusted-``p_ce`` target when a
feed goes silent, and failing closed (quarantine + gateway failover) when
a feed produces data it cannot trust.

Layers (bottom-up):

* :mod:`repro.runtime.metrics` -- counters/gauges/histograms + registry.
* :mod:`repro.runtime.feed` -- measurement feeds with staleness tracking.
* :mod:`repro.runtime.health` -- per-feed circuit breakers and the
  HEALTHY/DEGRADED/QUARANTINED link health model.
* :mod:`repro.runtime.faults` -- scripted, seeded fault injection
  (outages, drops, corruption, stuck-at, skew, latency, counter resets
  and wrap-forcing offsets) behind a declarative :class:`FaultPlan`.
* :mod:`repro.runtime.link` -- one controller+estimator control loop
  behind ``admit()``/``depart()``, with the full health state machine.
* :mod:`repro.runtime.gateway` -- flow placement over multiple links,
  with failover away from quarantined links.
* :mod:`repro.runtime.replay` -- batched workload driver for load tests
  and chaos runs (the engine behind ``repro serve-replay`` and
  ``repro chaos-replay``).
* :mod:`repro.runtime.observability` -- decision tracing (bounded ring
  buffer + JSONL export + replay-compatible digest), Prometheus/JSONL
  metrics export, and opt-in hot-path profiling.
* :mod:`repro.runtime.spec` -- :class:`GatewaySpec`, the classless
  gateway recipe (links, memory, tick, feed) every caller builds from.
"""

from repro.runtime.faults import (
    FAULT_KINDS,
    CorruptSpec,
    FaultPlan,
    FaultyFeed,
    FeedFaults,
    Window,
    default_chaos_plan,
)
from repro.runtime.feed import MeasurementFeed, SourceFeed, TraceFeed
from repro.runtime.gateway import (
    AdmissionGateway,
    HashPlacement,
    LeastLoadedPlacement,
    PLACEMENT_POLICIES,
    PlacementPolicy,
    RoundRobinPlacement,
    make_placement,
)
from repro.runtime.health import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    LinkHealth,
    section_problem,
)
from repro.runtime.link import AdmissionDecision, ManagedLink
from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    json_safe,
)
from repro.runtime.observability import (
    DecisionTracer,
    MetricsJsonlWriter,
    Profiler,
    TraceEvent,
    escape_label_value,
    render_prometheus,
)
from repro.runtime.replay import FeedOutage, ReplayReport, replay
from repro.runtime.spec import GatewaySpec

__all__ = [
    "AdmissionDecision",
    "AdmissionGateway",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CorruptSpec",
    "Counter",
    "DecisionTracer",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyFeed",
    "FeedFaults",
    "FeedOutage",
    "GatewaySpec",
    "Gauge",
    "HashPlacement",
    "Histogram",
    "LeastLoadedPlacement",
    "LinkHealth",
    "ManagedLink",
    "MeasurementFeed",
    "MetricsJsonlWriter",
    "MetricsRegistry",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "Profiler",
    "ReplayReport",
    "RoundRobinPlacement",
    "SourceFeed",
    "TraceEvent",
    "TraceFeed",
    "Window",
    "default_chaos_plan",
    "escape_label_value",
    "json_safe",
    "make_placement",
    "render_prometheus",
    "replay",
    "section_problem",
]
