"""The classless gateway recipe: the paper's per-link design (memory
``T_m = T_h_tilde`` by default, a measurement period of ``T_m / 4``, the
degraded-mode target inverted from the theory) as one value that the CLI,
the process cluster, the soak and the benchmark all build from.
Multi-class gateways use :func:`~repro.classes.factory.build_classed_gateway`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.memory import critical_time_scale
from repro.errors import ParameterError

__all__ = ["COUNTER_BYTES_PER_UNIT", "COUNTER_MAX_RATE_UNITS", "GatewaySpec"]

#: Byte scale for the counter-backed measurement planes: a flow at the
#: nominal unit rate moves this many counter bytes per unit time.  Shared
#: by the ``counters`` and ``ingest`` feeds so external monitors know the
#: wire contract (see docs/telemetry.md).
COUNTER_BYTES_PER_UNIT = 1e6

#: Plausibility ceiling on one stream's rate, in nominal per-flow units.
#: Generous (the RCBR marginal at cv 0.3 essentially never reaches 10x
#: its mean) but finite, so garbage counter values poison the stream
#: instead of inflating the admission estimate.
COUNTER_MAX_RATE_UNITS = 50.0

_FEED_KINDS = ("oracle", "counters", "ingest")
_TRACE_PERIOD = 1.0


@dataclass(frozen=True)
class GatewaySpec:
    """Recipe for building deterministic twin gateways.

    Two ``build()`` calls (in any process) construct gateways that decide
    identically for identical op sequences -- the property every digest
    comparison in the replication plane rests on.  :class:`ProcessCluster`
    calls ``build()`` in the supervisor only, once per leader+follower
    pair, and ships the result to both shard processes as one state
    checkpoint; the spec itself never reaches a shard.

    Kinds
    -----
    ``trace``
        Memoryless estimators over a cycling one-section trace feed
        (the service test-suite gateway): fully deterministic, fast,
        ideal for failover tests and the CI smoke.  Its memory, period
        and feed are fixed, so setting ``memory``, ``tick_period`` or a
        non-oracle ``feed`` is rejected.
    ``rcbr``
        The paper-workload gateway: ``links`` RCBR-source links built
        via ``ManagedLink.build``, each with capacity ``n x mean`` and a
        feed seeded ``seed*1000 + i``, so twins see identical sample
        streams.
    """

    kind: str = "trace"
    links: int = 2
    capacity: float = 20.0
    placement: str = "least-loaded"
    #: Explicit healthy-mode CE parameter for ``trace`` gateways.  When
    #: set, the controller is built closed-form (no eqn-37 inversion on
    #: the decision path) -- the same principle the golden replay trace
    #: uses.  The inversion does not depend on the installed scipy
    #: either: it runs on the pure-Python ports in
    #: ``repro.theory.numerics``.  ``None`` keeps the historical
    #: p_q=0.05 build.
    alpha: float | None = None
    # rcbr-only design values
    n: float = 20.0
    holding_time: float = 100.0
    correlation_time: float = 10.0
    snr: float = 0.3
    p_q: float = 0.01
    stale_fraction: float = 1.0
    seed: int = 0
    #: Estimator memory T_m: ``None`` is the T_h_tilde rule, 0 memoryless.
    memory: float | None = None
    #: Measurement period: ``None`` is ``T_m / 4`` with a floor of 1e-3.
    tick_period: float | None = None
    #: ``oracle`` samples the source directly, ``counters`` polls cumulative
    #: byte counters, ``ingest`` takes pushed counters only.
    feed: str = "oracle"
    #: Counter width in bits for the ``counters`` and ``ingest`` feeds.
    counter_width: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ("trace", "rcbr"):
            raise ParameterError(
                f"unknown gateway spec kind {self.kind!r}; "
                "choose 'trace' or 'rcbr'"
            )
        if self.links < 1:
            raise ParameterError("a gateway spec needs at least one link")
        if self.capacity <= 0.0:
            raise ParameterError("capacity must be positive")
        if self.alpha is not None and self.alpha <= 0.0:
            raise ParameterError("alpha must be positive when given")
        if self.memory is not None and self.memory < 0.0:
            raise ParameterError(
                "memory must be non-negative (0 selects the memoryless "
                "estimator and the memoryless degraded-mode theory)"
            )
        if self.tick_period is not None and self.tick_period <= 0.0:
            raise ParameterError("tick_period must be positive when given")
        if self.feed not in _FEED_KINDS:
            raise ParameterError(
                f"unknown feed {self.feed!r}; choose one of {_FEED_KINDS}"
            )
        if self.kind == "trace":
            fixed = {"memory": self.memory, "tick_period": self.tick_period,
                     "feed": None if self.feed == "oracle" else self.feed}
            for name, value in fixed.items():
                if value is not None:
                    raise ParameterError(
                        f"the trace gateway is memoryless over a fixed oracle "
                        f"trace feed; it takes no {name} (got {name}={value!r})"
                    )

    @property
    def memory_in_use(self) -> float:
        """The estimator memory T_m the built links run with."""
        if self.kind == "trace":
            return 0.0
        if self.memory is not None:
            return self.memory
        return critical_time_scale(self.holding_time, self.n)

    @property
    def feed_period(self) -> float:
        """The measurement period the built feeds run with."""
        if self.kind == "trace":
            return _TRACE_PERIOD
        if self.tick_period is not None:
            return self.tick_period
        return max(self.memory_in_use / 4.0, 1e-3)

    def with_seed(self, seed: int) -> "GatewaySpec":
        """A copy with a different seed (per-shard feed decorrelation)."""
        return dataclasses.replace(self, seed=int(seed))

    def build(self, *, registry=None, tracer=None, profiler=None):
        """Build a fresh gateway; the observers are shared by every link."""
        from repro.runtime.gateway import AdmissionGateway
        from repro.runtime.metrics import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        make_link = self._trace_link if self.kind == "trace" else self._rcbr_link
        links = [
            make_link(i, registry=registry, tracer=tracer, profiler=profiler)
            for i in range(self.links)
        ]
        return AdmissionGateway(
            links,
            placement=self.placement,
            registry=registry,
            tracer=tracer,
            profiler=profiler,
        )

    def _trace_link(self, i: int, **observers):
        from repro.core.controllers import CertaintyEquivalentController
        from repro.core.estimators import CrossSection, MemorylessEstimator
        from repro.runtime.feed import TraceFeed
        from repro.runtime.link import ManagedLink

        n, mean, var = 6, 1.0, 0.09
        m2 = mean * mean + var * (n - 1) / n
        section = CrossSection(n=n, mean=mean, second_moment=m2, variance=var)
        if self.alpha is not None:
            controller = CertaintyEquivalentController(
                self.capacity, alpha=self.alpha
            )
        else:
            controller = CertaintyEquivalentController(self.capacity, 0.05)
        return ManagedLink(
            f"link{i}",
            capacity=self.capacity,
            holding_time=100.0,
            mean_rate=1.0,
            feed=TraceFeed([section], period=_TRACE_PERIOD, cycle=True),
            estimator=MemorylessEstimator(),
            controller=controller,
            conservative_controller=CertaintyEquivalentController(
                self.capacity, alpha=3.0
            ),
            stale_horizon=5.0,
            **observers,
        )

    def _rcbr_link(self, i: int, **observers):
        from repro.runtime.link import ManagedLink
        from repro.traffic.rcbr import paper_rcbr_source

        source = paper_rcbr_source(
            mean=1.0, cv=self.snr, correlation_time=self.correlation_time
        )
        return ManagedLink.build(
            f"link{i}",
            capacity=self.n * source.mean,
            holding_time=self.holding_time,
            mean_rate=source.mean,
            feed=self._feed(source, seed=self.seed * 1000 + i),
            p_q=self.p_q,
            snr=self.snr,
            correlation_time=self.correlation_time,
            memory=self.memory,
            stale_fraction=self.stale_fraction,
            **observers,
        )

    def _feed(self, source, *, seed: int):
        # repro.telemetry is loaded only by the counter-backed feeds.
        period = self.feed_period
        if self.feed == "oracle":
            from repro.runtime.feed import SourceFeed

            return SourceFeed(source, period=period, seed=seed)
        scale = dict(
            width=self.counter_width,
            max_rate=COUNTER_MAX_RATE_UNITS * COUNTER_BYTES_PER_UNIT,
            rate_scale=COUNTER_BYTES_PER_UNIT,
        )
        if self.feed == "ingest":
            from repro.telemetry import IngestFeed

            return IngestFeed(period, **scale)
        from repro.telemetry import CounterPollerFeed, SyntheticCounterSource

        counters = SyntheticCounterSource(
            source,
            seed=seed,
            width=self.counter_width,
            bytes_per_unit=COUNTER_BYTES_PER_UNIT,
        )
        return CounterPollerFeed(counters, period, **scale)
