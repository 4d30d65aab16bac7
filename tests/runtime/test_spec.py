"""Differential test: the classless gateway recipe against its reference.

:class:`~repro.runtime.spec.GatewaySpec` is the one classless recipe the
CLI, the process cluster, the soak and the benchmark build from.  The
reference builder below is the per-link loop written out by hand: a
``ManagedLink.build`` over ``paper_rcbr_source`` per link, fed either by
a seeded :class:`SourceFeed` or by a :class:`SyntheticCounterSource`
behind a :class:`CounterPollerFeed` (seeded ``seed*1000+i``), with
capacity ``n x mean`` and a tick of ``max(T_m/4, 1e-3)``.  Each case
replays the same workload on both and requires the same decision digest.
Both sides solve their designs on the same pure-Python ports of scipy's
solvers (``repro.theory.numerics``), so the comparison needs no committed
hex digest.
"""

from __future__ import annotations

import pytest

from repro.core.memory import critical_time_scale
from repro.errors import ParameterError
from repro.runtime import (
    AdmissionGateway,
    DecisionTracer,
    GatewaySpec,
    ManagedLink,
    MetricsRegistry,
    Profiler,
    SourceFeed,
    default_chaos_plan,
    replay,
)
from repro.runtime.spec import COUNTER_BYTES_PER_UNIT, COUNTER_MAX_RATE_UNITS
from repro.telemetry import (
    CounterPollerFeed,
    IngestFeed,
    SyntheticCounterSource,
)
from repro.traffic.rcbr import paper_rcbr_source

#: Byte scale and rate ceiling the counter planes document (docs/telemetry.md).
BYTES_PER_UNIT = 1e6
MAX_RATE_UNITS = 50.0

RECIPE = dict(
    links=2,
    n=30.0,
    holding_time=100.0,
    correlation_time=1.0,
    snr=0.3,
    p_q=1e-2,
    placement="least-loaded",
    stale_fraction=1.0,
    memory=None,
    tick_period=None,
    feed="oracle",
    counter_width=64,
    seed=3,
)


def reference_gateway(values: dict):
    """The classless per-link loop, written out; returns (gateway, tick)."""
    memory = values["memory"]
    t_m = (
        memory
        if memory is not None
        else critical_time_scale(values["holding_time"], values["n"])
    )
    tick = values["tick_period"]
    if tick is None:
        tick = max(t_m / 4.0, 1e-3)
    registry = MetricsRegistry()
    links = []
    for i in range(values["links"]):
        source = paper_rcbr_source(
            mean=1.0, cv=values["snr"],
            correlation_time=values["correlation_time"],
        )
        seed = values["seed"] * 1000 + i
        if values["feed"] == "counters":
            width = values["counter_width"]
            feed = CounterPollerFeed(
                SyntheticCounterSource(
                    source, seed=seed, width=width,
                    bytes_per_unit=BYTES_PER_UNIT,
                ),
                tick,
                width=width,
                max_rate=MAX_RATE_UNITS * BYTES_PER_UNIT,
                rate_scale=BYTES_PER_UNIT,
            )
        else:
            feed = SourceFeed(source, period=tick, seed=seed)
        links.append(ManagedLink.build(
            f"link{i}",
            capacity=values["n"] * source.mean,
            holding_time=values["holding_time"],
            mean_rate=source.mean,
            feed=feed,
            p_q=values["p_q"],
            snr=values["snr"],
            correlation_time=values["correlation_time"],
            memory=memory,
            stale_fraction=values["stale_fraction"],
            registry=registry,
        ))
    return (
        AdmissionGateway(
            links, placement=values["placement"], registry=registry
        ),
        tick,
    )


def recipe_gateway(values: dict):
    """The recipe under test; returns (gateway, tick)."""
    spec = GatewaySpec(kind="rcbr", **values)
    return spec.build(), spec.feed_period


def replay_digest(build, values: dict, *, batch: bool = False,
                  chaos: bool = False) -> str:
    gateway, tick = build(values)
    plan = None
    if chaos:
        plan = default_chaos_plan(
            [link.name for link in gateway.links],
            period=tick,
            start=4.0 * tick,
            seed=values["seed"],
            counters=values["feed"] == "counters",
        )
    report = replay(
        gateway,
        n_events=3000,
        arrival_rate=1.3 * values["links"] * values["n"]
        / values["holding_time"],
        holding_time=values["holding_time"],
        tick_period=tick,
        seed=values["seed"],
        batch_window=tick if batch else None,
        fault_plan=plan,
        collect_digest=True,
    )
    assert report.admitted > 0 and report.rejected > 0
    return report.decision_digest


CASES = {
    "oracle": ({}, {}),
    "counters-32": ({"feed": "counters", "counter_width": 32}, {}),
    "counters-64": ({"feed": "counters", "counter_width": 64}, {}),
    "memoryless": ({"memory": 0.0, "tick_period": 1.0}, {}),
    "round-robin": ({"tick_period": 0.5, "placement": "round-robin"}, {}),
    "batched": ({}, {"batch": True}),
    "chaos": ({}, {"chaos": True}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_recipe_decides_as_the_reference_loop(case):
    overrides, drive = CASES[case]
    values = dict(RECIPE, **overrides)
    assert replay_digest(recipe_gateway, values, **drive) == replay_digest(
        reference_gateway, values, **drive
    )


class TestValues:
    def test_memory_and_feed_period_in_use(self):
        rule = GatewaySpec(kind="rcbr", n=100.0, holding_time=500.0)
        assert rule.memory_in_use == critical_time_scale(500.0, 100.0) == 50.0
        assert rule.feed_period == 12.5
        assert GatewaySpec(kind="rcbr", memory=8.0).feed_period == 2.0
        memoryless = GatewaySpec(kind="rcbr", memory=0.0)
        assert memoryless.memory_in_use == 0.0
        assert memoryless.feed_period == 1e-3
        explicit = GatewaySpec(kind="rcbr", memory=0.0, tick_period=1.0)
        assert explicit.feed_period == 1.0
        trace = GatewaySpec()
        assert (trace.memory_in_use, trace.feed_period) == (0.0, 1.0)

    def test_links_run_the_period_in_use(self):
        for spec in (GatewaySpec(), GatewaySpec(kind="rcbr", tick_period=0.5)):
            gateway = spec.build()
            assert [link.feed.period for link in gateway.links] == [
                spec.feed_period
            ] * spec.links

    def test_observers_reach_every_link_and_the_gateway(self):
        registry = MetricsRegistry()
        tracer, profiler = DecisionTracer(), Profiler(registry)
        for kind in ("trace", "rcbr"):
            gateway = GatewaySpec(kind=kind).build(
                registry=registry, tracer=tracer, profiler=profiler
            )
            for part in (gateway, *gateway.links):
                assert part.registry is registry
                assert part.tracer is tracer and part.profiler is profiler

    def test_ingest_feed_takes_the_documented_byte_scale(self):
        assert COUNTER_BYTES_PER_UNIT == BYTES_PER_UNIT
        assert COUNTER_MAX_RATE_UNITS == MAX_RATE_UNITS
        spec = GatewaySpec(
            kind="rcbr", links=3, feed="ingest", counter_width=32,
            tick_period=0.5,
        )
        for link in spec.build().links:
            assert isinstance(link.feed, IngestFeed)
            assert link.feed.period == 0.5
            assert link.feed.width == 32
            assert link.feed.rate_scale == BYTES_PER_UNIT
            assert link.feed.max_rate == MAX_RATE_UNITS * BYTES_PER_UNIT

    @pytest.mark.parametrize(
        "field, value",
        [("memory", 0.0), ("memory", 50.0), ("tick_period", 1.0),
         ("feed", "counters"), ("feed", "ingest")],
    )
    def test_trace_rejects_what_it_fixes(self, field, value):
        with pytest.raises(ParameterError, match=field):
            GatewaySpec(kind="trace", **{field: value})

    def test_trace_ignores_the_counter_width(self):
        assert GatewaySpec(kind="trace", counter_width=32).build()

    @pytest.mark.parametrize(
        "values",
        [{"memory": -1.0}, {"tick_period": 0.0}, {"tick_period": -0.5},
         {"feed": "snmp"}, {"kind": "nope"}, {"links": 0},
         {"capacity": 0.0}, {"alpha": 0.0}],
    )
    def test_rejects_bad_values(self, values):
        with pytest.raises(ParameterError):
            GatewaySpec(**{"kind": "rcbr", **values})

    def test_trace_alpha_is_installed_closed_form(self):
        gateway = GatewaySpec(alpha=2.5).with_seed(4).build()
        assert {link.controller.criterion.alpha for link in gateway.links} == {2.5}
