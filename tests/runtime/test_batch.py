"""Differential tests for the batched admission path.

The contract under test: ``admit_many(k, now)`` is semantically identical
to ``k`` sequential ``admit(now)`` calls at the same timestamp -- same
decisions (order included), same counter increments, same final occupancy
-- across every decision path the link has (healthy target, degraded
conservative target, bootstrap, no-measurement), pooled and per class.
Decisions compare as their exact digest lines.  The gateway layer adds
batched placement; hash and round-robin placements must be exactly
sequential-equivalent, least-loaded is a documented heuristic (spreads on
predicted load) and is only checked for its spreading behaviour.
"""

import math

import pytest

from repro.classes.factory import build_classed_gateway
from repro.errors import ParameterError, RuntimeStateError
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.replay import replay
from repro.runtime.observability import digest_record

from .conftest import STALE_HORIZON, make_link, make_section

LINK_COUNTERS = ("admits", "rejects", "departures", "measurements",
                 "degradations")


def link_counters(link):
    """The link's counter values keyed by short name (missing -> 0)."""
    counters = link.registry.snapshot()["counters"]
    prefix = f"link.{link.name}."
    return {
        short: counters.get(prefix + short, 0.0) for short in LINK_COUNTERS
    }


def assert_same_decision(batched, sequential):
    """Byte-identical digest lines plus the fields the digest leaves out."""
    assert digest_record("f", batched) == digest_record("f", sequential)
    assert batched.degraded == sequential.degraded
    assert batched.health == sequential.health
    for field in ("mu_hat", "sigma_hat"):
        assert repr(getattr(batched, field)) == repr(getattr(sequential, field))


def assert_batch_matches_sequential(prepare, k, now, **link_kwargs):
    """Run the differential: one burst vs k sequential admits at ``now``."""
    # One name for both: the link name is part of the digest line.
    batch_link = make_link("twin", **link_kwargs)
    seq_link = make_link("twin", **link_kwargs)
    prepare(batch_link)
    prepare(seq_link)

    batched = batch_link.admit_many(k, now)
    sequential = [seq_link.admit(now) for _ in range(k)]

    assert len(batched) == k
    for b, s in zip(batched, sequential):
        assert_same_decision(b, s)
    assert batch_link.n_flows == seq_link.n_flows
    batch_counts = link_counters(batch_link)
    seq_counts = link_counters(seq_link)
    assert batch_counts == seq_counts
    return batched


class TestLinkDifferential:
    def test_healthy_burst_from_empty(self):
        decisions = assert_batch_matches_sequential(
            lambda link: link.tick(0.0), k=25, now=0.1
        )
        admitted = [d for d in decisions if d.admitted]
        assert len(admitted) == 17  # floor of the plain target ~17.91
        assert all(d.reason == "target" for d in decisions)
        # Accept-prefix shape: no admit after the first reject.
        flags = [d.admitted for d in decisions]
        assert flags == sorted(flags, reverse=True)

    def test_healthy_burst_mid_fill(self):
        def prepare(link):
            link.tick(0.0)
            for i in range(10):
                assert link.admit(0.01 + 1e-3 * i).admitted

        decisions = assert_batch_matches_sequential(prepare, k=12, now=0.5)
        assert sum(d.admitted for d in decisions) == 7  # 10 + 7 = 17

    def test_degraded_burst_uses_conservative_target(self):
        # Silence (paused feed) past the horizon degrades without tripping
        # the breaker; the burst runs against the conservative target.
        def prepare(link):
            link.tick(0.0)
            link.feed.pause()

        decisions = assert_batch_matches_sequential(
            prepare, k=40, now=STALE_HORIZON + 1.0
        )
        assert sum(d.admitted for d in decisions) == 16  # conservative ~16.36
        assert all(d.degraded for d in decisions)
        assert all(d.reason == "conservative-target" for d in decisions)

    def test_quarantined_burst_fails_closed(self):
        # An exhausted feed past the horizon trips the breaker: the whole
        # burst is rejected, identically to sequential calls.
        def prepare(link):
            link.tick(0.0)

        decisions = assert_batch_matches_sequential(
            prepare, k=7, now=STALE_HORIZON + 1.0, cycle=False
        )
        assert not any(d.admitted for d in decisions)
        assert all(d.reason == "quarantined" for d in decisions)
        assert all(d.health == "quarantined" for d in decisions)

    def test_bootstrap_prefix_on_measured_empty_system(self):
        sections = [make_section(n=0, mean=0.0, var=0.0)]
        decisions = assert_batch_matches_sequential(
            lambda link: None, k=4, now=0.0,
            sections=sections, cycle=False,
        )
        assert decisions[0].admitted and decisions[0].reason == "bootstrap"
        # The zero estimate blocks everything after the bootstrap flow.
        assert not any(d.admitted for d in decisions[1:])

    def test_never_measured_burst_rejects(self):
        decisions = assert_batch_matches_sequential(
            lambda link: link.feed.pause(), k=3, now=0.5
        )
        assert not any(d.admitted for d in decisions)
        assert all(d.reason == "no-measurement" for d in decisions)
        assert all(math.isnan(d.target) for d in decisions)

    def test_empty_and_invalid_bursts(self, link):
        assert link.admit_many(0, 0.0) == []
        with pytest.raises(ParameterError):
            link.admit_many(-1, 0.0)

    def test_depart_many(self, link):
        link.tick(0.0)
        admitted = sum(d.admitted for d in link.admit_many(20, 0.1))
        link.depart_many(5, 0.2)
        assert link.n_flows == admitted - 5
        assert link_counters(link)["departures"] == 5.0

    def test_depart_many_rejects_overdraw(self, link):
        link.tick(0.0)
        link.admit_many(3, 0.1)
        with pytest.raises(RuntimeStateError):
            link.depart_many(99, 0.2)
        assert link.n_flows == 3  # untouched


def classed_twins(state):
    """Two identical classed links, driven into ``state`` in lockstep.

    ``cold`` is a fresh link (class priors only), ``warm`` follows a
    seeded mixed-class schedule through the gateway, and ``degraded``
    pauses the warm link's feed past its stale horizon.  Returns the
    two links and the instant the burst is decided at.
    """
    links = []
    for _ in range(2):
        gateway, _ = build_classed_gateway(links=1, seed=3)
        link = gateway.links[0]
        now = 0.0
        if state != "cold":
            live = []
            for i in range(400):
                now += 0.5
                flow = f"w{i}"
                flow_class = ("video", "data", "voice")[(i * 7) % 3]
                if gateway.admit(flow, now, flow_class).admitted:
                    live.append(flow)
                if i % 3 == 0 and live:
                    gateway.depart(live.pop((i * 5) % len(live)), now)
            now += 0.5
        if state == "degraded":
            link.feed.pause()
            now += link.stale_horizon + 1.0
        links.append(link)
    return links[0], links[1], now


def instruments(link):
    snapshot = link.registry.snapshot()
    return snapshot["counters"], snapshot["gauges"]


class TestClassedLinkDifferential:
    """A classed burst equals ``k`` sequential classed admits, and a
    classless burst on a classed link is decided on the pooled view."""

    @pytest.mark.parametrize("state", ["cold", "warm", "degraded"])
    @pytest.mark.parametrize("flow_class", ["video", "data", "voice", None])
    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_burst_matches_sequential(self, state, flow_class, k):
        batch_link, seq_link, now = classed_twins(state)

        batched = batch_link.admit_many(k, now, flow_class)
        sequential = [seq_link.admit(now, flow_class) for _ in range(k)]

        assert len(batched) == k
        for b, s in zip(batched, sequential):
            assert_same_decision(b, s)
        assert batch_link.n_flows == seq_link.n_flows
        assert batch_link.class_counts() == seq_link.class_counts()
        assert instruments(batch_link) == instruments(seq_link)
        if state == "degraded":
            assert all(d.degraded for d in batched)


def make_gateway(n_links=2, policy="hash", tracer=None, **link_kwargs):
    registry = MetricsRegistry()
    links = [
        make_link(f"link{i}", registry=registry, **link_kwargs)
        for i in range(n_links)
    ]
    for link in links:
        link.tracer = tracer
    return AdmissionGateway(links, placement=policy, registry=registry)


class TestGatewayBatch:
    @pytest.mark.parametrize("policy", ["hash", "round-robin"])
    def test_matches_sequential_for_stateless_placement(self, policy):
        batch_gw = make_gateway(policy=policy)
        seq_gw = make_gateway(policy=policy)
        for gw in (batch_gw, seq_gw):
            gw.tick(0.0)
        flow_ids = [f"flow-{i}" for i in range(30)]

        batched = batch_gw.admit_many(flow_ids, 0.1)
        sequential = [seq_gw.admit(fid, 0.1) for fid in flow_ids]

        for b, s in zip(batched, sequential):
            assert b.link == s.link
            assert_same_decision(b, s)
        for fid in flow_ids:
            seq_link = seq_gw.link_of(fid)
            batch_link = batch_gw.link_of(fid)
            assert (seq_link.name if seq_link else None) == (
                batch_link.name if batch_link else None
            )
        assert batch_gw.n_flows == seq_gw.n_flows
        b_counters = batch_gw.snapshot()["counters"]
        s_counters = seq_gw.snapshot()["counters"]
        for name in ("gateway.admits", "gateway.rejects"):
            assert b_counters[name] == s_counters[name]

    def test_least_loaded_spreads_burst(self):
        gateway = make_gateway(n_links=4, policy="least-loaded")
        gateway.tick(0.0)
        decisions = gateway.admit_many(list(range(8)), 0.1)
        per_link = {}
        for decision in decisions:
            per_link[decision.link] = per_link.get(decision.link, 0) + 1
        # Water-filling over equal links must not pile on one link.
        assert per_link == {f"link{i}": 2 for i in range(4)}

    def test_duplicate_flow_in_burst_raises(self):
        gateway = make_gateway()
        gateway.tick(0.0)
        with pytest.raises(RuntimeStateError):
            gateway.admit_many(["a", "b", "a"], 0.1)
        assert gateway.n_flows == 0  # validation precedes any admission

    def test_already_active_flow_raises(self):
        gateway = make_gateway()
        gateway.tick(0.0)
        assert gateway.admit("a", 0.1).admitted
        with pytest.raises(RuntimeStateError):
            gateway.admit_many(["b", "a"], 0.2)
        assert gateway.n_flows == 1

    def test_empty_burst(self):
        gateway = make_gateway()
        assert gateway.admit_many([], 0.0) == []

    def test_depart_many_bills_the_right_links(self):
        gateway = make_gateway(policy="round-robin")
        gateway.tick(0.0)
        flow_ids = list(range(10))
        decisions = gateway.admit_many(flow_ids, 0.1)
        admitted = [f for f, d in zip(flow_ids, decisions) if d.admitted]
        before = {link.name: link.n_flows for link in gateway.links}
        leaving = admitted[:4]
        expected_per_link = {}
        for fid in leaving:
            name = gateway.link_of(fid).name
            expected_per_link[name] = expected_per_link.get(name, 0) + 1
        gateway.depart_many(leaving, 0.2)
        assert gateway.n_flows == len(admitted) - len(leaving)
        for link in gateway.links:
            assert link.n_flows == before[link.name] - expected_per_link.get(
                link.name, 0
            )

    def test_depart_many_validates_before_mutating(self):
        gateway = make_gateway()
        gateway.tick(0.0)
        gateway.admit_many(["a", "b"], 0.1)
        n_before = gateway.n_flows
        with pytest.raises(RuntimeStateError):
            gateway.depart_many(["a", "missing"], 0.2)
        assert gateway.n_flows == n_before  # nothing was removed
        gateway.depart_many(["a"], 0.3)  # still departable afterwards
        with pytest.raises(RuntimeStateError):
            gateway.depart_many(["b", "b"], 0.4)  # duplicate in one burst


class TestTracedDifferential:
    """Tracing must not perturb the batched == sequential equivalence,
    and both paths must produce the identical decision stream + digest."""

    @pytest.mark.parametrize("policy", ["hash", "round-robin"])
    def test_traced_batch_digest_equals_traced_sequential(self, policy):
        from repro.runtime.observability import DecisionTracer

        batch_tracer = DecisionTracer()
        seq_tracer = DecisionTracer()
        batch_gw = make_gateway(policy=policy, tracer=batch_tracer)
        seq_gw = make_gateway(policy=policy, tracer=seq_tracer)
        for gw in (batch_gw, seq_gw):
            gw.tick(0.0)
        flow_ids = [f"flow-{i}" for i in range(30)]

        batched = batch_gw.admit_many(flow_ids, 0.1)
        sequential = [seq_gw.admit(fid, 0.1) for fid in flow_ids]
        for b, s in zip(batched, sequential):
            assert b.link == s.link
            assert_same_decision(b, s)

        assert batch_tracer.decisions == seq_tracer.decisions == 30
        assert batch_tracer.digest() == seq_tracer.digest()
        # The deterministic event streams are identical too (latency, the
        # one wall-clock field, is excluded by deterministic mode).
        batch_lines = list(batch_tracer.event_lines(deterministic=True))
        seq_lines = list(seq_tracer.event_lines(deterministic=True))
        assert batch_lines == seq_lines

    def test_traced_decisions_match_returned_order(self):
        from repro.runtime.observability import DecisionTracer

        tracer = DecisionTracer()
        gateway = make_gateway(policy="round-robin", tracer=tracer)
        gateway.tick(0.0)
        flow_ids = [f"b-{i}" for i in range(25)]
        decisions = gateway.admit_many(flow_ids, 0.1)
        events = [e for e in tracer.events if e.kind in ("admit", "reject")]
        assert [e.flow_id for e in events] == flow_ids
        assert [e.kind == "admit" for e in events] == [
            d.admitted for d in decisions
        ]


class TestReplayBatchMode:
    def test_batched_replay_reports_bursts(self):
        report = replay(
            make_gateway(n_links=2, policy="least-loaded"),
            n_events=2000,
            arrival_rate=4.0,
            holding_time=50.0,
            tick_period=1.0,
            seed=7,
            batch_window=1.0,
        )
        assert report.batches > 0
        assert report.arrivals == report.admitted + report.rejected
        assert report.admitted > 0
        assert report.final_flows <= report.admitted

    def test_sequential_replay_has_no_batches(self):
        report = replay(
            make_gateway(n_links=2, policy="least-loaded"),
            n_events=500,
            arrival_rate=4.0,
            holding_time=50.0,
            tick_period=1.0,
            seed=7,
        )
        assert report.batches == 0

    def test_batch_window_must_be_positive(self):
        with pytest.raises(ParameterError):
            replay(
                make_gateway(),
                n_events=10,
                arrival_rate=1.0,
                holding_time=10.0,
                tick_period=1.0,
                batch_window=0.0,
            )
