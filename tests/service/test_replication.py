"""Replication-plane tests: bounded journals, journal-sync shipping,
standby followers, failover promotion, two-phase migration, and the
multi-process cluster supervisor."""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ParameterError, RemoteError, RuntimeStateError
from repro.runtime.faults import FaultPlan, FeedFaults
from repro.service import server as server_module
from repro.service.protocol import JOURNAL_OPS, make_request
from repro.service.replication import (
    GatewaySpec,
    ProcessCluster,
    process_fault_schedule,
)
from repro.service.server import AdmissionServer, digest_record, replay_journal

from .conftest import run

SPEC = GatewaySpec(kind="trace", links=2, capacity=20.0)


def make_server(**kwargs) -> AdmissionServer:
    defaults = dict(
        collect_digest=True,
        keep_journal=True,
        gateway_factory=SPEC.build,
    )
    defaults.update(kwargs)
    return AdmissionServer(SPEC.build(), **defaults)


def req(op, request_id, **fields):
    return make_request(op, request_id, **fields)


async def drive(server, n, *, t0=0.0, depart_every=3, rid=0):
    """Admit ``n`` flows (departing every ``depart_every``-th) via submit."""
    t = t0
    for i in range(n):
        t += 0.05
        flow = f"f{rid}-{i}"
        response = await server.submit(req("admit", rid * 100000 + i, flow=flow, t=t))
        assert response["ok"], response
        if depart_every and i % depart_every == depart_every - 1:
            t += 0.01
            await server.submit(
                req("depart", rid * 100000 + 50000 + i, flow=flow, t=t)
            )
    return t


class TestGatewaySpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ParameterError):
            GatewaySpec(kind="nope")
        with pytest.raises(ParameterError):
            GatewaySpec(links=0)
        with pytest.raises(ParameterError):
            GatewaySpec(capacity=0.0)

    def test_twins_decide_identically(self):
        async def scenario():
            a = make_server(name="a")
            b = make_server(name="b")
            await a.start_dispatcher()
            await b.start_dispatcher()
            try:
                await drive(a, 40)
                await drive(b, 40)
                return a.digest(), b.digest()
            finally:
                await a.stop()
                await b.stop()

        left, right = run(scenario())
        assert left is not None and left == right

    def test_with_seed_is_pure(self):
        spec = GatewaySpec(kind="rcbr", seed=3)
        assert spec.with_seed(7).seed == 7
        assert spec.seed == 3

    def test_counter_fed_gateway_survives_a_state_checkpoint(self):
        """A shard boots a counter-fed rcbr gateway from the supervisor's
        checkpoint: the loaded copy decides exactly as the original."""
        from repro.service.server import dump_gateway_state, load_gateway_state
        from repro.telemetry import CounterPollerFeed

        def drive(gateway, start, stop):
            lines = []
            for i in range(start, stop):
                t = 0.25 * i
                decision = gateway.admit(f"f{i}", t)
                lines.append(digest_record(f"f{i}", decision))
                if gateway.link_of(f"f{i - 2}") is not None and i % 3 == 2:
                    gateway.depart(f"f{i - 2}", t)
            return lines

        spec = GatewaySpec(kind="rcbr", links=2, n=20, holding_time=50,
                           feed="counters", counter_width=32, seed=5)
        gateway = spec.build()
        drive(gateway, 0, 200)
        twin = load_gateway_state(dump_gateway_state(gateway))
        assert all(
            isinstance(link.feed, CounterPollerFeed) for link in twin.links
        )
        after = drive(twin, 200, 600)
        assert after == drive(gateway, 200, 600)
        assert {line.split(b"|")[1] for line in after} == {b"0", b"1"}


class TestJournalBounding:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AdmissionServer(SPEC.build(), journal_max_entries=64)
        with pytest.raises(ParameterError):
            AdmissionServer(
                SPEC.build(), keep_journal=True, journal_max_entries=0,
                gateway_factory=SPEC.build,
            )
        with pytest.raises(ParameterError):
            AdmissionServer(SPEC.build(), standby=True)

    def test_long_run_holds_journal_flat(self):
        """The satellite regression: a run far longer than the bound keeps
        the in-memory journal at the bound while the checkpoint keeps the
        *full* decision history replayable to the served digest."""

        async def scenario():
            server = make_server(name="bounded", journal_max_entries=64)
            await server.start_dispatcher()
            try:
                await drive(server, 400)
                return (
                    len(server.journal),
                    server.journal_start,
                    server.journal_end(),
                    server.digest(),
                    server.replay_from_checkpoint(),
                )
            finally:
                await server.stop()

        kept, start, end, served, replayed = run(scenario())
        assert kept <= 64
        assert start > 0 and start + kept == end
        assert served == replayed

    def test_retain_floor_blocks_truncation(self):
        async def scenario():
            server = make_server(name="floored", journal_max_entries=16)
            server.retain_floor = 0  # an attached follower has acked nothing
            await server.start_dispatcher()
            try:
                await drive(server, 100, depart_every=0)
                floored_len = len(server.journal)
                server.retain_floor = server.journal_end()  # all acked
                await drive(server, 30, depart_every=0, rid=1)
                acked_len = len(server.journal)
                server.retain_floor = None  # follower detached
                await drive(server, 1, depart_every=0, rid=2)
                return floored_len, acked_len, len(server.journal)
            finally:
                await server.stop()

        floored_len, acked_len, detached_len = run(scenario())
        assert floored_len == 100  # nothing truncated while unshipped
        assert acked_len == 30  # only the unacked tail survives truncation
        assert detached_len <= 16  # full bound once no follower holds a floor

    def test_stuck_floor_keeps_the_checkpoint_cadence(self, monkeypatch):
        """A floor that never advances (a dead follower) holds entries
        back, but checkpoints still come once per bound, not per append."""
        taken = []
        dump = server_module.dump_gateway_state
        monkeypatch.setattr(
            server_module, "dump_gateway_state",
            lambda gateway: taken.append(1) or dump(gateway),
        )

        async def scenario():
            server = make_server(name="stuck", journal_max_entries=16)
            server.retain_floor = 0
            await server.start_dispatcher()
            try:
                await drive(server, 170, depart_every=0)
                return (len(server.journal), server.checkpoint_offset,
                        server.digest(), server.replay_from_checkpoint())
            finally:
                await server.stop()

        kept, offset, served, replayed = run(scenario())
        assert kept == 170  # nothing above the floor is dropped
        assert offset == 170 // 17 * 17
        assert len(taken) == 1 + 170 // 17  # construction + one per 17
        assert served == replayed

    def test_replay_from_checkpoint_is_repeatable(self):
        async def scenario():
            server = make_server(name="again", journal_max_entries=32)
            await server.start_dispatcher()
            try:
                await drive(server, 100)
                first = server.replay_from_checkpoint()
                await drive(server, 20, rid=1)
                return first, server.replay_from_checkpoint(), server.digest()
            finally:
                await server.stop()

        first, second, served = run(scenario())
        assert first != second == served

    def test_checkpoint_leaves_observability_out(self):
        """Tracer and profiler are not decision state: a checkpoint of a
        traced, profiled gateway restores without them and decides as
        the original does."""
        from repro.runtime.observability import DecisionTracer, Profiler
        from repro.service.server import (
            digest_record,
            dump_gateway_state,
            load_gateway_state,
        )

        tracer, profiler = DecisionTracer(), Profiler()
        live = SPEC.build()
        live.tracer = tracer
        live.profiler = profiler
        for link in live.links:
            link.tracer = tracer
            link.profiler = profiler
        for i in range(30):
            live.admit(f"a{i}", 0.1 * i)
        restored = load_gateway_state(dump_gateway_state(live))
        assert restored.tracer is None and restored.profiler is None
        assert all(link.tracer is None for link in restored.links)
        assert live.tracer is tracer
        later = [(f"b{i}", 3.0 + 0.1 * i) for i in range(30)]
        assert [digest_record(f, live.admit(f, t)) for f, t in later] == [
            digest_record(f, restored.admit(f, t)) for f, t in later
        ]
        assert tracer.decisions == 60


class TestFollowerBounding:
    """A bounded follower checkpoints too, so its memory stays flat, and
    promotion stays verified by replaying only the tail."""

    def test_follower_journal_flat_and_promotion_verified(self):
        async def scenario():
            leader = make_server(name="lead", journal_max_entries=64)
            follower = make_server(
                name="fol", standby=True, journal_max_entries=64
            )
            leader.retain_floor = 0
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            sizes = []
            try:
                synced, t = 0, 0.0
                for rid in range(12):
                    t = await drive(leader, 50, t0=t, rid=rid)
                    entries, digest = leader.journal_segment(synced, 512)
                    response = await follower.submit(req(
                        "journal-sync", rid, shard="lead", seq=rid,
                        start=synced, entries=[list(e) for e in entries],
                        digest=digest,
                    ))
                    assert response["ok"], response
                    synced = response["result"]["total"]
                    leader.retain_floor = synced
                    sizes.append(len(follower.journal))
                table = [[flow, 0.0] for flow in leader.gateway.active_flows()]
                promoted = await follower.submit(req(
                    "promote", 99, flows=table, t=t,
                ))
                return (sizes, synced, follower.journal_start,
                        promoted["result"], leader.digest())
            finally:
                await leader.stop()
                await follower.stop()

        sizes, shipped, start, result, leader_digest = run(scenario())
        assert shipped > 8 * 64  # many times the bound went through
        assert max(sizes) <= 64
        assert start > 0  # the follower really truncated
        assert result["verified"] is True
        assert result["repaired_in"] == result["repaired_out"] == 0
        assert result["digest"] == leader_digest

    def test_tampered_tail_fails_promotion(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(
                name="fol", standby=True, journal_max_entries=16
            )
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                t = await drive(leader, 40, depart_every=0)
                await drive(leader, 10, t0=t, depart_every=0, rid=1)
                for seq, start in enumerate((0, 40)):
                    entries, digest = leader.journal_segment(start, 40)
                    await follower.submit(req(
                        "journal-sync", seq, shard="lead", seq=seq,
                        start=start, entries=[list(e) for e in entries],
                        digest=digest,
                    ))
                # The checkpoint covers the first segment; forge the tail.
                assert follower.checkpoint_offset == 40
                op, flows, t = follower.journal[-1]
                follower.journal[-1] = (op, flows + "-forged", t)
                return (await follower.submit(req("promote", 2)))["error"]
            finally:
                await leader.stop()
                await follower.stop()

        error = run(scenario())
        assert error["code"] == "state-error"
        assert "verification failed" in error["message"]


class TestStandby:
    def test_refuses_data_ops(self):
        async def scenario():
            follower = make_server(name="fol", standby=True)
            await follower.start_dispatcher()
            try:
                out = {}
                for op, fields in (
                    ("admit", {"flow": "f1"}),
                    ("depart", {"flow": "f1"}),
                    ("admit_many", {"flows": ["a"]}),
                    ("migrate-out", {"flows": ["a"]}),
                    ("migrate-in", {"flows": [["a", 1.0]]}),
                ):
                    response = await follower.submit(req(op, 1, **fields))
                    out[op] = response["error"]
                health = await follower.submit(req("health", 9))
                return out, health["result"]["standby"]
            finally:
                await follower.stop()

        errors, standby = run(scenario())
        assert standby is True
        for op, error in errors.items():
            assert error["code"] == "state-error", (op, error)
            assert "standby" in error["message"]

    def test_journal_sync_refused_on_active_server(self):
        async def scenario():
            server = make_server(name="active")
            await server.start_dispatcher()
            try:
                return (await server.submit(req(
                    "journal-sync", 1, shard="x", seq=0, start=0, entries=[],
                )))["error"]
            finally:
                await server.stop()

        error = run(scenario())
        assert error["code"] == "state-error"


class TestJournalSync:
    async def _sync(self, follower, leader, synced, *, rid, limit=512):
        entries, digest = leader.journal_segment(synced, limit)
        response = await follower.submit(req(
            "journal-sync", rid, shard=leader.name, seq=rid,
            start=synced, entries=[list(e) for e in entries], digest=digest,
        ))
        return response

    def test_follower_reconstructs_leader_digest(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(name="fol", standby=True)
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                await drive(leader, 60)
                synced, rid = 0, 0
                while synced < leader.journal_end():
                    response = await self._sync(
                        follower, leader, synced, rid=rid, limit=17
                    )
                    assert response["ok"], response
                    synced = response["result"]["total"]
                    rid += 1
                final = response["result"]
                return final, leader.digest(), follower.digest()
            finally:
                await leader.stop()
                await follower.stop()

        final, leader_digest, follower_digest = run(scenario())
        assert final["digest_ok"] is True
        assert final["digest"] == leader_digest == follower_digest

    def test_gap_detected_and_names_expected_offset(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(name="fol", standby=True)
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                await drive(leader, 10, depart_every=0)
                entries, digest = leader.journal_segment(5, 512)
                response = await follower.submit(req(
                    "journal-sync", 1, shard="lead", seq=0, start=5,
                    entries=[list(e) for e in entries], digest=digest,
                ))
                return response["error"]
            finally:
                await leader.stop()
                await follower.stop()

        error = run(scenario())
        assert error["code"] == "state-error"
        assert "expects 0" in error["message"]

    def test_overlap_is_skipped_idempotently(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(name="fol", standby=True)
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                await drive(leader, 10, depart_every=0)
                first = await self._sync(follower, leader, 0, rid=1)
                again = await self._sync(follower, leader, 0, rid=2)
                return first["result"], again["result"], follower.digest()
            finally:
                await leader.stop()
                await follower.stop()

        first, again, digest = run(scenario())
        assert first["applied"] == first["total"] == 10
        assert again["applied"] == 0 and again["total"] == 10
        assert again["digest_ok"] is True and again["digest"] == digest

    def test_divergence_is_fatal(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(name="fol", standby=True)
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                await drive(leader, 6, depart_every=0)
                entries, _ = leader.journal_segment(0, 512)
                response = await follower.submit(req(
                    "journal-sync", 1, shard="lead", seq=0, start=0,
                    entries=[list(e) for e in entries],
                    digest="0" * 64,
                ))
                return response["error"]
            finally:
                await leader.stop()
                await follower.stop()

        error = run(scenario())
        assert error["code"] == "state-error"
        assert "diverged" in error["message"]


class TestPromotion:
    def test_promote_verifies_replay_and_repairs(self):
        async def scenario():
            leader = make_server(name="lead")
            follower = make_server(name="fol", standby=True)
            await leader.start_dispatcher()
            await follower.start_dispatcher()
            try:
                t = await drive(leader, 30)
                # Ship everything, then admit two more the follower will
                # never see -- the "dead leader's unshipped tail".
                entries, digest = leader.journal_segment(0, 4096)
                await follower.submit(req(
                    "journal-sync", 1, shard="lead", seq=0, start=0,
                    entries=[list(e) for e in entries], digest=digest,
                ))
                extra = []
                for i in range(2):
                    t += 0.05
                    flow = f"late-{i}"
                    response = await leader.submit(req(
                        "admit", 100 + i, flow=flow, t=t,
                    ))
                    if response["result"]["decision"]["admitted"]:
                        extra.append([flow, response["result"]["t"]])
                # The supervisor's table: everything the leader carries.
                table = [
                    [flow, 0.0]
                    for flow in leader.gateway.active_flows()
                ]
                response = await follower.submit(req(
                    "promote", 2, flows=table, t=t,
                ))
                assert response["ok"], response
                result = response["result"]
                health = await follower.submit(req("health", 3))
                return result, len(extra), health["result"]["standby"]
            finally:
                await leader.stop()
                await follower.stop()

        result, n_extra, standby = run(scenario())
        assert result["promoted"] is True
        assert result["verified"] is True
        assert result["repaired_in"] == n_extra
        assert result["repaired_out"] == 0
        assert standby is False

    def test_promote_refused_when_already_active(self):
        async def scenario():
            server = make_server(name="lead")
            await server.start_dispatcher()
            try:
                return (await server.submit(req("promote", 1)))["error"]
            finally:
                await server.stop()

        assert run(scenario())["code"] == "state-error"


class TestTwoPhaseMigration:
    def test_migrated_flows_replay_on_both_shards(self):
        """migrate-out journals the departure, migrate-in the placement
        with the original admission time; both journals replay to their
        served digests on fresh twins (nothing lost, nothing doubled)."""

        async def scenario():
            a = make_server(name="a")
            b = make_server(name="b")
            await a.start_dispatcher()
            await b.start_dispatcher()
            try:
                t = await drive(a, 20)
                moving = a.gateway.active_flows()[:5]
                t += 1.0
                out = await a.submit(req(
                    "migrate-out", 1, flows=list(moving), t=t,
                ))
                assert out["ok"], out
                pairs = [[flow, 0.5] for flow in moving]
                incoming = await b.submit(req(
                    "migrate-in", 2, flows=pairs, t=t,
                ))
                assert incoming["ok"], incoming
                # Second migrate-in of the same flows must refuse rather
                # than double-place.
                doubled = await b.submit(req("migrate-in", 3, flows=pairs, t=t))
                return (
                    out["result"]["departed"],
                    incoming["result"]["installed"],
                    doubled["error"],
                    a.digest(), replay_journal(SPEC.build(), a.journal),
                    b.digest(), replay_journal(SPEC.build(), b.journal),
                    set(moving) <= set(b.gateway.active_flows()),
                    set(moving) & set(a.gateway.active_flows()),
                )
            finally:
                await a.stop()
                await b.stop()

        (departed, installed, doubled, a_digest, a_replayed,
         b_digest, b_replayed, on_b, still_on_a) = run(scenario())
        assert departed == installed == 5
        assert doubled["code"] == "state-error"
        assert "double-admit" in doubled["message"]
        assert a_digest == a_replayed
        assert b_digest == b_replayed
        assert on_b and not still_on_a


class TestProcessFaultSchedule:
    def test_extracts_sorted_process_events(self):
        plan = FaultPlan(links={
            "s1": FeedFaults(shard_crash=[[4.0, 1.0]]),
            "s0": FeedFaults(
                shard_restart=[[2.0, 1.0]], shard_crash=[[9.0, 1.0]]
            ),
        })
        assert process_fault_schedule(plan) == [
            (2.0, "shard_restart", "s0"),
            (4.0, "shard_crash", "s1"),
            (9.0, "shard_crash", "s0"),
        ]


@pytest.mark.slow
class TestProcessCluster:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ProcessCluster(SPEC, shards=0)
        with pytest.raises(ParameterError):
            ProcessCluster(SPEC, replicas=2)

    def test_shard_that_dies_at_startup_names_itself(self):
        """A shard that exits before reporting its address (here: a state
        checkpoint that does not unpickle) surfaces as the supervisor's
        typed startup error with its exit code, not a bare EOFError."""
        cluster = ProcessCluster(SPEC, shards=1, replicas=0)

        async def scenario():
            process, conn = cluster._launch(
                "s0", state=b"not a pickle", standby=False
            )
            try:
                with pytest.raises(
                    RuntimeStateError,
                    match=r"shard process s0 died during startup "
                          r"\(exit code 1\)",
                ):
                    await cluster._recv_address("s0", process, conn)
            finally:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - safety net
                    process.kill()

        run(scenario())

    def test_sigkill_failover_under_load(self):
        """The acceptance test: a 3-shard multi-process cluster survives
        SIGKILL of a leader mid-run; the follower's replayed digest
        verifies, and cluster-wide reconciliation shows zero lost and
        zero double-admitted decisions."""

        async def scenario():
            async with ProcessCluster(
                SPEC, shards=3, replicas=1, journal_max_entries=256,
            ) as cluster:
                t = 0.0
                for i in range(90):
                    t += 0.05
                    await cluster.admit(f"f{i}", t)
                before = await cluster.reconcile()
                victim = cluster.ring.node_for("f0")
                await asyncio.sleep(0.3)  # let the pump drain
                cluster.kill_shard(victim)
                for i in range(90, 140):
                    t += 0.05
                    await cluster.admit(f"f{i}", t)
                for flow in list(cluster.flows)[:10]:
                    t += 0.01
                    await cluster.depart(flow, t)
                after = await cluster.reconcile()
                return before, after, cluster.failovers, list(cluster.events)

        before, after, failovers, events = run(scenario())
        assert before["ok"], before
        assert failovers == 1
        assert after["ok"], after
        assert after["lost"] == [] and after["double_admitted"] == []
        promoted = [e for e in events if e["event"] == "promoted"]
        assert len(promoted) == 1 and promoted[0]["verified"] is True
        assert promoted[0]["digest"] is not None

    def test_followers_are_bounded_and_promote_verified(self):
        """Followers get the leader's journal bound: after many times the
        bound has been shipped, the follower's journal is truncated and
        its promotion is still verified by checkpoint + tail replay."""
        from repro.service.client import AsyncAdmissionClient

        async def scenario():
            async with ProcessCluster(
                SPEC, shards=1, replicas=1, journal_max_entries=32,
            ) as cluster:
                t, admitted = 0.0, []
                for i in range(300):
                    t += 0.05
                    if (await cluster.admit(f"f{i}", t)).admitted:
                        admitted.append(f"f{i}")
                    if i % 2 and admitted:
                        t += 0.01
                        await cluster.depart(admitted.pop(0), t)
                await asyncio.sleep(0.5)  # let the pump drain
                name = cluster.shards[0]
                follower = cluster._followers[name]
                client = AsyncAdmissionClient(*follower.address, timeout=10.0)
                try:
                    service = (await client.snapshot())["service"]
                finally:
                    await client.close()
                cluster.kill_shard(name)
                t += 0.05
                await cluster.admit("after-kill", t)
                return service, list(cluster.events), await cluster.reconcile()

        service, events, reconcile = run(scenario())
        assert service["journal_start"] > 0
        assert service["journal_entries"] <= 32
        promoted = [e for e in events if e["event"] == "promoted"]
        assert len(promoted) == 1 and promoted[0]["verified"] is True
        assert reconcile["ok"], reconcile

    def test_rcbr_shards_decide_as_the_spec_builds_in_process(self):
        """The supervisor runs the rcbr recipe's theory inversion and ships
        the result: a shard booted from that checkpoint decides exactly as
        ``spec.with_seed(seed).build()`` does in this process, and its
        follower, booted from the same bytes, promotes verified."""
        from repro.service.client import AsyncAdmissionClient

        spec = GatewaySpec(kind="rcbr", links=2, n=20, holding_time=50,
                           seed=5)
        ops = []

        async def scenario():
            async with ProcessCluster(
                spec, shards=1, replicas=1, journal_max_entries=64,
            ) as cluster:
                name = cluster.shards[0]
                t, admitted = 0.0, []
                for i in range(240):
                    t += 0.25
                    ops.append(("admit", f"f{i}", t))
                    if (await cluster.admit(f"f{i}", t)).admitted:
                        admitted.append(f"f{i}")
                    if i % 3 == 2 and admitted:
                        t += 0.05
                        ops.append(("depart", admitted[0], t))
                        await cluster.depart(admitted.pop(0), t)
                served = (await cluster.reconcile())["shards"][name]["digest"]
                follower = cluster._followers[name]
                client = AsyncAdmissionClient(*follower.address, timeout=10.0)
                try:
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        snap = await client.snapshot()
                        if snap["service"]["decision_digest"] == served:
                            break
                        await asyncio.sleep(0.05)
                finally:
                    await client.close()
                cluster.kill_shard(name)
                t += 0.25
                await cluster.admit("after-kill", t)
                return served, list(cluster.events), await cluster.reconcile()

        served, events, reconcile = run(scenario())
        assert served == replay_journal(spec.with_seed(5).build(), ops)
        # The seed reaches the feeds: another seed decides differently.
        other, sha = spec.with_seed(6).build(), hashlib.sha256()
        for op, flow, t in ops:
            if op == "admit":
                sha.update(digest_record(flow, other.admit(flow, t)))
            elif other.link_of(flow) is not None:
                other.depart(flow, t)
        assert served != sha.hexdigest()
        promoted = [e for e in events if e["event"] == "promoted"]
        assert len(promoted) == 1 and promoted[0]["verified"] is True
        assert promoted[0]["digest"] == served
        assert reconcile["ok"], reconcile

    def test_restart_closes_the_client_before_signalling(self):
        """A leader that still holds the supervisor's connection waits out
        its connection-drain timeout before it exits, so a rolling restart
        closes the shard's client before it signals the old pair, as
        ``stop()`` and ``remove_shard()`` do."""
        order = []

        def recorded_terminate(handle):
            terminate = handle.process.terminate

            def wrapper():
                order.append(f"terminate {handle.role}")
                terminate()

            return wrapper

        async def scenario():
            async with ProcessCluster(SPEC, shards=1, replicas=1) as cluster:
                name = cluster.shards[0]
                t = 0.0
                for i in range(30):
                    t += 0.05
                    await cluster.admit(f"f{i}", t)
                client = cluster._clients[name]
                close = client.close

                async def recorded_close():
                    order.append("close")
                    await close()

                client.close = recorded_close
                for handle in (cluster._leaders[name],
                               cluster._followers[name]):
                    handle.process.terminate = recorded_terminate(handle)
                await cluster.restart_shard(name)
                return await cluster.reconcile()

        reconcile = run(scenario())
        assert order[:3] == ["close", "terminate leader",
                             "terminate follower"]
        assert reconcile["ok"], reconcile

    def test_ring_resize_migrates_with_reconciliation(self):
        async def scenario():
            async with ProcessCluster(
                SPEC, shards=2, replicas=0,
            ) as cluster:
                t = 0.0
                for i in range(60):
                    t += 0.05
                    await cluster.admit(f"f{i}", t)
                added = await cluster.add_shard("s9")
                mid = await cluster.reconcile()
                removed = await cluster.remove_shard("s9")
                final = await cluster.reconcile()
                return added, mid, removed, final, cluster.migrated

        added, mid, removed, final, migrated = run(scenario())
        assert added > 0  # ~1/3 of flows remap onto the new shard
        assert mid["ok"], mid
        assert removed == added  # everything it gained moves back off
        assert final["ok"], final
        assert migrated == added + removed


#: Starts a one-shard replicated cluster, writes its shard pids to
#: ``argv[1]`` and idles until killed.
HOLD_A_CLUSTER = """
import asyncio, json, multiprocessing, os, sys
from repro.service.replication import GatewaySpec, ProcessCluster


async def main():
    await ProcessCluster(GatewaySpec(), shards=1, replicas=1).start()
    pids = [child.pid for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")]
    with open(sys.argv[1] + ".tmp", "w") as fh:
        json.dump(pids, fh)
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    await asyncio.sleep(3600)


asyncio.run(main())
"""


def _shard_running(pid: int) -> bool:
    """Whether ``pid`` is a live shard process (not a zombie, not reused).

    Shards are forks of the supervisor's fork server, so they carry its
    command line.
    """
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read()
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return b"multiprocessing.forkserver" in cmdline and state != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_shards_exit_when_the_supervisor_is_killed(tmp_path):
    """A SIGKILLed supervisor runs no cleanup, so its shard processes must
    notice on their own and exit rather than keep serving as orphans."""
    out = tmp_path / "pids.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    supervisor = subprocess.Popen(
        [sys.executable, "-c", HOLD_A_CLUSTER, str(out)], env=env,
    )
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while not out.exists():
            assert supervisor.poll() is None, "supervisor died during start"
            assert time.monotonic() < deadline, "cluster did not start"
            time.sleep(0.05)
        pids = json.loads(out.read_text())
        assert len(pids) == 2 and all(_shard_running(p) for p in pids)
        supervisor.kill()
        supervisor.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while (any(_shard_running(p) for p in pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert [p for p in pids if _shard_running(p)] == []
    finally:
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait(timeout=10.0)
        for pid in pids:
            if _shard_running(pid):
                os.kill(pid, signal.SIGKILL)


#: Imports ``repro`` from ``argv[1]`` at runtime (as the benchmark runner
#: does), starts a one-shard cluster with a follower, and reports what
#: /proc says about the shard processes and their parent.
INSPECT_SHARD_PARENTS = """
import asyncio, json, multiprocessing, os, sys
sys.path.insert(0, sys.argv[1])
from repro.service.replication import GatewaySpec, ProcessCluster


def maps(pid):
    with open(f"/proc/{pid}/maps") as fh:
        return fh.read()


def parent_of(pid):
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[1])


async def main():
    async with ProcessCluster(GatewaySpec(), shards=1, replicas=1):
        shards = [child.pid for child in multiprocessing.active_children()
                  if child.name.startswith("repro-shard-")]
        parents = sorted({parent_of(pid) for pid in shards})
        print(json.dumps({
            "supervisor": os.getpid(),
            "shards": len(shards),
            "parents": parents,
            "numpy": ["_multiarray_umath" in maps(pid) for pid in parents],
            "numpy.random": ["numpy/random/_generator" in maps(pid)
                             for pid in parents],
            "scipy": [pid for pid in parents + shards
                      if "/scipy/" in maps(pid)],
        }))


asyncio.run(main())
"""


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
def test_shards_are_forks_of_a_preloaded_fork_server(tmp_path):
    """Shards are forked by one fork server that has already imported the
    decision path (numpy and ``numpy.random`` included) and no scipy, also
    when the supervisor found ``repro`` only through ``sys.path`` at
    runtime."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", INSPECT_SHARD_PARENTS,
         str(Path(repro.__file__).resolve().parent.parent)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["shards"] == 2
    assert len(report["parents"]) == 1
    assert report["parents"][0] != report["supervisor"]
    # Preloaded: numpy's core extension and numpy.random's Generator
    # extension (an rcbr checkpoint's feeds hold Generators) are mapped
    # before any shard forks.
    assert report["numpy"] == [True]
    assert report["numpy.random"] == [True]
    # ``/scipy/`` is the package directory; numpy's bundled
    # libscipy_openblas is mapped everywhere and does not count.
    assert report["scipy"] == []


class TestClusterLoadgen:
    def test_hooked_kill_inside_workload(self):
        from repro.service.loadgen import run_cluster_loadgen

        async def scenario():
            async with ProcessCluster(
                SPEC, shards=2, replicas=1, journal_max_entries=128,
            ) as cluster:
                fired = []
                hooks = [
                    (1.5, lambda: (
                        fired.append(True),
                        cluster.kill_shard(cluster.shards[0]),
                    )),
                ]
                report = await run_cluster_loadgen(
                    cluster,
                    rate=20.0,
                    holding_time=2.0,
                    n_flows=120,
                    seed=7,
                    hooks=hooks,
                )
                await cluster.heal()
                reconcile = await cluster.reconcile()
                return report, reconcile, fired, cluster.failovers

        report, reconcile, fired, failovers = run(scenario())
        assert fired == [True]
        assert report.arrivals == 120
        assert report.errors == 0
        assert failovers == 1
        assert reconcile["ok"], reconcile


def test_journal_ops_cover_migration():
    assert "migrate_out" in JOURNAL_OPS and "migrate_in" in JOURNAL_OPS


def test_remote_error_has_retryable_promotion_path():
    # The supervisor retries a shard call after promoting; make sure the
    # client surfaces the shutting-down code it keys on.
    exc = RemoteError("shutting-down", "draining", retryable=True)
    assert exc.code == "shutting-down"
