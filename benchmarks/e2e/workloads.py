"""The four workloads: what each builds, how it issues requests, what it checks.

Every workload offers flows at 1.1x the gateway's flow capacity (the
near-capacity operating point where admit, reject and depart all run)
and differs in the path a decision takes:

* ``gateway-nearcap`` -- an in-process gateway, one caller: only
  ``core`` and ``runtime`` work;
* ``served-single`` -- the same recipe behind a child-process server,
  one frame per decision: protocol, dispatch and client costs dominate;
* ``served-burst-classed`` -- a classed gateway behind a child-process
  server, ~64-decision bursts split into class-pure ``admit_many``
  frames: the batch path and the ``classes`` layer dominate;
* ``cluster-replicated`` -- a two-shard ``ProcessCluster`` with one
  journal-shipped follower per shard: supervisor routing, per-shard
  pipelining and replication.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import multiprocessing
import os
import sys
import time

from repro.classes.factory import mixture_parameters
from repro.classes.policy import default_class_policies
from repro.core.memory import critical_time_scale
from repro.errors import RemoteError, RuntimeStateError, UnknownFlowError
from repro.service.client import AsyncAdmissionClient
from repro.service.replication import ProcessCluster
from repro.service.server import digest_record

from e2e import server_child
from e2e.schedule import Schedule, Timeline

#: Offered load over the gateway's flow capacity.
LOAD = 1.1
#: Request failures a workload counts instead of raising.
FAILURES = (RemoteError, RuntimeStateError, UnknownFlowError,
            ConnectionError, OSError, asyncio.TimeoutError)
#: Per-call client deadline, seconds.
CALL_TIMEOUT = 10.0
#: Seconds to wait for a child process to report or to exit.
CHILD_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_wakeups(pid: int) -> int:
    """Voluntary context switches of process ``pid``: how often it slept
    waiting for input and was woken."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    raise RuntimeError(f"no context switch count for pid {pid}")


async def _recv(conn, process, timeout: float = CHILD_TIMEOUT):
    """Await one message from a child without blocking the event loop."""
    deadline = time.monotonic() + timeout
    while not conn.poll():
        if not process.is_alive():
            raise RuntimeError(
                f"{process.name} exited with code {process.exitcode}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"{process.name} did not answer in {timeout}s")
        await asyncio.sleep(0.005)
    return conn.recv()


class Workload:
    """Shared state: the schedule, the flow table and the decision checks."""

    name = ""
    #: Whether requests are plain function calls (no event loop work).
    sync = False
    #: Concurrent callers in the saturation phase.
    callers = 64
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    holding_time = 100.0
    #: Flow capacity of the system under test (flows).
    capacity = 4 * 100
    mix = None
    window = None
    tick_period = None
    #: Offered rates in decisions/s: the ``low`` and ``high`` phases (about
    #: 30% and 60% of the measured SLO knee), and the ceiling of the SLO
    #: search (well above the knee).
    rates = (0.0, 0.0, 0.0)

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.lam = LOAD * self.capacity / self.holding_time
        self.schedule = Schedule(seed, self.lam, self.holding_time, self.mix)
        self.timeline = Timeline(self.schedule, window=self.window,
                                 tick_period=self.tick_period)
        #: Flows admitted and not yet departed.
        self.active: set[int] = set()
        self.decisions = 0
        #: Decisions that contradict their own target (classless only).
        self.inconsistent = 0
        self.errors: dict[str, int] = {}

    def _failed(self, exc: BaseException) -> None:
        code = exc.code if isinstance(exc, RemoteError) else type(exc).__name__
        self.errors[code] = self.errors.get(code, 0) + 1

    def _decided(self, flow: int, decision, rec, due: float) -> None:
        self.decisions += 1
        if self.mix is None and decision.reason in (
            "target", "conservative-target"
        ):
            # Eqn (42): admit exactly when the new occupancy fits the target.
            fits = (decision.n_flows if decision.admitted
                    else decision.n_flows + 1) <= math.floor(decision.target)
            if fits != decision.admitted:
                self.inconsistent += 1
        rec.decided(1, due)
        if decision.admitted:
            self.active.add(flow)
            self.timeline.admitted(flow)

    async def _issue_flow(self, target, item, due, rec) -> None:
        """Send one single-flow item through ``target.admit``/``depart``."""
        kind, flow, t = item
        if kind == "arrive":
            try:
                decision = await target.admit(flow, t)
            except FAILURES as exc:
                self._failed(exc)
                rec.fail(1, due)
                return
            self._decided(flow, decision, rec, due)
        else:
            try:
                await target.depart(flow, t)
            except FAILURES as exc:
                self._failed(exc)
                rec.fail(1)
                return
            self.active.discard(flow)
            rec.operated()

    def processes(self) -> dict[str, list[int]]:
        """Pids of the processes under test, by role."""
        return {"server": [os.getpid()]}

    def retried(self) -> int:
        """Transparent client retries so far."""
        return 0

    async def trace(self, enabled: bool) -> None:
        """Switch span recording on or off in every traced process."""
        self.tracer.enabled = enabled

    async def remote_totals(self) -> tuple[dict, dict]:
        """Span totals and tallies of traced processes other than this one."""
        return {}, {}

    async def write_remote_spans(self, out_dir) -> None:
        """Ask traced child processes to write their spans under ``out_dir``."""

    def common_checks(self) -> list[tuple[str, bool, str]]:
        return [
            ("decisions-match-targets", self.inconsistent == 0,
             f"{self.inconsistent} decisions contradict their target"),
        ]


class GatewayNearcap(Workload):
    name = "gateway-nearcap"
    sync = True
    callers = 1
    setups = 15
    tick_period = max(critical_time_scale(100.0, 100.0) / 4.0, 1e-3)
    rates = (3000.0, 6000.0, 18000.0)

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.spec = server_child.RCBR_SPEC.with_seed(seed)
        self.gateway = None
        #: Digest of every decision while set (the warm-up prefix).
        self.sha = None

    def instrument(self) -> None:
        """Install span wrappers; call before the first set-up."""
        self.tracer.instrument_gateway(self.spec.build())

    async def setup(self) -> float:
        t0 = time.perf_counter()
        self.gateway = self.spec.build()
        return time.perf_counter() - t0

    async def teardown(self) -> None:
        self.gateway = None

    def issue_sync(self, item, due, rec) -> None:
        kind, flow, t = item
        if kind == "arrive":
            decision = self.gateway.admit(flow, t)
            self._decided(flow, decision, rec, due)
            if self.sha is not None:
                self.sha.update(digest_record(flow, decision))
        elif kind == "depart":
            self.gateway.depart(flow, t)
            self.active.discard(flow)
            rec.operated()
        else:
            self.gateway.tick(t)

    async def snapshots(self) -> list[dict]:
        return [self.gateway.snapshot()]

    def replay_digest(self, items: int) -> str:
        """Digest of the first ``items`` schedule items on a fresh gateway."""
        from e2e.phases import PhaseRecord

        twin = type(self)(self.seed, self.tracer)
        twin.gateway = self.spec.build()
        twin.sha = hashlib.sha256()
        rec = PhaseRecord("replay")
        for _ in range(items):
            twin.issue_sync(twin.timeline.pop(), time.perf_counter(), rec)
        return twin.sha.hexdigest()

    async def finish(self) -> list[tuple[str, bool, str]]:
        n = self.gateway.n_flows
        checks = self.common_checks() + [
            ("flow-table", n == len(self.active),
             f"gateway carries {n} flows, bench admitted {len(self.active)}"),
        ]
        await self.teardown()
        return checks


class _Served(Workload):
    """A gateway recipe behind an ``AdmissionServer`` in a child process."""

    recipe = "rcbr"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.process = None
        self.conn = None
        self.client = None

    def instrument(self) -> None:
        """Install span wrappers here; the child installs its own."""
        self.tracer.instrument_client()

    def retried(self) -> int:
        return self.client.retried

    async def setup(self) -> float:
        ctx = multiprocessing.get_context("spawn")
        t0 = time.perf_counter()
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=server_child.serve,
            args=(child, self.recipe, self.seed, self.tracer is not None),
            name=f"e2e-{self.name}-server",
            daemon=True,
        )
        self.process.start()
        child.close()
        host, port = await _recv(self.conn, self.process)
        self.client = AsyncAdmissionClient(
            host, port, timeout=CALL_TIMEOUT, retries=0, max_inflight=64
        )
        await self.client.ping()
        return time.perf_counter() - t0

    async def teardown(self) -> tuple[str, str] | None:
        """Stop the server; returns its ``(served, replayed)`` digests."""
        digests = None
        try:
            if self.client is not None:
                await self.client.close()
            if self.process.is_alive():
                self.conn.send(("stop", None))
                try:
                    digests = await _recv(self.conn, self.process)
                except (EOFError, RuntimeError) as exc:
                    print(f"{self.process.name}: no digests: {exc!r}",
                          file=sys.stderr)
        finally:
            self.process.join(CHILD_TIMEOUT)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
            self.conn.close()
            self.client = None
        return digests

    def processes(self) -> dict[str, list[int]]:
        return {"server": [self.process.pid]}

    async def trace(self, enabled: bool) -> None:
        self.tracer.enabled = enabled
        self.conn.send(("trace", enabled))

    async def remote_totals(self) -> tuple[dict, dict]:
        self.conn.send(("totals", None))
        return await _recv(self.conn, self.process)

    async def write_remote_spans(self, out_dir) -> None:
        self.conn.send(("write", str(out_dir / f"{self.name}-server.npz")))
        await _recv(self.conn, self.process)

    async def snapshots(self) -> list[dict]:
        return [await self.client.snapshot()]

    async def finish(self) -> list[tuple[str, bool, str]]:
        snap = (await self.snapshots())[0]
        served = snap["service"]["decisions"]
        carried = sum(link["n_flows"] for link in snap["links"].values())
        checks = self.common_checks() + [
            ("decision-count", served == self.decisions,
             f"server made {served} decisions, bench received "
             f"{self.decisions}"),
            ("flow-table", carried == len(self.active),
             f"server carries {carried} flows, bench admitted "
             f"{len(self.active)}"),
        ]
        digests = await self.teardown()
        ok = digests is not None and digests[0] == digests[1]
        checks.append(("digest-equals-journal-replay", ok,
                       f"served {digests[0] if digests else None} vs "
                       f"replayed {digests[1] if digests else None}"))
        return checks


class ServedSingle(_Served):
    name = "served-single"
    rates = (950.0, 1900.0, 5000.0)

    async def issue(self, item, due, rec) -> None:
        await self._issue_flow(self.client, item, due, rec)


def _classed_mix() -> tuple[dict, float]:
    """Arrival class mix and flow capacity of one classed link.

    Classes arrive in proportion to the flows each carries when it fills
    its capacity share, as in the overload scenario.
    """
    capacity = 400.0
    counts = {
        policy.name: policy.share * capacity / policy.mean_rate
        for _, policy in default_class_policies().items()
    }
    total = sum(counts.values())
    flows = mixture_parameters(default_class_policies(), capacity=capacity)["n"]
    return {name: n / total for name, n in counts.items()}, flows


_MIX, _CLASSED_FLOWS = _classed_mix()


class ServedBurstClassed(_Served):
    name = "served-burst-classed"
    recipe = "classed"
    holding_time = 500.0
    capacity = server_child.CLASSED_LINKS * _CLASSED_FLOWS
    mix = _MIX
    #: Mean decisions per burst.
    burst = 64
    callers = 4
    rates = (2900.0, 5800.0, 16000.0)

    def __init__(self, seed: int, tracer=None) -> None:
        self.window = self.burst * self.holding_time / (LOAD * self.capacity)
        super().__init__(seed, tracer)

    async def issue(self, item, due, rec) -> None:
        _, (arrivals, departures), t = item
        calls = []
        if departures:
            calls.append(self._depart_many(departures, t, rec))
        for flow_class, flows in arrivals.items():
            calls.append(self._admit_many(flows, flow_class, t, due, rec))
        await asyncio.gather(*calls)

    async def _admit_many(self, flows, flow_class, t, due, rec) -> None:
        try:
            decisions = await self.client.admit_many(
                flows, t=t, flow_class=flow_class
            )
        except FAILURES as exc:
            self._failed(exc)
            rec.fail(len(flows), due)
            return
        for flow, decision in zip(flows, decisions):
            self._decided(flow, decision, rec, due)

    async def _depart_many(self, flows, t, rec) -> None:
        try:
            await self.client.depart_many(flows, t=t)
        except FAILURES as exc:
            self._failed(exc)
            rec.fail(len(flows))
            return
        self.active.difference_update(flows)
        rec.operated(len(flows))


class ClusterReplicated(Workload):
    name = "cluster-replicated"
    shards = 2
    capacity = 2 * 4 * 100
    rates = (950.0, 1900.0, 5000.0)

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.cluster = None

    def instrument(self) -> None:
        """Install span wrappers on the supervisor and its shard clients.

        The shard processes themselves run untraced.
        """
        self.tracer.instrument_client()
        self.tracer.instrument_cluster()

    def retried(self) -> int:
        return self.cluster.retried

    async def setup(self) -> float:
        self.cluster = ProcessCluster(
            server_child.RCBR_SPEC.with_seed(self.seed),
            shards=self.shards, replicas=1, timeout=CALL_TIMEOUT,
        )
        t0 = time.perf_counter()
        await self.cluster.start()
        return time.perf_counter() - t0

    async def teardown(self) -> None:
        await self.cluster.stop()

    def processes(self) -> dict[str, list[int]]:
        roles: dict[str, list[int]] = {"leader": [], "follower": []}
        for child in multiprocessing.active_children():
            role = child.name.rsplit("-", 1)[-1]
            if child.name.startswith("repro-shard-") and role in roles:
                roles[role].append(child.pid)
        return roles

    async def issue(self, item, due, rec) -> None:
        await self._issue_flow(self.cluster, item, due, rec)

    async def snapshots(self) -> list[dict]:
        snap = await self.cluster.snapshot()
        return [snap["shards"][name] for name in sorted(snap["shards"])]

    async def finish(self) -> list[tuple[str, bool, str]]:
        snap = await self.cluster.snapshot()
        served = snap["cluster"]["decisions"]
        report = await self.cluster.reconcile()
        checks = self.common_checks() + [
            ("decision-count", served == self.decisions,
             f"shards made {served} decisions, bench received "
             f"{self.decisions}"),
            ("reconcile", report["ok"] and not report["lost"]
             and not report["double_admitted"]
             and report["flows"] == len(self.active),
             f"ok={report['ok']} lost={len(report['lost'])} "
             f"double={len(report['double_admitted'])} "
             f"flows={report['flows']} bench={len(self.active)}"),
        ]
        await self.teardown()
        return checks


WORKLOADS = {
    cls.name: cls
    for cls in (GatewayNearcap, ServedSingle, ServedBurstClassed,
                ClusterReplicated)
}
