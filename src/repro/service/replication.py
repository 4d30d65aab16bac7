"""Journal-shipped shard replication: a multi-process admission cluster.

This is the step from "sharded in one event loop" to a real cluster:
each shard is an :class:`~repro.service.server.AdmissionServer` running
in its **own OS process** (its own interpreter state, its own core),
paired with a standby follower in a second process.  Shard processes are
forks of one ``multiprocessing`` fork server per supervisor process,
which preloads this module, so a shard starts with the decision path
already imported instead of booting a fresh interpreter.  The leader
ships its ``(op, flows, effective_t)``
journal to the follower incrementally over the ``journal-sync`` wire op
(binary v2 framing); each segment that reaches the journal tip carries
the leader's decision digest at that point, so the follower proves --
byte for byte -- that it reconstructed the leader's exact decision
history as it goes.

Failure model
-------------
* **Shard loss** (crash, SIGKILL, health-driven quarantine of the whole
  process): the supervisor promotes the follower.  Promotion restores
  the follower's state checkpoint, replays only the journal tail past
  it via :func:`~repro.service.server.replay_journal`, and requires the
  replayed digest to equal the running digest; the supervisor's
  authoritative flow table rides in the promote request, so decisions
  the dead leader applied but never shipped are repaired (journaled
  ``migrate_in`` / ``migrate_out``), leaving zero lost and zero
  double-admitted flows.
* **Ring resize** (add/remove shards under load): the ~1/N remapped
  flows move with an explicit two-phase handoff -- ``migrate-out``
  journals the departure on the source, ``migrate-in`` journals the
  placement (with the original admission time) on the target -- so
  cluster-wide reconciliation (:meth:`ProcessCluster.reconcile`)
  proves every decision is accounted for exactly once.

Determinism: the supervisor builds each pair's gateway once from a
:class:`~repro.runtime.spec.GatewaySpec` and hands the leader and the
follower the same state checkpoint
(:func:`~repro.service.server.dump_gateway_state`), so the two start
as *identical twins* -- which is what makes the follower's replayed
digest comparable to the leader's in the first place.  The
design step (inverting the overflow theory for the adjusted target)
runs in the supervisor; a shard process only loads the checkpoint and
never imports scipy.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import signal
import time
from multiprocessing import forkserver
from pathlib import Path
from typing import Hashable

from repro.errors import (
    ParameterError,
    RemoteError,
    RuntimeStateError,
    UnknownFlowError,
)
from repro.runtime.spec import GatewaySpec
from repro.service.client import AsyncAdmissionClient
from repro.service.cluster import DEFAULT_VNODES, HashRing
from repro.service.protocol import decision_from_wire
from repro.service.server import (
    AdmissionServer,
    ServerConfig,
    dump_gateway_state,
    load_gateway_state,
)

__all__ = [
    "GatewaySpec",
    "ProcessCluster",
    "ShardProcess",
    "process_fault_schedule",
]

logger = logging.getLogger(__name__)

#: Transient failures the supervisor treats as "this shard may be dead".
_SHARD_DOWN_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)

#: The directory ``repro`` is imported from (``src`` in a checkout).
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])

#: Modules the shard fork server imports before it forks any shard.
_FORK_SERVER_PRELOAD = (__name__, "numpy.random", "repro.telemetry")


def _ensure_fork_server() -> None:
    """Start this process's shard fork server unless it is running.

    The server preloads this module, so each shard it forks inherits the
    decision path already imported, plus the two packages a shard's
    checkpoint pulls in on load: ``numpy.random`` (an ``rcbr`` link's
    feed holds a numpy ``Generator``) and ``repro.telemetry`` (counter-
    and ingest-fed links).  Python's fork server imports its
    preload modules on its own ``sys.path``, not the supervisor's, and
    skips one it cannot import without a word; so the server is launched
    with the package root on its ``PYTHONPATH``, which also covers a
    supervisor that put ``repro`` on ``sys.path`` at runtime.  A server
    that died is relaunched the same way.
    """
    forkserver.set_forkserver_preload(list(_FORK_SERVER_PRELOAD))
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (_PACKAGE_ROOT, saved) if path
    )
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


async def _readable(*fds: int, timeout: float) -> bool:
    """Wait until one of ``fds`` is readable (EOF counts); ``False`` on
    timeout.  A process sentinel turns readable when the process exits."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()

    def wake() -> None:
        if not ready.done():
            ready.set_result(None)

    for fd in fds:
        loop.add_reader(fd, wake)
    try:
        await asyncio.wait_for(ready, timeout)
        return True
    except asyncio.TimeoutError:
        return False
    finally:
        for fd in fds:
            loop.remove_reader(fd)


# -- shard child process -------------------------------------------------------


async def _replication_pump(
    server: AdmissionServer,
    follower_addr: tuple[str, int],
    *,
    interval: float,
    batch: int,
) -> None:
    """Ship the leader's journal tail to its follower, segment by segment.

    Runs inside the leader process.  The journal slice and the digest are
    read in one synchronous block (no await between them), so -- the
    dispatcher being the only other writer on this event loop -- a
    segment that reaches the journal tip carries the digest of *exactly*
    the decision history it completes.  The follower's ack advances
    ``retain_floor``, which is what licenses checkpoint truncation to
    drop the shipped prefix.
    """
    host, port = follower_addr
    client = AsyncAdmissionClient(
        host, port, timeout=5.0, retries=2, backoff=interval
    )
    seq = 0
    synced = server.journal_start
    try:
        while True:
            if synced >= server.journal_end():
                await asyncio.sleep(interval)
                continue
            entries, digest = server.journal_segment(synced, batch)
            try:
                result = await client.journal_sync(
                    shard=server.name,
                    seq=seq,
                    start=synced,
                    entries=entries,
                    digest=digest,
                )
            except (RemoteError, *_SHARD_DOWN_ERRORS) as exc:
                logger.warning(
                    "replication pump %s: segment %d failed: %s",
                    server.name, seq, exc,
                )
                await asyncio.sleep(interval)
                continue
            seq += 1
            synced = int(result["total"])
            server.retain_floor = synced
            if result.get("digest_ok") is False:  # pragma: no cover
                logger.error(
                    "replication pump %s: follower diverged at %d",
                    server.name, synced,
                )
    finally:
        await client.close()


def _shard_main(
    name: str,
    state: bytes,
    host: str,
    conn,
    standby: bool,
    journal_max_entries: int | None,
    follower_addr: tuple[str, int] | None,
    sync_interval: float,
    sync_batch: int,
) -> None:
    """Child-process entry point: one shard, one event loop, one core.

    Loads the gateway from ``state``, the state checkpoint the supervisor
    built from its :class:`GatewaySpec` (the pair's other half loads the
    same bytes), serves on an ephemeral port, reports the bound address
    through ``conn``, and (leaders with a follower) runs the replication
    pump.  SIGTERM drains and exits cleanly; SIGKILL is the crash the
    failover path exists for.  The shard also drains and exits when its
    supervisor dies, so no orphan keeps serving on its port.
    """
    server = AdmissionServer(
        load_gateway_state(state),
        name=name,
        config=ServerConfig(max_queue_depth=8192),
        collect_digest=True,
        keep_journal=True,
        journal_max_entries=journal_max_entries,
        standby=standby,
    )
    if follower_addr is not None:
        # Never truncate entries the follower has not acked yet.
        server.retain_floor = 0

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        # The parent's sentinel turns readable when the supervisor exits,
        # however it dies.
        supervisor = multiprocessing.parent_process().sentinel
        loop.add_reader(supervisor, stop.set)
        bound = await server.start(host, 0)
        conn.send(bound)
        conn.close()
        pump = None
        if follower_addr is not None:
            pump = loop.create_task(_replication_pump(
                server, follower_addr,
                interval=sync_interval, batch=sync_batch,
            ))
        await stop.wait()
        loop.remove_reader(supervisor)
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except asyncio.CancelledError:
                pass
        await server.stop()

    asyncio.run(main())


class ShardProcess:
    """Supervisor-side handle for one shard OS process."""

    __slots__ = ("name", "role", "process", "address")

    def __init__(self, name, role, process, address) -> None:
        self.name = name
        self.role = role
        self.process = process
        self.address = tuple(address)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardProcess({self.name!r}, {self.role!r}, pid="
            f"{self.process.pid}, addr={self.address}, alive={self.alive})"
        )


class ProcessCluster:
    """Supervise N leader+follower shard process pairs behind one router.

    The supervisor owns the consistent-hash ring, the authoritative
    ``flow -> (shard, t_admitted)`` table, and one TCP client per shard
    whose ``address_provider`` always names the shard's *current* leader
    -- so after a failover the client's normal reconnect path lands on
    the promoted follower (retry-on-promotion).

    Parameters
    ----------
    spec : GatewaySpec
        Twin-gateway recipe.  The supervisor builds shard ``i``'s gateway
        with ``seed + i`` and checkpoints it; its leader and follower
        load the *same* bytes, so they decide identically.
    shards : int
        Leader count (ring size).
    replicas : int
        Standby followers per shard: ``1`` (journal-shipped follower,
        the default) or ``0`` (no redundancy; failover raises).
    journal_max_entries : int, optional
        Journal bound of every shard process, leader and follower alike:
        each takes a state checkpoint every this many entries and drops
        what it covers (a leader keeps entries its follower has not
        acked).  ``None`` keeps full journals.
    sync_interval, sync_batch : float, int
        Replication pump cadence and max entries per segment.
    """

    def __init__(
        self,
        spec: GatewaySpec,
        *,
        shards: int = 3,
        replicas: int = 1,
        host: str = "127.0.0.1",
        vnodes: int = DEFAULT_VNODES,
        journal_max_entries: int | None = 4096,
        sync_interval: float = 0.02,
        sync_batch: int = 512,
        timeout: float = 10.0,
        retries: int = 3,
        spawn_timeout: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ParameterError("a cluster needs at least one shard")
        if replicas not in (0, 1):
            raise ParameterError(
                f"replicas must be 0 or 1 (one journal-shipped follower "
                f"per shard), got {replicas!r}"
            )
        self.spec = spec
        self.replicas = int(replicas)
        self.host = host
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.spawn_timeout = float(spawn_timeout)
        self.journal_max_entries = journal_max_entries
        self.sync_interval = float(sync_interval)
        self.sync_batch = int(sync_batch)
        self.ring = HashRing(vnodes=vnodes)
        self._initial_shards = int(shards)
        self._ctx = multiprocessing.get_context("forkserver")
        self._leaders: dict[str, ShardProcess] = {}
        self._followers: dict[str, ShardProcess | None] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._clients: dict[str, AsyncAdmissionClient] = {}
        self._flows: dict[Hashable, tuple[str, float]] = {}
        self._clock = 0.0
        self._spawned = 0
        self._started = False
        #: Failover promotions performed.
        self.failovers = 0
        #: Flows moved through the two-phase handoff.
        self.migrated = 0
        #: Re-inversions installed cluster-wide.
        self.retargets = 0
        #: Last installed ``(alpha, link)`` -- re-applied to shards
        #: spawned after the install so their journals stay
        #: self-consistent with the cluster's current targets.
        self._last_retarget: tuple[float, str | None] | None = None
        #: Ordered record of kills / promotions / resizes (reconcile
        #: reports ride on this).
        self.events: list[dict] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def shards(self) -> list[str]:
        """Current ring membership (shard names)."""
        return sorted(self._leaders)

    @property
    def flows(self) -> dict[Hashable, tuple[str, float]]:
        """The authoritative ``flow -> (shard, t_admitted)`` table (copy)."""
        return dict(self._flows)

    @property
    def retried(self) -> int:
        """Transparent client-level retries summed across shard clients."""
        return sum(client.retried for client in self._clients.values())

    async def start(self) -> "ProcessCluster":
        """Spawn every shard pair and build the ring (idempotent)."""
        if self._started:
            return self
        # The fork server boots while the design step below runs.
        _ensure_fork_server()
        names = [f"s{i}" for i in range(self._initial_shards)]
        states = {name: self._next_state() for name in names}
        # Spawn all followers concurrently, then all leaders (a leader
        # needs its follower's address for the pump).
        followers: dict[str, ShardProcess | None] = {}
        if self.replicas:
            launches = {
                name: self._launch(name, state=states[name], standby=True)
                for name in names
            }
            for name, (proc, conn) in launches.items():
                addr = await self._recv_address(name, proc, conn)
                followers[name] = ShardProcess(name, "follower", proc, addr)
        else:
            followers = {name: None for name in names}
        launches = {
            name: self._launch(
                name,
                state=states[name],
                standby=False,
                follower_addr=(
                    followers[name].address if followers[name] else None
                ),
            )
            for name in names
        }
        for name, (proc, conn) in launches.items():
            addr = await self._recv_address(name, proc, conn)
            self._register(name, ShardProcess(name, "leader", proc, addr),
                           followers[name])
            self.ring.add(name)
        self._started = True
        logger.info(
            "process cluster up: %d shards x %d processes",
            len(names), 1 + self.replicas,
        )
        return self

    async def stop(self) -> None:
        """Close clients and terminate every shard process."""
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
        handles = [h for h in self._leaders.values()]
        handles += [h for h in self._followers.values() if h is not None]
        for handle in handles:
            if handle.alive:
                handle.process.terminate()
        await self._join(handles, timeout=10.0)
        for handle in handles:
            if handle.alive:  # pragma: no cover - drain failed
                handle.process.kill()
        self._leaders.clear()
        self._followers.clear()
        self._started = False

    async def __aenter__(self) -> "ProcessCluster":
        try:
            return await self.start()
        except BaseException:
            await self.stop()
            raise

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _next_state(self) -> bytes:
        """Build a new leader+follower pair's gateway as a state checkpoint.

        Both halves of a pair load these SAME bytes (that is what makes
        them decision twins); distinct pairs get distinct seeds so their
        feeds are decorrelated.
        """
        seed = self.spec.seed + self._spawned
        self._spawned += 1
        return dump_gateway_state(self.spec.with_seed(seed).build())

    def _launch(
        self,
        name: str,
        *,
        state: bytes,
        standby: bool,
        follower_addr: tuple[str, int] | None = None,
    ):
        _ensure_fork_server()
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                name,
                state,
                self.host,
                child,
                standby,
                self.journal_max_entries,
                None if standby else follower_addr,
                self.sync_interval,
                self.sync_batch,
            ),
            name=f"repro-shard-{name}-{'follower' if standby else 'leader'}",
            daemon=True,
        )
        process.start()
        child.close()
        return process, parent

    async def _spawn_pair(
        self, name: str
    ) -> tuple[ShardProcess, ShardProcess | None]:
        """Spawn one leader(+follower) pair from one fresh checkpoint."""
        state = self._next_state()
        follower = None
        if self.replicas:
            proc, conn = self._launch(name, state=state, standby=True)
            addr = await self._recv_address(name, proc, conn)
            follower = ShardProcess(name, "follower", proc, addr)
        proc, conn = self._launch(
            name,
            state=state,
            standby=False,
            follower_addr=follower.address if follower else None,
        )
        addr = await self._recv_address(name, proc, conn)
        return ShardProcess(name, "leader", proc, addr), follower

    async def _recv_address(self, name, process, conn) -> tuple[str, int]:
        try:
            if not await _readable(conn.fileno(), process.sentinel,
                                   timeout=self.spawn_timeout):
                process.kill()
                raise RuntimeStateError(
                    f"shard process {name} did not report an address "
                    f"within {self.spawn_timeout:g}s"
                )
            if conn.poll(0):
                try:
                    return tuple(conn.recv())
                except EOFError:
                    # The pipe closed with nothing in it: the child died
                    # before reporting.  Let it finish exiting.
                    await _readable(process.sentinel, timeout=1.0)
            process.join(timeout=0)
            raise RuntimeStateError(
                f"shard process {name} died during startup "
                f"(exit code {process.exitcode})"
            )
        finally:
            conn.close()

    def _register(
        self,
        name: str,
        leader: ShardProcess,
        follower: ShardProcess | None,
    ) -> None:
        self._leaders[name] = leader
        self._followers[name] = follower
        self._addresses[name] = leader.address
        if name not in self._clients:
            self._clients[name] = AsyncAdmissionClient(
                *leader.address,
                timeout=self.timeout,
                retries=self.retries,
                address_provider=lambda n=name: self._addresses[n],
            )

    async def _join(self, handles, *, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for handle in handles:
            if handle.alive:
                await _readable(handle.process.sentinel,
                                timeout=max(0.0, deadline - time.monotonic()))
            handle.process.join(timeout=0)

    # -- request routing ---------------------------------------------------

    async def _submit(self, shard: str, op: str, **fields) -> dict:
        """One routed call with promotion-aware retry.

        A connection-level failure (or timeout) against a shard whose
        leader process is gone triggers failover promotion of its
        follower, then retries once -- the client reconnects through its
        ``address_provider``, which now names the promoted follower.
        """
        client = self._clients[shard]
        try:
            return await client.call(op, **fields)
        except _SHARD_DOWN_ERRORS:
            if not await self.failover(shard):
                raise
            return await client.call(op, **fields)
        except RemoteError as exc:
            if exc.code == "shutting-down" and await self.failover(shard):
                return await client.call(op, **fields)
            raise

    async def admit(self, flow: Hashable, t: float | None = None):
        """Route one admission; returns the decision."""
        if flow in self._flows:
            raise RuntimeStateError(
                f"flow {flow!r} is already admitted on shard "
                f"{self._flows[flow][0]}"
            )
        shard = self.ring.node_for(flow)
        result = await self._submit(shard, "admit", flow=flow, t=t)
        self._clock = max(self._clock, float(result["t"]))
        decision = decision_from_wire(result["decision"])
        if decision.admitted:
            self._flows[flow] = (shard, float(result["t"]))
        return decision

    async def depart(self, flow: Hashable, t: float | None = None) -> str:
        """Route one departure; returns the carrying link's name."""
        entry = self._flows.get(flow)
        if entry is None:
            raise UnknownFlowError([flow], self._leaders)
        result = await self._submit(entry[0], "depart", flow=flow, t=t)
        self._flows.pop(flow, None)
        self._clock = max(self._clock, float(result["t"]))
        return result["link"]

    async def retarget(self, alpha: float, link: str | None = None) -> int:
        """Install a re-inverted CE parameter on every shard's links.

        Broadcast in sorted shard order (deterministic journal content
        for a deterministic driver).  Each shard journals the install as
        a ``retarget`` entry, so its follower and any later replay
        reproduce the served digest exactly.  Returns shards updated.
        """
        alpha = float(alpha)
        updated = 0
        for name in self.shards:
            await self._submit(name, "retarget", alpha=alpha, link=link,
                               t=self._clock)
            updated += 1
        self._last_retarget = (alpha, link)
        self.retargets += 1
        self.events.append(
            {"event": "retarget", "alpha": alpha, "link": link,
             "shards": updated}
        )
        return updated

    async def _reapply_retarget(self, name: str) -> None:
        """Install the cluster's current target on a freshly spawned shard."""
        if self._last_retarget is None:
            return
        alpha, link = self._last_retarget
        await self._submit(name, "retarget", alpha=alpha, link=link,
                           t=self._clock)

    # -- failure handling --------------------------------------------------

    def kill_shard(self, name: str) -> None:
        """SIGKILL a shard's leader process (the crash under test)."""
        leader = self._shard(name)
        if leader.alive:
            os.kill(leader.process.pid, signal.SIGKILL)
            leader.process.join(timeout=10.0)
        self.events.append({"event": "killed", "shard": name})
        logger.info("shard %s leader killed (pid %d)",
                    name, leader.process.pid)

    async def failover(self, name: str) -> bool:
        """Promote ``name``'s follower if its leader process is dead.

        Returns ``False`` when the leader is still alive (nothing to
        do).  Promotion sends the supervisor's authoritative flow table
        for the shard, so the follower repairs any decisions the dead
        leader applied but never shipped; the promote response's digest
        and verification outcome are recorded in :attr:`events`.
        """
        leader = self._shard(name)
        if leader.alive:
            return False
        follower = self._followers.get(name)
        if follower is None or not follower.alive:
            raise RuntimeStateError(
                f"shard {name}: leader is dead and no live follower "
                "remains to promote"
            )
        believed = [
            [flow, t0]
            for flow, (shard, t0) in self._flows.items()
            if shard == name
        ]
        control = AsyncAdmissionClient(
            *follower.address, timeout=self.timeout, retries=self.retries
        )
        try:
            result = await control.promote(flows=believed, t=self._clock)
        finally:
            await control.close()
        leader.process.join(timeout=0)
        follower.role = "leader"
        self._leaders[name] = follower
        self._followers[name] = None
        self._addresses[name] = follower.address
        # Drop the dead connection; the next call reconnects through the
        # address provider, which now names the promoted follower.
        await self._clients[name].close()
        self.failovers += 1
        event = {
            "event": "promoted",
            "shard": name,
            "digest": result.get("digest"),
            "verified": result.get("verified"),
            "repaired_in": result.get("repaired_in"),
            "repaired_out": result.get("repaired_out"),
            "n_flows": result.get("n_flows"),
        }
        self.events.append(event)
        logger.info("shard %s: follower promoted (%s)", name, event)
        return True

    async def heal(self) -> int:
        """Promote followers for every dead leader; returns promotions."""
        promoted = 0
        for name in list(self._leaders):
            if not self._leaders[name].alive:
                promoted += int(await self.failover(name))
        return promoted

    async def restart_shard(self, name: str) -> None:
        """Rolling restart: respawn ``name`` as a fresh pair, re-seat flows.

        The supervisor's connection closes first, so the old leader's
        drain finds no open client to wait for; then the old processes
        are terminated (SIGTERM), a brand-new leader+follower pair is
        spawned, and the shard's flows are re-installed from the
        supervisor table via ``migrate-in`` (with their original
        admission times), restoring full redundancy.
        """
        old = [handle for handle in (self._shard(name),
                                     self._followers.get(name))
               if handle is not None]
        await self._clients[name].close()
        for handle in old:
            if handle.alive:
                handle.process.terminate()
        await self._join(old, timeout=10.0)
        leader, follower = await self._spawn_pair(name)
        self._register(name, leader, follower)
        await self._reapply_retarget(name)
        pairs = [
            [flow, t0]
            for flow, (shard, t0) in self._flows.items()
            if shard == name
        ]
        if pairs:
            await self._submit(name, "migrate-in", flows=pairs, t=self._clock)
        self.events.append(
            {"event": "restarted", "shard": name, "flows": len(pairs)}
        )

    # -- ring resize with two-phase migration ------------------------------

    async def add_shard(self, name: str) -> int:
        """Grow the ring by one shard; returns flows migrated onto it.

        Spawns a fresh leader(+follower) pair, adds ``name`` to the
        ring, and moves every flow whose owner changed (~1/N of them,
        the Hypothesis ring-stability bound) via the two-phase
        ``migrate-out`` / ``migrate-in`` handoff.
        """
        if name in self._leaders:
            raise ParameterError(f"shard {name!r} already exists")
        leader, follower = await self._spawn_pair(name)
        self._register(name, leader, follower)
        await self._reapply_retarget(name)
        self.ring.add(name)
        by_source: dict[str, list] = {}
        for flow, (shard, t0) in self._flows.items():
            if shard != name and self.ring.node_for(flow) == name:
                by_source.setdefault(shard, []).append((flow, t0))
        moved = await self._migrate(by_source, name)
        self.events.append(
            {"event": "added", "shard": name, "migrated": moved}
        )
        return moved

    async def remove_shard(self, name: str) -> int:
        """Shrink the ring by one shard; returns flows migrated off it.

        The departing shard's flows move to their new ring owners first
        (two-phase handoff), then its processes are terminated.
        """
        self._shard(name)
        if len(self._leaders) == 1:
            raise ParameterError("cannot remove the last shard")
        self.ring.remove(name)
        leaving = [
            (flow, t0)
            for flow, (shard, t0) in self._flows.items()
            if shard == name
        ]
        moved = 0
        if leaving:
            await self._submit(
                name, "migrate-out",
                flows=[flow for flow, _t0 in leaving], t=self._clock,
            )
            by_target: dict[str, list] = {}
            for flow, t0 in leaving:
                by_target.setdefault(self.ring.node_for(flow), []).append(
                    (flow, t0)
                )
            for target, group in by_target.items():
                await self._submit(
                    target, "migrate-in",
                    flows=[[flow, t0] for flow, t0 in group], t=self._clock,
                )
                for flow, t0 in group:
                    self._flows[flow] = (target, t0)
                moved += len(group)
            self.migrated += moved
        handles = [self._leaders.pop(name)]
        follower = self._followers.pop(name, None)
        if follower is not None:
            handles.append(follower)
        await self._clients.pop(name).close()
        self._addresses.pop(name, None)
        for handle in handles:
            if handle.alive:
                handle.process.terminate()
        await self._join(handles, timeout=10.0)
        self.events.append(
            {"event": "removed", "shard": name, "migrated": moved}
        )
        return moved

    async def _migrate(self, by_source: dict[str, list], target: str) -> int:
        """Two-phase handoff of grouped flows into ``target``."""
        moved = 0
        for source, group in by_source.items():
            await self._submit(
                source, "migrate-out",
                flows=[flow for flow, _t0 in group], t=self._clock,
            )
            await self._submit(
                target, "migrate-in",
                flows=[[flow, t0] for flow, t0 in group], t=self._clock,
            )
            for flow, t0 in group:
                self._flows[flow] = (target, t0)
            moved += len(group)
        self.migrated += moved
        return moved

    # -- reporting / reconciliation ----------------------------------------

    def _shard(self, name: str) -> ShardProcess:
        try:
            return self._leaders[name]
        except KeyError:
            raise ParameterError(
                f"no shard named {name!r}; cluster has "
                f"{', '.join(self.shards) or '<none>'}"
            ) from None

    async def snapshot(self) -> dict:
        """Aggregate per-shard snapshots; dead shards degrade gracefully.

        A shard that cannot be reached is reported as
        ``{"unreachable": ...}`` instead of poisoning the whole scrape
        (same contract as ``ShardedCluster.snapshot``).
        """
        shards: dict[str, dict] = {}
        for name in sorted(self._clients):
            try:
                shards[name] = await self._clients[name].snapshot()
            except (RemoteError, *_SHARD_DOWN_ERRORS) as exc:
                shards[name] = {
                    "unreachable": f"{type(exc).__name__}: {exc}"
                }
        reachable = [s for s in shards.values() if "unreachable" not in s]
        return {
            "shards": shards,
            "cluster": {
                "flows": len(self._flows),
                "clock": self._clock,
                "failovers": self.failovers,
                "migrated": self.migrated,
                "unreachable": len(shards) - len(reachable),
                "decisions": sum(
                    s.get("service", {}).get("decisions", 0)
                    for s in reachable
                ),
            },
        }

    async def reconcile(self) -> dict:
        """Prove no decision was lost or double-applied, cluster-wide.

        Fetches every shard's actual flow table and decision digest and
        compares against the supervisor's authoritative table: a flow
        the supervisor admitted but no shard carries is **lost**; a flow
        a shard carries beyond the supervisor's table is
        **double-admitted** (or stray).  ``ok`` requires both lists
        empty and the totals to match exactly.
        """
        shards: dict[str, dict] = {}
        lost: list = []
        double: list = []
        for name in sorted(self._clients):
            snap = await self._submit(name, "snapshot", flows=True)
            service = snap.get("service", {})
            actual = set(service.get("flows", ()))
            expected = {
                flow
                for flow, (shard, _t0) in self._flows.items()
                if shard == name
            }
            missing = sorted(expected - actual, key=repr)
            extra = sorted(actual - expected, key=repr)
            shards[name] = {
                "digest": service.get("decision_digest"),
                "n_flows": len(actual),
                "expected": len(expected),
                "missing": missing,
                "extra": extra,
            }
            lost.extend(missing)
            double.extend(extra)
        total = sum(entry["n_flows"] for entry in shards.values())
        return {
            "ok": not lost and not double and total == len(self._flows),
            "flows": len(self._flows),
            "shard_flows": total,
            "lost": lost,
            "double_admitted": double,
            "shards": shards,
            "failovers": self.failovers,
            "migrated": self.migrated,
        }


def process_fault_schedule(plan) -> list[tuple[float, str, str]]:
    """Extract process-level fault events from a :class:`FaultPlan`.

    Returns ``(start_time, kind, shard)`` triples -- one per
    ``shard_crash`` / ``shard_restart`` window in the plan -- sorted by
    time, so a cluster soak can schedule seeded, declarative process
    failures the same way the chaos layer schedules feed faults.
    """
    events: list[tuple[float, str, str]] = []
    for name, faults in plan.links.items():
        for window in getattr(faults, "shard_crash", ()):
            events.append((window.start, "shard_crash", name))
        for window in getattr(faults, "shard_restart", ()):
            events.append((window.start, "shard_restart", name))
    return sorted(events)
