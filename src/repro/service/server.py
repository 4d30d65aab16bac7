"""Networked admission server: an :class:`AdmissionGateway` behind TCP.

:class:`AdmissionServer` exposes the in-process gateway over the wire
protocol of :mod:`repro.service.protocol`.  The design constraint is the
one the whole runtime is built on: **admission decisions are serialized**.
Every connection handler funnels its requests into a single dispatch
queue consumed by one writer task, so the gateway sees exactly the same
kind of ordered, single-threaded op stream that ``replay()`` drives -- and
the server's decision digest is byte-for-byte what a sequential
``replay(collect_digest=True)`` of the same op order would produce
(``replay_journal`` re-executes a recorded journal to prove it).

Overload never blocks the caller:

* **connection cap** -- a connection beyond ``max_connections`` receives
  one typed ``too-many-connections`` error frame and is closed;
* **load shedding** -- a request arriving while the dispatch queue holds
  ``max_queue_depth`` entries is answered immediately with a retryable
  ``overloaded`` error (fail closed: reject, never hang);
* **per-request timeout** -- a request stuck in the queue past
  ``request_timeout`` is abandoned (the dispatcher skips it, so the
  gateway never applies a decision nobody is waiting for) and answered
  with a ``timeout`` error.

Clock discipline: requests carry the caller's logical time ``t``; the
server clamps it monotone (``effective_t = max(server_clock, t)``) because
links reject clocks that run backwards.  The journal records effective
times, so re-execution is exact.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import logging
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import (
    ParameterError,
    ProtocolError,
    RuntimeStateError,
    TelemetryError,
    UnknownFlowError,
)
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.health import LinkHealth
from repro.runtime.metrics import json_safe
from repro.runtime.observability import DecisionTracer, Profiler, digest_record
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_2,
    decision_to_wire,
    encode_response,
    error_response,
    ok_response,
    read_frame,
    validate_request,
    write_frame,
)

__all__ = [
    "ServerConfig",
    "AdmissionServer",
    "shard_health",
    "replay_journal",
    "digest_record",
    "dump_gateway_state",
    "load_gateway_state",
]

logger = logging.getLogger(__name__)

#: Client-facing mutating ops a standby follower refuses until promotion
#: (its state may only advance through leader-shipped journal segments).
_STANDBY_REFUSED = frozenset(
    {"admit", "admit_many", "depart", "depart_many", "telemetry",
     "migrate-out", "migrate-in", "retarget"}
)


def shard_health(gateway: AdmissionGateway) -> LinkHealth:
    """Aggregate link healths into one shard-level state.

    QUARANTINED when *every* link fails closed (the shard cannot admit at
    all), DEGRADED when any link is non-healthy (the shard still admits,
    conservatively), HEALTHY otherwise.  This is the state the cluster
    router rebalances on.
    """
    links = gateway.links
    if all(link.quarantined for link in links):
        return LinkHealth.QUARANTINED
    if any(link.degraded for link in links):
        return LinkHealth.DEGRADED
    return LinkHealth.HEALTHY


@dataclass(frozen=True)
class ServerConfig:
    """Operational limits for one :class:`AdmissionServer`.

    Parameters
    ----------
    max_connections : int
        Concurrent client connections accepted; excess connections get a
        typed error frame and are closed.
    max_queue_depth : int
        Dispatch-queue bound; requests arriving above it are shed with a
        retryable ``overloaded`` error instead of waiting.
    request_timeout : float
        Seconds a request may wait for its decision before being
        abandoned with a ``timeout`` error.
    max_frame_bytes : int
        Per-frame body ceiling handed to the frame reader.
    max_coalesce : int
        How many queued requests the dispatcher may drain in one wakeup.
        Runs of consecutive single ``admit``/``depart`` requests inside a
        drained burst are applied through the gateway's
        ``admit_many``/``depart_many`` batch path (one estimator read per
        run instead of one per frame).  ``1`` disables coalescing.
    """

    max_connections: int = 256
    max_queue_depth: int = 1024
    request_timeout: float = 5.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    max_coalesce: int = 512

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ParameterError("max_connections must be at least 1")
        if self.max_queue_depth < 1:
            raise ParameterError("max_queue_depth must be at least 1")
        if self.request_timeout <= 0.0:
            raise ParameterError("request_timeout must be positive")
        if self.max_frame_bytes < 1:
            raise ParameterError("max_frame_bytes must be positive")
        if self.max_coalesce < 1:
            raise ParameterError("max_coalesce must be at least 1")


class AdmissionServer:
    """Serve one gateway's admission decisions over the wire protocol.

    Parameters
    ----------
    gateway : AdmissionGateway
        The decision engine (owns the links, the metrics registry and any
        attached tracer).
    name : str
        Shard name, used in logs, cluster routing and snapshots.
    config : ServerConfig, optional
        Connection/queue/timeout limits.
    collect_digest : bool
        Stream every decision into a SHA-256 (same line format as
        ``replay(collect_digest=True)``); exposed via ``snapshot``.
    keep_journal : bool
        Record every applied mutating op as ``(op, flows, t)`` so tests
        (and :func:`replay_journal`) can re-execute the exact sequence
        sequentially.  Off by default -- without ``journal_max_entries``
        the journal grows unboundedly.
    journal_max_entries : int, optional
        Bound the in-memory journal with a **state checkpoint**: the
        pickled gateway plus a copy of the running digest at a journal
        offset.  A new checkpoint is taken once the journal has grown
        more than this many entries past the last one, and entries below
        both the checkpoint and ``retain_floor`` (set by a replication
        pump to the follower's acked offset) are dropped.  Restoring the
        checkpoint and replaying the retained tail reproduces the served
        digest (:meth:`replay_from_checkpoint`).  Requires
        ``keep_journal`` and ``collect_digest``.
    gateway_factory : callable, optional
        Accepted for compatibility and unused: checkpoints pickle the
        live gateway, so no twin gateway is built.
    standby : bool
        Run as a replication **follower**: every client-facing mutating
        op (admit/depart/telemetry/migrate) is refused with a typed
        ``state-error`` until promotion; state advances only through
        ``journal-sync`` segments shipped by the leader, whose per-segment
        checkpoint digest is verified against the follower's own running
        digest.  Requires ``keep_journal`` and ``collect_digest`` (a
        ``promote`` request restores the checkpoint and replays the
        journal tail to prove the rebuild before going live).
    metrics_writer : MetricsJsonlWriter, optional
        Periodic snapshot sink, polled on the server's logical clock
        after every applied request and closed (final partial interval
        flushed) on shutdown.

    Use ``async with server.serving(host, port):`` or ``await
    server.start(...)`` / ``await server.stop()``.  In-process callers
    (the cluster router, tests) can bypass TCP entirely via
    :meth:`submit`, which still runs through the dispatch queue, so
    serialization holds no matter how requests arrive.
    """

    def __init__(
        self,
        gateway: AdmissionGateway,
        *,
        name: str = "shard0",
        config: ServerConfig | None = None,
        collect_digest: bool = False,
        keep_journal: bool = False,
        journal_max_entries: int | None = None,
        gateway_factory: Callable[[], AdmissionGateway] | None = None,
        standby: bool = False,
        metrics_writer=None,
    ) -> None:
        if journal_max_entries is not None:
            if journal_max_entries < 1:
                raise ParameterError("journal_max_entries must be at least 1")
            if not keep_journal or not collect_digest:
                raise ParameterError(
                    "journal_max_entries requires keep_journal=True and "
                    "collect_digest=True (a checkpoint carries the running "
                    "digest)"
                )
        if standby and (not keep_journal or not collect_digest):
            raise ParameterError(
                "a standby follower requires keep_journal=True and "
                "collect_digest=True (it must be able to replay and verify "
                "the shipped journal at promotion)"
            )
        self.gateway = gateway
        self.name = str(name)
        self.config = config if config is not None else ServerConfig()
        self.registry = gateway.registry
        self.metrics_writer = metrics_writer
        self.standby = bool(standby)
        self._sha = hashlib.sha256() if collect_digest else None
        self._decisions = 0
        self.journal: list[tuple[str, object, float]] | None = (
            [] if keep_journal else None
        )
        #: Absolute offset of ``journal[0]`` (> 0 once entries covered by
        #: a checkpoint were dropped).
        self.journal_start = 0
        #: Absolute offset below which truncation may drop entries
        #: (``None`` = unconstrained).  A replication pump sets this to
        #: the follower's acked offset so un-shipped entries survive.
        self.retain_floor: int | None = None
        self._journal_limit = journal_max_entries
        #: Journal offset of the state checkpoint: ``_ckpt_state`` is the
        #: pickled gateway and ``_ckpt_sha`` the running digest as of
        #: that offset.
        self.checkpoint_offset = 0
        self._ckpt_state: bytes | None = None
        self._ckpt_sha = hashlib.sha256()
        if journal_max_entries is not None or self.standby:
            self._take_checkpoint()
        self._clock = 0.0
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._connections = 0
        self._stopping = False
        self.on_shutdown: list[Callable[[], None]] = []

        metric = self.registry
        prefix = f"service.{self.name}"
        self._m_requests = metric.counter(
            f"{prefix}.requests", "wire requests applied"
        )
        self._m_errors = metric.counter(
            f"{prefix}.errors", "requests answered with an error frame"
        )
        self._m_shed = metric.counter(
            f"{prefix}.shed", "requests rejected by load shedding"
        )
        self._m_timeouts = metric.counter(
            f"{prefix}.timeouts", "requests abandoned past the deadline"
        )
        self._m_coalesced = metric.counter(
            f"{prefix}.coalesced",
            "requests answered through coalesced batch dispatch",
        )
        self._m_conn_refused = metric.counter(
            f"{prefix}.connections_refused",
            "connections closed at the connection cap",
        )
        self._m_connections = metric.gauge(
            f"{prefix}.connections", "currently open client connections"
        )
        self._m_queue_depth = metric.gauge(
            f"{prefix}.queue_depth", "dispatch queue depth at last enqueue"
        )
        self._m_latency = metric.histogram(
            f"{prefix}.request_latency",
            "enqueue-to-response wall-clock seconds",
        )
        self._m_connections.set(0)
        self._m_queue_depth.set(0)

    # -- lifecycle ---------------------------------------------------------

    @property
    def clock(self) -> float:
        """The server's logical clock (max effective request time seen)."""
        return self._clock

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` actually bound, or ``None`` when not listening."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        host, port = self._tcp_server.sockets[0].getsockname()[:2]
        return host, port

    def digest(self) -> str | None:
        """Decision digest so far (``None`` unless ``collect_digest``)."""
        return self._sha.hexdigest() if self._sha is not None else None

    def checkpoint_digest(self) -> str:
        """Digest of the decisions covered by the state checkpoint.

        Hex digest of every decision in journal entries ``[0,
        checkpoint_offset)``; equals the empty-journal digest until the
        first checkpoint past offset 0.
        """
        return self._ckpt_sha.hexdigest()

    def journal_end(self) -> int:
        """Absolute offset one past the newest journal entry."""
        journal = self.journal
        return self.journal_start + (len(journal) if journal is not None else 0)

    def journal_segment(
        self, start: int, limit: int = 512
    ) -> tuple[list[tuple[str, object, float]], str | None]:
        """Entries from absolute offset ``start`` plus the digest after them.

        Returns at most ``limit`` entries and the server's decision digest
        as of the *end of the returned slice being the journal tip* --
        i.e. when the slice reaches the current tip, the digest is the
        running decision digest; otherwise ``None`` (a replication pump
        only attaches a checkpoint digest to segments that end at a point
        whose digest it can name exactly).  Raises
        :class:`~repro.errors.RuntimeStateError` when ``start`` predates
        the retained journal (already truncated).
        """
        if self.journal is None:
            raise RuntimeStateError(
                f"server {self.name} keeps no journal (keep_journal=False)"
            )
        if start < self.journal_start:
            raise RuntimeStateError(
                f"journal entries before offset {self.journal_start} were "
                f"truncated into the checkpoint; cannot serve {start}"
            )
        index = start - self.journal_start
        entries = self.journal[index:index + limit]
        at_tip = index + len(entries) == len(self.journal)
        return entries, (self.digest() if at_tip else None)

    def replay_from_checkpoint(self) -> str:
        """Restore the checkpoint, replay the journal tail; returns digest.

        Proves the bounded journal still reproduces the served digest:
        a gateway unpickled from the state checkpoint replays the
        entries from ``checkpoint_offset`` on, starting from the
        checkpoint's digest state.  The checkpoint itself is untouched,
        so this may be called any number of times.
        """
        if self._ckpt_state is None:
            raise RuntimeStateError(
                f"server {self.name} has no checkpoint "
                "(journal_max_entries not configured)"
            )
        tail = self.journal[self.checkpoint_offset - self.journal_start:]
        return replay_journal(
            load_gateway_state(self._ckpt_state), tail,
            sha=self._ckpt_sha.copy(),
        )

    async def start_dispatcher(self) -> None:
        """Start the single-writer dispatch loop (idempotent).

        TCP-less entry point for in-process callers (the cluster router
        drives shards through :meth:`submit` without ever binding a
        port).
        """
        if self._dispatcher is None:
            self._stopping = False
            self._queue = asyncio.Queue()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name=f"admission-dispatch-{self.name}"
            )

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start dispatching and listen on ``host:port`` (0 = ephemeral)."""
        if self._tcp_server is not None:
            raise RuntimeStateError(f"server {self.name} is already listening")
        await self.start_dispatcher()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self.address
        logger.info("server %s listening on %s:%d", self.name, *bound)
        return bound

    async def stop(self) -> None:
        """Drain the queue, stop listening and run shutdown hooks."""
        self._stopping = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._conn_tasks:
            # Give open connections a moment to drain, then cancel.
            done, pending = await asyncio.wait(self._conn_tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
            self._conn_tasks.clear()
        if self._dispatcher is not None:
            if self._queue is not None:
                await self._queue.join()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
            self._queue = None
        if self.metrics_writer is not None:
            # The new-subsystem shutdown path the writer's close() fix
            # exists for: flush the final partial interval exactly once.
            self.metrics_writer.close(self._clock)
        for hook in self.on_shutdown:
            hook()
        logger.info(
            "server %s stopped (%d decisions, clock %.6g)",
            self.name, self._decisions, self._clock,
        )

    def serving(self, host: str = "127.0.0.1", port: int = 0):
        """``async with server.serving() as (host, port):`` convenience."""
        return _ServingContext(self, host, port)

    # -- request intake ----------------------------------------------------

    async def submit(self, request: dict) -> dict:
        """Run one request through the dispatch queue; returns a response.

        This is the single entry point for every request, whether it
        arrived over TCP or from an in-process caller: validation, load
        shedding, the queue, the per-request timeout and the metrics all
        live here.  Never raises for request-level failures -- those come
        back as typed error frames.
        """
        return await self._submit_start(request)

    def _submit_start(self, request: dict) -> asyncio.Future:
        """Validate, shed-check and enqueue one request synchronously.

        Returns a future resolving to the response frame.  This is the
        hot intake path: no task is spawned per request, and the
        per-request timeout is a cheap ``call_later`` timer that cancels
        the queue entry (the dispatcher skips it, so a timed-out request
        is never decided) and answers a ``timeout`` frame itself.
        """
        loop = asyncio.get_running_loop()
        response: asyncio.Future = loop.create_future()
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            validate_request(request)
        except ProtocolError as exc:
            self._m_errors.inc()
            response.set_result(error_response(request_id, exc.code, str(exc)))
            return response
        if self._stopping or self._queue is None:
            self._m_errors.inc()
            response.set_result(error_response(
                request_id, "shutting-down", f"server {self.name} is draining"
            ))
            return response
        depth = self._queue.qsize()
        self._m_queue_depth.set(depth)
        if depth >= self.config.max_queue_depth:
            # Fail closed: answer now rather than queueing unboundedly.
            self._m_shed.inc()
            self._m_errors.inc()
            response.set_result(error_response(
                request_id,
                "overloaded",
                f"dispatch queue at its bound "
                f"({depth} >= {self.config.max_queue_depth})",
            ))
            return response
        t0 = time.perf_counter()
        dispatch: asyncio.Future = loop.create_future()
        self._queue.put_nowait((request, dispatch))

        def expire() -> None:
            if dispatch.done():
                return
            dispatch.cancel()  # the dispatcher will skip it, never decide it
            self._m_timeouts.inc()
            self._m_errors.inc()
            if not response.done():
                response.set_result(error_response(
                    request_id,
                    "timeout",
                    f"request not dispatched within "
                    f"{self.config.request_timeout:g}s",
                ))

        timer = loop.call_later(self.config.request_timeout, expire)

        def finish(fut: asyncio.Future) -> None:
            timer.cancel()
            if fut.cancelled():
                return  # expire() already answered
            frame = fut.result()
            self._m_latency.observe(time.perf_counter() - t0)
            if not frame.get("ok", False):
                self._m_errors.inc()
            if not response.done():
                response.set_result(frame)

        dispatch.add_done_callback(finish)
        return response

    async def _dispatch_loop(self) -> None:
        """The single writer: applies queued requests to the gateway.

        Each wakeup drains up to ``max_coalesce`` queued entries in one
        synchronous burst (:meth:`_dispatch_batch`); nothing else touches
        the gateway, so the burst is atomic with respect to the event
        loop and the op order is exactly queue order.
        """
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.max_coalesce:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._dispatch_batch(batch)
            except Exception:  # the loop must survive any one burst
                logger.exception(
                    "server %s: unexpected dispatch failure", self.name
                )
                for request, future in batch:
                    if not future.done() and not future.cancelled():
                        future.set_result(error_response(
                            request.get("id") if isinstance(request, dict)
                            else None,
                            "internal",
                            "unexpected server-side failure",
                        ))
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _dispatch_batch(
        self, batch: list[tuple[dict, asyncio.Future]]
    ) -> None:
        """Apply one drained burst in queue order, coalescing same-op runs.

        Consecutive single ``admit`` (resp. ``depart``) requests become
        one ``admit_many`` (``depart_many``) gateway call -- the journal
        records the batched op actually executed, so ``replay_journal``
        reproduces the served digest byte-for-byte.  Entries whose future
        was cancelled (request timed out) are skipped, never decided.
        This method is fully synchronous: no await point can interleave
        a timeout cancellation mid-burst.
        """
        live = [
            (request, future)
            for request, future in batch
            if not future.cancelled()
        ]
        i = 0
        while i < len(live):
            request, future = live[i]
            op = request.get("op") if isinstance(request, dict) else None
            j = i + 1
            if op in ("admit", "depart") and not self.standby:
                # Admits coalesce only within one flow class (including
                # the classless None class): the batch gateway call takes
                # a single class tag for the whole run.
                flow_class = (
                    request.get("flow_class") if op == "admit" else None
                )
                while j < len(live):
                    nxt = live[j][0]
                    if not (isinstance(nxt, dict) and nxt.get("op") == op):
                        break
                    if op == "admit" and nxt.get("flow_class") != flow_class:
                        break
                    j += 1
            if j - i > 1:
                self._apply_run(op, live[i:j])
            else:
                self._answer(request, future)
            i = j

    def _answer(self, request: dict, future: asyncio.Future) -> None:
        """Apply one request and resolve its future (never raises)."""
        try:
            response = self._apply(request)
        except Exception:
            logger.exception(
                "server %s: unexpected dispatch failure", self.name
            )
            response = error_response(
                request.get("id") if isinstance(request, dict) else None,
                "internal",
                "unexpected server-side failure",
            )
        if not future.cancelled():
            future.set_result(response)

    def _apply_run(
        self, op: str, run: list[tuple[dict, asyncio.Future]]
    ) -> None:
        """Apply a coalesced run of single ``admit``/``depart`` requests.

        The run is pre-checked against the conditions that would make the
        gateway's batch call raise (duplicate flows in the run, admits of
        already-active flows, departs of unknown flows); any hit falls
        back to per-request :meth:`_answer` so the caller gets the exact
        same typed blame a sequential server would give.  The gateway's
        batch ops validate before mutating, so the defensive fallback
        after an unexpected validation error is also safe.
        """
        flows = [request["flow"] for request, _ in run]
        clean = len(set(flows)) == len(flows)
        if clean:
            if op == "admit":
                clean = all(
                    self.gateway.link_of(flow) is None for flow in flows
                )
            else:
                clean = all(
                    self.gateway.link_of(flow) is not None for flow in flows
                )
        if not clean:
            for request, future in run:
                self._answer(request, future)
            return
        ts = [
            float(request["t"])
            for request, _ in run
            if request.get("t") is not None
        ]
        if ts:
            self._clock = max(self._clock, max(ts))
        t = self._clock
        try:
            if op == "admit":
                flow_class = run[0][0].get("flow_class")
                decisions = self.gateway.admit_many(flows, t, flow_class)
                responses = []
                for (request, _), flow, decision in zip(run, flows, decisions):
                    self._record(flow, decision)
                    responses.append(ok_response(
                        request.get("id"),
                        {"t": t, "decision": decision_to_wire(decision)},
                    ))
                if flow_class is not None:
                    self._journal_append(
                        "admit_many_class", [flows, flow_class], t
                    )
                else:
                    self._journal_append("admit_many", flows, t)
            else:
                links = [self.gateway.link_of(flow).name for flow in flows]
                self.gateway.depart_many(flows, t)
                responses = [
                    ok_response(request.get("id"), {"t": t, "link": link})
                    for (request, _), link in zip(run, links)
                ]
                self._journal_append("depart_many", flows, t)
        except (RuntimeStateError, UnknownFlowError, ParameterError):
            # Validation refused the batch before any mutation; re-apply
            # sequentially for exact per-request blame.
            for request, future in run:
                self._answer(request, future)
            return
        self._m_requests.inc(len(run))
        self._m_coalesced.inc(len(run))
        if self.metrics_writer is not None:
            self.metrics_writer.poll(self._clock)
        for (request, future), response in zip(run, responses):
            if not future.cancelled():
                future.set_result(response)

    # -- op application (runs only on the dispatcher task) ------------------

    def _effective_time(self, request: dict) -> float:
        t = request.get("t")
        if t is not None:
            self._clock = max(self._clock, float(t))
        return self._clock

    def _record(self, flow_id, decision) -> None:
        self._decisions += 1
        if self._sha is not None:
            self._sha.update(digest_record(flow_id, decision))

    def _apply(self, request: dict) -> dict:
        request_id = request.get("id")
        op = request["op"]
        if self.standby and op in _STANDBY_REFUSED:
            self._m_errors.inc()
            return error_response(
                request_id,
                "state-error",
                f"shard {self.name} is a standby follower; {op} is refused "
                "until promotion",
            )
        try:
            result = getattr(self, f"_op_{op.replace('-', '_')}")(request)
        except UnknownFlowError as exc:
            return error_response(request_id, "unknown-flow", str(exc))
        except RuntimeStateError as exc:
            return error_response(request_id, "state-error", str(exc))
        except (ParameterError, ProtocolError, TelemetryError) as exc:
            return error_response(request_id, "bad-request", str(exc))
        except Exception as exc:  # catch-all: one bad request must never
            # kill the dispatcher (every later request would time out and
            # stop() would hang on queue.join()).
            logger.exception("server %s: %s failed", self.name, op)
            return error_response(request_id, "internal", str(exc))
        self._m_requests.inc()
        if self.metrics_writer is not None:
            self.metrics_writer.poll(self._clock)
        return ok_response(request_id, result)

    def _journal_append(self, op: str, flows, t: float) -> None:
        if self.journal is not None:
            self.journal.append((op, flows, t))
            if self._journal_limit is not None:
                self._bound_journal()

    def _take_checkpoint(self) -> None:
        """Checkpoint the gateway and the running digest at the journal tip.

        Every op applies to the gateway and the digest before it is
        journaled, so at the tip both describe exactly the first
        ``journal_end()`` entries.
        """
        self._ckpt_state = dump_gateway_state(self.gateway)
        self._ckpt_sha = self._sha.copy()
        self.checkpoint_offset = self.journal_end()

    def _bound_journal(self) -> None:
        """Checkpoint every ``journal_max_entries`` entries; drop the rest.

        The cadence depends only on the journal's growth, so a stuck
        ``retain_floor`` (a dead follower) holds entries back but never
        makes checkpoints more frequent.  Entries below both the
        checkpoint and the floor are dropped: the checkpoint covers them
        and no follower still needs them shipped.
        """
        if self.journal_end() - self.checkpoint_offset > self._journal_limit:
            self._take_checkpoint()
        floor = self.checkpoint_offset
        if self.retain_floor is not None:
            floor = min(floor, self.retain_floor)
        if floor > self.journal_start:
            del self.journal[:floor - self.journal_start]
            self.journal_start = floor

    def _op_admit(self, request: dict) -> dict:
        flow = request["flow"]
        flow_class = request.get("flow_class")
        t = self._effective_time(request)
        decision = self.gateway.admit(flow, t, flow_class)
        self._record(flow, decision)
        if flow_class is not None:
            self._journal_append("admit_class", [flow, flow_class], t)
        else:
            self._journal_append("admit", flow, t)
        return {"t": t, "decision": decision_to_wire(decision)}

    def _op_admit_many(self, request: dict) -> dict:
        flows = list(request["flows"])
        flow_class = request.get("flow_class")
        t = self._effective_time(request)
        decisions = self.gateway.admit_many(flows, t, flow_class)
        for flow, decision in zip(flows, decisions):
            self._record(flow, decision)
        if flow_class is not None:
            self._journal_append("admit_many_class", [flows, flow_class], t)
        else:
            self._journal_append("admit_many", flows, t)
        return {
            "t": t,
            "decisions": [decision_to_wire(d) for d in decisions],
        }

    def _op_depart(self, request: dict) -> dict:
        flow = request["flow"]
        t = self._effective_time(request)
        link = self.gateway.depart(flow, t)
        self._journal_append("depart", flow, t)
        return {"t": t, "link": link.name}

    def _op_depart_many(self, request: dict) -> dict:
        flows = list(request["flows"])
        t = self._effective_time(request)
        self.gateway.depart_many(flows, t)
        self._journal_append("depart_many", flows, t)
        return {"t": t, "departed": len(flows)}

    def _op_telemetry(self, request: dict) -> dict:
        link_name = request["link"]
        t = self._effective_time(request)
        sample = (link_name, request["t"], request["bytes"],
                  request.get("packets", 0), request.get("flow"))
        buffered = _push_telemetry(self.gateway, sample)
        self._journal_append("telemetry", sample, t)
        return {"t": t, "link": link_name, "buffered": buffered}

    def _op_journal_sync(self, request: dict) -> dict:
        """Apply one leader-shipped journal segment (follower side).

        The segment must be contiguous with the follower's journal tip
        (overlapping prefixes from leader retries are skipped; a gap is a
        typed ``state-error`` naming the expected offset so the leader
        resends from there).  Each entry is applied through the same code
        path :func:`replay_journal` uses and appended to the follower's
        own journal; when the segment carries the leader's checkpoint
        digest, the follower's running digest must match it exactly --
        a mismatch is a divergence and fails loudly.
        """
        if not self.standby:
            raise RuntimeStateError(
                f"shard {self.name} is not a standby follower; "
                "journal-sync refused"
            )
        start = int(request["start"])
        expected = self.journal_end()
        if start > expected:
            raise RuntimeStateError(
                f"journal-sync segment starts at entry {start} but follower "
                f"{self.name} expects {expected}; resend from {expected}"
            )
        entries = request["entries"]
        if start < expected:  # leader retried an already-applied prefix
            entries = entries[expected - start:]
        applied = 0
        for raw in entries:
            entry = (raw[0], raw[1], float(raw[2]))
            _apply_journal(self.gateway, (entry,), self._sha)
            self.journal.append(entry)
            self._clock = max(self._clock, entry[2])
            applied += 1
        if self._journal_limit is not None:
            self._bound_journal()
        total = self.journal_end()
        digest = self.digest()
        want = request.get("digest")
        digest_ok = None if want is None else (digest == want)
        if digest_ok is False:
            raise RuntimeStateError(
                f"follower {self.name} diverged at entry {total}: running "
                f"digest {digest} != leader checkpoint {want}"
            )
        return {
            "t": self._clock,
            "applied": applied,
            "total": total,
            "digest": digest,
            "digest_ok": digest_ok,
        }

    def _op_promote(self, request: dict) -> dict:
        """Flip a standby follower to active, verifying the rebuild first.

        Verification restores the follower's state checkpoint, replays
        only the journal tail past it (:meth:`replay_from_checkpoint`)
        and requires the replayed digest to equal the running digest, so
        promotion cost is bounded by ``journal_max_entries``, not by
        uptime.  The optional
        ``flows`` table (``[[flow, t_admitted], ...]``) is the
        supervisor's authoritative flow set: flows the leader admitted
        but never shipped are installed (journaled ``migrate_in``),
        flows the supervisor saw depart are removed (``migrate_out``),
        so the promoted shard reconciles exactly to cluster truth.
        """
        if not self.standby:
            raise RuntimeStateError(f"shard {self.name} is already active")
        t = self._effective_time(request)
        verified = None
        if request.get("verify", True):
            replayed = self.replay_from_checkpoint()
            running = self.digest()
            if replayed != running:
                raise RuntimeStateError(
                    f"promotion verification failed on {self.name}: journal "
                    f"replay digest {replayed} != running digest {running}"
                )
            verified = True
        want = request.get("digest")
        if want is not None and self.digest() != want:
            raise RuntimeStateError(
                f"promotion refused on {self.name}: running digest "
                f"{self.digest()} != expected leader digest {want}"
            )
        repaired_in = repaired_out = 0
        table = request.get("flows")
        if table is not None:
            wanted = {flow: float(t0) for flow, t0 in table}
            have = set(self.gateway.active_flows())
            extra = [flow for flow in have if flow not in wanted]
            missing = [
                [flow, t0] for flow, t0 in wanted.items() if flow not in have
            ]
            if extra:
                self.gateway.depart_many(extra, t)
                self._journal_append("migrate_out", extra, t)
                repaired_out = len(extra)
            if missing:
                for flow, _t0 in missing:
                    self.gateway.install(flow, t)
                self._journal_append("migrate_in", missing, t)
                repaired_in = len(missing)
        self.standby = False
        logger.info(
            "shard %s promoted to active (%d flows, %d repaired in, "
            "%d repaired out)",
            self.name, self.gateway.n_flows, repaired_in, repaired_out,
        )
        return {
            "t": t,
            "promoted": True,
            "name": self.name,
            "digest": self.digest(),
            "n_flows": self.gateway.n_flows,
            "verified": verified,
            "repaired_in": repaired_in,
            "repaired_out": repaired_out,
        }

    def _op_migrate_out(self, request: dict) -> dict:
        """Phase one of a flow handoff: depart the flows, journal it.

        No admission decision is made (the flows were already admitted),
        so the decision digest is untouched; the ``migrate_out`` journal
        entry makes the departure part of the replayable history.
        """
        flows = list(request["flows"])
        t = self._effective_time(request)
        self.gateway.depart_many(flows, t)
        self._journal_append("migrate_out", flows, t)
        return {"t": t, "departed": len(flows)}

    def _op_migrate_in(self, request: dict) -> dict:
        """Phase two of a flow handoff: install flows admitted elsewhere.

        ``flows`` is ``[[flow, original_effective_t], ...]`` -- the
        original admission time rides into the journal so reconciliation
        can prove the decision was carried over, not re-made.  Installs
        are unconditional placements: no decision, no digest record.
        """
        pairs = [[flow, float(t0)] for flow, t0 in request["flows"]]
        active = [
            flow for flow, _t0 in pairs
            if self.gateway.link_of(flow) is not None
        ]
        if active:
            raise RuntimeStateError(
                f"migrate-in refused: {active!r} already active on shard "
                f"{self.name} (would double-admit)"
            )
        t = self._effective_time(request)
        for flow, _t0 in pairs:
            self.gateway.install(flow, t)
        self._journal_append("migrate_in", pairs, t)
        return {"t": t, "installed": len(pairs)}

    def _op_retarget(self, request: dict) -> dict:
        """Install a re-inverted p_ce target (as its alpha) on live links.

        The install is journaled -- it changes the target every later
        decision carries into the digest, so replay must reproduce it at
        exactly this point in the sequence.  No digest record of its own:
        retarget makes no admission decision.
        """
        link = request.get("link")
        t = self._effective_time(request)
        alpha = float(request["alpha"])
        updated = self.gateway.retarget(alpha, link=link)
        self._journal_append("retarget", [alpha, link], t)
        return {"t": t, "alpha": alpha, "links": updated}

    def _op_snapshot(self, request: dict) -> dict:
        snapshot = json_safe(self.gateway.snapshot())
        snapshot["service"] = {
            "name": self.name,
            "clock": self._clock,
            "decisions": self._decisions,
            "decision_digest": self.digest(),
            "health": shard_health(self.gateway).value,
            "standby": self.standby,
            "journal_start": self.journal_start,
            "journal_entries": (
                len(self.journal) if self.journal is not None else 0
            ),
        }
        if request.get("flows"):
            # Opt-in: the active flow table, so a cluster supervisor can
            # reconcile its routing table against shard truth exactly.
            snapshot["service"]["flows"] = list(self.gateway.active_flows())
        return snapshot

    def _op_health(self, request: dict) -> dict:
        return {
            "name": self.name,
            "health": shard_health(self.gateway).value,
            "standby": self.standby,
            "clock": self._clock,
            "n_flows": self.gateway.n_flows,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "connections": self._connections,
            "links": {
                link.name: {
                    "health": link.health.value,
                    "n_flows": link.n_flows,
                    "load_fraction": link.load_fraction,
                }
                for link in self.gateway.links
            },
        }

    def _op_ping(self, request: dict) -> dict:
        return {
            "pong": True,
            "name": self.name,
            "version": PROTOCOL_VERSION,
            "max_version": MAX_PROTOCOL_VERSION,
            "clock": self._clock,
        }

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= self.config.max_connections:
            self._m_conn_refused.inc()
            try:
                await write_frame(
                    writer,
                    error_response(
                        None,
                        "too-many-connections",
                        f"server {self.name} at its "
                        f"{self.config.max_connections}-connection cap",
                    ),
                )
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            writer.close()
            return
        self._connections += 1
        self._m_connections.set(self._connections)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        peer = writer.get_extra_info("peername")
        logger.debug("server %s: connection from %s", self.name, peer)
        # Pipelining with in-order responses: each frame becomes a submit()
        # task immediately (so the dispatch queue, not the connection, is
        # the concurrency bound) and a writeback task sends the responses
        # in arrival order.  Each response is encoded at its own request's
        # wire version -- v2 binary requests get binary answers, v1 JSON
        # requests get JSON -- so mixed-version pipelines never confuse a
        # v1-only peer.  Writes are buffered and drained once per ready
        # run instead of once per frame.
        pending: asyncio.Queue = asyncio.Queue()

        async def writeback() -> None:
            done = False
            while not done:
                item = await pending.get()
                while True:
                    if item is None:
                        done = True
                        break
                    version, response = item
                    writer.write(encode_response(await response, version))
                    if pending.empty():
                        break
                    item = pending.get_nowait()
                await writer.drain()

        wb = asyncio.get_running_loop().create_task(writeback())
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, max_bytes=self.config.max_frame_bytes
                    )
                except ProtocolError as exc:
                    self._m_errors.inc()
                    pending.put_nowait((
                        PROTOCOL_VERSION,
                        _completed(error_response(None, exc.code, str(exc))),
                    ))
                    break  # framing is lost; close after responding
                if frame is None:
                    break
                version = (
                    PROTOCOL_VERSION_2
                    if frame.get("v") == PROTOCOL_VERSION_2
                    else PROTOCOL_VERSION
                )
                pending.put_nowait((version, self._submit_start(frame)))
        except asyncio.CancelledError:
            # Server shutdown reaped this connection; end quietly (a task
            # left in the cancelled state trips asyncio.streams' done
            # callback, which re-raises CancelledError into the loop).
            logger.debug("server %s: connection %s reaped at shutdown",
                         self.name, peer)
        except (ConnectionError, OSError) as exc:
            logger.debug("server %s: connection %s dropped: %s",
                         self.name, peer, exc)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            pending.put_nowait(None)
            try:
                await wb
                if writer.can_write_eof():
                    writer.write_eof()
            except asyncio.CancelledError:
                wb.cancel()
            except (ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            self._connections -= 1
            self._m_connections.set(self._connections)


def _completed(value: dict) -> asyncio.Future:
    future: asyncio.Future = asyncio.get_running_loop().create_future()
    future.set_result(value)
    return future


class _ServingContext:
    def __init__(self, server: AdmissionServer, host: str, port: int) -> None:
        self._server = server
        self._host = host
        self._port = port

    async def __aenter__(self) -> tuple[str, int]:
        return await self._server.start(self._host, self._port)

    async def __aexit__(self, *exc) -> None:
        await self._server.stop()


# -- telemetry ingestion -------------------------------------------------------


def _push_telemetry(
    gateway: AdmissionGateway,
    sample: tuple[str, float, int, int, object],
) -> int:
    """Push one wire telemetry sample into its link's ingest feed.

    ``sample`` is the journal tuple ``(link, t, bytes, packets, flow)``.
    Shared by the live op and :func:`replay_journal` so both paths hit
    the exact same feed state transitions.  Raises
    :class:`~repro.errors.ProtocolError` when the link's feed cannot
    accept pushes (not an :class:`~repro.telemetry.ingest.IngestFeed`).
    """
    from repro.telemetry.counters import CounterSample

    link_name, t, nbytes, packets, flow = sample
    feed = gateway.link(link_name).feed
    push = getattr(feed, "push", None)
    if push is None:
        # A fault plan may have wrapped the ingest feed; push through it.
        push = getattr(getattr(feed, "inner", None), "push", None)
    if not callable(push):
        raise ProtocolError(
            f"link {link_name!r} does not accept pushed telemetry (its feed "
            f"is {type(feed).__name__}; serve with --telemetry-ingest)",
            code="bad-request",
        )
    return push(
        CounterSample(t=float(t), bytes=nbytes, packets=packets), stream=flow
    )


# -- state checkpoints --------------------------------------------------------


class _StatePickler(pickle.Pickler):
    """Pickles a gateway's decision state, leaving observability out.

    A :class:`DecisionTracer` (which holds an unpicklable ``hashlib``
    object) or :class:`Profiler` attached to the gateway, its links or
    its feeds is written as a reference that loads as ``None``: it
    records decisions but never makes one.
    """

    def persistent_id(self, obj):
        if isinstance(obj, (DecisionTracer, Profiler)):
            return "detached"
        return None


class _StateUnpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        return None


def dump_gateway_state(gateway: AdmissionGateway) -> bytes:
    """Serialize ``gateway``'s decision state (a state checkpoint).

    Pickle, so a checkpoint may only be loaded by a process running the
    same build of this package -- which a shard and its follower always
    are.  Never load one from an untrusted source.
    """
    buffer = io.BytesIO()
    _StatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(gateway)
    return buffer.getvalue()


def load_gateway_state(state: bytes) -> AdmissionGateway:
    """Rebuild a gateway from :func:`dump_gateway_state` output.

    The copy decides exactly as the original did from the checkpoint on;
    tracer and profiler are detached (``None``).
    """
    return _StateUnpickler(io.BytesIO(state)).load()


# -- sequential re-execution --------------------------------------------------


def _apply_journal(gateway, journal, sha) -> None:
    """Apply ``(op, flows, t)`` entries to ``gateway``, hashing decisions.

    The one loop body shared by :func:`replay_journal` (hence checkpoint
    replay) and the follower's ``journal-sync`` handler, so every path
    that re-executes journal entries produces byte-identical digest
    updates.  ``sha`` may be ``None`` (decisions are applied but not
    hashed).
    """
    update = sha.update if sha is not None else None
    for op, flows, t in journal:
        if op == "admit":
            decision = gateway.admit(flows, t)
            if update is not None:
                update(digest_record(flows, decision))
        elif op == "admit_many":
            decisions = gateway.admit_many(flows, t)
            if update is not None:
                for flow, decision in zip(flows, decisions):
                    update(digest_record(flow, decision))
        elif op == "admit_class":
            # Class-tagged admit: flows = [flow, class name].
            flow, flow_class = flows
            decision = gateway.admit(flow, t, flow_class)
            if update is not None:
                update(digest_record(flow, decision))
        elif op == "admit_many_class":
            # Class-tagged batch admit: flows = [[flow, ...], class name].
            batch, flow_class = flows
            decisions = gateway.admit_many(batch, t, flow_class)
            if update is not None:
                for flow, decision in zip(batch, decisions):
                    update(digest_record(flow, decision))
        elif op == "depart":
            gateway.depart(flows, t)
        elif op == "depart_many":
            gateway.depart_many(flows, t)
        elif op == "telemetry":
            _push_telemetry(gateway, flows)
        elif op == "migrate_out":
            # Two-phase handoff departure: no decision, no digest record.
            gateway.depart_many(flows, t)
        elif op == "migrate_in":
            # ``flows`` is [[flow, original_effective_t], ...]; the
            # original time is bookkeeping -- installation happens at the
            # journal entry's effective time, unconditionally.
            for flow, _t0 in flows:
                gateway.install(flow, t)
        elif op == "retarget":
            # Online re-inversion install: (alpha, link|None). Changes
            # every subsequent decision's target, hence its digest line
            # -- which is why the install itself must be journaled.
            alpha, link = flows
            gateway.retarget(float(alpha), link=link)
        else:  # pragma: no cover - journals only hold the known ops
            raise ParameterError(f"unknown journal op {op!r}")


def replay_journal(
    gateway: AdmissionGateway,
    journal: Sequence[tuple[str, object, float]],
    *,
    sha=None,
) -> str:
    """Re-execute a server journal sequentially; returns the digest.

    Applies the recorded ``(op, flows, effective_t)`` sequence to a fresh,
    identically-built gateway with plain synchronous calls -- the
    equivalent sequential replay of the same arrival order -- and hashes
    the decisions in ``replay()``'s digest format.  A correct server
    yields exactly this digest for the run that produced the journal:
    the single-writer queue makes concurrent serving and sequential
    re-execution indistinguishable.

    ``sha`` seeds the digest state: pass a checkpoint's running sha256
    (``checkpoint.copy()``) together with the gateway restored from that
    checkpoint to replay a truncated journal's tail -- the result is
    still the full served digest.  Default (``None``) starts from scratch,
    byte-compatible with the historical behavior.
    """
    if sha is None:
        sha = hashlib.sha256()
    _apply_journal(gateway, journal, sha)
    return sha.hexdigest()
