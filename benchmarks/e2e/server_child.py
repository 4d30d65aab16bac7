"""Gateway recipes and the child process that serves one of them.

The served workloads run their :class:`AdmissionServer` in a child
process spawned by the benchmark, configured like a cluster shard
(bounded journal with a checkpoint twin built by the same recipe).  The
child reports its address over a pipe and then takes commands on it:

* ``("trace", bool)`` -- switch span recording on or off;
* ``("totals", None)`` -- answer per-span totals and wire tallies;
* ``("write", path)`` -- write the recorded spans to ``path``;
* ``("stop", None)`` -- drain, stop, and answer ``(served digest,
  replay_from_checkpoint digest)``.
"""

from __future__ import annotations

import asyncio
import functools
import time

from repro.classes.factory import build_classed_gateway
from repro.service.replication import GatewaySpec
from repro.service.server import AdmissionServer, ServerConfig

from e2e.trace import Tracer

#: The classless recipe: 4 RCBR links of 100 flows, holding time 100.
RCBR_SPEC = GatewaySpec(kind="rcbr", links=4, n=100, holding_time=100)
#: Links of the classed recipe (default video/data/voice policies).
CLASSED_LINKS = 4
#: Journal bound of a served gateway, as a cluster shard's.
JOURNAL_MAX_ENTRIES = 4096


def classed_gateway(seed: int):
    return build_classed_gateway(links=CLASSED_LINKS, adjust=True, seed=seed)[0]


def gateway_factory(recipe: str, seed: int):
    """Zero-argument builder of twin gateways for ``recipe`` and ``seed``."""
    if recipe == "rcbr":
        return RCBR_SPEC.with_seed(seed).build
    return functools.partial(classed_gateway, seed)


def serve(conn, recipe: str, seed: int, traced: bool) -> None:
    """Child-process entry point."""
    factory = gateway_factory(recipe, seed)
    tracer = None
    if traced:
        # Every span in the server is synchronous, so CPU time measures
        # its work without the preemption a shared machine adds.
        tracer = Tracer(clock=time.process_time_ns)
        tracer.instrument_gateway(factory())
        tracer.instrument_server_module()
    server = AdmissionServer(
        factory(),
        name="shard0",
        config=ServerConfig(max_queue_depth=8192),
        collect_digest=True,
        keep_journal=True,
        journal_max_entries=JOURNAL_MAX_ENTRIES,
        gateway_factory=factory,
    )
    asyncio.run(_main(conn, server, tracer))


async def _main(conn, server: AdmissionServer, tracer) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    conn.send(await server.start("127.0.0.1", 0))

    def on_command() -> None:
        try:
            command, arg = conn.recv()
        except EOFError:  # the benchmark went away
            stop.set()
            return
        if command == "trace":
            tracer.enabled = bool(arg)
        elif command == "totals":
            conn.send((tracer.totals(), dict(tracer.tally)))
        elif command == "write":
            tracer.write(arg)
            conn.send(True)
        elif command == "stop":
            stop.set()

    loop.add_reader(conn.fileno(), on_command)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        await server.stop()
    try:
        replayed = server.replay_from_checkpoint()
    except Exception as exc:  # reported as a failed check, not a crash
        replayed = f"replay failed: {exc!r}"
    try:
        conn.send((server.digest(), replayed))
    except (BrokenPipeError, OSError):
        pass
