"""Import-graph regression: a shard process loads only the decision path.

Every served-server process imports ``repro.service`` and builds a
gateway; a cluster shard imports it and loads the gateway its supervisor
built.  Neither may drag in the simulators, the experiments, the process
samplers or scipy: they cost a process most of its start-up time and
tens of MiB of memory while deciding nothing.  The design step in a
build runs on pure-Python ports of scipy's solvers
(``repro.theory.numerics``), so even importing the theory loads no scipy.
Each check runs in a fresh interpreter, since this test session has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a serving process must never load.
OFF_THE_DECISION_PATH = (
    "repro.simulation",
    "repro.experiments",
    "repro.processes",
    "scipy",
)


def fresh_interpreter(code: str, *argv: str):
    """Run ``code`` in a new interpreter; returns its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_shard_import_and_build_stay_off_the_simulators():
    """Importing the theory and the service and building an rcbr gateway
    and an adjusted classed gateway -- each solving eqn (37) for its
    links -- loads none of them, scipy included."""
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import repro.theory\n"
        "import repro.service.replication as replication\n"
        "from repro.classes import build_classed_gateway\n"
        "replication.GatewaySpec(kind='rcbr', links=4, n=100).build()\n"
        "build_classed_gateway(links=4, adjust=True)\n"
        f"print(json.dumps([m for m in {OFF_THE_DECISION_PATH!r} "
        "if m in sys.modules]))\n"
    )
    assert loaded == []


#: A booted shard's life in one script: load the checkpoint at ``argv[1]``,
#: serve every op kind through a leader, ship the journal to a standby,
#: and prove both servers' checkpoints replay.
SERVE_A_CHECKPOINT = """
import asyncio, json, sys
from repro.service.protocol import make_request
from repro.service.server import AdmissionServer, load_gateway_state

state = open(sys.argv[1], "rb").read()


def server(name, standby):
    return AdmissionServer(
        load_gateway_state(state), name=name, collect_digest=True,
        keep_journal=True, journal_max_entries=16, standby=standby,
    )


async def main():
    leader, follower = server("leader", False), server("follower", True)
    leader.retain_floor = 0
    await leader.start_dispatcher()
    await follower.start_dispatcher()
    rid, t, admitted = 0, 0.0, []

    async def call(target, op, **fields):
        nonlocal rid
        rid += 1
        response = await target.submit(make_request(op, rid, **fields))
        assert response["ok"], response
        return response["result"]

    for i in range(60):
        t += 0.5
        if (await call(leader, "admit", flow=f"f{i}", t=t))["decision"]["admitted"]:
            admitted.append(f"f{i}")
        await call(leader, "telemetry", link="link1", t=t, bytes=100 + i,
                   flow="probe")
        if i % 3 == 2 and admitted:
            await call(leader, "depart", flow=admitted.pop(0), t=t)
        if i % 20 == 10:
            await call(leader, "admit_many", flows=[f"b{i}", f"c{i}"], t=t)
            await call(leader, "retarget", alpha=2.5, link="link0", t=t)
    await call(leader, "snapshot", flows=True)
    entries, digest = leader.journal_segment(0, limit=1000)
    synced = await call(follower, "journal-sync", shard="leader", seq=0,
                        start=0, entries=entries, digest=digest)
    assert synced["digest_ok"] is True, synced
    assert leader.replay_from_checkpoint() == leader.digest()
    assert follower.replay_from_checkpoint() == leader.digest()
    await leader.stop()
    await follower.stop()


asyncio.run(main())
print(json.dumps(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""


def test_a_booted_shard_loads_no_scipy(tmp_path):
    """The supervisor runs the design step; a shard only loads its result.

    Everything a shard does after boot -- loading its checkpoint, serving
    admit, admit_many, depart, telemetry, retarget and snapshot, applying
    a journal-sync segment as a standby, replaying from its own checkpoint
    -- must leave scipy unimported.
    """
    from repro.service.replication import GatewaySpec
    from repro.service.server import dump_gateway_state
    from repro.telemetry import IngestFeed

    gateway = GatewaySpec(kind="rcbr", links=2, n=20).build()
    # link1 takes pushed counters, as ``repro serve --telemetry-ingest``.
    gateway.link("link1").feed = IngestFeed(1.0)
    checkpoint = tmp_path / "gateway.state"
    checkpoint.write_bytes(dump_gateway_state(gateway))
    assert fresh_interpreter(SERVE_A_CHECKPOINT, str(checkpoint)) == []


def test_top_level_names_still_resolve():
    resolved = fresh_interpreter(
        "import json, repro\n"
        "print(json.dumps([repro.simulate is repro.simulation.simulate,\n"
        "                  callable(repro.q_inverse),\n"
        "                  repro.paper_rcbr_source.__module__,\n"
        "                  hasattr(repro, 'no_such_name')]))\n"
    )
    assert resolved == [True, True, "repro.traffic.rcbr", False]


def test_dir_lists_lazy_exports():
    assert set(repro.__all__) <= set(dir(repro))
