"""Import-graph regression: a shard process loads only the decision path.

Every shard and served-server process imports ``repro.service`` and builds
a gateway.  Neither may drag in the simulators, the experiments, the
process samplers or ``scipy.stats``: they cost a shard most of its start-up
time and tens of MiB of memory while deciding nothing.  Each check runs
in a fresh interpreter, since this test session has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a shard process must never load.
OFF_THE_DECISION_PATH = (
    "repro.simulation",
    "repro.experiments",
    "repro.processes",
    "scipy.stats",
)


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter; returns its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_shard_import_and_build_stay_off_the_simulators():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import repro.service.replication as replication\n"
        "replication.GatewaySpec(kind='rcbr', links=4, n=100).build()\n"
        f"print(json.dumps([m for m in {OFF_THE_DECISION_PATH!r} "
        "if m in sys.modules]))\n"
    )
    assert loaded == []


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
