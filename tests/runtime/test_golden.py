"""Golden-trace regression: the canonical replay's decisions are pinned.

A small seeded replay (two links, cycling trace feeds, one measurement
outage, ~200 decisions) is committed under ``tests/runtime/data/`` as a
deterministic trace JSONL plus its sha256 decision digest; the digest of
the same replay drained in ``batch_window`` bursts is committed beside
it.  The test re-runs the replay and asserts byte-identical output, so
any refactor that silently changes admission behavior -- decision
order, targets, occupancy accounting, trace schema -- fails loudly here.

The golden gateway is built only from closed-form pieces (explicit-alpha
controllers, memoryless estimators, hand-written cross-sections) so the
trace does not depend on scipy/numpy special-function versions; the only
randomness is numpy's seeded Generator driving arrival times, whose
bit-stream is stable by contract.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/runtime/test_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.core.controllers import CertaintyEquivalentController
from repro.core.estimators import CrossSection, MemorylessEstimator
from repro.runtime.feed import TraceFeed
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.link import ManagedLink
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.observability import DecisionTracer
from repro.runtime.replay import FeedOutage, replay

DATA_DIR = Path(__file__).parent / "data"
TRACE_PATH = DATA_DIR / "golden_trace.jsonl"
META_PATH = DATA_DIR / "golden_meta.json"

#: Exact-moment cross-sections the feeds cycle through (n, mean, variance).
_SECTIONS = (
    (6, 1.00, 0.090),
    (7, 1.10, 0.121),
    (5, 0.90, 0.070),
    (8, 1.05, 0.100),
)

REPLAY_KWARGS = dict(
    n_events=520,
    arrival_rate=2.0,
    holding_time=25.0,
    tick_period=1.0,
    seed=42,
    outages=(FeedOutage(link="g0", start=30.0, duration=12.0),),
    collect_digest=True,
)


def _sections():
    out = []
    for n, mean, var in _SECTIONS:
        m2 = mean * mean + var * (n - 1) / n
        out.append(CrossSection(n=n, mean=mean, second_moment=m2, variance=var))
    return out


def build_golden_gateway(tracer):
    """Two closed-form links behind round-robin placement."""
    registry = MetricsRegistry()
    links = []
    for name in ("g0", "g1"):
        links.append(
            ManagedLink(
                name,
                capacity=20.0,
                holding_time=100.0,
                mean_rate=1.0,
                feed=TraceFeed(_sections(), period=1.0, cycle=True),
                estimator=MemorylessEstimator(),
                controller=CertaintyEquivalentController(20.0, alpha=1.645),
                conservative_controller=CertaintyEquivalentController(
                    20.0, alpha=3.0
                ),
                stale_horizon=5.0,
                registry=registry,
                tracer=tracer,
            )
        )
    return AdmissionGateway(
        links, placement="round-robin", registry=registry
    )


#: Window of the batched golden replay (every instant is one burst).
BATCH_WINDOW = 2.0


def run_golden(batch_window=None):
    """One golden replay; returns (tracer, report, deterministic lines)."""
    tracer = DecisionTracer()
    gateway = build_golden_gateway(tracer)
    report = replay(gateway, batch_window=batch_window, **REPLAY_KWARGS)
    lines = list(tracer.event_lines(deterministic=True))
    return tracer, report, lines


class TestGoldenTrace:
    def test_two_runs_are_byte_identical(self):
        tracer_a, report_a, lines_a = run_golden()
        tracer_b, report_b, lines_b = run_golden()
        assert lines_a == lines_b
        assert tracer_a.digest() == tracer_b.digest()
        assert report_a.decision_digest == report_b.decision_digest

    def test_tracer_digest_matches_replay_digest(self):
        tracer, report, _ = run_golden()
        assert tracer.digest() == report.decision_digest

    def test_matches_committed_golden(self):
        meta = json.loads(META_PATH.read_text())
        tracer, report, lines = run_golden()
        assert report.decision_digest == meta["decision_digest"], (
            "admission behavior changed: decision digest diverged from the "
            "golden value; if intentional, regenerate with "
            "`python tests/runtime/test_golden.py --regen`"
        )
        assert tracer.counts == meta["event_counts"]
        assert tracer.decisions == meta["decisions"]
        committed = TRACE_PATH.read_text().splitlines()
        assert lines == committed, (
            "trace schema or event stream changed vs the committed golden "
            "JSONL; if intentional, regenerate the data files"
        )

    def test_batched_replay_matches_committed_golden(self):
        # The same recipe drained in admit_many/depart_many bursts pins
        # the burst decision path the sequential golden never takes.
        meta = json.loads(META_PATH.read_text())["batched"]
        tracer, report, _ = run_golden(BATCH_WINDOW)
        assert report.decision_digest == meta["decision_digest"]
        assert tracer.digest() == report.decision_digest
        assert report.batches == meta["batches"]
        assert tracer.counts == meta["event_counts"]
        assert report.admitted > 0 and report.rejected > 0
        assert report.arrivals > report.batches  # real bursts, not singles

    def test_golden_workload_is_interesting(self):
        # The golden run must exercise the paths it pins: both decisions
        # outcomes, the outage-driven health transition, and enough
        # decisions to be a meaningful regression net.
        tracer, report, _ = run_golden()
        assert report.admitted > 0 and report.rejected > 0
        assert tracer.decisions >= 200
        assert tracer.counts["health"] > 0


def regen():  # pragma: no cover - maintenance entry point
    DATA_DIR.mkdir(exist_ok=True)
    tracer, report, lines = run_golden()
    batched_tracer, batched, _ = run_golden(BATCH_WINDOW)
    TRACE_PATH.write_text("\n".join(lines) + "\n")
    META_PATH.write_text(json.dumps(
        {
            "decision_digest": report.decision_digest,
            "decisions": tracer.decisions,
            "event_counts": tracer.counts,
            "replay": {k: v for k, v in REPLAY_KWARGS.items()
                       if k not in ("outages", "collect_digest")},
            "batched": {
                "batch_window": BATCH_WINDOW,
                "batches": batched.batches,
                "decision_digest": batched.decision_digest,
                "event_counts": batched_tracer.counts,
            },
        },
        indent=2,
        sort_keys=True,
    ) + "\n")
    print(f"golden trace: {len(lines)} events, "
          f"{tracer.decisions} decisions -> {TRACE_PATH}")
    print(f"decision digest: {report.decision_digest}")


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
        sys.exit(2)
