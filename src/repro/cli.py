"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the available paper experiments.
``run EXPERIMENT``
    Run one experiment (see DESIGN.md's index) and print its table.
``simulate``
    Run a single MBAC simulation on the paper's RCBR workload.
``theory``
    Evaluate the overflow-probability formulas at one parameter point.
``design``
    The robust-MBAC design recipe: memory rule + inverted target.
``serve-replay``
    Drive the online multi-link gateway with a replayed workload and
    print a metrics snapshot (decisions/sec, per-link admits/rejects/...).
``chaos-replay``
    Soak the gateway under an injected fault plan (outages, corrupt
    bursts, quarantines) and gate on two robustness invariants: the
    faulted overflow fraction stays within a factor of the fault-free
    run's, and the same seed + plan reproduces identical decisions
    byte-for-byte.
``serve``
    Run one admission server: a gateway behind the TCP wire protocol
    (see :mod:`repro.service`), until interrupted or ``--max-seconds``.
    With ``--telemetry-ingest`` the links' measurements come exclusively
    from pushed ``telemetry`` frames.
``telemetry-push``
    Push one cumulative counter sample (``--link --t --bytes``) to a
    running server's ingest feed.
``admit-client``
    One client request (ping/admit/depart/snapshot/health) against a
    running server.
``loadgen``
    Open-loop load generation against running servers (``--addr``) or
    self-hosted loopback shards (``--self-host``), optionally with v2
    pipelining (``--pipeline``), a multi-class arrival mix
    (``--class-mix``), journal-replay digest verification
    (``--check-digest``) and throughput gates.
``overload``
    Sustained multi-class overload (arrival rate >= 3x capacity against
    a classed gateway with adjusted per-class alphas), gated on
    Leskelä-style stability and per-class ``p_f <= p_q`` conformance in
    every phase.

A global ``--verbose``/``-v`` flag (repeatable) configures the root
logging handler: once for INFO, twice for DEBUG.

Exit codes: 0 on success, 1 on any runtime failure (library errors, I/O
errors, failed gates), 2 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from repro.core.gaussian import log_q_function, q_function
from repro.core.memory import critical_time_scale

__all__ = ["main", "build_parser"]


def _configure_logging(verbosity: int) -> None:
    """Configure the root handler from the ``-v`` count (0/1/2+)."""
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO if verbosity == 1 else logging.DEBUG
    )
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    logging.getLogger("repro").setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Robust measurement-based admission control "
            "(Grossglauser & Tse, SIGCOMM 1997) -- reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one paper experiment")
    run.add_argument("experiment", help="experiment id (see `repro list`)")
    run.add_argument(
        "--quality",
        choices=("smoke", "standard", "full"),
        default="standard",
        help="statistical weight / runtime trade-off",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--save", metavar="DIR", default=None, help="also write <id>.json here"
    )

    sim = sub.add_parser(
        "simulate", help="simulate one MBAC configuration (RCBR workload)"
    )
    sim.add_argument("--n", type=float, default=100.0, help="system size c/mu")
    sim.add_argument("--holding-time", type=float, default=1000.0)
    sim.add_argument("--correlation-time", type=float, default=1.0)
    sim.add_argument("--snr", type=float, default=0.3, help="per-flow sigma/mu")
    sim.add_argument("--p-ce", type=float, default=1e-3)
    sim.add_argument(
        "--memory",
        type=float,
        default=None,
        help="estimator memory T_m (default: the T_h/sqrt(n) rule; 0 = memoryless)",
    )
    sim.add_argument("--max-time", type=float, default=2e4)
    sim.add_argument("--engine", choices=("fast", "event"), default="fast")
    sim.add_argument("--seed", type=int, default=0)

    theory = sub.add_parser(
        "theory", help="evaluate the overflow formulas at one point"
    )
    for flag, default in (
        ("--n", 100.0),
        ("--holding-time", 1000.0),
        ("--correlation-time", 1.0),
        ("--snr", 0.3),
        ("--memory", 0.0),
        ("--p-ce", 1e-3),
    ):
        theory.add_argument(flag, type=float, default=default)

    design = sub.add_parser(
        "design", help="memory rule + inverted conservative target"
    )
    design.add_argument("--n", type=float, required=True)
    design.add_argument("--holding-time", type=float, required=True)
    design.add_argument("--p-q", type=float, required=True)
    design.add_argument("--correlation-time", type=float, default=1.0)
    design.add_argument("--snr", type=float, default=0.3)
    design.add_argument(
        "--memory-fraction",
        type=float,
        default=1.0,
        help="T_m as a fraction of T_h_tilde",
    )

    serve = sub.add_parser(
        "serve-replay",
        help="drive the online multi-link gateway with a replayed workload",
    )
    _add_gateway_args(serve)
    serve.add_argument(
        "--events", type=int, default=100_000, help="events to replay"
    )
    serve.add_argument(
        "--outage",
        metavar="LINK:START:DURATION",
        action="append",
        default=[],
        help="pause LINK's measurement feed at START for DURATION "
        "(repeatable; links are named link0..linkN-1)",
    )
    serve.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="JSON/YAML fault plan: wrap the named links' feeds in seeded "
        "fault injectors (outages, drops, corruption, stuck-at, latency)",
    )
    serve.add_argument(
        "--batch",
        action="store_true",
        help="batched arrival mode: quantize requests onto a window grid "
        "and resolve each instant with one admit_many burst",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="W",
        help="batching window for --batch (default: the tick period); "
        "implies --batch when given",
    )
    serve.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="attach a decision tracer and write the event trace as JSONL "
        "(one admit/reject/failover/health/breaker/fault event per line)",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write periodic JSONL metrics snapshots (one per "
        "--metrics-interval of simulated time, plus a closing snapshot)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="T",
        help="simulated time between --metrics-out snapshots "
        "(default: 10x the tick period)",
    )
    serve.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help="write the final metrics registry in Prometheus text "
        "exposition format ('-' for stdout)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="attach perf_counter_ns timers to the admit/admit_many/"
        "estimator-read/placement hot paths and print their summary",
    )
    serve.add_argument(
        "--json", action="store_true", help="print the full snapshot as JSON"
    )

    chaos = sub.add_parser(
        "chaos-replay",
        help="soak the gateway under injected faults and gate on bounded "
        "overflow + byte-for-byte decision reproducibility",
    )
    _add_gateway_args(chaos)
    chaos.add_argument(
        "--events", type=int, default=20_000, help="events per replay run"
    )
    chaos.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="JSON/YAML fault plan (default: a built-in scenario with a feed "
        "outage, a corrupt-sample burst and a quarantined link)",
    )
    chaos.add_argument(
        "--soak-seconds",
        type=float,
        default=0.0,
        help="keep re-running with fresh seeds until this much wall-clock "
        "time has elapsed (0: exactly one iteration)",
    )
    chaos.add_argument(
        "--overflow-factor",
        type=float,
        default=2.0,
        help="fail if the faulted overflow fraction exceeds this factor "
        "times the fault-free run's",
    )
    chaos.add_argument(
        "--overflow-floor",
        type=float,
        default=0.02,
        help="treat the fault-free overflow fraction as at least this much "
        "when applying --overflow-factor (guards near-zero baselines)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="print the soak report as JSON"
    )

    serve = sub.add_parser(
        "serve",
        help="run one admission server (gateway behind the TCP protocol)",
    )
    _add_gateway_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="listen port (0: ephemeral)"
    )
    serve.add_argument("--name", default="shard0", help="shard name")
    serve.add_argument("--max-connections", type=int, default=256)
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="dispatch-queue bound; requests above it are shed",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=5.0,
        help="seconds a queued request may wait before a timeout error",
    )
    serve.add_argument(
        "--digest",
        action="store_true",
        help="stream decisions into a SHA-256 (reported via snapshot)",
    )
    serve.add_argument(
        "--telemetry-ingest",
        action="store_true",
        help="build every link's feed as a push-ingestion buffer: "
        "measurements come only from 'telemetry' wire frames "
        "(see `repro telemetry-push`)",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="periodic JSONL metrics snapshots on the server's clock",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="T",
        help="simulated time between --metrics-out snapshots "
        "(default: 10x the tick period)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop after this much wall-clock time (0: serve until ctrl-c)",
    )

    push = sub.add_parser(
        "telemetry-push",
        help="push one cumulative counter sample to a running server",
    )
    push.add_argument("addr", help="server address, HOST:PORT")
    push.add_argument("--link", required=True, help="target link name")
    push.add_argument(
        "--t", type=float, required=True, help="sample measurement time"
    )
    push.add_argument(
        "--bytes", type=int, required=True, dest="nbytes",
        help="cumulative byte counter at time t",
    )
    push.add_argument(
        "--packets", type=int, default=0,
        help="cumulative packet counter at time t",
    )
    push.add_argument(
        "--flow", default=None,
        help="per-flow counter stream (default: the link aggregate)",
    )
    push.add_argument("--timeout", type=float, default=5.0)
    push.add_argument(
        "--retries", type=int, default=3, help="transient-failure retries"
    )
    push.add_argument(
        "--json", action="store_true", help="print the raw ack as JSON"
    )

    client = sub.add_parser(
        "admit-client", help="one request against a running admission server"
    )
    client.add_argument("addr", help="server address, HOST:PORT")
    client.add_argument(
        "action", choices=("ping", "admit", "depart", "snapshot", "health")
    )
    client.add_argument(
        "flow", nargs="?", default=None, help="flow id (admit/depart)"
    )
    client.add_argument(
        "--t", type=float, default=None, help="logical request time"
    )
    client.add_argument("--timeout", type=float, default=5.0)
    client.add_argument(
        "--retries", type=int, default=3, help="transient-failure retries"
    )
    client.add_argument(
        "--json", action="store_true", help="print the raw result as JSON"
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generation against admission servers",
    )
    _add_gateway_args(loadgen)
    loadgen.add_argument(
        "--addr",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="target a running server (repeatable; sharded by flow id)",
    )
    loadgen.add_argument(
        "--self-host",
        action="store_true",
        help="spin up loopback shards from the gateway args instead",
    )
    loadgen.add_argument(
        "--shards", type=int, default=1, help="shards for --self-host"
    )
    loadgen.add_argument(
        "--flows", type=int, default=10_000, help="total flow arrivals"
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrivals per unit simulated time "
        "(default: --arrival-rate or ~1.3x aggregate capacity)",
    )
    loadgen.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="W",
        help="batched mode: one admit_many/depart_many per W-grid instant",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="independent workers (1 keeps the submission order, and "
        "hence the decision digest, deterministic)",
    )
    loadgen.add_argument(
        "--pipeline",
        type=int,
        default=1,
        metavar="N",
        help="requests in flight per worker connection (v2 pipelining; "
        "1 = strict request/response)",
    )
    loadgen.add_argument(
        "--wire-version",
        type=int,
        default=2,
        choices=(1, 2),
        help="highest wire protocol version the clients negotiate "
        "(1 pins legacy JSON framing)",
    )
    loadgen.add_argument(
        "--class-mix",
        metavar="NAME=FRAC[,NAME=FRAC...]",
        default=None,
        help="tag arrivals with flow classes drawn from this mix "
        "(e.g. video=0.25,data=0.35,voice=0.4); fractions must sum "
        "to exactly 1 -- nothing is silently renormalized",
    )
    loadgen.add_argument("--timeout", type=float, default=5.0)
    loadgen.add_argument(
        "--retries",
        type=int,
        default=0,
        help="client retries (default 0 so sheds stay visible)",
    )
    loadgen.add_argument(
        "--check-digest",
        action="store_true",
        help="require each shard's journal to replay to its served "
        "digest on a fresh gateway (--self-host only); with "
        "--concurrency 1 --pipeline 1 additionally rerun the workload "
        "and require identical digests",
    )
    loadgen.add_argument(
        "--min-decisions-per-sec",
        type=float,
        default=0.0,
        metavar="X",
        help="fail unless throughput reaches X decisions/s",
    )
    loadgen.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    cluster = sub.add_parser(
        "serve-cluster",
        help="multi-process replicated cluster under load, with "
        "failover and ring-resize chaos hooks",
    )
    _add_gateway_args(cluster)
    cluster.add_argument(
        "--shards", type=int, default=3, help="leader shard processes"
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=1,
        choices=(0, 1),
        help="journal-shipped standby followers per shard",
    )
    cluster.add_argument(
        "--gateway",
        choices=("rcbr", "trace"),
        default="rcbr",
        help="per-shard gateway recipe ('trace' is the deterministic "
        "test gateway)",
    )
    cluster.add_argument(
        "--flows", type=int, default=2_000, help="total flow arrivals"
    )
    cluster.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrivals per unit simulated time "
        "(default: --arrival-rate or ~1.3x aggregate capacity)",
    )
    cluster.add_argument(
        "--journal-max-entries",
        type=int,
        default=4096,
        help="per-shard journal bound: leaders and followers take a state "
        "checkpoint every this many entries",
    )
    cluster.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="SHARD:T",
        help="SIGKILL SHARD's leader at simulated time T (repeatable)",
    )
    cluster.add_argument(
        "--restart",
        action="append",
        default=[],
        metavar="SHARD:T",
        help="rolling-restart SHARD at simulated time T (repeatable)",
    )
    cluster.add_argument(
        "--add",
        dest="add_shards",
        action="append",
        default=[],
        metavar="NAME:T",
        help="grow the ring with shard NAME at simulated time T",
    )
    cluster.add_argument(
        "--remove",
        dest="remove_shards",
        action="append",
        default=[],
        metavar="NAME:T",
        help="shrink the ring by shard NAME at simulated time T",
    )
    cluster.add_argument("--timeout", type=float, default=10.0)
    cluster.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    soak = sub.add_parser(
        "soak",
        help="day-in-the-life soak: diurnal + flash-crowd + overload load "
        "over a replicated cluster with autoscaling and online p_ce "
        "re-inversion, gated per phase",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--shards", type=int, default=2, help="base leader shard processes"
    )
    soak.add_argument(
        "--replicas",
        type=int,
        default=1,
        choices=(0, 1),
        help="journal-shipped standby followers per shard",
    )
    soak.add_argument(
        "--links", type=int, default=2, help="links per shard gateway"
    )
    soak.add_argument("--capacity", type=float, default=20.0)
    soak.add_argument(
        "--day",
        type=float,
        default=120.0,
        help="simulated length of the compressed day",
    )
    soak.add_argument("--holding-time", type=float, default=12.0)
    soak.add_argument(
        "--low-rate", type=float, default=1.0, help="night arrival rate"
    )
    soak.add_argument(
        "--high-rate", type=float, default=6.0, help="midday arrival rate"
    )
    soak.add_argument(
        "--overload-rate",
        type=float,
        default=18.0,
        help="overload-phase arrival rate (far past cluster capacity)",
    )
    soak.add_argument("--flash-amplitude", type=float, default=20.0)
    soak.add_argument(
        "--overflow-bound",
        type=float,
        default=0.05,
        help="per-link overflow-fraction gate for normal phases",
    )
    soak.add_argument(
        "--overload-overflow-bound",
        type=float,
        default=0.10,
        help="per-link overflow-fraction gate for the overload phase",
    )
    soak.add_argument("--autoscale-high", type=float, default=24.0)
    soak.add_argument("--autoscale-low", type=float, default=8.0)
    soak.add_argument("--max-extra-shards", type=int, default=2)
    soak.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="SHARD:T",
        help="SIGKILL SHARD's leader at simulated time T (repeatable)",
    )
    soak.add_argument("--journal-max-entries", type=int, default=4096)
    soak.add_argument(
        "--check-digest",
        action="store_true",
        help="rerun the identical scenario and require byte-identical "
        "shard digests",
    )
    soak.add_argument(
        "--min-decisions-per-sec",
        type=float,
        default=None,
        help="fail unless throughput stays above this floor",
    )
    soak.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the full phase report as JSON to PATH",
    )
    soak.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    overload = sub.add_parser(
        "overload",
        help="sustained multi-class overload against a classed gateway, "
        "gated on stability and per-class p_f <= p_q conformance",
    )
    overload.add_argument("--capacity", type=float, default=200.0)
    overload.add_argument("--holding-time", type=float, default=40.0)
    overload.add_argument(
        "--overload-factor",
        type=float,
        default=3.0,
        help="offered load as a multiple of the nominal flow population",
    )
    overload.add_argument(
        "--warmup", type=float, default=60.0, help="warmup phase duration"
    )
    overload.add_argument(
        "--overload",
        type=float,
        default=120.0,
        dest="overload",
        help="overload phase duration",
    )
    overload.add_argument(
        "--sustain", type=float, default=60.0, help="sustain phase duration"
    )
    overload.add_argument("--links", type=int, default=1)
    overload.add_argument("--seed", type=int, default=7)
    overload.add_argument(
        "--class-mix",
        metavar="NAME=FRAC[,NAME=FRAC...]",
        default=None,
        help="arrival fractions per class (default: proportional to each "
        "class's share of the nominal population); must sum to exactly 1",
    )
    overload.add_argument(
        "--feed-period",
        type=float,
        default=None,
        help="measurement feed period (default: min_k T_c(k) / 4)",
    )
    overload.add_argument(
        "--max-in-system-factor",
        type=float,
        default=2.0,
        help="stability gate: in-system flows must stay below this "
        "multiple of the nominal population",
    )
    overload.add_argument(
        "--check-digest",
        action="store_true",
        help="rerun the identical scenario and require a byte-identical "
        "decision digest",
    )
    overload.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    return parser


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    """The gateway flags: every command that builds a gateway from
    :func:`_spec_from_args` (serve-replay, chaos-replay, serve, loadgen
    and serve-cluster) takes them."""
    parser.add_argument("--links", type=int, default=4, help="number of links")
    parser.add_argument(
        "--n", type=float, default=100.0, help="per-link system size c/mu"
    )
    parser.add_argument("--holding-time", type=float, default=500.0)
    parser.add_argument("--correlation-time", type=float, default=1.0)
    parser.add_argument("--snr", type=float, default=0.3, help="per-flow sigma/mu")
    parser.add_argument("--p-q", type=float, default=1e-2, help="QoS target")
    parser.add_argument(
        "--memory",
        type=float,
        default=None,
        help="estimator memory T_m (default: the T_h_tilde rule)",
    )
    parser.add_argument(
        "--policy",
        choices=sorted(("least-loaded", "round-robin", "hash")),
        default="least-loaded",
        help="flow placement policy",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="flow arrivals per unit time (default: ~1.3x aggregate capacity)",
    )
    parser.add_argument(
        "--tick-period",
        type=float,
        default=None,
        help="measurement tick period (default: T_m / 4)",
    )
    parser.add_argument(
        "--stale-fraction",
        type=float,
        default=1.0,
        help="degradation horizon as a fraction of T_h_tilde",
    )
    parser.add_argument(
        "--feed",
        choices=("oracle", "counters"),
        default="oracle",
        help="measurement plane: 'oracle' samples the source marginal "
        "directly; 'counters' derives rates from polled cumulative "
        "byte counters (wrap/reset-robust telemetry path)",
    )
    parser.add_argument(
        "--counter-width",
        type=int,
        choices=(32, 64),
        default=64,
        help="counter width in bits for --feed counters / telemetry ingest",
    )
    parser.add_argument("--seed", type=int, default=0)


def _cmd_list() -> int:
    from repro.experiments import list_experiments

    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import render, run_experiment

    result = run_experiment(args.experiment, quality=args.quality, seed=args.seed)
    print(render(result))
    if args.save:
        path = result.save(args.save)
        print(f"\nsaved: {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.runner import SimulationConfig, simulate
    from repro.traffic.rcbr import paper_rcbr_source

    memory = args.memory
    if memory is None:
        memory = critical_time_scale(args.holding_time, args.n)
    source = paper_rcbr_source(
        mean=1.0, cv=args.snr, correlation_time=args.correlation_time
    )
    result = simulate(
        SimulationConfig(
            source=source,
            capacity=args.n * source.mean,
            holding_time=args.holding_time,
            p_ce=args.p_ce,
            memory=memory,
            engine=args.engine,
            max_time=args.max_time,
            seed=args.seed,
        )
    )
    print(f"memory T_m           : {memory:g}")
    print(f"overflow probability : {result.overflow_probability:.4e} "
          f"({result.stop_reason}"
          f"{', gaussian fallback' if result.used_gaussian_fallback else ''})")
    print(f"time-in-overload     : {result.time_fraction:.4e}")
    print(f"mean utilization     : {result.mean_utilization:.2%}")
    print(f"mean flows           : {result.mean_flows:.1f}")
    print(f"samples              : {result.n_samples} "
          f"(CI half-width {result.sampled_ci_halfwidth:.2e})")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.theory.memoryful import (
        ContinuousLoadModel,
        overflow_probability,
        overflow_probability_separation,
    )
    from repro.theory.regimes import classify_regime

    model = ContinuousLoadModel.from_system(
        n=args.n,
        holding_time=args.holding_time,
        correlation_time=args.correlation_time,
        snr=args.snr,
        memory=args.memory,
    )
    print(f"T_h_tilde = {model.holding_time_scaled:g}, gamma = {model.gamma:g}, "
          f"beta = {model.beta:g}, regime = {classify_regime(model).value}")
    print(f"eqn (37) general    : p_f = "
          f"{overflow_probability(model, p_ce=args.p_ce):.4e}")
    print(f"eqn (38) separation : p_f = "
          f"{overflow_probability_separation(model, p_ce=args.p_ce):.4e}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.theory.inversion import adjusted_ce_alpha

    t_h_tilde = critical_time_scale(args.holding_time, args.n)
    memory = args.memory_fraction * t_h_tilde
    alpha_ce = adjusted_ce_alpha(
        args.p_q,
        memory=memory,
        correlation_time=args.correlation_time,
        holding_time_scaled=t_h_tilde,
        snr=args.snr,
        formula="general",
    )
    log10_p_ce = log_q_function(alpha_ce) / math.log(10.0)
    print(f"critical time-scale T_h_tilde : {t_h_tilde:g}")
    print(f"memory window T_m             : {memory:g}")
    print(f"conservative alpha_ce         : {alpha_ce:.4f}")
    if log10_p_ce > -300:
        print(f"conservative p_ce             : {q_function(alpha_ce):.4e}")
    else:
        print(f"conservative p_ce             : 10^{log10_p_ce:.1f}")
    print("configure: CertaintyEquivalentController(capacity, "
          f"alpha={alpha_ce:.4f}) with ExponentialMemoryEstimator({memory:g})")
    return 0


def _parse_outages(specs: list[str]):
    from repro.errors import ParameterError
    from repro.runtime.replay import FeedOutage

    outages = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(
                f"bad --outage {spec!r}; expected LINK:START:DURATION"
            )
        outages.append(
            FeedOutage(link=parts[0], start=float(parts[1]), duration=float(parts[2]))
        )
    return outages


def _spec_from_args(args: argparse.Namespace, *, kind: str = "rcbr"):
    """The :class:`~repro.runtime.spec.GatewaySpec` the gateway flags name.

    ``serve --telemetry-ingest`` selects the ``ingest`` feed.
    """
    from repro.runtime.spec import GatewaySpec

    return GatewaySpec(
        kind=kind,
        links=args.links,
        capacity=args.n,
        placement=args.policy,
        n=args.n,
        holding_time=args.holding_time,
        correlation_time=args.correlation_time,
        snr=args.snr,
        p_q=args.p_q,
        stale_fraction=args.stale_fraction,
        seed=args.seed,
        memory=args.memory,
        tick_period=args.tick_period,
        feed="ingest" if getattr(args, "telemetry_ingest", False) else args.feed,
        counter_width=args.counter_width,
    )


def _arrival_rate(args: argparse.Namespace) -> float:
    """``--arrival-rate``, else ~1.3x what the links can carry, so rejects
    are exercised."""
    if args.arrival_rate is not None:
        return args.arrival_rate
    return 1.3 * args.links * args.n / args.holding_time


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import (
        DecisionTracer,
        FaultPlan,
        MetricsJsonlWriter,
        MetricsRegistry,
        Profiler,
        render_prometheus,
        replay,
    )

    spec = _spec_from_args(args)
    registry = MetricsRegistry()
    tracer = DecisionTracer() if args.trace_out else None
    profiler = Profiler(registry) if args.profile else None
    gateway = spec.build(registry=registry, tracer=tracer, profiler=profiler)
    tick_period = spec.feed_period

    batch_window = args.batch_window
    if batch_window is None and args.batch:
        batch_window = tick_period

    fault_plan = (
        FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    )
    metrics_writer = None
    if args.metrics_out:
        interval = (
            args.metrics_interval
            if args.metrics_interval is not None
            else 10.0 * tick_period
        )
        metrics_writer = MetricsJsonlWriter(
            registry, args.metrics_out, interval=interval
        )
    try:
        report = replay(
            gateway,
            n_events=args.events,
            arrival_rate=_arrival_rate(args),
            holding_time=args.holding_time,
            tick_period=tick_period,
            seed=args.seed,
            outages=_parse_outages(args.outage),
            batch_window=batch_window,
            fault_plan=fault_plan,
            collect_digest=tracer is not None,
            metrics_writer=metrics_writer,
        )
    finally:
        if metrics_writer is not None:
            metrics_writer.close()
    if tracer is not None:
        tracer.to_jsonl(args.trace_out)
    if args.prom_out:
        text = render_prometheus(registry)
        if args.prom_out == "-":
            sys.stdout.write(text)
        else:
            with open(args.prom_out, "w", encoding="utf-8") as fh:
                fh.write(text)

    if args.json:
        payload = {
            "events": report.events,
            "arrivals": report.arrivals,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "departures": report.departures,
            "ticks": report.ticks,
            "simulated_time": report.simulated_time,
            "wall_seconds": report.wall_seconds,
            "decisions_per_sec": report.decisions_per_sec,
            "events_per_sec": report.events_per_sec,
            "final_flows": report.final_flows,
            "batches": report.batches,
            "overflow_fraction": report.overflow_fraction,
            "decision_digest": report.decision_digest,
            "fault_summary": report.fault_summary,
            "metrics": json.loads(registry.to_json()),
            "links": report.metrics["links"],
        }
        if tracer is not None:
            payload["trace"] = {
                "events": tracer.total_events,
                "retained": len(tracer),
                "counts": tracer.counts,
                "decision_digest": tracer.digest(),
            }
        if profiler is not None:
            payload["profile"] = profiler.summary()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    counters = report.metrics["counters"]
    print(f"links                : {args.links} x capacity {args.n:g} "
          f"(policy: {args.policy})")
    t_h_tilde = critical_time_scale(args.holding_time, args.n)
    print(f"memory T_m           : {spec.memory_in_use:g} "
          f"(T_h_tilde {t_h_tilde:g}, tick {tick_period:g})")
    print(f"events replayed      : {report.events} "
          f"({report.arrivals} arrivals, {report.departures} departures, "
          f"{report.ticks} ticks)")
    if batch_window is not None:
        mean_burst = report.arrivals / max(1, report.batches)
        print(f"batched arrivals     : {report.batches} bursts "
              f"(window {batch_window:g}, mean burst {mean_burst:.1f})")
    print(f"decisions            : {report.admitted} admitted, "
          f"{report.rejected} rejected "
          f"({report.admitted / max(1, report.arrivals):.1%} admit rate)")
    print(f"throughput           : {report.decisions_per_sec:,.0f} decisions/s "
          f"({report.events_per_sec:,.0f} events/s, "
          f"wall {report.wall_seconds:.2f}s)")
    print(f"active flows at end  : {report.final_flows}")
    for link in gateway.links:
        name = link.name
        print(f"  {name:<10s} admits {counters[f'link.{name}.admits']:>8.0f}  "
              f"rejects {counters[f'link.{name}.rejects']:>8.0f}  "
              f"util {link.mean_utilization:6.2%}  "
              f"overflow {link.overflow_fraction:.2e}  "
              f"degradations {counters[f'link.{name}.degradations']:.0f}  "
              f"quarantines {counters[f'link.{name}.quarantines']:.0f}  "
              f"health {link.health.value}")
    if report.fault_summary is not None:
        for name, injected in sorted(report.fault_summary.items()):
            busy = {k: v for k, v in injected.items() if v}
            print(f"  faults[{name}]: {busy if busy else 'none triggered'}")
    if tracer is not None:
        busy_counts = {k: v for k, v in tracer.counts.items() if v}
        print(f"trace                : {tracer.total_events} events "
              f"({len(tracer)} retained) -> {args.trace_out}")
        print(f"  event counts       : {busy_counts}")
        print(f"  decision digest    : {tracer.digest()}")
        if report.decision_digest is not None:
            match = tracer.digest() == report.decision_digest
            print(f"  digest vs replay   : "
                  f"{'match' if match else 'MISMATCH'}")
    if metrics_writer is not None:
        print(f"metrics snapshots    : {metrics_writer.snapshots} "
              f"-> {args.metrics_out}")
    if profiler is not None:
        print("profile (ns)         :")
        for site, summary in profiler.summary().items():
            if summary["count"]:
                print(f"  {site:<15s} count {summary['count']:>8d}  "
                      f"mean {summary['mean']:>10.0f}  "
                      f"p50 {summary['p50']:>10.0f}  "
                      f"p99 {summary['p99']:>10.0f}")
    return 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.runtime import FaultPlan, default_chaos_plan, replay

    spec = _spec_from_args(args)
    arrival_rate = _arrival_rate(args)
    tick_period = spec.feed_period

    def run(seed: int, plan, collect_digest: bool = False):
        return replay(
            spec.with_seed(seed).build(),
            n_events=args.events,
            arrival_rate=arrival_rate,
            holding_time=args.holding_time,
            tick_period=tick_period,
            seed=seed,
            fault_plan=plan,
            collect_digest=collect_digest,
        )

    def make_plan(seed: int):
        if args.fault_plan:
            return FaultPlan.from_file(args.fault_plan)
        names = [f"link{i}" for i in range(args.links)]
        return default_chaos_plan(
            names,
            period=tick_period,
            start=4.0 * tick_period,
            seed=seed,
            counters=spec.feed == "counters",
        )

    iterations = []
    failures = []
    started = time.monotonic()
    iteration = 0
    while True:
        seed = args.seed + iteration
        plan = make_plan(seed)

        baseline = run(seed, None)
        faulted = run(seed, plan, collect_digest=True)
        repeated = run(seed, plan, collect_digest=True)

        bound = args.overflow_factor * max(
            baseline.overflow_fraction, args.overflow_floor
        )
        overflow_ok = faulted.overflow_fraction <= bound
        digest_ok = (
            faulted.decision_digest is not None
            and faulted.decision_digest == repeated.decision_digest
        )
        counters = faulted.metrics["counters"]
        quarantines = sum(
            value
            for key, value in counters.items()
            if key.endswith(".quarantines")
        )
        # The built-in plan includes a guaranteed corrupt burst, so a run
        # that never quarantined anything means the fault path is broken.
        quarantine_ok = args.fault_plan is not None or quarantines > 0
        entry = {
            "seed": seed,
            "baseline_overflow": baseline.overflow_fraction,
            "faulted_overflow": faulted.overflow_fraction,
            "overflow_bound": bound,
            "overflow_ok": overflow_ok,
            "digest": faulted.decision_digest,
            "digest_ok": digest_ok,
            "quarantines": quarantines,
            "quarantine_ok": quarantine_ok,
            "failovers": counters.get("gateway.failovers", 0.0),
            "fault_summary": faulted.fault_summary,
        }
        iterations.append(entry)
        if not (overflow_ok and digest_ok and quarantine_ok):
            failures.append(entry)
        iteration += 1
        if time.monotonic() - started >= args.soak_seconds:
            break

    wall = time.monotonic() - started
    if args.json:
        print(json.dumps(
            {
                "iterations": iterations,
                "failures": len(failures),
                "wall_seconds": wall,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for entry in iterations:
            status = "ok" if entry not in failures else "FAIL"
            print(f"seed {entry['seed']:<6d} [{status}] "
                  f"overflow {entry['faulted_overflow']:.3e} "
                  f"(baseline {entry['baseline_overflow']:.3e}, "
                  f"bound {entry['overflow_bound']:.3e})  "
                  f"quarantines {entry['quarantines']:.0f}  "
                  f"failovers {entry['failovers']:.0f}  "
                  f"digest {'stable' if entry['digest_ok'] else 'UNSTABLE'}")
        print(f"chaos soak: {len(iterations)} iteration(s), "
              f"{len(failures)} failure(s), wall {wall:.1f}s")
    if failures:
        for entry in failures:
            if not entry["overflow_ok"]:
                print(f"FAIL seed {entry['seed']}: faulted overflow "
                      f"{entry['faulted_overflow']:.3e} exceeds bound "
                      f"{entry['overflow_bound']:.3e}", file=sys.stderr)
            if not entry["digest_ok"]:
                print(f"FAIL seed {entry['seed']}: decision digest not "
                      f"reproducible under identical seed + plan",
                      file=sys.stderr)
            if not entry["quarantine_ok"]:
                print(f"FAIL seed {entry['seed']}: built-in corrupt burst "
                      f"never quarantined a link", file=sys.stderr)
        return 1
    return 0


def _usage_error(message: str) -> int:
    """Report a usage error the parser could not catch; exit code 2."""
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _server_config_from_args(args: argparse.Namespace):
    from repro.service import ServerConfig

    return ServerConfig(
        max_connections=args.max_connections,
        max_queue_depth=args.max_queue_depth,
        request_timeout=args.request_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.runtime import MetricsJsonlWriter
    from repro.service import AdmissionServer

    spec = _spec_from_args(args)
    gateway = spec.build()
    registry = gateway.registry
    metrics_writer = None
    if args.metrics_out:
        interval = (
            args.metrics_interval
            if args.metrics_interval is not None
            else 10.0 * spec.feed_period
        )
        metrics_writer = MetricsJsonlWriter(
            registry, args.metrics_out, interval=interval
        )
    server = AdmissionServer(
        gateway,
        name=args.name,
        config=_server_config_from_args(args),
        collect_digest=args.digest,
        metrics_writer=metrics_writer,
    )

    async def run() -> None:
        host, port = await server.start(args.host, args.port)
        print(f"server {args.name} listening on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await asyncio.wait_for(
                stop.wait(), args.max_seconds if args.max_seconds > 0 else None
            )
        except asyncio.TimeoutError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    counters = registry.snapshot()["counters"]
    prefix = f"service.{args.name}"
    print(f"requests applied     : {counters.get(f'{prefix}.requests', 0):.0f}")
    print(f"error frames         : {counters.get(f'{prefix}.errors', 0):.0f}")
    print(f"shed                 : {counters.get(f'{prefix}.shed', 0):.0f}")
    if args.digest:
        print(f"decision digest      : {server.digest()}")
    if metrics_writer is not None:
        print(f"metrics snapshots    : {metrics_writer.snapshots} "
              f"-> {args.metrics_out}")
    return 0


def _cmd_telemetry_push(args: argparse.Namespace) -> int:
    import json

    from repro.service import SyncAdmissionClient, parse_address

    host, port = parse_address(args.addr)
    with SyncAdmissionClient(
        host, port, timeout=args.timeout, retries=args.retries
    ) as client:
        result = client.telemetry(
            args.link, args.t, args.nbytes, packets=args.packets,
            flow=args.flow,
        )
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        stream = args.flow if args.flow is not None else "<aggregate>"
        print(f"{args.link}/{stream}: sample at t={result['t']:g} buffered "
              f"({result['buffered']} pending)")
    return 0


def _cmd_admit_client(args: argparse.Namespace) -> int:
    import json

    from repro.service import SyncAdmissionClient, parse_address
    from repro.service.protocol import decision_to_wire

    if args.action in ("admit", "depart") and args.flow is None:
        return _usage_error(f"admit-client {args.action} requires a FLOW id")
    host, port = parse_address(args.addr)
    with SyncAdmissionClient(
        host, port, timeout=args.timeout, retries=args.retries
    ) as client:
        if args.action == "ping":
            result = client.ping()
        elif args.action == "admit":
            decision = client.admit(args.flow, t=args.t)
            # Wire convention: NaN estimate fields serialize as null, so
            # --json output stays strict JSON (asdict would emit bare NaN).
            result = decision_to_wire(decision)
            if not args.json:
                verdict = "admitted" if decision.admitted else "rejected"
                print(f"{args.flow}: {verdict} by {decision.link} "
                      f"({decision.reason}; {decision.n_flows} flows, "
                      f"health {decision.health})")
                return 0 if decision.admitted else 1
        elif args.action == "depart":
            result = {"flow": args.flow, "link": client.depart(args.flow, t=args.t)}
        elif args.action == "snapshot":
            result = client.snapshot()
        else:
            result = client.health()
    print(json.dumps(result, indent=None if args.action == "ping" else 2,
                     sort_keys=True, default=str))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import replay_journal, run_loadgen, self_host_run

    if bool(args.addr) == args.self_host:
        return _usage_error("loadgen needs exactly one of --addr or --self-host")
    if args.check_digest and not args.self_host:
        return _usage_error("--check-digest needs --self-host (it replays "
                            "the servers' journals on fresh gateways)")

    spec = _spec_from_args(args)
    rate = args.rate if args.rate is not None else _arrival_rate(args)
    try:
        class_mix = _parse_class_mix(args.class_mix)
    except ValueError as exc:
        return _usage_error(str(exc))
    workload = dict(
        rate=rate,
        holding_time=args.holding_time,
        n_flows=args.flows,
        batch_window=args.batch_window,
        concurrency=args.concurrency,
        pipeline=args.pipeline,
        wire_version=args.wire_version,
        seed=args.seed,
        timeout=args.timeout,
        retries=args.retries,
        class_mix=class_mix,
    )

    async def one_run():
        if args.self_host:
            return await self_host_run(
                lambda i: spec.with_seed(args.seed + i).build(),
                shards=args.shards,
                collect_digest=True,
                keep_journal=args.check_digest,
                **workload,
            )
        return await run_loadgen(args.addr, **workload), []

    report, servers = asyncio.run(one_run())
    failures: list[str] = []
    digest_replayed = None
    digest_stable = None
    if args.check_digest:
        # The serialized-decisions invariant: whatever order pipelined
        # clients raced their requests in, a sequential replay of each
        # shard's journal on a fresh identical gateway reproduces the
        # served digest byte for byte.
        digest_replayed = True
        for i, server in enumerate(servers):
            fresh = spec.with_seed(args.seed + i).build()
            if replay_journal(fresh, server.journal) != server.digest():
                digest_replayed = False
                failures.append(
                    f"shard{i}: journal replay on a fresh gateway diverged "
                    f"from the served decision digest"
                )
        if args.concurrency == 1 and args.pipeline == 1:
            # Submission order is deterministic, so a rerun must land on
            # the exact same digests too.
            repeat, _repeat_servers = asyncio.run(one_run())
            digest_stable = sorted(report.digests.values()) == sorted(
                repeat.digests.values()
            ) and None not in report.digests.values()
            if not digest_stable:
                failures.append(
                    f"decision digest unstable across identical runs "
                    f"({report.digests} vs {repeat.digests})"
                )
    if report.errors:
        failures.append(f"{report.errors} requests answered with hard errors")
    if (
        args.min_decisions_per_sec > 0.0
        and report.decisions_per_sec < args.min_decisions_per_sec
    ):
        failures.append(
            f"throughput {report.decisions_per_sec:,.0f} decisions/s below "
            f"the {args.min_decisions_per_sec:,.0f} floor"
        )

    if args.json:
        payload = {
            "arrivals": report.arrivals,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "departures": report.departures,
            "shed": report.shed,
            "errors": report.errors,
            "retried": report.retried,
            "requests": report.requests,
            "simulated_time": report.simulated_time,
            "wall_seconds": report.wall_seconds,
            "decisions_per_sec": report.decisions_per_sec,
            "latency": report.latency,
            "digests": report.digests,
            "digest_replayed": digest_replayed,
            "digest_stable": digest_stable,
            "failures": failures,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        admit_rate = report.admitted / max(1, report.arrivals)
        print(f"arrivals             : {report.arrivals} "
              f"({report.admitted} admitted / {report.rejected} rejected, "
              f"{admit_rate:.1%} admit rate)")
        print(f"departures           : {report.departures}")
        print(f"shed / errors        : {report.shed} / {report.errors} "
              f"({report.retried} retried)")
        print(f"throughput           : {report.decisions_per_sec:,.0f} "
              f"decisions/s ({report.requests} requests, "
              f"wall {report.wall_seconds:.2f}s)")
        latency = report.latency

        def _ms(value):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return "n/a"
            return f"{value * 1e3:.2f}ms"

        print(f"latency              : p50 {_ms(latency['p50'])}  "
              f"p90 {_ms(latency['p90'])}  "
              f"p99 {_ms(latency['p99'])}")
        for addr, digest in sorted(report.digests.items()):
            print(f"digest[{addr}]: {digest}")
        if digest_replayed is not None:
            print(f"journal replay       : "
                  f"{'digest reproduced' if digest_replayed else 'DIVERGED'}")
        if digest_stable is not None:
            print(f"digest stability     : "
                  f"{'stable' if digest_stable else 'UNSTABLE'}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _parse_class_mix(spec: str | None) -> dict[str, float] | None:
    """Parse ``NAME=FRAC[,NAME=FRAC...]`` into a class-mix dict.

    Only the *syntax* is checked here (raises :class:`ValueError` for the
    CLI's usage-error path); the weights themselves -- positivity,
    duplicates aside, summing to exactly 1 -- are validated downstream by
    :func:`repro.classes.policy.validate_mix_weights`, which names the
    offending entries.
    """
    if spec is None:
        return None
    mix: dict[str, float] = {}
    for part in spec.split(","):
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad --class-mix entry {part!r}; expected NAME=FRAC "
                "(e.g. video=0.25,data=0.35,voice=0.4)"
            )
        if name in mix:
            raise ValueError(f"--class-mix names {name!r} twice")
        try:
            mix[name] = float(raw)
        except ValueError:
            raise ValueError(
                f"bad --class-mix fraction {raw!r} for class {name!r}"
            ) from None
    return mix


def _parse_shard_times(specs: list[str], flag: str) -> list[tuple[str, float]]:
    """Parse repeated ``NAME:T`` hook specs; raises ParameterError."""
    from repro.errors import ParameterError

    parsed = []
    for spec in specs:
        name, sep, raw = spec.rpartition(":")
        try:
            if not sep or not name:
                raise ValueError
            t = float(raw)
        except ValueError:
            raise ParameterError(
                f"bad {flag} spec {spec!r}; expected NAME:T "
                "(e.g. s0:12.5)"
            ) from None
        if t < 0.0:
            raise ParameterError(f"{flag} time must be >= 0, got {spec!r}")
        parsed.append((name, t))
    return parsed


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses
    import json

    from repro.service import ProcessCluster, run_cluster_loadgen

    kills = _parse_shard_times(args.kill, "--kill")
    restarts = _parse_shard_times(args.restart, "--restart")
    adds = _parse_shard_times(args.add_shards, "--add")
    removes = _parse_shard_times(args.remove_shards, "--remove")
    if kills and not args.replicas:
        return _usage_error("--kill needs --replicas 1 (a killed shard "
                            "without a follower cannot fail over)")

    spec = _spec_from_args(args, kind=args.gateway)
    rate = args.rate if args.rate is not None else _arrival_rate(args)

    async def run():
        async with ProcessCluster(
            spec,
            shards=args.shards,
            replicas=args.replicas,
            journal_max_entries=args.journal_max_entries,
            timeout=args.timeout,
        ) as cluster:
            hooks = []
            for name, t in kills:
                hooks.append((t, lambda name=name: cluster.kill_shard(name)))
            for name, t in restarts:
                hooks.append((t, lambda name=name: cluster.restart_shard(name)))
            for name, t in adds:
                hooks.append((t, lambda name=name: cluster.add_shard(name)))
            for name, t in removes:
                hooks.append((t, lambda name=name: cluster.remove_shard(name)))
            report = await run_cluster_loadgen(
                cluster,
                rate=rate,
                holding_time=args.holding_time,
                n_flows=args.flows,
                seed=args.seed,
                hooks=hooks,
            )
            # A killed shard that took no traffic afterwards may still be
            # unpromoted; reconcile over the full membership needs every
            # shard answering.
            await cluster.heal()
            reconcile = await cluster.reconcile()
            return report, reconcile, list(cluster.events)

    report, reconcile, events = asyncio.run(run())

    failures: list[str] = []
    if not reconcile["ok"]:
        failures.append(
            f"reconciliation failed: {len(reconcile['lost'])} lost, "
            f"{len(reconcile['double_admitted'])} double-admitted, "
            f"{reconcile['shard_flows']} on shards vs "
            f"{reconcile['flows']} tracked"
        )
    promotions = [e for e in events if e.get("event") == "promoted"]
    unverified = [e for e in promotions if not e.get("verified")]
    if len(promotions) < len(kills):
        failures.append(
            f"{len(kills)} shard(s) killed but only {len(promotions)} "
            "follower(s) promoted"
        )
    if unverified:
        failures.append(
            f"{len(unverified)} promotion(s) without a verified "
            "replay digest"
        )
    if report.errors:
        failures.append(f"{report.errors} request(s) failed outright")

    if args.json:
        print(json.dumps({
            "report": dataclasses.asdict(report),
            "reconcile": reconcile,
            "events": events,
            "failures": failures,
        }, indent=2, default=repr))
    else:
        print(f"cluster              : {args.shards} shard(s) x "
              f"{1 + args.replicas} process(es), "
              f"{args.gateway} gateway, {args.links} link(s) each")
        print(f"workload             : {report.arrivals} arrivals -> "
              f"{report.admitted} admitted, {report.rejected} rejected, "
              f"{report.departures} departed "
              f"({report.shed} shed, {report.errors} errors, "
              f"{report.retried} retried)")
        print(f"throughput           : {report.decisions_per_sec:,.0f} "
              f"decisions/s (wall {report.wall_seconds:.2f}s)")
        for event in events:
            print(f"event                : {event}")
        print(f"reconcile            : "
              f"{'OK' if reconcile['ok'] else 'FAILED'} -- "
              f"{reconcile['flows']} tracked, "
              f"{reconcile['shard_flows']} on shards, "
              f"{len(reconcile['lost'])} lost, "
              f"{len(reconcile['double_admitted'])} double-admitted, "
              f"{reconcile['failovers']} failover(s), "
              f"{reconcile['migrated']} migrated")
        for name, shard in sorted(reconcile["shards"].items()):
            print(f"digest[{name}]: {shard['digest']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.scenario import SoakConfig, evaluate_gates, run_soak

    kills = _parse_shard_times(args.kill, "--kill")
    if kills and not args.replicas:
        return _usage_error("--kill needs --replicas 1 (a killed shard "
                            "without a follower cannot fail over)")
    config = SoakConfig(
        seed=args.seed,
        shards=args.shards,
        replicas=args.replicas,
        links=args.links,
        capacity=args.capacity,
        day=args.day,
        holding_time=args.holding_time,
        low_rate=args.low_rate,
        high_rate=args.high_rate,
        overload_rate=args.overload_rate,
        flash_amplitude=args.flash_amplitude,
        overflow_bound=args.overflow_bound,
        overload_overflow_bound=args.overload_overflow_bound,
        autoscale_high=args.autoscale_high,
        autoscale_low=args.autoscale_low,
        max_extra_shards=args.max_extra_shards,
        kills=tuple(kills),
        journal_max_entries=args.journal_max_entries,
    )
    result = asyncio.run(run_soak(config))
    digest_stable = None
    if args.check_digest:
        rerun = asyncio.run(run_soak(config))
        # A killed shard's promoted follower only carries the journal
        # prefix the wall-clock pump shipped before the SIGKILL, so its
        # digest is legitimately timing-dependent; every surviving
        # shard's digest must still reproduce byte for byte.
        killed = {name for name, _t in kills}
        mine = {k: v for k, v in result.digests.items() if k not in killed}
        theirs = {k: v for k, v in rerun.digests.items() if k not in killed}
        digest_stable = mine == theirs

    failures = evaluate_gates(
        phase_reports=result.phase_reports,
        events=result.events,
        reconcile=result.reconcile,
        report=result.report,
        min_decisions_per_sec=args.min_decisions_per_sec,
        digest_stable=digest_stable,
    )
    promotions = [e for e in result.events if e.get("event") == "promoted"]
    if len(promotions) < len(kills):
        failures.append(
            f"{len(kills)} shard(s) killed but only {len(promotions)} "
            "follower(s) promoted"
        )

    payload = result.as_dict()
    payload["digest_stable"] = digest_stable
    payload["failures"] = failures
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=repr))
    else:
        report = result.report
        print(f"scenario             : day {args.day:g}s, "
              f"{args.shards}+{result.scale_ups} shard(s), "
              f"{len(result.phase_reports)} phases")
        print(f"workload             : {report.arrivals} arrivals -> "
              f"{report.admitted} admitted, {report.rejected} rejected, "
              f"{report.departures} departed "
              f"({report.shed} shed, {report.errors} errors)")
        print(f"throughput           : {report.decisions_per_sec:,.0f} "
              f"decisions/s (wall {report.wall_seconds:.2f}s)")
        for phase in result.phase_reports:
            print(f"phase {phase.name:<14s} : overflow "
                  f"{phase.worst_overflow:.4f} <= {phase.bound:.4f} "
                  f"{'ok' if phase.ok else 'FAIL'}")
        print(f"autoscale            : {result.scale_ups} up, "
              f"{result.scale_downs} down")
        print(f"re-inversions        : {result.retargets} "
              f"({[r['alpha'] for r in result.reinversions]})")
        print(f"reconcile            : "
              f"{'OK' if result.reconcile.get('ok') else 'FAILED'} -- "
              f"{result.reconcile.get('flows')} tracked, "
              f"{result.reconcile.get('shard_flows')} on shards")
        for name, digest in sorted(result.digests.items()):
            print(f"digest[{name}]: {digest}")
        if digest_stable is not None:
            print(f"digest rerun         : "
                  f"{'byte-identical' if digest_stable else 'DIVERGED'}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_overload(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import OverloadConfig, run_overload

    try:
        class_mix = _parse_class_mix(args.class_mix)
    except ValueError as exc:
        return _usage_error(str(exc))
    config = OverloadConfig(
        capacity=args.capacity,
        holding_time=args.holding_time,
        overload_factor=args.overload_factor,
        warmup=args.warmup,
        overload=args.overload,
        sustain=args.sustain,
        links=args.links,
        seed=args.seed,
        class_mix=class_mix,
        feed_period=args.feed_period,
        max_in_system_factor=args.max_in_system_factor,
    )
    result = run_overload(config)
    failures = list(result.failures)
    digest_stable = None
    if args.check_digest:
        rerun = run_overload(config)
        digest_stable = result.digest == rerun.digest
        if not digest_stable:
            failures.append(
                f"overload digest unstable across identical runs "
                f"({result.digest} vs {rerun.digest})"
            )

    if args.json:
        payload = result.as_dict()
        payload["digest_stable"] = digest_stable
        payload["failures"] = failures
        payload["ok"] = not failures
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        admit_rate = result.admitted / max(1, result.arrivals)
        print(f"scenario             : {config.horizon:g}s "
              f"(warmup {config.warmup:g} / overload {config.overload:g} / "
              f"sustain {config.sustain:g}), {config.links} link(s) "
              f"x capacity {config.capacity:g}")
        print(f"offered load         : {result.offered_factor:.2f}x the "
              f"nominal {result.nominal_flows:.1f}-flow population")
        print(f"arrivals             : {result.arrivals} "
              f"({result.admitted} admitted / {result.rejected} rejected, "
              f"{admit_rate:.1%} admit rate)")
        for cls in sorted(result.per_class):
            stats = result.per_class[cls]
            print(f"  class {cls:<10s}     : {stats['arrivals']} arrivals, "
                  f"{stats['admitted']} admitted, "
                  f"{stats['rejected']} rejected")
        print(f"stability            : max {result.max_in_system} flows "
              f"in system (bound "
              f"{config.max_in_system_factor * result.nominal_flows:.1f})")
        for report in result.phase_reports:
            print(f"phase {report.name:<16s}: overflow "
                  f"{report.worst_overflow:.4f} <= {report.bound:.4f} "
                  f"{'ok' if report.ok else 'FAIL'}")
        print(f"digest               : {result.digest}")
        if digest_stable is not None:
            print(f"digest rerun         : "
                  f"{'byte-identical' if digest_stable else 'DIVERGED'}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


_COMMANDS = {
    "list": lambda args: _cmd_list(),
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "theory": _cmd_theory,
    "design": _cmd_design,
    "serve-replay": _cmd_serve_replay,
    "chaos-replay": _cmd_chaos_replay,
    "serve": _cmd_serve,
    "telemetry-push": _cmd_telemetry_push,
    "admit-client": _cmd_admit_client,
    "loadgen": _cmd_loadgen,
    "serve-cluster": _cmd_serve_cluster,
    "soak": _cmd_soak,
    "overload": _cmd_overload,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes are normalized: 0 success, 1 runtime failure (any library
    :class:`~repro.errors.ReproError` or OS-level I/O error is printed to
    stderr rather than tracebacked), 2 usage error (argparse's own
    convention, shared by the post-parse checks).
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse rejects unknown commands
        raise AssertionError(f"unhandled command {args.command!r}")
    try:
        return command(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
