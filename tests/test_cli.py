"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.experiment == "fig6"
        assert args.quality == "standard"
        assert args.seed == 0

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 100.0
        assert args.memory is None  # the rule is applied downstream

    def test_design_requires_core_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design"])

    def test_serve_replay_defaults(self):
        args = build_parser().parse_args(["serve-replay"])
        assert args.links == 4
        assert args.events == 100_000
        assert args.policy == "least-loaded"
        assert args.memory is None  # the rule is applied downstream
        assert args.outage == []

    def test_verbose_is_global_and_repeatable(self):
        args = build_parser().parse_args(["-vv", "serve-replay"])
        assert args.verbose == 2
        args = build_parser().parse_args(["list"])
        assert args.verbose == 0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.max_queue_depth == 1024
        assert not args.digest

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen", "--self-host"])
        assert args.addr == [] and args.self_host
        assert args.concurrency == 1 and args.retries == 0


class TestExitCodes:
    """The CLI contract: 0 success, 1 runtime failure, 2 usage error."""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["design"])  # --n/--holding-time/--p-q are required
        assert exc.value.code == 2

    def test_post_parse_usage_error_exits_2(self, capsys):
        # loadgen needs exactly one of --addr / --self-host.
        assert main(["loadgen"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_check_digest_needs_self_host(self, capsys):
        code = main(["loadgen", "--addr", "127.0.0.1:1", "--check-digest"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_admit_without_flow_exits_2(self, capsys):
        assert main(["admit-client", "127.0.0.1:1", "admit"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, capsys):
        # Nothing listens on this address: connection failure -> 1.
        code = main(
            ["admit-client", "127.0.0.1:9", "ping",
             "--retries", "0", "--timeout", "0.2"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_library_error_exits_1(self, capsys):
        assert main(["admit-client", "not-an-address", "ping"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_success_exits_0(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().err == ""


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig5" in out and "prop33" in out

    def test_run_smoke(self, capsys, tmp_path):
        code = main(
            ["run", "fig6", "--quality", "smoke", "--save", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert (tmp_path / "fig6.json").exists()

    def test_theory(self, capsys):
        assert main(["theory", "--memory", "100"]) == 0
        out = capsys.readouterr().out
        assert "eqn (37)" in out and "regime = masking" in out

    def test_design(self, capsys):
        assert (
            main(["design", "--n", "100", "--holding-time", "1000", "--p-q", "1e-3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "alpha_ce" in out
        assert "T_h_tilde : 100" in out

    def test_design_extreme_target_prints_log_form(self, capsys):
        code = main(
            [
                "design",
                "--n", "1000",
                "--holding-time", "10000",
                "--p-q", "1e-3",
                "--memory-fraction", "0.0001",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p_ce" in out

    def test_serve_replay_smoke(self, capsys):
        code = main(
            [
                "serve-replay",
                "--links", "2",
                "--n", "30",
                "--holding-time", "100",
                "--events", "4000",
                "--seed", "1",
                "--outage", "link0:50:200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decisions/s" in out
        assert "link0" in out and "link1" in out
        assert "admits" in out and "rejects" in out and "util" in out
        assert "degradations 1" in out  # the outage must have fired

    def test_serve_replay_json(self, capsys):
        import json

        code = main(
            [
                "serve-replay",
                "--links", "2",
                "--n", "20",
                "--holding-time", "50",
                "--events", "1000",
                "--policy", "hash",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 1000
        assert payload["admitted"] + payload["rejected"] == payload["arrivals"]
        assert set(payload["links"]) == {"link0", "link1"}
        assert "gateway.admits" in payload["metrics"]["counters"]

    def test_serve_replay_bad_outage_exits_1(self, capsys):
        # Runtime failures print to stderr and exit 1, never traceback.
        assert main(["serve-replay", "--events", "10", "--outage", "nope"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nope" in err

    @pytest.mark.slow
    def test_simulate_smoke(self, capsys):
        code = main(
            [
                "simulate",
                "--n", "50",
                "--holding-time", "200",
                "--p-ce", "1e-2",
                "--max-time", "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overflow probability" in out
        assert "utilization" in out


class _ClusterStarted(Exception):
    """Raised by the stand-in cluster so no shard process starts."""


CLUSTER_RUN = [
    "serve-cluster", "--shards", "1", "--replicas", "0", "--links", "2",
    "--n", "20", "--holding-time", "50", "--flows", "800", "--rate", "20",
    "--seed", "0",
]


def cluster_spec(monkeypatch, *flags):
    """The gateway spec ``serve-cluster`` hands to ``ProcessCluster``."""
    import repro.service

    captured = []

    def stand_in(spec, **_kwargs):
        captured.append(spec)
        raise _ClusterStarted

    monkeypatch.setattr(repro.service, "ProcessCluster", stand_in)
    with pytest.raises(_ClusterStarted):
        main([*CLUSTER_RUN, *flags])
    return captured[0]


class TestServeClusterGatewayFlags:
    def test_defaults_are_the_oracle_rule(self, monkeypatch):
        spec = cluster_spec(monkeypatch, "--gateway", "rcbr")
        assert (spec.kind, spec.links, spec.n, spec.holding_time) == (
            "rcbr", 2, 20.0, 50.0
        )
        assert (spec.memory, spec.tick_period, spec.feed) == (
            None, None, "oracle"
        )

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--feed", "counters", "--counter-width", "32"],
             {"feed": "counters", "counter_width": 32}),
            (["--memory", "0", "--tick-period", "1"],
             {"memory": 0.0, "tick_period": 1.0}),
            (["--tick-period", "0.5"], {"tick_period": 0.5}),
        ],
    )
    def test_every_gateway_flag_reaches_the_shards(
        self, monkeypatch, flags, expected
    ):
        spec = cluster_spec(monkeypatch, "--gateway", "rcbr", *flags)
        assert {field: getattr(spec, field) for field in expected} == expected

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--memory", "0"], "memory"),
            (["--tick-period", "1"], "tick_period"),
            (["--feed", "counters"], "feed"),
        ],
    )
    def test_trace_gateway_rejects_what_it_fixes(
        self, monkeypatch, capsys, flags, field
    ):
        import repro.service

        def stand_in(*_args, **_kwargs):
            raise AssertionError("a rejected spec reached the cluster")

        monkeypatch.setattr(repro.service, "ProcessCluster", stand_in)
        assert main([*CLUSTER_RUN, "--gateway", "trace", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the trace gateway") and field in err

    def test_trace_gateway_takes_a_counter_width(self, monkeypatch):
        spec = cluster_spec(
            monkeypatch, "--gateway", "trace", "--counter-width", "32"
        )
        assert (spec.kind, spec.feed) == ("trace", "oracle")
