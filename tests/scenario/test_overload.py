"""Tests for the sustained multi-class overload scenario.

One default-config run (arrival rate ~3x nominal capacity against a
classed, alpha-adjusted gateway) is shared across the behavioural tests;
it must clear every Leskelä-style stability and per-class conformance
gate, reject heavily, and reproduce its digest byte-for-byte on rerun.
"""

import pytest

from repro.errors import MixWeightError, ParameterError
from repro.scenario.overload import OverloadConfig, run_overload

#: Decision digest of the default run (``repro overload``).  It is the
#: only committed digest of classed single-flow decisions.
GOLDEN_DIGEST = (
    "48f16da6e1e883b78e94e6a155f53b52c6ce1d06aa26d292bc37726a4f32bb94"
)


@pytest.fixture(scope="module")
def default_result():
    return run_overload(OverloadConfig())


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(capacity=0.0),
        dict(holding_time=-1.0),
        dict(overload_factor=0.0),
        dict(warmup=0.0),
        dict(overload=0.0),
        dict(sustain=0.0),
        dict(links=0),
        dict(max_in_system_factor=1.0),
        dict(feed_period=0.0),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            OverloadConfig(**kwargs)

    def test_bad_class_mix_raises_the_typed_weight_error(self):
        with pytest.raises(MixWeightError):
            OverloadConfig(class_mix={"video": 0.5, "data": 0.3})

    def test_unknown_class_mix_names_rejected_at_run(self):
        config = OverloadConfig(
            class_mix={"video": 0.5, "fax": 0.5}, warmup=1.0,
            overload=1.0, sustain=1.0,
        )
        with pytest.raises(ParameterError, match="fax"):
            run_overload(config)

    def test_phase_layout(self):
        config = OverloadConfig(warmup=10.0, overload=20.0, sustain=5.0)
        assert config.horizon == pytest.approx(35.0)
        phases = config.phases()
        assert [p.name for p in phases] == ["warmup", "overload", "sustain"]
        assert phases[1].start == pytest.approx(10.0)
        assert phases[2].end == pytest.approx(config.horizon)


class TestDefaultRun:
    def test_all_stability_and_conformance_gates_pass(self, default_result):
        assert default_result.failures == []
        assert default_result.ok

    def test_offered_load_is_a_genuine_overload(self, default_result):
        assert default_result.offered_factor >= 2.5
        assert default_result.rejected > 0
        assert 0 < default_result.admitted < default_result.arrivals

    def test_in_system_population_stays_bounded(self, default_result):
        config = OverloadConfig()
        bound = config.max_in_system_factor * default_result.nominal_flows
        assert default_result.max_in_system <= bound

    def test_every_phase_and_class_is_reported(self, default_result):
        reports = default_result.phase_reports
        assert len(reports) == 9  # 3 phases x 3 classes
        names = {r.name for r in reports}
        for phase in ("warmup", "overload", "sustain"):
            for cls in ("video", "data", "voice"):
                assert f"{phase}:{cls}" in names
        for report in reports:
            assert report.ok
            assert report.worst_overflow <= report.bound

    def test_per_class_accounting_covers_every_arrival(self, default_result):
        per_class = default_result.per_class
        assert set(per_class) == {"video", "data", "voice"}
        assert sum(
            c["arrivals"] for c in per_class.values()
        ) == default_result.arrivals
        for counts in per_class.values():
            assert counts["arrivals"] == (
                counts["admitted"] + counts["rejected"]
            )

    def test_digest_is_stable_across_identical_runs(self, default_result):
        rerun = run_overload(OverloadConfig())
        assert rerun.digest == default_result.digest
        assert rerun.as_dict() == default_result.as_dict()

    def test_digest_matches_committed_golden(self, default_result):
        assert default_result.digest == GOLDEN_DIGEST

    def test_as_dict_round_trips_the_report(self, default_result):
        out = default_result.as_dict()
        assert out["ok"] is True
        assert out["arrivals"] == default_result.arrivals
        assert len(out["phases"]) == 9
