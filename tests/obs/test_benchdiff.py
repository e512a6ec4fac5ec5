"""Tests for the benchmark regression gate (repro.obs.benchdiff)."""

import pytest

from repro.obs import benchdiff
from repro.obs.benchdiff import DiffConfig, KeyRule, diff_history


def _history(*entries):
    return {"benchmarks": {}, "series": {}, "history": [
        {"timestamp": f"t{i}", **entry} for i, entry in enumerate(entries)
    ]}


class TestConfig:
    def test_defaults_without_file(self):
        cfg = benchdiff.load_config(None)
        assert cfg.default_rel_tol == DiffConfig.default_rel_tol
        assert cfg.min_history >= 1

    def test_toml_overrides(self, tmp_path):
        path = tmp_path / "benchdiff.toml"
        path.write_text(
            '[benchdiff]\n'
            'default_rel_tol = 0.2\n'
            'min_abs = 0.01\n'
            'min_history = 3\n'
            '[benchdiff.keys."exec.supervision_wall_ratio"]\n'
            'rel_tol = 0.1\n'
            'direction = "lower"\n',
            encoding="utf-8",
        )
        cfg = benchdiff.load_config(path)
        assert cfg.default_rel_tol == 0.2
        assert cfg.min_history == 3
        assert cfg.rel_tol("exec.supervision_wall_ratio") == 0.1
        assert cfg.rel_tol("anything.else") == 0.2
        assert cfg.direction("exec.supervision_wall_ratio") == "lower"

    def test_repo_config_parses(self):
        from pathlib import Path

        cfg = benchdiff.load_config(
            Path(__file__).resolve().parents[2] / "benchdiff.toml"
        )
        assert cfg.direction("flow.spectral_ms") == "lower"
        assert cfg.rel_tol("flow.spectral_ms") == 1.0
        assert cfg.direction("exec.chaos_completion_rate") == "higher"

    def test_bad_toml_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[benchdiff\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid"):
            benchdiff.load_config(path)
        with pytest.raises(ValueError, match="cannot read"):
            benchdiff.load_config(tmp_path / "absent.toml")

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[benchdiff.keys.x]\ndirection = "up"\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="direction"):
            benchdiff.load_config(path)


class TestDirectionHeuristic:
    def test_rate_like_keys_are_higher_better(self):
        cfg = DiffConfig()
        for key in ("parallel.speedup_jobs4", "cache.hit_rate",
                    "exec.chaos_completion_rate", "span.coverage_fraction"):
            assert cfg.direction(key) == "higher", key

    def test_time_like_keys_are_lower_better(self):
        cfg = DiffConfig()
        for key in ("bench.test_fit", "exec.supervision_wall_ratio",
                    "journal.bytes"):
            assert cfg.direction(key) == "lower", key

    def test_explicit_rule_beats_heuristic(self):
        cfg = DiffConfig(keys={"weird.rate": KeyRule(direction="lower")})
        assert cfg.direction("weird.rate") == "lower"


class TestDiff:
    CFG = DiffConfig(default_rel_tol=0.5, min_abs=0.05, min_history=2)

    def test_young_keys_are_skipped_with_reason_and_pass(self):
        report = diff_history(
            _history({"benchmarks": {"b": 1.0}},
                     {"benchmarks": {"b": 1.1}}),
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.status == "skipped" and report.ok
        assert "1 prior sample" in v.reason and "need 2" in v.reason
        # The thin history is visible even in the non-verbose report.
        text = benchdiff.render_report(report)
        assert "skipped" in text and "need 2" in text

    def test_median_baseline_absorbs_one_outlier(self):
        # Median of (1.0, 1.0, 30.0) is 1.0: one historically bad session
        # must not raise the bar.
        report = diff_history(
            _history({"benchmarks": {"b": 1.0}},
                     {"benchmarks": {"b": 30.0}},
                     {"benchmarks": {"b": 1.0}},
                     {"benchmarks": {"b": 1.2}}),
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.baseline == pytest.approx(1.0)
        assert v.status == "ok"

    def test_lower_better_regression_exits_dirty(self):
        report = diff_history(
            _history({"benchmarks": {"b": 1.0}},
                     {"benchmarks": {"b": 1.0}},
                     {"benchmarks": {"b": 1.6}}),
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.status == "regression"
        assert not report.ok

    def test_higher_better_drop_is_a_regression(self):
        report = diff_history(
            _history({"series": {"x.speedup": 2.0}},
                     {"series": {"x.speedup": 2.0}},
                     {"series": {"x.speedup": 0.9}}),
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.status == "regression" and v.direction == "higher"

    def test_improvement_is_not_a_regression(self):
        report = diff_history(
            _history({"benchmarks": {"b": 2.0}},
                     {"benchmarks": {"b": 2.0}},
                     {"benchmarks": {"b": 0.5}}),
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.status == "improved" and report.ok

    def test_noise_floor_skips_tiny_values(self):
        report = diff_history(
            _history({"benchmarks": {"b": 0.001}},
                     {"benchmarks": {"b": 0.001}},
                     {"benchmarks": {"b": 0.04}}),   # 40x, but < min_abs
            self.CFG,
        )
        (v,) = report.verdicts
        assert v.status == "skipped" and report.ok
        assert "noise floor" in v.reason

    def test_min_value_floor_gates_without_history(self):
        # One lone entry: far too young for the relative tolerance, but
        # the hard floor does not care about history depth.
        cfg = DiffConfig(
            default_rel_tol=0.5, min_abs=0.05, min_history=2,
            keys={"x.speedup": KeyRule(min_value=1.0)},
        )
        report = diff_history(_history({"series": {"x.speedup": 0.8}}), cfg)
        (v,) = report.verdicts
        assert v.status == "regression" and not report.ok
        assert "floor 1" in v.reason

    def test_min_value_floor_passes_at_or_above(self):
        cfg = DiffConfig(
            default_rel_tol=0.5, min_abs=0.05, min_history=2,
            keys={"x.speedup": KeyRule(min_value=1.0)},
        )
        report = diff_history(_history({"series": {"x.speedup": 1.0}}), cfg)
        (v,) = report.verdicts
        assert v.status == "skipped" and report.ok  # thin history, no breach

    def test_repo_floor_on_speedup_series(self):
        from pathlib import Path

        cfg = benchdiff.load_config(
            Path(__file__).resolve().parents[2] / "benchdiff.toml"
        )
        assert cfg.min_value("parallel.speedup_jobs4") == 1.0
        assert cfg.min_value("exec.chaos_completion_rate") is None

    def test_candidate_only_answers_for_what_it_measured(self):
        report = diff_history(
            _history({"benchmarks": {"a": 1.0, "b": 1.0}},
                     {"benchmarks": {"a": 1.0, "b": 1.0}},
                     {"benchmarks": {"a": 1.0}}),    # subset run: no "b"
            self.CFG,
        )
        assert [v.key for v in report.verdicts] == ["a"]

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="empty"):
            diff_history({"history": []}, self.CFG)

    def test_render_lists_regressions_first(self):
        report = diff_history(
            _history({"benchmarks": {"bad": 1.0, "fine": 1.0}},
                     {"benchmarks": {"bad": 1.0, "fine": 1.0}},
                     {"benchmarks": {"bad": 9.0, "fine": 1.0}}),
            self.CFG,
        )
        text = benchdiff.render_report(report, verbose=True)
        lines = text.splitlines()
        assert "1 regression(s)" in lines[0]
        assert lines[1].lstrip().startswith("regression")
        assert "bad" in lines[1]


class TestLoadBenchObs:
    def test_missing_or_invalid_files_raise(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            benchdiff.load_bench_obs(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid"):
            benchdiff.load_bench_obs(bad)
        flat = tmp_path / "flat.json"
        flat.write_text('{"bench": 1.0}', encoding="utf-8")
        with pytest.raises(ValueError, match="history"):
            benchdiff.load_bench_obs(flat)
