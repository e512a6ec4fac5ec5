"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data import paper_dataset


@pytest.fixture()
def rat_file():
    from repro.designs.loader import _RTL_ROOT

    return str(_RTL_ROOT / "rat" / "rat_standard.v")


class TestMeasure:
    def test_measure_prints_metrics(self, capsys, rat_file):
        assert main(["measure", rat_file, "--top", "rat_standard"]) == 0
        out = capsys.readouterr().out
        assert "FanInLC" in out
        assert "Stmts" in out

    def test_measure_verbose_lists_specializations(self, capsys, rat_file):
        main(["measure", rat_file, "--top", "rat_standard", "-v"])
        out = capsys.readouterr().out
        assert "rat_freelist" in out

    def test_measure_without_accounting(self, capsys, rat_file):
        main(["measure", rat_file, "--top", "rat_standard", "--no-accounting"])
        assert "Cells" in capsys.readouterr().out

    def test_warm_measure_is_served_from_the_memo(
        self, capsys, tmp_path, rat_file
    ):
        from repro.obs import read_jsonl
        from repro.obs.report import metrics_row

        def run(trace):
            args = ["measure", rat_file, "--top", "rat_standard",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--trace", str(trace)]
            assert main(args) == 0
            return capsys.readouterr().out, metrics_row(read_jsonl(trace))

        cold_out, _ = run(tmp_path / "cold.jsonl")
        warm_out, warm = run(tmp_path / "warm.jsonl")
        assert warm_out == cold_out
        assert warm["counters"]["cache.measure_hits"] == 1
        assert "hdl.files_parsed" not in warm["counters"]


class TestFit:
    def test_fit_default_is_dee1_on_paper_data(self, capsys):
        assert main(["fit"]) == 0
        out = capsys.readouterr().out
        assert "sigma_eps = 0.4" in out
        assert "rho[Leon3]" in out

    def test_fit_without_productivity(self, capsys):
        main(["fit", "--no-productivity", "--metrics", "Stmts"])
        out = capsys.readouterr().out
        assert "sigma_rho" not in out
        assert "sigma_eps = 0.60" in out

    def test_fit_from_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "db.csv"
        paper_dataset().to_csv(csv_path)
        main(["fit", "--dataset", str(csv_path), "--metrics", "LoC"])
        assert "w[LoC]" in capsys.readouterr().out


class TestEstimate:
    def test_estimate_with_team(self, capsys):
        main([
            "estimate", "--metric", "Stmts=950", "--metric", "FanInLC=6100",
            "--team", "IVM",
        ])
        out = capsys.readouterr().out
        assert "person-months" in out
        assert "confidence interval" in out

    def test_estimate_bad_metric_syntax(self, capsys):
        assert main(["estimate", "--metric", "Stmts"]) == 2


class TestEvaluate:
    def test_evaluate_prints_table4(self, capsys):
        assert main(["evaluate"]) == 0
        out = capsys.readouterr().out
        assert "DEE1" in out
        assert "sigma_eps (rho=1)" in out


class TestExitCodes:
    """The 0/1/2 exit-code contract and --strict / --keep-going."""

    @pytest.fixture()
    def good_file(self, tmp_path):
        path = tmp_path / "good.v"
        path.write_text(
            "module good(input clk, input d, output reg q);\n"
            "  always @(posedge clk) q <= d;\n"
            "endmodule\n"
        )
        return str(path)

    @pytest.fixture()
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.v"
        path.write_text("module broken(input x; garbage !!\n")
        return str(path)

    @pytest.fixture()
    def bad_csv(self, tmp_path):
        lines = paper_dataset().to_csv().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_measure_quarantines_broken_file(
        self, capsys, good_file, broken_file
    ):
        code = main(["measure", good_file, broken_file, "--top", "good"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FFs" in captured.out  # the good file still measured
        assert "error[parse]" in captured.err
        assert "hint:" in captured.err

    def test_measure_strict_turns_degradation_fatal(
        self, capsys, good_file, broken_file
    ):
        code = main(
            ["measure", good_file, broken_file, "--top", "good", "--strict"]
        )
        assert code == 2

    def test_measure_unreadable_only_input_is_fatal(self, capsys, tmp_path):
        code = main(["measure", str(tmp_path / "nope.v"), "--top", "x"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err

    def test_fit_bad_row_without_keep_going_is_fatal(self, capsys, bad_csv):
        code = main(["fit", "--dataset", bad_csv])
        captured = capsys.readouterr()
        assert code == 2
        assert "fatal[dataset]" in captured.err
        assert ":2:" in captured.err  # the CSV line is named

    def test_fit_keep_going_quarantines_row(self, capsys, bad_csv):
        code = main(["fit", "--dataset", bad_csv, "--keep-going"])
        captured = capsys.readouterr()
        assert code == 1
        assert "sigma_eps" in captured.out
        assert "error[dataset]" in captured.err

    def test_fit_keep_going_strict_is_fatal(self, capsys, bad_csv):
        code = main(["fit", "--dataset", bad_csv, "--keep-going", "--strict"])
        assert code == 2

    def test_clean_fit_exits_zero(self, capsys):
        assert main(["fit", "--metrics", "Stmts"]) == 0
        assert capsys.readouterr().err == ""

    def test_removed_journal_option_exits_2_naming_the_cache(
        self, capsys, good_file, tmp_path
    ):
        code = main(["measure", good_file, "--top", "good",
                     "--journal", str(tmp_path / "run.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--cache-dir" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "run.jsonl").exists()

    def test_journal_option_is_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["measure", "--help"])
        assert "--journal" not in capsys.readouterr().out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Figure 4" in out
        assert "Figure 5" in out
        assert "combination sweep" in out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        assert main(["report", "-o", str(path)]) == 0
        text = path.read_text()
        assert "uComplexity reproduction report" in text
        assert "paper" in text  # paper-vs-ours columns on the default data

    def test_report_on_custom_csv_has_no_paper_columns(self, capsys, tmp_path):
        csv_path = tmp_path / "db.csv"
        paper_dataset().to_csv(csv_path)
        assert main(["report", "--dataset", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "paper rho=1" not in out


class TestProfile:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        """A synthetic supervised-run trace written to JSONL."""
        from repro.obs.trace import Span, Tracer

        t = Tracer()
        t.record_span("exec.supervised", 0.0, 10.0, parent_id=None,
                      tasks=2, jobs=2)
        t.record_span("exec.spawn", 0.0, 0.5, parent_id=1, wid="w0")
        t.record_span("exec.task", 1.0, 4.0, parent_id=1, task="alpha",
                      index=0, wid="w0", ns="b0.t0", outcome="ok")
        t.record_span("exec.task", 1.0, 7.0, parent_id=1, task="beta",
                      index=1, wid="w1", ns="b0.t1", outcome="ok")
        t.graft([Span(name="wstage", span_id=1, parent_id=None,
                      start=0.2, wall_s=3.0)], "b0.t0", parent_id=3)
        path = tmp_path / "trace.jsonl"
        t.write_jsonl(path, {"counters": {}, "gauges": {}, "histograms": {
            "exec.worker_compute_s": {"count": 2, "sum": 8.0}}})
        return path

    def test_profile_reports_rollups_and_pool(self, capsys, trace_file):
        assert main(["profile", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "self time by span name" in out
        assert "critical path" in out
        assert "utilization" in out
        assert "serialization share" in out
        assert "w0" in out and "w1" in out

    def test_profile_exports_flame_and_chrome(self, capsys, tmp_path,
                                              trace_file):
        import json

        flame = tmp_path / "flame.txt"
        chrome = tmp_path / "chrome.json"
        assert main(["profile", str(trace_file), "--flame", str(flame),
                     "--chrome-trace", str(chrome)]) == 0
        assert flame.read_text().strip()
        data = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in data["traceEvents"])

    def test_profile_missing_file_is_fatal(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "absent.jsonl")]) == 2

    def test_profile_sequential_trace_has_no_pool_section(self, capsys,
                                                          tmp_path):
        from repro.obs.trace import Tracer

        t = Tracer()
        t.record_span("cli.fit", 0.0, 1.0, parent_id=None)
        path = tmp_path / "seq.jsonl"
        t.write_jsonl(path)
        assert main(["profile", str(path)]) == 0
        assert "sequential run" in capsys.readouterr().out


class TestBenchDiff:
    @staticmethod
    def _write(tmp_path, *entries):
        import json

        path = tmp_path / "BENCH_obs.json"
        path.write_text(json.dumps({"benchmarks": {}, "series": {},
                                    "history": list(entries)}))
        return path

    def test_clean_history_exits_zero(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {"timestamp": "t0", "benchmarks": {"b": 1.0}},
            {"timestamp": "t1", "benchmarks": {"b": 1.0}},
            {"timestamp": "t2", "benchmarks": {"b": 1.05}},
        )
        assert main(["bench-diff", str(path)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {"timestamp": "t0", "benchmarks": {"b": 1.0}},
            {"timestamp": "t1", "benchmarks": {"b": 1.0}},
            {"timestamp": "t2", "benchmarks": {"b": 5.0}},
        )
        assert main(["bench-diff", str(path)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_tolerance_config_is_honored(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {"timestamp": "t0", "benchmarks": {"b": 1.0}},
            {"timestamp": "t1", "benchmarks": {"b": 1.0}},
            {"timestamp": "t2", "benchmarks": {"b": 5.0}},
        )
        cfg = tmp_path / "tol.toml"
        cfg.write_text('[benchdiff]\ndefault_rel_tol = 10.0\n')
        assert main(["bench-diff", str(path), "--config", str(cfg)]) == 0

    def test_missing_file_is_fatal(self, capsys, tmp_path):
        assert main(["bench-diff", str(tmp_path / "absent.json")]) == 2

    def test_record_keeps_one_baseline_entry_per_change(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.cli import BENCH_BASELINE

        monkeypatch.chdir(tmp_path)
        obs = self._write(
            tmp_path,
            {"timestamp": "t0", "series": {"s.rate": 1.0}},
            {"timestamp": "t1", "benchmarks": {"b": 2.0},
             "series": {"s.rate": 2.0, "s.ms": 3.0}},
        )
        assert main(["bench-diff", str(obs), "--record", "13"]) == 0
        assert main(["bench-diff", str(obs), "--record", "14"]) == 0
        assert main(["bench-diff", str(obs), "--record", "13"]) == 0
        history = json.loads((tmp_path / BENCH_BASELINE).read_text())[
            "history"
        ]
        assert [e["pr"] for e in history] == [14, 13]
        for entry in history:
            assert entry["series"] == {"s.ms": 3.0, "s.rate": 2.0}
            assert entry["nproc"] >= 1 and entry["machine"]
        # With no file argument the gate reads the tracked baseline.
        assert main(["bench-diff"]) == 0

    def test_record_without_file_reads_the_session_history(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.cli import BENCH_BASELINE

        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, {"timestamp": "t0", "series": {"s.ms": 4.0}})
        assert main(["bench-diff", "--record", "13"]) == 0
        history = json.loads((tmp_path / BENCH_BASELINE).read_text())[
            "history"
        ]
        assert [(e["pr"], e["series"]) for e in history] == [
            (13, {"s.ms": 4.0})
        ]

    def test_record_refuses_the_baseline_as_its_own_source(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.cli import BENCH_BASELINE

        monkeypatch.chdir(tmp_path)
        obs = self._write(tmp_path, {"timestamp": "t0",
                                     "series": {"s.ms": 4.0}})
        assert main(["bench-diff", str(obs), "--record", "13"]) == 0
        baseline = tmp_path / BENCH_BASELINE
        before = baseline.read_text()
        for spelling in (BENCH_BASELINE, str(baseline)):
            assert main(["bench-diff", spelling, "--record", "14"]) == 2
            assert "baseline itself" in capsys.readouterr().err
        assert baseline.read_text() == before

    def test_record_without_series_is_fatal(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        obs = self._write(tmp_path, {"timestamp": "t0",
                                     "benchmarks": {"b": 1.0}})
        assert main(["bench-diff", str(obs), "--record", "13"]) == 2
        assert "no series" in capsys.readouterr().err

    def test_repo_gate_runs_on_checked_in_history(self, capsys):
        from pathlib import Path

        from repro.cli import BENCH_BASELINE

        root = Path(__file__).resolve().parents[1]
        code = main(["bench-diff", str(root / BENCH_BASELINE),
                     "--config", str(root / "benchdiff.toml")])
        assert code in (0, 1)  # gate must run; verdict tracks history


class TestMeasureCatalogArgs:
    def test_catalog_and_files_are_mutually_exclusive(self, capsys,
                                                      rat_file):
        assert main(["measure", rat_file, "--catalog", "x",
                     "--top", "t"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_files_require_top(self, capsys, rat_file):
        assert main(["measure", rat_file]) == 2
        assert "--top" in capsys.readouterr().err

    def test_no_inputs_is_fatal(self, capsys):
        assert main(["measure"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_catalog_dir_is_fatal(self, capsys, tmp_path):
        assert main(["measure", "--catalog", str(tmp_path / "nope")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_strict_catalog_measures_the_rest_and_exits_2(
        self, capsys, tmp_path
    ):
        # --strict acts on the exit code alone, as for FILES: a module
        # that fails to parse is reported, the others still measure.
        import json

        catalog = tmp_path / "catalog"
        assert main(["gen", "--out", str(catalog), "--count", "3",
                     "--language", "verilog"]) == 0
        manifest = json.loads((catalog / "manifest.json").read_text())
        broken, entry = next(iter(manifest["modules"].items()))
        (catalog / entry["files"][0]).write_text("module broken(input x; !!\n")
        capsys.readouterr()
        code = main(["measure", "--catalog", str(catalog), "--strict"])
        captured = capsys.readouterr()
        assert code == 2
        assert "2/3 components measured" in captured.out
        assert f"{broken}" in captured.out
        assert "error[parse]" in captured.err
        assert "fatal[measure]" not in captured.err
