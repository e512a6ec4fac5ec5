"""CLI coverage for ``repro gen`` and ``repro selftest``."""

import json

from repro.cli import EXIT_OK, main
from repro.core.engine import Engine
from repro.core.accounting import AccountingPolicy
from repro.hdl.source import SourceFile
from tests._measure import measure_strict


def test_gen_writes_corpus_and_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    code = main(["gen", "--out", str(out), "--count", "3",
                 "--language", "both", "--seed", "9"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert len(manifest["modules"]) == 6  # 3 per language
    languages = {m["language"] for m in manifest["modules"].values()}
    assert languages == {"verilog", "vhdl"}
    for name, entry in manifest["modules"].items():
        for filename in entry["files"]:
            assert (out / filename).is_file()
    assert "wrote 6 modules" in capsys.readouterr().out


def test_gen_manifest_truth_is_measurable(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen", "--out", str(out), "--count", "2",
                 "--language", "verilog", "--seed", "4"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    name, entry = next(iter(manifest["modules"].items()))
    sources = tuple(
        SourceFile(f, (out / f).read_text()) for f in entry["files"])
    m = measure_strict(Engine(), sources, entry["top"], name=name,
                       policy=AccountingPolicy.disabled())
    for key, expected in entry["truth"].items():
        assert m.metrics[key] == expected


def test_gen_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["gen", "--out", str(out), "--count", "2",
                     "--language", "vhdl", "--seed", "1"]) == EXIT_OK
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_text() == (out_b / name).read_text()


def test_selftest_fast_path_exits_zero(capsys):
    code = main(["selftest", "--modules", "4", "--skip-recovery",
                 "--quiet"])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "SELF-TEST PASSED" in out
    for check in ("oracle.verilog", "oracle.vhdl", "roundtrip",
                  "parallel", "cache"):
        assert f"[PASS] {check}" in out
    # Recovery was skipped, so no recovery checks should appear.
    assert "recovery" not in out
