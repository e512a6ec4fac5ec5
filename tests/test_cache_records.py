"""Compact cache records: a memo hit decodes from one flat record.

The synthesis namespace and the measurement memo store a report or a
pristine measurement as one rebuild function applied to plain fields
(``repro.synth.report.report_fields``, ``repro.core.workflow.
measurement_fields``).  What comes back must pickle as the fresh value
did, an entry in the former full-pickle form must still be a hit, and
everything else (lint runs, other values) is stored as it always was.
"""

from __future__ import annotations

import pickle
import pickletools
from dataclasses import replace

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import (
    ComponentSpec,
    measurement_fields,
    rebuild_measurement,
)
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Result
from repro.synth.report import rebuild_report, report_fields
from tests.core.test_golden_measure import INLINE, digest
from tests._measure import measure_one, measure_strict

_SRC = SourceFile(
    "alu.v",
    """
    module alu #(parameter W = 8)(input [W-1:0] a, b, input op,
                                  output [W-1:0] y);
      assign y = op ? a - b : a + b;
    endmodule

    module top_alu(input [7:0] a, b, input op, output [7:0] y0, y1);
      alu #(.W(8)) u0 (.a(a), .b(b), .op(op), .y(y0));
      alu #(.W(8)) u1 (.a(b), .b(a), .op(op), .y(y1));
    endmodule
    """,
)
_SPEC = ComponentSpec("alu", (_SRC,), "top_alu")


def _counters(run):
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        value = run()
        return value, obs_metrics.snapshot()["counters"]


def _globals(blob: bytes) -> int:
    return sum(
        op.name in ("GLOBAL", "STACK_GLOBAL")
        for op, _, _ in pickletools.genops(blob)
    )


def test_warm_memo_gives_the_golden_bytes(tmp_path):
    # Every bundled component, strict, served from the memo on the second
    # pass: the very bytes test_golden_measure pins for a fresh measure.
    engine = Engine(cache=SynthesisCache(tmp_path / "cache"))
    engine.measure_catalog()
    warm, counters = _counters(engine.measure_catalog)
    assert counters["cache.measure_hits"] == len(INLINE)
    assert {label: digest(m) for label, m in warm.items()} == INLINE

    # The form of `measure FILES --top T`: one spec per batch, not strict,
    # named by its top (the one field that differs from the pin).  Warm,
    # it parses nothing and gives the cold run's bytes.
    engine = Engine(cache=SynthesisCache(tmp_path / "cli-cache"))
    for spec in component_specs():
        sources = load_sources(spec)
        measure_one(engine, sources, spec.top)
        served, counters = _counters(
            lambda: measure_one(engine, sources, spec.top)
        )
        assert counters["cache.measure_hits"] == 1
        assert counters.get("hdl.files_parsed", 0) == 0
        renamed = replace(served.value, name=spec.label)
        assert digest(renamed) == INLINE[spec.label], spec.label


@pytest.mark.parametrize("spec", component_specs(), ids=lambda s: s.label)
def test_stored_reports_load_back_byte_identical(tmp_path, spec):
    # A warm strict measure served from synthesis entries gets each report
    # as its own object, so strings shared across the report boundary
    # pickle differently from the cold measurement (not the pins); each
    # report on its own must still round-trip to its fresh bytes.
    cache = SynthesisCache(tmp_path / "cache")
    sources = load_sources(spec)
    cold = measure_strict(Engine(cache=cache), sources, spec.top)
    stored = sorted(
        pickle.dumps(cache.load(path.stem).value) for path in cache.entries()
    )
    assert stored == sorted(pickle.dumps(r) for r in cold.reports.values())
    for path in cache.measurement_entries():  # probe the synthesis entries
        path.unlink()
    warm, counters = _counters(
        lambda: measure_strict(Engine(cache=cache), sources, spec.top)
    )
    assert counters.get("synth.specializations", 0) == 0
    assert warm == cold


def test_an_entry_names_at_most_two_globals(tmp_path):
    cache = SynthesisCache(tmp_path / "cache")
    Engine(cache=cache).measure_components([_SPEC])
    (memo,) = cache.measurement_entries()
    assert _globals(memo.read_bytes()) <= 2
    for entry in cache.entries():
        assert _globals(entry.read_bytes()) <= 2


def test_an_entry_in_the_full_pickle_form_is_still_a_hit(tmp_path):
    cache = SynthesisCache(tmp_path / "cache")
    fresh = Engine().measure_components([_SPEC]).results["alu"]
    key = cache.measurement_key(_SPEC)
    path = cache.directory / "measure" / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL))
    served, counters = _counters(
        lambda: Engine(cache=cache).measure_components([_SPEC])
    )
    assert counters["cache.measure_hits"] == 1
    assert pickle.dumps(served.results["alu"]) == pickle.dumps(fresh)


def test_other_values_and_lint_runs_pickle_as_they_are(tmp_path):
    cache = SynthesisCache(tmp_path / "cache")
    value = Result(value={"LoC": 3.0})
    blob = cache.store_measurement("ab" * 32, value)
    assert blob == pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    Engine(cache=cache).lint([_SRC])
    (entry,) = cache.lint_entries()
    loaded = cache.load_lint(entry.stem)
    assert entry.read_bytes() == pickle.dumps(
        loaded, protocol=pickle.HIGHEST_PROTOCOL
    )


def test_a_record_with_a_wrong_field_count_raises():
    result = Engine().measure_components([_SPEC]).results["alu"]
    fields = measurement_fields(result)
    with pytest.raises(TypeError):
        rebuild_measurement(*fields[:-1])
    report = next(iter(result.value.reports.values()))
    parts = list(report_fields(report))
    for i, part in enumerate(parts):
        if isinstance(part, tuple):
            short = parts[:i] + [part[:-1]] + parts[i + 1:]
            with pytest.raises(TypeError):
                rebuild_report(*short)
