"""The whole-run lint memo: one entry per run, probed before any parse.

The key covers every source's name and text in order plus the enabled
rules, so a cached report must always equal the report of a run with no
cache -- after a rename and after a reorder too.  A warm run parses
nothing, and a run with any error stores nothing.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.hdl.source import SourceFile
from repro.lint import LintConfig
from repro.lint.config import Suppression
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Severity

DANGLE = "module m(input a, output y);\n  assign y = 1'b0;\nendmodule\n"
OTHER = (
    "module n(input a, output y);\n"
    "  wire floating;\n  assign y = a;\nendmodule\n"
)
UNELABORABLE = (
    "module refs_missing(input a, output y);\n"
    "  nowhere u0 (.i(a), .o(y));\nendmodule\n"
)
BROKEN = "module oops(input a\n"


def _uncached(sources):
    return Engine(cache=None).lint(sources)


def _counters(run):
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        value = run()
        return value, obs_metrics.snapshot()["counters"]


def test_renamed_source_reports_its_new_name(tmp_path):
    engine = Engine(cache=SynthesisCache(tmp_path))
    for name in ("first.v", "second.v"):
        sources = [SourceFile(name, DANGLE)]
        report = engine.lint(sources)
        assert report == _uncached(sources)
        assert {f.file for f in report.findings} == {name}


def test_reordered_sources_equal_an_uncached_run(tmp_path):
    engine = Engine(cache=SynthesisCache(tmp_path))
    forward = [SourceFile("m.v", DANGLE), SourceFile("n.v", OTHER)]
    backward = forward[::-1]
    assert engine.lint(forward) == _uncached(forward)
    assert engine.lint(backward) == _uncached(backward)
    # Warm, in either order.
    assert engine.lint(backward) == _uncached(backward)
    assert engine.lint(forward) == _uncached(forward)


def test_warm_run_parses_nothing_and_is_byte_identical(tmp_path):
    cache = SynthesisCache(tmp_path)
    engine = Engine(cache=cache)
    sources = [SourceFile("m.v", DANGLE), SourceFile("n.v", OTHER)]
    cold, counters = _counters(lambda: engine.lint(sources))
    assert counters["hdl.files_parsed"] == 2
    assert counters["cache.lint_stores"] == 1
    assert len(cache.lint_entries()) == 1

    warm, counters = _counters(lambda: engine.lint(sources))
    assert counters.get("hdl.files_parsed", 0) == 0
    assert counters.get("flow.dfg_builds", 0) == 0
    assert counters["cache.lint_hits"] == 1
    assert pickle.dumps(warm) == pickle.dumps(cold)


def test_run_span_records_the_memo_outcome(tmp_path):
    engine = Engine(cache=SynthesisCache(tmp_path))
    sources = [SourceFile("m.v", DANGLE)]
    outcomes = []
    for _ in range(2):
        tracer = obs_trace.Tracer()
        with obs_trace.using(tracer):
            engine.lint(sources)
        (run,) = [s for s in tracer.spans if s.name == "lint.run"]
        outcomes.append(run.attrs["memo"])
    assert outcomes == ["miss", "hit"]


def test_config_outside_the_key_still_applies_on_a_hit(tmp_path):
    engine = Engine(cache=SynthesisCache(tmp_path))
    sources = [SourceFile("m.v", DANGLE), SourceFile("n.v", OTHER)]
    engine.lint(sources)
    config = LintConfig(
        severities={"W001": Severity.ERROR},
        suppressions=(Suppression("W001", module="n"),),
    )
    warm, counters = _counters(lambda: engine.lint(sources, config))
    assert counters["cache.lint_hits"] == 1
    assert warm.suppressed and warm.findings
    assert warm == Engine(cache=None).lint(sources, config)


@pytest.mark.parametrize("bad", [UNELABORABLE, BROKEN],
                         ids=["unelaborable", "parse-error"])
def test_a_run_with_any_error_stores_nothing(tmp_path, bad):
    cache = SynthesisCache(tmp_path)
    engine = Engine(cache=cache)
    sources = [SourceFile("bad.v", bad), SourceFile("n.v", OTHER)]
    for _ in range(2):
        report, counters = _counters(lambda: engine.lint(sources))
        assert report.exit_code == 2
        assert report == _uncached(sources)
        assert counters.get("cache.lint_stores", 0) == 0
        assert counters["cache.lint_misses"] == 1
    assert cache.lint_entries() == []
