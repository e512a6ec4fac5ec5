"""Tier-2 ``-m lint``: the oracle contract over generated corpora.

The violation generator plants a known set of §2.2 accounting violations;
the linter must report exactly that set -- every injected violation found,
nothing else flagged -- in both languages.  The clean-corpus half is the
false-positive bound: ordinary generated RTL (restricted to
``clean_kinds()``) must produce zero findings.
"""

import pytest

from repro.gen import clean_kinds, generate_corpus, violation_corpus
from repro.gen.violations import VIOLATION_KINDS
from repro.hdl.source import VERILOG, VHDL
from repro.lint import LintConfig, lint_sources

pytestmark = pytest.mark.lint

LANGUAGES = [VERILOG, VHDL]


@pytest.mark.parametrize("language", LANGUAGES)
class TestViolationOracle:
    def test_exact_match(self, language):
        sources, expected = violation_corpus(language, seed=11)
        report = lint_sources(sources)
        assert not report.errors, [e.message for e in report.errors]
        found = {(f.rule, f.module) for f in report.findings}
        assert found == expected
        # Exactly one finding per injected violation -- the "nothing else"
        # half of the oracle also bounds repeats of the same rule/module.
        assert len(report.findings) == len(expected) == len(VIOLATION_KINDS)

    def test_each_kind_in_isolation(self, language):
        for kind in VIOLATION_KINDS:
            sources, expected = violation_corpus(
                language, seed=13, kinds=(kind,)
            )
            report = lint_sources(sources)
            found = {(f.rule, f.module) for f in report.findings}
            assert found == expected, f"{kind} oracle mismatch"


@pytest.mark.parametrize("language", LANGUAGES)
class TestCleanCorpus:
    def test_generated_catalog_is_clean(self, language):
        corpus = generate_corpus(language, 20, seed=21, kinds=clean_kinds())
        sources = [src for gm in corpus for src in gm.sources]
        report = lint_sources(sources)
        assert report.clean, [str(f) for f in report.findings]
        assert report.exit_code == 0


@pytest.mark.parametrize("language", LANGUAGES)
class TestSynchronizerNegative:
    def test_two_flop_synchronizer_is_clean(self, language):
        from repro.gen.violations import synchronized_crossing

        sources = list(synchronized_crossing(language, "good_sync"))
        report = lint_sources(sources)
        assert report.clean, [str(f) for f in report.findings]


class TestWarmLintCache:
    def test_second_run_skips_dfg_builds(self, tmp_path):
        from repro.cache import SynthesisCache
        from repro.core.engine import Engine
        from repro.obs import metrics as obs_metrics

        sources, expected = violation_corpus(VERILOG, seed=41)
        cache = SynthesisCache(tmp_path / "cache")
        engine = Engine(cache=cache)

        cold = engine.lint(sources)
        assert {(f.rule, f.module) for f in cold.findings} == expected

        builds = obs_metrics.counter("flow.dfg_builds")
        before = builds.value
        warm = engine.lint(sources)
        assert builds.value == before  # every module served from the memo
        assert [str(f) for f in warm.findings] == [
            str(f) for f in cold.findings
        ]
        assert warm.exit_code == cold.exit_code

    def test_rule_selection_changes_the_key(self, tmp_path):
        from repro.cache import SynthesisCache
        from repro.core.engine import Engine

        sources, _ = violation_corpus(VERILOG, seed=43, kinds=("dead_cone",))
        cache = SynthesisCache(tmp_path / "cache")
        engine = Engine(cache=cache)
        full = engine.lint(sources)
        narrowed = engine.lint(sources, LintConfig(disabled=("W007",)))
        assert [f.rule for f in full.findings] == ["W007"]
        assert narrowed.clean
