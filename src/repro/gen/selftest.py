"""End-to-end self-test: generators vs. the whole pipeline.

``run_selftest`` chains the ground-truth checks this package provides
into one pass/fail report:

1. **oracle.verilog / oracle.vhdl** — a seeded corpus per language must
   measure *exactly* its constructed ``LoC``/``Stmts``/``Nets``/
   ``Cells``/``FFs``/``FanInLC``;
2. **roundtrip** — printing a parsed design back to Verilog-2001 and
   re-measuring must preserve every netlist-level metric (LoC excepted:
   formatting belongs to the printer);
3. **parallel** — batch measurement under ``jobs=2`` must equal
   sequential measurement bit-for-bit;
4. **cache** — a warm re-measurement through a fresh on-disk cache must
   equal the cold one;
5. **recovery** — a seeded recovery study must show fitted weights
   within the documented tolerance and bootstrap-CI coverage within the
   documented band.

Documented recovery tolerances (checked against the default seeded
study; see DESIGN.md §9):

* exact-ML and Laplace/AGHQ mean relative weight bias within
  ``±0.35``; fixed-effects within ``±0.45`` (it ignores the productivity
  effect, which inflates scatter but not systematic bias much);
* pooled 95% bootstrap-CI coverage for the exact-ML fitter inside
  ``[0.88, 0.99]``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.gen.hdlgen import generate_corpus
from repro.gen.oracle import run_differential_oracle
from repro.gen.recovery import RecoveryStudy, run_recovery_study
from repro.hdl import parse_source
from repro.hdl.printer import print_design
from repro.hdl.source import VERILOG, VHDL, SourceFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.gen.hdlgen import GeneratedModule

#: Documented tolerance on mean relative weight bias, per fitter.
BIAS_TOLERANCE = {
    "exact-ml": 0.35,
    "laplace": 0.35,
    "fixed-effects": 0.45,
}
#: Documented band for pooled bootstrap-CI coverage (nominal 95%).
COVERAGE_BAND = (0.88, 0.99)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class SelfTestReport:
    checks: tuple[CheckResult, ...]
    elapsed_s: float
    recovery: RecoveryStudy | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        verdict = "SELF-TEST PASSED" if self.ok else "SELF-TEST FAILED"
        lines.append(f"{verdict} ({len(self.checks)} checks, "
                     f"{self.elapsed_s:.1f}s)")
        return "\n".join(lines)


def _roundtrip_check(modules: "list[GeneratedModule]") -> CheckResult:
    """Print each parsed design back to Verilog and re-measure."""
    keys = ("Stmts", "Nets", "Cells", "FFs", "FanInLC")
    bad: list[str] = []
    specs: list[ComponentSpec] = []
    for gm in modules:
        try:
            printed = print_design(parse_source(gm.sources[0]))
        except Exception as exc:
            bad.append(f"{gm.name}: {type(exc).__name__}: {exc}")
            continue
        src = SourceFile(name=f"{gm.name}_rt.v", text=printed)
        specs.append(ComponentSpec(gm.name, (src,), gm.name, gm.spec.policy))
    truth = {gm.name: gm.truth for gm in modules}
    for name, result in Engine().measure_components(specs).results.items():
        if not result.ok:
            worst = max(result.diagnostics, key=lambda d: d.severity)
            bad.append(f"{name}: {worst.render()}")
            continue
        metrics = result.value.metrics
        diffs = {k: (truth[name][k], metrics.get(k)) for k in keys
                 if abs(truth[name][k] - metrics.get(k, -1)) > 1e-9}
        if diffs:
            bad.append(f"{name}: {diffs}")
    detail = (f"{len(modules)} modules re-printed and re-measured"
              if not bad else "; ".join(bad[:5]))
    return CheckResult("roundtrip", not bad, detail)


def _batch_metrics(modules: "list[GeneratedModule]", *, jobs: int,
                   cache: SynthesisCache | None) -> dict[str, dict]:
    batch = Engine(cache=cache, jobs=jobs).measure_components(
        [gm.spec for gm in modules])
    return {name: dict(m.metrics)
            for name, m in batch.measurements.items()}


def run_selftest(
    *,
    modules_per_language: int = 50,
    seed: int = 0,
    jobs: int = 1,
    recovery_datasets: int = 14,
    recovery_bootstrap: int = 50,
    recovery_seed: int = 0,
    skip_recovery: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SelfTestReport:
    """Run every generator-backed check; see the module docstring."""

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    t0 = time.perf_counter()
    checks: list[CheckResult] = []

    corpora = {}
    for language in (VERILOG, VHDL):
        say(f"oracle: generating + measuring {modules_per_language} "
            f"{language} modules")
        corpus = generate_corpus(language, modules_per_language, seed=seed)
        corpora[language] = corpus
        report = run_differential_oracle(corpus, jobs=jobs)
        detail = (f"{report.n_modules} modules, {report.n_checks} exact "
                  "metric checks" if report.ok else report.render())
        checks.append(CheckResult(f"oracle.{language}", report.ok, detail))

    say("roundtrip: print -> re-parse -> re-measure")
    sample = corpora[VERILOG][:8] + corpora[VHDL][:8]
    checks.append(_roundtrip_check(sample))

    say("parallel: jobs=2 vs sequential")
    subset = corpora[VERILOG][:6] + corpora[VHDL][:6]
    seq = _batch_metrics(subset, jobs=1, cache=None)
    par = _batch_metrics(subset, jobs=2, cache=None)
    checks.append(CheckResult(
        "parallel", seq == par,
        f"{len(subset)} components identical under jobs=2"
        if seq == par else f"divergence: {sorted(set(seq) ^ set(par)) or 'values differ'}"))

    say("cache: cold vs warm")
    with tempfile.TemporaryDirectory(prefix="repro-selftest-cache-") as tmp:
        cache = SynthesisCache(Path(tmp))
        cold = _batch_metrics(subset, jobs=1, cache=cache)
        warm = _batch_metrics(subset, jobs=1, cache=cache)
    checks.append(CheckResult(
        "cache", cold == warm,
        f"{len(subset)} components identical cold vs warm"
        if cold == warm else "warm re-measurement diverged"))

    study: RecoveryStudy | None = None
    if not skip_recovery:
        say(f"recovery: {recovery_datasets} datasets x "
            f"{recovery_bootstrap} bootstrap replicates")
        study = run_recovery_study(
            n_datasets=recovery_datasets,
            n_bootstrap=recovery_bootstrap,
            seed=recovery_seed,
            progress=say,
        )
        for result in study.results:
            tol = BIAS_TOLERANCE[result.fitter]
            ok = (result.n_datasets_fit > 0
                  and result.max_abs_rel_bias <= tol)
            checks.append(CheckResult(
                f"recovery.{result.fitter}.bias", ok,
                f"max |rel bias| {result.max_abs_rel_bias:.3f} "
                f"(tolerance {tol})"))
        ml = study.fitter("exact-ml")
        if ml.ci_coverage is not None:
            lo, hi = COVERAGE_BAND
            ok = lo <= ml.ci_coverage <= hi
            checks.append(CheckResult(
                "recovery.exact-ml.coverage", ok,
                f"bootstrap-CI coverage {ml.ci_coverage:.3f} over "
                f"{ml.n_ci_checks} checks (band [{lo}, {hi}])"))

    return SelfTestReport(
        checks=tuple(checks),
        elapsed_s=time.perf_counter() - t0,
        recovery=study,
    )
