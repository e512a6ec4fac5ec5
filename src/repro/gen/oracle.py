"""Differential oracle: generated corpora vs. the measurement pipeline.

Every generated module carries the metric vector it *must* measure as
(see :mod:`repro.gen.hdlgen`).  The oracle pushes a corpus through
``Engine.measure_components`` — the same batch entry point the CLI uses,
so the parallel and cache layers are exercised too — and demands an exact
match on every integer-valued metric.  Any deviation is reported with the
tile recipe that produced it, which localizes regressions to a specific
lexer/parser/elaborator/synthesis rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.gen.hdlgen import GeneratedModule

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import SynthesisCache

#: Metrics compared exactly (all are integer counts by construction).
ORACLE_METRICS = ("LoC", "Stmts", "Nets", "Cells", "FFs", "FanInLC")


@dataclass(frozen=True)
class OracleMismatch:
    """One metric that measured differently than it was constructed."""

    module: str
    language: str
    metric: str
    expected: float
    measured: float | None
    tile_kinds: tuple[str, ...]

    def render(self) -> str:
        got = "missing" if self.measured is None else f"{self.measured:g}"
        return (f"{self.module} [{self.language}] {self.metric}: "
                f"expected {self.expected:g}, measured {got} "
                f"(tiles: {', '.join(self.tile_kinds)})")


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one differential-oracle run."""

    n_modules: int
    n_checks: int
    mismatches: tuple[OracleMismatch, ...] = ()
    failures: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.failures

    def render(self) -> str:
        lines = [
            f"differential oracle: {self.n_modules} modules, "
            f"{self.n_checks} metric checks, "
            f"{len(self.mismatches)} mismatches, "
            f"{len(self.failures)} measurement failures"
        ]
        lines.extend("  " + m.render() for m in self.mismatches[:20])
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        lines.extend(f"  FAILED to measure: {name}" for name in self.failures)
        return "\n".join(lines)


def corpus_specs(modules: Sequence[GeneratedModule]) -> list[ComponentSpec]:
    """Batch specs for a generated corpus (disabled accounting policy)."""
    return [gm.spec for gm in modules]


def run_differential_oracle(
    modules: Sequence[GeneratedModule],
    *,
    jobs: int = 1,
    cache: "SynthesisCache | None" = None,
) -> OracleReport:
    """Measure a corpus and compare each module against its ground truth."""
    batch = Engine(cache=cache, jobs=jobs).measure_components(
        corpus_specs(modules)
    )
    measured = {name: m.metrics for name, m in batch.measurements.items()}

    mismatches: list[OracleMismatch] = []
    failures: list[str] = []
    n_checks = 0
    for gm in modules:
        metrics = measured.get(gm.name)
        if metrics is None:
            failures.append(gm.name)
            continue
        for key in ORACLE_METRICS:
            n_checks += 1
            got = metrics.get(key)
            if got is None or abs(got - gm.truth[key]) > 1e-9:
                mismatches.append(OracleMismatch(
                    module=gm.name,
                    language=gm.language,
                    metric=key,
                    expected=gm.truth[key],
                    measured=got,
                    tile_kinds=gm.tile_kinds,
                ))
    return OracleReport(
        n_modules=len(modules),
        n_checks=n_checks,
        mismatches=tuple(mismatches),
        failures=tuple(failures),
    )
