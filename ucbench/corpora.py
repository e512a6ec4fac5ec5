"""The benchmark's inputs and the oracles that check the program's outputs.

Two corpora, chosen to stress different layers (see README.md):

* ``paper`` -- the 18 bundled Table 2 components under the recommended
  accounting policy, plus the Table 4 fit on the paper's dataset.  Deep,
  parameterised hierarchies: the accounting procedure and large-file
  parsing dominate.
* ``catalog`` -- a seeded ``repro.gen`` corpus in both languages, drawn
  from the clean tile pool, measured under the disabled policy its
  ground truths assume.  Many small flat modules: per-module fixed costs
  dominate and accounting does almost nothing.

The seed only changes the generated inputs (and the order in which the
bundled components are submitted); the program never sees it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.workflow import ComponentSpec
from repro.hdl.source import SourceFile

#: Table 4 tolerance: every fitted sigma_eps must round to the paper's
#: two printed decimals (half a unit in the last place, plus slack).
SIGMA_TOLERANCE = 0.015

#: Catalog size: large enough that the cold pass takes about a second.
CATALOG_MODULES = 200
#: Catalog modules the serve step sends per round.
CATALOG_SERVED_PER_ROUND = 40

#: Rows of the catalog fit dataset: the paper's 18 components, times two.
CATALOG_FIT_ROWS = 36
CATALOG_FIT_TEAMS = 6
#: Effort datasets fitted per catalog fit pass.  How long a fit takes
#: depends on the draw; averaging over several keeps ``fit_cpu_s`` from
#: measuring the seed.
CATALOG_FIT_DRAWS = 4
#: The generative model behind the catalog fit's efforts (paper §3.1).
CATALOG_SIGMA_EPS = 0.46
CATALOG_SIGMA_RHO = 0.5
CATALOG_SIGMA_BAND = 0.25


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 50:
                self.notes.append(note)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Corpus:
    """One workload's inputs plus the truths its oracles compare against."""

    name: str
    specs: list[ComponentSpec]
    #: Source groups linted together (one ``Engine.lint`` call each).
    lint_groups: list[list[SourceFile]]
    #: Per-component metric truths (catalog only).
    truths: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Lint rules a finding may carry without being a failure.
    allowed_rules: frozenset[str] | None = None
    #: Components the serve step sends per round, from the front of
    #: ``specs`` (None: all of them).
    served_per_round: int | None = None
    #: The fit step: takes the cold measurements and records its oracle
    #: checks in the tally.
    fit: Callable[[dict[str, Any], Tally], None] | None = None


# -- corpora -----------------------------------------------------------------


def paper_corpus(seed: int) -> Corpus:
    from repro.core.accounting import AccountingPolicy
    from repro.designs.catalog import CATALOG, component_specs
    from repro.designs.loader import load_sources

    bundled = component_specs()
    order = np.random.default_rng(seed).permutation(len(bundled))
    specs = [
        ComponentSpec(
            name=bundled[i].label,
            sources=tuple(load_sources(bundled[i])),
            top=bundled[i].top,
            policy=AccountingPolicy.recommended(),
        )
        for i in order
    ]
    lint_groups = [
        [src for comp in design.components for src in load_sources(comp)]
        for design in CATALOG.values()
    ]
    return Corpus(
        name="paper",
        specs=specs,
        lint_groups=lint_groups,
        fit=_fit_paper,
    )


def catalog_corpus(seed: int, size: int = CATALOG_MODULES) -> Corpus:
    from repro.gen import clean_kinds, generate_corpus
    from repro.hdl.source import VERILOG, VHDL

    half = size // 2
    modules = generate_corpus(
        VERILOG, half, seed=seed, kinds=clean_kinds(), name_prefix="cv"
    ) + generate_corpus(
        VHDL, size - half, seed=seed + 1, kinds=clean_kinds(),
        name_prefix="ch",
    )
    return Corpus(
        name="catalog",
        specs=[gm.spec for gm in modules],
        lint_groups=[[src for gm in modules for src in gm.sources]],
        truths={gm.name: dict(gm.truth) for gm in modules},
        allowed_rules=frozenset({"ACC001"}),
        served_per_round=CATALOG_SERVED_PER_ROUND,
        fit=lambda measured, tally: _fit_catalog(measured, tally, seed),
    )


CORPORA: dict[str, Callable[[int], Corpus]] = {
    "paper": paper_corpus,
    "catalog": catalog_corpus,
}


# -- oracles -----------------------------------------------------------------


def check_measurements(
    corpus: Corpus, results: dict[str, Any], tally: Tally, label: str
) -> None:
    """Every component measured cleanly, and equal to its truth if known."""
    from repro.gen import ORACLE_METRICS

    for spec in corpus.specs:
        result = results.get(spec.name)
        clean = (
            result is not None
            and result.value is not None
            and not result.diagnostics
        )
        ok = clean
        if ok and spec.name in corpus.truths:
            truth = corpus.truths[spec.name]
            got = result.value.metrics
            ok = all(
                key in got and abs(got[key] - truth[key]) <= 1e-9
                for key in ORACLE_METRICS
            )
        tally.check(ok, f"{label}: {spec.name} mismatches its oracle")


def check_identical(
    reference: dict[str, Any], other: dict[str, Any], tally: Tally,
    label: str,
) -> None:
    """``other`` must pickle byte-identically to ``reference``."""
    for name, result in reference.items():
        same = name in other and (
            pickle.dumps(other[name]) == pickle.dumps(result)
        )
        tally.check(same, f"{label}: {name} differs from the jobs=1 cold run")


def check_lint(corpus: Corpus, reports: Sequence[Any], tally: Tally,
               label: str) -> None:
    """No audit errors, and only the findings the corpus allows."""
    for i, report in enumerate(reports):
        ok = not report.errors and (
            corpus.allowed_rules is None
            or all(f.rule in corpus.allowed_rules for f in report.findings)
        )
        tally.check(ok, f"{label}: lint group {i}: {report.summary()}")


def _fit_paper(_measured: dict[str, Any], tally: Tally,
               expected: tuple[dict, dict] | None = None) -> None:
    """Table 4 on the paper's dataset, against the published sigmas."""
    from repro.analysis.evaluation import evaluate_estimators
    from repro.data.paper import (
        PAPER_SIGMA_EPS,
        PAPER_SIGMA_EPS_NO_RHO,
        paper_dataset,
    )

    with_rho, no_rho = expected or (PAPER_SIGMA_EPS, PAPER_SIGMA_EPS_NO_RHO)
    table = evaluate_estimators(paper_dataset()).sigma_table()
    for name, paper in with_rho.items():
        got = table.get(name, (float("nan"), float("nan")))
        tally.check(
            abs(got[0] - paper) <= SIGMA_TOLERANCE,
            f"fit: {name} sigma_eps {got[0]:.4f} vs paper {paper}",
        )
        tally.check(
            abs(got[1] - no_rho[name]) <= SIGMA_TOLERANCE,
            f"fit: {name} rho=1 sigma_eps {got[1]:.4f} vs paper "
            f"{no_rho[name]}",
        )


def catalog_dataset(measured: dict[str, Any], seed: int, draw: int = 0):
    """An effort dataset over the first measured catalog modules.

    Metrics are the pipeline's own measurements; efforts are drawn from
    the paper's generative model (team productivity times a Stmts-sized
    effort times lognormal error), so the fit has a known sigma_eps.
    ``draw`` picks one of several independent effort draws for a seed.
    """
    from repro.data.dataset import EffortDataset, EffortRecord

    rng = np.random.default_rng([seed, 7, draw])
    rho = np.exp(rng.normal(0.0, CATALOG_SIGMA_RHO, CATALOG_FIT_TEAMS))
    records = []
    for i, name in enumerate(sorted(measured)[:CATALOG_FIT_ROWS]):
        metrics = dict(measured[name].value.metrics)
        team = i % CATALOG_FIT_TEAMS
        eps = np.exp(rng.normal(0.0, CATALOG_SIGMA_EPS))
        records.append(
            EffortRecord(
                team=f"T{team}", component=name,
                effort=float(0.02 * metrics["Stmts"] / rho[team] * eps),
                metrics=metrics,
            )
        )
    return EffortDataset(tuple(records))


def _fit_catalog(measured: dict[str, Any], tally: Tally, seed: int) -> None:
    """The Stmts estimator, with and without productivity, on
    ``CATALOG_FIT_DRAWS`` effort draws over the catalog's own metrics.

    DEE1 is left out: on some seeds its exact-ML fit fails verification
    and the fallback ladder costs ten times as much, which would make
    ``fit_s`` measure the seed instead of the program.
    """
    from repro.analysis.evaluation import evaluate_estimators

    for draw in range(CATALOG_FIT_DRAWS):
        result = evaluate_estimators(
            catalog_dataset(measured, seed, draw),
            estimators=(("Stmts", ("Stmts",)),),
        )
        mixed, fixed = result.mixed.get("Stmts"), result.fixed.get("Stmts")
        sigma = getattr(mixed, "sigma_eps", float("nan"))
        tally.check(
            mixed is not None and not mixed.degraded and mixed.converged
            and abs(sigma - CATALOG_SIGMA_EPS) <= CATALOG_SIGMA_BAND,
            f"fit: catalog draw {draw} Stmts sigma_eps {sigma:.4f} outside "
            f"{CATALOG_SIGMA_EPS} +/- {CATALOG_SIGMA_BAND}",
        )
        tally.check(
            fixed is not None and fixed.converged,
            f"fit: catalog draw {draw} Stmts rho=1 fit did not converge",
        )
