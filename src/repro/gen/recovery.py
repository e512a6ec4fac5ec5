"""Parameter-recovery studies for the effort-model fitters.

The generative model of Section 3.1 is fully known here: we draw
Table-2-shaped datasets from chosen ``(w_k, sigma_rho, sigma_eps)`` via
:func:`repro.stats.simulate.simulate_dataset`, refit them with each of
the three fitters (exact-ML, Laplace/AGHQ, fixed-effects), and report

* **weight bias** — the mean relative error of the fitted ``w_k`` across
  replicate datasets, and
* **bootstrap-CI coverage** — how often a cluster-bootstrap percentile
  interval at the requested confidence contains the true weight, pooled
  over datasets and weights.  A calibrated interval covers at roughly
  the nominal rate; systematic under-coverage flags an overconfident
  fitter.

The fixed-effects fitter is deliberately misspecified when
``sigma_rho > 0`` (it assumes every team has productivity 1), so its
tolerance is documented separately; its *weights* remain nearly unbiased
because productivity scatter acts like extra multiplicative noise.

All randomness descends from one ``numpy.random.SeedSequence``: dataset
*d* draws from its own spawned child, so studies are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.stats.grouping import GroupedData

FITTER_NAMES = ("exact-ml", "laplace", "fixed-effects")


def _fit_weights(fitter: str, data: GroupedData, *, fast: bool) -> np.ndarray:
    """Point-estimate the weights with one of the three fitters.

    ``fast`` selects cheaper settings for bootstrap replicates (single
    start / fewer quadrature nodes), mirroring how ``bootstrap_sigma``
    refits replicates with ``n_random_starts=1``.
    """
    # Imported here so ``repro.gen`` (corpus generation) never loads scipy.
    from repro.stats.fixedeffects import fit_fixed_effects
    from repro.stats.laplace import fit_nlme_laplace
    from repro.stats.nlme import fit_nlme

    if fitter == "exact-ml":
        return np.asarray(
            fit_nlme(data, n_random_starts=1 if fast else 2).weights)
    if fitter == "laplace":
        # 3 quadrature nodes for replicate refits; 1 node (pure Laplace)
        # is numerically fragile on resampled data and can stall.
        return np.asarray(
            fit_nlme_laplace(data, n_quadrature=3 if fast else 5).weights)
    if fitter == "fixed-effects":
        return np.asarray(
            fit_fixed_effects(data, n_random_starts=1 if fast else 2).weights)
    raise ValueError(f"unknown fitter {fitter!r}")


def _cluster_resample(data: GroupedData,
                      rng: np.random.Generator) -> GroupedData:
    """One cluster-bootstrap replicate (teams, then rows within teams).

    Clones of a drawn team become distinct groups, each with its own
    productivity draw under refitting — the same scheme as
    :func:`repro.stats.bootstrap.bootstrap_sigma`.
    """
    indices = data.group_indices()
    teams = list(indices)
    while True:
        drawn = rng.choice(len(teams), size=len(teams), replace=True)
        if len(set(drawn)) >= 2:
            break
    rows: list[int] = []
    groups: list[str] = []
    for clone_id, team_idx in enumerate(drawn):
        team_rows = indices[teams[team_idx]]
        resampled = rng.choice(team_rows, size=len(team_rows), replace=True)
        rows.extend(int(r) for r in resampled)
        groups.extend([f"boot{clone_id}"] * len(resampled))
    return GroupedData(
        efforts=data.efforts[rows],
        metrics=data.metrics[rows, :],
        groups=tuple(groups),
        metric_names=data.metric_names,
    )


@dataclass(frozen=True)
class FitterRecovery:
    """Recovery summary for one fitter."""

    fitter: str
    metric_names: tuple[str, ...]
    #: Mean over datasets of ``(w_hat - w_true) / w_true``, per weight.
    rel_bias: tuple[float, ...]
    #: Largest absolute relative bias over the weights.
    max_abs_rel_bias: float
    #: Fraction of (dataset, weight) bootstrap CIs containing the truth;
    #: ``None`` when the study ran without bootstrap.
    ci_coverage: float | None
    n_ci_checks: int
    n_datasets_fit: int
    failures: int

    def render(self) -> str:
        bias = ", ".join(
            f"{n}={b:+.3f}" for n, b in zip(self.metric_names, self.rel_bias))
        cov = ("n/a" if self.ci_coverage is None
               else f"{self.ci_coverage:.3f} ({self.n_ci_checks} checks)")
        return (f"{self.fitter:>13}: rel bias [{bias}] "
                f"max|bias|={self.max_abs_rel_bias:.3f} coverage={cov}"
                + (f" failures={self.failures}" if self.failures else ""))


@dataclass(frozen=True)
class RecoveryStudy:
    """Results of a full recovery study across fitters."""

    true_weights: tuple[float, ...]
    sigma_eps: float
    sigma_rho: float
    components_per_team: tuple[int, ...]
    n_datasets: int
    n_bootstrap: int
    confidence: float
    results: tuple[FitterRecovery, ...]

    def fitter(self, name: str) -> FitterRecovery:
        for result in self.results:
            if result.fitter == name:
                return result
        raise KeyError(name)

    def render(self) -> str:
        lines = [
            f"recovery study: {self.n_datasets} datasets, teams="
            f"{list(self.components_per_team)}, true w={list(self.true_weights)}, "
            f"sigma_eps={self.sigma_eps}, sigma_rho={self.sigma_rho}, "
            f"{self.n_bootstrap} bootstrap replicates "
            f"@ {self.confidence:.0%} confidence"
        ]
        lines.extend("  " + r.render() for r in self.results)
        return "\n".join(lines)


def run_recovery_study(
    true_weights: Sequence[float] = (0.05, 0.012),
    sigma_eps: float = 0.25,
    sigma_rho: float = 0.3,
    components_per_team: Sequence[int] = (4, 4, 4, 4, 3, 3, 3, 3),
    *,
    n_datasets: int = 12,
    n_bootstrap: int = 50,
    confidence: float = 0.95,
    seed: int = 0,
    fitters: Sequence[str] = FITTER_NAMES,
    bootstrap_fitters: Sequence[str] | None = None,
    metric_names: tuple[str, ...] = (),
    progress: Callable[[str], None] | None = None,
) -> RecoveryStudy:
    """Simulate, refit, and summarize bias + CI coverage per fitter.

    With ``n_bootstrap=0`` the (expensive) coverage half is skipped and
    only the point-estimate bias is reported.  ``bootstrap_fitters``
    selects which fitters get the coverage treatment; it defaults to
    every requested fitter *except* Laplace/AGHQ, whose refits cost
    roughly two orders of magnitude more than an exact-ML refit — pass
    ``bootstrap_fitters=FITTER_NAMES`` explicitly to pay for all three.
    """
    from repro.stats.simulate import simulate_dataset

    for fitter in fitters:
        if fitter not in FITTER_NAMES:
            raise ValueError(f"unknown fitter {fitter!r}")
    if bootstrap_fitters is None:
        bootstrap_fitters = tuple(f for f in fitters if f != "laplace")
    for fitter in bootstrap_fitters:
        if fitter not in fitters:
            raise ValueError(
                f"bootstrap fitter {fitter!r} not among fitters {fitters}")
    w_true = np.asarray(true_weights, dtype=float)
    names = metric_names or tuple(f"m{j}" for j in range(w_true.size))

    rel_errors: dict[str, list[np.ndarray]] = {f: [] for f in fitters}
    covered: dict[str, int] = {f: 0 for f in fitters}
    checks: dict[str, int] = {f: 0 for f in fitters}
    failures: dict[str, int] = {f: 0 for f in fitters}

    for d, child in enumerate(np.random.SeedSequence(seed).spawn(n_datasets)):
        data_stream, boot_stream = child.spawn(2)
        dataset = simulate_dataset(
            w_true, sigma_eps, sigma_rho, list(components_per_team),
            seed=np.random.default_rng(data_stream), metric_names=names)
        if progress is not None:
            progress(f"dataset {d + 1}/{n_datasets}")
        for fitter in fitters:
            try:
                w_hat = _fit_weights(fitter, dataset.data, fast=False)
            except Exception:
                failures[fitter] += 1
                continue
            rel_errors[fitter].append((w_hat - w_true) / w_true)
            if n_bootstrap <= 0 or fitter not in bootstrap_fitters:
                continue
            rng = np.random.default_rng(boot_stream)
            reps: list[np.ndarray] = []
            attempts = 0
            while len(reps) < n_bootstrap:
                attempts += 1
                if attempts > max(20, n_bootstrap * 20):
                    break
                replicate = _cluster_resample(dataset.data, rng)
                try:
                    reps.append(_fit_weights(fitter, replicate, fast=True))
                except Exception:
                    continue
            if len(reps) < n_bootstrap:
                failures[fitter] += 1
                continue
            stacked = np.vstack(reps)
            alpha = (1.0 - confidence) / 2.0
            lo = np.quantile(stacked, alpha, axis=0)
            hi = np.quantile(stacked, 1.0 - alpha, axis=0)
            for k in range(w_true.size):
                checks[fitter] += 1
                if lo[k] <= w_true[k] <= hi[k]:
                    covered[fitter] += 1

    results = []
    for fitter in fitters:
        errors = rel_errors[fitter]
        if errors:
            bias = np.mean(np.vstack(errors), axis=0)
        else:
            bias = np.full(w_true.size, np.nan)
        coverage = (covered[fitter] / checks[fitter]
                    if checks[fitter] else None)
        results.append(FitterRecovery(
            fitter=fitter,
            metric_names=names,
            rel_bias=tuple(float(b) for b in bias),
            max_abs_rel_bias=float(np.max(np.abs(bias))),
            ci_coverage=coverage,
            n_ci_checks=checks[fitter],
            n_datasets_fit=len(errors),
            failures=failures[fitter],
        ))
    return RecoveryStudy(
        true_weights=tuple(float(w) for w in w_true),
        sigma_eps=sigma_eps,
        sigma_rho=sigma_rho,
        components_per_team=tuple(int(n) for n in components_per_team),
        n_datasets=n_datasets,
        n_bootstrap=n_bootstrap,
        confidence=confidence,
        results=tuple(results),
    )
