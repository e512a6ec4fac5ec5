"""Quickstart: fit DEE1 on the paper's data and estimate a new component.

Run with::

    python examples/quickstart.py
"""

from repro import fit_dee1, obs, paper_dataset
from repro.analysis.evaluation import evaluate_estimators


def main() -> None:
    # Trace the whole run so we can show where the time went at the end.
    tracer = obs.activate(obs.Tracer())

    dataset = paper_dataset()
    print(f"dataset: {len(dataset)} components from teams {dataset.teams}")

    # Fit the paper's recommended estimator: DEE1 = w1*Stmts + w2*FanInLC
    # with a per-team productivity random effect.
    dee1 = fit_dee1(dataset)
    print("\nDEE1 fit:")
    for name, weight in zip(dee1.metric_names, dee1.weights):
        print(f"  w[{name}] = {weight:.6g}")
    print(f"  sigma_eps = {dee1.sigma_eps:.2f}   (paper: 0.46)")
    print(f"  sigma_rho = {dee1.sigma_rho:.2f}")
    print("  team productivities:")
    for team, rho in sorted(dee1.productivities.items()):
        print(f"    rho[{team}] = {rho:.2f}")

    # Estimate a hypothetical new component designed by the IVM team.
    metrics = {"Stmts": 950.0, "FanInLC": 6100.0}
    median = dee1.estimate(metrics, team="IVM")
    lo, hi = dee1.interval(metrics, team="IVM")
    print(f"\nnew component ({metrics}) for team IVM:")
    print(f"  median estimate: {median:.1f} person-months")
    print(f"  90% confidence interval: ({lo:.1f}, {hi:.1f})")

    # Relative estimation (Section 3.1.1): no team calibration needed.
    small = dee1.estimate({"Stmts": 400.0, "FanInLC": 2500.0})
    large = dee1.estimate({"Stmts": 800.0, "FanInLC": 5000.0})
    print(f"\nrelative estimation: a {large / small:.1f}x bigger component "
          "takes proportionally longer regardless of team")

    # The full Table 4 ranking in two lines.
    result = evaluate_estimators(dataset)
    print("\nestimators from most to least accurate:")
    print(" > ".join(result.ranked()))

    # Measure one bundled component through the full pipeline, with the
    # content-addressed synthesis cache (rerun this script: the second pass
    # is served from the whole-component memo without parsing).
    from repro.cache import SynthesisCache, hit_rate
    from repro import Engine
    from repro.core.workflow import ComponentSpec
    from repro.designs.catalog import component_specs
    from repro.designs.loader import load_sources

    spec = component_specs()[0]
    cache = SynthesisCache.default()
    component = ComponentSpec(spec.label, tuple(load_sources(spec)), spec.top)
    batch = Engine(cache=cache).measure_components([component], strict=True)
    m = batch.results[spec.label].unwrap()
    print(f"\nmeasured {spec.label}: LoC={m.metrics['LoC']:.0f}, "
          f"Stmts={m.metrics['Stmts']:.0f}, FanInLC={m.metrics['FanInLC']:.0f}")

    # Audit the same sources against the Section 2.2 accounting rules
    # (duplicate components, non-minimal parameters, dead code) before
    # trusting the numbers above.  (See DESIGN.md, "Accounting linter".)
    from repro.lint import lint_sources

    lint = lint_sources(load_sources(spec))
    print(f"lint verdict for {spec.label}: {lint.summary()} "
          f"(exit code {lint.exit_code})")
    for finding in lint.findings[:3]:
        print(f"  {finding.rule}: {finding.message}")

    # Where did the time go?  (See DESIGN.md, "Observability".)
    obs.deactivate()
    rate = hit_rate()
    print(f"\nsynthesis cache hit rate: "
          + (f"{rate:.0%}" if rate is not None else "(cache not probed)")
          + f"  ({cache.directory})")
    print("top 5 slowest spans:")
    for sp in tracer.slowest(5):
        print(f"  {sp.wall_s * 1e3:9.2f}ms  {sp.name}")

    # Finally, prove the pipeline against modules with known answers: a
    # small generated corpus must measure exactly its constructed
    # metrics (the full study runs via `repro selftest`).
    from repro.gen import run_selftest

    report = run_selftest(modules_per_language=6, skip_recovery=True)
    print(f"\nself-test ({len(report.checks)} checks, "
          f"{report.elapsed_s:.1f}s): "
          + ("all passed" if report.ok else "FAILED\n" + report.render()))


if __name__ == "__main__":
    main()
