"""Command-line interface: ``ucomplexity`` / ``python -m repro``.

Subcommands:

* ``measure``   -- run the full measurement flow on HDL files and print the
  Table 3 metric vector for a component.
* ``fit``       -- fit an estimator on a CSV effort database and print the
  weights, sigmas, and per-team productivities.
* ``estimate``  -- predict the effort of a component from metric values
  using an estimator fitted on a CSV database.
* ``evaluate``  -- regenerate the Table 4 accuracy table from the paper's
  published data (or a provided CSV).
* ``gen``       -- write a seeded synthetic HDL corpus (plus its metric
  ground truth manifest) to a directory.
* ``lint``      -- statically audit HDL files against the Section 2.2
  accounting procedure (duplicates, non-minimal parameters, dead code)
  and RTL hygiene rules; exit 0 clean / 1 findings / 2 errors.
* ``selftest``  -- run the ground-truth self-test: differential oracle,
  round-trip, parallel/cache equivalence, and fitter recovery.
* ``profile``   -- attribute a recorded ``--trace`` run's wall-clock:
  top self-time spans, critical path, per-worker utilization and the
  serialization share, with ``--flame`` (collapsed stacks) and
  ``--chrome-trace`` (Perfetto) exports.
* ``bench-diff`` -- gate a benchmark history (default: the tracked
  baseline) against itself: exit 1 when a benchmark or derived series
  breaches its tolerance; ``--record N`` appends a session to the
  baseline instead.

Failure handling (see DESIGN.md, "Failure handling & degradation ladder"):
every subcommand maps its outcome onto three exit codes --

* ``0`` -- clean result;
* ``1`` -- partial/degraded result (inputs quarantined, a fallback fitter
  engaged, or convergence unverified), diagnostics on stderr;
* ``2`` -- fatal: no usable result;
* ``130`` -- interrupted (SIGINT/SIGTERM): the worker pool was drained;
  completed results are in the cache; re-run with the same
  ``--cache-dir`` to resume (only unfinished work is measured again).
  Degraded results and ``--no-cache`` runs do not resume.

``--strict`` turns any degradation into a failure (exit 2) and
``--keep-going`` quarantines malformed dataset rows instead of aborting.
Parallel runs (``--jobs N``) execute under the supervised pool of
:mod:`repro.exec`: per-task deadlines (``--deadline``), per-worker memory
ceilings (``--worker-mem-mb``), bounded retries, and poison-task
quarantine.
"""

from __future__ import annotations

import os

# One BLAS thread unless the user chose otherwise: the fits' L-BFGS-B
# steps are tiny, and threaded OpenBLAS spends more time synchronising
# than computing on them.  This must run before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obs
from repro.analysis.tables import render_table
from repro.core.accounting import AccountingPolicy
from repro.hdl.source import SourceFile
from repro.runtime.diagnostics import (
    EXIT_DEGRADED,
    EXIT_FATAL,
    EXIT_INTERRUPTED,
    EXIT_OK,
    Diagnostic,
    Severity,
    exit_code,
    render_report,
)

if TYPE_CHECKING:
    from repro.data.dataset import EffortDataset

#: The tracked, curated perf history (one entry per change) and the local
#: per-session one, both relative to the repository root.
BENCH_BASELINE = "benchmarks/baseline.json"
BENCH_OBS = "BENCH_obs.json"


def _supervision_from_args(
    args: argparse.Namespace, handle_signals: bool = True
):
    """The run's supervision policy (``--jobs`` pools only).

    One-shot CLI runs install signal handlers so Ctrl-C drains the pool
    instead of dumping a traceback; the serve
    daemon passes ``handle_signals=False`` because its pool runs on a
    dispatcher thread (signals stay with the asyncio loop, which drains
    via :func:`repro.exec.request_interrupt`).  ``--deadline 0`` disables
    the per-task deadline entirely.
    """
    from repro.exec import SupervisionPolicy

    deadline = getattr(args, "deadline", None)
    if deadline is None:
        deadline = SupervisionPolicy.deadline_s
    chunk = getattr(args, "chunk", None)
    return SupervisionPolicy(
        deadline_s=deadline if deadline and deadline > 0 else None,
        memory_limit_mb=getattr(args, "worker_mem_mb", None) or None,
        handle_signals=handle_signals,
        progress=sys.stderr if getattr(args, "progress", False) else None,
        chunk_size=chunk if chunk and chunk > 0 else None,
        chaos=_chaos_from_args(args),
    )


def _chaos_from_args(args: argparse.Namespace):
    """A test-only chaos plan (``serve --chaos FILE``), or None.

    The file maps task labels to fault-injector invocations, e.g.
    ``{"top_mux": ["kill_once", "/tmp/marker"]}``; see
    :mod:`repro.runtime.faultinject`.
    """
    plan_file = getattr(args, "chaos", None)
    if not plan_file:
        return None
    import json

    plan = json.loads(Path(plan_file).read_text(encoding="utf-8"))
    return {
        label: tuple(fault) if isinstance(fault, list) else (fault,)
        for label, fault in plan.items()
    }


def _cache_from_args(args: argparse.Namespace):
    """The run's synthesis cache: default location, --cache-dir, or None.

    The cache is content-addressed (keys hash the source text and pipeline
    versions), so it is on by default -- stale entries are unreachable by
    construction.  ``--no-cache`` opts out entirely.
    """
    if getattr(args, "no_cache", False):
        return None
    from repro.cache import SynthesisCache

    cache_dir = getattr(args, "cache_dir", None)
    return SynthesisCache(Path(cache_dir)) if cache_dir else SynthesisCache.default()


def _engine_from_args(args: argparse.Namespace, handle_signals: bool = True):
    """The run's :class:`~repro.core.engine.Engine` (cache, pool)."""
    from repro.core.engine import Engine

    return Engine(
        cache=_cache_from_args(args),
        jobs=args.jobs,
        supervision=_supervision_from_args(args, handle_signals),
    )


def _print_diagnostics(diagnostics) -> None:
    if diagnostics:
        print(render_report(list(diagnostics)), file=sys.stderr)


#: The shared 0/1/2 mapping (repro.runtime.diagnostics.exit_code); the
#: serve daemon maps the same codes onto HTTP response statuses.
_exit_code = exit_code


def _cmd_measure(args: argparse.Namespace) -> int:
    policy = (
        AccountingPolicy.disabled()
        if args.no_accounting
        else AccountingPolicy.recommended()
    )
    if args.catalog:
        if args.files:
            print("error: --catalog and FILES are mutually exclusive",
                  file=sys.stderr)
            return EXIT_FATAL
        return _measure_catalog(args, policy)
    if not args.files:
        print("error: provide HDL FILES or --catalog DIR", file=sys.stderr)
        return EXIT_FATAL
    if not args.top:
        print("error: --top is required when measuring FILES",
              file=sys.stderr)
        return EXIT_FATAL
    diagnostics: list[Diagnostic] = []
    sources = []
    for path in args.files:
        try:
            sources.append(SourceFile.from_path(path))
        except Exception as exc:  # noqa: BLE001 -- quarantine unreadable files
            diagnostics.append(Diagnostic.from_exception(exc, "parse"))
    result = _engine_from_args(args).measure_component_safe(
        sources, args.top, policy=policy, lint=args.lint,
    )
    diagnostics.extend(result.diagnostics)
    _print_diagnostics(diagnostics)
    if result.value is None:
        return EXIT_FATAL
    measurement = result.value
    rows = sorted(measurement.metrics.items())
    print(render_table(["metric", "value"], [[k, v] for k, v in rows]))
    if args.verbose:
        print("\nmeasured specializations:")
        for module, params in measurement.specializations:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            print(f"  {module}({rendered})")
    return _exit_code(diagnostics, strict=args.strict)


def _measure_catalog(args: argparse.Namespace, policy) -> int:
    """Measure every module of a generated catalog (``measure --catalog``).

    The catalog run is the standard parallel workload of the profiling
    walkthrough: many small independent components, dispatched through
    the supervised pool when ``--jobs > 1``.
    """
    from repro.core.workflow import catalog_specs

    try:
        specs = catalog_specs(args.catalog, policy=policy,
                              limit=args.limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    batch = _engine_from_args(args).measure_components(
        specs, strict=args.strict, lint=args.lint,
    )
    rows = []
    for name in sorted(batch.results):
        m = batch.measurements.get(name)
        if m is None:
            rows.append([name, "failed", "-", "-"])
        else:
            rows.append([
                name,
                m.metrics.get("Stmts", "-"),
                m.metrics.get("LoC", "-"),
                m.metrics.get("FanInLC", "-"),
            ])
    print(render_table(["component", "Stmts", "LoC", "FanInLC"], rows))
    print(f"{len(batch.measurements)}/{len(batch.results)} components "
          f"measured")
    _print_diagnostics(batch.diagnostics)
    if not batch.measurements:
        return EXIT_FATAL
    return _exit_code(batch.diagnostics, strict=args.strict)


def _load_dataset(
    path: str | None, keep_going: bool, diagnostics: list[Diagnostic]
) -> EffortDataset | None:
    """Load a CSV (or the paper data); None means a fatal load failure."""
    from repro.data.dataset import EffortDataset
    from repro.data.paper import paper_dataset

    if path is None:
        return paper_dataset()
    result = EffortDataset.from_csv_checked(Path(path), keep_going=keep_going)
    diagnostics.extend(result.diagnostics)
    return result.value


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.estimator import DesignEffortEstimator

    diagnostics: list[Diagnostic] = []
    dataset = _load_dataset(args.dataset, args.keep_going, diagnostics)
    if dataset is None:
        _print_diagnostics(diagnostics)
        return EXIT_FATAL
    diagnostics.extend(dataset.validate())
    est = DesignEffortEstimator.fit(
        dataset,
        args.metrics,
        productivity_adjustment=not args.no_productivity,
        robust=not args.no_productivity,
    )
    diagnostics.extend(est.fit_diagnostics)
    print(f"estimator: {est.name}")
    for name, w in zip(est.metric_names, est.weights):
        print(f"  w[{name}] = {w:.6g}")
    print(f"  sigma_eps = {est.sigma_eps:.3f}")
    if est.has_productivity_adjustment:
        print(f"  sigma_rho = {est.sigma_rho:.3f}")
        for team, rho in sorted(est.productivities.items()):
            print(f"  rho[{team}] = {rho:.3f}")
    crit = est.criteria
    print(f"  AIC = {crit.aic:.1f}   BIC = {crit.bic:.1f}")
    if est.degraded:
        print(f"  fitter = {est.fitter_name} (degraded)")
    _print_diagnostics(diagnostics)
    return _exit_code(diagnostics, strict=args.strict)


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimator import DesignEffortEstimator

    diagnostics: list[Diagnostic] = []
    dataset = _load_dataset(args.dataset, args.keep_going, diagnostics)
    if dataset is None:
        _print_diagnostics(diagnostics)
        return EXIT_FATAL
    metrics = {}
    for pair in args.metric:
        name, _, value = pair.partition("=")
        if not value:
            print(f"error: metric {pair!r} is not name=value", file=sys.stderr)
            return EXIT_FATAL
        metrics[name] = float(value)
    est = DesignEffortEstimator.fit(dataset, sorted(metrics), robust=True)
    diagnostics.extend(est.fit_diagnostics)
    median = est.estimate(metrics, team=args.team)
    lo, hi = est.interval(metrics, team=args.team)
    team = args.team or "(rho = 1)"
    print(f"median effort estimate for {team}: {median:.2f} person-months")
    print(f"90% confidence interval: ({lo:.2f}, {hi:.2f})")
    if est.degraded:
        print(f"fitter = {est.fitter_name} (degraded)")
    _print_diagnostics(diagnostics)
    return _exit_code(diagnostics, strict=args.strict)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.analysis.evaluation import evaluate_estimators
    from repro.analysis.tables import render_table4

    diagnostics: list[Diagnostic] = []
    dataset = _load_dataset(args.dataset, args.keep_going, diagnostics)
    if dataset is None:
        _print_diagnostics(diagnostics)
        return EXIT_FATAL
    result = evaluate_estimators(dataset)
    diagnostics.extend(result.diagnostics)
    print(render_table4(result))
    _print_diagnostics(diagnostics)
    if result.degraded:
        return EXIT_FATAL if args.strict else EXIT_DEGRADED
    return _exit_code(diagnostics, strict=args.strict)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reportgen import generate_report

    diagnostics: list[Diagnostic] = []
    dataset = (
        _load_dataset(args.dataset, args.keep_going, diagnostics)
        if args.dataset
        else None
    )
    if args.dataset and dataset is None:
        _print_diagnostics(diagnostics)
        return EXIT_FATAL
    text = generate_report(
        dataset, include_ablation=args.ablation,
        include_flow=args.flow_metrics,
        jobs=args.jobs, cache=_cache_from_args(args),
    )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text)
    _print_diagnostics(diagnostics)
    return _exit_code(diagnostics, strict=args.strict)


def _cmd_gen(args: argparse.Namespace) -> int:
    import json

    from repro.gen import generate_corpus
    from repro.hdl.source import VERILOG, VHDL

    languages = ((VERILOG, VHDL) if args.language == "both"
                 else (args.language,))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, dict] = {}
    for language in languages:
        corpus = generate_corpus(language, args.count, seed=args.seed)
        for gm in corpus:
            for source in gm.sources:
                (out / source.name).write_text(source.text, encoding="utf-8")
            manifest[gm.name] = {
                "language": gm.language,
                "files": [s.name for s in gm.sources],
                "top": gm.name,
                "tiles": list(gm.tile_kinds),
                "truth": gm.truth,
            }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps({"seed": args.seed, "modules": manifest}, indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(manifest)} modules ({' + '.join(languages)}) "
          f"and {manifest_path}")
    return EXIT_OK


def _explain_rule(code: str) -> int:
    """Print one rule's catalog entry; unknown codes exit 2."""
    from repro.lint.rules import RULES

    rule = RULES.get(code.strip().upper())
    if rule is None:
        print(
            f"error: unknown lint rule {code!r}; known rules: "
            f"{', '.join(sorted(RULES))}",
            file=sys.stderr,
        )
        return EXIT_FATAL
    print(f"{rule.code} ({rule.name})")
    print(f"  severity:    {rule.severity.name}")
    print(f"  scope:       {rule.scope}")
    print(f"  description: {rule.description}")
    print(f"  hint:        {rule.hint}")
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintConfig,
        LintConfigError,
        discover_config,
        load_config,
        write_baseline,
    )

    if args.explain:
        return _explain_rule(args.explain)
    if not args.files:
        print("error: no input files (or use --explain RULE)", file=sys.stderr)
        return EXIT_FATAL

    read_errors: list[Diagnostic] = []
    sources = []
    for path in args.files:
        try:
            sources.append(SourceFile.from_path(path))
        except Exception as exc:  # noqa: BLE001 -- quarantine unreadable files
            read_errors.append(Diagnostic.from_exception(exc, "parse"))
    try:
        if args.config:
            config = load_config(args.config)
        elif args.no_config:
            config = LintConfig()
        else:
            config = discover_config(args.files[0] if args.files else ".")
    except LintConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    only = args.rules.split(",") if args.rules else None
    disable = args.disable.split(",") if args.disable else ()
    config = config.with_rules(only=only, disable=disable)

    report = _engine_from_args(args).lint(sources, config)
    if args.write_baseline:
        count = write_baseline(report.findings, args.write_baseline)
        print(f"baseline written to {args.write_baseline}: "
              f"{count} suppression(s)")
        return EXIT_OK
    for finding in report.findings:
        print(finding.to_diagnostic().render())
    _print_diagnostics(list(read_errors) + list(report.errors))
    print(report.summary())
    if read_errors or report.errors:
        return EXIT_FATAL
    if report.findings:
        return EXIT_FATAL if args.strict else EXIT_DEGRADED
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.gen import run_selftest

    report = run_selftest(
        modules_per_language=args.modules,
        seed=args.seed,
        jobs=args.jobs,
        recovery_datasets=args.datasets,
        recovery_bootstrap=args.bootstrap,
        skip_recovery=args.skip_recovery,
        progress=(None if args.quiet
                  else lambda msg: print(f"  .. {msg}", file=sys.stderr)),
    )
    print(report.render())
    return EXIT_OK if report.ok else EXIT_FATAL


def _cmd_timings(args: argparse.Namespace) -> int:
    try:
        rows = obs.read_jsonl(args.file)
    except OSError as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return EXIT_FATAL
    print(obs.render_timings_rows(rows, top=args.top))
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import attrib, timeline

    try:
        rows = obs.read_jsonl(args.file)
    except OSError as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return EXIT_FATAL
    spans = attrib.span_rows(rows)
    if not spans:
        print("error: trace contains no finished spans", file=sys.stderr)
        return EXIT_FATAL

    rollups = attrib.rollup(rows)
    total_self = sum(r.self_s for r in rollups)
    print(f"== self time by span name (top {args.top}) ==")
    print(f"{'span':<28} {'count':>6} {'self':>10} {'total':>10} {'self%':>6}")
    for r in rollups[: args.top]:
        share = r.self_s / total_self * 100 if total_self > 0 else 0.0
        err = f"  {r.errors} err" if r.errors else ""
        print(f"{r.name:<28} {r.count:>6} {r.self_s:>9.3f}s "
              f"{r.total_s:>9.3f}s {share:>5.1f}%{err}")

    path = attrib.critical_path(rows)
    if path:
        print("\n== critical path ==")
        for depth, step in enumerate(path):
            print(f"{'  ' * depth}{step.name}  "
                  f"{step.wall_s:.3f}s (self {step.self_s:.3f}s)")

    bd = timeline.breakdown(rows)
    if bd is not None:
        print("\n== supervised pool ==")
        print(f"wall {bd.wall_s:.3f}s x {bd.jobs} jobs = "
              f"capacity {bd.capacity_s:.3f} worker-seconds")
        print(f"utilization {bd.utilization * 100:.1f}%   "
              f"serialization share {bd.serialization_share * 100:.2f}%")
        for category, fraction in bd.fractions().items():
            print(f"  {category:<14} {fraction * 100:5.1f}%")
        ser = attrib.serialization_summary(rows)
        print(f"serialization detail: pickle {ser.pickle_s:.3f}s, "
              f"unpickle {ser.unpickle_s:.3f}s, "
              f"worker unpickle {ser.worker_unpickle_s:.3f}s, "
              f"{ser.total_bytes / 1024:.0f} KiB transferred")
        print("\n== worker timeline ==")
        for line in timeline.gantt_lines(rows, width=args.width):
            print(f"  {line}")
    else:
        print("\n(no supervised pool in this trace: sequential run)")

    if args.flame:
        out = attrib.write_flamegraph(rows, args.flame)
        print(f"\nflamegraph (collapsed stacks) written to {out}",
              file=sys.stderr)
    if args.chrome_trace:
        out = timeline.write_chrome_trace(rows, args.chrome_trace)
        print(f"chrome trace (Perfetto) written to {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.obs import benchdiff

    try:
        if args.record is not None:
            source = args.file or BENCH_OBS
            if Path(source).resolve() == Path(BENCH_BASELINE).resolve():
                raise ValueError(
                    f"{source} is the baseline itself; --record copies a "
                    f"session history such as ./{BENCH_OBS} into it"
                )
            history = benchdiff.load_bench_obs(source)["history"]
            if not history:
                raise ValueError(f"{source}: no session to record")
            entry = benchdiff.record_baseline(
                history[-1], BENCH_BASELINE, args.record
            )
            print(f"recorded {len(entry['series'])} series as change "
                  f"{entry['pr']} ({entry['machine']}) in {BENCH_BASELINE}")
            return EXIT_OK
        config = benchdiff.load_config(args.config)
        data = benchdiff.load_bench_obs(args.file or BENCH_BASELINE)
        report = benchdiff.diff_history(data, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    print(benchdiff.render_report(report, verbose=args.verbose))
    return EXIT_OK if report.ok else EXIT_DEGRADED


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import exec as rexec
    from repro.serve import ServeConfig, ServeSession, serve_forever

    engine = _engine_from_args(args, handle_signals=False)
    # A previous forced shutdown in this process may have left the
    # cross-thread interrupt latched; a fresh daemon starts clean.
    rexec.clear_interrupt()
    session = ServeSession(engine)
    config = ServeConfig(
        host=args.host, port=args.port, grace_s=args.grace,
    )

    def _ready(server) -> None:
        print(
            f"listening on http://{server.config.host}:{server.port}",
            flush=True,
        )

    return serve_forever(session, config, ready=_ready)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucomplexity",
        description="uComplexity processor design-effort estimation",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--strict", action="store_true",
        help="treat any degradation (quarantined inputs, fallback fitters, "
             "unverified convergence) as a failure: exit 2 instead of 1",
    )
    common.add_argument(
        "--keep-going", action="store_true",
        help="quarantine malformed dataset rows (with diagnostics) instead "
             "of aborting the run",
    )
    common.add_argument(
        "--trace", metavar="FILE",
        help="write a JSONL trace of the run (spans, fit iterations, "
             "metrics snapshot) to FILE; render later with "
             "'ucomplexity timings FILE'",
    )
    common.add_argument(
        "--profile", action="store_true",
        help="print a timings report (slowest spans, per-stage totals, "
             "counters) to stderr at exit",
    )
    common.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="measure components/specializations across N worker processes "
             "(default 1: sequential); results are identical either way",
    )
    common.add_argument(
        "--cache-dir", metavar="DIR",
        help="directory for the content-addressed synthesis cache "
             "(default: $XDG_CACHE_HOME/ucomplexity); entries are keyed on "
             "source text, so edits invalidate automatically",
    )
    common.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk synthesis cache for this run",
    )
    # Removed option, kept hidden so that old scripts get a clear exit 2.
    common.add_argument("--journal", metavar="FILE", help=argparse.SUPPRESS)
    common.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-task deadline in seconds for --jobs workers; a task that "
             "overruns is killed and retried, then quarantined "
             "(default 120; 0 disables)",
    )
    common.add_argument(
        "--worker-mem-mb", type=int, default=None, metavar="N",
        help="address-space headroom per --jobs worker, in MiB, on top of "
             "what the worker inherits at start; a task that exceeds it "
             "fails cleanly and is retried, then quarantined",
    )
    common.add_argument(
        "--progress", action="store_true",
        help="repaint a live heartbeat line (tasks done, rate, ETA) on "
             "stderr during --jobs runs",
    )
    common.add_argument(
        "--chunk", type=int, default=None, metavar="N",
        help="max tasks batched into one --jobs dispatch message "
             "(default: adaptive -- the ready queue spread over idle "
             "workers, capped at 16); 1 restores per-task dispatch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "measure", help="measure a component's metrics", parents=[common]
    )
    p.add_argument("files", nargs="*", help="HDL source files (.v / .vhd)")
    p.add_argument("--top", help="top module/entity name (required with FILES)")
    p.add_argument(
        "--catalog", metavar="DIR",
        help="measure every module of a generated catalog directory "
             "(reads DIR/manifest.json, as written by 'ucomplexity gen'); "
             "mutually exclusive with FILES",
    )
    p.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="with --catalog: measure only the first N modules",
    )
    p.add_argument(
        "--no-accounting", action="store_true",
        help="disable the Section 2.2 accounting procedure",
    )
    p.add_argument(
        "--lint", action=argparse.BooleanOptionalAction, default=False,
        help="audit the catalog against the ACC accounting rules before "
             "measuring; violations become WARNING diagnostics",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("fit", help="fit an effort estimator", parents=[common])
    p.add_argument(
        "--dataset", help="effort CSV (default: the paper's Table 4 data)"
    )
    p.add_argument(
        "--metrics", nargs="+", default=["Stmts", "FanInLC"],
        help="metric columns to combine (default: DEE1's Stmts FanInLC)",
    )
    p.add_argument(
        "--no-productivity", action="store_true",
        help="fit the rho=1 model of Section 3.2",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "estimate", help="estimate a component's effort", parents=[common]
    )
    p.add_argument("--dataset", help="effort CSV used for calibration")
    p.add_argument(
        "--metric", action="append", required=True,
        metavar="NAME=VALUE", help="a measured metric (repeatable)",
    )
    p.add_argument("--team", help="apply this team's fitted productivity")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "evaluate", help="regenerate the Table 4 accuracy rows",
        parents=[common],
    )
    p.add_argument("--dataset", help="effort CSV (default: paper data)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "report", help="full reproduction report (all tables and figures)",
        parents=[common],
    )
    p.add_argument("--dataset", help="effort CSV (default: paper data)")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.add_argument(
        "--ablation", action="store_true",
        help="include the Figure 6 ablation (measures the bundled designs)",
    )
    p.add_argument(
        "--flow-metrics", action="store_true",
        help="score the dataflow metric families against DEE1 "
             "(measures the bundled designs)",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "gen", help="generate a synthetic HDL corpus with known metrics",
        parents=[common],
    )
    p.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory for the generated sources and manifest.json",
    )
    p.add_argument(
        "--language", choices=["verilog", "vhdl", "both"], default="both",
        help="which front end(s) to target (default: both)",
    )
    p.add_argument(
        "--count", type=int, default=50, metavar="N",
        help="modules per language (default 50)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="corpus seed; module i depends only on (seed, i)",
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "lint",
        help="audit HDL files against the Section 2.2 accounting procedure",
        parents=[common],
    )
    p.add_argument("files", nargs="*", help="HDL source files (.v / .vhd)")
    p.add_argument(
        "--explain", metavar="RULE",
        help="print a rule's description, severity, and fix hint "
             "(e.g. --explain W005) and exit",
    )
    p.add_argument(
        "--config", metavar="FILE",
        help="lint configuration TOML (default: the nearest "
             ".ucomplexity-lint.toml at or above the first input file)",
    )
    p.add_argument(
        "--no-config", action="store_true",
        help="ignore any .ucomplexity-lint.toml (all rules, defaults)",
    )
    p.add_argument(
        "--rules", metavar="CODES",
        help="comma-separated rule codes to run exclusively "
             "(e.g. ACC001,ACC002,ACC003)",
    )
    p.add_argument(
        "--disable", metavar="CODES",
        help="comma-separated rule codes to skip (e.g. W004)",
    )
    p.add_argument(
        "--write-baseline", metavar="FILE",
        help="instead of failing, write the current findings to FILE as "
             "[[suppress]] entries and exit 0",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "selftest",
        help="check the pipeline against generated ground truth",
        parents=[common],
    )
    p.add_argument(
        "--modules", type=int, default=50, metavar="N",
        help="generated modules per language for the differential oracle "
             "(default 50)",
    )
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument(
        "--datasets", type=int, default=14, metavar="N",
        help="replicate datasets in the recovery study (default 14)",
    )
    p.add_argument(
        "--bootstrap", type=int, default=50, metavar="N",
        help="bootstrap replicates per dataset for CI coverage "
             "(default 50; 0 skips coverage)",
    )
    p.add_argument(
        "--skip-recovery", action="store_true",
        help="skip the (slower) fitter recovery study",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines on stderr",
    )
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser(
        "timings", help="render the timings report from a --trace JSONL file",
        parents=[common],
    )
    p.add_argument("file", help="JSONL trace written by a --trace run")
    p.add_argument(
        "--top", type=int, default=10, help="slowest spans to show (default 10)"
    )
    p.set_defaults(func=_cmd_timings)

    p = sub.add_parser(
        "profile",
        help="attribute a --trace run's wall-clock: rollups, critical "
             "path, worker utilization, flamegraph/Perfetto exports",
        parents=[common],
    )
    p.add_argument("file", help="JSONL trace written by a --trace run")
    p.add_argument(
        "--top", type=int, default=10,
        help="span names to show in the self-time table (default 10)",
    )
    p.add_argument(
        "--width", type=int, default=60,
        help="character width of the worker Gantt lanes (default 60)",
    )
    p.add_argument(
        "--flame", metavar="FILE",
        help="write collapsed-stack flamegraph lines to FILE (render with "
             "flamegraph.pl or load into speedscope.app)",
    )
    p.add_argument(
        "--chrome-trace", metavar="FILE",
        help="write Chrome trace-event JSON to FILE (load at "
             "ui.perfetto.dev or chrome://tracing)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "bench-diff",
        help="diff the latest benchmark session against its history; "
             "exit 1 on a tolerance breach",
        parents=[common],
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="benchmark history file (default: the tracked baseline "
             f"./{BENCH_BASELINE}, or with --record the local "
             f"per-session history ./{BENCH_OBS})",
    )
    p.add_argument(
        "--record", type=int, metavar="N", default=None,
        help="instead of diffing, append FILE's latest session to the "
             f"tracked baseline ./{BENCH_BASELINE} as change N "
             "(replacing an earlier entry for N); the baseline itself "
             "is refused as FILE",
    )
    p.add_argument(
        "--config", metavar="FILE", default=None,
        help="TOML tolerance config ([benchdiff] table; default: built-in "
             "tolerances)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="list every key's verdict, not just regressions/improvements",
    )
    p.set_defaults(func=_cmd_bench_diff)

    p = sub.add_parser(
        "serve",
        help="run the measurement pipeline as a long-lived HTTP/JSON "
             "service (POST /measure, /lint, /estimate; GET /healthz, "
             "/metrics)",
        parents=[common],
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8321, metavar="N",
        help="listen port (default 8321; 0 picks a free port, announced "
             "on stdout)",
    )
    p.add_argument(
        "--grace", type=float, default=30.0, metavar="S",
        help="seconds to let in-flight requests finish on SIGINT/SIGTERM "
             "before the worker pool is interrupted (default 30)",
    )
    p.add_argument(
        "--chaos", metavar="FILE",
        help="test-only fault-injection plan: JSON mapping task labels to "
             "repro.runtime.faultinject invocations, applied to the "
             "daemon's worker pool",
    )
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "journal", None) is not None:
        print("error: --journal was removed; the cache (--cache-dir, on by "
              "default) is the resume mechanism: re-run with the same "
              "--cache-dir", file=sys.stderr)
        return EXIT_FATAL
    # Imported before the tracer's clock starts: a cold import here would
    # sit in the trace's elapsed time but in no span.
    from repro.exec import RunInterrupted

    # Only a run whose telemetry is read gets a tracer: an active tracer
    # keeps every span (a daemon's list grows per request), makes fits
    # record a FitTrace and pool workers ship their spans back.
    tracer = obs.Tracer() if args.trace or args.profile else None
    obs.reset_metrics()
    if tracer is not None:
        obs.activate(tracer)

    try:
        try:
            with obs.span(f"cli.{args.command}"):
                return args.func(args)
        except RunInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
        except Exception as exc:  # noqa: BLE001 -- last-resort fatal mapping
            _print_diagnostics([Diagnostic.from_exception(exc, args.command,
                                                          severity=Severity.FATAL)])
            return EXIT_FATAL
    finally:
        if tracer is not None:
            obs.deactivate()
            report = obs.RunReport.collect(tracer)
            if args.trace:
                report.write_jsonl(args.trace)
                print(f"trace written to {args.trace}", file=sys.stderr)
            if args.profile:
                print(report.render_timings(), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
