#!/usr/bin/env python3
"""The repository benchmark: measure, lint, fit and serve, end to end.

Usage (from the repository root)::

    python3 ucbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

One run builds the workload's inputs from ``--seed``, measures its set-up
time, then repeats rounds of every step until ``--seconds`` have passed:

1. cold ``measure`` at jobs=1 on an empty cache,
2. cold ``measure`` at jobs=nproc on an empty cache (pool spawn included),
3. warm ``measure`` on the cache step 1 filled,
4. cold and warm ``lint``,
5. the effort fit,
6. a ``ucomplexity serve`` daemon on a fresh cache: every served component
   requested once (cold), then warm repeats over one connection for the
   latencies, then the same warm requests over nproc connections for the
   throughput.

Every output is checked against an oracle (``corpora.py``).  The bounded
end-to-end metrics are CPU costs scaled to a reference CPU speed,
because on a shared host wall time swings with the CPU time the
hypervisor steals and CPU time with the load other tenants put on the
same cores (README.md, ``speed.py``); their wall clock twins are printed
too and reported, unbounded, by the traced run.
Each metric is the median of its samples over the rounds (warm steps give
one sample per pass; latency percentiles pool every request).  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` the same rounds run with the layer wrappers of
``layers.py`` installed and the last line holds the per-layer metrics.
The exit code is 0 only when every oracle passed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported anywhere (the pool
# workers and the daemon inherit the environment), so the spectral
# solves cost the same on every runner.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
SCRATCH = ROOT / ".ucbench_tmp"

#: Set-up samples per run (each a fresh interpreter building an Engine).
SETUP_REPEATS = 5
#: Minimum wall time spent on each warm step per round; warm passes are
#: short, so each is repeated until this much time has been measured.
WARM_MIN_S = 0.25
#: Warm requests per round, for latency and again for throughput.
SERVE_WARM_REQUESTS = 300

_SETUP_SNIPPET = """
import sys
from repro.cache import SynthesisCache
from repro.core.engine import Engine
Engine(cache=SynthesisCache(sys.argv[1]), jobs=1)
"""

#: The bounded end-to-end metrics and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "measure_cold_cpu_s": "s",
    "measure_cold_pool_cpu_s": "s",
    "measure_warm_cpu_s": "s",
    "lint_cold_cpu_s": "s",
    "lint_warm_cpu_s": "s",
    "fit_cpu_s": "s",
    "serve_setup_cpu_s": "s",
    "serve_cold_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Wall-clock twins, unbounded: printed by every run, reported by the
#: traced run.
WALL_UNITS = {
    "wall.setup_s": "s",
    "wall.measure_cold_s": "s",
    "wall.measure_cold_pool_s": "s",
    "wall.measure_warm_s": "s",
    "wall.lint_cold_s": "s",
    "wall.lint_warm_s": "s",
    "wall.fit_s": "s",
    "wall.serve_setup_s": "s",
    "wall.serve_cold_p50_ms": "ms",
    "wall.serve_cold_p90_ms": "ms",
    "wall.serve_warm_p50_ms": "ms",
    "wall.serve_warm_p90_ms": "ms",
    "wall.serve_rps": "1/s",
    "sys.measure_cold_s": "s",
    "sys.measure_cold_pool_s": "s",
    "sys.lint_cold_s": "s",
    "host.steal_ratio": "ratio",
    "host.slowdown": "ratio",
}

#: Program counters reported by the traced run (summed over the jobs=1
#: steps of one round).
COUNTERS = (
    "hdl.tokens_lexed",
    "hdl.files_parsed",
    "elab.elaborations",
    "synth.specializations",
    "flow.dfg_builds",
    "lint.modules",
    "fit.attempts",
    "fit.fallback_activations",
)
_CACHE_COUNTERS = (
    "cache.hits", "cache.misses", "cache.measure_hits",
    "cache.measure_misses", "cache.lint_hits", "cache.lint_misses",
)

#: Traced-run metrics sampled once per round, with their units.
_ROUND_UNITS = {
    "exec.spawn_s": "s", "exec.queue_wait_s": "s", "exec.pickle_s": "s",
    "exec.dispatched": "count", "exec.payload_bytes": "B",
    "exec.result_bytes": "B", "exec.worker_busy_ratio": "ratio",
    "serve.server_s": "s", "serve.client_overhead_s": "s",
    "serve.batch_size": "count",
    "serve.warm_cpu_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.measure_cold_coverage": "ratio",
}


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def cpu_times() -> tuple[float, float]:
    """User and kernel CPU seconds of this process plus the children it
    has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime


def host_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine so far."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def fingerprint() -> dict[str, Any]:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


class Bench:
    """One run: a corpus, a scratch directory and the samples taken."""

    def __init__(self, corpus, workdir: Path, speed, tracer=None) -> None:
        from corpora import Tally

        self.corpus = corpus
        self.workdir = workdir
        self.speed = speed
        self.cpus = speed.cpus
        #: The CPU this process is pinned to outside ``spread_out``.
        self.home = self.cpus[0]
        self.jobs = len(self.cpus)
        self.tracer = tracer
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {}
        self.layer_rounds: list[dict[str, float]] = []
        #: Traced runs: the cold jobs=1 measure step of every round alone.
        self.cold_phases: list[dict[str, float]] = []
        self._caches = 0

    # -- helpers ----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self, step: str, wall: float, user: float,
               kernel: float) -> None:
        self.add(f"{step}_cpu_s", user)
        self.add(f"wall.{step}_s", wall)
        self.add(f"sys.{step}_s", kernel)

    def fresh_cache(self):
        from repro.cache import SynthesisCache

        self._caches += 1
        return SynthesisCache(self.workdir / f"cache{self._caches}")

    def clear_round(self) -> None:
        """Delete the round's caches and daemon directory, so every round
        writes into a file system holding as little as the first."""
        for path in self.workdir.iterdir():
            if path.name.startswith(("cache", "serve")):
                shutil.rmtree(path, ignore_errors=True)

    @contextlib.contextmanager
    def spread_out(self):
        """Let this process, and the pool workers and daemon it starts,
        use every CPU.  Outside this block it stays on ``home``, so the
        jobs=1 steps run on the CPU whose speed scales them."""
        os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self.home})

    def _scale(self, t0: float) -> float:
        """Reference-speed factor for work done since monotonic ``t0`` on
        the CPUs this process may use now (``speed.py``)."""
        return self.speed.scale(
            t0, time.monotonic(), sorted(os.sched_getaffinity(0))
        )

    def _step(self, layer_totals: dict[str, float] | None, fn,
              settle: bool = True):
        """Run ``fn``; returns ``(result, wall seconds, user CPU seconds
        at the reference speed, kernel CPU seconds)``.

        ``settle`` first collects the garbage earlier steps left, so each
        step starts from a heap like a fresh CLI process would.  With a
        layer tracer installed and ``layer_totals`` given, the step is
        traced and its layer self times and counters are added there.
        """
        if settle:
            gc.collect()
        t0 = time.monotonic()
        out, wall, user, kernel = self._timed(layer_totals, fn)
        return out, wall, user * self._scale(t0), kernel

    def _timed(self, layer_totals: dict[str, float] | None, fn):
        u0, k0 = cpu_times()
        if self.tracer is None or layer_totals is None:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
            u1, k1 = cpu_times()
            return out, wall, u1 - u0, k1 - k0
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry), self.tracer.phase() as phase:
            out = fn()
        u1, k1 = cpu_times()
        for key, value in phase.items():
            layer_totals[key] = layer_totals.get(key, 0.0) + value
        counters = registry.snapshot()["counters"]
        for key in COUNTERS + _CACHE_COUNTERS:
            layer_totals[key] = layer_totals.get(key, 0.0) + counters.get(
                key, 0.0
            )
        return out, phase["wall_s"], u1 - u0, k1 - k0

    def _repeat(self, step: str, layers, fn, min_passes: int = 3):
        """``_step`` repeated for at least ``WARM_MIN_S`` and
        ``min_passes`` passes, each pass recorded as a sample of
        ``step``; returns the last result.

        Every pass is scaled by the speed of its own window, and the
        run's figure is the median over all passes of all rounds, so a
        short step gets hundreds of samples where a cold step gets one
        per round.  A traced run traces only the first pass, so
        per-layer totals do not depend on how many passes fit in the
        time.
        """
        spent, passes, out = 0.0, 0, None
        gc.collect()
        while spent < WARM_MIN_S or passes < min_passes:
            out, wall, user, kernel = self._step(
                layers if not passes else None, fn, settle=False
            )
            self.record(step, wall, user, kernel)
            spent += wall
            passes += 1
        return out

    def setup(self) -> None:
        """Time fresh interpreters building an Engine; they inherit the
        pin to ``home``.  ``setup_s`` is the interpreter's user CPU time,
        so hypervisor steal moves only ``wall.setup_s``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for i in range(SETUP_REPEATS):
            t0 = time.monotonic()
            user0, _ = cpu_times()
            subprocess.run(
                [sys.executable, "-c", _SETUP_SNIPPET,
                 str(self.workdir / f"setup{i}")],
                cwd=ROOT, env=env, check=True,
            )
            user1, _ = cpu_times()
            self.add("setup_s", (user1 - user0) * self._scale(t0))
            self.add("wall.setup_s", time.monotonic() - t0)

    def warm_up(self) -> None:
        """Finish lazy imports outside the timed region."""
        from repro.core.engine import Engine
        import repro.analysis.evaluation  # noqa: F401
        import repro.stats.robust  # noqa: F401

        engine = Engine(cache=None, jobs=1)
        engine.measure_components(self.corpus.specs[:2])
        engine.lint(list(self.corpus.specs[0].sources))
        # The corpus and the imported modules live for the whole run; a
        # CLI process would not hold the corpus, and full collections
        # that rescan it make the cost of a pass depend on whether one
        # fell inside it.
        gc.collect()
        gc.freeze()

    # -- one round ----------------------------------------------------------

    def round(self, index: int) -> None:
        from corpora import check_identical, check_lint, check_measurements
        from repro.core.engine import Engine

        corpus, tally = self.corpus, self.tally
        layers: dict[str, float] | None = (
            {} if self.tracer is not None else None
        )

        engine = Engine(cache=self.fresh_cache(), jobs=1)
        cold, *times = self._step(
            layers, lambda: engine.measure_components(corpus.specs).results
        )
        self.record("measure_cold", *times)
        check_measurements(corpus, cold, tally, "measure cold")
        if layers is not None:
            cold_phase = dict(layers)
            self.cold_phases.append(cold_phase)
            self.add(
                "trace.measure_cold_coverage",
                1.0 - cold_phase["engine.self_s"] / cold_phase["wall_s"],
            )
            untraced = Engine(cache=self.fresh_cache(), jobs=1)
            _, base, *_ = self._step(
                None, lambda: untraced.measure_components(corpus.specs)
            )
            self.add("trace.overhead_ratio", cold_phase["wall_s"] / base)

        with self.spread_out():
            pooled, *times = self._pool_pass()
        self.record("measure_cold_pool", *times)
        check_identical(cold, pooled, tally, "measure pool")

        warm = self._repeat(
            "measure_warm", layers,
            lambda: engine.measure_components(corpus.specs).results,
        )
        check_identical(cold, warm, tally, "measure warm")

        linter = Engine(cache=self.fresh_cache(), jobs=1)

        def lint_all():
            return [linter.lint(group) for group in corpus.lint_groups]

        lint_cold, *times = self._step(layers, lint_all)
        self.record("lint_cold", *times)
        check_lint(corpus, lint_cold, tally, "lint cold")
        lint_warm = self._repeat("lint_warm", layers, lint_all)
        for i, (a, b) in enumerate(zip(lint_cold, lint_warm)):
            tally.check(
                a == b,
                f"lint warm: group {i} differs from the cold audit",
            )

        self._repeat(
            "fit", layers, lambda: corpus.fit(cold, tally), min_passes=1
        )

        self._serve_round(index, cold, layers)
        if layers is not None:
            self.layer_rounds.append(layers)
        self.clear_round()

    def _pool_pass(self):
        """Cold jobs=nproc measurement; its CPU time includes the pool
        workers.  Traced runs read the program's own tracer and the worker
        timeline for the pool's costs."""
        from repro.core.engine import Engine

        engine = Engine(cache=self.fresh_cache(), jobs=self.jobs)
        specs = self.corpus.specs
        if self.tracer is None:
            return self._step(
                None, lambda: engine.measure_components(specs).results
            )
        from repro.obs import metrics as obs_metrics
        from repro.obs import timeline
        from repro.obs import trace as obs_trace

        registry = obs_metrics.MetricsRegistry()
        tracer = obs_trace.Tracer()
        gc.collect()
        with obs_metrics.using(registry), obs_trace.using(tracer):
            (u0, k0), t0 = cpu_times(), time.perf_counter()
            out = engine.measure_components(specs).results
            wall, (u1, k1) = time.perf_counter() - t0, cpu_times()
        snap = registry.snapshot()
        rows = tracer.to_rows(metrics=snap)
        hist = snap["histograms"]
        counters = snap["counters"]
        for name in ("exec.spawn_s", "exec.queue_wait_s", "exec.pickle_s"):
            self.add(name, hist.get(name, {}).get("sum", 0.0))
        for name in ("exec.dispatched", "exec.payload_bytes",
                     "exec.result_bytes"):
            self.add(name, counters.get(name, 0.0))
        bd = timeline.breakdown(rows)
        self.add("exec.worker_busy_ratio", bd.utilization if bd else 0.0)
        return out, wall, u1 - u0, k1 - k0

    def _serve_round(self, index: int, cold: dict[str, Any],
                     layers: dict[str, float] | None) -> None:
        """Serve the corpus with the daemon's default (recommended)
        accounting policy and check every answer in-process."""
        from dataclasses import replace

        from repro.core.accounting import AccountingPolicy
        from repro.core.engine import Engine
        from repro.serve import protocol
        from serveload import Daemon, closed_loop

        # The same components every round, so a run's median does not
        # depend on how many rounds fit in its time.
        specs = self.corpus.specs[:self.corpus.served_per_round]
        bodies = [
            json.dumps({
                "files": [{"name": s.name, "text": s.text}
                          for s in spec.sources],
                "top": spec.top,
                "name": spec.name,
            }).encode()
            for spec in specs
        ]
        policy = AccountingPolicy.recommended()
        reference = cold
        if any(spec.policy != policy for spec in specs):
            served = [replace(spec, policy=policy) for spec in specs]
            engine = Engine(cache=None, jobs=1)
            reference, *_ = self._step(
                layers, lambda: engine.measure_components(served).results
            )
        expected = []
        for spec in specs:
            _status, payload = protocol.measure_response(
                "", reference[spec.name]
            )
            payload.pop("request_id")
            expected.append(protocol.encode(payload))
        warm_index = [i % len(bodies) for i in range(SERVE_WARM_REQUESTS)]
        warm_bodies = [bodies[i] for i in warm_index]

        gc.collect()
        with self.spread_out():
            t0 = time.monotonic()
            daemon = Daemon.launch(ROOT, self.workdir / f"serve{index}",
                                   self.jobs)
            setup_scale = self._scale(t0)
            try:
                # Latencies come from one connection, so they measure the
                # request path rather than queueing behind the other
                # client; throughput comes from nproc connections.
                t0 = time.monotonic()
                cpu0 = daemon.cpu_s()
                cold_resp, _ = closed_loop(daemon.port, bodies, 1)
                cold_cpu = (daemon.cpu_s() - cpu0) * self._scale(t0)
                before = daemon.metrics()
                # Warm requests never reach the pool; the daemon's own
                # threads are the whole cost (and the last cold batch's
                # workers may be reaped inside this window).
                own0 = daemon.cpu_s(workers=False)
                warm_resp, _ = closed_loop(daemon.port, warm_bodies, 1)
                own1 = daemon.cpu_s(workers=False)
                after = daemon.metrics()
                load_resp, load_wall = closed_loop(
                    daemon.port, warm_bodies, self.jobs
                )
                final = daemon.metrics()
            finally:
                daemon.stop()
        self.add("serve_setup_cpu_s", daemon.setup_cpu_s * setup_scale)
        self.add("wall.serve_setup_s", daemon.setup_s)
        self.add("serve_cold_cpu_ms", cold_cpu / len(bodies) * 1e3)
        self.add("serve.warm_cpu_ms", (own1 - own0) / len(warm_bodies) * 1e3)
        self.add("wall.serve_rps", len(load_resp) / load_wall)

        for kind, responses, which in (
            ("cold", cold_resp, range(len(bodies))),
            ("warm", warm_resp, warm_index),
            ("load", load_resp, warm_index),
        ):
            for resp, i in zip(responses, which):
                if kind != "load":
                    self.add(f"serve_{kind}_latency_s", resp.latency_s)
                ok = resp.status == 200
                if ok:
                    got = json.loads(resp.body)
                    got.pop("request_id", None)
                    ok = protocol.encode(got) == expected[i]
                self.tally.check(
                    ok, f"serve {kind}: {specs[i].name} -> {resp.status}"
                )
            for _ in range(len(which) - len(responses)):
                self.tally.check(False, f"serve {kind}: response missing")

        if self.tracer is not None:
            def delta(a, b, name):
                h0, h1 = a["histograms"][name], b["histograms"][name]
                return h1["sum"] - h0["sum"], h1["count"] - h0["count"]

            total, n = delta(before, after, "serve.request_latency_s")
            server = total / n
            client = statistics.fmean(r.latency_s for r in warm_resp)
            self.add("serve.server_s", server)
            self.add("serve.client_overhead_s", client - server)
            total, n = delta(after, final, "serve.batch_size")
            self.add("serve.batch_size", total / n)

    # -- results ------------------------------------------------------------

    def medians(self, units: dict[str, str]) -> dict[str, float]:
        """Median of every sampled metric named in ``units``, plus the
        run-wide latency percentiles and peak memory."""
        s = self.samples
        values = {n: statistics.median(s[n]) for n in units if n in s}
        for kind in ("cold", "warm"):
            latencies = s[f"serve_{kind}_latency_s"]
            for p in (50, 90):
                values[f"wall.serve_{kind}_p{p}_ms"] = (
                    _percentile(latencies, p) * 1e3
                )
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return {n: values[n] for n in units if n in values}

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from layers import LAYERS

        rounds = self.layer_rounds
        out: dict[str, tuple[float, str]] = {}

        def med(key: str) -> float:
            return statistics.median(r.get(key, 0.0) for r in rounds)

        for layer in LAYERS:
            out[layer.metric] = (med(layer.metric), "s")
        out["engine.self_s"] = (med("engine.self_s"), "s")
        for name in COUNTERS:
            out[name] = (med(name), "count")
        hits = sum(med(k) for k in _CACHE_COUNTERS if "hits" in k)
        probes = sum(med(k) for k in _CACHE_COUNTERS)
        out["cache.hit_ratio"] = (hits / probes if probes else 0.0, "ratio")
        out["cache.probes"] = (probes, "count")
        for name, unit in _ROUND_UNITS.items():
            out[name] = (statistics.median(self.samples[name]), unit)
        return out


def print_cold_breakdown(phases: list[dict[str, float]]) -> None:
    """Per-layer self time of the cold jobs=1 measure step alone."""
    wall = statistics.median(p["wall_s"] for p in phases)
    shares = {
        key: statistics.median(p[key] for p in phases)
        for key in phases[0]
        if key.endswith("_s") and key != "wall_s"
    }
    print(f"cold measure step: {wall:.4f} s wall, self time by layer:")
    for key, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"  {key:34s} {value:10.4f} s {value / wall:7.1%}")


def run(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    from corpora import CORPORA
    from speed import SpeedMonitor

    corpus = CORPORA[args.workload](args.seed)
    cpus = sorted(os.sched_getaffinity(0))
    speed = SpeedMonitor(cpus, workdir)
    tracer = None
    try:
        if args.trace:
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        bench = Bench(corpus, workdir, speed, tracer)
        steal0, total0 = host_ticks()
        os.sched_setaffinity(0, {bench.home})
        bench.setup()
        bench.warm_up()
        # A round starts only if a round of the median length so far
        # still ends within --seconds, so a run measures for at most
        # that long (and always at least one round).
        t0 = time.perf_counter()
        lengths: list[float] = []
        while not lengths or (time.perf_counter() - t0
                              + statistics.median(lengths) <= args.seconds):
            start = time.perf_counter()
            bench.round(len(lengths))
            lengths.append(time.perf_counter() - start)
        rounds = len(lengths)
        steal1, total1 = host_ticks()
        bench.add("host.slowdown", statistics.median(speed.slowdowns()))
    finally:
        os.sched_setaffinity(0, cpus)
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
    bench.add("host.steal_ratio", (steal1 - steal0) / max(total1 - total0, 1))

    tally = bench.tally
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{len(bench.samples['serve_cold_latency_s'])} cold and "
          f"{len(bench.samples['serve_warm_latency_s'])} warm requests")
    print(f"error_rate {tally.error_rate:.6f} ({tally.failed} failed of "
          f"{tally.attempted} attempted)")
    for note in tally.notes:
        print(f"FAILED {note}")
    wall = {
        name: (value, WALL_UNITS[name])
        for name, value in bench.medians(WALL_UNITS).items()
    }
    if tracer is None:
        reported = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in bench.medians(END_TO_END_UNITS).items()
        }
        shown = {**reported, **wall}
    else:
        print_cold_breakdown(bench.cold_phases)
        reported = shown = {**bench.per_layer(), **wall}
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in reported.items()
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some metrics depend on set iteration order (see README.md), so
        # the benchmark, its pool workers and the daemon must share one
        # hash seed for their outputs to be comparable.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = SCRATCH / f"run{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every temporary file (pool blob stores included) inside the
    # checkout; children inherit TMPDIR.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
