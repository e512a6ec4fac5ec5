"""Supervised-execution benchmark: chaos completion.

``exec.chaos_completion_rate`` (tracked in BENCH_obs.json) is the fraction
of a fault-injected catalog that still completes with exact results (the
rest must be structured quarantines, not crashes).  Supervision overhead
is gated by ``parallel.speedup_jobs4`` and its hard 1.0 floor.
"""

import time

from repro.core.engine import Engine
from repro.exec import SupervisionPolicy
from repro.gen import corpus_specs, generate_corpus

JOBS = 4


def _catalog():
    modules = list(generate_corpus("verilog", 50, seed=3))
    modules += list(generate_corpus("vhdl", 50, seed=3))
    return modules, corpus_specs(modules)


def test_chaos_completion_rate(bench_series, report):
    modules, specs = _catalog()
    names = [gm.name for gm in modules]
    injured = {
        names[9]: ("hang",),
        names[33]: ("kill",),
        names[71]: ("kill",),
        names[88]: ("oom", 2048),
    }
    policy = SupervisionPolicy(
        deadline_s=2.0,
        memory_limit_mb=1024,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        poll_interval_s=0.05,
        chaos=injured,
    )
    t0 = time.perf_counter()
    batch = Engine(jobs=JOBS, supervision=policy).measure_components(specs)
    wall = time.perf_counter() - t0

    # Injured components quarantine; every healthy one completes exactly.
    assert set(batch.failures) == set(injured)
    truth = {gm.name: gm.truth for gm in modules}
    for name, measurement in batch.measurements.items():
        assert measurement.metrics["Stmts"] == truth[name]["Stmts"], name

    completion = len(batch.measurements) / len(specs)
    assert completion == (len(specs) - len(injured)) / len(specs)

    bench_series("exec.chaos_completion_rate", completion)
    report(
        "chaos completion (hang/kill/OOM injected)",
        f"{len(batch.measurements)}/{len(specs)} components completed "
        f"({completion:.0%}) in {wall:.2f}s; "
        f"{len(batch.failures)} structured quarantines",
    )
