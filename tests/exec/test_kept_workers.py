"""Kept workers: a supervisor's idle workers serve its next run.

A :class:`~repro.exec.Supervisor` keeps its idle live workers between
runs and reaps them on ``close()``.  One held supervisor running
different kinds of work back to back must give every run the outcomes
the same run gets on a fresh supervisor, byte for byte; a run that finds
idle workers forks none; a worker that ran out of memory is never kept;
a pool opened by a single call is joined before the call returns; and
``kill -TERM`` stops a kept worker, whose place the next run fills.
"""

import multiprocessing as mp
import os
import pickle
import signal
import socket

import pytest

from repro.core.engine import Engine
from repro.exec import SupervisionPolicy, Supervisor, TaskOutcome, run_pool
from repro.gen import corpus_specs, generate_corpus
from repro.hdl import ast, parse_source
from repro.hdl.source import VERILOG, VHDL
from repro.lint import LintConfig, lint_module
from repro.obs import metrics as obs_metrics

pytestmark = pytest.mark.par

_FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.05)

#: The plan names only the kill run's victim, so the other runs on the
#: same supervisor stay healthy.
_POLICY = SupervisionPolicy(chaos={"victim": ("kill",)}, **_FAST)

_SPECS = corpus_specs(
    generate_corpus(VERILOG, 3, seed=5) + generate_corpus(VHDL, 3, seed=6)
)
_MORE = corpus_specs(generate_corpus(VERILOG, 3, seed=7))


def square_task(x):
    return TaskOutcome(value=x * x)


def pid_task(_x):
    return TaskOutcome(value=os.getpid())


def _measure(engine, specs):
    # Pickled part by part, as in the pool-vs-sequential suites.
    results = engine.measure_components(specs).results
    return [pickle.dumps(result) for result in results.values()]


def _lint_step(inputs, index):
    return lint_module(inputs["design"], inputs["names"][index],
                       inputs["config"]), ()


def _module_run(engine):
    # Another pooled kind of work: a different step and context (one
    # task per module of a parsed design) on the same supervisor.
    design = ast.Design()
    for spec in _SPECS:
        for source in spec.sources:
            design = design.merge(parse_source(source))
    names = tuple(design.modules)
    outcomes = run_pool(
        _lint_step, {"design": design, "names": names, "config": LintConfig()},
        names, jobs=engine.jobs, supervisor=engine.supervisor,
    )
    return [pickle.dumps((o.value, o.error, o.diagnostics)) for o in outcomes]


def _kill_run(supervisor):
    outcomes = supervisor.run(
        square_task, [0, 1, 2, 3], labels=["t0", "victim", "t2", "t3"]
    )
    return [pickle.dumps((o.value, o.error, o.diagnostics)) for o in outcomes]


_RUNS = (
    lambda engine, sup: _measure(engine, _SPECS),
    lambda engine, sup: _module_run(engine),
    lambda engine, sup: _kill_run(sup),
    lambda engine, sup: _measure(engine, _MORE),
)


def _counters(registry):
    return registry.snapshot()["counters"]


def test_held_supervisor_runs_equal_fresh_runs():
    fresh = []
    for run in _RUNS:
        with Supervisor(2, _POLICY) as sup:
            fresh.append(run(Engine(jobs=2, supervisor=sup), sup))
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry), Supervisor(2, _POLICY) as sup:
        engine = Engine(jobs=2, supervisor=sup)
        held = [run(engine, sup) for run in _RUNS]
    assert held == fresh
    counters = _counters(registry)
    # Every run after the first found idle workers to reuse; the kill
    # run replaced the workers its victim took down by respawning.
    assert counters["exec.workers_reused"] >= len(_RUNS) - 1
    assert counters["exec.respawns"] >= 1
    assert mp.active_children() == []


def test_single_task_batches_fork_one_worker():
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry), Supervisor(2) as sup:
        engine = Engine(jobs=2, supervisor=sup)
        for spec in _MORE:
            engine.measure_components([spec], pool=True)
        assert len(mp.active_children()) == 1  # kept, warm
    snapshot = registry.snapshot()
    assert snapshot["histograms"]["exec.spawn_s"]["count"] == 1
    assert snapshot["counters"]["exec.workers_reused"] == len(_MORE) - 1
    assert mp.active_children() == []


def test_kept_worker_takes_the_next_runs_context():
    with Supervisor(1) as sup:
        first = sup.run(pid_task, [0, 1])
        second = sup.run(square_task, [3, 4])
    assert first[0].value == first[1].value  # one worker ran both
    assert [o.value for o in second] == [9, 16]


def test_kept_worker_holds_no_inherited_socket():
    # A worker forked while the parent held a connection must not keep
    # it open after the parent closes it (the daemon's client sockets).
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        accepted, _addr = listener.accept()
        with client, Supervisor(1) as sup:
            sup.run(square_task, [1])  # forks, then keeps, one worker
            accepted.close()
            client.settimeout(10)
            assert client.recv(1) == b""  # EOF reaches the peer


def test_a_call_without_a_supervisor_joins_its_pool():
    Engine(jobs=2).measure_components(_SPECS)
    assert mp.active_children() == []


@pytest.mark.chaos
def test_memory_error_retires_the_worker():
    policy = SupervisionPolicy(
        memory_limit_mb=1024, chaos={"hog": ("oom", 2048)}, **_FAST
    )
    pids = []
    with Supervisor(1, policy) as sup:
        for _ in range(2):
            registry = obs_metrics.MetricsRegistry()
            with obs_metrics.using(registry):
                healthy, hog = sup.run(pid_task, [0, 1], labels=["t0", "hog"])
            assert "MemoryError" in hog.diagnostics[0].message
            # The worker that ran t0 then hit the ceiling on hog was
            # replaced before the retry; every replacement hit it too,
            # so nothing is left to keep.
            assert _counters(registry)["exec.respawns"] >= 1
            assert "exec.workers_reused" not in _counters(registry)
            pids.append(healthy.value)
    assert pids[0] != pids[1]
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def _noop_handler(_signum, _frame):
    """Stands in for the handler asyncio installs in the serve daemon."""


@pytest.mark.parametrize("inherited", ["supervisor", "noop"])
def test_sigterm_stops_a_kept_worker_and_the_next_run_respawns(inherited):
    # A fork worker inherits the parent's SIGTERM handler: the
    # supervisor's flag-setter under ``handle_signals``, or a no-op one
    # like the daemon's.  Either way ``kill -TERM`` must stop it.
    policy = SupervisionPolicy(handle_signals=inherited == "supervisor",
                               **_FAST)
    fresh = _measure(Engine(), _SPECS)
    previous = signal.getsignal(signal.SIGTERM)
    if inherited == "noop":
        signal.signal(signal.SIGTERM, _noop_handler)
    try:
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry), Supervisor(2, policy) as sup:
            engine = Engine(jobs=2, supervisor=sup)
            assert _measure(engine, _SPECS) == fresh
            victim, survivor = mp.active_children()
            os.kill(victim.pid, signal.SIGTERM)
            victim.join(10)
            assert victim.exitcode == -signal.SIGTERM
            assert _measure(engine, _SPECS) == fresh
            assert survivor.is_alive()
            assert len(mp.active_children()) == 2
        snapshot = registry.snapshot()
    finally:
        signal.signal(signal.SIGTERM, previous)
    # Two forks for the first run, one to replace the victim; the
    # survivor served the second run warm.
    assert snapshot["histograms"]["exec.spawn_s"]["count"] == 3
    assert snapshot["counters"]["exec.workers_reused"] == 1
    assert mp.active_children() == []
