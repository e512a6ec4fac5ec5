"""Chunked dispatch and the worker-context contract (repro.exec).

The pure pieces (context immutability, policy validation, parent-side
installation) are tier-1; the classes that drive real worker processes
carry the ``par`` marker like the rest of the pool suite.
"""

import pickle

import pytest

from repro.exec import (
    AUTO_CHUNK_CAP,
    SupervisionPolicy,
    Supervisor,
    TaskOutcome,
    WorkerContext,
    require_worker_context,
    using_context,
    worker_context,
)
from repro.obs import metrics as obs_metrics

_FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.05)


def square_task(x):
    return TaskOutcome(value=x * x)


def context_task(x):
    ctx = require_worker_context()
    return TaskOutcome(value=x * x + ctx["offset"])


def flaky_task(x):
    if x == 3:
        raise ValueError("injected failure")
    return TaskOutcome(value=x)


class TestWorkerContext:
    def test_values_are_read_only(self):
        ctx = WorkerContext(values={"a": 1})
        assert ctx["a"] == 1
        assert ctx.get("missing", 9) == 9
        with pytest.raises(TypeError):
            ctx.values["a"] = 2

    def test_frozen(self):
        ctx = WorkerContext(values={"a": 1})
        with pytest.raises(AttributeError):
            ctx.values = {}

    def test_pickle_roundtrip(self):
        ctx = WorkerContext(values={"a": 1})
        clone = pickle.loads(pickle.dumps(ctx))
        assert dict(clone.values) == {"a": 1}
        with pytest.raises(TypeError):
            clone.values["a"] = 2


class TestParentSideContext:
    def test_no_context_by_default(self):
        assert worker_context() is None
        with pytest.raises(RuntimeError, match="context"):
            require_worker_context()

    def test_using_context_scopes_installation(self):
        ctx = WorkerContext(values={"offset": 5})
        with using_context(ctx):
            assert require_worker_context() is ctx
        assert worker_context() is None

    def test_using_none_is_a_noop(self):
        with using_context(None):
            assert worker_context() is None


class TestPolicyChunkSize:
    def test_default_is_adaptive(self):
        assert SupervisionPolicy().chunk_size is None
        assert AUTO_CHUNK_CAP >= 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="chunk_size"):
            SupervisionPolicy(chunk_size=bad)

    def test_accepts_explicit_size(self):
        assert SupervisionPolicy(chunk_size=5).chunk_size == 5


@pytest.mark.par
class TestChunkedDispatch:
    def _run(self, task, payloads, jobs=2, **knobs):
        policy = SupervisionPolicy(**{**_FAST, **knobs})
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            outcomes = Supervisor(jobs, policy).run(task, payloads)
        return outcomes, registry.snapshot()["counters"]

    def test_explicit_chunks_preserve_results(self):
        outcomes, counters = self._run(
            square_task, list(range(12)), jobs=2, chunk_size=3
        )
        assert [o.value for o in outcomes] == [i * i for i in range(12)]
        assert counters["exec.dispatched"] == 12.0
        assert counters["exec.payload_bytes"] > 0

    def test_adaptive_chunks_preserve_results(self):
        outcomes, counters = self._run(square_task, list(range(8)), jobs=4)
        assert [o.value for o in outcomes] == [i * i for i in range(8)]
        assert counters["exec.dispatched"] == 8.0

    def test_context_reaches_every_worker(self):
        ctx = WorkerContext(values={"offset": 7})
        policy = SupervisionPolicy(**_FAST, chunk_size=2)
        outcomes = Supervisor(2, policy).run(
            context_task, list(range(6)), context=ctx
        )
        assert [o.value for o in outcomes] == [i * i + 7 for i in range(6)]

    def test_failure_mid_chunk_spares_chunkmates(self):
        outcomes, _ = self._run(
            flaky_task, list(range(8)), jobs=2, chunk_size=4, max_retries=0
        )
        for i, outcome in enumerate(outcomes):
            if i == 3:
                assert outcome.value is None
                assert outcome.diagnostics
            else:
                assert outcome.value == i
