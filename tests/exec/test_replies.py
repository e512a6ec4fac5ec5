"""What a worker reply carries, and what it costs.

An ``ok`` reply holds the task's :class:`~repro.exec.TaskOutcome`; a
value the step already pickled for the cache travels as those very
bytes (:class:`~repro.exec.Pickled`), and the worker loop's own costs
ride as three plain numbers in the telemetry.  The pure pieces are
tier-1; the guards that drive real workers carry the ``par`` marker.
"""

import pickle

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.exec import Pickled, TaskOutcome, WorkerTelemetry, run_traced_task
from repro.exec.workers import WorkerHandle
from repro.gen import corpus_specs, generate_corpus
from repro.hdl.source import VERILOG, VHDL
from repro.obs import metrics as obs_metrics

#: Reply bytes a cold pooled task may add to the stored measurement it
#: ships: the envelope, the outcome's framing and its counters (~480 on
#: the batch below).  A reply that also folds two histograms into a full
#: registry dump costs ~690, so it fails this bound.
REPLY_OVERHEAD_BYTES = 640


def _specs():
    return corpus_specs(
        generate_corpus(VERILOG, 6, seed=3) + generate_corpus(VHDL, 6, seed=4)
    )


class TestOutcomePickling:
    def test_a_value_blob_travels_verbatim_and_loads_back(self):
        value = {"metrics": [1.5, 2.5], "name": "gm0"}
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        outcome = TaskOutcome(value=value, value_blob=blob)
        wire = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        assert blob in wire
        back = pickle.loads(wire)
        assert back.value == value and back.value_blob is None

    def test_without_a_blob_the_value_pickles_as_usual(self):
        outcome = TaskOutcome(value=7, diagnostics=(),
                              telemetry=WorkerTelemetry("b0.w1"))
        back = pickle.loads(pickle.dumps(outcome))
        assert back == outcome

    def test_telemetry_round_trips_with_its_costs(self):
        tel = WorkerTelemetry("b0.w1", {"counters": {"hdl.files_parsed": 1.0}},
                              [], (120, 1e-5, 0.25))
        assert pickle.loads(pickle.dumps(tel)) == tel

    def test_a_pickled_step_value_hands_its_bytes_to_the_outcome(self):
        blob = pickle.dumps("done")
        outcome = run_traced_task(
            lambda: (Pickled("done", blob), ()), "b0.w0", False
        )
        assert outcome.value == "done" and outcome.value_blob is blob
        bare = run_traced_task(lambda: ("done", ()), "b0.w0", False)
        assert bare.value == "done" and bare.value_blob is None

    def test_successive_tasks_reply_with_their_own_counts_only(self):
        def step(name):
            def fn():
                obs_metrics.counter(name).inc()
                return name, ()
            return fn

        first = run_traced_task(step("a.count"), "b0.w0", False)
        second = run_traced_task(step("b.count"), "b0.w1", False)
        assert first.telemetry.metrics["counters"] == {"a.count": 1.0}
        assert second.telemetry.metrics["counters"] == {"b.count": 1.0}


@pytest.mark.par
class TestOnePicklePerResult:
    def test_replies_carry_the_stored_bytes(self, tmp_path, monkeypatch):
        shipped = []
        receive = WorkerHandle.recv_message

        def spy(self):
            msg = receive(self)
            if msg[0] == "ok":
                shipped.append(msg[2])
            return msg

        monkeypatch.setattr(WorkerHandle, "recv_message", spy)
        specs = _specs()
        cache = SynthesisCache(tmp_path / "cache")
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            pooled = Engine(cache=cache, jobs=2).measure_components(specs)
        stored = [path.read_bytes() for path in cache.measurement_entries()]
        assert len(stored) == len(specs) == len(shipped)
        # Each worker shipped the bytes its cache store wrote: a result
        # pickled again for the pipe would not contain them verbatim.
        for blob in stored:
            assert sum(blob in reply for reply in shipped) == 1
        counters = registry.snapshot()["counters"]
        overhead = counters["exec.result_bytes"] - sum(map(len, stored))
        assert 0 < overhead < REPLY_OVERHEAD_BYTES * len(specs)
        inline = Engine().measure_components(specs)
        for name, result in inline.results.items():
            assert pickle.dumps(pooled.results[name]) == pickle.dumps(result)
