"""Corrupt entries in every cache namespace degrade to a recompute.

The synthesis reports, the whole-measurement memo (``measure/``) and the
per-module lint memo (``lint/``) share one read path, so they share one
corruption policy: a bad entry is counted (``cache.errors`` plus the
namespace's miss counter), evicted, recomputed to the cold result, and
re-stored by the recompute.  The synthesis namespace additionally surfaces
the degradation as a stage-``cache`` WARNING.
"""

from __future__ import annotations

import io
import pickle

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Severity
from tests._measure import measure_one

_SRC = SourceFile(
    "alu.v",
    """
    module alu #(parameter W = 8)(input [W-1:0] a, b, input op,
                                  output [W-1:0] y);
      assign y = op ? a - b : a + b;
    endmodule

    module top_alu(input [7:0] a, b, input op, output [7:0] y0, y1);
      alu #(.W(8)) u0 (.a(a), .b(b), .op(op), .y(y0));
      alu #(.W(8)) u1 (.a(b), .b(a), .op(op), .y(y1));
    endmodule
    """,
)


def _synth(engine):
    # The memo would serve the whole component before any synthesis
    # entry is probed; drop it so the probe runs.
    for path in engine.cache.measurement_entries():
        path.unlink()
    result = measure_one(engine, [_SRC], "top_alu")
    return result.value.metrics, result.diagnostics


def _measure(engine):
    batch = engine.measure_components(
        [ComponentSpec("alu", (_SRC,), "top_alu")]
    )
    return batch.measurements["alu"].metrics, ()


def _lint(engine):
    return engine.lint([_SRC]), ()


#: namespace -> (pipeline that probes it, its listing, counter prefix,
#: the public storer the recompute goes through).
NAMESPACES = {
    "synthesis": (_synth, "entries", "cache.", "store"),
    "measure": (_measure, "measurement_entries", "cache.measure_",
                "store_measurement"),
    "lint": (_lint, "lint_entries", "cache.lint_", "store_lint"),
}


class _Fields(pickle.Unpickler):
    """Loads a compact record as its ``(rebuild, fields)`` pair."""

    def find_class(self, module, name):
        rebuild = super().find_class(module, name)
        return lambda *fields: (rebuild, fields)


class _Call:
    def __init__(self, rebuild, fields):
        self.reduced = (rebuild, fields)

    def __reduce__(self):
        return self.reduced


def _poison(path, fault):
    if fault == "missing_field":
        # A record one field short (an entry from a writer whose report
        # had one field fewer) must not be served half-built.
        rebuild, fields = _Fields(io.BytesIO(path.read_bytes())).load()
        path.write_bytes(pickle.dumps(_Call(rebuild, fields[:-1])))
    elif fault == "truncate":
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
    elif fault == "garbage":
        path.write_bytes(b"not a pickle \x00\xff")
    else:
        path.write_bytes(pickle.dumps({"not": "a cache entry"}))


def _run(pipeline, cache):
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        value, diagnostics = pipeline(Engine(cache=cache))
        counters = obs_metrics.snapshot()["counters"]
    return value, diagnostics, counters


#: (namespace, fault) pairs; only the report-holding namespaces store
#: compact records (repro.cache), so only they can lose a record field.
CASES = [
    (namespace, fault)
    for namespace in sorted(NAMESPACES)
    for fault in ("truncate", "garbage", "wrong_type")
] + [("measure", "missing_field"), ("synthesis", "missing_field")]


@pytest.mark.parametrize(
    ("namespace", "fault"), CASES, ids=[f"{n}-{f}" for n, f in CASES]
)
def test_corrupt_entry_is_counted_evicted_and_restored(
    tmp_path, monkeypatch, namespace, fault
):
    pipeline, listing, prefix, storer = NAMESPACES[namespace]
    cache = SynthesisCache(tmp_path / "cache")
    cold, _, _ = _run(pipeline, cache)
    poisoned = getattr(cache, listing)()
    assert poisoned
    for path in poisoned:
        _poison(path, fault)

    # With the recompute's store switched off, whatever is left on disk
    # is what the probe left: every poisoned entry must be gone.
    with monkeypatch.context() as m:
        m.setattr(SynthesisCache, storer, lambda self, key, value: False)
        value, diagnostics, counters = _run(pipeline, cache)
    assert value == cold
    assert not any(path.exists() for path in poisoned)
    assert counters["cache.errors"] == len(poisoned)
    assert counters[prefix + "misses"] == len(poisoned)
    assert counters.get(prefix + "hits", 0) == 0

    warnings = [
        d for d in diagnostics
        if d.stage == "cache" and d.severity is Severity.WARNING
    ]
    if namespace == "synthesis":
        assert len(warnings) == len(poisoned)
        assert "recompute" in warnings[0].message
    else:
        assert warnings == []

    # The next run recomputes and re-stores; the one after is fully warm.
    value, _, counters = _run(pipeline, cache)
    assert value == cold
    assert counters[prefix + "stores"] == len(poisoned)
    assert getattr(cache, listing)() == poisoned
    value, _, counters = _run(pipeline, cache)
    assert value == cold
    assert counters[prefix + "hits"] == len(poisoned)
    assert counters.get("cache.errors", 0) == 0
