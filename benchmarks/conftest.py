"""Shared fixtures for the benchmark harness.

Expensive artifacts (the Table 4 fits, the measured-design datasets) are
built once per session and shared across the table/figure benchmarks.

Every benchmark is also timed through the observability tracer: one
``bench.<nodeid>`` span per test.  At session end the timings are folded
into ``BENCH_obs.json`` at the repo root:

* ``benchmarks`` -- latest wall seconds *per benchmark*, merged key by key
  into whatever the file already holds, so running a subset (``pytest
  benchmarks/test_fig6_accounting.py``) updates those entries without
  discarding the rest;
* ``series`` -- latest derived scalars (parallel speedup, cache hit rate,
  ...) recorded by benchmarks through :func:`record_series`, merged the
  same way;
* ``history`` -- one timestamped entry per session holding only what that
  session measured, so trajectories survive across runs (capped at the
  most recent :data:`_HISTORY_LIMIT` sessions).
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.evaluation import evaluate_estimators
from repro.core.accounting import AccountingPolicy
from repro.data.paper import paper_dataset
from repro.designs.loader import measured_dataset

#: Session-wide tracer shared by every benchmark's timing span.
_TRACER = obs.Tracer()

#: Derived scalar series recorded by benchmarks this session.
_SERIES: dict[str, float] = {}

_BENCH_OBS_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

_HISTORY_LIMIT = 100

def record_series(name: str, value: float) -> None:
    """Record a derived benchmark scalar (e.g. ``parallel.speedup_jobs2``).

    The value lands in BENCH_obs.json next to the wall-time entries: the
    latest value under ``series`` and the per-session value in ``history``.
    """
    _SERIES[name] = round(float(value), 6)


@pytest.fixture(scope="session")
def bench_series():
    """The :func:`record_series` hook, injectable into benchmarks."""
    return record_series


@pytest.fixture(autouse=True)
def _bench_span(request):
    """Time each benchmark with a ``bench.*`` span on the session tracer."""
    with obs.using(_TRACER):
        with obs.span(f"bench.{request.node.nodeid}"):
            yield


def _load_bench_obs(path: Path) -> dict:
    """Current BENCH_obs.json contents (empty layout if absent/unreadable)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"benchmarks": {}, "series": {}, "history": []}
    if not isinstance(data, dict):
        return {"benchmarks": {}, "series": {}, "history": []}
    data.setdefault("benchmarks", {})
    data.setdefault("series", {})
    data.setdefault("history", [])
    return data


def pytest_sessionfinish(session, exitstatus):  # noqa: ARG001
    """Merge this session's benchmark timings into BENCH_obs.json."""
    timings = {
        sp.name.removeprefix("bench."): round(sp.wall_s, 6)
        for sp in _TRACER.spans
        if sp.name.startswith("bench.") and sp.wall_s is not None
    }
    if not timings and not _SERIES:
        return
    data = _load_bench_obs(_BENCH_OBS_PATH)
    data["benchmarks"].update(timings)
    data["series"].update(_SERIES)
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "benchmarks": timings,
    }
    if _SERIES:
        entry["series"] = dict(_SERIES)
    data["history"] = (data["history"] + [entry])[-_HISTORY_LIMIT:]
    _BENCH_OBS_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def dataset():
    """The paper's published 18-component dataset (Table 4)."""
    return paper_dataset()


@pytest.fixture(scope="session")
def table4(dataset):
    """Every estimator fitted on the paper data, both model variants."""
    return evaluate_estimators(dataset)


@pytest.fixture(scope="session")
def measured_with():
    """Bundled designs measured with the accounting procedure."""
    return measured_dataset(AccountingPolicy.recommended())


@pytest.fixture(scope="session")
def measured_without():
    """Bundled designs measured without the accounting procedure."""
    return measured_dataset(AccountingPolicy.disabled())


@pytest.fixture()
def report(capsys):
    """Print a block of text to the real terminal (not captured)."""

    def _report(title: str, body: str) -> None:
        with capsys.disabled():
            print(f"\n===== {title} =====")
            print(body)

    return _report
