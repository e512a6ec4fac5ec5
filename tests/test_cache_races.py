"""Tier-2 cache concurrency suite (``pytest -m par``).

The synthesis cache is shared by pool workers, so its on-disk protocol
must hold up under real process-level races: many writers storing the
same key at once (atomic write-to-temp + rename, last writer wins with
identical content) and an eviction racing a reader (the reader sees a
hit, a miss, or a corrupt-degrade -- never an exception, never a torn
pickle presented as valid).
"""

import multiprocessing as mp

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from tests._measure import measure_one

pytestmark = pytest.mark.par

_KEY = "ab" * 32  # a well-formed SHA-256 hex key

_SRC = SourceFile(
    "alu.v",
    """
    module top_alu #(parameter W = 8)(input [W-1:0] a, b, input op,
                                      output [W-1:0] y);
      assign y = op ? a - b : a + b;
    endmodule
    """,
)


@pytest.fixture()
def report(tmp_path):
    """A real SynthesisReport, produced once through the actual pipeline."""
    seed_cache = SynthesisCache(tmp_path / "seed-cache")
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        result = measure_one(Engine(cache=seed_cache), [_SRC], "top_alu")
    assert result.ok
    entries = seed_cache.entries()
    assert entries
    lookup = seed_cache.load(entries[0].stem)
    assert lookup.hit
    return lookup.value


@pytest.fixture()
def cache(tmp_path):
    return SynthesisCache(tmp_path / "race-cache")


def _quiet(fn, *args):
    """Run a worker body under a private registry (counters stay local)."""
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        return fn(*args)


def _store_loop(cache, key, report, barrier, iters, queue):
    def body():
        barrier.wait()
        return all(cache.store(key, report) for _ in range(iters))

    try:
        queue.put(("store", _quiet(body)))
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        queue.put(("store-crash", repr(exc)))


def _read_loop(cache, key, barrier, iters, queue):
    def body():
        barrier.wait()
        statuses = set()
        for _ in range(iters):
            lookup = cache.load(key)
            statuses.add(lookup.status)
            if lookup.hit:
                assert lookup.value.metrics()["Cells"] > 0
        return sorted(statuses)

    try:
        queue.put(("read", _quiet(body)))
    except Exception as exc:  # noqa: BLE001
        queue.put(("read-crash", repr(exc)))


def _evict_loop(cache, key, barrier, iters, queue):
    def body():
        barrier.wait()
        for _ in range(iters):
            cache._evict(cache.entry_path(key))
        return True

    try:
        queue.put(("evict", _quiet(body)))
    except Exception as exc:  # noqa: BLE001
        queue.put(("evict-crash", repr(exc)))


def _run_procs(targets):
    """Start all targets behind one barrier; return their queue messages."""
    ctx = mp.get_context()
    queue = ctx.Queue()
    barrier = ctx.Barrier(len(targets))
    procs = [
        ctx.Process(target=fn, args=args + (barrier, iters, queue))
        for fn, args, iters in targets
    ]
    for proc in procs:
        proc.start()
    messages = [queue.get(timeout=60) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return messages


class TestConcurrentStores:
    def test_same_key_many_writers(self, cache, report):
        messages = _run_procs(
            [(_store_loop, (cache, _KEY, report), 50) for _ in range(4)]
        )
        assert all(msg == ("store", True) for msg in messages)
        # Exactly one entry, fully readable, and no leaked temp files.
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            lookup = cache.load(_KEY)
        assert lookup.hit
        assert lookup.value.metrics() == report.metrics()
        assert cache.entries() == [cache.entry_path(_KEY)]
        assert list(cache.entry_path(_KEY).parent.glob("*.tmp")) == []

    def test_writers_racing_readers_never_serve_torn_entries(
        self, cache, report
    ):
        messages = _run_procs(
            [(_store_loop, (cache, _KEY, report), 100) for _ in range(2)]
            + [(_read_loop, (cache, _KEY), 200) for _ in range(2)]
        )
        stores = [m for m in messages if m[0] == "store"]
        reads = [m for m in messages if m[0] == "read"]
        assert len(stores) == 2 and len(reads) == 2
        assert all(ok for _, ok in stores)
        for _, statuses in reads:
            # Atomic rename: a reader sees the entry or it doesn't -- it
            # never sees a torn pickle ("corrupt") from a store.
            assert set(statuses) <= {"hit", "miss"}


class TestEvictRaces:
    def test_evict_racing_reader_degrades_never_raises(self, cache, report):
        messages = _run_procs(
            [
                (_store_loop, (cache, _KEY, report), 150),
                (_evict_loop, (cache, _KEY), 300),
                (_read_loop, (cache, _KEY), 300),
                (_read_loop, (cache, _KEY), 300),
            ]
        )
        by_kind = {}
        for kind, payload in messages:
            by_kind.setdefault(kind, []).append(payload)
        assert "store-crash" not in by_kind
        assert "evict-crash" not in by_kind
        assert "read-crash" not in by_kind
        for statuses in by_kind["read"]:
            assert set(statuses) <= {"hit", "miss", "corrupt"}
        # The race settles: one more store and the key is a clean hit.
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            assert cache.store(_KEY, report)
            assert cache.load(_KEY).hit
