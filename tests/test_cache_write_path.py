"""The cache's write path: temp files, shard directories, entry modes.

A store pickles first, writes ``<key>.<pid>.<seq>.tmp`` with one
``os.open`` and renames it over the entry.  Shard directories are
remembered per process, so these tests pin what that memory must not
break: a shard removed behind the cache's back is recreated, a failed
store leaves no temp file, and the remembered set never leaks into cache
values or forked children.
"""

import multiprocessing as mp
import os
import pickle
import shutil
import stat

import pytest

from repro import cache as cache_mod
from repro.cache import SynthesisCache
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Result

KEY_A = "ab" + "0" * 62
KEY_B = "ab" + "1" * 62  # same shard as KEY_A


@pytest.fixture(autouse=True)
def _private_registry():
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        yield


def _counters():
    return obs_metrics.snapshot()["counters"]


def _measurement(n=1):
    return Result(value={"LoC": float(n)})


def _tmp_files(root):
    return sorted(p.name for p in root.rglob("*.tmp"))


def test_store_then_load_round_trips(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.store_measurement(KEY_A, _measurement(3))
    assert cache.load_measurement(KEY_A) == _measurement(3)
    (entry,) = cache.measurement_entries()
    assert entry == tmp_path / "c" / "measure" / "ab" / f"{KEY_A}.pkl"
    assert _tmp_files(tmp_path) == []


def test_shard_deleted_between_stores_is_recreated(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.store_measurement(KEY_A, _measurement(1))
    shard = tmp_path / "c" / "measure" / "ab"
    assert str(shard) in cache_mod._KNOWN_SHARDS
    shutil.rmtree(shard)

    assert cache.store_measurement(KEY_B, _measurement(2))
    assert cache.load_measurement(KEY_B) == _measurement(2)
    assert _counters().get("cache.errors", 0) == 0
    assert _counters()["cache.measure_stores"] == 2


def test_whole_cache_removed_between_stores_is_recreated(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.store_measurement(KEY_A, _measurement(1))
    shutil.rmtree(tmp_path / "c")

    assert cache.store_measurement(KEY_A, _measurement(2))
    assert cache.load_measurement(KEY_A) == _measurement(2)


def test_unpicklable_value_leaves_no_temp_file(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    unpicklable = Result(value=lambda: None)
    assert not cache.store_measurement(KEY_A, unpicklable)
    assert _counters()["cache.errors"] == 1
    assert _tmp_files(tmp_path) == []
    assert cache.measurement_entries() == []
    # Pickling runs before any file or directory is created.
    assert not (tmp_path / "c" / "measure" / "ab").exists()


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    assert not cache.store_measurement(KEY_A, _measurement())
    assert _counters()["cache.errors"] == 1
    assert _tmp_files(tmp_path) == []


def test_entries_are_created_mode_0600(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.store_measurement(KEY_A, _measurement())
    (entry,) = cache.measurement_entries()
    assert stat.S_IMODE(os.stat(entry).st_mode) == 0o600


def test_known_shards_stay_out_of_cache_values(tmp_path):
    fresh = SynthesisCache(tmp_path / "c")
    used = SynthesisCache(tmp_path / "c")
    assert used.store_measurement(KEY_A, _measurement())
    assert cache_mod._KNOWN_SHARDS
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)


def _report_known_shards(queue):
    queue.put(sorted(cache_mod._KNOWN_SHARDS))


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_forked_child_starts_with_no_known_shards(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.store_measurement(KEY_A, _measurement())
    assert cache_mod._KNOWN_SHARDS

    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_report_known_shards, args=(queue,))
    proc.start()
    try:
        assert queue.get(timeout=30) == []
    finally:
        proc.join(timeout=30)
    assert proc.exitcode == 0
