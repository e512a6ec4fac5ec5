"""Content-addressed on-disk cache for synthesis products.

Measurement pipelines are rerun constantly during calibration -- every
Table 3 / Figure 6 refresh re-lexes, re-elaborates, and re-synthesizes RTL
that has not changed.  This module memoizes the expensive end of the
parse -> elaborate -> synthesize chain: the :class:`~repro.synth.report.
SynthesisReport` of one *specialization* (a module at one parameter
binding) within one design.

Keys are content-addressed, so the cache never needs invalidation logic:

``key = SHA-256( source texts  +  specialization module name  +
                 sorted parameter binding  +  library/version salt )``

The salt folds in the frontend, elaboration, and lowering algorithm
revisions (``PARSER_VERSION``/``ELAB_VERSION``/``SYNTH_VERSION``), so
upgrading any pipeline stage silently starts a fresh key space instead of
serving stale products.  Editing a source file or changing a parameter
binding changes the key the same way.

The same store also holds two whole-result memos one level up: finished
pristine measurements (``measure/``) and the error-free module results
of whole lint runs (``lint/``).  All three namespaces share one read
path, one atomic write path and one degradation policy (see DESIGN.md,
"Parallelism & caching"):

* a **corrupt** entry (truncated file, bad pickle, wrong type, a result
  the namespace would not store) is deleted, counted in ``cache.errors``
  plus the namespace's miss counter, and the caller recomputes -- on the
  fault-tolerant path a corrupt synthesis entry also becomes a WARNING
  diagnostic; the run never crashes on cache state;
* a **store** failure (read-only directory, disk full) is swallowed after
  counting ``cache.errors`` -- caching is an optimization, not a stage.

Counters (``<prefix>hits``/``misses``/``stores`` per namespace, with the
prefixes ``cache.``, ``cache.measure_`` and ``cache.lint_``, plus the
shared ``cache.errors``) land in the default metrics registry, so hit
rates ride along in every ``--trace`` file and ``RunReport``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.elab.elaborator import ELAB_VERSION
from repro.flow.dfg import FLOW_VERSION
from repro.hdl.source import SourceFile
from repro.hdl.verilog.parser import PARSER_VERSION as VERILOG_PARSER_VERSION
from repro.hdl.vhdl.parser import PARSER_VERSION as VHDL_PARSER_VERSION
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Result
from repro.synth.lower import SYNTH_VERSION
from repro.synth.report import SynthesisReport

#: Cache container format revision (bump when the entry encoding changes).
CACHE_FORMAT = 1

#: The library/version salt folded into every key.  ``flow`` rides along
#: because synthesis reports now embed a :class:`~repro.flow.metrics.
#: FlowReport`; entries written before it existed must not be served.
SALT = (
    f"ucx-cache{CACHE_FORMAT}"
    f"|verilog{VERILOG_PARSER_VERSION}"
    f"|vhdl{VHDL_PARSER_VERSION}"
    f"|elab{ELAB_VERSION}"
    f"|synth{SYNTH_VERSION}"
    f"|flow{FLOW_VERSION}"
)

#: Default cache location (``$XDG_CACHE_HOME`` respected).
def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "ucomplexity"


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one cache probe."""

    status: str  # "hit" | "miss" | "corrupt"
    value: Any = None
    detail: str = ""

    @property
    def hit(self) -> bool:
        return self.status == "hit"

    @property
    def corrupt(self) -> bool:
        return self.status == "corrupt"


_MISS = CacheLookup("miss")


def _is_report(value: Any) -> bool:
    return isinstance(value, SynthesisReport)


def _is_pristine_measurement(value: Any) -> bool:
    # Degraded or failed results are never memoized: their diagnostics
    # must be re-derived (and re-reported) by a real run.
    return (
        isinstance(value, Result)
        and value.value is not None
        and not value.diagnostics
    )


def _is_clean_lint(value: Any) -> bool:
    from repro.lint.engine import ModuleLintResult

    return isinstance(value, tuple) and all(
        isinstance(r, ModuleLintResult) and not r.errors for r in value
    )


@dataclass(frozen=True)
class _Namespace:
    """One kind of entry: where it lives, what it may hold, how it counts."""

    subdir: str  # under the cache directory; "" = the root
    accepts: Callable[[Any], bool]  # checked on store and on every load
    counter: str  # prefix of the hits/misses/stores counters
    holds: str  # what ``accepts`` admits, for corrupt-entry details

    @property
    def prefix(self) -> str:  # between the cache directory and a shard
        return f"{os.sep}{self.subdir}{os.sep}" if self.subdir else os.sep


_SYNTH = _Namespace("", _is_report, "cache.", "SynthesisReport")
_MEASURE = _Namespace(
    "measure", _is_pristine_measurement, "cache.measure_",
    "a pristine measurement Result",
)
_LINT = _Namespace(
    "lint", _is_clean_lint, "cache.lint_",
    "a tuple of error-free ModuleLintResult",
)
_NAMESPACES = (_SYNTH, _MEASURE, _LINT)

#: Shard directories this process has made, so ``makedirs`` runs once per
#: shard.  Process state, not cache state (DESIGN.md section 8): outside
#: ``SynthesisCache`` equality and pickles, and emptied in a forked child.
_KNOWN_SHARDS: set[str] = set()
os.register_at_fork(after_in_child=_KNOWN_SHARDS.clear)

#: With the pid, names every temp file uniquely.
_TMP_SEQ = itertools.count()

_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def _open_temp(shard: str, tmp: str) -> int:
    """Create ``tmp`` (mode 0600); a shard removed since it was remembered
    is recreated and the create retried once."""
    if shard not in _KNOWN_SHARDS:
        os.makedirs(shard, exist_ok=True)
        _KNOWN_SHARDS.add(shard)
    try:
        return os.open(tmp, _TMP_FLAGS, 0o600)
    except FileNotFoundError:
        os.makedirs(shard, exist_ok=True)
        return os.open(tmp, _TMP_FLAGS, 0o600)


def content_key(*parts: str) -> str:
    """A SHA-256 key over ``parts`` with unambiguous separators."""
    h = hashlib.sha256()
    for part in parts:
        h.update(b"\x00part\x00")
        h.update(part.encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class SynthesisCache:
    """A content-addressed synthesis-report cache rooted at ``directory``.

    The object is a picklable value (a path plus the salt), so pool workers
    (:mod:`repro.exec.pool`) can carry it across process boundaries and
    share one on-disk key space; stores are atomic (write-to-temp + rename)
    which makes concurrent writers safe -- last writer wins with identical
    content.

    Entries are ``<namespace>/<key[:2]>/<key>.pkl``: synthesis reports at
    the root, whole-component measurements under ``measure/``, whole lint
    runs under ``lint/``.  Each namespace is invisible to the
    others' listings, so synthesis-entry tooling (poisoning tests,
    eviction sweeps) never touches the memos.
    """

    directory: Path
    salt: str = SALT

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", Path(self.directory))

    @classmethod
    def default(cls) -> "SynthesisCache":
        return cls(default_cache_dir())

    # -- synthesis reports ---------------------------------------------------

    def key(
        self,
        source_texts: Iterable[str],
        module: str,
        parameters: Mapping[str, int],
    ) -> str:
        """The SHA-256 key of one specialization's synthesis product.

        ``source_texts`` are the texts of every file that formed the design
        (post-quarantine on the fault-tolerant path), ``module`` the
        specialization's top name, ``parameters`` its resolved binding.
        """
        h = hashlib.sha256()
        h.update(self.salt.encode("utf-8"))
        for text in source_texts:
            h.update(b"\x00source\x00")
            h.update(text.encode("utf-8"))
        h.update(b"\x00top\x00" + module.encode("utf-8"))
        for name, value in sorted(parameters.items()):
            h.update(f"\x00param\x00{name}={int(value)}".encode("utf-8"))
        return h.hexdigest()

    def entry_path(self, key: str) -> Path:
        return Path(self._path(_SYNTH, key))

    def load(self, key: str) -> CacheLookup:
        """Probe the cache; corruption degrades to a recompute, never raises."""
        return self._read(_SYNTH, key)

    def store(self, key: str, report: SynthesisReport) -> bool:
        """Atomically write one entry; failures are counted, not raised."""
        return self._write(_SYNTH, key, report)

    # -- whole-measurement memo ----------------------------------------------
    #
    # One level up from specialization synthesis: the memo keyed on a whole
    # component (sources + top + policy + flags) stores its finished,
    # *pristine* measurement Result.  This is what lets cache-aware
    # dispatch resolve warm components in the parent without touching the
    # worker pool at all.

    def measurement_key(self, spec, strict: bool = False,
                        lint: bool = False) -> str:
        """Content key of one whole-component measurement.

        Folds in the pipeline version salt, the component's sources, top,
        accounting policy, and the flags that change the result -- so a
        hit is only served where a recompute would be identical.  The
        memo is also the resume log of an interrupted batch: a re-run
        dispatches only the components with no entry under this key.
        """
        parts = [
            SALT,
            "measure-task",
            spec.name,
            spec.top,
            repr(spec.policy),
            f"strict={bool(strict)}",
            f"lint={bool(lint)}",
        ]
        for source in spec.sources:
            parts.append(f"{source.name}\x00{source.text}")
        return content_key(*parts)

    def load_measurement(self, key: str):
        """The stored pristine ``Result`` on a hit, else ``None``."""
        return self._read(_MEASURE, key).value

    def store_measurement(self, key: str, result) -> bool:
        """Memoize one *pristine* measurement (value, no diagnostics)."""
        return self._write(_MEASURE, key, result)

    # -- whole-run lint memo -------------------------------------------------
    #
    # The audit of a lint run is a pure function of its sources (names and
    # texts, in order) and the enabled-rule set; severity overrides and
    # baseline suppression are applied *after* the per-module compute in
    # ``_assemble``, so they stay out of the key.  The key needs no parse,
    # so a warm run is served before any file is parsed.

    def lint_key(
        self, sources: Iterable[SourceFile], enabled_rules: Iterable[str],
    ) -> str:
        """Content key of one lint run's per-module results."""
        from repro.lint.rules import LINT_VERSION

        return content_key(
            self.salt,
            f"lint{LINT_VERSION}",
            "rules=" + ",".join(sorted(set(enabled_rules))),
            *(f"{source.name}\x00{source.text}" for source in sources),
        )

    def load_lint(self, key: str):
        """The stored tuple of ``ModuleLintResult`` on a hit, else ``None``."""
        return self._read(_LINT, key).value

    def store_lint(self, key: str, results) -> bool:
        """Memoize one run's module lint results, if none has errors."""
        return self._write(_LINT, key, results)

    # -- the one read path and the one write path ----------------------------

    def _shard(self, ns: _Namespace, key: str) -> str:
        # Two-level fan-out keeps directories small at catalog scale; plain
        # strings, because ``pathlib`` costs more than the syscalls here.
        return f"{os.fspath(self.directory)}{ns.prefix}{key[:2]}"

    def _path(self, ns: _Namespace, key: str) -> str:
        return f"{self._shard(ns, key)}{os.sep}{key}.pkl"

    def _read(self, ns: _Namespace, key: str) -> CacheLookup:
        """Read, unpickle and validate one entry; never raises.

        An entry that cannot be served is a miss *and* an error; one that
        was readable but invalid is also evicted so the recompute can
        re-store it.
        """
        path = self._path(ns, key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            obs_metrics.counter(ns.counter + "misses").inc()
            return _MISS
        except OSError as exc:
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter(ns.counter + "misses").inc()
            return CacheLookup("corrupt", detail=f"unreadable entry: {exc}")
        try:
            value = pickle.loads(blob)
            if not ns.accepts(value):
                raise TypeError(
                    f"entry holds {type(value).__name__}, not {ns.holds}"
                )
        except Exception as exc:  # noqa: BLE001 -- any bad entry degrades
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter(ns.counter + "misses").inc()
            self._evict(path)
            return CacheLookup(
                "corrupt", detail=f"{key}.pkl: {type(exc).__name__}: {exc}"
            )
        obs_metrics.counter(ns.counter + "hits").inc()
        return CacheLookup("hit", value=value)

    def _write(self, ns: _Namespace, key: str, value: Any) -> bool:
        """Atomically write one entry the namespace accepts.

        Pickled before any file exists, written to ``<key>.<pid>.<seq>.tmp``
        and renamed over the entry (DESIGN.md section 8).  A value the
        loader would refuse to serve is not written (returns False, counts
        nothing); I/O failures are counted, not raised.
        """
        if not ns.accepts(value):
            return False
        shard = self._shard(ns, key)
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            tmp = f"{shard}{os.sep}{key}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
            fd = _open_temp(shard, tmp)
            try:
                try:
                    view = memoryview(blob)
                    while view:
                        view = view[os.write(fd, view):]
                finally:
                    os.close(fd)
                os.replace(tmp, f"{shard}{os.sep}{key}.pkl")
            except BaseException:
                self._evict(tmp)
                raise
        except Exception:  # noqa: BLE001 -- caching is best-effort
            obs_metrics.counter("cache.errors").inc()
            return False
        obs_metrics.counter(ns.counter + "stores").inc()
        return True

    @staticmethod
    def _evict(path: str | Path) -> None:
        with contextlib.suppress(OSError):
            os.unlink(path)

    # -- maintenance ---------------------------------------------------------

    def _entries(self, ns: _Namespace) -> list[Path]:
        root = self.directory / ns.subdir
        if not root.is_dir():
            return []
        return sorted(root.glob("*/*.pkl"))

    def entries(self) -> list[Path]:
        """Every synthesis entry file currently on disk, sorted."""
        return self._entries(_SYNTH)

    def measurement_entries(self) -> list[Path]:
        """Every whole-measurement memo entry on disk, sorted."""
        return self._entries(_MEASURE)

    def lint_entries(self) -> list[Path]:
        """Every lint-run memo entry on disk, sorted."""
        return self._entries(_LINT)

    def clear(self) -> int:
        """Delete all entries (every kind); returns how many were removed."""
        removed = 0
        for ns in _NAMESPACES:
            for path in self._entries(ns):
                self._evict(path)
                removed += 1
        return removed


def hit_rate(counters: Mapping[str, float] | None = None) -> float | None:
    """Cache hit rate from a counters snapshot (default registry if None).

    Folds the memo probes in with the synthesis-entry probes: a memo hit
    short-circuits the synthesis probes it replaces, so counting only the
    latter would under-report warm runs.  Returns None when the run never
    probed the cache.
    """
    if counters is None:
        counters = obs_metrics.snapshot()["counters"]
    hits = sum(float(counters.get(ns.counter + "hits", 0.0))
               for ns in _NAMESPACES)
    misses = sum(float(counters.get(ns.counter + "misses", 0.0))
                 for ns in _NAMESPACES)
    total = hits + misses
    if total == 0:
        return None
    return hits / total
