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

Degradation rules (see DESIGN.md, "Parallelism & caching"):

* a **corrupt** entry (truncated file, bad pickle, wrong type) is deleted,
  counted in ``cache.errors``, and reported as a *corrupt* lookup -- the
  caller recomputes and, on the fault-tolerant path, emits a WARNING
  diagnostic; the run never crashes on cache state;
* a **store** failure (read-only directory, disk full) is swallowed after
  counting ``cache.errors`` -- caching is an optimization, not a stage.

Counters (``cache.hits``/``cache.misses``/``cache.stores``/
``cache.errors``) land in the default metrics registry, so hit rates ride
along in every ``--trace`` file and ``RunReport``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.elab.elaborator import ELAB_VERSION
from repro.flow.dfg import FLOW_VERSION
from repro.hdl.verilog.parser import PARSER_VERSION as VERILOG_PARSER_VERSION
from repro.hdl.vhdl.parser import PARSER_VERSION as VHDL_PARSER_VERSION
from repro.obs import metrics as obs_metrics
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
    value: SynthesisReport | None = None
    detail: str = ""

    @property
    def hit(self) -> bool:
        return self.status == "hit"

    @property
    def corrupt(self) -> bool:
        return self.status == "corrupt"


_MISS = CacheLookup("miss")


@dataclass(frozen=True)
class SynthesisCache:
    """A content-addressed synthesis-report cache rooted at ``directory``.

    The object is a picklable value (a path plus the salt), so pool workers
    (:mod:`repro.parallel`) can carry it across process boundaries and
    share one on-disk key space; stores are atomic (write-to-temp + rename)
    which makes concurrent writers safe -- last writer wins with identical
    content.
    """

    directory: Path
    salt: str = SALT

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", Path(self.directory))

    @classmethod
    def default(cls) -> "SynthesisCache":
        return cls(default_cache_dir())

    # -- keys ----------------------------------------------------------------

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
        # Two-level fan-out keeps directories small at catalog scale.
        return self.directory / key[:2] / f"{key}.pkl"

    # -- load / store --------------------------------------------------------

    def load(self, key: str) -> CacheLookup:
        """Probe the cache; corruption degrades to a recompute, never raises."""
        path = self.entry_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            obs_metrics.counter("cache.misses").inc()
            return _MISS
        except OSError as exc:
            obs_metrics.counter("cache.errors").inc()
            return CacheLookup("corrupt", detail=f"unreadable entry: {exc}")
        try:
            value = pickle.loads(blob)
            if not isinstance(value, SynthesisReport):
                raise TypeError(
                    f"entry holds {type(value).__name__}, not SynthesisReport"
                )
        except Exception as exc:  # noqa: BLE001 -- any bad entry degrades
            obs_metrics.counter("cache.errors").inc()
            self._evict(path)
            return CacheLookup(
                "corrupt", detail=f"{path.name}: {type(exc).__name__}: {exc}"
            )
        obs_metrics.counter("cache.hits").inc()
        return CacheLookup("hit", value=value)

    def store(self, key: str, report: SynthesisReport) -> bool:
        """Atomically write one entry; failures are counted, not raised."""
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(report, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:  # noqa: BLE001 -- caching is best-effort
            obs_metrics.counter("cache.errors").inc()
            return False
        obs_metrics.counter("cache.stores").inc()
        return True

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- whole-measurement memo ----------------------------------------------
    #
    # One level up from specialization synthesis: the memo keyed on a whole
    # component (sources + top + policy + flags) stores its finished,
    # *pristine* measurement Result.  This is what lets the parallel path's
    # cache-aware dispatch resolve warm components in the parent without
    # touching the worker pool at all.  Entries live under ``measure/``
    # (depth 3), deliberately invisible to :meth:`entries` so synthesis-
    # entry tooling (poisoning tests, eviction sweeps) is unaffected.

    def measurement_key(self, spec, strict: bool = False,
                        lint: bool = False) -> str:
        """Content key of one whole-component measurement.

        Identical to the journal's task key (same content, same salt): a
        memo hit is exactly a journal skip that survives across runs
        without a journal file.
        """
        from repro.parallel import measure_task_key

        return measure_task_key(spec, strict, lint)

    def measurement_path(self, key: str) -> Path:
        return self.directory / "measure" / key[:2] / f"{key}.pkl"

    def load_measurement(self, key: str):
        """Probe the measurement memo; any bad entry degrades to a miss.

        Returns the stored pristine ``Result`` on a hit, else ``None``
        (counted in ``cache.measure_hits``/``cache.measure_misses``;
        corrupt entries are evicted and counted in ``cache.errors``).
        """
        from repro.runtime.diagnostics import Result

        path = self.measurement_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            obs_metrics.counter("cache.measure_misses").inc()
            return None
        except OSError:
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter("cache.measure_misses").inc()
            return None
        try:
            value = pickle.loads(blob)
            if not isinstance(value, Result) or value.value is None \
                    or value.diagnostics:
                raise TypeError("entry is not a pristine measurement Result")
        except Exception:  # noqa: BLE001 -- any bad entry degrades
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter("cache.measure_misses").inc()
            self._evict(path)
            return None
        obs_metrics.counter("cache.measure_hits").inc()
        return value

    def store_measurement(self, key: str, result) -> bool:
        """Memoize one *pristine* measurement (value, no diagnostics).

        Degraded or failed results are never stored: their diagnostics
        must be re-derived (and re-reported) by a real run.
        """
        if getattr(result, "value", None) is None \
                or getattr(result, "diagnostics", ()):
            return False
        path = self.measurement_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:  # noqa: BLE001 -- caching is best-effort
            obs_metrics.counter("cache.errors").inc()
            return False
        obs_metrics.counter("cache.measure_stores").inc()
        return True

    # -- per-module lint memo ------------------------------------------------
    #
    # The deep rules (DFG build, SCC/reachability analysis) dominate lint
    # wall time; the audit of one module is a pure function of the source
    # texts, the module name, and the enabled-rule set (severity overrides
    # and baseline suppression are applied *after* the per-module compute
    # in ``_assemble``, so they stay out of the key).  Entries live under
    # ``lint/``, invisible to :meth:`entries` like the measurement memo.

    def lint_key(
        self, source_texts: Iterable[str], module: str,
        enabled_rules: Iterable[str],
    ) -> str:
        """Content key of one module's lint result."""
        return self.lint_keys(source_texts, [module], enabled_rules)[0]

    def lint_keys(
        self, source_texts: Iterable[str], modules: Iterable[str],
        enabled_rules: Iterable[str],
    ) -> list[str]:
        """:meth:`lint_key` of every module in ``modules``, in order.

        The salt and the source texts are hashed once and the digest state
        is copied per module, so keying a whole design costs one pass over
        its sources rather than one pass per module.
        """
        from repro.lint.rules import LINT_VERSION

        prefix = hashlib.sha256()
        prefix.update(self.salt.encode("utf-8"))
        prefix.update(f"\x00lint{LINT_VERSION}\x00".encode("utf-8"))
        for text in source_texts:
            prefix.update(b"\x00source\x00")
            prefix.update(text.encode("utf-8"))
        rules = b"".join(
            f"\x00rule\x00{rule}".encode("utf-8")
            for rule in sorted(enabled_rules)
        )
        keys = []
        for module in modules:
            h = prefix.copy()
            h.update(b"\x00module\x00" + module.encode("utf-8"))
            h.update(rules)
            keys.append(h.hexdigest())
        return keys

    def lint_path(self, key: str) -> Path:
        return self.directory / "lint" / key[:2] / f"{key}.pkl"

    def load_lint(self, key: str):
        """Probe the lint memo; returns a clean ``ModuleLintResult`` or None.

        Error-carrying results are never served (mirroring the measurement
        memo's pristine-only contract): their diagnostics must be
        re-derived by a real run.
        """
        from repro.lint.engine import ModuleLintResult

        path = self.lint_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            obs_metrics.counter("cache.lint_misses").inc()
            return None
        except OSError:
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter("cache.lint_misses").inc()
            return None
        try:
            value = pickle.loads(blob)
            if not isinstance(value, ModuleLintResult) or value.errors:
                raise TypeError("entry is not a clean ModuleLintResult")
        except Exception:  # noqa: BLE001 -- any bad entry degrades
            obs_metrics.counter("cache.errors").inc()
            obs_metrics.counter("cache.lint_misses").inc()
            self._evict(path)
            return None
        obs_metrics.counter("cache.lint_hits").inc()
        return value

    def store_lint(self, key: str, result) -> bool:
        """Memoize one error-free module lint result."""
        if getattr(result, "errors", ()):
            return False
        path = self.lint_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:  # noqa: BLE001 -- caching is best-effort
            obs_metrics.counter("cache.errors").inc()
            return False
        obs_metrics.counter("cache.lint_stores").inc()
        return True

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every synthesis entry file currently on disk, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*/*.pkl"))

    def measurement_entries(self) -> list[Path]:
        """Every whole-measurement memo entry on disk, sorted."""
        root = self.directory / "measure"
        if not root.is_dir():
            return []
        return sorted(root.glob("*/*.pkl"))

    def lint_entries(self) -> list[Path]:
        """Every per-module lint memo entry on disk, sorted."""
        root = self.directory / "lint"
        if not root.is_dir():
            return []
        return sorted(root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete all entries (every kind); returns how many were removed."""
        removed = 0
        for path in (
            self.entries() + self.measurement_entries() + self.lint_entries()
        ):
            self._evict(path)
            removed += 1
        return removed


def hit_rate(counters: Mapping[str, float] | None = None) -> float | None:
    """Cache hit rate from a counters snapshot (default registry if None).

    Folds the whole-measurement memo probes in with the synthesis-entry
    probes: a memo hit short-circuits the synthesis probes it replaces,
    so counting only the latter would under-report warm runs.  Returns
    None when the run never probed the cache.
    """
    if counters is None:
        counters = obs_metrics.snapshot()["counters"]
    hits = (
        float(counters.get("cache.hits", 0.0))
        + float(counters.get("cache.measure_hits", 0.0))
        + float(counters.get("cache.lint_hits", 0.0))
    )
    misses = (
        float(counters.get("cache.misses", 0.0))
        + float(counters.get("cache.measure_misses", 0.0))
        + float(counters.get("cache.lint_misses", 0.0))
    )
    total = hits + misses
    if total == 0:
        return None
    return hits / total
