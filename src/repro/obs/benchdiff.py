"""Benchmark regression gating: diff BENCH_obs.json against its history.

The benchmark harness (``benchmarks/conftest.py``) appends one history
entry per session to ``BENCH_obs.json``.  This module turns that history
into a gate: the **candidate** (the most recent entry) is compared,
key by key, against a **baseline** built from the earlier entries, and
any breach of the configured tolerance is a *regression* that
``ucomplexity bench-diff`` maps to a nonzero exit code -- the CI hook
that stops a perf regression from merging silently.

Contract (see DESIGN.md section 12):

* **Baseline = per-key median** of the prior history entries.  The
  median absorbs one noisy historical session without manual pruning;
  a key needs at least ``min_history`` prior samples before its
  tolerance gates at all (younger keys report ``skipped`` with the
  reason -- how many samples it has vs how many it needs -- so a thin
  history is visible in the report instead of silently passing).
* **Absolute floors.**  A key may carry ``min_value``: a candidate
  below it is a *regression* regardless of history depth or relative
  tolerance.  This is how hard invariants gate (e.g.
  ``parallel.speedup_jobs4`` must never sink below 1.0 -- parallel
  slower than sequential is a bug, not noise).
* **Direction-aware.**  ``speedup``/``rate``/``fraction``/``coverage``/
  ``completion``/``hit`` keys are higher-is-better; everything else
  (wall seconds, ratios, byte counts) is lower-is-better.  Per-key
  config overrides win over the name heuristic.
* **Relative tolerance** per key (default ``default_rel_tol``): a
  lower-is-better key regresses when ``candidate > baseline * (1 +
  tol)``; higher-is-better when ``candidate < baseline * (1 - tol)``.
* **Noise floor.**  Keys where both candidate and baseline sit below
  ``min_abs`` are ``skipped``: sub-50ms timings flap with machine load
  and should never gate a merge.

Tolerances load from a TOML file (stdlib ``tomllib``)::

    [benchdiff]
    default_rel_tol = 0.5
    min_abs = 0.05
    min_history = 2

    [benchdiff.keys."parallel.speedup_jobs4"]
    rel_tol = 0.30
    direction = "higher"
    min_value = 1.0

**Tracked baseline.**  ``BENCH_obs.json`` is local and noisy (one entry
per benchmark session, never committed).  The repository instead tracks
``benchmarks/baseline.json``, a curated history in the same format
holding only one entry per change: the derived ``series`` of one benchmark
session, tagged with the change number, ``nproc`` and a
:func:`machine_fingerprint` so a reader can tell a slower machine from a
slower program.  :func:`record_baseline` (``ucomplexity bench-diff
BENCH_obs.json --record N``) appends or replaces that entry;
``bench-diff`` with no file argument gates the baseline itself.

Everything else here is pure data-in/data-out; the CLI owns I/O and exit
codes (0 = ok, 1 = regression, 2 = unusable input).
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

#: Key-name heuristic for higher-is-better series.
_HIGHER_RE = re.compile(
    r"(speedup|rate|fraction|coverage|completion|hit)", re.IGNORECASE
)


@dataclass(frozen=True)
class KeyRule:
    """Per-key tolerance override from the config file."""

    rel_tol: float | None = None
    direction: str | None = None     # "higher" | "lower"
    min_value: float | None = None   # hard floor: below it => regression


@dataclass(frozen=True)
class DiffConfig:
    """Tolerance policy for one bench-diff run."""

    default_rel_tol: float = 0.5
    min_abs: float = 0.05
    min_history: int = 2
    keys: Mapping[str, KeyRule] = field(default_factory=dict)

    def rel_tol(self, key: str) -> float:
        rule = self.keys.get(key)
        if rule is not None and rule.rel_tol is not None:
            return rule.rel_tol
        return self.default_rel_tol

    def direction(self, key: str) -> str:
        rule = self.keys.get(key)
        if rule is not None and rule.direction in ("higher", "lower"):
            return rule.direction
        return "higher" if _HIGHER_RE.search(key) else "lower"

    def min_value(self, key: str) -> float | None:
        rule = self.keys.get(key)
        return rule.min_value if rule is not None else None


def load_config(path: str | Path | None) -> DiffConfig:
    """Parse a TOML tolerance file; ``None`` yields the defaults.

    Raises ``ValueError`` for unreadable/invalid files -- the CLI maps
    that onto exit code 2 so a broken gate config fails loudly instead
    of silently passing everything.
    """
    if path is None:
        return DiffConfig()
    import tomllib

    try:
        raw = tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read bench-diff config: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ValueError(f"invalid bench-diff config TOML: {exc}") from exc
    section = raw.get("benchdiff", {})
    if not isinstance(section, dict):
        raise ValueError("bench-diff config: [benchdiff] must be a table")
    keys: dict[str, KeyRule] = {}
    for key, rule in (section.get("keys") or {}).items():
        if not isinstance(rule, dict):
            raise ValueError(f"bench-diff config: keys.{key} must be a table")
        direction = rule.get("direction")
        if direction not in (None, "higher", "lower"):
            raise ValueError(
                f"bench-diff config: keys.{key}.direction must be "
                "'higher' or 'lower'"
            )
        rel_tol = rule.get("rel_tol")
        min_value = rule.get("min_value")
        keys[key] = KeyRule(
            rel_tol=None if rel_tol is None else float(rel_tol),
            direction=direction,
            min_value=None if min_value is None else float(min_value),
        )
    cfg = DiffConfig(
        default_rel_tol=float(
            section.get("default_rel_tol", DiffConfig.default_rel_tol)
        ),
        min_abs=float(section.get("min_abs", DiffConfig.min_abs)),
        min_history=int(section.get("min_history", DiffConfig.min_history)),
        keys=keys,
    )
    if cfg.default_rel_tol < 0 or cfg.min_abs < 0 or cfg.min_history < 1:
        raise ValueError(
            "bench-diff config: need default_rel_tol >= 0, min_abs >= 0, "
            "min_history >= 1"
        )
    return cfg


# -- history access ----------------------------------------------------------


def _entry_values(entry: Mapping) -> dict[str, float]:
    """Flatten one history entry's benchmark + series measurements."""
    values: dict[str, float] = {}
    for section in ("benchmarks", "series"):
        for key, value in (entry.get(section) or {}).items():
            if isinstance(value, (int, float)):
                values[str(key)] = float(value)
    return values


def load_bench_obs(path: str | Path) -> dict:
    """Load a BENCH_obs.json file; raises ``ValueError`` if unusable."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read bench history: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid bench history JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(
        data.get("history"), list
    ):
        raise ValueError(
            "bench history has no 'history' section "
            "(run the benchmarks at least once)"
        )
    return data


# -- the tracked baseline ----------------------------------------------------


def machine_fingerprint() -> str:
    """``<arch>/<cpu model>/<n>cpu``: enough to tell two hosts apart."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    model = re.sub(r"\s+", " ", model) or "unknown"
    return f"{platform.machine()}/{model}/{os.cpu_count() or 1}cpu"


def record_baseline(
    candidate: Mapping, baseline_path: str | Path, pr: int
) -> dict:
    """Append ``candidate``'s series to the tracked baseline as change ``pr``.

    An existing entry for the same change is replaced, so the file keeps
    one entry per change in recording order.  Returns the new entry.
    """
    path = Path(baseline_path)
    try:
        data = load_bench_obs(path)
    except ValueError:
        if path.exists():
            raise
        data = {"history": []}
    series = {
        key: value for key, value in (candidate.get("series") or {}).items()
        if isinstance(value, (int, float))
    }
    if not series:
        raise ValueError("candidate session recorded no series to baseline")
    entry = {
        "pr": int(pr),
        "timestamp": candidate.get("timestamp", ""),
        "nproc": os.cpu_count() or 1,
        "machine": machine_fingerprint(),
        "series": dict(sorted(series.items())),
    }
    data["history"] = [
        e for e in data["history"] if e.get("pr") != entry["pr"]
    ] + [entry]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return entry


# -- the diff ----------------------------------------------------------------


@dataclass
class KeyVerdict:
    """The gate's decision for one benchmark/series key."""

    key: str
    status: str                  # "ok" | "regression" | "improved" |
                                 # "skipped"
    candidate: float
    baseline: float | None       # None when no baseline exists yet
    rel_delta: float | None      # signed (candidate-baseline)/|baseline|
    rel_tol: float
    direction: str               # "higher" | "lower"
    samples: int                 # prior history samples behind baseline
    reason: str = ""             # why skipped / why regressed on a floor


@dataclass
class DiffReport:
    """All verdicts of one bench-diff run, candidate timestamp included."""

    timestamp: str
    verdicts: list[KeyVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> list[KeyVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_history(data: Mapping, config: DiffConfig) -> DiffReport:
    """Gate the most recent history entry against the earlier ones.

    The last ``history`` entry is the candidate; every earlier entry
    contributes its value for a key to that key's baseline median.
    Keys the candidate session did not measure are not gated (a subset
    run only answers for what it ran).
    """
    history: Sequence[Mapping] = data.get("history") or []
    if not history:
        raise ValueError("bench history is empty -- nothing to diff")
    candidate_entry = history[-1]
    candidate = _entry_values(candidate_entry)
    prior: dict[str, list[float]] = {}
    for entry in history[:-1]:
        for key, value in _entry_values(entry).items():
            prior.setdefault(key, []).append(value)

    report = DiffReport(timestamp=str(candidate_entry.get("timestamp", "?")))
    for key in sorted(candidate):
        value = candidate[key]
        samples = prior.get(key, [])
        tol = config.rel_tol(key)
        direction = config.direction(key)
        floor = config.min_value(key)
        if floor is not None and value < floor:
            # Hard floor breach gates even with no history at all.
            report.verdicts.append(
                KeyVerdict(key=key, status="regression", candidate=value,
                           baseline=statistics.median(samples)
                           if samples else None,
                           rel_delta=None, rel_tol=tol,
                           direction=direction, samples=len(samples),
                           reason=f"below hard floor {floor:g}")
            )
            continue
        if len(samples) < config.min_history:
            report.verdicts.append(
                KeyVerdict(key=key, status="skipped", candidate=value,
                           baseline=None, rel_delta=None, rel_tol=tol,
                           direction=direction, samples=len(samples),
                           reason=f"only {len(samples)} prior sample(s) "
                                  f"(need {config.min_history})")
            )
            continue
        baseline = statistics.median(samples)
        reason = ""
        if abs(value) < config.min_abs and abs(baseline) < config.min_abs:
            status, rel_delta = "skipped", None
            reason = f"below noise floor {config.min_abs:g}"
        else:
            denom = abs(baseline) or 1e-12
            rel_delta = (value - baseline) / denom
            worse = rel_delta < -tol if direction == "higher" \
                else rel_delta > tol
            better = rel_delta > tol if direction == "higher" \
                else rel_delta < -tol
            status = (
                "regression" if worse else "improved" if better else "ok"
            )
        report.verdicts.append(
            KeyVerdict(key=key, status=status, candidate=value,
                       baseline=baseline, rel_delta=rel_delta, rel_tol=tol,
                       direction=direction, samples=len(samples),
                       reason=reason)
        )
    return report


def render_report(report: DiffReport, verbose: bool = False) -> str:
    """Human-readable verdict table (regressions always shown first)."""
    order = {"regression": 0, "improved": 1, "ok": 2, "skipped": 3}
    rows = sorted(report.verdicts,
                  key=lambda v: (order.get(v.status, 9), v.key))
    if not verbose:
        rows = [v for v in rows
                if v.status in ("regression", "improved", "skipped")]
    lines = [f"bench-diff @ {report.timestamp}: "
             f"{len(report.verdicts)} keys, "
             f"{len(report.regressions)} regression(s)"]
    for v in rows:
        if v.rel_delta is None:
            base = f" vs {v.baseline:g}" if v.baseline is not None else ""
            detail = f"{v.candidate:g}{base}"
            if v.reason:
                detail += f" ({v.reason})"
        else:
            arrow = "+" if v.rel_delta >= 0 else ""
            detail = (f"{v.candidate:g} vs median {v.baseline:g} "
                      f"({arrow}{v.rel_delta * 100:.1f}%, "
                      f"tol {v.rel_tol * 100:.0f}%, {v.direction}-better)")
            if v.reason:
                detail += f" [{v.reason}]"
        lines.append(f"  {v.status:<10} {v.key:<40} {detail}")
    if not report.verdicts:
        lines.append("  (candidate session recorded no measurements)")
    return "\n".join(lines)
