"""Crash-safe run journal: resume an interrupted batch where it stopped.

A :class:`RunJournal` is an append-only JSONL file mapping *task keys* to
completed :class:`~repro.exec.task.TaskOutcome` payloads.  The supervisor
appends one line per completed task (single ``write`` + flush, so a kill
mid-run loses at most the line being written); a re-run opens the same
file, skips every journaled key without dispatching it, and appends only
the newly finished work.

Keys are content-addressed by the caller (see
:func:`repro.cache.measure_task_key` and
:func:`repro.core.engine.synthesis_task_key`), so the journal layers on the same
no-invalidation property as the synthesis cache: edit a source file and
its tasks simply stop matching.

Line format (version :data:`JOURNAL_VERSION`)::

    {"v": 1, "salt": "...", "key": "<sha256>", "sha": "<blob sha12>",
     "blob": "<base64 pickle of the TaskOutcome, telemetry stripped>"}

Robustness rules:

* a torn or corrupt trailing line (interrupted write, bad base64, bad
  pickle, checksum mismatch) is skipped and counted in
  ``exec.journal_corrupt`` -- never raised;
* a line whose ``v``/``salt`` does not match is ignored, so stale
  journals from older pipeline revisions quietly stop matching;
* telemetry is stripped before journaling: a resumed run must not replay
  a previous run's counters;
* outcomes carrying a ferried exception (strict-mode failures) and
  supervisor quarantines are *not* journaled -- a resume retries them.

The journal is single-writer: one supervised run per file at a time
(concurrent batch runs should use distinct ``--journal`` paths).
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from dataclasses import replace
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from repro.exec.task import TaskOutcome

#: Journal line format revision (bump when the encoding changes).
JOURNAL_VERSION = 1


def _blob_sha(blob: str) -> str:
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


class RunJournal:
    """Append-only completed-task journal rooted at ``path``.

    Opening loads every valid entry into memory; :meth:`get` answers
    resume probes and :meth:`record` appends + flushes one completion.
    """

    def __init__(self, path: str | Path, salt: str = "") -> None:
        self.path = Path(path)
        self.salt = salt
        self._outcomes: dict[str, TaskOutcome] = {}
        self._load()

    @classmethod
    def open(
        cls, journal: "RunJournal | str | Path | None", salt: str = ""
    ) -> "RunJournal | None":
        """Normalize a journal argument (path or instance) to an instance."""
        if journal is None or isinstance(journal, RunJournal):
            return journal
        return cls(journal, salt=salt)

    # -- reading -------------------------------------------------------------

    def _load(self) -> None:
        # The replay is part of a resumed run's startup cost, so it is
        # attributed like any other stage: one ``journal.load`` span plus
        # the ``exec.journal_replay_s`` / ``exec.journal_bytes_read``
        # instruments (see DESIGN.md section 12).
        with obs_trace.span("journal.load", path=str(self.path)) as sp:
            try:
                text = self.path.read_text(encoding="utf-8")
            except FileNotFoundError:
                return
            except OSError:
                obs_metrics.counter("exec.journal_corrupt").inc()
                return
            obs_metrics.counter("exec.journal_bytes_read").inc(len(text))
            for line in text.splitlines():
                if not line.strip():
                    continue
                outcome = self._decode(line)
                if outcome is None:
                    obs_metrics.counter("exec.journal_corrupt").inc()
                    continue
                key, value = outcome
                self._outcomes[key] = value
            sp.set_attr("entries", len(self._outcomes))
        if sp.wall_s is not None:
            obs_metrics.histogram("exec.journal_replay_s").observe(sp.wall_s)

    def _decode(self, line: str) -> tuple[str, TaskOutcome] | None:
        try:
            row = json.loads(line)
            if row.get("v") != JOURNAL_VERSION or row.get("salt") != self.salt:
                return None
            key, blob, sha = row["key"], row["blob"], row["sha"]
            if _blob_sha(blob) != sha:
                return None
            value = pickle.loads(base64.b64decode(blob.encode("ascii")))
            if not isinstance(value, TaskOutcome):
                return None
            return str(key), value
        except Exception:  # noqa: BLE001 -- any torn line degrades to a skip
            return None

    def get(self, key: str) -> TaskOutcome | None:
        return self._outcomes.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._outcomes

    def __len__(self) -> int:
        return len(self._outcomes)

    # -- writing -------------------------------------------------------------

    def record(self, key: str, outcome: TaskOutcome) -> bool:
        """Append one completed task; failures are counted, not raised.

        Telemetry is stripped (a resume must not replay old counters);
        outcomes carrying a ferried exception are refused so a resumed
        strict run retries them.
        """
        if outcome.error is not None:
            return False
        slim = replace(outcome, telemetry=None)
        try:
            blob = base64.b64encode(
                pickle.dumps(slim, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
            line = json.dumps(
                {
                    "v": JOURNAL_VERSION,
                    "salt": self.salt,
                    "key": key,
                    "sha": _blob_sha(blob),
                    "blob": blob,
                },
                sort_keys=True,
            )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
        except Exception:  # noqa: BLE001 -- journaling is best-effort
            obs_metrics.counter("exec.journal_errors").inc()
            return False
        self._outcomes[key] = slim
        obs_metrics.counter("exec.journal_records").inc()
        obs_metrics.counter("exec.journal_bytes_written").inc(len(line) + 1)
        return True
