"""The serve daemon's work loop: one dispatcher thread over one Engine.

The asyncio server (:mod:`repro.serve.server`) parses HTTP and hands each
request body to a :class:`ServeSession`; the session owns the long-lived
:class:`~repro.core.engine.Engine` and a single **dispatcher thread** that
consumes requests from a queue, micro-batches whatever is waiting, and
resolves each request's future with a ``(status, payload)`` pair.

Why a thread and not the event loop?  The pipeline is synchronous Python:
a measurement blocks for seconds.  Running it on the loop would freeze
``/healthz``; running it in a thread pool would put N concurrent writers
on the process-global tracer and metrics registry.  One dispatcher thread
keeps the single-writer observability model intact *and* gives the server
batching for free: requests that arrive while a measurement is running
pile up in the queue and are dispatched as one
:meth:`Engine.measure_components` call into the supervised pool
(chunked, cache-aware -- a fully warm batch never dispatches a task).

The dispatcher holds that pool for its lifetime: it opens a
:class:`~repro.exec.Supervisor` on the engine at the first batch that
holds a ``/measure`` request (not at start-up, so an idle daemon forks
nothing; ``/lint`` and ``/estimate`` run inline in the dispatcher),
every later batch reuses its idle workers instead of forking, and the
dispatcher closes it -- shutting down and reaping up to ``jobs`` idle
workers -- on its way out of :meth:`ServeSession.stop`.

Trace ids: every request is assigned ``r<n>``.  A request processed alone
runs under a ``serve.request`` span (engine spans nest beneath it); a
micro-batch runs under one ``serve.batch`` span with a ``serve.request``
span recorded per member, so the exported span tree always pairs request
ids with the work done for them.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.engine import Engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Result
from repro.serve import protocol
from repro.serve.protocol import (
    STATUS_UNAVAILABLE,
    EstimateRequest,
    LintRequest,
    MeasureRequest,
    ProtocolError,
)

if TYPE_CHECKING:
    from repro.exec import Supervisor

_STOP = object()

#: Endpoints whose work goes through the worker pool.
_POOLED = frozenset({"measure"})


@dataclass
class _Pending:
    """One submitted request travelling from the loop to the dispatcher."""

    rid: str
    endpoint: str
    body: Any
    future: "Future[tuple[int, dict[str, Any]]]"
    enqueued: float = field(default_factory=time.perf_counter)


class ServeSession:
    """Request queue + dispatcher thread around a long-lived Engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._inflight: dict[str, _Pending] = {}
        self._started = False
        #: The supervisor this session opened on its engine, if any.
        self._pool: "Supervisor | None" = None
        self._thread = threading.Thread(
            target=self._run, name="serve-dispatcher", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()
        self._started = True

    def stop(self, grace_s: float = 30.0) -> bool:
        """Drain the queue and stop the dispatcher.

        Already-queued requests are still answered (that is the drain
        contract); only if the thread outlives ``grace_s`` is the
        in-flight pool run aborted via :func:`repro.exec.request_interrupt`
        and any unresolved futures failed with 503.  Either way the
        dispatcher closes the pool it holds before it exits, so no worker
        outlives a stop that returns.  Returns True for a clean
        (non-forced) stop.
        """
        if not self._started:
            return True
        self._queue.put(_STOP)
        self._thread.join(grace_s)
        clean = not self._thread.is_alive()
        if not clean:
            from repro import exec as rexec

            rexec.request_interrupt()
            self._thread.join(grace_s)
            with self._lock:
                leftovers = list(self._inflight.values())
                self._inflight.clear()
            for item in leftovers:
                if not item.future.done():
                    item.future.set_result(
                        protocol.error_response(
                            STATUS_UNAVAILABLE,
                            "server shutting down",
                            item.rid,
                        )
                    )
        return clean

    # -- submission (called from the event loop thread) ------------------------

    def submit(
        self, endpoint: str, body: Any
    ) -> tuple[str, "Future[tuple[int, dict[str, Any]]]"]:
        """Queue one parsed-JSON request body; returns (request id, future)."""
        rid = f"r{next(self._ids)}"
        item = _Pending(rid, endpoint, body, Future())
        with self._lock:
            self._inflight[rid] = item
        self._queue.put(item)
        return rid, item.future

    def pending(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- dispatcher ------------------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                head = self._queue.get()
                if head is _STOP:
                    return
                batch = [head]
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        self._dispatch(batch)
                        return
                    batch.append(nxt)
                self._dispatch(batch)
        finally:
            if self._pool is not None:
                self.engine.supervisor = None
                self._pool.close()

    def _dispatch(self, batch: list[_Pending]) -> None:
        if self.engine.supervisor is None and any(
            item.endpoint in _POOLED for item in batch
        ):
            from repro.exec import Supervisor

            self._pool = Supervisor(self.engine.jobs, self.engine.supervision)
            self.engine.supervisor = self._pool
        obs_metrics.counter("serve.batches").inc()
        obs_metrics.histogram("serve.batch_size").observe(len(batch))
        tracer = obs_trace.active()
        if len(batch) == 1:
            item = batch[0]
            with obs_trace.span(
                "serve.request", request=item.rid, endpoint=item.endpoint
            ):
                self._finish(item, self._handle(item))
            return
        starts: dict[str, float] = {}
        with obs_trace.span(
            "serve.batch", requests=len(batch)
        ) as batch_span:
            # Measure requests in the batch go through the pool together;
            # everything else (lint/estimate, malformed bodies) is handled
            # inline in arrival order.
            outcomes = self._handle_batch(batch, starts)
        if tracer is not None:
            for item in batch:
                tracer.record_span(
                    "serve.request",
                    starts.get(item.rid, batch_span.start),
                    batch_span.wall_s,
                    parent_id=batch_span.span_id,
                    request=item.rid,
                    endpoint=item.endpoint,
                )
        for item, outcome in zip(batch, outcomes):
            self._finish(item, outcome)

    def _finish(
        self, item: _Pending, outcome: tuple[int, dict[str, Any]]
    ) -> None:
        status, _payload = outcome
        obs_metrics.counter("serve.requests").inc()
        obs_metrics.counter(f"serve.responses_{status // 100}xx").inc()
        obs_metrics.histogram("serve.request_latency_s").observe(
            time.perf_counter() - item.enqueued
        )
        with self._lock:
            self._inflight.pop(item.rid, None)
        if not item.future.done():
            item.future.set_result(outcome)

    # -- handlers --------------------------------------------------------------

    def _handle(self, item: _Pending) -> tuple[int, dict[str, Any]]:
        try:
            if item.endpoint == "measure":
                req = protocol.parse_measure_request(item.body)
                return self._measure_one(item.rid, req)
            if item.endpoint == "lint":
                return self._lint(item.rid, protocol.parse_lint_request(item.body))
            if item.endpoint == "estimate":
                return self._estimate(
                    item.rid, protocol.parse_estimate_request(item.body)
                )
            return protocol.error_response(
                protocol.STATUS_NOT_FOUND, f"unknown endpoint {item.endpoint}",
                item.rid,
            )
        except ProtocolError as exc:
            return protocol.error_response(
                protocol.STATUS_BAD_REQUEST, str(exc), item.rid
            )
        except Exception as exc:  # pipeline bug: fail the request, not the server
            return self._internal_error(item.rid, exc)

    def _handle_batch(
        self, batch: list[_Pending], starts: dict[str, float]
    ) -> list[tuple[int, dict[str, Any]]]:
        # Parse everything first so malformed requests answer 400 without
        # holding up the pool dispatch.
        outcomes: list[tuple[int, dict[str, Any]] | None] = []
        measures: list[tuple[int, _Pending, MeasureRequest]] = []
        for i, item in enumerate(batch):
            starts[item.rid] = time.perf_counter()
            try:
                if item.endpoint == "measure":
                    measures.append(
                        (i, item, protocol.parse_measure_request(item.body))
                    )
                    outcomes.append(None)
                    continue
            except ProtocolError as exc:
                outcomes.append(
                    protocol.error_response(
                        protocol.STATUS_BAD_REQUEST, str(exc), item.rid
                    )
                )
                continue
            outcomes.append(self._handle(item))
        # Group pooled measurements by flag set; a repeated component name
        # within one group is deferred to a follow-up engine call so the
        # name-keyed batch result cannot conflate two different requests.
        remaining = measures
        while remaining:
            group: list[tuple[int, _Pending, MeasureRequest]] = []
            deferred: list[tuple[int, _Pending, MeasureRequest]] = []
            flags = (remaining[0][2].strict, remaining[0][2].lint)
            names: set[str] = set()
            for entry in remaining:
                _i, _item, req = entry
                if (req.strict, req.lint) != flags or req.spec.name in names:
                    deferred.append(entry)
                else:
                    names.add(req.spec.name)
                    group.append(entry)
            try:
                results = self.engine.measure_components(
                    [req.spec for _i, _item, req in group],
                    strict=flags[0],
                    lint=flags[1],
                    pool=True,
                ).results
            except Exception as exc:
                for i, item, _req in group:
                    outcomes[i] = self._internal_error(item.rid, exc)
            else:
                for i, item, req in group:
                    outcomes[i] = protocol.measure_response(
                        item.rid,
                        results[req.spec.name],
                        strict=req.strict,
                    )
            remaining = deferred
        return [
            out if out is not None
            else protocol.error_response(500, "request not dispatched")
            for out in outcomes
        ]

    def _measure_one(
        self, rid: str, req: MeasureRequest
    ) -> tuple[int, dict[str, Any]]:
        # pool=True even for a single spec: untrusted request sources run
        # in a supervised worker, so a crash or hang quarantines this one
        # request instead of the dispatcher.  The memo probe still happens
        # in the parent, so warm requests never touch the pool.
        result: Result = self.engine.measure_components(
            [req.spec], strict=req.strict, lint=req.lint, pool=True,
        ).results[req.spec.name]
        return protocol.measure_response(rid, result, strict=req.strict)

    def _lint(self, rid: str, req: LintRequest) -> tuple[int, dict[str, Any]]:
        from repro.lint.config import LintConfig

        config = LintConfig().with_rules(only=req.only, disable=req.disable)
        report = self.engine.lint(list(req.sources), config)
        return protocol.lint_response(rid, report, strict=req.strict)

    def _estimate(
        self, rid: str, req: EstimateRequest
    ) -> tuple[int, dict[str, Any]]:
        import hashlib

        diagnostics: list[Diagnostic] = []
        if req.dataset_csv is None:
            from repro.data.paper import paper_dataset

            dataset = paper_dataset()
            dataset_key = "paper"
        else:
            from repro.data.dataset import EffortDataset

            loaded = EffortDataset.from_csv_checked(
                req.dataset_csv, keep_going=req.keep_going
            )
            diagnostics.extend(loaded.diagnostics)
            if loaded.value is None:
                return protocol.STATUS_BY_EXIT[2], {
                    "request_id": rid,
                    "exit_code": 2,
                    "error": "dataset failed to load",
                    "diagnostics": [
                        protocol.diagnostic_to_wire(d) for d in diagnostics
                    ],
                }
            dataset = loaded.value
            dataset_key = "csv:" + hashlib.sha256(
                req.dataset_csv.encode("utf-8")
            ).hexdigest()
        est = self.engine.fit_estimator(
            dataset, sorted(req.metrics), dataset_key=dataset_key
        )
        diagnostics.extend(est.fit_diagnostics)
        try:
            median = est.estimate(req.metrics, team=req.team)
            lo, hi = est.interval(req.metrics, team=req.team)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(str(exc)) from exc
        return protocol.estimate_response(
            rid,
            median=median,
            interval=(lo, hi),
            team=req.team,
            fitter=est.fitter_name,
            degraded=est.degraded,
            diagnostics=diagnostics,
            strict=req.strict,
        )

    def _internal_error(
        self, rid: str, exc: BaseException
    ) -> tuple[int, dict[str, Any]]:
        obs_metrics.counter("serve.internal_errors").inc()
        return protocol.STATUS_BY_EXIT[2], {
            "request_id": rid,
            "exit_code": 2,
            "error": f"{type(exc).__name__}: {exc}",
        }
