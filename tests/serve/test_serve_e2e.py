"""Serve e2e suite (``pytest -m serve``): the daemon against real clients.

The acceptance bar: responses from a loaded, concurrent server are
byte-identical to what a single-shot CLI-path computation of the same
request produces; request ids land in the exported span tree; the HTTP
error contract mirrors the CLI's exit codes (degraded -> 422, with the
same rendered hints the CLI prints); SIGTERM drains in-flight work.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import obs
from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.estimator import DesignEffortEstimator
from repro.data.paper import paper_dataset
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.faultinject import truncate_source
from repro.serve import protocol
from tests.serve.harness import ServerHarness
from tests._measure import measure_one

pytestmark = pytest.mark.serve

_ADDER = SourceFile(
    "adder.v",
    """
    module top_adder #(parameter W = 8)(input [W-1:0] a, b,
                                        output [W-1:0] s);
      assign s = a + b;
    endmodule
    """,
)

_MUX = SourceFile(
    "mux.v",
    """
    module top_mux #(parameter W = 4)(input sel, input [W-1:0] a, b,
                                      output [W-1:0] y);
      assign y = sel ? a : b;
    endmodule
    """,
)

_COUNTER = SourceFile(
    "counter.v",
    """
    module top_counter #(parameter W = 4)(input clk, rst,
                                          output reg [W-1:0] q);
      always @(posedge clk) begin
        if (rst)
          q <= 0;
        else
          q <= q + 1;
      end
    endmodule
    """,
)

_COMPONENTS = {
    "adder": (_ADDER, "top_adder"),
    "mux": (_MUX, "top_mux"),
    "counter": (_COUNTER, "top_counter"),
}


def _measure_body(name: str) -> dict:
    source, top = _COMPONENTS[name]
    return {
        "files": [{"name": source.name, "text": source.text}],
        "top": top,
        "name": name,
    }


def _expected_bytes(name: str, request_id: str) -> bytes:
    """The response bytes the CLI code path predicts for this request."""
    source, top = _COMPONENTS[name]
    result = measure_one(Engine(), [source], top, name=name)
    _status, payload = protocol.measure_response(request_id, result)
    return protocol.encode(payload)


class TestConcurrentByteIdentity:
    def test_concurrent_responses_match_cli_computation(self, tmp_path):
        engine = Engine(cache=SynthesisCache(tmp_path / "cache"), jobs=2)
        names = [
            n for _ in range(3) for n in ("adder", "mux", "counter")
        ]
        with ServerHarness(engine) as server:
            with ThreadPoolExecutor(max_workers=len(names)) as pool:
                responses = list(
                    pool.map(
                        lambda n: (
                            n, server.request("POST", "/measure", _measure_body(n))
                        ),
                        names,
                    )
                )
        seen_ids = set()
        for name, (status, raw, headers) in responses:
            assert status == 200
            rid = json.loads(raw)["request_id"]
            assert headers["x-request-id"] == rid
            seen_ids.add(rid)
            assert raw == _expected_bytes(name, rid), name
        assert len(seen_ids) == len(names)  # every request answered itself

    def test_warm_requests_skip_the_pool(self, tmp_path):
        engine = Engine(cache=SynthesisCache(tmp_path / "cache"), jobs=2)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            with ServerHarness(engine) as server:
                first = server.request("POST", "/measure", _measure_body("adder"))
                dispatched_cold = registry.counter("exec.dispatched").value
                second = server.request("POST", "/measure", _measure_body("adder"))
                dispatched_warm = registry.counter("exec.dispatched").value
        assert first[0] == 200 and second[0] == 200
        assert dispatched_cold >= 1.0
        assert dispatched_warm == dispatched_cold  # memo hit: zero dispatches
        # Identical requests produce identical payloads modulo request id.
        a, b = json.loads(first[1]), json.loads(second[1])
        a.pop("request_id"), b.pop("request_id")
        assert protocol.encode(a) == protocol.encode(b)


class TestTraceGrafting:
    def test_request_ids_land_in_exported_span_tree(self, tmp_path):
        tracer = obs.Tracer()
        with obs_trace.using(tracer):
            with ServerHarness(Engine(jobs=2)) as server:
                with ThreadPoolExecutor(max_workers=3) as pool:
                    responses = list(
                        pool.map(
                            lambda n: server.post_json(
                                "/measure", _measure_body(n)
                            ),
                            ["adder", "mux", "counter"],
                        )
                    )
        rids = {payload["request_id"] for _status, payload in responses}
        assert len(rids) == 3

        trace_file = tmp_path / "trace.jsonl"
        obs.RunReport.collect(tracer).write_jsonl(trace_file)
        rows = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
            if line
        ]
        request_spans = [
            r for r in rows
            if r.get("type") == "span" and r.get("name") == "serve.request"
        ]
        exported_ids = {r["attrs"]["request"] for r in request_spans}
        assert rids <= exported_ids
        # Every serve.request span joins the tree: either a root-level
        # request or a child of a serve.batch span.
        by_id = {r["id"]: r for r in rows if r.get("type") == "span"}
        for span in request_spans:
            parent = span.get("parent")
            if parent is not None:
                assert by_id[parent]["name"] in ("serve.batch", "serve.request")


class TestErrorContract:
    def test_degraded_measure_is_422_with_cli_hints(self):
        corrupt = truncate_source(_ADDER, 0.4)
        body = {
            "files": [
                {"name": _ADDER.name, "text": _ADDER.text},
                {"name": "broken.v", "text": corrupt.text},
            ],
            "top": "top_adder",
            "name": "adder",
        }
        with ServerHarness() as server:
            status, raw, _headers = server.request("POST", "/measure", body)
        assert status == 422
        payload = json.loads(raw)
        assert payload["exit_code"] == 1
        assert payload["verdict"] == "degraded"
        assert payload["component"] is not None  # partial result survives

        # The wire diagnostics render exactly as the CLI prints them.
        local = measure_one(
            Engine(),
            [
                SourceFile(_ADDER.name, _ADDER.text),
                SourceFile("broken.v", corrupt.text),
            ],
            "top_adder",
            name="adder",
        )
        assert local.degraded
        assert [d["rendered"] for d in payload["diagnostics"]] == [
            d.render() for d in local.diagnostics
        ]
        assert any("hint:" in d["rendered"] for d in payload["diagnostics"])

    def test_fatal_measure_is_500(self):
        body = {
            "files": [{"name": "x.v", "text": "entirely not hdl ("}],
            "top": "nope",
        }
        with ServerHarness() as server:
            status, payload = server.post_json("/measure", body)
        assert status == 500
        assert payload["exit_code"] == 2
        assert payload["verdict"] == "failed"

    def test_http_edges(self):
        with ServerHarness() as server:
            assert server.request("GET", "/nope")[0] == 404
            assert server.request("GET", "/measure")[0] == 405
            assert server.request("POST", "/healthz", {})[0] == 405
            status, raw, _ = server.request("POST", "/measure", {"files": []})
            assert status == 400
            assert "files" in json.loads(raw)["error"]
            # Invalid JSON framing.
            conn_status, conn_raw, _ = server.request("POST", "/lint", None)
            assert conn_status == 400

    def test_lint_and_estimate_roundtrip(self):
        with ServerHarness() as server:
            status, payload = server.post_json(
                "/lint",
                {"files": [{"name": _ADDER.name, "text": _ADDER.text}]},
            )
            # The little adder trips accounting rules: findings -> 422.
            assert status in (200, 422)
            assert payload["exit_code"] in (0, 1)
            assert payload["findings"] is not None

            status, payload = server.post_json(
                "/estimate", {"metrics": {"Stmts": 1000, "FanInLC": 500}}
            )
            assert status == 200
            assert payload["median"] > 0
            lo, hi = payload["interval"]
            assert lo < payload["median"] < hi


class TestFreshDaemon:
    def test_first_request_estimate_alongside_measure(self):
        """A fresh daemon has not imported the fitter or scipy: /estimate,
        its first request, loads them on the dispatcher thread while a
        concurrent /measure forks a pool worker."""
        metrics = {"Stmts": 1000, "FanInLC": 500}
        with _daemon() as (_proc, port):
            with ThreadPoolExecutor(2) as clients:
                estimate = clients.submit(
                    _raw_request, port, {"metrics": metrics}, "POST",
                    "/estimate",
                )
                _await_inflight(port, estimate.done)
                measure = clients.submit(
                    _raw_request, port, _measure_body("adder"))
                e_status, e_payload = estimate.result(timeout=120)
                m_status, m_payload = measure.result(timeout=120)
        assert (e_status, m_status) == (200, 200)
        assert m_payload["verdict"] == "ok"
        est = DesignEffortEstimator.fit(
            paper_dataset(), sorted(metrics), robust=True)
        assert e_payload["median"] == est.estimate(metrics)
        assert e_payload["interval"] == list(est.interval(metrics))


class TestDrain:
    def test_sigterm_drains_inflight_requests(self, tmp_path):
        plan = tmp_path / "chaos.json"
        plan.write_text(json.dumps({"slowpoke": ["slow", 2.0]}))
        with _daemon("--chaos", str(plan), "--grace", "60") as (proc, port):
            body = _measure_body("adder")
            body["name"] = "slowpoke"  # chaos plan keys on the task label

            slow_response: dict = {}

            def _slow_request():
                slow_response["result"] = _raw_request(port, body)

            client = threading.Thread(target=_slow_request)
            client.start()
            # Wait until the slow request is actually in flight server-side.
            _await_inflight(port)

            proc.send_signal(signal.SIGTERM)
            client.join(timeout=90)
            assert not client.is_alive()
            status, payload = slow_response["result"]
            assert status == 200  # drained, not dropped
            assert payload["verdict"] == "ok"
            assert proc.wait(timeout=60) == 0  # clean drain: EXIT_OK


@contextlib.contextmanager
def _daemon(*args: str):
    """A ``python -m repro serve`` subprocess; yields (process, port)."""
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache",
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        yield proc, int(banner.rsplit(":", 1)[1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def _await_inflight(port: int, done=lambda: False) -> None:
    """Poll /healthz until a request is in flight (or ``done()``)."""
    deadline = time.time() + 30
    while time.time() < deadline:
        _status, payload = _raw_request(port, None, "GET", "/healthz")
        if payload.get("inflight", 0) >= 1 or done():
            return
        time.sleep(0.05)
    pytest.fail("request never became in-flight")


def _raw_request(port, body, method="POST", path="/measure"):
    """Dependency-free one-shot HTTP client for the subprocess daemon."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(head.encode() + payload)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    header, _, raw = data.partition(b"\r\n\r\n")
    return int(header.split(b" ")[1]), json.loads(raw)
