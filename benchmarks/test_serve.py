"""Serve-daemon benchmarks: cold CPU, warm latency, sustained throughput.

Three trajectories for BENCH_obs.json (gated by ``benchdiff.toml``):

* ``serve.cold_cpu_ms`` -- CPU (user + sys) of a ``ucomplexity serve
  --jobs 2`` subprocess and its pool workers, live or reaped, per cold
  single-module ``POST /measure``, over one keep-alive connection on a
  fresh cache.  The daemon keeps its idle workers between requests, so
  this is measurement plus one pipe round trip, not a fork per request.

* ``serve.latency_warm_p50_ms`` -- median round-trip for a ``POST
  /measure`` whose component is already in the measurement memo.  The
  warm path must resolve entirely in the parent (the benchmark asserts
  zero ``exec.dispatched`` growth), so this number is HTTP framing +
  dispatcher hop + memo load -- the daemon's floor.
* ``serve.throughput_rps`` -- completed warm requests per second under
  8 concurrent keep-alive clients; batching and the memo should keep
  this comfortably above double digits.
"""

import http.client
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.gen import corpus_specs, generate_corpus
from repro.hdl.source import VERILOG, SourceFile
from repro.obs import metrics as obs_metrics
from tests.serve.harness import ServerHarness

_ADDER = SourceFile(
    "adder.v",
    """
    module top_adder #(parameter W = 8)(input [W-1:0] a, b,
                                        output [W-1:0] s);
      assign s = a + b;
    endmodule
    """,
)

_BODY = json.dumps(
    {
        "files": [{"name": _ADDER.name, "text": _ADDER.text}],
        "top": "top_adder",
        "name": "adder",
    }
).encode()

WARM_SAMPLES = 60
THROUGHPUT_CLIENTS = 8
THROUGHPUT_REQUESTS = 160
COLD_REQUESTS = 30

_SRC = Path(__file__).resolve().parents[1] / "src"
_TICKS = os.sysconf("SC_CLK_TCK")


def _post_measure(conn: http.client.HTTPConnection) -> int:
    conn.request(
        "POST", "/measure", body=_BODY,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    response.read()
    return response.status


def test_serve_warm_latency_and_throughput(bench_series, report, tmp_path):
    engine = Engine(cache=SynthesisCache(tmp_path / "cache"), jobs=2)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry):
        with ServerHarness(engine) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120
            )
            # Cold request: populates the measurement memo via the pool.
            assert _post_measure(conn) == 200
            dispatched_after_cold = registry.counter("exec.dispatched").value
            assert dispatched_after_cold >= 1.0

            # Warm latency: every subsequent request must be memo-served.
            samples = []
            for _ in range(WARM_SAMPLES):
                t0 = time.perf_counter()
                assert _post_measure(conn) == 200
                samples.append(time.perf_counter() - t0)
            conn.close()
            assert (
                registry.counter("exec.dispatched").value
                == dispatched_after_cold
            ), "warm requests must not dispatch pool tasks"

            # Throughput: concurrent keep-alive clients, warm path only.
            def _client(n_requests: int) -> int:
                c = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=120
                )
                try:
                    done = 0
                    for _ in range(n_requests):
                        if _post_measure(c) == 200:
                            done += 1
                    return done
                finally:
                    c.close()

            per_client = THROUGHPUT_REQUESTS // THROUGHPUT_CLIENTS
            t0 = time.perf_counter()
            with ThreadPoolExecutor(THROUGHPUT_CLIENTS) as pool:
                completed = sum(
                    pool.map(_client, [per_client] * THROUGHPUT_CLIENTS)
                )
            elapsed = time.perf_counter() - t0

    assert completed == THROUGHPUT_REQUESTS
    samples.sort()
    p50_ms = samples[len(samples) // 2] * 1000.0
    rps = completed / elapsed
    bench_series("serve.latency_warm_p50_ms", p50_ms)
    bench_series("serve.throughput_rps", rps)
    report(
        "serve warm path",
        f"warm p50 latency: {p50_ms:.2f} ms over {WARM_SAMPLES} samples\n"
        f"throughput: {rps:.1f} req/s "
        f"({THROUGHPUT_CLIENTS} clients, {completed} requests, "
        f"{elapsed:.2f} s)",
    )


def _tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid``, its reaped children, and its live ones."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return 0.0
    utime, stime, cutime, cstime = (int(x) for x in fields.split()[11:15])
    total = (utime + stime + cutime + cstime) / _TICKS
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        total += sum(_tree_cpu_s(int(child)) for child in children)
    return total


def test_serve_cold_cpu(bench_series, report, tmp_path):
    bodies = [
        json.dumps({
            "files": [{"name": s.name, "text": s.text} for s in spec.sources],
            "top": spec.top,
            "name": spec.name,
        }).encode()
        for spec in corpus_specs(generate_corpus(VERILOG, COLD_REQUESTS,
                                                 seed=11))
    ]
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "2",
         "--port", "0", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        port = int(daemon.stdout.readline().rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        cpu0 = _tree_cpu_s(daemon.pid)
        for body in bodies:
            conn.request("POST", "/measure", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        cold_ms = (_tree_cpu_s(daemon.pid) - cpu0) / len(bodies) * 1e3
        conn.close()
    finally:
        daemon.terminate()
        assert daemon.wait(timeout=60) == 0
        daemon.stdout.close()
    bench_series("serve.cold_cpu_ms", cold_ms)
    report(
        "serve cold path",
        f"daemon + worker CPU per cold request: {cold_ms:.2f} ms "
        f"over {len(bodies)} single-module requests",
    )
