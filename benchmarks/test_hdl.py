"""HDL frontend benchmark: parse throughput over both languages.

Records one series in BENCH_obs.json:

* ``hdl.parse_throughput`` -- tokens per wall second parsing the 18
  bundled RTL files plus a seeded 120-module generated corpus in each
  language (higher is better; best of three passes).

Correctness is asserted (every file parses to at least one module); the
timing is the series.
"""

import time
from pathlib import Path

import repro.designs
from repro.gen import generate_corpus
from repro.hdl import parse_source
from repro.hdl.source import VERILOG, VHDL, SourceFile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

MODULES = 120
PASSES = 3


def _sources():
    rtl = Path(repro.designs.__file__).parent / "rtl"
    bundled = [SourceFile.from_path(p) for p in sorted(rtl.rglob("*.v*"))]
    generated = [
        src
        for language, seed in ((VERILOG, 41), (VHDL, 42))
        for gm in generate_corpus(language, MODULES, seed=seed)
        for src in gm.sources
    ]
    return bundled + generated


def test_parse_throughput(bench_series, report):
    sources = _sources()
    tokens = obs_metrics.counter("hdl.tokens_lexed")
    best = float("inf")
    # Untraced, as in a plain run: an active tracer adds an AST walk per file.
    with obs_trace.using(None):
        for _ in range(PASSES):
            before = tokens.value
            t0 = time.perf_counter()
            designs = [parse_source(src) for src in sources]
            best = min(best, time.perf_counter() - t0)
            lexed = int(tokens.value - before)

    assert all(design.modules for design in designs)
    throughput = lexed / best if best > 0 else 0.0
    bench_series("hdl.parse_throughput", throughput)
    report(
        "parse throughput",
        f"{len(sources)} files, {lexed} tokens in {best * 1000:.1f}ms "
        f"-> {throughput / 1e6:.2f}M tokens/s",
    )
