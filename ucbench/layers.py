"""Per-layer self time, recorded from the benchmark's own files.

The program's spans do not yet cover every layer (the synthesis report
passes have none), so the traced run wraps each layer's public entry
points here instead.  A wrapper replaces every binding of the original
function in the loaded ``repro`` modules (``from x import f`` copies the
reference, so patching only the defining module would miss callers) and
keeps a stack of active layer frames.  A frame's *self* time is its wall
time minus the wall time of the wrapped calls nested inside it, so the
self times of one phase partition the part of its wall time spent inside
any wrapped call; the remainder is reported as ``engine.self_s``.

Only the calling thread is traced and the layers are process-local: pool
workers run unwrapped, which is why the pool's costs come from the
program's own tracer instead (see ``run.py``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Layer:
    """One per-layer metric and the entry points it times.

    ``targets`` are ``"module:attr"`` or ``"module:Class.method"`` paths.
    A call made while the innermost active frame belongs to one of
    ``absorbed_by`` is not timed separately: its cost stays in that
    frame.  This is how the trial elaborations of the accounting
    procedure count as accounting, not as elaboration.
    """

    metric: str
    targets: tuple[str, ...]
    absorbed_by: tuple[str, ...] = ()


_CACHE_LOADS = tuple(
    f"repro.cache:SynthesisCache.{m}"
    for m in ("load", "load_measurement", "load_lint")
)
_CACHE_STORES = tuple(
    f"repro.cache:SynthesisCache.{m}"
    for m in ("store", "store_measurement", "store_lint")
)
_CACHE_KEYS = tuple(
    f"repro.cache:SynthesisCache.{m}"
    for m in ("key", "measurement_key", "lint_key")
)

#: Every wrapped layer.  Order matters only for reporting.
LAYERS: tuple[Layer, ...] = (
    Layer("hdl.parse_s", ("repro.hdl:parse_source",)),
    Layer("hdl.software_metrics_s", ("repro.hdl.metrics:software_metrics",)),
    Layer(
        "elab.elaborate_s", ("repro.elab.elaborator:elaborate",),
        absorbed_by=("account.minimal_parameters_s",),
    ),
    Layer(
        "account.minimal_parameters_s",
        ("repro.elab.degeneracy:minimal_parameters",),
    ),
    Layer("account.select_s", ("repro.core.accounting:select_components",)),
    Layer("synth.lower_s", ("repro.synth.lower:synthesize_module",)),
    Layer("synth.area_s", ("repro.synth.area:area_report",)),
    Layer("synth.timing_s", ("repro.synth.timing:timing_report",)),
    Layer("synth.power_s", ("repro.synth.power:power_report",)),
    Layer("synth.lut_map_s", ("repro.synth.fpga:map_to_luts",)),
    Layer("synth.cones_s", ("repro.synth.cones:fanin_logic_cones",)),
    Layer("flow.dfg_s", ("repro.flow.dfg:build_dfg",)),
    Layer("flow.spectral_s", ("repro.flow.metrics:laplacian_stats",)),
    Layer("flow.report_s", ("repro.flow.metrics:flow_report",)),
    Layer("cache.load_s", _CACHE_LOADS),
    Layer("cache.store_s", _CACHE_STORES),
    Layer("cache.key_s", _CACHE_KEYS),
    Layer(
        "lint.rules_s",
        (
            "repro.lint.engine:lint_sources",
            "repro.lint.engine:lint_design",
            "repro.lint.engine:lint_module",
        ),
    ),
    Layer(
        "stats.fit_s",
        (
            "repro.stats.robust:fit_nlme_robust",
            "repro.stats.nlme:fit_nlme",
            "repro.stats.fixedeffects:fit_fixed_effects",
            "repro.stats.laplace:fit_nlme_laplace",
        ),
    ),
    Layer("stats.verify_s", ("repro.stats.robust:verify_nlme_convergence",)),
)

#: Modules imported before patching so that every ``from x import f``
#: binding that the measured phases use already exists.
_PRELOAD = (
    "repro.core.engine",
    "repro.core.workflow",
    "repro.lint.engine",
    "repro.lint.rules",
    "repro.flow.metrics",
    "repro.synth.report",
    "repro.analysis.evaluation",
    "repro.core.estimator",
    "repro.stats.robust",
)


def _resolve(path: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, original value) for a target path."""
    module_name, _, attr = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class LayerTracer:
    """Install wrappers, then collect per-layer self time per phase.

    ``delays`` plants an artificial cost (seconds per call) inside one
    layer's timed region; the benchmark's self-test uses it to check that
    a slowdown is attributed to that layer and no other.
    """

    def __init__(
        self,
        layers: tuple[Layer, ...] = LAYERS,
        delays: dict[str, float] | None = None,
    ) -> None:
        self.layers = layers
        self.delays = dict(delays or {})
        self._stack: list[list[Any]] = []
        self._self: dict[str, float] | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name in _PRELOAD:
            importlib.import_module(name)
        for layer in self.layers:
            for path in layer.targets:
                owner, name, original = _resolve(path)
                if isinstance(owner, type):
                    self._patch(owner, name, self._wrap(original, layer))
                    continue
                wrapper = self._wrap(original, layer)
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name.partition(".")[0] != "repro":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        stack = self._stack
        metric = layer.metric
        absorbed_by = layer.absorbed_by
        delay = self.delays.get(metric, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            totals = self._self
            if totals is None or (stack and stack[-1][0] in absorbed_by):
                return fn(*args, **kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if delay:
                    time.sleep(delay)
                return fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                stack.pop()
                totals[metric] = totals.get(metric, 0.0) + wall - frame[1]
                if stack:
                    stack[-1][1] += wall

        return wrapper

    # -- collection ----------------------------------------------------------

    @contextmanager
    def phase(self) -> Iterator[dict[str, float]]:
        """Collect self times for the ``with`` body.

        Yields a dict that, on exit, maps every layer metric to its self
        seconds, plus ``"wall_s"`` (the body's wall time) and
        ``"engine.self_s"`` (wall time spent outside every wrapped call).
        """
        out: dict[str, float] = {}
        self._self = {}
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - t0
            totals, self._self = self._self, None
            self._stack.clear()
            for layer in self.layers:
                out[layer.metric] = totals.get(layer.metric, 0.0)
            out["wall_s"] = wall
            out["engine.self_s"] = max(
                wall - sum(totals.values()), 0.0
            )
