"""Per-iteration optimizer telemetry for the NLME fitters.

The convergence verdicts of :mod:`repro.stats.robust` say *whether* a fit
converged; a :class:`FitTrace` shows *how*: one :class:`FitIteration` row
per optimizer iteration with the objective value (negative log-likelihood
for the likelihood fitters), the norm of the fitter's exact gradient, and
the step length.  Non-convergence reports can then point at trajectories --
"the objective plateaued at iteration 12 with |grad| still 1e-1" -- instead
of bare verdicts.

A trace plugs into ``scipy.optimize.minimize`` through the standard
``callback`` hook (:meth:`FitTrace.watch` builds one per optimizer start),
and mirrors every row into the active tracer as a ``fit_iter`` event so
``--trace`` files carry the full trajectory.  numpy loads only when a
start is watched, so an untraced fit (:func:`maybe_fit_trace` returns
``None``) never imports it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.obs import trace as obs_trace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class FitIteration:
    """One optimizer iteration of one start."""

    fitter: str
    start_index: int        # which optimizer start (multi-start fits)
    iteration: int          # 0-based within the start
    objective: float        # value being minimized (NLL for ML fitters)
    grad_norm: float | None
    step: float | None      # ||theta_k - theta_{k-1}||; None on iteration 0

    @property
    def loglik(self) -> float:
        """The log-likelihood, assuming the objective is an NLL."""
        return -self.objective


class FitTrace:
    """Collects per-iteration rows across every start of one fit.

    Args:
        fitter: name recorded on every row ("exact-ml", "laplace-aghq",
            "fixed-effects").
        objective_is_nll: whether ``-objective`` is a log-likelihood;
            controls the ``loglik`` field of emitted trace events.
        record_gradients: record the norm of the gradient the watched
            objective returns (see :meth:`watch`).
        emit: mirror rows into the active tracer as ``fit_iter`` events.
    """

    def __init__(
        self,
        fitter: str,
        objective_is_nll: bool = True,
        record_gradients: bool = True,
        emit: bool = True,
    ) -> None:
        self.fitter = fitter
        self.objective_is_nll = objective_is_nll
        self.record_gradients = record_gradients
        self.emit = emit
        self.rows: list[FitIteration] = []

    def __len__(self) -> int:
        return len(self.rows)

    def starts(self) -> dict[int, list[FitIteration]]:
        """Rows grouped by optimizer start, in iteration order."""
        out: dict[int, list[FitIteration]] = {}
        for row in self.rows:
            out.setdefault(row.start_index, []).append(row)
        return out

    def record(
        self,
        start_index: int,
        iteration: int,
        theta: np.ndarray,
        objective_value: float,
        grad_norm: float | None,
        step: float | None,
    ) -> FitIteration:
        row = FitIteration(
            fitter=self.fitter,
            start_index=start_index,
            iteration=iteration,
            objective=float(objective_value),
            grad_norm=grad_norm,
            step=step,
        )
        self.rows.append(row)
        if self.emit:
            fields: dict = {
                "fitter": row.fitter,
                "start": row.start_index,
                "iter": row.iteration,
                "objective": row.objective,
                "grad_norm": row.grad_norm,
                "step": row.step,
            }
            if self.objective_is_nll:
                fields["loglik"] = row.loglik
            obs_trace.event("fit_iter", **fields)
        return row

    def watch(
        self,
        objective: Callable[[np.ndarray], float | tuple[float, np.ndarray]],
        start_index: int,
    ) -> Callable[..., None]:
        """A ``scipy.optimize.minimize``-compatible callback for one start.

        ``objective`` returns the objective value, or a ``(value,
        gradient)`` pair -- the function a ``jac=True`` optimizer gets.
        Rows carry the gradient's norm when there is one and
        ``record_gradients`` is set, and ``None`` otherwise.

        Works with solvers that call ``callback(xk)`` (L-BFGS-B,
        Nelder-Mead) and with those passing extra state positionally.
        """
        import numpy as np

        state: dict = {"prev": None, "iteration": 0}

        def callback(xk: Sequence[float], *_args: object) -> None:
            theta = np.asarray(xk, dtype=float).copy()
            value = objective(theta)
            grad_norm = None
            if isinstance(value, tuple):
                value, grad = value
                if self.record_gradients:
                    grad_norm = float(np.linalg.norm(grad))
            prev = state["prev"]
            step = (
                float(np.linalg.norm(theta - prev)) if prev is not None else None
            )
            self.record(
                start_index=start_index,
                iteration=state["iteration"],
                theta=theta,
                objective_value=float(value),
                grad_norm=grad_norm,
                step=step,
            )
            state["prev"] = theta
            state["iteration"] += 1

        return callback


def maybe_fit_trace(
    fitter: str,
    explicit: FitTrace | None = None,
    objective_is_nll: bool = True,
    record_gradients: bool = True,
) -> FitTrace | None:
    """The trace a fitter should record into, if any.

    An explicitly passed trace always wins; otherwise a trace is created
    exactly when a tracer is active, so untraced fits pay nothing.
    ``record_gradients=False`` is for fitters with no gradient of their
    objective (e.g. the quadrature marginal likelihood).
    """
    if explicit is not None:
        return explicit
    if obs_trace.active() is not None:
        return FitTrace(
            fitter,
            objective_is_nll=objective_is_nll,
            record_gradients=record_gradients,
        )
    return None
