"""Reference likelihood: the per-team loop, kept as a test-only oracle for
:func:`repro.stats.nlme._nll_and_grad`.

``negative_loglik`` is the original ``_negative_loglik`` of
``repro.stats.nlme``, verbatim apart from its name: one Python iteration
per team, each forming the compound-symmetric log-determinant and
quadratic form directly.  ``test_nll_oracle.py`` checks that the
vectorised likelihood equals it, and that both analytic gradients equal
its central differences.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


def negative_loglik(
    theta: np.ndarray,
    y: np.ndarray,
    metrics: np.ndarray,
    groups: list[tuple[str, np.ndarray]],
) -> float:
    """Exact negative marginal log-likelihood at ``theta``.

    ``theta = (u_1..u_k, log sigma_eps, log sigma_rho)`` with ``w = exp(u)``.
    """
    k = metrics.shape[1]
    w = np.exp(theta[:k])
    s2e = math.exp(2.0 * theta[k])
    s2r = math.exp(2.0 * theta[k + 1])
    lin = metrics @ w
    # w > 0 and metrics > 0 guarantee lin > 0.
    f = np.log(lin)
    r = y - f
    nll = 0.0
    for _, idx in groups:
        ri = r[idx]
        n_i = ri.shape[0]
        tot = s2e + n_i * s2r
        logdet = (n_i - 1) * math.log(s2e) + math.log(tot)
        quad = float(ri @ ri) / s2e - (s2r / (s2e * tot)) * float(ri.sum()) ** 2
        nll += 0.5 * (n_i * _LOG_2PI + logdet + quad)
    return nll


def rss(u: np.ndarray, y: np.ndarray, metrics: np.ndarray) -> float:
    """The rho=1 objective: residual sum of squares at log-weights ``u``."""
    r = y - np.log(metrics @ np.exp(u))
    return float(r @ r)


def central_gradient(f, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar function ``f``."""
    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad
