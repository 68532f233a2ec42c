"""Adaptive panel quadrature built on Gauss-Legendre rules.

Each panel is integrated with 10- and 20-point rules; their difference
serves as the panel error estimate. Panels whose estimate exceeds their
width-proportional share of the absolute tolerance are bisected, at most
to a fixed depth of 60. Nodes and weights are computed on first use by
Newton iteration on the Legendre recurrence, so there are no baked-in
coefficient tables.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, QuadratureError, _finite_real, _integer, _memo, _record

_MAX_DEPTH = 60


# typed, so 2.0 and True miss the entries of 2 and 1 and reach the check; the
# size cap bounds a rule's O(n^2) time, and 16 rules at most 1 MB (10, 20 are used)
@_memo(16, typed=True)
def gauss_legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], 1 <= n <= 1000."""
    _integer(n, "rule size", 1, 1000)
    nodes = []
    weights = []
    for i in range(1, n + 1):
        x, dx = math.cos(math.pi * (i - 0.25) / (n + 0.5)), 1.0
        for steps in range(101):
            pm, p = 1.0, x
            for k in range(2, n + 1):
                pm, p = p, ((2 * k - 1) * x * p - (k - 1) * pm) / k
            dp = n * (x * p - pm) / (x * x - 1.0)
            if abs(dx) < 1e-15 or steps == 100:  # converged, or 100 Newton steps taken
                break
            dx = p / dp
            x -= dx
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _panel(f: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    # fsum rounds the exact sum once, so every interpreter gives the same
    # bits (the built-in sum of floats is compensated from Python 3.12 on)
    nodes, weights = gauss_legendre_rule(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * math.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))


@_record
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       abs_tol: float) -> QuadratureResult:
    """Integrate f over [lo, hi] to the given absolute tolerance.

    Raises QuadratureError (carrying the achieved tolerance) if a panel
    chain reaches depth 60 without its estimate dropping far enough, or
    at once if a panel's value is not finite: a NaN estimate fails every
    tolerance test, so its panels would be bisected down to depth 60.
    """
    if not (_finite_real(lo) and _finite_real(hi) and _finite_real(abs_tol)):
        raise DomainError(f"need finite lo, hi and abs_tol, got {lo!r}, {hi!r}, {abs_tol!r}")
    lo, hi, abs_tol = float(lo), float(hi), float(abs_tol)
    if hi <= lo:
        raise QuadratureError(f"empty interval [{lo!r}, {hi!r}]", achieved_tolerance=0.0)
    width = hi - lo
    total = 0.0
    err_total = 0.0
    evals = 0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        coarse = _panel(f, a, b, 10)
        fine = _panel(f, a, b, 20)
        evals += 30
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise QuadratureError(f"panel [{a!r}, {b!r}] has a non-finite value",
                                  achieved_tolerance=math.inf)
        err = abs(fine - coarse)
        share = abs_tol * (b - a) / width
        if err <= max(share, 32.0 * 2.220446049250313e-16 * abs(fine)) or depth >= _MAX_DEPTH:
            if depth >= _MAX_DEPTH and err > share:
                raise QuadratureError(
                    f"panel [{a!r}, {b!r}] stagnated at depth {depth}",
                    achieved_tolerance=err_total + err)
            total += fine
            err_total += err
        else:
            mid = 0.5 * (a + b)
            stack.append((mid, b, depth + 1))
            stack.append((a, mid, depth + 1))
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evals)
