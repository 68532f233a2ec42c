"""Radial eigenvalues: zeros of J_m and of the J/N cross-product.

Two families are located here:

* ``bessel_zeros``: the positive zeros x_mn of J_m, which set the radial
  eigenvalue of a solid cylinder through gamma = x_mn / b.
* ``cross_product_zeros``: the roots gamma_mn of

      D(gamma) = J_m(gamma b) N_m(gamma a) - J_m(gamma a) N_m(gamma b)

  which play the same role for an annular cross-section with walls at
  rho = a and rho = b. gamma = 0 is excluded (the limit of D at 0+ is
  finite and nonzero, and the corresponding radial solution is trivial).

Bracketing is sign-change based: McMahon guesses accelerate the J_m scan
where they are reliable (certified by the expected sign pattern), and a
plain oversampled march covers everything else, including the whole
cross-product family. Each bracket is refined with a Brent-style hybrid
to ~1e-14 on the abscissa, and each refined root is verified by its
residual before it enters the table.

Tables are cached process-wide, one lock per table: one writer extends
a table while lookups of other tables go on. A table is the same whatever
the sequence of counts it was grown by: every root of a scan window
enters it, and the cross-product scan resumes where its last window
ended.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, GeometryError, OrderError, RootFindingError
from .specfun import ORDER_MAX, _j_raw, _y_raw

_EPS = 2.220446049250313e-16

COUNT_MAX = 1000
MIN_RADIUS_RATIO = 1e-3


@dataclass(frozen=True)
class ZeroTable:
    """An ordered table of radial eigenvalues for one angular order.

    zeros are dimensionless for kind="cylinder" (arguments x_mn of J_m)
    and carry rad/m for kind="annulus" (the eigenvalue gamma itself).
    residuals hold |J_m(x_mn)| resp. |D(gamma_mn)| for each entry.
    """

    m: int
    kind: str
    zeros: tuple[float, ...]
    residuals: tuple[float, ...]
    geometry_tag: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.zeros, self.zeros[1:])):
            raise RootFindingError(f"zero table for m={self.m} is not strictly increasing")
        if self.zeros and self.zeros[0] <= 0.0:
            raise RootFindingError("zero tables must contain positive entries only")


def _brent(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
           xtol: float) -> float:
    """Root of f in [a, b] given f(a) f(b) < 0; bisection/secant/IQI hybrid."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise RootFindingError("bracket endpoints do not straddle a sign change")
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * mid * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += tol if mid > 0.0 else -tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _refine_bracket(f: Callable[[float], float], lo: float, hi: float,
                    flo: float, fhi: float) -> list[tuple[float, float, float, float]]:
    """Split a sign-change window until each piece holds exactly one change.

    Oscillations tighten as the order grows; an eight-fold subsample per
    window catches the (rare) case of more than one root per scan step.
    """
    xs = [lo + (hi - lo) * i / 8.0 for i in range(9)]
    fs = [flo] + [f(x) for x in xs[1:-1]] + [fhi]
    pieces = []
    for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:]):
        if f0 == 0.0 or (f0 > 0.0) != (f1 > 0.0):
            pieces.append((x0, x1, f0, f1))
    if not pieces:
        raise RootFindingError("sign change vanished while verifying a bracket")
    return pieces


def _mcmahon_guess(m: int, n: int) -> float:
    mu = 4.0 * m * m
    beta = (n + 0.5 * m - 0.25) * math.pi
    return (beta
            - (mu - 1.0) / (8.0 * beta)
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))


def _jm_first_zero_floor(m: int) -> float:
    # x_{m,1} > sqrt(m (m + 2)); J_m is positive below its first zero
    return max(0.3, 0.99 * math.sqrt(m * (m + 2.0))) if m else 0.3


class _Table:
    """One extendable root list, its lock and where its scan resumes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.rows: list[tuple[float, float]] = []
        self.resume: Optional[tuple[float, float]] = None  # (x, f(x)) of the scan


class _ZeroCache:
    """Extendable per-key root tables, each with exclusive-writer access."""

    def __init__(self):
        self._lock = threading.Lock()  # guards the dict only, never an extension
        self._tables: dict[tuple, _Table] = {}

    def get(self, key: tuple, count: int,
            extend: Callable[[_Table, int], None]) -> list[tuple[float, float]]:
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = _Table()
        with table.lock:
            if len(table.rows) < count:
                extend(table, count)
            return table.rows[:count]


_cache = _ZeroCache()


def _extend_bessel_table(m: int, table: list[tuple[float, float]], count: int) -> None:
    """Append zeros of J_m until ``table`` holds ``count``; it may hold more."""
    f = lambda x: _j_raw(m, x)[0]
    while len(table) < count:
        n = len(table) + 1
        expected_lo_sign = 1.0 if n % 2 else -1.0  # sign of J_m just below zero n
        guess = _mcmahon_guess(m, n)
        bracket = None
        lo = guess - 1.3
        hi = guess + 1.3
        if lo > (table[-1][0] if table else _jm_first_zero_floor(m)):
            flo, fhi = f(lo), f(hi)
            if (math.copysign(1.0, flo) == expected_lo_sign
                    and (flo > 0.0) != (fhi > 0.0)):
                bracket = (lo, hi, flo, fhi)
        if bracket is None:
            # march from the last confirmed zero; step 1.0 is always below
            # the minimal gap (~2.4) between consecutive zeros
            x = (table[-1][0] + 0.25) if table else _jm_first_zero_floor(m)
            fx = f(x)
            while True:
                x2 = x + 1.0
                fx2 = f(x2)
                if fx == 0.0 or (fx > 0.0) != (fx2 > 0.0):
                    bracket = (x, x2, fx, fx2)
                    break
                x, fx = x2, fx2
                if x > 1.2e4:
                    raise RootFindingError(f"scan for zero {n} of J_{m} left the envelope")
        for lo, hi, flo, fhi in _refine_bracket(f, *bracket):
            root = _brent(f, lo, hi, flo, fhi, xtol=1e-14)
            residual = abs(f(root))
            slope = abs(_j_raw(m + 1, root)[0])  # |J'_m| = |J_{m+1}| at a zero
            if residual > 1e-12 or residual > 1e-10 * max(slope, 1e-30):
                raise RootFindingError(
                    f"zero {n} of J_{m} failed verification: |J|={residual:.2e}, "
                    f"Newton bound {residual / max(slope, 1e-30):.2e}")
            table.append((root, residual))


def bessel_zeros(m: int, count: int) -> ZeroTable:
    """First ``count`` positive zeros of J_m, each verified in place.

    Every entry x satisfies |J_m(x)| <= 1e-12 and a Newton-step error
    bound below 1e-10. Tables are cached, so repeated calls with growing
    counts only pay for the extension.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m > ORDER_MAX:
        raise OrderError(f"order must be an integer in [0, {ORDER_MAX}], got {m!r}")
    if not isinstance(count, int) or count < 1 or count > COUNT_MAX:
        raise DomainError(f"count must be an integer in [1, {COUNT_MAX}], got {count!r}")
    rows = _cache.get(("cyl", m), count,
                      lambda table, want: _extend_bessel_table(m, table.rows, want))
    return ZeroTable(m=m, kind="cylinder",
                     zeros=tuple(r for r, _ in rows),
                     residuals=tuple(res for _, res in rows))


def _cross_determinant(m: int, a: float, b: float) -> Callable[[float], float]:
    def d(g: float) -> float:
        return (_j_raw(m, g * b)[0] * _y_raw(m, g * a)[0]
                - _j_raw(m, g * a)[0] * _y_raw(m, g * b)[0])
    return d


def _extend_cross_table(m: int, a: float, b: float, table: _Table, count: int) -> None:
    """Scan on from ``table.resume`` until ``table.rows`` holds ``count`` roots.

    Whole windows only: a window's every root enters the table and the
    scan resumes at the window's end, so the table never depends on the
    counts it was asked for along the way.
    """
    d = _cross_determinant(m, a, b)
    step = min(math.pi / (b - a), 0.5) / 4.0
    # verification probes sit a quarter oscillation period away from the
    # root: the bracket endpoints can land arbitrarily close to it, and for
    # very thin annuli even a full scan step covers only a sliver of the
    # arch, so neither gives a faithful max|D| scale
    probe = 0.25 * math.pi / (b - a)
    x, fx = table.resume or (step, d(step))
    guard = 0
    while len(table.rows) < count:
        x2 = x + step
        fx2 = d(x2)
        if fx == 0.0 or (fx > 0.0) != (fx2 > 0.0):
            found = []  # a window enters the table whole or not at all
            for lo, hi, flo, fhi in _refine_bracket(d, x, x2, fx, fx2):
                root = _brent(d, lo, hi, flo, fhi, xtol=1e-14)
                residual = abs(d(root))
                scale = max(abs(flo), abs(fhi),
                            abs(d(root - probe)), abs(d(root + probe)))
                if residual > 1e-10 * scale:
                    raise RootFindingError(
                        f"cross-product root near {root:.6g} failed verification: "
                        f"|D|={residual:.2e} vs arch scale {scale:.2e}")
                found.append((root, residual))
            table.rows.extend(found)
        x, fx = table.resume = (x2, fx2)
        guard += 1
        if guard > 5_000_000:
            raise RootFindingError("cross-product scan exceeded its step budget")


def cross_product_zeros(m: int, a: float, b: float, count: int) -> ZeroTable:
    """First ``count`` roots gamma_mn of the annular determinant.

    Requires 0 < a < b with a/b >= 1e-3; below that the Neumann factor at
    the inner wall diverges and the determinant loses all conditioning
    (use the cylinder table instead).
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m > ORDER_MAX:
        raise OrderError(f"order must be an integer in [0, {ORDER_MAX}], got {m!r}")
    if not isinstance(count, int) or count < 1 or count > COUNT_MAX:
        raise DomainError(f"count must be an integer in [1, {COUNT_MAX}], got {count!r}")
    a = float(a)
    b = float(b)
    if not (0.0 < a < b) or not math.isfinite(a) or not math.isfinite(b):
        raise GeometryError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    if a / b < MIN_RADIUS_RATIO:
        raise GeometryError(
            f"a/b = {a / b:.2e} is below {MIN_RADIUS_RATIO}; the annular determinant "
            "is numerically meaningless there (a solid cylinder is the right model)")
    rows = _cache.get(("ann", m, a, b), count,
                      lambda table, want: _extend_cross_table(m, a, b, table, want))
    return ZeroTable(m=m, kind="annulus",
                     zeros=tuple(r for r, _ in rows),
                     residuals=tuple(res for _, res in rows),
                     geometry_tag=(a, b))
