"""Radial eigenvalues: zeros of J_m and of the J/N cross-product.

Two families are located here:

* ``bessel_zeros``: the positive zeros x_mn of J_m, which set the radial
  eigenvalue of a solid cylinder through gamma = x_mn / b.
* ``cross_product_zeros``: the roots gamma_mn of

      D(gamma) = J_m(gamma b) N_m(gamma a) - J_m(gamma a) N_m(gamma b)

  which play the same role for an annular cross-section with walls at
  rho = a and rho = b. gamma = 0 is excluded (the limit of D at 0+ is
  finite and nonzero, and the corresponding radial solution is trivial).

Bracketing is sign-change based. McMahon guesses accelerate the J_m scan
where they are reliable (certified by the expected sign pattern), and a
march with a step of 1.0 covers everything else; consecutive zeros are at
least j_02 - j_01 = 3.115 apart, so neither bracket holds two.
The cross-product scan rests on the Sturm comparison windows: with
u = sqrt(rho) R the radial equation reads u'' + (gamma^2 - c/rho^2) u = 0
with c = m^2 - 1/4, so the n-th root obeys

    (n pi/(b-a))^2 + min(c/a^2, c/b^2) <= gamma_mn^2
                                       <= (n pi/(b-a))^2 + max(c/a^2, c/b^2).

The scan for root n starts one step above root n-1, or at the window's
lower end if that is higher, brackets the window directly when it cannot
hold root n+1, and otherwise marches in steps of pi/(4(b-a)). The step
rests on the root gap: the smallest gap measured over m <= 50 and a/b from
1e-3 to 0.999 is 0.444 pi/(b-a), so no root lies within one step above
the root below it, a step holds one root at most, and the first sign
change of the march is root n. The windows also certify the index: entry
n must lie in window n, widened by the determinant's rounding (16 eps
b/(b-a) relative, see ``_sturm_window``), and a march that passes window
n without a sign change raises instead of handing root n+1 out as root n.

Each bracket is polished by safeguarded Newton (``_polish``) to within
eps x of the root, a tolerance that scales with the walls. The slope is
exact and comes from the same ladder run as the value (``specfun._ladder``):
J'_m = m J_m/x - J_{m+1} for J_m zeros, and for the determinant

    D' = b J'_m(gamma b) N_m(gamma a) + a J_m(gamma b) N'_m(gamma a)
         - a J'_m(gamma a) N_m(gamma b) - b J_m(gamma a) N'_m(gamma b).

Newton starts from the McMahon guess for J_m zeros, and for cross-product
roots from the flat-gap perturbation formula shifted by its error at the
root below. Each polished root is verified by its residual, scaled by
|J_{m+1}| resp. the arch amplitude M_a M_b of D (``_cross_determinant``),
both from the tuple the polish hands back with the root, and by exceeding
the entry before it; entries are therefore strictly increasing.

Tables live in one process-wide store, ``_tables``, which maps a key to
the table's rows and its lock. Rows are only appended, so a table that
already holds the entries asked for is read without a lock and without a
copy. A shorter table is extended under its own lock by one writer while
lookups of other tables go on. The store itself needs no lock:
``dict.setdefault`` inserts a missing entry atomically, so two first
callers of one key get the same rows and the same lock. Each root is found
from the root below it alone, so a table is the same whatever the sequence
of counts it was grown by.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

from .errors import _NOT_REAL, GeometryError, OrderError, RootFindingError, _integer, _record
from .specfun import ORDER_MAX, _ladder, _slope, _two_prod

_EPS = 2.220446049250313e-16

COUNT_MAX = 1000
MIN_RADIUS_RATIO = 1e-3


@_record
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


def _polish(f: Callable[[float], tuple[float, ...]], lo: float, hi: float,
            flo: float, fhi: float, x: float) -> tuple[float, tuple[float, ...]]:
    """Root of f in [lo, hi], given f(lo) f(hi) <= 0, and f's tuple there.

    f(x) returns (value, slope, ...). Safeguarded Newton in the rtsafe
    style from the guess x (the midpoint if x lies outside the bracket):
    each point evaluated narrows the sign bracket, and a step that leaves
    the bracket or fails to halve the step before last is replaced by
    bisection. The point is returned once the Newton correction, or the
    bracket, is within eps |x| (one to two ulps). Convergence is tested
    first, because there x - f/f' rounds onto x or the bracket's end and
    would otherwise bisect for nothing. The returned tuple is f at the
    returned point, so its residual costs no further evaluation.
    """
    if flo == 0.0:
        return lo, f(lo)
    if fhi == 0.0:
        return hi, f(hi)
    if (flo > 0.0) == (fhi > 0.0):
        raise RootFindingError("bracket endpoints do not straddle a sign change")
    positive_lo = flo > 0.0
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last = before = hi - lo  # the last two steps taken
    while True:
        fx = f(x)
        value, slope = fx[0], fx[1]
        if value == 0.0:
            return x, fx
        if (value > 0.0) == positive_lo:
            lo = x
        else:
            hi = x
        tol = _EPS * abs(x)
        dx = value / slope if slope else math.inf
        if abs(dx) <= tol or hi - lo <= tol:
            return x, fx
        if lo < x - dx < hi and abs(2.0 * dx) <= abs(before):
            nxt = x - dx
        else:
            nxt = 0.5 * (lo + hi)
        before, last = last, x - nxt
        x = nxt


def _mcmahon_guess(m: int, n: int) -> float:
    mu = 4.0 * m * m
    beta = (n + 0.5 * m - 0.25) * math.pi
    return (beta
            - (mu - 1.0) / (8.0 * beta)
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))


def _jm_first_zero_floor(m: int) -> float:
    # x_{m,1} > sqrt(m (m + 2)); J_m is positive below its first zero
    return max(0.3, 0.99 * math.sqrt(m * (m + 2.0))) if m else 0.3


# key -> (rows, lock); rows are (root, residual) pairs, only ever appended
_tables: dict[tuple, tuple[list[tuple[float, float]], threading.Lock]] = {}


def _rows(key: tuple, count: int,
          extend: Callable[[list, int], None]) -> list[tuple[float, float]]:
    """The live rows of table ``key``, holding at least ``count`` entries.

    The first ``count`` rows stay valid after the lock is released, and a
    table that already holds them is read without taking the lock.
    """
    entry = _tables.get(key)
    if entry is not None and len(entry[0]) >= count:
        return entry[0]
    rows, lock = _tables.setdefault(key, ([], threading.Lock()))
    with lock:
        if len(rows) < count:
            extend(rows, count)
    return rows


def _check_increasing(root: float, previous: float, what: str) -> None:
    if not root > previous:
        raise RootFindingError(f"{what} at {root!r} does not exceed the entry before it")


def _extend_bessel_table(m: int, table: list[tuple[float, float]], count: int) -> None:
    """Append zeros of J_m until ``table`` holds ``count``; it may hold more."""
    def f(x: float) -> tuple[float, float, float]:
        # (J_m, J'_m, J_{m+1}) from one ladder run
        jm, jm1 = _ladder(m, x, False)
        return jm, _slope(m, x, jm, jm1), jm1

    while len(table) < count:
        n = len(table) + 1
        expected_lo_sign = 1.0 if n % 2 else -1.0  # sign of J_m just below zero n
        guess = _mcmahon_guess(m, n)
        bracket = None
        lo = guess - 1.3
        hi = guess + 1.3
        if lo > (table[-1][0] if table else _jm_first_zero_floor(m)):
            flo, fhi = f(lo)[0], f(hi)[0]
            if (math.copysign(1.0, flo) == expected_lo_sign
                    and (flo > 0.0) != (fhi > 0.0)):
                bracket = (lo, hi, flo, fhi)
        if bracket is None:
            # march from the last confirmed zero; consecutive zeros are at
            # least j_02 - j_01 = 3.115 apart, so a step of 1.0 holds one at most
            x = (table[-1][0] + 0.25) if table else _jm_first_zero_floor(m)
            fx = f(x)[0]
            while True:
                x2 = x + 1.0
                fx2 = f(x2)[0]
                if fx == 0.0 or (fx > 0.0) != (fx2 > 0.0):
                    bracket = (x, x2, fx, fx2)
                    break
                x, fx = x2, fx2
                if x > 1.2e4:
                    raise RootFindingError(f"scan for zero {n} of J_{m} left the envelope")
        root, (jm, _, jm1) = _polish(f, *bracket, guess)
        residual = abs(jm)
        slope = abs(jm1)  # |J'_m| = |J_{m+1}| at a zero
        if residual > 1e-12 or residual > 1e-10 * max(slope, 1e-30):
            raise RootFindingError(
                f"zero {n} of J_{m} failed verification: |J|={residual:.2e}, "
                f"Newton bound {residual / max(slope, 1e-30):.2e}")
        _check_increasing(root, table[-1][0] if table else 0.0, f"zero {n} of J_{m}")
        table.append((root, residual))


def _check_order_and_count(m: int, count: int) -> None:
    _integer(m, "order", 0, ORDER_MAX, OrderError)
    _integer(count, "count", 1, COUNT_MAX)


def _bessel_rows(m: int, count: int) -> list[tuple[float, float]]:
    """Live (zero, residual) rows of J_m, at least ``count`` of them."""
    _check_order_and_count(m, count)
    return _rows(("cyl", m), count, lambda rows, want: _extend_bessel_table(m, rows, want))


def bessel_zeros(m: int, count: int) -> ZeroTable:
    """First ``count`` positive zeros of J_m, each verified in place.

    Every entry x satisfies |J_m(x)| <= 1e-12 and a Newton-step error
    bound below 1e-10. Tables are cached, so repeated calls with growing
    counts only pay for the extension.
    """
    rows = _bessel_rows(m, count)[:count]
    return ZeroTable(m=m, kind="cylinder",
                     zeros=tuple(r for r, _ in rows),
                     residuals=tuple(res for _, res in rows))


def _cross_determinant(m: int, a: float, b: float) -> Callable[[float], tuple[float, float, float]]:
    """gamma -> (D, dD/dgamma, M_a M_b), from one ladder run at each wall.

    Every determinant evaluation passes through here: the scan and the
    Newton polish. M_a M_b = hypot(J_m, N_m) at gamma a times the same at
    gamma b is D's arch amplitude, the scale of the residual check: with
    J_m = M cos theta, N_m = M sin theta, D = M_a M_b sin(theta_a - theta_b)
    exactly (DLMF 10.18). The wall arguments gamma a and gamma b are
    rounded to doubles; each value is carried to the exact product to first
    order with the ladder's slope. Uncorrected, that rounding moves the root
    by up to ~0.5 eps a/(b-a) relative, 1e-13 at a/b = 0.999.
    """
    def d(g: float) -> tuple[float, float, float]:
        xa, ea = _two_prod(g, a)  # g a = xa + ea exactly
        xb, eb = _two_prod(g, b)
        ja, ja1, na, na1 = _ladder(m, xa, True)
        jb, jb1, nb, nb1 = _ladder(m, xb, True)
        dja, dna = _slope(m, xa, ja, ja1), _slope(m, xa, na, na1)
        djb, dnb = _slope(m, xb, jb, jb1), _slope(m, xb, nb, nb1)
        ja, na, jb, nb = ja + ea * dja, na + ea * dna, jb + eb * djb, nb + eb * dnb
        return (jb * na - ja * nb,
                b * djb * na + a * jb * dna - a * dja * nb - b * ja * dnb,
                math.hypot(ja, na) * math.hypot(jb, nb))
    return d


def _cross_guess(m: int, a: float, b: float, n: int, below: float) -> float:
    """Newton start for root n: the first-order perturbation of the flat-gap
    standing wave, shifted by its error at root n-1 (``below``) for n > 1."""
    d, c = b - a, m * m - 0.25

    def flat(j: int) -> float:
        k = j * math.pi / d
        return math.sqrt(max(k * k + c / (a * b) - c / (2.0 * d * k * k) * (a ** -3 - b ** -3),
                             0.0))
    return flat(n) if n == 1 else flat(n) + (below - flat(n - 1))


def _sturm_window(m: int, a: float, b: float, n: int) -> tuple[float, float]:
    """The interval [lo, hi] that holds computed roots gamma_mn (module docstring).

    In thin annuli at high n the exact window is narrower than the
    rounding of a computed root. Each side is widened by 16 eps b/(b-a)
    relative: forty times the 0.4 eps b/(b-a) by which the rounding of
    gamma a and gamma b would move a root if ``_cross_determinant`` did
    not correct it, and still far below the distance between windows.
    """
    c = m * m - 0.25
    k2 = (n * math.pi / (b - a)) ** 2
    q_a, q_b = c / (a * a), c / (b * b)
    slack = 16.0 * _EPS * b / (b - a)
    return (math.sqrt(max(k2 + min(q_a, q_b), 0.0)) * (1.0 - slack),
            math.sqrt(k2 + max(q_a, q_b)) * (1.0 + slack))


def _extend_cross_table(m: int, a: float, b: float, table: list[tuple[float, float]],
                        count: int) -> None:
    """Append roots until ``table`` holds ``count``, each from the root below
    it and its own Sturm window alone (module docstring)."""
    d = _cross_determinant(m, a, b)
    value = lambda g: d(g)[0]
    step = 0.25 * math.pi / (b - a)  # the march step (module docstring)
    while len(table) < count:
        n = len(table) + 1
        previous = table[-1][0] if table else 0.0
        lo, hi = _sturm_window(m, a, b, n)
        # lo_1 is below pi/(4(b-a)) only for m = 0 and a/b < 0.142, where
        # gamma_01 > j_01/b > pi/(4(b-a)) (the annulus lies inside the disk
        # of radius b), so root 1 lies above the step like every other root
        x = max(lo, previous + step)
        fx = value(x)
        bracket = None
        if x < hi < _sturm_window(m, a, b, n + 1)[0]:
            # window n cannot hold root n+1: [x, hi] holds root n alone
            fhi = value(hi)
            if fx == 0.0 or (fx > 0.0) != (fhi > 0.0):
                bracket = (x, hi, fx, fhi)
        while bracket is None:
            if x > hi:
                raise RootFindingError(
                    f"cross-product root {n} for m={m} shows no sign change in its "
                    f"Sturm window [{lo!r}, {hi!r}]")
            x2 = x + step
            fx2 = value(x2)
            if fx == 0.0 or (fx > 0.0) != (fx2 > 0.0):
                bracket = (x, x2, fx, fx2)
            else:
                x, fx = x2, fx2
        root, (d_root, _, scale) = _polish(d, *bracket, _cross_guess(m, a, b, n, previous))
        residual = abs(d_root)
        if residual > 1e-10 * scale:
            raise RootFindingError(
                f"cross-product root near {root:.6g} failed verification: "
                f"|D|={residual:.2e} vs arch scale {scale:.2e}")
        if not lo <= root <= hi:
            raise RootFindingError(
                f"cross-product root {root!r} for m={m} lies outside the Sturm window "
                f"[{lo!r}, {hi!r}] of index {n}")
        _check_increasing(root, previous, f"cross-product root {n} for m={m}")
        table.append((root, residual))


def _check_walls(a: float, b: float) -> tuple[float, float]:
    """The walls (a, b) as floats, checked: 0 < a < b, both finite, a/b >= MIN_RADIUS_RATIO."""
    try:
        if isinstance(a, _NOT_REAL) or isinstance(b, _NOT_REAL):
            raise TypeError
        a, b = float(a), float(b)
    except (TypeError, OverflowError):  # OverflowError: an int beyond float
        raise GeometryError(f"walls must be real numbers, got a={a!r}, b={b!r}") from None
    if not (0.0 < a < b) or not math.isfinite(a) or not math.isfinite(b):
        raise GeometryError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    if a / b < MIN_RADIUS_RATIO:
        raise GeometryError(
            f"a/b = {a / b:.2e} is below {MIN_RADIUS_RATIO}; the annular determinant "
            "is numerically meaningless there (a solid cylinder is the right model)")
    return a, b


def _cross_rows(m: int, a: float, b: float, count: int) -> list[tuple[float, float]]:
    """Live (gamma, residual) rows of the annulus a < rho < b, at least ``count``.

    The walls are floats that ``_check_walls`` has passed.
    """
    _check_order_and_count(m, count)
    return _rows(("ann", m, a, b), count,
                 lambda rows, want: _extend_cross_table(m, a, b, rows, want))


def cross_product_zeros(m: int, a: float, b: float, count: int) -> ZeroTable:
    """First ``count`` roots gamma_mn of the annular determinant.

    Requires 0 < a < b with a/b >= 1e-3; below that the Neumann factor at
    the inner wall diverges and the determinant loses all conditioning
    (use the cylinder table instead). Entry n lies in the n-th Sturm
    window (module docstring), widened by 16 eps b/(b-a) relative for the
    determinant's rounding.
    """
    _check_order_and_count(m, count)  # an order or count error comes before a wall error
    a, b = _check_walls(a, b)
    rows = _cross_rows(m, a, b, count)[:count]
    return ZeroTable(m=m, kind="annulus",
                     zeros=tuple(r for r, _ in rows),
                     residuals=tuple(res for _, res in rows),
                     geometry_tag=(a, b))
