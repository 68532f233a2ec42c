"""Radial eigenvalues: zeros of J_m and of the J/N cross-product.

Two families are located here:

* ``bessel_zeros``: the positive zeros x_mn of J_m, which set the radial
  eigenvalue of a solid cylinder through gamma = x_mn / b.
* ``cross_product_zeros``: the roots gamma_mn of

      D(gamma) = J_m(gamma b) N_m(gamma a) - J_m(gamma a) N_m(gamma b)

  which play the same role for an annular cross-section with walls at
  rho = a and rho = b. gamma = 0 is excluded (the limit of D at 0+ is
  finite and nonzero, and the corresponding radial solution is trivial).

Both families are found on a phase, by one loop (``_extend_table``).
With J_m = M cos theta and N_m = M sin theta (DLMF 10.18), theta rises
with x at theta' = 2/(pi x M^2), and

    J_m(x) = -M sin Phi,     Phi(x) = theta(x) + pi/2,
    D = -M_a M_b sin Phi,    Phi(gamma) = theta(gamma b) - theta(gamma a),

with M_a, theta_a at gamma a and M_b, theta_b at gamma b. Each Phi rises
from 0 at 0+ (the annulus's at Phi' = (2/(pi gamma)) (1/M_b^2 - 1/M_a^2),
as M falls with x), so root n is where Phi = n pi: a J_m zero is the
one-wall cross root. With C = M cos Phi = -N_m resp. M_a M_b cos Phi, the
residual r = atan2((-1)^(n+1) D, (-1)^n C) equals Phi - n pi from root
n-1 up to root n+1. Newton on r starts root n >= 2 at
x_{n-1} + pi / Phi'(x_{n-1}), Phi' being kept in root n-1's row. The
bracket is (x_{n-1}, hi_n), x_0 = 0, where r runs from -pi to a positive
value; hi_n is the top of window n, an interval that provably holds root
n. Entry n must lie in window n, widened for rounding.

J_m windows. Root 1 lies in [m + |a_1| (m/2)^(1/3), that +
(3/20) |a_1|^2 (m/2)^(-1/3)] for m >= 1 (Qu and Wong, Trans. AMS 351
(1999) 2833; a_1 the first zero of Ai), and in [2, 3] for m = 0; Newton
starts at the low end. For n >= 2, u = sqrt(x) J_m solves
u'' + (1 - c/x^2) u = 0 with c = m^2 - 1/4, so by Sturm comparison the
gap after root n-1 = p lies between pi and pi/k, k = sqrt(1 - c/p^2),
and the top is capped at p + 2 pi. Gaps exceed pi for m >= 1 and the top
is p + pi for m = 0, so the top lies below root n+1 and the bracket holds
root n alone, as window 1's does. The cap is not a theorem where
pi/k > 2 pi (m >= 42 at n = 2); a test holds it for every m and n the
validators accept. Each window is widened by 4 eps relative.

Annulus windows. Root 1 starts at max(lo_1, j_m1/b): the annulus lies
inside the disk of radius b, so gamma_1 > j_m1/b. With u = sqrt(rho) R
the radial equation reads u'' + (gamma^2 - c/rho^2) u = 0, so

    (n pi/(b-a))^2 + min(c/a^2, c/b^2) <= gamma_mn^2
                                       <= (n pi/(b-a))^2 + max(c/a^2, c/b^2).

Where window n cannot hold root n+1, a start past root n+1 lies above the
bracket, ``_polish`` starts from the bracket's midpoint instead, and r has
no zero in the bracket but root n. Where windows overlap (large m with
small a/b), the index rests on the start: r wraps by 2 pi past root n+1,
so a start more than pi from n pi would converge to root n +- 2. Over
m <= 50 and a/b from 1e-3 to 0.999 (first 40 roots) every start lay
within 0.32 pi of n pi, and within 0.15 pi where windows overlap. The
window is widened by 16 eps b/(b-a) relative (``_sturm_window``).

Each root is polished by safeguarded Newton (``_polish``) to within eps x,
a tolerance that scales with the walls; each evaluation is one ladder run
per argument (``specfun._ladder``). Each polished root is verified by its
residual |D|, scaled by min(|J_{m+1}|, 1e-2) resp. D's arch amplitude
M_a M_b, from the tuple the polish hands back with the root, by lying in
its window, and by exceeding the entry before it; entries are therefore
strictly increasing.

Every question about gamma_mn is asked here by (m, n, a, b), [a, b] the
radial interval a cavity spans (a = 0.0: the cylinder, gamma = x_mn / b):
``_gamma`` reads entry n, ``_gamma_floor`` bounds it from below in closed
form, and ``_count_bound`` bounds how many lie below k.

Tables live in one memo of at most 256, ``_table`` (``errors._memo``),
which evicts the least recently used. Rows are only appended, so a table
that holds the entries asked for is read without a lock or a copy; a
shorter one is extended under its own lock, one writer per live table,
while other tables are read (``_rows``). An evicted table's rows stay
valid for whoever holds them. Each root is found from the root below it
alone, so a table, rebuilt or grown by any sequence of counts, has the
same bits.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

from .errors import (_NOT_REAL, GeometryError, OrderError, RootFindingError, _integer, _memo,
                     _record)
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
    The zeros are positive and strictly increasing. Each entry is certified
    once, as it is appended (``_extend_table``).
    """

    m: int
    kind: str
    zeros: tuple[float, ...]
    residuals: tuple[float, ...]
    geometry_tag: Optional[tuple[float, float]] = None


def _polish(f: Callable[[float], tuple[float, ...]], lo: float, hi: float,
            x: float) -> tuple[float, tuple[float, ...]]:
    """Root of f in [lo, hi], where f runs from below 0 to above 0, and f's tuple there.

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
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last = before = hi - lo  # the last two steps taken
    while True:
        fx = f(x)
        value, slope = fx[0], fx[1]
        if value == 0.0:
            return x, fx
        if value < 0.0:
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


# about 9x what verify (27) or 7x what a library session (36) leaves
@_memo(256)
def _table(*key) -> tuple[list[tuple[float, float, float]], threading.Lock]:
    """A new table for ``key``: its (root, residual, Phi') rows, only ever
    appended, and the lock an extension holds.

    The memo keeps the 256 tables used last: at worst 256 x COUNT_MAX rows
    of 144 B, 37 MB. Two threads that miss one key at the same instant,
    inside this call, each get a table, and only one is kept; both fill
    with the same bits.
    """
    return [], threading.Lock()


def _rows(key: tuple, count: int,
          extend: Callable[[list, int], None]) -> list[tuple[float, float, float]]:
    """The live rows of table ``key``, holding at least ``count`` entries.

    The first ``count`` rows stay valid after the lock is released, and a
    table that already holds them is read without taking a lock.
    """
    rows, lock = _table(*key)
    if len(rows) < count:
        with lock:
            if len(rows) < count:
                extend(rows, count)
    return rows


def _extend_table(d: Callable[[float], tuple[float, float, float, float]],
                  window: Callable[[int, float], tuple[float, float]],
                  first: Callable[[float], float],
                  table: list[tuple[float, float, float]], count: int, what: str) -> None:
    """Append the roots of Phi = n pi until ``table`` holds ``count``, each
    from the root below it and its own window alone (module docstring).

    d(x) is (D, C, Phi', scale) with (D, C) = A (-sin Phi, cos Phi) for
    some A > 0; a root passes if |D| <= 1e-10 scale. window(n, previous)
    is the interval [lo, hi] that holds root n, given root n-1 at
    ``previous``, and first(lo) is root 1's Newton start. A row is (root,
    residual, Phi'), all three from the polish's last evaluation; Phi' sets
    the next root's start, so a table grown one root per call costs no
    more evaluations than one grown in a single call.
    """
    while len(table) < count:
        n = len(table) + 1
        sign = -1.0 if n % 2 else 1.0  # (-1)^n

        def phase(x: float) -> tuple[float, float, float, float]:
            # Phi - n pi, exact between roots n-1 and n+1, then Phi', D, scale
            det, c, phi_slope, scale = d(x)
            return math.atan2(-sign * det, sign * c), phi_slope, det, scale

        previous = table[-1][0] if table else 0.0
        lo, hi = window(n, previous)
        start = previous + math.pi / table[-1][2] if table else first(lo)
        root, (_, slope, det, scale) = _polish(phase, previous, hi, start)
        residual = abs(det)
        if residual > 1e-10 * scale:
            raise RootFindingError(
                f"root {n} of {what} near {root:.6g} failed verification: "
                f"|D|={residual:.2e} vs scale {scale:.2e}")
        if not lo <= root <= hi:
            raise RootFindingError(
                f"root {n} of {what} at {root!r} lies outside its Sturm window "
                f"[{lo!r}, {hi!r}]")
        if not root > previous:
            raise RootFindingError(
                f"root {n} of {what} at {root!r} does not exceed the entry before it")
        table.append((root, residual, slope))


def _check_order_and_count(m: int, count: int) -> None:
    _integer(m, "order", 0, ORDER_MAX, OrderError)
    _integer(count, "count", 1, COUNT_MAX)


def _bessel_determinant(m: int) -> Callable[[float], tuple[float, float, float, float]]:
    """x -> (-J_m, -N_m, Phi', min(|J_{m+1}|, 1e-2)), from one ladder run.

    With that scale the residual check is |J_m| <= 1e-12 and a Newton-step
    error bound |J_m|/|J'_m| <= 1e-10 (|J'_m| = |J_{m+1}| at a zero).
    """
    def d(x: float) -> tuple[float, float, float, float]:
        jm, jm1, nm, _ = _ladder(m, x, True)
        modulus = math.hypot(jm, nm)
        return -jm, -nm, 2.0 / (math.pi * x * modulus * modulus), min(abs(jm1), 1e-2)
    return d


_AIRY_A1 = 2.338107410459767  # |a_1|, the first zero of the Airy function Ai


def _bessel_window(m: int, n: int, previous: float) -> tuple[float, float]:
    """The interval [lo, hi] that holds zero n of J_m, given zero n-1 at
    ``previous`` (module docstring).

    Each side is widened by 4 eps relative, for the rounding of
    ``previous`` and of the zero itself, each within 2 eps relative.
    """
    if n > 1:
        # u = sqrt(x) J_m solves u'' + (1 - c/x^2) u = 0 with c = m^2 - 1/4
        k = math.sqrt(1.0 - (m * m - 0.25) / (previous * previous))
        lo = previous + math.pi * min(1.0, 1.0 / k)
        hi = previous + math.pi * min(max(1.0, 1.0 / k), 2.0)
    elif m:
        cube = (0.5 * m) ** (1.0 / 3.0)  # Qu and Wong (1999)
        lo = m + _AIRY_A1 * cube
        hi = lo + 0.15 * _AIRY_A1 * _AIRY_A1 / cube
    else:
        lo, hi = 2.0, 3.0
    slack = 4.0 * _EPS
    return lo * (1.0 - slack), hi * (1.0 + slack)


def _bessel_rows(m: int, count: int) -> list[tuple[float, float, float]]:
    """Live (zero, residual, Phi') rows of J_m, at least ``count`` of them."""
    _check_order_and_count(m, count)
    return _rows(("cyl", m), count, lambda rows, want: _extend_table(
        _bessel_determinant(m), lambda n, previous: _bessel_window(m, n, previous),
        lambda lo: lo, rows, want, f"J_{m}"))


def bessel_zeros(m: int, count: int) -> ZeroTable:
    """First ``count`` positive zeros of J_m, each verified in place.

    Every entry x satisfies |J_m(x)| <= 1e-12 and a Newton-step error
    bound below 1e-10, and entry n lies in the n-th window (module
    docstring). Tables are cached, so repeated calls with growing
    counts only pay for the extension.
    """
    rows = _bessel_rows(m, count)[:count]
    return ZeroTable(m=m, kind="cylinder",
                     zeros=tuple(row[0] for row in rows),
                     residuals=tuple(row[1] for row in rows))


def _cross_determinant(m: int, a: float,
                       b: float) -> Callable[[float], tuple[float, float, float, float]]:
    """gamma -> (D, C, Phi', M_a M_b), from one ladder run at each wall.

    Every determinant evaluation passes through here. With J_m = M cos
    theta and N_m = M sin theta at gamma a and gamma b (DLMF 10.18),
    D = J_m(gamma b) N_m(gamma a) - J_m(gamma a) N_m(gamma b) = -M_a M_b sin Phi
    and C = J_m(gamma a) J_m(gamma b) + N_m(gamma a) N_m(gamma b)
    = M_a M_b cos Phi, where Phi = theta(gamma b) - theta(gamma a) is the
    wall phase. Its slope is Phi' = (2/(pi gamma)) (1/M_b^2 - 1/M_a^2),
    from the Wronskian theta'(x) = 2/(pi x M^2). M_a M_b is D's arch
    amplitude, the scale of the residual check. The wall arguments gamma a
    and gamma b are rounded to doubles; each value is carried to the exact
    product to first order with the ladder's slope. Uncorrected, that
    rounding moves the root by up to ~0.5 eps a/(b-a) relative, 1e-13 at
    a/b = 0.999.
    """
    def d(g: float) -> tuple[float, float, float, float]:
        xa, ea = _two_prod(g, a)  # g a = xa + ea exactly
        xb, eb = _two_prod(g, b)
        ja, ja1, na, na1 = _ladder(m, xa, True)
        jb, jb1, nb, nb1 = _ladder(m, xb, True)
        ja, na = ja + ea * _slope(m, xa, ja, ja1), na + ea * _slope(m, xa, na, na1)
        jb, nb = jb + eb * _slope(m, xb, jb, jb1), nb + eb * _slope(m, xb, nb, nb1)
        ma, mb = math.hypot(ja, na), math.hypot(jb, nb)
        return (jb * na - ja * nb, ja * jb + na * nb,
                2.0 / (math.pi * g) * (1.0 / (mb * mb) - 1.0 / (ma * ma)), ma * mb)
    return d


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


def _cross_rows(m: int, a: float, b: float, count: int) -> list[tuple[float, float, float]]:
    """Live (gamma, residual, Phi') rows of the annulus a < rho < b, at least ``count``.

    The walls are floats that ``_check_walls`` has passed.
    """
    _check_order_and_count(m, count)
    # root 1 lies above j_m1/b: the annulus lies inside the disk of radius b
    return _rows(("ann", m, a, b), count, lambda rows, want: _extend_table(
        _cross_determinant(m, a, b), lambda n, _: _sturm_window(m, a, b, n),
        lambda lo: max(lo, _bessel_rows(m, 1)[0][0] / b), rows, want,
        f"the m={m} cross product"))


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
                     zeros=tuple(row[0] for row in rows),
                     residuals=tuple(row[1] for row in rows),
                     geometry_tag=(a, b))


def _gamma(m: int, n: int, a: float, b: float) -> float:
    """gamma_mn in rad/m of a checked interval [a, b], read in place from its live table."""
    if a == 0.0:
        return _bessel_rows(m, n)[n - 1][0] / b
    return _cross_rows(m, a, b, n)[n - 1][0]


def _gamma_floor(m: int, n: int, a: float, b: float) -> float:
    """A closed-form lower bound on gamma_mn, at or below its computed entry.

    Annulus: the low end of Sturm window n, which ``_extend_table`` checks
    every entry against. Cylinder: j_mn >= j_0n > (n - 1/4) pi (DLMF 10.21),
    and for m >= 1 j_mn >= j_m1 + (n - 1) pi, since the gaps exceed pi, with
    j_m1 above the low end of its Qu-Wong window. Both margins lie far above
    rounding; 4 eps relative off covers the bound's own rounding.
    """
    if a:
        return _sturm_window(m, a, b, n)[0]
    x = (n - 0.25) * math.pi
    if m:
        x = max(x, _bessel_window(m, 1, 0.0)[0] + (n - 1) * math.pi)
    return x * (1.0 - 4.0 * _EPS) / b


def _count_bound(k: float, a: float, b: float) -> float:
    """A number above every order's count of gamma_mn <= k, or COUNT_MAX where
    the windows certify none: k b/pi + 1 for the cylinder (``_gamma_floor``);
    in the annulus, root n of every order lies above the low end of window n
    of order 0, near sqrt((n pi/(b-a))^2 - 1/(4a^2)), and that window, slack
    included, certifies the first n past this estimate.
    """
    if a == 0.0:
        return k * b / math.pi + 1.0
    n = int(min((b - a) / math.pi * math.hypot(k, 0.5 / a), COUNT_MAX)) + 1
    return n if _sturm_window(0, a, b, n)[0] > k else COUNT_MAX
