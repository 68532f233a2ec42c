"""Integer-order cylinder functions: J_m, N_m, H_m^(1,2) and derivatives.

Self-contained evaluation to near machine precision on the tested envelope
|m| <= 50, 0 <= x <= 1e4, with three regimes per function:

* ascending power series where it is well conditioned (small x, or order
  large enough that the terms decrease from the start),
* backward recurrence with even-order sum normalization for J in the
  oscillatory mid range,
* the large-argument cosine/sine expansion with slowly varying amplitude
  factors P and Q once its smallest term drops below ~1e-16.

N_m starts from orders 0 and 1 and climbs the (stable) upward three-term
recurrence. Below x = 1 the integer-order limit series is summed
directly; between 1 and the asymptotic switch, N_0 and N_1 come from
log-weighted sums over one backward-recurrence J sequence, whose terms
never exceed ~0.4, so no regime suffers cancellation amplification.

Negative orders use J_{-m} = (-1)^m J_m and N_{-m} = (-1)^m N_m, applied
as an exact sign flip so results are bit-identical to the positive-order
call up to that sign.

Calls return values only. The accuracy over the envelope is the bound a
seeded 30-digit reference sweep supports, stated in README "Numerical notes".

Every operation is a pure function of its arguments and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, EvaluationError, OrderError

ORDER_MAX = 50
X_MAX = 1.0e4

_EULER_GAMMA = 0.5772156649015329  # Euler-Mascheroni constant
_TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class EvalResult:
    """A function value; complex for Hankel-family derivatives.

    Its accuracy is the bound README "Numerical notes" states, from a
    seeded 30-digit reference sweep over the envelope.
    """

    value: float | complex


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise OrderError(f"order must be an integer, got {m!r}")
    if abs(m) > ORDER_MAX:
        raise OrderError(f"|m| = {abs(m)} exceeds the supported maximum {ORDER_MAX}")


def _check_x(x: float, positive: bool) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise DomainError(f"argument must be a real number, got {x!r}") from None
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if positive and x <= 0.0:
        raise DomainError(f"argument must be > 0, got {x!r}")
    if x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x!r}")
    if x > X_MAX:
        raise DomainError(f"argument {x!r} exceeds the tested envelope {X_MAX}")
    return x


# ---------------------------------------------------------------------------
# Ascending series for J_m
# ---------------------------------------------------------------------------

def _series_j(m: int, x: float) -> float:
    half = 0.5 * x
    t = 1.0
    for i in range(1, m + 1):
        t *= half / i
    if t == 0.0:
        # (x/2)^m / m! underflowed; the true value is below ~1e-308
        return 0.0
    q = half * half
    terms = [t]
    peak = abs(t)
    j = 0
    while True:
        j += 1
        t = -t * q / (j * (j + m))
        at = abs(t)
        terms.append(t)
        if at > peak:
            peak = at
        if at <= 1e-18 * peak or j >= 400:
            break
    return math.fsum(terms)


def _series_is_safe(m: int, x: float) -> bool:
    # terms decrease from the first one: no cancellation beyond ~1 ulp each
    return x <= 4.0 or 0.25 * x * x <= 0.5 * (m + 1)


# ---------------------------------------------------------------------------
# Backward recurrence (normalized by J_0 + 2*sum J_{2k} = 1)
# ---------------------------------------------------------------------------

def _miller_j_all(m_max: int, x: float) -> list[float]:
    start = max(m_max, int(x)) + int(14.0 * max(1.0, x) ** (1.0 / 3.0)) + 22
    if start % 2:
        start += 1
    out = [0.0] * (m_max + 1)
    jp = 0.0
    jc = 1e-30
    norm = 0.0
    two_over_x = 2.0 / x
    k = start
    while k > 0:
        jm = k * two_over_x * jc - jp
        jp = jc
        jc = jm
        k -= 1
        if k <= m_max:
            out[k] = jc
        if k % 2 == 0:
            norm += jc if k == 0 else 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            if k <= m_max:
                for i in range(k, m_max + 1):
                    out[i] *= 1e-250
    inv = 1.0 / norm
    return [v * inv for v in out]


# ---------------------------------------------------------------------------
# Large-argument expansion
# ---------------------------------------------------------------------------

def _asym_pq(m: int, x: float) -> tuple[float, float] | None:
    """Amplitude factors (P, Q) of the cosine/sine expansion, or None.

    Returns None when the expansion cannot reach ~5e-16 before its terms
    start to grow, in which case the caller falls back to recurrence.
    """
    mu = 4.0 * m * m
    ex = 8.0 * x
    p = 1.0
    q = 0.0
    term = 1.0
    smallest = math.inf
    for k in range(1, 64):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (k * ex)
        at = abs(term)
        if at >= smallest:
            break
        smallest = at
        r = k & 3
        if r == 1:
            q += term
        elif r == 2:
            p -= term
        elif r == 3:
            q -= term
        else:
            p += term
        if at < 1e-17:
            break
    if smallest > 5e-16:
        return None
    return p, q


_PI_LO = 1.2246467991473532e-16  # pi - float(pi)
_SPLIT = 134217729.0             # 2**27 + 1, Dekker splitter


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # error-free sum: a + b == s + err exactly
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    # error-free product via Dekker splitting (no FMA assumed)
    p = a * b
    a_hi = _SPLIT * a
    a_hi = a_hi - (a_hi - a)
    a_lo = a - a_hi
    b_hi = _SPLIT * b
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _asym_jy(m: int, x: float, pq: tuple[float, float]) -> tuple[float, float]:
    p, q = pq
    # chi = x - (m/2 + 1/4) pi with a two-part pi, so the phase keeps full
    # precision even when x is large and the subtraction rounds
    t = 0.5 * m + 0.25
    a_hi, a_err = _two_prod(t, math.pi)
    chi, res = _two_sum(x, -a_hi)
    delta = res - (a_err + t * _PI_LO)
    c = math.cos(chi)
    s = math.sin(chi)
    c, s = c - s * delta, s + c * delta
    amp = math.sqrt(_TWO_OVER_PI / x)
    return amp * (c * p - s * q), amp * (s * p + c * q)


_ASYM_MIN_X = 18.0


def _j_raw(m: int, x: float) -> float:
    """J_m(x) for m >= 0, 0 <= x <= X_MAX."""
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    if _series_is_safe(m, x):
        return _series_j(m, x)
    if x >= _ASYM_MIN_X and 4.0 * m * m <= 6.0 * x:
        pq = _asym_pq(m, x)
        if pq is not None:
            return _asym_jy(m, x, pq)[0]
    return _miller_j_all(m, x)[m]


# ---------------------------------------------------------------------------
# Neumann function: integer-order limit series for orders 0 and 1
# ---------------------------------------------------------------------------

def _y01_small(x: float) -> tuple[float, float]:
    """(N_0, N_1) from the integer-order limit series, x < 1.

    Log term plus harmonic-weighted power sums; with x*x/4 < 0.25 the
    terms decay from the start, so plain doubles keep full precision.
    """
    half = 0.5 * x
    if half == 0.0:
        raise EvaluationError(f"x/2 underflows to 0 at x = {x!r}, so log(x/2) is undefined")
    q = half * half
    a0, b0, t0 = 1.0, 0.0, 1.0          # -> J_0 and its H_k-weighted sum
    a1, b1, t1 = half, half, half       # k = 0 of b1 carries H_0 + H_1 = 1
    h = 0.0
    k = 0
    while True:
        k += 1
        h += 1.0 / k
        t0 *= -q / (k * k)
        t1 *= -q / (k * (k + 1))
        a0 += t0
        a1 += t1
        b0 += t0 * (2.0 * h)
        b1 += t1 * (2.0 * h + 1.0 / (k + 1))
        if abs(t0) + abs(t1) <= 1e-18 * (abs(a0) + abs(a1)) or k >= 60:
            break
    lg = math.log(half) + _EULER_GAMMA
    return (_TWO_OVER_PI * (lg * a0 - 0.5 * b0),
            _TWO_OVER_PI * (lg * a1 - 0.5 * b1 - 1.0 / x))


def _y01_midrange(x: float) -> tuple[float, float]:
    """(N_0, N_1) via log-weighted sums over one J sequence.

        N_0 = (2/pi) [ (ln(x/2)+g) J_0 + 2 sum (-1)^{k+1} J_{2k} / k ]
        N_1 = -dN_0/dx, expanded with the derivative ladder

    Every J comes from a single backward-recurrence run, the summands stay
    below ~0.4, and the alternation is mild, so there is no cancellation
    amplification at any x.
    """
    top = int(x) + int(14.0 * max(1.0, x) ** (1.0 / 3.0)) + 12
    seq = _miller_j_all(top, x)
    lg = math.log(0.5 * x) + _EULER_GAMMA
    s0 = lg * seq[0]
    s1 = lg * seq[1] - seq[0] / x
    sign = 1.0
    for k in range(1, (len(seq) - 1) // 2):
        s0 += 2.0 * sign * seq[2 * k] / k
        s1 -= sign * (seq[2 * k - 1] - seq[2 * k + 1]) / k
        sign = -sign
    return _TWO_OVER_PI * s0, _TWO_OVER_PI * s1


def _y01(x: float) -> tuple[float, float]:
    if x >= _ASYM_MIN_X:
        return _asym_jy(0, x, _asym_pq(0, x))[1], _asym_jy(1, x, _asym_pq(1, x))[1]
    if x < 1.0:
        return _y01_small(x)
    return _y01_midrange(x)


def _y_raw(m: int, x: float) -> float:
    """N_m(x) for m >= 0, x > 0."""
    y0, y1 = _y01(x)
    if m == 0:
        return y0
    ym_prev, ym = y0, y1
    two_over_x = 2.0 / x
    for k in range(1, m):
        ym_prev, ym = ym, k * two_over_x * ym - ym_prev
    # N_1 can overflow too; an overflow stays inf or turns nan up the ladder
    if not math.isfinite(ym):
        raise EvaluationError(
            f"N_{m}({x!r}) overflows double precision; "
            "reduce the order or increase the argument"
        )
    return ym


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _evaluate(family: str, m: int, x: float, slope: bool = False) -> float | complex:
    """X_m(x) for X in J, N, H1, H2 and any order |m| <= ORDER_MAX + 1.

    With ``slope`` the value is dX_m/dx = (X_{|m|-1} - X_{|m|+1})/2. The
    reflection X_{-m} = (-1)^m X_m comes last, as an exact sign flip.
    """
    am = abs(m)
    if slope:
        value = 0.5 * (_evaluate(family, am - 1, x) - _evaluate(family, am + 1, x))
    elif family == "J":
        value = _j_raw(am, x)
    elif family == "N":
        value = _y_raw(am, x)
    else:
        n = _y_raw(am, x)
        value = complex(_j_raw(am, x), n if family == "H1" else -n)
    if m < 0 and m % 2:
        value = -value
    return value


def bessel_j(m: int, x: float) -> EvalResult:
    """Bessel function of the first kind, integer order.

    Parameters
    ----------
    m : order, |m| <= 50 (negative orders via the reflection rule)
    x : argument, 0 <= x <= 1e4

    Raises DomainError / OrderError outside that envelope.
    """
    _check_order(m)
    return EvalResult(_evaluate("J", m, _check_x(x, positive=False)))


def neumann_n(m: int, x: float) -> EvalResult:
    """Neumann function (Bessel of the second kind), integer order, x > 0."""
    _check_order(m)
    return EvalResult(_evaluate("N", m, _check_x(x, positive=True)))


def hankel(kind: int, m: int, x: float) -> complex:
    """Hankel function H_m^(kind) = J_m + (-1)^(kind+1) i N_m, x > 0."""
    if kind not in (1, 2):
        raise DomainError(f"Hankel kind must be 1 or 2, got {kind!r}")
    _check_order(m)
    return _evaluate("H1" if kind == 1 else "H2", m, _check_x(x, positive=True))


_FAMILIES = ("J", "N", "H1", "H2")


def derivative(family: str, m: int, x: float) -> EvalResult:
    """d/dx of J, N, H1 or H2 at integer order via (X_{m-1} - X_{m+1})/2.

    The J family also accepts x = 0 (series limit). Values for the Hankel
    families are complex.
    """
    if not isinstance(family, str) or family.upper() not in _FAMILIES:
        raise DomainError(f"family must be one of {_FAMILIES}, got {family!r}")
    family = family.upper()
    _check_order(m)
    x = _check_x(x, positive=(family != "J"))
    return EvalResult(_evaluate(family, m, x, slope=True))
