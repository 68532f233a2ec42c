"""Integer-order cylinder functions: J_m, N_m, H_m^(1,2) and derivatives.

Self-contained evaluation to near machine precision on the tested envelope
|m| <= 50, 0 <= x <= 1e4. Every value comes from one private ladder,
``_ladder``, which returns J and N at orders m and m+1 from a single run
per regime:

* the large-argument cosine/sine expansion, with slowly varying amplitude
  factors P and Q, at orders m and m+1 once its smallest term drops below
  ~1e-16 there; J and N share each phase;
* otherwise, for x >= 18 and m+1 < 0.9 x, the same expansion at orders 0
  and 1 and the upward three-term recurrence;
* otherwise J from ascending power series where they are well conditioned
  (small x, or order large enough that the terms decrease from the
  start), else from one backward-recurrence run with even-order sum
  normalization. N_m climbs the stable upward recurrence from orders 0
  and 1: below x = 1 the integer-order limit series gives those directly;
  between 1 and 18 they come from log-weighted sums over the same
  backward-recurrence run, whose terms never exceed ~0.4, so no regime
  suffers cancellation amplification.

Derivatives come from the same run as dX_m/dx = m X_m/x - X_{m+1}. Negative
orders use J_{-m} = (-1)^m J_m and N_{-m} = (-1)^m N_m, applied as an exact
sign flip so results are bit-identical to the positive-order call up to
that sign.

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
_ASYM_MIN_X = 18.0  # the large-argument expansion is tried from here on


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

def _n01_terms(x: float) -> int:
    # orders the mid-range N_0/N_1 sums need: past x + 14 x^(1/3) the
    # J_k(x) are below ~1e-20
    return int(x) + int(14.0 * max(1.0, x) ** (1.0 / 3.0)) + 12


def _miller(m: int, x: float) -> list[float]:
    """J_0 .. J_keep(x) from one backward-recurrence run, keep >= m + 1.

    Below x = 18 keep also reaches ``_n01_terms(x)``, so the run serves
    the mid-range N_0/N_1 sums too.
    """
    keep = max(m + 1, _n01_terms(x)) if x < _ASYM_MIN_X else m + 1
    start = max(m + 1, int(x)) + int(14.0 * max(1.0, x) ** (1.0 / 3.0)) + 22
    if start % 2:
        start += 1
    out = [0.0] * (keep + 1)
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
        if k <= keep:
            out[k] = jc
        if k % 2 == 0:
            norm += jc if k == 0 else 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            if k <= keep:
                for i in range(k, keep + 1):
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


def _y01_midrange(x: float, seq: list[float]) -> tuple[float, float]:
    """(N_0, N_1) via log-weighted sums over one backward-recurrence run.

        N_0 = (2/pi) [ (ln(x/2)+g) J_0 + 2 sum (-1)^{k+1} J_{2k} / k ]
        N_1 = -dN_0/dx, expanded with the derivative ladder

    ``seq`` holds J_0 .. J_K(x) with K >= ``_n01_terms(x)``. The summands
    stay below ~0.4 and the alternation is mild, so there is no
    cancellation amplification at any x.
    """
    lg = math.log(0.5 * x) + _EULER_GAMMA
    s0 = lg * seq[0]
    s1 = lg * seq[1] - seq[0] / x
    sign = 1.0
    for k in range(1, _n01_terms(x) // 2):
        s0 += 2.0 * sign * seq[2 * k] / k
        s1 -= sign * (seq[2 * k - 1] - seq[2 * k + 1]) / k
        sign = -sign
    return _TWO_OVER_PI * s0, _TWO_OVER_PI * s1


# ---------------------------------------------------------------------------
# The ladder: J and N at orders m and m+1 from one run per regime
# ---------------------------------------------------------------------------

def _climb(m: int, x: float, v0: float, v1: float) -> tuple[float, float]:
    """(X_m, X_{m+1}) from X_0 = v0 and X_1 = v1 by the upward recurrence."""
    two_over_x = 2.0 / x
    for k in range(1, m + 1):
        v0, v1 = v1, k * two_over_x * v1 - v0
    return v0, v1


def _ladder(m: int, x: float, with_n: bool) -> tuple[float, ...]:
    """(J_m, J_{m+1}) at 0 <= x <= X_MAX, m >= 0; with_n, (J_m, J_{m+1}, N_m, N_{m+1}).

    One run per regime serves all the values:

    * 4 (m+1)^2 <= 6 x, x >= 18: the P/Q expansions at orders m and m+1
      give all four values, J and N sharing each phase;
    * m+1 < 0.9 x, x >= 18: the P/Q expansions at orders 0 and 1, then the
      upward recurrence. That is stable for N at every order, and for J
      below its turning point at order x: against 30-digit references
      its J error passes that of the backward run near (m+1)/x = 0.9,
      while the backward run loses ~1e-16 per order it crosses below x;
    * otherwise J_m and J_{m+1} come from two ascending series where they
      are safe, else from one backward-recurrence run, which also feeds
      the mid-range N_0/N_1 sums. N_0 and N_1 climb the upward recurrence
      to N_m and N_{m+1}.

    An N value that overflows is returned as inf or nan; callers decide
    whether the order they need is finite. N needs x > 0.
    """
    if x == 0.0:
        return (1.0 if m == 0 else 0.0), 0.0
    large = x >= _ASYM_MIN_X
    if large and 4.0 * (m + 1) * (m + 1) <= 6.0 * x:
        pq = _asym_pq(m, x)
        pq1 = _asym_pq(m + 1, x) if pq is not None else None
        if pq1 is not None:
            jm, nm = _asym_jy(m, x, pq)
            jm1, nm1 = _asym_jy(m + 1, x, pq1)
            return (jm, jm1, nm, nm1) if with_n else (jm, jm1)
    climb = large and m + 1 < 0.9 * x
    if climb or large and with_n:
        j0, y0 = _asym_jy(0, x, _asym_pq(0, x))
        j1, y1 = _asym_jy(1, x, _asym_pq(1, x))
    mid = 1.0 <= x < _ASYM_MIN_X
    seq = None
    if climb:
        jm, jm1 = _climb(m, x, j0, j1)
    elif _series_is_safe(m, x):
        jm, jm1 = _series_j(m, x), _series_j(m + 1, x)
    else:
        seq = _miller(m, x)
        jm, jm1 = seq[m], seq[m + 1]
    if not with_n:
        return jm, jm1
    if mid:
        y0, y1 = _y01_midrange(x, seq or _miller(m, x))
    elif not large:
        y0, y1 = _y01_small(x)
    return (jm, jm1) + _climb(m, x, y0, y1)


def _slope(m: int, x: float, value: float, above: float) -> float:
    """dX_m/dx = m X_m/x - X_{m+1} from a ladder pair (X_m, X_{m+1}).

    At m = 0 that is -X_1 exactly. At x = 0, where only J is defined,
    J'_1 = 1/2 and every other J'_m = 0.
    """
    if m == 0:
        return -above
    if x == 0.0:
        return 0.5 if m == 1 else 0.0
    return m * (value / x) - above


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _evaluate(family: str, m: int, x: float, slope: bool = False) -> float | complex:
    """X_m(x) for X in J, N, H1, H2 and any order |m| <= ORDER_MAX, from one ladder run.

    With ``slope`` the value is dX_m/dx (``_slope``). The reflection
    X_{-m} = (-1)^m X_m comes last, as an exact sign flip.
    """
    am = abs(m)
    ladder = _ladder(am, x, family != "J")
    pairs = zip(ladder[::2], ladder[1::2])  # (J_m, J_{m+1}) and (N_m, N_{m+1})
    values = [_slope(am, x, v, above) if slope else v for v, above in pairs]
    if family == "J":
        value = values[0]
    else:
        j, n = values
        # N_1 can overflow too; an overflow stays inf or turns nan up the ladder
        if not math.isfinite(n):
            raise EvaluationError(
                f"{'dN' if slope else 'N'}_{am}({x!r}) overflows double precision; "
                "reduce the order or increase the argument")
        value = n if family == "N" else complex(j, n if family == "H1" else -n)
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
