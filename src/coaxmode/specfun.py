"""Integer-order cylinder functions: J_m, N_m, H_m^(1,2) and derivatives.

Self-contained evaluation to near machine precision on the tested envelope
|m| <= 50, 0 <= x <= 1e4. Every value comes from one private ladder,
``_ladder``, which returns J and N at orders m and m+1 from a single run
per regime:

* the large-argument cosine/sine expansion, with slowly varying amplitude
  factors P and Q, at orders m and m+1 once its smallest term drops below
  ~1e-16 there. Each order sums P and Q with its own terms and stopping
  rule, and one phase reduction serves all four values: chi_{m+1} =
  chi_m - pi/2, so cos and sin at m+1 are sin and -cos at m;
* otherwise, for x >= 18 and m+1 < 0.9 x, the same expansion at orders 0
  and 1 and the upward three-term recurrence;
* otherwise J_m and J_{m+1} from their ascending power series where those
  are well conditioned (small x, or order large enough that the terms
  decrease from the start), else from one backward-recurrence run with
  even-order sum normalization, which steps two orders at a time and keeps
  only the orders it returns. N_m climbs the stable upward recurrence from
  orders 0 and 1: below x = 1 the integer-order limit series gives those
  directly; between 1 and 18 the backward run that gave J, or one for
  order 0 after the series, sums them with log weights in terms below
  ~0.4: no cancellation amplification.

Each kernel performs the plain recurrence's float operations, on the same
operands and in the same order, with the interpreter's bookkeeping taken
out of its loops: where a loop would count, it walks a module-level table
of its per-step constants (``_STEPS`` for the backward run, ``_ASYM_TERMS``
for the expansion, ``_Y01_TERMS`` for the limit series, ``_ORDERS`` for the
climbs and the series' leading term), and the series' own counter is a
float. A small integer converts to the same double, so every value keeps
its bits; ``tests/data/ladder_bits.json`` pins them.

Derivatives come from the same run as dX_m/dx = m X_m/x - X_{m+1}. Negative
orders use J_{-m} = (-1)^m J_m and N_{-m} = (-1)^m N_m, applied as an exact
sign flip so results are bit-identical to the positive-order call up to
that sign.

Calls return values only. The accuracy over the envelope is the bound a
seeded 30-digit reference sweep supports, stated in README "Numerical notes".

The public calls and ``fields`` read ladder tuples through one memo,
``_cached_ladder`` (``errors._memo``; 24,576 entries, about 8 MB), so a
value, its slope and every family read the same bits. Root finding, the
``fields.helmholtz_residual`` stencil and the inner-wall match of a radial
profile (memoized itself) read ``_ladder`` directly: their arguments do not
come again, and would only evict the ones that do.

Every operation is a pure function of its arguments and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import _NOT_REAL, DomainError, EvaluationError, OrderError, _integer, _memo, _record

ORDER_MAX = 50
X_MAX = 1.0e4

_EULER_GAMMA = 0.5772156649015329  # Euler-Mascheroni constant
_TWO_OVER_PI = 2.0 / math.pi
_ASYM_MIN_X = 18.0  # the large-argument expansion is tried from here on


@_record
class EvalResult:
    """A function value; complex for Hankel-family derivatives.

    Its accuracy is the bound README "Numerical notes" states, from a
    seeded 30-digit reference sweep over the envelope.
    """

    value: float | complex


def _check_x(x: float, positive: bool) -> float:
    if type(x) is not float:  # a float needs neither test
        if isinstance(x, _NOT_REAL):
            raise DomainError(f"argument must be a real number, got {x!r}")
        try:
            x = float(x)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
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
# Ascending series for J_m and J_{m+1}
# ---------------------------------------------------------------------------

# the orders 0..ORDER_MAX as floats: a counter or order that is a small exact
# integer multiplies, divides and adds as the int does, without its conversion
_ORDERS = tuple(map(float, range(ORDER_MAX + 1)))


def _series(t: float, q: float, mf: float) -> float:
    """J_m from its leading term t, with q = (x/2)^2 and mf = m, by ``math.fsum``.

    Stops at the first term below 1e-18 of the largest, or at term 400; a
    leading term of 0 gives 0.
    """
    terms = [t]
    peak = abs(t)
    live = t != 0.0
    jf = 0.0
    while live:
        jf += 1.0
        t = -t * q / (jf * (jf + mf))
        at = t if t > 0.0 else -t
        terms.append(t)
        if at > peak:
            peak = at
        live = at > 1e-18 * peak and jf < 400.0
    return math.fsum(terms)


def _series_pair(m: int, x: float) -> tuple[float, float]:
    """(J_m, J_{m+1}) from their ascending series.

    The leading term of order m+1 is that of order m times (x/2)/(m+1), the
    product the order-(m+1) series would form.
    """
    half = 0.5 * x
    t0 = 1.0
    for kf in _ORDERS[1:m + 1]:
        t0 *= half / kf
    mf = _ORDERS[m]
    q = half * half
    return _series(t0, q, mf), _series(t0 * (half / (mf + 1.0)), q, mf + 1.0)


def _series_is_safe(m: int, x: float) -> bool:
    # terms decrease from the first one: no cancellation beyond ~1 ulp each
    return x <= 4.0 or 0.25 * x * x <= 0.5 * (m + 1)


# ---------------------------------------------------------------------------
# Backward recurrence (normalized by J_0 + 2*sum J_{2k} = 1)
# ---------------------------------------------------------------------------

def _miller_start(m: int, x: float) -> int:
    """The even order where ``_miller``'s backward run starts, for 1 <= x < 57.

    Past max(m+1, x) the orders J_k fall faster than geometrically, so
    c x^(1/3) + d orders above it the error of starting from nothing falls
    below double precision at orders m and m+1. (c, d) = (11, 6) is the
    cheapest pair of a seeded 8,000-point scan of the backward regime
    (CHANGES.md) whose start error, the run taken in 30-digit arithmetic,
    stays below 1e-17 of README's normalization for J and for N, and
    whose double-precision errors were no worse than those of the earlier
    start, 14 x^(1/3) + 22 orders up.
    """
    start = max(m + 1, int(x)) + int(11.0 * max(1.0, x) ** (1.0 / 3.0)) + 6
    return start + start % 2


# weights of the mid-range N_0 and N_1 sums by order k of the backward run:
# N_0 takes 4 (-1)^(k/2+1)/k at even k; N_1 takes 1 at k = 1 and
# (-1)^i (2i+1)/(i(i+1)) at k = 2i+1, the sum of (-1)^(i+1) (J_2i-1 - J_2i+1)/i
# by parts. A run reads them below its start, and the with-N run starts
# highest at m = 50, x just below 18.
_N_WEIGHTS_LEN = _miller_start(ORDER_MAX, math.nextafter(_ASYM_MIN_X, 0.0))
_N0_WEIGHTS = tuple(4.0 * (-1) ** (k // 2 + 1) / k if k and k % 2 == 0 else 0.0
                    for k in range(_N_WEIGHTS_LEN))
_N1_WEIGHTS = (0.0, 1.0) + tuple((-1) ** (k // 2) * k / ((k // 2) * (k // 2 + 1))
                                 if k % 2 else 0.0 for k in range(2, _N_WEIGHTS_LEN))

# step k of the backward run, which gives J_{k-1} and J_{k-2}, at even k from
# the highest start (the J-only run's, at m = 50 and x just below 57) down to
# 4, so step k sits at (_STEPS_TOP - k) / 2: (k, k-1) as floats, and the N_0
# weight at k-2 and the N_1 weight at k-1 (0 past the weights). A run walks
# it with islice: slices of every length would each keep an allocator pool
# in use, about 0.4 MB more peak RSS over a library session. The J-only run
# walks _J_STEPS, the same rows without the weights.
_STEPS_TOP = _miller_start(ORDER_MAX, 57.0)
_STEPS = tuple((float(k), float(k - 1),
                _N0_WEIGHTS[k - 2] if k - 2 < _N_WEIGHTS_LEN else 0.0,
                _N1_WEIGHTS[k - 1] if k - 1 < _N_WEIGHTS_LEN else 0.0)
               for k in range(_STEPS_TOP, 2, -2))
_J_STEPS = tuple(step[:2] for step in _STEPS)


def _miller(m: int, x: float, with_n: bool) -> tuple[float, ...]:
    """(J_m, J_{m+1}) from one backward-recurrence run; with_n, also (N_0, N_1).

    The run steps two orders at a time through ``_STEPS`` from the even
    order ``_miller_start`` gives, above both m and x, so every second value
    is an even order and enters the normalization sum without a parity
    test. It keeps the pair it holds at ``cut``, the even order at or just
    above m; at odd m, J_m is the next step's first value, formed from that
    pair as the run forms it. It starts at 1e-30 and needs no rescaling: it
    runs only for 1 <= x < 57 and m <= 50, where its values stay below
    ~1e87 (below ~1e34 at the arguments the ladder passes it). With
    ``with_n`` (1 <= x < 18) the same loop sums N_0 = (2/pi) [lg J_0 +
    sum w0_k J_k] and N_1 = (2/pi) [lg J_1 - J_0/x - sum w1_k J_k], with
    lg = ln(x/2) + gamma, whose terms stay below ~0.4 and alternate mildly:
    no cancellation amplification at any x. J has the same bits either
    way; for N_0 and N_1 alone, m = 0.
    """
    cut = m + m % 2 or 2            # at m = 0 the run's last step gives the pair
    two_over_x = 2.0 / x
    jp, jc, half = 0.0, 1e-30, 0.0  # J_{k+1}, J_k, sum of J_2i over 2i >= k
    at_cut = (_STEPS_TOP - cut) // 2
    table = _STEPS if with_n else _J_STEPS
    parts = (islice(table, (_STEPS_TOP - _miller_start(m, x)) // 2, at_cut),
             islice(table, at_cut, None))
    kept = ()                       # (J_{cut+1}, J_cut)
    if with_n:
        s0 = s1 = 0.0               # the N_0 and N_1 sums over the orders passed
        for steps in parts:
            for kf, km1, w0, w1 in steps:
                jp = kf * two_over_x * jc - jp
                jc = km1 * two_over_x * jp - jc
                half += jc
                s0 += w0 * jc
                s1 += w1 * jp
            kept = kept or (jp, jc)
    else:
        for steps in parts:
            for kf, km1 in steps:
                jp = kf * two_over_x * jc - jp
                jc = km1 * two_over_x * jp - jc
                half += jc
            kept = kept or (jp, jc)
    jp = 2.0 * two_over_x * jc - jp  # J_1
    jc = two_over_x * jp - jc        # J_0, which enters the sum once
    # doubling is exact and commutes with each rounding (no value nears
    # overflow or the subnormals), so this is the sum of 2 J_2i, step by step
    inv = 1.0 / (2.0 * half + jc)
    if m % 2:
        kept = kept[1], _ORDERS[cut] * two_over_x * kept[1] - kept[0]
    elif m == 0:
        kept = jp, jc
    pair = kept[1] * inv, kept[0] * inv
    if not with_n:
        return pair
    scale = _TWO_OVER_PI * inv
    lg = math.log(0.5 * x) + _EULER_GAMMA
    # J_1 takes its weight 1 here, outside the loop
    return pair + (scale * (lg * jc + s0), scale * (lg * jp - jc / x - (s1 + jp)))


# ---------------------------------------------------------------------------
# Large-argument expansion
# ---------------------------------------------------------------------------

_PI_LO = 1.2246467991473532e-16  # pi - float(pi)
_SPLIT = 134217729.0             # 2**27 + 1, Dekker splitter


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


def _phase_offset(m: int) -> tuple[float, float]:
    # (m/2 + 1/4) pi as a rounded product and its error, pi's own included
    t = 0.5 * m + 0.25
    a_hi, a_err = _two_prod(t, math.pi)
    return a_hi, a_err + t * _PI_LO


_PHASE_OFFSETS = tuple(map(_phase_offset, range(ORDER_MAX + 1)))

# term k of the expansion: k (as a float, which multiplies as the int does),
# (2k-1)^2, whether it adds to Q (odd k) or to P, and its sign (+Q, -P, -Q, +P
# for k = 1, 2, 3, 4 mod 4); -1.0 * t is an exact negation, so P and Q carry
# the bits of a branch on k mod 4
_ASYM_TERMS = tuple((float(k), (2.0 * k - 1.0) ** 2, k % 2 == 1,
                     -1.0 if k % 4 in (2, 3) else 1.0) for k in range(1, 64))


def _amplitudes(mu: float, ex: float) -> tuple[float, float] | None:
    """(P, Q) at the order with mu = 4 m^2, ex = 8 x; None past ~5e-16.

    Sums to the smallest term, or to one below 1e-17, and declines when the
    terms start to grow before they fall to ~5e-16, or, a guard no scan
    (CHANGES.md) has met, stay at or above that through all 63 terms.
    """
    p, q, t, small = 1.0, 0.0, 1.0, math.inf
    for k, odd, on_q, sign in _ASYM_TERMS:
        t *= (mu - odd) / (k * ex)
        at = t if t > 0.0 else -t
        if at >= small:
            break
        small = at
        if on_q:
            q += sign * t
        else:
            p += sign * t
        if at < 1e-17:
            break
    return None if small > 5e-16 else (p, q)


def _asym(m: int, x: float) -> tuple[float, float, float, float] | None:
    """(J_m, J_{m+1}, N_m, N_{m+1}) from the large-argument expansion, or None.

    ``_amplitudes`` sums P and Q at order m, then at m+1, and the call
    returns None as soon as either order cannot reach ~5e-16; the caller
    then falls back to recurrence. One phase serves both orders: chi = x -
    (m/2 + 1/4) pi is reduced with a two-part pi, so it keeps full
    precision even when x is large and the subtraction rounds, and
    chi_{m+1} = chi - pi/2 turns (cos, sin) at m+1 into (sin, -cos) at m.
    """
    ex = 8.0 * x
    pq0 = _amplitudes(4.0 * m * m, ex)
    pq1 = pq0 and _amplitudes(4.0 * (m + 1) * (m + 1), ex)
    if pq1 is None:
        return None
    (p0, q0), (p1, q1) = pq0, pq1
    a_hi, a_lo = _PHASE_OFFSETS[m]
    chi = x - a_hi                   # x - a_hi == chi + res exactly (error-free sum)
    bb = chi - x
    res = (x - (chi - bb)) + (-a_hi - bb)
    delta = res - a_lo
    c = math.cos(chi)
    s = math.sin(chi)
    c, s = c - s * delta, s + c * delta
    amp = math.sqrt(_TWO_OVER_PI / x)
    return (amp * (c * p0 - s * q0), amp * (s * p1 + c * q1),
            amp * (s * p0 + c * q0), amp * (s * q1 - c * p1))


# ---------------------------------------------------------------------------
# Neumann function: integer-order limit series for orders 0 and 1
# ---------------------------------------------------------------------------

# term k = 1..60 of the limit series: 1/k, k^2, k(k+1) and 1/(k+1), as the int
# arithmetic gives them
_Y01_TERMS = tuple((1.0 / k, float(k * k), float(k * (k + 1)), 1.0 / (k + 1))
                   for k in range(1, 61))


def _y01_small(x: float) -> tuple[float, float]:
    """(N_0, N_1) from the integer-order limit series, x < 1.

    Log term plus harmonic-weighted power sums; with x*x/4 < 0.25 the
    terms decay from the start, so plain doubles keep full precision.
    """
    half = 0.5 * x
    if half == 0.0:
        raise EvaluationError(f"x/2 underflows to 0 at x = {x!r}, so log(x/2) is undefined")
    nq = -(half * half)
    a0, b0, t0 = 1.0, 0.0, 1.0          # -> J_0 and its H_k-weighted sum
    a1, b1, t1 = half, half, half       # k = 0 of b1 carries H_0 + H_1 = 1
    h = 0.0
    for inv_k, kk, kk1, inv_k1 in _Y01_TERMS:
        h += inv_k
        t0 *= nq / kk
        t1 *= nq / kk1
        a0 += t0
        a1 += t1
        b0 += t0 * (2.0 * h)
        b1 += t1 * (2.0 * h + inv_k1)
        if abs(t0) + abs(t1) <= 1e-18 * (abs(a0) + abs(a1)):
            break
    lg = math.log(half) + _EULER_GAMMA
    return (_TWO_OVER_PI * (lg * a0 - 0.5 * b0),
            _TWO_OVER_PI * (lg * a1 - 0.5 * b1 - 1.0 / x))


# ---------------------------------------------------------------------------
# The ladder: J and N at orders m and m+1 from one run per regime
# ---------------------------------------------------------------------------

def _climb(m: int, x: float, v0: float, v1: float,
           w0: float | None = None, w1: float | None = None) -> tuple[float, ...]:
    """(X_m, X_{m+1}) from X_0 = v0 and X_1 = v1 by the upward recurrence;
    given (w0, w1) too, the same steps climb a second pair alongside."""
    two_over_x = 2.0 / x
    if w0 is None:
        for kf in _ORDERS[1:m + 1]:
            v0, v1 = v1, kf * two_over_x * v1 - v0
        return v0, v1
    for kf in _ORDERS[1:m + 1]:
        f = kf * two_over_x
        v0, v1 = v1, f * v1 - v0
        w0, w1 = w1, f * w1 - w0
    return v0, v1, w0, w1


def _ladder(m: int, x: float, with_n: bool) -> tuple[float, ...]:
    """(J_m, J_{m+1}) at 0 <= x <= X_MAX, m >= 0; with_n, (J_m, J_{m+1}, N_m, N_{m+1}).

    One run per regime serves all the values:

    * 4 (m+1)^2 <= 6 x, x >= 18: the P/Q expansion at orders m and m+1
      gives all four values from one phase;
    * m+1 < 0.9 x, x >= 18: the same expansion at orders 0 and 1, then the
      upward recurrence, which climbs J and N in one loop. That is stable
      for N at every order, and for J below its turning point at order x:
      against 30-digit references its J error passes that of the backward
      run near (m+1)/x = 0.9, while the backward run loses ~1e-16 per order
      it crosses below x;
    * otherwise J_m and J_{m+1} come from their ascending series where they
      are safe, else from one backward-recurrence run, which also sums
      the mid-range N_0 and N_1 (a run for order 0 does, after the
      series). Those climb the upward recurrence to N_m and N_{m+1}.

    An N value that overflows is returned as inf or nan; callers decide
    whether the order they need is finite. N needs x > 0, and m stays at
    most ORDER_MAX: the kernels' tables end there.
    """
    if x == 0.0:
        return (1.0 if m == 0 else 0.0), 0.0
    if x >= _ASYM_MIN_X:
        if 4.0 * (m + 1) * (m + 1) <= 6.0 * x:
            values = _asym(m, x)
            if values is not None:
                return values if with_n else values[:2]
        climb = m + 1 < 0.9 * x
        if climb or with_n:
            j0, j1, y0, y1 = _asym(0, x)
            if climb:
                return _climb(m, x, j0, j1, y0, y1) if with_n else _climb(m, x, j0, j1)
        pair = _series_pair(m, x) if _series_is_safe(m, x) else _miller(m, x, False)
        return pair + _climb(m, x, y0, y1) if with_n else pair
    if not _series_is_safe(m, x):
        run = _miller(m, x, with_n)
        return run[:2] + _climb(m, x, *run[2:]) if with_n else run
    pair = _series_pair(m, x)
    if not with_n:
        return pair
    y0, y1 = _miller(0, x, True)[2:] if x >= 1.0 else _y01_small(x)
    return pair + _climb(m, x, y0, y1)


# one entry per (m, x, with_n): the ladder tuple (J_m, J_{m+1}[, N_m, N_{m+1}]),
# which serves a value and its slope; who reads it is in the module docstring
_cached_ladder = _memo(24_576)(_ladder)


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
    """X_m(x) for X in J, N, H1, H2 and any order |m| <= ORDER_MAX, from one ladder read.

    With ``slope`` the value is dX_m/dx (``_slope``). The reflection
    X_{-m} = (-1)^m X_m comes last, as an exact sign flip.
    """
    am = abs(m)
    # (J_m, J_{m+1}[, N_m, N_{m+1}])
    ladder = _cached_ladder(am, x, family != "J")
    if family != "N":
        value = _slope(am, x, ladder[0], ladder[1]) if slope else ladder[0]
    if family != "J":
        n = _slope(am, x, ladder[2], ladder[3]) if slope else ladder[2]
        # N_1 can overflow too; an overflow stays inf or turns nan up the ladder
        if not math.isfinite(n):
            raise EvaluationError(
                f"{'dN' if slope else 'N'}_{am}({x!r}) overflows double precision; "
                "reduce the order or increase the argument")
        value = n if family == "N" else complex(value, n if family == "H1" else -n)
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
    _integer(m, "order", -ORDER_MAX, ORDER_MAX, OrderError)
    return EvalResult(_evaluate("J", m, _check_x(x, positive=False)))


def neumann_n(m: int, x: float) -> EvalResult:
    """Neumann function (Bessel of the second kind), integer order, x > 0."""
    _integer(m, "order", -ORDER_MAX, ORDER_MAX, OrderError)
    return EvalResult(_evaluate("N", m, _check_x(x, positive=True)))


def hankel(kind: int, m: int, x: float) -> complex:
    """Hankel function H_m^(kind) = J_m + (-1)^(kind+1) i N_m, x > 0."""
    _integer(kind, "Hankel kind", 1, 2)
    _integer(m, "order", -ORDER_MAX, ORDER_MAX, OrderError)
    return _evaluate("H1" if kind == 1 else "H2", m, _check_x(x, positive=True))


_FAMILIES = ("J", "N", "H1", "H2")


def derivative(family: str, m: int, x: float) -> EvalResult:
    """d/dx of J, N, H1 or H2 at integer order, as m X_m/x - X_{m+1} from one ladder run.

    The J family also accepts x = 0 (series limit). Values for the Hankel
    families are complex.
    """
    if not isinstance(family, str) or family.upper() not in _FAMILIES:
        raise DomainError(f"family must be one of {_FAMILIES}, got {family!r}")
    family = family.upper()
    _integer(m, "order", -ORDER_MAX, ORDER_MAX, OrderError)
    x = _check_x(x, positive=(family != "J"))
    return EvalResult(_evaluate(family, m, x, slope=True))
