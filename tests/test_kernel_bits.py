"""The specfun kernels keep the bits of their frozen reference copies.

The ``_ref_`` functions below are the kernels as they stood before their
per-call set-up was cut (two separate series loops, the backward run's
outer loop over two islices of its table, ``max`` in the start order, the
series test at x >= 18 and the ``run[:2] + _climb(...)`` branch of the
ladder, ``abs`` in the limit series' stop test). They read the same module tables, which the set-up work did not
touch. A faster kernel must return the same ``float.hex`` everywhere.
"""

import math
import random
from itertools import islice

from coaxmode import specfun
from coaxmode.errors import EvaluationError
from coaxmode.specfun import ORDER_MAX

SEED = 20261022
SEAMS = (1.0, 4.0, 18.0, 57.0)


def _ref_series(t, q, mf):
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


def _ref_series_pair(m, x):
    half = 0.5 * x
    t0 = 1.0
    for kf in specfun._ORDERS[1:m + 1]:
        t0 *= half / kf
    mf = specfun._ORDERS[m]
    q = half * half
    return _ref_series(t0, q, mf), _ref_series(t0 * (half / (mf + 1.0)), q, mf + 1.0)


def _ref_miller_start(m, x):
    start = max(m + 1, int(x)) + int(11.0 * max(1.0, x) ** (1.0 / 3.0)) + 6
    return start + start % 2


def _ref_miller(m, x, with_n):
    top = specfun._STEPS_TOP
    cut = m + m % 2 or 2
    two_over_x = 2.0 / x
    jp, jc, half = 0.0, 1e-30, 0.0
    at_cut = (top - cut) // 2
    table = specfun._STEPS if with_n else specfun._J_STEPS
    parts = (islice(table, (top - _ref_miller_start(m, x)) // 2, at_cut),
             islice(table, at_cut, None))
    kept = ()
    if with_n:
        s0 = s1 = 0.0
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
    jp = 2.0 * two_over_x * jc - jp
    jc = two_over_x * jp - jc
    inv = 1.0 / (2.0 * half + jc)
    if m % 2:
        kept = kept[1], specfun._ORDERS[cut] * two_over_x * kept[1] - kept[0]
    elif m == 0:
        kept = jp, jc
    pair = kept[1] * inv, kept[0] * inv
    if not with_n:
        return pair
    scale = specfun._TWO_OVER_PI * inv
    lg = math.log(0.5 * x) + specfun._EULER_GAMMA
    return pair + (scale * (lg * jc + s0), scale * (lg * jp - jc / x - (s1 + jp)))


def _ref_y01_small(x):
    half = 0.5 * x
    if half == 0.0:
        raise EvaluationError(f"x/2 underflows to 0 at x = {x!r}, so log(x/2) is undefined")
    nq = -(half * half)
    a0, b0, t0 = 1.0, 0.0, 1.0
    a1, b1, t1 = half, half, half
    h = 0.0
    for inv_k, kk, kk1, inv_k1 in specfun._Y01_TERMS:
        h += inv_k
        t0 *= nq / kk
        t1 *= nq / kk1
        a0 += t0
        a1 += t1
        b0 += t0 * (2.0 * h)
        b1 += t1 * (2.0 * h + inv_k1)
        if abs(t0) + abs(t1) <= 1e-18 * (abs(a0) + abs(a1)):
            break
    lg = math.log(half) + specfun._EULER_GAMMA
    return (specfun._TWO_OVER_PI * (lg * a0 - 0.5 * b0),
            specfun._TWO_OVER_PI * (lg * a1 - 0.5 * b1 - 1.0 / x))


def _ref_ladder(m, x, with_n):
    # the untouched kernels (_asym, _climb, _series_is_safe) are read from specfun
    climb, asym, safe = specfun._climb, specfun._asym, specfun._series_is_safe
    if x == 0.0:
        return (1.0 if m == 0 else 0.0), 0.0
    if x >= 18.0:
        if 4.0 * (m + 1) * (m + 1) <= 6.0 * x:
            values = asym(m, x)
            if values is not None:
                return values if with_n else values[:2]
        up = m + 1 < 0.9 * x
        if up or with_n:
            j0, j1, y0, y1 = asym(0, x)
            if up:
                return climb(m, x, j0, j1, y0, y1) if with_n else climb(m, x, j0, j1)
        pair = _ref_series_pair(m, x) if safe(m, x) else _ref_miller(m, x, False)
        return pair + climb(m, x, y0, y1) if with_n else pair
    if not safe(m, x):
        run = _ref_miller(m, x, with_n)
        return run[:2] + climb(m, x, *run[2:]) if with_n else run
    pair = _ref_series_pair(m, x)
    if not with_n:
        return pair
    y0, y1 = _ref_miller(0, x, True)[2:] if x >= 1.0 else _ref_y01_small(x)
    return pair + climb(m, x, y0, y1)


def _hex(values):
    return [v.hex() for v in values]


def _outcome(call, *args):
    # a value's bits, or the error it raises
    try:
        return _hex(call(*args))
    except EvaluationError as exc:
        return repr(exc)


def _draws():
    """(m, x) pairs: the edge arguments, then a seeded mix over every regime."""
    edges = [0.0, 5e-324, 1e-300]
    for seam in SEAMS:
        edges += [math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)]
    for x in edges:
        for m in range(ORDER_MAX + 1):
            yield m, x
    rng = random.Random(SEED)
    spans = ((1.0, 18.0), (18.0, 57.0), (0.0, 1.0), (4.0, 11.0))
    while True:
        pick = rng.random()
        if pick < 0.6:
            x = rng.uniform(*rng.choice(spans))
        elif pick < 0.8:
            x = 10.0 ** rng.uniform(-300.0, 4.0)
        elif pick < 0.9:
            x = float(rng.randint(1, 57))   # integer x: int(x) and the cube root meet
        elif pick < 0.95:
            x = 1.0
        else:
            # J_1 near its first zero, 3.8317: the series cancels, and the lane
            # that outlives the other changes the sum's last bit
            yield 1, rng.uniform(3.7, 3.9)
            continue
        yield rng.randint(0, ORDER_MAX), x


def test_kernels_keep_their_frozen_bits():
    calls, changed = 0, []

    def same(name, got, want, m, x):
        nonlocal calls
        calls += 1
        if got != want:
            changed.append((name, m, x.hex(), got, want))

    for m, x in _draws():
        if calls >= 100_000:
            break
        ladders = []
        for with_n in (False, True) if x > 0.0 else (False,):   # N needs x > 0
            ladders.append(_outcome(specfun._ladder, m, x, with_n))
            same(f"_ladder {with_n}", ladders[-1], _outcome(_ref_ladder, m, x, with_n), m, x)
        if isinstance(ladders[-1], list) and len(ladders) == 2:
            same("_ladder J-only", ladders[0], ladders[1][:2], m, x)
        if specfun._series_is_safe(m, x):
            same("_series_pair", _hex(specfun._series_pair(m, x)),
                 _hex(_ref_series_pair(m, x)), m, x)
        if 1.0 <= x <= 57.0:
            same("_miller_start", specfun._miller_start(m, x), _ref_miller_start(m, x), m, x)
            j_only = _hex(specfun._miller(m, x, False))
            same("_miller J", j_only, _hex(_ref_miller(m, x, False)), m, x)
            if x < 18.0:
                with_n = _hex(specfun._miller(m, x, True))
                same("_miller with N", with_n, _hex(_ref_miller(m, x, True)), m, x)
                same("_miller J-only", j_only, with_n[:2], m, x)
        if x < 1.0:
            same("_y01_small", _outcome(specfun._y01_small, x), _outcome(_ref_y01_small, x),
                 m, x)
    assert calls >= 100_000
    assert not changed, (len(changed), changed[:3])


def test_edge_arguments_reach_the_underflowing_series():
    # at m = 50 the series' leading term (x/2)^50 / 50! is 0 at these x, and
    # x = 5e-324 has x/2 = 0: the limit series refuses it in both versions
    for x in (0.0, 5e-324, 1e-300):
        assert specfun._series_pair(ORDER_MAX, x) == (0.0, 0.0)
    assert _outcome(specfun._y01_small, 5e-324) == _outcome(_ref_y01_small, 5e-324)
    assert _outcome(specfun._y01_small, 5e-324).startswith("EvaluationError")
