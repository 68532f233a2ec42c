#!/usr/bin/env python3
"""Regenerate tests/data/oracle_tables.json.

The oracles here are deliberately independent of the package under test:

* J_m zeros: the ascending power series evaluated in 50-digit mpmath
  arithmetic, sign-scanned with step 0.1 and bisected until the bracket
  is narrower than 1e-13.
* Cross-product roots: scipy.special jv/yv on a 1e-3 grid, sign changes
  refined with brentq to 1e-13.
* Neumann reference values: high-term-count evaluation of the
  integer-order limit series (log term + harmonic-number sums) in
  50-digit arithmetic.
* Ladder reference values: J_m, J_{m+1}, N_m and N_{m+1} at seeded points
  (m <= 50, 1e-3 <= x <= 1e4, log-uniform in x) from mpmath besselj and
  bessely in 30-digit arithmetic, and 300 more, with their own seed, at
  1 <= x < 18 (uniform in x), where N comes from the backward run.
* Backward-run reference values: 300 more of the same form, with a third
  seed, where the backward run serves the ladder: 100 at 1 <= x < 18,
  where it gives N (and J where the series does not), 100 at
  18 <= x < 57 with m+1 >= 0.9 x, where it gives J, and 100 on the seams
  where its start is highest, m 40-50 at x 45-57 and m 25-50 at
  1 <= x < 18.
* First two J_m zeros for m = 0..50: mpmath besseljzero in 30-digit
  arithmetic, which brackets the first window of each order.

Run from the repository root:  python tests/tools/gen_oracle_tables.py
"""

import json
import pathlib
import random

import numpy as np
from mpmath import besselj, besseljzero, bessely, factorial, log, mp, mpf, psi
from scipy.optimize import brentq
from scipy.special import jv, yv

mp.dps = 50

OUT = pathlib.Path(__file__).resolve().parents[1] / "data" / "oracle_tables.json"

ZERO_ORDERS = range(0, 6)
ZEROS_PER_ORDER = 20
CROSS_CASES = [(m, a, b) for m in (0, 1, 2) for a, b in ((1.0, 2.0), (1.0, 1.1), (0.5, 3.0))]
CROSS_COUNT = 10
LADDER_SEED = 20261018
LADDER_POINTS = 400
MIDRANGE_SEED = 20261019
MIDRANGE_POINTS = 300
BACKWARD_SEED = 20261020
BACKWARD_GROUP = 100


def j_series(m: int, x) -> mpf:
    """Ascending power series for J_m, summed far past the last big term."""
    x = mpf(x)
    term = (x / 2) ** m / factorial(m)
    total = term
    j = 0
    while True:
        j += 1
        term = -term * (x / 2) ** 2 / (j * (j + m))
        total += term
        if abs(term) < mpf("1e-60") * (1 + abs(total)) and j > 5:
            return total


def bessel_zero_oracle(m: int, count: int) -> list[float]:
    zeros = []
    x = mpf("0.1")
    fx = j_series(m, x)
    step = mpf("0.1")
    while len(zeros) < count:
        x2 = x + step
        fx2 = j_series(m, x2)
        if fx * fx2 < 0:
            lo, hi = x, x2
            flo = fx
            while hi - lo > mpf("1e-13"):
                mid = (lo + hi) / 2
                fmid = j_series(m, mid)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            zeros.append(float((lo + hi) / 2))
        x, fx = x2, fx2
    return zeros


def cross_zero_oracle(m: int, a: float, b: float, count: int) -> list[float]:
    def det(g):
        return jv(m, g * b) * yv(m, g * a) - jv(m, g * a) * yv(m, g * b)

    upper = (count + 3) * np.pi / (b - a) + 20.0
    grid = np.arange(1e-3, upper, 1e-3)
    vals = det(grid)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    roots = [brentq(det, grid[i], grid[i + 1], xtol=1e-13) for i in flips[:count]]
    if len(roots) < count:
        raise RuntimeError(f"oracle scan found only {len(roots)} roots for m={m}")
    return roots


def neumann_limit_series(m: int, x) -> mpf:
    x = mpf(x)
    term_log = (2 / mp.pi) * log(x / 2) * j_series(m, x)
    finite = mpf(0)
    for k in range(m):
        finite += factorial(m - k - 1) / factorial(k) * (x * x / 4) ** k
    term_finite = -(1 / mp.pi) * (x / 2) ** (-m) * finite
    series = mpf(0)
    k = 0
    term = mpf(1) / factorial(m)
    while True:
        series += (psi(0, k + 1) + psi(0, k + m + 1)) * term
        k += 1
        term = -term * (x * x / 4) / (k * (k + m))
        if abs(term) < mpf("1e-60") and k > 5:
            break
    return term_log + term_finite - (1 / mp.pi) * (x / 2) ** m * series


def reference_probes(points) -> list[dict]:
    """[J_m, J_{m+1}] and [N_m, N_{m+1}] at each (m, x), in 30-digit arithmetic."""
    probes = []
    with mp.workdps(30):
        for m, x in points:
            arg = mpf(x)
            probes.append({"m": m, "x": x,
                           "j": [float(besselj(m, arg)), float(besselj(m + 1, arg))],
                           "n": [float(bessely(m, arg)), float(bessely(m + 1, arg))]})
    return probes


def ladder_reference(count: int, seed: int, draw_x) -> list[dict]:
    """Seeded (m, x) points, m uniform in 0..50, with their reference values."""
    rng = random.Random(seed)
    return reference_probes([(rng.randint(0, 50), draw_x(rng)) for _ in range(count)])


def first_zero_pairs() -> dict[str, list[float]]:
    """[j_{m,1}, j_{m,2}] for m = 0..50, in 30-digit arithmetic."""
    with mp.workdps(30):
        return {str(m): [float(besseljzero(m, 1)), float(besseljzero(m, 2))]
                for m in range(51)}


def backward_points(count: int, seed: int) -> list[tuple[int, float]]:
    """Seeded (m, x) where the backward run serves the ladder, in four groups."""
    rng = random.Random(seed)

    def draw(m_lo, m_hi, x_lo, x_hi, n):
        points = []
        while len(points) < n:
            m, x = rng.randint(m_lo, m_hi), rng.uniform(x_lo, x_hi)
            # from x = 18 on the run gives J only where the upward climb does not
            if x < 18.0 or m + 1 >= 0.9 * x:
                points.append((m, x))
        return points

    return (draw(0, 50, 1.0, 18.0, count) + draw(0, 50, 18.0, 57.0, count)
            + draw(40, 50, 45.0, 57.0, count // 2) + draw(25, 50, 1.0, 18.0, count // 2))


def main() -> None:
    bessel = {str(m): bessel_zero_oracle(m, ZEROS_PER_ORDER) for m in ZERO_ORDERS}
    cross = {
        f"m={m},a={a},b={b}": cross_zero_oracle(m, a, b, CROSS_COUNT)
        for m, a, b in CROSS_CASES
    }

    neumann = []
    probe_points = [float(v) for v in bessel["0"][:3]] + [1.0, 2.5, 7.5, 13.7]
    for m in (0, 1, 2, 5):
        for x in probe_points:
            neumann.append({"m": m, "x": x,
                            "value": float(neumann_limit_series(m, repr(x)))})

    doc = {
        "regenerate_with": "python tests/tools/gen_oracle_tables.py",
        "bessel_zeros": bessel,
        "cross_zeros": cross,
        "neumann_reference": neumann,
        "ladder_reference": ladder_reference(
            LADDER_POINTS, LADDER_SEED, lambda rng: 10.0 ** rng.uniform(-3.0, 4.0)),
        "ladder_midrange_reference": ladder_reference(
            MIDRANGE_POINTS, MIDRANGE_SEED, lambda rng: rng.uniform(1.0, 18.0)),
        "backward_reference": reference_probes(backward_points(BACKWARD_GROUP, BACKWARD_SEED)),
        "bessel_first_zeros": first_zero_pairs(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
