"""Frozen oracle tables and small live oracles shared by the tests.

The JSON tables are produced by tests/tools/gen_oracle_tables.py with
methods independent of the package (high-precision ascending series for
J_m zeros, a fine scipy sign scan for cross-product roots, a high-term
limit series for Neumann reference values). The helpers here stay naive
on purpose: exhaustive loops and finite differences, no shortcuts shared
with the code under test.
"""

from __future__ import annotations

import json
import pathlib

from coaxmode import ModeIndex, tm_frequency

_DATA = pathlib.Path(__file__).parent / "data" / "oracle_tables.json"
_tables = json.loads(_DATA.read_text(encoding="utf-8"))


def bessel_zero_oracle(m: int) -> list[float]:
    """First 20 zeros of J_m (m <= 5) from the frozen series-bisection run."""
    return _tables["bessel_zeros"][str(m)]


def bessel_first_zeros() -> dict[int, tuple[float, float]]:
    """(j_{m,1}, j_{m,2}) for m = 0..50, from the frozen 30-digit mpmath run."""
    return {int(m): tuple(pair) for m, pair in _tables["bessel_first_zeros"].items()}


def cross_zero_oracle(m: int, a: float, b: float) -> list[float]:
    """First 10 cross-product roots from the frozen 1e-3 sign-scan run."""
    return _tables["cross_zeros"][f"m={m},a={a},b={b}"]


def cross_zero_tables() -> dict[tuple[int, float, float], list[float]]:
    """Every frozen cross-product table, keyed by (m, a, b)."""
    tables = {}
    for key, zeros in _tables["cross_zeros"].items():
        fields = dict(part.split("=") for part in key.split(","))
        tables[int(fields["m"]), float(fields["a"]), float(fields["b"])] = zeros
    return tables


def neumann_reference() -> list[dict]:
    """(m, x, N_m(x)) probes from the frozen limit-series run."""
    return _tables["neumann_reference"]


def ladder_reference() -> list[dict]:
    """(m, x, [J_m, J_{m+1}], [N_m, N_{m+1}]) probes from the frozen 30-digit run."""
    return _tables["ladder_reference"]


def ladder_midrange_reference() -> list[dict]:
    """Probes of the same form at 1 <= x < 18, from their own seeded 30-digit run."""
    return _tables["ladder_midrange_reference"]


def backward_reference() -> list[dict]:
    """Probes of the same form where the backward run serves the ladder, seams included."""
    return _tables["backward_reference"]


# textbook anchor values, quoted to double precision
X01 = 2.404825557695773
X02 = 5.520078110286311
X03 = 8.653727912911013
X11 = 3.831705970207512


def brute_force_mode_set(geometry, omega_max: float, cap: int = 20) -> set[tuple[int, int, int]]:
    """Exhaustive triple loop over index caps; the enumeration ground truth."""
    found = set()
    for m in range(0, cap + 1):
        for n in range(1, cap + 1):
            for p in range(0, cap + 1):
                if tm_frequency(geometry, ModeIndex(m, n, p)).omega <= omega_max:
                    found.add((m, n, p))
    return found


def central_difference(f, x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)
