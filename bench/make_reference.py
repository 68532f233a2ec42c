"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout:

    python3 bench/make_reference.py

It imports coaxmode from ``src/`` and writes ``bench/reference.json``:
zero tables, the radial profiles of the fixed field geometries, the
specfun values of the fixed point set, and the names of the verify checks.
The checker compares outputs with these values at a relative tolerance of
each column's scale, so a last-ulp change in a root is not a failure.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from coaxmode import (AnnulusGeometry, CylinderGeometry, bessel_zeros,  # noqa: E402
                      cross_product_zeros, derivative, neumann_n, bessel_j, radial_solution)
from coaxmode.verify import MODULES, run_checks  # noqa: E402

# the annulus spectra of the workloads stay below this omega * b / c
MODES_RATIO_CUTOFF = 24.0


def _cross_tables() -> dict[str, list[float]]:
    tables = {}
    for ratio in W.CROSS_RATIOS:
        for m in range(11):
            tables[f"{ratio}:{m}"] = list(cross_product_zeros(m, ratio, 1.0, 50).zeros)
    for m in range(11, 51):
        zeros = cross_product_zeros(m, W.MODES_RATIO, 1.0, 50).zeros
        tables[f"{W.MODES_RATIO}:{m}"] = list(zeros)
        if zeros[0] > MODES_RATIO_CUTOFF:
            break
    for m in range(4):
        tables[f"{W.THIN_RATIO}:{m}"] = list(cross_product_zeros(m, W.THIN_RATIO, 1.0, 4).zeros)
    return tables


def _radial() -> dict[str, list[list[float]]]:
    out = {}
    for name, g in W.FIELD_GEOMETRIES.items():
        geometry = (CylinderGeometry(b=g["b"], l=1.0) if name == "cylinder"
                    else AnnulusGeometry(a=g["a"], b=g["b"], l=1.0))
        for m in range(W.FIELD_M_MAX + 1):
            for n in range(1, W.FIELD_N_MAX + 1):
                sol = radial_solution(geometry, m, n)
                for count in W.FIELD_RHO_COUNTS:
                    rhos = W.rho_grid(name, count)
                    out[f"{name}:{m}:{n}:{count}"] = [[sol.value(r) for r in rhos],
                                                      [sol.slope(r) for r in rhos]]
    return out


def main() -> int:
    reference = {
        "bessel": {str(m): list(bessel_zeros(m, 100).zeros) for m in range(51)},
        "cross": _cross_tables(),
        "radial": _radial(),
        "specfun_pool": [[bessel_j(m, x).value, neumann_n(m, x).value,
                          derivative("J", m, x).value, derivative("N", m, x).value]
                         for m, x in W.specfun_pool()],
        "verify": {module: [r.check for r in run_checks(module)] for module in MODULES},
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
