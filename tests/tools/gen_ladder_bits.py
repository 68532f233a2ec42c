#!/usr/bin/env python3
"""Regenerate tests/data/ladder_bits.json: the exact bits of specfun's ladder.

The file pins ``specfun._ladder(m, x, True)`` as ``float.hex`` strings at a
few thousand seeded points, so a rewrite of the ladder's kernels that is
meant to keep every float operation and its order can be checked for
exactly that. ``_ladder(m, x, False)`` is held to the first two values of
the same record: J carries the same bits with or without N.

The points cover every regime and every seam the ladder switches on:

* log-uniform bulk draws over 1e-300 <= x <= 1e4 and 1e-3 <= x <= 1e4,
  and uniform draws over x < 1 (limit series for N), 1 <= x < 18 (series
  or backward run, N from the backward run) and 18 <= x < 57 (backward
  run for J, expansion and climb for N);
* x = 1, 4, 18 and 57, each with both neighbouring doubles;
* the expansion's edge 4 (m+1)^2 = 6 x, the climb's edge m+1 = 0.9 x and
  the series' edge x^2 / 4 = (m+1) / 2, each with both neighbours;
* x = 0, and every order at m = 0 and m = 50 over a log grid.

The file records the ladder as it stands; regenerate it only where a
change is meant to move the ladder's bits, and log that change.

Run from the repository root:  PYTHONPATH=src python tests/tools/gen_ladder_bits.py
"""

import json
import math
import pathlib
import random

from coaxmode import specfun

OUT = pathlib.Path(__file__).resolve().parents[1] / "data" / "ladder_bits.json"

SEED = 20261020
ORDER_MAX = specfun.ORDER_MAX


def _around(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def points() -> list[tuple[int, float]]:
    rng = random.Random(SEED)
    pts: list[tuple[int, float]] = []
    m_any = lambda: rng.randint(0, ORDER_MAX)  # noqa: E731
    pts += [(m_any(), 10 ** rng.uniform(-300.0, 4.0)) for _ in range(50)]
    pts += [(m_any(), 10 ** rng.uniform(-3.0, 4.0)) for _ in range(400)]
    pts += [(m_any(), rng.uniform(0.0, 1.0)) for _ in range(150)]
    pts += [(m_any(), rng.uniform(1.0, 18.0)) for _ in range(300)]
    pts += [(m_any(), rng.uniform(18.0, 57.0)) for _ in range(200)]
    seam_orders = (0, 1, 2, 3, 7, 16, 25, 33, 42, 49, 50)
    for edge in (1.0, 4.0, 18.0, 57.0):
        pts += [(m, x) for m in seam_orders for x in _around(edge)]
    for m in range(ORDER_MAX + 1):
        # the expansion's edge, where it lies in the large-argument regime
        asym_edge = 4.0 * (m + 1) * (m + 1) / 6.0
        if asym_edge >= 18.0:
            pts += [(m, x) for x in _around(asym_edge)]
        # the climb's edge m+1 = 0.9 x
        climb_edge = (m + 1) / 0.9
        if climb_edge >= 18.0:
            pts += [(m, x) for x in _around(climb_edge)]
        # the series' edge 0.25 x^2 = 0.5 (m+1), past x = 4
        series_edge = math.sqrt(2.0 * (m + 1))
        if series_edge > 4.0:
            pts += [(m, x) for x in _around(series_edge)]
    for m in (0, ORDER_MAX):
        pts += [(m, 10 ** (e / 8.0)) for e in range(-24 * 8, 4 * 8 + 1, 3)]
    pts += [(m, 0.0) for m in (0, 1, 2, 25, ORDER_MAX)]
    return pts


def record(m: int, x: float) -> str:
    values = specfun._ladder(m, x, True)
    assert specfun._ladder(m, x, False) == values[:2], (m, x)
    return " ".join([str(m), x.hex()] + [v.hex() for v in values])


def main() -> None:
    rows = [record(m, x) for m, x in points()]
    doc = {
        "about": "specfun._ladder(m, x, True) as 'm x v...' with float.hex fields; "
                 "written by tests/tools/gen_ladder_bits.py",
        "seed": SEED,
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print(f"{len(rows)} rows, {OUT.stat().st_size} bytes -> {OUT}")


if __name__ == "__main__":
    main()
