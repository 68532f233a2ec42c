#!/usr/bin/env python3
"""Time specfun._ladder per regime, in process, past the ladder memo.

Each regime gets 2,000 seeded points (m, x) drawn where ``_ladder`` takes
that branch. One repetition calls every point once, J only and with N
timed apart; the table gives the fastest repetition in microseconds per
call. Given the ``src`` directory of another checkout, its package is
loaded beside this one and the two are timed in alternation, repetition
by repetition, so a busy host slows both alike.

Run from the repository root:
    PYTHONPATH=src python tests/tools/time_ladder.py [--reps N] [OTHER_SRC]
"""

import argparse
import importlib.util
import pathlib
import random
import sys
import time

from coaxmode import specfun

SEED = 20261021
POINTS = 2_000


def _regime(m: int, x: float) -> str:
    # the predicates _ladder tests, in its order
    if x >= 18.0:
        if 4.0 * (m + 1) * (m + 1) <= 6.0 * x:
            return "expansion"
        return "climb" if m + 1 < 0.9 * x else "backward, x >= 18"
    if x >= 1.0:
        return "series, 1 <= x < 18" if specfun._series_is_safe(m, x) else "backward, 1 <= x < 18"
    return "x < 1"


def draws() -> dict[str, list[tuple[int, float]]]:
    rng = random.Random(SEED)
    found: dict[str, list[tuple[int, float]]] = {}
    spans = ((0.0, 1.0), (1.0, 18.0), (18.0, 57.0), (18.0, 1e4))
    while len(found) < 6 or min(map(len, found.values())) < POINTS:
        lo, hi = rng.choice(spans)
        m, x = rng.randint(0, 50), rng.uniform(lo, hi)
        points = found.setdefault(_regime(m, x), [])
        if len(points) < POINTS and x > 0.0:
            points.append((m, x))
    return found


def _load(src: str):
    # the other checkout's package under its own name; its modules import
    # each other relatively, so they stay apart from this one's
    init = pathlib.Path(src) / "coaxmode" / "__init__.py"
    spec = importlib.util.spec_from_file_location("other_coaxmode", init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.specfun._ladder


def _seconds(ladder, points, with_n: bool) -> float:
    t0 = time.perf_counter()
    for m, x in points:
        ladder(m, x, with_n)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("other_src", nargs="?")
    args = parser.parse_args()
    ladders = [specfun._ladder] + ([_load(args.other_src)] if args.other_src else [])
    heads = ["this"] + (["other"] if args.other_src else [])
    print(f"{'regime':<24} " + " ".join(f"{h + ' ' + k:>14}" for k in ("J", "with N")
                                        for h in heads))
    for name, points in sorted(draws().items()):
        row = []
        for with_n in (False, True):
            best = [float("inf")] * len(ladders)
            for _ in range(args.reps):
                for i, ladder in enumerate(ladders):
                    best[i] = min(best[i], _seconds(ladder, points, with_n))
            row += [1e6 * b / len(points) for b in best]
        print(f"{name:<24} " + " ".join(f"{v:>14.2f}" for v in row))


if __name__ == "__main__":
    main()
