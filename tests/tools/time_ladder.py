#!/usr/bin/env python3
"""Time specfun._ladder per regime, in process, past the ladder memo.

Each regime gets 2,000 seeded points (m, x) drawn where ``_ladder`` takes
that branch. One repetition calls every point once, J only and with N
timed apart, in chunks of 100 points; the table gives microseconds per
call, from each chunk's fastest repetition. Given the ``src`` directory of
another checkout, its package is loaded beside this one and the two take
turns chunk by chunk, so a host whose speed drifts slows both alike.

A second table splits ``_miller``'s time into a fixed cost per call and a
cost per step: 120 seeded backward-regime points, each timed alone (the
fastest of at least three repetitions, J only and with N apart), fitted by
least squares against the number of steps the run walks through ``_STEPS``.
The intercept is the set-up around the loops, the slope one step.

Run from the repository root:
    PYTHONPATH=src python tests/tools/time_ladder.py [--reps N] [OTHER_SRC]
"""

import argparse
import importlib.util
import pathlib
import random
import statistics
import sys
import time

from coaxmode import specfun

SEED = 20261021
POINTS = 2_000
CHUNK = 100           # points one ladder runs before the other takes its turn
FIT_POINTS = 120
FIT_CALLS = 20        # calls per timing of one point
FIT_REPS_MIN = 3      # one timing per point lets a single preemption tilt the fit


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
    return module.specfun


def _seconds(ladder, points, with_n: bool) -> float:
    t0 = time.perf_counter()
    for m, x in points:
        ladder(m, x, with_n)
    return time.perf_counter() - t0


def _best_seconds(ladders, points, with_n: bool, reps: int) -> list[float]:
    """Per ladder, the sum over chunks of points of its fastest time on each chunk.

    The ladders take turns chunk by chunk, the first one alternating, so a
    change in the host's speed reaches them alike.
    """
    chunks = [points[i:i + CHUNK] for i in range(0, len(points), CHUNK)]
    best = [[float("inf")] * len(chunks) for _ in ladders]
    for _ in range(reps):
        for c, chunk in enumerate(chunks):
            turns = list(zip(ladders, best))
            for ladder, times in turns[c % 2:] + turns[:c % 2]:
                times[c] = min(times[c], _seconds(ladder, chunk, with_n))
    return [sum(times) for times in best]


def _fit_points() -> list[tuple[int, float]]:
    # backward-regime points where both runs apply: 1 <= x < 18, series unsafe
    rng = random.Random(SEED + 1)
    points = []
    while len(points) < FIT_POINTS:
        m, x = rng.randint(0, 50), rng.uniform(1.0, 18.0)
        if not specfun._series_is_safe(m, x):
            points.append((m, x))
    return points


def _steps(m: int, x: float) -> int:
    # the _STEPS rows the run walks: its start down to order 4, two orders a row
    return (specfun._miller_start(m, x) - 2) // 2


def miller_fit(modules, reps: int) -> list[list[float]]:
    """(intercept ns, ns per step), J only then with N, for each module's _miller."""
    points = _fit_points()
    steps = [_steps(m, x) for m, x in points]
    fits = [[] for _ in modules]
    for with_n in (False, True):
        best = [[float("inf")] * len(points) for _ in modules]
        for _ in range(max(reps, FIT_REPS_MIN)):
            for module, times in zip(modules, best):
                for i, (m, x) in enumerate(points):
                    times[i] = min(times[i], _seconds(module._miller, [(m, x)] * FIT_CALLS,
                                                      with_n))
        for fit, times in zip(fits, best):
            slope, intercept = statistics.linear_regression(
                steps, [1e9 * t / FIT_CALLS for t in times])
            fit += [intercept, slope]
    return fits


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("other_src", nargs="?")
    args = parser.parse_args()
    modules = [specfun] + ([_load(args.other_src)] if args.other_src else [])
    ladders = [module._ladder for module in modules]
    heads = ["this"] + (["other"] if args.other_src else [])
    print(f"{'regime':<24} " + " ".join(f"{h + ' ' + k:>14}" for k in ("J", "with N")
                                        for h in heads))
    for name, points in sorted(draws().items()):
        row = []
        for with_n in (False, True):
            row += [1e6 * b / len(points) for b in _best_seconds(ladders, points, with_n,
                                                                args.reps)]
        print(f"{name:<24} " + " ".join(f"{v:>14.2f}" for v in row))
    print(f"\n{'_miller ns':<24} " + " ".join(f"{h + ' ' + k:>14}" for h in heads
                                            for k in ("J fixed", "J step", "N fixed", "N step")))
    fits = miller_fit(modules, args.reps)
    print(f"{'fixed, per step':<24} " + " ".join(f"{v:>14.1f}" for row in fits for v in row))


if __name__ == "__main__":
    main()
