"""The library-session worker: one long-lived process calling the public API.

    python3 bench/session.py --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Set-up is the import of coaxmode plus a warm-up (``warm_up``) that builds the
tables and fills the caches the call stream reads. The timed part then runs
whole blocks of the seeded call stream (see ``workloads.SESSION_BLOCK``) until
``--seconds`` of wall time have passed, timing each call on its own. The
calibration loop (``proc.calibrate_ms``) runs around the set-up and between
blocks, and every time is also taken to the reference speed it gives (see
"Host speed" in README.md). Arguments are built before the clock starts, and
each block is checked against the reference after its last call. Peak RSS is
read after the first RSS_BLOCKS blocks. The last line of stdout is a JSON summary; the call stream
goes to ``DIR/calls.jsonl.gz`` and, when traced, the spans to
``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import time

from proc import REF_CAL_MS, SpeedLog, calibrate_ms, percentile

# the calibration loop runs just before and just after the set-up, so the
# set-up time can be taken to the reference speed as well
SETUP_CALS = [calibrate_ms() for _ in range(5)][2:]
_T0 = time.perf_counter()
import coaxmode  # noqa: E402  (the import is part of the timed set-up)
from coaxmode import (AnnulusGeometry, CylinderGeometry, FieldPoint,  # noqa: E402
                      ModeAmplitude, ModeIndex)

import workloads as W  # noqa: E402

# peak RSS is read after this many blocks, not at the end: the field value
# caches grow with every fresh point, so an end-of-run figure would grow with
# host speed instead of with the work done
RSS_BLOCKS = 400
# the calibration loop runs after every CAL_EVERY blocks, and a block's speed
# factor is the median of the SPEED_HALF samples on each side of it (about a
# second of the run; see "Host speed" in README.md)
CAL_EVERY = 2
SPEED_HALF = 48

GEOMETRIES = {"cylinder": CylinderGeometry(b=1.0, l=1.0),
              "annulus": AnnulusGeometry(a=0.5, b=1.0, l=1.0)}


def warm_up() -> None:
    """Build the tables and fill the caches a long-lived session holds: the
    spectra below the warm cutoffs with every axial index the stream asks for,
    the fixed point set of the pooled calls and the wall grids of
    ``boundary_residual``. Without the last two, the first
    few hundred blocks run up to 3x slower, and the share of a run spent there
    would follow host speed."""
    for name, cut in W.WARM_CUTOFF.items():
        geometry = GEOMETRIES[name]
        modes = coaxmode.enumerate_modes_below(geometry, W.C_LIGHT * cut)
        for m, n in {(e.index.m, e.index.n) for e in modes}:
            for p in range(W.SESSION_P_MAX + 1):
                coaxmode.tm_frequency(geometry, ModeIndex(m, n, p))
        for m in range(W.SESSION_M_MAX + 1):
            for n in range(1, W.SESSION_N_MAX + 1):
                index = ModeIndex(m, n, 1)
                coaxmode.boundary_residual(geometry, index)
                for rho in W.rho_grid(name, W.POOL_RHO_COUNT):
                    coaxmode.transverse_fields(geometry, index, 1, 1.0, FieldPoint(rho, 0.0, 0.5))
    for nu in range(4):
        coaxmode.bessel_zeros(nu, 6)


def prepare(name: str, a: dict) -> tuple:
    """Positional arguments of one call, built before the clock starts."""
    if name in ("bessel_j", "neumann_n"):
        return (a["m"], a["x"])
    if name == "derivative":
        return (a["family"], a["m"], a["x"])
    if name == "hankel":
        return (a["kind"], a["m"], a["x"])
    if name == "tm_frequency":
        return (GEOMETRIES[a["geometry"]], ModeIndex(a["m"], a["n"], a["p"]))
    if name == "enumerate_modes_below":
        return (GEOMETRIES[a["geometry"]], a["omega_max"])
    if name in ("transverse_fields", "ez_mode"):
        return (GEOMETRIES[a["geometry"]], ModeIndex(*a["mode"]), a["sign"],
                complex(*a["amplitude"]), FieldPoint(*a["point"]))
    if name == "superpose":
        terms = [ModeAmplitude(ModeIndex(*mode), sign, complex(*amp))
                 for mode, sign, amp in a["terms"]]
        return (GEOMETRIES[a["geometry"]], terms, FieldPoint(*a["point"]))
    if name == "orthogonality_check":
        return (a["nu"], a["n"], a["k"], a["a"])
    if name == "boundary_residual":
        return (GEOMETRIES[a["geometry"]], ModeIndex(*a["mode"]))
    if name == "helmholtz_residual":
        return (GEOMETRIES[a["geometry"]], ModeIndex(*a["mode"]), a["sign"],
                a["npoints"], a["seed"])
    raise ValueError(name)


def main() -> int:
    warm_up()
    setup_s = time.perf_counter() - _T0
    SETUP_CALS.extend(calibrate_ms() for _ in range(3))
    setup_norm_s = setup_s * REF_CAL_MS / statistics.median(SETUP_CALS)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_norm_s}))
        return 0

    import check
    ref = check.Reference()
    stream = W.SessionCalls(args.seed, ref.data)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(args.out, exist_ok=True)

    # each block is built, timed call by call, then checked and logged; only the
    # latencies are kept, so the harness adds no per-call memory
    clock = time.perf_counter_ns
    latencies: list[int] = []
    block_cal: list[int] = []  # per block, the position of the next calibration sample
    speed = SpeedLog(SPEED_HALF, REF_CAL_MS)
    for _ in range(5):
        calibrate_ms()
    failed = rows = pooled_fields = fields = block = 0
    messages: list[str] = []
    deadline = time.perf_counter() + args.seconds
    with gzip.open(os.path.join(args.out, "calls.jsonl.gz"), "wt", encoding="utf-8") as log:
        log.write(json.dumps({"seed": args.seed}) + "\n")
        while time.perf_counter() < deadline:
            batch = stream.block(block)
            prepared = [(getattr(coaxmode, name), prepare(name, a)) for name, a, _ in batch]
            results, times = [], []
            for i, (fn, pos) in enumerate(prepared):
                if tracer:
                    tracer.call_id = len(latencies) + i
                t = clock()
                result = fn(*pos)
                times.append(clock() - t)
                results.append(result)
            for (name, a, pooled), result, ns in zip(batch, results, times):
                try:
                    check.check_call(name, a, pooled, result, ref)
                except check.CheckError as exc:
                    failed += 1
                    if len(messages) < 5:
                        messages.append(f"{name}: {exc}")
                rows += len(result) if name == "enumerate_modes_below" else 1
                if name in W.FIELD_CALLS:
                    fields += 1
                    pooled_fields += pooled
                log.write(json.dumps([len(latencies), name, a, pooled, ns]) + "\n")
                latencies.append(ns)
            block_cal.append(len(speed.samples))
            block += 1
            if block % CAL_EVERY == 0:
                speed.add(calibrate_ms())
            if block == RSS_BLOCKS:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if block < RSS_BLOCKS:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    speed.add(calibrate_ms())
    # each call is taken to the reference speed around its block
    per_block = len(latencies) // max(block, 1)
    factors = [speed.factor(pos) for pos in block_cal]
    normed = [ns * factors[i // per_block] for i, ns in enumerate(latencies)]

    summary = {
        "setup_s": setup_s,
        "setup_norm_s": setup_norm_s,
        "coaxmode_file": coaxmode.__file__,
        "blocks": block,
        "rss_kb": rss_kb,
        "rss_blocks": min(block, RSS_BLOCKS),
        "calls": len(latencies),
        "failed": failed,
        "messages": messages,
        "rows": rows,
        "busy_s": sum(normed) / 1e9,
        "latency_p50_ms": percentile(normed, 0.5) / 1e6,
        "latency_p90_ms": percentile(normed, 0.9) / 1e6,
        "latency_p99_ms": percentile(normed, 0.99) / 1e6,
        "raw_busy_s": sum(latencies) / 1e9,
        "raw_latency_p50_ms": percentile(latencies, 0.5) / 1e6,
        "raw_latency_p90_ms": percentile(latencies, 0.9) / 1e6,
        "cal_ms": speed.median(),
        "repeat_point_share": pooled_fields / max(fields, 1),
    }
    if tracer:
        from tracing import layer_self_ns
        summary["self_ns"] = layer_self_ns(tracer.spans)
        summary["spans"] = len(tracer.spans)
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
