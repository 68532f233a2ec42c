"""The coaxmode benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see README.md in this directory):

* ``spectrum-cli``    cold ``python -m coaxmode`` zeros / modes / verify jobs
* ``field-grid-cli``  cold ``python -m coaxmode field`` grids, 4k to 64k rows
* ``library-session`` one warm process calling the public API
* ``all``             the three above in turn

Every job runs with this checkout's ``src/`` first on ``PYTHONPATH``; the run
stops unless ``coaxmode`` resolves inside it. Jobs run one at a time (a
closed loop with one client) in whole rounds until ``--seconds`` of job time
have passed, and every output is checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
untraced for half the time and traced for the other half (spans around each
public layer function, self time per layer, tracing overhead), then the
per-layer probes of ``layers.py``, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Generated jobs, call streams,
spans and results go to ``.bench_out/<workload>-trace<k>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from dataclasses import dataclass

from proc import (BENCH, OUT, PY, REF_SPAWN_S, ROOT, SRC, Fatal, Launcher, SpeedLog,
                  calibrate_ms, last_json, percentile, read_text)

WORKLOADS = ("spectrum-cli", "field-grid-cli", "library-session")

END_TO_END = (("setup_s", "s"), ("rows_per_s", "1/s"), ("calls_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_FIRST = 3           # --version spawns before the first CLI job
SETUP_EVERY = 3           # ... and one more after every third job
SESSION_SETUPS = 2        # set-up-only sessions before and again after the session
SPEED_HALF = 8            # reference spawns on each side of a job that set its speed
JOB_TIMEOUT_S = 30.0      # a job that takes longer is killed and counts as failed
RUN_LIMIT_S = 150.0       # no process may start or run past this point of a run


def calibrate() -> float:
    """Host speed context: median ms of the in-process calibration loop."""
    return statistics.median(calibrate_ms() for _ in range(15))


@dataclass
class Context:
    workload: str
    seed: int
    out_dir: str
    launcher: Launcher
    start: float
    ref: object = None

    def timeout(self, limit: float) -> float:
        """`limit`, cut to what is left of the run's RUN_LIMIT_S (<= 0 when spent)."""
        return min(limit, RUN_LIMIT_S - (time.perf_counter() - self.start))


# ---------------------------------------------------------------------------
# the tree under test
# ---------------------------------------------------------------------------

def tree_info(ctx: Context) -> dict:
    probe = os.path.join(ctx.out_dir, "preflight.out")
    res = ctx.launcher.run([PY, "-c", "import coaxmode; print(coaxmode.__file__)"], probe, 60.0)
    found = read_text(probe).strip()
    if res["rc"] != 0 or not found:
        raise Fatal(f"coaxmode does not import from {SRC}: {read_text(probe + '.err')[-300:]}")
    src = os.path.realpath(SRC)
    if os.path.commonpath([os.path.realpath(found), src]) != src:
        raise Fatal(f"coaxmode resolves to {found}, outside the tree under test {SRC}")
    digest = hashlib.sha256()
    package = os.path.dirname(found)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"coaxmode_file": found, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def cli_setup(ctx: Context, count: int, speed: SpeedLog) -> list[tuple[float, int]]:
    """(wall time, reference position) of `count` spawns of `python -m coaxmode --version`.

    These spawns take the speed of the jobs' reference spawns around them."""
    spawns = []
    path = os.path.join(ctx.out_dir, "version.out")
    for _ in range(count):
        res = ctx.launcher.run([PY, "-m", "coaxmode", "--version"], path, JOB_TIMEOUT_S)
        if res["rc"] != 0 or not read_text(path).startswith("coaxmode "):
            raise Fatal("`python -m coaxmode --version` failed")
        spawns.append((res["wall"], speed.add(None)))
    return spawns


def run_cli(ctx: Context, seconds: float,
            traced: bool) -> tuple[list[dict], list[float], SpeedLog]:
    """Whole rounds of jobs until `seconds` of job time have passed.

    Set-up spawns are spread over the run (a few first, then one after every
    SETUP_EVERY jobs), so their median covers the same host conditions as the
    jobs. The reference process runs before every job, and each wall time
    is also taken to the reference speed (`norm_s`). Returns (job records,
    set-up times at the reference speed, reference log).
    """
    import check
    import workloads as W
    gen = W.SpectrumJobs(ctx.seed) if ctx.workload == "spectrum-cli" else W.FieldJobs(ctx.seed)
    stdout_path = os.path.join(ctx.out_dir, "job.out")
    records, busy, number = [], 0.0, 0
    speed = SpeedLog(SPEED_HALF, REF_SPAWN_S)
    setup = cli_setup(ctx, SETUP_FIRST, speed)
    tag = "traced" if traced else "untraced"
    with open(os.path.join(ctx.out_dir, f"jobs-{tag}.jsonl"), "w", encoding="utf-8") as log:
        log.write(json.dumps({"workload": ctx.workload, "seed": ctx.seed}) + "\n")
        while busy < seconds:
            for job in gen.round(number):
                budget = ctx.timeout(JOB_TIMEOUT_S)
                if traced:
                    spans_path = os.path.join(ctx.out_dir, "spans", f"job-{job['id']}.json")
                    argv = [PY, os.path.join(BENCH, "tracing.py"), spans_path, str(job["id"]),
                            "--", *job["args"]]
                else:
                    argv = [PY, "-m", "coaxmode", *job["args"]]
                if budget <= 0:
                    res = {"wall": 0.0, "rc": None, "maxrss_kb": 0, "timed_out": True}
                else:
                    res = ctx.launcher.run(argv, stdout_path, budget, reference=True)
                rows, message, checked = 0, "", time.perf_counter()
                if res["timed_out"]:
                    message = "timed out"
                else:
                    try:
                        rows = check.check_job(job, res["rc"], read_text(stdout_path), ctx.ref)
                    except (check.CheckError, ValueError, KeyError) as exc:
                        message = f"{type(exc).__name__}: {exc}"
                record = {"id": job["id"], "round": number, "kind": job["kind"],
                          "args": job["args"], "wall_s": res["wall"], "rc": res["rc"],
                          "rows": rows, "maxrss_kb": res["maxrss_kb"], "ok": not message,
                          "message": message, "check_s": time.perf_counter() - checked,
                          "ref_s": res.get("ref_s"), "ref_pos": speed.add(res.get("ref_s"))}
                log.write(json.dumps(record) + "\n")
                records.append(record)
                busy += res["wall"]
                if len(records) % SETUP_EVERY == 0:
                    setup += cli_setup(ctx, 1, speed)
            number += 1
    for r in records:
        r["norm_s"] = r["wall_s"] * speed.factor(r["ref_pos"])
    return records, [wall * speed.factor(pos) for wall, pos in setup], speed


def cli_metrics(records: list[dict], setup_walls: list[float]) -> dict:
    walls = [r["norm_s"] for r in records]
    busy = sum(walls)
    return {
        "setup_s": statistics.median(setup_walls),
        "rows_per_s": sum(r["rows"] for r in records) / busy,
        "calls_per_s": len(records) / busy,
        "latency_p50_ms": percentile(walls, 0.5) * 1e3,
        "latency_p90_ms": percentile(walls, 0.9) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }


def cli_self_ns(ctx: Context, records: list[dict]) -> dict[str, int]:
    """Merge the per-job span files into spans.jsonl; total self time per layer."""
    from tracing import layer_self_ns
    total: dict[str, int] = {}
    with open(os.path.join(ctx.out_dir, "spans.jsonl"), "w", encoding="utf-8") as merged:
        for r in records:
            path = os.path.join(ctx.out_dir, "spans", f"job-{r['id']}.json")
            if not os.path.exists(path):
                continue
            spans = json.loads(read_text(path))
            os.remove(path)
            merged.write(json.dumps({"job": r["id"], "spans": spans}, separators=(",", ":"))
                         + "\n")
            for layer, ns in layer_self_ns(spans).items():
                total[layer] = total.get(layer, 0) + ns
    return total


# ---------------------------------------------------------------------------
# library session
# ---------------------------------------------------------------------------

def session_setups(ctx: Context, script: str) -> list[float]:
    """Set-up times of SESSION_SETUPS set-up-only sessions, at the reference speed."""
    path = os.path.join(ctx.out_dir, "setup.out")
    setups = []
    for _ in range(SESSION_SETUPS):
        res = ctx.launcher.run([PY, script, "--seed", str(ctx.seed), "--out", ctx.out_dir,
                                "--setup-only"], path, ctx.timeout(JOB_TIMEOUT_S))
        if res["rc"] != 0:
            raise Fatal(f"session set-up failed: {read_text(path + '.err')[-300:]}")
        setups.append(last_json(path)["setup_norm_s"])
    return setups


def run_session(ctx: Context, seconds: float, traced: bool) -> dict:
    script = os.path.join(BENCH, "session.py")
    seed = str(ctx.seed)
    setups = session_setups(ctx, script)
    path = os.path.join(ctx.out_dir, "session.out")
    res = ctx.launcher.run([PY, script, "--seed", seed, "--seconds", str(seconds),
                            "--trace", str(int(traced)), "--out", ctx.out_dir],
                           path, ctx.timeout(seconds + 4 * JOB_TIMEOUT_S))
    summary = last_json(path) if res["rc"] == 0 and not res["timed_out"] else {}
    if not summary:
        raise Fatal(f"session failed (exit {res['rc']}): {read_text(path + '.err')[-500:]}")
    summary["setups"] = setups + [summary["setup_norm_s"]] + session_setups(ctx, script)
    summary["end_maxrss_kb"] = res["maxrss_kb"]
    return summary


def session_metrics(s: dict) -> dict:
    return {
        "setup_s": statistics.median(s["setups"]),
        "rows_per_s": s["rows"] / s["busy_s"],
        "calls_per_s": s["calls"] / s["busy_s"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_p90_ms": s["latency_p90_ms"],
        "peak_rss_mb": s["rss_kb"] / 1024.0,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def measure(ctx: Context, seconds: float, traced: bool = False) -> tuple[dict, int, int, dict]:
    """(end-to-end metrics, attempted, failed, self time per layer if traced) of one pass."""
    if ctx.workload == "library-session":
        s = run_session(ctx, seconds, traced)
        for message in s["messages"]:
            print(f"FAIL {message}")
        print(f"# {ctx.workload}: {s['calls']} calls in {s['blocks']} blocks; "
              f"latency p99 {s['latency_p99_ms']:.4g} ms; RSS {s['rss_kb'] / 1024:.1f} MB "
              f"after {s['rss_blocks']} blocks, {s['end_maxrss_kb'] / 1024:.1f} MB at the end")
        print(f"# {ctx.workload}: calibration loop median {s['cal_ms']:.3f} ms; as measured, "
              f"latency p50 {s['raw_latency_p50_ms']:.4g} ms, p90 {s['raw_latency_p90_ms']:.4g} ms, "
              f"{s['calls'] / s['raw_busy_s']:.6g} calls/s")
        return session_metrics(s), s["calls"], s["failed"], s.get("self_ns", {})
    records, setup, speed = run_cli(ctx, seconds, traced)
    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"FAIL job {r['id']} ({' '.join(r['args'])}): {r['message']}")
    rounds = records[-1]["round"] + 1
    print(f"# {ctx.workload}: {len(records)} jobs in {rounds} rounds")
    raw = [r["wall_s"] for r in records]
    print(f"# {ctx.workload}: reference spawn median {speed.median() * 1e3:.2f} ms; as measured, "
          f"latency p50 {percentile(raw, 0.5) * 1e3:.4g} ms, p90 {percentile(raw, 0.9) * 1e3:.4g} ms, "
          f"{sum(r['rows'] for r in records) / sum(raw):.6g} rows/s")
    self_ns = cli_self_ns(ctx, records) if traced else {}
    return cli_metrics(records, setup), len(records), len(failed), self_ns


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher) -> dict:
    import check
    out_dir = os.path.join(OUT, f"{workload}-trace{int(trace)}")
    os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
    ctx = Context(workload, seed, out_dir, launcher, time.perf_counter())
    info = tree_info(ctx)
    ctx.ref = check.Reference()
    calib_before = calibrate()
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for key, value in info.items():
        print(f"# {key}: {value}")

    if not trace:
        metrics, attempted, failed, _ = measure(ctx, seconds)
        calib_after = calibrate()
        for name, unit in END_TO_END:
            print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
        print(f"{workload} fail_ratio = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
        units = dict(END_TO_END)
        result = {"metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    else:
        import layers
        plain, att1, fail1, _ = measure(ctx, seconds / 2.0)
        traced, att2, fail2, self_ns = measure(ctx, seconds / 2.0, traced=True)
        attempted, failed = att1 + att2, fail1 + fail2
        per_layer = layers.run_all(ctx)
        calib_after = calibrate()
        total = sum(self_ns.values()) or 1
        for layer, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
            print(f"{workload} self_time {layer} = {ns / 1e6:.3f} ms ({100.0 * ns / total:.1f}%)")
        overhead = {name: traced[name] - plain[name] for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{workload} tracing_overhead {name} = {overhead[name]:+.6g} {unit} "
                  f"(traced {traced[name]:.6g}, untraced {plain[name]:.6g})")
        for name, (value, unit) in per_layer.items():
            label = " (derived)" if name in layers.DERIVED else ""
            print(f"{workload} {name} = {value:.6g} {unit}{label}")
        with open(os.path.join(out_dir, "trace_report.json"), "w", encoding="utf-8") as handle:
            json.dump({"self_ns": self_ns, "untraced": plain, "traced": traced,
                       "overhead": overhead, "per_layer": per_layer}, handle, indent=1)
        failed += layers.check_counts(info["src_sha256"], per_layer)
        result = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}}
    print(f"# host calibration loop: {calib_before:.2f} ms before, {calib_after:.2f} ms after"
          " (context only, not a metric)")

    result.update(correct=failed == 0, attempted=attempted, failed=failed)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "tree": info, "calibration_ms": [calib_before, calib_after], **result},
                  handle, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with Launcher() as launcher:
            results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          launcher)
                       for name in names}
    except Fatal as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
