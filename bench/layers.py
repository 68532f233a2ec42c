"""Per-layer probes: fixed inputs, one fresh process per layer.

    python3 bench/layers.py GROUP      # specfun, roots, cavity, fields, quadrature, cli
    python3 bench/layers.py verify MODULE

Each group prints one JSON object ``{name: [value, unit]}`` as its last line.
Inputs do not depend on the workload seed, so the counts (``specfun.calls``,
``roots.zeros``, ``cavity.modes``, quadrature evaluations, bytes per row)
repeat exactly between runs of the same tree; ``check_counts`` verifies that
across runs. Times of microsecond calls come from timers around batches of
calls (a span per call would cost about as much as the call); the cold
``cavity`` enumeration uses the span tracer to take out the ``roots``
children. ``run_all`` also measures what needs whole processes: CLI
start-up, RSS growth with grid size, and each verify suite.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
import time

import workloads as W
from proc import OUT, PY, Fatal, last_json, read_text

REPS = 5


def _median_s(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _fail(message: str):
    raise SystemExit(f"probe output wrong: {message}")


def probe_specfun() -> dict:
    from coaxmode import bessel_j, derivative, hankel, neumann_n
    out, calls = {}, 0
    for name, fn in (("bessel_j", bessel_j), ("neumann_n", neumann_n)):
        for band in W.BANDS:
            rng = random.Random(f"probe:{band}")
            pairs = [W.draw_band(rng, band) for _ in range(1000)]
            per = _median_s(lambda: [fn(m, x) for m, x in pairs]) / len(pairs)
            calls += REPS * len(pairs)
            out[f"specfun.{name}.{band}.us_per_call"] = (per * 1e6, "us")
    rng = random.Random("probe:derivative")
    dargs = [(("J", "N", "H1", "H2")[i % 4], rng.randint(0, 20), rng.uniform(0.5, 50.0))
             for i in range(1000)]
    per = _median_s(lambda: [derivative(f, m, x) for f, m, x in dargs]) / len(dargs)
    out["specfun.derivative.us_per_call"] = (per * 1e6, "us")
    rng = random.Random("probe:hankel")
    hargs = [(1 + i % 2, rng.randint(0, 20), rng.uniform(0.5, 50.0)) for i in range(1000)]
    per = _median_s(lambda: [hankel(k, m, x) for k, m, x in hargs]) / len(hargs)
    out["specfun.hankel.us_per_call"] = (per * 1e6, "us")
    calls += REPS * (len(dargs) + len(hargs))
    out["specfun.calls"] = (calls, "count")
    return out


def probe_roots(ref: dict) -> dict:
    from coaxmode import bessel_zeros, cross_product_zeros

    def timed(fn):
        t = time.perf_counter()
        tables = fn()
        return time.perf_counter() - t, tables

    orders = range(0, 51, 10)
    t_j, tables = timed(lambda: [bessel_zeros(m, 100) for m in orders])
    for m, table in zip(orders, tables):
        if any(abs(z - r) > 1e-9 * r for z, r in zip(table.zeros, ref["bessel"][str(m)])):
            _fail(f"bessel_zeros({m}, 100)")
    cross = [(r, m) for r in (0.2, 0.5, 0.8) for m in (0, 5, 10)]
    t_x, tables = timed(lambda: [cross_product_zeros(m, r, 1.0, 30) for r, m in cross])
    for (r, m), table in zip(cross, tables):
        if any(abs(z - w) > 1e-9 * w for z, w in zip(table.zeros, ref["cross"][f"{r}:{m}"])):
            _fail(f"cross_product_zeros({m}, {r}, 1, 30)")
    t_t, tables = timed(lambda: [cross_product_zeros(m, W.THIN_RATIO, 1.0, 3) for m in (0, 1)])
    n_j, n_x, n_t = len(orders) * 100, len(cross) * 30, 6
    per_warm = _median_s(lambda: [bessel_zeros(m, 100) for m in orders for _ in range(50)])
    return {
        "roots.bessel_zeros.ms_per_zero": (t_j / n_j * 1e3, "ms"),
        "roots.cross_product_zeros.ms_per_root": (t_x / n_x * 1e3, "ms"),
        "roots.cross_product_zeros.thin.ms_per_root": (t_t / n_t * 1e3, "ms"),
        "roots.zeros": (n_j + n_x + n_t, "count"),
        "roots.warm.us_per_call": (per_warm / (50 * len(orders)) * 1e6, "us"),
    }


def probe_cavity() -> dict:
    from coaxmode import AnnulusGeometry, cavity
    from tracing import Tracer, layer_self_ns
    omega = 20.0 * W.C_LIGHT
    tracer = Tracer()
    tracer.install()
    t = time.perf_counter()
    modes = cavity.enumerate_modes_below(AnnulusGeometry(a=1.0, b=2.0, l=1.0), omega)
    cold_total = time.perf_counter() - t
    tracer.uninstall()
    cold_self = layer_self_ns(tracer.spans)["cavity"] / 1e9
    warm_geometry = AnnulusGeometry(a=1.0, b=2.0, l=1.5)   # same radial tables, new l
    t = time.perf_counter()
    cavity.enumerate_modes_below(warm_geometry, omega)
    tables_warm = time.perf_counter() - t
    hist = _median_s(lambda: cavity.mode_count_histogram(warm_geometry, omega, 64))
    geometry = AnnulusGeometry(a=1.0, b=2.0, l=1.0)
    indices = [e.index for e in modes]
    per = _median_s(lambda: [cavity.tm_frequency(geometry, i) for i in indices]) / len(indices)
    return {
        "cavity.enumerate.cold_ms": (cold_self * 1e3, "ms"),
        "cavity.enumerate.cold_total_ms": (cold_total * 1e3, "ms"),
        "cavity.enumerate.tables_warm_ms": (tables_warm * 1e3, "ms"),
        "cavity.mode_count_histogram.ms": (hist * 1e3, "ms"),
        "cavity.modes": (len(modes), "count"),
        "cavity.tm_frequency.warm_us_per_call": (per * 1e6, "us"),
    }


def probe_fields() -> dict:
    from coaxmode import (AnnulusGeometry, CylinderGeometry, FieldPoint, ModeAmplitude,
                          ModeIndex, boundary_residual, ez_mode, helmholtz_residual,
                          superpose, transverse_fields)
    geometries = {"cyl": CylinderGeometry(b=1.0, l=1.0),
                  "ann": AnnulusGeometry(a=0.5, b=1.0, l=1.0)}
    out = {}
    index = ModeIndex(3, 2, 1)
    for key, geometry in geometries.items():
        lo = getattr(geometry, "a", 0.0)
        times = []
        for rep in range(3):
            # a CLI-shaped 16^3 grid; new rho values per repetition, as in a cold job
            rhos = [lo + (1.0 - lo) * (i + 0.25 * rep) / 16 for i in range(16)]
            points = [FieldPoint(r, 6.0 * j / 15, k / 15) for r in rhos for j in range(16)
                      for k in range(16)]
            t = time.perf_counter()
            for p in points:
                transverse_fields(geometry, index, 1, 1.0, p)
            times.append((time.perf_counter() - t) / len(points))
        out[f"fields.transverse_fields.{key}.us_per_sample"] = (statistics.median(times) * 1e6,
                                                                "us")
    rng = random.Random("probe:fields")

    def point(geometry):
        lo = getattr(geometry, "a", 0.0)
        return FieldPoint(rng.uniform(lo, 1.0), rng.uniform(0.0, 6.28), rng.uniform(0.0, 1.0))

    def mode():
        return ModeIndex(rng.randint(0, 6), rng.randint(1, 3), rng.randint(0, 3))

    geos = list(geometries.values())
    ez_args = [(geos[i % 2], mode(), point(geos[i % 2])) for i in range(2000)]
    per = _median_s(lambda: [ez_mode(g, m, 1, 1.0, p) for g, m, p in ez_args]) / len(ez_args)
    out["fields.ez_mode.us_per_call"] = (per * 1e6, "us")
    sup_args = [(geos[i % 2], [ModeAmplitude(mode(), 1, 1.0) for _ in range(4)],
                 point(geos[i % 2])) for i in range(300)]
    per = _median_s(lambda: [superpose(g, t, p) for g, t, p in sup_args]) / (4 * len(sup_args))
    out["fields.superpose.us_per_mode"] = (per * 1e6, "us")
    probes = [(geos[0], ModeIndex(0, 1, 0)), (geos[0], ModeIndex(1, 1, 1)),
              (geos[1], ModeIndex(0, 1, 1)), (geos[1], ModeIndex(2, 2, 1))]
    worst = max(boundary_residual(g, i) for g, i in probes)
    if worst > 1e-9:
        _fail(f"boundary residual {worst:.2e}")
    per = _median_s(lambda: [boundary_residual(g, i) for g, i in probes], 3) / len(probes)
    out["fields.boundary_residual.ms_per_call"] = (per * 1e3, "ms")
    per = _median_s(lambda: [helmholtz_residual(g, i, npoints=30) for g, i in probes[1:3]],
                    3) / 2
    out["fields.helmholtz_residual.ms_per_call"] = (per * 1e3, "ms")
    return out


def probe_quadrature() -> dict:
    from coaxmode import bessel_zeros, integrate_adaptive, orthogonality_check
    for nu in range(3):
        bessel_zeros(nu, 3)
    triples = [(nu, n, k) for nu in range(3) for n in range(1, 4) for k in range(1, 4)]
    for nu, n, k in triples:
        value, expected = orthogonality_check(nu, n, k, 1.0)
        if abs(value - expected) > 1e-8:
            _fail(f"orthogonality ({nu}, {n}, {k})")
    per = _median_s(lambda: [orthogonality_check(*t, 1.0) for t in triples], 3) / len(triples)
    integrands = [  # (f, lo, hi, exact integral)
        (lambda x: math.exp(-x * x), -5.0, 5.0, math.sqrt(math.pi) * math.erf(5.0)),
        (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0)),
        (lambda x: math.cos(30.0 * x), 0.0, math.pi, 0.0),
        (lambda x: x * math.log(x) if x > 0.0 else 0.0, 0.0, 1.0, -0.25),
    ]
    evals = 0
    for f, lo, hi, exact in integrands:
        res = integrate_adaptive(f, lo, hi, abs_tol=1e-10)
        if abs(res.value - exact) > 1e-8:
            _fail(f"integral over [{lo}, {hi}] = {res.value!r}, exact {exact!r}")
        evals += res.evaluations
    t = _median_s(lambda: [integrate_adaptive(f, lo, hi, abs_tol=1e-10)
                           for f, lo, hi, _ in integrands])
    return {
        "quadrature.orthogonality_check.ms_per_call": (per * 1e3, "ms"),
        "quadrature.integrate_adaptive.us_per_eval": (t / evals * 1e6, "us"),
        "quadrature.integrate_adaptive.evals_per_call": (evals / len(integrands), "count"),
    }


CLI_GRID = ["field", "--cavity", "cylinder", "--b", "1.0", "--l", "1.0", "--mode", "3,2,1",
            "--sign", "+", "--rho", "0.0:1.0:16", "--phi", "0.0:6.0:16"]


def probe_cli(out_dir: str) -> dict:
    """Serialization cost, derived: in-process cli.main minus the library time
    for the same samples."""
    from coaxmode import CylinderGeometry, FieldPoint, ModeIndex, cli, transverse_fields
    n_z = 32
    rows = 16 * 16 * n_z
    geometry, index = CylinderGeometry(b=1.0, l=1.0), ModeIndex(3, 2, 1)
    points = [FieldPoint(i / 15, 6.0 * j / 15, k / (n_z - 1)) for i in range(16)
              for j in range(16) for k in range(n_z)]
    library = _median_s(lambda: [transverse_fields(geometry, index, 1, 1.0, p) for p in points], 4)
    out = {}
    path = os.path.join(out_dir, "probe-field.out")
    for fmt in ("csv", "json"):
        argv = CLI_GRID + ["--z", f"0.0:1.0:{n_z}", "--format", fmt, "--out", path]
        if cli.main(argv) != 0:
            _fail(f"cli field --format {fmt}")
        t = _median_s(lambda: cli.main(argv), 3)
        out[f"cli.field.{fmt}.us_per_row"] = ((t - library) / rows * 1e6, "us")
        out[f"cli.bytes_per_row.{fmt}"] = (os.path.getsize(path) / rows, "B")
    return out


def probe_verify(module: str) -> dict:
    from coaxmode.verify import run_checks
    t = time.perf_counter()
    results = run_checks(module)
    elapsed = time.perf_counter() - t
    if not all(r.passed for r in results):
        _fail(f"verify {module}")
    return {f"verify.run_checks.{module}.s": (elapsed, "s")}


# ---------------------------------------------------------------------------
# run.py side
# ---------------------------------------------------------------------------

GROUPS = ("specfun", "roots", "cavity", "fields", "quadrature", "cli")


def run_all(ctx) -> dict:
    """Every per-layer metric as {name: (value, unit)}; raises Fatal on a wrong probe."""
    here = os.path.abspath(__file__)
    out = {}
    path = os.path.join(ctx.out_dir, "probe.out")

    def child(*args):
        res = ctx.launcher.run([PY, here, *args], path, ctx.timeout(120.0))
        if res["rc"] != 0 or res["timed_out"]:
            raise Fatal(f"probe {' '.join(args)} failed: {read_text(path + '.err')[-400:]}")
        return {k: tuple(v) for k, v in last_json(path).items()}

    for group in GROUPS:
        out.update(child(group, ctx.out_dir))
    for module in ("specfun", "roots", "cavity", "fields"):
        out.update(child("verify", module))

    def spawn_ms(argv):
        return statistics.median(ctx.launcher.run(argv, path, ctx.timeout(60.0))["wall"]
                                 for _ in range(7)) * 1e3

    startup = spawn_ms([PY, "-m", "coaxmode", "--version"]) - spawn_ms([PY, "-c", "pass"])
    out["cli.startup_ms"] = (startup, "ms")
    n_zs = (16, 128)  # 4096 and 32768 rows of the 16 x 16 x n_z grid
    for fmt in ("csv", "json"):
        rss = []
        for n_z in n_zs:
            argv = [PY, "-m", "coaxmode", *CLI_GRID, "--z", f"0.0:1.0:{n_z}", "--format", fmt]
            res = ctx.launcher.run(argv, path, ctx.timeout(120.0))
            if res["rc"] != 0 or res["timed_out"]:
                raise Fatal(f"field probe --format {fmt} failed")
            rss.append(res["maxrss_kb"] / 1024.0)
        per_10k = (rss[1] - rss[0]) / (256 * (n_zs[1] - n_zs[0]) / 1e4)
        out[f"cli.field.rss_mb_per_10k_rows.{fmt}"] = (per_10k, "MB")
    calls = W.SessionCalls(ctx.seed, ctx.ref.data)
    field_calls = [c for b in range(20) for c in calls.block(b) if c[0] in W.FIELD_CALLS]
    out["fields.repeat_point_share"] = (sum(c[2] for c in field_calls) / len(field_calls), "ratio")
    return dict(sorted(out.items()))


# differences of two measurements rather than one timed operation
DERIVED = ("cli.startup_ms", "cli.field.csv.us_per_row", "cli.field.json.us_per_row",
           "cli.field.rss_mb_per_10k_rows.csv", "cli.field.rss_mb_per_10k_rows.json")

COUNTS = ("specfun.calls", "roots.zeros", "cavity.modes",
          "quadrature.integrate_adaptive.evals_per_call", "cli.bytes_per_row.csv",
          "cli.bytes_per_row.json", "fields.repeat_point_share")


def check_counts(tree_hash: str, per_layer: dict) -> int:
    """Compare the count metrics with earlier runs of the same tree; 1 on a mismatch."""
    path = os.path.join(OUT, "counts.json")
    seen = json.loads(read_text(path)) if os.path.exists(path) else {}
    now = {name: per_layer[name][0] for name in COUNTS}
    before = seen.setdefault(tree_hash, now)
    bad = [name for name in COUNTS if before.get(name) != now[name]]
    for name in bad:
        print(f"FAIL count {name} = {now[name]!r}, an earlier run of this tree gave "
              f"{before.get(name)!r}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(seen, handle, indent=1)
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    group = argv[0]
    if group == "verify":
        result = probe_verify(argv[1])
    elif group == "roots":
        import check
        result = probe_roots(check.Reference().data)
    elif group == "cli":
        result = probe_cli(argv[1])
    else:
        result = {"specfun": probe_specfun, "cavity": probe_cavity, "fields": probe_fields,
                  "quadrature": probe_quadrature}[group]()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
