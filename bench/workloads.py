"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of the seed (and of the round or block
number), so a run can be replayed from its seed alone. Parameters are drawn
inside fixed per-round or per-block compositions: the seed moves the
arguments, never the mix of job or call kinds, which keeps latency
percentiles comparable between seeds.

CLI jobs are dicts ``{"id", "kind", "args", "expect"}``: ``args`` is the
argument list after ``python -m coaxmode`` and ``expect`` says what the
checker compares the output with. Library calls are tuples
``(name, args, pooled)``; ``pooled`` marks arguments drawn from the fixed
reference point set.
"""

from __future__ import annotations

import math
import random

C_LIGHT = 299_792_458.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

CROSS_RATIOS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
THIN_RATIO = 0.99
MODES_RATIO = 0.5

# fixed field geometries; the radial reference is tabulated on these grids
FIELD_GEOMETRIES = {
    "cylinder": {"a": 0.0, "b": 1.0},
    "annulus": {"a": 0.5, "b": 1.0},
}
FIELD_RHO_COUNTS = (16, 32)
FIELD_M_MAX, FIELD_N_MAX, FIELD_P_MAX = 10, 4, 3
# (rows, format) per round: a JSON row costs about 1.35 CSV rows, so each JSON
# grid has 3/4 of its CSV partner's rows and the pair lands in one time cluster.
# Small, middle and large clusters hold 1/4, 1/2 and 1/4 of the jobs, so the
# median is the middle of the middle cluster and the 90th percentile lies well
# inside the large one, never on the gap between two clusters
FIELD_ROUND = ((4096, "csv"), (3072, "json"), (16384, "csv"), (12288, "json"),
               (16384, "csv"), (12288, "json"), (65536, "csv"), (49152, "json"))


def grid(lo: float, hi: float, count: int) -> list[float]:
    """The samples of a CLI grid spec ``LO:HI:COUNT``, as the CLI builds them."""
    return [lo] if count == 1 else [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def rho_grid(geometry: str, count: int) -> list[float]:
    """The rho samples of a field grid over the whole gap of a fixed geometry."""
    return grid(FIELD_GEOMETRIES[geometry]["a"], FIELD_GEOMETRIES[geometry]["b"], count)


def _g(x: float) -> str:
    return repr(float(x))


class _Sequence:
    """Golden-ratio low-discrepancy stream in [0, 1) with a seeded offset.

    Any prefix covers [0, 1) evenly, so a short run sees the same spread of
    sizes and orders as a long one.
    """

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u

    def pick(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next()

    def index(self, n: int) -> int:
        return min(int(self.next() * n), n - 1)


# ---------------------------------------------------------------------------
# spectrum-cli
# ---------------------------------------------------------------------------

# (job kind, how many per round). `verify cavity` is by far the longest job;
# four of the twenty-one put the 90th percentile near the middle of its
# cluster, where it follows the cluster's typical job rather than its fastest
SPECTRUM_ROUND = (
    ("zeros-bessel", 4), ("zeros-cross", 3), ("zeros-thin", 1),
    ("modes-cylinder", 2), ("modes-annulus", 2),
    ("verify-specfun", 1), ("verify-roots", 1), ("verify-cavity", 4),
    ("verify-fields", 1), ("out-of-envelope", 2),
)


class SpectrumJobs:
    def __init__(self, seed: int):
        rng = random.Random(f"spectrum-cli:{seed}")
        self.rng = rng
        self.seq = {kind: _Sequence(rng) for kind, _ in SPECTRUM_ROUND}
        self.counter = 0

    def round(self, number: int) -> list[dict]:
        jobs = []
        for kind, count in SPECTRUM_ROUND:
            for k in range(count):
                jobs.append(self._job(kind, number * count + k))
        self.rng.shuffle(jobs)
        for job in jobs:
            job["id"] = self.counter
            self.counter += 1
        return jobs

    def _job(self, kind: str, k: int) -> dict:
        s = self.seq[kind]
        fmt = ("csv", "json")[k % 2]
        if kind == "zeros-bessel":
            m = s.index(51)
            count = 20 + s.index(81)
            args = ["zeros", "--kind", "bessel", "--m", str(m), "--count", str(count)]
            expect = {"type": "zeros", "kind": "bessel", "m": m, "count": count}
        elif kind == "zeros-cross":
            m = s.index(11)
            ratio = CROSS_RATIOS[s.index(len(CROSS_RATIOS))]
            b = (0.5, 1.0, 2.0)[s.index(3)]
            args = ["zeros", "--kind", "cross", "--m", str(m), "--a", _g(ratio * b),
                    "--b", _g(b), "--count", "50"]
            expect = {"type": "zeros", "kind": "cross", "m": m, "count": 50,
                      "ratio": ratio, "b": b}
        elif kind == "zeros-thin":
            m = s.index(4)
            count = 2 + s.index(3)
            args = ["zeros", "--kind", "cross", "--m", str(m), "--a", _g(THIN_RATIO),
                    "--b", "1.0", "--count", str(count)]
            expect = {"type": "zeros", "kind": "cross", "m": m, "count": count,
                      "ratio": THIN_RATIO, "b": 1.0}
        elif kind in ("modes-cylinder", "modes-annulus"):
            # the mode count grows as (omega b / c)^3 * l / b; narrow ranges keep
            # the rows of one round, and so rows_per_s, nearly seed-independent
            b = s.pick(0.5, 2.0)
            l = b * s.pick(0.75, 1.25)
            if kind == "modes-cylinder":
                omega = C_LIGHT * s.pick(8.0, 12.0) / b
                geometry = ["--cavity", "cylinder", "--b", _g(b)]
                expect = {"type": "modes", "cavity": "cylinder", "b": b}
            else:
                omega = C_LIGHT * s.pick(8.0, 12.0) / b
                geometry = ["--cavity", "annulus", "--a", _g(MODES_RATIO * b), "--b", _g(b)]
                expect = {"type": "modes", "cavity": "annulus", "b": b, "ratio": MODES_RATIO}
            args = ["modes", *geometry, "--l", _g(l), "--omega-max", _g(omega)]
            expect.update(l=l, omega_max=omega)
            if k % 2:  # every other modes job asks for the histogram
                bins = 4 + s.index(61)
                args += ["--histogram", str(bins)]
                expect["histogram"] = bins
        elif kind.startswith("verify-"):
            module = kind.split("-", 1)[1]
            args = ["verify", module]
            fmt = "json"
            expect = {"type": "verify", "module": module}
        elif kind == "out-of-envelope":
            # every other one needs m > 50; the rest cycle through bad arguments
            variant = (k // 2) % 3 if k % 2 else 0
            if variant == 0:
                # the spectrum below this cutoff needs angular orders above 50
                b = s.pick(0.5, 2.0)
                args = ["modes", "--cavity", "cylinder", "--b", _g(b), "--l", _g(1e-3 * b),
                        "--omega-max", _g(C_LIGHT * s.pick(59.0, 62.0) / b)]
            elif variant == 1:
                args = ["zeros", "--kind", "bessel", "--m", str(51 + s.index(10)),
                        "--count", "5"]
            else:
                args = ["zeros", "--kind", "cross", "--m", "0", "--a", _g(s.pick(1e-4, 9e-4)),
                        "--b", "1.0", "--count", "3"]
            expect = {"type": "exit2"}
        else:
            raise ValueError(kind)
        if kind != "out-of-envelope":
            args += ["--format", fmt]
        expect["format"] = fmt
        return {"kind": kind, "args": args, "expect": expect}


# ---------------------------------------------------------------------------
# field-grid-cli
# ---------------------------------------------------------------------------

class FieldJobs:
    def __init__(self, seed: int):
        self.rng = random.Random(f"field-grid-cli:{seed}")
        self.counter = 0

    def round(self, number: int) -> list[dict]:
        rng = self.rng
        jobs = []
        for slot, (size, fmt) in enumerate(FIELD_ROUND):
            # each CSV/JSON pair shares a geometry; pairs and rounds alternate it
            geometry = ("cylinder", "annulus")[(slot // 2 + number) % 2]
            g = FIELD_GEOMETRIES[geometry]
            n_rho = FIELD_RHO_COUNTS[rng.randrange(2)]
            rest = size // n_rho  # 2^j or 3 * 2^j
            n_phi = 2 ** rng.randint(3, int(math.log2(rest)) - 3)
            n_z = rest // n_phi
            m = rng.randint(0, FIELD_M_MAX)
            n = rng.randint(1, FIELD_N_MAX)
            # p = 0 zeroes four of the ten field columns, which print faster, so p
            # is not left to the seed: it rotates by slot and round, and the
            # middle cluster of every round holds each p once
            p = (slot + number) % (FIELD_P_MAX + 1)
            sign = rng.choice("+-")
            # a dyadic height keeps l * (n - 1) / (n - 1) == l, so the last z sample
            # lands on the end plate instead of an ulp past it
            l = rng.randint(8, 32) / 16
            phi_hi = rng.uniform(3.0, 6.3)
            amp = (round(rng.uniform(-2.0, 2.0), 3), round(rng.uniform(-2.0, 2.0), 3))
            args = ["field", "--cavity", geometry]
            if geometry == "annulus":
                args += ["--a", _g(g["a"])]
            args += ["--b", _g(g["b"]), "--l", _g(l), "--mode", f"{m},{n},{p}",
                     "--sign", sign, f"--amplitude={amp[0]},{amp[1]}",
                     "--rho", f"{_g(g['a'])}:{_g(g['b'])}:{n_rho}",
                     "--phi", f"0.0:{_g(phi_hi)}:{n_phi}", "--z", f"0.0:{_g(l)}:{n_z}",
                     "--format", fmt]
            expect = {"type": "field", "geometry": geometry, "l": l, "m": m, "n": n, "p": p,
                      "sign": 1 if sign == "+" else -1, "amplitude": amp,
                      "n_rho": n_rho, "phi": [0.0, phi_hi, n_phi], "z": [0.0, l, n_z],
                      "format": fmt}
            jobs.append({"kind": f"field-{size}-{fmt}", "args": args, "expect": expect})
        rng.shuffle(jobs)
        for job in jobs:
            job["id"] = self.counter
            self.counter += 1
        return jobs


# ---------------------------------------------------------------------------
# library-session
# ---------------------------------------------------------------------------

WARM_CUTOFF = {"cylinder": 20.0, "annulus": 22.0}  # omega * b / c of the warm-up
SESSION_M_MAX, SESSION_N_MAX = 6, 3                 # field modes inside the warm tables
SESSION_P_MAX = 6                                   # axial indices of tm_frequency calls
REPEAT_SHARE = 0.5                                  # share of points from the fixed set
POOL_RHO_COUNT = 32

# the per-block mix of the call stream: (call name, calls per block of 100)
SESSION_BLOCK = (
    ("bessel_j", 12), ("neumann_n", 12), ("derivative", 10), ("hankel", 6),
    ("tm_frequency", 11), ("enumerate_modes_below", 1),
    ("transverse_fields", 25), ("ez_mode", 15), ("superpose", 5),
    ("orthogonality_check", 1), ("boundary_residual", 1), ("helmholtz_residual", 1),
)
BANDS = ("small_x", "mid_x", "large_x")
FIELD_CALLS = ("transverse_fields", "ez_mode", "superpose")


def band_of(m: int, x: float) -> str:
    """Argument band of a specfun call, by the switch points ``specfun`` documents."""
    if x <= 4.0:
        return "small_x"
    if x >= 18.0 and 4.0 * m * m <= 6.0 * x:
        return "large_x"
    return "mid_x"


def draw_band(rng: random.Random, band: str) -> tuple[int, float]:
    """(m, x) inside one argument band, chosen from outside by order and argument."""
    while True:
        m = rng.randint(0, 50)
        if band == "small_x":
            x = rng.uniform(0.05, 4.0)
        elif band == "large_x":
            x = rng.uniform(18.0, 200.0)
        else:
            x = rng.uniform(4.0, 200.0)
        if band_of(m, x) == band:
            return m, x


def specfun_pool() -> list[tuple[int, float]]:
    """The fixed (m, x) set that pooled specfun calls repeat; 32 per band."""
    rng = random.Random("specfun-pool")
    return [draw_band(rng, band) for band in BANDS for _ in range(32)]


def field_pool() -> list[tuple[str, float, float, float]]:
    """The fixed point set that pooled field calls repeat: rho on the reference grid."""
    rng = random.Random("field-pool")
    pool = []
    for geometry in FIELD_GEOMETRIES:
        rhos = rho_grid(geometry, POOL_RHO_COUNT)
        for _ in range(32):
            pool.append((geometry, rng.choice(rhos), rng.uniform(0.0, 2.0 * math.pi),
                         rng.uniform(0.0, 1.0)))
    return pool


def warm_pairs(reference: dict) -> dict[str, list[tuple[int, int]]]:
    """(m, n) pairs whose radial eigenvalue lies below the warm-up cutoff."""
    out = {}
    for geometry, cut in WARM_CUTOFF.items():
        pairs = []
        for m in range(51):
            n = 1
            while True:
                gamma = radial_gamma(reference, geometry, m, n)
                if gamma is None or gamma > cut:
                    break
                pairs.append((m, n))
                n += 1
            if n == 1:
                break
        out[geometry] = pairs
    return out


def radial_gamma(reference: dict, geometry: str, m: int, n: int):
    """Reference gamma_mn of a fixed field geometry (b = 1), or None if untabulated."""
    if geometry == "cylinder":
        table = reference["bessel"].get(str(m), [])
    else:
        table = reference["cross"].get(f"{MODES_RATIO}:{m}", [])
    return table[n - 1] if n <= len(table) else None


class SessionCalls:
    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.spool = specfun_pool()
        self.fpool = field_pool()
        self.pairs = warm_pairs(reference)

    def block(self, number: int) -> list[tuple[str, dict, bool]]:
        rng = random.Random(f"library-session:{self.seed}:{number}")
        calls = []
        for name, count in SESSION_BLOCK:
            for k in range(count):
                pooled = k < round(count * REPEAT_SHARE)
                calls.append(self._call(rng, name, k, pooled))
        rng.shuffle(calls)
        return calls

    def _point(self, rng, pooled):
        if pooled:
            return rng.choice(self.fpool)
        geometry = rng.choice(tuple(FIELD_GEOMETRIES))
        g = FIELD_GEOMETRIES[geometry]
        return (geometry, rng.uniform(g["a"], g["b"]), rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(0.0, 1.0))

    def _mode(self, rng):
        return (rng.randint(0, SESSION_M_MAX), rng.randint(1, SESSION_N_MAX),
                rng.randint(0, FIELD_P_MAX), rng.choice((1, -1)))

    def _call(self, rng, name, k, pooled):
        if name in ("bessel_j", "neumann_n", "derivative", "hankel"):
            if pooled:
                m, x = rng.choice(self.spool)
            else:
                m, x = draw_band(rng, BANDS[k % 3])
            if name == "derivative":
                args = {"family": ("J", "N", "H1", "H2")[k % 4], "m": m, "x": x}
            elif name == "hankel":
                args = {"kind": 1 + k % 2, "m": m, "x": x}
            else:
                args = {"m": m, "x": x}
            return name, args, pooled
        if name == "tm_frequency":
            geometry = ("cylinder", "annulus")[k % 2]
            m, n = rng.choice(self.pairs[geometry])
            p = rng.randint(0, SESSION_P_MAX)
            return name, {"geometry": geometry, "m": m, "n": n, "p": p}, False
        if name == "enumerate_modes_below":
            geometry = ("cylinder", "annulus")[rng.randrange(2)]
            cut = WARM_CUTOFF[geometry] * rng.uniform(0.3, 0.95)
            return name, {"geometry": geometry, "omega_max": C_LIGHT * cut}, False
        if name in ("transverse_fields", "ez_mode"):
            geometry, rho, phi, z = self._point(rng, pooled)
            m, n, p, sign = self._mode(rng)
            amp = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
            return name, {"geometry": geometry, "mode": [m, n, p], "sign": sign,
                          "amplitude": amp, "point": [rho, phi, z]}, pooled
        if name == "superpose":
            geometry, rho, phi, z = self._point(rng, pooled)
            terms = []
            for _ in range(3):
                m, n, p, sign = self._mode(rng)
                terms.append([[m, n, p], sign, [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]])
            return name, {"geometry": geometry, "terms": terms, "point": [rho, phi, z]}, pooled
        if name == "orthogonality_check":
            return name, {"nu": rng.randint(0, 3), "n": rng.randint(1, 6), "k": rng.randint(1, 6),
                          "a": rng.uniform(0.5, 2.0)}, False
        if name in ("boundary_residual", "helmholtz_residual"):
            geometry = ("cylinder", "annulus")[rng.randrange(2)]
            m, n, p, sign = self._mode(rng)
            args = {"geometry": geometry, "mode": [m, n, max(p, 1)]}
            if name == "helmholtz_residual":
                args.update(sign=sign, npoints=20, seed=rng.randrange(1 << 30))
            return name, args, False
        raise ValueError(name)
