"""Output checks: every job and call is compared with ``reference.json``.

Values are compared at ``RTOL`` times the scale of their column (the largest
magnitude the reference gives that column), so a last-ulp change in a root
or a Bessel value passes while a wrong root, mode or field does not. On top
of the reference, each output must keep the invariants its command
promises: strictly increasing zeros with residuals inside the bound
``roots`` documents, modes sorted by ``(omega, m, n, p)``, a histogram that
ends at the weighted mode total, ``verify`` reporting ``all_passed``, and a
field job emitting exactly one row per grid point. The expected fields are
rebuilt here from the reference radial profile and the TM formulas, with no
coaxmode code involved.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
import os

import workloads as W

RTOL = 1e-9
BESSEL_RESIDUAL_MAX = 1e-12   # bessel_zeros: |J_m(x)| <= 1e-12 per entry
CROSS_RESIDUAL_REL = 1e-10    # cross_product_zeros: |D| <= 1e-10 of the arch scale
TWO_PI = 2.0 * math.pi


class CheckError(Exception):
    """An output differs from the reference or breaks an invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Reference:
    def __init__(self, path: str | None = None):
        path = path or os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
        with open(path, "r", encoding="utf-8") as handle:
            self.data = json.load(handle)
        self.pool = {key: vals for key, vals in zip(W.specfun_pool(), self.data["specfun_pool"])}
        self.rho_index = {g: {r: i for i, r in enumerate(W.rho_grid(g, W.POOL_RHO_COUNT))}
                          for g in W.FIELD_GEOMETRIES}

    def table(self, kind: str, m: int, ratio: float | None = None) -> list[float]:
        key = str(m) if kind == "bessel" else f"{ratio}:{m}"
        try:
            return self.data[kind][key]
        except KeyError:
            raise CheckError(f"reference has no {kind} table {key}") from None

    def gamma(self, cavity: str, b: float, m: int, n: int, ratio: float | None = None) -> float:
        table = self.table("bessel" if cavity == "cylinder" else "cross", m, ratio)
        _require(n <= len(table), f"reference {cavity} table m={m} holds {len(table)} < {n} roots")
        return table[n - 1] / b

    def modes(self, cavity: str, b: float, l: float, omega_max: float,
              ratio: float | None = None) -> list[tuple]:
        """(m, n, p, gamma, omega, degeneracy) of every mode below omega_max."""
        out = []
        m = 0
        while W.C_LIGHT * self.gamma(cavity, b, m, 1, ratio) <= omega_max:
            n = 1
            while True:
                gamma = self.gamma(cavity, b, m, n, ratio)
                if W.C_LIGHT * gamma > omega_max:
                    break
                p = 0
                while True:
                    omega = W.C_LIGHT * math.hypot(gamma, p * math.pi / l)
                    if omega > omega_max:
                        break
                    out.append((m, n, p, gamma, omega, 1 if m == 0 else 2))
                    p += 1
                n += 1
            m += 1
        return out


def _close(got: float, want: float, scale: float, what: str) -> None:
    if not abs(got - want) <= RTOL * scale:
        raise CheckError(f"{what}: got {got!r}, reference {want!r} (tolerance {RTOL * scale:.2e})")


INT_COLUMNS = {"m", "n", "p", "degeneracy", "cumulative_count"}


def parse_rows(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """(params, rows) of a CLI document; CSV has no params, so {} is returned."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["params"], doc["rows"]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if INT_COLUMNS.isdisjoint(header):
        return {}, [dict(zip(header, map(float, record))) for record in reader]
    convert = [int if key in INT_COLUMNS else float for key in header]
    return {}, [{key: f(value) for key, f, value in zip(header, convert, record)}
                for record in reader]


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def check_job(job: dict, returncode: int, stdout: str, ref: Reference) -> int:
    """Raise CheckError on a wrong output; return the number of data rows."""
    expect = job["expect"]
    if expect["type"] == "exit2":
        _require(returncode == 2, f"out-of-envelope job exited {returncode}, expected 2")
        _require(stdout == "", "out-of-envelope job wrote to stdout")
        return 0
    _require(returncode == 0, f"exit code {returncode}")
    params, rows = parse_rows(stdout, expect["format"])
    return {"zeros": _zeros, "modes": _modes, "verify": _verify,
            "field": _field}[expect["type"]](expect, params, rows, ref)


def _zeros(e: dict, params: dict, rows: list[dict], ref: Reference) -> int:
    _require(len(rows) == e["count"], f"{len(rows)} rows for {e['count']} zeros")
    if e["kind"] == "bessel":
        want = ref.table("bessel", e["m"])[:e["count"]]
    else:
        want = [g / e["b"] for g in ref.table("cross", e["m"], e["ratio"])[:e["count"]]]
    _require(len(want) == e["count"], "reference table too short")
    scale = max(abs(v) for v in want)
    previous = 0.0
    for i, (row, w) in enumerate(zip(rows, want)):
        _require(row["m"] == e["m"] and row["n"] == i + 1,
                 f"row {i} has index {row['m'], row['n']}")
        value = row["value"]
        _close(value, w, scale, f"zero {i + 1}")
        _require(value > previous, f"zero {i + 1} does not increase")
        previous = value
        if e["kind"] == "bessel":
            bound = BESSEL_RESIDUAL_MAX
        else:
            a = e["ratio"] * e["b"]
            bound = CROSS_RESIDUAL_REL * 2.0 / (math.pi * value * math.sqrt(a * e["b"]))
        _require(row["residual"] <= bound,
                 f"zero {i + 1} residual {row['residual']:.2e} above {bound:.2e}")
    return len(rows)


def _modes(e: dict, params: dict, rows: list[dict], ref: Reference) -> int:
    want = ref.modes(e["cavity"], e["b"], e["l"], e["omega_max"], e.get("ratio"))
    if "histogram" in e:
        bins = e["histogram"]
        _require(len(rows) == bins, f"{len(rows)} histogram rows for {bins} bins")
        total = sum(w[5] for w in want)
        previous = 0
        for i, row in enumerate(rows, 1):
            edge = e["omega_max"] * i / bins
            _close(row["omega_bin_edge"], edge, e["omega_max"], f"bin edge {i}")
            count = row["cumulative_count"]
            want_count = sum(w[5] for w in want if w[4] <= row["omega_bin_edge"])
            _require(count == want_count, f"bin {i}: count {count}, reference {want_count}")
            _require(count >= previous, f"bin {i}: cumulative count decreases")
            previous = count
        _require(previous == total, f"last count {previous} != weighted mode total {total}")
        return len(rows)
    keys = [(r["omega_rad_s"], r["m"], r["n"], r["p"]) for r in rows]
    _require(keys == sorted(keys), "modes are not sorted by (omega, m, n, p)")
    got = {(r["m"], r["n"], r["p"]): r for r in rows}
    _require(len(got) == len(rows), "a mode is listed twice")
    expected = {(w[0], w[1], w[2]): w for w in want}
    _require(got.keys() == expected.keys(),
             f"mode set differs from reference: {len(got)} vs {len(expected)} modes")
    g_scale = max((w[3] for w in want), default=1.0)
    w_scale = max((w[4] for w in want), default=1.0)
    for key, row in got.items():
        w = expected[key]
        _close(row["gamma"], w[3], g_scale, f"gamma{key}")
        _close(row["omega_rad_s"], w[4], w_scale, f"omega{key}")
        _require(row["degeneracy"] == w[5], f"degeneracy{key}")
    return len(rows)


def _verify(e: dict, params: dict, rows: list[dict], ref: Reference) -> int:
    _require(params.get("all_passed") is True, "verify did not report all_passed")
    names = [r["check"] for r in rows]
    _require(names == ref.data["verify"][e["module"]], f"verify {e['module']} ran {names}")
    _require(all(r["passed"] is True for r in rows), "a verify check failed")
    return len(rows)


def _mode_factors(e: dict, ref: Reference) -> tuple[float, float, tuple]:
    """(gamma, kz, coefficients) of one mode: the TM formulas of ``fields``,
    split into a radial, an angular and an axial factor per component."""
    m, sign = e["m"], e["sign"]
    gamma = ref.gamma(e["geometry"], 1.0, m, e["n"], W.MODES_RATIO)
    kz = e["p"] * math.pi / e["l"]
    omega = W.C_LIGHT * math.hypot(gamma, kz)
    inv_g2 = 1.0 / (gamma * gamma)
    b_coeff = omega * inv_g2 / (W.C_LIGHT * W.C_LIGHT)
    return gamma, kz, (-(kz * inv_g2), -1j * (sign * m * kz * inv_g2), sign * m * b_coeff,
                       1j * b_coeff)


def _components(a: complex, value: float, slope: float, over: float, cz: float, sz: float,
                coeffs: tuple) -> tuple[complex, ...]:
    """(E_z, E_rho, E_phi, B_rho, B_phi) from amplitude times angular factor ``a``."""
    c_erho, c_ephi, c_brho, c_bphi = coeffs
    return (a * value * cz, c_erho * a * slope * sz, c_ephi * a * over * sz,
            c_brho * a * over * cz, c_bphi * a * slope * cz)


def _radial_factors(e: dict, gamma: float, rhos: list[float], radial) -> list[tuple]:
    """(R, dR/drho, R/rho) per rho; on the axis R/rho has the limit gamma/2 for m = 1."""
    axis = 0.5 * gamma if e["m"] == 1 else 0.0
    return [(v, d, axis if r == 0.0 else v / r) for r, v, d in zip(rhos, *radial)]


def _angular(e: dict, phi: float) -> complex:
    return complex(*e["amplitude"]) * cmath.exp(1j * (e["sign"] * e["m"] * math.fmod(phi, TWO_PI)))


def field_components(e: dict, ref: Reference, rho: float, phi: float, z: float) -> tuple:
    """The five components of one mode at one pooled point (rho on the pool grid)."""
    gamma, kz, coeffs = _mode_factors(e, ref)
    radial = ref.data["radial"][f"{e['geometry']}:{e['m']}:{e['n']}:{W.POOL_RHO_COUNT}"]
    i = ref.rho_index[e["geometry"]][rho]
    value, slope, over = _radial_factors(e, gamma, [rho], ([radial[0][i]], [radial[1][i]]))[0]
    return _components(_angular(e, phi), value, slope, over, math.cos(kz * z),
                       math.sin(kz * z), coeffs)


COORD_TOL = 1e-11  # grid coordinates stay below 2 pi: room for last-ulp changes only
FIELD_KEYS = tuple((f"re_{c}", f"im_{c}") for c in ("ez", "erho", "ephi", "brho", "bphi"))


def _field(e: dict, params: dict, rows: list[dict], ref: Reference) -> int:
    rhos = W.rho_grid(e["geometry"], e["n_rho"])
    phis = W.grid(*e["phi"])
    zs = W.grid(*e["z"])
    size = len(rhos) * len(phis) * len(zs)
    _require(len(rows) == size, f"{len(rows)} rows for a grid of {size} points")
    gamma, kz, coeffs = _mode_factors(e, ref)
    radial = _radial_factors(e, gamma, rhos,
                             ref.data["radial"][f"{e['geometry']}:{e['m']}:{e['n']}:{e['n_rho']}"])
    angular = [_angular(e, phi) for phi in phis]
    axial = [(math.cos(kz * z), math.sin(kz * z)) for z in zs]
    expected = [_components(a, *rf, cz, sz, coeffs)
                for rf in radial for a in angular for cz, sz in axial]
    scales = [max(abs(s[k]) for s in expected) for k in range(5)]
    floor = 1e-6 * max(scales)
    tols = [RTOL * max(s, floor) for s in scales]
    coords = ((r, phi, z) for r in rhos for phi in phis for z in zs)
    for i, (row, want, where) in enumerate(zip(rows, expected, coords)):
        r, phi, z = where
        if not (abs(row["rho"] - r) <= COORD_TOL and abs(row["phi"] - phi) <= COORD_TOL
                and abs(row["z"] - z) <= COORD_TOL):
            raise CheckError(f"row {i} sits at {row['rho'], row['phi'], row['z']}")
        for (re_key, im_key), w, tol in zip(FIELD_KEYS, want, tols):
            if not abs(complex(row[re_key], row[im_key]) - w) <= tol:
                raise CheckError(f"row {i} {re_key[3:]}: got {row[re_key]}, {row[im_key]}; "
                                 f"reference {w!r}")
    return size


# ---------------------------------------------------------------------------
# library calls
# ---------------------------------------------------------------------------

def _finite(*values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


def _sample_tuple(s) -> tuple:
    return (s.e_z, s.e_rho, s.e_phi, s.b_rho, s.b_phi)


@functools.lru_cache(maxsize=None)
def _mode_scale(ref: Reference, geometry: str, m: int, n: int, p: int) -> float:
    """Largest unit-amplitude component over the pool rho grid, with cos(kz z)
    and sin(kz z) at their peaks (|e^{ism phi}| = 1, so phi and the sign do not
    matter). Points on a node of the mode are compared at this scale, not at
    their own near-zero size."""
    e = {"geometry": geometry, "m": m, "n": n, "p": p, "sign": 1, "amplitude": (1.0, 0.0),
         "l": 1.0}
    peaks = (0.0, 0.5 / p) if p else (0.0,)
    return max(abs(c) for r in W.rho_grid(geometry, W.POOL_RHO_COUNT) for z in peaks
               for c in field_components(e, ref, r, 0.0, z))


def _pooled_field(ref: Reference, geometry: str, mode, sign: int, amp,
                  point) -> tuple[tuple[complex, ...], float]:
    """Reference components at a pooled point and the mode's field scale."""
    m, n, p = mode
    e = {"geometry": geometry, "m": m, "n": n, "p": p, "sign": sign, "amplitude": amp, "l": 1.0}
    want = field_components(e, ref, *point)
    return want, abs(complex(*amp)) * _mode_scale(ref, geometry, m, n, p)


def check_call(name: str, args: dict, pooled: bool, result, ref: Reference) -> None:
    """Raise CheckError when one library call returned a wrong value."""
    if name in ("bessel_j", "neumann_n", "derivative", "hankel"):
        value = result.value if name in ("bessel_j", "neumann_n", "derivative") else result
        _require(_finite(value), f"{name}{tuple(args.values())} is not finite")
        m, x = args["m"], args["x"]
        if pooled:
            j, y, dj, dy = ref.pool[(m, x)]
            if name == "bessel_j":
                want = j
            elif name == "neumann_n":
                want = y
            elif name == "hankel":
                want = complex(j, y if args["kind"] == 1 else -y)
            else:
                want = {"J": dj, "N": dy, "H1": complex(dj, dy),
                        "H2": complex(dj, -dy)}[args["family"]]
            scale = max(abs(want), math.sqrt(2.0 / (math.pi * max(x, 1.0))))
            _require(abs(value - want) <= RTOL * scale,
                     f"{name}{tuple(args.values())} = {value!r}, reference {want!r}")
        elif name == "bessel_j" or (name == "derivative" and args["family"] == "J"):
            _require(abs(value) <= 1.0 + 1e-12, f"|{name}{tuple(args.values())}| > 1")
        return
    if name == "tm_frequency":
        gamma = ref.gamma(args["geometry"], 1.0, args["m"], args["n"], W.MODES_RATIO)
        omega = W.C_LIGHT * math.hypot(gamma, args["p"] * math.pi)
        _close(result.gamma, gamma, gamma, "tm_frequency gamma")
        _close(result.omega, omega, omega, "tm_frequency omega")
        _require(result.degeneracy == (1 if args["m"] == 0 else 2), "tm_frequency degeneracy")
        return
    if name == "enumerate_modes_below":
        want = ref.modes(args["geometry"], 1.0, 1.0, args["omega_max"], W.MODES_RATIO)
        got = [(e.index.m, e.index.n, e.index.p) for e in result]
        _require(sorted(got) == sorted(w[:3] for w in want), "enumerated mode set differs")
        keys = [(e.omega, e.index.m, e.index.n, e.index.p) for e in result]
        _require(keys == sorted(keys), "enumerated modes are not sorted")
        return
    if name in ("transverse_fields", "ez_mode", "superpose"):
        got = _sample_tuple(result) if name != "ez_mode" else (result,)
        _require(_finite(*got), f"{name} returned a non-finite field")
        if not pooled:
            return
        if name == "superpose":
            want, scale = [0j] * 5, 0.0
            for mode, sign, amp in args["terms"]:
                one, s = _pooled_field(ref, args["geometry"], mode, sign, amp, args["point"])
                want = [w + o for w, o in zip(want, one)]
                scale += s
        else:
            want, scale = _pooled_field(ref, args["geometry"], args["mode"], args["sign"],
                                        args["amplitude"], args["point"])
        for g, w in zip(got, want):
            _require(abs(g - w) <= RTOL * scale, f"{name} = {g!r}, reference {w!r}")
        return
    if name == "orthogonality_check":
        value, expected = result
        tol = 1e-8 * args["a"] ** 2
        _require(abs(value - expected) <= tol, f"orthogonality gap {abs(value - expected):.2e}")
        return
    if name == "boundary_residual":
        _require(result <= 1e-9, f"boundary residual {result:.2e} above 1e-9")
        return
    if name == "helmholtz_residual":
        _require(result <= 1e-4, f"Helmholtz residual {result:.2e} above 1e-4")
        return
    raise CheckError(f"no check for {name}")
