#!/usr/bin/env python3
"""Regenerate tests/data/field_bits.json: the exact bits of the field calls.

The file pins, as ``float.hex`` strings, what the public field calls return
over a seeded sweep, so a change to how ``fields`` holds a mode's constants
that is meant to keep every float operation and its order can be checked
for exactly that. The sweep covers:

* both geometries (a cylinder and an annulus of other proportions than the
  test cavities, so a height or a wall read in the wrong place shows);
* m in {0, 1, 6, 50}, p in 0..3, both signs, n drawn from 1..3;
* complex, float, int and ``Decimal`` amplitudes;
* rho = 0 on the cylinder's axis, both walls, and seeded interior points,
  with phi beyond 2 pi and z on both end plates.

Each row is one call of ``ez_mode``, ``transverse_fields``, ``superpose``,
``field_grid`` (every row of a small grid), ``helmholtz_residual``,
``boundary_residual`` (at gamma_scale 1 and 1.01) or ``tm_frequency``.
Its arguments are stored with it; an amplitude is ``[kind, value...]``.

The file records the calls as they stand; regenerate it only where a change
is meant to move the field bits, and log that change.

Run from the repository root:  PYTHONPATH=src python tests/tools/gen_field_bits.py
"""

import json
import pathlib
import random
from decimal import Decimal

import coaxmode as c

OUT = pathlib.Path(__file__).resolve().parents[1] / "data" / "field_bits.json"

SEED = 20261022
GEOMETRIES = {"cylinder": (0.0, 0.8, 1.3), "annulus": (0.3, 0.9, 0.7)}  # (a, b, l)
ORDERS = (0, 1, 6, 50)
AXIAL = (0, 1, 2, 3)
AMPLITUDE_KINDS = ("complex", "float", "int", "Decimal")


def geometry(name: str):
    a, b, l = GEOMETRIES[name]
    return c.CylinderGeometry(b=b, l=l) if name == "cylinder" else c.AnnulusGeometry(a, b, l)


def amplitude(spec: list):
    kind, *values = spec
    if kind == "complex":
        return complex(*values)
    return {"float": float, "int": int, "Decimal": Decimal}[kind](values[0])


def _draw_amplitude(rng: random.Random) -> list:
    kind = rng.choice(AMPLITUDE_KINDS)
    if kind == "complex":
        return [kind, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
    if kind == "float":
        return [kind, rng.uniform(-2.0, 2.0)]
    if kind == "int":
        return [kind, rng.choice((-3, -1, 1, 2, 5))]
    return [kind, str(Decimal(rng.randint(-4000, 4000)) / 1000)]


def cases() -> list[tuple[str, list]]:
    """(call, args) in a fixed order; args are JSON values that ``call_of`` decodes."""
    rng = random.Random(SEED)
    out: list[tuple[str, list]] = []
    for name, (a, b, l) in GEOMETRIES.items():
        for m in ORDERS:
            for p in AXIAL:
                n = rng.randint(1, 3)
                mode = [m, n, p]
                out.append(("tm_frequency", [name, mode]))
                out.append(("boundary_residual", [name, mode, 1.0]))
                out.append(("boundary_residual", [name, mode, 1.01]))
                for sign in (1, -1):
                    # both walls (the axis on the cylinder) and two interior points
                    rhos = [a, b] + [a + (b - a) * rng.uniform(0.02, 0.98) for _ in range(2)]
                    for rho in rhos:
                        phi = rng.uniform(-10.0, 20.0)
                        z = rng.choice((0.0, l, l * rng.random()))
                        for call in ("ez_mode", "transverse_fields"):
                            out.append((call, [name, mode, sign, _draw_amplitude(rng),
                                               [rho, phi, z]]))
                    seed = rng.randrange(1 << 30)
                    out.append(("helmholtz_residual", [name, mode, sign, 5, seed]))
                    grid = [[a, a + 0.37 * (b - a), b], [rng.uniform(0.0, 7.0)], [0.0, 0.6 * l]]
                    out.append(("field_grid", [name, mode, sign,
                                               _draw_amplitude(rng), *grid]))
                # three modes at one point, one of them this one
                terms = [[mode, 1, _draw_amplitude(rng)]]
                for _ in range(2):
                    other = [rng.choice(ORDERS), rng.randint(1, 3), rng.choice(AXIAL)]
                    terms.append([other, rng.choice((1, -1)), _draw_amplitude(rng)])
                point = [a + (b - a) * rng.random(), rng.uniform(0.0, 7.0), l * rng.random()]
                out.append(("superpose", [name, terms, point]))
    return out


def call_of(call: str, args: list) -> list[float]:
    """The floats ``call`` returns for the decoded args, flattened in a fixed order."""
    geom, *rest = args
    geom = geometry(geom)
    if call == "tm_frequency":
        entry = c.tm_frequency(geom, c.ModeIndex(*rest[0]))
        return [entry.gamma, entry.omega, float(entry.degeneracy)]
    if call == "boundary_residual":
        return [c.boundary_residual(geom, c.ModeIndex(*rest[0]), rest[1])]
    if call == "helmholtz_residual":
        mode, sign, npoints, seed = rest
        return [c.helmholtz_residual(geom, c.ModeIndex(*mode), sign, npoints, seed)]
    if call == "superpose":
        terms, point = rest
        amps = [c.ModeAmplitude(c.ModeIndex(*mode), sign, amplitude(amp))
                for mode, sign, amp in terms]
        return _sample(c.superpose(geom, amps, c.FieldPoint(*point)))
    mode, sign, amp, *more = rest
    index, amp = c.ModeIndex(*mode), amplitude(amp)
    if call == "field_grid":
        rhos, phis, zs = more
        return [v for row in c.field_grid(geom, index, sign, amp, rhos, phis, zs)
                for v in row[3:]]
    point = c.FieldPoint(*more[0])
    if call == "ez_mode":
        e_z = c.ez_mode(geom, index, sign, amp, point)
        return [e_z.real, e_z.imag]
    return _sample(c.transverse_fields(geom, index, sign, amp, point))


def _sample(sample) -> list[float]:
    return [part for value in (sample.e_z, sample.e_rho, sample.e_phi, sample.b_rho,
                               sample.b_phi) for part in (value.real, value.imag)]


def main() -> None:
    rows = [[call, args, " ".join(v.hex() for v in call_of(call, args))]
            for call, args in cases()]
    about = ("public field calls as [call, args, 'float.hex ...']; "
             "written by tests/tools/gen_field_bits.py")
    # one row a line
    body = ",\n".join(json.dumps(row) for row in rows)
    OUT.write_text(f'{{"about": {json.dumps(about)},\n"seed": {SEED},\n"rows": [\n{body}\n]}}\n',
                   encoding="utf-8")
    print(f"{len(rows)} rows, {OUT.stat().st_size} bytes -> {OUT}")


if __name__ == "__main__":
    main()
