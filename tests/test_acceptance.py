"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one line (visible with ``pytest -s``) of the form
``ACCEPTANCE <n> PASS: <what was measured>`` once its assertions hold.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import io
import json
import math
import random
import time

import pytest

from coaxmode import (AnnulusGeometry, C_LIGHT, CylinderGeometry, ModeIndex,
                      bessel_j, bessel_zeros, boundary_residual,
                      cross_product_zeros, derivative, enumerate_modes_below,
                      hankel, helmholtz_residual, neumann_n,
                      orthogonality_check, tm_frequency)
import coaxmode.roots
from coaxmode import verify
from coaxmode.cli import main as cli_main

import oracles

CYL = CylinderGeometry(b=1.0, l=1.0)
ANN = AnnulusGeometry(a=1.0, b=2.0, l=1.0)

CROSS_GEOMETRIES = ((1.0, 2.0), (1.0, 1.1), (0.5, 3.0))


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {detail}")


def _fresh_root_cache() -> None:
    coaxmode.roots._table.cache_clear()


def test_criterion_1_bessel_zero_correctness():
    _fresh_root_cache()
    start = time.perf_counter()
    worst = 0.0
    for m in range(6):
        table = bessel_zeros(m, 20)
        for got, ref in zip(table.zeros, oracles.bessel_zero_oracle(m)):
            worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(1, f"120 zeros within {worst:.2e} of the series-bisection oracle "
               f"in {elapsed:.2f}s")


def test_criterion_2_cross_product_correctness():
    _fresh_root_cache()
    start = time.perf_counter()
    worst_res = 0.0
    worst_dev = 0.0
    for m in (0, 1, 2):
        for a, b in CROSS_GEOMETRIES:
            table = cross_product_zeros(m, a, b, 10)
            worst_res = max(worst_res, max(table.residuals))
            for got, ref in zip(table.zeros, oracles.cross_zero_oracle(m, a, b)):
                worst_dev = max(worst_dev, abs(got - ref))
    elapsed = time.perf_counter() - start
    assert worst_res < 1e-10
    assert worst_dev <= 1e-9
    assert elapsed < 10.0
    _report(2, f"90 cross-product roots: residual {worst_res:.2e}, "
               f"oracle deviation {worst_dev:.2e}, {elapsed:.2f}s")


def test_criterion_3_recursion_and_derivative_suite():
    rng = random.Random(987654321)
    start = time.perf_counter()
    worst_rec = 0.0
    worst_der = 0.0
    for _ in range(10_000):
        fam = rng.choice(("J", "N", "H1", "H2"))
        m = rng.randint(1, 19)
        x = rng.uniform(0.1, 50.0)
        if fam == "J":
            f = lambda mm, xx=x: bessel_j(mm, xx).value
        elif fam == "N":
            f = lambda mm, xx=x: neumann_n(mm, xx).value
        else:
            kind = 1 if fam == "H1" else 2
            f = lambda mm, xx=x, kk=kind: hankel(kk, mm, xx)
        mid = f(m)
        rec = abs(f(m - 1) + f(m + 1) - (2.0 * m / x) * mid) / max(1.0, abs(mid))
        worst_rec = max(worst_rec, rec)

        d = derivative(fam, m, x).value
        if abs(d) > 1e-8:
            h = 1e-6 * max(1.0, x)
            fd = (f(m, x + h) - f(m, x - h)) / (2.0 * h)
            worst_der = max(worst_der, abs(d - fd) / abs(d))
    elapsed = time.perf_counter() - start
    assert worst_rec <= 1e-10
    assert worst_der <= 1e-6
    assert elapsed < 5.0
    _report(3, f"10^4 samples: recursion {worst_rec:.2e}, "
               f"derivative-vs-FD {worst_der:.2e}, {elapsed:.2f}s")


def test_criterion_4_orthogonality_matrix():
    start = time.perf_counter()
    worst = 0.0
    for nu in range(4):
        for n in range(1, 6):
            for k in range(1, 6):
                integral, expected = orthogonality_check(nu, n, k, 1.0)
                worst = max(worst, abs(integral - expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    _report(4, f"100 overlap integrals within {worst:.2e} of the closed form "
               f"in {elapsed:.2f}s")


def test_criterion_5_boundary_conditions():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for geom in (CYL, ANN):
        omega_max = C_LIGHT * 12.0 / geom.b
        for entry in enumerate_modes_below(geom, omega_max):
            worst = max(worst, boundary_residual(geom, entry.index))
            checked += 1
        control = boundary_residual(geom, ModeIndex(0, 1, 0), gamma_scale=1.01)
        assert control > 1e-3
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 20.0
    _report(5, f"{checked} modes: worst wall residual {worst:.2e}, detuned "
               f"control loud, {elapsed:.2f}s")


def test_criterion_6_spectrum_completeness():
    start = time.perf_counter()
    cases = [(CYL, c) for c in (4.0, 6.0, 9.0)] + [(ANN, c) for c in (4.0, 5.0, 6.0)]
    total = 0
    for geom, cut in cases:
        omega_max = C_LIGHT * cut
        got = {(e.index.m, e.index.n, e.index.p)
               for e in enumerate_modes_below(geom, omega_max)}
        assert got == oracles.brute_force_mode_set(geom, omega_max)
        total += len(got)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, f"6 geometry/cutoff pairs, {total} modes, all equal to the "
               f"triple-loop oracle, {elapsed:.2f}s")


def test_criterion_7_scaling_laws():
    worst_omega = 0.0
    worst_zero = 0.0
    indices = (ModeIndex(0, 1, 0), ModeIndex(1, 2, 1), ModeIndex(2, 1, 2))
    for s in (0.5, 2.0, 10.0):
        cyl_s = CylinderGeometry(b=s * CYL.b, l=s * CYL.l)
        ann_s = AnnulusGeometry(a=s * ANN.a, b=s * ANN.b, l=s * ANN.l)
        for idx in indices:
            for base, scaled in ((CYL, cyl_s), (ANN, ann_s)):
                w0 = tm_frequency(base, idx).omega
                ws = tm_frequency(scaled, idx).omega
                worst_omega = max(worst_omega, abs(ws * s - w0) / w0)
        base_zeros = cross_product_zeros(1, 1.0, 2.0, 5).zeros
        scaled_zeros = cross_product_zeros(1, s, 2.0 * s, 5).zeros
        for zb, zs in zip(base_zeros, scaled_zeros):
            worst_zero = max(worst_zero, abs(zs * s - zb) / zb)
    assert worst_omega <= 1e-10
    assert worst_zero <= 1e-10
    _report(7, f"scale factors 0.5/2/10: omega drift {worst_omega:.2e}, "
               f"cross-zero drift {worst_zero:.2e}")


def test_criterion_8_helmholtz_residual():
    worst = 0.0
    probes = [(CYL, ModeIndex(0, 1, 0)), (CYL, ModeIndex(1, 1, 1)),
              (CYL, ModeIndex(2, 2, 1)), (ANN, ModeIndex(0, 1, 1)),
              (ANN, ModeIndex(2, 1, 2))]
    for geom, idx in probes:
        worst = max(worst, helmholtz_residual(geom, idx, npoints=100))
    assert worst <= 1e-4
    _report(8, f"5 modes x 100 interior points: worst wave-equation residual "
               f"{worst:.2e}")


def test_criterion_9_cli_contract(tmp_path, capsys, monkeypatch):
    # byte-identical reruns
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    args = ["modes", "--cavity", "annulus", "--a", "1", "--b", "2", "--l", "1",
            "--omega-max", repr(C_LIGHT * 5.0)]
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    # CSV and JSON carry the same numbers (shortest-round-trip doubles)
    assert cli_main(args) == 0
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    jpath = tmp_path / "run.json"
    assert cli_main(args + ["--format", "json", "--out", str(jpath)]) == 0
    json_rows = json.loads(jpath.read_text())["rows"]
    assert len(csv_rows) == len(json_rows) > 0
    for c, j in zip(csv_rows, json_rows):
        assert float(c["gamma"]) == j["gamma"]
        assert float(c["omega_rad_s"]) == j["omega_rad_s"]

    # exit-code contract: 2 validation, 1 numerical/verification failure
    assert cli_main(["zeros", "--kind", "cross", "--m", "0",
                     "--a", "2", "--b", "1"]) == 2
    assert cli_main(["field", "--cavity", "cylinder", "--b", "1", "--l", "1",
                     "--mode", "1,1,0", "--sign", "+", "--rho", "0:2:3",
                     "--phi", "0:1:2", "--z", "0:1:2"]) == 2
    failing = [verify.CheckResult("roots", "planted", False, "planted failure")]
    monkeypatch.setitem(verify._SUITES, "roots", lambda: failing)
    assert cli_main(["verify", "roots",
                     "--out", str(tmp_path / "v.json"), "--format", "json"]) == 1
    capsys.readouterr()
    _report(9, "byte-identical reruns, CSV/JSON value equality, "
               "exit codes 0/1/2 exercised")
