import cmath
import functools
import gc
import importlib.util
import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest

from coaxmode import (AnnulusGeometry, CylinderGeometry, FieldPoint, ModeAmplitude,
                      ModeIndex, bessel_j, boundary_residual, ez_mode, field_grid,
                      helmholtz_residual, orthogonality_check, radial_solution,
                      superpose, transverse_fields)
from coaxmode import fields, quadrature, specfun
from coaxmode.fields import ZERO_SAMPLE
from coaxmode.errors import DomainError, GeometryError, OrderError

import oracles

CYL = CylinderGeometry(b=1.0, l=1.0)
ANN = AnnulusGeometry(a=1.0, b=2.0, l=1.0)


def radial_max(sol, lo, hi, samples=200):
    return max(abs(sol.value(lo + (hi - lo) * i / (samples - 1)))
               for i in range(samples))


class TestRadialSolution:
    def test_cylinder_has_no_neumann_part(self):
        sol = radial_solution(CYL, 1, 2)
        assert sol.coeff_n == 0.0
        assert sol.coeff_j == 1.0
        assert abs(sol.value(CYL.b)) <= 1e-12

    def test_annulus_vanishes_on_both_walls(self):
        for m, n in ((0, 1), (1, 2), (3, 4)):
            sol = radial_solution(ANN, m, n)
            peak = radial_max(sol, ANN.a, ANN.b)
            assert abs(sol.value(ANN.a)) <= 1e-10 * peak
            assert abs(sol.value(ANN.b)) <= 1e-10 * peak

    @pytest.mark.parametrize("order", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_non_int_order_reaches_the_validators(self, order, warm):
        # 1.0 and True hash like 1, so an untyped cache would hand back mode 1
        geom = CylinderGeometry(b=1.0, l=3.0)
        fields._radial_solution.cache_clear()
        if warm:
            radial_solution(geom, 1, 1)
        with pytest.raises(OrderError):
            radial_solution(geom, order, 1)
        with pytest.raises(DomainError):
            radial_solution(geom, 1, 1.0)

    def test_fresh_annuli_leave_the_ladder_memo_alone(self):
        # the build matches the inner wall from one ladder run, read directly:
        # the build is memoized itself, so the memo would only keep the run
        ladder = specfun._cached_ladder.cache_info()
        for i in range(100):
            radial_solution(AnnulusGeometry(a=0.41, b=1.0 + (i + 1) * 1.3e-5, l=1.0), i % 3, 1)
        assert specfun._cached_ladder.cache_info() == ladder

    def test_annulus_sweep_keeps_the_store_at_its_bound(self):
        # four times as many fresh annuli as the store holds: it fills to its
        # bound and stays there, and peak RSS grows by under 2.5 MB (0-0.25 MB
        # on CPython 3.11, as the build leaves no ladder-memo entry and the key
        # holds plain numbers; 3.3 MB with the earlier 65,536-entry bound)
        code = (
            "import resource\n"
            "from coaxmode import AnnulusGeometry, radial_solution\n"
            "from coaxmode.errors import _MEMOS\n"
            "store = _MEMOS['coaxmode.fields._radial_solution']\n"
            "bound = store.cache_info().maxsize\n"
            "def size():\n"
            "    return store.cache_info().currsize\n"
            "def rss_kb():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "radial_solution(AnnulusGeometry(a=0.5, b=1.0, l=1.0), 0, 1)\n"
            "start, most = rss_kb(), 0\n"
            "for i in range(4 * bound):\n"
            "    geometry = AnnulusGeometry(a=0.5, b=1.0 + (i + 1) * 1e-4, l=1.0)\n"
            "    radial_solution(geometry, i % 3, 1)\n"
            "    most = max(most, size())\n"
            "print(bound, most, size(), rss_kb() - start)\n")
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(fields.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        bound, most, size, growth_kb = map(int, proc.stdout.split())
        assert bound == 1_024
        assert most == size == bound
        assert growth_kb < 2_560

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_interior_node_count(self, n):
        # Sturm oscillation: mode n has exactly n-1 sign changes inside
        for geom, lo in ((CYL, 0.0), (ANN, ANN.a)):
            sol = radial_solution(geom, 0, n)
            xs = [lo + (geom.b - lo) * i / 400 for i in range(1, 400)]
            vals = [sol.value(x) for x in xs]
            flips = sum(1 for u, v in zip(vals, vals[1:]) if u * v < 0)
            assert flips == n - 1, (type(geom).__name__, n)


class TestEzMode:
    def test_wall_value_is_tiny(self):
        sol = radial_solution(CYL, 1, 1)
        peak = radial_max(sol, 0.0, CYL.b)
        v = ez_mode(CYL, ModeIndex(1, 1, 1), 1, 2.0, FieldPoint(CYL.b, 0.4, 0.3))
        assert abs(v) <= 1e-10 * 2.0 * peak

    def test_axis_value_for_symmetric_mode(self):
        v = ez_mode(CYL, ModeIndex(0, 1, 0), 1, 1.0, FieldPoint(0.0, 1.2, 0.77))
        assert v == 1.0 + 0.0j  # J_0(0) = 1, p = 0

    def test_componentwise_product(self):
        point = FieldPoint(0.5, math.pi / 3, 0.25)
        got = ez_mode(CYL, ModeIndex(1, 1, 1), 1, 1.0, point)
        expected = (bessel_j(1, oracles.X11 * 0.5).value
                    * cmath.exp(1j * math.pi / 3) * math.cos(math.pi * 0.25))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_phi_periodicity_bit_identical(self):
        idx = ModeIndex(2, 1, 1)
        for phi in (0.0, 1.0, 0.75, 2.5):
            a = ez_mode(CYL, idx, 1, 1.0, FieldPoint(0.5, phi, 0.3))
            b = ez_mode(CYL, idx, 1, 1.0, FieldPoint(0.5, phi + 2.0 * math.pi, 0.3))
            assert a == b

    def test_rejects_outside_points(self):
        with pytest.raises(DomainError):
            ez_mode(CYL, ModeIndex(0, 1, 0), 1, 1.0, FieldPoint(1.5, 0.0, 0.5))
        with pytest.raises(DomainError):
            ez_mode(CYL, ModeIndex(0, 1, 0), 1, 1.0, FieldPoint(0.5, 0.0, -0.1))
        with pytest.raises(DomainError):
            ez_mode(ANN, ModeIndex(0, 1, 0), 1, 1.0, FieldPoint(0.5, 0.0, 0.5))

    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            ez_mode(CYL, ModeIndex(0, 1, 0), 2, 1.0, FieldPoint(0.5, 0.0, 0.5))


class TestTransverseFields:
    def test_plates_kill_tangential_e(self):
        for z in (0.0,):
            s = transverse_fields(CYL, ModeIndex(1, 1, 2), 1, 1.0, FieldPoint(0.5, 0.3, z))
            assert s.e_rho == 0j and s.e_phi == 0j

    def test_p0_has_no_transverse_e(self):
        s = transverse_fields(ANN, ModeIndex(1, 1, 0), -1, 1.0, FieldPoint(1.5, 0.9, 0.42))
        assert s.e_rho == 0j and s.e_phi == 0j
        assert abs(s.b_phi) > 0.0

    def test_e_rho_against_mixed_finite_difference(self):
        # E_rho = (1/gamma^2) d^2 E_z / (d rho d z)
        idx = ModeIndex(0, 1, 1)
        gamma = radial_solution(CYL, 0, 1).gamma
        rho, phi, z = 0.43, 1.1, 0.37
        h = 1e-5
        def ez(r, zz):
            return ez_mode(CYL, idx, 1, 1.0, FieldPoint(r, phi, zz))
        mixed = (ez(rho + h, z + h) - ez(rho - h, z + h)
                 - ez(rho + h, z - h) + ez(rho - h, z - h)) / (4.0 * h * h)
        got = transverse_fields(CYL, idx, 1, 1.0, FieldPoint(rho, phi, z)).e_rho
        assert got == pytest.approx(mixed / gamma ** 2, rel=1e-6)

    def test_b_phi_against_radial_finite_difference(self):
        from coaxmode import C_LIGHT, tm_frequency
        idx = ModeIndex(1, 1, 1)
        entry = tm_frequency(ANN, idx)
        rho, phi, z = 1.37, 0.4, 0.61
        h = 1e-6
        d_rho = (ez_mode(ANN, idx, 1, 1.0, FieldPoint(rho + h, phi, z))
                 - ez_mode(ANN, idx, 1, 1.0, FieldPoint(rho - h, phi, z))) / (2.0 * h)
        expected = 1j * entry.omega / (C_LIGHT ** 2 * entry.gamma ** 2) * d_rho
        got = transverse_fields(ANN, idx, 1, 1.0, FieldPoint(rho, phi, z)).b_phi
        assert got == pytest.approx(expected, rel=1e-6)

    def test_axis_limits(self):
        # m = 1 keeps a finite azimuthal component on the axis; m >= 2 vanishes
        s1 = transverse_fields(CYL, ModeIndex(1, 1, 1), 1, 1.0, FieldPoint(0.0, 0.0, 0.3))
        gamma = radial_solution(CYL, 1, 1).gamma
        kz = math.pi
        expected = -1j * kz / gamma ** 2 * (0.5 * gamma) * math.sin(kz * 0.3)
        assert s1.e_phi == pytest.approx(expected, rel=1e-12)
        s2 = transverse_fields(CYL, ModeIndex(2, 1, 1), 1, 1.0, FieldPoint(0.0, 0.0, 0.3))
        assert s2 == ZERO_SAMPLE


class TestNonFinitePhi:
    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_every_point_call_rejects_it(self, phi):
        idx = ModeIndex(1, 1, 1)
        point = FieldPoint(0.5, phi, 0.5)
        with pytest.raises(DomainError, match="phi"):
            ez_mode(CYL, idx, 1, 1.0, point)
        with pytest.raises(DomainError, match="phi"):
            transverse_fields(CYL, idx, 1, 1.0, point)
        with pytest.raises(DomainError, match="phi"):
            superpose(CYL, [ModeAmplitude(idx, 1, 1.0)], point)
        with pytest.raises(DomainError, match="phi"):
            superpose(CYL, [], point)
        with pytest.raises(DomainError, match="phi"):
            field_grid(CYL, idx, 1, 1.0, [0.5], [0.0, phi], [0.5])


class TestNonFiniteAmplitude:
    @pytest.mark.parametrize("amplitude", [math.nan, complex(1.0, math.nan), math.inf,
                                           complex(-math.inf, 0.0)])
    def test_every_call_rejects_it(self, amplitude):
        idx = ModeIndex(1, 1, 1)
        point = FieldPoint(0.5, 0.0, 0.5)
        with pytest.raises(DomainError, match="amplitude"):
            ez_mode(CYL, idx, 1, amplitude, point)
        with pytest.raises(DomainError, match="amplitude"):
            transverse_fields(CYL, idx, 1, amplitude, point)
        with pytest.raises(DomainError, match="amplitude"):
            superpose(CYL, [ModeAmplitude(idx, 1, amplitude)], point)
        with pytest.raises(DomainError, match="amplitude"):
            field_grid(CYL, idx, 1, amplitude, [0.5], [0.0], [0.5])

    def test_overflowing_factor_is_rejected(self):
        # -(kz / gamma^2) A overflows for A = 1e308, kz = 300 pi, gamma ~ 3.83
        geom = CylinderGeometry(b=1.0, l=0.01)
        idx = ModeIndex(1, 1, 3)
        point = FieldPoint(0.5, 0.0, 0.001)
        # named as the factor's overflow, before any component is formed
        factor = r"overflows the transverse fields of mode \(1, 1, 3\)$"
        with pytest.raises(DomainError, match=factor):
            transverse_fields(geom, idx, 1, 1e308, point)
        with pytest.raises(DomainError, match=factor):
            superpose(geom, [ModeAmplitude(idx, 1, 1e308)], point)
        with pytest.raises(DomainError, match=factor):
            field_grid(geom, idx, 1, 1e308, [0.5], [0.0], [0.001])
        # E_z carries A R cos(kz z) alone, which stays finite
        assert cmath.isfinite(ez_mode(geom, idx, 1, 1e308, point))

    def test_overflowing_axial_field_is_rejected(self):
        # N_0(gamma a) is near 0 here, so R carries a coefficient of 6.3e14
        # and A R overflows: E_z is refused as transverse_fields refuses it
        geom = AnnulusGeometry(0.1, 0.44290291364542866, 1.0)
        idx = ModeIndex(0, 1, 0)
        point = FieldPoint(0.25, 0.0, 0.5)
        with pytest.raises(DomainError, match="overflows"):
            transverse_fields(geom, idx, 1, 1e300, point)
        with pytest.raises(DomainError, match="overflows"):
            ez_mode(geom, idx, 1, 1e300, point)

    def test_overflowing_sum_is_rejected(self):
        # each term passes transverse_fields' check; E_z on the axis is 1e308 each
        term = ModeAmplitude(ModeIndex(0, 1, 0), 1, 1e308)
        point = FieldPoint(0.0, 0.0, 0.0)
        assert cmath.isfinite(superpose(CYL, [term], point).e_z)
        with pytest.raises(DomainError, match="overflows at rho = 0.0"):
            superpose(CYL, [term] * 2, point)


def _sample_hex(sample) -> list[str]:
    return [v.hex() for c in (sample.e_z, sample.e_rho, sample.e_phi, sample.b_rho,
                              sample.b_phi) for v in (c.real, c.imag)]


class TestFieldGrid:
    def test_rows_bit_identical_to_point_calls(self):
        rng = random.Random(20261018)
        rows = 0
        for geom in (CYL, ANN, AnnulusGeometry(a=0.5, b=1.0, l=0.75)):
            lo = geom.a if isinstance(geom, AnnulusGeometry) else 0.0
            # the walls and end plates, and (cylinder) the axis limits of m = 0, 1
            rhos = [lo, geom.b] + [rng.uniform(lo, geom.b) for _ in range(2)]
            zs = [0.0, geom.l, rng.uniform(0.0, geom.l)]
            phis = [0.0, rng.uniform(-7.0, 7.0), 2.0 * math.pi]
            for m in (0, 1, 2, 5):
                for p in (0, 1, 3):
                    for sign in (1, -1):
                        idx = ModeIndex(m, rng.randint(1, 3), p)
                        amplitude = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                        if p == 1 and sign < 0:
                            amplitude = amplitude.real  # a float amplitude takes float products
                        grid = list(field_grid(geom, idx, sign, amplitude, rhos, phis, zs))
                        points = [(r, f, z) for r in rhos for f in phis for z in zs]
                        assert [row[:3] for row in grid] == points
                        for row in grid:
                            sample = transverse_fields(geom, idx, sign, amplitude,
                                                       FieldPoint(*row[:3]))
                            assert [v.hex() for v in row[3:]] == _sample_hex(sample), (
                                type(geom).__name__, idx, sign, row[:3])
                        rows += len(grid)
        assert rows == 3 * 4 * 3 * 2 * 36

    def test_amplitude_check_bounds_the_modulus(self):
        # |A| = 1.7e308 sqrt(2) = 2.4e308 lies above the largest float, so the
        # check made before the first row refuses A on every grid, this one-point
        # grid too, where transverse_fields accepts it: no part of E_z overflows
        # at this point, but a part of A R reaches |A| R at some phase
        amplitude = 1.7e308 + 1.7e308j
        idx = ModeIndex(0, 1, 0)
        sample = transverse_fields(CYL, idx, 1, amplitude, FieldPoint(0.0, 0.0, 0.0))
        assert sample.e_z == amplitude
        with pytest.raises(DomainError, match="overflows the fields of mode .* on this grid"):
            field_grid(CYL, idx, 1, amplitude, [0.0], [0.0], [0.0])
        assert math.isinf((amplitude * cmath.exp(-0.25j * math.pi)).real)

    def test_checks_run_before_the_first_row(self):
        idx = ModeIndex(1, 1, 1)
        grid = ([0.5], [0.0], [0.5])
        with pytest.raises(DomainError):
            field_grid(CYL, idx, 2, 1.0, *grid)
        with pytest.raises(DomainError):
            field_grid(CYL, idx, 1, 1.0, [0.5, 1.5], [0.0], [0.5])
        with pytest.raises(DomainError):
            field_grid(CYL, idx, 1, 1.0, [0.5], [0.0], [0.5, -0.1])
        with pytest.raises(DomainError):
            field_grid(ANN, idx, 1, 1.0, [0.5], [0.0], [0.5])
        with pytest.raises(DomainError):
            field_grid(CYL, idx, 1, 1.0, [math.nan], [0.0], [0.5])
        with pytest.raises(OrderError):
            field_grid(CYL, ModeIndex(51, 1, 0), 1, 1.0, *grid)

    def test_takes_one_pass_iterables(self):
        rows = list(field_grid(CYL, ModeIndex(0, 1, 1), 1, 1.0, iter([0.2, 0.4]),
                               (phi for phi in (0.0, 1.0)), iter([0.5])))
        assert [row[:3] for row in rows] == [(0.2, 0.0, 0.5), (0.2, 1.0, 0.5),
                                             (0.4, 0.0, 0.5), (0.4, 1.0, 0.5)]


class TestSuperpose:
    POINT = FieldPoint(1.4, 0.8, 0.6)

    def test_empty_set_is_zero(self):
        assert superpose(ANN, [], self.POINT) == ZERO_SAMPLE

    def test_single_mode_passthrough(self):
        term = ModeAmplitude(ModeIndex(1, 1, 1), -1, 0.3 + 0.1j)
        assert superpose(ANN, [term], self.POINT) == transverse_fields(
            ANN, term.index, term.sign, term.amplitude, self.POINT)

    def test_bits_equal_the_left_fold_of_point_samples(self):
        rng = random.Random(20261020)
        signed_zeros = 0
        for geom in (CYL, ANN):
            lo = geom.a if isinstance(geom, AnnulusGeometry) else 0.0
            for _ in range(40):
                # walls, end plates and (cylinder) the axis give exact and signed zeros
                rho = rng.choice([lo, geom.b, rng.uniform(lo, geom.b)])
                z = rng.choice([0.0, geom.l, rng.uniform(0.0, geom.l)])
                point = FieldPoint(rho, rng.uniform(-7.0, 7.0), z)
                terms = []
                for _ in range(rng.randint(1, 6)):
                    idx = ModeIndex(rng.randint(0, 4), rng.randint(1, 3), rng.randint(0, 3))
                    sign = rng.choice((1, -1))
                    amplitude = rng.choice([complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                                            rng.uniform(-2.0, 2.0), -0.0, complex(-0.0, 0.0)])
                    terms.append(ModeAmplitude(idx, sign, amplitude))
                    if rng.random() < 0.3:  # cancels the term exactly
                        terms.append(ModeAmplitude(idx, sign, -amplitude))
                samples = [transverse_fields(geom, t.index, t.sign, t.amplitude, point)
                           for t in terms]
                folded = functools.reduce(operator.add, samples, ZERO_SAMPLE)
                assert _sample_hex(superpose(geom, terms, point)) == _sample_hex(folded)
                signed_zeros += sum(v == "-0x0.0p+0" for s in samples for v in _sample_hex(s))
        assert signed_zeros

    def test_every_term_is_checked(self):
        good = ModeAmplitude(ModeIndex(1, 1, 1), 1, 1.0)
        with pytest.raises(DomainError, match="sign"):
            superpose(ANN, [good, ModeAmplitude(ModeIndex(1, 1, 1), 2, 1.0)], self.POINT)
        with pytest.raises(DomainError, match="amplitude"):
            superpose(ANN, [good, ModeAmplitude(ModeIndex(1, 1, 1), 1, math.inf)], self.POINT)
        with pytest.raises(OrderError):
            superpose(ANN, [good, ModeAmplitude(ModeIndex(51, 1, 1), 1, 1.0)], self.POINT)

    def test_opposite_amplitudes_cancel(self):
        plus = ModeAmplitude(ModeIndex(2, 1, 1), 1, 1.0)
        minus = ModeAmplitude(ModeIndex(2, 1, 1), 1, -1.0)
        assert superpose(ANN, [plus, minus], self.POINT) == ZERO_SAMPLE


class TestRealBasis:
    def test_cos_orientation_is_real_for_real_amplitude(self):
        from coaxmode import real_basis
        idx = ModeIndex(2, 1, 0)
        point = FieldPoint(0.6, 0.9, 0.4)
        plus = transverse_fields(CYL, idx, 1, 1.0, point)
        minus = transverse_fields(CYL, idx, -1, 1.0, point)
        cos_s, sin_s = real_basis(plus, minus)
        sol = radial_solution(CYL, 2, 1)
        assert cos_s.e_z == pytest.approx(sol.value(0.6) * math.cos(2 * 0.9), rel=1e-12)
        assert sin_s.e_z == pytest.approx(sol.value(0.6) * math.sin(2 * 0.9), rel=1e-12)
        assert abs(cos_s.e_z.imag) < 1e-16
        # reassembling the pair returns the originals
        re_plus = cos_s + sin_s.scaled(1j)
        assert re_plus.e_z == pytest.approx(plus.e_z, rel=1e-12)


class TestOrthogonality:
    def test_diagonal_matches_closed_form(self):
        integral, expected = orthogonality_check(0, 1, 1, 1.0)
        assert expected == pytest.approx(
            0.5 * bessel_j(1, oracles.X01).value ** 2, rel=1e-12)
        assert integral == pytest.approx(expected, abs=1e-8)

    def test_off_diagonal_vanishes(self):
        integral, expected = orthogonality_check(0, 1, 2, 1.0)
        diag = 0.5 * bessel_j(1, oracles.X01).value ** 2
        assert expected == 0.0
        assert abs(integral) <= 1e-8 * diag

    def test_quadratic_scaling_in_radius(self):
        small, expected_small = orthogonality_check(1, 2, 2, 1.0)
        large, expected_large = orthogonality_check(1, 2, 2, 2.0)
        assert expected_large == 4.0 * expected_small
        assert large == 4.0 * small

    @pytest.mark.parametrize("a", [1e-3, 0.3, 2.0, 7.77, 1234.5])
    @pytest.mark.parametrize("nu, n, k", [(0, 1, 1), (1, 2, 2), (3, 1, 4)])
    def test_every_radius_is_a_squared_times_the_unit_one(self, nu, n, k, a):
        # the integral is posed on rho/a in [0, 1], so only the final scaling sees a
        unit = orthogonality_check(nu, n, k, 1.0)
        assert orthogonality_check(nu, n, k, a) == ((a * a) * unit[0], (a * a) * unit[1])

    @pytest.mark.parametrize("nu, n, k, value, expected", [
        (0, 1, 1, "0x1.13fb82b08fffbp-3", "0x1.13fb82b08fffap-3"),
        (2, 3, 3, "0x1.ba9cb860709cep-6", "0x1.ba9cb860709d5p-6"),
        (1, 2, 5, "0x1.a000000000000p-57", "0x0.0p+0"),
    ])
    def test_unit_radius_bits_are_pinned(self, nu, n, k, value, expected):
        got = orthogonality_check(nu, n, k, 1.0)
        assert (got[0].hex(), got[1].hex()) == (value, expected)

    def test_validation(self):
        with pytest.raises(DomainError):
            orthogonality_check(11, 1, 1, 1.0)
        with pytest.raises(DomainError):
            orthogonality_check(0, 21, 1, 1.0)
        with pytest.raises(DomainError):
            orthogonality_check(0, 1, 1, -1.0)


class TestBoundaryResidual:
    @pytest.mark.parametrize("geom,idx", [
        (CYL, ModeIndex(0, 1, 0)), (CYL, ModeIndex(1, 1, 1)),
        (ANN, ModeIndex(0, 1, 1)), (ANN, ModeIndex(2, 2, 1)),
    ])
    def test_eigenmodes_sit_on_walls(self, geom, idx):
        assert boundary_residual(geom, idx) <= 1e-10

    def test_detuned_gamma_is_loud(self):
        for geom, idx in ((CYL, ModeIndex(0, 1, 0)), (ANN, ModeIndex(1, 1, 1))):
            assert boundary_residual(geom, idx, gamma_scale=1.01) > 1e-3


class TestHelmholtz:
    @pytest.mark.parametrize("geom,idx", [
        (CYL, ModeIndex(1, 1, 1)), (ANN, ModeIndex(2, 1, 2)),
    ])
    def test_wave_equation_residual(self, geom, idx):
        assert helmholtz_residual(geom, idx, npoints=40) <= 1e-4

    def test_stencil_evaluates_five_points(self, monkeypatch):
        # five E_z values per point from three ladder runs (rho and rho +- h):
        # the axial neighbours share R(rho), and the radial second difference
        # and slope share R(rho +- h); the scale is the inset peak that
        # boundary_residual holds, so a warm call reads no profile for it
        idx = ModeIndex(2, 1, 2)
        fields._interior.cache_clear()
        boundary_residual(ANN, idx)
        helmholtz_residual(ANN, idx, npoints=1, seed=1)
        interior = fields._interior.cache_info()
        assert (interior.currsize, interior.hits) == (1, 1)
        runs, reads = [], []
        real_ladder = fields._ladder
        real_value, real_profile = fields.RadialSolution.value, fields.RadialSolution.profile

        def counted_ladder(m, x, with_n):
            runs.append((m, x, with_n))
            return real_ladder(m, x, with_n)

        def counted_value(self, rho):
            reads.append(rho)
            return real_value(self, rho)

        def counted_profile(self, rho):
            reads.append(rho)
            return real_profile(self, rho)

        monkeypatch.setattr(fields, "_ladder", counted_ladder)
        monkeypatch.setattr(fields.RadialSolution, "value", counted_value)
        monkeypatch.setattr(fields.RadialSolution, "profile", counted_profile)
        helmholtz_residual(ANN, idx, npoints=12)
        # no scale read, and the stencil runs past the ladder memo
        assert reads == []
        assert len(runs) == 3 * 12
        assert {(m, with_n) for m, _, with_n in runs} == {(2, True)}

    @pytest.mark.parametrize("geom,m,n", [(CYL, 1, 2), (ANN, 2, 1)], ids=["cyl", "ann"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("seed", [1, 20260810, 977])
    def test_bit_identical_to_per_point_oracle(self, geom, m, n, p, sign, seed):
        idx = ModeIndex(m, n, p)
        got = helmholtz_residual(geom, idx, sign, npoints=20, seed=seed)
        assert got.hex() == _helmholtz_per_point(geom, idx, sign, 20, seed).hex()


def _helmholtz_per_point(geometry, index, sign, npoints, seed):
    # the stencil with every E_z from a public ez_mode call at its own point
    from coaxmode import C_LIGHT, tm_frequency
    k2 = (tm_frequency(geometry, index).omega / C_LIGHT) ** 2
    inner = geometry.a if isinstance(geometry, AnnulusGeometry) else 0.0
    h = 1e-3 * (geometry.b - inner)
    g = 1e-3 * geometry.l
    m2 = index.m * index.m
    rnd = random.Random(seed)
    sol = radial_solution(geometry, index.m, index.n)
    rhos = [inner + (geometry.b - inner) * (i + 0.5) / 64 for i in range(64)]
    scale = k2 * max(abs(sol.value(r)) for r in rhos)

    def ez(rho, phi, z):
        return ez_mode(geometry, index, sign, 1.0, FieldPoint(rho, phi, z))

    worst = 0.0
    for _ in range(npoints):
        rho = inner + (geometry.b - inner) * rnd.uniform(0.1, 0.9)
        phi = rnd.uniform(0.0, 2.0 * math.pi)
        z = geometry.l * rnd.uniform(0.1, 0.9)
        e0 = ez(rho, phi, z)
        e_out = ez(rho + h, phi, z)
        e_in = ez(rho - h, phi, z)
        d_rho = (e_out - 2.0 * e0 + e_in) / (h * h)
        d_rho += (e_out - e_in) / (2.0 * h * rho)
        d_z = (ez(rho, phi, z + g) - 2.0 * e0 + ez(rho, phi, z - g)) / (g * g)
        residual = abs(d_rho + d_z - (m2 / (rho * rho)) * e0 + k2 * e0)
        worst = max(worst, residual / scale)
    return worst


class TestProbeArguments:
    def test_degenerate_probe_arguments_are_domain_errors(self):
        # a zero scale divides by gamma = 0 and NaN fails inside the grid;
        # no samples would report a perfect residual of 0.0
        idx = ModeIndex(1, 1, 1)
        for geom in (CYL, ANN):
            for scale in (0.0, -1.01, float("nan"), float("inf")):
                with pytest.raises(DomainError, match="gamma_scale"):
                    boundary_residual(geom, idx, gamma_scale=scale)
            for npoints in (0, -3, 2.5):
                with pytest.raises(DomainError, match="npoints"):
                    helmholtz_residual(geom, idx, npoints=npoints)
            with pytest.raises(DomainError, match="orientation sign"):
                helmholtz_residual(geom, idx, sign=0)

    @pytest.mark.parametrize("a", ["x", None, 1 + 2j, "1.0"])
    def test_non_real_radius_is_a_domain_error(self, a):
        with pytest.raises(DomainError, match="a must be"):
            orthogonality_check(0, 1, 1, a)

    @pytest.mark.parametrize("nu, n, k, name", [
        ("x", 1, 1, "nu"), (1.0, 1, 1, "nu"), (True, 1, 1, "nu"),
        (0, 1.0, 1, "n"), (0, None, 1, "n"), (0, 1, None, "k"), (0, 1, False, "k"),
    ])
    def test_non_integer_index_is_a_domain_error(self, nu, n, k, name):
        # checked before any comparison, under the name the caller passed
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            orthogonality_check(nu, n, k, 1.0)

    def test_unhashable_foreign_geometry_is_a_geometry_error(self):
        # refused before the wall-residual memo would hash it
        with pytest.raises(GeometryError, match="unsupported geometry"):
            boundary_residual([1.0, 1.0], ModeIndex(0, 1, 1))

    @pytest.mark.parametrize("a", [-1.0, True])
    def test_cached_overlap_still_checks_the_radius(self, a):
        orthogonality_check(0, 1, 1, 1.0)
        with pytest.raises(DomainError, match="a must be"):
            orthogonality_check(0, 1, 1, a)

    def test_cached_wall_residual_still_checks_the_scale(self):
        for geom in (CYL, ANN):
            boundary_residual(geom, ModeIndex(1, 1, 1))
            with pytest.raises(DomainError, match="gamma_scale"):
                boundary_residual(geom, ModeIndex(1, 1, 1), gamma_scale=float("nan"))


def _refuse(*args, **kwargs):
    raise AssertionError("a memo hit ran the quadrature")


class TestProbeMemo:
    """A warm repeat of either probe is one lookup with the cold call's bits."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("nu, n, k", [(0, 1, 2), (0, 2, 1), (1, 2, 5), (3, 4, 4)])
    def test_orthogonality_repeat(self, monkeypatch, nu, n, k, a):
        fields._unit_overlap.cache_clear()
        cold = orthogonality_check(nu, n, k, a)
        monkeypatch.setattr(quadrature, "integrate_adaptive", _refuse)
        ladder = specfun._cached_ladder.cache_info()
        warm = orthogonality_check(nu, n, k, a)
        assert specfun._cached_ladder.cache_info() == ladder
        assert [v.hex() for v in warm] == [v.hex() for v in cold]

    def test_transposed_overlap_keeps_its_own_bits(self):
        # t J(x_1 t) J(x_2 t) and t J(x_2 t) J(x_1 t) round differently
        fields._unit_overlap.cache_clear()
        transposed = orthogonality_check(0, 2, 1, 1.0)
        fields._unit_overlap.cache_clear()
        straight = orthogonality_check(0, 1, 2, 1.0)
        assert straight[0] != transposed[0]
        assert orthogonality_check(0, 2, 1, 1.0)[0].hex() == transposed[0].hex()

    @pytest.mark.parametrize("scale", [1, 1.0, 1.01])
    @pytest.mark.parametrize("geom, idx", [(CYL, ModeIndex(1, 2, 1)), (ANN, ModeIndex(2, 1, 3))])
    def test_wall_residual_repeat(self, monkeypatch, geom, idx, scale):
        fields._wall_residual.cache_clear()
        cold = boundary_residual(geom, idx, scale)
        monkeypatch.setattr(quadrature, "integrate_adaptive", _refuse)
        ladder = specfun._cached_ladder.cache_info()
        warm = boundary_residual(geom, idx, scale)
        assert specfun._cached_ladder.cache_info() == ladder
        assert warm.hex() == cold.hex()

    def test_scales_of_each_type_share_one_entry(self):
        # the scale keys the memo as a float, so 1 and 1.0 are one entry with one value
        fields._wall_residual.cache_clear()
        got = [boundary_residual(CYL, ModeIndex(1, 1, 1), scale) for scale in (1, 1.0, 1, 1.0)]
        info = fields._wall_residual.cache_info()
        assert (info.currsize, info.hits) == (1, 3)
        assert len({value.hex() for value in got}) == 1

    def test_unhashable_scale_shares_the_float_entry(self):
        class Unhashable(float):
            __hash__ = None

        fields._wall_residual.cache_clear()
        got = boundary_residual(ANN, ModeIndex(1, 1, 1), Unhashable(1.01))
        assert fields._wall_residual.cache_info().currsize == 1
        assert got.hex() == boundary_residual(ANN, ModeIndex(1, 1, 1), 1.01).hex()
        assert fields._wall_residual.cache_info().hits == 1

    def test_memo_pins_no_mode_index(self):
        fields._wall_residual.cache_clear()
        idx = ModeIndex(2, 2, 2)
        boundary_residual(CYL, idx)
        ref = weakref.ref(idx)
        del idx
        gc.collect()
        assert ref() is None



class TestModeStore:
    """Each mode's constants are resolved once, in stores keyed by plain numbers."""

    RECORDS = ("CylinderGeometry", "AnnulusGeometry", "ModeIndex", "FieldPoint",
               "ModeAmplitude", "RadialSolution", "FieldSample", "ModeEntry")

    def _count_hashes(self, monkeypatch):
        import coaxmode
        hashed = []
        for name in self.RECORDS:
            cls = getattr(coaxmode, name)
            real = cls.__hash__

            def counting(self, real=real, name=name):
                hashed.append(name)
                return real(self)

            monkeypatch.setattr(cls, "__hash__", counting)
        return hashed

    @pytest.mark.parametrize("geom", [CYL, ANN], ids=["cyl", "ann"])
    def test_a_warm_call_is_one_lookup_and_hashes_no_record(self, monkeypatch, geom):
        idx, point = ModeIndex(2, 1, 1), FieldPoint(0.7 * geom.b, 0.3, 0.4)
        terms = [ModeAmplitude(idx, 1, 0.5j), ModeAmplitude(ModeIndex(0, 2, 0), -1, 1.0),
                 ModeAmplitude(idx, -1, 2.0)]
        calls = [(lambda: transverse_fields(geom, idx, -1, 0.5 + 1j, point), 1),
                 (lambda: ez_mode(geom, idx, 1, 2, point), 1),
                 (lambda: superpose(geom, terms, point), len(terms))]
        for call, _ in calls:
            call()
        hashed = self._count_hashes(monkeypatch)
        for call, lookups in calls:
            before = fields._mode.cache_info()
            call()
            after = fields._mode.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (lookups, 0)
        assert hashed == []

    def test_cavities_of_one_cross_section_share_the_radial_entry(self):
        fields._radial_solution.cache_clear()
        short, tall = CylinderGeometry(b=1.0, l=1.0), CylinderGeometry(b=1.0, l=2.5)
        sol = radial_solution(short, 3, 2)
        assert radial_solution(tall, 3, 2) is sol
        transverse_fields(tall, ModeIndex(3, 2, 1), 1, 1.0, FieldPoint(0.5, 0.0, 0.5))
        info = fields._radial_solution.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    def test_cold_p0_wall_residual_skips_the_plate_scan(self, monkeypatch):
        # for p = 0 the end plates carry no tangential field: the 64-point
        # interior scan runs, the 64-point wall-grid scan does not
        calls = []
        real = fields.RadialSolution.profile

        def counted(self, rho):
            calls.append(rho)
            return real(self, rho)

        monkeypatch.setattr(fields.RadialSolution, "profile", counted)
        for geom in (CYL, ANN):
            fields._wall_residual.cache_clear()
            fields._interior.cache_clear()
            calls.clear()
            boundary_residual(geom, ModeIndex(0, 1, 0))
            assert len(calls) == 64
            # p = 1 shares the interior scan and adds the wall grid
            calls.clear()
            boundary_residual(geom, ModeIndex(0, 1, 1))
            assert len(calls) == 64


class TestRadialValue:
    def test_value_is_the_profile_value(self):
        for geom, idx in ((CYL, ModeIndex(0, 1, 1)), (CYL, ModeIndex(3, 2, 0)),
                          (ANN, ModeIndex(2, 3, 1))):
            sol = radial_solution(geom, idx.m, idx.n)
            lo = geom.a if isinstance(geom, AnnulusGeometry) else 0.0
            for i in range(17):
                rho = lo + (geom.b - lo) * i / 16
                assert sol.value(rho).hex() == sol.profile(rho)[0].hex()


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, pathlib.Path(__file__).parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFieldBits:
    """The field calls' frozen bits, written by tests/tools/gen_field_bits.py.

    A change to how a mode's constants are held is meant to keep every float
    operation of every public field call, so it must give these bits exactly.
    """

    TOOL = _load_tool("gen_field_bits")
    ROWS = json.loads((pathlib.Path(__file__).parent / "data" / "field_bits.json")
                      .read_text())["rows"]

    def test_the_sweep_covers_every_case(self):
        assert [[call, args] for call, args, _ in self.ROWS] == \
            [list(case) for case in json.loads(json.dumps(self.TOOL.cases()))]
        calls = {call for call, *_ in self.ROWS}
        assert calls == {"ez_mode", "transverse_fields", "superpose", "field_grid",
                         "helmholtz_residual", "boundary_residual", "tm_frequency"}
        point_rows = [args for call, args, _ in self.ROWS
                      if call in ("ez_mode", "transverse_fields")]
        assert {(g, m, p, s) for g, (m, _, p), s, *_ in point_rows} == {
            (g, m, p, s) for g in ("cylinder", "annulus") for m in (0, 1, 6, 50)
            for p in range(4) for s in (1, -1)}
        assert {amp[0] for *_, amp, _ in point_rows} == {"complex", "float", "int", "Decimal"}
        rhos = {(g, point[0]) for g, *_, point in point_rows}
        assert {("cylinder", 0.0), ("cylinder", 0.8), ("annulus", 0.3), ("annulus", 0.9)} <= rhos
        assert {args[2] for call, args, _ in self.ROWS if call == "boundary_residual"} == \
            {1.0, 1.01}

    def test_every_call_keeps_its_bits(self):
        changed = [(call, args) for call, args, bits in self.ROWS
                   if " ".join(v.hex() for v in self.TOOL.call_of(call, args)) != bits]
        assert not changed, (len(changed), changed[:3])

    def test_cold_calls_keep_their_bits(self):
        # every store empty: the first call of each mode builds its entries
        from coaxmode import clear_caches
        clear_caches()
        self.test_every_call_keeps_its_bits()
