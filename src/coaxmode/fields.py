"""TM mode fields: axial E_z, transverse E and B, superposition, checks.

One mode (m, n, p) with orientation sign s (the e^{+-imphi} choice) has

    E_z   = A R(rho) e^{ismphi} cos(kz z),          kz = p pi / l
    E_t   = (1/gamma^2) grad_t dE_z/dz
    B_t   = (i omega / (c^2 gamma^2)) e_z x grad_t E_z

where R is J_m(gamma rho) for the cylinder and the J/N combination that
vanishes at both walls for the annulus, over the radial interval [a, b]
the cavity spans (a = 0.0 for the cylinder). E_rho and E_phi carry sin(kz z)
and vanish identically for p = 0 and on the end plates; E_z and E_phi
vanish on the radial walls through R itself.

The azimuthal angle is reduced mod 2 pi before use, so samples at phi
and phi + 2 pi are bit-identical whenever the addition was exact; a
non-finite phi is a DomainError. On the axis the removable 1/rho
singularities are replaced by their limits: J_1(gamma rho)/rho -> gamma/2,
everything else -> 0.

A mode's constants (radial solution, kz, the factors the amplitude multiplies)
are held per (m, n, p, sign, a, b, l): a warm call reads them with one lookup
and hashes no record. An index, point or term not exactly a ModeIndex,
FieldPoint or ModeAmplitude is a DomainError, raised after the geometry check.

``field_grid`` samples one mode over a rho x phi x z product grid. The mode
separates into R(rho), e^{ismphi} and cos/sin(kz z), so the grid evaluates
one radial profile per rho, one phase per phi and one axial pair per z,
and each row costs five complex products. Those products share their
per-mode factors, and their association order, with ``transverse_fields``,
so every grid row is bit-identical to the per-point call.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from typing import Iterable, Iterator

from .cavity import (C_LIGHT, Geometry, ModeIndex, _check_geometry, _foreign, _omega,
                     tm_frequency)
from .errors import ConditioningError, DomainError, _finite_real, _integer, _memo, _record
from .roots import _gamma, bessel_zeros
# the ladder memo lives in specfun, where the public calls read it too
from .specfun import _cached_ladder, _ladder, _slope

_TWO_PI = 2.0 * math.pi
# below this, a field component's bound leaves room for the rounding of the
# bound and of the products it bounds
_PRODUCT_LIMIT = 0.999 * sys.float_info.max


@_record
class RadialSolution:
    """Wall-matched radial profile R(rho) = cj J_m(g rho) + cn N_m(g rho)."""

    m: int
    gamma: float
    coeff_j: float
    coeff_n: float

    def value(self, rho: float) -> float:
        """R(rho), read through the ladder memo."""
        ladder = _cached_ladder(self.m, self.gamma * rho, bool(self.coeff_n))
        r = self.coeff_j * ladder[0]
        if self.coeff_n:
            r += self.coeff_n * ladder[2]
        return r

    def slope(self, rho: float) -> float:
        """dR/drho (not d/dx)."""
        return self.profile(rho)[1]

    def profile(self, rho: float) -> tuple[float, float, float]:
        """(R, dR/drho, R/rho) from one ladder, with R/rho at its limit on the axis.

        On the axis J_1(gamma rho)/rho -> gamma/2 and every other order's
        R/rho -> 0.
        """
        m = self.m
        x = self.gamma * rho
        ladder = _cached_ladder(m, x, bool(self.coeff_n))
        r = self.coeff_j * ladder[0]
        s = self.coeff_j * _slope(m, x, ladder[0], ladder[1])
        if self.coeff_n:
            r += self.coeff_n * ladder[2]
            s += self.coeff_n * _slope(m, x, ladder[2], ladder[3])
        if rho == 0.0:
            over = 0.5 * self.gamma * self.coeff_j if m == 1 else 0.0
        else:
            over = r / rho
        return r, self.gamma * s, over


@_record
class FieldPoint:
    rho: float
    phi: float
    z: float


@_record
class FieldSample:
    """Complex field components at one point: E in V/m, B in tesla."""

    e_z: complex
    e_rho: complex
    e_phi: complex
    b_rho: complex
    b_phi: complex

    def __add__(self, other: "FieldSample") -> "FieldSample":
        return FieldSample(self.e_z + other.e_z, self.e_rho + other.e_rho,
                           self.e_phi + other.e_phi, self.b_rho + other.b_rho,
                           self.b_phi + other.b_phi)

    def scaled(self, factor: complex) -> "FieldSample":
        return FieldSample(factor * self.e_z, factor * self.e_rho,
                           factor * self.e_phi, factor * self.b_rho,
                           factor * self.b_phi)


ZERO_SAMPLE = FieldSample(0j, 0j, 0j, 0j, 0j)


@_record
class ModeAmplitude:
    index: ModeIndex
    sign: int
    amplitude: complex


def _build_radial(m: int, gamma: float, a: float) -> RadialSolution:
    if a == 0.0:  # the cylinder
        return RadialSolution(m=m, gamma=gamma, coeff_j=1.0, coeff_n=0.0)
    ja, _, na, _ = _ladder(m, gamma * a, True)  # its caller memoizes the build
    if not 1e-300 <= abs(na) < math.inf:
        raise ConditioningError(
            f"N_{m}(gamma a) = {na!r} is too close to underflow or overflow to divide by")
    return RadialSolution(m=m, gamma=gamma, coeff_j=1.0, coeff_n=-ja / na)


# keyed by radial interval, so cavities of one cross-section share an entry; typed,
# so an order of 1.0 or True misses the entry of 1 and reaches the validators. A verify
# holds 5 entries, a library session 42, a field job 1; 1,024 of about 440 B, 0.45 MB
@_memo(1_024, typed=True)
def _radial_solution(m: int, n: int, a: float, b: float) -> RadialSolution:
    return _build_radial(m, _gamma(m, n, a, b), a)


def radial_solution(geometry: Geometry, m: int, n: int) -> RadialSolution:
    """Radial profile of mode (m, n): unit J coefficient, both walls matched."""
    return _radial_solution(m, n, _check_geometry(geometry).a, geometry.b)  # checked first


# a mode's radial solution, kz and the factors of E_rho, E_phi, B_rho and B_phi, each
# formed as the per-call product formed it, so factor * amplitude keeps its bits. A
# library session holds 336 entries, a verify 5; 4,096 of at most 650 B hold 2.7 MB
@_memo(4_096)
def _mode(m: int, n: int, p: int, sign: int, a: float, b: float, l: float) -> tuple:
    sol = _radial_solution(m, n, a, b)
    kz = p * math.pi / l
    inv_g2 = 1.0 / (sol.gamma * sol.gamma)
    b_coeff = _omega(sol.gamma, p, l) * inv_g2 / (C_LIGHT * C_LIGHT)
    return (sol, kz, -(kz * inv_g2), -1j * (sign * m * kz * inv_g2), sign * m * b_coeff,
            1j * b_coeff)


def _mode_of(geometry: Geometry, index: ModeIndex, sign: int) -> tuple:
    """The ``_mode`` entry of a checked geometry and sign, once index is a ModeIndex."""
    if type(index) is not ModeIndex:  # exact, and before the memo hashes its numbers
        _foreign(geometry, index, ModeIndex)
    return _mode(index.m, index.n, index.p, sign, geometry.a, geometry.b, geometry.l)


def _require_inside(geometry: Geometry, point: FieldPoint) -> tuple[float, float, float]:
    """(rho, phi, z) as floats, once point is a FieldPoint, each a finite real, and inside."""
    if type(point) is not FieldPoint:  # exact, and before a coordinate is read
        _foreign(geometry, point, FieldPoint)
    rho, phi, z = point.rho, point.phi, point.z
    # three floats, the usual case, skip the type test: one call runs per sample
    floats = type(rho) is float and type(phi) is float and type(z) is float
    if not floats:
        for name, value in (("rho", rho), ("phi", phi), ("z", z)):
            if not _finite_real(value):
                raise DomainError(f"{name} must be a finite real number, got {value!r}")
    lo = _check_geometry(geometry).a
    if not (lo <= rho <= geometry.b) or not (0.0 <= z <= geometry.l):
        raise DomainError(
            f"point (rho={rho!r}, z={z!r}) lies outside the cavity "
            f"closure rho in [{lo}, {geometry.b}], z in [0, {geometry.l}]")
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi!r}")
    return (rho, phi, z) if floats else (float(rho), float(phi), float(z))


def _check_sign(sign: int) -> int:
    # an exact type test rejects True and 1.0, and costs least: one runs per sample
    if type(sign) is not int or sign not in (1, -1):
        raise DomainError(f"orientation sign must be +1 or -1, got {sign!r}")
    return sign


def _check_amplitude(amplitude: complex) -> complex:
    """The amplitude once finite; any other complex as a complex, any other real as a float."""
    # a complex or a float, the usual case, passes the type test at once: one runs per sample
    kind = type(amplitude)
    number = (kind is complex or kind is float or isinstance(amplitude, complex)
              or _finite_real(amplitude))
    if not (number and cmath.isfinite(amplitude)):
        raise DomainError(f"amplitude must be finite, got {amplitude!r}")
    if kind is complex or kind is float:
        return amplitude
    return complex(amplitude) if isinstance(amplitude, complex) else float(amplitude)


def _angular(m: int, sign: int, phi: float) -> complex:
    return cmath.exp(1j * (sign * m * math.fmod(phi, _TWO_PI)))


def ez_mode(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
            point: FieldPoint) -> complex:
    """Axial field of one mode at one point."""
    _check_sign(sign)
    amplitude = _check_amplitude(amplitude)
    rho, phi, z = _require_inside(geometry, point)
    sol, kz = _mode_of(geometry, index, sign)[:2]
    e_z = amplitude * sol.value(rho) * _angular(index.m, sign, phi) * math.cos(kz * z)
    if not cmath.isfinite(e_z):
        raise DomainError(f"amplitude {amplitude!r} overflows the fields of mode "
                          f"({index.m}, {index.n}, {index.p}) at rho = {point.rho!r}")
    return e_z


def _scaled(index: ModeIndex, amplitude: complex, factors: tuple) -> tuple[complex, ...]:
    """The amplitude-carrying factors of E_rho, E_phi, B_rho and B_phi, for an
    amplitude ``_check_amplitude`` passed; one that overflows is a DomainError.

    Each component is factor * radial * axial * angular, multiplied left to
    right: the grid and the per-point path both rely on it to give the same bits.
    """
    scaled = tuple(factor * amplitude for factor in factors)
    if not all(map(cmath.isfinite, scaled)):
        raise DomainError(f"amplitude {amplitude!r} overflows the transverse fields "
                          f"of mode ({index.m}, {index.n}, {index.p})")
    return scaled


def _components(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
                rho: float, phi: float,
                z: float) -> tuple[complex, complex, complex, complex, complex]:
    """(E_z, E_rho, E_phi, B_rho, B_phi) of one mode at a point ``_require_inside``
    passed, for a sign ``_check_sign`` passed; the index and amplitude are checked here."""
    sol, kz, f_rho, f_phi, f_brho, f_bphi = _mode_of(geometry, index, sign)
    amplitude = _check_amplitude(amplitude)
    ang = _angular(index.m, sign, phi)
    cz = math.cos(kz * z)
    sz = math.sin(kz * z)
    r_val, slope, r_over_rho = sol.profile(rho)
    e_z = amplitude * r_val * ang * cz
    # (factor * amplitude) * radial * axial * phase, as in _scaled and the grid
    e_rho = f_rho * amplitude * slope * sz * ang
    e_phi = f_phi * amplitude * r_over_rho * sz * ang
    b_rho = f_brho * amplitude * r_over_rho * cz * ang
    b_phi = f_bphi * amplitude * slope * cz * ang
    finite = cmath.isfinite
    if not (finite(e_z) and finite(e_rho) and finite(e_phi) and finite(b_rho)
            and finite(b_phi)):
        # an overflowing factor leaves its component non-finite: name it first
        _scaled(index, amplitude, (f_rho, f_phi, f_brho, f_bphi))
        raise DomainError(f"amplitude {amplitude!r} overflows the fields of mode "
                          f"({index.m}, {index.n}, {index.p}) at rho = {rho!r}")
    return e_z, e_rho, e_phi, b_rho, b_phi


def transverse_fields(geometry: Geometry, index: ModeIndex, sign: int,
                      amplitude: complex, point: FieldPoint) -> FieldSample:
    """All five TM components of one mode at one point."""
    _check_sign(sign)
    rho, phi, z = _require_inside(geometry, point)
    return FieldSample(*_components(geometry, index, sign, amplitude, rho, phi, z))


def field_grid(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
               rhos: Iterable[float], phis: Iterable[float],
               zs: Iterable[float]) -> Iterator[tuple[float, ...]]:
    """One mode sampled over the product grid rhos x phis x zs.

    Yields flat rows (rho, phi, z, re_ez, im_ez, re_erho, im_erho, re_ephi,
    im_ephi, re_brho, im_brho, re_bphi, im_bphi) in ``itertools.product``
    order, z fastest. Every value is bit-identical to ``transverse_fields``
    at the same point. The sign, every coordinate and the mode are checked
    before this returns, so a bad grid raises before the first row.

    The amplitude check is conservative by design. Made before any row, it
    bounds each component's modulus, |factor| times the largest |radial|,
    which a part of the product reaches at some phase, so it refuses some
    amplitudes that ``transverse_fields`` accepts at a given point: for
    1.7e308+1.7e308j, |A| = 2.4e308 is above the largest float, and the grid
    raises even where no part of A R overflows.
    """
    _check_sign(sign)
    _check_geometry(geometry)  # here too, as an axis may be empty
    # each coordinate once, the other two at a point every cavity contains
    rhos = [_require_inside(geometry, FieldPoint(rho, 0.0, 0.0))[0] for rho in rhos]
    phis = [_require_inside(geometry, FieldPoint(geometry.b, phi, 0.0))[1] for phi in phis]
    zs = [_require_inside(geometry, FieldPoint(geometry.b, 0.0, z))[2] for z in zs]
    sol, kz, *factors = _mode_of(geometry, index, sign)
    amplitude = _check_amplitude(amplitude)
    k_rho, k_phi, k_brho, k_bphi = _scaled(index, amplitude, factors)
    profiles = [sol.profile(rho) for rho in rhos]
    # each component is factor * radial * axial * phase, and |axial|, |phase| <= 1,
    # so every part of every partial product is at most |factor| max|radial|
    # (Cauchy-Schwarz); below the limit none of them overflows
    value_peak, slope_peak, over_peak = (max(map(abs, c)) for c in zip((0.0,) * 3, *profiles))
    for factor, peak in ((amplitude, value_peak), (k_rho, slope_peak), (k_phi, over_peak),
                         (k_brho, over_peak), (k_bphi, slope_peak)):
        if math.hypot(factor.real, factor.imag) * peak > _PRODUCT_LIMIT:
            raise DomainError(f"amplitude {amplitude!r} overflows the fields of mode "
                              f"({index.m}, {index.n}, {index.p}) on this grid")

    def rows() -> Iterator[tuple[float, ...]]:
        angs = [_angular(index.m, sign, phi) for phi in phis]
        axial = [(z, math.cos(kz * z), math.sin(kz * z)) for z in zs]
        for rho, (r_val, slope, r_over_rho) in zip(rhos, profiles):
            a_r = amplitude * r_val
            # factor * radial * axial per z; the phase multiplies last, as in transverse_fields
            per_z = [(z, cz, k_rho * slope * sz, k_phi * r_over_rho * sz,
                      k_brho * r_over_rho * cz, k_bphi * slope * cz) for z, cz, sz in axial]
            for phi, ang in zip(phis, angs):
                a_r_ang = a_r * ang
                for z, cz, e_rho_z, e_phi_z, b_rho_z, b_phi_z in per_z:
                    e_z = a_r_ang * cz
                    e_rho = e_rho_z * ang
                    e_phi = e_phi_z * ang
                    b_rho = b_rho_z * ang
                    b_phi = b_phi_z * ang
                    yield (rho, phi, z, e_z.real, e_z.imag, e_rho.real, e_rho.imag,
                           e_phi.real, e_phi.imag, b_rho.real, b_rho.imag,
                           b_phi.real, b_phi.imag)

    return rows()


def superpose(geometry: Geometry, amplitudes: Iterable[ModeAmplitude],
              point: FieldPoint) -> FieldSample:
    """Componentwise sum over modes, accumulated in input order from 0j.

    The point is checked once; each term is checked as ``transverse_fields``
    checks it, and its sum is bit-identical to adding those samples.
    """
    rho, phi, z = _require_inside(geometry, point)
    e_z = e_rho = e_phi = b_rho = b_phi = 0j
    for term in amplitudes:
        if type(term) is not ModeAmplitude:
            _foreign(geometry, term, ModeAmplitude)
        sign = _check_sign(term.sign)
        t_z, t_rho, t_phi, t_brho, t_bphi = _components(geometry, term.index, sign,
                                                        term.amplitude, rho, phi, z)
        e_z += t_z
        e_rho += t_rho
        e_phi += t_phi
        b_rho += t_brho
        b_phi += t_bphi
    # each term is finite, but their sum can still overflow
    if not all(map(cmath.isfinite, (e_z, e_rho, e_phi, b_rho, b_phi))):
        raise DomainError(f"the sum of the modes overflows at rho = {point.rho!r}")
    return FieldSample(e_z, e_rho, e_phi, b_rho, b_phi)


def real_basis(plus: FieldSample, minus: FieldSample) -> tuple[FieldSample, FieldSample]:
    """Rotate an equal-amplitude e^{+imphi}/e^{-imphi} pair into cos/sin form.

    Returns (cos-oriented, sin-oriented) samples:
    cos = (plus + minus)/2, sin = (plus - minus)/(2i).
    """
    cos_sample = (plus + minus).scaled(0.5)
    sin_sample = (plus + minus.scaled(-1.0)).scaled(-0.5j)
    return cos_sample, sin_sample


def orthogonality_check(nu: int, n: int, k: int, a: float) -> tuple[float, float]:
    """Radial overlap of J_nu(x_nu_n rho/a) and J_nu(x_nu_k rho/a) on [0, a].

    Returns (adaptive quadrature value, closed-form expectation
    (a^2/2) J_{nu+1}(x_nu_n)^2 delta_nk). The integral is taken over
    t = rho/a in [0, 1] and scaled by a^2, so its nodes, and the ladder
    memo's keys, depend on (nu, n, k) only: each value is exactly a*a times
    its value at a = 1. That pair is memoized per (nu, n, k) after the
    arguments are checked, so a repeated call runs no quadrature.
    """
    _integer(nu, "nu", 0, 10)
    _integer(n, "n", 1, 20)
    _integer(k, "k", 1, 20)
    if not (_finite_real(a) and a > 0.0):
        raise DomainError(f"a must be a positive real number, got {a!r}")
    a = float(a)
    value, expected = _unit_overlap(nu, n, k)
    return a * a * value, a * a * expected


# the bound is the key space the validators allow (nu <= 10, n, k <= 20); (n, k)
# and (k, n) stay apart, as their integrands multiply in opposite orders
@_memo(4_400)
def _unit_overlap(nu: int, n: int, k: int) -> tuple[float, float]:
    # quadrature loads here, its only use, so a field grid never imports it
    from .quadrature import integrate_adaptive
    zeros = bessel_zeros(nu, max(n, k)).zeros
    xn = zeros[n - 1]
    xk = zeros[k - 1]

    def integrand(t: float) -> float:
        return (t * _cached_ladder(nu, xn * t, False)[0]
                * _cached_ladder(nu, xk * t, False)[0])

    result = integrate_adaptive(integrand, 0.0, 1.0, abs_tol=1e-10)
    expected = 0.5 * _cached_ladder(nu, xn, False)[1] ** 2 if n == k else 0.0
    return result.value, expected


# ---------------------------------------------------------------------------
# Verification probes
# ---------------------------------------------------------------------------

_GRID = 64


# the solution and its peaks of |R|, |dR/drho| and |R/rho| over the midpoints of
# _GRID equal cells of [a, b]: boundary_residual's interior, helmholtz_residual's
# scale. Undetuned, the solution is the field calls' own entry (gamma * 1.0 is
# gamma). A library session holds 42 entries; 1,024 of about 560 B hold 0.6 MB
@_memo(1_024)
def _interior(m: int, n: int, a: float, b: float, gamma_scale: float) -> tuple:
    sol = _radial_solution(m, n, a, b) if gamma_scale == 1.0 else \
        _build_radial(m, _gamma(m, n, a, b) * gamma_scale, a)
    inset = [a + (b - a) * (i + 0.5) / _GRID for i in range(_GRID)]
    return (sol, *(max(map(abs, c)) for c in zip(*map(sol.profile, inset))))


def _axial_maxima(kz: float, l: float) -> tuple[float, float, float]:
    # max |cos|, max |sin| over the axial grid, and |sin| on the far plate
    zs = [l * i / (_GRID - 1) for i in range(_GRID)]
    cos_max = max(abs(math.cos(kz * z)) for z in zs)
    sin_max = max(abs(math.sin(kz * z)) for z in zs)
    return cos_max, sin_max, abs(math.sin(kz * l))


def boundary_residual(geometry: Geometry, index: ModeIndex,
                      gamma_scale: float = 1.0) -> float:
    """Peak tangential field on the walls over peak interior field.

    Sampled on 64x64 grids per wall; the angular factor has unit modulus,
    so the grid maximum factorizes exactly into radial and axial maxima.
    ``gamma_scale`` deliberately detunes the eigenvalue (negative-control
    probe); the annular solution is rebuilt so the inner wall stays
    matched and only the outer-wall mismatch shows.

    The result is memoized per (m, n, p, float(gamma_scale), a, b, l) after
    the checks; an error is not, so the next call raises it again.
    """
    if not (_finite_real(gamma_scale) and gamma_scale > 0.0):
        raise DomainError(f"gamma_scale must be positive and finite, got {gamma_scale!r}")
    # before the memo hashes them: a foreign geometry or index may not be hashable
    _check_geometry(geometry)
    if type(index) is not ModeIndex:
        _foreign(geometry, index, ModeIndex)
    return _wall_residual(index.m, index.n, index.p, float(gamma_scale),
                          geometry.a, geometry.b, geometry.l)


# plain numbers, not the caller's objects, so the memo pins none of them
@_memo(4_096)
def _wall_residual(m: int, n: int, p: int, gamma_scale: float, a: float, b: float,
                   l: float) -> float:
    sol, value_peak, slope_in, over_in = _interior(m, n, a, b, gamma_scale)
    kz = p * math.pi / l
    inv_g2 = 1.0 / (sol.gamma * sol.gamma)
    cos_max, sin_max, sin_plate = _axial_maxima(kz, l)

    walls = [b] if a == 0.0 else [a, b]

    # radial-wall tangentials E_z and E_phi, both proportional to R(wall)
    wall_peak = 0.0
    for w in walls:
        r_w = abs(sol.value(w))
        wall_peak = max(wall_peak, r_w * cos_max)
        if m and kz:
            wall_peak = max(wall_peak, (m / w) * kz * inv_g2 * r_w * sin_max)

    # end-plate tangentials E_rho, E_phi: sin(0) = 0 exactly, the far plate
    # carries only the rounding of sin(p pi), and for p = 0 nothing to scan for
    if kz:
        rhos = [a + (b - a) * i / (_GRID - 1) for i in range(_GRID)]
        _, slope_peak, over_peak = (max(map(abs, c)) for c in zip(*map(sol.profile, rhos)))
        wall_peak = max(wall_peak, kz * inv_g2 * slope_peak * sin_plate)
        if m:
            wall_peak = max(wall_peak, m * kz * inv_g2 * over_peak * sin_plate)

    # interior peak across E_z, E_rho, E_phi on the inset grid
    zs_in = [l * (i + 0.5) / _GRID for i in range(_GRID)]
    cos_in = max(abs(math.cos(kz * z)) for z in zs_in)
    sin_in = max(abs(math.sin(kz * z)) for z in zs_in)
    interior_peak = max(value_peak * cos_in,
                        kz * inv_g2 * slope_in * sin_in,
                        m * kz * inv_g2 * over_in * sin_in)
    if interior_peak == 0.0:
        raise ConditioningError("interior field vanished; cannot normalize")
    return wall_peak / interior_peak


def helmholtz_residual(geometry: Geometry, index: ModeIndex, sign: int = 1,
                       npoints: int = 100, seed: int = 20260810) -> float:
    """Max relative second-difference residual of the axial wave equation.

    E_z is sampled at ``npoints`` (at most 10,000) interior points drawn from
    ``random.Random(seed)``, seed an int >= 0; the Laplacian is formed
    from the five-point radial/axial stencil plus the analytic angular
    term, and compared against -(omega/c)^2 E_z. The result is limited by
    the O(h^2) stencil, not by the field evaluation.
    """
    _integer(npoints, "npoints", 1, 10_000)  # 13-47 us a point: at most about 0.5 s
    rnd = random.Random(_integer(seed, "seed", 0))
    _check_sign(sign)
    k2 = (tm_frequency(geometry, index).omega / C_LIGHT) ** 2
    inner = geometry.a
    h = 1e-3 * (geometry.b - inner)
    g = 1e-3 * geometry.l
    m2 = index.m * index.m

    sol, kz = _mode_of(geometry, index, sign)[:2]
    # the peak of |R| over boundary_residual's inset grid, held with its scan
    scale = k2 * _interior(index.m, index.n, inner, geometry.b, 1.0)[1]
    m, gamma, cj, cn = sol.m, sol.gamma, sol.coeff_j, sol.coeff_n
    with_n = bool(cn)

    worst = 0.0
    for _ in range(npoints):
        # the stencil lies inside the cavity: rho and z are inset by 100 h and 100 g
        rho = inner + (geometry.b - inner) * rnd.uniform(0.1, 0.9)
        phi = rnd.uniform(0.0, _TWO_PI)
        z = geometry.l * rnd.uniform(0.1, 0.9)
        ang = _angular(index.m, sign, phi)
        cz = math.cos(kz * z)
        # R at rho and rho +- h as RadialSolution.value forms it; a call with
        # another seed never meets these points again, so they read past the
        # ladder memo
        radial = []
        for r in (rho, rho + h, rho - h):
            run = _ladder(m, gamma * r, with_n)
            radial.append(cj * run[0] + cn * run[2] if with_n else cj * run[0])
        r0, r_out, r_in = radial
        # E_z = R * phase * axial, multiplied in the order ez_mode uses
        r_ang = r0 * ang
        e0 = r_ang * cz
        e_out = r_out * ang * cz
        e_in = r_in * ang * cz
        d_rho = (e_out - 2.0 * e0 + e_in) / (h * h)
        d_rho += (e_out - e_in) / (2.0 * h * rho)
        d_z = (r_ang * math.cos(kz * (z + g)) - 2.0 * e0
               + r_ang * math.cos(kz * (z - g))) / (g * g)
        residual = abs(d_rho + d_z - (m2 / (rho * rho)) * e0 + k2 * e0)
        worst = max(worst, residual / scale)
    return worst
