"""TM mode fields: axial E_z, transverse E and B, superposition, checks.

One mode (m, n, p) with orientation sign s (the e^{+-imphi} choice) has

    E_z   = A R(rho) e^{ismphi} cos(kz z),          kz = p pi / l
    E_t   = (1/gamma^2) grad_t dE_z/dz
    B_t   = (i omega / (c^2 gamma^2)) e_z x grad_t E_z

where R is J_m(gamma rho) for the cylinder and the J/N combination that
vanishes at both walls for the annulus. E_rho and E_phi carry sin(kz z)
and vanish identically for p = 0 and on the end plates; E_z and E_phi
vanish on the radial walls through R itself.

The azimuthal angle is reduced mod 2 pi before use, so samples at phi
and phi + 2 pi are bit-identical whenever the addition was exact; a
non-finite phi is a DomainError. On the axis the removable 1/rho
singularities are replaced by their limits: J_1(gamma rho)/rho -> gamma/2,
everything else -> 0.

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
from collections.abc import Hashable
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .cavity import (AnnulusGeometry, C_LIGHT, CylinderGeometry, Geometry,
                     ModeIndex, _omega, radial_eigenvalue, tm_frequency)
from .errors import (ConditioningError, DomainError, GeometryError, _finite_real, _integer,
                     _record)
from .roots import bessel_zeros
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

    def _value_and_slope(self, rho: float) -> tuple[float, float]:
        # (R, dR/drho) from one ladder
        m = self.m
        x = self.gamma * rho
        ladder = _cached_ladder(m, x, bool(self.coeff_n))
        r = self.coeff_j * ladder[0]
        s = self.coeff_j * _slope(m, x, ladder[0], ladder[1])
        if self.coeff_n:
            r += self.coeff_n * ladder[2]
            s += self.coeff_n * _slope(m, x, ladder[2], ladder[3])
        return r, self.gamma * s

    def value(self, rho: float,
              ladder: Callable[[int, float, bool], tuple[float, ...]] = _cached_ladder) -> float:
        """R(rho), read through the ladder memo; ``ladder=specfun._ladder`` reads
        past it, with the same bits, for a point that will not come again."""
        run = ladder(self.m, self.gamma * rho, bool(self.coeff_n))
        r = self.coeff_j * run[0]
        if self.coeff_n:
            r += self.coeff_n * run[2]
        return r

    def slope(self, rho: float) -> float:
        """dR/drho (not d/dx)."""
        return self._value_and_slope(rho)[1]

    def profile(self, rho: float) -> tuple[float, float, float]:
        """(R, dR/drho, R/rho), with R/rho at its limit on the axis.

        On the axis J_1(gamma rho)/rho -> gamma/2 and every other order's
        R/rho -> 0.
        """
        r, slope = self._value_and_slope(rho)
        if rho == 0.0:
            over = 0.5 * self.gamma * self.coeff_j if self.m == 1 else 0.0
        else:
            over = r / rho
        return r, slope, over


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


def _build_radial(geometry: Geometry, m: int, gamma: float) -> RadialSolution:
    if isinstance(geometry, CylinderGeometry):
        return RadialSolution(m=m, gamma=gamma, coeff_j=1.0, coeff_n=0.0)
    ja, _, na, _ = _cached_ladder(m, gamma * geometry.a, True)
    if not 1e-300 <= abs(na) < math.inf:
        raise ConditioningError(
            f"N_{m}(gamma a) = {na!r} is too close to underflow or overflow to divide by")
    return RadialSolution(m=m, gamma=gamma, coeff_j=1.0, coeff_n=-ja / na)


# typed, so an order of 1.0 or True misses the entry of 1 and reaches the validators
@lru_cache(maxsize=65536, typed=True)
def radial_solution(geometry: Geometry, m: int, n: int) -> RadialSolution:
    """Radial profile of mode (m, n): unit J coefficient, both walls matched."""
    return _build_radial(geometry, m, radial_eigenvalue(geometry, m, n))


def _require_inside(geometry: Geometry, rho: float, phi: float, z: float) -> None:
    # three floats, the usual case, skip the type test: one call runs per sample
    if not (type(rho) is float and type(phi) is float and type(z) is float):
        for name, value in (("rho", rho), ("phi", phi), ("z", z)):
            if not _finite_real(value):
                raise DomainError(f"{name} must be a finite real number, got {value!r}")
    lo = geometry.a if isinstance(geometry, AnnulusGeometry) else 0.0
    if not (lo <= rho <= geometry.b) or not (0.0 <= z <= geometry.l):
        raise DomainError(
            f"point (rho={rho!r}, z={z!r}) lies outside the cavity "
            f"closure rho in [{lo}, {geometry.b}], z in [0, {geometry.l}]")
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi!r}")


def _check_sign(sign: int) -> int:
    # an exact type test rejects True and 1.0, and costs least: one runs per sample
    if type(sign) is not int or sign not in (1, -1):
        raise DomainError(f"orientation sign must be +1 or -1, got {sign!r}")
    return sign


def _check_amplitude(amplitude: complex) -> None:
    # a complex or a float, the usual case, passes the type test at once: one runs per sample
    kind = type(amplitude)
    number = (kind is complex or kind is float or isinstance(amplitude, complex)
              or _finite_real(amplitude))
    if not (number and cmath.isfinite(amplitude)):
        raise DomainError(f"amplitude must be finite, got {amplitude!r}")


def _angular(m: int, sign: int, phi: float) -> complex:
    return cmath.exp(1j * (sign * m * math.fmod(phi, _TWO_PI)))


def ez_mode(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
            point: FieldPoint) -> complex:
    """Axial field of one mode at one point."""
    _check_sign(sign)
    _check_amplitude(amplitude)
    _require_inside(geometry, point.rho, point.phi, point.z)
    sol = radial_solution(geometry, index.m, index.n)
    kz = index.p * math.pi / geometry.l
    return (amplitude * sol.value(point.rho)
            * _angular(index.m, sign, point.phi) * math.cos(kz * point.z))


def _mode_factors(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
                  gamma: float) -> tuple[float, complex, complex, complex, complex]:
    """kz and the amplitude-carrying factors of E_rho, E_phi, B_rho and B_phi.

    Each component is factor * radial * axial * angular, multiplied left to
    right in that order; the grid and the per-point path both rely on it to
    give the same bits. A non-finite amplitude, or a finite one that
    overflows a factor, is a DomainError.
    """
    _check_amplitude(amplitude)
    kz = index.p * math.pi / geometry.l
    omega = _omega(gamma, index.p, geometry.l)
    inv_g2 = 1.0 / (gamma * gamma)
    b_coeff = omega * inv_g2 / (C_LIGHT * C_LIGHT)
    m = index.m
    k_rho = -(kz * inv_g2) * amplitude
    k_phi = -1j * (sign * m * kz * inv_g2) * amplitude
    k_brho = (sign * m * b_coeff) * amplitude
    k_bphi = 1j * b_coeff * amplitude
    finite = cmath.isfinite
    if not (finite(k_rho) and finite(k_phi) and finite(k_brho) and finite(k_bphi)):
        raise DomainError(f"amplitude {amplitude!r} overflows the transverse fields "
                          f"of mode ({index.m}, {index.n}, {index.p})")
    return kz, k_rho, k_phi, k_brho, k_bphi


def transverse_fields(geometry: Geometry, index: ModeIndex, sign: int,
                      amplitude: complex, point: FieldPoint) -> FieldSample:
    """All five TM components of one mode at one point."""
    _check_sign(sign)
    _require_inside(geometry, point.rho, point.phi, point.z)
    sol = radial_solution(geometry, index.m, index.n)
    kz, k_rho, k_phi, k_brho, k_bphi = _mode_factors(geometry, index, sign, amplitude,
                                                     sol.gamma)
    ang = _angular(index.m, sign, point.phi)
    cz = math.cos(kz * point.z)
    sz = math.sin(kz * point.z)
    r_val, slope, r_over_rho = sol.profile(point.rho)
    e_z = amplitude * r_val * ang * cz
    e_rho = k_rho * slope * sz * ang
    e_phi = k_phi * r_over_rho * sz * ang
    b_rho = k_brho * r_over_rho * cz * ang
    b_phi = k_bphi * slope * cz * ang
    finite = cmath.isfinite
    if not (finite(e_z) and finite(e_rho) and finite(e_phi) and finite(b_rho)
            and finite(b_phi)):
        raise DomainError(f"amplitude {amplitude!r} overflows the fields of mode "
                          f"({index.m}, {index.n}, {index.p}) at rho = {point.rho!r}")
    return FieldSample(e_z, e_rho, e_phi, b_rho, b_phi)


def field_grid(geometry: Geometry, index: ModeIndex, sign: int, amplitude: complex,
               rhos: Iterable[float], phis: Iterable[float],
               zs: Iterable[float]) -> Iterator[tuple[float, ...]]:
    """One mode sampled over the product grid rhos x phis x zs.

    Yields flat rows (rho, phi, z, re_ez, im_ez, re_erho, im_erho, re_ephi,
    im_ephi, re_brho, im_brho, re_bphi, im_bphi) in ``itertools.product``
    order, z fastest. Every value is bit-identical to ``transverse_fields``
    at the same point. The sign, every coordinate and the mode are checked
    before this returns, so a bad grid raises before the first row.
    """
    _check_sign(sign)
    rhos, phis, zs = tuple(rhos), tuple(phis), tuple(zs)
    # each coordinate once, the other two at a point every cavity contains
    for rho in rhos:
        _require_inside(geometry, rho, 0.0, 0.0)
    for phi in phis:
        _require_inside(geometry, geometry.b, phi, 0.0)
    for z in zs:
        _require_inside(geometry, geometry.b, 0.0, z)
    sol = radial_solution(geometry, index.m, index.n)
    kz, k_rho, k_phi, k_brho, k_bphi = _mode_factors(geometry, index, sign, amplitude,
                                                     sol.gamma)
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
    """Componentwise sum over modes, accumulated in input order."""
    _require_inside(geometry, point.rho, point.phi, point.z)
    total = ZERO_SAMPLE
    for term in amplitudes:
        total = total + transverse_fields(geometry, term.index, term.sign,
                                          term.amplitude, point)
    # each term is finite, but their sum can still overflow
    if not all(map(cmath.isfinite, (total.e_z, total.e_rho, total.e_phi, total.b_rho,
                                    total.b_phi))):
        raise DomainError(f"the sum of the modes overflows at rho = {point.rho!r}")
    return total


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
    arguments are checked, so a repeated call costs one lookup and runs no
    quadrature.
    """
    _integer(nu, "nu", 0, 10)
    _integer(n, "n", 1, 20)
    _integer(k, "k", 1, 20)
    if not (_finite_real(a) and a > 0.0):
        raise DomainError(f"a must be a positive real number, got {a!r}")
    value, expected = _unit_overlap(nu, n, k)
    return a * a * value, a * a * expected


# the validators bound the key to nu <= 10 and n, k <= 20, at most 4,400
# entries, so the memo needs no eviction; (n, k) and (k, n) stay apart, since
# their integrands multiply the two factors in opposite orders
@lru_cache(maxsize=None)
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

    Once the scale and the geometry are checked, the result is read from
    an LRU memo of 4,096 entries keyed on (geometry, m, n, p, gamma_scale),
    so a repeated call costs one lookup. An error is not memoized: the
    next call raises it again.
    """
    if not (_finite_real(gamma_scale) and gamma_scale > 0.0):
        raise DomainError(f"gamma_scale must be positive and finite, got {gamma_scale!r}")
    m, n, p = index.m, index.n, index.p
    # before the memo hashes it: a foreign geometry may not be hashable
    if not isinstance(geometry, (CylinderGeometry, AnnulusGeometry)):
        raise GeometryError(f"unsupported geometry {geometry!r}")
    # a real that cannot key the memo (a 0-d numpy array) is computed afresh
    residual = _wall_residual if isinstance(gamma_scale, Hashable) else _wall_residual.__wrapped__
    return residual(geometry, m, n, p, gamma_scale)


# plain ints, not the caller's ModeIndex, so the memo pins no caller object;
# typed, so a scale of 1 and one of 1.0 keep their own entries
@lru_cache(maxsize=4096, typed=True)
def _wall_residual(geometry: Geometry, m: int, n: int, p: int, gamma_scale: float) -> float:
    gamma = radial_eigenvalue(geometry, m, n) * gamma_scale
    sol = _build_radial(geometry, m, gamma)
    l = geometry.l
    kz = p * math.pi / l
    inv_g2 = 1.0 / (gamma * gamma)
    cos_max, sin_max, sin_plate = _axial_maxima(kz, l)

    inner = geometry.a if isinstance(geometry, AnnulusGeometry) else 0.0
    walls = [geometry.b] if inner == 0.0 else [inner, geometry.b]

    # radial-wall tangentials E_z and E_phi, both proportional to R(wall)
    wall_peak = 0.0
    for w in walls:
        r_w = abs(sol.value(w))
        wall_peak = max(wall_peak, r_w * cos_max)
        if m and kz:
            wall_peak = max(wall_peak, (m / w) * kz * inv_g2 * r_w * sin_max)

    # end-plate tangentials E_rho, E_phi: sin(0) = 0 exactly, the far plate
    # carries only the rounding of sin(p pi)
    rhos = [inner + (geometry.b - inner) * i / (_GRID - 1) for i in range(_GRID)]
    # peaks of |R|, |dR/drho| and |R/rho| over each radial grid
    _, slope_peak, over_peak = (max(map(abs, c)) for c in zip(*map(sol.profile, rhos)))
    if kz:
        wall_peak = max(wall_peak, kz * inv_g2 * slope_peak * sin_plate)
        if m:
            wall_peak = max(wall_peak, m * kz * inv_g2 * over_peak * sin_plate)

    # interior peak across E_z, E_rho, E_phi on an inset grid
    inset = [inner + (geometry.b - inner) * (i + 0.5) / _GRID for i in range(_GRID)]
    value_peak, slope_in, over_in = (max(map(abs, c)) for c in zip(*map(sol.profile, inset)))
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
    _integer(npoints, "npoints", 1, 10_000)  # ~23 us a point: at most about 0.25 s
    rnd = random.Random(_integer(seed, "seed", 0))
    _check_sign(sign)
    entry = tm_frequency(geometry, index)
    k2 = (entry.omega / C_LIGHT) ** 2
    inner = geometry.a if isinstance(geometry, AnnulusGeometry) else 0.0
    h = 1e-3 * (geometry.b - inner)
    g = 1e-3 * geometry.l
    m2 = index.m * index.m
    kz = index.p * math.pi / geometry.l

    sol = radial_solution(geometry, index.m, index.n)
    # boundary_residual's inset grid, so these reads stay on the ladder memo
    rhos = [inner + (geometry.b - inner) * (i + 0.5) / _GRID for i in range(_GRID)]
    scale = k2 * max(abs(sol.value(r)) for r in rhos)

    worst = 0.0
    for _ in range(npoints):
        # the stencil lies inside the cavity: rho and z are inset by 100 h and 100 g
        rho = inner + (geometry.b - inner) * rnd.uniform(0.1, 0.9)
        phi = rnd.uniform(0.0, _TWO_PI)
        z = geometry.l * rnd.uniform(0.1, 0.9)
        ang = _angular(index.m, sign, phi)
        cz = math.cos(kz * z)
        # E_z = R * phase * axial, multiplied in the order ez_mode uses; a call
        # with another seed never meets these points again, so they read past
        # the ladder memo
        r_ang = sol.value(rho, _ladder) * ang
        e0 = r_ang * cz
        e_out = sol.value(rho + h, _ladder) * ang * cz
        e_in = sol.value(rho - h, _ladder) * ang * cz
        d_rho = (e_out - 2.0 * e0 + e_in) / (h * h)
        d_rho += (e_out - e_in) / (2.0 * h * rho)
        d_z = (r_ang * math.cos(kz * (z + g)) - 2.0 * e0
               + r_ang * math.cos(kz * (z - g))) / (g * g)
        residual = abs(d_rho + d_z - (m2 / (rho * rho)) * e0 + k2 * e0)
        worst = max(worst, residual / scale)
    return worst
