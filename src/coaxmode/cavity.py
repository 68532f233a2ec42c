"""TM resonance spectra of hollow cylindrical and annular cavities.

A mode is labelled (m, n, p): angular order m >= 0, radial index n >= 1,
axial index p >= 0. Its angular frequency is

    omega_mnp = c * sqrt(gamma_mn^2 + (p pi / l)^2)

with gamma_mn = x_mn / b for the solid cylinder and gamma_mn the n-th
cross-product root for the annulus. p = 0 is a valid TM mode (the axial
cosine is then constant). Modes with m >= 1 come in two azimuthal
orientations and carry degeneracy 2; m = 0 modes carry 1.

Enumeration below a cutoff relies on monotonicity only: omega grows with
n at fixed (m, p), with p at fixed (m, n), and the smallest eigenvalue
per angular order, gamma_m1, grows with m. Scanning therefore terminates
provably without index caps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import DomainError, GeometryError, ResourceLimitError
from . import roots

C_LIGHT = 299_792_458.0  # exact SI speed of light, m/s

ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class CylinderGeometry:
    """Solid cylindrical cavity: wall at rho = b, end plates at z = 0, l."""

    b: float
    l: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise GeometryError(f"cylinder radius must be positive, got b={self.b!r}")
        if not (math.isfinite(self.l) and self.l > 0.0):
            raise GeometryError(f"cavity height must be positive, got l={self.l!r}")


@dataclass(frozen=True)
class AnnulusGeometry:
    """Annular (coaxial-ring) cavity: walls at rho = a and rho = b > a."""

    a: float
    b: float
    l: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and 0.0 < self.a < self.b):
            raise GeometryError(f"need 0 < a < b, got a={self.a!r}, b={self.b!r}")
        if self.a / self.b < roots.MIN_RADIUS_RATIO:
            raise GeometryError(
                f"a/b = {self.a / self.b:.2e} below {roots.MIN_RADIUS_RATIO}; "
                "model this as a cylinder instead")
        if not (math.isfinite(self.l) and self.l > 0.0):
            raise GeometryError(f"cavity height must be positive, got l={self.l!r}")


Geometry = Union[CylinderGeometry, AnnulusGeometry]


@dataclass(frozen=True)
class ModeIndex:
    m: int
    n: int
    p: int

    def __post_init__(self):
        ok = (isinstance(self.m, int) and isinstance(self.n, int) and isinstance(self.p, int)
              and self.m >= 0 and self.n >= 1 and self.p >= 0)
        if not ok:
            raise DomainError(
                f"mode index needs m >= 0, n >= 1, p >= 0, got {(self.m, self.n, self.p)}")


@dataclass(frozen=True)
class ModeEntry:
    """A mode with its radial eigenvalue (rad/m) and frequency (rad/s)."""

    index: ModeIndex
    gamma: float
    omega: float
    degeneracy: int


def radial_eigenvalue(geometry: Geometry, m: int, n: int) -> float:
    """gamma_mn in rad/m for either geometry (n-th radial eigenvalue).

    Reads entry n of the cached table without copying the table.
    """
    if isinstance(geometry, CylinderGeometry):
        return roots._bessel_zero(m, n) / geometry.b
    if isinstance(geometry, AnnulusGeometry):
        return roots._cross_zero(m, geometry.a, geometry.b, n)
    raise GeometryError(f"unsupported geometry {geometry!r}")


@lru_cache(maxsize=100_000)
def tm_frequency(geometry: Geometry, index: ModeIndex) -> ModeEntry:
    """Resolve one TM mode: eigenvalue, angular frequency, degeneracy."""
    gamma = radial_eigenvalue(geometry, index.m, index.n)
    omega = C_LIGHT * math.hypot(gamma, index.p * math.pi / geometry.l)
    return ModeEntry(index=index, gamma=gamma, omega=omega,
                     degeneracy=1 if index.m == 0 else 2)


def _axial_top(geometry: Geometry, m: int, n: int, omega_max: float) -> int:
    """Largest p with omega_mnp <= omega_max, or -1 if there is none.

    The closed form P = floor((l/pi) sqrt((omega_max/c)^2 - gamma_mn^2)) is
    stepped to the exact tm_frequency test. It is capped at ENUMERATION_CAP:
    a tower that long exceeds the cap whatever its exact length.
    """
    def above(p: int) -> bool:
        return tm_frequency(geometry, ModeIndex(m, n, p)).omega > omega_max

    if above(0):
        return -1
    k = omega_max / C_LIGHT
    gamma = tm_frequency(geometry, ModeIndex(m, n, 0)).gamma
    top = int(min(geometry.l / math.pi * math.sqrt(max(k - gamma, 0.0) * (k + gamma)),
                  ENUMERATION_CAP))
    while above(top):
        top -= 1
    while top < ENUMERATION_CAP and not above(top + 1):
        top += 1
    return top


def _append_order(modes: list[ModeEntry], geometry: Geometry, m: int,
                  omega_max: float) -> None:
    """Append every mode of angular order m below omega_max, one (m, n) tower at a time."""
    n = 1
    while True:
        if n > roots.COUNT_MAX:
            raise DomainError(
                f"omega_max = {omega_max!r} needs more than {roots.COUNT_MAX} radial "
                "eigenvalues per angular order; tighten the cutoff")
        top = _axial_top(geometry, m, n, omega_max)
        if top < 0:
            return
        if len(modes) + top + 1 > ENUMERATION_CAP:
            raise ResourceLimitError(
                f"spectrum below omega_max={omega_max!r} exceeds {ENUMERATION_CAP} modes")
        modes.extend(tm_frequency(geometry, ModeIndex(m, n, p)) for p in range(top + 1))
        n += 1


def enumerate_modes_below(geometry: Geometry, omega_max: float) -> list[ModeEntry]:
    """Every TM mode with omega <= omega_max, sorted by (omega, m, n, p).

    Raises ResourceLimitError beyond 10^7 entries, before building them.
    """
    if not (math.isfinite(omega_max) and omega_max > 0.0):
        raise DomainError(f"omega_max must be positive and finite, got {omega_max!r}")
    modes: list[ModeEntry] = []
    m = 0
    while True:
        if m > roots.ORDER_MAX:
            raise DomainError(
                f"omega_max = {omega_max!r} needs angular orders beyond "
                f"{roots.ORDER_MAX}; tighten the cutoff")
        if C_LIGHT * radial_eigenvalue(geometry, m, 1) > omega_max:
            break
        _append_order(modes, geometry, m, omega_max)
        m += 1
    modes.sort(key=lambda e: (e.omega, e.index.m, e.index.n, e.index.p))
    return modes


def mode_count_histogram(geometry: Geometry, omega_max: float,
                         bins: int) -> list[tuple[float, int]]:
    """Cumulative degeneracy-weighted mode counts at ``bins`` frequency edges.

    Edges are omega_max * i / bins for i = 1..bins; the last cumulative
    count therefore equals the weighted total of enumerate_modes_below.
    """
    if not isinstance(bins, int) or bins < 1 or bins > 100_000:
        raise DomainError(f"bins must be an integer in [1, 100000], got {bins!r}")
    modes = enumerate_modes_below(geometry, omega_max)
    omegas = [e.omega for e in modes]
    cumulative = [0]
    for e in modes:
        cumulative.append(cumulative[-1] + e.degeneracy)
    out = []
    for i in range(1, bins + 1):
        edge = omega_max if i == bins else omega_max * i / bins
        out.append((edge, cumulative[bisect_right(omegas, edge)]))
    return out
