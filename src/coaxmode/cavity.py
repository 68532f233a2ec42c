"""TM resonance spectra of hollow cylindrical and annular cavities.

A mode is labelled (m, n, p): angular order m >= 0, radial index n >= 1,
axial index p >= 0. Its angular frequency is

    omega_mnp = c * sqrt(gamma_mn^2 + (p pi / l)^2)

with gamma_mn the n-th radial eigenvalue of the interval [a, b] the
cross-section spans (a = 0.0 for the solid cylinder), which this module
reads, bounds and counts only through ``roots``. p = 0 is a valid TM mode
(the axial cosine is then constant). Modes with m >= 1 come in two
azimuthal orientations and carry degeneracy 2; m = 0 modes carry 1.

Enumeration below a cutoff relies on monotonicity only: omega grows with
n at fixed (m, p), with p at fixed (m, n), and the smallest eigenvalue
per angular order, gamma_m1, grows with m. Scanning therefore terminates
provably without index caps. One scan yields the (m, n) towers of axial
modes below the cutoff; it takes the walls, the height and the cutoff that
the public call checked once. mode_count_histogram bins each tower in
O(bins) memory and builds no ModeEntry.

enumerate_modes_below keeps each geometry's sorted spectrum, the way roots
keeps root tables: one ``_spectrum`` memo entry, grown with the cutoff. A
call at or below the held cutoff returns a prefix of the held list; a higher
cutoff builds only the modes above the held one, sorts them and appends
them. Every held omega is at most the held cutoff and every new one above
it, so the concatenation is the order a cold sort gives, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Union

from .errors import (DomainError, GeometryError, ResourceLimitError, _finite_real, _integer,
                     _memo, _record)
from . import roots

C_LIGHT = 299_792_458.0  # exact SI speed of light, m/s

ENUMERATION_CAP = 10_000_000


def _set_positive(record: object, name: str, what: str) -> None:
    """Check that field ``name`` of record is positive and finite, and store it as a float."""
    value = getattr(record, name)
    if not (_finite_real(value) and value > 0.0):
        raise GeometryError(f"{what} must be positive, got {name}={value!r}")
    object.__setattr__(record, name, float(value))


@_record
class CylinderGeometry:
    """Solid cylindrical cavity: radial interval [a, b] with a = 0.0, end plates at z = 0, l."""

    a = 0.0  # a class constant, not a field
    b: float
    l: float

    def __post_init__(self):
        _set_positive(self, "b", "cylinder radius")
        _set_positive(self, "l", "cavity height")


@_record
class AnnulusGeometry:
    """Annular (coaxial-ring) cavity: walls at rho = a and rho = b > a."""

    a: float
    b: float
    l: float

    def __post_init__(self):
        a, b = roots._check_walls(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _set_positive(self, "l", "cavity height")


Geometry = Union[CylinderGeometry, AnnulusGeometry]


def _check_geometry(geometry: Geometry) -> Geometry:
    """geometry, if it is one of the two records; else GeometryError."""
    if not isinstance(geometry, (CylinderGeometry, AnnulusGeometry)):
        raise GeometryError(f"unsupported geometry {geometry!r}")
    return geometry


@_record
class ModeIndex:
    m: int
    n: int
    p: int

    def __post_init__(self):
        # exact type tests, which reject bool and cost least: one runs per mode
        ok = (type(self.m) is int and type(self.n) is int and type(self.p) is int
              and self.m >= 0 and self.n >= 1 and self.p >= 0)
        if not ok:
            raise DomainError(
                f"mode index needs m >= 0, n >= 1, p >= 0, got {(self.m, self.n, self.p)}")


def _foreign(geometry: Geometry, value: object, kind: type) -> None:
    """Raise for a value not exactly of type ``kind``, after the geometry check."""
    _check_geometry(geometry)
    raise DomainError(f"expected a {kind.__name__}, got {value!r}")


@_record
class ModeEntry:
    """A mode with its radial eigenvalue (rad/m) and frequency (rad/s)."""

    index: ModeIndex
    gamma: float
    omega: float
    degeneracy: int


def radial_eigenvalue(geometry: Geometry, m: int, n: int) -> float:
    """gamma_mn in rad/m for either geometry (n-th radial eigenvalue), read in place."""
    geometry = _check_geometry(geometry)
    return roots._gamma(m, n, geometry.a, geometry.b)


def _omega(gamma: float, p: int, l: float) -> float:
    """omega_mnp from gamma_mn: the one expression every frequency comes from."""
    return C_LIGHT * math.hypot(gamma, p * math.pi / l)


def tm_frequency(geometry: Geometry, index: ModeIndex) -> ModeEntry:
    """Resolve one TM mode: eigenvalue, angular frequency, degeneracy."""
    _check_geometry(geometry)
    if type(index) is not ModeIndex:  # exact, and before the memo hashes its numbers
        _foreign(geometry, index, ModeIndex)
    gamma, omega = _resolved(index.m, index.n, index.p, geometry.a, geometry.b, geometry.l)
    return ModeEntry(index, gamma, omega, 1 if index.m == 0 else 2)


# (gamma, omega) of a mode. A library session holds 616 entries and a full verify
# 32; 1,024 of about 310 B hold 0.32 MB
@_memo(1_024)
def _resolved(m: int, n: int, p: int, a: float, b: float, l: float) -> tuple[float, float]:
    gamma = roots._gamma(m, n, a, b)
    return gamma, _omega(gamma, p, l)


def _axial_top(gamma: float, l: float, omega_max: float) -> int:
    """Largest p with omega_mnp <= omega_max, or -1 if there is none.

    The closed form P = floor((l/pi) sqrt((omega_max/c)^2 - gamma_mn^2)) is
    stepped to the exact ``_omega`` test. It is capped at ENUMERATION_CAP:
    a tower that long exceeds the cap whatever its exact length.
    """
    def above(p: int) -> bool:
        return _omega(gamma, p, l) > omega_max

    if above(0):
        return -1
    k = omega_max / C_LIGHT
    top = int(min(l / math.pi * math.sqrt(max(k - gamma, 0.0) * (k + gamma)),
                  ENUMERATION_CAP))
    while above(top):
        top -= 1
    while top < ENUMERATION_CAP and not above(top + 1):
        top += 1
    return top


def _stops_at_order_envelope(a: float, b: float, l: float, omega_max: float) -> bool:
    """Whether the order scan below omega_max would end by passing ORDER_MAX.

    gamma_m1 grows with m, so the scan passes M = ORDER_MAX exactly when
    c gamma_{M,1} <= omega_max. On the way it would first raise
    ResourceLimitError, or DomainError for more than COUNT_MAX radial
    eigenvalues, if the spectrum of orders 0..M were that large; this says
    True only where ``roots._count_bound`` rules both out, so every cutoff
    keeps the error the scan would give. A tower holds at most k l/pi + 2
    axial indices. ``roots._gamma_floor`` rules most cutoffs out before
    gamma_{M,1} is computed.
    """
    top = roots.ORDER_MAX
    k = omega_max / C_LIGHT
    radial = roots._count_bound(k, a, b)
    axial = k * l / math.pi + 2.0
    return (radial < roots.COUNT_MAX
            and (top + 1) * radial * axial <= ENUMERATION_CAP
            and C_LIGHT * roots._gamma_floor(top, 1, a, b) <= omega_max
            and C_LIGHT * roots._gamma(top, 1, a, b) <= omega_max)


def _cutoff(omega_max: float) -> float:
    """omega_max as a float, once it is a positive finite real; else DomainError."""
    if not (_finite_real(omega_max) and omega_max > 0.0):
        raise DomainError(f"omega_max must be positive and finite, got {omega_max!r}")
    return float(omega_max)


def _towers(a: float, b: float, l: float, omega_max: float) -> list[tuple[int, int, float, int]]:
    """Each (m, n, gamma_mn, top p) tower of modes with omega <= omega_max.

    Only the tower sizes are known here, so every error is raised before
    any mode is built: ResourceLimitError beyond 10^7 modes, and
    DomainError when the cutoff needs angular orders beyond
    roots.ORDER_MAX (where a count bound shows that nothing else would
    stop the scan first, before any order is scanned) or more than
    roots.COUNT_MAX radial eigenvalues in one order.
    """
    beyond = DomainError(f"omega_max = {omega_max!r} needs angular orders beyond "
                         f"{roots.ORDER_MAX}; tighten the cutoff")
    if _stops_at_order_envelope(a, b, l, omega_max):
        raise beyond
    towers: list[tuple[int, int, float, int]] = []
    size = 0
    for m in range(roots.ORDER_MAX + 1):
        for n in range(1, roots.COUNT_MAX + 1):
            gamma = roots._gamma(m, n, a, b)
            top = _axial_top(gamma, l, omega_max)
            if top < 0:
                break
            size += top + 1
            if size > ENUMERATION_CAP:
                raise ResourceLimitError(
                    f"spectrum below omega_max={omega_max!r} exceeds {ENUMERATION_CAP} modes")
            towers.append((m, n, gamma, top))
        else:
            raise DomainError(
                f"omega_max = {omega_max!r} needs more than {roots.COUNT_MAX} radial "
                "eigenvalues per angular order; tighten the cutoff")
        if n == 1:  # gamma_m1 grows with m: no later order has a mode either
            return towers
    raise beyond


# a snapshot is kept while it holds at most this many modes; at about 370 B a
# mode (each record's fields sit in its own instance dict) the store holds at
# most 16 x 2,048 modes, about 12 MB. A library session holds 230 and 194,
# verify and a modes job tens
_SPECTRUM_MODES = 2_048


@_memo(16)
def _spectrum(geometry: Geometry) -> list[tuple[float, list[float], list[ModeEntry]]]:
    """A one-slot holder of geometry's spectrum: [(cutoff, omegas, entries)].

    It starts empty at cutoff 0.0. The entries are every mode with omega <=
    cutoff in sorted order, and omegas their frequencies. A snapshot is never
    changed: a longer one replaces it by one assignment, so a reader slices
    the snapshot it read, and two threads that extend at once each publish a
    valid one.
    """
    return [(0.0, [], [])]


def enumerate_modes_below(geometry: Geometry, omega_max: float) -> list[ModeEntry]:
    """Every TM mode with omega <= omega_max, sorted by (omega, m, n, p), as a new list.

    Raises what ``_towers`` raises, before any entry is built; a cutoff at
    or below one a scan has passed raises nothing the scan would not.
    """
    omega_max = _cutoff(omega_max)
    # before the store hashes it: a foreign geometry may not be hashable
    holder = _spectrum(_check_geometry(geometry))
    cutoff, omegas, entries = holder[0]
    if omega_max > cutoff:
        l = geometry.l
        # only the modes above the held cutoff; (m, n, p) is unique, so sorting
        # the plain tuples orders them
        modes = sorted((_omega(gamma, p, l), m, n, p, gamma)
                       for m, n, gamma, top in _towers(geometry.a, geometry.b, l, omega_max)
                       for p in range(_axial_top(gamma, l, cutoff) + 1, top + 1))
        omegas = omegas + [mode[0] for mode in modes]
        entries = entries + [ModeEntry(ModeIndex(m, n, p), gamma, omega, 1 if m == 0 else 2)
                             for omega, m, n, p, gamma in modes]
        if len(entries) > _SPECTRUM_MODES:
            return entries
        holder[0] = (omega_max, omegas, entries)
    count = bisect_right(omegas, omega_max)
    if count > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"spectrum below omega_max={omega_max!r} exceeds {ENUMERATION_CAP} modes")
    return entries[:count]


def mode_count_histogram(geometry: Geometry, omega_max: float,
                         bins: int) -> list[tuple[float, int]]:
    """Cumulative degeneracy-weighted mode counts at ``bins`` frequency edges.

    Edges are omega_max * i / bins for i = 1..bins; the last cumulative
    count therefore equals the weighted total of enumerate_modes_below.
    Each tower is binned where it stands, in O(bins) memory: no ModeEntry
    is built and nothing is sorted.
    """
    _integer(bins, "bins", 1, 100_000)
    omega_max = _cutoff(omega_max)
    l = _check_geometry(geometry).l
    towers = _towers(geometry.a, geometry.b, l, omega_max)
    edges = [omega_max if i == bins else omega_max * i / bins for i in range(1, bins + 1)]
    counts = [0] * bins
    for m, n, gamma, top in towers:
        weight = 1 if m == 0 else 2
        for p in range(top + 1):
            # the first edge >= omega: the mode counts at every edge from there on
            counts[bisect_left(edges, _omega(gamma, p, l))] += weight
    return list(zip(edges, accumulate(counts)))
