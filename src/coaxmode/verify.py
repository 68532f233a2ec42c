"""Self-contained invariant suites, one per module, for the CLI verifier.

Each check returns a CheckResult with a human-readable detail string.
The suites are deterministic (fixed seeds) and sized to finish in a few
seconds together. Each suite imports the layers it checks when it runs,
so ``run_checks`` for specfun or roots loads neither cavity nor fields.

The cavity suite compares the cutoff enumeration with an exhaustive loop
over every (m, n, p) up to 20. That loop settles each (m, n) first with
``roots._gamma_floor``, a closed-form lower bound on gamma_mn: where omega
at that bound and p = 0 already exceeds the cutoff, no p gives a mode and
the eigenvalue is not read, so only the roots near the cutoff are polished.
Otherwise it reads gamma_mn once, through ``cavity.radial_eigenvalue``, and
forms omega for all 21 axial indices with ``cavity._omega``, the expression
``tm_frequency`` and the enumeration use, so the two sides compare bit for
bit while no ``ModeEntry`` is built per triple. The bound is not one of the
enumeration's stopping rules: the loop decides every triple up to the cap
by itself, so a wrong stopping rule makes the two sides differ instead of
hiding the same mode from both.
"""

from __future__ import annotations

import math
import random

from .errors import DomainError, _record

MODULES = ("specfun", "roots", "cavity", "fields")


@_record
class CheckResult:
    module: str
    check: str
    passed: bool
    detail: str


def _result(module, check, passed, detail):
    return CheckResult(module=module, check=check, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def _specfun_checks() -> list[CheckResult]:
    from . import roots, specfun
    out = []
    rng = random.Random(101)

    worst = 0.0
    for _ in range(400):
        m = rng.randint(1, 19)
        x = rng.uniform(0.1, 50.0)
        for fam in ("J", "N"):
            f = specfun.bessel_j if fam == "J" else specfun.neumann_n
            lo = f(m - 1, x).value
            mid = f(m, x).value
            hi = f(m + 1, x).value
            res = abs(lo + hi - (2.0 * m / x) * mid) / max(1.0, abs(mid))
            worst = max(worst, res)
    tol = 1e-10
    out.append(_result("specfun", "three_term_recursion", worst <= tol,
                       f"worst residual {worst:.2e} (tol {tol:.1e})"))

    ok = True
    for _ in range(60):
        m = rng.randint(1, 20)
        x = rng.uniform(0.05, 40.0)
        if specfun.bessel_j(-m, x).value != (-1.0) ** m * specfun.bessel_j(m, x).value:
            ok = False
    out.append(_result("specfun", "negative_order_reflection", ok,
                       "bit-identical sign rule" if ok else "sign rule violated"))

    worst = 0.0
    for _ in range(150):
        m = rng.randint(0, 19)
        x = rng.uniform(0.2, 50.0)
        h = 1e-6 * max(1.0, x)
        for fam in ("J", "N"):
            f = specfun.bessel_j if fam == "J" else specfun.neumann_n
            d = specfun.derivative(fam, m, x).value
            fd = (f(m, x + h).value - f(m, x - h).value) / (2.0 * h)
            if abs(d) > 1e-8:
                worst = max(worst, abs(d - fd) / abs(d))
    tol = 1e-6
    out.append(_result("specfun", "derivative_vs_finite_difference", worst <= tol,
                       f"worst relative gap {worst:.2e} (tol {tol:.1e})"))

    worst_j = worst_n = 0.0
    for m in range(0, 13):
        for x in (1e-6, 1e-5, 1e-4):
            lead = 1.0
            for i in range(1, m + 1):
                lead *= (0.5 * x) / i
            jv = specfun.bessel_j(m, x).value
            worst_j = max(worst_j, abs(jv - lead) / abs(lead))
            nv = specfun.neumann_n(m, x).value
            if m == 0:
                small = (2.0 / math.pi) * (math.log(0.5 * x) + 0.5772156649015329)
            else:
                small = -math.factorial(m - 1) / math.pi * (2.0 / x) ** m
            worst_n = max(worst_n, abs(nv - small) / abs(small))
    ok = worst_j <= 1e-6 and worst_n <= 1e-4
    out.append(_result("specfun", "small_argument_laws", ok,
                       f"J gap {worst_j:.2e} (tol {1e-6:.1e}), "
                       f"N gap {worst_n:.2e} (tol {1e-4:.1e})"))

    ok = True
    for m in (0, 1, 3, 8):
        first = roots.bessel_zeros(m, 1).zeros[0]
        for frac in (0.05, 0.3, 0.7, 0.97):
            if specfun.bessel_j(m, frac * first).value <= 0.0:
                ok = False
    out.append(_result("specfun", "first_arch_positivity", ok,
                       "J_m > 0 below its first zero" if ok else "arch positivity violated"))

    ok = True
    for m, x in ((0, 1.0), (2, 5.0), (7, 13.0)):
        h1 = specfun.hankel(1, m, x)
        h2 = specfun.hankel(2, m, x)
        j = specfun.bessel_j(m, x).value
        n = specfun.neumann_n(m, x).value
        if h1 != complex(j, n) or h2 != h1.conjugate():
            ok = False
    out.append(_result("specfun", "hankel_composition", ok,
                       "H = J +/- iN exactly" if ok else "composition broken"))
    return out


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def _roots_checks() -> list[CheckResult]:
    from . import roots, specfun
    out = []

    worst = 0.0
    for m in range(0, 6):
        for x in roots.bessel_zeros(m, 20).zeros:
            worst = max(worst, abs(specfun.bessel_j(m, x).value))
    tol = 1e-12
    out.append(_result("roots", "bessel_zero_residuals", worst <= tol,
                       f"worst |J_m(x_mn)| = {worst:.2e} (tol {tol:.1e})"))

    z = roots.bessel_zeros(0, 30).zeros
    gap_dev = max(abs((b - a) - math.pi) for a, b in zip(z[19:], z[20:]))
    tol = 0.05
    out.append(_result("roots", "zero_gap_approaches_pi", gap_dev <= tol,
                       f"max |gap - pi| = {gap_dev:.2e} for n >= 20 (tol {tol:.1e})"))

    x01, x02 = roots.bessel_zeros(0, 2).zeros
    x11 = roots.bessel_zeros(1, 1).zeros[0]
    ok = x01 < x11 < x02
    out.append(_result("roots", "zero_interlacing", ok,
                       f"x01={x01:.4f} < x11={x11:.4f} < x02={x02:.4f}"))

    worst = 0.0
    for m in (0, 1, 2):
        for a, b in ((1.0, 2.0), (1.0, 1.1)):
            table = roots.cross_product_zeros(m, a, b, 5)
            worst = max(worst, max(table.residuals))
    tol = 1e-10
    out.append(_result("roots", "cross_product_residuals", worst <= tol,
                       f"worst |D(gamma)| = {worst:.2e} (tol {tol:.1e})"))

    base = roots.cross_product_zeros(1, 1.0, 2.0, 5).zeros
    worst = 0.0
    for s in (0.5, 2.0, 10.0):
        scaled = roots.cross_product_zeros(1, s * 1.0, s * 2.0, 5).zeros
        worst = max(worst,
                    max(abs(sv * s - bv) / bv for sv, bv in zip(scaled, base)))
    tol = 1e-10
    out.append(_result("roots", "cross_product_scale_covariance", worst <= tol,
                       f"worst relative drift {worst:.2e} (tol {tol:.1e})"))

    t1 = roots.bessel_zeros(3, 10)
    t2 = roots.bessel_zeros(3, 10)
    ok = t1.zeros == t2.zeros and t1.residuals == t2.residuals
    out.append(_result("roots", "determinism", ok,
                       "repeat call bit-identical" if ok else "tables differ between calls"))
    return out


# ---------------------------------------------------------------------------
# cavity
# ---------------------------------------------------------------------------

def _brute_force_modes(geometry, omega_max, cap=20):
    """Every (m, n, p) up to ``cap`` with omega <= omega_max, in index order.

    gamma_mn is read once, and only where omega at ``roots._gamma_floor``
    and p = 0 is within the cutoff; see the module docstring.
    """
    from . import cavity, roots
    found = []
    for m in range(0, cap + 1):
        for n in range(1, cap + 1):
            # omega_mnp >= omega_mn0 >= omega at the bound, for every p
            floor = roots._gamma_floor(m, n, geometry.a, geometry.b)
            if cavity._omega(floor, 0, geometry.l) > omega_max:
                continue
            gamma = cavity.radial_eigenvalue(geometry, m, n)
            found.extend((m, n, p) for p in range(0, cap + 1)
                         if cavity._omega(gamma, p, geometry.l) <= omega_max)
    return found


def _cavity_checks() -> list[CheckResult]:
    from . import cavity
    from .cavity import AnnulusGeometry, CylinderGeometry, ModeIndex
    out = []
    cyl = CylinderGeometry(b=1.0, l=1.0)
    ann = AnnulusGeometry(a=1.0, b=2.0, l=1.0)

    ok = True
    for geom in (cyl, ann):
        for m in (0, 2):
            w_n = [cavity.tm_frequency(geom, ModeIndex(m, n, 1)).omega for n in (1, 2, 3)]
            w_p = [cavity.tm_frequency(geom, ModeIndex(m, 1, p)).omega for p in (0, 1, 2, 3)]
            ok = ok and all(a < b for a, b in zip(w_n, w_n[1:]))
            ok = ok and all(a < b for a, b in zip(w_p, w_p[1:]))
    out.append(_result("cavity", "frequency_monotonicity", ok,
                       "omega strictly increasing in n and p" if ok else "monotonicity broken"))

    worst = 0.0
    for s in (0.5, 2.0, 10.0):
        big = AnnulusGeometry(a=s * 1.0, b=s * 2.0, l=s * 1.0)
        for idx in (ModeIndex(0, 1, 0), ModeIndex(1, 2, 1)):
            w0 = cavity.tm_frequency(ann, idx).omega
            ws = cavity.tm_frequency(big, idx).omega
            worst = max(worst, abs(ws * s - w0) / w0)
    tol = 1e-10
    out.append(_result("cavity", "geometry_scaling", worst <= tol,
                       f"worst relative drift {worst:.2e} (tol {tol:.1e})"))

    thin = AnnulusGeometry(a=0.99, b=1.0, l=1.0)
    g1 = cavity.radial_eigenvalue(thin, 0, 1)
    expected = math.pi / 0.01
    dev = abs(g1 - expected) / expected
    tol = 0.05
    out.append(_result("cavity", "thin_shell_limit", dev <= tol,
                       f"gamma_01 = {g1:.2f} vs pi/(b-a) = {expected:.2f} "
                       f"({dev:.2%} off, tol {tol:.0%})"))

    ok = True
    for geom, cut in ((cyl, 6.0), (ann, 5.0)):
        omega_max = cavity.C_LIGHT * cut
        enumerated = sorted(
            (e.index.m, e.index.n, e.index.p)
            for e in cavity.enumerate_modes_below(geom, omega_max))
        if enumerated != _brute_force_modes(geom, omega_max):
            ok = False
    out.append(_result("cavity", "enumeration_vs_brute_force", ok,
                       "cutoff enumeration equals exhaustive triple loop"
                       if ok else "mode sets differ"))
    return out


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _fields_checks() -> list[CheckResult]:
    from . import fields
    from .cavity import AnnulusGeometry, CylinderGeometry, ModeIndex
    out = []
    cyl = CylinderGeometry(b=1.0, l=1.0)
    ann = AnnulusGeometry(a=1.0, b=2.0, l=1.0)
    probes = [(cyl, ModeIndex(0, 1, 0)), (cyl, ModeIndex(1, 1, 1)),
              (ann, ModeIndex(0, 1, 1)), (ann, ModeIndex(2, 2, 1))]

    worst = max(fields.boundary_residual(geom, idx) for geom, idx in probes)
    tol = 1e-9
    out.append(_result("fields", "wall_boundary_conditions", worst <= tol,
                       f"worst wall residual {worst:.2e} (tol {tol:.1e})"))

    control = min(fields.boundary_residual(geom, idx, gamma_scale=1.01)
                  for geom, idx in probes)
    out.append(_result("fields", "detuned_negative_control", control > 1e-3,
                       f"detuned residual {control:.2e} (must exceed 1e-3)"))

    worst = max(fields.helmholtz_residual(geom, idx, npoints=30)
                for geom, idx in probes[1:3])
    tol = 1e-4
    out.append(_result("fields", "helmholtz_residual", worst <= tol,
                       f"worst relative residual {worst:.2e} (tol {tol:.1e})"))

    point = fields.FieldPoint(1.4, 0.75, 0.6)
    one = fields.ModeAmplitude(ModeIndex(1, 1, 1), 1, 0.7 + 0.2j)
    other = fields.ModeAmplitude(ModeIndex(0, 2, 1), -1, -1.1j)
    negated = fields.ModeAmplitude(other.index, other.sign, -other.amplitude)
    # summation is in input order, so the adjacent pair cancels exactly
    cancel = fields.superpose(ann, [other, negated, one], point)
    single = fields.transverse_fields(ann, one.index, one.sign, one.amplitude, point)
    ok = cancel == single and fields.superpose(ann, [], point) == fields.ZERO_SAMPLE
    out.append(_result("fields", "superposition_linearity", ok,
                       "sum order and cancellation exact" if ok else "linearity broken"))

    worst = 0.0
    for nu in range(0, 3):
        for n in range(1, 4):
            for k in range(1, 4):
                integral, expected = fields.orthogonality_check(nu, n, k, 1.0)
                worst = max(worst, abs(integral - expected))
    tol = 1e-8
    out.append(_result("fields", "radial_orthogonality", worst <= tol,
                       f"worst |integral - closed form| = {worst:.2e} (tol {tol:.1e})"))

    ok = True
    for phi in (0.0, 1.0, 2.5, 0.75):
        pa = fields.FieldPoint(0.5, phi, 0.3)
        pb = fields.FieldPoint(0.5, phi + 2.0 * math.pi, 0.3)
        if fields.ez_mode(cyl, ModeIndex(2, 1, 1), 1, 1.0, pa) != \
           fields.ez_mode(cyl, ModeIndex(2, 1, 1), 1, 1.0, pb):
            ok = False
    out.append(_result("fields", "phi_periodicity", ok,
                       "2 pi shift bit-identical" if ok else "periodicity broken"))
    return out


_SUITES = {
    "specfun": _specfun_checks,
    "roots": _roots_checks,
    "cavity": _cavity_checks,
    "fields": _fields_checks,
}


def run_checks(module: str | None = None) -> list[CheckResult]:
    """Run one module's suite, or all of them in a fixed order."""
    if module is not None and module not in _SUITES:
        raise DomainError(f"unknown module {module!r}; pick one of {', '.join(MODULES)}")
    selected = (module,) if module else MODULES
    results: list[CheckResult] = []
    for name in selected:
        results.extend(_SUITES[name]())
    return results
