import functools
import math
import os
import random
import subprocess
import sys
import threading

import pytest

from coaxmode import (AnnulusGeometry, CylinderGeometry, bessel_j, bessel_zeros, clear_caches,
                      cross_product_zeros, neumann_n, radial_eigenvalue)
from coaxmode import roots
from coaxmode.errors import _MEMOS, DomainError, GeometryError, OrderError, RootFindingError

import oracles


def cross_determinant(m, a, b, g):
    return (bessel_j(m, g * b).value * neumann_n(m, g * a).value
            - bessel_j(m, g * a).value * neumann_n(m, g * b).value)


def sturm_window(m, a, b, n):
    """[lo, hi] for gamma_mn from the Sturm comparison of u = sqrt(rho) R."""
    c = m * m - 0.25
    base = (n * math.pi / (b - a)) ** 2
    ends = (base + c / (a * a), base + c / (b * b))
    return math.sqrt(max(min(ends), 0.0)), math.sqrt(max(ends))


def run_child(code, timeout=120):
    """Run ``code`` in a fresh interpreter on this package; return its stdout."""
    package_root = os.path.dirname(os.path.dirname(roots.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cached_table(key):
    """The (rows, lock) the table store holds for ``key``; it must hold one."""
    hits = roots._table.cache_info().hits
    table = roots._table(*key)
    assert roots._table.cache_info().hits == hits + 1, f"no table for {key}"
    return table


class TestBesselZeros:
    def test_first_three_j0(self):
        table = bessel_zeros(0, 3)
        assert table.zeros == pytest.approx(
            [oracles.X01, oracles.X02, oracles.X03], abs=1e-10)

    def test_first_j1(self):
        assert bessel_zeros(1, 1).zeros[0] == pytest.approx(oracles.X11, abs=1e-10)

    def test_interlacing(self):
        x01, x02 = bessel_zeros(0, 2).zeros
        x11 = bessel_zeros(1, 1).zeros[0]
        assert x01 < x11 < x02

    @pytest.mark.parametrize("m", range(6))
    def test_against_series_bisection_oracle(self, m):
        table = bessel_zeros(m, 20)
        for got, ref in zip(table.zeros, oracles.bessel_zero_oracle(m)):
            assert got == pytest.approx(ref, abs=1e-10)

    def test_residuals_below_refinement_bound(self):
        for m in (0, 2, 5, 17, 50):
            table = bessel_zeros(m, 8)
            for x, res in zip(table.zeros, table.residuals):
                assert res == abs(bessel_j(m, x).value)
                assert res <= 1e-12

    def test_strictly_increasing_and_gap_limit(self):
        for m in (0, 3):
            z = bessel_zeros(m, 30).zeros
            assert all(b > a for a, b in zip(z, z[1:]))
            for a, b in zip(z[19:], z[20:]):
                assert abs((b - a) - math.pi) < 0.05

    def test_newton_error_bound(self):
        table = bessel_zeros(1, 12)
        for x, res in zip(table.zeros, table.residuals):
            slope = 0.5 * abs(bessel_j(0, x).value - bessel_j(2, x).value)
            assert res / slope <= 1e-10

    def test_determinism_bit_identical(self):
        first = bessel_zeros(4, 15)
        second = bessel_zeros(4, 15)
        assert first.zeros == second.zeros
        assert first.residuals == second.residuals

    def test_rejected_entry_leaves_the_table_clean(self, monkeypatch):
        # a second zero that fails its checks must not enter the table, where
        # it would break every later read of it; a repeat of the first zero
        # lies below window 2, so the window check rejects it
        real = roots._polish
        calls = []

        def repeat_first(f, lo, hi, x):
            calls.append(real(f, lo, hi, x))
            return calls[0]

        roots._table.cache_clear()
        try:
            monkeypatch.setattr(roots, "_polish", repeat_first)
            with pytest.raises(RootFindingError, match="Sturm window"):
                bessel_zeros(9, 2)
            assert len(cached_table(("cyl", 9))[0]) == 1
            monkeypatch.setattr(roots, "_polish", real)
            assert bessel_zeros(9, 2).zeros[1] == pytest.approx(calls[1][0], abs=1e-14)
        finally:
            roots._table.cache_clear()

    def test_argument_validation(self):
        with pytest.raises(OrderError):
            bessel_zeros(-1, 3)
        with pytest.raises(OrderError):
            bessel_zeros(51, 3)
        with pytest.raises(DomainError):
            bessel_zeros(0, 0)
        with pytest.raises(DomainError):
            bessel_zeros(0, 1001)


class TestBesselWindows:
    def test_every_zero_lies_in_its_window_below_the_next(self):
        # zero n lies in window n, whose top lies below zero n+1, so each
        # bracket holds one zero and the index is certified; the top's cap
        # at p + 2 pi is no theorem where pi/k > 2 pi (m >= 42 at n = 2),
        # so every order and count the validators accept is checked
        for m in range(roots.ORDER_MAX + 1):
            zeros = bessel_zeros(m, roots.COUNT_MAX).zeros
            previous = 0.0
            for n, root in enumerate(zeros, 1):
                lo, hi = roots._bessel_window(m, n, previous)
                assert lo <= root <= hi, (m, n)
                if n < len(zeros):
                    assert hi < zeros[n], (m, n)
                previous = root

    def test_first_windows_hold_the_first_zero_alone(self):
        # against 30-digit zeros: window 1 (Qu and Wong for m >= 1, [2, 3]
        # for m = 0) holds j_{m,1}, and its top lies below j_{m,2}
        pairs = oracles.bessel_first_zeros()
        assert sorted(pairs) == list(range(roots.ORDER_MAX + 1))
        for m, (first, second) in pairs.items():
            lo, hi = roots._bessel_window(m, 1, 0.0)
            assert lo < first < hi < second, m

    def test_planted_phase_turn_raises(self, monkeypatch):
        # a phase an eighth of a turn ahead has its zero below window 1, where
        # the residual check passes it: the window check must reject it and
        # leave the table empty
        m = 3
        key = ("cyl", m)
        whole = bessel_zeros(m, 2).zeros
        real = roots._bessel_determinant

        def ahead(m):
            d = real(m)
            half = math.sqrt(0.5)

            def planted(x):
                # (D, C) = M (-sin Phi, cos Phi), turned to Phi + pi/4
                det, c, slope, scale = d(x)
                return (det - c) * half, (c + det) * half, slope, scale
            return planted

        roots._table.cache_clear()
        try:
            monkeypatch.setattr(roots, "_bessel_determinant", ahead)
            with pytest.raises(RootFindingError, match="Sturm window"):
                bessel_zeros(m, 1)
            assert cached_table(key)[0] == []
        finally:
            monkeypatch.undo()
            roots._table.cache_clear()
        assert bessel_zeros(m, 2).zeros == whole


class TestBracketDefense:
    def test_bessel_gaps_obey_sturm_comparison(self):
        # u = sqrt(x) J_m solves u'' + (1 - c/x^2) u = 0, c = m^2 - 1/4, so the
        # gap after a zero p lies between pi and pi/k, k = sqrt(1 - c/p^2):
        # what makes window n+1 hold zero n+1 and window n's top lie below it
        for m in (0, 1, 10, 30, 42, 50):
            zeros = bessel_zeros(m, 200).zeros
            c = m * m - 0.25
            for p, q in zip(zeros, zeros[1:]):
                bound = math.pi / math.sqrt(1.0 - c / (p * p))
                assert min(math.pi, bound) < q - p < max(math.pi, bound), (m, p)

    def test_newton_starts_within_a_quarter_turn(self, monkeypatch):
        # the phase residual Phi - n pi wraps by 2 pi past root n+1, so where
        # Sturm windows overlap root n's index rests on its Newton start lying
        # within pi of n pi; over m <= 50 and a/b from 1e-3 to 0.999 every
        # start measured lay within 0.32 pi, and within 0.15 pi where
        # windows overlap
        rng = random.Random(20261019)
        real = roots._polish
        starts = []

        def spy(f, lo, hi, x):
            starts.append((x, f(x)[0]))
            return real(f, lo, hi, x)

        monkeypatch.setattr(roots, "_polish", spy)
        for _ in range(40):
            m = rng.randint(0, 50)
            ratio = math.exp(rng.uniform(math.log(1e-3), math.log(0.999)))
            roots._table.cache_clear()
            bessel_zeros(m, 1)  # root 1's start reads j_m1; its polish is not counted
            starts.clear()
            try:
                zeros = (0.0,) + cross_product_zeros(m, ratio, 1.0, 21).zeros
            finally:
                roots._table.cache_clear()
            for n, (x, residual) in enumerate(starts[:20], 1):
                # between roots n-1 and n+1 the wrapped residual is the true one
                assert zeros[n - 1] < x < zeros[n + 1], (m, ratio, n)
                assert abs(residual) <= 0.5 * math.pi, (m, ratio, n)


class TestCrossProductZeros:
    def test_first_root_near_gap_estimate(self):
        table = cross_product_zeros(0, 1.0, 2.0, 1)
        root = table.zeros[0]
        assert abs(root - math.pi) < 0.15 * math.pi  # seeded near pi/(b-a)
        assert abs(cross_determinant(0, 1.0, 2.0, root)) < 1e-10

    def test_scaling_halves_roots(self):
        base = cross_product_zeros(0, 1.0, 2.0, 5).zeros
        scaled = cross_product_zeros(0, 2.0, 4.0, 5).zeros
        for rb, rs in zip(base, scaled):
            assert rs == pytest.approx(rb / 2.0, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_covariance(self, s):
        base = cross_product_zeros(1, 1.0, 2.0, 6).zeros
        scaled = cross_product_zeros(1, s, 2.0 * s, 6).zeros
        for rb, rs in zip(base, scaled):
            assert rs * s == pytest.approx(rb, rel=1e-10)

    def test_thin_annulus_approaches_standing_wave(self):
        root = cross_product_zeros(0, 0.99, 1.0, 1).zeros[0]
        assert root == pytest.approx(math.pi / 0.01, rel=0.05)

    def test_against_scan_oracle(self):
        for m in (0, 1, 2):
            got = cross_product_zeros(m, 1.0, 2.0, 10).zeros
            for g, ref in zip(got, oracles.cross_zero_oracle(m, 1.0, 2.0)):
                assert g == pytest.approx(ref, abs=1e-9)

    def test_residual_normalized_by_window(self):
        table = cross_product_zeros(2, 0.5, 3.0, 10)
        step = min(math.pi / 2.5, 0.5) / 4.0
        for root, res in zip(table.zeros, table.residuals):
            window = max(abs(cross_determinant(2, 0.5, 3.0, root - step)),
                         abs(cross_determinant(2, 0.5, 3.0, root + step)))
            assert res <= 1e-10 * max(window, 1e-6)

    def test_geometry_tag_and_kind(self):
        table = cross_product_zeros(0, 1.0, 2.0, 1)
        assert table.kind == "annulus"
        assert table.geometry_tag == (1.0, 2.0)

    def test_determinism_bit_identical(self):
        a = cross_product_zeros(1, 1.0, 1.1, 4)
        b = cross_product_zeros(1, 1.0, 1.1, 4)
        assert a.zeros == b.zeros

    def test_ultra_thin_annulus_verifies(self):
        # the determinant arch is thousands of scan steps wide here; the
        # residual check must normalize against the arch, not the bracket
        table = cross_product_zeros(2, 0.999, 1.0, 2)
        assert table.zeros[0] == pytest.approx(math.pi / 0.001, rel=0.01)

    @pytest.mark.parametrize("m, ratio", [(0, 1e-3), (0, 0.999), (5, 0.5), (50, 1e-3),
                                          (50, 0.999)])
    @pytest.mark.parametrize("shift", [1.0 - 1e-8, 1.0 + 1e-8])
    def test_moved_root_fails_verification(self, m, ratio, shift, monkeypatch):
        # a root moved by 1e-8 relative leaves |D| above 2.6e-8 of the arch
        # amplitude M_a M_b over m <= 50 and a/b from 1e-3 to 0.999, far over
        # the 1e-10 the check allows; here root 3 moves, roots 1 and 2 do not
        key = ("ann", m, ratio, 1.0)
        real = roots._polish
        calls = []

        def moved(f, lo, hi, x):
            root, values = real(f, lo, hi, x)
            calls.append(root)
            return (root, values) if len(calls) < 3 else (root * shift, f(root * shift))

        roots._table.cache_clear()
        bessel_zeros(m, 1)  # root 1's start reads j_m1; its polish is not counted
        try:
            monkeypatch.setattr(roots, "_polish", moved)
            with pytest.raises(RootFindingError, match="failed verification"):
                cross_product_zeros(m, ratio, 1.0, 3)
            assert len(cached_table(key)[0]) == 2
        finally:
            monkeypatch.undo()
            roots._table.cache_clear()
        assert cross_product_zeros(m, ratio, 1.0, 3).zeros == tuple(calls)

    def test_conditioning_floor_behavior(self):
        # for large m the inner wall decouples as (a/b)^{2m} and the
        # eigenvalues collapse onto the J_m zeros; for m = 0 the Neumann
        # log singularity keeps a finite shift even at a/b = 1e-3, which is
        # why the floor rejects rather than silently switching models
        got50 = cross_product_zeros(50, 1e-3, 1.0, 2).zeros
        cyl50 = bessel_zeros(50, 2).zeros
        for g, x in zip(got50, cyl50):
            assert g == pytest.approx(x, abs=1e-9)
        root0 = cross_product_zeros(0, 1e-3, 1.0, 1).zeros[0]
        x01, x02 = bessel_zeros(0, 2).zeros
        assert x01 < root0 < x02
        assert root0 - x01 > 0.1  # the log shift is genuinely not small

    def test_parallel_readers_share_one_table(self):
        import threading
        results = []
        def worker():
            results.append(cross_product_zeros(3, 1.0, 2.0, 8).zeros)
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            cross_product_zeros(0, 2.0, 1.0, 1)
        with pytest.raises(GeometryError):
            cross_product_zeros(0, 1.0, 1.0, 1)
        with pytest.raises(GeometryError):
            cross_product_zeros(0, 1e-4, 1.0, 1)  # a/b below the conditioning guard
        with pytest.raises(OrderError):
            cross_product_zeros(51, 1.0, 2.0, 1)
        with pytest.raises(DomainError):
            cross_product_zeros(0, 1.0, 2.0, 2000)


class TestSturmWindows:
    def test_oracle_roots_lie_in_their_windows(self):
        tables = oracles.cross_zero_tables()
        assert tables
        for (m, a, b), zeros in tables.items():
            for n, root in enumerate(zeros, 1):
                lo, hi = sturm_window(m, a, b, n)
                assert lo < root < hi, (m, a, b, n)

    def test_seeded_sweep_lies_in_windows(self):
        rng = random.Random(20261018)
        for m in (0, 1, 5, 20, 50):
            for ratio in (1e-3, 0.05, 0.5, 0.9, 0.999):
                b = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
                # gamma b stays inside the x <= 1e4 envelope of specfun
                count = 3 if ratio == 0.999 else 10
                zeros = cross_product_zeros(m, ratio * b, b, count).zeros
                for n, root in enumerate(zeros, 1):
                    lo, hi = sturm_window(m, ratio * b, b, n)
                    assert lo * (1 - 1e-15) <= root <= hi * (1 + 1e-15), (m, ratio, b, n)

    @pytest.mark.parametrize("m, ratio, count, last", [
        (0, 0.999, 30, 94247.77960636847),
        (1, 0.999, 30, 94247.77961167993),
        (0, 0.995, 400, 251327.41228668296),
        (0, 0.99, 1000, None),
    ])
    def test_thin_annulus_high_index(self, m, ratio, count, last):
        # from about n = 12 at a/b = 0.999 the exact window is narrower than
        # the rounding of a computed root, ~1e-16 b/(b-a); the index check
        # must allow for it. References: first-order perturbation of
        # u'' + (gamma^2 - c/rho^2) u = 0 about the flat gap, within 2e-15
        # of 40-digit mpmath roots here, and the last entry as a march from
        # gamma = 0.125 in steps of 0.125, without windows, found it
        a, b = ratio, 1.0
        d, c = b - a, m * m - 0.25
        zeros = cross_product_zeros(m, a, b, count).zeros
        for n, root in enumerate(zeros, 1):
            k = n * math.pi / d
            ref = math.sqrt(k * k + c / (a * b) - c / (2 * d * k * k) * (a ** -3 - b ** -3))
            assert abs(root - ref) <= 1e-12 * ref, (n, root, ref)
        if last is not None:
            assert abs(zeros[-1] - last) <= 1e-12 * last

    def test_planted_missed_root_raises(self, monkeypatch):
        # root n is polished in (root n-1, top of window n); at m = 0, a = 1,
        # b = 2.5 window n cannot hold root n+1. Phi' read at a third of its
        # value at root 1 starts root 2 past root 3, above that bracket, so
        # Newton starts from the bracket's midpoint and still finds root 2:
        # no start past root n+1 can leave window n. The window check guards
        # the phase itself: a wall phase an eighth of a turn ahead has its
        # zero below window 1, where the residual and order checks pass it
        m, a, b = 0, 1.0, 2.5
        key = ("ann", m, a, b)
        first, second = cross_product_zeros(m, a, b, 2).zeros
        real = roots._cross_determinant

        def slow_start(m, a, b):
            d = real(m, a, b)

            def planted(g):
                det, c, slope, scale = d(g)
                return det, c, slope / 3.0 if g == first else slope, scale
            return planted

        def ahead(m, a, b):
            d = real(m, a, b)
            half = math.sqrt(0.5)

            def planted(g):
                # (D, C) = M_a M_b (-sin Phi, cos Phi), turned to Phi + pi/4
                det, c, slope, scale = d(g)
                return (det - c) * half, (c + det) * half, slope, scale
            return planted

        roots._table.cache_clear()
        try:
            monkeypatch.setattr(roots, "_cross_determinant", slow_start)
            late = cross_product_zeros(m, a, b, 2).zeros
            assert late[0] == first
            assert late[1] == pytest.approx(second, rel=4e-16)
            roots._table.cache_clear()
            monkeypatch.setattr(roots, "_cross_determinant", ahead)
            with pytest.raises(RootFindingError, match="Sturm"):
                cross_product_zeros(m, a, b, 1)
            assert cached_table(key)[0] == []
            with pytest.raises(RootFindingError, match="Sturm"):
                cross_product_zeros(m, a, b, 2)
        finally:
            monkeypatch.undo()
            roots._table.cache_clear()
        assert cross_product_zeros(m, a, b, 2).zeros == (first, second)



class TestGammaFloor:
    """The brute force's premise: each closed-form bound lies at or below its entry."""

    @pytest.mark.parametrize("b", [1.0, 0.3])
    def test_cylinder(self, b):
        geom = CylinderGeometry(b=b, l=1.0)
        for m in range(51):
            for n in range(1, 201):
                floor = roots._gamma_floor(m, n, geom.a, geom.b)
                assert floor <= radial_eigenvalue(geom, m, n), (m, n)

    @pytest.mark.parametrize("ratio", [1e-3, 0.01, 0.1, 0.5, 0.9, 0.999])
    def test_annulus(self, ratio):
        geom = AnnulusGeometry(a=ratio, b=1.0, l=1.0)
        for m in (0, 1, 5, 20, 50):
            for n in range(1, 51):
                floor = roots._gamma_floor(m, n, geom.a, geom.b)
                assert floor <= radial_eigenvalue(geom, m, n), (m, n)


class TestCountBound:
    """The order envelope's premise: no order has as many gamma_mn <= k as the bound.

    Order 0 has the most, as root n of every order lies above root n of
    order 0, so its table entries at or below k are what the bound must exceed.
    """

    @staticmethod
    def _entries_at_or_below(k, a, b):
        n = 0
        while roots._gamma(0, n + 1, a, b) <= k:
            n += 1
        return n

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.3)]
                             + [(ratio, 1.0) for ratio in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.999)])
    def test_exceeds_the_order_0_count(self, a, b):
        rng = random.Random(33)
        # up to about 150 entries; the entries themselves are the tightest cutoffs
        ks = [rng.uniform(0.0, 150.0) * math.pi / (b - a) for _ in range(40)]
        ks += [roots._gamma(0, n, a, b) for n in (1, 2, 10, 100)]
        for k in ks:
            assert roots._count_bound(k, a, b) > self._entries_at_or_below(k, a, b), k

    @pytest.mark.parametrize("ratio, n", [(1e-3, 170), (1e-3, 200), (0.5, 1), (0.5, 5),
                                          (0.5, 40), (0.999, 1), (0.999, 40)])
    def test_an_uncertified_count_is_count_max(self, ratio, n):
        # at the low end of window n (above 0) the window cannot put root n above k
        k = roots._sturm_window(0, ratio, 1.0, n)[0]
        assert k > 0.0
        assert roots._count_bound(k, ratio, 1.0) == roots.COUNT_MAX
        assert self._entries_at_or_below(k, ratio, 1.0) < n

def _count_determinant_evaluations(monkeypatch) -> list[int]:
    """Patch roots._cross_determinant so that each evaluation adds 1 to the list's entry."""
    real = roots._cross_determinant
    calls = [0]

    def counting(m, a, b):
        d = real(m, a, b)

        def wrapped(g):
            calls[0] += 1
            return d(g)
        return wrapped

    monkeypatch.setattr(roots, "_cross_determinant", counting)
    return calls


class TestScanCost:
    def test_determinant_evaluations_per_root(self, monkeypatch):
        roots._table.cache_clear()
        calls = _count_determinant_evaluations(monkeypatch)
        for m in range(21):
            cross_product_zeros(m, 1.0, 2.0, 20)
        # every call counts, each Newton step included; the residual's scale
        # and the next root's start come with the polished root's own
        # evaluation
        assert calls[0] / (21 * 20) <= 4.0

    def test_growing_a_table_root_by_root_costs_what_one_call_costs(self, monkeypatch):
        # a resumed table starts its next root from the Phi' its last row
        # keeps, so it evaluates nothing at the root below again
        calls = _count_determinant_evaluations(monkeypatch)

        def grow(m, one_at_a_time):
            roots._table.cache_clear()
            calls[0] = 0
            for count in range(1, 21) if one_at_a_time else (20,):
                cross_product_zeros(m, 1.0, 2.0, count)
            rows = [tuple(v.hex() for v in row) for row in cached_table(("ann", m, 1.0, 2.0))[0]]
            return calls[0], rows

        for m in (0, 3, 20):
            assert grow(m, True) == grow(m, False), m

    def test_ladder_runs_per_bessel_zero(self, monkeypatch):
        # a J zero costs a few Newton steps on the phase, each one ladder run
        # that also supplies N_m for the phase and its slope, and J_{m+1}
        real = roots._ladder
        calls = [0]

        def counting(m, x, with_n):
            calls[0] += 1
            return real(m, x, with_n)

        roots._table.cache_clear()
        monkeypatch.setattr(roots, "_ladder", counting)
        try:
            for m in range(51):
                bessel_zeros(m, 100)
        finally:
            monkeypatch.undo()
            roots._table.cache_clear()
        assert calls[0] / (51 * 100) <= 3.5

    def test_small_walls_scale_exactly(self):
        # walls 1e5 times smaller scale every root by 1e5; the scan must not
        # march from a fixed gamma in fixed steps to get there
        out = run_child(
            "from coaxmode import cross_product_zeros\n"
            "for m in (0, 50):\n"
            "    base = cross_product_zeros(m, 1.0, 2.0, 3).zeros\n"
            "    small = cross_product_zeros(m, 1e-5, 2e-5, 3).zeros\n"
            "    print(max(abs(s * 1e-5 - r) / r for s, r in zip(small, base)))\n")
        assert all(float(drift) <= 1e-12 for drift in out.split())

    def test_thin_annulus_is_fast(self):
        out = run_child(
            "import time\n"
            "from coaxmode import cross_product_zeros\n"
            "t = time.perf_counter()\n"
            "for m in range(4):\n"
            "    cross_product_zeros(m, 0.999, 1.0, 3)\n"
            "print(time.perf_counter() - t)\n")
        assert float(out) < 1.0


class TestTableCache:
    def test_annulus_sweep_keeps_the_store_at_its_bound(self):
        # 10,000 fresh tables: the store stays at its bound, rows a caller
        # holds survive their table's eviction, a rebuilt table has the
        # evicted one's bits, and peak RSS grows by under 2 MB (the unbounded
        # store grew it by about 5 MB)
        out = run_child(
            "import resource\n"
            "from coaxmode import AnnulusGeometry, ModeIndex, roots, tm_frequency\n"
            "from coaxmode.errors import _MEMOS\n"
            "store = _MEMOS['coaxmode.roots._table']\n"
            "bound = store.cache_info().maxsize\n"
            "def size():\n"
            "    return store.cache_info().currsize\n"
            "def rss_kb():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "def hexes(rows):\n"
            "    return [[v.hex() for v in row] for row in rows]\n"
            "held = roots._cross_rows(0, 0.5, 1.0, 3)\n"
            "first = hexes(held)\n"
            "start, most = rss_kb(), 0\n"
            "for i in range(2_000):\n"
            "    geometry = AnnulusGeometry(a=0.5, b=1.0 + (i + 1) * 1e-4, l=1.0)\n"
            "    for m in range(5):\n"
            "        tm_frequency(geometry, ModeIndex(m, 1, 0))\n"
            "        most = max(most, size())\n"
            "growth = rss_kb() - start\n"
            "again = roots._cross_rows(0, 0.5, 1.0, 3)\n"
            "assert again is not held\n"
            "assert hexes(held) == first\n"
            "assert hexes(again) == first\n"
            "print(bound, most, size(), growth)\n", timeout=120)
        bound, most, size, growth_kb = map(int, out.split())
        assert bound == roots._table.cache_info().maxsize == 256
        assert most == size == bound
        assert growth_kb < 2048

    def test_table_in_use_outlives_a_sweep(self):
        # the store evicts the least recently used table: one read between
        # each of 1,000 fresh annuli, four times the bound, is never rebuilt
        # (evicting the oldest inserted rebuilt it 3 times)
        roots._table.cache_clear()
        hot = roots._cross_rows(0, 0.5, 1.0, 1)
        rebuilt = 0
        for i in range(1_000):
            roots._cross_rows(0, 0.5, 1.0 + (i + 1) * 1e-4, 1)
            rows = roots._cross_rows(0, 0.5, 1.0, 1)
            if rows is not hot:
                rebuilt, hot = rebuilt + 1, rows
        assert rebuilt == 0

    @pytest.mark.parametrize("table", [
        lambda count: bessel_zeros(7, count),
        lambda count: cross_product_zeros(0, 0.2, 2.0, count),
        lambda count: cross_product_zeros(4, 0.6, 1.0, count),
        lambda count: cross_product_zeros(50, 0.001, 1.0, count),
    ], ids=["bessel", "cross-0", "cross-4", "cross-50-overlapping"])
    def test_table_grown_in_pieces_equals_one_call(self, table):
        roots._table.cache_clear()
        whole = table(40)
        roots._table.cache_clear()
        for count in (2, 3, 7, 15, 22, 40):
            grown = table(count)
        assert grown.zeros == whole.zeros
        assert grown.residuals == whole.residuals

    def test_entry_reads_race_extensions(self):
        # radial_eigenvalue reads entry n of the live table without a copy
        # while other threads extend it
        geometry = AnnulusGeometry(a=0.3, b=1.5, l=1.0)
        whole = cross_product_zeros(2, 0.3, 1.5, 60).zeros
        roots._table.cache_clear()
        seen, errors = [], []

        def reader(first):
            try:
                for n in range(first, 61, 7):
                    seen.append((n, radial_eigenvalue(geometry, 2, n)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(1, 7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(seen) == sum(len(range(k, 61, 7)) for k in range(1, 7))
        assert all(value == whole[n - 1] for n, value in seen)

    def test_evictions_race_reads_and_clears(self, monkeypatch):
        # with room for four tables, six threads evict each other's tables
        # while they read them, and one empties every store now and then;
        # every read has the bits a lone thread gets
        small = functools.lru_cache(4)(roots._table.__wrapped__)
        monkeypatch.setattr(roots, "_table", small)
        monkeypatch.setitem(_MEMOS, "coaxmode.roots._table", small)
        walls = [(m, 0.3 + 0.05 * k) for m in range(3) for k in range(4)]
        whole = {(m, a): cross_product_zeros(m, a, 1.5, 6).zeros for m, a in walls}
        seen, errors = [], []

        def worker(offset):
            try:
                for i in range(offset, offset + 40):
                    m, a = walls[i % len(walls)]
                    count = 1 + i % 6
                    seen.append(((m, a), count, cross_product_zeros(m, a, 1.5, count).zeros))
                    if offset == 0 and i % 8 == 0:
                        clear_caches()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(seen) == 6 * 40
        assert all(zeros == whole[key][:count] for key, count, zeros in seen)
        assert small.cache_info().currsize <= 4

    def test_warm_read_takes_no_lock(self):
        # rows are only appended, so a table that already holds the entries
        # is read while another thread holds the table's lock
        bessel_zeros(7, 5)
        _, lock = cached_table(("cyl", 7))
        done = []
        reader = threading.Thread(target=lambda: done.append(bessel_zeros(7, 3)))
        with lock:
            reader.start()
            reader.join(timeout=5)
            read_under_locks = bool(done)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert read_under_locks, "a warm read waited on a lock"

    def test_slow_extension_does_not_block_other_tables(self):
        started = threading.Event()
        release = threading.Event()

        def held_extension(table, count):
            started.set()
            release.wait(timeout=60)

        holder = threading.Thread(target=roots._rows,
                                  args=(("held",), 1, held_extension))
        done = []
        reader = threading.Thread(target=lambda: done.append(bessel_zeros(6, 4)))
        holder.start()
        try:
            assert started.wait(timeout=10)
            reader.start()
            reader.join(timeout=10)
            assert done, "a lookup of another table waited on the held extension"
        finally:
            release.set()
            holder.join(timeout=10)
            if reader.ident is not None:
                reader.join(timeout=10)
            roots._table.cache_clear()
        assert not holder.is_alive() and not reader.is_alive()
