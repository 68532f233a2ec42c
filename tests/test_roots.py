import math
import os
import random
import subprocess
import sys
import threading

import pytest

from coaxmode import (AnnulusGeometry, bessel_j, bessel_zeros, cross_product_zeros,
                      neumann_n, radial_eigenvalue)
from coaxmode import roots
from coaxmode.errors import DomainError, GeometryError, OrderError, RootFindingError

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
        # a second zero that fails the order check must not enter the table,
        # where it would break every later read of it
        key = ("cyl", 9)
        real = roots._polish
        calls = []

        def repeat_first(f, lo, hi, flo, fhi, x):
            calls.append(real(f, lo, hi, flo, fhi, x))
            return calls[0]

        roots._tables.pop(key, None)
        try:
            monkeypatch.setattr(roots, "_polish", repeat_first)
            with pytest.raises(RootFindingError, match="does not exceed"):
                bessel_zeros(9, 2)
            monkeypatch.setattr(roots, "_polish", real)
            assert bessel_zeros(9, 2).zeros[1] == pytest.approx(calls[1][0], abs=1e-14)
        finally:
            roots._tables.pop(key, None)

    def test_argument_validation(self):
        with pytest.raises(OrderError):
            bessel_zeros(-1, 3)
        with pytest.raises(OrderError):
            bessel_zeros(51, 3)
        with pytest.raises(DomainError):
            bessel_zeros(0, 0)
        with pytest.raises(DomainError):
            bessel_zeros(0, 1001)


class TestBracketDefense:
    def test_root_gaps_exceed_the_scan_step(self):
        # the cross-product scan starts one step of pi/(4(b-a)) above the
        # root below (gamma = 0 below root 1) and takes the first sign change
        # as the next root; that needs every gap wider than the step, which
        # leaves no room for two roots in one step either
        for m in (0, 10, 30, 50):
            for ratio in (1e-3, 0.01, 0.5, 0.79, 0.99, 0.999):
                a, b = ratio, 1.0
                zeros = (0.0,) + cross_product_zeros(m, a, b, 20).zeros
                gap = min(hi - lo for lo, hi in zip(zeros, zeros[1:]))
                assert gap > 0.4 * math.pi / (b - a), (m, ratio)


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
        # D and its slope flip sign just past the first root, so the scan
        # sees no sign change there; the first change it meets is the second
        # root, which must not be handed out as entry 1
        m, a, b = 0, 1.0, 2.5
        key = ("ann", m, a, b)
        first, second = cross_product_zeros(m, a, b, 2).zeros
        real = roots._cross_determinant

        def planted(m, a, b):
            d = real(m, a, b)

            def flipped(g):
                value, slope = d(g)
                return (-value, -slope) if g > first else (value, slope)
            return flipped

        roots._tables.pop(key, None)
        try:
            monkeypatch.setattr(roots, "_cross_determinant", planted)
            with pytest.raises(RootFindingError, match="Sturm"):
                cross_product_zeros(m, a, b, 1)
            assert roots._tables[key][0] == []
            with pytest.raises(RootFindingError):
                cross_product_zeros(m, a, b, 2)
        finally:
            monkeypatch.undo()
            roots._tables.pop(key, None)
        assert cross_product_zeros(m, a, b, 2).zeros == (first, second)


class TestScanCost:
    def test_determinant_evaluations_per_root(self, monkeypatch):
        real = roots._cross_determinant
        calls = [0]

        def counting(m, a, b):
            d = real(m, a, b)

            def wrapped(g):
                calls[0] += 1
                return d(g)
            return wrapped

        keys = [("ann", m, 1.0, 2.0) for m in range(21)]
        for key in keys:
            roots._tables.pop(key, None)
        monkeypatch.setattr(roots, "_cross_determinant", counting)
        for m in range(21):
            cross_product_zeros(m, 1.0, 2.0, 20)
        # every call counts: scan, Newton polish and residual probes
        assert calls[0] / (21 * 20) <= 8.0

    def test_ladder_runs_per_bessel_zero(self, monkeypatch):
        # a J zero costs its two bracket checks and a few Newton steps, each
        # one ladder run that also supplies the slope and J_{m+1}
        real = roots._ladder
        calls = [0]

        def counting(m, x, with_n):
            calls[0] += 1
            return real(m, x, with_n)

        keys = [("cyl", m) for m in range(51)]
        for key in keys:
            roots._tables.pop(key, None)
        monkeypatch.setattr(roots, "_ladder", counting)
        try:
            for m in range(51):
                bessel_zeros(m, 100)
        finally:
            monkeypatch.undo()
            for key in keys:
                roots._tables.pop(key, None)
        assert calls[0] / (51 * 100) <= 6.0

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
    @pytest.mark.parametrize("table", [
        lambda count: bessel_zeros(7, count),
        lambda count: cross_product_zeros(0, 0.2, 2.0, count),
        lambda count: cross_product_zeros(4, 0.6, 1.0, count),
    ], ids=["bessel", "cross-0", "cross-4"])
    def test_table_grown_in_pieces_equals_one_call(self, table):
        roots._tables.clear()
        whole = table(40)
        roots._tables.clear()
        for count in (2, 3, 7, 15, 22, 40):
            grown = table(count)
        assert grown.zeros == whole.zeros
        assert grown.residuals == whole.residuals

    def test_entry_reads_race_extensions(self):
        # radial_eigenvalue reads entry n of the live table without a copy
        # while other threads extend it
        geometry = AnnulusGeometry(a=0.3, b=1.5, l=1.0)
        whole = cross_product_zeros(2, 0.3, 1.5, 60).zeros
        roots._tables.pop(("ann", 2, 0.3, 1.5), None)
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

    def test_warm_read_takes_no_lock(self):
        # rows are only appended, so a table that already holds the entries
        # is read while another thread holds the table's lock
        bessel_zeros(7, 5)
        _, lock = roots._tables[("cyl", 7)]
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
            roots._tables.pop(("held",), None)
        assert not holder.is_alive() and not reader.is_alive()
