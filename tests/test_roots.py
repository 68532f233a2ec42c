import math
import threading

import pytest

from coaxmode import bessel_j, bessel_zeros, cross_product_zeros, neumann_n
from coaxmode import roots
from coaxmode.errors import DomainError, GeometryError, OrderError

import oracles


def cross_determinant(m, a, b, g):
    return (bessel_j(m, g * b).value * neumann_n(m, g * a).value
            - bessel_j(m, g * a).value * neumann_n(m, g * b).value)


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
    def test_window_with_two_roots_is_split(self):
        # a scan window accidentally holding two sign changes must come back
        # as separate single-change pieces
        from coaxmode.roots import _refine_bracket
        f = lambda x: math.sin(3.0 * x)
        pieces = _refine_bracket(f, 0.5, 2.5, f(0.5), f(2.5))
        assert len(pieces) == 2
        for lo, hi, flo, fhi in pieces:
            assert flo == 0.0 or (flo > 0.0) != (fhi > 0.0)


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


class TestTableCache:
    @pytest.mark.parametrize("table", [
        lambda count: bessel_zeros(7, count),
        lambda count: cross_product_zeros(0, 0.2, 2.0, count),
        lambda count: cross_product_zeros(4, 0.6, 1.0, count),
    ], ids=["bessel", "cross-0", "cross-4"])
    def test_table_grown_in_pieces_equals_one_call(self, table):
        roots._cache._tables.clear()
        whole = table(40)
        roots._cache._tables.clear()
        for count in (2, 3, 7, 15, 22, 40):
            grown = table(count)
        assert grown.zeros == whole.zeros
        assert grown.residuals == whole.residuals

    def test_slow_extension_does_not_block_other_tables(self):
        started = threading.Event()
        release = threading.Event()

        def held_extension(table, count):
            started.set()
            release.wait(timeout=60)

        holder = threading.Thread(target=roots._cache.get,
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
            roots._cache._tables.pop(("held",), None)
        assert not holder.is_alive() and not reader.is_alive()
