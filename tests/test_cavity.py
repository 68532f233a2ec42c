import math
import os
import random
import subprocess
import sys
import threading
from bisect import bisect_right

import pytest

import coaxmode.cavity as cavity
from coaxmode import roots, verify
from coaxmode import (AnnulusGeometry, C_LIGHT, CylinderGeometry, ModeIndex, clear_caches,
                      cross_product_zeros, enumerate_modes_below, mode_count_histogram,
                      radial_eigenvalue, tm_frequency)
from coaxmode.errors import DomainError, GeometryError, ResourceLimitError

import oracles

CYL = CylinderGeometry(b=1.0, l=1.0)
ANN = AnnulusGeometry(a=1.0, b=2.0, l=1.0)


class TestTmFrequency:
    def test_fundamental_cylinder_mode(self):
        entry = tm_frequency(CYL, ModeIndex(0, 1, 0))
        assert entry.omega == pytest.approx(C_LIGHT * oracles.X01, rel=1e-10)
        assert entry.omega == pytest.approx(7.20957e8, rel=1e-4)
        assert entry.degeneracy == 1

    def test_axial_term_vanishes_for_p0(self):
        for geom, idx in ((CYL, ModeIndex(2, 3, 0)), (ANN, ModeIndex(1, 2, 0))):
            entry = tm_frequency(geom, idx)
            assert entry.omega == C_LIGHT * entry.gamma

    def test_first_axial_excitation(self):
        entry = tm_frequency(CYL, ModeIndex(0, 1, 1))
        expected = C_LIGHT * math.sqrt(oracles.X01 ** 2 + math.pi ** 2)
        assert entry.omega == pytest.approx(expected, rel=1e-10)

    def test_degeneracy_counts_orientations(self):
        assert tm_frequency(CYL, ModeIndex(0, 2, 1)).degeneracy == 1
        assert tm_frequency(CYL, ModeIndex(3, 1, 0)).degeneracy == 2
        assert tm_frequency(ANN, ModeIndex(1, 1, 2)).degeneracy == 2

    def test_omega_consistent_with_formula(self):
        for idx in (ModeIndex(0, 1, 0), ModeIndex(2, 2, 3)):
            e = tm_frequency(ANN, idx)
            assert e.omega == C_LIGHT * math.hypot(e.gamma, idx.p * math.pi / ANN.l)

    def test_monotonicity(self):
        for geom in (CYL, ANN):
            for m in (0, 1):
                w_n = [tm_frequency(geom, ModeIndex(m, n, 1)).omega for n in range(1, 5)]
                assert all(a < b for a, b in zip(w_n, w_n[1:]))
                w_p = [tm_frequency(geom, ModeIndex(m, 1, p)).omega for p in range(0, 5)]
                assert all(a < b for a, b in zip(w_p, w_p[1:]))


class TestEnumeration:
    def test_empty_below_lowest_mode(self):
        gamma_min = radial_eigenvalue(CYL, 0, 1)
        assert enumerate_modes_below(CYL, 0.99 * C_LIGHT * gamma_min) == []

    @pytest.mark.parametrize("geom,cut", [(CYL, 6.0), (CYL, 9.0), (ANN, 5.0)])
    def test_matches_brute_force(self, geom, cut):
        omega_max = C_LIGHT * cut
        got = {(e.index.m, e.index.n, e.index.p)
               for e in enumerate_modes_below(geom, omega_max)}
        assert got == oracles.brute_force_mode_set(geom, omega_max)

    @pytest.mark.parametrize("geom,cut", [(CYL, 9.0), (ANN, 5.0)])
    def test_entries_equal_tm_frequency(self, geom, cut):
        modes = enumerate_modes_below(geom, C_LIGHT * cut)
        assert modes
        for entry in modes:
            assert entry == tm_frequency(geom, entry.index)

    def test_sorted_by_omega_then_index(self):
        modes = enumerate_modes_below(CYL, C_LIGHT * 9.0)
        keys = [(e.omega, e.index.m, e.index.n, e.index.p) for e in modes]
        assert keys == sorted(keys)

    def test_count_monotone_in_cutoff(self):
        counts = [len(enumerate_modes_below(CYL, C_LIGHT * c)) for c in (3.0, 5.0, 8.0)]
        assert counts[0] <= counts[1] <= counts[2]

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(cavity, "ENUMERATION_CAP", 5)
        with pytest.raises(ResourceLimitError):
            enumerate_modes_below(CYL, C_LIGHT * 9.0)

    @pytest.mark.parametrize("geometry,omega_max", [
        # (0,1,p) alone holds ~1e11 modes below 1e20 rad/s
        ("CylinderGeometry(1, 1)", 1e20),
        # each order of this 1 nm gap has one radial eigenvalue below the
        # cutoff and a tower of 662,959 axial modes: the cap is passed at the
        # sixteenth tower, and must be before the fifteen below it are built
        ("AnnulusGeometry(1 - 1e-9, 1.0, 1e-3)", 1.13e18),
    ], ids=["cylinder", "thin-annulus"])
    def test_huge_tower_raises_before_it_is_built(self, geometry, omega_max):
        # building the modes one by one would take gigabytes, so the child
        # runs under a memory limit
        package_root = os.path.dirname(os.path.dirname(cavity.__file__))
        code = (
            "import time\n"
            "try:\n"
            "    import resource\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "except (ImportError, ValueError):\n"
            "    pass\n"
            "from coaxmode import AnnulusGeometry, CylinderGeometry, enumerate_modes_below\n"
            "t = time.perf_counter()\n"
            "try:\n"
            f"    enumerate_modes_below({geometry}, {omega_max!r})\n"
            "    outcome = 'returned'\n"
            "except Exception as exc:\n"
            "    outcome = type(exc).__name__\n"
            "print(outcome, time.perf_counter() - t)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        outcome, seconds = proc.stdout.split()
        assert outcome == "ResourceLimitError"
        assert float(seconds) < 1.0

    def test_rejects_bad_cutoff(self):
        with pytest.raises(DomainError):
            enumerate_modes_below(CYL, float("inf"))
        with pytest.raises(DomainError):
            enumerate_modes_below(CYL, -1.0)

    def test_foreign_geometry_is_a_geometry_error(self):
        # as mode_count_histogram and tm_frequency say, and before the store
        # hashes it; the cutoff is checked first
        for geometry in (object(), [1.0, 1.0]):
            with pytest.raises(GeometryError):
                enumerate_modes_below(geometry, 3e9)
            with pytest.raises(GeometryError):
                mode_count_histogram(geometry, 3e9, 4)
            with pytest.raises(DomainError):
                enumerate_modes_below(geometry, math.nan)
        with pytest.raises(GeometryError):
            tm_frequency(object(), ModeIndex(0, 1, 0))

    def test_cutoff_beyond_order_envelope_is_explicit(self):
        # x_{50,1} = 57.1, so a cutoff of c*60 would need angular orders
        # past the supported maximum; the message should say so
        with pytest.raises(DomainError, match="angular orders beyond"):
            enumerate_modes_below(CYL, C_LIGHT * 60.0)


def _cold(geometry, omega_max):
    clear_caches()
    return enumerate_modes_below(geometry, omega_max)


class TestSpectrumStore:
    # about 230 and 100 modes below the top cutoffs
    TOPS = ((CYL, 20.0), (ANN, 9.0))

    @staticmethod
    def cutoffs(geometry, top, count, seed):
        # rising and falling runs, repeats, and cutoffs on a mode's own omega
        rng = random.Random(seed)
        exact = [e.omega for e in _cold(geometry, C_LIGHT * top)]
        cuts = []
        while len(cuts) < count:
            kind = rng.randrange(4)
            run = [C_LIGHT * top * rng.uniform(0.2, 1.0) for _ in range(rng.randint(2, 6))]
            if kind == 0:
                cuts += sorted(run)
            elif kind == 1:
                cuts += sorted(run, reverse=True)
            elif kind == 2:
                cuts += [run[0]] * 3
            else:
                cuts += rng.sample(exact, 3)
        return cuts[:count]

    @pytest.mark.parametrize("geometry,top", TOPS, ids=["cylinder", "annulus"])
    def test_any_cutoff_sequence_matches_cold_enumerations(self, geometry, top):
        cuts = self.cutoffs(geometry, top, 200, 20261020)
        cold = {cut: _cold(geometry, cut) for cut in cuts}
        assert any(cold.values()) and any(e.omega in cold for e in cold[max(cuts)])
        clear_caches()
        for cut in cuts:
            got = enumerate_modes_below(geometry, cut)
            assert got == cold[cut], cut
            assert [e.omega.hex() for e in got] == [e.omega.hex() for e in cold[cut]]

    def test_mutating_a_result_leaves_the_next_call_intact(self):
        clear_caches()
        first = enumerate_modes_below(CYL, C_LIGHT * 12.0)
        kept = list(first)
        first.clear()
        again = enumerate_modes_below(CYL, C_LIGHT * 12.0)
        assert again == kept
        again.append(again[0])
        del again[:3]
        assert enumerate_modes_below(CYL, C_LIGHT * 8.0) == _cold(CYL, C_LIGHT * 8.0)
        assert enumerate_modes_below(CYL, C_LIGHT * 12.0) == kept

    def test_a_spectrum_above_the_bound_is_returned_whole_and_not_kept(self):
        clear_caches()
        held = enumerate_modes_below(CYL, C_LIGHT * 20.0)
        omega_max = C_LIGHT * 50.0
        whole = enumerate_modes_below(CYL, omega_max)
        assert len(whole) > cavity._SPECTRUM_MODES
        assert whole[:len(held)] == held
        keys = [(e.omega, e.index.m, e.index.n, e.index.p) for e in whole]
        assert keys == sorted(keys)
        assert sum(e.degeneracy for e in whole) == mode_count_histogram(CYL, omega_max, 1)[0][1]
        assert cavity._spectrum(CYL)[0][0] == C_LIGHT * 20.0
        assert len(cavity._spectrum(CYL)[0][2]) == len(held)
        assert _cold(CYL, omega_max) == whole

    def test_threads_at_interleaved_cutoffs_give_the_serial_results(self):
        cuts = [(geometry, cut) for geometry, top in self.TOPS
                for cut in self.cutoffs(geometry, top, 48, 7)]
        random.Random(3).shuffle(cuts)
        serial = [_cold(geometry, cut) for geometry, cut in cuts]
        clear_caches()
        results = [None] * len(cuts)
        start = threading.Barrier(8, timeout=60)
        interval = sys.getswitchinterval()

        def work(first):
            start.wait()
            for i in range(first, len(cuts), 8):
                results[i] = enumerate_modes_below(*cuts[i])

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


class TestScaling:
    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_omega_scales_inversely(self, s):
        scaled_cyl = CylinderGeometry(b=s * CYL.b, l=s * CYL.l)
        scaled_ann = AnnulusGeometry(a=s * ANN.a, b=s * ANN.b, l=s * ANN.l)
        for idx in (ModeIndex(0, 1, 0), ModeIndex(1, 2, 1), ModeIndex(2, 1, 3)):
            assert tm_frequency(scaled_cyl, idx).omega * s == pytest.approx(
                tm_frequency(CYL, idx).omega, rel=1e-10)
            assert tm_frequency(scaled_ann, idx).omega * s == pytest.approx(
                tm_frequency(ANN, idx).omega, rel=1e-10)

    def test_thin_shell_limit(self):
        thin = AnnulusGeometry(a=0.99, b=1.0, l=1.0)
        assert radial_eigenvalue(thin, 0, 1) == pytest.approx(math.pi / 0.01, rel=0.05)


class TestHistogram:
    def test_single_bin_aggregates_everything(self):
        omega_max = C_LIGHT * 6.0
        hist = mode_count_histogram(CYL, omega_max, 1)
        total = sum(e.degeneracy for e in enumerate_modes_below(CYL, omega_max))
        assert hist == [(omega_max, total)]

    def test_empty_spectrum_gives_zero_counts(self):
        hist = mode_count_histogram(CYL, 1.0, 3)
        assert [count for _, count in hist] == [0, 0, 0]

    def test_matches_hand_binning(self):
        omega_max = C_LIGHT * 6.0
        bins = 4
        hist = mode_count_histogram(CYL, omega_max, bins)
        modes = enumerate_modes_below(CYL, omega_max)
        for i, (edge, count) in enumerate(hist):
            expected_edge = omega_max if i == bins - 1 else omega_max * (i + 1) / bins
            assert edge == expected_edge
            assert count == sum(e.degeneracy for e in modes if e.omega <= edge)

    def test_last_count_is_total(self):
        omega_max = C_LIGHT * 5.0
        hist = mode_count_histogram(ANN, omega_max, 7)
        total = sum(e.degeneracy for e in enumerate_modes_below(ANN, omega_max))
        assert hist[-1][1] == total

    @staticmethod
    def sorted_list_histogram(geometry, omega_max, bins):
        # oracle: bisect_right over the sorted enumeration, weighted cumulatively
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

    def test_seeded_sweep_matches_sorted_list_binning(self):
        rng = random.Random(20261018)
        cases = []
        for _ in range(4):
            b = rng.uniform(0.5, 2.0)
            cases.append((CylinderGeometry(b=b, l=rng.uniform(0.2, 3.0)),
                          C_LIGHT * rng.uniform(2.0, 25.0) / b))
            a = b * rng.uniform(0.2, 0.8)
            cases.append((AnnulusGeometry(a=a, b=b, l=rng.uniform(0.2, 3.0)),
                          C_LIGHT * rng.uniform(2.0, 15.0) / (b - a)))
        # empty spectra, and cutoffs on a mode's own frequency: a tie at the
        # last edge, where the mode must be counted
        cases += [(CYL, 1.0), (ANN, 1.0)]
        cases += [(geom, tm_frequency(geom, idx).omega)
                  for geom, idx in ((CYL, ModeIndex(2, 3, 1)), (ANN, ModeIndex(1, 2, 3)))]
        for geom, omega_max in cases:
            for bins in (1, 7, 64, 1000):
                assert mode_count_histogram(geom, omega_max, bins) == \
                    self.sorted_list_histogram(geom, omega_max, bins), (geom, omega_max, bins)

    def test_large_histogram_builds_no_mode(self):
        # 771,352 weighted modes: building and sorting them takes ~170 MB,
        # so the child runs under a 100 MB address-space limit
        package_root = os.path.dirname(os.path.dirname(cavity.__file__))
        code = (
            "try:\n"
            "    import resource\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))\n"
            "except (ImportError, ValueError):\n"
            "    pass\n"
            "from coaxmode import CylinderGeometry, mode_count_histogram\n"
            "print(mode_count_histogram(CylinderGeometry(1.0, 100.0), 1.6e10, 64)[-1])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.stdout.strip() == "(16000000000.0, 771352)", proc.stderr[-500:]

    def test_bins_validation(self):
        with pytest.raises(DomainError):
            mode_count_histogram(CYL, C_LIGHT, 0)
        with pytest.raises(DomainError):
            mode_count_histogram(CYL, C_LIGHT, 200_000)


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(GeometryError):
            CylinderGeometry(b=-1.0, l=1.0)
        with pytest.raises(GeometryError):
            CylinderGeometry(b=1.0, l=0.0)
        with pytest.raises(GeometryError):
            AnnulusGeometry(a=2.0, b=1.0, l=1.0)
        with pytest.raises(GeometryError):
            AnnulusGeometry(a=1e-5, b=1.0, l=1.0)

    @pytest.mark.parametrize("build", [
        lambda: AnnulusGeometry("0.5", 1.0, 1.0),
        lambda: AnnulusGeometry(0.5, b"1", 1.0),
        lambda: AnnulusGeometry(None, 1.0, 1.0),
        lambda: AnnulusGeometry(0.5, 1.0, bytearray(b"1")),
        lambda: CylinderGeometry("1", 1.0),
        lambda: CylinderGeometry(True, 1.0),
        lambda: CylinderGeometry(1.0, None),
        lambda: cross_product_zeros(0, "1", 2, 3),
        lambda: cross_product_zeros(0, 0.5, True, 3),
        lambda: AnnulusGeometry(1, 10 ** 400, 1.0),
        lambda: CylinderGeometry(10 ** 400, 1.0),
    ], ids=["ann_text", "ann_bytes", "ann_none", "ann_height_bytearray", "cyl_text",
            "cyl_bool", "cyl_height_none", "cross_text", "cross_bool", "ann_huge_int",
            "cyl_huge_int"])
    def test_non_real_dimensions_are_geometry_errors(self, build):
        with pytest.raises(GeometryError):
            build()

    def test_one_wall_check_for_geometry_and_tables(self):
        # the geometry keeps the float walls the table check returns, and
        # both refuse bad walls in the same words
        geometry = AnnulusGeometry(1, 2, 1.0)
        assert (type(geometry.a), type(geometry.b)) == (float, float)
        assert geometry == AnnulusGeometry(1.0, 2.0, 1.0)
        for a, b in ((1e-4, 1.0), (2.0, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(GeometryError) as built:
                AnnulusGeometry(a, b, 1.0)
            with pytest.raises(GeometryError) as tabled:
                cross_product_zeros(0, a, b, 3)
            assert str(built.value) == str(tabled.value)

    def test_mode_index_ranges(self):
        with pytest.raises(DomainError):
            ModeIndex(-1, 1, 0)
        with pytest.raises(DomainError):
            ModeIndex(0, 0, 0)
        with pytest.raises(DomainError):
            ModeIndex(0, 1, -1)


class TestOrderEnvelope:
    @pytest.mark.parametrize("geom,cut", [
        (CylinderGeometry(b=1.0, l=1e-3), 60.0),
        (AnnulusGeometry(a=0.5, b=1.0, l=1e-3), 120.0),
    ])
    def test_rejected_before_any_order_is_scanned(self, geom, cut, monkeypatch):
        def scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(cavity, "_axial_top", scan)
        with pytest.raises(DomainError, match="angular orders beyond 50"):
            enumerate_modes_below(geom, C_LIGHT * cut)

    def test_cutoffs_just_inside_still_scan(self):
        # gamma_{50,1} b = 57.117...; the order-50 tower is the last one built
        omega = C_LIGHT * radial_eigenvalue(CylinderGeometry(b=1.0, l=1e-3), 50, 1)
        modes = enumerate_modes_below(CylinderGeometry(b=1.0, l=1e-3), omega * (1 - 1e-12))
        assert max(e.index.m for e in modes) == 49
        with pytest.raises(DomainError, match="angular orders beyond"):
            enumerate_modes_below(CylinderGeometry(b=1.0, l=1e-3), omega)


class TestVerifySuite:
    SUITE_CUTS = ((CYL, 6.0), (ANN, 5.0))

    def test_brute_force_equals_the_oracle(self):
        for geom, cut in self.SUITE_CUTS:
            found = verify._brute_force_modes(geom, C_LIGHT * cut)
            assert found == sorted(oracles.brute_force_mode_set(geom, C_LIGHT * cut))

    def test_a_dropped_mode_fails_the_comparison(self, monkeypatch):
        real = cavity.enumerate_modes_below
        monkeypatch.setattr(cavity, "enumerate_modes_below",
                            lambda geom, omega_max: real(geom, omega_max)[1:])
        results = {r.check: r.passed for r in verify.run_checks("cavity")}
        assert results.pop("enumeration_vs_brute_force") is False
        assert all(results.values())

    # each a defect in the enumeration's stopping rules, planted after the
    # scan: the exhaustive loop must see the modes it hides
    @staticmethod
    def _drop_each_orders_top_index(towers):
        tops = {m: n for m, n, _, _ in towers}
        return [tower for tower in towers if tower[1] != tops[tower[0]]]

    @staticmethod
    def _drop_the_last_order(towers):
        return [tower for tower in towers if tower[0] != towers[-1][0]]

    @pytest.mark.parametrize("defect", ["top_radial_index", "last_order", "axial_top"])
    def test_planted_stopping_defects_fail_the_comparison(self, defect, monkeypatch):
        if defect == "axial_top":
            real_top = cavity._axial_top
            monkeypatch.setattr(cavity, "_axial_top",
                                lambda *args: max(real_top(*args) - 1, -1))
        else:
            real = cavity._towers
            drop = (self._drop_each_orders_top_index if defect == "top_radial_index"
                    else self._drop_the_last_order)
            monkeypatch.setattr(cavity, "_towers", lambda *args: drop(real(*args)))
        cavity._spectrum.cache_clear()  # held spectra would hide the defect
        try:
            results = {r.check: r.passed for r in verify.run_checks("cavity")}
        finally:
            cavity._spectrum.cache_clear()  # and must not keep it
        assert results.pop("enumeration_vs_brute_force") is False
        assert all(results.values())

    def test_brute_force_reads_only_the_eigenvalues_its_bound_admits(self, monkeypatch):
        # each gamma_mn is read at most once, and only where omega at its lower
        # bound and p = 0 is within the cutoff; no mode is resolved through
        # tm_frequency
        reads = []
        real = cavity.radial_eigenvalue

        def counting(geometry, m, n):
            reads.append((geometry, m, n))
            return real(geometry, m, n)

        def forbidden(*args):
            raise AssertionError("tm_frequency was called")

        monkeypatch.setattr(cavity, "radial_eigenvalue", counting)
        monkeypatch.setattr(cavity, "tm_frequency", forbidden)
        admitted = set()
        for geom, cut in self.SUITE_CUTS:
            verify._brute_force_modes(geom, C_LIGHT * cut)
            admitted.update(
                (geom, m, n) for m in range(21) for n in range(1, 21)
                if cavity._omega(verify._gamma_floor(geom, m, n), 0, geom.l) <= C_LIGHT * cut)
        assert len(reads) == len(set(reads))
        assert set(reads) == admitted
        assert len(admitted) < len(self.SUITE_CUTS) * 21 * 20 // 10

    def test_cold_suite_polishes_few_roots(self, monkeypatch):
        # reading all 2 x 21 x 20 eigenvalues polished 850 roots
        polished = []
        real = roots._polish

        def counting(*args):
            polished.append(args[1:])
            return real(*args)

        monkeypatch.setattr(roots, "_polish", counting)
        clear_caches()
        results = verify.run_checks("cavity")
        assert all(r.passed for r in results)
        assert 0 < len(polished) <= 64


class TestGammaFloor:
    """The brute force's premise: each closed-form bound lies at or below its entry."""

    @pytest.mark.parametrize("b", [1.0, 0.3])
    def test_cylinder(self, b):
        geom = CylinderGeometry(b=b, l=1.0)
        for m in range(51):
            for n in range(1, 201):
                assert verify._gamma_floor(geom, m, n) <= radial_eigenvalue(geom, m, n), (m, n)

    @pytest.mark.parametrize("ratio", [1e-3, 0.01, 0.1, 0.5, 0.9, 0.999])
    def test_annulus(self, ratio):
        geom = AnnulusGeometry(a=ratio, b=1.0, l=1.0)
        for m in (0, 1, 5, 20, 50):
            for n in range(1, 51):
                assert verify._gamma_floor(geom, m, n) <= radial_eigenvalue(geom, m, n), (m, n)
