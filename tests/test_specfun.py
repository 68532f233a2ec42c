import collections
import json
import math
import pathlib
import random
import sys
import threading

import pytest

from coaxmode import (AnnulusGeometry, CylinderGeometry, EvalResult, ModeIndex, bessel_j,
                      bessel_zeros, cross_product_zeros, derivative, hankel, neumann_n)
from coaxmode.errors import CoaxmodeError, DomainError, EvaluationError, OrderError
from coaxmode import fields, roots, specfun
from coaxmode.specfun import ORDER_MAX, X_MAX

import oracles

EULER_GAMMA = 0.5772156649015329


class TestBesselJ:
    def test_origin_order_zero(self):
        assert bessel_j(0, 0.0).value == 1.0

    def test_origin_positive_order(self):
        assert bessel_j(3, 0.0).value == 0.0

    def test_vanishes_at_first_zero(self):
        assert abs(bessel_j(0, oracles.X01).value) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12])
    def test_negative_order_reflection_bit_identical(self, m):
        for x in (0.3, 2.0, 17.5, 42.0):
            assert bessel_j(-m, x).value == (-1.0) ** m * bessel_j(m, x).value

    def test_small_argument_law(self):
        # J_m(x) ~ (x/2)^m / m! for x -> 0
        for m in range(0, 13):
            for x in (1e-6, 1e-5, 1e-4):
                lead = (0.5 * x) ** m / math.factorial(m)
                assert bessel_j(m, x).value == pytest.approx(lead, rel=1e-6)

    def test_first_arch_positive(self):
        for m in (0, 1, 4, 9):
            first = oracles.bessel_zero_oracle(m)[0] if m <= 5 else 13.0
            for frac in (0.02, 0.4, 0.9):
                assert bessel_j(m, frac * first).value > 0.0

    def test_result_carries_the_value_only(self):
        assert EvalResult.__match_args__ == ("value",)
        assert list(vars(bessel_j(0, 1.0))) == ["value"]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(0, float("nan"))
        with pytest.raises(DomainError):
            bessel_j(0, X_MAX * 1.5)
        with pytest.raises(OrderError):
            bessel_j(ORDER_MAX + 1, 1.0)
        with pytest.raises(OrderError):
            bessel_j(-(ORDER_MAX + 1), 1.0)


class TestNeumann:
    def test_log_form_near_origin(self):
        x = 1e-6
        expected = (2.0 / math.pi) * (math.log(0.5 * x) + EULER_GAMMA)
        assert neumann_n(0, x).value == pytest.approx(expected, rel=1e-6)

    def test_power_form_near_origin(self):
        # N_1(x) ~ -(1/pi)(2/x); at x = 1e-4 that is -6366.19...
        assert neumann_n(1, 1e-4).value == pytest.approx(-2.0 / (math.pi * 1e-4), rel=1e-4)
        assert neumann_n(1, 1e-4).value == pytest.approx(-6366.197723675813, rel=1e-4)

    def test_against_limit_series_oracle(self):
        for probe in oracles.neumann_reference():
            got = neumann_n(probe["m"], probe["x"]).value
            assert got == pytest.approx(probe["value"], abs=1e-10, rel=1e-10)

    def test_negative_order_reflection(self):
        for m in (1, 2, 5):
            for x in (0.7, 6.0, 25.0):
                assert neumann_n(-m, x).value == (-1.0) ** m * neumann_n(m, x).value

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            neumann_n(0, 0.0)
        with pytest.raises(DomainError):
            neumann_n(2, -3.0)

    @pytest.mark.parametrize("call", [
        lambda: neumann_n(1, 1e-310),
        lambda: hankel(1, 1, 1e-310),
        lambda: derivative("N", 0, 1e-310),
        lambda: derivative("H1", 0, 1e-310),
        lambda: neumann_n(0, 5e-324),   # x/2 underflows to 0 before the log
        lambda: neumann_n(1, 5e-324),
    ], ids=["N1", "H1", "dN0", "dH1_0", "N0_min_subnormal", "N1_min_subnormal"])
    def test_overflow_raises_typed_error(self, call):
        with pytest.raises(EvaluationError):
            call()

    def test_order_one_just_below_overflow(self):
        # subnormal x where 2/x itself overflows but N_1 ~ -(2/pi)/x does not
        x = 6e-309
        got = neumann_n(1, x).value
        assert math.isfinite(got)
        assert got == pytest.approx(-(2.0 / math.pi) / x, rel=1e-12)

    def test_tiny_argument_order_zero_stays_a_value(self):
        # N_0 only grows like log x, so it stays finite where N_1 overflows
        assert neumann_n(0, 1e-310).value == pytest.approx(-454.4938756003538, rel=1e-14)


class TestHankel:
    def test_composition(self):
        j = bessel_j(0, 1.0).value
        n = neumann_n(0, 1.0).value
        assert hankel(1, 0, 1.0) == complex(j, n)
        assert hankel(2, 0, 1.0) == complex(j, -n)

    def test_kinds_conjugate_on_real_axis(self):
        assert hankel(2, 0, 1.0) == hankel(1, 0, 1.0).conjugate()

    def test_recursion_residual(self):
        m, x = 2, 5.0
        res = hankel(1, m - 1, x) + hankel(1, m + 1, x) - (2.0 * m / x) * hankel(1, m, x)
        assert abs(res) < 1e-10

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            hankel(3, 0, 1.0)


class TestDerivative:
    def test_order_zero_is_minus_j1(self):
        for x in (1e-4, 1e-3):
            d = derivative("J", 0, x).value
            assert d == -bessel_j(1, x).value
            assert d == pytest.approx(-0.5 * x, rel=1e-6)

    def test_j1_finite_difference(self):
        x = 3.8317059702  # near the first extremum-free zero of J_1
        fd = oracles.central_difference(lambda t: bessel_j(1, t).value, x, 1e-6)
        assert derivative("J", 1, x).value == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_neumann_finite_difference(self):
        fd = oracles.central_difference(lambda t: neumann_n(0, t).value, 1.0, 1e-6)
        assert derivative("N", 0, 1.0).value == pytest.approx(fd, rel=1e-6)

    def test_hankel_derivative_is_complex(self):
        d = derivative("H1", 3, 7.0).value
        assert isinstance(d, complex)
        assert d == pytest.approx(0.5 * (hankel(1, 2, 7.0) - hankel(1, 4, 7.0)))

    def test_j_family_allows_origin(self):
        assert derivative("J", 1, 0.0).value == 0.5

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            derivative("K", 0, 1.0)


class TestInputChecks:
    @pytest.mark.parametrize("call", [
        lambda: derivative(1, 0, 1.0),
        lambda: bessel_j(0, "abc"),
        lambda: hankel(1, 0, "x"),
        lambda: bessel_j(0, 1 + 2j),
        lambda: neumann_n(0, None),
        lambda: bessel_j(1, "2"),
        lambda: neumann_n(1, b"2"),
        lambda: derivative("J", 1, bytearray(b"2")),
        lambda: bessel_j(1, True),
        lambda: bessel_j(0, 10 ** 400),
    ], ids=["family_not_str", "j_text", "hankel_text", "j_complex", "n_none",
            "j_numeric_text", "n_bytes", "derivative_bytearray", "j_bool", "j_huge_int"])
    def test_bad_argument_types_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestRecursionProperty:
    def test_three_term_recursion_sampled(self):
        rng = random.Random(42)
        for _ in range(600):
            m = rng.randint(1, 19)
            x = rng.uniform(0.1, 50.0)
            fam = rng.choice(("J", "N", "H1", "H2"))
            if fam == "J":
                f = lambda mm: bessel_j(mm, x).value
            elif fam == "N":
                f = lambda mm: neumann_n(mm, x).value
            else:
                kind = 1 if fam == "H1" else 2
                f = lambda mm: hankel(kind, mm, x)
            mid = f(m)
            residual = abs(f(m - 1) + f(m + 1) - (2.0 * m / x) * mid)
            assert residual <= 1e-10 * max(1.0, abs(mid)), (fam, m, x)

    def test_derivative_matches_finite_difference_sampled(self):
        rng = random.Random(43)
        for _ in range(250):
            m = rng.randint(0, 19)
            x = rng.uniform(0.2, 50.0)
            h = 1e-6 * max(1.0, x)
            for fam, f in (("J", lambda t: bessel_j(m, t).value),
                           ("N", lambda t: neumann_n(m, t).value)):
                d = derivative(fam, m, x).value
                fd = (f(x + h) - f(x - h)) / (2.0 * h)
                if abs(d) > 1e-8:
                    assert d == pytest.approx(fd, rel=1e-6), (fam, m, x)


def _assert_readme_bounds(probes, j_tol=1e-13):
    # J within 1e-13 (or j_tol) of the amplitude sqrt(2/(pi max(x, 1))), N
    # within 1e-14 of max(|N|, amplitude), at orders m and m+1 of one ladder run
    for probe in probes:
        m, x = probe["m"], probe["x"]
        amp = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
        values = specfun._ladder(m, x, True)
        for got, ref in zip(values[:2], probe["j"]):
            assert abs(got - ref) <= j_tol * amp, (m, x, got, ref)
        for got, ref in zip(values[2:], probe["n"]):
            assert abs(got - ref) <= 1e-14 * max(abs(ref), amp), (m, x, got, ref)


class TestLadderOracle:
    def test_ladder_within_readme_bounds(self):
        probes = oracles.ladder_reference()
        assert len(probes) == 400
        _assert_readme_bounds(probes)

    def test_midrange_ladder_within_readme_bounds(self):
        # 1 <= x < 18, where N_0 and N_1 come from sums over the backward run
        probes = oracles.ladder_midrange_reference()
        assert len(probes) == 300
        assert all(1.0 <= p["x"] < 18.0 and 0 <= p["m"] <= ORDER_MAX for p in probes)
        backward = sum(not specfun._series_is_safe(p["m"], p["x"]) for p in probes)
        assert backward >= 100, backward
        _assert_readme_bounds(probes)

    def test_backward_run_within_ten_times_tighter_bounds(self, monkeypatch):
        # every probe runs _miller, both for J (1 <= x < 57) and for N (x < 18),
        # seams included; a start too shallow for double precision shows here
        # long before it reaches the README bound
        probes = oracles.backward_reference()
        assert len(probes) == 300
        real = specfun._miller
        runs = []

        def counted(m, x, with_n):
            runs.append((m, x, with_n))
            return real(m, x, with_n)

        monkeypatch.setattr(specfun, "_miller", counted)
        for probe in probes:
            m, x = probe["m"], probe["x"]
            del runs[:]
            specfun._ladder(m, x, True)
            assert runs, (m, x)
        j_runs = sum(not specfun._series_is_safe(p["m"], p["x"]) for p in probes)
        assert j_runs >= 200, j_runs
        assert sum(p["x"] >= 18.0 for p in probes) >= 100
        _assert_readme_bounds(probes, j_tol=1e-14)

    def test_n_weights_cover_the_largest_with_n_start(self):
        # the run that sums N_0 and N_1 reads the weights below its start, and
        # starts highest at m = 50, x just below 18
        m, x = ORDER_MAX, math.nextafter(18.0, 0.0)
        start = specfun._miller_start(m, x)
        assert len(specfun._N0_WEIGHTS) == len(specfun._N1_WEIGHTS) == start
        starts = [specfun._miller_start(k, 1.0 + i / 64.0)
                  for k in range(ORDER_MAX + 1) for i in range(17 * 64)]
        assert max(starts) <= start
        assert not specfun._series_is_safe(m, x)
        assert all(math.isfinite(v) for v in specfun._ladder(m, x, True))

    def test_step_table_covers_every_backward_start(self):
        # the run walks the table from its start; the J-only run starts
        # highest at m = 50 and x just below 51 / 0.9, where the climb takes over
        x = math.nextafter((ORDER_MAX + 1) / 0.9, 0.0)
        assert x >= 18.0 and not ORDER_MAX + 1 < 0.9 * x
        assert specfun._miller_start(ORDER_MAX, x) <= specfun._STEPS_TOP
        # entry i is step k = top - 2i, down to 4, with its orders and the
        # weights the with-N run adds there
        steps = specfun._STEPS
        assert [kf for kf, *_ in steps] == list(map(float, range(specfun._STEPS_TOP, 2, -2)))
        for kf, km1, w0, w1 in steps:
            k = int(kf)
            assert km1 == k - 1
            if k <= len(specfun._N0_WEIGHTS):
                assert (w0, w1) == (specfun._N0_WEIGHTS[k - 2], specfun._N1_WEIGHTS[k - 1])

    def test_public_calls_read_the_ladder(self):
        for probe in oracles.ladder_reference()[:100]:
            m, x = probe["m"], probe["x"]
            jm, jm1, nm, nm1 = specfun._ladder(m, x, True)
            assert bessel_j(m, x).value == jm
            assert specfun._ladder(m, x, False) == (jm, jm1)
            assert neumann_n(m, x).value == nm
        # the backward run sums N_0 and N_1 only when N is asked for; J must
        # carry the same bits either way, as in the series
        rng = random.Random(45)
        regimes = {"series": 0, "backward": 0}
        for _ in range(400):
            m, x = rng.randint(0, 50), rng.uniform(4.0, 57.0)
            if x >= 18.0 and (4 * (m + 1) ** 2 <= 6 * x or m + 1 < 0.9 * x):
                continue  # the large-argument regimes
            regimes["series" if specfun._series_is_safe(m, x) else "backward"] += 1
            j_only = specfun._ladder(m, x, False)
            with_n = specfun._ladder(m, x, True)
            assert [v.hex() for v in j_only] == [v.hex() for v in with_n[:2]], (m, x)
        assert min(regimes.values()) >= 20, regimes


def _bits(v):
    # exact representation, sign of zero included
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


class TestLadderBits:
    """The ladder's frozen bits, written by tests/tools/gen_ladder_bits.py.

    Every kernel is meant to perform the plain recurrence's float
    operations in its order, so a faster loop must give these bits exactly.
    """

    ROWS = [row.split() for row in json.loads(
        (pathlib.Path(__file__).parent / "data" / "ladder_bits.json").read_text())["rows"]]

    def test_every_regime_and_seam_is_pinned(self):
        regimes = collections.Counter()
        for m, x, *_ in self.ROWS:
            m, x = int(m), float.fromhex(x)
            if x >= 18.0:
                regimes["expansion" if 4.0 * (m + 1) ** 2 <= 6.0 * x
                        else "climb" if m + 1 < 0.9 * x else "backward J"] += 1
            elif x >= 1.0:
                regimes["series" if specfun._series_is_safe(m, x) else "backward"] += 1
            else:
                regimes["limit series"] += 1
        assert len(self.ROWS) >= 1_500
        assert min(regimes.values()) >= 100, regimes
        xs = {float.fromhex(x) for _, x, *_ in self.ROWS}
        for edge in (1.0, 4.0, 18.0, 57.0):
            assert {math.nextafter(edge, 0.0), edge, math.nextafter(edge, 99.0)} <= xs
        orders = {int(m) for m, *_ in self.ROWS}
        assert orders == set(range(ORDER_MAX + 1))

    def test_ladder_keeps_its_bits(self):
        changed = []
        for m, x, *values in self.ROWS:
            m, x = int(m), float.fromhex(x)
            with_n = [v.hex() for v in specfun._ladder(m, x, True)]
            j_only = [v.hex() for v in specfun._ladder(m, x, False)]
            if with_n != values or j_only != values[:2]:
                changed.append((m, x.hex()))
        assert not changed, (len(changed), changed[:5])


class TestExpansionDeclines:
    def test_declines_where_an_order_diverges_first(self):
        # at x = 18 the terms grow before they fall to 5e-16: at order m for
        # m = 50, at order m+1 only for m = 8
        assert specfun._asym(50, 18.0) is None
        assert specfun._asym(8, 18.0) is None

    def test_never_declines_inside_the_ladder_regime(self):
        # _ladder uses the expansion where x >= 18 and 4 (m+1)^2 <= 6 x, and
        # climbs from _asym(0, x) with no None check; sweep up from that edge
        declined = []
        for m in range(ORDER_MAX + 1):
            edge = max(18.0, 4.0 * (m + 1) * (m + 1) / 6.0)
            while 4.0 * (m + 1) * (m + 1) > 6.0 * edge:
                edge = math.nextafter(edge, math.inf)
            for i in range(601):
                x = edge * (1.0 + i / 1000.0)
                if specfun._asym(m, x) is None:
                    declined.append((m, x))
        assert not declined, declined[:5]


class TestReflectionSampled:
    def test_negative_orders_bit_identical(self):
        rng = random.Random(44)
        points = [(m, x) for m in range(ORDER_MAX + 1) for x in (0.0, 1e-300)]
        points += [(rng.randint(0, ORDER_MAX), 10 ** rng.uniform(-6, 4)) for _ in range(400)]
        for m, x in points:
            for fam in ("J", "N", "H1", "H2"):
                try:
                    plus = derivative(fam, m, x).value
                except CoaxmodeError as exc:
                    with pytest.raises(type(exc)):
                        derivative(fam, -m, x)
                    continue
                flipped = -plus if m % 2 else plus
                assert _bits(derivative(fam, -m, x).value) == _bits(flipped), (fam, m, x)
            for order in (m, -m):
                for kind, sign in ((1, 1.0), (2, -1.0)):
                    try:
                        h = hankel(kind, order, x)
                    except CoaxmodeError as exc:
                        with pytest.raises(type(exc)):
                            neumann_n(order, x)
                        continue
                    composed = complex(bessel_j(order, x).value,
                                       sign * neumann_n(order, x).value)
                    assert _bits(h) == _bits(composed), (kind, order, x)


class TestLadderMemo:
    POINTS = [(m, 0.731 + 0.917 * i) for i, m in enumerate((0, 1, 3, 7, 12, 20, 33, 50))]

    def test_fields_reads_the_specfun_memo(self):
        assert fields._cached_ladder is specfun._cached_ladder

    @pytest.mark.parametrize("call, with_n, pick", [
        (lambda m, x: bessel_j(m, x).value, False, lambda lad, m, x: lad[0]),
        (lambda m, x: neumann_n(m, x).value, True, lambda lad, m, x: lad[2]),
        (lambda m, x: derivative("J", m, x).value, False,
         lambda lad, m, x: specfun._slope(m, x, lad[0], lad[1])),
        (lambda m, x: derivative("N", m, x).value, True,
         lambda lad, m, x: specfun._slope(m, x, lad[2], lad[3])),
        (lambda m, x: hankel(1, m, x), True, lambda lad, m, x: complex(lad[0], lad[2])),
        (lambda m, x: hankel(2, m, x), True, lambda lad, m, x: complex(lad[0], -lad[2])),
    ], ids=["bessel_j", "neumann_n", "dJ", "dN", "H1", "H2"])
    def test_repeated_call_is_a_hit_with_the_ladder_bits(self, call, with_n, pick):
        memo = specfun._cached_ladder
        for m, x in self.POINTS:
            first = call(m, x)
            before = memo.cache_info()
            again = call(m, x)
            after = memo.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
            expected = pick(specfun._ladder(m, x, with_n), m, x)
            assert _bits(first) == _bits(again) == _bits(expected), (m, x)

    def test_fresh_root_tables_leave_the_memo_alone(self):
        # root finding calls _ladder itself: its arguments never repeat
        roots._table.cache_clear()
        try:
            before = specfun._cached_ladder.cache_info()
            bessel_zeros(4, 30)
            cross_product_zeros(2, 0.37, 1.91, 12)
            after = specfun._cached_ladder.cache_info()
        finally:
            roots._table.cache_clear()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("geometry", [CylinderGeometry(b=1.0, l=1.0),
                                          AnnulusGeometry(a=0.5, b=1.0, l=1.0)],
                             ids=["cyl", "ann"])
    def test_fresh_helmholtz_seed_leaves_the_memo_alone(self, geometry):
        # the stencil's seeded points call _ladder itself; only the 64-point
        # scale grid reads the memo, once, and its peak is held with the mode:
        # a warm call reads the memo not at all, however many points it takes
        index = ModeIndex(2, 1, 1)
        fields.helmholtz_residual(geometry, index, npoints=5, seed=11)
        for npoints, seed in ((5, 12), (40, 13)):
            before = specfun._cached_ladder.cache_info()
            fields.helmholtz_residual(geometry, index, npoints=npoints, seed=seed)
            assert specfun._cached_ladder.cache_info() == before

    def test_threads_on_overlapping_arguments_get_the_serial_bits(self):
        points = [(m, 2.345 + 0.6113 * i) for i, m in
                  enumerate(m for m in range(0, ORDER_MAX + 1, 5) for _ in range(6))]
        serial = {(m, x): (specfun._ladder(m, x, False)[0], specfun._ladder(m, x, True)[2])
                  for m, x in points}
        results = [[] for _ in range(4)]

        def work(i):
            # each thread walks every point three times, from its own start
            start = i * len(points) // 4
            for m, x in (points[start:] + points[:start]) * 3:
                results[i].append(((m, x), (bessel_j(m, x).value, neumann_n(m, x).value)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(got) for got in results] == [3 * len(points)] * 4
        for got in results:
            for key, values in got:
                assert [v.hex() for v in values] == [v.hex() for v in serial[key]], key
