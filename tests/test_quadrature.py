import math
import os
import subprocess
import sys

import pytest

from coaxmode import gauss_legendre_rule, integrate_adaptive, quadrature
from coaxmode.errors import QuadratureError


class TestRule:
    @pytest.mark.parametrize("n", [10, 20])
    def test_weights_sum_to_interval_length(self, n):
        _, weights = gauss_legendre_rule(n)
        assert sum(weights) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("n", [10, 20])
    def test_nodes_symmetric(self, n):
        nodes, _ = gauss_legendre_rule(n)
        assert sorted(nodes) == pytest.approx([-x for x in sorted(nodes, reverse=True)])

    def test_polynomial_exactness(self):
        # an n-point rule integrates degree 2n-1 exactly
        nodes, weights = gauss_legendre_rule(10)
        got = sum(w * x ** 18 for x, w in zip(nodes, weights))
        assert got == pytest.approx(2.0 / 19.0, rel=1e-13)


class TestAdaptive:
    def test_monomial(self):
        res = integrate_adaptive(lambda x: x ** 5, 0.0, 1.0, abs_tol=1e-12)
        assert res.value == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_oscillatory(self):
        res = integrate_adaptive(math.sin, 0.0, 10.0 * math.pi, abs_tol=1e-11)
        assert abs(res.value) <= 1e-10
        assert res.error_estimate <= 1e-10

    def test_error_estimate_brackets_truth(self):
        truth = 2.0 / 3.0
        res = integrate_adaptive(math.sqrt, 0.0, 1.0, abs_tol=1e-10)
        assert abs(res.value - truth) <= max(res.error_estimate * 10.0, 1e-10)

    def test_reports_achieved_tolerance_on_stagnation(self):
        # sqrt has an endpoint derivative singularity; a shallow depth cap
        # cannot meet the share of a 1e-14 budget near zero
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(math.sqrt, 0.0, 1.0, abs_tol=1e-14, max_depth=8)
        assert info.value.achieved_tolerance > 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_adaptive(math.sin, 1.0, 1.0, abs_tol=1e-10)


class TestNonFiniteInput:
    # a NaN estimate fails every tolerance test, so unchecked these inputs
    # bisect every panel down to max_depth; each case runs in a child
    # process so that a hang fails the test instead of stalling the suite
    @pytest.mark.parametrize("args,expected", [
        ("math.sin, math.nan, 1.0, 1e-10", "DomainError 0"),
        ("math.sin, 0.0, math.inf, 1e-10", "DomainError 0"),
        ("math.sin, -math.inf, 0.0, 1e-10", "DomainError 0"),
        ("math.sin, 0.0, 1.0, math.nan", "DomainError 0"),
        ("lambda x: math.nan, 0.0, 1.0, 1e-10", "QuadratureError 30"),
        ("lambda x: math.inf if x > 0.5 else 0.0, 0.0, 1.0, 1e-10", "QuadratureError 30"),
    ], ids=["nan-lo", "inf-hi", "inf-lo", "nan-tol", "nan-integrand", "inf-integrand"])
    def test_rejected_at_once(self, args, expected):
        package_root = os.path.dirname(os.path.dirname(quadrature.__file__))
        code = (
            "import math\n"
            "from coaxmode import integrate_adaptive\n"
            "calls = 0\n"
            "def counted(g):\n"
            "    def f(x):\n"
            "        global calls\n"
            "        calls += 1\n"
            "        return g(x)\n"
            "    return f\n"
            f"f, lo, hi, tol = {args}\n"
            "try:\n"
            "    integrate_adaptive(counted(f), lo, hi, abs_tol=tol)\n"
            "    outcome = 'returned'\n"
            "except Exception as exc:\n"
            "    outcome = type(exc).__name__\n"
            "print(outcome, calls)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=20, env=env)
        assert proc.stdout.strip() == expected
