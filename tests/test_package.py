"""The package's public names, their integer arguments, and what each CLI command loads
from a cold start."""

import ast
import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

import coaxmode
from coaxmode import cavity, verify
from coaxmode.cli import main

# the public API of coaxmode 0.2.0: defining layer -> the names it exports
PUBLIC_API = {
    "specfun": ("EvalResult", "ORDER_MAX", "X_MAX", "bessel_j", "neumann_n", "hankel",
                "derivative"),
    "roots": ("ZeroTable", "bessel_zeros", "cross_product_zeros"),
    "cavity": ("CylinderGeometry", "AnnulusGeometry", "Geometry", "C_LIGHT", "ModeIndex",
               "ModeEntry", "tm_frequency", "radial_eigenvalue", "enumerate_modes_below",
               "mode_count_histogram"),
    "fields": ("FieldPoint", "FieldSample", "ModeAmplitude", "RadialSolution",
               "radial_solution", "ez_mode", "transverse_fields", "field_grid", "superpose",
               "real_basis", "orthogonality_check", "boundary_residual", "helmholtz_residual"),
    "quadrature": ("QuadratureResult", "gauss_legendre_rule", "integrate_adaptive"),
    "errors": ("clear_caches",),
}


class TestPublicApi:
    def test_all_lists_the_api(self):
        names = [name for layer in PUBLIC_API.values() for name in layer]
        assert sorted(coaxmode.__all__) == sorted(["__version__", "errors", *names])
        assert len(set(coaxmode.__all__)) == len(coaxmode.__all__)
        assert set(coaxmode.__all__) <= set(dir(coaxmode))

    def test_each_name_is_its_layers_object(self):
        for layer, names in PUBLIC_API.items():
            module = importlib.import_module(f"coaxmode.{layer}")
            assert getattr(coaxmode, layer) is module
            for name in names:
                assert getattr(coaxmode, name) is getattr(module, name), name
        assert coaxmode.errors is importlib.import_module("coaxmode.errors")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from coaxmode import *", namespace)
        for name in coaxmode.__all__:
            assert namespace[name] is getattr(coaxmode, name), name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            coaxmode.no_such_name
        assert not hasattr(coaxmode, "bessel_zeros_")
        with pytest.raises(ImportError):
            exec("from coaxmode import no_such_name", {})

    def test_version_flag_matches_pyproject(self, capsys):
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(encoding="utf-8"),
                             re.MULTILINE).group(1)
        assert coaxmode.__version__ == declared
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"coaxmode {declared}\n"

    def test_verify_help_lists_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert ", ".join(verify.MODULES) in capsys.readouterr().out


# one of each record: (class, its fields by keyword, the repr a frozen
# dataclass gave it in coaxmode 0.2.0)
_RECORDS = [
    (coaxmode.EvalResult, {"value": 0.5}, "EvalResult(value=0.5)"),
    (coaxmode.ZeroTable, {"m": 0, "kind": "cylinder", "zeros": (2.5, 5.5),
                          "residuals": (1e-17, 2e-16), "geometry_tag": (1.0, 2.0)},
     "ZeroTable(m=0, kind='cylinder', zeros=(2.5, 5.5), residuals=(1e-17, 2e-16), "
     "geometry_tag=(1.0, 2.0))"),
    (coaxmode.CylinderGeometry, {"b": 1.0, "l": 2.0}, "CylinderGeometry(b=1.0, l=2.0)"),
    (coaxmode.AnnulusGeometry, {"a": 0.5, "b": 1.0, "l": 1.0},
     "AnnulusGeometry(a=0.5, b=1.0, l=1.0)"),
    (coaxmode.ModeIndex, {"m": 1, "n": 2, "p": 3}, "ModeIndex(m=1, n=2, p=3)"),
    (coaxmode.ModeEntry, {"index": coaxmode.ModeIndex(0, 1, 0), "gamma": 2.404825557695773,
                          "omega": 721036119.5, "degeneracy": 2},
     "ModeEntry(index=ModeIndex(m=0, n=1, p=0), gamma=2.404825557695773, "
     "omega=721036119.5, degeneracy=2)"),
    (coaxmode.RadialSolution, {"m": 1, "gamma": 3.8, "coeff_j": 1.0, "coeff_n": -0.5},
     "RadialSolution(m=1, gamma=3.8, coeff_j=1.0, coeff_n=-0.5)"),
    (coaxmode.FieldPoint, {"rho": 0.5, "phi": 0.0, "z": 0.25},
     "FieldPoint(rho=0.5, phi=0.0, z=0.25)"),
    (coaxmode.FieldSample, {"e_z": 1j, "e_rho": 0j, "e_phi": -1j, "b_rho": 2 + 0j, "b_phi": 0j},
     "FieldSample(e_z=1j, e_rho=0j, e_phi=(-0-1j), b_rho=(2+0j), b_phi=0j)"),
    (coaxmode.ModeAmplitude, {"index": coaxmode.ModeIndex(1, 1, 1), "sign": -1,
                              "amplitude": 0.5 - 1j},
     "ModeAmplitude(index=ModeIndex(m=1, n=1, p=1), sign=-1, amplitude=(0.5-1j))"),
    (coaxmode.QuadratureResult, {"value": 0.25, "error_estimate": 1e-15, "evaluations": 21},
     "QuadratureResult(value=0.25, error_estimate=1e-15, evaluations=21)"),
    (verify.CheckResult, {"module": "specfun", "check": "wronskian", "passed": True,
                          "detail": "ok"},
     "CheckResult(module='specfun', check='wronskian', passed=True, detail='ok')"),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, text", _RECORDS,
                             ids=[cls.__name__ for cls, _, _ in _RECORDS])
    def test_record_contract(self, cls, fields, text):
        record = cls(**fields)
        assert repr(record) == text
        twin = cls(*fields.values())
        assert twin == record and hash(twin) == hash(record)
        assert record != tuple(fields.values())
        for other_cls, other_fields, _ in _RECORDS:
            if other_cls is not cls:
                assert record != other_cls(**other_fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
        assert getattr(record, name) == fields[name]

    def test_zero_table_tag_defaults_to_none(self):
        table = coaxmode.ZeroTable(0, "cylinder", (2.5,), (0.0,))
        assert table.geometry_tag is None
        assert table == coaxmode.ZeroTable(0, "cylinder", (2.5,), (0.0,), None)

    def test_equal_fields_of_another_class_differ(self):
        assert coaxmode.FieldPoint(0.5, 1.0, 1.0) != coaxmode.AnnulusGeometry(0.5, 1.0, 1.0)


# `python -m coaxmode ARGS`, reporting on stderr the modules the command added
_CHILD = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("coaxmode", run_name="__main__", alter_sys=True)
finally:
    print("loaded:", *sorted(set(sys.modules) - before), file=sys.stderr)
"""

_BASE = {"coaxmode", "coaxmode.cli", "coaxmode.errors"}
_FIELD_GRID = ("--cavity", "cylinder", "--b", "1", "--l", "1", "--mode", "1,1,1", "--sign", "+",
               "--rho", "0:1:2", "--phi", "0:1:2", "--z", "0:1:2")


def _cold_run(*argv) -> set[str]:
    # the child imports the coaxmode this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return set(proc.stderr.rsplit("loaded:", 1)[1].split())


class TestColdImports:
    """Fresh processes: in-process CLI calls run with every layer already loaded."""

    @pytest.mark.parametrize("argv,layers", [
        (("--version",), set()),
        (("zeros", "--kind", "bessel", "--m", "0", "--count", "3"), {"specfun", "roots"}),
        (("modes", "--cavity", "cylinder", "--b", "1", "--l", "1", "--omega-max", "3e9",
          "--histogram", "8"), {"specfun", "roots", "cavity"}),
        (("field", *_FIELD_GRID), {"specfun", "roots", "cavity", "fields"}),
        (("verify", "specfun"), {"verify", "specfun", "roots"}),
        (("verify", "roots"), {"verify", "specfun", "roots"}),
        (("modes", "--cavity", "annulus", "--a", "1", "--b", "2", "--l", "1",
          "--omega-max", "3e9"), {"specfun", "roots", "cavity"}),
        (("verify", "cavity"), {"verify", "specfun", "roots", "cavity"}),
        (("verify", "fields"),
         {"verify", "specfun", "roots", "cavity", "fields", "quadrature"}),
    ])
    def test_command_loads_only_its_layers(self, argv, layers):
        loaded = _cold_run(*argv)
        assert {m for m in loaded if m.startswith("coaxmode")} == (
            _BASE | {f"coaxmode.{layer}" for layer in layers})
        # the records are built without dataclasses, and so without inspect
        assert not {"dataclasses", "inspect"} & loaded
        if not layers:
            # nothing is written, so neither the layers' imports nor the writers'
            assert not {"csv", "json"} & loaded

    @pytest.mark.parametrize("fmt, other", [("csv", "json"), ("json", "csv")])
    def test_field_loads_only_its_writer(self, fmt, other):
        loaded = _cold_run("field", *_FIELD_GRID, "--format", fmt)
        assert fmt in loaded and other not in loaded

    def test_quadrature_loads_no_special_functions(self):
        # quadrature takes its argument checks from errors, not from specfun
        package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = "import sys, coaxmode.quadrature; print(sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "'coaxmode.quadrature'" in proc.stdout
        assert "'coaxmode.specfun'" not in proc.stdout


_CYL = coaxmode.CylinderGeometry(1.0, 1.0)
_MODE = coaxmode.ModeIndex(1, 1, 1)
_POINT = coaxmode.FieldPoint(0.5, 0.0, 0.5)
_ANN = coaxmode.AnnulusGeometry(0.5, 1.0, 1.0)


class TestIntegerArguments:
    # a bool or float where an integer belongs gets the DomainError of an
    # out-of-range value, not a silent 1 or 1.0
    @pytest.mark.parametrize("call, message", [
        (lambda: coaxmode.ModeIndex(True, 1, 0), "mode index"),
        (lambda: coaxmode.ModeIndex(0, 1.0, 0), "mode index"),
        (lambda: coaxmode.bessel_zeros(0, True), "count"),
        (lambda: coaxmode.mode_count_histogram(_CYL, 3e9, True), "bins"),
        (lambda: coaxmode.helmholtz_residual(_CYL, _MODE, 1, True), "npoints"),
        (lambda: coaxmode.helmholtz_residual(_CYL, _MODE, 1, 10 ** 9), "npoints"),
        (lambda: coaxmode.helmholtz_residual(_CYL, _MODE, seed=True), "seed"),
        (lambda: coaxmode.helmholtz_residual(_CYL, _MODE, seed=2.5), "seed"),
        (lambda: coaxmode.helmholtz_residual(_CYL, _MODE, seed=[1]), "seed"),
        (lambda: coaxmode.hankel(True, 1, 2.0), "Hankel kind"),
        (lambda: coaxmode.hankel(1.0, 1, 2.0), "Hankel kind"),
        (lambda: coaxmode.ez_mode(_CYL, _MODE, True, 1.0, _POINT), "orientation sign"),
        (lambda: coaxmode.transverse_fields(_CYL, _MODE, 1.0, 1.0, _POINT), "orientation sign"),
        (lambda: coaxmode.field_grid(_CYL, _MODE, -1.0, 1.0, [0.5], [0.0], [0.5]),
         "orientation sign"),
    ], ids=["mode_m_bool", "mode_n_float", "count_bool", "bins_bool", "npoints_bool",
            "npoints_over_cap", "seed_bool", "seed_float", "seed_list", "kind_bool", "kind_float", "ez_sign_bool",
            "transverse_sign_float", "grid_sign_float"])
    def test_bool_and_float_are_rejected(self, call, message):
        with pytest.raises(coaxmode.errors.DomainError, match=message):
            call()


# a bare object, an unhashable list, and a duck that carries walls and a height
_FOREIGN = [object(), [1.0, 1.0], SimpleNamespace(a=0.5, b=1.0, l=1.0)]


class TestForeignGeometry:
    # every public call that takes a geometry refuses anything but the two
    # records with GeometryError, before a store would hash it or a wall is read
    @pytest.mark.parametrize("call", [
        lambda g: coaxmode.tm_frequency(g, _MODE),
        lambda g: coaxmode.radial_eigenvalue(g, 1, 1),
        lambda g: coaxmode.enumerate_modes_below(g, 6.0 * coaxmode.C_LIGHT),
        lambda g: coaxmode.mode_count_histogram(g, 6.0 * coaxmode.C_LIGHT, 4),
        lambda g: coaxmode.radial_solution(g, 1, 1),
        lambda g: coaxmode.ez_mode(g, _MODE, 1, 1.0, _POINT),
        lambda g: coaxmode.transverse_fields(g, _MODE, 1, 1.0, _POINT),
        lambda g: coaxmode.superpose(g, [], _POINT),
        lambda g: coaxmode.superpose(g, [coaxmode.ModeAmplitude(_MODE, 1, 1.0)], _POINT),
        lambda g: coaxmode.field_grid(g, _MODE, 1, 1.0, [], [], []),
        lambda g: coaxmode.field_grid(g, _MODE, 1, 1.0, [0.75], [0.0], [0.5]),
        lambda g: coaxmode.boundary_residual(g, _MODE),
        lambda g: coaxmode.helmholtz_residual(g, _MODE),
    ], ids=["tm_frequency", "radial_eigenvalue", "enumerate_modes_below",
            "mode_count_histogram", "radial_solution", "ez_mode", "transverse_fields",
            "superpose_empty", "superpose", "field_grid_empty", "field_grid",
            "boundary_residual", "helmholtz_residual"])
    @pytest.mark.parametrize("geometry", _FOREIGN, ids=["object", "list", "duck"])
    def test_is_a_geometry_error_and_leaves_the_stores_alone(self, call, geometry):
        def sizes():
            return {name: store.cache_info().currsize
                    for name, store in coaxmode.errors._MEMOS.items()}

        before = sizes()
        with pytest.raises(coaxmode.errors.GeometryError, match="unsupported geometry"):
            call(geometry)
        assert sizes() == before

    def test_cylinder_inner_wall_is_a_constant_not_a_field(self):
        cylinder = coaxmode.CylinderGeometry(b=1, l=1)
        assert cylinder.a == 0.0 and type(cylinder.a) is float
        assert coaxmode.CylinderGeometry.__match_args__ == ("b", "l")
        assert repr(cylinder) == "CylinderGeometry(b=1.0, l=1.0)"
        assert cylinder == coaxmode.CylinderGeometry(1.0, 1.0)
        assert hash(cylinder) == hash(coaxmode.CylinderGeometry(1.0, 1.0))
        with pytest.raises(TypeError):
            coaxmode.CylinderGeometry(a=0.0, b=1, l=1)
        with pytest.raises(AttributeError):
            cylinder.a = 0.5


# a bare object, a tuple of the record's fields, and a duck that carries them
def _foreign_record(which, kind, *fields):
    duck = SimpleNamespace(**dict(zip(kind.__match_args__, fields)))
    return (object(), tuple(fields), duck)[which]


_LOOK_ALIKES = pytest.mark.parametrize("which", range(3), ids=["object", "tuple", "duck"])


class TestForeignIndex:
    # every public call refuses anything but a ModeIndex, FieldPoint or
    # ModeAmplitude with DomainError, after the geometry check and before a
    # store hashes the numbers read from it
    INDEX_CALLS = {
        "tm_frequency": lambda g, i: coaxmode.tm_frequency(g, i),
        "ez_mode": lambda g, i: coaxmode.ez_mode(g, i, 1, 1.0, _POINT),
        "transverse_fields": lambda g, i: coaxmode.transverse_fields(g, i, 1, 1.0, _POINT),
        "superpose": lambda g, i: coaxmode.superpose(g, [coaxmode.ModeAmplitude(i, 1, 1.0)],
                                                     _POINT),
        "field_grid": lambda g, i: coaxmode.field_grid(g, i, 1, 1.0, [0.75], [0.0], [0.5]),
        "boundary_residual": lambda g, i: coaxmode.boundary_residual(g, i),
        "helmholtz_residual": lambda g, i: coaxmode.helmholtz_residual(g, i),
    }
    POINT_CALLS = {
        "ez_mode": lambda g, p: coaxmode.ez_mode(g, _MODE, 1, 1.0, p),
        "transverse_fields": lambda g, p: coaxmode.transverse_fields(g, _MODE, 1, 1.0, p),
        "superpose_empty": lambda g, p: coaxmode.superpose(g, [], p),
        "superpose": lambda g, p: coaxmode.superpose(
            g, [coaxmode.ModeAmplitude(_MODE, 1, 1.0)], p),
    }

    @staticmethod
    def _refused(call, *args):
        sizes = {name: store.cache_info().currsize
                 for name, store in coaxmode.errors._MEMOS.items()}
        with pytest.raises(coaxmode.errors.DomainError) as caught:
            call(*args)
        assert type(caught.value) is coaxmode.errors.DomainError
        assert {name: store.cache_info().currsize
                for name, store in coaxmode.errors._MEMOS.items()} == sizes
        return str(caught.value)

    @pytest.mark.parametrize("call", INDEX_CALLS.values(), ids=INDEX_CALLS.keys())
    @pytest.mark.parametrize("geometry", [_CYL, _ANN], ids=["cyl", "ann"])
    @_LOOK_ALIKES
    def test_foreign_index_is_a_domain_error(self, call, geometry, which):
        call(geometry, _MODE)  # warm: a hit must not pass a look-alike either
        index = _foreign_record(which, coaxmode.ModeIndex, 1, 1, 1)
        message = self._refused(call, geometry, index)
        assert message == f"expected a ModeIndex, got {index!r}"

    @pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS.keys())
    @_LOOK_ALIKES
    def test_foreign_point_is_a_domain_error(self, call, which):
        call(_ANN, coaxmode.FieldPoint(0.7, 0.1, 0.2))
        point = _foreign_record(which, coaxmode.FieldPoint, 0.7, 0.1, 0.2)
        assert self._refused(call, _ANN, point) == f"expected a FieldPoint, got {point!r}"

    @_LOOK_ALIKES
    def test_foreign_term_is_a_domain_error(self, which):
        term = _foreign_record(which, coaxmode.ModeAmplitude, _MODE, 1, 1.0)
        terms = [coaxmode.ModeAmplitude(_MODE, 1, 1.0), term]
        assert self._refused(coaxmode.superpose, _ANN, terms, _POINT) == \
            f"expected a ModeAmplitude, got {term!r}"

    @pytest.mark.parametrize("call", [*INDEX_CALLS.values(), *POINT_CALLS.values()],
                             ids=[*INDEX_CALLS.keys(), *(f"point-{k}" for k in POINT_CALLS)])
    def test_the_geometry_is_checked_first(self, call):
        # a foreign geometry with a foreign index or point is a GeometryError
        with pytest.raises(coaxmode.errors.GeometryError, match="unsupported geometry"):
            call(object(), (1, 1, 1))


def _unit(t):
    return t * t


class TestRealArguments:
    # str, bytes, bytearray and bool are not real numbers: each gets the
    # DomainError of a bad value, not a silent 1.0 or a raw TypeError
    @pytest.mark.parametrize("call, message", [
        (lambda: coaxmode.orthogonality_check(0, 1, 1, True), "a must be"),
        (lambda: coaxmode.enumerate_modes_below(_CYL, True), "omega_max"),
        (lambda: coaxmode.enumerate_modes_below(_CYL, "3e9"), "omega_max"),
        (lambda: coaxmode.enumerate_modes_below(_CYL, 10 ** 400), "omega_max"),
        (lambda: coaxmode.mode_count_histogram(_CYL, True, 3), "omega_max"),
        (lambda: coaxmode.mode_count_histogram(_CYL, "3e9", 3), "omega_max"),
        (lambda: coaxmode.boundary_residual(_CYL, _MODE, gamma_scale=True), "gamma_scale"),
        (lambda: coaxmode.boundary_residual(_CYL, _MODE, gamma_scale=b"1"), "gamma_scale"),
        (lambda: coaxmode.ez_mode(_CYL, _MODE, 1, 1.0, coaxmode.FieldPoint(True, 0.0, 0.5)),
         "rho"),
        (lambda: coaxmode.ez_mode(_CYL, _MODE, 1, 1.0, coaxmode.FieldPoint("0.5", 0.0, 0.5)),
         "rho"),
        (lambda: coaxmode.transverse_fields(_CYL, _MODE, 1, 1.0,
                                            coaxmode.FieldPoint(0.5, 0.0, True)), "z"),
        (lambda: coaxmode.transverse_fields(_CYL, _MODE, 1, 1.0,
                                            coaxmode.FieldPoint(0.5, bytearray(b"0"), 0.5)),
         "phi"),
        (lambda: coaxmode.ez_mode(_CYL, _MODE, 1, True, _POINT), "amplitude"),
        (lambda: coaxmode.transverse_fields(_CYL, _MODE, 1, "1", _POINT), "amplitude"),
        (lambda: coaxmode.field_grid(_CYL, _MODE, 1, 1.0, [True], [0.0], [0.5]), "rho"),
        (lambda: coaxmode.integrate_adaptive(_unit, False, True, 1e-9), "need finite"),
        (lambda: coaxmode.integrate_adaptive(_unit, 0.0, 1.0, abs_tol=True), "need finite"),
        (lambda: coaxmode.integrate_adaptive(_unit, "0", 1.0, 1e-9), "need finite"),
    ], ids=["ortho_a_bool", "enumerate_bool", "enumerate_str", "enumerate_huge_int",
            "histogram_bool", "histogram_str", "gamma_scale_bool", "gamma_scale_bytes",
            "ez_rho_bool", "ez_rho_str", "transverse_z_bool", "transverse_phi_bytearray",
            "ez_amplitude_bool", "transverse_amplitude_str", "grid_rho_bool",
            "quad_bounds_bool", "quad_tol_bool", "quad_lo_str"])
    def test_non_real_values_are_domain_errors(self, call, message):
        with pytest.raises(coaxmode.errors.DomainError, match=message):
            call()

    def test_ints_pass_as_their_floats(self):
        assert (coaxmode.orthogonality_check(0, 1, 1, 1)
                == coaxmode.orthogonality_check(0, 1, 1, 1.0))
        assert (coaxmode.enumerate_modes_below(_CYL, 3_000_000_000)
                == coaxmode.enumerate_modes_below(_CYL, 3e9))
        assert (coaxmode.boundary_residual(_CYL, _MODE, gamma_scale=1)
                == coaxmode.boundary_residual(_CYL, _MODE))
        assert (coaxmode.transverse_fields(_CYL, _MODE, 1, 2, coaxmode.FieldPoint(1, 0, 1))
                == coaxmode.transverse_fields(_CYL, _MODE, 1, 2.0,
                                              coaxmode.FieldPoint(1.0, 0.0, 1.0)))
        assert (coaxmode.integrate_adaptive(_unit, 0, 1, 1e-9)
                == coaxmode.integrate_adaptive(_unit, 0.0, 1.0, 1e-9))

    # every real the validators accept is used as its float, so a Decimal, a
    # Fraction or a numpy scalar gives the float call's bits, never a raw
    # TypeError or a single-precision result
    @pytest.mark.parametrize("call, text", [
        (lambda x: coaxmode.boundary_residual(_CYL, _MODE, gamma_scale=x), "1.01"),
        (lambda x: coaxmode.orthogonality_check(0, 1, 1, x), "1.5"),
        (lambda x: coaxmode.integrate_adaptive(math.cos, x, 2.0, 1e-10), "0.5"),
        (lambda x: coaxmode.integrate_adaptive(math.cos, 0.0, x, 1e-10), "1.5"),
        (lambda x: coaxmode.integrate_adaptive(math.cos, 0.0, 1.0, x), "1e-8"),
        (lambda x: coaxmode.enumerate_modes_below(_CYL, x), "3e9"),
        (lambda x: coaxmode.mode_count_histogram(_CYL, x, 4), "3e9"),
        (lambda x: coaxmode.enumerate_modes_below(coaxmode.CylinderGeometry(b=x, l=1.0), 1e10),
         "0.1"),
        (lambda x: coaxmode.enumerate_modes_below(coaxmode.CylinderGeometry(b=1.0, l=x), 3e9),
         "1.5"),
        (lambda x: coaxmode.tm_frequency(coaxmode.AnnulusGeometry(a=x, b=2.0, l=1.0), _MODE),
         "0.5"),
        (lambda x: coaxmode.tm_frequency(coaxmode.AnnulusGeometry(a=1.0, b=2.0, l=x), _MODE),
         "1.5"),
        # a field call's coordinates and amplitude; a grid row carries the float
        (lambda x: coaxmode.ez_mode(_ANN, _MODE, 1, 1.0, coaxmode.FieldPoint(x, 0.4, 0.3)), "0.7"),
        (lambda x: coaxmode.ez_mode(_ANN, _MODE, 1, 1.0, coaxmode.FieldPoint(0.7, x, 0.3)), "0.4"),
        (lambda x: coaxmode.ez_mode(_ANN, _MODE, 1, 1.0, coaxmode.FieldPoint(0.7, 0.4, x)), "0.3"),
        (lambda x: coaxmode.ez_mode(_ANN, _MODE, -1, x, _POINT), "-1.5"),
        (lambda x: coaxmode.transverse_fields(_ANN, _MODE, 1, 0.5j,
                                              coaxmode.FieldPoint(x, 0.4, 0.3)), "0.7"),
        (lambda x: coaxmode.transverse_fields(_ANN, _MODE, 1, 0.5j,
                                              coaxmode.FieldPoint(0.7, x, 0.3)), "0.4"),
        (lambda x: coaxmode.transverse_fields(_ANN, _MODE, 1, 0.5j,
                                              coaxmode.FieldPoint(0.7, 0.4, x)), "0.3"),
        (lambda x: coaxmode.transverse_fields(_ANN, _MODE, -1, x, _POINT), "-1.5"),
        (lambda x: list(coaxmode.field_grid(_ANN, _MODE, 1, 1.0, [x, 0.9], [0.4], [0.3])), "0.7"),
        (lambda x: list(coaxmode.field_grid(_ANN, _MODE, 1, 1.0, [0.7], [0.2, x], [0.3])), "0.4"),
        (lambda x: list(coaxmode.field_grid(_ANN, _MODE, 1, 1.0, [0.7], [0.4], [x, 0.8])), "0.3"),
        (lambda x: list(coaxmode.field_grid(_ANN, _MODE, 1, x, [0.7], [0.4], [0.3])), "-1.5"),
        (lambda x: coaxmode.superpose(_ANN, [coaxmode.ModeAmplitude(_MODE, 1, x)],
                                      coaxmode.FieldPoint(x, 0.4, 0.3)), "0.7"),
    ], ids=["gamma_scale", "ortho_a", "quad_lo", "quad_hi", "quad_tol", "enumerate_omega",
            "histogram_omega", "cylinder_b", "cylinder_l", "annulus_a", "annulus_l",
            "ez_rho", "ez_phi", "ez_z", "ez_amplitude", "transverse_rho", "transverse_phi",
            "transverse_z", "transverse_amplitude", "grid_rho", "grid_phi", "grid_z",
            "grid_amplitude", "superpose"])
    @pytest.mark.parametrize("make", [Decimal, Fraction, "float32", "float64", "0-d array"])
    def test_other_reals_give_the_float_calls_bits(self, call, text, make):
        if isinstance(make, str):
            np = pytest.importorskip("numpy")
            make = {"float32": np.float32, "float64": np.float64,
                    "0-d array": lambda t: np.array(float(t))}[make]
        value = make(text)
        assert _bits(call(value)) == _bits(call(float(value)))

    @pytest.mark.parametrize("call", [
        lambda x: coaxmode.boundary_residual(_CYL, _MODE, gamma_scale=x),
        lambda x: coaxmode.orthogonality_check(0, 1, 1, x),
        lambda x: coaxmode.integrate_adaptive(math.cos, 0.0, x, 1e-10),
        lambda x: coaxmode.enumerate_modes_below(_CYL, x),
        lambda x: coaxmode.CylinderGeometry(b=x, l=1.0),
    ], ids=["gamma_scale", "ortho_a", "quad_hi", "enumerate_omega", "cylinder_b"])
    @pytest.mark.parametrize("text", ["sNaN", "NaN", "Infinity"])
    def test_non_finite_decimals_are_typed_errors(self, call, text):
        with pytest.raises(coaxmode.errors.CoaxmodeError):
            call(Decimal(text))


def _bits(result):
    """result with every float as its hex, so equal bits compare equal; any
    other number type (a numpy scalar, a Decimal) is kept and so compares unequal."""
    if type(result) is float:
        return result.hex()
    if type(result) is complex:
        return [result.real.hex(), result.imag.hex()]
    if isinstance(result, (tuple, list)):
        return [_bits(item) for item in result]
    if hasattr(type(result), "__match_args__"):
        return [type(result).__name__, *(_bits(getattr(result, name))
                                         for name in type(result).__match_args__)]
    assert type(result) in (int, str, type(None)), f"{type(result).__name__} in a result"
    return result


# the stores clear_caches() empties, by the name the registry gives each
_STORES = ("coaxmode.specfun._ladder", "coaxmode.roots._table", "coaxmode.cavity._spectrum",
           "coaxmode.cavity._resolved", "coaxmode.fields._radial_solution",
           "coaxmode.fields._mode", "coaxmode.fields._interior", "coaxmode.fields._unit_overlap",
           "coaxmode.fields._wall_residual", "coaxmode.quadrature.gauss_legendre_rule")
_SRC = pathlib.Path(coaxmode.__file__).parent


class TestCaches:
    def _warm(self):
        ann = coaxmode.AnnulusGeometry(0.5, 1.0, 1.0)
        return [coaxmode.bessel_j(3, 7.5), coaxmode.bessel_zeros(2, 5),
                coaxmode.cross_product_zeros(1, 0.5, 1.0, 5),
                coaxmode.radial_solution(ann, 2, 3), coaxmode.tm_frequency(ann, _MODE),
                coaxmode.transverse_fields(ann, _MODE, -1, 0.5j, _POINT),
                coaxmode.boundary_residual(ann, _MODE),
                coaxmode.boundary_residual(_CYL, _MODE, 1.01),
                coaxmode.orthogonality_check(1, 2, 3, 1.5),
                coaxmode.orthogonality_check(2, 4, 4, 1.0), coaxmode.gauss_legendre_rule(10),
                coaxmode.enumerate_modes_below(ann, 6.0 * coaxmode.C_LIGHT)]

    def test_every_store_is_registered_with_a_finite_bound(self):
        for layer in ("fields", "quadrature"):
            importlib.import_module(f"coaxmode.{layer}")
        memos = coaxmode.errors._MEMOS
        assert sorted(memos) == sorted(_STORES)
        assert memos["coaxmode.roots._table"] is coaxmode.roots._table
        for name, store in memos.items():
            info = store.cache_info()
            assert type(info.maxsize) is int and 0 < info.maxsize <= 65_536, name
            assert 0 <= info.currsize <= info.maxsize, name

    def test_clear_caches_empties_every_store_and_cold_bits_match_warm(self):
        warm = _bits(self._warm())
        assert all(store.cache_info().currsize for store in coaxmode.errors._MEMOS.values())
        coaxmode.clear_caches()
        assert {name: store.cache_info().currsize
                for name, store in coaxmode.errors._MEMOS.items()} == \
            dict.fromkeys(_STORES, 0)
        assert _bits(self._warm()) == warm

    def test_lru_cache_is_used_only_inside_the_helper(self):
        # one memo helper: lru_cache is named nowhere in code but inside
        # errors._memo, and every _memo call passes a finite int bound
        for path in sorted(_SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            helper = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_memo":
                    helper.update(map(id, ast.walk(node)))
            for node in ast.walk(tree):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in ("lru_cache", "cache", "cached_property"):
                    assert id(node) in helper, f"{path.name}:{node.lineno} uses {name}"
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    assert path.name == "errors.py" and \
                        [a.name for a in node.names] == ["lru_cache"], path.name
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_memo":
                    bound = node.args[0]
                    assert isinstance(bound, ast.Constant) and type(bound.value) is int \
                        and bound.value > 0, f"{path.name}:{node.lineno}"

    @staticmethod
    def _names(node, calls=True):
        # every name and attribute in node; with calls=False, none inside a call
        if not calls and isinstance(node, ast.Call):
            return set()
        names = {getattr(node, "id", None) or getattr(node, "attr", None)}
        for child in ast.iter_child_nodes(node):
            names |= TestCaches._names(child, calls)
        return names

    def test_only_cavity_tests_a_geometry_type(self):
        # the cross-section is decided in cavity alone: no other module names a
        # geometry class in an isinstance or issubclass call or a type() comparison,
        # and cavity names one in a single isinstance call, in _check_geometry.
        # Every bound on gamma_mn is asked of roots by radial interval: no other
        # module names a window or its rounding slack, cavity and verify branch
        # on no wall, and the scan takes checked numbers
        geometries = {"CylinderGeometry", "AnnulusGeometry"}
        windows = {"_sturm_window", "_bessel_window", "_EPS"}
        for path in sorted(_SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # the innermost function around each node: ast.walk reaches outer ones first
            owner = {id(node): func.name for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
            found = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    test = getattr(node.func, "id", None)
                    tests = test in ("isinstance", "issubclass")
                elif isinstance(node, ast.Compare):
                    test = "type"
                    tests = any(isinstance(part, ast.Call) and getattr(part.func, "id", None)
                                == "type" for part in (node.left, *node.comparators))
                else:
                    continue
                if tests and self._names(node) & geometries:
                    found.append((owner.get(id(node)), test, node.lineno))
            if path.name == "cavity.py":
                assert [entry[:2] for entry in found] == [("_check_geometry", "isinstance")]
            else:
                assert not found, f"{path.name}: {found}"
            if path.name != "roots.py":
                imported = {alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names}
                assert not (self._names(tree) | imported) & windows, path.name
            if path.name in ("cavity.py", "verify.py"):
                for node in ast.walk(tree):
                    if isinstance(node, (ast.If, ast.IfExp)):
                        assert "a" not in self._names(node.test, calls=False), \
                            f"{path.name}:{node.lineno}"
        for scan in (cavity._towers, cavity._stops_at_order_envelope):
            assert list(inspect.signature(scan).parameters) == ["a", "b", "l", "omega_max"]
        assert "__name__.removesuffix" not in (_SRC / "cli.py").read_text(encoding="utf-8")

