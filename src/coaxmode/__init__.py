"""TM mode spectra and fields for cylindrical and annular cavities.

The package is layered bottom-up:

* ``specfun``   - J_m, N_m, H_m^(1,2) and derivatives, self-contained
* ``roots``     - zeros of J_m and of the annular cross-product
* ``cavity``    - geometries, mode indexing, spectra below a cutoff
* ``fields``    - E_z, transverse E/B, separable grids, superposition,
  verification probes
* ``cli``       - the ``coaxmode`` command

Importing the package loads none of the layers. Each public name below is
imported from its layer on first access (PEP 562) and is the very object
that layer defines, so ``python -m coaxmode zeros`` loads specfun and roots
only, and ``--version`` loads no layer at all.

All public operations are pure functions of their arguments (caches are
internal; bounded LRU memos and append-only root tables), so everything
here is safe to use from multiple threads.
"""

from importlib import import_module

__version__ = "0.2.0"

# public name -> the layer that defines it; "errors" is the layer itself
_ORIGIN = {
    **dict.fromkeys(("EvalResult", "ORDER_MAX", "X_MAX", "bessel_j", "neumann_n", "hankel",
                     "derivative"), "specfun"),
    **dict.fromkeys(("ZeroTable", "bessel_zeros", "cross_product_zeros"), "roots"),
    **dict.fromkeys(("CylinderGeometry", "AnnulusGeometry", "Geometry", "C_LIGHT",
                     "ModeIndex", "ModeEntry", "tm_frequency", "radial_eigenvalue",
                     "enumerate_modes_below", "mode_count_histogram"), "cavity"),
    **dict.fromkeys(("FieldPoint", "FieldSample", "ModeAmplitude", "RadialSolution",
                     "radial_solution", "ez_mode", "transverse_fields", "field_grid",
                     "superpose", "real_basis", "orthogonality_check", "boundary_residual",
                     "helmholtz_residual"), "fields"),
    **dict.fromkeys(("QuadratureResult", "gauss_legendre_rule", "integrate_adaptive"),
                    "quadrature"),
    "errors": "errors",
}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    # a public name, or one of the layers that defines them
    layer = _ORIGIN.get(name, name)
    if layer not in _ORIGIN.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{layer}")
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
