"""TM mode spectra and fields for cylindrical and annular cavities.

The package is layered bottom-up:

* ``specfun``   - J_m, N_m, H_m^(1,2) and derivatives, self-contained
* ``roots``     - zeros of J_m and of the annular cross-product
* ``cavity``    - geometries, mode indexing, spectra below a cutoff
* ``fields``    - E_z, transverse E/B, separable grids, superposition,
  verification probes
* ``cli``       - the ``coaxmode`` command

All public operations are pure functions of their arguments (caches are
internal and append-only), so everything here is safe to use from
multiple threads.
"""

__version__ = "0.2.0"

from .specfun import EvalResult, ORDER_MAX, X_MAX, bessel_j, derivative, hankel, neumann_n
from .roots import ZeroTable, bessel_zeros, cross_product_zeros
from .cavity import (AnnulusGeometry, C_LIGHT, CylinderGeometry, Geometry,
                     ModeEntry, ModeIndex, enumerate_modes_below,
                     mode_count_histogram, radial_eigenvalue, tm_frequency)
from .fields import (FieldPoint, FieldSample, ModeAmplitude, RadialSolution,
                     boundary_residual, ez_mode, field_grid, helmholtz_residual,
                     orthogonality_check, radial_solution, real_basis,
                     superpose, transverse_fields)
from .quadrature import QuadratureResult, gauss_legendre_rule, integrate_adaptive
from . import errors

__all__ = [
    "__version__",
    "EvalResult", "ORDER_MAX", "X_MAX", "bessel_j", "neumann_n", "hankel", "derivative",
    "ZeroTable", "bessel_zeros", "cross_product_zeros",
    "CylinderGeometry", "AnnulusGeometry", "Geometry", "C_LIGHT",
    "ModeIndex", "ModeEntry", "tm_frequency", "radial_eigenvalue",
    "enumerate_modes_below", "mode_count_histogram",
    "FieldPoint", "FieldSample", "ModeAmplitude", "RadialSolution",
    "radial_solution", "ez_mode", "transverse_fields", "field_grid", "superpose",
    "real_basis", "orthogonality_check", "boundary_residual",
    "helmholtz_residual",
    "QuadratureResult", "gauss_legendre_rule", "integrate_adaptive",
    "errors",
]
