"""weylkit: direct and inverse spectral problems via Weyl functions.

Five modules cover the routes between a system and its Weyl function:

* :mod:`weylkit.gbdt` -- explicit (closed-form) direct problem from
  parameter matrices, including the rational Weyl-function pair;
* :mod:`weylkit.rational` -- explicit inverse problem from a state-space
  realization of a rational Weyl function;
* :mod:`weylkit.structured` -- discretized structured operators with
  (weighted) difference kernels: factorization, potential and Hamiltonian
  recovery, fundamental solutions, the Weyl-disk oracle and Schur recovery;
* :mod:`weylkit.fourier` -- transforms between Weyl functions and
  accelerant data along a horizontal line, plus Herglotz validation;
* :mod:`weylkit.interpolation` -- discrete interpolation of Weyl functions
  from samples on the lattice i(q + epsilon).
"""

__version__ = "0.1.0"

from . import defaults
from .exceptions import (
    DomainError,
    PositivityError,
    SingularityError,
    StructuralError,
    ValidationError,
    WeylkitError,
)
from .gbdt import (
    GbdtParams,
    GbdtState,
    RationalWeyl,
    WeylPair,
    evolve_state,
    fundamental_direct,
    hamiltonian_direct,
    transfer_matrix,
    validate_params,
    weyl_pair,
)
from .rational import (
    Realization,
    params_from_realization,
    realization_from_params,
    validate_realization,
)
from .grids import DifferenceKernel, GridFunction
from .structured import (
    StructuredOperator,
    TriangularFactor,
    accelerant_from_potential,
    build_structured_operator,
    canonical_from_kernel,
    factorize_triangular,
    fundamental_from_kernel,
    recover_potential,
    schur_recover,
    theta_functions,
    weyl_disk_approx,
)
from .fourier import (
    WeylSampler,
    amplitude_from_weyl,
    herglotz_check,
    weyl_from_amplitude,
)
from .interpolation import (
    coeff_a,
    coeff_c,
    decay_estimate,
    interpolate_series,
)
