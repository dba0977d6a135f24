"""Explicit inverse problem for rational Weyl functions with negative D.

A rational Weyl function with value (i/2)|D| at infinity and nonnegative
imaginary part on the upper half-plane admits a state-space realization

    phi(z) = (i/2)|D| + psi1_0* (gamma - z I)^-1 psi2

whose matrix gamma satisfies

    gamma - gamma* = i (psi1_0 - psi2) D^-1 (psi1_0 - psi2)*.

From such a realization the parameter matrices of the generating system are
recovered in closed form; feeding them back through :mod:`weylkit.gbdt`
reproduces phi and the Hamiltonian.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import defaults
from ._linalg import eigmin_hermitian, rel_residual, resolvent_apply, spectrum, upper_half_plane
from .exceptions import DomainError, StructuralError, ValidationError
from .gbdt import GbdtParams, weyl_pair

__all__ = [
    "Realization",
    "validate_realization",
    "params_from_realization",
    "realization_from_params",
]

_VALIDATION_GRID = (1j, 2j, 1 + 1j)   # Herglotz check points when no grid is given


@dataclass(frozen=True)
class Realization:
    """State-space data (gamma, psi1_0, psi2, D) of a rational Weyl function."""

    d: np.ndarray         # (p,) real, all entries < 0
    gamma: np.ndarray     # (n, n)
    psi1_0: np.ndarray    # (n, p)
    psi2: np.ndarray      # (n, p)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if np.any(d >= 0.0):
            raise DomainError("realizations require D < 0 entrywise")
        gamma = np.asarray(self.gamma, dtype=complex)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise StructuralError("gamma must be square")
        n, p = gamma.shape[0], d.size
        psi1_0 = np.asarray(self.psi1_0, dtype=complex)
        psi2 = np.asarray(self.psi2, dtype=complex)
        if psi1_0.shape != (n, p) or psi2.shape != (n, p):
            raise StructuralError(f"psi matrices must have shape {(n, p)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "psi1_0", psi1_0)
        object.__setattr__(self, "psi2", psi2)
        for name in ("d", "gamma", "psi1_0", "psi2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise StructuralError(f"{name} must be finite")

    @property
    def n(self):
        return self.gamma.shape[0]

    @property
    def p(self):
        return self.d.size

    @cached_property
    def gamma_spectrum(self):
        """(eigenvalues, norm) of gamma for the pole guard, computed once."""
        return spectrum(self.gamma)

    def phi(self, z):
        """The realized Weyl function at a scalar z (p x p) or a 1-D array
        of z ((k, p, p) stack)."""
        res = resolvent_apply(self.gamma, z, self.psi2, self.gamma_spectrum,
                              what="gamma matrix")
        return 0.5j * np.diag(np.abs(self.d)) + self.psi1_0.conj().T @ res


def validate_realization(r, grid):
    """Check the gamma identity, Herglotz positivity on ``grid``, and the
    value at infinity.  Returns a report dict whether or not the checks
    pass.  Raises StructuralError for an empty grid, DomainError for a grid
    point that is not finite with Im z > 0, and SingularityError for one
    next to a pole of phi."""
    grid = upper_half_plane(grid, "the validation grid")
    if not grid.size:
        raise StructuralError("validation grid must be nonempty")
    diff = r.psi1_0 - r.psi2
    dinv = np.diag(1.0 / r.d).astype(complex)
    residual = r.gamma - r.gamma.conj().T - 1j * diff @ dinv @ diff.conj().T
    scale = (np.linalg.norm(r.gamma, 2) if r.n else 0.0) + 1.0
    identity_rel = rel_residual(residual, scale)
    herglotz_min = min(
        eigmin_hermitian((val - val.conj().T) / 2j) for val in r.phi(grid)
    )
    R = 1e6
    at_inf = r.phi(1j * R) - 0.5j * np.diag(np.abs(r.d))
    inf_err = float(np.linalg.norm(at_inf, 2))
    tol = defaults.IDENTITY_TOL
    return {
        "passed": bool(
            identity_rel < tol and herglotz_min >= -tol and inf_err < 1e-4
        ),
        "identity_residual": identity_rel,
        "herglotz_min": herglotz_min,
        "value_at_infinity_error": inf_err,
        "n": r.n,
        "p": r.p,
    }


def params_from_realization(r, grid=None):
    """Recover the generating parameter matrices from a valid realization.

    lambda1 = (psi1_0 + psi2)/2, lambda2 = (psi1_0 - psi2) D^-1 and
    alpha = gamma + i psi2 lambda2*; the output satisfies the parameter
    identity whenever the input satisfies the gamma identity.
    """
    if grid is None:
        grid = _VALIDATION_GRID
    report = validate_realization(r, grid)
    if not report["passed"]:
        raise ValidationError("realization failed validation", report)
    dinv = np.diag(1.0 / r.d).astype(complex)
    lambda1 = 0.5 * (r.psi1_0 + r.psi2)
    lambda2 = (r.psi1_0 - r.psi2) @ dinv
    alpha = r.gamma + 1j * r.psi2 @ lambda2.conj().T
    return GbdtParams(d=r.d.copy(), alpha=alpha, lambda1=lambda1, lambda2=lambda2)


def realization_from_params(params):
    """Realize the Weyl function of a D < 0 parameter set.

    Exact algebraic inverse of :func:`params_from_realization`.
    """
    if not params.d_negative:
        raise DomainError("realization_from_params requires D < 0")
    pair = weyl_pair(params)
    return Realization(
        d=params.d.copy(), gamma=pair.gamma, psi1_0=pair.psi1_0, psi2=pair.psi2
    )
