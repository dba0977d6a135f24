"""Small linear-algebra helpers shared across modules."""

import numpy as np

from . import defaults
from .exceptions import SingularityError

__all__ = [
    "anti_diag_j",
    "hermitize",
    "rel_residual",
    "eigmin_hermitian",
    "spectrum",
    "pole_gaps",
    "resolvent_apply",
]


def anti_diag_j(p):
    """The 2p x 2p block anti-diagonal involution [[0, I], [I, 0]]."""
    J = np.zeros((2 * p, 2 * p), dtype=complex)
    J[:p, p:] = np.eye(p)
    J[p:, :p] = np.eye(p)
    return J


def hermitize(a):
    """Average a square matrix, or a stack of them, with its conjugate transpose."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def rel_residual(residual, scale):
    """2-norm of ``residual`` relative to ``scale`` (a norm-like float)."""
    if residual.size == 0:
        return 0.0
    return float(np.linalg.norm(residual, 2) / scale)


def eigmin_hermitian(a):
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(hermitize(a)).min())


def spectrum(a):
    """Eigenvalues and 2-norm of a square matrix: the pole guard data of
    :func:`resolvent_apply`, computed once per matrix by its owner."""
    if a.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0.0
    return np.linalg.eigvals(a), float(np.linalg.norm(a, 2))


def pole_gaps(spec, z, rel=defaults.POLE_CUTOFF):
    """Distances from ``z`` (a scalar or an array) to each eigenvalue of
    ``spec = (eigenvalues, norm)``, shape ``shape(z) + (len eigenvalues,)``,
    and the mask of those within the guard ``rel * (1 + norm)``."""
    eigs, scale = spec
    gaps = np.abs(np.asarray(z)[..., None] - eigs)
    return gaps, gaps < rel * (1.0 + scale)


def resolvent_apply(a, z, rhs, spec, what="matrix"):
    """Solve (a - z I) x = rhs, guarding against z near the spectrum.

    ``z`` is a scalar or a 1-D array; an array gives a (k,) + rhs.shape
    result from one stacked solve, and ``rhs`` may itself be a stack of
    (n, m) right-hand sides.  ``spec`` is ``spectrum(a)``.  The guard is
    |z - eigenvalue| < POLE_CUTOFF * (1 + ||a||); the first offending z is
    named in the SingularityError.
    """
    n = a.shape[0]
    if np.ndim(z) == 0:
        # scalar z skips the array wrapping of the batched path, which
        # would add about half the cost of the solve to every scalar call
        if n == 0:
            return np.zeros_like(rhs)
        gaps, near = pole_gaps(spec, z)
        if near.any():
            raise SingularityError(
                f"z = {z} is within {gaps.min():.3e} of the spectrum of the {what}"
            )
        return np.linalg.solve(a - z * np.eye(n), rhs)
    zs = np.asarray(z, dtype=complex).reshape(-1)
    if n == 0:
        return np.zeros(zs.shape + rhs.shape, dtype=complex)
    gaps, near = pole_gaps(spec, zs)
    bad = np.flatnonzero(near.any(axis=1))
    if bad.size:
        i = bad[0]
        raise SingularityError(
            f"z = {zs[i]} is within {gaps[i].min():.3e} of the spectrum of the {what}"
        )
    mats = a - zs[:, None, None] * np.eye(n)
    mats = mats.reshape(zs.shape + (1,) * (rhs.ndim - 2) + (n, n))
    return np.linalg.solve(mats, np.broadcast_to(rhs, zs.shape + rhs.shape))
