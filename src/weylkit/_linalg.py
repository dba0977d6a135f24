"""Small linear-algebra helpers shared across modules."""

import numpy as np
from scipy.linalg import expm, solve_sylvester

from . import defaults
from .exceptions import SingularityError

__all__ = [
    "anti_diag_j",
    "signature_j",
    "hermitize",
    "rel_residual",
    "eigmin_hermitian",
    "spectrum",
    "resolvent_apply",
    "exp_pair_integral",
]


def anti_diag_j(p):
    """The 2p x 2p block anti-diagonal involution [[0, I], [I, 0]]."""
    J = np.zeros((2 * p, 2 * p), dtype=complex)
    J[:p, p:] = np.eye(p)
    J[p:, :p] = np.eye(p)
    return J


def signature_j(p):
    """The 2p x 2p signature matrix diag(I_p, -I_p)."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(p)])).astype(complex)


def hermitize(a):
    """Average a square matrix with its conjugate transpose."""
    return 0.5 * (a + a.conj().T)


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


def resolvent_apply(a, z, rhs, spec, what="matrix"):
    """Solve (a - z I) x = rhs, guarding against z near the spectrum.

    ``z`` is a scalar or a 1-D array; an array gives a (k,) + rhs.shape
    result from one stacked solve.  ``spec`` is ``spectrum(a)``.  The guard is
    |z - eigenvalue| < POLE_CUTOFF * (1 + ||a||); the first offending z is
    named in the SingularityError.
    """
    eigs, scale = spec
    cutoff = defaults.POLE_CUTOFF * (1.0 + scale)
    n = a.shape[0]
    if np.ndim(z) == 0:
        # scalar z skips the array wrapping of the batched path, which
        # would add about half the cost of the solve to every scalar call
        if n == 0:
            return np.zeros_like(rhs)
        gap = np.abs(eigs - z).min()
        if gap < cutoff:
            raise SingularityError(
                f"z = {z} is within {gap:.3e} of the spectrum of the {what}"
            )
        return np.linalg.solve(a - z * np.eye(n), rhs)
    zs = np.asarray(z, dtype=complex).reshape(-1)
    if n == 0:
        return np.zeros(zs.shape + rhs.shape, dtype=complex)
    gaps = np.abs(eigs - zs[:, None]).min(axis=1)
    bad = np.flatnonzero(gaps < cutoff)
    if bad.size:
        i = bad[0]
        raise SingularityError(
            f"z = {zs[i]} is within {gaps[i]:.3e} of the spectrum of the {what}"
        )
    mats = a - zs[:, None, None] * np.eye(n)
    return np.linalg.solve(mats, np.broadcast_to(rhs, zs.shape + rhs.shape))


def _sylvester_gap(a):
    """Smallest |lam_i - conj(lam_j)| over the spectrum of ``a``."""
    eigs = np.linalg.eigvals(a)
    diff = eigs[:, None] - eigs.conj()[None, :]
    return float(np.abs(diff).min()), float(np.abs(eigs).max())


def exp_pair_integral(alpha, f, d, x):
    """Integral of exp(-i d t alpha) f f* exp(i d t alpha*) over t in [0, x].

    Solves the Sylvester equation
        i d (alpha X - X alpha*) = f f* - G f f* G*,  G = exp(-i d x alpha),
    and falls back to an exact block-exponential evaluation when the
    Sylvester operator is singular (alpha with eigenvalue pairs lam_i =
    conj(lam_j), e.g. any real eigenvalue).
    """
    f = np.atleast_2d(np.asarray(f, dtype=complex))
    if f.shape[0] == 1 and alpha.shape[0] != 1:
        f = f.T
    C = f @ f.conj().T
    if x == 0.0 or not np.any(C):
        return np.zeros_like(C)
    G = expm(-1j * d * x * alpha)
    rhs = (C - G @ C @ G.conj().T) / (1j * d)
    gap, scale = _sylvester_gap(alpha)
    if gap > 1e-8 * (1.0 + scale):
        try:
            return solve_sylvester(alpha, -alpha.conj().T, rhs)
        except np.linalg.LinAlgError:
            pass
    # Exact closed form that never degenerates: with A = -i d alpha,
    # the integral equals e^{Ax} * upper-right block of
    # expm([[ -A, C ], [ 0, A* ]] x).
    n = alpha.shape[0]
    A = -1j * d * alpha
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    M[:n, :n] = -A
    M[:n, n:] = C
    M[n:, n:] = A.conj().T
    blk = expm(M * x)
    return expm(A * x) @ blk[:n, n:]
