"""Shared fixtures: random valid parameter sets and closed-form oracles."""

import numpy as np
import pytest

from weylkit import GbdtParams
from weylkit._linalg import anti_diag_j


def make_params(n, p, seed=0, negative=True, scale=0.55, singular_alpha=False):
    """Random parameter matrices satisfying the input identity exactly.

    alpha = S0 + (i/2) Lam J Lam* with Hermitian S0 leaves the identity
    exact by construction.  ``scale`` shrinks with the system size so the
    state stays desk-sized on [0, 2] (the growth rate goes like the norm
    of Lam J Lam*, and ill-conditioned states would drown the 1e-9
    identity tolerances in rounding noise).
    """
    rng = np.random.default_rng(seed)
    scale = scale / float(n * p) ** 0.25
    lam1 = scale * (rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p)))
    lam2 = scale * (rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p)))
    lam = np.hstack([lam1, lam2])
    J = anti_diag_j(p)
    if singular_alpha:
        # Hermitian base with a zero eigenvalue and lambda2 = 0 keeps the
        # identity exact while det(alpha) = 0
        lam2 = np.zeros_like(lam2)
        lam = np.hstack([lam1, lam2])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        diag = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)])
        s0 = q @ np.diag(diag) @ q.conj().T
        alpha = 0.5 * (s0 + s0.conj().T)
    else:
        s0 = rng.normal(size=(n, n))
        alpha = 0.5 * (s0 + s0.T) + 0.5j * lam @ J @ lam.conj().T
    if negative:
        d = -rng.uniform(0.5, 2.0, size=p)
    else:
        signs = np.where(rng.normal(size=p) > 0, 1.0, -1.0)
        d = signs * rng.uniform(0.5, 2.0, size=p)
    return GbdtParams(d=d, alpha=alpha, lambda1=lam1, lambda2=lam2)


# ---------------------------------------------------------------------------
# constant-potential Dirac system in closed form


V0 = 0.5
_K = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def const_v_phi(z, v0=V0):
    """Weyl function of the half-line Dirac system with constant potential.

    The decaying column of exp(ix[[z, v], [-v, -z]]) selects
    phi(z) = -i (z - lam - v) / (z - lam + v) with lam the root of
    z^2 - v^2 in the upper half-plane.  A scalar z gives a 1 x 1 value,
    an array of z the (k, 1, 1) stack a WeylSampler ``fn`` returns.
    """
    z = np.asarray(z, dtype=complex)
    lam = np.sqrt(z * z - v0 * v0 + 0j)
    lam = np.where(lam.imag < 0, -lam, lam)
    return (-1j * (z - lam - v0) / (z - lam + v0))[..., None, None]


def const_v_u0(x, v0=V0):
    """Zero-energy fundamental solution of the constant-v Dirac system."""
    c, s = np.cosh(v0 * x), np.sinh(v0 * x)
    return np.array([[c, 1j * s], [-1j * s, c]]) @ _K.conj().T


def const_v_theta1(x, v0=V0):
    return const_v_u0(x, v0)[:1, :]


def const_v_hamiltonian(x, v0=V0):
    """Hamiltonian of the equivalent canonical system, H = 2 theta1* theta1."""
    if np.ndim(x) == 0:
        th = const_v_theta1(float(x), v0)
        return 2.0 * th.conj().T @ th
    return np.array([const_v_hamiltonian(float(xx), v0) for xx in np.asarray(x)])


# ---------------------------------------------------------------------------
# Gaussian-damped Hermitian test kernel (2 x 2)


GAUSS_D = np.array([-1.0, -2.0])
_M1 = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.2]])
_M2 = np.array([[0.1, -0.02j], [0.02j, 0.15]])


def gauss_kernel(x):
    return np.exp(-x * x) * (_M1 + 1j * x * _M2)


@pytest.fixture(scope="session")
def free_hamiltonian():
    """Constant Hamiltonian of the free Dirac system in canonical form."""
    return np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
