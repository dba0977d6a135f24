"""Explicit direct problem for canonical systems built from parameter matrices.

A system is specified by a state dimension ``n``, a block size ``p``, a real
nonsingular diagonal ``D`` and matrices ``alpha`` (n x n), ``lambda1``,
``lambda2`` (n x p) tied together by the input identity

    alpha - alpha* = i * Lambda J Lambda*,   Lambda = [lambda1  lambda2],

with J the block anti-diagonal involution.  Everything downstream -- the
evolved state, the transfer matrix, the Hamiltonian, the fundamental solution
and the pair of rational Weyl functions -- is available in closed form.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from . import defaults
from ._linalg import (
    anti_diag_j,
    eigmin_hermitian,
    exp_pair_integral,
    hermitize,
    rel_residual,
    resolvent_apply,
    spectrum,
)
from .exceptions import (
    DomainError,
    SingularityError,
    StructuralError,
    ValidationError,
    WeylkitError,
)

__all__ = [
    "GbdtParams",
    "GbdtState",
    "WeylPair",
    "validate_params",
    "evolve_state",
    "transfer_matrix",
    "hamiltonian_direct",
    "hamiltonian_factor",
    "fundamental_direct",
    "weyl_pair",
    "initial_hamiltonian",
    "state_identity_residual",
]


def _as_complex(a, shape, name):
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class GbdtParams:
    """Parameter matrices of an explicit canonical system.

    Attributes
    ----------
    d : (p,) real array
        Diagonal of D; every entry must be nonzero.  ``d < 0`` everywhere
        is the regime in which the Weyl function is unique.
    alpha : (n, n) complex array
    lambda1, lambda2 : (n, p) complex arrays
    """

    d: np.ndarray
    alpha: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if d.size == 0:
            raise StructuralError("D must have at least one entry")
        if np.any(d == 0.0):
            raise StructuralError("all entries of D must be nonzero")
        alpha = np.asarray(self.alpha, dtype=complex)
        if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
            raise StructuralError("alpha must be square")
        n, p = alpha.shape[0], d.size
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lambda1", _as_complex(self.lambda1, (n, p), "lambda1"))
        object.__setattr__(self, "lambda2", _as_complex(self.lambda2, (n, p), "lambda2"))

    @property
    def n(self):
        return self.alpha.shape[0]

    @property
    def p(self):
        return self.d.size

    @property
    def d_negative(self):
        return bool(np.all(self.d < 0.0))

    @property
    def lam(self):
        """Initial n x 2p block [lambda1  lambda2]."""
        return np.hstack([self.lambda1, self.lambda2])

    def psi1_0(self):
        return self.lambda1 + 0.5 * self.lambda2 * self.d

    def psi2(self):
        return self.lambda1 - 0.5 * self.lambda2 * self.d

    @cached_property
    def alpha_spectrum(self):
        """(eigenvalues, norm) of alpha for the pole guard, computed once."""
        return spectrum(self.alpha)

    @cached_property
    def initial_state(self):
        """The state at x = 0, evolved once."""
        return evolve_state(self, 0.0)


@dataclass(frozen=True)
class GbdtState:
    """State of the explicit system at a position x >= 0."""

    x: float
    psi1: np.ndarray      # n x p
    psi2: np.ndarray      # n x p, constant in x
    lam: np.ndarray       # n x 2p
    sigma: np.ndarray     # n x n, Hermitian, >= I

    def sigma_eigmin(self):
        return eigmin_hermitian(self.sigma)


def _z_matrix(d):
    p = d.size
    Z = np.zeros((2 * p, 2 * p), dtype=complex)
    Z[:p, :p] = np.eye(p)
    Z[:p, p:] = np.eye(p)
    Z[p:, :p] = np.diag(d) / 2.0
    Z[p:, p:] = -np.diag(d) / 2.0
    return Z


def _z_inverse(d):
    p = d.size
    dinv = np.diag(1.0 / d).astype(complex)
    blk = np.zeros((2 * p, 2 * p), dtype=complex)
    blk[:p, :p] = np.diag(d) / 2.0
    blk[:p, p:] = np.eye(p)
    blk[p:, :p] = np.diag(d) / 2.0
    blk[p:, p:] = -np.eye(p)
    top = np.zeros((2 * p, 2 * p), dtype=complex)
    top[:p, :p] = dinv
    top[p:, p:] = dinv
    return top @ blk


def initial_hamiltonian(d):
    """Constant Hamiltonian [D/2; I] [D/2  I] of the seed system."""
    d = np.asarray(d, dtype=float).reshape(-1)
    p = d.size
    col = np.vstack([np.diag(d) / 2.0, np.eye(p)]).astype(complex)
    return col @ col.conj().T


def validate_params(params, tol=defaults.IDENTITY_TOL):
    """Check the input identity alpha - alpha* = i Lambda J Lambda*.

    Returns a report dict; never raises on a mere failure (a dimension
    mismatch raises StructuralError from the constructor instead).
    """
    J = anti_diag_j(params.p)
    lam = params.lam
    residual = params.alpha - params.alpha.conj().T - 1j * lam @ J @ lam.conj().T
    scale = np.linalg.norm(params.alpha, 2) + 1.0
    rel = rel_residual(residual, scale)
    return {
        "passed": bool(rel < tol),
        "identity_residual": rel,
        "det_alpha_nonzero": bool(abs(np.linalg.det(params.alpha)) > 0.0),
        "d_negative": params.d_negative,
        "n": params.n,
        "p": params.p,
    }


def require_valid(params, tol=defaults.IDENTITY_TOL):
    report = validate_params(params, tol)
    if not report["passed"]:
        raise ValidationError(
            f"parameter identity violated (residual {report['identity_residual']:.3e})",
            report,
        )
    return report


def _check_state_conditioning(sigma, x):
    """The state Gram matrix dominates the identity in exact arithmetic,
    so once rounding noise (norm times machine epsilon) approaches the
    identity part, everything downstream of sigma^-1 is meaningless."""
    if not np.all(np.isfinite(sigma)):
        raise DomainError(
            f"state overflow at x = {x:.6g}; reduce x or the parameter norms"
        )
    eigs = np.linalg.eigvalsh(sigma)
    if float(eigs.min()) < 0.5 or float(eigs.max()) > 1e14:
        raise DomainError(
            f"state growth exhausts double precision at x = {x:.6g} "
            f"(Gram eigenvalues in [{eigs.min():.3e}, {eigs.max():.3e}]); "
            f"reduce x or the parameter norms"
        )


def evolve_state(params, x):
    """Evolve the parameter matrices to position ``x`` in closed form.

    psi1 columns evolve by exp(-i d_k x alpha); sigma accumulates the
    integral of psi1 psi1* and is Hermitized before return.
    """
    if x < 0:
        raise DomainError(f"position must be nonnegative, got {x}")
    n, p = params.n, params.p
    psi1_0 = params.psi1_0()
    psi2 = params.psi2()
    cols = []
    sigma = np.eye(n, dtype=complex)
    for k in range(p):
        dk = params.d[k]
        cols.append(expm(-1j * dk * x * params.alpha) @ psi1_0[:, k])
        sigma = sigma + exp_pair_integral(params.alpha, psi1_0[:, k], dk, x)
    psi1 = np.column_stack(cols)
    sigma = hermitize(sigma)
    _check_state_conditioning(sigma, x)
    lam = np.hstack([psi1, psi2]) @ _z_inverse(params.d)
    return GbdtState(x=float(x), psi1=psi1, psi2=psi2, lam=lam, sigma=sigma)


def state_identity_residual(params, state):
    """Relative residual of alpha sigma - sigma alpha* = i Lambda J Lambda* at x."""
    J = anti_diag_j(params.p)
    lhs = params.alpha @ state.sigma - state.sigma @ params.alpha.conj().T
    rhs = 1j * state.lam @ J @ state.lam.conj().T
    scale = np.linalg.norm(params.alpha, 2) * np.linalg.norm(state.sigma, 2) + 1.0
    return rel_residual(lhs - rhs, scale)


def transfer_matrix(params, x, z, state=None):
    """Transfer matrix w(x, z) = I - i J Lambda(x)* Sigma(x)^-1 (alpha - z)^-1 Lambda(x)."""
    if state is None:
        state = evolve_state(params, x)
    p = params.p
    J = anti_diag_j(p)
    res = resolvent_apply(params.alpha, z, state.lam, params.alpha_spectrum,
                          what="alpha matrix")
    core = np.linalg.solve(state.sigma, res)
    return np.eye(2 * p, dtype=complex) - 1j * J @ state.lam.conj().T @ core


def _q0(params, lam, sigma):
    J = anti_diag_j(params.p)
    H0 = initial_hamiltonian(params.d)
    core = lam.conj().T @ np.linalg.solve(sigma, lam)
    return J @ core @ J @ H0 - J @ H0 @ J @ core


def _gauge_factor_ode(params, xs):
    """Integrate v0' = -q0 v0, v0(0) = I with an adaptive RK scheme.

    One pass through the sorted positions: each leg starts where the last
    one ended, and returns its end value from the integrator, so a single
    position gets exactly the integration from 0 it would get alone.
    """
    n, p = params.n, params.p
    m = 2 * p
    if min(xs, default=0.0) < 0:
        raise DomainError("positions must be nonnegative")

    def rhs(x, y):
        state = evolve_state(params, x)
        q0 = _q0(params, state.lam, state.sigma)
        v = y.reshape(m, m)
        return (-q0 @ v).ravel()

    y = np.eye(m, dtype=complex).ravel()
    x0 = 0.0
    table = {}
    for x in sorted(set(xs)):
        if x > x0:
            sol = solve_ivp(
                rhs, (x0, x), y, t_eval=[x],
                rtol=defaults.ODE_TOL, atol=defaults.ODE_TOL, method="RK45",
            )
            if not sol.success:
                raise WeylkitError(sol.message)  # pragma: no cover
            y, x0 = sol.y[:, 0], x
        table[x] = y.reshape(m, m)
    return [table[x] for x in xs]


def _alpha_singular(params):
    """Whether 0 is within the pole guard of the spectrum of alpha."""
    eigs, scale = params.alpha_spectrum
    return np.abs(eigs).min() <= defaults.POLE_CUTOFF * (1.0 + scale)


def gauge_factor(params, x, state=None):
    """J-unitary gauge v0(x) normalized to v0(0) = I.

    Uses the closed form v0 = w(x, 0) when alpha is invertible; falls back
    to integrating v0' = -q0 v0 otherwise.
    """
    if not _alpha_singular(params):
        w_x = transfer_matrix(params, x, 0.0, state=state)
        w_0 = transfer_matrix(params, 0.0, 0.0, state=params.initial_state)
        # renormalize so that v0(0) = I; J-unitarity of the transfer matrix
        # at real z makes the result J-unitary as well
        return np.linalg.solve(w_0.T, w_x.T).T
    return _gauge_factor_ode(params, [x])[0]


def hamiltonian_factor(params, x, state=None):
    """p x 2p factor beta(x) = [D/2  I] v0(x), so that H = beta* beta."""
    v0 = gauge_factor(params, x, state=state)
    p = params.p
    row = np.hstack([np.diag(params.d) / 2.0, np.eye(p)]).astype(complex)
    return row @ v0


def hamiltonian_direct(params, x, state=None):
    """Hamiltonian H(x) = v0(x)* H0 v0(x): Hermitian, PSD, rank <= p."""
    beta = hamiltonian_factor(params, x, state=state)
    return hermitize(beta.conj().T @ beta)


def evolve_grid(params, xs):
    """Vectorized state evolution: (psi1, lam, sigma) stacked over ``xs``.

    Uses batched matrix exponentials and the block-exponential form of the
    state integral; equivalent to :func:`evolve_state` per point.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if np.any(xs < 0):
        raise DomainError("positions must be nonnegative")
    n, p = params.n, params.p
    k_x = xs.size
    psi1_0 = params.psi1_0()
    psi2 = params.psi2()
    psi1 = np.empty((k_x, n, p), dtype=complex)
    sigma = np.tile(np.eye(n, dtype=complex), (k_x, 1, 1))
    for c in range(p):
        a_c = -1j * params.d[c] * params.alpha
        g = expm(a_c[None, :, :] * xs[:, None, None])
        psi1[:, :, c] = np.einsum("kij,j->ki", g, psi1_0[:, c])
        cmat = np.outer(psi1_0[:, c], psi1_0[:, c].conj())
        if not np.any(cmat):
            continue
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        m[:n, :n] = -a_c
        m[:n, n:] = cmat
        m[n:, n:] = a_c.conj().T
        blk = expm(m[None, :, :] * xs[:, None, None])
        sigma += g @ blk[:, :n, n:]
    sigma = 0.5 * (sigma + np.conj(np.transpose(sigma, (0, 2, 1))))
    if k_x:
        far = int(np.argmax(xs))
        _check_state_conditioning(sigma[far], xs[far])
    lam = np.concatenate([psi1, np.tile(psi2, (k_x, 1, 1))], axis=2) @ _z_inverse(params.d)
    return psi1, lam, sigma


def hamiltonian_grid(params, xs):
    """Hamiltonian samples H(x) for an array of positions, vectorized.

    Uses the closed gauge-factor form when alpha is invertible; otherwise
    integrates the gauge ODE once through all of ``xs``.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    p = params.p
    if _alpha_singular(params):
        v0 = np.array(_gauge_factor_ode(params, xs.tolist())).reshape(-1, 2 * p, 2 * p)
    else:
        _, lam, sigma = evolve_grid(params, xs)
        J = anti_diag_j(p)
        res = np.linalg.solve(params.alpha[None, :, :], lam)
        core = np.linalg.solve(sigma, res)
        w0x = np.eye(2 * p, dtype=complex)[None] - 1j * np.einsum(
            "ij,kjl,klm->kim", J, np.conj(np.transpose(lam, (0, 2, 1))), core
        )
        w00 = transfer_matrix(params, 0.0, 0.0, state=params.initial_state)
        v0 = w0x @ np.linalg.inv(w00)
    row = np.hstack([np.diag(params.d) / 2.0, np.eye(p)]).astype(complex)
    beta = row[None] @ v0
    h = np.conj(np.transpose(beta, (0, 2, 1))) @ beta
    return 0.5 * (h + np.conj(np.transpose(h, (0, 2, 1))))


def fundamental_direct(params, x, z, state=None):
    """Fundamental solution w(x, z) of the canonical system, w(0, z) = I.

    Assembled as v0(x)^-1 w_t(x, z) w_seed(x, z) w_t(0, z)^-1 from the
    transfer matrix w_t and the free seed solution.
    """
    p = params.p
    state = evolve_state(params, x) if state is None else state
    v0 = gauge_factor(params, x, state=state)
    w_x = transfer_matrix(params, x, z, state=state)
    w_0 = transfer_matrix(params, 0.0, z, state=params.initial_state)
    # Seed solution Z exp(i z x diag(D, 0)) Z^-1.
    phases = np.concatenate([np.exp(1j * z * x * params.d), np.ones(p)])
    w_seed = _z_matrix(params.d) @ np.diag(phases) @ _z_inverse(params.d)
    cond = np.linalg.cond(w_0)
    if not np.isfinite(cond) or cond > 1.0 / defaults.POLE_CUTOFF:
        raise SingularityError(f"transfer matrix at x=0 is singular for z = {z}")
    right = np.linalg.solve(w_0.T, (w_seed).T).T  # w_seed @ w_0^-1
    return np.linalg.solve(v0, w_x @ right)


@dataclass(frozen=True)
class WeylPair:
    """The two rational Weyl functions of an explicit system.

    ``phi`` carries the value -(i/2) D at infinity, ``phi_hat`` the value
    (i/2)|D|; for D < 0 the two coincide and the Weyl function is unique.
    ``p1``/``p2`` are the complementary 0/1 diagonal projectors splitting D
    by sign, so that P1 + P2 = I and D (P1 - P2) = |D| exactly.
    """

    d: np.ndarray
    gamma: np.ndarray
    psi1_0: np.ndarray
    psi2: np.ndarray
    gamma_hat: np.ndarray
    psi1_0_hat: np.ndarray
    psi2_hat: np.ndarray
    p1: np.ndarray = field(repr=False)
    p2: np.ndarray = field(repr=False)

    @property
    def p(self):
        return self.d.size

    @property
    def d_negative(self):
        return bool(np.all(self.d < 0.0))

    @cached_property
    def gamma_spectrum(self):
        """(eigenvalues, norm) of gamma for the pole guard, computed once."""
        return spectrum(self.gamma)

    @cached_property
    def gamma_hat_spectrum(self):
        """(eigenvalues, norm) of gamma_hat for the pole guard, computed once."""
        return spectrum(self.gamma_hat)

    def phi(self, z):
        """phi at a scalar z (p x p) or a 1-D array of z ((k, p, p) stack)."""
        res = resolvent_apply(self.gamma, z, self.psi2, self.gamma_spectrum,
                              what="gamma matrix")
        return -0.5j * np.diag(self.d) + self.psi1_0.conj().T @ res

    def phi_hat(self, z):
        """phi_hat at a scalar z (p x p) or a 1-D array of z ((k, p, p) stack)."""
        res = resolvent_apply(self.gamma_hat, z, self.psi2_hat, self.gamma_hat_spectrum,
                              what="gamma-hat matrix")
        return 0.5j * np.diag(np.abs(self.d)) + self.psi1_0_hat.conj().T @ res


def weyl_pair(params, validate=True):
    """Build the pair of rational Weyl functions of a valid parameter set."""
    if validate:
        require_valid(params)
    d = params.d
    psi1_0 = params.psi1_0()
    psi2 = params.psi2()
    gamma = params.alpha - 1j * psi2 @ params.lambda2.conj().T
    abs_d = np.abs(d)
    psi1_0_hat = params.lambda1 - 0.5 * params.lambda2 * abs_d
    psi2_hat = params.lambda1 + 0.5 * params.lambda2 * abs_d
    gamma_hat = params.alpha - 1j * psi2_hat @ params.lambda2.conj().T
    p1 = np.diag((d > 0).astype(float))
    p2 = np.diag((d < 0).astype(float))
    return WeylPair(
        d=d, gamma=gamma, psi1_0=psi1_0, psi2=psi2,
        gamma_hat=gamma_hat, psi1_0_hat=psi1_0_hat, psi2_hat=psi2_hat,
        p1=p1, p2=p2,
    )
