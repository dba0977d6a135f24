"""Explicit direct problem for canonical systems built from parameter matrices.

A system is specified by a state dimension ``n``, a block size ``p``, a real
nonsingular diagonal ``D`` and matrices ``alpha`` (n x n), ``lambda1``,
``lambda2`` (n x p) tied together by the input identity

    alpha - alpha* = i * Lambda J Lambda*,   Lambda = [lambda1  lambda2],

with J the block anti-diagonal involution.  Everything downstream -- the
evolved state, the transfer matrix, the Hamiltonian, the fundamental solution
and the pair of rational Weyl functions -- is available in closed form.
The two Weyl functions are one :class:`RationalWeyl` formula taken at D and
at -|D|, and one object when D < 0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import defaults
from ._linalg import (
    anti_diag_j,
    expm_grid,
    hermitize,
    pole_gaps,
    rel_residual,
    resolvent_apply,
    spectrum,
)
from .exceptions import (
    DomainError,
    StructuralError,
    ValidationError,
)

__all__ = [
    "GbdtParams",
    "GbdtState",
    "RationalWeyl",
    "WeylPair",
    "validate_params",
    "evolve_state",
    "transfer_matrix",
    "hamiltonian_direct",
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
        for name in ("d", "alpha", "lambda1", "lambda2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise StructuralError(f"{name} must be finite")

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
    def state_generator(self):
        """The (p, 2n, 2n) stack [[i d_c alpha, p_c p_c*], [0, i d_c alpha*]],
        p_c column c of psi1(0), that :func:`evolve_grid` exponentiates."""
        n, cols = self.n, self.psi1_0().T
        idc = 1j * self.d[:, None, None]
        m = np.zeros((self.p, 2 * n, 2 * n), dtype=complex)
        m[:, :n, :n] = idc * self.alpha
        m[:, :n, n:] = cols[:, :, None] * cols.conj()[:, None, :]
        m[:, n:, n:] = idc * self.alpha.conj().T
        return m


@dataclass(frozen=True)
class GbdtState:
    """State of the explicit system at a position x >= 0."""

    x: float
    psi1: np.ndarray      # n x p
    psi2: np.ndarray      # n x p, constant in x
    lam: np.ndarray       # n x 2p
    sigma: np.ndarray     # n x n, Hermitian, >= I


def initial_hamiltonian(d):
    """Constant Hamiltonian [D/2; I] [D/2  I] of the seed system."""
    d = np.asarray(d, dtype=float).reshape(-1)
    p = d.size
    col = np.vstack([np.diag(d) / 2.0, np.eye(p)]).astype(complex)
    return col @ col.conj().T


def validate_params(params):
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
        "passed": bool(rel < defaults.IDENTITY_TOL),
        "identity_residual": rel,
        "det_alpha_nonzero": bool(abs(np.linalg.det(params.alpha)) > 0.0),
        "d_negative": params.d_negative,
        "n": params.n,
        "p": params.p,
    }


def _check_state_conditioning(sigma, x):
    """The state Gram matrix dominates the identity in exact arithmetic,
    so once rounding noise (norm times machine epsilon) approaches the
    identity part, everything downstream of sigma^-1 is meaningless."""
    if not np.isfinite(sigma).all():
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


def evolve_grid(params, xs):
    """Evolve the parameter matrices to every position in ``xs`` in closed form.

    psi1 columns evolve by exp(-i d_c x alpha); sigma accumulates the
    integral of psi1 psi1*.  Both come from the block exponential of
    [[-A, C], [0, A*]] x (A = -i d_c alpha, C = p_c p_c*, p_c column c of
    psi1(0), :attr:`GbdtParams.state_generator`): its lower right block is
    exp(A* x) = exp(A x)* and its upper right one the integral, which never
    degenerates.  One :func:`expm_grid` call serves all p columns: each
    position is an anchor plus an offset, so a uniform grid of N positions
    takes about 2 sqrt(N) block exponentials and N products instead of N
    exponentials.  sigma is Hermitized.  Returns (psi1, lam, sigma) stacked
    over ``xs``.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not (xs >= 0).all():
        raise DomainError(f"positions must be finite and nonnegative, got {xs.min()}")
    n = params.n
    cols = params.psi1_0().T                                   # (p, n)
    # a state too large for doubles overflows here; the conditioning check names x
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        blk = expm_grid(params.state_generator, xs)            # (p, len xs, 2n, 2n)
        g = np.conj(np.swapaxes(blk[..., n:, n:], -1, -2))
        psi1 = (g @ cols[:, None, :, None])[..., 0].transpose(1, 2, 0)  # (len xs, n, p)
        sigma = hermitize(np.eye(n) + (g @ blk[..., :n, n:]).sum(axis=0))
    if xs.size:
        far = int(np.argmax(xs))
        _check_state_conditioning(sigma[far], xs[far])
    psi2 = params.psi2()
    # [psi1  psi2] Z^-1 with Z^-1 = [[I/2, D^-1], [I/2, -D^-1]]
    lam = np.concatenate([0.5 * (psi1 + psi2), (psi1 - psi2) / params.d], axis=-1)
    return psi1, lam, sigma


def _one_point(x):
    """A scalar position for a one-point view; an array is refused, since
    silently taking its first entry would hide a call meant for the grid."""
    if np.ndim(x) != 0:
        raise StructuralError(
            f"x must be a scalar, got shape {np.shape(x)}; "
            f"evolve_grid and hamiltonian_grid take arrays"
        )
    return float(x)


def evolve_state(params, x):
    """The state at one position ``x``: the one-point case of :func:`evolve_grid`."""
    x = _one_point(x)
    psi1, lam, sigma = evolve_grid(params, [x])
    return GbdtState(x=x, psi1=psi1[0], psi2=params.psi2(), lam=lam[0],
                     sigma=sigma[0])


def state_identity_residual(params, state):
    """Relative residual of alpha sigma - sigma alpha* = i Lambda J Lambda* at x."""
    J = anti_diag_j(params.p)
    lhs = params.alpha @ state.sigma - state.sigma @ params.alpha.conj().T
    rhs = 1j * state.lam @ J @ state.lam.conj().T
    scale = np.linalg.norm(params.alpha, 2) * np.linalg.norm(state.sigma, 2) + 1.0
    return rel_residual(lhs - rhs, scale)


def _transfer(params, lam, sigma, zs):
    """w(x, z) = I - i J Lambda(x)* Sigma(x)^-1 (alpha - z)^-1 Lambda(x) on a grid.

    ``lam`` (..., n, 2p) and ``sigma`` (..., n, n) are one evolved state or a
    stack of them, ``zs`` a 1-D array; the result is a (len zs, ..., 2p, 2p)
    stack.  A z within the pole guard of the spectrum of alpha raises
    SingularityError.
    """
    res = resolvent_apply(params.alpha, zs, lam, params.alpha_spectrum,
                          what="alpha matrix")
    core = np.linalg.solve(sigma, res)
    lam_h = np.conj(np.swapaxes(lam, -1, -2))
    J = anti_diag_j(params.p)
    return np.eye(2 * params.p, dtype=complex) - 1j * J @ lam_h @ core


def transfer_matrix(params, x, z):
    """Transfer matrix w(x, z) at one position; ``z`` a scalar or a 1-D array."""
    state = evolve_state(params, x)
    w = _transfer(params, state.lam, state.sigma, np.reshape(z, -1))
    return w.reshape(np.shape(z) + w.shape[1:])


_POLE_BAND = 2e-3   # z within _POLE_BAND * ||alpha|| of a pole takes the pole-free form


def _seed_solution(params, xs, zs):
    """Free seed solution Z exp(i z x diag(D, 0)) Z^-1, a (len zs, len xs, 2p, 2p) stack.

    With Z = [[I, I], [D/2, -D/2]] and F = exp(i z x D) - I it is
    [[I + F/2, F D^-1], [D F/4, I + F/2]], diagonal blocks filled entry by
    entry; F from expm1 keeps every entry to a few eps as z x -> 0, and the
    seed is exactly I at z = 0.
    """
    d, p = params.d, params.p
    f = np.expm1(1j * zs[:, None, None] * xs[None, :, None] * d)
    out = np.zeros(f.shape[:2] + (2 * p, 2 * p), dtype=complex)
    c = np.arange(p)
    out[..., c, c] = out[..., c + p, c + p] = 1.0 + 0.5 * f
    out[..., c, c + p] = f / d
    out[..., c + p, c] = 0.25 * d * f
    return out


def _pole_free(params, xs, zs, lam, sigma):
    """:func:`_closed_form` without its poles, from the states ``lam``,
    ``sigma`` at ``xs``: a (len zs, len xs, 2p, 2p) stack.

    For column c of D, with p_c column c of psi1(0), the exponential E of
    x [[i d_c alpha, i d_c p_c, 0], [0, i d_c z, p_c*], [0, 0, i d_c alpha*]]
    holds g_c* = exp(i d_c x alpha*) and, above its diagonal, the integrals
    (Van Loan, IEEE TAC 23, 1978) that make these three entire in z:
    Phi = [Phi_1  0] Z^-1 = (alpha - z)^-1 (Lambda(x) w_seed - Lambda(0)),
    Psi = iJ Z^-* [Psi_1; 0] = (w_seed iJ Lambda(0)* - iJ Lambda(x)*) (alpha* - z)^-1,
    K = -sum_c g_c E_13 = (alpha - z)^-1 (I - Sigma(x) + Lambda(x) Psi),
    where Phi_1[:, c] = -g_c E_12 and Psi_1[c, :] = -i d_c E_23, and
    Lambda(0) = [lambda1  lambda2].  By the state identity
    v0 w = w_seed + Psi Lambda(0) - iJ Lambda(x)* Sigma(x)^-1 (Phi + K Lambda(0)).
    The (p, len zs) stack of these matrices goes through one :func:`expm_grid`
    call, which splits the positions as :func:`evolve_grid`'s call does.
    """
    n, p = params.n, params.p
    cols, gen = params.psi1_0().T, params.state_generator
    idc = 1j * params.d[:, None]
    m = np.zeros((p, zs.size, 2 * n + 1, 2 * n + 1), dtype=complex)
    m[..., :n, :n] = gen[:, None, :n, :n]
    m[..., :n, n] = (idc * cols)[:, None]
    m[..., n, n] = idc * zs
    m[..., n, n + 1:] = cols.conj()[:, None]
    m[..., n + 1:, n + 1:] = gen[:, None, n:, n:]
    e = expm_grid(m, xs)                        # (p, len zs, len xs, 2n + 1, 2n + 1)
    g = np.conj(np.swapaxes(e[..., n + 1:, n + 1:], -1, -2))
    phi1 = np.moveaxis(-(g @ e[..., :n, n:n + 1])[..., 0], 0, -1)
    psi1 = np.moveaxis(-idc[:, None, None] * e[..., n, n + 1:], 0, -2)
    k = -(g @ e[..., :n, n + 1:]).sum(axis=0)
    d, lam_0 = params.d, params.lam
    # Z^-1 = [[I/2, D^-1], [I/2, -D^-1]], so [Phi_1  0] Z^-1 = [Phi_1/2  Phi_1 D^-1]
    # and iJ Z^-* [Psi_1; 0] = i [D^-1 Psi_1; Psi_1/2]
    phi = np.concatenate([0.5 * phi1, phi1 / d], axis=-1)
    psi = 1j * np.concatenate([psi1 / d[:, None], 0.5 * psi1], axis=-2)
    core = np.linalg.solve(sigma, phi + k @ lam_0)
    lam_h = np.conj(np.swapaxes(lam, -1, -2))
    J = anti_diag_j(p)
    return _seed_solution(params, xs, zs) + psi @ lam_0 - 1j * J @ lam_h @ core


def _closed_form(params, xs, zs):
    """v0(x) w(x, z) = w_t(x, z) w_seed(x, z) w_t(0, z)^-1 on the grid ``xs``
    by ``zs`` (1-D arrays), a (len zs, len xs, 2p, 2p) stack.

    The product of the transfer matrix w_t and the free seed solution is
    entire in z, but w_t has poles on the spectrum of alpha and w_t(0, .)^-1
    on its conjugate, and the product loses about eps ||alpha|| / gap of its
    relative accuracy to their cancellation, and eps (||alpha|| / gap)^2
    where z is that close to a pole of both factors (z = 0 when an
    eigenvalue of alpha is near 0, as for a nearly singular alpha).  Every z
    within ``_POLE_BAND * ||alpha||`` of a pole, z = 0 included, therefore
    takes the pole-free form of :func:`_pole_free`, in which the
    cancellation is done in exact arithmetic; every other z takes the plain
    product.  The band scales with alpha, as do the poles, so the scaled
    system (c alpha, sqrt(c) Lambda) at (x, z) takes the form that the
    unscaled one takes at (c x, z / c).  A z within the resolvents' own
    guard (which reaches outside the band only for ||alpha|| below about
    5e-10) takes the pole-free form too.  The state at x = 0 is the
    parameters themselves: Lambda(0) = [lambda1  lambda2], Sigma(0) = I.
    """
    eigs, scale = params.alpha_spectrum
    gaps, guarded = pole_gaps((np.concatenate([eigs, eigs.conj()]), scale), zs)
    near = (guarded | (gaps < _POLE_BAND * scale)).any(axis=1)
    far = zs[~near]

    _, lam, sigma = evolve_grid(params, xs)
    out = np.empty((zs.size, xs.size, 2 * params.p, 2 * params.p), dtype=complex)
    if far.size:
        w_0 = _transfer(params, params.lam, np.eye(params.n), far)
        w_x = _transfer(params, lam, sigma, far)
        out[~near] = w_x @ _seed_solution(params, xs, far) @ np.linalg.inv(w_0)[:, None]
    if near.any():
        out[near] = _pole_free(params, xs, zs[near], lam, sigma)
    return out


def hamiltonian_grid(params, xs):
    """Hamiltonian H(x) = v0(x)* H0 v0(x) on an array of positions.

    Hermitian, PSD, rank <= p: H = beta* beta with beta = [D/2  I] v0.  The
    J-unitary gauge v0, v0(0) = I, is :func:`_closed_form` at z = 0, since
    w(x, 0) = w_seed(x, 0) = I, for singular and invertible alpha alike.
    A position's state comes from the anchor and offset that
    :func:`expm_grid` gives it in its batch, and from the Pade degree of the
    batch's stacked exponential, so the parts of a split batch take other
    anchors and offsets and agree with the batch to the rounding of the
    state (about eps ||m|| x for the block matrix m), not bit for bit.  The
    plain product amplifies that by about ((1 + ||alpha||) / g)^2 when the
    distance g from 0 to the spectrum of alpha lies outside the band of the
    pole-free form.  The split test holds its generated splits to 16 eps of
    the batch's largest |H| entry times max(1, that factor); of 9,000 random
    splits (n <= 4, p <= 2, 2 to 40 positions on [0, 2]) 4 exceeded it, the
    worst at 37 eps times the factor.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    p = params.p
    row = np.hstack([np.diag(params.d) / 2.0, np.eye(p)]).astype(complex)
    beta = row @ _closed_form(params, xs, np.zeros(1))[0]
    return hermitize(np.conj(np.swapaxes(beta, -1, -2)) @ beta)


def hamiltonian_direct(params, x):
    """Hamiltonian H(x) at one position: the one-point case of :func:`hamiltonian_grid`."""
    return hamiltonian_grid(params, [_one_point(x)])[0]


def fundamental_direct(params, x, z):
    """Fundamental solution w(x, z) of the canonical system, w(0, z) = I.

    ``x`` and ``z`` are scalars or 1-D arrays; the result has shape
    ``shape(z) + shape(x) + (2p, 2p)``, so two arrays give a (len z, len x)
    stack from one batched evaluation.  It is v0(x)^-1 times
    :func:`_closed_form`, whose value at z = 0 is the gauge v0(x) itself;
    both come from one evaluation.  Within
    ``_POLE_BAND * ||alpha||`` of a pole of the transfer matrix, or of
    its inverse at x = 0, the value comes from the pole-free form, for the
    gauge's z = 0 as for every other z, so every z, the spectrum of alpha
    and its conjugate included, has a value and none raises
    SingularityError.  A z at which w overflows (the seed solution grows
    like exp(|Im z| x max|d|)) raises DomainError naming it.
    """
    xs = np.asarray(x, dtype=float).reshape(-1)
    zs = np.asarray(z, dtype=complex).reshape(-1)
    m = 2 * params.p
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _closed_form(params, xs, np.append(zs, 0.0))
        w = np.linalg.solve(vals[-1], vals[:-1])
    bad = ~np.isfinite(w).all(axis=(1, 2, 3))
    if bad.any():
        raise DomainError(
            f"the fundamental solution is not finite at z = {zs[bad][0]}; "
            f"reduce |Im z| or x")
    return w.reshape(np.shape(z) + np.shape(x) + (m, m))


@dataclass(frozen=True)
class RationalWeyl:
    """The rational Weyl function phi(z) = -(i/2) D + psi1_0* (gamma - z I)^-1 psi2.

    Built by :func:`weyl_pair` from a parameter set at its D and at -|D|;
    :class:`weylkit.rational.Realization` is its validated D < 0 case.
    Calling it with a scalar z gives the p x p value, with a 1-D array of z
    the (k, p, p) stack from one stacked solve; the eigenvalues and norm of
    gamma for the pole guard are computed once, on the first call.
    """

    d: np.ndarray         # (p,) real, nonzero
    gamma: np.ndarray     # (n, n)
    psi1_0: np.ndarray    # (n, p)
    psi2: np.ndarray      # (n, p)

    @property
    def n(self):
        return self.gamma.shape[0]

    @property
    def p(self):
        return self.d.size

    @property
    def at_infinity(self):
        """The value -(i/2) D of phi at infinity."""
        return -0.5j * np.diag(self.d)

    @cached_property
    def gamma_spectrum(self):
        """(eigenvalues, norm) of gamma for the pole guard, computed once."""
        return spectrum(self.gamma)

    def __call__(self, z):
        res = resolvent_apply(self.gamma, z, self.psi2, self.gamma_spectrum,
                              what="gamma matrix")
        return self.at_infinity + self.psi1_0.conj().T @ res


@dataclass(frozen=True)
class WeylPair:
    """The two rational Weyl functions of an explicit system.

    ``phi`` carries the value -(i/2) D at infinity, ``phi_hat`` the value
    (i/2)|D|: ``phi_hat`` is ``phi`` of the same alpha and Lambda at -|D|.
    For D < 0 the two are one :class:`RationalWeyl` object and the Weyl
    function is unique.
    """

    d: np.ndarray
    weyl: RationalWeyl        # phi
    weyl_hat: RationalWeyl    # phi_hat; ``weyl`` itself when D < 0

    @property
    def p(self):
        return self.d.size

    def phi(self, z):
        """phi at a scalar z (p x p) or a 1-D array of z ((k, p, p) stack)."""
        return self.weyl(z)

    def phi_hat(self, z):
        """phi_hat at a scalar z (p x p) or a 1-D array of z ((k, p, p) stack)."""
        return self.weyl_hat(z)


def _rational_weyl(params, d):
    """The rational Weyl function of alpha and Lambda with D replaced by ``d``:
    psi1_0 = lambda1 + lambda2 d / 2, psi2 = lambda1 - lambda2 d / 2 and
    gamma = alpha - i psi2 lambda2*."""
    psi1_0 = params.lambda1 + 0.5 * params.lambda2 * d
    psi2 = params.lambda1 - 0.5 * params.lambda2 * d
    gamma = params.alpha - 1j * psi2 @ params.lambda2.conj().T
    return RationalWeyl(d=d, gamma=gamma, psi1_0=psi1_0, psi2=psi2)


def weyl_pair(params):
    """Build the pair of rational Weyl functions of a parameter set; raises
    ValidationError if it violates the input identity."""
    report = validate_params(params)
    if not report["passed"]:
        raise ValidationError(
            f"parameter identity violated (residual {report['identity_residual']:.3e})",
            report,
        )
    weyl = _rational_weyl(params, params.d)
    weyl_hat = weyl if params.d_negative else _rational_weyl(params, -np.abs(params.d))
    return WeylPair(d=params.d, weyl=weyl, weyl_hat=weyl_hat)
