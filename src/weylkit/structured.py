"""Discretized structured operators with (weighted) difference kernels.

The continuous objects are operators S = I + integral operator whose kernel
is k(x - t) (plain case) or, entrywise, k_ij(d_j t - d_i x) for a negative
diagonal weight D.  A midpoint Nystroem rule on a uniform grid turns S into
a dense Hermitian matrix; positivity is probed by Cholesky, whose inverse
factor is the discrete analog of the lower-triangular factorization
S^-1 = E* E.  Everything else in this module -- potential recovery, the
theta functions, Hamiltonian assembly, fundamental solutions and the
Weyl-disk oracle -- is built from that factor.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lapack, solve_triangular

from . import defaults
from ._linalg import anti_diag_j, hermitize
from .exceptions import (
    DomainError,
    PositivityError,
    SingularityError,
    StructuralError,
)
from .grids import DifferenceKernel, GridFunction

__all__ = [
    "StructuredOperator",
    "TriangularFactor",
    "default_operator_length",
    "build_structured_operator",
    "factorize_triangular",
    "recover_potential",
    "recover_potential_at_edge",
    "theta_functions",
    "accelerant_from_potential",
    "canonical_from_kernel",
    "hamiltonian_difference_quotient",
    "fundamental_from_kernel",
    "weyl_disk_approx",
    "disk_radius_estimate",
    "schur_recover",
]


# ---------------------------------------------------------------------------
# operator assembly


def _interp_entry(kernel, a, b, y):
    """Entry (a, b) of k at nonnegative arguments, linearly interpolated."""
    vals = kernel.samples[:, a, b]
    xs = kernel.xs
    return np.interp(y, xs, vals.real) + 1j * np.interp(y, xs, vals.imag)


def _entry_eval(kernel, a, b, y):
    """Entry (a, b) of k at arbitrary arguments using k(-x) = k(x)*."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape, dtype=complex)
    pos = y >= 0.0
    out[pos] = _interp_entry(kernel, a, b, y[pos])
    if np.any(~pos):
        out[~pos] = np.conj(_interp_entry(kernel, b, a, -y[~pos]))
    return out


@dataclass(frozen=True)
class StructuredOperator:
    """Dense Nystroem discretization of S = I + integral operator."""

    s: np.ndarray          # (p M, p M) Hermitian
    h: float
    p: int
    d: np.ndarray = None   # weight diagonal, all < 0, or None for the plain case

    @property
    def m(self):
        return self.s.shape[0] // self.p

    @property
    def l(self):
        return self.h * self.m

    def is_positive_definite(self):
        _, info = lapack.zpotrf(self.s, lower=1)
        return bool(info == 0)


def default_operator_length(kernel, d=None):
    """Longest operator length l, a whole number of grid steps, whose
    arguments max|d| * l stay on the stored kernel (l = kernel.l for d None)."""
    scale = 1.0 if d is None else float(np.abs(np.asarray(d, dtype=float)).max())
    return kernel.h * int(np.floor(kernel.l / (scale * kernel.h) + 1e-9))


def build_structured_operator(kernel, d=None, l=None):
    """Assemble S = I + h [kernel matrix] on the midpoint grid of [0, l].

    Plain case (``d is None``): matrix block (i, j) is k(x_i - x_j).
    Weighted case: entry (a, b) of block (i, j) is k_ab(d_b x_j - d_a x_i);
    all weights must be negative, and the kernel must be stored out to
    max|d| * l.  The result is Hermitian-symmetrized.
    """
    p, h = kernel.p, kernel.h
    if d is not None:
        d = np.asarray(d, dtype=float).reshape(-1)
        if d.size != p:
            raise StructuralError("weight diagonal must have one entry per block row")
        if np.any(d >= 0.0):
            raise DomainError("weighted operators require all D entries negative")
        scale = np.abs(d).max()
    else:
        scale = 1.0
    if l is None:
        l = default_operator_length(kernel, d)
    m = int(round(l / h))
    if m < 1 or abs(m * h - l) > 1e-9 * max(1.0, l):
        raise StructuralError("grid step must divide the operator length")
    if scale * l > kernel.l + 1e-9:
        raise StructuralError(
            f"kernel stored on [0, {kernel.l:.6g}] but arguments reach {scale * l:.6g}"
        )
    xs = h * (np.arange(m) + 0.5)
    blocks = np.empty((m, m, p, p), dtype=complex)
    if d is None:
        # difference kernel: blocks depend on i - j only
        diffs = h * np.arange(-(m - 1), m)
        table = kernel.at(diffs)                      # (2m-1, p, p)
        idx = np.arange(m)[:, None] - np.arange(m)[None, :] + (m - 1)
        blocks = table[idx]
    else:
        for a in range(p):
            for b in range(p):
                args = d[b] * xs[None, :] - d[a] * xs[:, None]
                blocks[:, :, a, b] = _entry_eval(kernel, a, b, args)
    full = np.transpose(blocks, (0, 2, 1, 3)).reshape(m * p, m * p)
    s = np.eye(m * p, dtype=complex) + h * full
    s = 0.5 * (s + s.conj().T)
    return StructuredOperator(s=s, h=h, p=p, d=None if d is None else d)


# ---------------------------------------------------------------------------
# triangular factorization


class TriangularFactor:
    """Discrete lower-triangular factor W = I + E with W S W* = I.

    ``w`` is the inverse Cholesky factor of S; its strictly lower blocks
    estimate the kernel E(x_i, x_j) as W_ij / h (an O(h)-accurate kernel
    read-off).  The inverse factor I + Gamma is computed on demand.
    """

    def __init__(self, w, h, p):
        self.w = w
        self.h = float(h)
        self.p = int(p)
        self._winv = None

    @property
    def m(self):
        return self.w.shape[0] // self.p

    @property
    def winv(self):
        if self._winv is None:
            inv, info = lapack.ztrtri(self.w, lower=1)
            if info != 0:  # pragma: no cover
                raise PositivityError("triangular factor is singular", minor=info)
            self._winv = inv
        return self._winv

    def e_kernel(self, i, j):
        """O(h) estimate of E(x_i, x_j) for i > j."""
        p = self.p
        return self.w[i * p:(i + 1) * p, j * p:(j + 1) * p] / self.h

    def gamma_kernel(self, i, j):
        """O(h) estimate of the inverse-factor kernel Gamma(x_i, x_j), i > j."""
        p = self.p
        return self.winv[i * p:(i + 1) * p, j * p:(j + 1) * p] / self.h

    def apply(self, grid_values):
        """Apply the factor to stacked block samples (m, p, cols)."""
        m, p = self.m, self.p
        cols = grid_values.shape[2]
        return (self.w @ grid_values.reshape(m * p, cols)).reshape(m, p, cols)

    def apply_inverse(self, grid_values):
        m, p = self.m, self.p
        cols = grid_values.shape[2]
        return (self.winv @ grid_values.reshape(m * p, cols)).reshape(m, p, cols)


def factorize_triangular(op):
    """Cholesky-based triangular factorization of a positive operator.

    Raises PositivityError naming the offending leading minor size when S
    is not positive definite; this doubles as the positivity test.
    """
    c, info = lapack.zpotrf(op.s, lower=1, clean=1)
    if info > 0:
        raise PositivityError(
            f"operator not positive definite (leading minor of order {info})",
            minor=int(info),
        )
    if info < 0:  # pragma: no cover
        raise StructuralError(f"illegal value in Cholesky argument {-info}")
    w, info = lapack.ztrtri(c, lower=1)
    if info != 0:  # pragma: no cover
        raise PositivityError("Cholesky factor is singular", minor=int(info))
    return TriangularFactor(w=w, h=op.h, p=op.p)


def _plain_factor(kernel, l, factor):
    if factor is not None:
        return factor
    op = build_structured_operator(kernel, l=l)
    return factorize_triangular(op)


# ---------------------------------------------------------------------------
# potential recovery (plain difference kernels)


def recover_potential(kernel, l=None, mode="endpoint", factor=None):
    """Recover the potential v on (0, l/2) from an accelerant.

    ``endpoint`` evaluates v(x/2) = 2i (k(x) + int_0^x E(x, t) k(t) dt) on
    the grid; ``kernel-edge`` uses v(x) = -2i E(2x, 0), valid for
    continuous potentials.  Both are O(h)-accurate.
    """
    if l is None:
        l = kernel.l
    fac = _plain_factor(kernel, l, factor)
    m, p, h = fac.m, kernel.p, kernel.h
    if mode == "endpoint":
        ek = fac.apply(kernel.samples[:m])
        vals = 2j * ek
    elif mode == "kernel-edge":
        p_ = p
        w = fac.w
        vals = np.empty((m, p_, p_), dtype=complex)
        for i in range(1, m):
            vals[i] = -2j * w[i * p_:(i + 1) * p_, 0:p_] / h
        vals[0] = vals[1] if m > 1 else 0.0
    else:
        raise StructuralError(f"unknown recovery mode {mode!r}")
    return GridFunction(h=h / 2.0, values=vals, x0=h / 4.0)


def recover_potential_at_edge(kernel, l=None):
    """Right-edge value v(l/2) = 2i (S_l^-1 k)(l) by a dense solve.

    Independent of the Cholesky route; used as a cross-check of the
    endpoint-mode recovery.
    """
    if l is None:
        l = kernel.l
    op = build_structured_operator(kernel, l=l)
    m, p = op.m, op.p
    rhs = kernel.samples[:m].reshape(m * p, p)
    u = np.linalg.solve(op.s, rhs)
    return 2j * u[(m - 1) * p:, :]


def theta_functions(kernel, l=None, factor=None):
    """The two p x 2p rows of the zero-energy fundamental solution.

    theta1(x/2) = (1/sqrt 2) ((I+E) [2s  I])(x) with s = I/2 + int k;
    theta2 follows from the structured-operator formula with S_{2x}^-1
    applied columnwise, evaluated via the causal triangular factor.
    """
    if l is None:
        l = kernel.l
    fac = _plain_factor(kernel, l, factor)
    m, p, h = fac.m, kernel.p, kernel.h
    xs = kernel.xs[:m]
    s_vals = 0.5 * np.eye(p)[None] + kernel.cumulative(xs)
    stack = np.concatenate([2.0 * s_vals, np.tile(np.eye(p)[None], (m, 1, 1))], axis=2)
    big = fac.apply(stack)                      # (m, p, 2p) samples of (I+E)[2s I]
    theta1 = big / np.sqrt(2.0)
    ek = fac.apply(kernel.samples[:m])          # (m, p, p) samples of (I+E)k
    prods = np.einsum("mji,mjk->mik", ek.conj(), big)   # a_m^H B_m
    prefix = np.zeros((m, p, 2 * p), dtype=complex)
    np.cumsum(prods[:-1] * h, axis=0, out=prefix[1:])
    integral = prefix + 0.5 * h * prods
    base = np.concatenate([-np.eye(p), np.eye(p)], axis=1)[None]
    theta2 = (base - integral) / np.sqrt(2.0)
    half = h / 2.0
    return (
        GridFunction(h=half, values=theta1, x0=half / 2.0),
        GridFunction(h=half, values=theta2, x0=half / 2.0),
    )


def accelerant_from_potential(v, factor):
    """Rebuild the accelerant from a potential and the inverse factor kernel:
    k(2x) = -(i/2) (v(x) + 2 int_0^x Gamma(2x, 2t) v(t) dt)."""
    m, p, h = factor.m, factor.p, factor.h
    if v.m != m or v.rows != p or v.cols != p:
        raise StructuralError("potential grid does not match the factor grid")
    if abs(v.h - h / 2.0) > 1e-12 * h:
        raise StructuralError("potential must live on the half grid of the factor")
    kv = -0.5j * factor.apply_inverse(v.values)
    return DifferenceKernel(p=p, h=h, samples=kv)


# ---------------------------------------------------------------------------
# weighted kernels: canonical systems


def _pi_samples(kernel, d, xs):
    """Samples of Pi(x) = [D {s_ij(|d_i| x)}  I_p] on the grid.

    Row a of the first block is d_a/2 on the diagonal minus the
    antiderivative of k taken out to |d_a| x (entrywise in the row).
    """
    p = kernel.p
    m = xs.size
    first = np.empty((m, p, p), dtype=complex)
    for a in range(p):
        k1 = kernel.cumulative(np.abs(d[a]) * xs)   # (m, p, p)
        first[:, a, :] = 0.5 * d[a] * np.eye(p)[a][None, :] - k1[:, a, :]
    eye = np.tile(np.eye(p, dtype=complex)[None], (m, 1, 1))
    return np.concatenate([first, eye], axis=2)     # (m, p, 2p)


def canonical_from_kernel(kernel, d, l=None, return_factor=False):
    """Hamiltonian H = beta* beta of the canonical system generated by k.

    beta is the triangular factor applied to Pi columnwise; requires the
    weighted operator to be positive definite.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    op = build_structured_operator(kernel, d=d, l=l)
    fac = factorize_triangular(op)
    xs = op.h * (np.arange(op.m) + 0.5)
    pi = _pi_samples(kernel, d, xs)
    beta_vals = fac.apply(pi)
    h_vals = np.einsum("mji,mjk->mik", beta_vals.conj(), beta_vals)
    h_vals = 0.5 * (h_vals + np.conj(np.transpose(h_vals, (0, 2, 1))))
    half = op.h
    beta = GridFunction(h=half, values=beta_vals, x0=half / 2.0)
    ham = GridFunction(h=half, values=h_vals, x0=half / 2.0)
    if return_factor:
        return beta, ham, op, fac
    return beta, ham


def hamiltonian_difference_quotient(kernel, d, indices, l=None):
    """dB/dl at l = m h by central differences of B(r) = h Pi* S_r^-1 Pi.

    Dense solves on leading subblocks, independent of the Cholesky route;
    returns a list of (x, H_estimate) pairs.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    op = build_structured_operator(kernel, d=d, l=l)
    m, p, h = op.m, op.p, op.h
    xs = h * (np.arange(m) + 0.5)
    pi = _pi_samples(kernel, d, xs).reshape(m * p, 2 * p)

    def b_of(mm):
        sub = op.s[: mm * p, : mm * p]
        rhs = pi[: mm * p]
        return h * rhs.conj().T @ np.linalg.solve(sub, rhs)

    out = []
    for mm in indices:
        if not 1 <= mm - 1 or not mm + 1 <= m:
            raise StructuralError("difference-quotient index out of range")
        est = (b_of(mm + 1) - b_of(mm - 1)) / (2.0 * h)
        out.append((mm * h, hermitize(est)))
    return out


def _integration_matrix(d, m, h):
    """Discrete A = i D int_0^x: block lower triangular with half diagonal."""
    p = d.size
    low = np.tril(np.ones((m, m)), -1) * h + np.eye(m) * (h / 2.0)
    return np.kron(low, 1j * np.diag(d)).astype(complex)


def fundamental_from_kernel(kernel, d, l, z, op=None, factor=None):
    """Fundamental solution w(l, z) = I + i z J Pi* S^-1 (I - z A)^-1 Pi."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if op is None:
        op = build_structured_operator(kernel, d=d, l=l)
    if factor is None:
        factor = factorize_triangular(op)
    m, p, h = op.m, op.p, op.h
    xs = h * (np.arange(m) + 0.5)
    pi = _pi_samples(kernel, d, xs).reshape(m * p, 2 * p)
    amat = _integration_matrix(d, m, h)
    rhs = solve_triangular(np.eye(m * p) - z * amat, pi, lower=True)
    u = factor.w.conj().T @ (factor.w @ rhs)
    J = anti_diag_j(p)
    return np.eye(2 * p, dtype=complex) + 1j * z * J @ (h * pi.conj().T @ u)


# ---------------------------------------------------------------------------
# Weyl disk oracle


def _default_pair(p):
    return np.eye(p, dtype=complex), 1j * np.eye(p, dtype=complex)


def _check_pair(p1, p2):
    g1 = p1.conj().T @ p1 + p2.conj().T @ p2
    g2 = p1.conj().T @ p2 + p2.conj().T @ p1
    if np.linalg.eigvalsh(hermitize(g1)).min() <= 0:
        raise DomainError("pair violates nonsingularity")
    if np.linalg.eigvalsh(hermitize(g2)).min() < -defaults.PSD_TOL:
        raise DomainError("pair violates the half-plane condition")


def _sample_hamiltonian(h_at, nodes):
    """Evaluate a Hamiltonian callable at many nodes, batched when supported."""
    try:
        vals = np.asarray(h_at(nodes), dtype=complex)
        if vals.ndim == 3 and vals.shape[0] == nodes.size and vals.shape[1] == vals.shape[2]:
            return vals
    except Exception:
        pass
    out = []
    for x in nodes:
        v = np.asarray(h_at(float(x)), dtype=complex)
        out.append(v.reshape(v.shape[-2], v.shape[-1]))
    return np.array(out)


def _propagate(h_at, z, l, nsteps, order4):
    """Transfer matrix of w' = i z J H(x) w over [0, l], w(0) = I."""
    h = l / nsteps
    if order4:
        c1, c2 = 0.5 - np.sqrt(3) / 6.0, 0.5 + np.sqrt(3) / 6.0
        base = h * np.arange(nsteps)
        nodes = np.concatenate([base + c1 * h, base + c2 * h])
        vals = _sample_hamiltonian(h_at, nodes)
        h1, h2 = vals[:nsteps], vals[nsteps:]
        size = h1.shape[1]
        J = anti_diag_j(size // 2)
        a1 = 1j * z * J[None] @ h1
        a2 = 1j * z * J[None] @ h2
        omega = 0.5 * h * (a1 + a2) + (np.sqrt(3) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
        steps = expm(omega)
    else:
        nodes = h * (np.arange(nsteps) + 0.5)
        vals = _sample_hamiltonian(h_at, nodes)
        size = vals.shape[1]
        J = anti_diag_j(size // 2)
        steps = expm(1j * z * h * J[None] @ vals)
    w = np.eye(size, dtype=complex)
    for k in range(nsteps):
        w = steps[k] @ w
    return w


def propagate_fundamental(hamiltonian, z, l, steps_per_unit=None):
    """Integrate the canonical system for a callable or gridded Hamiltonian.

    Callables get a fourth-order two-point Magnus stepper; grid samples get
    midpoint exponential stepping (O(h^2), matching the grid resolution).
    """
    if steps_per_unit is None:
        steps_per_unit = defaults.DISK_STEPS_PER_UNIT
    nsteps = max(8, int(np.ceil(l * steps_per_unit)))
    if isinstance(hamiltonian, GridFunction):
        vals = hamiltonian

        def h_at(x):
            return vals.at(x)

        return _propagate(h_at, z, l, nsteps, order4=False)
    return _propagate(hamiltonian, z, l, nsteps, order4=True)


def weyl_disk_approx(hamiltonian, z, l, pair=None, steps_per_unit=None):
    """Moebius-transform value phi(z, l) approximating the Weyl function.

    ``hamiltonian`` is a callable x -> (2p, 2p) PSD matrix or a
    GridFunction.  The transform uses W(l, z) = w(l, conj z)* and the pair
    (P1, P2), defaulting to (I, iI).  As l grows with z fixed in the upper
    half-plane the value converges to the Weyl function.
    """
    if z.imag <= 0:
        raise DomainError("weyl_disk_approx requires Im z > 0")
    w = propagate_fundamental(hamiltonian, np.conj(z), l, steps_per_unit)
    calw = w.conj().T
    p = calw.shape[0] // 2
    p1, p2 = _default_pair(p) if pair is None else pair
    _check_pair(p1, p2)
    num = calw[:p, :p] @ p1 + calw[:p, p:] @ p2
    den = calw[p:, :p] @ p1 + calw[p:, p:] @ p2
    cond = np.linalg.cond(den)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularityError("pair denominator is singular at this z")
    return 1j * num @ np.linalg.inv(den)


def disk_radius_estimate(hamiltonian, z, l, steps_per_unit=None):
    """Radius of the Weyl disk at (l, z).

    For p = 1 this is the exact radius of the Moebius image of the
    admissible half-plane: |det W| / (2 |Re(W_21 conj(W_22))|) with
    W = w(l, conj z)*.  For block sizes p > 1 the value is a sampled
    diameter estimate over a fixed family of admissible pairs.
    """
    w = propagate_fundamental(hamiltonian, np.conj(z), l, steps_per_unit)
    calw = w.conj().T
    p = calw.shape[0] // 2
    if p == 1:
        det = calw[0, 0] * calw[1, 1] - calw[0, 1] * calw[1, 0]
        denom = 2.0 * abs((calw[1, 0] * np.conj(calw[1, 1])).real)
        return float(abs(det) / denom)
    eye = np.eye(p, dtype=complex)
    ts = [0.0, 1.0, 1j, -1j, 10.0, 0.5 + 3j, 1e6]
    vals = []
    for t in ts:
        num = calw[:p, :p] * t + calw[:p, p:] if p == 1 else calw[:p, :p] @ (t * eye) + calw[:p, p:]
        den = calw[p:, :p] @ (t * eye) + calw[p:, p:]
        vals.append(1j * num @ np.linalg.inv(den))
    diam = max(np.linalg.norm(a - b, 2) for a in vals for b in vals)
    return float(diam)


# ---------------------------------------------------------------------------
# Schur-coefficient recovery


def schur_recover(rho, ode_tol=None):
    """Recover the factor blocks from the continuous Schur coefficient.

    Integrates beta2' = -beta2 rho' (rho + rho*)^-1 with beta2(0) = I and
    returns (beta1, beta2) on the grid of rho, with beta1 = beta2 rho.
    Requires Re rho > 0 at every sample.
    """
    if ode_tol is None:
        ode_tol = defaults.SCHUR_ODE_TOL
    p = rho.rows
    if rho.cols != p:
        raise StructuralError("Schur coefficient must be square")
    for x, val in zip(rho.xs, rho.values):
        if np.linalg.eigvalsh(hermitize(val)).min() <= 0:
            raise DomainError(f"Re rho not positive definite at x = {x:.6g}")
    drho = rho.derivative()

    def rhs(x, y):
        b2 = y.reshape(p, p)
        r = rho.at(x)
        rp = drho.at(x)
        return (-b2 @ rp @ np.linalg.inv(r + r.conj().T)).ravel()

    xf = rho.xs[-1]
    sol = solve_ivp(
        rhs, (0.0, xf), np.eye(p, dtype=complex).ravel(),
        t_eval=rho.xs, rtol=ode_tol, atol=ode_tol, method="RK45",
    )
    if not sol.success:  # pragma: no cover
        raise DomainError(f"Schur recovery integration failed: {sol.message}")
    beta2_vals = sol.y.T.reshape(-1, p, p)
    beta1_vals = np.einsum("mij,mjk->mik", beta2_vals, rho.values)
    beta1 = GridFunction(h=rho.h, values=beta1_vals, x0=rho.x0)
    beta2 = GridFunction(h=rho.h, values=beta2_vals, x0=rho.x0)
    return beta1, beta2
