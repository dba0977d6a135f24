"""Seeded inputs and the closed forms the checks compare against.

Everything here is plain numpy/scipy written from the formulas of the
paper, not from weylkit: the program under test only ever sees the arrays
and files made from these generators, and the checks use the closed forms
as independent references.
"""

import json

import numpy as np
from scipy.special import erf


def anti_diag_j(p):
    """The 2p x 2p involution [[0, I], [I, 0]]."""
    j = np.zeros((2 * p, 2 * p), dtype=complex)
    j[:p, p:] = np.eye(p)
    j[p:, :p] = np.eye(p)
    return j


# ---------------------------------------------------------------------------
# parameter sets of explicit systems


class Params:
    """Parameter matrices (d, alpha, lambda1, lambda2) of an explicit system."""

    def __init__(self, d, alpha, lambda1, lambda2):
        self.d = np.asarray(d, dtype=float)
        self.alpha = alpha
        self.lambda1 = lambda1
        self.lambda2 = lambda2

    @property
    def p(self):
        return self.d.size

    def to_json(self):
        return _json_obj("gbdt_params", self.d, alpha=self.alpha,
                         lambda1=self.lambda1, lambda2=self.lambda2)


def make_params(rng, n, p, d=None, sign="negative", singular_alpha=False,
                scale=0.55):
    """Random parameters that satisfy alpha - alpha* = i Lam J Lam* exactly.

    alpha = S0 + (i/2) Lam J Lam* with Hermitian S0 makes the identity hold
    by construction.  With ``singular_alpha`` the base is Hermitian with a
    zero eigenvalue and lambda2 = 0, so det(alpha) = 0 while the identity
    still holds; that is the case the gauge factor integrates by ODE.

    The seed picks directions only: S0 and the lambdas are scaled to fixed
    norms and |D| defaults to evenly spaced values in [1, 1.5], so the cost
    of matrix exponentials (whose squaring count follows the norm) does not
    change from seed to seed.  ``scale`` shrinks with n p so the state stays
    desk-sized on the intervals used here.
    """
    scale = scale / float(n * p) ** 0.25

    def block():
        m = rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p))
        return m * (scale * np.sqrt(2.0 * n * p) / np.linalg.norm(m))

    lam1, lam2 = block(), block()
    if singular_alpha:
        lam2 = np.zeros_like(lam2)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        diag = np.concatenate([[0.0], np.linspace(0.5, 2.0, n - 1)])
        s0 = q @ np.diag(diag) @ q.conj().T
        alpha = 0.5 * (s0 + s0.conj().T)
    else:
        lam = np.hstack([lam1, lam2])
        s0 = rng.normal(size=(n, n))
        s0 = (s0 + s0.T) * (0.5 * np.sqrt(n) / np.linalg.norm(s0 + s0.T, 2))
        alpha = s0 + 0.5j * lam @ anti_diag_j(p) @ lam.conj().T
    if d is None:
        mags = np.linspace(1.0, 1.5, p)
        signs = {"negative": -1.0, "positive": 1.0}.get(sign)
        if signs is None:  # mixed: first entry negative, the rest positive
            signs = np.where(np.arange(p) == 0, -1.0, 1.0)
        d = signs * mags
    return Params(d=d, alpha=alpha, lambda1=lam1, lambda2=lam2)


# ---------------------------------------------------------------------------
# rational Weyl functions in closed form (eigen-decomposition of gamma)


class RationalWeyl:
    """phi(z) = phi_inf + c (gamma - z)^-1 b evaluated through gamma = V L V^-1.

    The program solves one linear system per point; here gamma is
    diagonalized once, which gives an independent evaluation of phi, of the
    accelerant k(x) = c exp(-i gamma x) b and of the canonical amplitude
    s(x) = I/2 + |D|^-1 int_0^x k.
    """

    def __init__(self, gamma, c, b, phi_inf, d):
        lam, v = np.linalg.eig(gamma)
        self.lam = lam
        self.left = c @ v                          # p x n
        self.right = np.linalg.solve(v, b)         # n x p
        self.phi_inf = phi_inf
        self.d = d

    def phi(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        inv = 1.0 / (self.lam[None, :] - z[:, None])          # (nz, n)
        core = np.einsum("in,kn,nj->kij", self.left, inv, self.right)
        return self.phi_inf[None] + core

    def accelerant(self, x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-1j * self.lam[None, :] * x[:, None])
        return np.einsum("in,kn,nj->kij", self.left, e, self.right)

    def amplitude(self, x):
        x = np.asarray(x, dtype=float)
        lam = self.lam[None, :]
        small = np.abs(lam) < 1e-12
        safe = np.where(small, 1.0, lam)
        integ = np.where(small, x[:, None] + 0j,
                         (1.0 - np.exp(-1j * safe * x[:, None])) / (1j * safe))
        core = np.einsum("in,kn,nj->kij", self.left, integ, self.right)
        p = self.d.size
        return 0.5 * np.eye(p)[None] + np.einsum(
            "ab,kbc->kac", np.diag(1.0 / np.abs(self.d)), core)


def realization(prm):
    """(gamma, psi1_0, psi2) of the Weyl function phi with phi(inf) = -(i/2) D."""
    psi1_0 = prm.lambda1 + 0.5 * prm.lambda2 * prm.d
    psi2 = prm.lambda1 - 0.5 * prm.lambda2 * prm.d
    gamma = prm.alpha - 1j * psi2 @ prm.lambda2.conj().T
    return gamma, psi1_0, psi2


def weyl_phi(prm):
    gamma, psi1_0, psi2 = realization(prm)
    return RationalWeyl(gamma, psi1_0.conj().T, psi2, -0.5j * np.diag(prm.d), prm.d)


def weyl_phi_hat(prm):
    absd = np.abs(prm.d)
    psi1_0 = prm.lambda1 - 0.5 * prm.lambda2 * absd
    psi2 = prm.lambda1 + 0.5 * prm.lambda2 * absd
    gamma = prm.alpha - 1j * psi2 @ prm.lambda2.conj().T
    return RationalWeyl(gamma, psi1_0.conj().T, psi2, 0.5j * np.diag(absd), prm.d)


def realization_json(prm):
    """Realization file of a D < 0 parameter set in weylkit's JSON layout."""
    gamma, psi1_0, psi2 = realization(prm)
    return _json_obj("realization", prm.d, gamma=gamma, psi1_0=psi1_0, psi2=psi2)


def initial_hamiltonian(d):
    col = np.vstack([np.diag(d) / 2.0, np.eye(d.size)]).astype(complex)
    return col @ col.conj().T


# ---------------------------------------------------------------------------
# constant-potential Dirac system


V0 = 0.5
_K = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def const_v_phi(z, v0=V0):
    """Weyl function -i (z - lam - v) / (z - lam + v), lam^2 = z^2 - v^2, Im lam > 0."""
    z = np.asarray(z, dtype=complex)
    lam = np.sqrt(z * z - v0 * v0 + 0j)
    lam = np.where(lam.imag < 0, -lam, lam)
    return (-1j * (z - lam - v0) / (z - lam + v0))[..., None, None]


def const_v_hamiltonian(x, v0=V0):
    """H = 2 theta1* theta1 from the zero-energy solution; batched over x."""
    x = np.asarray(x, dtype=float)
    c, s = np.cosh(v0 * x), np.sinh(v0 * x)
    u = np.empty(x.shape + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1] = c, 1j * s
    u[..., 1, 0], u[..., 1, 1] = -1j * s, c
    theta1 = (u @ _K.conj().T)[..., :1, :]
    return 2.0 * np.conj(np.swapaxes(theta1, -1, -2)) @ theta1


# ---------------------------------------------------------------------------
# Gaussian-damped Hermitian 2 x 2 kernel


GAUSS_D = np.array([-1.0, -2.0])
_M1 = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.2]])
_M2 = np.array([[0.1, -0.02j], [0.02j, 0.15]])


class GaussKernel:
    """k(x) = exp(-x^2) U (M1 + i x M2) U* with a seeded unitary U.

    M1 and M2 are Hermitian, so k(-x) = k(x)*; the rotation keeps their
    norms, and with them int |k| < 1/2, so every structured operator built
    from k stays positive definite.
    """

    def __init__(self, rng):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
        self.m1 = u @ _M1 @ u.conj().T
        self.m2 = u @ _M2 @ u.conj().T
        self.d = GAUSS_D

    def kernel(self, x):
        x = np.asarray(x, dtype=float)[:, None, None]
        return np.exp(-x * x) * (self.m1[None] + 1j * x * self.m2[None])

    def amplitude(self, x):
        """s = I/2 + |D|^-1 int_0^x k, with the integral in closed form."""
        x = np.asarray(x, dtype=float)[:, None, None]
        integ = (0.5 * np.sqrt(np.pi) * erf(x) * self.m1[None]
                 + 0.5j * (1.0 - np.exp(-x * x)) * self.m2[None])
        return 0.5 * np.eye(2)[None] + np.einsum(
            "ab,kbc->kac", np.diag(1.0 / np.abs(self.d)), integ)


# ---------------------------------------------------------------------------
# files in weylkit's documented formats


def _cplx(a):
    a = np.asarray(a, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _json_obj(kind, d, **mats):
    n = next(iter(mats.values())).shape[0]
    obj = {"kind": kind, "n": n, "p": int(np.size(d)), "d": [float(v) for v in d]}
    obj.update({k: _cplx(v) for k, v in mats.items()})
    return obj


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params_json(path):
    with open(path) as fh:
        obj = json.load(fh)
    mat = {k: np.asarray(obj[k], dtype=float) for k in ("alpha", "lambda1", "lambda2")}
    mat = {k: v[..., 0] + 1j * v[..., 1] for k, v in mat.items()}
    return Params(d=obj["d"], **mat)


def write_kernel_csv(path, h, samples):
    """Midpoint-grid kernel samples: x, Re_i_j, Im_i_j columns, 17 digits."""
    m, p, _ = samples.shape
    head = ["x"] + [f"{c}_{i}_{j}" for i in range(p) for j in range(p) for c in ("Re", "Im")]
    xs = h * (np.arange(m) + 0.5)
    cols = [xs]
    for i in range(p):
        for j in range(p):
            cols += [samples[:, i, j].real, samples[:, i, j].imag]
    np.savetxt(path, np.column_stack(cols), delimiter=",", fmt="%.17g",
               header=",".join(head), comments="")


def read_csv(path, n_abscissa=1):
    """(abscissae, complex matrices) from a weylkit CSV output."""
    with open(path) as fh:
        last = fh.readline().strip().split(",")[-1]
    rows, cols = (int(v) + 1 for v in last.split("_")[1:])
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    vals = data[:, n_abscissa::2] + 1j * data[:, n_abscissa + 1::2]
    return data[:, :n_abscissa], vals.reshape(-1, rows, cols)
