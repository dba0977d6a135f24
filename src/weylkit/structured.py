"""Discretized structured operators with (weighted) difference kernels.

The continuous objects are operators S = I + integral operator whose kernel
is k(x - t) (plain case) or, entrywise, k_ij(d_j t - d_i x) for a negative
diagonal weight D; the plain case is D = -I.  On a uniform midpoint grid
every operator is the exact solution X of the discrete operator identity
F X + X F* = h Pi J_s Pi*, the S-node of Sakhnovich's method of operator
identities: F = h |D| (L + I/2) with L the strictly lower all-ones block
matrix, J_s = -J and Pi the samples of [D s(|D| x)  I].  The operator keeps
Pi and D only, and X never evaluates k off its grid.  For |D| = I, X equals
the Nystroem matrix I + h [k(x_i - x_j)] to rounding; for other weights the
two differ by O(h^2).  Positivity is probed by the factorization itself.

The Cholesky factor C (S = C C*) is the discrete analog of the
lower-triangular factorization S^-1 = (I + E)* (I + E): its inverse
W = C^-1 = I + E.  X has the rank-2p generator sqrt(h) Pi, and one pass of
Gaussian elimination on that generator (Gohberg, Kailath and Olshevsky,
Math. Comp. 64, 1995), b grid blocks per round as in the blocked Schur
algorithm, serves every caller: C for :func:`factorize_triangular`, W Pi
for the canonical factor beta, and W U for columns U carried along the
generator (the kernel samples for the endpoint potential and the theta
functions, the unit block column for the kernel-edge potential, the
solutions U of the fundamental solution), in O(p^2 M^2) work and C only
when asked for.  The read-offs thus store no (pM)^2 matrix;
:func:`recover_potential`, passed a factor, applies it instead.  The dense
X, formed only when something reads it (the checks and reference routes),
follows from the same identity one block row at a time.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack, solve_banded, solve_triangular

from . import defaults
from ._linalg import MAX_COMPLEX_ENTRIES, anti_diag_j, expm_stack, hermitize, upper_half_plane
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


@dataclass(frozen=True)
class StructuredOperator:
    """Discretization of S = I + integral operator on the midpoint grid:
    the S-node X with weight diagonal ``d`` (all < 0, -1 for the plain
    case), defined by the samples of Pi (M, p, 2p) through its generator
    (:func:`_snode_pass`).  ``s`` forms the dense (p M, p M) X by
    :func:`_snode_dense` on first access and keeps it.
    """

    h: float
    p: int
    d: np.ndarray     # weight diagonal, all < 0
    pi: np.ndarray    # (M, p, 2p) samples of Pi

    @cached_property
    def s(self):
        """The dense Hermitian S-node X, (p M, p M)."""
        return _snode_dense(self)

    @property
    def m(self):
        return self.pi.shape[0]


def _weights(kernel, d):
    """The weight diagonal of an operator on ``kernel``: -1 for ``d`` None,
    else one finite negative entry per block row (StructuralError for a
    wrong count, DomainError for any other entry)."""
    if d is None:
        return -np.ones(kernel.p)
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size != kernel.p:
        raise StructuralError("weight diagonal must have one entry per block row")
    if not np.all(np.isfinite(d) & (d < 0.0)):
        raise DomainError(f"weighted operators require finite negative D entries, got d = {d}")
    return d


def default_operator_length(kernel, d=None):
    """Longest operator length l, a whole number of grid steps, whose
    arguments max|d| * l stay on the stored kernel (l = kernel.l for d None);
    ``d`` is checked as :func:`build_structured_operator` checks it.  A
    weight so small that the step count overflows gives l = inf, which the
    operator's length check refuses."""
    scale = float(np.abs(_weights(kernel, d)).max())
    return kernel.h * float(np.floor(kernel.l / kernel.h / scale + 1e-9))


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


def _snode_recurrence(d, h):
    """Coefficients of the S-node recurrences, (p, p) arrays indexed [a, b].

    Multiplied on the left by T = I - N (N the block shift), F + (h/2)|d_b|
    becomes alpha_ab (I + c_ab N) in component a, with
    alpha_ab = (h/2)(|d_a| + |d_b|) and c_ab = (|d_a| - |d_b|)/(|d_a| + |d_b|),
    |c_ab| < 1 and c_ab = -c_ba.  Returns 1/alpha and c; a pair of equal
    weights has c_ab = 0, and its recurrence needs no solve.
    """
    u = np.abs(d)
    total = u[:, None] + u[None, :]
    return 2.0 / (h * total), (u[:, None] - u[None, :]) / total


def _snode_dense(op):
    """The dense S-node X of an operator, one block row at a time.

    With g = T (h Pi J_s Pi*) T*, entry (i, a; j, b) of T (F X + X F*) T*
    = g reads alpha_ab (x_ij - x_{i-1,j-1})
    + (h/2)(|d_a| - |d_b|)(x_{i-1,j} - x_{i,j-1}) = g_ij.  Given block
    row i - 1, row (i, a) is one bidiagonal solve along j for each column
    component b with c_ab != 0 (:func:`_snode_recurrence`); the block row
    above is all the recurrence keeps besides X itself.
    """
    p, m, h = op.p, op.m, op.h
    size = m * p
    inv_alpha, coef = _snode_recurrence(op.d, h)
    solves = []
    for a, b in zip(*np.nonzero(coef)):
        band = np.zeros((2, m), dtype=complex, order="F")
        band[1] = -coef[a, b]
        solves.append((a, b, band))
    inv_alpha, coef = np.tile(inv_alpha, m), np.tile(coef, m)     # [a, j p + b]
    diff = np.diff(op.pi, axis=0, prepend=0.0).reshape(size, 2 * p)    # T Pi
    right = -h * (diff @ anti_diag_j(p)).conj().T                        # h J_s (T Pi)*
    x = np.empty((size, size), dtype=complex)
    prev = np.zeros((p, size), dtype=complex)
    for i in range(0, size, p):
        rows = x[i:i + p]
        np.matmul(diff[i:i + p], right, out=rows)
        rows *= inv_alpha
        rows -= coef * prev
        rows[:, p:] += prev[:, :-p]
        for a, b, band in solves:
            blas.ztbsv(1, band, rows[a], offx=b, incx=p, lower=1, diag=1, overwrite_x=1)
        prev = rows
    return x


def _check_length(l):
    """An operator length must be a finite positive number."""
    if not (math.isfinite(l) and l > 0.0):
        raise DomainError(f"operator length l = {l} must be finite and positive")


def _block_count(kernel, l, scale):
    """Number of grid blocks M = l / h of an operator on [0, l] whose kernel
    arguments reach scale * l; h must divide l, the kernel must be stored
    out to scale * l and a numpy array must hold the (M, p, 2p) samples of
    Pi (DomainError before anything is allocated)."""
    _check_length(l)
    limit = MAX_COMPLEX_ENTRIES // (2 * kernel.p ** 2)
    if not l / kernel.h < limit:
        raise DomainError(
            f"l / h = {l} / {kernel.h} = {l / kernel.h:.6g}: more grid blocks than "
            f"a numpy array of Pi samples can hold ({limit:.3g})")
    m = int(round(l / kernel.h))
    if m < 1 or abs(m * kernel.h - l) > 1e-9 * max(1.0, l):
        raise StructuralError("grid step must divide the operator length")
    if scale * l > kernel.l + 1e-9:
        raise StructuralError(
            f"kernel stored on [0, {kernel.l:.6g}] but arguments reach {scale * l:.6g}"
        )
    return m


def build_structured_operator(kernel, d=None, l=None):
    """Assemble the operator S on the midpoint grid of [0, l]: the S-node X,
    the exact solution of F X + X F* = h Pi J_s Pi* (see the module
    docstring), kept as the samples of Pi.

    Plain case (``d is None``): D = -I, and X is the Nystroem matrix
    I + h [k(x_i - x_j)] to rounding.  Weighted case: all weights must be
    negative, and the kernel must be stored out to max|d| * l.  The dense
    matrix is formed only when ``s`` is read.
    """
    p, h = kernel.p, kernel.h
    d = _weights(kernel, d)
    if l is None:
        l = default_operator_length(kernel, d)
    m = _block_count(kernel, l, np.abs(d).max())
    return StructuredOperator(h=h, p=p, d=d, pi=_pi_samples(kernel, d, h * (np.arange(m) + 0.5)))


# ---------------------------------------------------------------------------
# triangular factorization


class TriangularFactor:
    """Lower Cholesky factor C of a positive operator, S = C C*.

    C is the only matrix stored.  Its inverse W = C^-1 = I + E satisfies
    W S W* = I and is the discrete lower-triangular factor of
    S^-1 = W* W; its strictly lower blocks estimate the kernel E(x_i, x_j)
    as W_ij / h (an O(h)-accurate kernel read-off).  W is applied by
    triangular solves on C and formed densely only on request (``w``).
    ``winv`` is C itself, the discrete inverse factor I + Gamma.
    """

    def __init__(self, c, h, p):
        self._winv = c
        self.h = float(h)
        self.p = int(p)

    @property
    def m(self):
        return self._winv.shape[0] // self.p

    @property
    def winv(self):
        """C = W^-1, the stored Cholesky factor."""
        return self._winv

    @property
    def w(self):
        """Dense W = C^-1, inverted anew on each request and not kept; for
        residual checks.  A singular C raises PositivityError."""
        w, info = lapack.ztrtri(self._winv, lower=1)
        if info != 0:  # pragma: no cover
            raise PositivityError("triangular factor is singular", minor=int(info))
        return w

    def _flat(self, grid_values):
        return grid_values.reshape(self.m * self.p, grid_values.shape[2])

    def apply(self, grid_values):
        """W times stacked block samples (m, p, cols): one triangular solve on C."""
        out = solve_triangular(self._winv, self._flat(grid_values), lower=True,
                               check_finite=False)
        return out.reshape(grid_values.shape)

    def apply_inverse(self, grid_values):
        """C = W^-1 times stacked block samples (m, p, cols)."""
        return (self._winv @ self._flat(grid_values)).reshape(grid_values.shape)


def _not_positive(minor):
    return PositivityError(
        f"operator not positive definite (leading minor of order {minor})",
        minor=int(minor),
    )


# OpenBLAS runs a zgemm of m n k >= 2^16 multiply-adds on its thread pool,
# and a zgemv, which numpy calls for a k of one row, from m n >= 2^12 on.
# Between a factor pass's small LAPACK calls that costs far more than it
# saves, and it slows the next threaded LAPACK call as well: a block Schur
# pass for W k forced to q = 32 (p = 1, M = 1024; 2 cores, 2 BLAS threads)
# took 370 ms with one zgemm per product against 67 ms in smaller panels,
# and a zpotrf of order 512 right after it took about 17 ms with threaded
# zgemv panels against about 10 ms.
_THREAD_WORK = 1 << 16
_THREAD_WORK_GEMV = 1 << 12


def _panels(k, n):
    """Slices of the n columns of a product k @ b, or of the n rows of
    b @ k, each small enough that OpenBLAS runs it on one thread."""
    work = _THREAD_WORK if k.shape[0] > 1 else _THREAD_WORK_GEMV
    width = max(1, (work - 1) // k.size)
    return [slice(j, j + width) for j in range(0, n, width)]


# The S-node pass takes b grid blocks, q = b p rows, per round: about M / b
# fixed round costs (some thirty numpy and LAPACK calls) against C's column
# blocks, q^2 p (M - k) multiply-adds in a round at block k; no other work
# of the pass grows with b.  Timed with and without C (2 cores, 2 BLAS
# threads) for b = 1 ... 32 at p = 2 and 2 ... 10 at p = 3, pM = 64 ...
# 2049, the best b fell as M grew and hardly depended on p:
# round(sqrt(2^16 / M)) was within the run-to-run spread of the best at
# every size.  At p = 1, where C's products cost an eighth of p = 2's at
# the same b, round(sqrt(2^19 / M)) was within 2 % of the best of b = 11,
# 16, 23, 32 with C at M = 512 ... 2048, and within 16 % of b = 32, the
# fastest, without C (the README has the tables).  q stays at most 32,
# beyond which the products split into narrow panels and gain nothing.
_SNODE_WORK = 1 << 16
_MAX_SNODE_ORDER = 32


def _snode_block(p, m):
    """Grid blocks b per round of the S-node pass on M = ``m`` blocks of
    order p: round(sqrt(2^16 / M)), round(sqrt(2^19 / M)) at p = 1, at most
    M and at most q = b p = 32."""
    work = _SNODE_WORK << 3 if p == 1 else _SNODE_WORK
    b = round(math.sqrt(work / m))
    return max(1, min(b, _MAX_SNODE_ORDER // p, m))


def _snode_pass(op, chol=False, rhs=None):
    """Factor the S-node X from its generator: returns
    (C, beta), C the dense Cholesky factor of X (None unless ``chol``) and
    beta = W Pi (M, p, 2p), W = C^-1.  With stacked block samples ``rhs``
    U (M, p, r), beta is W [Pi U] (M, p, 2p + r) instead.

    X solves F X + X F* = G J_s G* with G = sqrt(h) Pi and F lower
    triangular, so its Schur complements solve the same identity on the
    trailing blocks with the generator G - U P^-1 G0 (Gohberg, Kailath and
    Olshevsky 1995).  Each round eliminates b grid blocks
    (:func:`_snode_block`), q = b p rows, as the blocked Schur algorithm
    does (Gallivan, Thirumalai, Van Dooren and Vermaut 1996): with G0 the
    first q rows of the current G and R = G J_s G0*, the first q columns U
    of the Schur complement solve F U + U F00* = R, F00 the leading q x q
    of F.  F00 couples column k of U (block k of the round, component b)
    to the columns before it, so the round solves for the partial sums
    s_k = u_0 + ... + u_k instead: multiplied by T = I - N, component a
    of column k reads (I + c_ab N) s_k = (c_ab I + N) s_{k-1}
    + (T R)_k / alpha_ab (:func:`_snode_recurrence`), and U = S Delta, Delta
    the q x q differencing of the columns.  G and S are kept
    component-major: T acts along contiguous rows, T R is (T G) J_s G0*
    with 1/alpha folded into J_s G0* for each row component, and each
    block column k takes one unit bidiagonal solve (``ztbsv``) over the
    rows from the first to the last with c_ab != 0.  Rows whose weight
    equals their column's (c_ab = 0) need none: at p = 2 half the rows, and
    with equal weights (the plain case among them) no row, so the pass
    makes no solve at all.

    The pivot P = S0 Delta = c c* fails at its column info exactly where
    the leading minor n q + info of X does, the minor LAPACK names.  C's
    column block is U c^-* = S (Delta c^-*), and the update
    G <- G - S (Delta P^-1 G0) applies the unit lower factor of
    X = L diag(P) L* to G by forward substitution, so G0 is row block n of
    L^-1 G and beta's rows are c^-1 G0 / sqrt h with no further solve.
    Columns U carried along [G | U] through the same update come out as
    (W U)_n; R reads the generator columns only.  O(p^2 M^2) work in all,
    plus O(p r M^2) for r carried columns and O(q p^2 M^2) for C, with no
    (pM)^2 array unless C is asked for; the products run in
    single-threaded panels (:func:`_panels`).
    """
    p, m, h = op.p, op.m, op.h
    size = m * p
    b = _snode_block(p, m)
    q = b * p
    inv_alpha, coef = _snode_recurrence(op.d, h)
    # a block column of S is p^2 segments of the remaining blocks, segment
    # b p + a holding column component b in component a; each block
    # column's solve spans the segments from the first to the last c != 0
    cseg = coef.T.reshape(-1).astype(complex)
    nonzero = np.flatnonzero(cseg)
    first, last = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    width = 2 * p + (0 if rhs is None else rhs.shape[2])
    gen = np.empty((p, m, width), dtype=complex)   # G, component-major, reduced in place
    gen[:, :, :2 * p] = np.sqrt(h) * op.pi.transpose(1, 0, 2)
    if rhs is not None:
        gen[:, :, 2 * p:] = rhs.transpose(1, 0, 2)
    beta = np.empty((size, width), dtype=complex)
    c_out = np.zeros((size, size), dtype=complex, order="F") if chol else None
    s_buf = np.empty(q * size, dtype=complex)      # S stored transposed: (q, p, nb)
    dg_buf = np.empty((p, m, 2 * p), dtype=complex)
    band_buf = np.zeros((2, (last - first) * m), dtype=complex, order="F")
    tmp_buf = np.empty((last - first) * m, dtype=complex)
    c_buf = np.empty((p, q, m), dtype=complex) if chol else None
    # 1/alpha_ab for row component a and column (k, b) of a round
    scale = np.tile(inv_alpha[:, None, :], (1, b, 1)).reshape(p, 1, q)
    J = anti_diag_j(p)
    for k0 in range(0, m, b):
        bb, nb = min(b, m - k0), m - k0
        lo, hi = k0 * p, (k0 + bb) * p
        qq = hi - lo
        live = gen[:, k0:]
        g0 = live[:, :bb].transpose(1, 0, 2).reshape(qq, width)
        s = s_buf[:qq * p * nb].reshape(qq, p, nb)
        rows_s = s.transpose(1, 2, 0)                       # (p, nb, qq): S by row component
        js_g0 = -(g0[:, :2 * p] @ J).conj().T               # J_s G0*
        js = js_g0[None] * scale[:, :, :qq]                 # per row component a
        dg = dg_buf[:, :nb]                                  # T G
        dg[:, 0] = live[:, 0, :2 * p]
        np.subtract(live[:, 1:, :2 * p], live[:, :-1, :2 * p], out=dg[:, 1:])
        for rows in _panels(js[0], nb):
            np.matmul(dg[:, rows], js, out=rows_s[:, rows])
        # OpenBLAS's zgemm kernels return without clearing the upper halves
        # of the AVX registers, and the SSE code of ztbsv then runs about 30
        # times slower (300 against 10 ns per unknown, 2 cores); any numpy
        # complex ufunc clears them
        np.multiply(js, 1.0, out=js)
        span = np.repeat(cseg[first:last], nb)
        band = band_buf[:, :span.size]
        band[1, :-1] = span[1:]
        band[1, nb - 1::nb] = 0.0                       # segments do not couple
        flat, step = s.reshape(-1), p * p * nb
        lo_e, hi_e = first * nb, last * nb
        tmp = tmp_buf[:span.size]
        for k in range(bb):
            at = k * step
            if k:
                # N s_{k-1} as one shift of the block column, which must not
                # carry a segment's last entry into the next one's first
                head = s[k * p:(k + 1) * p, :, 0].copy()
                flat[at + 1:at + step] += flat[at - step:at - 1]
                s[k * p:(k + 1) * p, :, 0] = head
                if span.size:
                    np.multiply(span, flat[at - step + lo_e:at - step + hi_e], out=tmp)
                    flat[at + lo_e:at + hi_e] += tmp                      # c s_{k-1}
            if span.size:
                blas.ztbsv(1, band, flat, offx=at + lo_e, lower=1, diag=1, overwrite_x=1)
        top = s[:, :, :bb].transpose(2, 1, 0).reshape(qq, qq)   # S0, rows (i, a)
        piv = top.copy()
        piv[:, p:] -= top[:, :-p]                               # P = S0 Delta
        c, info = lapack.zpotrf(piv, lower=1, clean=1)
        if info > 0:
            raise _not_positive(lo + info)
        # c^-1 G0 as c* (P^-1 G0): OpenBLAS's ztrtrs uses its thread pool
        # even for a q x q solve
        y, _ = lapack.zpotrs(c, g0, lower=1)
        below = s[:, :, bb:].transpose(1, 0, 2)                 # (p, qq, nb - bb)
        if chol:
            # (S E)^T = E^T S^T with E = Delta c^-*, written through C's
            # transpose, whose rows interleave the row components
            e_t = lapack.ztrtri(c, lower=1)[0].conj()
            e_t[:, :-p] -= e_t[:, p:]
            c_out[lo:hi, lo:hi] = c
            out = c_buf[:, :qq, :nb - bb]
            for cols in _panels(e_t, nb - bb):
                np.matmul(e_t, below[:, :, cols], out=out[:, :, cols])
            column = c_out.T[lo:hi, hi:].reshape(qq, nb - bb, p)
            for a in range(p):
                column[:, :, a] = out[a]
        beta[lo:hi] = c.conj().T @ y
        y[:-p] -= y[p:]                                         # Delta P^-1 G0
        rest = live[:, bb:]
        for rows in _panels(y, nb - bb):
            rest[:, rows] -= below[:, :, rows].transpose(0, 2, 1) @ y
    beta[:, :2 * p] /= np.sqrt(h)
    return c_out, beta.reshape(m, p, -1)


def factorize_triangular(op):
    """Triangular factorization S = C C*, W S W* = I with W = C^-1, of a
    positive operator by the generator pass (:func:`_snode_pass`); the
    factor keeps C only.

    Raises PositivityError naming the offending leading minor size when S
    is not positive definite; this doubles as the positivity test.
    """
    c, _ = _snode_pass(op, chol=True)
    return TriangularFactor(c, h=op.h, p=op.p)


def _check_factor(factor, kernel, l):
    """A passed factor must be one of the kernel's operators: same p and h,
    at most the kernel's M blocks, and M h = l when l is given (a finite
    positive l, else DomainError)."""
    if l is not None:
        _check_length(l)
    if factor.p != kernel.p or abs(factor.h - kernel.h) > 1e-12 * kernel.h:
        raise StructuralError(
            f"factor grid (p = {factor.p}, h = {factor.h:.6g}) does not match "
            f"the kernel grid (p = {kernel.p}, h = {kernel.h:.6g})"
        )
    if l is not None and abs(factor.m * factor.h - l) > 1e-9 * max(1.0, l):
        raise StructuralError(
            f"factor length {factor.m * factor.h:.6g} differs from l = {l:.6g}")
    if factor.m > kernel.m:
        raise StructuralError(
            f"factor has {factor.m} grid blocks but the kernel only {kernel.m}")


# ---------------------------------------------------------------------------
# potential recovery (plain difference kernels)


def recover_potential(kernel, l=None, mode="endpoint", factor=None):
    """Recover the potential v on (0, l/2) from an accelerant.

    ``endpoint`` evaluates v(x/2) = 2i (k(x) + int_0^x E(x, t) k(t) dt) on
    the grid; ``kernel-edge`` uses v(x) = -2i E(2x, 0), valid for
    continuous potentials.  Both are O(h)-accurate.  Without ``factor`` one
    pass (:func:`_snode_pass`) carries the kernel samples (endpoint) or the
    unit block column (kernel-edge) along the generator and yields W k or
    W's first block column; a given factor, checked against the kernel's
    grid and ``l`` (:func:`_check_factor`), is applied instead.
    """
    if mode not in ("endpoint", "kernel-edge"):
        raise StructuralError(f"unknown recovery mode {mode!r}")
    if factor is None:
        op = build_structured_operator(kernel, l=l)
        m = op.m
    else:
        _check_factor(factor, kernel, l)
        m = factor.m
    p, h = kernel.p, kernel.h
    if mode == "endpoint":
        u = kernel.samples[:m]
    else:
        u = np.zeros((m, p, p), dtype=complex)
        u[0] = np.eye(p)
    wu = _snode_pass(op, rhs=u)[1][:, :, 2 * p:] if factor is None else factor.apply(u)
    if mode == "endpoint":
        vals = 2j * wu
    else:
        vals = (-2j / h) * wu                   # first block column of W
        vals[0] = vals[1] if m > 1 else 0.0
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


def theta_functions(kernel, l=None):
    """The two p x 2p rows of the zero-energy fundamental solution.

    theta1(x/2) = (1/sqrt 2) ((I+E) [2s  I])(x) with s = I/2 + int k;
    theta2 follows from the structured-operator formula with S_{2x}^-1
    applied columnwise, evaluated via the causal triangular factor.  One
    pass (:func:`_snode_pass`) carries k along the generator: at D = -I,
    Pi = [-s  I], so W [2s  I] = [-2 W Pi_1  W Pi_2] comes with W k.
    """
    op = build_structured_operator(kernel, l=l)
    m, p, h = op.m, kernel.p, kernel.h
    applied = _snode_pass(op, rhs=kernel.samples[:m])[1]
    big = applied[:, :, :2 * p]                 # (m, p, 2p) samples of (I+E)[2s I]
    big[:, :, :p] *= -2.0
    ek = applied[:, :, 2 * p:]                  # (m, p, p) samples of (I+E)k
    theta1 = big / np.sqrt(2.0)
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


def canonical_from_kernel(kernel, d, l=None, return_factor=False):
    """Hamiltonian H = beta* beta of the canonical system generated by k.

    beta = W Pi is the triangular factor applied to Pi columnwise; requires
    the weighted operator to be positive definite.  One pass
    (:func:`_snode_pass`) yields W Pi, and C too with ``return_factor``.
    Its W Pi does not depend on whether C is asked for, and its C is the
    one :func:`factorize_triangular` forms.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    op = build_structured_operator(kernel, d=d, l=l)
    c, beta_vals = _snode_pass(op, chol=return_factor)
    h_vals = np.einsum("mji,mjk->mik", beta_vals.conj(), beta_vals)
    h_vals = hermitize(h_vals)
    half = op.h
    beta = GridFunction(h=half, values=beta_vals, x0=half / 2.0)
    ham = GridFunction(h=half, values=h_vals, x0=half / 2.0)
    if return_factor:
        return beta, ham, op, TriangularFactor(c, h=op.h, p=op.p)
    return beta, ham


def hamiltonian_difference_quotient(kernel, d, indices, l=None):
    """dB/dl at l = m h by central differences of B(r) = h Pi* S_r^-1 Pi.

    Dense solves on leading subblocks of the operator's dense S-node X,
    independent of the generator pass; returns a list of (x, H_estimate)
    pairs.
    """
    op = build_structured_operator(kernel, d=d, l=l)
    m, p, h = op.m, op.p, op.h
    pi = op.pi.reshape(m * p, 2 * p)

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


def fundamental_from_kernel(kernel, d, l, z):
    """Fundamental solution w(l, z) = I + i z J Pi* S^-1 (I - z A)^-1 Pi.

    ``z`` is a scalar (a 2p x 2p result) or an array (a z.shape + (2p, 2p)
    stack).  A = i D int_0^x on the midpoint grid is block lower triangular
    with half weight on the diagonal; differencing its rows turns
    (I - z A) u = Pi into one bidiagonal system per z and component a, with
    diagonal 1 - c/2 and subdiagonal -(1 + c/2), c = i z d_a h.  With U
    those solutions, Pi* S^-1 U = (W Pi)* (W U): one pass
    (:func:`_snode_pass`) carrying U along the generator gives both, and no
    factor is formed.  The z of one call share the pass's products, so a
    batch split into parts is not reproduced bit for bit: the parts stay
    within 4e-15 of the batch, relative to its largest |w| entry (the worst
    of 2,000 random splits was 7.7e-16).
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    op = build_structured_operator(kernel, d=d, l=l)
    m, p, h = op.m, op.p, op.h
    zs = np.asarray(z, dtype=complex)
    zf = zs.reshape(-1)
    dpi = np.diff(op.pi, axis=0, prepend=0.0)           # (m, p, 2p)
    rhs = np.empty((m, p, zf.size, 2 * p), dtype=complex)
    band = np.empty((2, m), dtype=complex)
    for k, zk in enumerate(zf):
        for a in range(p):
            c = 1j * zk * d[a] * h
            band[0], band[1] = 1.0 - 0.5 * c, -(1.0 + 0.5 * c)
            rhs[:, a, k] = solve_banded((1, 0), band, dpi[:, a])
    rhs = rhs.reshape(m, p, zf.size * 2 * p)
    left, right = np.split(_snode_pass(op, rhs=rhs)[1], [2 * p], axis=2)
    proj = h * left.reshape(m * p, 2 * p).conj().T @ right.reshape(m * p, -1)  # (2p, K 2p)
    proj = proj.reshape(2 * p, zf.size, 2 * p).transpose(1, 0, 2)
    J = anti_diag_j(p)
    w = np.eye(2 * p, dtype=complex) + 1j * zf[:, None, None] * (J @ proj)
    return w.reshape(zs.shape + (2 * p, 2 * p))


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
    """Samples of a Hamiltonian callable at all ``nodes`` in one call.

    The callable takes the 1-D array of positions and returns the
    (len nodes, 2p, 2p) stack of values, or one (2p, 2p) matrix for a
    constant Hamiltonian, which is broadcast.  Another shape or a
    non-finite value raises StructuralError.
    """
    vals = np.asarray(h_at(nodes), dtype=complex)
    if vals.ndim == 2:
        vals = np.broadcast_to(vals, (nodes.size,) + vals.shape)
    size = vals.shape[-1] if vals.ndim else 0
    if vals.shape != (nodes.size, size, size) or size % 2 or size == 0:
        raise StructuralError(
            f"Hamiltonian callable returned shape {vals.shape} for {nodes.size} "
            f"positions; expected ({nodes.size}, 2p, 2p) or (2p, 2p)"
        )
    bad = ~np.isfinite(vals).all(axis=(1, 2))
    if bad.any():
        raise StructuralError(
            f"Hamiltonian value at x = {nodes[bad][0]:.6g} is not finite"
        )
    return vals


# step matrix entries exponentiated at once by the disk oracle; bounds its memory
_DISK_CHUNK = 1 << 18
_GAUSS = (0.5 - np.sqrt(3) / 6.0, 0.5 + np.sqrt(3) / 6.0)


def _ordered_product(steps):
    """steps[n-1] @ ... @ steps[0] along axis -3, by log-depth pairwise products."""
    while steps.shape[-3] > 1:
        k = steps.shape[-3] // 2
        pairs = steps[..., 1:2 * k:2, :, :] @ steps[..., 0:2 * k:2, :, :]
        steps = np.concatenate([pairs, steps[..., 2 * k:, :, :]], axis=-3)
    return steps[..., 0, :, :]


def _propagate(h_at, zs, l, nsteps, order4):
    """Transfer matrices of w' = i z J H(x) w over [0, l], w(0) = I, for the
    1-D array ``zs``: a (len zs, 2p, 2p) stack.

    H is sampled once.  The step exponent is z B + z^2 C with B and C built
    from H alone: the fourth-order two-point Magnus exponent, or the midpoint
    exponent (C = 0).  The steps are exponentiated over (z, step) in chunks
    of at most ``_DISK_CHUNK`` entries and multiplied pairwise.
    """
    h = l / nsteps
    if order4:
        base = h * np.arange(nsteps)
        vals = _sample_hamiltonian(h_at, np.concatenate([base + _GAUSS[0] * h,
                                                         base + _GAUSS[1] * h]))
        J = anti_diag_j(vals.shape[-1] // 2)
        a1, a2 = 1j * J @ vals[:nsteps], 1j * J @ vals[nsteps:]
        b = 0.5 * h * (a1 + a2)
        c = (np.sqrt(3) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
    else:
        vals = _sample_hamiltonian(h_at, h * (np.arange(nsteps) + 0.5))
        J = anti_diag_j(vals.shape[-1] // 2)
        b, c = 1j * h * J @ vals, None
    size = b.shape[-1]
    per = max(1, _DISK_CHUNK // (size * size))
    span, zper = min(nsteps, per), max(1, per // nsteps)
    w = np.tile(np.eye(size, dtype=complex), (zs.size, 1, 1))
    for i in range(0, zs.size, zper):
        z = zs[i:i + zper, None, None, None]
        for j in range(0, nsteps, span):
            omega = z * b[j:j + span]
            if c is not None:
                omega += z * z * c[j:j + span]
            w[i:i + zper] = _ordered_product(expm_stack(omega)) @ w[i:i + zper]
    return w


def propagate_fundamental(hamiltonian, z, l, steps_per_unit=None):
    """Integrate the canonical system for a callable or gridded Hamiltonian.

    ``z`` is a scalar (a 2p x 2p result) or a 1-D array (a (k, 2p, 2p)
    stack); H is sampled once for all of them.  Callables get a
    fourth-order two-point Magnus stepper; grid samples get midpoint
    exponential stepping (O(h^2), matching the grid resolution).  A callable
    is evaluated once, on the array of all stepper nodes, and returns their
    (k, 2p, 2p) stack or one (2p, 2p) matrix for a constant Hamiltonian; any
    other shape raises StructuralError.
    """
    if steps_per_unit is None:
        steps_per_unit = defaults.DISK_STEPS_PER_UNIT
    nsteps = max(8, int(np.ceil(l * steps_per_unit)))
    zs = np.asarray(z, dtype=complex).reshape(-1)
    if isinstance(hamiltonian, GridFunction):
        w = _propagate(hamiltonian.at, zs, l, nsteps, order4=False)
    else:
        w = _propagate(hamiltonian, zs, l, nsteps, order4=True)
    return w.reshape(np.shape(z) + w.shape[1:])


def _disk_frames(hamiltonian, z, l, steps_per_unit):
    """W(l, z) = w(l, conj z)* for a scalar or 1-D array ``z`` in the upper
    half-plane, as a (k, 2p, 2p) stack."""
    zs = upper_half_plane(z, "the Weyl disk")
    w = propagate_fundamental(hamiltonian, np.conj(zs), l, steps_per_unit)
    return np.conj(np.swapaxes(w, -1, -2))


def weyl_disk_approx(hamiltonian, z, l, pair=None, steps_per_unit=None):
    """Moebius-transform value phi(z, l) approximating the Weyl function.

    ``hamiltonian`` is a GridFunction or a callable that takes a 1-D array
    of positions and returns the (k, 2p, 2p) stack of PSD values (one
    (2p, 2p) matrix for a constant Hamiltonian).  ``z`` is a scalar (a p x p
    value) or a 1-D array (a (k, p, p) stack) sharing the length ``l``.  The
    transform uses W(l, z) = w(l, conj z)* and the pair (P1, P2), defaulting
    to (I, iI).  As l grows with z fixed in the upper half-plane the value
    converges to the Weyl function.
    """
    calw = _disk_frames(hamiltonian, z, l, steps_per_unit)
    p = calw.shape[-1] // 2
    p1, p2 = _default_pair(p) if pair is None else pair
    _check_pair(p1, p2)
    num = calw[:, :p, :p] @ p1 + calw[:, :p, p:] @ p2
    den = calw[:, p:, :p] @ p1 + calw[:, p:, p:] @ p2
    bad = ~(np.linalg.cond(den) <= 1e14)
    if bad.any():
        raise SingularityError(
            f"pair denominator is singular at z = {np.reshape(z, -1)[bad][0]}"
        )
    return (1j * num @ np.linalg.inv(den)).reshape(np.shape(z) + (p, p))


def disk_radius_estimate(hamiltonian, z, l, steps_per_unit=None):
    """Radius of the Weyl disk at (l, z); ``z`` a scalar (a float) or a 1-D
    array (an array of radii).

    For p = 1 this is the exact radius of the Moebius image of the
    admissible half-plane: |det W| / (2 |Re(W_21 conj(W_22))|) with
    W = w(l, conj z)*.  For block sizes p > 1 the value is a sampled
    diameter estimate over a fixed family of admissible pairs.
    """
    calw = _disk_frames(hamiltonian, z, l, steps_per_unit)
    p = calw.shape[-1] // 2
    if p == 1:
        det = calw[:, 0, 0] * calw[:, 1, 1] - calw[:, 0, 1] * calw[:, 1, 0]
        radius = np.abs(det) / (2.0 * np.abs((calw[:, 1, 0] * np.conj(calw[:, 1, 1])).real))
    else:
        ts = np.array([0.0, 1.0, 1j, -1j, 10.0, 0.5 + 3j, 1e6])[:, None, None, None]
        num = ts * calw[:, :p, :p] + calw[:, :p, p:]
        den = ts * calw[:, p:, :p] + calw[:, p:, p:]
        vals = 1j * num @ np.linalg.inv(den)
        diffs = vals[:, None] - vals[None, :]
        radius = np.linalg.norm(diffs, 2, axis=(-2, -1)).max(axis=(0, 1))
    return float(radius[0]) if np.ndim(z) == 0 else radius.reshape(np.shape(z))


# ---------------------------------------------------------------------------
# Schur-coefficient recovery


def schur_recover(rho):
    """Recover the factor blocks from the continuous Schur coefficient.

    Integrates beta2' = beta2 M, M = -rho' (rho + rho*)^-1, beta2(0) = I,
    by midpoint exponential steps from 0 over the nodes of rho: each step
    multiplies by exp(dx M) with M at the step's midpoint (O(h^2)).
    Returns (beta1, beta2) on the grid of rho, with beta1 = beta2 rho.
    Requires Re rho > 0 at every sample.
    """
    p = rho.rows
    if rho.cols != p:
        raise StructuralError("Schur coefficient must be square")
    for x, val in zip(rho.xs, rho.values):
        if np.linalg.eigvalsh(hermitize(val)).min() <= 0:
            raise DomainError(f"Re rho not positive definite at x = {x:.6g}")
    nodes = rho.xs
    starts = np.concatenate([[0.0], nodes[:-1]])
    mids = 0.5 * (starts + nodes)
    r = rho.at(mids)
    gen = -rho.derivative().at(mids) @ np.linalg.inv(r + np.conj(np.swapaxes(r, -1, -2)))
    steps = expm_stack((nodes - starts)[:, None, None] * gen)
    beta2_vals = np.empty_like(steps)
    run = np.eye(p, dtype=complex)
    for k, step in enumerate(steps):
        run = run @ step
        beta2_vals[k] = run
    beta1_vals = np.einsum("mij,mjk->mik", beta2_vals, rho.values)
    beta1 = GridFunction(h=rho.h, values=beta1_vals, x0=rho.x0)
    beta2 = GridFunction(h=rho.h, values=beta2_vals, x0=rho.x0)
    return beta1, beta2
