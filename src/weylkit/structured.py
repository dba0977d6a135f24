"""Discretized structured operators with (weighted) difference kernels.

The continuous objects are operators S = I + integral operator whose kernel
is k(x - t) (plain case) or, entrywise, k_ij(d_j t - d_i x) for a negative
diagonal weight D.  A midpoint Nystroem rule on a uniform grid turns S into
a Hermitian matrix; positivity is probed by Cholesky.  The Cholesky factor
C (S = C C*) is kept; its inverse W = C^-1 = I + E is the discrete analog of
the lower-triangular factorization S^-1 = (I + E)* (I + E) and is applied by
triangular solves on C.

Without a weight, or with equal weights, S is block Toeplitz: the operator
keeps its first block column and forms the dense S only when something
reads it.  One block Schur-Levinson pass over that column, told up front
which outputs to produce, serves every Toeplitz caller: C for
:func:`factorize_triangular`, W U for the read-offs (the kernel samples for
the endpoint potential, [2s I k] for the theta functions, Pi for the
canonical factor beta) and W's first block column for the kernel-edge
potential.  The read-offs thus store no (pM)^2 matrix; passed a factor,
they apply it instead.  The pass reads S as block Toeplitz with q = b p
blocks, b from the shape (:func:`_toeplitz_block`), its first block column
padded with zero blocks to a multiple of b: ceil(M/b) steps and
O(b p^3 M^2) work, in place of M steps of mostly fixed cost.  The padding
is harmless, since the pass only moves data to the right and pivots its
last step on the real rows only.

Commensurate weights keep an exact displacement structure: entry (a, b) of
block (i, j) depends only on |d_a| (i + 1/2) - |d_b| (j + 1/2), so for the
shift F that moves component a by s_a blocks (|d_a| s_a the same for every
a), S - F S F* has rank at most 2t, t = sum s_a.  For t <= 2p, p <= 3 and
p M >= 1024 (where it was timed to beat LAPACK) the operator keeps only
the t boundary rows, and the same pass, folding its t positive and t
negative generator rows onto p of each before every step, yields C or
W U in O(t^2 p M^2) work.  Other weights and smaller grids fill the dense
S and take LAPACK.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg import lapack, solve_banded, solve_triangular

from . import defaults
from ._linalg import anti_diag_j, expm_stack, hermitize, upper_half_plane
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
    """Nystroem discretization of S = I + integral operator.

    ``column`` is the first block column of S when S is exactly Hermitian
    block Toeplitz (no weight, or all weights equal).  For commensurate
    weights on a grid large enough for the pass to pay (see
    :func:`build_structured_operator`) ``boundary`` holds the rows
    S[(i, a), :], i < min(s_a, M), in row order, ``shifts`` the s_a and
    ``kernel`` the kernel S is filled from.  Either routes
    :func:`factorize_triangular` to the Schur pass.  ``dense`` is the
    (p M, p M) matrix S when it was assembled entrywise (other weights) or
    given; otherwise ``s`` forms it on first access, bit for bit as the
    entrywise assembly would, and keeps it.
    """

    h: float
    p: int
    d: np.ndarray = None        # weight diagonal, all < 0, or None for the plain case
    column: np.ndarray = None   # (M, p, p) blocks S_{n0}, or None
    dense: np.ndarray = None    # (p M, p M) S, or None
    boundary: np.ndarray = None  # (t, p M) rows S[(i, a), :] with i < min(s_a, M), or None
    shifts: tuple = None        # s_a, the per-component shift of the displacement
    kernel: DifferenceKernel = None  # the kernel ``boundary`` was read from

    @cached_property
    def s(self):
        """The dense Hermitian S, (p M, p M)."""
        if self.dense is not None:
            return self.dense
        if self.column is None:
            return _fill_weighted(self.kernel, self.d, self.m)
        size = self.column.shape[0] * self.p
        s = np.empty((size, size), dtype=complex)
        _fill_toeplitz(s, self.column)
        return s

    @property
    def m(self):
        if self.column is not None:
            return self.column.shape[0]
        if self.boundary is not None:
            return self.boundary.shape[1] // self.p
        return self.dense.shape[0] // self.p

    @property
    def l(self):
        return self.h * self.m

    @cached_property
    def generator(self):
        """(rows, shifts) for :func:`_schur_pass`, or None when S has no
        exact displacement structure.  For a Toeplitz S the rows are the
        first b block rows (:func:`_toeplitz_block`) and the shifts b p
        ones: S read as block Toeplitz with q = b p blocks, its column
        padded with zero blocks to a multiple of b.  For commensurate
        weights they are the boundary rows and the s_a."""
        if self.column is not None:
            b = _toeplitz_block(self.p, self.m)
            return _toeplitz_rows(self.column, b), (1,) * (b * self.p)
        if self.boundary is not None:
            return self.boundary, self.shifts
        return None

    def unstructured(self):
        """The same S with no structure recorded: dense, so that
        :func:`factorize_triangular` takes LAPACK's Cholesky."""
        return StructuredOperator(h=self.h, p=self.p, d=self.d, dense=self.s)


def default_operator_length(kernel, d=None):
    """Longest operator length l, a whole number of grid steps, whose
    arguments max|d| * l stay on the stored kernel (l = kernel.l for d None)."""
    scale = 1.0 if d is None else float(np.abs(np.asarray(d, dtype=float)).max())
    return kernel.h * int(np.floor(kernel.l / (scale * kernel.h) + 1e-9))


# complex entries of k evaluated per call while assembling distinct weights
_ASSEMBLY_CHUNK = 1 << 16


def _toeplitz_column(kernel, m, scale):
    """First block column h k(scale h n), n < m, of a Toeplitz operator; block
    0 carries the identity and is Hermitian-averaged (k(0) is one-sided)."""
    h, p = kernel.h, kernel.p
    col = h * kernel.at(scale * h * np.arange(m))
    col[0] = hermitize(np.eye(p) + col[0])
    return col


def _toeplitz_wide(col):
    """The (q, (2m - 1) q) row [S_{m-1}, ..., S_1, S_0, S_1*, ..., S_{m-1}*]
    of the Hermitian block Toeplitz matrix with first block column ``col``
    (m, q, q): its block row i is the window starting at block m - 1 - i."""
    m, q, _ = col.shape
    # adding +0.0 clears the negative zeros that conjugation leaves, as a
    # Hermitian average would
    blocks = np.concatenate([col[::-1], np.conj(col[1:]).transpose(0, 2, 1)]) + 0.0
    return blocks.transpose(1, 0, 2).reshape(q, (2 * m - 1) * q)


def _toeplitz_rows(col, b):
    """The first b block rows (b q, m' b q), m' = ceil(m / b), of the
    Hermitian block Toeplitz matrix with first block column ``col``
    (m, q, q) padded with zero blocks to m' b."""
    m, q, _ = col.shape
    padded = -(-m // b) * b
    col = np.concatenate([col, np.zeros((padded - m, q, q), dtype=complex)])
    wide = _toeplitz_wide(col)
    return np.concatenate([wide[:, (padded - 1 - i) * q:(2 * padded - 1 - i) * q]
                           for i in range(b)])


def _fill_toeplitz(out, col):
    """Write the Hermitian block Toeplitz matrix with first block column
    ``col`` (m, q, q) into ``out``: block row i is a window of one wide row."""
    m, q, _ = col.shape
    wide = _toeplitz_wide(col)
    for i in range(m):
        out[i * q:(i + 1) * q] = wide[:, (m - 1 - i) * q:(2 * m - 1 - i) * q]


def _pair_entries(kernel, d, rows, cols, a, b, k0):
    """h k_ab(d_b x_j - d_a x_i) for grid indices i in ``rows`` down and j
    in ``cols`` across.  Where the argument is 0, k is one-sided and the
    entry takes the Hermitian average k0.  That is decided on the exact
    relation |d_a| (2i + 1) = |d_b| (2j + 1), not on the rounded argument,
    which a step h that is not a binary fraction can leave at +-1e-17."""
    h = kernel.h
    args = d[b] * (h * (cols + 0.5)) - d[a] * (h * (rows[:, None] + 0.5))
    vals = kernel.entry(args, a, b)
    vals[d[b] * (2 * cols + 1) == d[a] * (2 * rows[:, None] + 1)] = k0[a, b]
    vals *= h
    return vals


def _fill_weighted(kernel, d, m):
    """The dense S of distinct weights, entry by entry: components (a, a)
    are Toeplitz in i - j; each pair a < b is evaluated once and mirrored
    into (b, a) by conjugation."""
    p, h = kernel.p, kernel.h
    s = np.empty((m * p, m * p), dtype=complex)
    for a in range(p):
        _fill_toeplitz(s[a::p, a::p], _toeplitz_column(kernel, m, -d[a])[:, a:a + 1, a:a + 1])
    grid = np.arange(m)
    k0 = hermitize(kernel.at(0.0))
    rows = max(1, _ASSEMBLY_CHUNK // (m * p * p))
    for a in range(p):
        for b in range(a + 1, p):
            for i0 in range(0, m, rows):
                i1 = min(m, i0 + rows)
                vals = _pair_entries(kernel, d, grid[i0:i1], grid, a, b, k0)
                s[i0 * p + a:i1 * p:p, b::p] = vals
                s[b::p, i0 * p + a:i1 * p:p] = vals.conj().T
    return s


def _commensurate_shifts(d):
    """The smallest positive integers s_a with |d_a| s_a all equal, from the
    exact rational ratios of the float weights."""
    inv = [1 / Fraction(-float(x)) for x in d]
    den = math.lcm(*(f.denominator for f in inv))
    ints = [int(f * den) for f in inv]
    step = math.gcd(*ints)
    return tuple(k // step for k in ints)


def _boundary_index(shifts, m):
    """Flat indices i p + a of the boundary rows (i, a), i < min(s_a, M), in
    row order: the order of ``StructuredOperator.boundary``."""
    p = len(shifts)
    return sorted(i * p + a for a, s in enumerate(shifts) for i in range(min(s, m)))


def _boundary_rows(kernel, d, m, shifts):
    """The rows S[(i, a), :] with i < min(s_a, M), in row order, each entry
    computed as :func:`_fill_weighted` computes it."""
    p = kernel.p
    grid = np.arange(m)
    k0 = hermitize(kernel.at(0.0))
    index = _boundary_index(shifts, m)
    rows = np.empty((len(index), m * p), dtype=complex)
    wide = [_toeplitz_wide(_toeplitz_column(kernel, m, -d[a])[:, a:a + 1, a:a + 1])[0]
            for a in range(p)]
    for row, (i, a) in zip(rows, (divmod(k, p) for k in index)):
        row[a::p] = wide[a][m - 1 - i:2 * m - 1 - i]
        for b in range(p):
            if b > a:
                row[b::p] = _pair_entries(kernel, d, grid[i:i + 1], grid, a, b, k0)[0]
            elif b < a:
                row[b::p] = _pair_entries(kernel, d, grid, grid[i:i + 1], b, a, k0)[:, 0].conj()
    return rows


def _commensurate_operator(kernel, d, m):
    """The operator of commensurate weights ``d`` on M = ``m`` blocks by its
    boundary rows, whatever M: the Schur pass's route, which
    :func:`build_structured_operator` takes only where it pays."""
    d = np.asarray(d, dtype=float).reshape(-1)
    shifts = _commensurate_shifts(d)
    return StructuredOperator(h=kernel.h, p=kernel.p, d=d, shifts=shifts, kernel=kernel,
                              boundary=_boundary_rows(kernel, d, m, shifts))


# Commensurate weights take the Schur pass when p <= _PASS_MAX_P, t <= 2p and
# p M >= _PASS_MIN_ORDER.  Timed against the entrywise fill plus LAPACK's
# Cholesky, with and without a right-hand side (2 cores, 2 BLAS threads), for
# p = 2 at t = 3, 4 and p = 3 at t = 4, 5, 6, p M from 256 to 2048: the pass
# lost up to p M = 512 (about 20 ms against 15 ms there), broke about even
# from 640 to 900 and won from 1024 on, by 5x and more at 2048.  Its fixed
# cost per step sets the crossover.  Larger p was not timed.
_PASS_MIN_ORDER = 1024
_PASS_MAX_P = 3


def _block_count(kernel, l, scale):
    """Number of grid blocks M = l / h of an operator on [0, l] whose kernel
    arguments reach scale * l; h must divide l and the kernel must be stored
    out to scale * l."""
    m = int(round(l / kernel.h))
    if m < 1 or abs(m * kernel.h - l) > 1e-9 * max(1.0, l):
        raise StructuralError("grid step must divide the operator length")
    if scale * l > kernel.l + 1e-9:
        raise StructuralError(
            f"kernel stored on [0, {kernel.l:.6g}] but arguments reach {scale * l:.6g}"
        )
    return m


def build_structured_operator(kernel, d=None, l=None):
    """Assemble S = I + h [kernel matrix] on the midpoint grid of [0, l].

    Plain case (``d is None``): matrix block (i, j) is k(x_i - x_j).
    Weighted case: entry (a, b) of block (i, j) is k_ab(d_b x_j - d_a x_i);
    all weights must be negative, and the kernel must be stored out to
    max|d| * l.  Entries at argument 0, where k is one-sided, take the
    Hermitian average, so S is exactly Hermitian.  With no weight or equal
    weights S is block Toeplitz: the result keeps its first block column.
    Commensurate weights, whose smallest shifts s_a with |d_a| s_a all
    equal add up to t <= 2p, keep the t boundary rows when p <= 3 and
    p M >= 1024, where the Schur pass was measured to beat LAPACK (see
    ``_PASS_MIN_ORDER``).  Either way the dense S is filled only when ``s``
    is read; other weights, and smaller commensurate grids, assemble it here.
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
    m = _block_count(kernel, l, scale)
    if d is None or np.all(d == d[0]):
        return StructuredOperator(h=h, p=p, d=d, column=_toeplitz_column(kernel, m, scale))
    if (p <= _PASS_MAX_P and p * m >= _PASS_MIN_ORDER
            and sum(_commensurate_shifts(d)) <= 2 * p):
        return _commensurate_operator(kernel, d, m)
    return StructuredOperator(h=h, p=p, d=d, dense=_fill_weighted(kernel, d, m))


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

    def solve(self, grid_values):
        """S^-1 = W* W times stacked block samples (m, p, cols): one Cholesky
        solve on C."""
        out, _ = lapack.zpotrs(self._winv, self._flat(grid_values), lower=1)
        return out.reshape(grid_values.shape)


def _not_positive(minor):
    return PositivityError(
        f"operator not positive definite (leading minor of order {minor})",
        minor=int(minor),
    )


# OpenBLAS runs a zgemm of m n k >= 2^16 multiply-adds on its thread pool,
# and a zgemv, which numpy calls for a k of one row, from m n >= 2^12 on.
# Between the pass's small LAPACK calls that costs far more than it saves,
# and it slows the next threaded LAPACK call as well: forced to q = 32
# (p = 1, M = 1024; 2 cores, 2 BLAS threads) the W k pass took 370 ms with
# one zgemm per product against 67 ms in smaller panels, and a zpotrf of
# order 512 right after the pass took about 17 ms with threaded zgemv
# panels against about 10 ms.
_THREAD_WORK = 1 << 16
_THREAD_WORK_GEMV = 1 << 12


def _panels(k, n):
    """Column slices of an n-column product k @ b, each small enough that
    OpenBLAS runs it on one thread."""
    work = _THREAD_WORK if k.shape[0] > 1 else _THREAD_WORK_GEMV
    width = max(1, (work - 1) // k.size)
    return [slice(j, j + width) for j in range(0, n, width)]


def _sub_product(out, k, b):
    """out -= k @ b in place, one single-threaded panel at a time."""
    for cols in _panels(k, b.shape[1]):
        out[:, cols] -= k @ b[:, cols]


def _transform(c, p_f, delta):
    """Coefficients K_f = Delta P_b^-1 and K_b = Delta* P_f^-1 of the 2p x 2p
    transform [[I, -K_f], [-K_b, I]] that clears Delta, with P_b = c c*;
    updates P_f to P_f - K_f Delta* in place."""
    delta_h = delta.conj().T
    k_f_h, _ = lapack.zpotrs(c, delta_h, lower=1)              # K_f* = P_b^-1 Delta*
    _, k_b_h, _ = lapack.zposv(p_f, delta, lower=1)             # K_b* = P_f^-1 Delta
    k_f, k_b = k_f_h.conj().T, k_b_h.conj().T
    p_f -= k_f @ delta_h
    return k_f, k_b


def _split_generator(rows, shifts, m):
    """The 2t rows [(E + X); (E - X)] / sqrt 2 of S - F S F* = E* X + X* E,
    for the t boundary rows R: E holds the unit rows at the boundary
    indices B and X = R - (1/2) S_BB E."""
    t = rows.shape[0]
    index = _boundary_index(shifts, m)
    x = rows.copy()
    x[:, index] *= 0.5
    gen = np.concatenate([x, -x])
    gen[np.arange(t), index] += 1.0
    gen[t + np.arange(t), index] += 1.0
    gen *= np.sqrt(0.5)
    return gen


def _fold_step(gen, lo, hi, upper):
    """One step of the pass on the 2t generator rows ``gen`` (t positive
    rows, then t negative rows, all of metric I), pivot block [lo, hi).

    One QR of blockdiag([Y+, 0], [Y-, 0]), Y the halves' pivot blocks,
    yields Q = blockdiag(Q+, Q-): Q* folds each half onto its first p rows
    (g with pivot block R+, f with Delta = R-).  g is scaled to P_b = R+* R+,
    the 2p x 2p transform clears Delta, and g and f are normalized again;
    all of it acts on the live rows as one 2t x 2t product, applied in
    single-threaded column panels (:func:`_panels`).  Returns the
    pivot's Cholesky factor c; the pivot rows are then c^-1 g.
    """
    t, p = gen.shape[0] // 2, hi - lo
    square = np.zeros((2 * t, 2 * t), dtype=complex)
    square[:t, :p] = gen[:t, lo:hi]
    square[t:, t:t + p] = gen[t:, lo:hi]
    qr, tau, _, _ = lapack.zgeqrf(square, overwrite_a=1)
    # P_b = R+* R+ = c_b c_b*; zpotrs reads only c_b's lower triangle
    c_b = qr[:p, :p].conj().T
    delta = qr[t:t + p, t:t + p] * upper
    q, _, _ = lapack.zungqr(qr, tau, overwrite_a=1)
    step = q.conj().T
    p_f = np.eye(p, dtype=complex)
    k_f, k_b = _transform(c_b, p_f, delta)
    # R+* times the folded pivot rows, Q+[:, :p] R+ = Y+, is Y+*
    g = np.concatenate([gen[:t, lo:hi].conj().T, np.zeros((p, t), dtype=complex)], axis=1)
    f = step[t:t + p]
    g, f = g - k_b @ f, f - k_f @ g
    c, info = lapack.zpotrf(g @ gen[:, lo:hi], lower=1, clean=1)
    if info == 0:
        # P_f > 0 exactly when the pivot is; only rounding can fail it
        d_f, info = lapack.zpotrf(p_f, lower=1, clean=1)
    if info > 0:
        raise _not_positive(lo + info)
    step[:p] = lapack.ztrtri(c, lower=1)[0] @ g
    step[t:t + p] = lapack.ztrtri(d_f, lower=1)[0] @ f
    live = gen[:, lo:]
    for cols in _panels(step, live.shape[1]):
        live[:, cols] = step @ live[:, cols]
    return c


def _shift_pivot_rows(g, shifts, n):
    """Apply F to the pivot rows g (p, p M) at step n >= 1, in place: block
    j of component a takes block j - s_a of the previous step's rows (live
    from block n - 1 on) and zero where that lies before them."""
    p = len(shifts)
    blocks = g.reshape(p, -1, p)
    m = blocks.shape[1]
    for a, s in enumerate(shifts):
        moved = m - (n - 1 + s)                    # blocks that take a live block
        if moved > 0:
            # numpy buffers the overlapping copy
            blocks[:, n - 1 + s:, a] = blocks[:, n - 1:n - 1 + moved, a]
        if s > 1:
            blocks[:, n:n - 1 + s, a] = 0.0


# The Toeplitz pass reads S as block Toeplitz with q = b p blocks: about
# M / b fixed step costs against b p^3 M^2 multiply-adds, which balance at
# b = sqrt(_BLOCK_WORK / (p^3 M)).  Timed for every b <= 16 / p at p = 1, 2,
# 3 and M = 256 ... 4096 (2 cores, 2 BLAS threads), the rule's b was never
# slower than b = 1 beyond the run-to-run spread, and the fastest b was at
# most one or two sizes away; at p = 1, M = 1024 the W k pass takes 21 ms
# against 72 ms for b = 1.
_BLOCK_WORK = 1 << 16
_MAX_BLOCK_ORDER = 16


def _toeplitz_block(p, m):
    """Block rows b per step of the Toeplitz pass on M = ``m`` blocks of
    order p: the b that balances the pass's fixed cost per step against
    its O(b p^3 M^2) products, at most M and at most q = b p = 16."""
    b = round(math.sqrt(_BLOCK_WORK / (p ** 3 * m)))
    return max(1, min(b, _MAX_BLOCK_ORDER // p, m))


def _schur_pass(op, rhs=None, chol=False, first_column=False):
    """One block Schur pass over a Hermitian S with displacement structure,
    from the operator's ``generator`` (rows, shifts), producing only the
    outputs asked for: ``chol`` the dense Cholesky factor C (S = C C*),
    ``rhs`` W U for stacked block samples U (M, p, r) with W = C^-1, and
    ``first_column`` W's first block column (M, p, p; Toeplitz S only).
    Returns (C, W U, W first column), None for each output not asked for.

    F moves component a of block i to block i + s_a.  Step n keeps q pivot
    rows g (metric P_b^-1) and q negative rows f (metric P_f^-1); in the
    Toeplitz case (all s_a = 1) they are the backward and forward prediction
    errors g_n(j) (j >= n) and f_n(j) (j > n): with predictors a_n
    (a_n(0) = I) and b_n (b_n(n) = I), a_n S = [P_f 0 ... 0 f_n(n+1) ...]
    and b_n S = [0 ... 0 P_b g_n(n+1) ...].  With P_b = g_n(n) = c c*
    (lower Cholesky), column block n of C is g_n(j)* c^-*, j >= n.  The
    pivot rows then move by F, and K_f = Delta P_b^-1 and
    K_b = Delta* P_f^-1, Delta = f(n+1), advance the pairs (f(j), F g(j))
    by the 2q x 2q transform [[I, -K_f], [-K_b, I]], which clears f(n+1).
    The Toeplitz pivot rows keep block j at block j - n of ``bottom``, so
    F costs nothing, and each step updates both in place.  No predictor is
    carried: W U is forward substitution with C's column blocks as they
    appear, and W's first block column is c_n^-1 b_n(0) with b_0(0) = I and
    b_{n+1}(0) = -K_b.

    A Toeplitz S of M blocks of order p is read as block Toeplitz with
    q = b p blocks (:func:`_toeplitz_block`), its first block column padded
    with zero blocks to ceil(M / b) b: ceil(M / b) steps of O(b p^3 M)
    work each, O(b p^3 M^2) in all, plus O(p^2 r M^2) for r right-hand
    sides.  The padding is harmless: the transforms act column by column
    and F moves g forward, so no padded column ever reaches a real one, and
    the last step pivots on the leading r x r of its q x q pivot,
    r = p M - n q.  A pivot that fails at its column info is then still
    the leading minor n q + info of S that LAPACK names.  The products run
    in single-threaded column panels (:func:`_sub_product`).

    Commensurate weights (t > p boundary rows, q = p) start from the split
    generator (:func:`_split_generator`), 2t rows [g, further positive,
    f, further negative] of metric I in one array; the pivot rows of
    component a move s_a blocks.  Each step (:func:`_fold_step`) folds the t
    positive and the t negative rows by one unitary map each, so that only
    g and f meet the pivot block, takes the same transform, and normalizes
    g and f again; column block n of C is then g(j)*, j > n.
    """
    rows, shifts = op.generator
    p, size = op.p, op.m * op.p
    t, width = rows.shape                           # width >= size: padded
    q = len(shifts)
    fold = t > q
    if fold:
        gen = _split_generator(rows, shifts, op.m)
        upper = np.triu(np.ones((q, q)))
    else:
        top, bottom = rows.copy(), rows.copy()      # f and g
        p_f = rows[:, :q].copy()
    c_out = np.zeros((size, size), dtype=complex, order="F") if chol else None
    if rhs is not None:
        # conjugate transpose of the substitution's running right-hand side
        # U - sum_k C_{:k} (W U)_k, one row per column of U
        rest = rhs.reshape(size, -1).conj().T.copy()
        wu = np.empty((size, rest.shape[0]), dtype=complex)
    w0 = np.empty((size, p), dtype=complex) if first_column else None
    b0 = np.eye(q, p, dtype=complex)                 # first p columns of b_n(0)
    for lo in range(0, size, q):
        hi = min(lo + q, size)
        if fold:
            if lo:
                _shift_pivot_rows(gen[:q], shifts, lo // q)
            c = _fold_step(gen, lo, hi, upper)
            below = gen[:q, hi:]                               # c^-1 g(j), j > n
        else:
            if lo:
                k_f, k_b = _transform(c, p_f, top[:, lo:lo + q])
                b0 = -k_b[:, :p]
                f, g = top[:, lo:], bottom[:, :width - lo]     # f(j), F g(j), j >= n
                g_old = g.copy()
                _sub_product(g, k_b, f)
                _sub_product(f, k_f, g_old)
            c, info = lapack.zpotrf(bottom[:hi - lo, :hi - lo], lower=1, clean=1)
            if info > 0:
                # a pivot that fails at its column info is the leading
                # minor n q + info of S, the order zpotrf reports on S
                raise _not_positive(lo + info)
            below = bottom[:, q:size - lo]                     # g_n(j), j > n
        if chol:
            c_out[lo:hi, lo:hi] = c
            if fold:
                c_out[hi:, lo:hi] = below.conj().T
            else:
                # (c^-1 g)*, written through C's transpose
                column = c_out.T[lo:hi, hi:]
                _sub_product(column, -lapack.ztrtri(c, lower=1)[0], below)
                np.conjugate(column, out=column)
        # c^-1 u as c* (P_b^-1 u): OpenBLAS's ztrtrs uses its thread pool
        # even for a q x q solve, which makes each step several times
        # slower for a while after any threaded BLAS call
        if rhs is not None:
            y, _ = lapack.zpotrs(c, rest[:, lo:hi].conj().T, lower=1)
            wu[lo:hi] = c.conj().T @ y
            # fold: (c^-1 u)* (c^-1 g) with the rows already normalized
            _sub_product(rest[:, hi:], wu[lo:hi].conj().T if fold else y.conj().T, below)
        if first_column:
            y, _ = lapack.zpotrs(c, b0[:hi - lo], lower=1)
            w0[lo:hi] = c.conj().T @ y
    return (c_out, wu.reshape(rhs.shape) if rhs is not None else None,
            w0.reshape(op.m, p, p) if first_column else None)


def factorize_triangular(op):
    """Triangular factorization S = C C*, W S W* = I with W = C^-1, of a
    positive operator; the factor keeps C only.

    Operators with a generator (Toeplitz or commensurate weights) take the
    block Schur pass (:func:`build_structured_operator` keeps the generator
    of commensurate weights only where the pass pays); others take LAPACK's
    Cholesky.  Raises PositivityError naming the offending leading minor
    size when S is not positive definite; this doubles as the positivity
    test.
    """
    if op.generator is not None:
        c, _, _ = _schur_pass(op, chol=True)
        return TriangularFactor(c, h=op.h, p=op.p)
    c, info = lapack.zpotrf(op.s, lower=1, clean=1)
    if info > 0:
        raise _not_positive(info)
    if info < 0:  # pragma: no cover
        raise StructuralError(f"illegal value in Cholesky argument {-info}")
    return TriangularFactor(c, h=op.h, p=op.p)


def _check_grid(name, given, kernel, l):
    """A passed operator or factor must be one of the kernel's: same p and
    h, and M h = l when l is given."""
    if given.p != kernel.p or abs(given.h - kernel.h) > 1e-12 * kernel.h:
        raise StructuralError(
            f"{name} grid (p = {given.p}, h = {given.h:.6g}) does not match "
            f"the kernel grid (p = {kernel.p}, h = {kernel.h:.6g})"
        )
    if l is not None and abs(given.m * given.h - l) > 1e-9 * max(1.0, l):
        raise StructuralError(
            f"{name} length {given.m * given.h:.6g} differs from l = {l:.6g}")


def _plain_grid(kernel, l, factor):
    """Block count M of a plain read-off on [0, l], and the Toeplitz
    operator S_l when no factor is given (None otherwise).  A given factor
    must be one of the kernel's operators (:func:`_check_grid`), with M at
    most the kernel's."""
    if factor is None:
        m = _block_count(kernel, kernel.l if l is None else l, 1.0)
        return m, StructuredOperator(h=kernel.h, p=kernel.p,
                                     column=_toeplitz_column(kernel, m, 1.0))
    _check_grid("factor", factor, kernel, l)
    if factor.m > kernel.m:
        raise StructuralError(
            f"factor has {factor.m} grid blocks but the kernel only {kernel.m}")
    return factor.m, None


def _apply_w(op, factor, u):
    """W U: by the factor's triangular solve when one is given, else by one
    Schur pass over the operator's generator."""
    if factor is not None:
        return factor.apply(u)
    return _schur_pass(op, rhs=u)[1]


# ---------------------------------------------------------------------------
# potential recovery (plain difference kernels)


def recover_potential(kernel, l=None, mode="endpoint", factor=None):
    """Recover the potential v on (0, l/2) from an accelerant.

    ``endpoint`` evaluates v(x/2) = 2i (k(x) + int_0^x E(x, t) k(t) dt) on
    the grid; ``kernel-edge`` uses v(x) = -2i E(2x, 0), valid for
    continuous potentials.  Both are O(h)-accurate.  Without ``factor`` one
    Schur pass produces W k (endpoint) or W's first block column
    (kernel-edge); a given factor, checked against the kernel's grid and
    ``l``, is applied instead.
    """
    if mode not in ("endpoint", "kernel-edge"):
        raise StructuralError(f"unknown recovery mode {mode!r}")
    m, op = _plain_grid(kernel, l, factor)
    p, h = kernel.p, kernel.h
    if mode == "endpoint":
        vals = 2j * _apply_w(op, factor, kernel.samples[:m])
    else:
        if factor is None:
            w0 = _schur_pass(op, first_column=True)[2]
        else:
            unit = np.zeros((m, p, p), dtype=complex)
            unit[0] = np.eye(p)
            w0 = factor.apply(unit)
        vals = (-2j / h) * w0                   # first block column of W
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


def theta_functions(kernel, l=None, factor=None):
    """The two p x 2p rows of the zero-energy fundamental solution.

    theta1(x/2) = (1/sqrt 2) ((I+E) [2s  I])(x) with s = I/2 + int k;
    theta2 follows from the structured-operator formula with S_{2x}^-1
    applied columnwise, evaluated via the causal triangular factor.  W is
    applied to [2s I k] at once: by one Schur pass, or by ``factor`` when
    one is given (checked as in :func:`recover_potential`).
    """
    m, op = _plain_grid(kernel, l, factor)
    p, h = kernel.p, kernel.h
    xs = kernel.xs[:m]
    s_vals = 0.5 * np.eye(p)[None] + kernel.cumulative(xs)
    stack = np.concatenate([2.0 * s_vals, np.tile(np.eye(p)[None], (m, 1, 1)),
                            kernel.samples[:m]], axis=2)
    applied = _apply_w(op, factor, stack)
    big = applied[:, :, :2 * p]                 # (m, p, 2p) samples of (I+E)[2s I]
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
    weighted operator to be positive definite.  Equal weights, and
    commensurate weights where :func:`build_structured_operator` keeps
    their generator, take one Schur pass that yields W Pi; with
    ``return_factor`` the caller needs C anyway, so the pass yields C and
    W Pi is one triangular solve on it.  Other weights take LAPACK's
    Cholesky.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    op = build_structured_operator(kernel, d=d, l=l)
    xs = op.h * (np.arange(op.m) + 0.5)
    pi = _pi_samples(kernel, d, xs)
    if op.generator is not None and not return_factor:
        beta_vals = _schur_pass(op, rhs=pi)[1]
    else:
        fac = factorize_triangular(op)
        beta_vals = fac.apply(pi)
    h_vals = np.einsum("mji,mjk->mik", beta_vals.conj(), beta_vals)
    h_vals = hermitize(h_vals)
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


def fundamental_from_kernel(kernel, d, l, z, op=None, factor=None):
    """Fundamental solution w(l, z) = I + i z J Pi* S^-1 (I - z A)^-1 Pi.

    ``z`` is a scalar (a 2p x 2p result) or an array (a z.shape + (2p, 2p)
    stack).  A = i D int_0^x on the midpoint grid is block lower triangular
    with half weight on the diagonal; differencing its rows turns
    (I - z A) u = Pi into one bidiagonal system per z and component a, with
    diagonal 1 - c/2 and subdiagonal -(1 + c/2), c = i z d_a h.  A given
    ``op`` must be built from the kernel's grid for this ``d`` and ``l``, and
    a given ``factor`` must match that grid; otherwise StructuralError.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if op is None:
        op = build_structured_operator(kernel, d=d, l=l)
    else:
        _check_grid("operator", op, kernel, l)
        if op.d is None or not np.array_equal(op.d, d):
            raise StructuralError(f"operator built for d = {op.d}, not d = {d}")
    if factor is None:
        factor = factorize_triangular(op)
    else:
        _check_grid("factor", factor, kernel, l)
    m, p, h = op.m, op.p, op.h
    zs = np.asarray(z, dtype=complex)
    zf = zs.reshape(-1)
    xs = h * (np.arange(m) + 0.5)
    pi = _pi_samples(kernel, d, xs)                      # (m, p, 2p)
    dpi = np.diff(pi, axis=0, prepend=0.0)
    rhs = np.empty((m, p, zf.size, 2 * p), dtype=complex)
    band = np.empty((2, m), dtype=complex)
    for k, zk in enumerate(zf):
        for a in range(p):
            c = 1j * zk * d[a] * h
            band[0], band[1] = 1.0 - 0.5 * c, -(1.0 + 0.5 * c)
            rhs[:, a, k] = solve_banded((1, 0), band, dpi[:, a])
    u = factor.solve(rhs.reshape(m, p, zf.size * 2 * p)).reshape(m * p, -1)
    proj = h * pi.reshape(m * p, 2 * p).conj().T @ u     # (2p, K 2p)
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


def schur_recover(rho, ode_tol=None):
    """Recover the factor blocks from the continuous Schur coefficient.

    Integrates beta2' = -beta2 rho' (rho + rho*)^-1 with beta2(0) = I and
    returns (beta1, beta2) on the grid of rho, with beta1 = beta2 rho.
    Requires Re rho > 0 at every sample.
    """
    # imported here: scipy.integrate costs about 0.27 s and 24 MB resident
    # to import, and nothing else in weylkit needs it
    from scipy.integrate import solve_ivp

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
