"""Small linear-algebra helpers shared across modules."""

import math

import numpy as np

from . import defaults
from .exceptions import DomainError, SingularityError

__all__ = [
    "anti_diag_j",
    "hermitize",
    "rel_residual",
    "eigmin_hermitian",
    "spectrum",
    "pole_gaps",
    "resolvent_apply",
    "expm_stack",
    "expm_grid",
    "upper_half_plane",
    "MAX_COMPLEX_ENTRIES",
]

# the most entries numpy allows in one complex array
MAX_COMPLEX_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize


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


def upper_half_plane(z, what):
    """``z`` (a scalar or any array) flattened to a 1-D complex array; raises
    DomainError naming the first point that is not finite with Im z > 0."""
    zs = np.asarray(z, dtype=complex).reshape(-1)
    bad = ~(np.isfinite(zs) & (zs.imag > 0))
    if bad.any():
        raise DomainError(f"{what} needs finite z with Im z > 0, got z = {zs[bad][0]}")
    return zs


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


def _solve_folded(mats, rhs):
    """Solve mats x = rhs for one (n, n) matrix or a (k, n, n) stack and a
    stack of right-hand sides ``rhs`` (..., n, m), a (k,) + rhs.shape result
    for a stack.  The stack of rhs is folded into columns, so each matrix is
    LU-factored once rather than once per position of the stack."""
    if rhs.ndim == 2:
        return np.linalg.solve(mats, rhs)
    n = rhs.shape[-2]
    cols = np.moveaxis(rhs, -2, 0)                    # (n, ..., m)
    x = np.linalg.solve(mats, cols.reshape(n, -1))
    x = x.reshape(mats.shape[:-2] + cols.shape)
    return np.moveaxis(x, mats.ndim - 2, -2)


def resolvent_apply(a, z, rhs, spec, what="matrix"):
    """Solve (a - z I) x = rhs, guarding against z near the spectrum.

    ``z`` is a scalar or a 1-D array, the result has shape
    ``shape(z) + rhs.shape``, and ``rhs`` may itself be a stack of (n, m)
    right-hand sides; a scalar z is the one-point case.
    Each a - z I is factored once, whatever the size of the stack.
    ``spec`` is ``spectrum(a)``.  The guard is
    |z - eigenvalue| < POLE_CUTOFF * (1 + ||a||); the first offending z is
    named in the SingularityError.
    """
    n = a.shape[0]
    zs = np.asarray(z, dtype=complex)
    if n == 0:
        return np.zeros(zs.shape + rhs.shape, dtype=complex)
    gaps, near = pole_gaps(spec, zs.reshape(-1))
    bad = near.any(axis=1)
    if bad.any():
        i = np.argmax(bad)
        raise SingularityError(
            f"z = {zs.reshape(-1)[i]} is within {gaps[i].min():.3e} of the spectrum of the {what}"
        )
    return _solve_folded(a - zs[..., None, None] * np.eye(n), rhs)


# 1-norm bound theta_q up to which the degree-q Pade approximant meets unit
# roundoff, and its numerator coefficients b_0..b_q (Higham, "The scaling and
# squaring method for the matrix exponential revisited", SIAM J. Matrix Anal.
# Appl. 26, 2005)
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                           7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                           10559470521600.0, 670442572800.0, 33522128640.0,
                           1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def _pade(a, b):
    """The Pade approximant (V - U)^-1 (V + U) of exp(a) with numerator
    coefficients ``b``: U holds the odd powers of a, V the even ones."""
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    u, v, power = b[1] * eye, b[0] * eye, a2
    for k in range(2, len(b), 2):
        if k > 2:
            power = power @ a2
        u = u + b[k + 1] * power
        v = v + b[k] * power
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm_stack(a):
    """Matrix exponential of every matrix in a ``(..., m, m)`` stack.

    Pade scaling and squaring (Higham 2005) in numpy over the whole stack.
    The degree (3, 5, 7, 9 or 13) is the lowest whose bound covers the
    stack's largest 1-norm; at degree 13 each matrix is scaled by its own
    power 2^-s, and only the matrices that still need squaring are squared.
    A non-finite entry raises DomainError.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise DomainError("matrix exponential of a matrix with non-finite entries")
    if a.size == 0:
        return np.empty(a.shape, dtype=complex)
    shape, m = a.shape, a.shape[-1]
    a = a.reshape(-1, m, m)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    top = norms.max()
    for theta, b in _PADE[:-1]:
        if top <= theta:
            return _pade(a, b).reshape(shape)
    theta, b = _PADE[-1]
    with np.errstate(divide="ignore"):
        s = np.maximum(0, np.ceil(np.log2(norms / theta))).astype(int)
    # sorted by s, the matrices left to square at each pass are a prefix
    order = np.argsort(-s, kind="stable")
    s = s[order]
    r = _pade(a[order] * np.exp2(-s)[:, None, None], b)
    for j in range(s[0]):
        k = np.searchsorted(-s, -j, side="left")
        r[:k] = r[:k] @ r[:k]
    out = np.empty_like(r)
    out[order] = r
    return out.reshape(shape)


def expm_grid(m, xs):
    """``expm_stack(m * x)`` for every x in a 1-D ``xs`` and every matrix of
    an ``(..., k, k)`` stack ``m``, shape ``m.shape[:-2] + (len xs, k, k)``.

    The sorted positions fall into runs of about sqrt(N); each x is its
    run's first position (an anchor) plus an offset, and
    e^{m x} = e^{m anchor} e^{m offset} (the baby-step giant-step split of
    Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  The anchors and the
    distinct nonzero offsets are exponentiated in one :func:`expm_stack`
    call and joined by one batched product; an anchor and its repeats take
    no product, so one point is ``expm_stack(m * x)`` itself.  A uniform
    grid has few distinct offsets, so about 2 sqrt(N) exponentials stand
    for N; a ragged grid has about one offset per position, each of small
    norm.  The parts of a split batch get other anchors, so they agree with
    the batch to rounding, not bit for bit.
    """
    m = np.asarray(m, dtype=complex)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    size = max(1, math.isqrt(xs.size))
    order = xs.argsort(kind="stable")
    anchors = xs[order[::size]]
    run = np.empty_like(order)
    run[order] = np.arange(xs.size) // size
    offsets = xs - anchors[run]
    moved = offsets != 0.0          # an anchor and its repeats take no product
    distinct = np.unique(offsets[moved])
    e = expm_stack(m[..., None, :, :]
                   * np.concatenate([anchors, distinct])[:, None, None])
    out = e[..., run, :, :]
    pick = anchors.size + distinct.searchsorted(offsets[moved])
    out[..., moved, :, :] = out[..., moved, :, :] @ e[..., pick, :, :]
    return out
