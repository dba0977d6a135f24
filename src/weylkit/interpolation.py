"""Discrete interpolation of Weyl-type functions from lattice samples.

A function with a one-sided Laplace representation is reconstructed on the
half-plane Im z > 1/2 + eps from its values on the lattice i(q + eps),
q = 0, 1, 2, ...  The combination coefficients grow like 4^n with heavy
cancellation, so the tables are kept in sign/log-magnitude form and the
series itself is accumulated in adaptive multiprecision: with exact inner
arithmetic the only error left is the truncation error of the series.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import defaults
from .exceptions import DomainError, SingularityError, StructuralError

__all__ = [
    "coeff_a",
    "coeff_c",
    "InterpCoeffs",
    "interpolate_series",
    "decay_estimate",
]


def coeff_a(n: int, q: int):
    """Lattice coefficient a_{nq} = (-1)^q (n+q)! / ((q!)^2 (n-q)!).

    Returned as (sign, log magnitude) to avoid overflow; exact value is
    sign * exp(logmag).
    """
    if q < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    if q > n:
        raise DomainError(f"q = {q} exceeds n = {n}")
    sign = -1 if q % 2 else 1
    logmag = (
        math.lgamma(n + q + 1) - 2.0 * math.lgamma(q + 1) - math.lgamma(n - q + 1)
    )
    return sign, logmag


def _coeff_a_int(n: int, q: int) -> int:
    """Exact integer value of a_{nq} (it is a signed product of binomials)."""
    return (-1) ** q * math.comb(n + q, q) * math.comb(n, q)


def coeff_c(n: int, lam: complex) -> complex:
    """Weight c_n(lambda) = (2n+1) prod (q - 1/2 + i lam) / prod (q + 1/2 - i lam)
    via the stable ratio recurrence."""
    il = 1j * complex(lam)
    den0 = 0.5 - il
    if abs(den0) < 1e-12:
        raise SingularityError("lambda sits on a pole of c_0")
    c = 1.0 / den0
    for k in range(n):
        den = k + 1.5 - il
        if abs(den) < 1e-12:
            raise SingularityError(f"lambda sits on a pole of c_{k + 1}")
        c *= (2 * k + 3) / (2 * k + 1) * (k + 0.5 + il) / den
    return c


def _coeff_c_mp(n_max, lam):
    """All of c_0 ... c_{n_max} at mp precision."""
    il = mp.mpc(0, 1) * lam
    out = [mp.mpc(1) / (mp.mpf(0.5) - il)]
    for k in range(n_max):
        ratio = mp.mpf(2 * k + 3) / (2 * k + 1) * (k + mp.mpf(0.5) + il) / (
            k + mp.mpf(1.5) - il
        )
        out.append(out[-1] * ratio)
    return out


@dataclass(frozen=True)
class InterpCoeffs:
    """Sign/log-magnitude table of a_{nq} built by the ratio recurrence."""

    n_max: int
    epsilon: float
    signs: np.ndarray
    logmags: np.ndarray

    @classmethod
    def build(cls, n_max, epsilon=None):
        if epsilon is None:
            epsilon = defaults.EPSILON
        signs = np.zeros((n_max + 1, n_max + 1), dtype=int)
        logm = np.full((n_max + 1, n_max + 1), -np.inf)
        for n in range(n_max + 1):
            signs[n, 0] = 1
            logm[n, 0] = 0.0
            for q in range(n):
                # a_{n, q+1} = a_{nq} * (-(n+q+1)(n-q) / (q+1)^2)
                signs[n, q + 1] = -signs[n, q]
                logm[n, q + 1] = (
                    logm[n, q]
                    + math.log((n + q + 1) * (n - q))
                    - 2.0 * math.log(q + 1)
                )
        return cls(n_max=n_max, epsilon=float(epsilon), signs=signs, logmags=logm)

    def a(self, n, q):
        if q > n or n > self.n_max:
            raise DomainError("index outside the built table")
        return int(self.signs[n, q]), float(self.logmags[n, q])

    def c(self, n, lam):
        return coeff_c(n, lam)


def _auto_cut(term_mags):
    """Index of the smallest 3-term moving average of term magnitudes.

    Used when samples carry noise: beyond the minimum the 4^n coefficient
    growth amplifies sample error faster than the series converges.
    """
    mags = np.asarray(term_mags, dtype=float)
    if mags.size <= 5:
        return mags.size - 1
    avg = np.convolve(mags, np.ones(3) / 3.0, mode="valid")
    return int(np.argmin(avg)) + 1


def interpolate_series(
    samples,
    z,
    n_terms=None,
    epsilon=None,
    mode="general",
    z0=0.0,
    truncation="fixed",
    return_partials=False,
):
    """Evaluate the lattice interpolation series at z, Im z > 1/2 + eps.

    Modes
    -----
    general     sum_n c_n(z + i/2 - i eps) sum_q a_{nq} F(i(q + eps))
    weyl-dirac  -z^2 * sum with weights (q + eps)^-2 on samples phi(i(q+eps))
    shifted     -(z + z0)^2 * sum with weights (q + eps - i z0)^-2 on
                samples phi(z0 + i(q + eps))

    Inner sums cancel catastrophically (coefficients reach 4^n), so terms
    are combined with exact integer coefficients at a working precision
    scaled to n_terms.  ``truncation='auto'`` stops at the term-magnitude
    minimum instead of the requested order, which is the honest choice for
    noisy samples.
    """
    if n_terms is None:
        n_terms = defaults.SERIES_ORDER
    if epsilon is None:
        epsilon = defaults.EPSILON
    z = complex(z)
    z0 = complex(z0)
    if not (np.isfinite(z) and z.imag > 0.5 + epsilon):
        raise DomainError(
            f"interpolation valid only for finite z with Im z > 1/2 + eps = "
            f"{0.5 + epsilon}, got z = {z}"
        )
    if not np.isfinite(z0):
        raise DomainError(f"the shift z0 must be finite, got z0 = {z0}")
    arr = np.asarray(samples, dtype=complex)
    scalar_output = arr.ndim == 1
    if arr.ndim == 1:
        arr = arr[:, None, None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise StructuralError("samples must be scalars or square matrices")
    bad = ~np.isfinite(arr).all(axis=(1, 2))
    if bad.any():
        raise StructuralError(f"samples must be finite; sample q = {np.argmax(bad)} is not")
    if arr.shape[0] < n_terms + 1:
        raise StructuralError(
            f"need {n_terms + 1} samples for order {n_terms}, got {arr.shape[0]}"
        )
    p = arr.shape[1]

    if mode == "general":
        prefactor = complex(1.0)
        weight = lambda q: mp.mpc(1)
    elif mode == "weyl-dirac":
        prefactor = -(z ** 2)
        weight = lambda q: 1 / (q + mp.mpf(epsilon)) ** 2
    elif mode == "shifted":
        prefactor = -((z + z0) ** 2)
        weight = lambda q: 1 / (q + mp.mpf(epsilon) - mp.mpc(0, 1) * z0) ** 2
    else:
        raise StructuralError(f"unknown interpolation mode {mode!r}")

    dps = int(30 + 0.61 * n_terms)
    with mp.workdps(dps):
        lam = mp.mpc(z) + mp.mpc(0, 0.5) - mp.mpc(0, 1) * mp.mpf(epsilon)
        cs = _coeff_c_mp(n_terms, lam)
        mp_samples = [
            [[mp.mpc(arr[q, i, j]) for j in range(p)] for i in range(p)]
            for q in range(n_terms + 1)
        ]
        wts = [weight(q) for q in range(n_terms + 1)]
        partials = np.empty((n_terms + 1, p, p), dtype=complex)
        term_mags = []
        acc = [[mp.mpc(0) for _ in range(p)] for _ in range(p)]
        for n in range(n_terms + 1):
            term_max = 0.0
            for i in range(p):
                for j in range(p):
                    inner = mp.mpc(0)
                    for q in range(n + 1):
                        inner += _coeff_a_int(n, q) * wts[q] * mp_samples[q][i][j]
                    term = cs[n] * inner
                    acc[i][j] += term
                    term_max = max(term_max, abs(complex(term)))
            term_mags.append(term_max)
            for i in range(p):
                for j in range(p):
                    partials[n, i, j] = complex(acc[i][j])
    partials *= prefactor
    if truncation == "auto":
        cut = _auto_cut(term_mags)
    elif truncation == "fixed":
        cut = n_terms
    else:
        raise StructuralError(f"unknown truncation policy {truncation!r}")
    value = partials[cut]
    if scalar_output:
        value = complex(value[0, 0])
        partials = partials[:, 0, 0]
    if return_partials:
        return value, partials[: cut + 1]
    return value


def decay_estimate(errors):
    """Least-squares slope of log error against log N.

    ``errors`` is a sequence of (N, error) pairs with positive errors; the
    fitted exponent estimates the convergence rate, and |slope| < 0.1 is
    flagged as non-converging.
    """
    pts = [(int(n), float(e)) for n, e in errors]
    if len(pts) < 4:
        raise DomainError("need at least 4 (N, error) points")
    if any(e <= 0 for _, e in pts):
        raise DomainError("errors must be positive")
    logn = np.log([n for n, _ in pts])
    loge = np.log([e for _, e in pts])
    slope = float(np.polyfit(logn, loge, 1)[0])
    return {"exponent": slope, "converging": bool(slope < -0.1)}
