"""Discrete interpolation of Weyl-type functions from lattice samples.

A function with a one-sided Laplace representation is reconstructed on the
half-plane Im z > 1/2 + eps from its values on the lattice i(q + eps),
q = 0, 1, 2, ...  The combination coefficients a_{nq} are integers that grow
like 4^n, and the inner sums cancel heavily, so the series is computed in
exact integer fixed point.  Each weighted sample is rounded once to B bits,
B = ceil(dps log2 10) + 32 with dps = 30 + 0.61 N.  The inner sums
I_n = sum_q a_{nq} w_q F_q are then exact integers, formed once per call.
Per point z only the weights c_n and the partial sums sum c_n I_n remain,
and those are converted to double by correctly rounded integer division.
"""

import math
from operator import mul

import numpy as np

from . import defaults
from .exceptions import DomainError, SingularityError, StructuralError

__all__ = [
    "coeff_a",
    "coeff_c",
    "interpolate_series",
    "decay_estimate",
]


def _a_row(n):
    """The exact integers a_{n0} ... a_{nn} by the ratio recurrence
    a_{n,q+1} = -a_{nq} (n+q+1)(n-q) / (q+1)^2, each quotient exact."""
    row = [1]
    for q in range(n):
        row.append(-row[q] * ((n + q + 1) * (n - q)) // ((q + 1) * (q + 1)))
    return row


def _precision_bits(n_terms):
    """Fixed-point bits B for a series of order n_terms."""
    dps = int(30 + 0.61 * n_terms)
    return math.ceil(dps * math.log2(10)) + 32


def _gaussian(re, im):
    """Exact (a, b, s) with sum(re) + i sum(im) = (a + i b) / 2**s, s >= 0,
    for tuples of finite floats."""
    ratios = [x.as_integer_ratio() for x in re + im]
    den = max(d for _, d in ratios)
    nums = [n * (den // d) for n, d in ratios]
    return sum(nums[:len(re)]), sum(nums[len(re):]), den.bit_length() - 1


def _round_scaled(num, den, shift):
    """Nearest integer to num * 2**shift / den for den > 0 (ties up)."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return (2 * num + den) // (2 * den)


def _floats(nums, shift):
    """Each integer of ``nums`` over 2**shift as a correctly rounded double,
    +-inf beyond the double range."""
    num, den = (1, 1 << shift) if shift >= 0 else (1 << -shift, 1)
    out = []
    for v in nums:
        try:
            out.append(v * num / den)
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    return out


def _c_weights(u, n_max):
    """c_0 ... c_{n_max} of lambda = -i (u - 1/2) in fixed point.

    ``u = i lambda + 1/2`` is exact, (ur, ui, s) as from :func:`_gaussian`;
    c_0 = 1/(1 - u) and c_{k+1} = c_k (2k+3)(k + u) / ((2k+1)(k + 2 - u)).
    Returns the (re, im) integer pairs at scale 2**bits and bits, which is
    B of order n_max plus the bits of |1 - u|, so every c_n carries B bits
    relative to c_0 whatever the size of lambda.
    """
    ur, ui, s = u
    one = 1 << s
    wr, wi = one - ur, -ui
    if wr == 0 and wi == 0:
        raise SingularityError("lambda sits on a pole of c_0")
    bits = _precision_bits(n_max) + max(0, max(abs(wr), abs(wi)).bit_length() - s)
    mod = wr * wr + wi * wi
    cr, ci = _round_scaled(wr, mod, bits + s), _round_scaled(-wi, mod, bits + s)
    out = [(cr, ci)]
    for k in range(n_max):
        ar, dr = k * one + ur, (k + 2) * one - ur
        if dr == 0 and ui == 0:
            raise SingularityError(f"lambda sits on a pole of c_{k + 1}")
        # (k + u) conj(k + 2 - u), with Im(k + 2 - u) = -ui
        pr, pi = ar * dr - ui * ui, ui * dr + ar * ui
        den = (2 * k + 1) * (dr * dr + ui * ui)
        cr, ci = (_round_scaled((cr * pr - ci * pi) * (2 * k + 3), den, 0),
                  _round_scaled((cr * pi + ci * pr) * (2 * k + 3), den, 0))
        out.append((cr, ci))
    return out, bits


def coeff_a(n: int, q: int):
    """Lattice coefficient a_{nq} = (-1)^q (n+q)! / ((q!)^2 (n-q)!).

    Returned as (sign, log magnitude) of the exact integer that the series
    uses; its value is sign * exp(logmag).
    """
    if q < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    if q > n:
        raise DomainError(f"q = {q} exceeds n = {n}")
    a = _a_row(n)[q]
    return (-1 if a < 0 else 1), math.log(abs(a))


def coeff_c(n: int, lam: complex) -> complex:
    """Weight c_n(lambda) = (2n+1) prod (q - 1/2 + i lam) / prod (q + 1/2 - i lam),
    from the series' own fixed-point recurrence (B bits relative to |c_0|),
    rounded to double."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    cs, bits = _c_weights(_gaussian((0.5, -lam.imag), (lam.real,)), n)
    re, im = _floats(cs[n], bits)
    return complex(re, im)


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


def _inner_sums(arr, n_terms, epsilon, z0):
    """Exact I_n = sum_q a_{nq} X_q, n = 0 ... n_terms, for every entry.

    X_q is w_q F_q, w_q = (q + eps - i z0)^-2 (1 when z0 is None), rounded
    once to the integer grid 2**-xs, with xs = B less the binary exponent of
    the largest |w_q F_q|.  Returns the rows [Re I_n, Im I_n per entry] and xs.
    """
    if z0 is None:
        weights = [(1, 0, 1, 0)] * (n_terms + 1)
    else:
        # d_q = q + eps - i z0 = D_q / 2**s exactly, 1/d_q^2 = 2**(2s) conj(D_q)^2 / |D_q|^4
        tr, ti, s = _gaussian((epsilon, z0.imag), (-z0.real,))
        weights = []
        for q in range(n_terms + 1):
            dr = (q << s) + tr
            if dr == 0 and ti == 0:
                raise SingularityError(f"the weight of sample q = {q} has a pole at z0 = {z0}")
            # a weight beyond the doubles makes the partial sums overflow
            if 1 << (2 * s) > int(np.finfo(float).max) * (dr * dr + ti * ti):
                raise DomainError(
                    f"the weight (q + eps - i z0)^-2 of sample q = {q} overflows a double "
                    f"at eps = {epsilon}, z0 = {z0}")
            weights.append((dr * dr - ti * ti, -2 * dr * ti, (dr * dr + ti * ti) ** 2, 2 * s))
    exact = []       # w_q F_q = (nr + i ni) / den * 2**e, entry by entry
    for q, (gr, gi, den, ws) in enumerate(weights):
        for f in arr[q].ravel().tolist():
            fr, fi, fs = _gaussian((f.real,), (f.imag,))
            exact.append((fr * gr - fi * gi, fr * gi + fi * gr, den, ws - fs))
    top = max((max(abs(nr), abs(ni)).bit_length() - den.bit_length() + e
               for nr, ni, den, e in exact if nr or ni), default=0)
    xs = _precision_bits(n_terms) - top
    width = arr.shape[1] * arr.shape[2]
    cols = [[_round_scaled(x[part], x[2], xs + x[3]) for x in exact[k::width]]
            for k in range(width) for part in (0, 1)]
    inner = [[sum(map(mul, a_n, col)) for col in cols]
             for a_n in map(_a_row, range(n_terms + 1))]
    return inner, xs


def _partials_at(inner, cs, shift, with_mags):
    """Partial sums sum_{k<=n} c_k I_k, n = 0 ... N, as a flat list of
    doubles (re, im per entry, n-major), and max |c_n I_n| per n when
    ``with_mags`` (else None)."""
    width = len(inner[0])
    acc = [0] * width
    sums = []
    mags = [] if with_mags else None
    for (cr, ci), row in zip(cs, inner):
        terms = []
        for e in range(0, width, 2):
            ir, ii = row[e], row[e + 1]
            terms += (cr * ir - ci * ii, cr * ii + ci * ir)
        acc = [a + t for a, t in zip(acc, terms)]
        sums += acc
        if with_mags:
            vals = _floats(terms, shift)
            mags.append(max((abs(complex(vals[e], vals[e + 1])) for e in range(0, width, 2)),
                            default=0.0))
    return _floats(sums, shift), mags


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

    ``z`` is a scalar or any array; the value has shape ``shape(z) + (p, p)``
    (``shape(z)`` for scalar samples) and a scalar z is the one-point case.
    The inner sums over the samples are exact integers formed once for all
    z (see the module docstring).  ``truncation='auto'`` stops at the
    term-magnitude minimum instead of the requested order, which is the
    honest choice for noisy samples.  ``return_partials`` adds the partial
    sums: up to the cut for a scalar z, all N + 1 of them, shape
    ``shape(z) + (N + 1, p, p)``, for an array z with fixed truncation.
    """
    if n_terms is None:
        n_terms = defaults.SERIES_ORDER
    epsilon = float(defaults.EPSILON if epsilon is None else epsilon)
    if not np.isfinite(epsilon):
        raise DomainError(f"the offset eps must be finite, got eps = {epsilon}")
    scalar_z = np.ndim(z) == 0
    zs = np.asarray(z, dtype=complex).reshape(-1)
    bad = ~(np.isfinite(zs) & (zs.imag > 0.5 + epsilon))
    if bad.any():
        raise DomainError(
            f"interpolation valid only for finite z with Im z > 1/2 + eps = "
            f"{0.5 + epsilon}, got z = {complex(zs[bad][0])}"
        )
    z0 = complex(z0)
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
    if n_terms < 0:
        raise StructuralError(f"the order must be nonnegative, got {n_terms}")
    if arr.shape[0] < n_terms + 1:
        raise StructuralError(
            f"need {n_terms + 1} samples for order {n_terms}, got {arr.shape[0]}"
        )
    if mode not in ("general", "weyl-dirac", "shifted"):
        raise StructuralError(f"unknown interpolation mode {mode!r}")
    if truncation not in ("fixed", "auto"):
        raise StructuralError(f"unknown truncation policy {truncation!r}")
    if return_partials and truncation == "auto" and not scalar_z:
        raise StructuralError("the partials of an auto-truncated series need a scalar z")
    p = arr.shape[1]

    inner, xs = _inner_sums(arr, n_terms, epsilon,
                            None if mode == "general" else z0 if mode == "shifted" else 0j)
    values = np.empty((zs.size, p, p), dtype=complex)
    all_partials = np.empty((zs.size, n_terms + 1, p, p), dtype=complex)
    cuts = []
    for k, zk in enumerate(zs.tolist()):
        try:
            if mode == "general":
                prefactor = complex(1.0)
            elif mode == "weyl-dirac":
                prefactor = -(zk ** 2)
            else:
                prefactor = -((zk + z0) ** 2)
        except OverflowError:
            raise DomainError(f"the prefactor of the {mode} series overflows at z = {zk}") from None
        # c_n at lambda = z + i/2 - i eps, so u = i lambda + 1/2 = eps + i z
        cs, bits = _c_weights(_gaussian((epsilon, -zk.imag), (zk.real,)), n_terms)
        flat, mags = _partials_at(inner, cs, bits + xs, truncation == "auto")
        # the same (N + 1, p, p) array and product as a one-point call, so
        # numpy's complex multiply rounds every point alike
        partials = np.empty((n_terms + 1, p, p), dtype=complex)
        partials.view(float).reshape(-1)[:] = flat
        partials *= prefactor
        cuts.append(n_terms if mags is None else _auto_cut(mags))
        values[k] = partials[cuts[-1]]
        all_partials[k] = partials
    if scalar_z:
        value, partials = values[0], all_partials[0, : cuts[0] + 1]
    else:
        value = values.reshape(np.shape(z) + (p, p))
        partials = all_partials.reshape(np.shape(z) + (n_terms + 1, p, p))
    if scalar_output:
        value = complex(value[0, 0]) if scalar_z else value[..., 0, 0]
        partials = partials[..., 0, 0]
    if return_partials:
        return value, partials
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
