"""Transforms between Weyl functions and accelerant data.

Forward direction: Laplace-type integrals of the amplitude s along the
positive axis give the Weyl function in the upper half-plane.  Inverse
direction: a regularized Fourier integral of phi along a horizontal line
Im z = eta recovers s (and k by differentiation).  The truncated line
integral subtracts the pole model m0 + m1/(zeta + i eta), m0 the value of
phi at infinity fixed by the class of system and m1 fitted at the window
edges, and adds back the model's full-line transforms by residues.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from . import defaults
from ._linalg import MAX_COMPLEX_ENTRIES, eigmin_hermitian, upper_half_plane
from .exceptions import DomainError, StructuralError
from .grids import DifferenceKernel, GridFunction, _stencil_derivative

__all__ = [
    "WeylSampler",
    "weyl_from_amplitude",
    "amplitude_from_weyl",
    "herglotz_check",
]


@dataclass(frozen=True)
class WeylSampler:
    """Callable wrapper around a p x p Weyl function on the upper half-plane.

    ``fn`` takes a 1-D array of z and returns the (k, p, p) stack of values;
    every constructor below builds one that does.  Calling the sampler with
    a scalar z gives the p x p value, with an array of z the stacked values.
    ``source`` records provenance; tabulated samplers are pinned to their
    sampling line Im z = eta and interpolate linearly in the real part.
    """

    fn: object
    p: int
    source: str = "callable"
    eta: float = None
    zeta_range: tuple = field(default=None, repr=False)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        zs = upper_half_plane(z, "a Weyl sampler")
        if self.eta is not None:
            off = np.abs(zs.imag - self.eta) > 1e-9 * max(1.0, self.eta)
            if off.any():
                raise DomainError(
                    f"tabulated sampler is pinned to the line Im z = {self.eta}; "
                    f"z = {zs[off][0]} is off it"
                )
            lo, hi = self.zeta_range
            out = (zs.real < lo - 1e-9) | (zs.real > hi + 1e-9)
            if out.any():
                raise DomainError(
                    f"tabulated sampler queried outside its zeta range at z = {zs[out][0]}"
                )
        vals = np.asarray(self.fn(zs), dtype=complex)
        if vals.size != zs.size * self.p ** 2:
            raise StructuralError(
                f"Weyl function returned shape {vals.shape} for {zs.size} points; "
                f"expected ({zs.size}, {self.p}, {self.p})")
        return vals.reshape(z.shape + (self.p, self.p))

    @classmethod
    def from_weyl_pair(cls, pair):
        return cls(fn=pair.phi, p=pair.p, source="gbdt")

    @classmethod
    def from_table(cls, zetas, values, eta):
        zetas = np.asarray(zetas, dtype=float)
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None, None]
        if zetas.ndim != 1 or values.shape[0] != zetas.size:
            raise StructuralError("need one p x p sample per zeta")
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise StructuralError(
                f"Weyl samples must be square p x p blocks; got "
                f"{' x '.join(map(str, values.shape[1:]))}")
        if zetas.size < 2:
            raise StructuralError("a tabulated sampler needs at least two zetas")
        bad = ~np.isfinite(zetas)
        if bad.any():
            raise StructuralError(
                f"zetas must be finite; the zeta at index {np.argmax(bad)} is not")
        if not 0 < eta < np.inf:
            raise DomainError(f"sampling line must have finite eta > 0, got eta = {eta}")
        order = np.argsort(zetas)
        zetas = zetas[order]
        values = values[order]
        p = values.shape[1]

        def fn(zs):
            zeta = zs.real
            lo = np.clip(np.searchsorted(zetas, zeta, side="right") - 1, 0, zetas.size - 2)
            t = (zeta - zetas[lo]) / (zetas[lo + 1] - zetas[lo])
            t = np.clip(t, 0.0, 1.0)[:, None, None]
            return (1.0 - t) * values[lo] + t * values[lo + 1]

        return cls(
            fn=fn, p=p, source="tabulated", eta=float(eta),
            zeta_range=(float(zetas[0]), float(zetas[-1])),
        )


def _unit_chirp(theta, q):
    """exp(2 pi i f q), f = theta / 2pi rounded once, for whole or half q.

    The phase theta q reaches 1e4-1e7 rad on long lines, where forming it in
    double precision would cost 1e-12-1e-9 in every chirp value.  Instead f
    is split into three parts whose first two times q are exact, and only
    fractional cycles enter exp.  Every q sees the same f, which the
    Bluestein identity needs.
    """
    rest = theta / (2.0 * np.pi)
    bits = 52 - int(np.ceil(np.log2(q.max() + 2.0)))
    cycles = np.zeros_like(q)
    for _ in range(2):
        mant, ex = np.frexp(rest)
        part = np.ldexp(np.round(np.ldexp(mant, bits)), ex - bits)
        cycles += np.modf(part * q)[0]
        rest -= part
    cycles += np.modf(rest * q)[0]
    return np.exp(2j * np.pi * cycles)


def _chirp_z(c, theta, m):
    """Chirp-z transform y_j = sum_n c_n exp(i theta j n), j < m, along axis 0.

    Bluestein's identity jn = (j^2 + n^2 - (j - n)^2) / 2 turns the sum into
    one linear convolution with the chirp exp(-i theta k^2 / 2), done with
    FFTs of a length >= n + m - 1: O((n + m) log(n + m)) work per entry of
    the trailing axes instead of the O(n m) of the direct sum.
    """
    n = c.shape[0]
    length = sp_fft.next_fast_len(n + m - 1)
    k = np.arange(max(n, m), dtype=float)
    chirp = _unit_chirp(theta, 0.5 * k * k)
    tail = (1,) * (c.ndim - 1)
    b = np.zeros(length, dtype=complex)
    b[:m] = chirp[:m].conj()
    b[length - n + 1:] = chirp[n - 1:0:-1].conj()
    spec = sp_fft.fft(c * chirp[:n].reshape((n,) + tail), length, axis=0)
    spec *= sp_fft.fft(b).reshape((length,) + tail)
    return sp_fft.ifft(spec, axis=0, overwrite_x=True)[:m] * chirp[:m].reshape((m,) + tail)


# ---------------------------------------------------------------------------
# forward transforms: amplitude -> Weyl function


def _panel_weights(theta):
    """(A, B) with int_0^1 e^{theta t} ((1 - t) a + t b) dt = A a + B b:
    A = sum_k theta^k / (k + 2)! = (expm1 theta - theta) / theta^2 and
    B = e^theta A(-theta) = sum_k (k + 1) theta^k / (k + 2)!, both bounded by
    1/2 for Re theta <= 0.  The closed forms cancel near 0, so |theta| < 1
    sums 20 terms of the series instead."""
    small = np.abs(theta) < 1.0
    t = np.where(small, 1.0, theta)
    em1 = np.expm1(t)
    a = np.where(small, 0.0, (em1 - t) / (t * t))
    b = np.where(small, 0.0, (t * np.exp(t) - em1) / (t * t))
    term = np.where(small, 0.5 + 0j, 0.0)     # theta^k / (k + 2)!, small theta only
    for k in range(20):
        a += term
        b += (k + 1) * term
        term *= theta / (k + 3)
    return a, b


def _linear_laplace(vals, x0, h, zs):
    """Exact int e^{izx} v(x) dx over [x0, x0 + N h], v the piecewise-linear
    model of the N + 1 samples ``vals``, as a (K, ...) stack for K z.

    Panel j gives h e^{iz x_j} (A v_j + B v_{j+1}) at theta = i z h, so an
    interior node j carries h e^{iz x_{j-1}} (B + e^theta A), which is
    h e^{iz x_{j-1}} (A + B)^2.  Phases at x_{j-1} keep every weight bounded
    for any Im z h, and the interior is summed apart from the two edges.

    For scattered z the m = N - 1 interior phases factor on the uniform grid
    (the baby-step/giant-step split of Paterson and Stockmeyer, 1973): with
    b = floor(sqrt m) and node j = k b + r, e^{iz x_j} = e^{iz(x0 + h b k)}
    e^{izhr}.  That is b + ceil(m / b), about 2 sqrt(N), exponentials per z,
    each computed directly (no recurrence), and O(N) multiply-adds per z and
    matrix entry in two products.  A horizontal line of z is one chirp-z
    transform instead.
    """
    n = vals.shape[0] - 1
    if n == 0:
        return np.zeros((zs.size,) + vals.shape[1:], dtype=complex)
    flat = vals.reshape(n + 1, -1)
    left, right = _panel_weights(1j * h * zs)
    edge = np.exp(1j * zs[:, None] * (x0 + h * np.array([0.0, n - 1.0])))
    step = _line_step(zs) if n > 1 else None
    if step is None:
        # the factored phases above, in cache-sized chunks of z
        m, cols = n - 1, flat.shape[1]
        b = max(1, math.isqrt(m))
        nk = -(-m // b)
        blocks = np.zeros((nk * b, cols), dtype=complex)
        blocks[:m] = flat[1:n]
        blocks = blocks.reshape(nk, b, cols).transpose(1, 0, 2).reshape(b, nk * cols)
        fine = h * np.arange(b)
        coarse = x0 + h * b * np.arange(nk)
        inner = np.empty((zs.size, cols), dtype=complex)
        chunk = max(1, 2 ** 15 // (b + nk * (cols + 1)))
        for i0 in range(0, zs.size, chunk):
            zc = zs[i0:i0 + chunk, None]
            part = (np.exp(1j * zc * fine) @ blocks).reshape(zc.shape[0], nk, cols)
            inner[i0:i0 + chunk] = (np.exp(1j * zc * coarse)[:, None] @ part)[:, 0]
    else:
        # z_k = z_0 + k step: the interior sum is one chirp-z transform
        damp = np.exp(1j * zs[0] * h * np.arange(n - 1))
        inner = edge[:, :1] * _chirp_z(damp[:, None] * flat[1:n], step * h, zs.size)
    out = ((left + right) ** 2)[:, None] * inner
    out += (left * edge[:, 0])[:, None] * flat[0] + (right * edge[:, 1])[:, None] * flat[n]
    return h * out.reshape((zs.size,) + vals.shape[1:])


def _line_step(zs):
    """The real step of ``zs`` when it is a horizontal line of two or more
    equally spaced points (to 16 ulp of max|z|), else None."""
    if zs.size < 2:
        return None
    step = (zs[-1].real - zs[0].real) / (zs.size - 1)
    nominal = zs[0] + step * np.arange(zs.size)
    if np.abs(zs - nominal).max() > 16 * np.finfo(float).eps * np.abs(zs).max():
        return None
    return step


def weyl_from_amplitude(s, z, mode="dirac", d=None, gl_order=None):
    """Weyl function from the amplitude by a truncated Laplace-type integral.

    Modes
    -----
    dirac      phi(z) = 2 z  int e^{izx} s(x)* dx
    canonical  phi(z) = -z D int e^{izx} s(x) dx   (D the negative diagonal)

    ``z`` may be a scalar or an array.  Both modes integrate the
    piecewise-linear model of the samples of ``s`` exactly, panel by panel
    in closed form (Filon's rule).  On the uniform grid the phases factor,
    so K scattered points cost K (B + N / B) exponentials with B near
    sqrt(N), about 2 K sqrt(N), and O(K N) multiply-adds per matrix entry
    for N panels.  When the flattened ``z`` is a uniform horizontal line
    (Im z constant, constant real step) the sum over nodes is one chirp-z
    transform, O((K + N) log(K + N)) per matrix entry.  ``gl_order`` is
    accepted but no longer changes the result.

    Scattered ``z`` are not split bit for bit: the factored sum groups them
    into matrix products whose shapes depend on the batch, so one array
    call and calls on parts of it differ in summation order.  They agree to
    4e-15 relative to the batch's largest |phi| entry; the worst of 3000
    random splits (up to 40 points, up to 300 panels) was 2.8e-15.
    """
    zs = upper_half_plane(z, "weyl_from_amplitude")
    d = _amplitude_weights(mode, d)
    if mode == "canonical":
        vals = s.values
        pref = -zs
    else:
        vals = np.conj(np.swapaxes(s.values, 1, 2))
        pref = 2.0 * zs
    out = pref[:, None, None] * _linear_laplace(vals, s.x0, s.h, zs)
    if mode == "canonical":
        out *= d[:, None]
    if np.ndim(z) == 0:
        return out[0]
    return out.reshape(np.shape(z) + out.shape[1:])


def _amplitude_weights(mode, d):
    """The weight diagonal of a transform ``mode``, checked once for both
    directions: d as a 1-D float array (all finite and negative) for
    canonical mode, None for dirac."""
    if mode == "dirac":
        return None
    if mode != "canonical":
        raise StructuralError(f"unknown amplitude mode {mode!r}")
    if d is None:
        raise StructuralError("canonical mode needs the weight diagonal d")
    d = np.asarray(d, dtype=float).reshape(-1)
    if not np.all(np.isfinite(d) & (d < 0.0)):
        raise DomainError(f"canonical mode requires finite negative D entries, got d = {d}")
    return d


# ---------------------------------------------------------------------------
# inverse transform: Weyl function -> amplitude


def _pole_transform(n, x, eta):
    """Full-line integral of e^{-i zeta x} (zeta + i eta)^-n over zeta, x >= 0.

    Residue calculus at the pole -i eta in the lower half-plane gives
    -2 pi i (-i x)^{n-1} e^{-eta x} / (n-1)! for x > 0; at x = 0 the
    one-sided limit contributes half of the n = 1 value.
    """
    x = np.asarray(x, dtype=float)
    out = (-2j * np.pi) * (-1j * x) ** (n - 1) * np.exp(-eta * x)
    for k in range(2, n):
        out = out / k
    if n == 1:
        out = np.where(x == 0.0, -1j * np.pi, out)
    else:
        out = np.where(x == 0.0, 0.0, out)
    return out


def amplitude_from_weyl(
    phi,
    eta=None,
    a=None,
    h=None,
    xmax=None,
    mode="canonical",
    d=None,
    dzeta=None,
):
    """Recover the amplitude s and the accelerant k from Weyl samples.

    The line integral over Im z = eta is a trapezoid rule on [-a, a]
    (half-weight endpoints).  The slowly decaying pole model
    m0 + m1/(zeta + i eta) is subtracted from the integrand and its exact
    full-line transform added back: m0 is the value of the integrand
    numerator at infinity that the class of system fixes ((i/2)|D| for
    canonical systems, i I for the Dirac branch) and m1 is estimated from
    the window edges.  This removes both the truncation tail and the cutoff
    ringing that would otherwise contaminate the differentiated accelerant.
    ``phi`` is sampled on the whole line in one call, and both grids being
    uniform, the sum is one chirp-z transform: O((Z + X) log(Z + X)) per
    matrix entry for Z zetas and X positions.

    Returns (s, k, report): s on the node grid of [0, xmax] with
    s(0) = I/2 enforced, k on the midpoint grid, and a report carrying the
    effective parameters and an empirical tail estimate.  A window or grid
    parameter that is not finite and positive, or a quotient xmax / h or
    a / dzeta too large for a numpy array, raises DomainError before
    ``phi`` is sampled; so does an eta at which the envelope e^{eta xmax}
    (and the pole transforms' e^{-eta x}) or the pole model's largest term
    m1 / (i eta)^(order + 1), order 1 canonical and 2 dirac, would leave less
    than a factor eps of room below the largest double for the sums and
    derivatives that follow.
    """
    if eta is None:
        eta = defaults.ETA
    if a is None:
        a = defaults.FOURIER_CUTOFF
    if h is None:
        h = defaults.GRID_STEP
    if xmax is None:
        xmax = defaults.XMAX
    if dzeta is None:
        dzeta = defaults.FOURIER_DZETA
    for what, name, value in (("the sampling line", "eta", eta), ("the cutoff", "a", a),
                              ("the grid step", "h", h), ("the grid", "xmax", xmax),
                              ("the trapezoid step", "dzeta", dzeta)):
        if not 0 < value < np.inf:
            raise DomainError(f"{what} needs finite {name} > 0, got {name} = {value}")
    for quotient, num, den in (("xmax / h", xmax, h), ("a / dzeta", a, dzeta)):
        ratio = float(num) / float(den)
        if not ratio < MAX_COMPLEX_ENTRIES:
            raise DomainError(
                f"{quotient} = {num} / {den} = {ratio:.6g}: more grid points than "
                f"a numpy array can hold ({MAX_COMPLEX_ENTRIES:.3g})")
    d = _amplitude_weights(mode, d)
    # the integrand is the residual over (zeta + i eta)^order; m1 is of the size
    # a of the window edge it is fitted at
    order = 1 if mode == "canonical" else 2
    room = math.log(np.finfo(float).eps * np.finfo(float).max)
    lo, hi = math.exp((math.log(a) - room) / (order + 1)), room / xmax
    if not lo <= eta <= hi:
        raise DomainError(
            f"the sampling line needs (a / (eps max double))^(1/{order + 1}) = {lo:.6g} "
            f"<= eta <= log(eps max double) / xmax = {hi:.6g} in {mode} mode, "
            f"got eta = {eta}")
    p = None if d is None else d.size
    m = int(round(xmax / h))
    if abs(m * h - xmax) > 1e-9:
        raise StructuralError("grid step must divide xmax")

    n_side = max(1, int(round(a / dzeta)))
    zetas = np.linspace(-a, a, 2 * n_side + 1)
    dz = zetas[1] - zetas[0]
    weights = np.full(zetas.size, dz)
    weights[0] *= 0.5
    weights[-1] *= 0.5

    zw = zetas + 1j * eta
    samples = np.asarray(phi(zw), dtype=complex)
    q = getattr(phi, "p", None) or (samples.shape[-1] if samples.ndim > 1 else 1)
    if p is None:
        p = q
    elif q != p:
        raise StructuralError(
            f"the weight diagonal d has {p} entries but the Weyl samples are {q} x {q}")
    if samples.size != zetas.size * p * p:
        raise StructuralError(
            f"Weyl function returned shape {samples.shape} for {zetas.size} points; "
            f"expected ({zetas.size}, {p}, {p})")
    samples = samples.reshape(zetas.size, p, p)
    bad = ~np.isfinite(samples).all(axis=(1, 2))
    if bad.any():
        raise StructuralError(
            f"Weyl samples must be finite; the sample at zeta = {zetas[bad][0]:.6g} "
            f"(z = {zw[bad][0]}) is not"
        )

    if mode == "canonical":
        base = np.einsum("ab,kbc->kac", np.diag(1.0 / np.abs(d)), samples)
        m0 = 0.5j * np.eye(p)             # |D|^-1 phi_inf for phi_inf = (i/2)|D|
        prefactor = 1.0 / (2.0 * np.pi)
    else:
        base = samples
        m0 = 1j * np.eye(p)
        prefactor = 1j / (4.0 * np.pi)

    # first-order asymptotic coefficient of base(zeta) ~ m0 + m1 / (zeta + i eta),
    # estimated from the two edges of the sampled window
    m1 = 0.5 * ((base[-1] - m0) * zw[-1] + (base[0] - m0) * zw[0])
    resid = base - m0[None] - m1[None] / zw[:, None, None]
    integrand = resid / (zw ** order)[:, None, None]

    half = h / 2.0
    xs = half * np.arange(2 * m + 1)

    # x_j = j h/2 and zeta_n = zeta_0 + n step make the sum over zeta one
    # chirp-z transform; the pole model's exact full-line transforms are
    # added back
    step = (zetas[-1] - zetas[0]) / (zetas.size - 1)
    core = np.exp(-1j * zetas[0] * xs)[:, None, None] * _chirp_z(
        weights[:, None, None] * integrand, -half * step, xs.size)
    core += _pole_transform(order, xs, eta)[:, None, None] * m0[None]
    core += _pole_transform(order + 1, xs, eta)[:, None, None] * m1[None]

    envelope = np.exp(eta * xs)[:, None, None]
    if mode == "canonical":
        s_comb = prefactor * envelope * core
    else:
        g_comb = prefactor * envelope * core
        ds = _stencil_derivative(g_comb, half)
        s_comb = np.conj(np.transpose(ds, (0, 2, 1)))

    # the one-sided transform converges to half the jump at x = 0; snap the
    # known boundary value before differentiating
    s_comb[0] = 0.5 * np.eye(p)
    s_vals = s_comb[::2].copy()
    s_grid = GridFunction(h=h, values=s_vals, x0=0.0)

    dsdx = _stencil_derivative(s_comb, half)
    k_vals = dsdx[1::2]
    if mode == "canonical":
        k_vals = np.einsum("ab,kbc->kac", np.diag(np.abs(d)), k_vals)
    kernel = DifferenceKernel(p=p, h=h, samples=k_vals)

    edge = float(np.linalg.norm(resid[-1], 2) + np.linalg.norm(resid[0], 2))
    tail_estimate = float(edge * np.exp(eta * xmax) / (np.pi * max(a, 1.0)))
    report = {
        "mode": mode,
        "eta": float(eta),
        "a": float(a),
        "dzeta": float(dz),
        "h": float(h),
        "xmax": float(xmax),
        "tail_estimate": tail_estimate,
        "warnings": (["truncation a may be too small for the requested accuracy"]
                     if tail_estimate > 1e-3 else []),
    }
    return s_grid, kernel, report


# ---------------------------------------------------------------------------
# Herglotz validation


def herglotz_check(phi, grid):
    """Sample Im phi over a grid in the open upper half-plane.

    Reports the smallest eigenvalue of (phi - phi*) / 2i over the grid
    (pass iff >= -IDENTITY_TOL) and the sup of ||phi(z) / z^2|| as a quadratic
    integrability proxy.
    """
    grid = [complex(z) for z in upper_half_plane(grid, "herglotz_check")]
    if not grid:
        raise StructuralError("herglotz_check needs a nonempty grid")
    eigmin = np.inf
    decay = 0.0
    argmin = None
    for z in grid:
        val = np.atleast_2d(phi(z))
        em = eigmin_hermitian((val - val.conj().T) / 2j)
        if em < eigmin:
            eigmin, argmin = em, z
        decay = max(decay, float(np.linalg.norm(val / z ** 2, 2)))
    return {
        "passed": bool(eigmin >= -defaults.IDENTITY_TOL),
        "imag_part_min": float(eigmin),
        "worst_z": argmin,
        "quadratic_decay_sup": decay,
        "points": len(grid),
    }
