"""Matrix-valued functions on uniform grids and Hermitian difference kernels."""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, StructuralError

__all__ = ["GridFunction", "DifferenceKernel"]


def _stencil_derivative(values, h):
    """Fourth-order first derivative along axis 0, one-sided at the ends."""
    m = values.shape[0]
    if m < 6:
        raise StructuralError("need at least 6 samples for the derivative stencil")
    out = np.empty_like(values)
    v = values
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12.0 * h)
    # one-sided 4th-order stencils at the two boundary pairs
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    for i in (0, 1):
        out[i] = sum(cj * v[i + j] for j, cj in enumerate(c)) / h
    for i in (m - 2, m - 1):
        out[i] = -sum(cj * v[i - j] for j, cj in enumerate(c)) / h
    return out


@dataclass(frozen=True)
class GridFunction:
    """Samples of a matrix-valued function on a uniform grid.

    ``values`` has shape (M, rows, cols); sample ``m`` sits at
    ``x0 + m * h``.  Node grids use ``x0 = 0``, midpoint grids
    ``x0 = h / 2``.
    """

    h: float
    values: np.ndarray
    x0: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None, None]
        if v.ndim != 3:
            raise StructuralError("values must have shape (M, rows, cols)")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "x0", float(self.x0))
        bad = ~np.isfinite(v).all(axis=(1, 2))
        if bad.any():
            raise StructuralError(
                f"grid values must be finite; the sample at x = {self.xs[bad][0]:.6g} is not"
            )

    @property
    def m(self):
        return self.values.shape[0]

    @property
    def rows(self):
        return self.values.shape[1]

    @property
    def cols(self):
        return self.values.shape[2]

    @property
    def xs(self):
        return self.x0 + self.h * np.arange(self.m)

    @property
    def xmax(self):
        return self.x0 + self.h * (self.m - 1)

    @classmethod
    def from_function(cls, fn, h, m, x0=0.0):
        xs = x0 + h * np.arange(m)
        vals = np.array([np.atleast_2d(np.asarray(fn(x), dtype=complex)) for x in xs])
        return cls(h=h, values=vals, x0=x0)

    def at(self, x):
        """Linear interpolation; constant beyond the sampled range."""
        x = np.asarray(x, dtype=float)
        t = (x - self.x0) / self.h
        lo = np.clip(np.floor(t).astype(int), 0, self.m - 1)
        hi = np.clip(lo + 1, 0, self.m - 1)
        w = np.clip(t - lo, 0.0, 1.0)
        flat = self.values.reshape(self.m, -1)
        out = (1.0 - w)[..., None] * flat[lo] + w[..., None] * flat[hi]
        return out.reshape(x.shape + (self.rows, self.cols))

    def derivative(self):
        """Fourth-order finite-difference derivative on the same grid."""
        return GridFunction(
            h=self.h, values=_stencil_derivative(self.values, self.h), x0=self.x0
        )


@dataclass(frozen=True)
class DifferenceKernel:
    """Midpoint samples of an accelerant k on (0, l].

    Only nonnegative arguments are stored; values at negative arguments
    follow from the Hermitian reflection k(-x) = k(x)*.  Sample ``m`` sits
    at ``(m + 1/2) h``.  A jump at the origin is allowed: evaluation on
    [0, h/2) uses the first sample one-sidedly rather than smearing across
    the reflection.
    """

    p: int
    h: float
    samples: np.ndarray   # (M, p, p)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None, None]
        if s.ndim != 3 or s.shape[1] != self.p or s.shape[2] != self.p:
            raise StructuralError(f"samples must have shape (M, {self.p}, {self.p})")
        if not np.all(np.isfinite(s)):
            raise StructuralError("kernel samples must be finite")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "h", float(self.h))

    @property
    def m(self):
        return self.samples.shape[0]

    @property
    def l(self):
        return self.h * self.m

    @property
    def xs(self):
        return self.h * (np.arange(self.m) + 0.5)

    @classmethod
    def from_function(cls, fn, p, l, h):
        m = int(round(l / h))
        if abs(m * h - l) > 1e-12 * max(1.0, l):
            raise StructuralError("grid step must divide the interval length")
        xs = h * (np.arange(m) + 0.5)
        vals = np.array([np.atleast_2d(np.asarray(fn(x), dtype=complex)) for x in xs])
        return cls(p=p, h=h, samples=vals)

    def _stencil(self, y):
        """Interpolation indices and weight at arguments y >= 0."""
        t = (y - 0.5 * self.h) / self.h
        lo = np.clip(np.floor(t).astype(int), 0, self.m - 1)
        hi = np.clip(lo + 1, 0, self.m - 1)
        return lo, hi, np.clip(t - lo, 0.0, 1.0)

    def _checked_abs(self, x):
        """|x| as a float array; DomainError when it exceeds the stored domain."""
        y = np.abs(np.asarray(x, dtype=float))
        if y.size and y.max() > self.l + 1e-12 * max(1.0, self.l):
            raise DomainError(
                f"kernel argument {y.max():.6g} exceeds stored domain [0, {self.l:.6g}]"
            )
        return y

    def at(self, x):
        """Evaluate k at arbitrary arguments with Hermitian reflection.

        Raises DomainError when |x| exceeds the stored domain.
        """
        x = np.asarray(x, dtype=float)
        lo, hi, w = self._stencil(self._checked_abs(x).ravel())
        flat = self.samples.reshape(self.m, -1)
        vals = (1.0 - w)[:, None] * flat[lo] + w[:, None] * flat[hi]
        vals = vals.reshape(-1, self.p, self.p)
        neg = x.ravel() < 0.0
        if np.any(neg):
            vals[neg] = np.conj(np.transpose(vals[neg], (0, 2, 1)))
        return vals.reshape(x.shape + (self.p, self.p))

    def cumulative(self, y):
        """Antiderivative int_0^y k(t) dt by midpoint panels, vectorized."""
        y = np.asarray(y, dtype=float)
        shape = y.shape
        yf = y.ravel()
        if yf.size and (yf.min() < -1e-12 or yf.max() > self.l + 1e-12 * max(1.0, self.l)):
            raise DomainError("antiderivative argument outside [0, l]")
        prefix = np.zeros((self.m + 1, self.p, self.p), dtype=complex)
        np.cumsum(self.samples * self.h, axis=0, out=prefix[1:])
        idx = np.clip(np.floor(yf / self.h).astype(int), 0, self.m - 1)
        rem = np.clip(yf - idx * self.h, 0.0, self.h)
        out = prefix[idx] + rem[:, None, None] * self.samples[idx]
        return out.reshape(shape + (self.p, self.p))

    def truncated(self, cutoff):
        """Copy with samples zeroed at arguments >= cutoff."""
        vals = self.samples.copy()
        vals[self.xs >= cutoff] = 0.0
        return DifferenceKernel(p=self.p, h=self.h, samples=vals)
