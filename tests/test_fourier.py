import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weylkit as wk
from weylkit.fourier import (
    WeylSampler,
    _chirp_z,
    _line_step,
    _panel_weights,
    _pole_transform,
    _unit_chirp,
    amplitude_from_weyl,
    herglotz_check,
    weyl_from_amplitude,
)
from weylkit.grids import DifferenceKernel, GridFunction

from conftest import GAUSS_D, gauss_kernel, make_params


def const_half_grid(p=1, xmax=40.0, h=1 / 64):
    m = int(round(xmax / h)) + 1
    vals = np.tile(0.5 * np.eye(p)[None], (m, 1, 1))
    return GridFunction(h=h, values=vals, x0=0.0)


def smooth_grid(xmax=30.0, h=1 / 128):
    return GridFunction.from_function(
        lambda x: (0.5 + 0.3 * np.exp(-x * x)) * np.eye(1), h=h,
        m=int(round(xmax / h)) + 1)


def gauss_amplitude_grid(xmax=20.0, h=1 / 128):
    """s = I/2 + |D|^-1 int k for the Gaussian-damped Hermitian kernel."""
    kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=xmax, h=h)
    xs = np.arange(int(round(xmax / h)) + 1) * h
    absd_inv = np.diag(1.0 / np.abs(GAUSS_D))
    vals = 0.5 * np.eye(2)[None] + np.einsum("ab,kbc->kac", absd_inv,
                                             kern.cumulative(xs))
    return GridFunction(h=h, values=vals, x0=0.0), kern


def model_integral(coefs, x0, h, zs, order):
    """h sum_j int_0^1 e^{iz(x_j + h t)} sum_m coefs[m][j] t^m dt over the
    panels j of a piecewise-polynomial model, by Gauss-Legendre with
    ``order`` nodes per panel."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (gx + 1.0), 0.5 * gw
    xs = x0 + h * (np.arange(coefs[0].shape[0])[:, None] + t)
    model = sum(c[:, None] * (t ** m)[:, None, None] for m, c in enumerate(coefs))
    phases = np.exp(1j * zs[:, None, None] * xs) * w
    return h * np.einsum("knq,nqab->kab", phases, model)


def reference_weyl(sg, zs, mode, d=None, order=16):
    """weyl_from_amplitude's two modes from the dense model integral of the
    piecewise-linear s."""
    v = sg.values
    if mode == "canonical":
        lin = model_integral([v[:-1], v[1:] - v[:-1]], sg.x0, sg.h, zs, order)
        return -zs[:, None, None] * np.asarray(d)[:, None] * lin
    vs = np.conj(np.swapaxes(v, 1, 2))
    lin = model_integral([vs[:-1], vs[1:] - vs[:-1]], sg.x0, sg.h, zs, order)
    return 2.0 * zs[:, None, None] * lin


def wavy_grid(xmax, h=1 / 8, x0=0.0):
    """A smooth non-Hermitian 2 x 2 amplitude that does not decay, on
    [x0, x0 + xmax]."""
    xs = x0 + np.arange(int(round(xmax / h)) + 1) * h
    vals = 0.5 * np.eye(2)[None] + np.stack([
        np.stack([np.cos(3 * xs), 0.4j * np.sin(xs)], -1),
        np.stack([0.2 * xs, np.exp(-xs) + 0.1j], -1)], 1)
    return GridFunction(h=h, values=vals, x0=x0)


class TestForward:
    def test_constant_amplitude_dirac(self):
        s = const_half_grid()
        # Im z h = 1562 at z = 1e5 i, where e^{Im z h} would overflow
        for z in (1j, 2j, 0.5 + 1.5j, 1e5j):
            np.testing.assert_allclose(weyl_from_amplitude(s, z, mode="dirac"),
                                       1j * np.eye(1), atol=1e-9)

    def test_constant_amplitude_canonical(self):
        s = const_half_grid()
        val = weyl_from_amplitude(s, 1.3j, mode="canonical", d=[-2.0])
        np.testing.assert_allclose(val, 1j * np.eye(1), atol=1e-9)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(wk.DomainError):
            weyl_from_amplitude(const_half_grid(), 1.0 - 0.5j, mode="dirac")

    def test_nan_z_rejected(self):
        for z in (complex(np.nan, 1.0), complex(1.0, np.nan), complex(np.inf, 1.0)):
            with pytest.raises(wk.DomainError, match="finite z"):
                weyl_from_amplitude(const_half_grid(), np.array([1j, z]), mode="dirac")

    def test_canonical_needs_weights(self):
        with pytest.raises(wk.StructuralError):
            weyl_from_amplitude(const_half_grid(), 1j, mode="canonical")

    @pytest.mark.parametrize("mode", ["laplace", "chi"])
    def test_rejects_unknown_mode(self, mode):
        # both directions share one check of the mode
        phi = WeylSampler.from_constant(1j * np.eye(1))
        with pytest.raises(wk.StructuralError, match=f"unknown amplitude mode '{mode}'"):
            weyl_from_amplitude(smooth_grid(xmax=10.0), 1j, mode=mode)
        with pytest.raises(wk.StructuralError, match=f"unknown amplitude mode '{mode}'"):
            amplitude_from_weyl(phi, mode=mode)

    def test_batch_evaluation_matches_scalar(self):
        s = smooth_grid(xmax=10.0)
        zs = np.array([1j, 2j, 1 + 1j])
        batch = weyl_from_amplitude(s, zs, mode="dirac")
        for i, z in enumerate(zs):
            np.testing.assert_allclose(batch[i], weyl_from_amplitude(s, z, mode="dirac"),
                                       atol=1e-14)

    @pytest.mark.parametrize("mode", ["dirac", "canonical"])
    def test_uniform_line_matches_dense_path(self, mode):
        # a uniform line takes the chirp-z path; scalar z take the direct sum
        sg, _ = gauss_amplitude_grid(xmax=10.0, h=1 / 64)
        zs = np.linspace(40.0, -40.0, 1601) + 0.8j
        d = GAUSS_D if mode == "canonical" else None
        fast = weyl_from_amplitude(sg, zs, mode=mode, d=d)
        dense = np.array([weyl_from_amplitude(sg, z, mode=mode, d=d) for z in zs[::40]])
        assert np.abs(fast[::40] - dense).max() <= 1e-10 * np.abs(dense).max()
        grid = weyl_from_amplitude(sg, zs[:1600].reshape(40, 40), mode=mode, d=d)
        assert grid.shape == (40, 40, 2, 2)
        assert np.abs(grid.reshape(1600, 2, 2) - fast[:1600]).max() \
            <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("mode", ["dirac", "canonical"])
    def test_exact_for_the_model(self, mode):
        # |z h| <= 2, where 16 nodes per panel resolve the model to roundoff;
        # the line takes the chirp-z path, the scattered points the direct sum
        sg = wavy_grid(xmax=4.0)
        d = GAUSS_D if mode == "canonical" else None
        rng = np.random.default_rng(3)
        scattered = rng.uniform(-12.0, 12.0, 40) + 1j * rng.uniform(0.05, 8.0, 40)
        line = np.linspace(-15.0, 15.0, 301) + 0.5j
        for zs in (scattered, line):
            ref = reference_weyl(sg, zs, mode, d)
            got = weyl_from_amplitude(sg, zs, mode=mode, d=d)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("mode", ["dirac", "canonical"])
    def test_large_imaginary_part_has_no_cancellation(self, mode):
        # Im z h up to 20: every weight stays bounded and no sum is formed
        # and then reduced by its edge terms
        sg = wavy_grid(xmax=4.0)
        d = GAUSS_D if mode == "canonical" else None
        scattered = np.array([-40.0, 0.0, 25.0]) + 1j * np.array([[8.0], [40.0], [160.0]])
        line = np.linspace(-30.0, 30.0, 121) + 160.0j
        for zs in (scattered.ravel(), line):
            ref = reference_weyl(sg, zs, mode, d, order=24)
            got = weyl_from_amplitude(sg, zs, mode=mode, d=d)
            assert np.all(np.abs(got - ref).max(axis=(1, 2))
                          <= 1e-13 * np.abs(ref).max(axis=(1, 2)))

    @pytest.mark.parametrize("x0", [0.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 100, 1025])
    def test_factored_sum_exact_for_the_model(self, n, x0):
        # n - 1 interior nodes: none, square and non-square counts, and a
        # ragged last coarse block; scattered z take the factored sum
        sg = wavy_grid(n / 8, x0=x0)
        assert sg.m == n + 1
        rng = np.random.default_rng(n)
        zs = rng.uniform(-12.0, 12.0, 40) + 1j * rng.uniform(0.05, 8.0, 40)
        for mode in ("dirac", "canonical"):
            d = GAUSS_D if mode == "canonical" else None
            ref = reference_weyl(sg, zs, mode, d)
            got = weyl_from_amplitude(sg, zs, mode=mode, d=d)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 17])
    def test_factored_sum_shapes(self, n):
        sg = wavy_grid(n / 8, x0=0.3)
        zs = np.array([[1j, 2.0 + 1j, -1.0 + 0.5j], [0.2j, 3.0 + 2j, 1.5 + 0.1j]])
        ref = reference_weyl(sg, zs.ravel(), "dirac")
        grid = weyl_from_amplitude(sg, zs, mode="dirac")
        assert grid.shape == (2, 3, 2, 2)
        assert np.abs(grid.reshape(6, 2, 2) - ref).max() <= 1e-12 * np.abs(ref).max()
        one = weyl_from_amplitude(sg, zs[1, 2], mode="dirac")
        assert one.shape == (2, 2)
        assert np.abs(one - ref[5]).max() <= 1e-12 * np.abs(ref[5]).max()
        for mode in ("dirac", "canonical"):
            none = weyl_from_amplitude(sg, np.zeros(0, dtype=complex), mode=mode, d=GAUSS_D)
            assert none.shape == (0, 2, 2)

    def test_one_sample_grid_gives_zero(self):
        sg = GridFunction(h=0.1, values=0.5 * np.eye(2)[None], x0=0.0)
        for mode in ("dirac", "canonical"):
            vals = weyl_from_amplitude(sg, np.array([1j, 2.0 + 1j]), mode=mode, d=GAUSS_D)
            assert vals.shape == (2, 2, 2) and not vals.any()

    def test_panel_weights_against_mpmath(self):
        # both sides of the |theta| = 1 switch, in every direction; the
        # interior weight (A + B)^2 is exact relative to (|A| + |B|)^2
        mags = np.concatenate([np.geomspace(1e-9, 300.0, 40), [1 - 1e-9, 1.0, 1 + 1e-9]])
        theta = (mags[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)).ravel()
        a, b = _panel_weights(theta)
        with mpmath.workdps(40):
            for th, ai, bi in zip(theta, a, b):
                t = mpmath.mpc(th)
                ea = (mpmath.expm1(t) - t) / t ** 2
                eb = (t * mpmath.exp(t) - mpmath.expm1(t)) / t ** 2
                assert abs(ai - complex(ea)) <= 1e-15 * abs(ea)
                assert abs(bi - complex(eb)) <= 1e-15 * abs(eb)
                inner = (mpmath.expm1(t) / t) ** 2
                assert abs((ai + bi) ** 2 - complex(inner)) <= 1e-15 * (abs(ea) + abs(eb)) ** 2


def random_amplitude(draw):
    """A random amplitude grid (n <= 300 panels, p <= 2) and the generator
    that drew it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    p = draw(st.integers(1, 2))
    h = draw(st.sampled_from([1 / 64, 1 / 16, 0.1, 0.25]))
    x0 = draw(st.floats(0.0, 2.0))
    vals = rng.normal(size=(n + 1, p, p)) + 1j * rng.normal(size=(n + 1, p, p))
    return GridFunction(h=h, values=vals, x0=x0), rng


@st.composite
def amplitude_lines(draw):
    """A random amplitude grid and a uniform horizontal line of 3 to 200
    points."""
    sg, rng = random_amplitude(draw)
    k = draw(st.integers(3, 200))
    start = draw(st.floats(-20.0, 20.0))
    step = draw(st.floats(0.01, 0.2)) * draw(st.sampled_from([-1.0, 1.0]))
    eta = draw(st.floats(0.05, 5.0))
    line = start + step * np.arange(k) + 1j * eta
    return sg, line, rng.permutation(k)


@st.composite
def split_batches(draw):
    """A random amplitude grid, 2 to 40 scattered z and the cut points of a
    split of them into consecutive parts (single points included)."""
    sg, rng = random_amplitude(draw)
    k = draw(st.integers(2, 40))
    zs = rng.uniform(-20.0, 20.0, k) + 1j * rng.uniform(0.05, 5.0, k)
    cuts = draw(st.sets(st.integers(1, k - 1), min_size=1))
    return sg, zs, sorted(cuts)


class TestRouteProperties:
    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(amplitude_lines(), st.sampled_from(["dirac", "canonical"]))
    def test_line_route_matches_scattered_route(self, case, mode):
        # the line takes the chirp-z transform; shuffled, the same points
        # take the factored sum
        sg, line, order = case
        if _line_step(line[order]) is not None:
            order = np.roll(order, 1)
        assert _line_step(line) is not None and _line_step(line[order]) is None
        d = -1.0 - np.arange(sg.values.shape[1]) if mode == "canonical" else None
        on_line = weyl_from_amplitude(sg, line, mode=mode, d=d)[order]
        scattered = weyl_from_amplitude(sg, line[order], mode=mode, d=d)
        assert np.abs(scattered - on_line).max() <= 1e-12 * np.abs(on_line).max()

    @seed(20261020)
    @settings(max_examples=40, deadline=None, database=None)
    @given(split_batches(), st.sampled_from(["dirac", "canonical"]))
    def test_batch_split_within_documented_bound(self, case, mode):
        # scattered z are not split bit for bit; weyl_from_amplitude's
        # docstring states the 4e-15 bound held here
        sg, zs, cuts = case
        d = -1.0 - np.arange(sg.values.shape[1]) if mode == "canonical" else None
        whole = weyl_from_amplitude(sg, zs, mode=mode, d=d)
        parts = np.concatenate([weyl_from_amplitude(sg, part, mode=mode, d=d)
                                for part in np.split(zs, cuts)])
        assert np.abs(parts - whole).max() <= 4e-15 * np.abs(whole).max()


class TestChirpZ:
    @pytest.mark.parametrize("n, m", [(9, 9), (7, 20), (40, 5)])
    def test_against_direct_sum(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        c = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
        theta = -0.37
        phases = np.exp(1j * theta * np.outer(np.arange(m), np.arange(n)))
        direct = np.einsum("jn,nab->jab", phases, c)
        np.testing.assert_allclose(_chirp_z(c, theta, m), direct, rtol=0,
                                   atol=1e-13 * np.abs(c).sum())

    def test_chirp_phase_reduced_exactly(self):
        # theta q reaches 5e7 rad here, where the double-precision product
        # theta * q would be off by about 1e-8
        theta = 0.05 / 512
        f = theta / (2.0 * np.pi)
        q = 0.5 * np.array([0.0, 3.0, 12345.0, 2.0 ** 19 + 1, 2.0 ** 20 - 3]) ** 2
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.expj(2 * mpmath.pi * mpmath.mpf(f) * mpmath.mpf(v)))
                            for v in q])
        assert np.abs(_unit_chirp(theta, q) - ref).max() < 1e-14
        assert np.abs(np.exp(1j * theta * q) - ref).max() > 1e-10


class TestPoleTransform:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_against_dense_quadrature(self, order):
        eta, x = 1.0, 0.7
        zetas = np.linspace(-4000.0, 4000.0, 1600001)
        vals = np.exp(-1j * zetas * x) / (zetas + 1j * eta) ** order
        numeric = np.trapezoid(vals, zetas)
        exact = _pole_transform(order, np.array([x]), eta)[0]
        assert abs(numeric - exact) < 5e-3 if order == 1 else 1e-6


class TestInverse:
    def test_free_dirac_recovers_half_identity(self):
        phi = WeylSampler.from_constant(1j * np.eye(1))
        s, k, rep = amplitude_from_weyl(phi, eta=1.0, a=200.0, h=1 / 256,
                                        xmax=2.0, mode="dirac")
        assert np.abs(s.values - 0.5).max() < 1e-3
        assert np.abs(k.samples).max() < 1e-3
        assert rep["tail_estimate"] < 1e-6

    def test_canonical_round_trip_gaussian(self):
        sg, kern = gauss_amplitude_grid()
        eta, a, h = 1.0, 200.0, 1 / 256
        nside = int(round(a / 0.05))
        zetas = np.linspace(-a, a, 2 * nside + 1)
        phiv = weyl_from_amplitude(sg, zetas + 1j * eta, mode="canonical",
                                   d=GAUSS_D, gl_order=8)
        samp = WeylSampler.from_table(zetas, phiv, eta=eta)
        s_rec, k_rec, _ = amplitude_from_weyl(samp, eta=eta, a=a, h=h, xmax=2.0,
                                              mode="canonical", d=GAUSS_D)
        k_true = np.array([gauss_kernel(x) for x in k_rec.xs])
        rel = np.linalg.norm((k_rec.samples - k_true).ravel()) \
            / np.linalg.norm(k_true.ravel())
        assert rel < 1e-2

    def test_linearity(self):
        # with m0 fixed by the mode the transform is affine in phi, so
        # s(phi1) + s(phi2) - s(phi1 + phi2 - iI) = s(iI)
        phi1 = WeylSampler.from_weyl_pair(wk.weyl_pair(make_params(2, 1, seed=71)))
        phi2 = WeylSampler.from_weyl_pair(wk.weyl_pair(make_params(3, 1, seed=72)))
        both = WeylSampler(fn=lambda z: phi1(z) + phi2(z) - 1j, p=1)
        const = WeylSampler.from_constant(1j * np.eye(1))
        for mode, d in (("dirac", None), ("canonical", [-2.0])):
            kw = dict(eta=1.0, a=100.0, h=1 / 64, xmax=1.0, mode=mode, d=d)
            s1, s2, s12, s0 = (amplitude_from_weyl(f, **kw)[0].values
                               for f in (phi1, phi2, both, const))
            # s(0) is snapped to I/2 in each output, so compare away from 0
            gap = s1[1:] + s2[1:] - s12[1:] - s0[1:]
            assert np.abs(gap).max() <= 1e-12 * np.abs(s0[1:]).max()

    def test_against_dense_reference_sum(self):
        prm = make_params(2, 2, seed=61)
        samp = WeylSampler.from_weyl_pair(wk.weyl_pair(prm))
        eta, a, dzeta = 1.0, 40.0, 0.05
        s, _, _ = amplitude_from_weyl(samp, eta=eta, a=a, h=1 / 32, xmax=1.0,
                                      mode="canonical", d=prm.d, dzeta=dzeta)
        # trapezoid sum of e^{-i zeta x} r(zeta) / (zeta + i eta), r the
        # residual of |D|^-1 phi after the edge-fitted pole model
        # m0 + m1 / (zeta + i eta), plus the model's full-line transform
        zetas = np.linspace(-a, a, 2 * int(round(a / dzeta)) + 1)
        w = np.full(zetas.size, zetas[1] - zetas[0])
        w[[0, -1]] *= 0.5
        zw = zetas + 1j * eta
        base = np.array([np.diag(1.0 / np.abs(prm.d)) @ samp(z) for z in zw])
        m0 = 0.5j * np.eye(2)
        m1 = 0.5 * ((base[-1] - m0) * zw[-1] + (base[0] - m0) * zw[0])
        resid = (base - m0 - m1 / zw[:, None, None]) / zw[:, None, None]
        xs = s.xs[1:]
        ref = np.einsum("jn,nab->jab", np.exp(-1j * np.outer(xs, zetas)) * w, resid)
        ref += _pole_transform(1, xs, eta)[:, None, None] * m0
        ref += _pole_transform(2, xs, eta)[:, None, None] * m1
        ref *= (np.exp(eta * xs) / (2.0 * np.pi))[:, None, None]
        assert np.abs(s.values[1:] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_eta_must_be_positive(self):
        with pytest.raises(wk.DomainError):
            amplitude_from_weyl(WeylSampler.from_constant(1j * np.eye(1)), eta=0.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_eta_must_be_finite(self, eta):
        with pytest.raises(wk.DomainError, match="finite eta > 0"):
            amplitude_from_weyl(WeylSampler.from_constant(1j * np.eye(1)), eta=eta)

    def test_small_cutoff_warns(self):
        # the tail estimate reads about 0.07 at a = 5 and 5e-7 at a = 200
        prm = make_params(2, 1, seed=77)
        samp = WeylSampler.from_weyl_pair(wk.weyl_pair(prm))
        kw = dict(eta=1.0, h=1 / 64, xmax=2.0, mode="canonical", d=prm.d)
        _, _, short = amplitude_from_weyl(samp, a=5.0, **kw)
        assert short["tail_estimate"] > 1e-3
        assert short["warnings"] == ["truncation a may be too small for the requested accuracy"]
        _, _, wide = amplitude_from_weyl(samp, a=200.0, **kw)
        assert 0 < wide["tail_estimate"] < 1e-3
        assert wide["warnings"] == []

    @pytest.mark.parametrize("name", ["a", "h", "xmax", "dzeta"])
    @pytest.mark.parametrize("value", [0.0, -5.0, np.nan, np.inf, "huge"])
    def test_window_and_grid_must_be_finite_positive(self, name, value):
        # checked before the Weyl function is sampled; "huge" makes the
        # parameter's grid quotient xmax / h or a / dzeta overflow (h or
        # dzeta 1e-310) or exceed any numpy array (a or xmax 1e300)
        def phi(z):
            raise AssertionError("phi sampled before the parameters were checked")

        if value == "huge":
            value = 1e-310 if name in ("h", "dzeta") else 1e300
            match = "more grid points than a numpy array can hold"
        else:
            match = f"finite {name} > 0, got {name} = {value}"
        with pytest.raises(wk.DomainError, match=match):
            amplitude_from_weyl(WeylSampler(fn=phi, p=1), mode="dirac", **{name: value})

    def test_eta_independence(self):
        sg, _ = gauss_amplitude_grid()
        a = 200.0
        nside = int(round(a / 0.05))
        zetas = np.linspace(-a, a, 2 * nside + 1)
        recs = []
        for eta in (1.0, 2.0):
            phiv = weyl_from_amplitude(sg, zetas + 1j * eta, mode="canonical",
                                       d=GAUSS_D, gl_order=8)
            samp = WeylSampler.from_table(zetas, phiv, eta=eta)
            _, k_rec, _ = amplitude_from_weyl(samp, eta=eta, a=a, h=1 / 256,
                                              xmax=2.0, mode="canonical", d=GAUSS_D)
            recs.append(k_rec.samples)
        scale = np.linalg.norm(np.array([gauss_kernel(x) for x in
                                         np.arange(0.5, 512) / 256]).ravel())
        assert np.linalg.norm((recs[0] - recs[1]).ravel()) / scale < 2e-2

    def test_value_at_infinity_canonical(self):
        sg, _ = gauss_amplitude_grid()
        errs = []
        for R in (10.0, 100.0, 1000.0):
            val = weyl_from_amplitude(sg, 1j * R, mode="canonical", d=GAUSS_D)
            errs.append(np.linalg.norm(val - 0.5j * np.diag(np.abs(GAUSS_D)), 2))
        assert errs[0] < 1.0 and errs[2] < errs[0] / 50.0
        assert errs[2] * 1000.0 < 10.0     # residual <= C / R


class TestSampler:
    def test_tabulated_pins_line_and_range(self):
        zetas = np.linspace(-5, 5, 11)
        vals = np.tile(1j * np.eye(1)[None], (11, 1, 1))
        samp = WeylSampler.from_table(zetas, vals, eta=1.0)
        np.testing.assert_allclose(samp(0.3 + 1j), 1j * np.eye(1))
        with pytest.raises(wk.DomainError):
            samp(0.3 + 2j)
        with pytest.raises(wk.DomainError):
            samp(7.0 + 1j)

    def test_interpolates_linearly(self):
        zetas = np.array([0.0, 1.0])
        vals = np.array([[[0.0 + 1j]], [[2.0 + 1j]]])
        samp = WeylSampler.from_table(zetas, vals, eta=0.5)
        np.testing.assert_allclose(samp(0.25 + 0.5j), [[0.5 + 1j]])

    def test_array_queries_checked_point_by_point(self):
        zetas = np.linspace(-5, 5, 11)
        vals = np.tile(1j * np.eye(1)[None], (11, 1, 1))
        samp = WeylSampler.from_table(zetas, vals, eta=1.0)
        assert samp(np.array([0.3 + 1j, -5 + 1j, 5 + 1j])).shape == (3, 1, 1)
        with pytest.raises(wk.DomainError, match=re.escape("z = (0.4+2j)")):
            samp(np.array([0.3 + 1j, 0.4 + 2j]))
        with pytest.raises(wk.DomainError, match=re.escape("z = (7+1j)")):
            samp(np.array([0.3 + 1j, 7.0 + 1j, 8.0 + 1j]))
        with pytest.raises(wk.DomainError):
            WeylSampler.from_constant(1j * np.eye(1))(np.array([1j, 2.0]))

    def test_table_batch_matches_scalar_calls_and_interp(self):
        rng = np.random.default_rng(3)
        zetas = np.sort(rng.uniform(-3, 3, 30))
        vals = rng.normal(size=(30, 2, 2)) + 1j * rng.normal(size=(30, 2, 2))
        samp = WeylSampler.from_table(zetas, vals, eta=0.7)
        q = np.concatenate([rng.uniform(zetas[0], zetas[-1], 50), zetas]) + 0.7j
        batch = samp(q)
        np.testing.assert_array_equal(batch, np.array([samp(z) for z in q]))
        ref = np.array([[[np.interp(z.real, zetas, vals[:, i, j].real)
                          + 1j * np.interp(z.real, zetas, vals[:, i, j].imag)
                          for j in range(2)] for i in range(2)] for z in q])
        np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(batch[50:], vals)

    def test_table_needs_two_samples(self):
        with pytest.raises(wk.StructuralError):
            WeylSampler.from_table([0.0], [[[1j]]], eta=1.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_table_line_height_must_be_finite(self, eta):
        # a NaN eta would make the pin check never fire and accept any Im z
        with pytest.raises(wk.DomainError, match="finite eta > 0"):
            WeylSampler.from_table(np.linspace(-1, 1, 5), np.full(5, 1j), eta=eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_table_zetas_must_be_finite(self, bad):
        with pytest.raises(wk.StructuralError, match="the zeta at index 1 is not"):
            WeylSampler.from_table([0.0, bad, 2.0], np.full(3, 1j), eta=1.0)

    def test_requires_upper_half_plane(self):
        samp = WeylSampler.from_constant(1j * np.eye(1))
        with pytest.raises(wk.DomainError):
            samp(1.0)

    def test_nan_z_rejected(self):
        samp = WeylSampler.from_constant(1j * np.eye(1))
        for z in (complex(np.nan, 1.0), complex(0.0, np.nan)):
            with pytest.raises(wk.DomainError, match="finite z"):
                samp(np.array([1j, z]))


class TestHerglotz:
    def test_constant_positive(self):
        rep = herglotz_check(lambda z: 1j * np.eye(2), [1j, 1 + 1j, -2 + 0.5j])
        assert rep["passed"] and rep["imag_part_min"] == pytest.approx(1.0)

    def test_anti_herglotz_fails(self):
        rep = herglotz_check(lambda z: -1j * np.eye(1), [1j, 2j])
        assert not rep["passed"]
        assert rep["imag_part_min"] == pytest.approx(-1.0)

    def test_gbdt_weyl_function_passes(self):
        prm = make_params(3, 2, seed=80)
        pair = wk.weyl_pair(prm)
        rng = np.random.default_rng(80)
        grid = [complex(rng.normal(), rng.uniform(0.1, 3)) for _ in range(25)]
        rep = herglotz_check(pair.phi, grid)
        assert rep["passed"]

    def test_grid_must_be_upper(self):
        with pytest.raises(wk.DomainError):
            herglotz_check(lambda z: 1j * np.eye(1), [1j, -1j])

    def test_nan_grid_point_rejected(self):
        with pytest.raises(wk.DomainError, match="finite z"):
            herglotz_check(lambda z: 1j * np.eye(1), [1j, complex(np.nan, 1.0)])

    def test_empty_grid_structural(self):
        with pytest.raises(wk.StructuralError):
            herglotz_check(lambda z: 1j * np.eye(1), [])


class TestDiskOracleSampler:
    def test_disk_oracle_source(self, free_hamiltonian):
        samp = WeylSampler.from_disk_oracle(lambda x: free_hamiltonian, p=1,
                                            length_factor=20.0)
        assert samp.source == "disk-oracle"
        np.testing.assert_allclose(samp(1.5j), 1j * np.eye(1), atol=1e-8)


class TestDiracRoundTrip:
    def test_smooth_amplitude_round_trip(self):
        # a valid amplitude starts at s(0) = I/2
        sg = GridFunction.from_function(
            lambda x: (0.5 + 0.3 * (np.exp(-x) - np.exp(-2 * x))) * np.eye(1),
            h=1 / 128, m=int(20 * 128) + 1)
        eta, a = 1.0, 200.0
        nside = int(round(a / 0.05))
        zetas = np.linspace(-a, a, 2 * nside + 1)
        phiv = weyl_from_amplitude(sg, zetas + 1j * eta, mode="dirac", gl_order=8)
        samp = WeylSampler.from_table(zetas, phiv, eta=eta)
        s_rec, _, _ = amplitude_from_weyl(samp, eta=eta, a=a, h=1 / 256,
                                          xmax=2.0, mode="dirac")
        s_true = sg.at(s_rec.xs)
        rel = np.linalg.norm((s_rec.values - s_true).ravel()) \
            / np.linalg.norm(s_true.ravel())
        assert rel < 1e-2
