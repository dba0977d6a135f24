import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.linalg import expm

import weylkit as wk
from weylkit._linalg import anti_diag_j, hermitize
from weylkit.gbdt import (
    _POLE_BAND,
    _closed_form,
    _seed_solution,
    evolve_grid,
    evolve_state,
    hamiltonian_direct,
    hamiltonian_grid,
    initial_hamiltonian,
    state_identity_residual,
    transfer_matrix,
)

from conftest import make_params


def scalar_params():
    # worked example: n = p = 1, alpha = i, D = -2, lambda1 = lambda2 = 1
    return wk.GbdtParams(d=[-2.0], alpha=[[1j]], lambda1=[[1.0]], lambda2=[[1.0]])


def _q0(prm, lam, sigma):
    """Coefficient of the gauge ODE v0' = -q0 v0, v0(0) = I, from the state
    at x: an oracle for the gauge independent of its closed form."""
    J = anti_diag_j(prm.p)
    H0 = initial_hamiltonian(prm.d)
    core = lam.conj().T @ np.linalg.solve(sigma, lam)
    return J @ core @ J @ H0 - J @ H0 @ J @ core


def _ode_gauge(prm, xs, tol=1e-12, start=(0.0, None)):
    """The gauge v0 at the increasing positions ``xs`` by integrating its ODE
    from ``start = (x0, v0(x0))``; v0(0) = I when no value is given."""
    m = 2 * prm.p
    x0, v0 = start
    v0 = np.eye(m, dtype=complex) if v0 is None else v0

    def rhs(x, y):
        st = evolve_state(prm, x)
        return (-_q0(prm, st.lam, st.sigma) @ y.reshape(m, m)).ravel()

    sol = solve_ivp(rhs, (x0, xs[-1]), v0.ravel(), t_eval=xs, rtol=tol, atol=tol)
    assert sol.success
    return sol.y.T.reshape(-1, m, m)


def _scaled(prm, c, shift=0.0):
    """(c (alpha + shift I), sqrt(c) Lambda) keeps the input identity for real
    c > 0 and shift; the scaled system at x is the unscaled one at c x, with
    z scaled by c: w_c(x, z) = w(c x, z / c)."""
    return wk.GbdtParams(d=prm.d, alpha=c * (prm.alpha + shift * np.eye(prm.n)),
                         lambda1=np.sqrt(c) * prm.lambda1,
                         lambda2=np.sqrt(c) * prm.lambda2)


def _mp_closed_form(prm, x, zs, dps=50):
    """The plain product w_t(x, z) w_seed(x, z) w_t(0, z)^-1 = v0(x) w(x, z)
    for each z in ``zs`` (numbers or mpmath numbers), mpmath matrices at
    ``dps`` digits: an oracle for the closed form independent of its
    pole-free evaluation.  At z = 0 it is the gauge v0(x)."""
    with mp.workdps(dps):
        n, p = prm.n, prm.p
        d = [mp.mpf(v) for v in prm.d]
        lam = mp.matrix(np.hstack([prm.lambda1, prm.lambda2]).tolist())
        zmat, J = mp.zeros(2 * p, 2 * p), mp.zeros(2 * p, 2 * p)
        for c in range(p):
            zmat[c, c] = zmat[c, p + c] = J[c, p + c] = J[p + c, c] = 1
            zmat[p + c, c], zmat[p + c, p + c] = d[c] / 2, -d[c] / 2
        z_inv = zmat ** -1
        eye_n, eye_m = mp.eye(n), mp.eye(2 * p)
        # the doubles meet the input identity only to rounding, which residues
        # near 1e30 would amplify: rebuild the skew-Hermitian part of alpha
        # from Lambda so that the identity holds to ``dps`` digits
        alpha = mp.matrix(prm.alpha.tolist())
        alpha = (alpha + alpha.H) / 2 + 0.5j * lam * J * lam.H
        psi = lam * zmat
        lam_x, sigma = mp.zeros(n, 2 * p), mp.eye(n)
        for c in range(p):
            col = psi[:, c]
            blk = mp.zeros(2 * n, 2 * n)
            blk[:n, :n] = 1j * d[c] * alpha
            blk[:n, n:] = col * col.H
            blk[n:, n:] = (-1j * d[c] * alpha).H
            e = mp.expm(blk * x)
            lam_x[:, c] = e[n:, n:].H * col
            lam_x[:, p + c] = psi[:, p + c]
            sigma += e[n:, n:].H * e[:n, n:]
        lam_x = lam_x * z_inv

        def product(z):
            w_x = eye_m - 1j * J * lam_x.H * sigma ** -1 * (alpha - z * eye_n) ** -1 * lam_x
            # w_t(0, z)^-1 = J w_t(0, conj z)* J needs no inverse of a matrix
            # whose entries nearly cancel in its determinant
            w_0_inv = eye_m + 1j * J * lam.H * (alpha.H - z * eye_n) ** -1 * lam
            seed = mp.diag([mp.exp(1j * z * x * dc) for dc in d] + [1] * p)
            return w_x * zmat * seed * z_inv * w_0_inv

        return [product(mp.mpc(z)) for z in zs]


def _mp_fundamental(prm, x, zs, shift=0.0, dps=50):
    """The gauge v0(x), then w(x, z + shift) for each z in ``zs``: a
    (1 + len zs, 2p, 2p) stack of :func:`_mp_closed_form` at z = 0 and,
    normalized by that, at each z."""
    with mp.workdps(dps):
        vals = _mp_closed_form(prm, x, [0] + [mp.mpc(z) + mp.mpf(shift) for z in zs], dps)
        v0_inv = vals[0] ** -1
        return np.array([vals[0].tolist()] + [(v0_inv * v).tolist() for v in vals[1:]],
                        dtype=complex)


@st.composite
def hamiltonian_splits(draw):
    """A generated parameter set (n <= 4, p <= 2; D negative or of mixed
    sign, or alpha singular), 2 to 40 positions on [0, 2], enough for runs
    of anchors and offsets, and the cut points of a split of them into
    consecutive parts."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["negative", "mixed", "singular"]))
    prm = make_params(n, p, seed=draw(st.integers(0, 2**32 - 1)), negative=kind != "mixed",
                      singular_alpha=kind == "singular" and n > 1)
    k = draw(st.integers(2, 40))
    xs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 2.0, k)
    cuts = draw(st.sets(st.integers(1, k - 1), min_size=1))
    return prm, xs, sorted(cuts)


def split_bound(prm):
    """The documented batch-split bound of :func:`hamiltonian_grid`,
    relative to the batch's largest |H| entry."""
    eigs, scale = prm.alpha_spectrum
    gap = np.abs(eigs).min()
    if gap < _POLE_BAND * scale:
        return 16 * np.finfo(float).eps
    return 16 * np.finfo(float).eps * max(1.0, ((1.0 + scale) / gap) ** 2)


class TestValidate:
    def test_zero_data_identity_alpha(self):
        prm = wk.GbdtParams(d=[-2.0], alpha=np.eye(2), lambda1=np.zeros((2, 1)),
                            lambda2=np.zeros((2, 1)))
        assert wk.validate_params(prm)["passed"]

    def test_scalar_pass(self):
        rep = wk.validate_params(scalar_params())
        assert rep["passed"] and rep["d_negative"]

    def test_broken_identity_fails(self):
        prm = wk.GbdtParams(d=[-2.0], alpha=[[1j]], lambda1=[[1.0]], lambda2=[[0.0]])
        rep = wk.validate_params(prm)
        assert not rep["passed"]
        # raw residual ||alpha - alpha*|| = 2, reported relative to ||alpha|| + 1
        assert rep["identity_residual"] == pytest.approx(1.0)

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(wk.StructuralError):
            wk.GbdtParams(d=[-1.0], alpha=np.eye(2), lambda1=np.zeros((3, 1)),
                          lambda2=np.zeros((2, 1)))

    def test_zero_d_entry_rejected(self):
        with pytest.raises(wk.StructuralError):
            wk.GbdtParams(d=[0.0], alpha=[[0.0]], lambda1=[[0.0]], lambda2=[[0.0]])

    @pytest.mark.parametrize("field", ["d", "alpha", "lambda1", "lambda2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, field, bad):
        fields = {"d": [-2.0], "alpha": [[1j]], "lambda1": [[1.0]], "lambda2": [[1.0]]}
        fields[field] = np.full(np.shape(fields[field]), bad)
        with pytest.raises(wk.StructuralError, match=f"{field} must be finite"):
            wk.GbdtParams(**fields)


class TestEvolve:
    def test_zero_data(self):
        prm = wk.GbdtParams(d=[-1.0, -2.0], alpha=np.eye(3), lambda1=np.zeros((3, 2)),
                            lambda2=np.zeros((3, 2)))
        for x in (0.0, 0.7, 2.0):
            st = evolve_state(prm, x)
            assert np.all(st.psi1 == 0) and np.all(st.psi2 == 0) and np.all(st.lam == 0)
            np.testing.assert_allclose(st.sigma, np.eye(3), atol=1e-15)

    def test_initial_condition(self):
        prm = make_params(3, 2, seed=5)
        st = evolve_state(prm, 0.0)
        np.testing.assert_allclose(st.psi1, prm.lambda1 + 0.5 * prm.lambda2 * prm.d,
                                   atol=1e-14)
        np.testing.assert_allclose(st.sigma, np.eye(3), atol=1e-14)

    def test_scalar_exponential_against_quadrature(self):
        prm = scalar_params()
        f = complex(prm.psi1_0()[0, 0])
        for x in (0.3, 1.0, 2.5):
            st = evolve_state(prm, x)
            # exponent -i d x alpha = -i (-2) x i = -2x
            assert st.psi1[0, 0] == pytest.approx(np.exp(-2 * x) * f, abs=1e-14)
            closed = 1 + abs(f) ** 2 * (1 - np.exp(-4 * x)) / 4
            assert st.sigma[0, 0] == pytest.approx(closed, abs=1e-13)
            oracle = quad(lambda t: abs(np.exp(-2 * t) * f) ** 2, 0, x)[0]
            assert st.sigma[0, 0].real == pytest.approx(1 + oracle, abs=1e-11)

    def test_negative_position_rejected(self):
        with pytest.raises(wk.DomainError):
            evolve_state(scalar_params(), -0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sigma_against_quadrature_oracle(self, seed):
        prm = make_params(3, 2, seed=seed, negative=False)

        def integrand(t):
            st = evolve_state(prm, t)
            return (st.psi1 @ st.psi1.conj().T).ravel()

        x = 1.1
        val = quad_vec(integrand, 0, x, epsabs=1e-12)[0].reshape(3, 3)
        st = evolve_state(prm, x)
        np.testing.assert_allclose(st.sigma, np.eye(3) + val, atol=1e-9)

    def test_resonant_alpha_uses_exact_fallback(self):
        # Hermitian alpha (all eigenvalues real) makes the Sylvester operator
        # singular for every diagonal weight; the block-exponential path must
        # still match quadrature
        prm = make_params(3, 1, seed=9, singular_alpha=False)
        lam1 = prm.lambda1
        alpha = 0.5 * (prm.alpha + prm.alpha.conj().T)
        prm = wk.GbdtParams(d=prm.d, alpha=alpha, lambda1=lam1,
                            lambda2=np.zeros_like(lam1))
        assert wk.validate_params(prm)["passed"]

        def integrand(t):
            st = evolve_state(prm, t)
            return (st.psi1 @ st.psi1.conj().T).ravel()

        val = quad_vec(integrand, 0, 0.8, epsabs=1e-12)[0].reshape(3, 3)
        st = evolve_state(prm, 0.8)
        np.testing.assert_allclose(st.sigma, np.eye(3) + val, atol=1e-9)

    def test_sigma_dominates_identity(self):
        prm = make_params(4, 2, seed=3)
        st = evolve_state(prm, 1.7)
        assert np.linalg.eigvalsh(hermitize(st.sigma)).min() >= 1.0 - 1e-9

    def test_state_identity_on_x_grid(self):
        prm = make_params(3, 2, seed=12, negative=False)
        for x in np.arange(0.0, 2.01, 0.25):
            assert state_identity_residual(prm, evolve_state(prm, x)) < 1e-9

    def test_grid_matches_pointwise(self):
        prm = make_params(3, 2, seed=21)
        xs = np.linspace(0.0, 2.0, 7)
        psi1, lam, sigma = evolve_grid(prm, xs)
        for i, x in enumerate(xs):
            st = evolve_state(prm, x)
            np.testing.assert_allclose(psi1[i], st.psi1, atol=1e-12)
            np.testing.assert_allclose(lam[i], st.lam, atol=1e-12)
            np.testing.assert_allclose(sigma[i], st.sigma, atol=1e-11)


class TestTransfer:
    def test_zero_data_is_identity(self):
        prm = wk.GbdtParams(d=[-1.0], alpha=np.eye(2), lambda1=np.zeros((2, 1)),
                            lambda2=np.zeros((2, 1)))
        np.testing.assert_allclose(transfer_matrix(prm, 1.0, 0.5 + 1j), np.eye(2),
                                   atol=1e-15)

    def test_resolvent_decay(self):
        prm = make_params(3, 2, seed=8)
        st = evolve_state(prm, 1.0)
        w = transfer_matrix(prm, 1.0, 1e6j)
        lam_norm = np.linalg.norm(st.lam, 2)
        assert np.linalg.norm(w - np.eye(4), 2) <= 1e-5 * lam_norm ** 2

    @pytest.mark.parametrize("seed", [4, 5])
    def test_j_unitarity(self, seed):
        prm = make_params(3, 2, seed=seed, negative=False)
        J = anti_diag_j(2)
        for (x, z) in [(0.5, 0.3 + 0.7j), (1.5, -1.2 + 0.4j)]:
            lhs = transfer_matrix(prm, x, np.conj(z)).conj().T @ J @ transfer_matrix(prm, x, z)
            np.testing.assert_allclose(lhs, J, atol=1e-9)

    def test_spectrum_proximity_raises(self):
        with pytest.raises(wk.SingularityError):
            transfer_matrix(scalar_params(), 1.0, 1j)


class TestHamiltonian:
    def test_zero_data_gives_seed_hamiltonian(self):
        prm = wk.GbdtParams(d=[-2.0], alpha=np.eye(2), lambda1=np.zeros((2, 1)),
                            lambda2=np.zeros((2, 1)))
        h0 = initial_hamiltonian([-2.0])
        for x in (0.0, 1.0, 2.0):
            np.testing.assert_allclose(hamiltonian_direct(prm, x), h0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_psd_and_rank(self, seed):
        prm = make_params(4, 2, seed=seed, negative=False)
        for x in np.linspace(0.0, 2.0, 9):
            h = hamiltonian_direct(prm, x)
            assert np.linalg.eigvalsh(h).min() >= -1e-10
            assert np.sum(np.linalg.svd(h, compute_uv=False) > 1e-8) <= 2

    def test_scalar_matches_ode_integrated_gauge(self):
        prm = scalar_params()
        v0 = _ode_gauge(prm, np.array([1.0]))[0]
        h_ode = v0.conj().T @ initial_hamiltonian(prm.d) @ v0
        np.testing.assert_allclose(hamiltonian_direct(prm, 1.0), h_ode, atol=1e-7)

    def test_singular_alpha_falls_back_to_ode(self):
        prm = make_params(3, 1, seed=17, singular_alpha=True)
        assert abs(np.linalg.det(prm.alpha)) < 1e-12
        assert wk.validate_params(prm)["passed"]
        h = hamiltonian_direct(prm, 0.8)
        assert np.linalg.eigvalsh(h).min() >= -1e-9
        v0 = _closed_form(prm, np.array([0.8]), np.zeros(1))[0, 0]
        J = anti_diag_j(1)
        np.testing.assert_allclose(v0.conj().T @ J @ v0, J, atol=1e-7)

    @pytest.mark.parametrize("n,p,seed", [(2, 1, 3), (3, 2, 5), (5, 1, 7)])
    def test_circle_gauge_matches_ode_oracle(self, n, p, seed):
        # alpha singular: z = 0 is a pole of both transfer factors, and the
        # gauge is the pole-free form of their product there
        prm = make_params(n, p, seed=seed, singular_alpha=True)
        xs = np.array([0.0, 0.5, 2.0, 6.0])
        ref = _ode_gauge(prm, xs)
        got = _closed_form(prm, xs, np.zeros(1))[0]
        for g, r in zip(got, ref):
            assert np.abs(g - r).max() <= 1e-9 * np.abs(r).max()

    def test_singular_gauge_far_out_solves_its_ode(self):
        # the pole-free form has no limit in tau = max x max|d|: at tau = 590
        # the gauge still solves v0' = -q0 v0 over a short leg
        prm = make_params(2, 1, seed=3, singular_alpha=True)
        xs = np.array([400.0, 400.5, 401.0])
        got = _closed_form(prm, xs, np.zeros(1))[0]
        ref = _ode_gauge(prm, xs, start=(xs[0], got[0]))
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
        J = anti_diag_j(1)
        for v0 in got:
            assert np.abs(v0.conj().T @ J @ v0 - J).max() <= 1e-12 * np.abs(v0).max() ** 2

    @pytest.mark.parametrize("shift", [0.0, 1e-3, 1e-4],
                             ids=["singular", "near-singular", "nearer-singular"])
    @pytest.mark.parametrize("n,p,seed", [(2, 1, 3), (3, 2, 5)])
    def test_gauge_at_large_alpha_norm(self, n, p, seed, shift):
        # ||alpha|| about 300: the gauge of the scaled set at x is the gauge
        # of the unscaled one at 300 x, from x = 0 on.  Shifted, the
        # eigenvalue (0.3 or 0.03 scaled) lies within the band
        # _POLE_BAND ||alpha|| of z = 0 in both sets, since the band scales
        # with alpha, and the pole-free gauge meets the plain product at 60
        # digits
        base = _scaled(make_params(n, p, seed=seed, singular_alpha=True), 1.0, shift)
        big = _scaled(base, 300.0)
        assert np.linalg.norm(big.alpha, 2) > 250.0
        for prm, gap in ((base, shift), (big, 300.0 * shift)):
            assert gap < 0.6 * _POLE_BAND * np.linalg.norm(prm.alpha, 2)
        for x in (0.0, 0.002, 0.2, 1.0):
            got = _closed_form(big, np.array([x]), np.zeros(1))[0, 0]
            ref = _closed_form(base, np.array([300.0 * x]), np.zeros(1))[0, 0]
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max(), x
            if shift:
                exact = _mp_fundamental(big, x, [], dps=60)[0]
                assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max(), x

    @pytest.mark.parametrize("n,p,seed", [(2, 1, 3), (3, 2, 5), (4, 2, 7)])
    def test_near_singular_alpha_against_mpmath(self, n, p, seed):
        # alpha + shift I puts an eigenvalue at gap = shift from z = 0, a pole
        # of both transfer factors.  Within the band the gauge and w take the
        # pole-free form, at full accuracy; just outside it the plain product
        # loses about eps (||alpha|| / gap)^2
        base = make_params(n, p, seed=seed, singular_alpha=True)
        top = np.linalg.eigvalsh(base.alpha).max()     # ||alpha + gap I|| = top + gap
        outside = [f * _POLE_BAND * top / (1.0 - f * _POLE_BAND) for f in (1.01, 2.0, 10.0)]
        zs = np.array([-1.5, 0.3 + 0.2j, 2.0, 1e-4])
        for gap, tol in ([(g, 1e-13) for g in (1e-3, 1e-5, 1e-7, 1e-9)]
                         + [(g, 1e-10) for g in outside]):
            prm = _scaled(base, 1.0, gap)
            inside = gap < _POLE_BAND * np.linalg.norm(prm.alpha, 2)
            assert inside == (tol == 1e-13)
            for x in (0.3, 2.0):
                got = np.concatenate([_closed_form(prm, np.array([x]), np.zeros(1))[0],
                                      wk.fundamental_direct(prm, x, zs)])
                for g, r in zip(got, _mp_fundamental(prm, x, zs, dps=60)):
                    assert np.abs(g - r).max() <= tol * np.abs(r).max(), (gap, x)

    def test_singular_alpha_grid_matches_pointwise(self):
        # the pole-free gauge on a grid against the same gauge point by point
        prm = make_params(3, 2, seed=19, singular_alpha=True)
        xs = np.linspace(0.0, 1.5, 7)
        grid = hamiltonian_grid(prm, xs)
        direct = np.array([hamiltonian_direct(prm, x) for x in xs])
        assert np.abs(grid - direct).max() <= 1e-8 * np.abs(direct).max()
        for h in grid:
            assert np.linalg.eigvalsh(h).min() >= -1e-10
            assert np.sum(np.linalg.svd(h, compute_uv=False) > 1e-8) <= prm.p

    @seed(20261023)
    @settings(max_examples=60, deadline=None, database=None)
    @given(hamiltonian_splits())
    def test_batch_split_within_documented_bound(self, case):
        # a part takes other anchors and offsets than its batch, and another
        # Pade degree, so a split is not bit for bit; hamiltonian_grid's
        # docstring states the bound
        prm, xs, cuts = case
        whole = hamiltonian_grid(prm, xs)
        parts = np.concatenate([hamiltonian_grid(prm, part) for part in np.split(xs, cuts)])
        assert np.abs(parts - whole).max() <= split_bound(prm) * np.abs(whole).max()

    def test_grid_matches_pointwise(self):
        prm = make_params(2, 1, seed=30)
        xs = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(
            hamiltonian_grid(prm, xs),
            np.array([hamiltonian_direct(prm, x) for x in xs]),
            atol=1e-12,
        )


class TestFundamental:
    def test_normalization_at_zero(self):
        prm = make_params(3, 2, seed=2)
        np.testing.assert_allclose(wk.fundamental_direct(prm, 0.0, 0.4 + 1.1j),
                                   np.eye(4), atol=1e-13)

    def test_zero_data_free_solution(self):
        d = np.array([-2.0, -0.5])
        prm = wk.GbdtParams(d=d, alpha=np.eye(2), lambda1=np.zeros((2, 2)),
                            lambda2=np.zeros((2, 2)))
        z, x = 0.3 + 0.8j, 1.2
        Z = np.block([[np.eye(2), np.eye(2)], [np.diag(d) / 2.0, -np.diag(d) / 2.0]])
        phases = np.concatenate([np.exp(1j * z * x * d), np.ones(2)])
        expected = Z @ np.diag(phases) @ np.linalg.inv(Z)
        np.testing.assert_allclose(wk.fundamental_direct(prm, x, z), expected,
                                   atol=1e-12)

    def test_seed_solution_against_mpmath(self):
        # [[I + F/2, F D^-1], [D F/4, I + F/2]] with F = expm1(i z x D): each
        # entry within 4 eps of a 50-digit Z exp(i z x diag(D, 0)) Z^-1 for
        # |z x d| from about 1e-12 to 10, and exactly I at z = 0 and at x = 0
        d = np.array([-2.0, -0.5])
        prm = wk.GbdtParams(d=d, alpha=np.eye(2), lambda1=np.zeros((2, 2)),
                            lambda2=np.zeros((2, 2)))
        xs = np.array([0.0, 0.5, 1.0, 2.0])
        zs = np.array([0.0, 1e-12, 1e-8 + 1e-9j, -3e-6j, 1e-3 - 2e-3j, 0.3 + 0.8j,
                       -1.2 + 0.4j, 2.5, 2.0 + 1.5j])
        got = _seed_solution(prm, xs, zs)
        for at_origin in (got[0], got[:, 0]):            # z = 0, then x = 0
            np.testing.assert_array_equal(at_origin, np.broadcast_to(np.eye(4), at_origin.shape))
        with mp.workdps(50):
            Z = mp.matrix([[1, 0, 1, 0], [0, 1, 0, 1], [d[0] / 2, 0, -d[0] / 2, 0],
                           [0, d[1] / 2, 0, -d[1] / 2]])
            Zinv = Z ** -1
            for i, z in enumerate(zs):
                for j, x in enumerate(xs):
                    e = [mp.exp(mp.mpc(0, 1) * mp.mpc(z.real, z.imag) * x * dc) for dc in d]
                    ref = Z * mp.diag(e + [1, 1]) * Zinv
                    for r in range(4):
                        for c in range(4):
                            exact = ref[r, c]
                            err = abs(mp.mpc(got[i, j, r, c]) - exact)
                            assert err <= 4 * np.finfo(float).eps * abs(exact), (z, x, r, c)

    def test_derivative_satisfies_canonical_system(self):
        prm = make_params(3, 2, seed=14, negative=False)
        z, x, h = 0.6 + 0.9j, 0.8, 1e-4
        J = anti_diag_j(2)
        wp = (wk.fundamental_direct(prm, x + h, z)
              - wk.fundamental_direct(prm, x - h, z)) / (2 * h)
        rhs = 1j * z * J @ hamiltonian_direct(prm, x) @ wk.fundamental_direct(prm, x, z)
        assert np.abs(wp - rhs).max() < 1e-5

    def test_j_unitarity(self):
        prm = make_params(2, 1, seed=19)
        J = anti_diag_j(1)
        z, x = -0.7 + 1.3j, 1.4
        lhs = wk.fundamental_direct(prm, x, np.conj(z)).conj().T @ J \
            @ wk.fundamental_direct(prm, x, z)
        np.testing.assert_allclose(lhs, J, atol=1e-9)

    def test_alpha_decomposed_once_and_origin_never_evolved(self, monkeypatch):
        # the state at x = 0 is the parameters themselves: one evolution per
        # call, none of them at the origin
        import weylkit.gbdt as gbdt

        calls = {"spectrum": 0, "evolve": 0, "origin": 0}
        spectrum, evolve = gbdt.spectrum, gbdt.evolve_grid

        def counted_spectrum(a):
            calls["spectrum"] += 1
            return spectrum(a)

        def counted_evolve(params, xs):
            calls["evolve"] += 1
            calls["origin"] += bool(np.any(np.asarray(xs) == 0.0))
            return evolve(params, xs)

        monkeypatch.setattr(gbdt, "spectrum", counted_spectrum)
        monkeypatch.setattr(gbdt, "evolve_grid", counted_evolve)
        prm = make_params(3, 2, seed=2)
        for x, z in [(0.5, 0.4 + 1.1j), (1.2, -0.3 + 0.2j), (0.7, 2.0)]:
            wk.fundamental_direct(prm, x, z)
        assert calls == {"spectrum": 1, "evolve": 3, "origin": 0}

    def test_one_point_views_refuse_arrays(self):
        # an array x would otherwise come back as the value at its first entry
        prm = scalar_params()
        for view in (evolve_state, hamiltonian_direct,
                     lambda prm, x: transfer_matrix(prm, x, 0.5j)):
            with pytest.raises(wk.StructuralError, match="x must be a scalar"):
                view(prm, np.array([0.0, 1.0]))
            with pytest.raises(wk.StructuralError, match="x must be a scalar"):
                view(prm, [0.5])
        np.testing.assert_array_equal(hamiltonian_direct(prm, np.float64(0.5)),
                                      hamiltonian_grid(prm, [0.5])[0])

    @pytest.mark.parametrize("n,p,negative,seed", [
        (1, 1, True, 50), (2, 1, False, 51), (3, 2, True, 52), (3, 2, False, 53),
    ])
    def test_batch_equals_stacked_scalar_calls(self, n, p, negative, seed):
        prm = make_params(n, p, seed=seed, negative=negative)
        xs = np.linspace(0.0, 2.0, 5)
        zs = np.array([0.4 + 1.1j, -1.3, 2.0 + 0.2j])
        w = wk.fundamental_direct(prm, xs, zs)
        assert w.shape == (3, 5, 2 * p, 2 * p)
        stacked = np.array([[wk.fundamental_direct(prm, x, z) for x in xs] for z in zs])
        np.testing.assert_allclose(w, stacked, rtol=0, atol=1e-12 * np.abs(stacked).max())
        assert wk.fundamental_direct(prm, xs, zs[0]).shape == (5, 2 * p, 2 * p)
        assert wk.fundamental_direct(prm, xs[1], zs).shape == (3, 2 * p, 2 * p)

    @pytest.mark.parametrize("n,p,negative,seed", [
        (1, 1, True, 60), (2, 1, False, 61), (3, 2, True, 62), (3, 2, False, 63),
    ])
    def test_batch_matches_magnus_propagation(self, n, p, negative, seed):
        # an independent route: the fourth-order Magnus stepper of the disk
        # oracle, integrating w' = i z J H w from the gbdt Hamiltonian
        from weylkit.structured import propagate_fundamental

        prm = make_params(n, p, seed=seed, negative=negative)
        zs = np.array([0.7 + 0.5j, -1.1 + 0.0j])
        l = 1.5
        w = wk.fundamental_direct(prm, l, zs)
        for z, wz in zip(zs, w):
            ref = propagate_fundamental(lambda x: hamiltonian_grid(prm, x), z, l,
                                        steps_per_unit=128)
            assert np.abs(wz - ref).max() <= 1e-8 * np.abs(ref).max()


class TestRemovableSingularity:
    def test_alpha_eigenvalue_matches_propagation(self):
        # z = i is the eigenvalue of alpha: w(x, .) is entire there, though
        # the transfer matrix has a pole
        from weylkit.structured import propagate_fundamental

        prm = scalar_params()
        xs = np.array([0.0, 0.5, 1.5])
        w = wk.fundamental_direct(prm, xs, 1j)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w[0], np.eye(2), atol=1e-13)
        for x, wx in zip(xs[1:], w[1:]):
            ref = propagate_fundamental(lambda t: hamiltonian_grid(prm, t), 1j, x,
                                        steps_per_unit=512)
            assert np.abs(wx - ref).max() <= 1e-11 * np.abs(ref).max()
        with pytest.raises(wk.SingularityError):
            transfer_matrix(prm, 1.0, 1j)

    def test_pole_values_match_mpmath(self):
        # at a pole z0 of the closed form, on the spectrum of alpha or its
        # conjugate, w agrees with the plain product at z0 + 1e-30 evaluated
        # to 50 digits, on generated sets of both signs of D
        for n, p, negative, seed in [(1, 1, True, 65), (2, 1, False, 66), (3, 2, True, 67),
                                     (3, 2, False, 64), (2, 2, False, 69)]:
            gen = make_params(n, p, seed=seed, negative=negative)
            eigs = np.linalg.eigvals(gen.alpha)
            poles = np.concatenate([eigs, eigs.conj()])
            for x in (0.5, 2.0):
                w = wk.fundamental_direct(gen, x, poles)
                ref = _mp_fundamental(gen, x, poles, shift=1e-30)[1:]
                for wz, rz in zip(w, ref):
                    assert np.abs(wz - rz).max() <= 1e-12 * np.abs(rz).max(), (seed, x)
        prm = make_params(3, 2, seed=64, negative=False)
        z0 = np.linalg.eigvals(prm.alpha)[0]
        xs = np.array([0.6, 1.2])
        w = wk.fundamental_direct(prm, xs, np.array([z0, np.conj(z0)]))
        # the conjugate point is a pole of w(0, .)^-1 and takes the same
        # pole-free form; nearby the value is continuous
        near = wk.fundamental_direct(prm, xs, np.conj(z0) + 1e-4)
        assert np.abs(w[1] - near).max() <= 1e-3 * np.abs(near).max()
        J = anti_diag_j(2)
        for k in range(xs.size):
            lhs = w[1, k].conj().T @ J @ w[0, k]   # w(x, conj z)* J w(x, z) = J
            np.testing.assert_allclose(lhs, J, atol=1e-9)

    @staticmethod
    def _seed_solution(d, x, z):
        # with zero data w_t = I and v0 = I, so w is the seed Z exp(izx diag(D, 0)) Z^-1
        Z = np.array([[1.0, 1.0], [d / 2.0, -d / 2.0]])
        return Z @ np.diag([np.exp(1j * z * x * d), 1.0]) @ np.linalg.inv(Z)

    def test_zero_data_at_eigenvalue_for_long_x(self):
        # x |d| up to 20: w has exponential type 20 in z, and the value at
        # the pole is the seed solution for every x
        prm = wk.GbdtParams(d=[-2.0], alpha=np.eye(2), lambda1=np.zeros((2, 1)),
                            lambda2=np.zeros((2, 1)))
        xs = np.linspace(0.0, 10.0, 11)
        w = wk.fundamental_direct(prm, xs, 1.0)
        for x, wx in zip(xs, w):
            ref = self._seed_solution(-2.0, x, 1.0)
            assert np.abs(wx - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("make", [
        scalar_params, lambda: make_params(3, 2, seed=9, negative=True),
    ], ids=["scalar", "n3p2"])
    def test_accuracy_across_distance_to_pole(self, make):
        # at z0 + delta, from far inside the band of the pole-free form to far
        # outside it, w agrees with a 96-point mean over a wide circle, whose
        # points all stay 0.3 away from the poles
        prm = make()
        eigs = np.linalg.eigvals(prm.alpha)
        wide = 0.3 * np.exp(2j * np.pi * np.arange(96) / 96)
        for z0 in (eigs[0], np.conj(eigs[0])):
            for delta in 10.0 ** np.arange(-13, 0):
                z = z0 + delta * np.exp(0.3j)
                w = wk.fundamental_direct(prm, [0.7, 1.5], z)
                ref = wk.fundamental_direct(prm, [0.7, 1.5], z + wide).mean(axis=0)
                assert np.abs(w - ref).max() <= 2e-12 * np.abs(ref).max(), delta

    def test_crowded_poles_and_long_x_answer(self):
        # poles 0.003 apart within each other's band, tau = max x max|d|
        # = 600, or ||alpha|| = 1e-12 and a z within the resolvents' guard
        # 1e-12 (1 + ||alpha||) but outside the band 2e-3 ||alpha|| still
        # have a value; with zero data it is the seed solution
        def zero_data(eigs):
            n = len(eigs)
            return wk.GbdtParams(d=[-2.0], alpha=np.diag(eigs), lambda1=np.zeros((n, 1)),
                                 lambda2=np.zeros((n, 1)))

        for eigs, x, z in [([1.0, 1.01], 10.0, 1.0), ([1.0, 1.003], 1.0, 1.0),
                           ([1.0], 300.0, 1.0), ([1.0], 300.0, 0.5),
                           ([1e-12], 1.0, 1.5e-12)]:
            w = wk.fundamental_direct(zero_data(eigs), x, z)
            ref = self._seed_solution(-2.0, x, z)
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max(), (eigs, x)
        # a singular alpha at z = 0, where w = I for every x
        prm = make_params(2, 1, seed=3, singular_alpha=True)
        for x in (400.0, 2000.0):
            np.testing.assert_allclose(wk.fundamental_direct(prm, x, 0.0), np.eye(2),
                                       rtol=0, atol=1e-12)

    def test_circle_at_large_alpha_norm(self):
        # with ||alpha|| about 750 the band 2e-3 ||alpha|| is about 1.5 wide,
        # and the pole-free form keeps w_c(x, z) = w(300 x, z / 300) at a
        # pole of the scaled set
        base = make_params(3, 2, seed=9, negative=True)
        big = _scaled(base, 300.0)
        z0 = np.linalg.eigvals(base.alpha)[0]
        for x in (0.001, 0.005):
            w = wk.fundamental_direct(big, x, 300.0 * z0 + 1e-3)
            ref = wk.fundamental_direct(base, 300.0 * x, z0 + 1e-3 / 300.0)
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max(), x


class TestWeylPair:
    def test_zero_data_constant(self):
        prm = wk.GbdtParams(d=[-2.0, -2.0], alpha=np.eye(2),
                            lambda1=np.zeros((2, 2)), lambda2=np.zeros((2, 2)))
        pair = wk.weyl_pair(prm)
        np.testing.assert_allclose(pair.phi(1.3j), 1j * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(pair.phi_hat(1.3j), 1j * np.eye(2), atol=1e-14)

    def test_scalar_hand_evaluation(self):
        pair = wk.weyl_pair(scalar_params())
        assert pair.weyl.gamma[0, 0] == pytest.approx(-1j)
        assert pair.weyl.psi1_0[0, 0] == pytest.approx(0.0)
        assert pair.weyl.psi2[0, 0] == pytest.approx(2.0)
        for z in (1j, 2j, 0.5 + 0.5j):
            assert pair.phi(z)[0, 0] == pytest.approx(1j, abs=1e-14)

    def test_herglotz_on_grid(self):
        prm = make_params(2, 1, seed=23)
        pair = wk.weyl_pair(prm)
        for re in np.linspace(-2, 2, 10):
            for im in np.linspace(0.2, 3, 10):
                val = pair.phi(complex(re, im))
                im_part = (val - val.conj().T) / 2j
                assert np.linalg.eigvalsh(im_part).min() >= -1e-10

    def test_pair_coincides_for_negative_d(self):
        prm = make_params(3, 2, seed=27)
        pair = wk.weyl_pair(prm)
        assert pair.weyl_hat is pair.weyl
        for z in (1j, 0.5 + 2j, -1 + 0.7j):
            np.testing.assert_allclose(pair.phi(z), pair.phi_hat(z), atol=1e-9)

    @pytest.mark.parametrize("n,p,seed", [(1, 1, 0), (1, 1, 3), (2, 2, 5), (3, 3, 2),
                                          (4, 3, 11)])
    def test_phi_hat_is_phi_at_minus_abs_d(self, n, p, seed):
        # D does not enter the input identity, so the set at -|D| is valid,
        # and its realization's phi is phi_hat to the last bit
        prm = make_params(n, p, seed=seed, negative=False)
        flipped = wk.GbdtParams(d=-np.abs(prm.d), alpha=prm.alpha,
                                lambda1=prm.lambda1, lambda2=prm.lambda2)
        pair, real = wk.weyl_pair(prm), wk.realization_from_params(flipped)
        zs = np.array([1j, 0.5 + 2j, -1.5 + 0.3j, 3 + 1e-3j])
        assert np.array_equal(pair.phi_hat(zs), real.phi(zs))
        assert np.array_equal(pair.phi_hat(zs[1]), real.phi(zs[1]))

    def test_negative_d_pair_computes_one_spectrum(self, monkeypatch):
        import weylkit.gbdt as gbdt

        calls = []
        spectrum = gbdt.spectrum

        def counted(a):
            calls.append(a.shape)
            return spectrum(a)

        monkeypatch.setattr(gbdt, "spectrum", counted)
        pair = wk.weyl_pair(make_params(3, 2, seed=27))
        zs = np.array([1j, 0.5 + 2j])
        pair.phi(zs), pair.phi_hat(zs), pair.phi(zs[0]), pair.phi_hat(zs[1])
        assert calls == [(3, 3)]

    def test_gamma_identities(self):
        prm = make_params(3, 2, seed=31, negative=False)
        pair = wk.weyl_pair(prm)
        lhs = pair.weyl.gamma - pair.weyl.gamma.conj().T
        rhs = 1j * prm.lambda2 @ np.diag(prm.d) @ prm.lambda2.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        hat = pair.weyl_hat
        lhs2 = hat.gamma.conj().T - hat.gamma
        diff = hat.psi2 - hat.psi1_0
        rhs2 = 1j * diff @ np.diag(1.0 / np.abs(prm.d)) @ diff.conj().T
        np.testing.assert_allclose(lhs2, rhs2, atol=1e-12)

    def test_gamma_spectrum_below_axis_for_negative_d(self):
        prm = make_params(4, 2, seed=40)
        pair = wk.weyl_pair(prm)
        assert np.linalg.eigvals(pair.weyl.gamma).imag.max() <= 1e-9

    def test_pole_proximity_raises(self):
        pair = wk.weyl_pair(scalar_params())
        with pytest.raises(wk.SingularityError):
            pair.phi(-1j)   # gamma = -i exactly

    def test_batch_equals_stacked_scalar_calls(self):
        for negative in (True, False):
            pair = wk.weyl_pair(make_params(3, 2, seed=45, negative=negative))
            zs = np.array([1j, 0.5 + 2j, -1.5 + 0.3j, 3 + 1e-3j])
            np.testing.assert_array_equal(pair.phi(zs),
                                          np.array([pair.phi(z) for z in zs]))
            np.testing.assert_array_equal(pair.phi_hat(zs),
                                          np.array([pair.phi_hat(z) for z in zs]))

    def test_pole_in_batch_is_named(self):
        pair = wk.weyl_pair(scalar_params())
        with pytest.raises(wk.SingularityError, match=re.escape("z = (-0-1j)")):
            pair.phi(np.array([1j, 2 + 1j, -1j, 0.5j]))

    def test_matrix_exponential_on_normal_matrices(self):
        # scaling-and-squaring vs eigendecomposition
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        diag = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = q @ np.diag(diag) @ q.conj().T
        np.testing.assert_allclose(expm(a), q @ np.diag(np.exp(diag)) @ q.conj().T,
                                   atol=1e-12)
