import numpy as np
import pytest
from scipy.linalg import expm

from weylkit._linalg import expm_stack, resolvent_apply, spectrum

EPS = np.finfo(float).eps
NORMS = [0.0, 1e-10, 1e-3, 0.01, 0.2, 0.9, 2.0, 5.0, 10.0, 30.0, 60.0]


def _mixed_stack(m, seed):
    """General, normal (anti-Hermitian) and upper triangular matrices at
    every 1-norm in NORMS, in one stack."""
    rng = np.random.default_rng(seed)
    mats = []
    for norm in NORMS:
        for kind in ("general", "normal", "triangular"):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            if kind == "normal":
                a = 1j * (a + a.conj().T)
            elif kind == "triangular":
                a = np.triu(a)
            mats.append(a * norm / np.abs(a).sum(axis=0).max())
    return np.array(mats)


def _assert_close_to_scipy(stack, got):
    # the exponential's relative condition number is at least ||A||, so the
    # tolerance grows with the 1-norm from a few units of roundoff at 0
    flat, out = stack.reshape((-1,) + stack.shape[-2:]), got.reshape((-1,) + got.shape[-2:])
    for a, e in zip(flat, out):
        ref = expm(a)
        err = np.abs(e - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
        assert err <= 20 * EPS * (1.0 + np.abs(a).sum(axis=0).max()), err


class TestExpmStack:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_scipy_on_mixed_norms(self, m):
        stack = _mixed_stack(m, seed=m)
        _assert_close_to_scipy(stack, expm_stack(stack))

    def test_each_matrix_on_its_own(self):
        # a one-matrix stack takes the degree its own norm needs
        for a in _mixed_stack(3, seed=11):
            _assert_close_to_scipy(a[None], expm_stack(a[None]))

    def test_batch_shape_of_rank_three(self):
        stack = _mixed_stack(4, seed=12)[:30].reshape(2, 3, 5, 4, 4)
        got = expm_stack(stack)
        assert got.shape == stack.shape
        _assert_close_to_scipy(stack, got)
        np.testing.assert_array_equal(got.reshape(-1, 4, 4), expm_stack(stack.reshape(-1, 4, 4)))

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0), (4, 1, 0, 0)])
    def test_empty_stack(self, shape):
        got = expm_stack(np.zeros(shape))
        assert got.shape == shape and got.dtype == complex

    def test_zero_matrices_give_the_identity(self):
        np.testing.assert_array_equal(expm_stack(np.zeros((3, 2, 2))),
                                      np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_squarings_follow_each_norm(self):
        # norms 60 and 1e-3 in one stack: the small matrix is not squared,
        # so it keeps the accuracy it has alone
        rng = np.random.default_rng(13)
        small = 1e-3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        big = 60.0 * 1j * np.diag([1.0, -1.0])
        got = expm_stack(np.array([big, small]))
        ref = expm(small)
        assert np.abs(got[1] - ref).max() <= 4 * EPS * np.abs(ref).max()
        np.testing.assert_allclose(got[0], np.diag(np.exp([60j, -60j])), rtol=0,
                                   atol=1e-13)


class TestResolventStack:
    """A stack of right-hand sides is folded into columns of one solve per z;
    the answer must be that of solving each position on its own."""

    @pytest.mark.parametrize("z", [0.3 + 1.1j, np.array([0.0, -2.0 + 0.5j, 1.5])])
    @pytest.mark.parametrize("shape", [(4, 3), (7, 4, 3), (2, 5, 4, 1)])
    def test_matches_per_position_solves(self, z, shape):
        rng = np.random.default_rng(len(shape))
        n = shape[-2]
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = resolvent_apply(a, z, rhs, spectrum(a))
        zs = np.reshape(z, -1)
        assert got.shape == np.shape(z) + rhs.shape
        flat = got.reshape((zs.size, -1) + shape[-2:])
        for zk, vals in zip(zs, flat):
            for r, x in zip(rhs.reshape((-1,) + shape[-2:]), vals):
                ref = np.linalg.solve(a - zk * np.eye(n), r)
                assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
