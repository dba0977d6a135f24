import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from weylkit._linalg import expm_grid, expm_stack, resolvent_apply, spectrum

from conftest import make_params

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


# generated evolve_grid block matrices: (n, p, seed) of make_params
_GRID_SETS = [(2, 1, 1), (3, 2, 2), (4, 2, 3)]


def _gauss_pair_grid(l=16.0, steps_per_unit=128):
    # the disk oracle's two interleaved Gauss grids, as it passes them: one
    # after the other, so the positions arrive unsorted
    h = 1.0 / steps_per_unit
    base = h * np.arange(int(l * steps_per_unit))
    g = np.sqrt(3.0) / 6.0
    return np.concatenate([base + (0.5 - g) * h, base + (0.5 + g) * h])


_GRIDS = {
    "uniform-101": np.linspace(0.0, 2.0, 101),
    "uniform-4096": np.linspace(0.0, 16.0, 4096),
    "gauss-pair-4096": _gauss_pair_grid(),
    "ragged-300": np.random.default_rng(7).uniform(0.0, 16.0, 300),
}


@pytest.fixture(scope="module")
def mp_exponentials():
    """For each generated set, its (p, 2n, 2n) stack m and, per matrix, a
    function x -> e^{m x} as a complex array, from mpmath's 40-digit
    eigendecomposition of m (one decomposition serves every position),
    checked against mpmath's own expm at x = 16."""
    out = {}
    with mp.workdps(40):
        for n, p, seed in _GRID_SETS:
            m = make_params(n, p, seed=seed).state_generator
            exps = []
            for a in m:
                am = mp.matrix(a.tolist())
                eigs, vecs = mp.eig(am)
                inv = mp.inverse(vecs)
                ref = mp.expm(am * 16)
                diff = vecs * mp.diag([mp.exp(e * 16) for e in eigs]) * inv - ref
                assert mp.mnorm(diff, 1) < mp.mpf(10) ** -30 * mp.mnorm(ref, 1)

                def at(x, eigs=eigs, vecs=vecs, inv=inv):
                    with mp.workdps(40):
                        val = vecs * mp.diag([mp.exp(e * mp.mpf(x)) for e in eigs]) * inv
                        return np.array(val.tolist(), dtype=complex)

                exps.append(at)
            out[(n, p, seed)] = (m, exps)
    return out


class TestExpmGrid:
    """The anchor and offset split of expm_grid against a 40-digit reference,
    at ROADMAP item 7's bar: 1e-14 relative, as the stacked Pade holds it."""

    @pytest.mark.parametrize("grid", list(_GRIDS))
    @pytest.mark.parametrize("n, p, seed", _GRID_SETS)
    def test_matches_mpmath(self, mp_exponentials, n, p, seed, grid):
        m, exps = mp_exponentials[(n, p, seed)]
        xs = _GRIDS[grid]
        got = expm_grid(m, xs)
        assert got.shape == (p, xs.size) + m.shape[-2:]
        # 12 positions spread over the sorted grid, both ends included
        picks = np.argsort(xs, kind="stable")[np.linspace(0, xs.size - 1, 12).astype(int)]
        for c, at in enumerate(exps):
            for i in picks:
                ref = at(xs[i])
                err = np.abs(got[c, i] - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
                assert err <= 1e-14, (grid, c, xs[i], err)

    @pytest.mark.parametrize("n, p, seed", _GRID_SETS)
    def test_unsorted_repeated_and_zero_positions(self, n, p, seed):
        m = make_params(n, p, seed=seed).state_generator
        xs = np.array([1.5, 0.0, 1.5, 0.3, 2.0, 0.3, 0.0, 1.1, 0.7])
        got = expm_grid(m, xs)
        ref = expm_stack(m[:, None] * xs[:, None, None])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        # a repeat of an anchor (1.5 and 0 here) takes no product, so it is
        # the anchor's matrix; x = 0 gives the identity
        np.testing.assert_array_equal(got[:, 0], got[:, 2])
        np.testing.assert_array_equal(got[:, 1], got[:, 6])
        assert np.abs(got[:, 1] - np.eye(2 * n)).max() <= 2 * EPS
        # the runs are taken on the sorted positions: distinct positions in
        # any order give the same bits
        ys = np.random.default_rng(seed).uniform(0.0, 2.0, 30)
        perm = np.random.default_rng(seed + 1).permutation(ys.size)
        np.testing.assert_array_equal(expm_grid(m, ys[perm]), expm_grid(m, ys)[:, perm])

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.4, 1.3, 7.0, 16.0])
    @pytest.mark.parametrize("n, p, seed", _GRID_SETS)
    def test_one_point_is_the_stacked_exponential(self, n, p, seed, x):
        # one point is its own anchor, and an anchor takes no product
        m = make_params(n, p, seed=seed).state_generator
        np.testing.assert_array_equal(expm_grid(m, [x])[:, 0], expm_stack(m * x))

    def test_empty_positions_and_stack_shape(self):
        m = make_params(2, 2, seed=4).state_generator
        got = expm_grid(m, np.zeros(0))
        assert got.shape == (2, 0, 4, 4) and got.dtype == complex
        # an (..., k, k) stack of any rank: the positions take the axis before the matrices
        stack = np.stack([m, 0.5 * m])
        xs = np.linspace(0.0, 2.0, 7)
        np.testing.assert_array_equal(expm_grid(stack, xs)[1], expm_grid(0.5 * m, xs))
