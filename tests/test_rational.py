import re

import numpy as np
import pytest

import weylkit as wk
from weylkit.rational import (
    params_from_realization,
    realization_from_params,
    validate_realization,
)

from conftest import make_params

GRID = [1j, 2j, 1 + 1j, -0.5 + 0.8j]


def scalar_realization():
    # realizes phi(z) = i + (-1) / (-i - z), the constant-i Weyl function
    # shifted by one simple pole at -i
    return wk.Realization(d=[-2.0], gamma=[[-1j]], psi1_0=[[1.0]], psi2=[[-1.0]])


class TestValidate:
    def test_hermitian_gamma_with_equal_psi_passes(self):
        g = np.array([[0.4, 0.1], [0.1, -0.2]])
        psi = np.array([[1.0], [2.0 - 1j]])
        r = wk.Realization(d=[-1.0], gamma=g, psi1_0=psi, psi2=psi)
        assert validate_realization(r, GRID)["passed"]

    def test_round_trip_from_params_passes(self):
        prm = make_params(3, 2, seed=51)
        r = realization_from_params(prm)
        rep = validate_realization(r, GRID)
        assert rep["passed"]
        assert rep["value_at_infinity_error"] < 1e-4

    def test_wrong_sign_identity_fails(self):
        r = wk.Realization(d=[-2.0], gamma=[[0.5j]], psi1_0=[[1.0]], psi2=[[-1.0]])
        rep = validate_realization(r, GRID)
        assert not rep["passed"]
        assert rep["identity_residual"] > 1e-3

    def test_empty_grid_is_structural(self):
        with pytest.raises(wk.StructuralError):
            validate_realization(scalar_realization(), [])

    def test_lower_half_plane_grid_rejected(self):
        with pytest.raises(wk.DomainError):
            validate_realization(scalar_realization(), [1j, -1j])

    def test_nan_grid_point_rejected(self):
        with pytest.raises(wk.DomainError, match="finite z"):
            validate_realization(scalar_realization(), [1j, complex(1.0, np.nan)])

    def test_nonnegative_d_rejected(self):
        with pytest.raises(wk.DomainError):
            wk.Realization(d=[1.0], gamma=[[0.0]], psi1_0=[[0.0]], psi2=[[0.0]])


class TestRealizationPhi:
    def test_batch_equals_stacked_scalar_calls(self):
        r = realization_from_params(make_params(3, 2, seed=52))
        zs = np.array(GRID + [2 - 0.01j])
        np.testing.assert_array_equal(r.phi(zs), np.array([r.phi(z) for z in zs]))

    def test_empty_realization_batch(self):
        r = wk.Realization(d=[-2.0], gamma=np.zeros((0, 0)), psi1_0=np.zeros((0, 1)),
                           psi2=np.zeros((0, 1)))
        np.testing.assert_array_equal(r.phi(np.array(GRID)),
                                      np.tile(1j * np.eye(1), (len(GRID), 1, 1)))

    def test_pole_in_batch_is_named(self):
        with pytest.raises(wk.SingularityError, match=re.escape("z = (-0-1j)")):
            scalar_realization().phi(np.array([1j, 2j, -1j, 0.5j]))


class TestParamsFromRealization:
    def test_equal_psi_direct_substitution(self):
        g = np.array([[0.3]])
        psi = np.array([[2.0 + 1j]])
        r = wk.Realization(d=[-1.5], gamma=g, psi1_0=psi, psi2=psi)
        prm = params_from_realization(r)
        assert np.all(prm.lambda2 == 0)
        np.testing.assert_allclose(prm.lambda1, psi)
        np.testing.assert_allclose(prm.alpha, g)

    def test_scalar_reproduces_constant_weyl_function(self):
        prm = params_from_realization(scalar_realization())
        np.testing.assert_allclose(prm.lambda1, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(prm.lambda2, [[-1.0]], atol=1e-15)
        pair = wk.weyl_pair(prm)
        r = scalar_realization()
        for z in GRID:
            np.testing.assert_allclose(pair.phi(z), r.phi(z), atol=1e-13)

    def test_random_realization_reproduces_rational_form(self):
        prm0 = make_params(3, 2, seed=60)
        r = realization_from_params(prm0)
        prm = params_from_realization(r)
        pair = wk.weyl_pair(prm)
        rng = np.random.default_rng(60)
        for _ in range(20):
            z = complex(rng.normal(), rng.uniform(0.3, 3.0))
            direct = 0.5j * np.diag(np.abs(r.d)) + r.psi1_0.conj().T @ np.linalg.solve(
                r.gamma - z * np.eye(r.n), r.psi2)
            np.testing.assert_allclose(pair.phi(z), direct, atol=1e-8)

    def test_output_satisfies_parameter_identity(self):
        r = realization_from_params(make_params(4, 2, seed=61))
        prm = params_from_realization(r)
        rep = wk.validate_params(prm)
        assert rep["passed"]
        # identity transport is exact algebra: residual at rounding level
        scale = max(np.linalg.norm(m, 2) for m in
                    (prm.alpha, prm.lambda1, prm.lambda2)) ** 2 + 1.0
        assert rep["identity_residual"] <= 10 * np.finfo(float).eps * scale

    def test_invalid_input_raises_with_report(self):
        r = wk.Realization(d=[-2.0], gamma=[[0.5j]], psi1_0=[[1.0]], psi2=[[-1.0]])
        with pytest.raises(wk.ValidationError) as err:
            params_from_realization(r)
        assert "identity_residual" in err.value.report


class TestRealizationFromParams:
    def test_zero_data(self):
        prm = wk.GbdtParams(d=[-2.0], alpha=np.eye(2), lambda1=np.zeros((2, 1)),
                            lambda2=np.zeros((2, 1)))
        r = realization_from_params(prm)
        np.testing.assert_allclose(r.gamma, prm.alpha)
        assert np.all(r.psi1_0 == 0) and np.all(r.psi2 == 0)

    def test_mixed_sign_d_rejected(self):
        prm = make_params(3, 2, seed=62, negative=False)
        if prm.d_negative:  # reroll deterministic seed if all negative
            prm = wk.GbdtParams(d=np.abs(prm.d), alpha=prm.alpha,
                                lambda1=prm.lambda1, lambda2=prm.lambda2)
        with pytest.raises(wk.DomainError):
            realization_from_params(prm)

    @pytest.mark.parametrize("seed", [63, 64])
    def test_algebraic_round_trip(self, seed):
        prm = make_params(3, 2, seed=seed)
        r = realization_from_params(prm)
        back = realization_from_params(params_from_realization(r))
        assert np.abs(back.gamma - r.gamma).max() < 1e-12
        assert np.abs(back.psi1_0 - r.psi1_0).max() < 1e-12
        assert np.abs(back.psi2 - r.psi2).max() < 1e-12
