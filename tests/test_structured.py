import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm, lapack, solve_sylvester, solve_triangular

import weylkit as wk
from weylkit._linalg import anti_diag_j, hermitize
from weylkit.fourier import WeylSampler, amplitude_from_weyl
from weylkit.gbdt import hamiltonian_grid
from weylkit.grids import DifferenceKernel, GridFunction
from weylkit.structured import (
    StructuredOperator,
    TriangularFactor,
    _pi_samples,
    _panels,
    _snode_block,
    _snode_pass,
    accelerant_from_potential,
    build_structured_operator,
    canonical_from_kernel,
    disk_radius_estimate,
    factorize_triangular,
    fundamental_from_kernel,
    hamiltonian_difference_quotient,
    recover_potential,
    recover_potential_at_edge,
    schur_recover,
    theta_functions,
    weyl_disk_approx,
)

from conftest import (
    GAUSS_D,
    const_v_hamiltonian,
    const_v_phi,
    const_v_theta1,
    gauss_kernel,
    make_params,
)


def zero_kernel(l=1.0, h=1 / 64, p=1):
    m = int(round(l / h))
    return DifferenceKernel(p=p, h=h, samples=np.zeros((m, p, p)))


def exp_kernel(c=0.1, l=1.0, h=1 / 256):
    return DifferenceKernel.from_function(lambda x: c * np.exp(-x) * np.ones((1, 1)),
                                          p=1, l=l, h=h)


def dirac_chain_kernel(h=1 / 256, xmax=2.0):
    """Accelerant of the constant-potential Dirac system via its Weyl function."""
    samp = WeylSampler(fn=const_v_phi, p=1, source="oracle")
    _, kern, _ = amplitude_from_weyl(samp, eta=1.0, a=200.0, h=h, xmax=xmax,
                                     mode="dirac")
    return kern


class TestBuild:
    def test_zero_kernel_gives_identity(self):
        op = build_structured_operator(zero_kernel())
        np.testing.assert_array_equal(op.s, np.eye(op.s.shape[0]))

    def test_exponential_entries_and_positivity(self):
        kern = exp_kernel()
        op = build_structured_operator(kern)
        xs = kern.xs
        i, j = 13, 101
        expect = kern.h * 0.1 * np.exp(-abs(xs[i] - xs[j]))
        assert op.s[i, j] == pytest.approx(expect, abs=1e-5)
        assert np.linalg.eigvalsh(op.s).min() > 0

    def test_hermitian_exactly(self):
        op = build_structured_operator(
            DifferenceKernel.from_function(gauss_kernel, p=2, l=1.0, h=1 / 64))
        assert np.abs(op.s - op.s.conj().T).max() == 0.0

    def test_weighted_requires_negative_d(self):
        with pytest.raises(wk.DomainError):
            build_structured_operator(zero_kernel(), d=[1.0])

    def test_kernel_domain_must_cover_scaled_arguments(self):
        kern = zero_kernel(l=1.0)
        with pytest.raises(wk.StructuralError):
            build_structured_operator(kern, d=[-2.0], l=1.0)

    def test_step_must_divide_length(self):
        with pytest.raises(wk.StructuralError):
            build_structured_operator(zero_kernel(l=1.0, h=1 / 64), l=0.7001)


class TestFactorize:
    def test_identity_factorizes_trivially(self):
        fac = factorize_triangular(build_structured_operator(zero_kernel()))
        assert np.abs(fac.w - np.eye(fac.w.shape[0])).max() == 0.0
        assert np.abs(fac.winv - np.eye(fac.w.shape[0])).max() == 0.0

    def test_factorization_residual(self):
        op = build_structured_operator(exp_kernel())
        fac = factorize_triangular(op)
        eye = np.eye(op.s.shape[0])
        assert np.linalg.norm(fac.w @ op.s @ fac.w.conj().T - eye, 2) <= 1e-8

    def test_inverse_pair(self):
        op = build_structured_operator(exp_kernel())
        fac = factorize_triangular(op)
        eye = np.eye(op.s.shape[0])
        assert np.abs(fac.w @ fac.winv - eye).max() < 1e-10

    @pytest.mark.parametrize("d", [None, GAUSS_D])
    def test_keeps_cholesky_factor_only(self, d):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.0, h=1 / 64)
        op = build_structured_operator(kern, d=d, l=0.5)
        fac = factorize_triangular(op)
        dense = [v for v in vars(fac).values() if isinstance(v, np.ndarray)]
        assert len(dense) == 1 and dense[0] is fac.winv
        c, _ = lapack.zpotrf(op.s, lower=1, clean=1)
        assert np.abs(fac.winv - c).max() <= 1e-12 * np.abs(c).max()
        assert fac.w is not fac.w          # formed anew on each request

    # equal weights make the S-node X block Toeplitz, hence the ids
    @pytest.mark.parametrize("d", [(-1.0, -np.sqrt(2.0)), (-1.25, -1.25)],
                             ids=["S-node", "Toeplitz"])
    def test_canonical_factor_is_the_eager_factor(self, d):
        # one pass yields C and W Pi: C as factorize_triangular forms it,
        # W Pi as the same pass yields it without C
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 128)
        beta, ham, op, fac = canonical_from_kernel(kern, d=d, l=1.0, return_factor=True)
        assert fac.m == op.m
        np.testing.assert_array_equal(fac.winv, factorize_triangular(op).winv)
        beta0, ham0 = canonical_from_kernel(kern, d=d, l=1.0)
        np.testing.assert_array_equal(beta.values, beta0.values)
        np.testing.assert_array_equal(ham.values, ham0.values)

    def test_not_positive_names_minor(self):
        kern = DifferenceKernel.from_function(
            lambda x: -3.0 * np.exp(-x) * np.ones((1, 1)), p=1, l=1.0, h=1 / 64)
        op = build_structured_operator(kern)
        assert np.linalg.eigvalsh(op.s).min() < 0
        with pytest.raises(wk.PositivityError) as err:
            factorize_triangular(op)
        assert err.value.minor is not None and err.value.minor > 0

    @pytest.mark.parametrize("c", [0.05, 0.5, -0.8, -2.0, -4.0])
    def test_positivity_gate_matches_dense_eigensolve(self, c):
        kern = DifferenceKernel.from_function(
            lambda x: c * np.exp(-x) * np.ones((1, 1)), p=1, l=1.0, h=1 / 128)
        op = build_structured_operator(kern)
        pd = np.linalg.eigvalsh(op.s).min() > 0
        # the generator pass against LAPACK's Cholesky of the dense X
        _, info = lapack.zpotrf(op.s, lower=1)
        assert (info == 0) == pd
        if pd:
            factorize_triangular(op)
        else:
            with pytest.raises(wk.PositivityError) as err:
                factorize_triangular(op)
            assert err.value.minor == info


class TestRecoverPotential:
    def test_zero_kernel_zero_potential(self):
        v = recover_potential(zero_kernel())
        assert np.abs(v.values).max() == 0.0

    def test_constant_potential_chain(self):
        kern = dirac_chain_kernel(h=1 / 256)
        v = recover_potential(kern, mode="endpoint")
        mask = v.xs < 1.0
        assert np.abs(v.values[mask] - 0.5).max() < 2e-2

    def test_modes_agree_on_smooth_kernel(self):
        kern = dirac_chain_kernel(h=1 / 256)
        v1 = recover_potential(kern, mode="endpoint")
        v2 = recover_potential(kern, mode="kernel-edge")
        assert np.abs(v1.values - v2.values).max() < 5e-3

    def test_kernel_edge_reads_first_block_column_of_w(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.0, h=1 / 64)
        fac = factorize_triangular(build_structured_operator(kern))
        v = recover_potential(kern, mode="kernel-edge", factor=fac)
        w0 = fac.w[:, :2].reshape(fac.m, 2, 2)
        ref = -2j * w0 / kern.h
        assert np.abs(v.values[1:] - ref[1:]).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(v.values[0], v.values[1])

    def test_edge_formula_matches_endpoint_mode(self):
        kern = dirac_chain_kernel(h=1 / 256)
        edge = recover_potential_at_edge(kern)
        v = recover_potential(kern, mode="endpoint")
        assert np.abs(edge - v.values[-1]).max() < 5e-3

    def test_unknown_mode_is_structural(self):
        with pytest.raises(wk.StructuralError):
            recover_potential(zero_kernel(), mode="sideways")

    def test_positivity_failure_propagates(self):
        kern = DifferenceKernel.from_function(
            lambda x: -3.0 * np.exp(-x) * np.ones((1, 1)), p=1, l=1.0, h=1 / 64)
        with pytest.raises(wk.PositivityError):
            recover_potential(kern)


# the read-offs that take a factor, as (kernel, **kwargs) -> values
FACTOR_READOFFS = {
    "endpoint": lambda k, **kw: recover_potential(k, **kw).values,
    "kernel-edge": lambda k, **kw: recover_potential(k, mode="kernel-edge", **kw).values,
}


@pytest.mark.parametrize("readoff", FACTOR_READOFFS.values(), ids=FACTOR_READOFFS.keys())
class TestPassedFactorIsChecked:
    def test_factor_length_must_equal_l(self, readoff):
        kern = exp_kernel(l=1.0, h=1 / 64)
        fac = factorize_triangular(build_structured_operator(kern))
        with pytest.raises(wk.StructuralError):
            readoff(kern, l=0.5, factor=fac)
        half = factorize_triangular(build_structured_operator(kern, l=0.5))
        assert readoff(kern, l=0.5, factor=half).shape[0] == 32

    def test_factor_step_must_equal_kernel_step(self, readoff):
        coarse = factorize_triangular(build_structured_operator(exp_kernel(l=1.0, h=1 / 64)))
        with pytest.raises(wk.StructuralError):
            readoff(exp_kernel(l=1.0, h=1 / 128), factor=coarse)

    def test_factor_longer_than_kernel(self, readoff):
        long = factorize_triangular(build_structured_operator(exp_kernel(l=1.0, h=1 / 64)))
        with pytest.raises(wk.StructuralError):
            readoff(exp_kernel(l=0.5, h=1 / 64), factor=long)


@pytest.mark.parametrize("l", [np.nan, np.inf, 0.0, -1.0])
class TestOperatorLength:
    """A non-finite or non-positive l is a DomainError naming l, with or
    without a passed factor."""

    def _raises(self, call, l):
        with pytest.raises(wk.DomainError, match=f"operator length l = {l} must be finite"):
            call()

    def test_without_factor(self, l):
        kern = exp_kernel(l=1.0, h=1 / 32)
        for call in (lambda: build_structured_operator(kern, l=l),
                     lambda: build_structured_operator(kern, d=[-1.0], l=l),
                     lambda: recover_potential(kern, l=l),
                     lambda: recover_potential(kern, l=l, mode="kernel-edge"),
                     lambda: theta_functions(kern, l=l),
                     lambda: recover_potential_at_edge(kern, l=l),
                     lambda: canonical_from_kernel(kern, d=[-1.0], l=l),
                     lambda: canonical_from_kernel(kern, d=[-1.0], l=l, return_factor=True),
                     lambda: hamiltonian_difference_quotient(kern, [-1.0], [4], l=l),
                     lambda: fundamental_from_kernel(kern, [-1.0], l, 0.5j)):
            self._raises(call, l)

    def test_with_factor(self, l):
        kern = exp_kernel(l=1.0, h=1 / 32)
        fac = factorize_triangular(build_structured_operator(kern))
        for call in (lambda: recover_potential(kern, l=l, factor=fac),
                     lambda: recover_potential(kern, l=l, mode="kernel-edge", factor=fac)):
            self._raises(call, l)


class TestOnePassMemory:
    def test_readoffs_form_no_dense_matrix(self, monkeypatch):
        # M = 2048, p = 1: a (pM)^2 complex matrix is 67 MB
        kern = exp_kernel(c=0.3, l=2.0, h=1 / 1024)
        monkeypatch.setattr(StructuredOperator, "s", property(
            lambda op: pytest.fail("the read-off formed the dense S")))
        for readoff in (lambda: recover_potential(kern),
                        lambda: recover_potential(kern, mode="kernel-edge"),
                        lambda: theta_functions(kern)):
            tracemalloc.start()
            try:
                readoff()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4e6

    def test_distinct_canonical_forms_no_dense_matrix(self, monkeypatch):
        # d = (-1, -sqrt 2), M = 1024, p = 2: a (pM)^2 complex matrix is 67 MB
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 1024)
        monkeypatch.setattr(StructuredOperator, "s", property(
            lambda op: pytest.fail("the canonical read-off formed the dense S")))
        tracemalloc.start()
        try:
            beta, _ = canonical_from_kernel(kern, d=[-1.0, -np.sqrt(2.0)], l=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert beta.m == 1024
        assert peak < 4e6

    @pytest.mark.parametrize("d", [(-1.0, -np.sqrt(2.0)), (-1.25, -1.25)],
                             ids=["S-node", "Toeplitz"])    # as above
    def test_fundamental_forms_no_dense_matrix(self, d, monkeypatch):
        # M = 1024, p = 2: C or S, a (pM)^2 complex matrix, is 67 MB
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 1024)
        monkeypatch.setattr(StructuredOperator, "s", property(
            lambda op: pytest.fail("the call formed the dense S")))
        zs = np.array([0.7 + 0.5j, -1.0 + 2.0j])
        for call in (lambda: canonical_from_kernel(kern, d=d, l=1.0),
                     lambda: fundamental_from_kernel(kern, d, 1.0, zs)):
            tracemalloc.start()
            try:
                out = call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4e6
        assert out.shape == (2, 4, 4)


class TestReadOffOrder:
    """Both read-offs are O(h): grid refinement on the rank-p kernel
    k(x) = e^{ibx} C, C Hermitian positive, whose potential is known.

    k(x - t) = e^{ibx} C e^{-ibt}, so S_x^-1 k solves in closed form and
    v(y) = 2i e^{2iby} C (I + 2y C)^-1.  Measured max errors on (0, 1/2)
    at h = 1/64, 1/128, 1/256 fall by 1.975, 1.987 (endpoint) and 1.979,
    1.990 (kernel-edge) per halving.
    """

    C = np.array([[0.8, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])
    B = 1.5

    def _error(self, h, mode):
        m = int(round(1.0 / h))
        xs = h * (np.arange(m) + 0.5)
        samples = np.exp(1j * self.B * xs)[:, None, None] * self.C
        kern = DifferenceKernel(p=2, h=h, samples=samples)
        v = recover_potential(kern, mode=mode)
        y = v.xs[:, None, None]
        true = 2j * np.exp(2j * self.B * y) * np.linalg.solve(
            np.eye(2) + 2.0 * y * self.C, np.broadcast_to(self.C, v.values.shape))
        return np.abs(v.values - true).max()

    @pytest.mark.parametrize("mode", ["endpoint", "kernel-edge"])
    def test_first_order(self, mode):
        errs = [self._error(h, mode) for h in (1 / 64, 1 / 128, 1 / 256)]
        assert errs[-1] < 1e-2
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 1.6, errs


class TestTheta:
    def test_zero_kernel_constants(self):
        th1, th2 = theta_functions(zero_kernel())
        expect1 = np.array([[1.0, 1.0]]) / np.sqrt(2)
        expect2 = np.array([[-1.0, 1.0]]) / np.sqrt(2)
        assert np.abs(th1.values - expect1[None]).max() < 1e-14
        assert np.abs(th2.values - expect2[None]).max() < 1e-14

    def test_initial_value_any_kernel(self):
        th1, _ = theta_functions(exp_kernel(h=1 / 512))
        np.testing.assert_allclose(th1.values[0],
                                   np.array([[1.0, 1.0]]) / np.sqrt(2), atol=5e-3)

    def test_orthogonality_relation(self):
        kern = dirac_chain_kernel(h=1 / 256)
        th1, th2 = theta_functions(kern)
        J = anti_diag_j(1)
        prod = np.einsum("mij,jk,mlk->mil", th1.values, J, th2.values.conj())
        assert np.abs(prod).max() < 1e-6

    def test_against_closed_form_chain(self):
        kern = dirac_chain_kernel(h=1 / 256)
        th1, th2 = theta_functions(kern)
        th1_true = np.array([const_v_theta1(x) for x in th1.xs])
        assert np.abs(th1.values - th1_true).max() < 2e-3

    def test_potential_from_theta_derivative(self):
        kern = dirac_chain_kernel(h=1 / 256)
        th1, th2 = theta_functions(kern)
        J = anti_diag_j(1)
        vv = 1j * np.einsum("mij,jk,mlk->mil", th1.derivative().values, J,
                            th2.values.conj())
        assert np.abs(vv[3:-3] - 0.5).max() < 5e-3

    def test_self_orthogonality_of_derivative(self):
        kern = dirac_chain_kernel(h=1 / 256)
        th1, _ = theta_functions(kern)
        J = anti_diag_j(1)
        prod = np.einsum("mij,jk,mlk->mil", th1.derivative().values, J,
                         th1.values.conj())
        assert np.abs(prod[3:-3]).max() < 5e-3


class TestAccelerantFromPotential:
    def test_zero_potential(self):
        fac = factorize_triangular(build_structured_operator(zero_kernel()))
        v = GridFunction(h=zero_kernel().h / 2, values=np.zeros((64, 1, 1)),
                         x0=zero_kernel().h / 4)
        k = accelerant_from_potential(v, fac)
        assert np.abs(k.samples).max() == 0.0

    def test_leading_term_with_trivial_factor(self):
        m, h = 32, 1 / 32
        fac = TriangularFactor(c=np.eye(m, dtype=complex), h=h, p=1)
        vals = np.linspace(0.1, 0.8, m).reshape(m, 1, 1).astype(complex)
        v = GridFunction(h=h / 2, values=vals, x0=h / 4)
        k = accelerant_from_potential(v, fac)
        np.testing.assert_allclose(k.samples, -0.5j * vals, atol=1e-14)

    def test_round_trip_through_potential(self):
        kern = dirac_chain_kernel(h=1 / 256)
        fac = factorize_triangular(build_structured_operator(kern))
        v = recover_potential(kern, mode="endpoint", factor=fac)
        back = accelerant_from_potential(v, fac)
        assert np.abs(back.samples - kern.samples).max() < 5e-3

    def test_grid_mismatch_is_structural(self):
        fac = factorize_triangular(build_structured_operator(zero_kernel()))
        v = GridFunction(h=1 / 7, values=np.zeros((10, 1, 1)))
        with pytest.raises(wk.StructuralError):
            accelerant_from_potential(v, fac)


class TestCanonical:
    def test_zero_kernel_constant_hamiltonian(self):
        kern = zero_kernel(l=1.0, h=1 / 64)
        beta, ham = canonical_from_kernel(kern, d=[-1.0])
        assert np.abs(beta.values - np.array([[-0.5, 1.0]])[None]).max() < 1e-14
        expect = np.array([[0.25, -0.5], [-0.5, 1.0]])
        assert np.abs(ham.values - expect[None]).max() < 1e-14

    def test_beta_j_beta_identity(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 256)
        beta, _ = canonical_from_kernel(kern, d=GAUSS_D, l=0.75)
        J = anti_diag_j(2)
        prod = np.einsum("mij,jk,mlk->mil", beta.values, J, beta.values.conj())
        assert np.abs(prod - np.diag(GAUSS_D)).max() < 1e-3

    def test_hamiltonian_against_difference_quotient(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 256)
        beta, ham = canonical_from_kernel(kern, d=GAUSS_D, l=0.75)
        for (x, est), idx in zip(
                hamiltonian_difference_quotient(kern, GAUSS_D, [50, 120], l=0.75),
                [50, 120]):
            mid = 0.5 * (ham.values[idx - 1] + ham.values[idx])
            assert np.abs(est - mid).max() < 5e-4

    def test_positivity_propagates(self):
        kern = DifferenceKernel.from_function(
            lambda x: -3.0 * np.exp(-x) * np.ones((1, 1)), p=1, l=1.0, h=1 / 64)
        with pytest.raises(wk.PositivityError):
            canonical_from_kernel(kern, d=[-1.0])

    def test_truncation_leaves_head_unchanged(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 256)
        _, ham = canonical_from_kernel(kern, d=GAUSS_D, l=0.75)
        _, ham_tr = canonical_from_kernel(kern.truncated(1.0), d=GAUSS_D, l=0.75)
        head = ham.xs < 0.5      # 1 / max|d|
        assert np.abs(ham.values[head] - ham_tr.values[head]).max() < 1e-3
        assert np.abs(ham.values - ham_tr.values).max() > 1e-3


class TestFundamentalFromKernel:
    def test_identity_at_zero_energy(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 128)
        w = fundamental_from_kernel(kern, GAUSS_D, 0.75, 0.0)
        np.testing.assert_array_equal(w, np.eye(4))

    def test_free_kernel_matches_constant_hamiltonian_flow(self):
        kern = zero_kernel(l=0.5, h=1 / 256)
        z = 0.7 + 0.5j
        w = fundamental_from_kernel(kern, [-1.0], 0.5, z)
        h_const = np.array([[0.25, -0.5], [-0.5, 1.0]])
        J = anti_diag_j(1)
        expect = expm(1j * z * J @ h_const * 0.5)
        assert np.abs(w - expect).max() < 1e-5

    def test_accumulated_positivity(self):
        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 128)
        J = anti_diag_j(2)
        e1 = np.eye(4)[:, :2]
        for z in (1j, 0.5 + 0.5j, -1 + 2j):
            calw = fundamental_from_kernel(kern, GAUSS_D, 0.75, np.conj(z)).conj().T
            winv = np.linalg.inv(calw)
            r = -e1.T @ winv.conj().T @ J @ winv @ e1
            assert np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() > -1e-10


class TestWeylDisk:
    def test_free_dirac_converges_to_constant(self, free_hamiltonian):
        for z in (1j, 2j, 1 + 1j):
            val = weyl_disk_approx(lambda x: free_hamiltonian, z, l=40.0 / z.imag)
            assert np.abs(val - 1j) .max() < 1e-6

    def test_gbdt_system_matches_rational_weyl_function(self):
        prm = make_params(2, 1, seed=70)
        pair = wk.weyl_pair(prm)
        z = 1.5j
        val = weyl_disk_approx(lambda x: hamiltonian_grid(prm, x), z,
                               l=40.0 / z.imag, steps_per_unit=128)
        assert np.abs(val - pair.phi(z)).max() < 1e-6

    def test_constant_potential_system_matches_closed_form(self):
        z = 1j
        val = weyl_disk_approx(const_v_hamiltonian, z, l=12.0, steps_per_unit=256)
        assert np.abs(val - const_v_phi(z)).max() < 1e-6

    def test_grid_hamiltonian_input(self, free_hamiltonian):
        z = 2j
        grid = GridFunction(h=1 / 64, values=np.tile(free_hamiltonian, (int(64 * 20), 1, 1)),
                            x0=1 / 128)
        val = weyl_disk_approx(grid, z, l=20.0)
        assert np.abs(val - 1j).max() < 1e-6

    def test_pair_variation_stays_within_disk(self):
        prm = make_params(2, 1, seed=71)
        z, l = 1j, 6.0
        ham = lambda x: hamiltonian_grid(prm, x)
        pairs = [
            (np.eye(1, dtype=complex), 1j * np.eye(1, dtype=complex)),
            (1j * np.eye(1, dtype=complex), np.eye(1, dtype=complex)),
            (np.eye(1, dtype=complex), (1.0 + 1j) * np.eye(1)),
        ]
        vals = [weyl_disk_approx(ham, z, l=l, pair=pr, steps_per_unit=128)
                for pr in pairs]
        radius = disk_radius_estimate(ham, z, l=l, steps_per_unit=128)
        for i in range(len(vals)):
            for j in range(i):
                assert np.linalg.norm(vals[i] - vals[j], 2) <= 2.0 * radius

    def test_invalid_pair_rejected(self, free_hamiltonian):
        bad = (np.eye(1, dtype=complex), -np.eye(1, dtype=complex))
        with pytest.raises(wk.DomainError):
            weyl_disk_approx(lambda x: free_hamiltonian, 1j, l=2.0, pair=bad)
        degenerate = (np.zeros((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex))
        with pytest.raises(wk.DomainError):
            weyl_disk_approx(lambda x: free_hamiltonian, 1j, l=2.0, pair=degenerate)

    def test_lower_half_plane_rejected(self, free_hamiltonian):
        with pytest.raises(wk.DomainError):
            weyl_disk_approx(lambda x: free_hamiltonian, -1j, l=2.0)

    def test_callable_contract(self, free_hamiltonian):
        # a callable gets the array of all nodes and returns their stack, or
        # one matrix for a constant H; any other shape is a structural error
        seen = []

        def stack(x):
            seen.append(np.shape(x))
            return np.broadcast_to(free_hamiltonian, np.shape(x) + (2, 2))

        w_stack = wk.structured.propagate_fundamental(stack, 1j, 2.0, steps_per_unit=16)
        w_const = wk.structured.propagate_fundamental(lambda x: free_hamiltonian, 1j, 2.0,
                                                      steps_per_unit=16)
        assert seen == [(64,)]
        np.testing.assert_array_equal(w_stack, w_const)
        for bad in (lambda x: np.zeros((np.size(x) + 1, 2, 2)),
                    lambda x: np.zeros((np.size(x), 2, 3)),
                    lambda x: np.zeros((np.size(x), 3, 3)),
                    lambda x: np.zeros(np.size(x))):
            with pytest.raises(wk.StructuralError, match="Hamiltonian callable"):
                weyl_disk_approx(bad, 1j, l=2.0, steps_per_unit=16)


    def test_one_point_callable_refused(self):
        # a callable that can only take one position raises on the array of
        # nodes instead of being broadcast as the constant H(0)
        prm = wk.GbdtParams(d=[-2.0], alpha=[[1j]], lambda1=[[1.0]], lambda2=[[1.0]])
        with pytest.raises(wk.StructuralError, match="x must be a scalar"):
            weyl_disk_approx(lambda x: wk.hamiltonian_direct(prm, x), 1j, l=2.0,
                             steps_per_unit=16)


class TestBatchedDiskOracle:
    """An array of z shares one sampling of H and one length l; every z must
    get what a call of its own gives."""

    ZS = np.array([0.3 + 1j, -1.0 + 1.5j, 2.0 + 0.8j, 1.2j, -0.4 + 0.9j])

    @staticmethod
    def _hamiltonian(p, kind):
        prm = make_params(2 * p, p, seed=60 + p)
        if kind == "callable":
            return lambda x: hamiltonian_grid(prm, x)
        xs = (np.arange(6 * 64) + 0.5) / 64
        return GridFunction(h=1 / 64, values=hamiltonian_grid(prm, xs), x0=1 / 128)

    @pytest.mark.parametrize("kind", ["callable", "grid"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_batch_equals_per_z_calls(self, p, kind):
        from weylkit.structured import propagate_fundamental

        ham = self._hamiltonian(p, kind)
        for fn in (weyl_disk_approx, disk_radius_estimate, propagate_fundamental):
            batch = fn(ham, self.ZS, 6.0, steps_per_unit=64)
            single = np.array([fn(ham, z, 6.0, steps_per_unit=64) for z in self.ZS])
            assert batch.shape == single.shape
            assert np.abs(batch - single).max() <= 1e-12 * np.abs(single).max(), fn

    @pytest.mark.parametrize("p", [1, 2])
    def test_step_chunks_equal_one_chunk(self, p, monkeypatch):
        # a z whose steps do not fit one chunk is propagated chunk by chunk
        ham = self._hamiltonian(p, "callable")
        whole = weyl_disk_approx(ham, self.ZS, 6.0, steps_per_unit=64)
        monkeypatch.setattr(wk.structured, "_DISK_CHUNK", 50 * (2 * p) ** 2)
        chunked = weyl_disk_approx(ham, self.ZS, 6.0, steps_per_unit=64)
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_point_below_the_axis_is_named(self, free_hamiltonian):
        with pytest.raises(wk.DomainError, match=r"z = \(1-0\.5j\)"):
            weyl_disk_approx(lambda x: free_hamiltonian, np.array([1j, 1 - 0.5j]), l=2.0)


class TestDiskConvergenceOrder:
    """Errors against the rational Weyl function of a generated n = 2, p = 1
    set at l = 16, z = 1.5i, where the disk radius is far below them."""

    PRM = make_params(2, 1, seed=3)
    Z, L = 1.5j, 16.0

    def _errors(self, hamiltonians, resolutions):
        ref = wk.weyl_pair(self.PRM).phi(self.Z)
        return [np.abs(weyl_disk_approx(ham, self.Z, self.L, steps_per_unit=res) - ref).max()
                / np.abs(ref).max() for ham, res in zip(hamiltonians, resolutions)]

    def test_magnus_stepper_is_fourth_order(self):
        ham = lambda x: hamiltonian_grid(self.PRM, x)
        errs = self._errors([ham] * 3, [8, 16, 32])
        assert errs[-1] > 1e-9
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 12.0, errs

    def test_midpoint_stepping_on_a_grid_is_second_order(self):
        grids = []
        for res in (32, 64, 128):
            xs = np.arange(int(self.L * res) + 1) / res
            grids.append(GridFunction(h=1.0 / res, values=hamiltonian_grid(self.PRM, xs)))
        errs = self._errors(grids, [32, 64, 128])
        assert errs[-1] > 1e-9
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.0, errs


class TestSchur:
    def test_constant_coefficient_trivial(self):
        rho = GridFunction.from_function(lambda x: np.eye(1), h=1 / 64, m=64,
                                         x0=1 / 128)
        b1, b2 = schur_recover(rho)
        np.testing.assert_allclose(b2.values, np.ones((64, 1, 1)), atol=1e-12)
        np.testing.assert_allclose(b1.values, np.ones((64, 1, 1)), atol=1e-12)

    def test_round_trip_through_dirac_chain(self):
        kern = dirac_chain_kernel(h=1 / 256)
        th1, _ = theta_functions(kern)
        beta = np.sqrt(2.0) * th1.values
        beta1, beta2 = beta[:, :, :1], beta[:, :, 1:]
        rho_vals = np.einsum("mij,mjk->mik", np.linalg.inv(beta2), beta1)
        for r in rho_vals:
            assert np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() > 0
        rho = GridFunction(h=th1.h, values=rho_vals, x0=th1.x0)
        b1, b2 = schur_recover(rho)
        assert np.abs(b2.values - beta2).max() < 1e-3
        assert np.abs(b1.values - beta1).max() < 1e-3
        full = np.concatenate([b1.values, b2.values], axis=2)
        J = anti_diag_j(1)
        deriv = GridFunction(h=b1.h, values=full, x0=b1.x0).derivative().values
        prod = np.einsum("mij,jk,mlk->mil", deriv, J, full.conj())
        assert np.abs(prod[3:-3]).max() < 5e-4

    def test_losing_positivity_raises(self):
        vals = np.array([[[1.0 + 0j]], [[0.5 + 0j]], [[-0.1 + 0j]], [[0.4 + 0j]],
                         [[0.7 + 0j]], [[0.9 + 0j]], [[1.0 + 0j]]])
        rho = GridFunction(h=0.1, values=vals, x0=0.05)
        with pytest.raises(wk.DomainError):
            schur_recover(rho)


class TestWeylDiskBlockCase:
    def test_block_system_matches_rational_weyl_function(self):
        prm = make_params(3, 2, seed=301)
        pair = wk.weyl_pair(prm)
        z = 1.5j
        val = weyl_disk_approx(lambda x: hamiltonian_grid(prm, x), z, l=12.0,
                               steps_per_unit=128)
        assert np.abs(val - pair.phi(z)).max() < 1e-6

    def test_state_growth_beyond_double_precision_is_reported(self):
        from weylkit.gbdt import evolve_state

        prm = make_params(3, 2, seed=301)
        with pytest.raises(wk.DomainError):
            evolve_state(prm, 30.0)


class TestSnodeAgainstPropagation:
    def test_fundamental_matches_ode_on_varying_hamiltonian(self):
        from weylkit.structured import propagate_fundamental

        kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.0, h=1 / 256)
        l = 0.5
        _, ham = canonical_from_kernel(kern, d=GAUSS_D, l=l)
        for z in (0.8j, 1.0 + 0.5j):
            w_node = fundamental_from_kernel(kern, GAUSS_D, l, z)
            w_ode = propagate_fundamental(ham, z, l, steps_per_unit=2048)
            assert np.abs(w_node - w_ode).max() < 5e-4


def rational_accelerant(pair):
    """Closed-form accelerant of a rational Weyl function with D < 0.

    The one-sided transform of k equals -i psi1_0* (gamma - z)^-1 psi2,
    whose inverse is the matrix exponential psi1_0* e^{-i gamma x} psi2
    (all poles of the transform sit below the real axis).
    """
    phi = pair.weyl

    def k(x):
        return phi.psi1_0.conj().T @ expm(-1j * phi.gamma * x) @ phi.psi2
    return k


class TestExplicitVsKernelRoute:
    def test_scalar_loop_recovers_explicit_hamiltonian(self):
        prm = make_params(2, 1, seed=404)
        pair = wk.weyl_pair(prm)
        h = 1 / 256
        kern = DifferenceKernel.from_function(rational_accelerant(pair), p=1,
                                              l=2.0, h=h)
        l = np.floor((2.0 / np.abs(prm.d).max()) / h) * h
        _, ham = canonical_from_kernel(kern, d=prm.d, l=l)
        h_true = hamiltonian_grid(prm, ham.xs)
        assert np.abs(ham.values - h_true).max() < 1e-4

    def test_equal_weights_loop_recovers_explicit_hamiltonian(self):
        base = make_params(2, 2, seed=505)
        prm = wk.GbdtParams(d=[-1.3, -1.3], alpha=base.alpha,
                            lambda1=base.lambda1, lambda2=base.lambda2)
        pair = wk.weyl_pair(prm)
        h = 1 / 256
        kern = DifferenceKernel.from_function(rational_accelerant(pair), p=2,
                                              l=2.5, h=h)
        l = np.floor((2.5 / 1.3) / h) * h
        _, ham = canonical_from_kernel(kern, d=prm.d, l=l)
        h_true = hamiltonian_grid(prm, ham.xs)
        assert np.abs(ham.values - h_true).max() < 1e-4

    def test_distinct_weights_reproduce_weyl_function_not_hamiltonian(self):
        # with distinct weights the kernel-built system is a different
        # phi-equivalent representative: same Weyl function, different H
        base = make_params(2, 2, seed=505)
        prm = wk.GbdtParams(d=[-0.8, -2.0], alpha=base.alpha,
                            lambda1=base.lambda1, lambda2=base.lambda2)
        pair = wk.weyl_pair(prm)
        h = 1 / 128
        kern = DifferenceKernel.from_function(rational_accelerant(pair), p=2,
                                              l=12.0, h=h)
        l = np.floor(6.0 / h) * h
        _, ham = canonical_from_kernel(kern, d=prm.d, l=l)
        z = 2.0j
        val = weyl_disk_approx(GridFunction(h=ham.h, values=ham.values, x0=ham.x0),
                               z, l=float(l))
        assert np.abs(val - pair.phi(z)).max() < 1e-4
        assert np.abs(ham.values - hamiltonian_grid(prm, ham.xs)).max() > 0.1

    def test_fourier_recovery_matches_closed_form_accelerant(self):
        from weylkit.fourier import WeylSampler, amplitude_from_weyl

        prm = make_params(2, 2, seed=505)
        pair = wk.weyl_pair(prm)
        samp = WeylSampler.from_weyl_pair(pair)
        _, kern, _ = amplitude_from_weyl(samp, eta=1.0, a=200.0, h=1 / 256,
                                         xmax=2.0, mode="canonical", d=prm.d)
        k_fn = rational_accelerant(pair)
        k_true = np.array([k_fn(x) for x in kern.xs])
        # boundary samples feel the origin jump; interior carries the
        # second-order truncation ripple of the sampling window
        assert np.abs(kern.samples - k_true).max() < 2e-3
        assert np.abs(kern.samples - k_true)[8:].max() < 5e-4


# ---------------------------------------------------------------------------
# the S-node operator, the generator pass and batched fundamentals


def scalar_test_kernel(x):
    """Scalar accelerant with a complex, non-Hermitian value at 0+."""
    return (0.2 * np.exp(-x) + 0.1j * x * np.exp(-2 * x)) * np.ones((1, 1))


def toy_kernel(p, c=1.0, l=2.5, h=1 / 128):
    fn = scalar_test_kernel if p == 1 else gauss_kernel
    return DifferenceKernel.from_function(lambda x: c * fn(x), p=p, l=l, h=h)


def lapack_factor(s):
    c, info = lapack.zpotrf(s, lower=1, clean=1)
    assert info == 0
    w, info = lapack.ztrtri(c, lower=1)
    assert info == 0
    return w, c


def dense_plain_reference(kernel, m):
    """The Nystroem S of the plain case from the whole (m, m, p, p) block
    table of k(x_i - x_j): S = I + h K and its Hermitian average."""
    p, h = kernel.p, kernel.h
    table = kernel.at(h * np.arange(-(m - 1), m))
    idx = np.arange(m)[:, None] - np.arange(m)[None, :] + (m - 1)
    full = np.transpose(table[idx], (0, 2, 1, 3)).reshape(m * p, m * p)
    s = np.eye(m * p, dtype=complex) + h * full
    return 0.5 * (s + s.conj().T)


def nystrom_reference(kernel, d, m):
    """The Nystroem S of weights d, any d: entry (i, a; j, b) is
    delta + h k_ab(d_b x_j - d_a x_i), Hermitian-averaged."""
    p, h = kernel.p, kernel.h
    xs = h * (np.arange(m) + 0.5)
    s = np.empty((m, p, m, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            s[:, a, :, b] = kernel.at(d[b] * xs[None, :] - d[a] * xs[:, None])[..., a, b]
    return hermitize(np.eye(m * p) + h * s.reshape(m * p, m * p))


class TestSnodeOperator:
    """The S-node X, the operator of every weight: its dense form against
    the identity F X + X F* = h Pi J_s Pi* that defines it, and against the
    Nystroem S it replaces."""

    @pytest.mark.parametrize("d", [(-1.0, -2.0), (-1.0, -np.sqrt(2.0)), (-0.5, -1.0, -3.0),
                                   None, (-1.5, -1.5)])
    def test_dense_solves_the_identity(self, d):
        weights = -np.ones(2) if d is None else np.array(d)
        p, m, h = weights.size, 24, 1 / 32
        kern = positive_kernel(np.random.default_rng(p), p, 2, 0.05, h, 3 * m + 1)
        op = build_structured_operator(kern, d=d, l=m * h)
        np.testing.assert_array_equal(op.d, weights)
        low = np.tril(np.ones((m, m)), -1) + 0.5 * np.eye(m)
        f = h * np.kron(low, np.diag(np.abs(weights)))
        pi = op.pi.reshape(m * p, 2 * p)
        ref = solve_sylvester(f, f.conj().T, -h * pi @ anti_diag_j(p) @ pi.conj().T)
        assert np.abs(op.s - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_unit_weights_give_the_toeplitz_s(self):
        # for |d| = 1 the S-node X is the Nystroem S of the plain case, a
        # block Toeplitz matrix, to rounding
        for p in (1, 2):
            kern = toy_kernel(p, l=1.0, h=1 / 64)
            ref = dense_plain_reference(kern, kern.m)
            for d in (None, -np.ones(p)):
                assert np.abs(build_structured_operator(kern, d=d).s - ref).max() <= 1e-15

    @pytest.mark.parametrize("d", [GAUSS_D, np.array([-1.0, -np.sqrt(2.0)]), None,
                                   np.array([-1.5, -1.5])])
    def test_hamiltonian_approaches_nystroem_at_second_order(self, d):
        # measured ratios 3.9 to 4.1 per halving of h; for |d| = 1 (None is
        # D = -I) the two agree to rounding
        weights = -np.ones(2) if d is None else d
        diffs = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.25, h=h)
            _, ham = canonical_from_kernel(kern, d=weights, l=0.5)
            m = ham.m
            pi = build_structured_operator(kern, d=d, l=0.5).pi.reshape(2 * m, 4)
            c = lapack_factor(nystrom_reference(kern, weights, m))[1]
            beta = solve_triangular(c, pi, lower=True).reshape(m, 2, 4)
            ham_s = hermitize(np.einsum("mji,mjk->mik", beta.conj(), beta))
            diffs.append(np.abs(ham.values - ham_s).max())
        if d is None:
            assert max(diffs) < 1e-13, diffs
            return
        assert diffs[-1] < 1e-5
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse / fine >= 3.5, diffs


class TestSchurFactor:
    @pytest.mark.parametrize("m", [1, 2, 200])
    @pytest.mark.parametrize("p,d", [(1, None), (1, [-1.5]), (2, None), (2, [-1.5, -1.5])])
    def test_matches_lapack(self, p, d, m):
        kern = toy_kernel(p)
        op = build_structured_operator(kern, d=d, l=m * kern.h)
        fac = factorize_triangular(op)
        w, c = lapack_factor(op.s)
        assert np.abs(fac.w - w).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(fac.winv - c).max() <= 1e-12 * np.abs(c).max()
        assert np.abs(np.triu(fac.w, 1)).max(initial=0.0) == 0.0
        assert np.abs(np.triu(fac.winv, 1)).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 200])
    @pytest.mark.parametrize("d", [(-1.0, -2.0), (-2.0, -1.0), (-1.0, -3.0)])
    def test_commensurate_matches_lapack(self, d, m):
        # commensurate weights take the S-node pass, as any distinct weights
        kern = toy_kernel(2, l=7.0)
        op = build_structured_operator(kern, d=d, l=m * kern.h)
        assert op.pi.shape == (m, 2, 4)
        fac = factorize_triangular(op)
        w, c = lapack_factor(op.s)
        assert np.abs(fac.w - w).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(fac.winv - c).max() <= 1e-12 * np.abs(c).max()
        assert np.abs(np.triu(fac.w, 1)).max(initial=0.0) == 0.0
        assert np.abs(np.triu(fac.winv, 1)).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9, 13, 17, 33, 200])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_reblocked_pass_ragged_lengths(self, p, m):
        # the plain operator (D = -I) through the generator pass, which
        # takes b = _snode_block(p, M) grid blocks per round: M beyond
        # 32 / p needs more than one round, and most of these M leave a
        # partial last one
        rng = np.random.default_rng(10 * m + p)
        kern = positive_kernel(rng, p, 2, 0.05, 1 / 64, m)
        op = build_structured_operator(kern)
        u = rng.normal(size=(m, p, 3)) + 1j * rng.normal(size=(m, p, 3))
        unit = np.zeros((m, p, p))
        unit[0] = np.eye(p)
        c, beta = _snode_pass(op, chol=True, rhs=np.concatenate([u, unit], axis=2))
        w, c_ref = lapack_factor(op.s)
        n = m * p
        beta = beta.reshape(n, 2 * p + 3 + p)
        for got, ref in ((c, c_ref), (beta[:, :2 * p], w @ op.pi.reshape(n, 2 * p)),
                         (beta[:, 2 * p:2 * p + 3], w @ u.reshape(n, 3)),
                         (beta[:, 2 * p + 3:], w[:, :p])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("rows,inner,n", [(1, 1, 70000), (1, 8, 4100), (16, 16, 700),
                                              (6, 3, 4100)])
    def test_panel_product_stays_single_threaded(self, rows, inner, n):
        # OpenBLAS threads a zgemm from m n k = 2^16 on, and the zgemv numpy
        # calls for a one-row k from m n = 2^12 on; every panel stays below
        limit = 1 << 12 if rows == 1 else 1 << 16
        k = np.ones((rows, inner), dtype=complex)
        panels = _panels(k, n)
        widths = [cols.stop - cols.start for cols in panels]
        assert panels[0].start == 0 and panels[-1].stop >= n > panels[-1].start
        assert all(a.stop == b.start for a, b in zip(panels, panels[1:]))
        assert n % widths[0] and len(widths) > 1
        assert max(widths) * rows * inner < limit

    @pytest.mark.parametrize("p,c", [(1, -8.0), (2, -6.0)])
    def test_failed_pivot_names_lapack_minor(self, p, c):
        routes = {}
        # the plain operator, D = -I: M = 64 fails inside the second, full
        # round of the generator pass (q = 32 rows), away from its first
        # column; the shorter M = 53 (p = 1) or 30 (p = 2) fails at the
        # same minor, inside the partial last round
        for m, last in ((64, False), ({1: 53, 2: 30}[p], True)):
            kern = toy_kernel(p, c=c, l=m / 64, h=1 / 64)
            op = build_structured_operator(kern)
            _, info = lapack.zpotrf(op.s, lower=1)
            assert info > p      # fails past the first block
            q = _snode_block(p, m) * p
            step, column = divmod(info - 1, q)
            assert column > 0 and ((step + 1) * q > m * p) == last
            routes.update({
                (m, "factorize"): (lambda op=op: factorize_triangular(op), info),
                (m, "endpoint"): (lambda kern=kern: recover_potential(kern), info),
                (m, "kernel-edge"): (
                    lambda kern=kern: recover_potential(kern, mode="kernel-edge"), info),
                (m, "theta"): (lambda kern=kern: theta_functions(kern), info),
                # the plain operator is d = -1
                (m, "canonical"): (
                    lambda kern=kern: canonical_from_kernel(kern, d=-np.ones(p)), info),
            })
        if p == 2:
            # distinct weights: the S-node X of -6.5 times the kernel fails
            # inside block 28 for M = 64, inside a full round of the blocked
            # pass, and for M = 30, inside the partial last round
            for m, last in ((64, False), (30, True)):
                kern = toy_kernel(p, c=-6.5, l=2 * m / 64, h=1 / 64)
                op = build_structured_operator(kern, d=GAUSS_D, l=m / 64)
                _, info = lapack.zpotrf(op.s, lower=1)
                assert info > p
                q = _snode_block(p, m) * p
                step, column = divmod(info - 1, q)
                assert column > 0 and ((step + 1) * q > m * p) == last
                routes[(m, "S-node factor")] = (lambda op=op: factorize_triangular(op), info)
                routes[(m, "S-node canonical")] = (
                    lambda kern=kern, m=m: canonical_from_kernel(kern, d=GAUSS_D, l=m / 64),
                    info)
                routes[(m, "S-node fundamental")] = (
                    lambda kern=kern, m=m: fundamental_from_kernel(kern, GAUSS_D, m / 64, 0.5j),
                    info)
        for name, (route, minor) in routes.items():
            with pytest.raises(wk.PositivityError) as err:
                route()
            assert err.value.minor == minor, name


def snode_pass_reference(op, chol=False, rhs=None):
    """The S-node pass one grid block per step, kept as the oracle of the
    blocked :func:`_snode_pass`: returns (C, beta) as it does.

    Step n takes the first block column U of the Schur complement from
    F U + U F00* = R, R = G J_s G0*: multiplied by T = I - N, column b is
    the recurrence alpha_ab (u_i + c_ab u_{i-1}) = (T R)_i, one banded solve
    along the interleaved rows.  The pivot U0 = c c* gives C's column block
    U c^-* and beta_n = c^-1 G0, and G <- G - U U0^-1 G0.
    """
    p, m, h = op.p, op.m, op.h
    size = m * p
    u = np.abs(op.d)
    total = u[:, None] + u[None, :]
    inv_alpha = np.tile(2.0 / (h * total), m)                  # [a, j p + b]
    bands = np.zeros((p, p + 1, size), dtype=complex)
    bands[:, -1] = -np.tile((u[:, None] - u[None, :]) / total, m)
    bands = [np.asfortranarray(band) for band in bands]
    gen = np.sqrt(h) * op.pi.reshape(size, 2 * p)
    if rhs is not None:
        gen = np.concatenate([gen, rhs.reshape(size, -1)], axis=1)
    beta = np.empty_like(gen)
    c_out = np.zeros((size, size), dtype=complex, order="F") if chol else None
    r_buf, u_buf = np.empty((2, p, size), dtype=complex)
    J = anti_diag_j(p)
    for lo in range(0, size, p):
        hi, n = lo + p, size - lo
        live, g0 = gen[lo:], gen[lo:hi]
        r, ut = r_buf[:, :n], u_buf[:, :n]
        js_g0 = -(g0[:, :2 * p] @ J).conj().T
        for rows in _panels(js_g0, n):
            np.matmul(live[rows, :2 * p], js_g0, out=r.T[rows])
        ut[:, :p] = r[:, :p]
        np.subtract(r[:, p:], r[:, :-p], out=ut[:, p:])       # T R
        ut *= inv_alpha[:, :n]
        for band, row in zip(bands, ut):
            row[:] = lapack.ztbtrs(band[:, :n], row[:, None], uplo="L", diag="U",
                                   overwrite_b=1)[0][:, 0]
        u = ut.T
        c, info = lapack.zpotrf(u[:p], lower=1, clean=1)
        if info > 0:
            raise wk.PositivityError("not positive definite", minor=lo + info)
        y, _ = lapack.zpotrs(c, g0, lower=1)
        beta[lo:hi] = c.conj().T @ y
        below = u[p:]
        if chol:
            c_out[lo:hi, lo:hi] = c
            c_inv_h = lapack.ztrtri(c, lower=1)[0].conj().T
            for rows in _panels(c_inv_h, n - p):
                np.matmul(below[rows], c_inv_h, out=c_out[hi:, lo:hi][rows])
        rest = live[p:]
        for rows in _panels(y, n - p):
            rest[rows] -= below[rows] @ y
    beta[:, :2 * p] /= np.sqrt(h)
    return c_out, beta.reshape(m, p, -1)


def kron_reference(kernel, d, z, op):
    """w(l, z) through the dense integration matrix and a dense solve on S."""
    m, p, h = op.m, op.p, op.h
    pi = _pi_samples(kernel, d, h * (np.arange(m) + 0.5)).reshape(m * p, 2 * p)
    low = np.tril(np.ones((m, m)), -1) * h + np.eye(m) * (h / 2.0)
    amat = np.kron(low, 1j * np.diag(d))
    rhs = solve_triangular(np.eye(m * p) - z * amat, pi, lower=True)
    u = np.linalg.solve(op.s, rhs)
    return np.eye(2 * p) + 1j * z * anti_diag_j(p) @ (h * pi.conj().T @ u)


def theta_reference(kernel, w):
    """theta1 and theta2 from the dense W: W [2s I k] by a product, and the
    trapezoid integral of (W k)* W [2s I] by a running sum."""
    p, h = kernel.p, kernel.h
    m = w.shape[0] // p
    s_vals = 0.5 * np.eye(p) + kernel.cumulative(kernel.xs[:m])
    big = np.concatenate([2.0 * s_vals, np.tile(np.eye(p), (m, 1, 1))], axis=2)
    big = (w @ big.reshape(m * p, 2 * p)).reshape(m, p, 2 * p)
    ek = (w @ kernel.samples[:m].reshape(m * p, p)).reshape(m, p, p)
    base = np.concatenate([-np.eye(p), np.eye(p)], axis=1)
    run, theta2 = np.zeros((p, 2 * p), dtype=complex), []
    for e, b in zip(ek, big):
        prod = e.conj().T @ b
        theta2.append(base - run - 0.5 * h * prod)
        run = run + h * prod
    return big / np.sqrt(2.0), np.array(theta2) / np.sqrt(2.0)


class TestBatchedFundamental:
    @pytest.mark.parametrize("d", [[-1.0], [-1.25, -1.25], GAUSS_D])
    def test_batch_equals_scalar_calls_and_dense_formula(self, d):
        d = np.asarray(d, dtype=float)
        kern = toy_kernel(d.size, l=2.0, h=1 / 64)
        l = 0.75
        op = build_structured_operator(kern, d=d, l=l)
        zs = np.array([0.0, 0.7 + 0.5j, -1.0 + 2.0j, 3.0, 2.0 - 0.3j])
        batch = fundamental_from_kernel(kern, d, l, zs)
        assert batch.shape == (zs.size, 2 * d.size, 2 * d.size)
        for z, val in zip(zs, batch):
            one = fundamental_from_kernel(kern, d, l, z)
            assert one.shape == (2 * d.size, 2 * d.size)
            assert np.abs(val - one).max() <= 1e-12 * np.abs(one).max()
            ref = kron_reference(kern, d, z, op)
            assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()
        flat = fundamental_from_kernel(kern, d, l, zs[1:])
        grid = fundamental_from_kernel(kern, d, l, zs[1:].reshape(2, 2))
        np.testing.assert_array_equal(grid.reshape(flat.shape), flat)


# ---------------------------------------------------------------------------
# property test of the factor on generated positive kernels


def positive_kernel(rng, p, n_terms, eps, h, n):
    """n midpoint samples, step h, of a p x p kernel whose operator S is
    positive for every weight, up to the interpolation of k between samples
    (which can lose it on coarse grids, M = 1 with h > 1).

    k is a sum of J = ``n_terms`` terms c_j e^{i b_j x} P_j with c_j >= 0
    and P_j Hermitian positive: k_ab(d_b t - d_a x) = U(x) (sum c_j P_j) U(t)*
    with U diagonal, so that part of S - I is positive for every weight.  A
    Gaussian-damped Hermitian term of amplitude eps <= 0.1 is added; its
    row sums stay below about 0.6 (Schur test), so S >= 0.4 I.
    """
    c = rng.uniform(0.0, 2.0, size=n_terms)
    b = rng.uniform(-3.0, 3.0, size=n_terms)
    vecs = rng.normal(size=(n_terms, p, 1)) + 1j * rng.normal(size=(n_terms, p, 1))
    proj = vecs @ vecs.conj().transpose(0, 2, 1)
    proj /= np.linalg.norm(proj, 2, axis=(1, 2))[:, None, None]
    m1, m2 = (hermitize(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))
              for _ in range(2))
    m1, m2 = m1 / np.linalg.norm(m1, 2), m2 / np.linalg.norm(m2, 2)
    xs = h * (np.arange(n) + 0.5)[:, None, None]
    samples = (np.einsum("j,xj,jab->xab", c, np.exp(1j * b * xs[:, :, 0]), proj)
               + eps * np.exp(-xs * xs) * (m1 + 1j * xs * m2))
    return DifferenceKernel(p=p, h=h, samples=samples)


def _stored_blocks(d, m):
    """Kernel samples an operator of M = m blocks with weights d reads."""
    scale = 1.0 if d is None else float(np.abs(d).max())
    return int(np.ceil(scale * m)) + 1


@st.composite
def positive_operators(draw):
    """A kernel (:func:`positive_kernel`), weight and length whose operator
    S is positive by design.  Weights are none (plain), all equal, or
    distinct (p = 2 only).
    """
    p = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 64))
    l = draw(st.floats(0.25, 2.0))
    kind = draw(st.sampled_from(["plain", "equal"] + (["distinct"] if p == 2 else [])))
    u = draw(st.floats(0.5, 2.0))
    d = {"plain": None, "equal": np.full(p, -u),
         "distinct": np.array([-u, -u * draw(st.floats(1.25, 3.0))])}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_terms = draw(st.integers(1, 3))
    eps = draw(st.floats(0.0, 0.1))
    h = l / m
    return positive_kernel(rng, p, n_terms, eps, h, _stored_blocks(d, m)), d, m * h


@st.composite
def distinct_operators(draw):
    """A positive kernel (:func:`positive_kernel`) with p = 2 or 3 weights
    that are not all equal, in commensurate ratios (2, 3, 1/2) or any."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 48))
    l = draw(st.floats(0.25, 1.5))
    u = draw(st.floats(0.5, 1.5))
    ratio = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.5]), st.floats(0.3, 3.0))
    d = -u * np.array([1.0] + [draw(ratio) for _ in range(p - 1)])
    assume(len(set(d)) > 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_terms = draw(st.integers(1, 3))
    eps = draw(st.floats(0.0, 0.1))
    return positive_kernel(rng, p, n_terms, eps, l / m, _stored_blocks(d, m)), d, l


@st.composite
def blocked_snode_cases(draw):
    """A positive kernel (:func:`positive_kernel`) and weights for the
    blocked S-node pass: all weights equal (c = 0 throughout) at p = 1, 2
    or 3, distinct weights at p = 2 or 3, or at p = 3 one weight repeated
    (as d = (-1, -1, -2)), which gives c = 0 for two distinct components;
    M often not a multiple of the pass's b, and zero to three carried
    columns."""
    p = draw(st.sampled_from([3, 2, 1]))
    m = draw(st.integers(17, 80) | st.integers(1, 16))
    l = draw(st.floats(0.25, 1.5))
    u = draw(st.floats(0.5, 1.5))
    if p == 1 or draw(st.integers(0, 3)) == 0:
        d = np.full(p, -u)
    elif p == 3 and draw(st.booleans()):
        d = -u * np.array(draw(st.permutations([1.0, 1.0, draw(st.sampled_from([0.5, 2.0]))])))
    else:
        d = -u * np.array([1.0] + [draw(st.floats(0.3, 3.0)) for _ in range(p - 1)])
        assume(len(set(d)) == p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kern = positive_kernel(rng, p, draw(st.integers(1, 3)), draw(st.floats(0.0, 0.1)),
                           l / m, _stored_blocks(d, m))
    return kern, d, l, draw(st.integers(0, 3))


@st.composite
def fundamental_splits(draw):
    """A positive operator (:func:`positive_operators`; the plain case as
    d = -1), 2 to 12 scattered z and the cut points of a split of them
    into consecutive parts (single points included).  Grids coarser than
    h = 1/2, which can lose positivity (:func:`positive_kernel`), are left
    out."""
    kern, d, l = draw(positive_operators())
    assume(kern.h <= 0.5)
    d = -np.ones(kern.p) if d is None else d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 12))
    zs = rng.uniform(-8.0, 8.0, k) + 1j * rng.uniform(-2.0, 4.0, k)
    cuts = draw(st.sets(st.integers(1, k - 1), min_size=1))
    return kern, d, l, zs, sorted(cuts)


class TestFactorProperties:
    @seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(positive_operators())
    def test_factor_invariants(self, case):
        kern, d, l = case
        op = build_structured_operator(kern, d=d, l=l)
        fac = factorize_triangular(op)
        n = op.s.shape[0]
        w, c = fac.w, fac.winv
        assert np.linalg.norm(w @ op.s @ w.conj().T - np.eye(n), 2) <= 1e-10

        x = np.random.default_rng(n).normal(size=(op.m, op.p, 3)) + 0j
        flat = x.reshape(n, 3)
        for got, ref in ((fac.apply(x), w @ flat), (fac.apply_inverse(x), c @ flat)):
            assert np.abs(got.reshape(n, 3) - ref).max() <= 1e-12 * np.abs(ref).max()

        chol, _ = lapack.zpotrf(op.s, lower=1, clean=1)
        assert np.abs(c - chol).max() <= 1e-12 * np.abs(chol).max()

        if d is not None:
            zs = np.array([0.7 + 0.5j, -1.0 + 2.0j])
            # one pass on [Pi U] against a dense solve on S
            vals = fundamental_from_kernel(kern, d, l, zs)
            for z, val in zip(zs, vals):
                ref = kron_reference(kern, d, z, op)
                assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()

    @seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(positive_operators().filter(lambda case: case[1] is None or len(set(case[1])) == 1))
    def test_one_pass_matches_factor_route(self, case):
        kern, d, l = case
        op = build_structured_operator(kern, d=d, l=l)
        fac = factorize_triangular(op)
        w = lapack_factor(op.s)[0]

        def close(got, ref):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

        if d is None:
            for mode in ("endpoint", "kernel-edge"):
                close(recover_potential(kern, l=l, mode=mode).values,
                      recover_potential(kern, l=l, mode=mode, factor=fac).values)
            for got, ref in zip(theta_functions(kern, l=l), theta_reference(kern, w)):
                close(got.values, ref)
        else:
            m, p = op.m, op.p
            pi = _pi_samples(kern, d, op.h * (np.arange(m) + 0.5)).reshape(m * p, 2 * p)
            beta_ref = (w @ pi).reshape(m, p, 2 * p)
            beta, ham = canonical_from_kernel(kern, d, l=l)
            close(beta.values, beta_ref)
            close(ham.values, hermitize(np.einsum("mji,mjk->mik", beta_ref.conj(), beta_ref)))

    @seed(20261020)
    @settings(max_examples=40, deadline=None, database=None)
    @given(positive_operators().filter(lambda case: case[1] is not None),
           st.floats(-8.0, -0.5))
    def test_factor_of_canonical_names_the_same_minor(self, case, c):
        # -c times a positive kernel: S loses positivity for some draws
        kern, d, l = case
        kern = DifferenceKernel(p=kern.p, h=kern.h, samples=c * kern.samples)
        op = build_structured_operator(kern, d=d, l=l)
        _, info = lapack.zpotrf(op.s, lower=1, clean=1)
        if not info:
            _, _, _, fac = canonical_from_kernel(kern, d, l=l, return_factor=True)
            np.testing.assert_array_equal(fac.winv, factorize_triangular(op).winv)
            return
        minors = []
        for route in (lambda: factorize_triangular(op),
                      lambda: canonical_from_kernel(kern, d, l=l, return_factor=True)):
            with pytest.raises(wk.PositivityError) as err:
                route()
            minors.append(err.value.minor)
        assert minors[0] == minors[1]

    @seed(20261022)
    @settings(max_examples=40, deadline=None, database=None)
    @given(fundamental_splits())
    def test_fundamental_batch_split_within_documented_bound(self, case):
        # the z of a batch share the pass's products, so a split is not
        # bit for bit; fundamental_from_kernel's docstring states the bound
        kern, d, l, zs, cuts = case
        whole = fundamental_from_kernel(kern, d, l, zs)
        parts = np.concatenate([fundamental_from_kernel(kern, d, l, part)
                                for part in np.split(zs, cuts)])
        assert np.abs(parts - whole).max() <= 4e-15 * np.abs(whole).max()

    @seed(20261021)
    @settings(max_examples=40, deadline=None, database=None)
    @given(blocked_snode_cases())
    def test_blocked_snode_pass_matches_oracle(self, case):
        kern, d, l, r = case
        op = build_structured_operator(kern, d=d, l=l)
        rhs = None
        if r:
            rng = np.random.default_rng(op.m)
            rhs = rng.normal(size=(op.m, op.p, r)) + 1j * rng.normal(size=(op.m, op.p, r))
        c_ref, beta_ref = snode_pass_reference(op, chol=True, rhs=rhs)
        c, beta = _snode_pass(op, chol=True, rhs=rhs)
        for got, ref in ((c, c_ref), (beta[..., :2 * op.p], beta_ref[..., :2 * op.p]),
                         (beta[..., 2 * op.p:], beta_ref[..., 2 * op.p:])):
            if ref.size:
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(_snode_pass(op, rhs=rhs)[1], beta)

    def test_snode_pass_takes_the_rules_rounds(self, monkeypatch):
        # pM = 2048: one zpotrf per round of b grid blocks, not per block
        m = 1024
        kern = toy_kernel(2, l=4.0, h=1 / 512)
        op = build_structured_operator(kern, d=GAUSS_D, l=m / 512)
        calls = []
        zpotrf = lapack.zpotrf

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return zpotrf(*args, **kwargs)

        monkeypatch.setattr(lapack, "zpotrf", counted)
        _snode_pass(op)
        b = _snode_block(2, m)
        assert b > 1 and len(calls) == -(-m // b)

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(distinct_operators())
    def test_snode_pass(self, case):
        kern, d, l = case
        op = build_structured_operator(kern, d=d, l=l)
        chol, info = lapack.zpotrf(op.s, lower=1, clean=1)
        if info:
            # coarse grids (M = 1, h > 1) can lose positivity: the pass
            # must then name the minor LAPACK names on the dense X
            for route in (lambda: factorize_triangular(op),
                          lambda: canonical_from_kernel(kern, d, l=l),
                          lambda: canonical_from_kernel(kern, d, l=l, return_factor=True)):
                with pytest.raises(wk.PositivityError) as err:
                    route()
                assert err.value.minor == info
            return
        m, p = op.m, op.p
        c, beta = _snode_pass(op, chol=True)
        assert np.abs(c - chol).max() <= 1e-12 * np.abs(chol).max()
        beta_ref = solve_triangular(chol, op.pi.reshape(m * p, 2 * p), lower=True)
        assert np.abs(beta.reshape(m * p, 2 * p) - beta_ref).max() <= 1e-12 * np.abs(beta_ref).max()
        np.testing.assert_array_equal(_snode_pass(op)[1], beta)

        zs = np.array([0.7 + 0.5j, -1.0 + 2.0j])
        vals = fundamental_from_kernel(kern, d, l, zs)
        for z, val in zip(zs, vals):
            ref = kron_reference(kern, d, z, op)
            assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()
