"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are stated inline next to the assertion they gate; every
expected value is produced by an oracle independent of the code path it
checks (quadrature, dense solves, closed forms, difference quotients).
"""

import filecmp
import math
import os
from fractions import Fraction

import numpy as np

import weylkit as wk
import weylkit.io as wio
from weylkit._linalg import anti_diag_j
from weylkit.cli import main
from weylkit.fourier import WeylSampler, amplitude_from_weyl, weyl_from_amplitude
from weylkit.gbdt import (
    evolve_state,
    hamiltonian_grid,
    state_identity_residual,
    transfer_matrix,
)
from weylkit.grids import DifferenceKernel, GridFunction
from weylkit.interpolation import coeff_a, coeff_c, decay_estimate, interpolate_series
from weylkit.rational import params_from_realization, realization_from_params
from weylkit.structured import (
    canonical_from_kernel,
    hamiltonian_difference_quotient,
    recover_potential,
    schur_recover,
    theta_functions,
    weyl_disk_approx,
)

from conftest import (
    GAUSS_D,
    const_v_hamiltonian,
    const_v_phi,
    gauss_kernel,
    make_params,
)

FIXTURES = os.path.join(os.path.dirname(wio.__file__), "fixtures")


def report(name, value, bound, op="<"):
    ok = value < bound if op == "<" else value <= bound
    print(f"[{name}] measured {value:.3e} {op} {bound:.1e}: "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_gbdt_identity_suite():
    """50 random valid systems: input/state identities, J-unitarity, the
    gamma identities, and PSD rank-<=p Hamiltonians."""
    J_by_p = {1: anti_diag_j(1), 2: anti_diag_j(2)}
    worst_input = worst_state = worst_junit = worst_gamma = 0.0
    worst_eig, worst_rank = 0.0, 0
    rng = np.random.default_rng(2024)
    xs = np.linspace(0.0, 2.0, 20)
    for case in range(50):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 3))
        prm = make_params(n, p, seed=10_000 + case, negative=bool(case % 2))
        rep = wk.validate_params(prm)
        worst_input = max(worst_input, rep["identity_residual"])
        for x in xs:
            worst_state = max(worst_state,
                              state_identity_residual(prm, evolve_state(prm, x)))
        J = J_by_p[p]
        z = complex(rng.normal(), rng.uniform(0.4, 2.0))
        x = float(rng.uniform(0.1, 2.0))
        wz = transfer_matrix(prm, x, z)
        wzc = transfer_matrix(prm, x, np.conj(z))
        scale = np.linalg.norm(wz, 2) ** 2 + 1.0
        worst_junit = max(worst_junit,
                          np.linalg.norm(wzc.conj().T @ J @ wz - J, 2) / scale)
        pair = wk.weyl_pair(prm)
        g_res = np.linalg.norm(
            pair.gamma - pair.gamma.conj().T
            - 1j * prm.lambda2 @ np.diag(prm.d) @ prm.lambda2.conj().T, 2)
        diff = pair.psi2_hat - pair.psi1_0_hat
        g_res2 = np.linalg.norm(
            pair.gamma_hat.conj().T - pair.gamma_hat
            - 1j * diff @ np.diag(1.0 / np.abs(prm.d)) @ diff.conj().T, 2)
        g_scale = np.linalg.norm(pair.gamma, 2) + 1.0
        worst_gamma = max(worst_gamma, g_res / g_scale, g_res2 / g_scale)
        hv = hamiltonian_grid(prm, xs)
        worst_eig = min(worst_eig, min(np.linalg.eigvalsh(h).min() for h in hv))
        worst_rank = max(worst_rank, max(
            int(np.sum(np.linalg.svd(h, compute_uv=False) > 1e-8)) for h in hv))
        if prm.d_negative:
            assert np.linalg.eigvals(pair.gamma).imag.max() <= 1e-9
            zc = complex(rng.normal(), rng.uniform(0.3, 2.0))
            assert np.abs(pair.phi(zc) - pair.phi_hat(zc)).max() < 1e-9
    ok = (
        report("AC1 input identity", worst_input, 1e-9)
        & report("AC1 state identity", worst_state, 1e-9)
        & report("AC1 J-unitarity", worst_junit, 1e-9)
        & report("AC1 gamma identities", worst_gamma, 1e-9)
        & report("AC1 H eigmin", -worst_eig, 1e-10)
    )
    print(f"[AC1 rank <= p] max rank {worst_rank} <= 2: "
          f"{'PASS' if worst_rank <= 2 else 'FAIL'}")
    assert ok and worst_rank <= 2


def test_criterion_2_rational_round_trip():
    """20 random D<0 systems: params -> realization -> params reproduces H
    and phi."""
    worst_h = worst_phi = 0.0
    xs = np.linspace(0.0, 2.0, 21)
    rng = np.random.default_rng(77)
    for case in range(20):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 3))
        prm = make_params(n, p, seed=20_000 + case)
        back = params_from_realization(realization_from_params(prm))
        h1 = hamiltonian_grid(prm, xs)
        h2 = hamiltonian_grid(back, xs)
        worst_h = max(worst_h, float(np.abs(h1 - h2).max()))
        pair1 = wk.weyl_pair(prm)
        pair2 = wk.weyl_pair(back)
        for _ in range(20):
            z = complex(rng.normal(), rng.uniform(0.3, 3.0))
            worst_phi = max(worst_phi,
                            float(np.abs(pair1.phi(z) - pair2.phi(z)).max()))
    ok = report("AC2 H round trip", worst_h, 1e-8) & \
        report("AC2 phi round trip", worst_phi, 1e-8)
    assert ok


def test_criterion_3_disk_oracle_agreement():
    """Weyl disk on the explicit Hamiltonian converges to the rational
    Weyl function at l = 40 / Im z."""
    prm = make_params(2, 1, seed=3003)
    pair = wk.weyl_pair(prm)
    worst = 0.0
    for z in (1j, 2j, 1 + 1j):
        val = weyl_disk_approx(lambda x: hamiltonian_grid(prm, x), z,
                               l=40.0 / z.imag, steps_per_unit=128)
        worst = max(worst, float(np.abs(val - pair.phi(z)).max()))
    assert report("AC3 disk vs rational Weyl", worst, 1e-6)


def test_criterion_4_structured_recovery():
    """Free kernel recovers v = 0 exactly; the constant-potential chain
    recovers v = 0.5 at h = 1/512; the three recovery formulas agree."""
    kz = DifferenceKernel(p=1, h=1 / 256, samples=np.zeros((256, 1, 1)))
    vz = recover_potential(kz)
    exact_zero = float(np.abs(vz.values).max())
    print(f"[AC4 free kernel] max |v| = {exact_zero} (exact zero required): "
          f"{'PASS' if exact_zero == 0.0 else 'FAIL'}")
    assert exact_zero == 0.0

    # disk oracle validates the closed-form Weyl function of v = 0.5 ...
    zcheck = 1.5j
    disk = weyl_disk_approx(const_v_hamiltonian, zcheck, l=12.0 / zcheck.imag,
                            steps_per_unit=256)
    oracle_gap = float(np.abs(disk - const_v_phi(zcheck)).max())
    assert report("AC4 oracle self-check", oracle_gap, 1e-6)

    # ... which then feeds the Fourier + factorization chain
    samp = WeylSampler(fn=const_v_phi, p=1, source="oracle")
    _, kern, _ = amplitude_from_weyl(samp, eta=1.0, a=200.0, h=1 / 512,
                                     xmax=2.0, mode="dirac")
    v_end = recover_potential(kern, mode="endpoint")
    v_edge = recover_potential(kern, mode="kernel-edge")
    mask = v_end.xs < 1.0
    err = float(np.abs(v_end.values[mask] - 0.5).max())
    gap = float(np.abs(v_end.values - v_edge.values).max())
    ok = report("AC4 recovered potential", err, 2e-2) & \
        report("AC4 formula consistency", gap, 5e-3)
    assert ok


def test_criterion_5_fourier_round_trip():
    """Gaussian-damped Hermitian kernel -> Weyl function -> kernel at
    eta = 1, a = 200, h = 1/256, plus eta-independence."""
    xmax_s, hs = 20.0, 1 / 128
    kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=xmax_s, h=hs)
    xs = np.arange(int(round(xmax_s / hs)) + 1) * hs
    absd_inv = np.diag(1.0 / np.abs(GAUSS_D))
    s_vals = 0.5 * np.eye(2)[None] + np.einsum("ab,kbc->kac", absd_inv,
                                               kern.cumulative(xs))
    sg = GridFunction(h=hs, values=s_vals, x0=0.0)
    a = 200.0
    nside = int(round(a / 0.05))
    zetas = np.linspace(-a, a, 2 * nside + 1)
    recovered = {}
    for eta in (1.0, 2.0):
        phiv = weyl_from_amplitude(sg, zetas + 1j * eta, mode="canonical",
                                   d=GAUSS_D, gl_order=8)
        sampler = WeylSampler.from_table(zetas, phiv, eta=eta)
        _, k_rec, _ = amplitude_from_weyl(sampler, eta=eta, a=a, h=1 / 256,
                                          xmax=2.0, mode="canonical", d=GAUSS_D)
        recovered[eta] = k_rec.samples
    k_true = np.array([gauss_kernel(x) for x in (np.arange(512) + 0.5) / 256])
    scale = np.linalg.norm(k_true.ravel())
    rel = np.linalg.norm((recovered[1.0] - k_true).ravel()) / scale
    cross = np.linalg.norm((recovered[1.0] - recovered[2.0]).ravel()) / scale
    ok = report("AC5 k round trip (eta=1)", rel, 1e-2) & \
        report("AC5 eta independence", cross, 2e-2)
    assert ok


def test_criterion_6_canonical_identities():
    """beta J beta* = D, H = beta* beta vs dB/dl, factorization residual."""
    kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 256)
    beta, ham, op, fac = canonical_from_kernel(kern, d=GAUSS_D, l=0.75,
                                               return_factor=True)
    J = anti_diag_j(2)
    prod = np.einsum("mij,jk,mlk->mil", beta.values, J, beta.values.conj())
    id_err = float(np.abs(prod - np.diag(GAUSS_D)).max())
    idxs = [40, 96, 150]
    dq = hamiltonian_difference_quotient(kern, GAUSS_D, idxs, l=0.75)
    dq_err = max(
        float(np.abs(est - 0.5 * (ham.values[i - 1] + ham.values[i])).max())
        for (x, est), i in zip(dq, idxs))
    res = float(np.linalg.norm(
        fac.w @ op.s @ fac.w.conj().T - np.eye(op.s.shape[0]), 2))
    ok = (report("AC6 beta J beta* = D", id_err, 1e-3)
          & report("AC6 H vs dB/dl", dq_err, 5e-4)
          & report("AC6 factorization residual", res, 1e-8))
    assert ok


def test_criterion_7_truncation_locality():
    """Truncating the kernel outside [0, 1) leaves H unchanged on
    (0, 1/d), d = max |d_k|."""
    kern = DifferenceKernel.from_function(gauss_kernel, p=2, l=1.5, h=1 / 256)
    _, ham = canonical_from_kernel(kern, d=GAUSS_D, l=0.75)
    _, ham_tr = canonical_from_kernel(kern.truncated(1.0), d=GAUSS_D, l=0.75)
    dmax = float(np.abs(GAUSS_D).max())
    head = ham.xs < 1.0 / dmax
    err = float(np.abs(ham.values[head] - ham_tr.values[head]).max())
    tail_change = float(np.abs(ham.values - ham_tr.values).max())
    ok = report("AC7 H unchanged on (0, 1/d)", err, 1e-3)
    print(f"[AC7 sanity] truncation changes H beyond: {tail_change:.3e} > 1e-3: "
          f"{'PASS' if tail_change > 1e-3 else 'FAIL'}")
    assert ok and tail_change > 1e-3


def test_criterion_8_interpolation():
    """Free Weyl function reproduced at z = 3i from lattice samples;
    decay exponent; coefficient recurrences vs closed forms."""
    eps, n_max = 0.1, 60
    samples = np.full(n_max + 1, 1j, dtype=complex)
    val, parts = interpolate_series(samples, 3j, n_terms=n_max, epsilon=eps,
                                    mode="weyl-dirac", return_partials=True)
    err = abs(val - 1j)
    errs = [(n, float(abs(parts[n] - 1j))) for n in range(5, n_max + 1, 5)]
    slope = decay_estimate(errs)["exponent"]
    bound = -(3.0 - 0.5 - eps) + 0.3
    worst_a = 0.0
    for n in range(31):
        for q in range(n + 1):
            sign, logmag = coeff_a(n, q)
            exact = Fraction(math.factorial(n + q),
                             math.factorial(q) ** 2 * math.factorial(n - q))
            worst_a = max(worst_a,
                          abs(sign * np.exp(logmag) - float((-1) ** q * exact))
                          / float(exact))
    lam = 1.3 + 0.7j
    worst_c = 0.0
    for n in (10, 20, 30):
        num = np.prod([q - 0.5 + 1j * lam for q in range(1, n + 1)])
        den = np.prod([q + 0.5 - 1j * lam for q in range(n + 1)])
        direct = (2 * n + 1) * num / den
        worst_c = max(worst_c, abs(coeff_c(n, lam) - direct) / abs(direct))
    ok = (report("AC8 free Weyl at N=60", err, 1e-3)
          & report("AC8 decay exponent", slope, bound, op="<=")
          & report("AC8 a-recurrence", worst_a, 1e-12)
          & report("AC8 c-recurrence", worst_c, 1e-12))
    assert ok


def test_criterion_9_schur_recovery():
    """Round trip through the continuous Schur coefficient on the
    constant-potential chain."""
    samp = WeylSampler(fn=const_v_phi, p=1, source="oracle")
    _, kern, _ = amplitude_from_weyl(samp, eta=1.0, a=200.0, h=1 / 256,
                                     xmax=2.0, mode="dirac")
    th1, _ = theta_functions(kern)
    beta = np.sqrt(2.0) * th1.values
    beta1, beta2 = beta[:, :, :1], beta[:, :, 1:]
    re_min = min(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min()
                 for r in np.einsum("mij,mjk->mik", np.linalg.inv(beta2), beta1))
    rho = GridFunction(h=th1.h,
                       values=np.einsum("mij,mjk->mik", np.linalg.inv(beta2), beta1),
                       x0=th1.x0)
    b1, b2 = schur_recover(rho)
    err = float(np.abs(b2.values - beta2).max())
    full = np.concatenate([b1.values, b2.values], axis=2)
    J = anti_diag_j(1)
    deriv = GridFunction(h=b1.h, values=full, x0=b1.x0).derivative().values
    flat = float(np.abs(np.einsum("mij,jk,mlk->mil", deriv, J,
                                  full.conj())[3:-3]).max())
    print(f"[AC9 Re rho > 0] min eig {re_min:.3e} > 0: "
          f"{'PASS' if re_min > 0 else 'FAIL'}")
    ok = (report("AC9 beta2 round trip", err, 1e-3)
          & report("AC9 beta' J beta* = 0", flat, 5e-4))
    assert ok and re_min > 0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Byte-identical reruns and a passing bundled invariant suite."""
    args = ["direct", "--params", os.path.join(FIXTURES, "scalar_params.json"),
            "--nx", "7", "--z=-1:1:3x0.5:1.5:2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    identical = all(
        filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        for name in ("H.csv", "phi.csv", "phi_hat.csv", "w.csv",
                     "run-manifest.json"))
    code = main(["check"])
    capsys.readouterr()
    print(f"[AC10 determinism] byte-identical reruns: "
          f"{'PASS' if identical else 'FAIL'}")
    print(f"[AC10 check] exit code {code}: {'PASS' if code == 0 else 'FAIL'}")
    assert identical and code == 0
