"""The three workloads: fixed job lists over seeded inputs, with their checks.

Every job calls weylkit through module attributes (``structured.x(...)``
rather than a name bound at import), so the traced run's wrappers see it.
A check runs outside the timed region and compares the job's answer with an
independent computation (a closed form from ``inputs``, a dense solve, a
different route through the program) or with a property of the method.  It
returns whether the job passed, the job's accuracy in digits (-log10 of the
relative error against the independent computation) and the per-layer
accuracy figures the job informs.
"""

import math
import os
from types import SimpleNamespace

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from weylkit import cli, fourier, gbdt, grids, interpolation, io, rational, structured

import inputs as gen

class Job:
    """One problem taken from its inputs to a returned or written answer.

    ``run`` is the timed part.  A CLI job returns the exit code and writes
    into ``outdir``; any other job returns its answer.  ``check`` gets that
    answer (for a CLI job, the output directory) and returns a verdict.
    """

    def __init__(self, name, run, check, outdir=None):
        self.name = name
        self.run = run
        self.check = check
        self.outdir = outdir


def verdict(ok, digits=None, **acc):
    return SimpleNamespace(ok=bool(ok), digits=digits, acc=acc)


def digits(err):
    """-log10 of a relative error, capped at 17 digits for exact agreement."""
    return -math.log10(max(float(err), 1e-17))


def rel_max(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def rel_norm(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.linalg.norm((got - ref).ravel()) / np.linalg.norm(ref.ravel()))


def gbdt_params(prm):
    return gbdt.GbdtParams(d=prm.d, alpha=prm.alpha, lambda1=prm.lambda1,
                           lambda2=prm.lambda2)


def cli_job(name, argv, outdir, check):
    os.makedirs(outdir, exist_ok=True)
    return Job(name, lambda: cli.main(argv + ["--out", outdir]), check, outdir)


def factor_residual(op, fac):
    """||W S W* - I||_2 by Lanczos on the Hermitian residual (matvecs only)."""
    w, s = fac.w, op.s
    n = s.shape[0]
    res = LinearOperator((n, n), dtype=complex,
                         matvec=lambda v: w @ (s @ (w.conj().T @ v)) - v)
    val = eigsh(res, k=1, which="LM", return_eigenvectors=False, tol=1e-3,
                v0=np.ones(n, dtype=complex))
    return float(np.abs(val).max())


def check_factor(op, fac):
    res = factor_residual(op, fac)
    return res < 1e-8, digits(res)


# ---------------------------------------------------------------------------
# weyl-line: Weyl function <-> accelerant along Im z = eta, then the system


def weyl_line(rng, workdir, small):
    a = 10.0 if small else 100.0           # half-width of the sampled zeta window
    h = 1 / 64 if small else 1 / 256       # accelerant grid step
    h_dirac = 1 / 64 if small else 1 / 512
    jobs = []

    def canonical_inverse(name, prm, l):
        P = gbdt_params(prm)
        ref = gen.weyl_phi(prm)

        def run():
            pair = gbdt.weyl_pair(P)
            sampler = fourier.WeylSampler.from_weyl_pair(pair)
            _, kern, _ = fourier.amplitude_from_weyl(
                sampler, eta=1.0, a=a, h=h, xmax=2.0, mode="canonical", d=P.d)
            _, ham = structured.canonical_from_kernel(kern, d=P.d, l=l)
            return kern, ham

        def check(out):
            kern, ham = out
            h_ref = gbdt.hamiltonian_grid(P, ham.xs)
            err_h = rel_max(ham.values, h_ref)
            err_k = rel_norm(kern.samples, ref.accelerant(kern.xs))
            return verdict(err_h < 1e-4 and err_k < 1e-2, digits(err_h),
                           **{"fourier.inverse.error_digits": digits(err_k)})

        jobs.append(Job(name, run, check))

    canonical_inverse("inverse-rational-p1", gen.make_params(rng, 2, 1, d=[-1.0]), 2.0)
    canonical_inverse("inverse-rational-p2", gen.make_params(rng, 3, 2, d=[-2.0, -2.0]), 1.0)

    def dirac_run():
        sampler = fourier.WeylSampler(fn=gen.const_v_phi, p=1, source="closed-form")
        _, kern, _ = fourier.amplitude_from_weyl(
            sampler, eta=1.0, a=a, h=h_dirac, xmax=2.0, mode="dirac")
        v_end = structured.recover_potential(kern, mode="endpoint")
        v_edge = structured.recover_potential(kern, mode="kernel-edge")
        return kern, v_end, v_edge

    def dirac_check(out):
        kern, v_end, v_edge = out
        err = float(np.abs(v_end.values[v_end.xs < 1.0] - gen.V0).max()) / gen.V0
        gap = float(np.abs(v_end.values - v_edge.values).max())
        m_sub = kern.m // 4
        dense = structured.recover_potential_at_edge(kern, l=m_sub * kern.h)
        edge = float(np.abs(dense - v_end.values[m_sub - 1]).max())
        return verdict(err < 4e-2 and gap < 5e-3 and edge < 5e-3, digits(err))

    jobs.append(Job("dirac-constant-v", dirac_run, dirac_check))

    gauss = gen.GaussKernel(rng)
    h_s, xmax_s = (1 / 8, 8.0) if small else (1 / 32, 16.0)
    xs = h_s * np.arange(int(round(xmax_s / h_s)) + 1)
    s_grid = grids.GridFunction(h=h_s, values=gauss.amplitude(xs), x0=0.0)
    a_g = a / 2                            # tabulated on a narrower window
    zetas = np.linspace(-a_g, a_g, 2 * int(round(a_g / 0.05)) + 1)
    outdir = os.path.join(workdir, "gauss-recover")
    samples = os.path.join(outdir, "phi-samples.csv")
    argv = ["recover", "--samples", samples, "--eta", "1", "--a", repr(a_g),
            "--step", repr(h), "--xmax", "2", "--mode", "canonical", "--d=-1,-2"]

    def gauss_run():
        phi = fourier.weyl_from_amplitude(s_grid, zetas + 1j, mode="canonical",
                                          d=gauss.d, gl_order=6)
        io.write_weyl_samples_csv(samples, zetas, phi)
        return cli.main(argv + ["--out", outdir])

    def gauss_check(out):
        x, k = gen.read_csv(os.path.join(out, "k.csv"))
        err_k = rel_norm(k, gauss.kernel(x[:, 0]))
        _, beta = gen.read_csv(os.path.join(out, "beta.csv"))
        bjb = np.einsum("mij,jk,mlk->mil", beta, gen.anti_diag_j(2), beta.conj())
        err_b = rel_max(bjb, np.broadcast_to(np.diag(gauss.d), bjb.shape))
        return verdict(err_k < 1e-2 and err_b < 1e-2, digits(err_k),
                       **{"fourier.inverse.error_digits": digits(err_k)})

    os.makedirs(outdir, exist_ok=True)
    jobs.append(Job("gauss-cli-recover", gauss_run, gauss_check, outdir))

    prm = gen.make_params(rng, 3, 2)
    ref = gen.weyl_phi(prm)
    h_r, xmax_r, nz = (1 / 16, 8.0, 20) if small else (1 / 64, 16.0, 600)
    xs = h_r * np.arange(int(round(xmax_r / h_r)) + 1)
    s_rat = grids.GridFunction(h=h_r, values=ref.amplitude(xs), x0=0.0)
    zs = rng.uniform(-8.0, 8.0, nz) + 1j * rng.uniform(1.0, 4.0, nz)

    def scattered_check(out):
        err = rel_max(out, ref.phi(zs))
        return verdict(err < 1e-3, digits(err))

    jobs.append(Job("forward-scattered",
                    lambda: fourier.weyl_from_amplitude(s_rat, zs, mode="canonical", d=prm.d),
                    scattered_check))
    return jobs


# ---------------------------------------------------------------------------
# operator-factor: accelerant -> system at large M


def operator_factor(rng, workdir, small):
    h2 = 1 / 32 if small else 1 / 512      # large p = 2 grid: M = 2 / h2 = 1024 blocks
    h3 = 1 / 32 if small else 1 / 256      # p = 2 grid of M = 512 blocks
    h1 = 1 / 64 if small else 1 / 1024     # scalar grid: M = 2 / h1 = 2048
    jobs = []

    gauss = gen.GaussKernel(rng)
    m = int(round(4.0 / h2))
    kg = grids.DifferenceKernel(p=2, h=h2, samples=gauss.kernel(h2 * (np.arange(m) + 0.5)))

    def gauss_check(out):
        beta, ham, op, fac = out
        bjb = np.einsum("mij,jk,mlk->mil", beta.values, gen.anti_diag_j(2), beta.values.conj())
        err_b = rel_max(bjb, np.broadcast_to(np.diag(gauss.d), bjb.shape))
        idxs = [8, 24, 40] if small else [40, 96, 150]
        quotients = structured.hamiltonian_difference_quotient(
            kg, gauss.d, idxs, l=(idxs[-1] + 8) * h2)
        scale = float(np.abs(ham.values).max())
        err_q = max(float(np.abs(est - 0.5 * (ham.values[i - 1] + ham.values[i])).max())
                    for (_, est), i in zip(quotients, idxs)) / scale
        ok_f, res_digits = check_factor(op, fac)
        return verdict(err_b < 1e-3 and err_q < 1e-3 and ok_f, digits(max(err_b, err_q)),
                       **{"structured.factor.residual_digits": res_digits})

    jobs.append(Job("canonical-gauss-p2", lambda: structured.canonical_from_kernel(
        kg, d=gauss.d, l=2.0, return_factor=True), gauss_check))

    def rational_kernel(prm, length, h):
        ref = gen.weyl_phi(prm)
        m = int(round(length / h))
        return ref.accelerant(h * (np.arange(m) + 0.5))

    prm = gen.make_params(rng, 3, 2, d=[-1.25, -1.25])
    P = gbdt_params(prm)
    kr = grids.DifferenceKernel(p=2, h=h3, samples=rational_kernel(prm, 2.5, h3))

    def canonical_check(out):
        _, ham, op, fac = out
        err = rel_max(ham.values, gbdt.hamiltonian_grid(P, ham.xs))
        ok_f, res_digits = check_factor(op, fac)
        return verdict(err < 1e-4 and ok_f, digits(err),
                       **{"structured.factor.residual_digits": res_digits})

    jobs.append(Job("canonical-rational-p2", lambda: structured.canonical_from_kernel(
        kr, d=prm.d, l=2.0, return_factor=True), canonical_check))

    prm1 = gen.make_params(rng, 2, 1, d=[-1.0])
    k1 = grids.DifferenceKernel(p=1, h=h1, samples=rational_kernel(prm1, 2.0, h1))

    def endpoint_run():
        op = structured.build_structured_operator(k1)
        fac = structured.factorize_triangular(op)
        v_end = structured.recover_potential(k1, mode="endpoint", factor=fac)
        return v_end, structured.accelerant_from_potential(v_end, fac), op, fac

    def endpoint_check(out):
        v_end, k_back, op, fac = out
        m_sub = k1.m // 8
        dense = structured.recover_potential_at_edge(k1, l=m_sub * k1.h)
        err = rel_max(v_end.values[m_sub - 1], dense)
        back = rel_max(k_back.samples, k1.samples)
        ok_f, res_digits = check_factor(op, fac)
        return verdict(err < 1e-2 and back < 1e-10 and ok_f, digits(err),
                       **{"structured.factor.residual_digits": res_digits})

    jobs.append(Job("potential-endpoint", endpoint_run, endpoint_check))

    def edge_check(v_edge):
        # both read-offs of row i use only the leading i + 1 blocks, so the
        # endpoint recovery on a short interval is a reference for the head
        m_sub = k1.m // 8
        v_end = structured.recover_potential(k1, l=m_sub * k1.h, mode="endpoint")
        err = rel_max(v_edge.values[1:m_sub], v_end.values[1:])
        return verdict(err < 2e-2, digits(err))

    jobs.append(Job("potential-kernel-edge",
                    lambda: structured.recover_potential(k1, mode="kernel-edge"), edge_check))

    prm = gen.make_params(rng, 3, 2, d=[-1.25, -1.25])
    P_f = gbdt_params(prm)
    kernel_csv = os.path.join(workdir, "kernel.csv")
    gen.write_kernel_csv(kernel_csv, h3, rational_kernel(prm, 2.5, h3))

    def fundamental_check(outdir):
        zx, w = gen.read_csv(os.path.join(outdir, "w.csv"), n_abscissa=2)
        ref = np.array([gbdt.fundamental_direct(P_f, 2.0, complex(re, im)) for re, im in zx])
        err = rel_max(w, ref)
        return verdict(len(w) == 4 and err < 1e-4, digits(err))

    jobs.append(cli_job("cli-fundamental",
                        ["fundamental", "--kernel", kernel_csv, "--d=-1.25,-1.25",
                         "--l", "2", "--z=-1:1:2x0.5:1:2"],
                        os.path.join(workdir, "fundamental"), fundamental_check))
    return jobs


# ---------------------------------------------------------------------------
# explicit-system: many small closed-form problems


def explicit_system(rng, workdir, small):
    sets = {
        "n1p1": gen.make_params(rng, 1, 1),
        "n2p1": gen.make_params(rng, 2, 1),
        "n3p2": gen.make_params(rng, 3, 2),
        "n4p2": gen.make_params(rng, 4, 2),
        "n2p1-pos": gen.make_params(rng, 2, 1, sign="positive"),
        "n3p2-mixed": gen.make_params(rng, 3, 2, sign="mixed"),
    }
    singular = gen.make_params(rng, 2, 1, singular_alpha=True)
    nx = 11 if small else 101
    xs = np.linspace(0.0, 2.0, nx)
    nz = 8 if small else 64
    zs = rng.uniform(-4.0, 4.0, nz) + 1j * rng.uniform(0.2, 3.0, nz)
    jobs = []

    def check_h(prm, hv, tol=1e-9):
        """PSD, rank <= p and tr(J H) = tr(D), which H = beta* beta with
        beta J beta* = D forces."""
        eig = np.linalg.eigvalsh(hv)
        scale = float(np.abs(eig).max())
        rank = max(int(np.sum(np.abs(e) > 1e-8 * scale)) for e in eig)
        tr = np.einsum("ij,kji->k", gen.anti_diag_j(prm.p), hv)
        err_tr = float(np.abs(tr - prm.d.sum()).max()) / float(np.abs(prm.d).sum())
        return eig.min() > -1e-10 * scale and rank <= prm.p and err_tr < tol, err_tr

    for key, prm in sets.items():
        P = gbdt_params(prm)

        def hgrid_check(hv, prm=prm, P=P):
            ok, err_tr = check_h(prm, hv)
            pts = [0, nx // 2, nx - 1]
            direct = np.array([gbdt.hamiltonian_direct(P, float(xs[i])) for i in pts])
            err = rel_max(hv[pts], direct)
            return verdict(ok and err < 1e-8, digits(max(err, err_tr)))

        jobs.append(Job(f"hamiltonian-{key}", lambda P=P: gbdt.hamiltonian_grid(P, xs),
                        hgrid_check))

    P_s = gbdt_params(singular)
    xs_s = np.linspace(0.0, 2.0, 3)

    def singular_check(hv):
        ok, err_tr = check_h(singular, hv, tol=1e-6)
        err0 = rel_max(hv[0], gen.initial_hamiltonian(singular.d))
        return verdict(ok and err0 < 1e-12, digits(err_tr))

    jobs.append(Job("hamiltonian-singular-alpha",
                    lambda: gbdt.hamiltonian_grid(P_s, xs_s), singular_check))

    for key in ("n2p1", "n3p2", "n2p1-pos", "n3p2-mixed"):
        prm = sets[key]
        path = os.path.join(workdir, f"params-{key}.json")
        gen.write_json(path, prm.to_json())

        def direct_check(outdir, prm=prm):
            zx, phi = gen.read_csv(os.path.join(outdir, "phi.csv"), n_abscissa=2)
            z = zx[:, 0] + 1j * zx[:, 1]
            err_phi = rel_max(phi, gen.weyl_phi(prm).phi(z))
            _, phi_hat = gen.read_csv(os.path.join(outdir, "phi_hat.csv"), n_abscissa=2)
            err_hat = rel_max(phi_hat, gen.weyl_phi_hat(prm).phi(z))
            xz, w = gen.read_csv(os.path.join(outdir, "w.csv"), n_abscissa=3)
            J = gen.anti_diag_j(prm.p)
            real = xz[:, 2] == 0.0
            wr = w[real]
            junit = float(np.abs(np.conj(np.swapaxes(wr, 1, 2)) @ J @ wr - J).max()) / float(
                np.abs(wr).max() ** 2)
            _, hv = gen.read_csv(os.path.join(outdir, "H.csv"))
            ok_h, _ = check_h(prm, hv)
            err = max(err_phi, err_hat, junit)
            return verdict(ok_h and real.any() and err < 1e-9, digits(err),
                           **{"gbdt.fundamental.junitary_digits": digits(junit)})

        jobs.append(cli_job(f"cli-direct-{key}",
                            ["direct", "--params", path, "--xmax", "2", "--nx", "11",
                             "--z=-1.7:1.3:3x0:1.2:2"],
                            os.path.join(workdir, f"direct-{key}"), direct_check))

    for key, prm in sets.items():
        P = gbdt_params(prm)

        def pair_run(P=P):
            pair = gbdt.weyl_pair(P)
            return (np.array([pair.phi(z) for z in zs]),
                    np.array([pair.phi_hat(z) for z in zs]))

        def pair_check(out, prm=prm):
            phi, phi_hat = out
            err = max(rel_max(phi, gen.weyl_phi(prm).phi(zs)),
                      rel_max(phi_hat, gen.weyl_phi_hat(prm).phi(zs)))
            herglotz = min(np.linalg.eigvalsh((v - v.conj().T) / 2j).min() for v in phi_hat)
            same = prm.d.max() > 0 or rel_max(phi, phi_hat) < 1e-9
            return verdict(err < 1e-9 and herglotz > -1e-9 and same, digits(err))

        jobs.append(Job(f"weyl-pair-{key}", pair_run, pair_check))

    for key in ("n2p1", "n3p2"):
        prm = sets[key]
        path = os.path.join(workdir, f"realization-{key}.json")
        gen.write_json(path, gen.realization_json(prm))

        def inverse_check(outdir, prm=prm):
            back = gen.read_params_json(os.path.join(outdir, "params.json"))
            err_p = max(rel_max(getattr(back, f), getattr(prm, f))
                        for f in ("alpha", "lambda1", "lambda2"))
            zx, phi = gen.read_csv(os.path.join(outdir, "phi.csv"), n_abscissa=2)
            err_phi = rel_max(phi, gen.weyl_phi(prm).phi(zx[:, 0] + 1j * zx[:, 1]))
            _, hv = gen.read_csv(os.path.join(outdir, "H.csv"))
            ok_h, _ = check_h(prm, hv)
            err = max(err_p, err_phi)
            return verdict(ok_h and err < 1e-9, digits(err))

        jobs.append(cli_job(f"cli-inverse-{key}",
                            ["inverse", "--realization", path, "--xmax", "2", "--nx", "21",
                             "--z=-1:1:3x0.5:1.5:2"],
                            os.path.join(workdir, f"inverse-{key}"), inverse_check))

    for key in ("n1p1", "n4p2"):
        prm = sets[key]
        P = gbdt_params(prm)

        def realize_run(P=P):
            real = rational.realization_from_params(P)
            return real, rational.params_from_realization(real)

        def realize_check(out, prm=prm):
            real, back = out
            gamma = gen.realization(prm)[0]
            err = max([rel_max(real.gamma, gamma)] + [
                rel_max(getattr(back, f), getattr(prm, f))
                for f in ("alpha", "lambda1", "lambda2")])
            return verdict(err < 1e-12, digits(err))

        jobs.append(Job(f"realization-{key}", realize_run, realize_check))

    spu = 32 if small else 128
    P_b = gbdt_params(sets["n2p1"])
    ref_b = gen.weyl_phi(sets["n2p1"]).phi(1.5j)[0]

    def disk_check(out, ref):
        err = rel_max(out, ref)
        ok = err < (1e-3 if small else 1e-6)
        return verdict(ok, digits(err), **{"structured.disk.error_digits": digits(err)})

    jobs.append(Job("disk-rational-n2p1", lambda: structured.weyl_disk_approx(
        lambda x: gbdt.hamiltonian_grid(P_b, x), 1.5j, l=16.0, steps_per_unit=spu),
        lambda out: disk_check(out, ref_b)))
    jobs.append(Job("disk-constant-v", lambda: structured.weyl_disk_approx(
        gen.const_v_hamiltonian, 1.5j, l=8.0, steps_per_unit=2 * spu),
        lambda out: disk_check(out, gen.const_v_phi(1.5j))))

    def interp_job(name, samples, ref, n_terms, truncation):
        def check(out):
            err = rel_max(out, ref)
            return verdict(err < 1e-4, digits(err),
                           **{"interpolation.series.error_digits": digits(err)})

        jobs.append(Job(name, lambda: interpolation.interpolate_series(
            samples, 3j, n_terms=n_terms, epsilon=0.1, mode="weyl-dirac",
            truncation=truncation), check))

    n_rat, n_auto = (10, 20) if small else (30, 60)
    lattice = 1j * (np.arange(n_auto + 1) + 0.1)
    phi_c = gen.weyl_phi(sets["n3p2"])
    interp_job("interpolate-rational-n3p2", phi_c.phi(lattice[:n_rat + 1]),
               phi_c.phi(3j)[0], n_rat, "fixed")
    interp_job("interpolate-constant-v", gen.const_v_phi(lattice), gen.const_v_phi(3j),
               n_auto, "auto")

    # Fails today: z = i lies in the spectrum of alpha = i, and the transfer
    # matrix refuses it although w(x, .) is entire.  Once it runs, its w must
    # equal the mean of w over a small circle around i.
    fixture = os.path.join(os.path.dirname(gbdt.__file__), "fixtures", "scalar_params.json")

    def fixture_check(outdir):
        P = gbdt_params(gen.read_params_json(fixture))
        xz, w = gen.read_csv(os.path.join(outdir, "w.csv"), n_abscissa=3)
        circle = 1j + 0.25 * np.exp(2j * np.pi * np.arange(16) / 16)
        ref = np.array([np.mean([gbdt.fundamental_direct(P, x, z) for z in circle], axis=0)
                        for x in xz[:, 0]])
        err = rel_max(w, ref)
        return verdict(err < 1e-8, digits(err))

    jobs.append(cli_job("cli-direct-fixture-z-i", ["direct", "--params", fixture],
                        os.path.join(workdir, "direct-fixture"), fixture_check))
    return jobs


WORKLOADS = {
    "weyl-line": weyl_line,
    "operator-factor": operator_factor,
    "explicit-system": explicit_system,
}


def build(workload, seed, workdir, small=False):
    """Generate the workload's inputs (arrays and CLI files) and its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](np.random.default_rng(seed), workdir, small)
