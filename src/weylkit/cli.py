"""Command-line front end.

Subcommands: ``direct`` (explicit system to H, w, phi), ``inverse``
(realization to parameter matrices and H), ``recover`` (tabulated Weyl
samples to amplitude/accelerant and then potential or Hamiltonian),
``fundamental`` (kernel to fundamental solution), ``interpolate`` (lattice
samples to values), ``check`` (invariant suite over bundled fixtures).

Exit codes: 0 success, 1 failed validation or mathematical domain problem,
2 structural/IO/usage errors.  Identical inputs produce byte-identical
outputs; every run writes a ``run-manifest.json`` echoing the effective
parameters.  The output directory may be overridden with the
``WEYLKIT_OUTDIR`` environment variable.
"""

import argparse
import functools
import os
import sys
from importlib import resources

import numpy as np
from scipy.linalg import lapack

from . import __version__, defaults, io, rational
from ._linalg import anti_diag_j, expm_grid, expm_stack
from .exceptions import (
    DomainError,
    PositivityError,
    SingularityError,
    StructuralError,
    ValidationError,
    WeylkitError,
)
from .fourier import WeylSampler, amplitude_from_weyl, herglotz_check, weyl_from_amplitude
from .gbdt import (
    evolve_state,
    fundamental_direct,
    hamiltonian_grid,
    state_identity_residual,
    transfer_matrix,
    validate_params,
    weyl_pair,
)
from .grids import GridFunction
from .interpolation import coeff_a, coeff_c, interpolate_series
from .rational import params_from_realization, realization_from_params, validate_realization
from .structured import (
    build_structured_operator,
    canonical_from_kernel,
    default_operator_length,
    factorize_triangular,
    fundamental_from_kernel,
    recover_potential,
)


def _parse_complex(text):
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise StructuralError(f"cannot parse complex number {text!r}") from exc


def _parse_zgrid(text):
    """Grid spec 're0:re1:n x im0:im1:m' -> flat list of complex points.

    An unparsable axis raises StructuralError naming it, a non-finite point
    or axis end DomainError naming it."""
    parts = text.replace("×", "x").split("x")
    if len(parts) != 2:
        z = _parse_complex(text)
        if not np.isfinite(z):
            raise DomainError(f"evaluation point z = {z} is not finite")
        return [z]

    def axis(spec):
        bits = spec.split(":")
        if len(bits) != 3:
            raise StructuralError(f"bad grid axis {spec!r} (want start:stop:count)")
        try:
            start, stop, num = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise StructuralError(
                f"bad grid axis {spec!r} (start and stop must be numbers, count an integer)"
            ) from exc
        if num < 1:
            raise StructuralError("grid axis needs at least one point")
        if not np.isfinite([start, stop]).all():
            raise DomainError(f"grid axis {spec!r} has a non-finite end")
        return np.linspace(start, stop, num)

    res, ims = axis(parts[0]), axis(parts[1])
    return [complex(r, i) for i in ims for r in res]


def _parse_diag(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise StructuralError(f"cannot parse diagonal {text!r}") from exc


def _outdir(args):
    out = os.environ.get("WEYLKIT_OUTDIR") or args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(outdir, command, params, outputs):
    io._dump_json(os.path.join(outdir, "run-manifest.json"), {
        "command": command,
        "parameters": params,
        "outputs": sorted(outputs),
        "version": __version__,
    })


_Z_LABELS = ["Re_z", "Im_z"]


def _z_columns(zs):
    """The (Re z, Im z) abscissa columns of a CSV over complex points."""
    zs = np.asarray(zs, dtype=complex)
    return np.column_stack([zs.real, zs.imag])


def _x_grid(args):
    if args.nx < 1:
        raise StructuralError(f"--nx must be at least 1, got {args.nx}")
    if not (np.isfinite(args.xmax) and args.xmax >= 0):
        raise DomainError(f"--xmax must be finite and nonnegative, got {args.xmax}")
    return np.linspace(0.0, args.xmax, args.nx)


def _hamiltonian(params, xs):
    return GridFunction(h=xs[1] - xs[0] if len(xs) > 1 else 1.0,
                        values=hamiltonian_grid(params, xs), x0=0.0)


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand computes all its outputs before it creates the output
# directory, so a run that fails writes nothing.


def _cmd_direct(args):
    xs = _x_grid(args)
    params = io.load_params(args.params)
    pair = weyl_pair(params)
    zs = np.array(_parse_zgrid(args.z))
    hgrid = _hamiltonian(params, xs)
    phi, phi_hat = pair.phi(zs), pair.phi_hat(zs)
    w = fundamental_direct(params, xs, zs)     # (len zs, len xs) stack, rows z-major
    outdir = _outdir(args)
    io.write_grid_csv(os.path.join(outdir, "H.csv"), hgrid)
    zcols = _z_columns(zs)
    io.write_rows(os.path.join(outdir, "phi.csv"), _Z_LABELS, zcols, phi)
    io.write_rows(os.path.join(outdir, "phi_hat.csv"), _Z_LABELS, zcols, phi_hat)
    xz = np.column_stack([np.tile(xs, zs.size), np.repeat(zcols, xs.size, axis=0)])
    io.write_rows(os.path.join(outdir, "w.csv"), ["x"] + _Z_LABELS, xz,
                  w.reshape((-1,) + w.shape[2:]))
    _manifest(outdir, "direct", {
        "params": os.path.basename(args.params), "xmax": args.xmax,
        "nx": args.nx, "z": args.z,
    }, ["H.csv", "phi.csv", "phi_hat.csv", "w.csv"])
    return 0


def _cmd_inverse(args):
    xs = _x_grid(args)
    real = io.load_realization(args.realization)
    zs = _parse_zgrid(args.z)
    params = params_from_realization(
        real, [z for z in zs if z.imag > 0] + list(rational._VALIDATION_GRID))
    hgrid = _hamiltonian(params, xs)
    phi = weyl_pair(params).phi(np.array(zs))
    outdir = _outdir(args)
    io.save_params(os.path.join(outdir, "params.json"), params)
    io.write_grid_csv(os.path.join(outdir, "H.csv"), hgrid)
    io.write_rows(os.path.join(outdir, "phi.csv"), _Z_LABELS, _z_columns(zs), phi)
    _manifest(outdir, "inverse", {
        "realization": os.path.basename(args.realization), "xmax": args.xmax,
        "nx": args.nx, "z": args.z,
    }, ["params.json", "H.csv", "phi.csv"])
    return 0


def _cmd_recover(args):
    zetas, values = io.read_weyl_samples_csv(args.samples)
    sampler = WeylSampler.from_table(zetas, values, eta=args.eta)
    d = _parse_diag(args.d) if args.d else None
    if args.mode == "canonical" and d is None:
        raise StructuralError("canonical mode requires --d")
    s_grid, kernel, report = amplitude_from_weyl(
        sampler, eta=args.eta, a=args.a, h=args.step, xmax=args.xmax,
        mode=args.mode, d=d,
    )
    if args.mode == "dirac":
        grids = {"v.csv": recover_potential(kernel, mode="endpoint"),
                 "v_alt.csv": recover_potential(kernel, mode="kernel-edge")}
    else:
        beta, ham = canonical_from_kernel(kernel, d=d)
        grids = {"beta.csv": beta, "H.csv": ham}
    outdir = _outdir(args)
    io.write_grid_csv(os.path.join(outdir, "s.csv"), s_grid)
    io.write_kernel_csv(os.path.join(outdir, "k.csv"), kernel)
    for name, grid in grids.items():
        io.write_grid_csv(os.path.join(outdir, name), grid)
    outputs = ["s.csv", "k.csv"] + list(grids)
    _manifest(outdir, "recover", {
        "samples": os.path.basename(args.samples), "eta": args.eta, "a": args.a,
        "step": args.step, "xmax": args.xmax, "mode": args.mode,
        "d": None if d is None else [float(v) for v in d],
        "tail_estimate": report["tail_estimate"],
    }, outputs)
    return 0


def _cmd_fundamental(args):
    if str(args.kernel).endswith(".json"):
        kernel = io.load_kernel_json(args.kernel)
    else:
        kernel = io.read_kernel_csv(args.kernel)
    d = _parse_diag(args.d)
    zs = _parse_zgrid(args.z)
    l = args.l if args.l is not None else default_operator_length(kernel, d)
    vals = fundamental_from_kernel(kernel, d, l, np.array(zs))
    outdir = _outdir(args)
    io.write_rows(os.path.join(outdir, "w.csv"), _Z_LABELS, _z_columns(zs), vals)
    _manifest(outdir, "fundamental", {
        "kernel": os.path.basename(args.kernel), "d": [float(v) for v in d],
        "l": l, "z": args.z,
    }, ["w.csv"])
    return 0


def _norm(a):
    """Frobenius norm of ``a`` with no overflow in its squares: ``a`` is
    scaled by the power of two of its largest entry, which is exact, and
    the norm scaled back."""
    a = np.atleast_2d(a)
    scale = np.ldexp(1.0, -np.frexp(np.abs(a).max())[1])
    return np.linalg.norm(a * scale) / scale


def _cmd_interpolate(args):
    values = io.read_lattice_samples(args.samples)
    n = min(args.n, values.shape[0] - 1)
    z = _parse_complex(args.z)
    value, partials = interpolate_series(
        values, z, n_terms=n, epsilon=args.epsilon, mode=args.mode,
        z0=_parse_complex(args.z0), truncation=args.truncation,
        return_partials=True,
    )
    residuals = [_norm(part - partials[-1]) for part in partials]
    outdir = _outdir(args)
    io.write_rows(os.path.join(outdir, "value.csv"), _Z_LABELS, _z_columns([z]),
                  np.atleast_2d(value)[None])
    io._write_table(os.path.join(outdir, "convergence.csv"), ["N", "residual"],
                    np.column_stack([np.arange(len(partials)), residuals]))
    _manifest(outdir, "interpolate", {
        "samples": os.path.basename(args.samples), "z": args.z, "z0": args.z0,
        "epsilon": args.epsilon, "n": n, "mode": args.mode,
        "truncation": args.truncation, "effective_n": len(partials) - 1,
    }, ["value.csv", "convergence.csv"])
    return 0


# ---------------------------------------------------------------------------
# invariant suite


def _fixture(name):
    return resources.files("weylkit.fixtures").joinpath(name)


def _run_checks():
    """Fast invariant rows over the bundled fixtures; yields (name, ok, detail)."""
    from .grids import DifferenceKernel

    tol = defaults.IDENTITY_TOL
    with resources.as_file(_fixture("scalar_params.json")) as path:
        params = io.load_params(path)
    with resources.as_file(_fixture("free_params.json")) as path:
        free = io.load_params(path)
    with resources.as_file(_fixture("realization.json")) as path:
        real = io.load_realization(path)

    rep = validate_params(params)
    yield "parameter identity", rep["passed"], f"residual {rep['identity_residual']:.2e}"

    st = evolve_state(params, 1.0)
    res = state_identity_residual(params, st)
    yield "state identity at x=1", res < tol, f"residual {res:.2e}"

    J = anti_diag_j(1)
    z = 0.7 + 0.9j
    wplus = transfer_matrix(params, 1.0, np.conj(z)).conj().T
    jres = np.linalg.norm(wplus @ J @ transfer_matrix(params, 1.0, z) - J)
    yield "transfer J-unitarity", jres < 1e-8, f"residual {jres:.2e}"

    hvals = hamiltonian_grid(params, np.linspace(0.0, 2.0, 9))
    eigs = np.concatenate([np.linalg.eigvalsh(hv) for hv in hvals])
    ranks = [int(np.sum(np.linalg.svd(hv, compute_uv=False) > defaults.RANK_TOL))
             for hv in hvals]
    yield "H PSD and rank <= p", bool(eigs.min() > -defaults.PSD_TOL and max(ranks) <= params.p), (
        f"eigmin {eigs.min():.2e}, max rank {max(ranks)}"
    )

    pair = weyl_pair(params)
    dphi = max(np.linalg.norm(pair.phi(zz) - pair.phi_hat(zz)) for zz in (1j, 2j, 1 + 1j))
    yield "Weyl pair coincides (D<0)", dphi < tol, f"max diff {dphi:.2e}"

    fpair = weyl_pair(free)
    yield "free system phi = i", bool(abs(fpair.phi(1.5j)[0, 0] - 1j) < 1e-12), ""

    rrep = validate_realization(real, rational._VALIDATION_GRID)
    yield "realization identity + Herglotz", rrep["passed"], (
        f"residual {rrep['identity_residual']:.2e}"
    )

    back = realization_from_params(params_from_realization(real))
    rt = max(
        np.linalg.norm(back.gamma - real.gamma),
        np.linalg.norm(back.psi1_0 - real.psi1_0),
        np.linalg.norm(back.psi2 - real.psi2),
    )
    yield "realization round trip", rt < 1e-12, f"max diff {rt:.2e}"

    with resources.as_file(_fixture("kernel.csv")) as path:
        kern = io.read_kernel_csv(path)
    op = build_structured_operator(kern)
    fac = factorize_triangular(op)
    eye = np.eye(op.s.shape[0])
    w = fac.w
    fres = np.linalg.norm(w @ op.s @ w.conj().T - eye, 2)
    yield "factorization residual", fres < defaults.FACTOR_RESIDUAL_TOL, f"{fres:.2e}"
    ires = np.linalg.norm(w @ fac.winv - eye, 2)
    yield "factor inverse pair", ires < 1e-10, f"{ires:.2e}"
    sdiff = float(np.abs(fac.winv - lapack.zpotrf(op.s, lower=1, clean=1)[0]).max())
    yield "S-node pass vs LAPACK on dense X (d = -1)", sdiff < 1e-10, f"max diff {sdiff:.2e}"
    # one block short, the pass's last round is a partial one
    short = build_structured_operator(kern, l=(kern.m - 1) * kern.h)
    gdiff = float(np.abs(factorize_triangular(short).winv
                         - lapack.zpotrf(short.s, lower=1, clean=1)[0]).max())
    yield (f"S-node pass vs LAPACK on dense X (d = -1, M = {short.m})", gdiff < 1e-10,
           f"max diff {gdiff:.2e}")
    # the fixture's int |k| is 0.063, so S stays positive for any weight of a
    # kernel k(x) U with |U| <= 1
    kern2 = DifferenceKernel(p=2, h=kern.h, samples=kern.samples[:, 0, 0, None, None]
                             * np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]))
    # distinct weights: the S-node pass against LAPACK on the dense X
    op2 = build_structured_operator(kern2, d=np.array([-1.0, -np.sqrt(2.0)]))
    xdiff = float(np.abs(factorize_triangular(op2).winv
                         - lapack.zpotrf(op2.s, lower=1, clean=1)[0]).max())
    yield ("S-node pass vs LAPACK on dense X (d = -1, -sqrt 2)", xdiff < 1e-10,
           f"max diff {xdiff:.2e}")
    rdiff = max(float(np.abs(recover_potential(kern, mode=mode).values
                             - recover_potential(kern, mode=mode, factor=fac).values).max())
                for mode in ("endpoint", "kernel-edge"))
    yield "one-pass read-off vs factor route", rdiff < 1e-12, f"max diff {rdiff:.2e}"
    # w = I + i z J h Pi* S^-1 U from one pass on [Pi U] against U from the
    # dense integration matrix and S^-1 from LAPACK's factor, at d = -1
    # and at distinct weights
    zf = np.array([0.7 + 0.5j, -1.0 + 2.0j, 3.0])
    fdiff = 0.0
    for kk, dd in ((kern, np.array([-1.0])), (kern2, np.array([-1.0, -np.sqrt(2.0)]))):
        lf = default_operator_length(kk, dd)
        opf = build_structured_operator(kk, d=dd, l=lf)
        m, p, h = opf.m, opf.p, opf.h
        pi = opf.pi.reshape(m * p, 2 * p)
        amat = np.kron(np.tril(np.ones((m, m)), -1) * h + np.eye(m) * (h / 2.0),
                       1j * np.diag(dd))
        chol = lapack.zpotrf(opf.s, lower=1, clean=1)[0]
        ref = np.array([
            np.eye(2 * p) + 1j * zk * anti_diag_j(p) @ (h * pi.conj().T @ lapack.zpotrs(
                chol, np.linalg.solve(np.eye(m * p) - zk * amat, pi), lower=1)[0])
            for zk in zf])
        got = fundamental_from_kernel(kk, dd, lf, zf)
        fdiff = max(fdiff, float(np.abs(got - ref).max() / np.abs(ref).max()))
    yield "one-pass fundamental vs dense solve", fdiff < 1e-12, f"max rel diff {fdiff:.2e}"

    # scipy's exponential is the reference here only; weylkit computes with its own
    from scipy.linalg import expm

    rng = np.random.default_rng(0)
    stack = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
    norms = np.array([0.0, 1e-10, 1e-3, 0.1, 1.0, 5.0, 20.0, 40.0])
    stack *= (norms / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
    ediff = max(float(np.abs(e - r).max() / np.abs(r).max())
                for e, r in zip(expm_stack(stack), expm(stack)))
    yield "stacked exponential vs scipy", ediff < 1e-12, f"max rel diff {ediff:.2e}"

    # the same stack over 4,096 positions: anchors and offsets against one
    # stacked exponential per position
    xs = np.linspace(0.0, 1.0, 4096)
    ref = expm_stack(stack[:, None] * xs[:, None, None])
    gdiff = float((np.abs(expm_grid(stack, xs) - ref).max(axis=(-1, -2))
                   / np.abs(ref).max(axis=(-1, -2))).max())
    yield "grid exponential vs stacked exponential", gdiff < 1e-12, f"max rel diff {gdiff:.2e}"

    kz = DifferenceKernel(p=1, h=1.0 / 64, samples=np.zeros((64, 1, 1)))
    vz = recover_potential(kz)
    yield "free kernel recovers v = 0", bool(np.abs(vz.values).max() == 0.0), ""

    import math as _math
    worst = 0.0
    for nn in range(31):
        for qq in range(nn + 1):
            sgn, lmag = coeff_a(nn, qq)
            exact = _math.comb(nn + qq, qq) * _math.comb(nn, qq)
            worst = max(worst, abs(sgn * np.exp(lmag) - (-1) ** qq * exact) / exact)
    yield "coefficient recurrence vs factorials", worst < defaults.COEFF_TOL, f"{worst:.2e}"

    lam = 2 + 3j
    c25 = coeff_c(25, lam)
    num = np.prod([q - 0.5 + 1j * lam for q in range(1, 26)])
    den = np.prod([q + 0.5 - 1j * lam for q in range(0, 26)])
    crel = abs(c25 - 51 * num / den) / abs(51 * num / den)
    yield "weight recurrence vs product", crel < defaults.COEFF_TOL, f"{crel:.2e}"

    hrep = herglotz_check(lambda zz: 1j * np.eye(1), [1j, 1 + 1j, -2 + 0.5j])
    hrep2 = herglotz_check(lambda zz: -1j * np.eye(1), [1j])
    yield "Herglotz check sign discrimination", bool(hrep["passed"] and not hrep2["passed"]), ""

    sfree = GridFunction(h=1.0 / 32, values=np.tile(0.5 * np.eye(1)[None], (int(40 * 32) + 1, 1, 1)))
    vals = weyl_from_amplitude(sfree, np.array([1j, 2j]), mode="dirac")
    aerr = float(np.abs(vals - 1j * np.eye(1)).max())
    yield "free amplitude transform", aerr < 1e-6, f"err {aerr:.2e}"

    # the line takes the chirp-z route, the same points shuffled the factored sum
    xs = np.arange(257) / 32.0
    smooth = GridFunction(h=1.0 / 32, values=0.5 * np.eye(2) + np.exp(-xs)[:, None, None]
                          * np.array([[0.3, 0.1j], [-0.2, 0.4]]))
    line = np.linspace(-10.0, 10.0, 201) + 0.5j
    order = np.random.default_rng(0).permutation(line.size)
    on_line = weyl_from_amplitude(smooth, line, mode="dirac")[order]
    ldiff = float(np.abs(weyl_from_amplitude(smooth, line[order], mode="dirac") - on_line).max()
                  / np.abs(on_line).max())
    yield "forward transform: line vs scattered", ldiff < 1e-12, f"max rel diff {ldiff:.2e}"


def _cmd_check(args):
    rows = list(_run_checks())
    width = max(len(name) for name, _, _ in rows) + 2
    failed = 0
    lines = []
    for name, ok, detail in rows:
        status = "pass" if ok else "FAIL"
        failed += 0 if ok else 1
        line = f"{name:<{width}} {status}   {detail}"
        lines.append((name, status, detail))
        print(line)
    print(f"{len(rows) - failed}/{len(rows)} invariants pass")
    if args.out:
        outdir = _outdir(args)
        with open(os.path.join(outdir, "check.csv"), "w", newline="\n") as fh:
            fh.write("invariant,status,detail\n")
            for name, status, detail in lines:
                fh.write(f"{name},{status},{detail}\n")
        _manifest(outdir, "check", {}, ["check.csv"])
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Direct and inverse spectral problems via Weyl functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("direct", help="explicit system: H, fundamental solution, Weyl pair")
    d.add_argument("--params", required=True, help="GbdtParams JSON file")
    d.add_argument("--xmax", type=float, default=defaults.XMAX)
    d.add_argument("--nx", type=int, default=41)
    d.add_argument("--z", default="0+1j", help="complex point or grid re0:re1:n x im0:im1:m")
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_direct)

    i = sub.add_parser("inverse", help="realization -> parameter matrices and H")
    i.add_argument("--realization", required=True)
    i.add_argument("--xmax", type=float, default=defaults.XMAX)
    i.add_argument("--nx", type=int, default=41)
    i.add_argument("--z", default="0+1j")
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_inverse)

    r = sub.add_parser("recover", help="tabulated Weyl samples -> amplitude, accelerant, v or H")
    r.add_argument("--samples", required=True, help="CSV of zeta, Re/Im entries at fixed eta")
    r.add_argument("--eta", type=float, default=defaults.ETA)
    r.add_argument("--a", type=float, default=defaults.FOURIER_CUTOFF)
    r.add_argument("--step", type=float, default=defaults.GRID_STEP)
    r.add_argument("--xmax", type=float, default=defaults.XMAX)
    r.add_argument("--mode", choices=["dirac", "canonical"], default="dirac")
    r.add_argument("--d", default=None, help="comma-separated negative diagonal")
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_recover)

    f = sub.add_parser("fundamental", help="kernel -> fundamental solution at z")
    f.add_argument("--kernel", required=True)
    f.add_argument("--d", required=True)
    f.add_argument("--l", type=float, default=None)
    f.add_argument("--z", default="0+1j")
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_fundamental)

    it = sub.add_parser("interpolate", help="lattice samples -> interpolated value")
    it.add_argument("--samples", required=True, help="CSV of q, Re/Im entries")
    it.add_argument("--z", required=True)
    it.add_argument("--z0", default="0")
    it.add_argument("--epsilon", type=float, default=defaults.EPSILON)
    it.add_argument("--n", type=int, default=defaults.SERIES_ORDER)
    it.add_argument("--mode", choices=["general", "weyl-dirac", "shifted"],
                    default="weyl-dirac")
    it.add_argument("--truncation", choices=["fixed", "auto"], default="fixed")
    it.add_argument("--out", default=None)
    it.set_defaults(func=_cmd_interpolate)

    c = sub.add_parser("check", help="run the invariant suite on bundled fixtures")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_check)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of :func:`main`, built once per process; parsing leaves it
    unchanged, so every call sees the same tree."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, PositivityError, DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylkitError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
