import dataclasses
import filecmp
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import weylkit as wk
import weylkit.io as wio
from weylkit import cli
from weylkit.cli import main
from weylkit.grids import DifferenceKernel, GridFunction

from conftest import make_params

FIXTURES = os.path.join(os.path.dirname(wio.__file__), "fixtures")


class TestJson:
    def test_params_round_trip_bit_exact(self, tmp_path):
        prm = make_params(3, 2, seed=90, negative=False)
        path = tmp_path / "p.json"
        wio.save_params(path, prm)
        back = wio.load_params(path)
        assert np.array_equal(back.alpha, prm.alpha)
        assert np.array_equal(back.lambda1, prm.lambda1)
        assert np.array_equal(back.lambda2, prm.lambda2)
        assert np.array_equal(back.d, prm.d)

    def test_realization_round_trip_bit_exact(self, tmp_path):
        r = wk.realization_from_params(make_params(3, 2, seed=91))
        path = tmp_path / "r.json"
        wio.save_realization(path, r)
        back = wio.load_realization(path)
        assert np.array_equal(back.gamma, r.gamma)
        assert np.array_equal(back.psi1_0, r.psi1_0)
        assert np.array_equal(back.psi2, r.psi2)

    def test_wrong_kind_is_structural(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "something"}')
        with pytest.raises(wk.StructuralError):
            wio.load_params(path)

    def test_malformed_json_is_structural(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(wk.StructuralError):
            wio.load_params(path)


class TestCsv:
    def test_grid_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(12, 2, 4)) + 1j * rng.normal(size=(12, 2, 4))
        grid = GridFunction(h=1 / 8, values=vals, x0=1 / 16)
        path = tmp_path / "g.csv"
        wio.write_grid_csv(path, grid)
        back = wio.read_grid_csv(path)
        assert np.array_equal(back.values, grid.values)
        assert back.h == grid.h and back.x0 == grid.x0

    def test_kernel_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
        kern = DifferenceKernel(p=2, h=1 / 16, samples=vals)
        path = tmp_path / "k.csv"
        wio.write_kernel_csv(path, kern)
        back = wio.read_kernel_csv(path)
        assert np.array_equal(back.samples, kern.samples)
        assert back.h == kern.h and back.p == kern.p

    def test_weyl_samples_round_trip(self, tmp_path):
        zetas = np.linspace(-3, 3, 7)
        vals = np.exp(1j * zetas)[:, None, None] * np.eye(1)
        path = tmp_path / "w.csv"
        wio.write_weyl_samples_csv(path, zetas, vals)
        z2, v2 = wio.read_weyl_samples_csv(path)
        assert np.array_equal(z2, zetas) and np.array_equal(v2, vals)

    def test_node_grid_rejected_as_kernel(self, tmp_path):
        grid = GridFunction(h=1 / 8, values=np.zeros((8, 1, 1)), x0=0.0)
        path = tmp_path / "bad.csv"
        wio.write_grid_csv(path, grid)
        with pytest.raises(wk.StructuralError):
            wio.read_kernel_csv(path)


class TestCli:
    def test_direct_free_system_constant_phi(self, tmp_path):
        out = tmp_path / "run"
        code = main(["direct", "--params", os.path.join(FIXTURES, "free_params.json"),
                     "--xmax", "2", "--nx", "9", "--z", "0+1i",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "phi.csv").read_text().strip().split("\n")
        assert rows[1].split(",")[2:] == ["0", "1"]
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["command"] == "direct"
        assert "H.csv" in manifest["outputs"]

    def test_determinism(self, tmp_path):
        args = ["direct", "--params", os.path.join(FIXTURES, "scalar_params.json"),
                "--nx", "5", "--z=-1:1:3x0.5:1.5:2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("H.csv", "phi.csv", "phi_hat.csv", "w.csv", "run-manifest.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_inverse_then_direct_reproduces_phi(self, tmp_path):
        r = wk.realization_from_params(make_params(2, 1, seed=95))
        rpath = tmp_path / "r.json"
        wio.save_realization(rpath, r)
        inv = tmp_path / "inv"
        assert main(["inverse", "--realization", str(rpath), "--nx", "3",
                     "--z=-1:1:4x0.5:2:3", "--out", str(inv)]) == 0
        dout = tmp_path / "dir"
        assert main(["direct", "--params", str(inv / "params.json"), "--nx", "3",
                     "--z=-1:1:4x0.5:2:3", "--out", str(dout)]) == 0
        a = (inv / "phi.csv").read_text().strip().split("\n")[1:]
        b = (dout / "phi.csv").read_text().strip().split("\n")[1:]
        for ra, rb in zip(a, b):
            va = np.array([float(t) for t in ra.split(",")])
            vb = np.array([float(t) for t in rb.split(",")])
            assert np.abs(va - vb).max() < 1e-8
        # and the CLI phi matches the input realization pointwise
        zs = [complex(float(r0.split(",")[0]), float(r0.split(",")[1])) for r0 in a]
        for row, z in zip(a, zs):
            cells = [float(t) for t in row.split(",")]
            assert abs(complex(cells[2], cells[3]) - r.phi(z)[0, 0]) < 1e-8

    def test_recover_subcommand_dirac(self, tmp_path):
        zetas = np.linspace(-50, 50, 2001)
        vals = np.tile(1j * np.eye(1)[None], (zetas.size, 1, 1))
        spath = tmp_path / "samples.csv"
        wio.write_weyl_samples_csv(spath, zetas, vals)
        out = tmp_path / "rec"
        assert main(["recover", "--samples", str(spath), "--eta", "1.0",
                     "--a", "50", "--step", "0.015625", "--xmax", "1.0",
                     "--mode", "dirac", "--out", str(out)]) == 0
        s = wio.read_grid_csv(out / "s.csv")
        assert np.abs(s.values - 0.5).max() < 1e-2
        v = wio.read_grid_csv(out / "v.csv")
        assert np.abs(v.values).max() < 5e-2
        assert (out / "v_alt.csv").exists() and (out / "k.csv").exists()

    def test_recover_subcommand_canonical(self, tmp_path):
        zetas = np.linspace(-50, 50, 2001)
        vals = np.tile(1j * np.eye(1)[None], (zetas.size, 1, 1))
        spath = tmp_path / "samples.csv"
        wio.write_weyl_samples_csv(spath, zetas, vals)
        out = tmp_path / "rec"
        assert main(["recover", "--samples", str(spath), "--eta", "1.0",
                     "--a", "50", "--step", "0.015625", "--xmax", "1.0",
                     "--mode", "canonical", "--d", "-2", "--out", str(out)]) == 0
        assert (out / "H.csv").exists() and (out / "beta.csv").exists()
        ham = wio.read_grid_csv(out / "H.csv")
        expect = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(ham.values - expect[None]).max() < 5e-2

    def test_fundamental_subcommand(self, tmp_path):
        out = tmp_path / "fun"
        assert main(["fundamental", "--kernel", os.path.join(FIXTURES, "kernel.csv"),
                     "--d", "-1", "--z", "0.5+1j", "--out", str(out)]) == 0
        rows = (out / "w.csv").read_text().strip().split("\n")
        assert len(rows) == 2

    def test_fundamental_default_length_rounds_down(self, tmp_path):
        # 1 / 1.5 is not a whole number of steps 1/128: the default length
        # is the longest whole-step length the kernel reaches, 85/128
        out = tmp_path / "fun"
        assert main(["fundamental", "--kernel", os.path.join(FIXTURES, "kernel.csv"),
                     "--d=-1.5", "--out", str(out)]) == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["parameters"]["l"] == 85 / 128

    def test_interpolate_subcommand(self, tmp_path):
        qs = np.arange(61, dtype=float)
        wio.write_weyl_samples_csv(tmp_path / "s.csv", qs,
                                   np.full((61, 1, 1), 1j))
        out = tmp_path / "it"
        assert main(["interpolate", "--samples", str(tmp_path / "s.csv"),
                     "--z", "3j", "--n", "60", "--mode", "weyl-dirac",
                     "--out", str(out)]) == 0
        row = (out / "value.csv").read_text().strip().split("\n")[1].split(",")
        assert abs(complex(float(row[2]), float(row[3])) - 1j) < 1e-3
        conv = (out / "convergence.csv").read_text().strip().split("\n")
        assert len(conv) == 62

    def test_check_passes_on_fixtures(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "invariants pass" in out and "FAIL" not in out

    def test_missing_file_exits_2(self):
        assert main(["direct", "--params", "/nonexistent.json"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["direct", "--nonsense"])
        assert exc.value.code == 2

    def test_invalid_params_exit_1(self, tmp_path):
        bad = wio.params_to_json(make_params(2, 1, seed=97))
        bad["alpha"][0][0] = [5.0, 5.0]   # break the identity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["direct", "--params", str(path), "--out",
                     str(tmp_path / "o")]) == 1

    def test_non_finite_params_exit_2(self, tmp_path, capsys):
        bad = wio.params_to_json(make_params(2, 1, seed=97))
        bad["alpha"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(bad))
        assert main(["direct", "--params", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: alpha must be finite\n"

    @pytest.mark.parametrize("command", ["direct", "inverse"])
    def test_empty_x_grid_exits_2(self, command, tmp_path, capsys):
        if command == "direct":
            source = ["--params", os.path.join(FIXTURES, "scalar_params.json")]
        else:
            source = ["--realization", os.path.join(FIXTURES, "realization.json")]
        out = tmp_path / "o"
        assert main([command, *source, "--nx", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --nx must be at least 1, got 0\n"
        assert not out.exists()

    def test_direct_at_alpha_eigenvalue(self, tmp_path):
        # the default z = i is the eigenvalue of the fixture's alpha; the
        # singularity of the closed form is removable
        out = tmp_path / "o"
        path = os.path.join(FIXTURES, "scalar_params.json")
        assert main(["direct", "--params", path, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "w.csv", delimiter=",", skiprows=1)
        assert rows.shape == (41, 11) and np.all(np.isfinite(rows))

    def test_direct_w_csv_is_the_batched_fundamental(self, tmp_path):
        prm = make_params(3, 2, seed=98, negative=False)
        path = tmp_path / "p.json"
        wio.save_params(path, prm)
        out = tmp_path / "o"
        assert main(["direct", "--params", str(path), "--xmax", "2", "--nx", "11",
                     "--z=-1.7:1.3:3x0:1.2:2", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "w.csv", delimiter=",", skiprows=1)
        xs = np.linspace(0.0, 2.0, 11)
        zs = np.array([complex(r, i) for i in np.linspace(0, 1.2, 2)
                       for r in np.linspace(-1.7, 1.3, 3)])
        w = wk.fundamental_direct(prm, xs, zs).reshape(-1, 4, 4)
        np.testing.assert_array_equal(rows[:, 0], np.tile(xs, zs.size))
        np.testing.assert_array_equal(rows[:, 1] + 1j * rows[:, 2], np.repeat(zs, xs.size))
        np.testing.assert_array_equal(rows[:, 3::2] + 1j * rows[:, 4::2], w.reshape(-1, 16))

    def test_one_parser_per_process(self, tmp_path, capsys):
        """Consecutive calls through the shared parser, one after a parse
        error, write the same bytes as calls that each build a fresh one."""
        wio.write_lattice_samples_json(tmp_path / "s.json", np.full(21, 1j, dtype=complex))
        runs = [
            (["direct", "--params", os.path.join(FIXTURES, "scalar_params.json"),
              "--nx", "5", "--z=-1:1:3x0.5:1.5:2"], 0),
            (["interpolate", "--samples", str(tmp_path / "s.json"), "--z", "3j",
              "--n", "20", "--truncation", "auto"], 0),
            (["direct", "--nx", "5"], 2),          # --params is missing
            (["interpolate", "--samples", str(tmp_path / "s.json"), "--z", "2+3j",
              "--n", "20", "--mode", "general"], 0),
            (["check"], 0),
        ]

        def run_all(tag, fresh):
            for k, (argv, code) in enumerate(runs):
                if fresh:
                    cli._parser.cache_clear()
                try:
                    got = main(argv + ["--out", str(tmp_path / tag / str(k))])
                except SystemExit as exc:
                    got = exc.code
                assert got == code, argv
            return capsys.readouterr()

        shared, fresh = run_all("shared", False), run_all("fresh", True)
        assert shared == fresh
        for k in (0, 1, 3, 4):
            a, b = tmp_path / "shared" / str(k), tmp_path / "fresh" / str(k)
            names = sorted(os.listdir(a))
            assert names == sorted(os.listdir(b)) and "run-manifest.json" in names
            for name in names:
                assert filecmp.cmp(a / name, b / name, shallow=False), (k, name)

    def test_no_mpmath_at_run_time(self, tmp_path):
        code = (
            "import sys, numpy as np, weylkit\n"
            "weylkit.interpolate_series(np.full(21, 1j), 3j, n_terms=20, mode='weyl-dirac')\n"
            "from weylkit.cli import main\n"
            "assert main(['check']) == 0\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(wk.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_manifest_version_is_the_package_version(self, tmp_path):
        out = tmp_path / "o"
        assert main(["direct", "--params", os.path.join(FIXTURES, "free_params.json"),
                     "--nx", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["version"] == wk.__version__

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("WEYLKIT_OUTDIR", str(target))
        assert main(["direct", "--params",
                     os.path.join(FIXTURES, "free_params.json"),
                     "--nx", "3", "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "phi.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestJsonGrids:
    def test_grid_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(6, 2, 3)) + 1j * rng.normal(size=(6, 2, 3))
        grid = GridFunction(h=0.25, values=vals, x0=0.125)
        path = tmp_path / "g.json"
        wio.save_grid_json(path, grid)
        back = wio.load_grid_json(path)
        assert np.array_equal(back.values, grid.values)
        assert back.h == grid.h and back.x0 == grid.x0

    def test_kernel_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        kern = DifferenceKernel(p=2, h=0.125, samples=vals)
        path = tmp_path / "k.json"
        wio.save_kernel_json(path, kern)
        back = wio.load_kernel_json(path)
        assert np.array_equal(back.samples, kern.samples)
        assert back.p == kern.p and back.h == kern.h

    def test_lattice_samples_json(self, tmp_path):
        samples = np.array([1.0 / (q + 0.1) for q in range(21)], dtype=complex)
        path = tmp_path / "s.json"
        wio.write_lattice_samples_json(path, samples)
        back = wio.read_lattice_samples(path)
        assert np.array_equal(back[:, 0, 0], samples)

    def test_interpolate_accepts_json_samples(self, tmp_path):
        wio.write_lattice_samples_json(tmp_path / "s.json",
                                       np.full(41, 1j, dtype=complex))
        out = tmp_path / "it"
        assert main(["interpolate", "--samples", str(tmp_path / "s.json"),
                     "--z", "3j", "--n", "40", "--mode", "weyl-dirac",
                     "--out", str(out)]) == 0
        row = (out / "value.csv").read_text().strip().split("\n")[1].split(",")
        assert abs(complex(float(row[2]), float(row[3])) - 1j) < 1e-3

    def test_fundamental_accepts_json_kernel(self, tmp_path):
        kern = DifferenceKernel(p=1, h=1 / 32, samples=np.zeros((32, 1, 1)))
        wio.save_kernel_json(tmp_path / "k.json", kern)
        out = tmp_path / "fun"
        assert main(["fundamental", "--kernel", str(tmp_path / "k.json"),
                     "--d", "-1", "--z", "0+0j", "--out", str(out)]) == 0
        row = (out / "w.csv").read_text().strip().split("\n")[1].split(",")
        vals = np.array([float(t) for t in row[2:]])
        expect = np.eye(2).astype(complex)
        got = vals[::2] + 1j * vals[1::2]
        assert np.abs(got.reshape(2, 2) - expect).max() == 0.0


class TestNonFiniteInput:
    """A NaN in any input stops at the entry point with a typed error: input
    data raise StructuralError (CLI exit 2), non-finite evaluation points and
    exponents DomainError (exit 1)."""

    def test_realization_with_nan_gamma(self, tmp_path, capsys):
        r = wk.realization_from_params(make_params(2, 1, seed=98))
        gamma = r.gamma.copy()
        gamma[0, 1] = np.nan
        with pytest.raises(wk.StructuralError, match="gamma must be finite"):
            wk.Realization(d=r.d, gamma=gamma, psi1_0=r.psi1_0, psi2=r.psi2)
        obj = wio.realization_to_json(r)
        obj["gamma"][0][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "o"
        assert main(["inverse", "--realization", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gamma must be finite\n"

    def test_grid_function_with_nan_value(self):
        vals = np.zeros((5, 1, 1))
        vals[3] = np.nan
        with pytest.raises(wk.StructuralError, match="the sample at x = 0.75 is not"):
            GridFunction(h=0.25, values=vals)

    def test_interpolation_of_nan_samples(self, tmp_path, capsys):
        samples = np.full(61, 1j)
        samples[7] = np.nan
        with pytest.raises(wk.StructuralError, match="sample q = 7 is not"):
            wk.interpolate_series(samples, 3j, n_terms=60, mode="weyl-dirac")
        wio.write_weyl_samples_csv(tmp_path / "s.csv", np.arange(61.0), samples[:, None, None])
        assert main(["interpolate", "--samples", str(tmp_path / "s.csv"), "--z", "3j",
                     "--n", "60", "--out", str(tmp_path / "o")]) == 2
        assert "sample q = 7 is not" in capsys.readouterr().err

    def test_amplitude_from_nan_weyl_samples(self, tmp_path, capsys):
        # named before the transform, not as non-finite kernel samples after it
        zetas = np.linspace(-50, 50, 2001)
        vals = np.tile(1j * np.eye(1)[None], (zetas.size, 1, 1))
        vals[1500] = np.nan
        sampler = wk.WeylSampler.from_table(zetas, vals, eta=1.0)
        with pytest.raises(wk.StructuralError,
                           match=r"Weyl samples must be finite; the sample at zeta = 24\.95"):
            wk.amplitude_from_weyl(sampler, eta=1.0, a=50.0, h=1 / 64, xmax=1.0,
                                   mode="dirac")
        wio.write_weyl_samples_csv(tmp_path / "s.csv", zetas, vals)
        assert main(["recover", "--samples", str(tmp_path / "s.csv"), "--eta", "1.0",
                     "--a", "50", "--step", "0.015625", "--xmax", "1.0", "--mode", "dirac",
                     "--out", str(tmp_path / "o")]) == 2
        assert "Weyl samples must be finite" in capsys.readouterr().err

    def test_matrix_exponential_of_non_finite_entries(self):
        from weylkit._linalg import expm_stack

        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.inf
        with pytest.raises(wk.DomainError, match="non-finite"):
            expm_stack(stack)
        with pytest.raises(wk.DomainError, match="finite and nonnegative"):
            wk.gbdt.hamiltonian_grid(make_params(2, 1, seed=99), [0.0, np.nan])

    def test_direct_with_nan_length_exits_1(self, tmp_path, capsys):
        path = os.path.join(FIXTURES, "scalar_params.json")
        assert main(["direct", "--params", path, "--xmax", "nan",
                     "--out", str(tmp_path / "o")]) == 1
        assert "finite and nonnegative" in capsys.readouterr().err

    def test_disk_oracle_hamiltonian_with_nan_value(self, free_hamiltonian):
        def ham(x):
            vals = np.tile(free_hamiltonian, (x.size, 1, 1))
            vals[x > 1.0] = np.nan
            return vals

        with pytest.raises(wk.StructuralError, match=r"Hamiltonian value at x = 1\.0"):
            wk.weyl_disk_approx(ham, 1j, l=2.0, steps_per_unit=16)

    def test_recover_with_nan_eta_exits_1(self, tmp_path, capsys):
        zetas = np.linspace(-5, 5, 11)
        wio.write_weyl_samples_csv(tmp_path / "s.csv", zetas, np.full(11, 1j))
        assert main(["recover", "--samples", str(tmp_path / "s.csv"), "--eta", "nan",
                     "--out", str(tmp_path / "o")]) == 1
        assert "finite eta > 0, got eta = nan" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_interpolate_with_non_finite_epsilon_exits_1(self, eps, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["interpolate", "--samples", os.path.join(FIXTURES, "kernel.csv"),
                     "--z", "3j", "--n", "10", "--epsilon", eps, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: the offset eps must be finite, got eps = {float(eps)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--a", "-5"), ("--a", "0"), ("--a", "nan"), ("--a", "inf"),
        ("--step", "nan"), ("--step", "0"), ("--xmax", "nan"), ("--xmax", "inf"),
        ("--step", "1e-310"), ("--a", "1e300")])
    def test_recover_with_bad_window_or_grid_exits_1(self, option, value, tmp_path, capsys):
        zetas = np.linspace(-50, 50, 2001)
        wio.write_weyl_samples_csv(tmp_path / "s.csv", zetas, np.full(zetas.size, 1j))
        out = tmp_path / "o"
        assert main(["recover", "--samples", str(tmp_path / "s.csv"), "--eta", "1.0",
                     option, value, "--mode", "dirac", "--out", str(out)]) == 1
        name = {"--a": "a", "--step": "h", "--xmax": "xmax"}[option]
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if value in ("1e-310", "1e300"):
            # finite and positive, but xmax / h overflows or a / dzeta is
            # beyond any numpy array
            assert "more grid points than a numpy array can hold" in err
        else:
            assert f"finite {name} > 0, got {name} = " in err
        assert not out.exists()

    def test_non_numeric_grid_axis_exits_2(self, tmp_path, capsys):
        path = os.path.join(FIXTURES, "scalar_params.json")
        out = tmp_path / "o"
        assert main(["direct", "--params", path, "--z", "1:2:ax1:2:3", "--out", str(out)]) == 2
        assert "bad grid axis '1:2:a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["direct", "inverse", "fundamental"])
    def test_non_finite_z_exits_1(self, command, tmp_path, capsys):
        source = {"direct": ["--params", os.path.join(FIXTURES, "scalar_params.json")],
                  "inverse": ["--realization", os.path.join(FIXTURES, "realization.json")],
                  "fundamental": ["--kernel", os.path.join(FIXTURES, "kernel.csv"), "--d=-1"]}
        out = tmp_path / "o"
        assert main([command, *source[command], "--z", "nan+1j", "--out", str(out)]) == 1
        assert "z = (nan+1j) is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("length", ["nan", "inf", "0", "-1"])
    def test_bad_operator_length_exits_1(self, length, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["fundamental", "--kernel", os.path.join(FIXTURES, "kernel.csv"),
                     "--d=-1", "--l", length, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: operator length l = {float(length)} must be finite and positive\n")
        assert not out.exists()

    def test_infinite_grid_axis_exits_1(self, tmp_path, capsys):
        path = os.path.join(FIXTURES, "scalar_params.json")
        out = tmp_path / "o"
        assert main(["direct", "--params", path, "--z", "1:inf:2x0.5:1:2", "--out", str(out)]) == 1
        assert "grid axis '1:inf:2' has a non-finite end" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowingInput:
    """Finite input whose arithmetic would divide by zero, overflow or
    allocate beyond any numpy array fails with DomainError (CLI exit 1, one
    ``error:`` line, no output directory), and no numpy warning escapes."""

    @staticmethod
    def _fails_cleanly(argv, out, capsys, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("d", [0.0, np.nan, -np.inf, 1.0, -1e-300, -1e-322])
    def test_operator_weights_checked_before_arithmetic(self, d):
        kern = wio.read_kernel_csv(os.path.join(FIXTURES, "kernel.csv"))
        message = {-1e-300: "more grid blocks than a numpy array",
                   -1e-322: "operator length l = inf must be finite and positive"}.get(
                       d, "require finite negative D entries")
        calls = [lambda: wk.build_structured_operator(kern, d=[d])]
        if d in (-1e-300, -1e-322):   # finite and negative: a default length, inf at -1e-322
            assert np.isinf(wk.structured.default_operator_length(kern, [d])) == (d == -1e-322)
        else:
            calls.append(lambda: wk.structured.default_operator_length(kern, [d]))
        for call in calls:
            with pytest.raises(wk.DomainError, match=message):
                call()

    @pytest.mark.parametrize("d", ["0", "nan", "-1e-300", "-1e-322"])
    def test_fundamental_with_bad_weight_exits_1(self, d, tmp_path, capsys):
        message = {"-1e-300": "more grid blocks than a numpy array",
                   "-1e-322": "operator length l = inf must be finite and positive"}.get(
                       d, "require finite negative D entries")
        self._fails_cleanly(["fundamental", "--kernel", os.path.join(FIXTURES, "kernel.csv"),
                             f"--d={d}", "--z", "0.5+1j"], tmp_path / "o", capsys, message)

    @pytest.mark.parametrize("d", ["nan", "-inf"])
    def test_canonical_recover_with_bad_weight_exits_1(self, d, tmp_path, capsys):
        # d >= 0 is False for NaN, and -inf is negative: both must be refused
        # as weights before any sample is read
        zetas = np.linspace(-40, 40, 2001)
        wio.write_weyl_samples_csv(tmp_path / "s.csv", zetas, np.full(zetas.size, 1j))
        self._fails_cleanly(["recover", "--samples", str(tmp_path / "s.csv"), "--eta", "1.0",
                             "--a", "40", "--mode", "canonical", f"--d={d}"],
                            tmp_path / "o", capsys,
                            f"canonical mode requires finite negative D entries, got d = [{d}]")

    @pytest.mark.parametrize("xmax", ["inf", "-inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["direct", "inverse"])
    def test_bad_xmax_is_named(self, command, xmax, tmp_path, capsys):
        # checked before linspace, which warns on an infinite end and leaves
        # a NaN position for the position check to name instead of --xmax
        source = {"direct": ["--params", os.path.join(FIXTURES, "scalar_params.json")],
                  "inverse": ["--realization", os.path.join(FIXTURES, "realization.json")]}
        self._fails_cleanly([command, *source[command], f"--xmax={xmax}"], tmp_path / "o",
                            capsys, f"--xmax must be finite and nonnegative, got {float(xmax)}")

    def test_fundamental_at_huge_z_is_named(self):
        prm = make_params(2, 1, seed=70)
        with pytest.raises(wk.DomainError, match=re.escape("not finite at z = 2e+200j")):
            wk.fundamental_direct(prm, [0.0, 1.0], np.array([1j, 2e200j, 3e200j]))

    def test_direct_at_huge_z_exits_1(self, tmp_path, capsys):
        self._fails_cleanly(["direct", "--params", os.path.join(FIXTURES, "scalar_params.json"),
                             "--xmax", "2", "--nx", "3", "--z", "1e200+1e200j"],
                            tmp_path / "o", capsys, "not finite at z = (1e+200+1e+200j)")

    @pytest.mark.parametrize("mode", ["weyl-dirac", "shifted"])
    def test_interpolation_prefactor_overflow_is_named(self, mode):
        with pytest.raises(wk.DomainError, match=re.escape("overflows at z = 1e+300j")):
            wk.interpolate_series(np.ones(11), np.array([3j, 1e300j]), n_terms=10, mode=mode)

    def test_interpolate_at_huge_z_exits_1(self, tmp_path, capsys):
        self._fails_cleanly(["interpolate", "--samples", os.path.join(FIXTURES, "kernel.csv"),
                             "--z", "1e300j", "--n", "10", "--mode", "weyl-dirac"],
                            tmp_path / "o", capsys, "overflows at z = 1e+300j")

    def test_interpolate_residuals_of_huge_samples(self, tmp_path):
        # the residual norms are taken on a power-of-two scaled difference:
        # huge samples give finite residuals, exactly 2^660 times those of
        # the unscaled samples
        samples = np.exp(-np.arange(12.0))[:, None, None] * (1 + 0.5j)
        runs = {}
        for name, scale in (("unit", 1.0), ("huge", 2.0 ** 660)):
            wio.write_weyl_samples_csv(tmp_path / f"{name}.csv", np.arange(12.0), scale * samples)
            out = tmp_path / name
            assert main(["interpolate", "--samples", str(tmp_path / f"{name}.csv"), "--z", "3j",
                         "--n", "10", "--out", str(out)]) == 0
            runs[name] = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.all(np.isfinite(runs["huge"])) and runs["unit"][0] > 0
        np.testing.assert_array_equal(runs["huge"], 2.0 ** 660 * runs["unit"])


# cells that 17 significant digits must carry exactly: signed zeros, the
# smallest subnormal, the largest double, inexact decimals and whole numbers
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
                -2.0, 1.0, 7.0, 1e16, 123456789.0]


def _edge_stack(k, rows, cols, seed):
    # set the parts one by one: re + 1j * im would turn -0.0 + 1j * 0.0 into 0j
    rng = np.random.default_rng(seed)
    out = np.empty((k, rows, cols), dtype=complex)
    out.real = rng.choice(_EDGE_VALUES, size=out.shape)
    out.imag = rng.choice(_EDGE_VALUES, size=out.shape)
    if k:
        out[0, 0, 0] = complex(-0.0, 0.0)
        out[-1, -1, -1] = complex(-0.0, 1 / 3)
    return out


def _reference_csv(labels, xs, values):
    """The CSV the writer must produce, built one cell at a time."""
    header = list(labels) + [f"{part}_{i}_{j}" for i in range(values.shape[1])
                             for j in range(values.shape[2]) for part in ("Re", "Im")]
    lines = [",".join(header)]
    for x, val in zip(xs, values):
        cells = [format(float(v), ".17g") for v in np.atleast_1d(x)]
        for v in val.ravel():
            cells += [format(v.real, ".17g"), format(v.imag, ".17g")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCsvContract:
    """Every cell is format(v, ".17g"), and reading gives back the same bits."""

    @pytest.mark.parametrize("k,rows,cols", [(7, 1, 1), (5, 2, 3), (0, 2, 3)])
    def test_one_abscissa_bytes(self, tmp_path, k, rows, cols):
        xs = np.array(_EDGE_VALUES[:k]) if k else np.zeros(0)
        values = _edge_stack(k, rows, cols, seed=k + rows)
        wio.write_rows(tmp_path / "t.csv", ["x"], xs, values)
        assert (tmp_path / "t.csv").read_text() == _reference_csv(["x"], xs, values)

    def test_two_abscissae_bytes(self, tmp_path):
        xs = np.array([[0.1, -0.0], [1 / 3, 5e-324], [2.0, 1.7976931348623157e308]])
        values = _edge_stack(3, 2, 2, seed=3)
        wio.write_rows(tmp_path / "t.csv", ["Re_z", "Im_z"], xs, values)
        assert (tmp_path / "t.csv").read_text() == _reference_csv(["Re_z", "Im_z"], xs,
                                                                  values)

    def test_real_values_get_a_zero_imaginary_part(self, tmp_path):
        values = np.array([[[0.5]], [[-0.0]]])
        wio.write_rows(tmp_path / "t.csv", ["x"], [0.0, 1.0], values)
        assert (tmp_path / "t.csv").read_text() == "x,Re_0_0,Im_0_0\n0,0.5,0\n1,-0,0\n"

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3)])
    def test_round_trip_keeps_every_bit(self, tmp_path, rows, cols):
        values = _edge_stack(9, rows, cols, seed=rows * cols)
        grid = GridFunction(h=0.1, values=values, x0=0.05)
        wio.write_grid_csv(tmp_path / "g.csv", grid)
        back = wio.read_grid_csv(tmp_path / "g.csv")
        assert _same_bits(back.values, grid.values)
        zetas = np.array(_EDGE_VALUES[:9])
        wio.write_weyl_samples_csv(tmp_path / "w.csv", zetas, values)
        z2, v2 = wio.read_weyl_samples_csv(tmp_path / "w.csv")
        assert _same_bits(z2, zetas) and _same_bits(v2, values)

    def test_json_round_trip_keeps_every_bit(self, tmp_path):
        values = _edge_stack(6, 2, 2, seed=11)
        grid = GridFunction(h=0.25, values=values, x0=0.125)
        wio.save_grid_json(tmp_path / "g.json", grid)
        assert _same_bits(wio.load_grid_json(tmp_path / "g.json").values, values)
        wio.write_lattice_samples_json(tmp_path / "s.json", values)
        assert _same_bits(wio.read_lattice_samples(tmp_path / "s.json"), values)
        prm = make_params(2, 1, seed=90, negative=False)
        alpha = prm.alpha.copy()
        alpha[0, 1] = complex(-0.0, -0.0)
        obj = wio.params_to_json(dataclasses.replace(prm, alpha=alpha))
        assert _same_bits(wio.params_from_json(obj).alpha, alpha)


class TestWeylSampleShape:
    """Weyl samples whose blocks do not fit the run stop with StructuralError
    naming both sizes: in the library, and as exit 2 from ``recover``."""

    zetas = np.linspace(-50, 50, 2001)

    def _recover(self, tmp_path, vals, *mode):
        path = tmp_path / "s.csv"
        wio.write_weyl_samples_csv(path, self.zetas, vals)
        return main(["recover", "--samples", str(path), "--eta", "1.0", "--a", "50",
                     "--step", "0.015625", "--xmax", "1.0", *mode,
                     "--out", str(tmp_path / "o")])

    def test_scalar_samples_with_two_weights(self, tmp_path, capsys):
        vals = np.tile(1j * np.eye(1)[None], (self.zetas.size, 1, 1))
        message = "d has 2 entries but the Weyl samples are 1 x 1"
        sampler = wk.WeylSampler.from_table(self.zetas, vals, eta=1.0)
        with pytest.raises(wk.StructuralError, match=message):
            wk.amplitude_from_weyl(sampler, eta=1.0, a=50.0, h=1 / 64, xmax=1.0,
                                   mode="canonical", d=[-1.0, -2.0])
        assert self._recover(tmp_path, vals, "--mode", "canonical", "--d=-1,-2") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", [["--mode", "dirac"], ["--mode", "canonical", "--d=-1"]],
                             ids=["dirac", "canonical"])
    def test_non_square_blocks(self, tmp_path, capsys, mode):
        vals = np.tile(np.array([[1j, 0.0]]), (self.zetas.size, 1, 1))
        message = "must be square p x p blocks; got 1 x 2"
        with pytest.raises(wk.StructuralError, match=message):
            wk.WeylSampler.from_table(self.zetas, vals, eta=1.0)
        assert self._recover(tmp_path, vals, *mode) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_callable_of_the_wrong_shape(self):
        sampler = wk.WeylSampler(fn=lambda zs: np.ones((zs.size, 1, 1)), p=2)
        with pytest.raises(wk.StructuralError, match=r"expected \(1, 2, 2\)"):
            sampler(1j)
        with pytest.raises(wk.StructuralError, match=r"shape \(2001, 1, 2\) for 2001 points"):
            wk.amplitude_from_weyl(lambda zs: np.ones((zs.size, 1, 2)), eta=1.0, a=50.0,
                                   h=1 / 64, xmax=1.0, mode="dirac")


_CSV_HEADER = "zeta,Re_0_0,Im_0_0"


class TestMalformedInput:
    """A malformed file stops at the reader with StructuralError, exit 2, and a
    message that names the file or the field."""

    @pytest.mark.parametrize("text,message", [
        (_CSV_HEADER + "\n", "no data rows"),
        (_CSV_HEADER + "\n0,1,0\n1,x,0\n", "unparsable cell"),
        (_CSV_HEADER + "\n0,1,0\n1,1\n", "data row 2 does not have 3 cells"),
        ("zeta,Re_0_0,Imag_0_0\n0,1,0\n1,1,0\n", "row-major order"),
        ("zeta,Re_0_0\n0,1\n1,1\n", "row-major order"),
        ("zeta\n0\n1\n", "row-major order"),
        ("zeta,Re_0_0,Im_0_0,Re_1_0,Im_1_0,Re_0_1,Im_0_1,Re_1_1,Im_1_1\n"
         "0,1,0,0,0,0,0,1,0\n1,1,0,0,0,0,0,1,0\n", "row-major order"),
    ], ids=["header-only", "unparsable-cell", "ragged-row", "misnamed-entry",
            "unpaired-entry", "no-entries", "column-major"])
    def test_weyl_samples_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert main(["recover", "--samples", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    def test_kernel_json_without_p(self, tmp_path, capsys):
        obj = wio.kernel_to_json(DifferenceKernel(p=1, h=0.25, samples=np.zeros((4, 1, 1))))
        del obj["p"]
        (tmp_path / "k.json").write_text(json.dumps(obj))
        assert main(["fundamental", "--kernel", str(tmp_path / "k.json"), "--d=-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "difference_kernel: missing field 'p'" in capsys.readouterr().err

    def test_grid_json_without_h(self, tmp_path):
        # no subcommand reads a grid file, so the loader is called directly
        obj = wio.grid_to_json(GridFunction(h=0.25, values=np.zeros((4, 1, 1))))
        del obj["h"]
        (tmp_path / "g.json").write_text(json.dumps(obj))
        with pytest.raises(wk.StructuralError, match="grid_function: missing field 'h'"):
            wio.load_grid_json(tmp_path / "g.json")

    @pytest.mark.parametrize("obj,message", [
        ({"kind": "lattice_samples"}, "lattice_samples: missing field 'samples'"),
        ({"kind": "lattice_samples", "samples": [[[["a", 0.0]]]]},
         "lattice_samples: field 'samples': could not convert"),
        ({"kind": "lattice_samples", "samples": [[[1.0, 0.0]], [[1.0]]]},
         "lattice_samples: field 'samples': setting an array element"),
        ({"kind": "lattice_samples", "samples": [[1.0, 0.0], [1.0, 0.0]]},
         "lattice_samples: field 'samples': expected a rank-3 array of [re, im] pairs"),
    ], ids=["missing-samples", "unparsable-entry", "ragged-entry", "wrong-rank"])
    def test_lattice_json(self, tmp_path, capsys, obj, message):
        (tmp_path / "s.json").write_text(json.dumps(obj))
        assert main(["interpolate", "--samples", str(tmp_path / "s.json"), "--z", "3j",
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
