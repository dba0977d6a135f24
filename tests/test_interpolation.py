import importlib.util
import math
import os
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weylkit as wk
from weylkit.fourier import weyl_from_amplitude
from weylkit.grids import GridFunction
from weylkit.interpolation import (
    coeff_a,
    coeff_c,
    decay_estimate,
    interpolate_series,
)

EPS = 0.1
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def oracle_series(samples, z, n_terms, epsilon=EPS, mode="general", z0=0.0,
                  truncation="fixed"):
    """The series as a multiprecision double sum (mpmath at 30 + 0.61 N
    digits, exact integer a_nq, every product and sum rounded), one z at a
    time; returns the value and the partials up to the cut."""
    z, z0 = complex(z), complex(z0)
    arr = np.asarray(samples, dtype=complex)
    scalar_output = arr.ndim == 1
    if scalar_output:
        arr = arr[:, None, None]
    p = arr.shape[1]
    if mode == "general":
        prefactor = complex(1.0)
        weight = lambda q: mp.mpc(1)
    elif mode == "weyl-dirac":
        prefactor = -(z ** 2)
        weight = lambda q: 1 / (q + mp.mpf(epsilon)) ** 2
    else:
        prefactor = -((z + z0) ** 2)
        weight = lambda q: 1 / (q + mp.mpf(epsilon) - mp.mpc(0, 1) * z0) ** 2
    with mp.workdps(int(30 + 0.61 * n_terms)):
        lam = mp.mpc(z) + mp.mpc(0, 0.5) - mp.mpc(0, 1) * mp.mpf(epsilon)
        il = mp.mpc(0, 1) * lam
        cs = [mp.mpc(1) / (mp.mpf(0.5) - il)]
        for k in range(n_terms):
            cs.append(cs[-1] * (mp.mpf(2 * k + 3) / (2 * k + 1) * (k + mp.mpf(0.5) + il)
                                / (k + mp.mpf(1.5) - il)))
        wts = [weight(q) for q in range(n_terms + 1)]
        partials = np.empty((n_terms + 1, p, p), dtype=complex)
        term_mags = []
        acc = [[mp.mpc(0) for _ in range(p)] for _ in range(p)]
        for n in range(n_terms + 1):
            term_max = 0.0
            for i in range(p):
                for j in range(p):
                    inner = mp.mpc(0)
                    for q in range(n + 1):
                        a_nq = (-1) ** q * math.comb(n + q, q) * math.comb(n, q)
                        inner += a_nq * wts[q] * mp.mpc(arr[q, i, j])
                    term = cs[n] * inner
                    acc[i][j] += term
                    term_max = max(term_max, abs(complex(term)))
                    partials[n, i, j] = complex(acc[i][j])
            term_mags.append(term_max)
    partials *= prefactor
    cut = wk.interpolation._auto_cut(term_mags) if truncation == "auto" else n_terms
    if scalar_output:
        partials = partials[:, 0, 0]
    return partials[cut], partials[: cut + 1]


def bench_inputs(seed_, small):
    """The interpolation jobs of the benchmark's explicit-system workload:
    (samples, n_terms, truncation) at z = 3i, eps = 0.1, mode weyl-dirac."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(PERFBENCH, "inputs.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = np.random.default_rng(seed_)
    prm = [gen.make_params(rng, n, p) for n, p in ((1, 1), (2, 1), (3, 2))][-1]
    n_rat, n_auto = (10, 20) if small else (30, 60)
    lattice = 1j * (np.arange(n_auto + 1) + 0.1)
    return [(gen.weyl_phi(prm).phi(lattice[:n_rat + 1]), n_rat, "fixed"),
            (gen.const_v_phi(lattice), n_auto, "auto")]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def a_value(n, q):
    sign, logmag = coeff_a(n, q)
    return sign * np.exp(logmag)


class TestCoeffA:
    def test_first_values(self):
        assert a_value(0, 0) == pytest.approx(1.0)
        assert a_value(2, 1) == pytest.approx(-6.0)
        assert a_value(2, 2) == pytest.approx(6.0)

    def test_q_beyond_n_rejected(self):
        with pytest.raises(wk.DomainError):
            coeff_a(3, 4)

    def test_recurrence_matches_factorials_to_30(self):
        for n in range(31):
            for q in range(n + 1):
                sign, logmag = coeff_a(n, q)
                exact = Fraction(math.factorial(n + q),
                                 math.factorial(q) ** 2 * math.factorial(n - q))
                got = sign * np.exp(logmag)
                assert abs(got - float((-1) ** q * exact)) <= 1e-12 * float(exact)


class TestCoeffC:
    def test_order_zero(self):
        lam = 2 + 3j
        assert coeff_c(0, lam) == pytest.approx(1.0 / (0.5 - 1j * lam))

    def test_order_one_product_form(self):
        lam = 0.4 - 0.2j
        expect = 3 * (0.5 + 1j * lam) / ((0.5 - 1j * lam) * (1.5 - 1j * lam))
        assert coeff_c(1, lam) == pytest.approx(expect)

    @pytest.mark.parametrize("n", [5, 15, 25])
    def test_recurrence_matches_product(self, n):
        lam = 2 + 3j
        num = np.prod([q - 0.5 + 1j * lam for q in range(1, n + 1)])
        den = np.prod([q + 0.5 - 1j * lam for q in range(n + 1)])
        direct = (2 * n + 1) * num / den
        assert abs(coeff_c(n, lam) - direct) <= 1e-12 * abs(direct)

    def test_pole_raises(self):
        with pytest.raises(wk.SingularityError):
            coeff_c(0, -0.5j)   # 1/2 - i lam = 0


class TestSeries:
    def test_reciprocal_function_partial_sums(self):
        # F(z) = i/z has the one-sided representation with f = identity
        samples = np.array([1.0 / (q + EPS) for q in range(61)], dtype=complex)
        _, parts = interpolate_series(samples, 3j, n_terms=60, epsilon=EPS,
                                      mode="general", return_partials=True)
        errs = np.abs(parts - 1j / 3j)
        assert errs[25] < 1e-3          # partial sums converge ...
        assert errs.min() < 1e-6
        # ... and the noise-aware truncation keeps the answer at N = 60
        val = interpolate_series(samples, 3j, n_terms=60, epsilon=EPS,
                                 mode="general", truncation="auto")
        assert abs(val - 1j / 3j) < 1e-3

    def test_free_weyl_function(self):
        samples = np.full(61, 1j, dtype=complex)
        val = interpolate_series(samples, 3j, n_terms=60, epsilon=EPS,
                                 mode="weyl-dirac")
        assert abs(val - 1j) < 1e-3

    def test_degenerate_single_term(self):
        sample = np.array([0.7 - 0.2j])
        z = 3j
        got = interpolate_series(sample, z, n_terms=0, epsilon=EPS, mode="weyl-dirac")
        expect = -z ** 2 * coeff_c(0, z + 0.5j - 1j * EPS) * EPS ** -2 * sample[0]
        assert got == pytest.approx(expect)

    def test_matrix_samples(self):
        base = np.array([[1j, 0.2], [0.2, 2j]])
        samples = np.tile(base[None], (41, 1, 1))
        val = interpolate_series(samples, 3j, n_terms=40, epsilon=EPS,
                                 mode="weyl-dirac")
        assert np.abs(val - base).max() < 1e-3

    def test_half_plane_gate(self):
        samples = np.full(61, 1j, dtype=complex)
        with pytest.raises(wk.DomainError):
            interpolate_series(samples, 0.5j, n_terms=60, epsilon=EPS,
                               mode="weyl-dirac")
        with pytest.raises(wk.DomainError):
            interpolate_series(samples, 1.0 + 0.55j, n_terms=60, epsilon=EPS,
                               mode="weyl-dirac")
        for z in (complex(np.nan, 2.0), complex(1.0, np.nan)):
            with pytest.raises(wk.DomainError, match="finite z"):
                interpolate_series(samples, z, n_terms=60, epsilon=EPS, mode="weyl-dirac")

    @pytest.mark.parametrize("z0", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_shift_must_be_finite(self, z0):
        with pytest.raises(wk.DomainError, match="shift z0 must be finite"):
            interpolate_series(np.full(21, 1j), 2j, n_terms=20, epsilon=EPS,
                               mode="shifted", z0=z0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_offset_must_be_finite(self, eps):
        # named before the half-plane check, which would blame a valid z
        with pytest.raises(wk.DomainError, match=f"offset eps must be finite, got eps = {eps}"):
            interpolate_series(np.full(21, 1j), 3j, n_terms=20, epsilon=eps,
                               mode="weyl-dirac")

    def test_sample_count_checked(self):
        with pytest.raises(wk.StructuralError):
            interpolate_series(np.full(10, 1j), 3j, n_terms=20, epsilon=EPS)

    def test_shift_consistency_at_zero(self):
        samples = np.array([1j / (0.3 + q + EPS) for q in range(41)])
        a = interpolate_series(samples, 3j, n_terms=40, epsilon=EPS,
                               mode="weyl-dirac")
        b = interpolate_series(samples, 3j, n_terms=40, epsilon=EPS,
                               mode="shifted", z0=0.0)
        assert a == b

    def test_shifted_mode_reproduces_translate(self):
        # phi == i trivially satisfies the representation; samples on the
        # shifted lattice still reproduce the constant
        z0 = 0.4 + 0.2j
        samples = np.full(61, 1j, dtype=complex)
        val = interpolate_series(samples, 3j, n_terms=60, epsilon=EPS,
                                 mode="shifted", z0=z0)
        assert abs(val - 1j) < 1e-3

    def test_consistency_with_amplitude_transform(self):
        sg = GridFunction.from_function(
            lambda x: (0.5 + 0.2 * np.exp(-2 * x * x)) * np.eye(1),
            h=1 / 128, m=int(40 * 128) + 1)
        zq = np.array([1j * (q + EPS) for q in range(81)])
        phi_q = weyl_from_amplitude(sg, zq, mode="dirac")
        direct = weyl_from_amplitude(sg, np.array([3j]), mode="dirac")[0]
        val = interpolate_series(phi_q, 3j, n_terms=80, epsilon=EPS,
                                 mode="weyl-dirac", truncation="auto")
        assert np.abs(val - direct).max() < 1e-2


FIXTURE_CASES = {
    # name: (samples, z, n_terms, mode, z0) -- the series tests above and the
    # CLI tests' inputs (the README example is "free")
    "reciprocal": (np.array([1.0 / (q + EPS) for q in range(61)], dtype=complex),
                   3j, 60, "general", 0.0),
    "free": (np.full(61, 1j, dtype=complex), 3j, 60, "weyl-dirac", 0.0),
    "single": (np.array([0.7 - 0.2j]), 3j, 0, "weyl-dirac", 0.0),
    "matrix": (np.tile(np.array([[1j, 0.2], [0.2, 2j]])[None], (41, 1, 1)),
               3j, 40, "weyl-dirac", 0.0),
    "shift-at-zero": (np.array([1j / (0.3 + q + EPS) for q in range(41)]),
                      3j, 40, "shifted", 0.0),
    "shifted": (np.full(61, 1j, dtype=complex), 3j, 60, "shifted", 0.4 + 0.2j),
    "cli-json": (np.full(41, 1j, dtype=complex), 3j, 40, "weyl-dirac", 0.0),
    "cli-general": (np.full(21, 1j, dtype=complex), 2 + 3j, 20, "general", 0.0),
}


class TestAgainstOracle:
    """The exact-integer series against the multiprecision double sum."""

    @pytest.mark.parametrize("truncation", ["fixed", "auto"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_fixtures_bit_for_bit(self, name, truncation):
        samples, z, n, mode, z0 = FIXTURE_CASES[name]
        kw = dict(n_terms=n, epsilon=EPS, mode=mode, z0=z0, truncation=truncation)
        val, parts = interpolate_series(samples, z, return_partials=True, **kw)
        ref_val, ref_parts = oracle_series(samples, z, **kw)
        # the same cut, the same partials up to it, the same value
        assert same_bits(parts, ref_parts) and same_bits(val, ref_val)
        assert same_bits(interpolate_series(samples, z, **kw), ref_val)

    def test_amplitude_transform_samples_bit_for_bit(self):
        sg = GridFunction.from_function(
            lambda x: (0.5 + 0.2 * np.exp(-2 * x * x)) * np.eye(1),
            h=1 / 128, m=int(40 * 128) + 1)
        phi_q = weyl_from_amplitude(sg, 1j * (np.arange(81) + EPS), mode="dirac")
        for truncation in ("fixed", "auto"):
            kw = dict(n_terms=80, epsilon=EPS, mode="weyl-dirac", truncation=truncation)
            val, parts = interpolate_series(phi_q, 3j, return_partials=True, **kw)
            ref_val, ref_parts = oracle_series(phi_q, 3j, **kw)
            assert same_bits(parts, ref_parts) and same_bits(val, ref_val)

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("seed_", [1, 2, 3])
    def test_benchmark_inputs_bit_for_bit(self, seed_, small):
        for samples, n, truncation in bench_inputs(seed_, small):
            kw = dict(n_terms=n, epsilon=0.1, mode="weyl-dirac", truncation=truncation)
            val, parts = interpolate_series(samples, 3j, return_partials=True, **kw)
            ref_val, ref_parts = oracle_series(samples, 3j, **kw)
            assert same_bits(parts, ref_parts) and same_bits(val, ref_val)

    @seed(20261019)
    @settings(max_examples=30, deadline=None, database=None)
    @given(mode=st.sampled_from(["general", "weyl-dirac", "shifted"]),
           p=st.integers(1, 2), n=st.integers(0, 80),
           z=st.tuples(st.floats(-4.0, 4.0), st.floats(0.61, 6.0)),
           z0=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
           kind=st.sampled_from(["rational", "noisy", "random"]),
           data=st.integers(0, 2 ** 32 - 1))
    def test_within_one_ulp_of_oracle(self, mode, p, n, z, z0, kind, data):
        rng = np.random.default_rng(data)
        q = np.arange(n + 1)
        if kind == "random":
            samples = rng.normal(size=(n + 1, p, p)) + 1j * rng.normal(size=(n + 1, p, p))
        else:
            # a rational Herglotz-type function on the lattice, plus noise
            poles = rng.normal(size=3) - 1j * rng.uniform(0.2, 2.0, size=3)
            res = rng.normal(size=(3, p, p)) + 1j * rng.normal(size=(3, p, p))
            samples = 1j * np.eye(p) + sum(
                r / (1j * (q + EPS) - pole)[:, None, None] for pole, r in zip(poles, res))
            if kind == "noisy":
                samples = samples + 1e-6 * rng.normal(size=samples.shape)
        if p == 1:
            samples = samples[:, 0, 0]
        kw = dict(n_terms=n, epsilon=EPS, mode=mode, z0=complex(*z0))
        _, parts = interpolate_series(samples, complex(*z), return_partials=True, **kw)
        _, ref = oracle_series(samples, complex(*z), **kw)
        got, want = parts.view(float), ref.view(float)
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(abs(got), abs(want))))


class TestBatchedZ:
    """An array z is a stack of one-point calls."""

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3), (0,)])
    @pytest.mark.parametrize("p", [1, 2])
    def test_array_is_per_point_scalar_calls(self, shape, p):
        rng = np.random.default_rng(7)
        zs = rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(0.7, 5.0, shape)
        samples = 1j / (np.arange(31) + EPS + 0.3)
        if p == 2:
            samples = samples[:, None, None] * np.array([[1.0, 0.2j], [-0.2j, 2.0]])
        tail = () if p == 1 else (p, p)
        for mode in ("general", "weyl-dirac", "shifted"):
            kw = dict(n_terms=30, epsilon=EPS, mode=mode, z0=0.2 + 0.1j)
            for truncation in ("fixed", "auto"):
                val = interpolate_series(samples, zs, truncation=truncation, **kw)
                ref = np.array([interpolate_series(samples, complex(z), truncation=truncation,
                                                   **kw) for z in zs.ravel()],
                               dtype=complex).reshape(shape + tail)
                assert same_bits(val, ref), (mode, truncation)
            val, parts = interpolate_series(samples, zs, return_partials=True, **kw)
            ref = [interpolate_series(samples, complex(z), return_partials=True, **kw)
                   for z in zs.ravel()]
            assert parts.shape == shape + (31,) + tail
            assert same_bits(parts, np.array([r[1] for r in ref], dtype=complex)
                             .reshape(parts.shape))

    def test_first_bad_point_named(self):
        samples = np.full(21, 1j, dtype=complex)
        zs = np.array([[3j, 2j], [1.0 + 0.55j, complex(np.nan, 2.0)]])
        with pytest.raises(wk.DomainError, match=r"Im z > 1/2 \+ eps = 0.6, got z = \(1\+0.55j\)"):
            interpolate_series(samples, zs, n_terms=20, epsilon=EPS)
        with pytest.raises(wk.DomainError, match=r"finite z .* got z = \(nan\+2j\)"):
            interpolate_series(samples, zs[::-1, ::-1], n_terms=20, epsilon=EPS)
        with pytest.raises(wk.DomainError, match=r"got z = \(inf\+3j\)"):
            interpolate_series(samples, [3j, complex(np.inf, 3.0)], n_terms=20, epsilon=EPS)

    def test_auto_partials_need_one_point(self):
        with pytest.raises(wk.StructuralError, match="scalar z"):
            interpolate_series(np.full(21, 1j), [3j, 2j], n_terms=20, truncation="auto",
                               return_partials=True)


class TestDecay:
    def test_exact_power_law(self):
        pts = [(n, float(n) ** -2.5) for n in (4, 8, 16, 32, 64)]
        rep = decay_estimate(pts)
        assert rep["exponent"] == pytest.approx(-2.5, abs=1e-6)
        assert rep["converging"]

    def test_free_weyl_series_rate(self):
        samples = np.full(61, 1j, dtype=complex)
        _, parts = interpolate_series(samples, 3j, n_terms=60, epsilon=EPS,
                                      mode="weyl-dirac", return_partials=True)
        errs = [(n, float(abs(parts[n] - 1j))) for n in range(5, 61, 5)]
        rep = decay_estimate(errs)
        assert rep["exponent"] <= -(3.0 - 0.5 - EPS) + 0.3

    def test_constant_errors_flagged(self):
        rep = decay_estimate([(n, 0.5) for n in (4, 8, 16, 32)])
        assert abs(rep["exponent"]) < 1e-12
        assert not rep["converging"]

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(wk.DomainError):
            decay_estimate([(4, 1.0), (8, 0.0), (16, 0.1), (32, 0.1)])

    def test_too_few_points_rejected(self):
        with pytest.raises(wk.DomainError):
            decay_estimate([(4, 1.0), (8, 0.5), (16, 0.2)])
