import math
from fractions import Fraction

import numpy as np
import pytest

import weylkit as wk
from weylkit.fourier import weyl_from_amplitude
from weylkit.grids import GridFunction
from weylkit.interpolation import (
    InterpCoeffs,
    coeff_a,
    coeff_c,
    decay_estimate,
    interpolate_series,
)

EPS = 0.1


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
        tab = InterpCoeffs.build(30)
        for n in range(31):
            for q in range(n + 1):
                sign, logmag = tab.a(n, q)
                exact = Fraction(math.factorial(n + q),
                                 math.factorial(q) ** 2 * math.factorial(n - q))
                got = sign * np.exp(logmag)
                assert abs(got - float((-1) ** q * exact)) <= 1e-12 * float(exact)

    def test_closed_form_matches_recurrence(self):
        tab = InterpCoeffs.build(25)
        for n in (3, 11, 25):
            for q in range(n + 1):
                s1, m1 = coeff_a(n, q)
                s2, m2 = tab.a(n, q)
                assert s1 == s2 and m1 == pytest.approx(m2, abs=1e-10)


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
