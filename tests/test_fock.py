"""Unit tests for the truncated Fock-space core."""

import json
import math

import mpmath
import numpy as np
import pytest

from photon_catalysis.fock import (FockState, PhotonNumberDistribution,
                                   TruncationError, coherent_amplitudes,
                                   default_dim, factorial_moments, fidelity,
                                   make_coherent, make_css, make_fock,
                                   number_distribution, state_from_json,
                                   state_to_json)

RNG = np.random.default_rng(20230817)


def random_state(dim: int) -> FockState:
    amps = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return FockState(amps).normalized()


class TestCoherent:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0, 1.0 + 0.7j, -1.3])
    def test_amplitudes_match_high_precision(self, alpha):
        """Chain recurrence agrees with e^{-|a|^2/2} a^n / sqrt(n!) at 50 digits."""
        amps = coherent_amplitudes(alpha, 20)
        with mpmath.workdps(50):
            a = mpmath.mpc(alpha)
            pref = mpmath.e ** (-abs(a) ** 2 / 2)
            for n in range(20):
                want = pref * a ** n / mpmath.sqrt(mpmath.factorial(n))
                assert abs(complex(want) - amps[n]) < 1e-15

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_norm_close_to_one_at_default_dim(self, alpha):
        s = make_coherent(alpha)
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert s.tail_mass < 1e-9

    def test_truncation_gate_raises(self):
        with pytest.raises(TruncationError):
            make_coherent(3.0, dim=5)

    def test_default_dim_grows_with_energy(self):
        dims = [default_dim(a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert dims == sorted(dims)
        assert dims[0] >= 25


class TestFock:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_one_hot(self, k):
        s = make_fock(k, 8)
        assert s.amplitudes[k] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            make_fock(8, 8)


class TestCss:
    """Coherent-state-superposition targets, both normalization conventions."""

    def test_literal_beta_zero_is_even_cat(self):
        s = make_css(1.2, 0.0, dim=30)
        assert np.all(s.amplitudes[1::2] == 0)
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_conventions_coincide_at_beta_zero(self):
        lit = make_css(1.2, 0.0, dim=30)
        gau = make_css(1.2, 0.0, dim=30, displaced_cat=True)
        assert fidelity(lit, gau) == pytest.approx(1.0, abs=1e-12)

    def test_displaced_cat_is_two_coherent_sum(self):
        """Gaussian-prefactor convention equals |b+a> + |b-a> renormalized."""
        alpha, beta = 0.9, 0.8
        s = make_css(alpha, beta, dim=40, displaced_cat=True)
        direct = (coherent_amplitudes(beta + alpha, 40)
                  + coherent_amplitudes(beta - alpha, 40))
        direct = direct / np.linalg.norm(direct)
        assert np.abs(s.amplitudes - direct).max() < 1e-12

    def test_conventions_differ_at_nonzero_beta(self):
        lit = make_css(0.9, 0.8, dim=40)
        gau = make_css(0.9, 0.8, dim=40, displaced_cat=True)
        assert fidelity(lit, gau) < 0.999

    def test_zero_state_rejected(self):
        # beta=0 with odd-only content cannot happen, but alpha=beta=0 gives |0>
        s = make_css(0.0, 0.0, dim=10)
        assert s.amplitudes[0] == pytest.approx(1.0)


class TestInnerProductFidelity:
    def test_dim_mismatch_zero_pads(self):
        a = make_fock(2, 4)
        b = make_fock(2, 9)
        assert fidelity(a, b) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [3, 8, 21])
    def test_fidelity_range_and_self(self, dim):
        a, b = random_state(dim), random_state(dim)
        assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(make_fock(0, 5), make_fock(3, 5)) == 0.0


class TestDistribution:
    def test_number_distribution_normalized(self):
        d = number_distribution(random_state(12))
        assert sum(d.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_direct_sums(self):
        d = number_distribution(random_state(12))
        p = np.asarray(d.probabilities)
        n = np.arange(p.size)
        m1, m2 = factorial_moments(d.probabilities)
        assert m1 == pytest.approx(float(np.sum(n * p)))
        assert m2 == pytest.approx(float(np.sum(n * (n - 1) * p)))

    def test_coherent_moments_are_poissonian(self):
        d = number_distribution(make_coherent(1.3))
        u = 1.3 ** 2
        m1, m2 = factorial_moments(d.probabilities)
        assert m1 == pytest.approx(u, abs=1e-10)
        assert m2 == pytest.approx(u * u, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonNumberDistribution((0.6, 0.6))
        with pytest.raises(ValueError):
            PhotonNumberDistribution((-0.1, 1.1))


class TestJson:
    def test_round_trip_is_exact(self):
        """17 significant digits uniquely identify a double; round trip is lossless."""
        s = random_state(9)
        back = state_from_json(state_to_json(s))
        assert np.array_equal(back.amplitudes, s.amplitudes)
        assert back.tail_mass == s.tail_mass

    @pytest.mark.parametrize("text, problem", [
        ("{", "not JSON"),
        ('"state"', "expected a JSON object"),
        ('{"dim": 0, "amplitudes": []}', "dim must be an integer >= 1"),
        ('{"dim": 1.0, "amplitudes": [[1, 0]]}', "dim must be an integer >= 1"),
        ('{"dim": 1}', "a list of dim = 1 [re, im] pairs"),
        ('{"dim": 1, "amplitudes": [[1, 0, 0]]}', "a list of dim = 1 [re, im] pairs"),
        ('{"dim": 1, "amplitudes": [[true, 0]]}', "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [[1, -Infinity]]}', "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [[1, 0]], "tail_mass": NaN}',
         "must be finite numbers"),
    ])
    def test_malformed_documents_say_what_is_wrong(self, text, problem):
        with pytest.raises(ValueError, match=problem.replace("[", r"\[")):
            state_from_json(text)

    def test_tail_mass_defaults_to_zero(self):
        s = state_from_json('{"dim": 2, "amplitudes": [[0.6, 0], [0, 0.8]]}')
        assert s.tail_mass == 0.0
        assert np.array_equal(s.amplitudes, [0.6, 0.8j])

    def test_schema(self):
        doc = json.loads(state_to_json(make_fock(1, 3)))
        assert set(doc) == {"dim", "amplitudes", "tail_mass"}
        assert doc["dim"] == 3
        assert doc["amplitudes"][1] == [1.0, 0.0]

    def test_float_format_17_significant_digits(self):
        text = state_to_json(make_coherent(1.0, dim=25))
        # every float rendered in scientific notation with 16 fractional digits
        assert "e-01" in text or "e+00" in text
        first = text.split("[[")[1].split(",")[0]
        mantissa = first.split("e")[0]
        assert len(mantissa.split(".")[1]) == 16
