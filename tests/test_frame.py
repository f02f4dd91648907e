"""The displaced-frame kernel against 60-digit mpmath and against the
windowed heralded state it replaces in sweeps."""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from photon_catalysis.analysis import g2, quadrature_variances
from photon_catalysis.catalysis import BeamSplitter, CatalysisConfig, pcoc_state
from photon_catalysis.core import HERALD_CUTOFF, UndefinedQuantityError
from photon_catalysis.design import Axis, SweepSpec, sweep
from photon_catalysis.frame import (_displaced_columns, _displaced_row,
                                    _weights, heralded_frame, sweep_point)
from photon_catalysis.fock import fidelity, number_distribution

mpmath.mp.dps = 60


def displacement_mp(gamma, m: int, n: int):
    """<m|D(gamma)|n> from the associated Laguerre closed form."""
    gamma = mpmath.mpc(gamma)
    y = abs(gamma) ** 2
    if m >= n:
        lead, d, low = gamma, m - n, n
    else:
        lead, d, low = -mpmath.conj(gamma), n - m, m
    return (mpmath.sqrt(mpmath.factorial(low) / mpmath.factorial(low + d))
            * lead ** d * mpmath.exp(-y / 2) * mpmath.laguerre(low, d, y))


def phi_mp(alpha, r2: float, k: int) -> list:
    """phi_j = sqrt(C(k, j)) r^j t^(k-j) <k|D(-r alpha)|k-j>."""
    r, t = mpmath.sqrt(mpmath.mpf(r2)), mpmath.sqrt(1 - mpmath.mpf(r2))
    gamma = -r * mpmath.mpc(alpha)
    return [mpmath.sqrt(mpmath.binomial(k, j)) * r ** j * t ** (k - j)
            * displacement_mp(gamma, k, k - j) for j in range(k + 1)]


class TestAgainstMpmath:
    @settings(max_examples=60, deadline=None, database=None)
    @given(modulus=st.floats(0.0, 20.0), phase=st.floats(0.0, 2 * math.pi),
           r2=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           k=st.integers(0, 60))
    @example(modulus=20.0, phase=0.0, r2=0.4, k=60)
    @example(modulus=20.0, phase=0.0, r2=0.5, k=60)
    @example(modulus=15.0, phase=0.0, r2=0.8, k=60)
    @example(modulus=1e-100, phase=0.0, r2=0.5, k=60)  # the seed underflows
    def test_core_state_and_herald_probability(self, modulus, phase, r2, k):
        """The summed binomials of the windowed path lost every digit here:
        at alpha = 20, k = 60, r2 = 0.4 it reported 1.0e9 for 4.72e-3."""
        alpha = cmath.rect(modulus, phase)
        want = phi_mp(alpha, r2, k)
        want_prob = sum(abs(c) ** 2 for c in want)
        try:
            beta, phi, prob = heralded_frame(alpha, r2, k)
        except UndefinedQuantityError:
            assert want_prob < HERALD_CUTOFF * (1 + 1e-9)
            return
        assert 0.0 <= prob <= 1.0
        assert beta == math.sqrt(1.0 - r2) * alpha
        scale = mpmath.sqrt(want_prob)
        assert max(abs(mpmath.mpc(c) - w) for c, w in zip(phi, want)) <= 1e-12 * scale
        assert abs(prob - want_prob) <= 1e-12 * want_prob

    @pytest.mark.parametrize("gamma, rows, cols, tol", [
        (0.0, 4, 3, 1e-13), (1.3 - 0.4j, 9, 4, 1e-13), (-4.5, 3, 12, 1e-13),
        (20.0j, 30, 7, 1e-13),
        # Near y = 0 the recurrence's second solution grows like log i, and
        # <480|D|480> misses by 1.5e-12.
        (1e-3, 481, 1, 2e-12)])
    def test_displaced_columns(self, gamma, rows, cols, tol):
        got = _displaced_columns(gamma, rows, cols)
        for j in range(cols):
            for m in range(rows):
                want = displacement_mp(gamma, m, j)
                assert abs(mpmath.mpc(got[j][m]) - want) <= tol

    @pytest.mark.parametrize("rows, cols", [(40, 3), (481, 1)])
    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 2.5, -4.5])
    def test_real_gamma_gives_floats(self, gamma, rows, cols):
        """A real gamma's columns hold floats, each the real part of
        complex(gamma)'s entry bit for bit, whose imaginary part is 0."""
        real = _displaced_columns(gamma, rows, cols)
        cplx = _displaced_columns(complex(gamma), rows, cols)
        assert [len(col) for col in real] == [rows] * cols
        for got, want in zip(real, cplx, strict=True):
            assert {type(x) for x in got} == {float}
            assert [x.hex() for x in got] == [z.real.hex() for z in want]
            assert not any(z.imag for z in want)

    @pytest.mark.parametrize("gamma, k", [
        (0.0, 5), (-12.6, 60), (3.0 - 2.0j, 40), (1e-3, 480), (25.0, 3),
        (1e-160, 40),
        # e^(-y/2) is subnormal from y = 1416 and 0 from y = 1490
        (-38.4, 650), (-38.7, 700), (-40.0, 1000)])
    def test_displaced_row(self, gamma, k):
        """<k|D|n> by one three-term step along row k: 7e-15 from mpmath
        at gamma = 1e-3, k = 480, where the seed is 1e-1449."""
        row = _displaced_row(gamma, k)
        for n in range(k + 1):
            assert abs(mpmath.mpc(row[n]) - displacement_mp(gamma, k, n)) <= 1e-13


TARGET = pcoc_state(CatalysisConfig(1.5, BeamSplitter(0.4), 1))[0]


def windowed(metric, alpha, r2, k):
    state, prob = pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), k))
    if metric == "success_prob":
        return prob
    if metric == "fidelity_to_target":
        return fidelity(state, TARGET)
    if metric == "g2":
        return g2(number_distribution(state))
    stats = quadrature_variances(state)
    return stats.squeeze_db_x if metric == "var_x_db" else stats.squeeze_db_p


class TestAgainstTheWindowedState:
    @settings(max_examples=80, deadline=None, database=None)
    @given(metric=st.sampled_from(["success_prob", "var_x_db", "var_p_db", "g2",
                                   "fidelity_to_target"]),
           modulus=st.floats(0.05, 2.7), phase=st.sampled_from([0.0, 0.7, math.pi]),
           r2=st.floats(0.01, 0.99), k=st.integers(0, 6))
    def test_metrics_match_pcoc_state(self, metric, modulus, phase, r2, k):
        """Inside the documented range the default window's tail is below
        1e-15, so the two paths agree to the windowed path's rounding: its
        variances subtract <x>^2 from (1 + 2<n>)/4 with <n> near |alpha|^2,
        which leaves up to 1.6e-11 dB on a coherent output (k = 0, alpha =
        2), whose variance the kernel gives as exactly 0 dB."""
        alpha = cmath.rect(modulus, phase) if phase else modulus
        value, prob = sweep_point(metric, alpha, r2, k,
                                  TARGET.amplitudes.tolist())
        assert prob == pytest.approx(windowed("success_prob", alpha, r2, k),
                                     rel=1e-13)
        assert value == pytest.approx(windowed(metric, alpha, r2, k),
                                      rel=1e-11, abs=1e-10)


class TestRefusals:
    @pytest.mark.parametrize("alpha, r2, k", [
        (1.0, 2.0, 1), (1.0, math.nan, 1), (1.0, 0.5, -1), (40.0, 0.5, 1),
        (math.inf, 0.5, 1), (0.0, 1.0, 1), (0.0, 2.0, -1), (30.0, 0.5, 2)])
    def test_points_are_refused_as_the_state_path_refuses_them(self, alpha, r2, k):
        """`design.sweep` checks every point's stage and window before the
        kernel takes any; the kernel refuses only a herald that cannot fire."""
        with pytest.raises(ValueError) as want:
            pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), int(k)))
        with pytest.raises(type(want.value)) as got:
            sweep(SweepSpec((Axis("k", k, k, 2),), "g2", alpha=alpha, r2=r2))
        assert str(got.value) == str(want.value)

    def test_g2_of_vacuum_is_undefined(self):
        """alpha = 0 heralds the vacuum at every r2 below 1."""
        assert sweep_point("success_prob", 0.0, 0.3, 2)[0] == pytest.approx(0.7 ** 2)
        with pytest.raises(UndefinedQuantityError, match="vacuum"):
            sweep_point("g2", 0.0, 0.3, 2)


class TestWeights:
    """w_j = sqrt(C(k, j)) r^j t^(k-j), the catalyst's split |0, k> ->
    sum_j w_j |j, k - j>; from k = 1030 C(k, k/2) is past the float range,
    where `heralded_frame(1.0, 0.5, 1030)` raised OverflowError."""

    @pytest.mark.parametrize("k", [1030, 2000])
    @pytest.mark.parametrize("r2", [0.5, 0.1, 0.9])
    def test_squares_sum_to_one_past_the_float_range(self, k, r2):
        r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
        w = _weights(r, t, k)
        assert len(w) == k + 1
        assert math.fsum(x * x for x in w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r2", [0.0, 1.0])
    def test_an_open_or_closed_splitter_keeps_one_weight(self, r2):
        r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
        w = _weights(r, t, 1030)
        assert w == [float(j == 1030 * r2) for j in range(1031)]

    @pytest.mark.parametrize("r2", [0.5, 0.3, 0.97])
    def test_weights_inside_the_float_range_are_unchanged(self, r2):
        """Bit for bit the weights of the plain formula, for every k <= 1029."""
        r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
        for k in [*range(40), *range(40, 1030, 41), 1028, 1029]:
            want = [math.sqrt(math.comb(k, j)) * r ** j * t ** (k - j)
                    for j in range(k + 1)]
            assert _weights(r, t, k) == want

    def test_frame_of_a_1030_photon_catalyst(self):
        beta, phi, prob = heralded_frame(1.0, 0.5, 1030)
        assert beta == math.sqrt(0.5) and len(phi) == 1031
        assert 0.0 < prob <= 1.0
