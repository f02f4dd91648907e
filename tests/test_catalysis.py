"""Unit tests for the catalysis engine against independent oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                        IteratedConfig, TwoModeState, _herald,
                                        bs_transform,
                                        catalysis_coefficient, herald,
                                        iterated_pcoc, oracle_discrepancy,
                                        pcoc_oracle, pcoc_state,
                                        success_probability_analytic,
                                        two_mode_output)
from photon_catalysis import core
from photon_catalysis.core import HERALD_CUTOFF, _row, _stage_window
from photon_catalysis.design import Axis, SweepSpec, sweep
from photon_catalysis.fock import (UndefinedQuantityError, coherent_amplitudes,
                                   fidelity)
from _mp_state import coefficient_row_mp, state_mp

RNG = np.random.default_rng(20230817)

R2_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def random_window(side: int) -> np.ndarray:
    """Random two-mode amplitudes restricted to representable blocks m+n < side."""
    amps = RNG.normal(size=(side, side)) + 1j * RNG.normal(size=(side, side))
    amps[np.add.outer(np.arange(side), np.arange(side)) >= side] = 0.0
    return amps


def coefficient_mp(n: int, k: int, r2: float) -> float:
    """50-digit reference for the alternating coefficient sum."""
    with mpmath.workdps(50):
        r2m = mpmath.mpf(r2)
        t2m = 1 - r2m
        total = mpmath.mpf(0)
        for j in range(min(n, k) + 1):
            total += (mpmath.binomial(n, j) * mpmath.binomial(k, j)
                      * (-1) ** j * t2m ** (mpmath.mpf(n + k - 2 * j) / 2)
                      * r2m ** j)
        return float(total)


class TestCoefficient:
    @pytest.mark.parametrize("r2", R2_GRID)
    @pytest.mark.parametrize("n,k", [(0, 1), (1, 1), (3, 1), (2, 2), (5, 3),
                                     (12, 6), (40, 4)])
    def test_matches_high_precision_sum(self, n, k, r2):
        got = catalysis_coefficient(n, k, BeamSplitter(r2))
        assert got == pytest.approx(coefficient_mp(n, k, r2), abs=1e-13)

    @pytest.mark.parametrize("r2", R2_GRID)
    @pytest.mark.parametrize("n", range(12))
    def test_single_catalyst_closed_form(self, n, r2):
        """k=1 reduces to t^(n-1) (t^2 - n r^2)."""
        bs = BeamSplitter(r2)
        t, t2 = bs.t, bs.t2
        want = t ** (n - 1) * (t2 - n * bs.r2) if n else t
        got = catalysis_coefficient(n, 1, bs)
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n,k", [(0, 1), (4, 2), (9, 5), (30, 30)])
    def test_bounded_by_one(self, n, k):
        # each coefficient is a unitary matrix element <n,k|U|n,k>
        for r2 in np.linspace(0.0, 1.0, 41):
            assert abs(catalysis_coefficient(n, k, BeamSplitter(r2))) <= 1 + 1e-12

    def test_hong_ou_mandel_zero_is_exact(self):
        assert catalysis_coefficient(1, 1, BeamSplitter(0.5)) == 0.0

    @pytest.mark.parametrize("n,k", [(0, 0), (3, 1), (5, 5), (7, 2)])
    def test_transparent_and_reflective_limits(self, n, k):
        assert catalysis_coefficient(n, k, BeamSplitter(0.0)) == 1.0
        want = (-1.0) ** n if n == k else 0.0
        assert catalysis_coefficient(n, k, BeamSplitter(1.0)) == want

    def test_large_arguments_stay_finite(self):
        # exact-binomial path hands over to the log-gamma path above n+j=64
        val = catalysis_coefficient(120, 6, BeamSplitter(0.4))
        assert math.isfinite(val)
        assert abs(val) <= 1 + 1e-9


class TestBeamSplitterUnitary:
    def test_two_mode_coherent_single_photon_identity(self):
        """U(|alpha> x |1>) = (r adag + t bdag) |t alpha> x |-r alpha>.

        Analytic output amplitudes c_{m,n} = r A_{m-1} sqrt(m) B_n
        + t A_m B_{n-1} sqrt(n) with A, B the displaced coherent amplitude
        chains; entirely independent of the blockwise matrix exponential.
        """
        alpha, r2, dim = 1.3, 0.37, 20
        side = dim + 2
        bs = BeamSplitter(r2)
        joint = np.zeros((side, side), dtype=complex)
        joint[:dim, 1] = coherent_amplitudes(alpha, dim)
        out = bs_transform(TwoModeState(joint), bs).amplitudes

        A = coherent_amplitudes(bs.t * alpha, side)
        B = coherent_amplitudes(-bs.r * alpha, side)
        pred = np.zeros((side, side), dtype=complex)
        for m in range(side):
            for n in range(side):
                v = 0.0
                if m >= 1:
                    v += bs.r * A[m - 1] * math.sqrt(m) * B[n]
                if n >= 1:
                    v += bs.t * A[m] * B[n - 1] * math.sqrt(n)
                pred[m, n] = v
        # compare only blocks fed entirely by the truncated input: the
        # untruncated analytic image also holds mass at m+n > dim
        err = np.abs(out - pred)
        err[np.add.outer(np.arange(side), np.arange(side)) > dim] = 0.0
        assert err.max() < 1e-13

    @pytest.mark.parametrize("r2", [0.0, 0.21, 0.5, 1.0])
    def test_norm_preserved(self, r2):
        s = TwoModeState(random_window(9))
        out = bs_transform(s, BeamSplitter(r2))
        assert out.norm_squared() == pytest.approx(s.norm_squared(), rel=1e-12)

    @pytest.mark.parametrize("r2", [0.21, 0.5])
    def test_block_mass_conserved(self, r2):
        amps = random_window(7)
        out = bs_transform(TwoModeState(amps), BeamSplitter(r2)).amplitudes
        for n_tot in range(7):
            ms = np.arange(n_tot + 1)
            before = np.sum(np.abs(amps[ms, n_tot - ms]) ** 2)
            after = np.sum(np.abs(out[ms, n_tot - ms]) ** 2)
            assert after == pytest.approx(before, rel=1e-12)

    def test_populated_overflow_block_rejected(self):
        amps = np.zeros((4, 4))
        amps[3, 3] = 1.0  # N=6 cannot be represented in a 4x4 window
        with pytest.raises(ValueError):
            bs_transform(TwoModeState(amps), BeamSplitter(0.5))

    def test_inverse_angle_restores_input(self):
        amps = random_window(6)
        bs = BeamSplitter(0.3)
        out = bs_transform(TwoModeState(amps), bs)
        # conjugating the generator angle: swap modes, transform, swap back
        back = bs_transform(TwoModeState(out.amplitudes.T), bs).amplitudes.T
        assert np.abs(back - amps).max() < 1e-10


class TestHerald:
    def test_outcome_probabilities_partition(self):
        amps = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
        s = TwoModeState(amps / np.linalg.norm(amps))
        total = sum(herald(s, 1, k)[1] for k in range(8))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_flag(self):
        amps = np.zeros((4, 4))
        amps[0, 0] = 1.0
        state, prob = herald(TwoModeState(amps), 1, 3)
        assert state is None and prob == 0.0

    def test_bad_mode_and_k(self):
        s = TwoModeState(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            herald(s, 2, 0)
        with pytest.raises(ValueError):
            herald(s, 1, 3)


class TestTwoModeOutput:
    """Closed-form U|alpha>|k> against the blockwise matrix-exponential oracle."""

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("r2", [0.0, 0.5, 1.0, 0.23, 0.81])
    def test_matches_oracle(self, r2, k):
        rng = np.random.default_rng(100 * k + round(100 * r2))
        for mod in (2.7, rng.uniform(0.0, 2.7), rng.uniform(0.0, 2.7)):
            alpha = complex(mod * np.exp(2j * np.pi * rng.uniform()))
            cfg = CatalysisConfig(alpha, BeamSplitter(r2), k)
            side = cfg.dim + k
            joint = np.zeros((side, side), dtype=complex)
            joint[:cfg.dim, k] = coherent_amplitudes(alpha, cfg.dim)
            want = bs_transform(TwoModeState(joint), cfg.bs).amplitudes
            got = two_mode_output(cfg).amplitudes
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_heralded_column_is_the_closed_form_state(self, k):
        cfg = CatalysisConfig(1.3 - 0.4j, BeamSplitter(0.37), k)
        state, prob = herald(two_mode_output(cfg), 1, k)
        want, p = pcoc_state(cfg)
        assert prob == pytest.approx(p, rel=1e-13)
        assert np.abs(state.amplitudes[:cfg.dim] - want.amplitudes).max() < 1e-14
        assert np.all(state.amplitudes[cfg.dim:] == 0.0)


def two_mode_cell_mp(alpha2: float, r2: float, k: int, dim: int,
                     m: int, l: int) -> float:
    """<m, l| U |windowed sqrt(alpha2)>|k> from the binomial expansion of U,
    in 150 digits, where its alternating sum cannot cancel."""
    n = m + l - k
    if not 0 <= n < dim:
        return 0.0
    with mpmath.workdps(150):
        a2, r2m = mpmath.mpf(alpha2), mpmath.mpf(r2)
        r, t = mpmath.sqrt(r2m), mpmath.sqrt(1 - r2m)
        total = mpmath.mpf(0)
        for j in range(k + 1):
            i = m - j
            if 0 <= i <= n:
                total += (mpmath.sqrt(mpmath.binomial(m, i) * mpmath.binomial(l, n - i)
                                      * mpmath.binomial(n, i) * mpmath.binomial(k, j))
                          * t ** (i + k - j) * (-r) ** (n - i) * r ** j)
        coh = mpmath.exp(-a2 / 2) * mpmath.sqrt(a2) ** n / mpmath.sqrt(mpmath.factorial(n))
        return float(total * coh)


class TestTwoModeFrame:
    """The displaced-frame table where the binomial two-mode sums cancelled:
    at |alpha|^2 = 300, k = 30 their table summed to 3.6e10."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(alpha2=st.floats(0.0, 1000.0), phase=st.floats(0.0, 2 * math.pi),
           k=st.integers(0, 120),
           r2=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    @example(alpha2=300.0, phase=0.0, k=30, r2=0.5)
    @example(alpha2=400.0, phase=0.0, k=100, r2=0.5)
    def test_norm_is_the_input_window_mass(self, alpha2, phase, k, r2):
        """|A|^2 = 1 - (coherent tail beyond dim): U conserves the norm of
        the windowed input, whatever alpha k."""
        alpha = cmath.rect(math.sqrt(alpha2), phase)
        try:
            cfg = CatalysisConfig(alpha, BeamSplitter(r2), k)
        except ValueError:
            assume(False)   # dim + k beyond the largest window
        amps = two_mode_output(cfg).amplitudes
        coh = coherent_amplitudes(alpha, cfg.dim)
        assert np.vdot(amps, amps).real == pytest.approx(np.vdot(coh, coh).real,
                                                         abs=1e-12)

    def test_cells_match_mpmath_at_large_alpha_k(self):
        cfg = CatalysisConfig(math.sqrt(300), BeamSplitter(0.5), 30)
        amps = two_mode_output(cfg).amplitudes
        for m, l in [(74, 256), (150, 180), (180, 150), (165, 165), (120, 200),
                     (250, 100), (165, 30), (100, 100), (10, 10)]:
            want = two_mode_cell_mp(300, 0.5, 30, cfg.dim, m, l)
            assert abs(amps[m, l] - want) <= 1e-14, (m, l)


class TestPcocState:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r2", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_oracle(self, alpha, r2, k):
        d = oracle_discrepancy(CatalysisConfig(alpha, BeamSplitter(r2), k))
        assert d["max_amp_err"] < 1e-11
        assert d["prob_err"] < 1e-11

    def test_complex_alpha_matches_oracle(self):
        d = oracle_discrepancy(
            CatalysisConfig(0.8 + 0.9j, BeamSplitter(0.4), 2))
        assert d["max_amp_err"] < 1e-11

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r2", R2_GRID)
    def test_analytic_probability(self, alpha, r2):
        bs = BeamSplitter(r2)
        _, prob = pcoc_state(CatalysisConfig(alpha, bs, 1))
        assert success_probability_analytic(alpha, bs) == pytest.approx(
            prob, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_probability_limits(self, alpha):
        assert success_probability_analytic(alpha, BeamSplitter(0.0)) == 1.0
        u = alpha ** 2
        assert success_probability_analytic(alpha, BeamSplitter(1.0)) \
            == pytest.approx(u * math.exp(-u), abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_full_reflection_returns_catalyst(self, k):
        """r2=1 swaps the modes: herald succeeds only on |k>, phase (-1)^k."""
        alpha = 1.2
        state, prob = pcoc_state(CatalysisConfig(alpha, BeamSplitter(1.0), k))
        u = alpha ** 2
        assert prob == pytest.approx(
            math.exp(-u) * u ** k / math.factorial(k), rel=1e-12)
        want = np.zeros(state.dim)
        want[k] = (-1.0) ** k
        assert np.abs(state.amplitudes - want).max() < 1e-12

    def test_zero_probability_raises(self):
        with pytest.raises(UndefinedQuantityError):
            pcoc_state(CatalysisConfig(0.0, BeamSplitter(1.0), 1))

    def test_passthrough_at_zero_reflectivity(self):
        state, prob = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.0), 1))
        assert prob == pytest.approx(1.0, abs=1e-12)
        coh = coherent_amplitudes(1.0, state.dim)
        assert np.abs(state.amplitudes - coh / np.linalg.norm(coh)).max() < 1e-12


class TestIterated:
    def test_single_stage_equals_direct(self):
        cfg = CatalysisConfig(1.0, BeamSplitter(0.37), 1)
        s1, p1 = pcoc_state(cfg)
        s2, p2 = iterated_pcoc(IteratedConfig(1.0, ((0.37, 1),)))
        assert p2 == pytest.approx(p1, abs=1e-14)
        assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-14

    def test_transparent_stage_is_identity(self):
        a, b = iterated_pcoc(IteratedConfig(1.0, ((0.37, 1),)))
        c, d = iterated_pcoc(IteratedConfig(1.0, ((0.37, 1), (0.0, 2))))
        assert d == pytest.approx(b, abs=1e-15)
        assert np.abs(a.amplitudes - c.amplitudes).max() < 1e-15

    def test_product_form_equals_sequential_heralding(self):
        """Catalysis acts diagonally on photon number, so stages compose by
        multiplying coefficient vectors; cross-check against literally
        renormalizing and re-heralding through the brute-force path."""
        alpha, stages = 1.0, ((0.5, 1), (0.3, 2))
        prod_state, prod_prob = iterated_pcoc(IteratedConfig(alpha, stages))

        dim = prod_state.dim
        state, total = None, 1.0
        for r2, k in stages:
            if state is None:
                cfg = CatalysisConfig(alpha, BeamSplitter(r2), k, dim)
                state, p = pcoc_oracle(cfg)
            else:
                coeffs = np.array([catalysis_coefficient(n, k, BeamSplitter(r2))
                                   for n in range(dim)])
                raw = state.amplitudes * coeffs
                p = float(np.vdot(raw, raw).real)
                state = type(state)(raw / math.sqrt(p))
            total *= p
        assert total == pytest.approx(prod_prob, abs=1e-14)
        assert np.abs(state.amplitudes - prod_state.amplitudes).max() < 1e-13

    def test_stage_order_is_irrelevant(self):
        a, pa = iterated_pcoc(IteratedConfig(1.0, ((0.3, 1), (0.6, 2))))
        b, pb = iterated_pcoc(IteratedConfig(1.0, ((0.6, 2), (0.3, 1))))
        assert pa == pytest.approx(pb, abs=1e-15)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-14


R2_DRAWS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
# the ends of [0, 1] and their nearest neighbours in the rows' arithmetic
R2_EDGES = st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 2.0 ** -52, 1.0]),
                     st.floats(0.0, 1.0))


class TestBatchedCoefficients:
    @settings(max_examples=60, deadline=None, database=None)
    @given(dim=st.integers(1, 200), k=st.integers(0, 60),
           r2s=st.lists(R2_EDGES, min_size=1, max_size=3))
    @example(dim=200, k=60, r2s=[0.0, 1e-12, 0.5, 1.0 - 2.0 ** -52, 1.0])
    # a step coefficient formed as t2 (h + 1 + j) + j - h lost 6.4e-13 here
    @example(dim=177, k=38, r2s=[1e-12])
    @example(dim=1, k=0, r2s=[0.5])
    @example(dim=3, k=60, r2s=[0.37])   # every n below k
    def test_rows_match_high_precision_sums(self, dim, k, r2s):
        """Every row `_row` gives, each r2 on its own, within 1e-12 of the
        exact sum, absolutely: every C_n is a matrix element of a unitary, so
        |C_n| <= 1."""
        for r2 in r2s:
            row = _row(r2, k, dim)
            assert len(row) == dim and all(type(c) is float for c in row)
            assert np.abs(np.array(row) - coefficient_row_mp(r2, k, dim)).max() <= 1e-12


class TestLargeAlphaK:
    """Windowed states where alpha k is large, against the exact sum.  The
    alternating binomial sums the rows were once taken from cancelled there
    without a word: at alpha = 10, r2 = 0.5, k = 30 the state missed by up
    to 2.9e-4, at alpha = 15, k = 30 by 0.65."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(alpha=st.floats(0.0, 20.0),
           stages=st.lists(st.tuples(R2_EDGES, st.integers(0, 60)),
                           min_size=1, max_size=2))
    @example(alpha=10.0, stages=[(0.5, 30)])
    @example(alpha=20.0, stages=[(0.5, 60)])
    @example(alpha=20.0, stages=[(1e-12, 60), (0.8, 17)])
    @example(alpha=20.0, stages=[(1.0 - 2.0 ** -52, 60)])
    @example(alpha=1.0, stages=[(0.5, 5), (1.0, 5)])  # C_5 = 0 exactly
    def test_states_match_high_precision_sums(self, alpha, stages):
        """pcoc_state of the first stage and iterated_pcoc of the cascade,
        on one window; a herald that cannot fire must be one whose exact
        probability is below the cutoff."""
        cfg = IteratedConfig(alpha, stages)
        first = CatalysisConfig(alpha, BeamSplitter(stages[0][0]), stages[0][1],
                                cfg.dim)
        for build, arg, chain in ((pcoc_state, first, stages[:1]),
                                  (iterated_pcoc, cfg, stages)):
            want, want_prob = state_mp(alpha, chain, cfg.dim)
            try:
                state, prob = build(arg)
            except UndefinedQuantityError:
                assert want_prob < 2 * HERALD_CUTOFF
                continue
            assert prob == pytest.approx(want_prob, rel=1e-12)
            assert np.abs(state.amplitudes - want).max() <= 1e-12


class TestTailMass:
    def test_one_stage_keeps_its_own_tail_a_cascade_the_inputs(self):
        """At dim 21 the coherent input leaves 4.2e-11 outside the window
        and the heralded state 1.8e-11, summed here over 200 more levels."""
        alpha, r2, k, dim = 1.7938, 0.4011, 4, 21
        weights = [(a * c) ** 2 for a, c in zip(core.coherent_amplitudes(alpha, 221),
                                                  _row(r2, k, 221))]
        state, _ = pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), k, dim))
        assert state.tail_mass == pytest.approx(
            math.fsum(weights[dim:]) / math.fsum(weights), rel=1e-4)
        cascade, _ = iterated_pcoc(IteratedConfig(alpha, ((r2, k),), dim))
        assert cascade.tail_mass == core.coherent_window(alpha, dim)[1]
        assert cascade.tail_mass > 2 * state.tail_mass

    @settings(max_examples=300, deadline=None, database=None)
    @given(alpha=st.floats(-2.7, 2.7), r2=st.floats(0.0, 1.0),
           k=st.integers(0, 6))
    @example(alpha=2.7, r2=1.0, k=6)
    def test_default_window_holds_the_output(self, alpha, r2, k):
        """The default window leaves the heralded state's own tail far below
        TAIL_GATE, so `state` without --dim is never refused for it: 20,000
        random points of this range left at most 7.5e-14."""
        try:
            state, _ = pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), k))
        except UndefinedQuantityError:   # the herald cannot fire
            return
        assert state.tail_mass <= 1e-12


class TestIteratedScan:
    def test_rows_whose_heralds_cannot_fire_are_none(self):
        """At r2 = 1 a k=1 stage passes only |1>, which a balanced k=1 stage
        cancels exactly (C_1 = t^2 - r^2 = 0)."""
        cfg = IteratedConfig(1.0, ((0.4, 1), (0.5, 1)))
        _, prob = _herald(cfg.alpha, cfg.dim, cfg.stages)
        assert prob > 0.0
        # the kernel reports the dead herald; building its state refuses it
        assert _herald(cfg.alpha, cfg.dim, ((1.0, 1), (0.5, 1)))[1] == 0.0
        with pytest.raises(UndefinedQuantityError):
            iterated_pcoc(IteratedConfig(1.0, ((1.0, 1), (0.5, 1))))


class TestConfigValidation:
    def test_reflectivity_range(self):
        with pytest.raises(ValueError):
            BeamSplitter(-0.1)
        with pytest.raises(ValueError):
            BeamSplitter(1.1)

    def test_k_requires_room(self):
        with pytest.raises(ValueError):
            CatalysisConfig(1.0, BeamSplitter(0.5), k=30, dim=10)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            CatalysisConfig(1.0, BeamSplitter(0.5), k=-1)

    @pytest.mark.parametrize("build, message", [
        (lambda: BeamSplitter(1.5), "r2=1.5 outside [0, 1]"),
        (lambda: BeamSplitter(math.nan), "r2=nan outside [0, 1]"),
        (lambda: CatalysisConfig(1.0, BeamSplitter(0.5), -1),
         "k must be non-negative"),
        (lambda: IteratedConfig(1.0, ((0.5, 1), (1.5, -1)), 10),
         "r2=1.5 outside [0, 1]"),
        (lambda: IteratedConfig(1.0, ((0.5, -1),), 10), "k must be non-negative"),
        (lambda: IteratedConfig(math.nan, ((1.5, 1),)), "r2=1.5 outside [0, 1]"),
        (lambda: _stage_window(1.0, ((0.5, 1), (1.5, -1))),
         "r2=1.5 outside [0, 1]"),
        (lambda: _stage_window(math.nan, ((0.5, -1),)), "k must be non-negative"),
        (lambda: _stage_window(1.0, ((0.5, 30),), 10), "k=30 must be below dim=10"),
        (lambda: sweep(SweepSpec((Axis("k", -1, -1, 2),), "g2", r2=1.5)),
         "r2=1.5 outside [0, 1]"),
        (lambda: sweep(SweepSpec((Axis("k", -1, -1, 2),), "g2")),
         "k must be non-negative"),
    ])
    def test_each_stage_check_words_and_orders_alike(self, build, message):
        """r2 is refused before k, and both before alpha and the window, in
        the same words, wherever a stage is checked: every check is
        `core._stage_window`."""
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == message

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="--alpha"):
            CatalysisConfig(alpha, BeamSplitter(0.5), 1)
        with pytest.raises(ValueError, match="--alpha"):
            IteratedConfig(alpha, ((0.5, 1),))

    @pytest.mark.parametrize("alpha, dim", [(30.0, None), (1e6, None), (1.0, 1030)])
    def test_window_beyond_float_binomials(self, alpha, dim):
        with pytest.raises(ValueError, match="--dim"):
            CatalysisConfig(alpha, BeamSplitter(0.5), 1, dim)
        with pytest.raises(ValueError, match="--dim"):
            IteratedConfig(alpha, ((0.5, 1),), dim)

    def test_largest_window_is_accepted(self):
        assert CatalysisConfig(1.0, BeamSplitter(0.5), 1, 1029).dim == 1029

    @pytest.mark.parametrize("stages, dim", [
        (((1.5, 1),), None),
        (((0.4, 1), (math.nan, 1)), None),
        (((0.5, -1),), 10),
        (((0.5, 1), (0.5, 30)), 10),
    ])
    def test_cascade_refuses_a_stage_as_a_single_stage_would(self, stages, dim):
        """IteratedConfig checks its stages without building a CatalysisConfig
        for each, and keeps CatalysisConfig's messages."""
        r2, k = stages[-1]
        with pytest.raises(ValueError) as want:
            CatalysisConfig(1.0, BeamSplitter(r2), k, dim)
        with pytest.raises(ValueError) as got:
            IteratedConfig(1.0, stages, dim)
        assert str(got.value) == str(want.value)


class TestOracleProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(modulus=st.floats(0.1, 1.5), phase=st.floats(0.0, 2 * math.pi),
           r2=R2_DRAWS, k=st.integers(0, 4))
    @example(modulus=0.1, phase=1.0, r2=1.0, k=4)  # herald probability 4e-10
    def test_random_complex_alpha_matches_oracle(self, modulus, phase, r2, k):
        """Compared before normalisation: the oracle's absolute rounding,
        about 4e-16, grows to 2e-11 in the normalised state when the
        herald probability is 4e-10."""
        cfg = CatalysisConfig(cmath.rect(modulus, phase), BeamSplitter(r2), k)
        results = []
        for path in (pcoc_state, pcoc_oracle):
            try:
                results.append(path(cfg))
            except UndefinedQuantityError:
                results.append(None)
        if None in results:
            assert results == [None, None]
            return
        (state, prob), (want, want_prob) = results
        assert abs(prob - want_prob) <= 1e-11
        raw = math.sqrt(prob) * state.amplitudes
        want_raw = math.sqrt(want_prob) * want.amplitudes
        assert np.abs(raw - want_raw).max() <= 1e-11


class TestHeraldMarginal:
    @settings(max_examples=200, deadline=None, database=None)
    @given(modulus=st.floats(0.0, 2.7), phase=st.floats(0.0, 2 * math.pi),
           r2=R2_DRAWS, k=st.integers(0, 5))
    # r2 = 1 passes only <1|alpha>, whose weight 1.53e-319 is below the
    # herald cutoff; the test compared that marginal with 0.0 and failed.
    @example(modulus=3.910006869403119e-160, phase=0.0, r2=1.0, k=1)
    def test_mode_b_marginal_holds_the_herald_probability(self, modulus, phase,
                                                          r2, k):
        """The photon-number marginal of the catalyst mode is a sub-probability
        (the window drops the coherent tail), and its l = k entry is the
        success probability that pcoc_state reports, or below the cutoff
        where pcoc_state refuses the herald."""
        cfg = CatalysisConfig(cmath.rect(modulus, phase), BeamSplitter(r2), k)
        marginal = (np.abs(two_mode_output(cfg).amplitudes) ** 2).sum(axis=0)
        assert marginal.sum() <= 1.0 + 1e-12
        try:
            _, prob = pcoc_state(cfg)
        except UndefinedQuantityError:
            assert marginal[k] < HERALD_CUTOFF
        else:
            assert marginal[k] == pytest.approx(prob, rel=1e-12, abs=0.0)


class TestOracleNearFullReflection:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_oracle_keeps_t_near_full_reflection(self, k):
        """At r2 = 1 - 1.1e-16 the oracle took t from cos(asin(sqrt(r2))),
        1.5e-8 for 1.05e-8, and missed the closed form by 2.6e-9."""
        cfg = CatalysisConfig(1.0, BeamSplitter(0.9999999999999999), k)
        (state, prob), (want, want_prob) = pcoc_state(cfg), pcoc_oracle(cfg)
        raw = math.sqrt(prob) * state.amplitudes
        want_raw = math.sqrt(want_prob) * want.amplitudes
        assert np.abs(raw - want_raw).max() <= 1e-11
