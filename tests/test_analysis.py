"""Unit tests for quadrature statistics, squeezing loci, g2 and Wigner grids."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from photon_catalysis.analysis import (DomainError, PoleError,
                                       VACUUM_VARIANCE, WignerGridSpec,
                                       _radii, _wigner_values, g2,
                                       locus_alpha_max,
                                       locus_alpha_min, quadrature_variances,
                                       variance_p_analytic,
                                       variance_x_analytic, wigner,
                                       wigner_negativity, wigner_to_csv,
                                       wigner_to_pgm)
from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                        pcoc_state,
                                        success_probability_analytic)
from photon_catalysis.fock import (FockState, PhotonNumberDistribution,
                                   UndefinedQuantityError, make_coherent,
                                   make_fock, number_distribution)

from _traced_peak import traced_peak
from _wigner_oracle import wigner_values_one_state

ALPHAS = np.linspace(0.3, 2.2, 5)
R2S = np.linspace(0.05, 0.95, 5)


def wigner_point_oracle(state: FockState, x: float, p: float,
                        pad: int = 40) -> float:
    """Displaced-parity expectation value, (2/pi) <D(b) P D(b)^+>, b = x + ip.

    Built from a dense matrix exponential of the displacement generator;
    shares nothing with the production recurrence.
    """
    dim = state.dim + pad
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    beta = x + 1j * p
    disp = expm(beta * a.conj().T - np.conj(beta) * a)
    parity = np.diag((-1.0) ** np.arange(dim))
    psi = np.zeros(dim, dtype=complex)
    psi[:state.dim] = state.amplitudes
    val = np.vdot(psi, disp @ parity @ disp.conj().T @ psi)
    return float((2.0 / math.pi) * val.real)


class TestQuadratureVariances:
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.5 + 0.4j])
    def test_coherent_is_vacuum_limited(self, alpha):
        stats = quadrature_variances(make_coherent(alpha, dim=40))
        assert stats.var_x == pytest.approx(VACUUM_VARIANCE, abs=1e-9)
        assert stats.var_p == pytest.approx(VACUUM_VARIANCE, abs=1e-9)
        assert stats.squeeze_db_x == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_fock_state_variances(self, n):
        stats = quadrature_variances(make_fock(n, 10))
        want = (2 * n + 1) / 4.0
        assert stats.var_x == pytest.approx(want, abs=1e-12)
        assert stats.var_p == pytest.approx(want, abs=1e-12)
        assert stats.product == pytest.approx(want * want, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("r2", R2S)
    def test_closed_forms_match_state(self, alpha, r2):
        state, _ = pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), 1))
        stats = quadrature_variances(state)
        assert variance_x_analytic(alpha, r2) == pytest.approx(
            stats.var_x, abs=1e-10)
        assert variance_p_analytic(alpha, r2) == pytest.approx(
            stats.var_p, abs=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("r2", R2S)
    def test_p_quadrature_never_squeezed(self, alpha, r2):
        assert variance_p_analytic(alpha, r2) >= VACUUM_VARIANCE - 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("r2", R2S)
    def test_denominator_is_scaled_success_probability(self, alpha, r2):
        """The shared denominator D equals P e^{r2 |alpha|^2}, so the closed
        forms have no pole anywhere the herald can fire."""
        u = alpha ** 2
        d = 1.0 - r2 * (1.0 + u * (2.0 - r2 * (3.0 + (1.0 - r2) * u)))
        p = success_probability_analytic(alpha, BeamSplitter(r2))
        assert d == pytest.approx(p * math.exp(r2 * u), rel=1e-10)

    def test_full_reflection_limit_is_single_photon(self):
        assert variance_x_analytic(1.3, 1.0) == pytest.approx(0.75, abs=1e-12)
        assert variance_p_analytic(1.3, 1.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("closed_form", [variance_x_analytic,
                                             variance_p_analytic])
    def test_closed_forms_refuse_their_pole(self, closed_form):
        """The denominator vanishes at alpha = 0, r2 = 1, where the
        herald cannot fire."""
        with pytest.raises(PoleError, match="alpha=0.0, r2=1.0"):
            closed_form(0.0, 1.0)


class TestLoci:
    @pytest.mark.parametrize("r2", [0.1, 0.25, 0.322185, 0.5, 0.75, 0.9])
    def test_both_branches_reach_the_floor(self, r2):
        """Every point of either branch gives variance exactly 3/16."""
        low, high = locus_alpha_min(r2)
        assert 0 < low <= high
        assert variance_x_analytic(low, r2) == pytest.approx(3 / 16, abs=1e-10)
        assert variance_x_analytic(high, r2) == pytest.approx(3 / 16, abs=1e-10)

    @pytest.mark.parametrize("r2", [0.15, 0.35, 0.6, 0.85])
    def test_numeric_minimizer_identifies_a_branch(self, r2):
        """Direct minimization over alpha lands on one of the two returned
        branches; which one depends on r2 (they swap global/local roles)."""
        low, high = locus_alpha_min(r2)
        res = minimize_scalar(lambda a: variance_x_analytic(a, r2),
                              bounds=(1e-3, 8.0), method="bounded",
                              options={"xatol": 1e-10})
        assert min(abs(res.x - low), abs(res.x - high)) < 1e-6

    def test_low_branch_crosses_unit_amplitude(self):
        low, _ = locus_alpha_min(0.3221853546260856)
        assert low == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r2", [-0.1, 0.0, 1.0, 1.3])
    def test_domain(self, r2):
        with pytest.raises(DomainError):
            locus_alpha_min(r2)

    @pytest.mark.parametrize("r2", [0.04, 0.25, 0.64])
    def test_antisqueezing_locus(self, r2):
        """|alpha|^2 r2 = 1 pins the variance to 3/4 (4.77 dB above vacuum)."""
        alpha = locus_alpha_max(r2)
        assert alpha ** 2 * r2 == pytest.approx(1.0, rel=1e-14)
        var = variance_x_analytic(alpha, r2)
        assert var == pytest.approx(0.75, abs=1e-10)
        assert 10 * math.log10(var / VACUUM_VARIANCE) == pytest.approx(
            10 * math.log10(3), abs=1e-9)


class TestG2:
    def test_poissonian_is_one(self):
        d = number_distribution(make_coherent(1.2))
        assert g2(d) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fock_antibunching(self, n):
        d = number_distribution(make_fock(n, n + 2))
        assert g2(d) == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    def test_thermal_is_two(self):
        probs = 0.5 ** (np.arange(80) + 1)
        d = PhotonNumberDistribution(tuple(probs / probs.sum()))
        assert g2(d) == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_undefined(self):
        with pytest.raises(UndefinedQuantityError):
            g2(PhotonNumberDistribution((1.0,)))


class TestWignerValues:
    def test_default_grid_hits_origin_exactly(self):
        spec = WignerGridSpec()
        assert spec.x_axis()[100] == 0.0
        assert spec.p_axis()[100] == 0.0

    def test_vacuum_gaussian(self):
        w = wigner(make_fock(0, 10))
        xs, ps = w.spec.x_axis(), w.spec.p_axis()
        want = (2 / math.pi) * np.exp(-2 * (xs[:, None] ** 2 + ps[None, :] ** 2))
        assert np.abs(w.values - want).max() < 1e-12

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.55, -0.3), (1.2, 0.85),
                                       (-1.4, 0.2), (2.1, 1.3)])
    def test_matches_displaced_parity_oracle(self, point):
        state, _ = pcoc_state(CatalysisConfig(1.35, BeamSplitter(0.77), 1))
        x, p = point
        spec = WignerGridSpec(x_min=x - 1, x_max=x + 1, p_min=p - 1,
                              p_max=p + 1, nx=2, np=2)
        w = wigner(state, spec)
        # the 2x2 cell-centre grid puts its four samples at (x +- 1/2, p +- 1/2)
        for i, xv in enumerate(spec.x_axis()):
            for j, pv in enumerate(spec.p_axis()):
                assert w.values[i, j] == pytest.approx(
                    wigner_point_oracle(state, xv, pv), abs=1e-9)

    def test_complex_amplitude_state(self):
        state = make_coherent(0.7 + 0.6j, dim=25)
        w = wigner(state, WignerGridSpec(nx=41, np=41))
        xs, ps = w.spec.x_axis(), w.spec.p_axis()
        want = (2 / math.pi) * np.exp(
            -2 * ((xs[:, None] - 0.7) ** 2 + (ps[None, :] - 0.6) ** 2))
        assert np.abs(w.values - want).max() < 1e-10

    @pytest.mark.parametrize("k,r2,alpha", [(1, 0.77, 1.35), (2, 0.5, 2.0)])
    def test_integral_and_real_symmetry(self, k, r2, alpha):
        from photon_catalysis.catalysis import pcoc_oracle
        cfg = CatalysisConfig(alpha, BeamSplitter(r2), k)
        state, _ = pcoc_state(cfg) if k == 1 else pcoc_oracle(cfg)
        w = wigner(state)
        assert w.integral() == pytest.approx(1.0, abs=1e-6)
        # real amplitudes give W(x, -p) = W(x, p); the p grid is symmetric
        assert np.abs(w.values - w.values[:, ::-1]).max() < 1e-12


def _random_state(seed: int, dim: int, complex_amps: bool) -> FockState:
    """Random normalized amplitudes, about a quarter of them exactly zero."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_amps else 0.0)
    amps[rng.random(dim) < 0.25] = 0.0
    if not amps.any():
        amps[-1] = 1.0
    return FockState(amps / np.linalg.norm(amps), 0.0)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


def _assert_near_oracle(got: np.ndarray, want: np.ndarray):
    """Within 4e-15 of the frozen forward recurrence on every cell."""
    assert np.abs(got - want).max() <= 4e-15


class TestWignerKernel:
    """The kernel reproduces the one-state recurrence to 4e-15."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40),
           complex_amps=st.booleans(), nx=st.integers(2, 14),
           n_p=st.integers(2, 14),
           bounds=st.tuples(*(st.floats(0.5, 6.0) for _ in range(4))))
    def test_matches_frozen_one_state_loop(self, seed, dim, complex_amps, nx,
                                          n_p, bounds):
        state = _random_state(seed, dim, complex_amps)
        spec = WignerGridSpec(x_min=-bounds[0], x_max=bounds[1],
                              p_min=-bounds[2], p_max=bounds[3], nx=nx, np=n_p)
        want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                       spec.p_axis())
        _assert_near_oracle(wigner(state, spec).values, want)

    def test_unnormalized_state_is_refused(self):
        unnormalized = FockState(np.array([1.0, 1.0]), 0.0)
        with pytest.raises(ValueError, match="normalized"):
            wigner(unnormalized)

    def test_work_budget_names_the_flags(self):
        """nx np dim (dim + 1) / 2 above 2e9 cell-steps is refused up front."""
        spec = WignerGridSpec(nx=3, np=3)
        with pytest.raises(ValueError, match="--alpha/--dim or --grid"):
            wigner(make_fock(0, 21082), spec)
        assert wigner(make_fock(0, 21081), spec).values.shape == (3, 3)

    def test_grid_point_budget(self):
        with pytest.raises(ValueError, match="--grid"):
            wigner(make_fock(0, 1), WignerGridSpec(nx=1001, np=1000))

    @pytest.mark.parametrize("bounds", [
        (math.nan, 5.0), (-math.inf, math.inf), (-5.0, math.nan),
        (-1e308, 1e308), (-1e200, 1e200), (-1e76, 1e76), (-2e9, 2e9)])
    def test_grid_bounds_must_be_finite(self, bounds):
        lo, hi = bounds
        with pytest.raises(ValueError, match="--grid"):
            WignerGridSpec(x_min=lo, x_max=hi, p_min=lo, p_max=hi, nx=21, np=21)
        with pytest.raises(ValueError, match="--grid"):
            WignerGridSpec(p_min=lo, p_max=hi)


_LONG_DOUBLE = np.finfo(np.longdouble).eps < 1e-18


def _wigner_extended(psi: np.ndarray, xs: np.ndarray, ps: np.ndarray):
    """The frozen forward recurrence of `wigner_values_one_state` in extended
    precision: long double where its eps is below 1e-18, otherwise mpmath at
    30 digits (slow; callers keep such grids to 5x5 cells)."""
    if _LONG_DOUBLE:
        num, sqrt, exp = np.longdouble, np.sqrt, np.exp
        pi = 4 * np.arctan(np.longdouble(1))
    else:
        num, sqrt, exp = (np.frompyfunc(f, 1, 1)
                          for f in (mpmath.mpf, mpmath.sqrt, mpmath.exp))
        pi = mpmath.pi
    with mpmath.workdps(30):
        gx, gp = np.broadcast_arrays(2 * num(xs)[:, None], 2 * num(ps)[None, :])
        y = gx * gx + gp * gp
        r = np.where(y > 0, sqrt(y), 1)
        ur, ui = np.where(y > 0, gx / r, 1), np.where(y > 0, gp / r, 0)
        cr, ci = num(psi.real), num(psi.imag)
        total, seed = 0 * y, exp(-y / 2)
        phase_r, phase_i = 1 + 0 * y, 0 * y             # u^d
        n_dim = psi.size
        for d in range(n_dim):
            if d > 0:
                seed = seed * sqrt(y / d)
                phase_r, phase_i = (phase_r * ur - phase_i * ui,
                                    phase_r * ui + phase_i * ur)
            q_prev, q_cur = 0 * y, seed
            for n in range(n_dim - d):
                # conj(c_{n+d}) c_n = a_r + i a_i
                a_r = cr[n + d] * cr[n] + ci[n + d] * ci[n]
                a_i = cr[n + d] * ci[n] - ci[n + d] * cr[n]
                weight = (-1) ** n * (1 if d == 0 else 2)
                total = total + weight * (a_r * phase_r - a_i * phase_i) * q_cur
                q_prev, q_cur = q_cur, (((2 * n + 1 + d) - y) * q_cur
                                        - sqrt(num(n * (n + d))) * q_prev) \
                    / sqrt(num((n + 1) * (n + 1 + d)))
        return (2 / pi) * total


class TestWignerAccuracy:
    """Against the frozen recurrence run in extended precision, the sums
    over distinct radii are no further off than the per-cell loop itself,
    plus 1e-15; this is what the bitwise pins used to guarantee."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40),
           complex_amps=st.booleans(), nx=st.integers(2, 14),
           n_p=st.integers(2, 14),
           bounds=st.tuples(*(st.floats(0.5, 6.0) for _ in range(4))))
    def test_no_less_accurate_than_the_forward_recurrence(
            self, seed, dim, complex_amps, nx, n_p, bounds):
        if not _LONG_DOUBLE:
            nx, n_p = min(nx, 5), min(n_p, 5)
        state = _random_state(seed, dim, complex_amps)
        spec = WignerGridSpec(x_min=-bounds[0], x_max=bounds[1],
                              p_min=-bounds[2], p_max=bounds[3], nx=nx, np=n_p)
        xs, ps = spec.x_axis(), spec.p_axis()
        exact = _wigner_extended(state.amplitudes, xs, ps)
        forward = np.abs(wigner_values_one_state(state.amplitudes, xs, ps)
                         - exact).max()
        assert np.abs(wigner(state, spec).values - exact).max() <= forward + 1e-15

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40),
           complex_amps=st.booleans())
    def test_origin_is_the_parity(self, seed, dim, complex_amps):
        """Q_{n,0}(0) = 1 and Q_{n,d}(0) = 0 for d > 0, so
        W(0, 0) = (2/pi) sum_n (-1)^n |c_n|^2."""
        state = _random_state(seed, dim, complex_amps)
        axis = np.array([-0.5, 0.0, 0.5])
        got = _wigner_values(state.amplitudes, axis, axis)[1, 1]
        probs = np.abs(state.amplitudes) ** 2
        parity = probs[::2].sum() - probs[1::2].sum()
        assert abs(got - 2 / math.pi * parity) <= 1e-15

    def test_far_cells_take_their_seeds_in_log_form(self):
        """Past |2(x + ip)|^2 = 1,417 the seed e^{-y/2} is subnormal or 0.
        `wigner --alpha 19 --r2 0.05 --grid=-21:21:21` printed W(20, 0) = 0,
        and `--grid=-19.5:19.5:41` printed 1.66e-6 at (18.07, 6.66)."""
        state, _ = pcoc_state(CatalysisConfig(19.0, BeamSplitter(0.05), 1))
        spec = WignerGridSpec(-21.0, 21.0, -21.0, 21.0, 21, 21)
        got = wigner(state, spec).values[20, 10]
        assert (spec.x_axis()[20], spec.p_axis()[10]) == (20.0, 0.0)
        want = _wigner_extended(state.amplitudes, np.array([20.0]), np.array([0.0]))
        assert float(want[0, 0]) == pytest.approx(1.076e-2, abs=1e-5)
        assert abs(got - float(want[0, 0])) <= 1e-10
        xs, ps = np.array([18.073170731707314]), np.array([6.658536585365852])
        got = _wigner_values(state.amplitudes, xs, ps)[0, 0]
        assert abs(got - float(_wigner_extended(state.amplitudes, xs, ps)[0, 0])) <= 1e-10
        # Past |2(x + ip)|^2 = 2,790 even a seed scaled by a fixed 2^990 was
        # subnormal for small d, and the diagonals were lost where the state
        # has its weight: `wigner --alpha 27 --r2 0.05 --grid=-28.5:28.5:57`
        # printed W(27, 0) = 0.2417 for 0.2766 and W(28, 0) = 8.9e-4 for
        # 2.8e-3.  Each radius now carries a scale of its own.
        state, _ = pcoc_state(CatalysisConfig(27.0, BeamSplitter(0.05), 1))
        xs, ps = np.array([27.0, 28.0]), np.array([0.0])
        got = _wigner_values(state.amplitudes, xs, ps)[:, 0]
        want = _wigner_extended(state.amplitudes, xs, ps)[:, 0].astype(float)
        assert want == pytest.approx([0.2766, 2.805e-3], rel=1e-3)
        assert np.abs(got - want).max() <= 1e-10


class TestWignerDistinctRadii:
    """Each sum runs once per distinct radius and is gathered back onto
    the cells; every cell stays within 4e-15 of the frozen loop."""

    @staticmethod
    def _square(lo: float, hi: float, n: int) -> WignerGridSpec:
        return WignerGridSpec(x_min=lo, x_max=hi, p_min=lo, p_max=hi, nx=n, np=n)

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40),
           complex_amps=st.booleans(), n=st.integers(2, 24),
           extents=st.tuples(st.floats(0.5, 6.0), st.floats(0.5, 6.0)),
           symmetric=st.booleans())
    @example(seed=1, dim=40, complex_amps=True, n=21, extents=(5.0, 5.0),
             symmetric=True)
    def test_matches_frozen_one_state_loop(self, seed, dim, complex_amps, n,
                                          extents, symmetric):
        lo, hi = -extents[0], extents[0] if symmetric else extents[1]
        spec = self._square(lo, hi, n)
        xs, ps = spec.x_axis(), spec.p_axis()
        state = _random_state(seed, dim, complex_amps)
        want = wigner_values_one_state(state.amplitudes, xs, ps)
        _assert_near_oracle(wigner(state, spec).values, want)

    @pytest.mark.parametrize("n", [21, 201])
    def test_centre_cell_at_the_origin(self, n):
        """An odd symmetric grid puts its centre cell at y = 0 exactly, where
        the phase falls back to 1."""
        spec = self._square(-5.0, 5.0, n)
        assert spec.x_axis()[n // 2] == 0.0
        state = _random_state(n, 30, True)
        want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                       spec.p_axis())
        _assert_near_oracle(wigner(state, spec).values, want)

    def test_mixed_dim_blocks(self):
        """Nine states of dim 1..40, real and complex, on one grid."""
        rng = np.random.default_rng(17)
        states = [_random_state(i, int(rng.integers(1, 41)), i % 3 == 0)
                  for i in range(9)]
        spec = self._square(-3.7, 2.9, 30)
        for state in states:
            want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                           spec.p_axis())
            _assert_near_oracle(wigner(state, spec).values, want)

    def test_rectangular_grid(self):
        spec = WignerGridSpec(x_min=-2.0, x_max=3.0, p_min=-2.0, p_max=3.0,
                              nx=11, np=12)
        state = _random_state(3, 22, True)
        want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                       spec.p_axis())
        _assert_near_oracle(wigner(state, spec).values, want)

    @pytest.mark.parametrize("bounds, nx, n_p", [
        ((-5.0, 5.0, -5.0, 5.0), 201, 201),         # the default grid
        ((-5.79, 5.79, -5.79, 5.79), 201, 201),
        ((-2.0, 3.5, -1.25, 4.0), 37, 52),          # rectangular, asymmetric
        ((-4.0, 4.0, -4.0, 4.0), 40, 40),           # even n: no origin cell
        ((-4.0, 4.0, -4.0, 4.0), 41, 41),           # odd n: y = 0 at the origin
        ((-28.5, 28.5, -28.5, 28.5), 57, 57),       # far radii, y up to 6,272
    ])
    def test_geometry_is_np_unique_bit_for_bit(self, bounds, nx, n_p):
        """The distinct radii and each cell's index into them are
        np.unique(r, return_inverse=True)'s, in dtype and in every bit."""
        spec = WignerGridSpec(*bounds, nx=nx, np=n_p)
        xs, ps = spec.x_axis(), spec.p_axis()
        _, radii, radius = _radii(xs, ps)
        gamma = (xs[:, None] + 1j * ps[None, :]).ravel()
        gamma *= 2.0
        r = np.abs(gamma)
        r *= r
        y, index = np.unique(r, return_inverse=True)
        assert radii.dtype == y.dtype and radius.dtype == index.dtype
        assert np.array_equal(_bits(radii), _bits(y))
        assert np.array_equal(radius, index)


class TestWignerHalfPlane:
    """A real state on a grid with p_min = -p_max is computed on the columns
    p >= 0 and mirrored, bit for bit the full-plane kernel's grid; any other
    state or grid takes the full plane."""

    @staticmethod
    def _kernel_columns(monkeypatch) -> list:
        """The p-axis size of every `_wigner_values` call `wigner` makes."""
        from photon_catalysis import analysis

        columns, values = [], analysis._wigner_values

        def counted(psi, xs, ps):
            columns.append(ps.size)
            return values(psi, xs, ps)

        monkeypatch.setattr(analysis, "_wigner_values", counted)
        return columns

    @settings(max_examples=80, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40),
           nx=st.integers(2, 24), n_p=st.integers(2, 24),
           x_bounds=st.tuples(st.floats(0.5, 6.0), st.floats(0.5, 6.0)),
           p_extent=st.floats(0.5, 6.0))
    @example(seed=5, dim=40, nx=21, n_p=21, x_bounds=(5.0, 5.0), p_extent=5.0)
    @example(seed=6, dim=30, nx=20, n_p=13, x_bounds=(4.0, 4.0), p_extent=4.0)
    def test_real_state_equals_the_full_plane(self, seed, dim, nx, n_p,
                                              x_bounds, p_extent):
        state = _random_state(seed, dim, False)
        spec = WignerGridSpec(-x_bounds[0], x_bounds[1], -p_extent, p_extent,
                              nx=nx, np=n_p)
        grid = wigner(state, spec)
        full = _wigner_values(state.amplitudes, spec.x_axis(), spec.p_axis())
        assert np.array_equal(_bits(grid.values), _bits(full))

    @pytest.mark.parametrize("alpha, extent, n", [(19.0, 21.0, 21),
                                                  (27.0, 28.5, 57)])
    def test_far_radii_equal_the_full_plane(self, monkeypatch, alpha, extent,
                                            n):
        """The log-form seeds and the 2^-512 rescales run on the same
        distinct radii on either half."""
        state, _ = pcoc_state(CatalysisConfig(alpha, BeamSplitter(0.05), 1))
        spec = WignerGridSpec(-extent, extent, -extent, extent, n, n)
        columns = self._kernel_columns(monkeypatch)
        got = wigner(state, spec).values
        assert columns == [n - n // 2]
        full = _wigner_values(state.amplitudes, spec.x_axis(), spec.p_axis())
        assert np.array_equal(_bits(got), _bits(full))

    @pytest.mark.parametrize("complex_amps, bounds", [
        (True, (-4.0, 4.0, -4.0, 4.0)),
        (False, (-4.0, 4.0, -3.5, 4.0)),
        (False, (-4.0, 4.0, -4.0, 3.0)),
    ])
    def test_other_states_and_grids_take_the_full_plane(
            self, monkeypatch, complex_amps, bounds):
        state = _random_state(11, 30, complex_amps)
        spec = WignerGridSpec(*bounds, nx=31, np=30)
        columns = self._kernel_columns(monkeypatch)
        got = wigner(state, spec).values
        assert columns == [30]
        want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                       spec.p_axis())
        _assert_near_oracle(got, want)

    def test_each_state_takes_its_own_plane(self, monkeypatch):
        """Among four states, the complex one alone takes the full plane."""
        states = [_random_state(i, 20, i == 2) for i in range(4)]
        spec = WignerGridSpec(nx=21, np=21)
        columns = self._kernel_columns(monkeypatch)
        for state in states:
            want = wigner_values_one_state(state.amplitudes, spec.x_axis(),
                                           spec.p_axis())
            _assert_near_oracle(wigner(state, spec).values, want)
        assert columns == [11, 11, 21, 11]

    @settings(max_examples=200, deadline=None, database=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3),
           n=st.integers(2, 500), symmetric=st.booleans())
    @example(lo=-5.0, width=10.0, n=201, symmetric=True)
    @example(lo=-5.0, width=10.0, n=200, symmetric=True)
    def test_centres(self, lo, width, n, symmetric):
        """Symmetric bounds give an exactly antisymmetric axis; any bounds
        give centres within 4 ulp of x_min + (i + 0.5) dx."""
        hi = -lo if symmetric else lo + width
        assume(hi - lo >= 1e-6)     # a subnormal step loses its digits
        spec = WignerGridSpec(lo, hi, lo, hi, nx=n, np=n)
        xs, ps = spec.x_axis(), spec.p_axis()
        if symmetric:
            assert np.array_equal(ps, -ps[::-1])
        old = lo + (np.arange(n) + 0.5) * spec.dx
        assert np.abs(xs - old).max() <= 4 * np.spacing(max(abs(lo), abs(hi)))


class TestWignerMemory:
    def test_real_state_grid_peak(self):
        """A real state's 201^2 grid runs the kernel on its 20,301 cells
        p >= 0 and mirrors them: a traced peak below 2.0 MB (2,883,350 B on
        the full plane)."""
        state, _ = pcoc_state(CatalysisConfig(2.7, BeamSplitter(0.5), 2))
        wigner(state)
        assert traced_peak(lambda: wigner(state)) <= 2_000_000

    def test_eight_grids_peak_near_one(self):
        """Each grid is computed alone, so keeping the minimum of eight
        grids holds about one grid's working set: a traced peak within 1.2x
        one grid's."""
        states = [pcoc_state(CatalysisConfig(2.7, BeamSplitter(r2), 2))[0]
                  for r2 in np.linspace(0.1, 0.9, 8)]
        wigner(states[0])
        one = traced_peak(lambda: float(wigner(states[0]).values.min()))
        eight = traced_peak(lambda: [float(wigner(state).values.min())
                                     for state in states])
        assert eight <= 1.2 * one


class TestNegativity:
    def test_vacuum_has_none(self):
        w = wigner(make_fock(0, 10))
        min_w, vol = wigner_negativity(w)
        assert min_w >= -1e-15
        assert vol == 0.0

    def test_single_photon(self):
        w = wigner(make_fock(1, 10))
        min_w, vol = wigner_negativity(w)
        assert min_w == pytest.approx(-2 / math.pi, abs=1e-9)
        # integral of |W| below zero: 2 e^{-1/2} - 1 (midpoint-rule resolution)
        assert vol == pytest.approx(2 * math.exp(-0.5) - 1, abs=5e-4)

    def test_coverage_warning_recorded(self):
        state = make_coherent(2.5, dim=40)
        spec = WignerGridSpec(x_min=-2, x_max=2, p_min=-2, p_max=2,
                              nx=21, np=21)
        w = wigner(state, spec)
        assert w.coverage_warning is not None


class TestExports:
    def test_csv_layout(self):
        w = wigner(make_fock(0, 6), WignerGridSpec(nx=3, np=4))
        text = wigner_to_csv(w)
        lines = text.rstrip("\n").split("\n")
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 3 * 4
        # row-major: x varies slowest
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(w.spec.x_axis()[0], abs=1e-7)
        assert float(first[1]) == pytest.approx(w.spec.p_axis()[0], abs=1e-7)

    def test_csv_nine_significant_digits(self):
        w = wigner(make_fock(0, 6), WignerGridSpec(nx=2, np=2))
        cell = wigner_to_csv(w).split("\n")[1].split(",")[2]
        mantissa, _ = cell.split("e")
        assert len(mantissa.lstrip("-").split(".")[1]) == 8

    def test_pgm_header_and_size(self):
        w = wigner(make_fock(1, 8), WignerGridSpec(nx=11, np=13))
        blob = wigner_to_pgm(w)
        assert blob.startswith(b"P5\n13 11\n65535\n")
        header_len = len(b"P5\n13 11\n65535\n")
        assert len(blob) == header_len + 2 * 11 * 13

    def test_pgm_endpoints(self):
        w = wigner(make_fock(1, 8), WignerGridSpec(nx=11, np=11))
        payload = wigner_to_pgm(w).split(b"65535\n", 1)[1]
        samples = np.frombuffer(payload, dtype=">u2")
        assert samples.min() == 0
        assert samples.max() == 65535

    def test_exports_deterministic(self):
        w = wigner(make_coherent(1.0), WignerGridSpec(nx=5, np=5))
        assert wigner_to_csv(w) == wigner_to_csv(w)
        assert wigner_to_pgm(w) == wigner_to_pgm(w)
