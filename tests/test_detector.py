"""Unit tests for the loss + time-multiplexed click-counting chain."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photon_catalysis.analysis import g2
from photon_catalysis import catalysis, detector
from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                        TwoModeState, bs_transform, pcoc_state)
from photon_catalysis.detector import (ClickDistribution,
                                       JointClickDistribution, LossChannel,
                                       TMDConfig, apply_loss, g2_from_clicks,
                                       joint_output_distribution,
                                       tmd_click_distribution)
from photon_catalysis.fock import (PhotonNumberDistribution, TruncationError,
                                   coherent_amplitudes, make_coherent,
                                   number_distribution)

RNG = np.random.default_rng(20230817)


def thermal(mean: float, size: int = 90) -> PhotonNumberDistribution:
    p = (mean / (1 + mean)) ** np.arange(size) / (1 + mean)
    return PhotonNumberDistribution(tuple(p / p.sum()))


def random_distribution(size: int = 12) -> PhotonNumberDistribution:
    p = RNG.random(size)
    return PhotonNumberDistribution(tuple(p / p.sum()))


class TestLoss:
    def test_unit_efficiency_is_identity(self):
        d = random_distribution()
        out = apply_loss(d, LossChannel(1.0))
        assert np.array_equal(out.probabilities, d.probabilities)

    def test_zero_efficiency_gives_vacuum(self):
        out = apply_loss(random_distribution(), LossChannel(0.0))
        assert out.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
    def test_mean_scales_linearly(self, eta):
        d = random_distribution()
        n = np.arange(d.size)
        before = float(np.sum(n * np.asarray(d.probabilities)))
        out = apply_loss(d, LossChannel(eta))
        after = float(np.sum(n * np.asarray(out.probabilities)))
        assert after == pytest.approx(eta * before, rel=1e-12)

    def test_single_photon_splits_binomially(self):
        d = PhotonNumberDistribution((0.0, 1.0))
        out = apply_loss(d, LossChannel(0.7))
        assert out.probabilities[0] == pytest.approx(0.3, abs=1e-15)
        assert out.probabilities[1] == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
    def test_true_g2_invariant(self, eta):
        state, _ = pcoc_state(CatalysisConfig(1.1, BeamSplitter(0.4), 1))
        d = number_distribution(state)
        assert g2(apply_loss(d, LossChannel(eta))) == pytest.approx(
            g2(d), abs=1e-11)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            LossChannel(1.2)


class TestClickCounting:
    def test_vacuum_never_clicks(self):
        d = PhotonNumberDistribution((1.0,))
        c = tmd_click_distribution(d, TMDConfig(1.0, 8))
        assert c.probabilities[0] == 1.0

    def test_single_photon_ideal(self):
        d = PhotonNumberDistribution((0.0, 1.0))
        c = tmd_click_distribution(d, TMDConfig(1.0, 8))
        assert c.probabilities[1] == 1.0

    def test_two_photons_collide_one_in_eight(self):
        d = PhotonNumberDistribution((0.0, 0.0, 1.0))
        c = tmd_click_distribution(d, TMDConfig(1.0, 8))
        assert c.probabilities[1] == 0.125
        assert c.probabilities[2] == 0.875

    @pytest.mark.parametrize("bins", [2, 8, 64])
    def test_click_distribution_normalized(self, bins):
        c = tmd_click_distribution(random_distribution(), TMDConfig(0.6, bins))
        assert float(np.sum(c.probabilities)) == pytest.approx(1.0, abs=1e-12)

    def test_single_bin_is_click_no_click_dichotomy(self):
        d = random_distribution()
        lossy = apply_loss(d, LossChannel(0.4))
        c = tmd_click_distribution(d, TMDConfig(0.4, 1))
        assert c.probabilities[0] == pytest.approx(lossy.probabilities[0],
                                                   abs=1e-12)
        assert c.probabilities[1] == pytest.approx(
            1.0 - lossy.probabilities[0], abs=1e-12)

    def test_clicks_capped_by_photons_and_bins(self):
        d = PhotonNumberDistribution((0.0, 0.0, 0.0, 1.0))
        c = tmd_click_distribution(d, TMDConfig(1.0, 8))
        assert np.all(c.probabilities[4:] == 0.0)


class TestClickG2:
    @pytest.mark.parametrize("eta", [1.0, 0.37, 0.1])
    def test_coherent_estimator_is_exact(self, eta):
        d = number_distribution(make_coherent(1.3))
        cfg = TMDConfig(eta, 8)
        c = tmd_click_distribution(d, cfg)
        assert g2_from_clicks(c, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_single_photon_never_coincides(self):
        d = PhotonNumberDistribution((0.0, 1.0))
        cfg = TMDConfig(0.5, 8)
        assert g2_from_clicks(tmd_click_distribution(d, cfg), cfg) == 0.0

    def test_thermal_closed_forms(self):
        """Thermal light through B bins gives geometric-series click moments:
        E[m] = B(1 - 1/(1+mu/B)) and
        E[m(m-1)] = B(B-1)(1 - 2/(1+mu/B) + 1/(1+2mu/B)),
        so the mean-1 ideal estimator is exactly 9/5 and the eta=0.1 one 81/41.
        """
        d = thermal(1.0)
        ideal = TMDConfig(1.0, 8)
        assert g2_from_clicks(tmd_click_distribution(d, ideal), ideal) \
            == pytest.approx(9 / 5, abs=1e-9)
        lossy = TMDConfig(0.1, 8)
        assert g2_from_clicks(tmd_click_distribution(d, lossy), lossy) \
            == pytest.approx(81 / 41, abs=1e-9)
        # the detection-chain default eta brings the estimate within 0.05 of
        # the true thermal value 2; the lossless estimate does not
        assert abs(81 / 41 - 2.0) < 0.05

    @pytest.mark.parametrize("r2", [0.2, 0.5, 0.8])
    def test_many_bins_approach_true_value(self, r2):
        state, _ = pcoc_state(CatalysisConfig(math.sqrt(1.11),
                                              BeamSplitter(r2), 1))
        d = number_distribution(state)
        true = g2(d)
        cfg = TMDConfig(0.1, 64)
        est = g2_from_clicks(tmd_click_distribution(d, cfg), cfg)
        assert abs(est - true) / true < 0.01

    def test_needs_two_bins(self):
        d = random_distribution()
        cfg = TMDConfig(1.0, 1)
        c = tmd_click_distribution(d, cfg)
        with pytest.raises(ValueError):
            g2_from_clicks(c, cfg)

    def test_bin_count_mismatch_rejected(self):
        c = tmd_click_distribution(random_distribution(), TMDConfig(1.0, 8))
        with pytest.raises(ValueError):
            g2_from_clicks(c, TMDConfig(1.0, 16))


class TestJoint:
    def test_no_interference_factorizes(self):
        """r2=0 leaves the product input product; clicks factorize too."""
        j = joint_output_distribution(
            CatalysisConfig(1.0, BeamSplitter(0.0), 1),
            TMDConfig(0.8), TMDConfig(0.6))
        p = j.probabilities
        marg1, marg2 = p.sum(axis=1), p.sum(axis=0)
        assert np.abs(p - np.outer(marg1, marg2)).max() < 1e-12

    def test_catalyst_arm_single_click_at_zero_reflectivity(self):
        j = joint_output_distribution(
            CatalysisConfig(1.0, BeamSplitter(0.0), 1),
            TMDConfig(1.0), TMDConfig(1.0))
        marg2 = j.probabilities.sum(axis=0)
        assert np.all(marg2[[0] + list(range(2, marg2.size))] == 0.0)
        assert marg2[1] == pytest.approx(1.0, abs=1e-12)

    def test_dead_detectors_click_nowhere(self):
        j = joint_output_distribution(
            CatalysisConfig(1.0, BeamSplitter(0.3), 1),
            TMDConfig(0.0), TMDConfig(0.0))
        assert j.probabilities[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        j = joint_output_distribution(
            CatalysisConfig(math.sqrt(1.11), BeamSplitter(0.37), 1),
            TMDConfig(0.7), TMDConfig(0.4))
        assert float(j.probabilities.sum()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha2, k", [(300, 30), (400, 100)])
    def test_large_alpha_k_table_is_normalized(self, alpha2, k):
        """At |alpha|^2 = 300, k = 30 the binomial two-mode sums cancelled
        to a table summing to 3.6e10, refused as an ArithmeticError."""
        j = joint_output_distribution(
            CatalysisConfig(math.sqrt(alpha2), BeamSplitter(0.5), k),
            TMDConfig(1.0), TMDConfig(1.0))
        assert float(j.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_window_tail_above_the_norm_tolerance_is_truncation(self):
        """The 1e-9 coherent gate passes a tail of 2.2e-10 at dim 13, which
        the 1e-10 norm check then refused as cancellation."""
        with pytest.raises(TruncationError, match="--dim 13"):
            joint_output_distribution(
                CatalysisConfig(math.sqrt(1.11), BeamSplitter(0.5), 1, 13),
                TMDConfig(1.0), TMDConfig(1.0))

    def test_caller_built_distribution_keeps_value_error(self):
        with pytest.raises(ValueError, match="sum to 2"):
            JointClickDistribution(np.eye(2))

    def test_single_photon_suppression_dip(self):
        vals = {}
        for r2 in (0.45, 0.5, 0.55):
            j = joint_output_distribution(
                CatalysisConfig(math.sqrt(1.11), BeamSplitter(r2), 1),
                TMDConfig(1.0), TMDConfig(1.0))
            vals[r2] = j.probabilities[1, 1]
        assert vals[0.5] < vals[0.45]
        assert vals[0.5] < vals[0.55]


def oracle_two_mode_output(cfg: CatalysisConfig) -> TwoModeState:
    """U|alpha>|k> through the blockwise matrix-exponential oracle."""
    side = cfg.dim + cfg.k
    joint = np.zeros((side, side), dtype=complex)
    joint[:cfg.dim, cfg.k] = coherent_amplitudes(cfg.alpha, cfg.dim)
    return bs_transform(TwoModeState(joint), cfg.bs)


class TestJointMatchesOracle:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("r2", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_closed_form_equals_oracle_built_state(self, r2, k, monkeypatch):
        cfg = CatalysisConfig(1.7, BeamSplitter(r2), k)
        det1, det2 = TMDConfig(0.6), TMDConfig(0.9, 4)
        got = joint_output_distribution(cfg, det1, det2).probabilities
        monkeypatch.setattr(catalysis, "_two_mode_amplitudes",
                            lambda cfg: oracle_two_mode_output(cfg).amplitudes)
        want = joint_output_distribution(cfg, det1, det2).probabilities
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("alpha, r2, k", [
        (math.sqrt(1.11), 0.5, 1), (2.7, 0.3, 3), (1.0, 0.5, 500),
        (1.2 + 0.5j, 0.4, 2)])
    def test_table_is_the_two_mode_output_table(self, alpha, r2, k):
        """The table squares the amplitudes in place, bit for bit the
        |A|^2 of `two_mode_output`'s state on the same machine."""
        cfg = CatalysisConfig(alpha, BeamSplitter(r2), k)
        det1, det2 = TMDConfig(0.6), TMDConfig(0.9, 4)
        q = np.abs(catalysis.two_mode_output(cfg).amplitudes) ** 2
        want = (detector._loss_click_matrix(q.shape[0] - 1, det1).T @ q
                @ detector._loss_click_matrix(q.shape[0] - 1, det2))
        got = joint_output_distribution(cfg, det1, det2).probabilities
        assert np.array_equal(got, want)


class TestJointExports:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClickDistribution(np.array([0.5, 0.5]), bins=8)
        with pytest.raises(ValueError):
            JointClickDistribution(np.zeros(3))
        with pytest.raises(ValueError):
            TMDConfig(0.5, 0)


@lru_cache(maxsize=None)
def exact_surjections(n: int, c: int) -> int:
    """Ways n distinguishable photons occupy exactly c given bins."""
    return sum((-1) ** i * math.comb(c, i) * (c - i) ** n for i in range(c + 1))


def exact_loss_click(n: int, c: int, eta: Fraction, bins: int) -> Fraction:
    """P(c clicks | n photons) by inclusion-exclusion in exact rationals:
    m of n photons survive, then exactly c of the bins are hit."""
    return sum((math.comb(n, m) * eta ** m * (1 - eta) ** (n - m)
                * math.comb(bins, c) * Fraction(exact_surjections(m, c), bins ** m)
                for m in range(c, n + 1)), Fraction(0))


ETA_DRAWS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestPhotonChain:
    """The one-photon-at-a-time chain against exact combinatorics."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n_max=st.integers(0, 40), bins=st.integers(1, 20), eta=ETA_DRAWS)
    @example(n_max=40, bins=20, eta=0.37)
    @example(n_max=40, bins=1, eta=1.0)
    @example(n_max=40, bins=20, eta=0.0)
    def test_loss_click_matrix_equals_exact_oracle(self, n_max, bins, eta):
        got = detector._loss_click_matrix(n_max, TMDConfig(eta, bins))
        exact_eta = Fraction(eta)
        for n in range(n_max + 1):
            for c in range(bins + 1):
                # the floor only forgives underflow into subnormals
                assert math.isclose(
                    got[n, c], float(exact_loss_click(n, c, exact_eta, bins)),
                    rel_tol=1e-13, abs_tol=1e-300), (n, c)

    @settings(max_examples=60, deadline=None, database=None)
    @given(n_max=st.integers(0, 40), eta=ETA_DRAWS)
    def test_loss_equals_exact_binomial(self, n_max, eta):
        p = np.zeros(n_max + 1)
        p[n_max] = 1.0
        got = apply_loss(PhotonNumberDistribution(tuple(p)), LossChannel(eta))
        e = Fraction(eta)
        for m in range(n_max + 1):
            exact = math.comb(n_max, m) * e ** m * (1 - e) ** (n_max - m)
            assert math.isclose(got.probabilities[m], float(exact),
                                rel_tol=1e-13, abs_tol=1e-300), m

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.85, 1.0])
    @pytest.mark.parametrize("bins", [1, 4, 16])
    def test_loss_and_click_counting_compose(self, eta, bins):
        """Lossy clicks equal loss first, then ideal unit-efficiency clicks."""
        for d in (random_distribution(30), thermal(3.0, 60)):
            direct = tmd_click_distribution(d, TMDConfig(eta, bins))
            composed = tmd_click_distribution(apply_loss(d, LossChannel(eta)),
                                              TMDConfig(1.0, bins))
            np.testing.assert_allclose(direct.probabilities,
                                       composed.probabilities,
                                       rtol=1e-12, atol=1e-15)

    def test_equal_configs_share_a_cache_entry(self):
        """Each `joint` r2 step builds its TMDConfigs anew; equal ones are
        one key of the matrix cache."""
        before = detector._loss_click_matrix.cache_info().hits
        first = detector._loss_click_matrix(37, TMDConfig(0.4321, 7))
        again = detector._loss_click_matrix(37, TMDConfig(0.4321, 7))
        assert again is first
        assert detector._loss_click_matrix.cache_info().hits == before + 1

    def test_large_photon_numbers_stay_finite(self):
        """bins**n overflowed a float once n * log10(bins) passed 308."""
        t = detector._loss_click_matrix(300, TMDConfig(0.9, 200))
        assert np.all(np.isfinite(t))
        np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n_max, eta, bins", [(40, 0.37, 20), (60, 1.0, 8),
                                                  (30, 0.0, 3), (25, 0.9, 1)])
    def test_list_chain_is_the_array_recurrence_bit_for_bit(self, n_max, eta,
                                                            bins):
        """The chain in lists takes the array recurrence's operations in its
        order, zeros past c = n included."""
        c = np.arange(bins + 1, dtype=float)
        stay, step = (1.0 - eta) + eta * c / bins, eta * (bins - c + 1.0) / bins
        want = np.zeros((n_max + 1, bins + 1))
        want[0, 0] = 1.0
        for n in range(n_max):
            want[n + 1] = want[n] * stay
            want[n + 1, 1:] += want[n, :-1] * step[1:]
        got = detector._loss_click_matrix(n_max, TMDConfig(eta, bins))
        assert got.tobytes() == want.tobytes()


def _table_or_error(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


class TestStandardLibraryTable:
    """`_joint_tables`, the table `catalysis joint` prints below its work
    bound, against joint_output_distribution's numpy products."""

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(alpha2=st.one_of(st.sampled_from([0.0, 12.0]), st.floats(0.0, 12.0)),
           k=st.integers(0, 6), bins=st.integers(1, 20),
           r2=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           eta1=ETA_DRAWS, eta2=ETA_DRAWS,
           dim=st.one_of(st.none(), st.integers(1, 30)))
    @example(alpha2=1.11, k=1, bins=8, r2=0.5, eta1=1.0, eta2=1.0, dim=13)
    @example(alpha2=1.11, k=1, bins=8, r2=0.5, eta1=1.0, eta2=1.0, dim=12)
    @example(alpha2=12.0, k=6, bins=20, r2=1.0, eta1=0.0, eta2=1.0, dim=None)
    @example(alpha2=0.0, k=0, bins=1, r2=0.0, eta1=1.0, eta2=1.0, dim=None)
    def test_both_kernels_give_one_table(self, alpha2, k, bins, r2, eta1, eta2,
                                         dim):
        alpha = math.sqrt(alpha2)
        cfg1, cfg2 = TMDConfig(eta1, bins), TMDConfig(eta2, bins)
        want, want_error = _table_or_error(lambda: joint_output_distribution(
            CatalysisConfig(alpha, BeamSplitter(r2), k, dim), cfg1,
            cfg2).probabilities)
        got, got_error = _table_or_error(lambda: next(detector._joint_tables(
            alpha, [r2], k, dim, cfg1, cfg2)))
        assert got_error == want_error
        if want_error:
            return
        assert len(got) == bins + 1 and {len(row) for row in got} == {bins + 1}
        assert min(map(min, got)) >= 0.0
        assert abs(math.fsum(map(math.fsum, got)) - 1.0) <= 1e-10
        assert np.abs(np.array(got) - want).max() <= 1e-12 * want.max()

    def test_scan_is_refused_before_its_first_table(self, tmp_path, capsys,
                                                    monkeypatch):
        """A scan past r2 = 1 is refused as CatalysisConfig refuses its first
        bad step, before any step's table is built."""
        from photon_catalysis.cli import main

        def built(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(detector, "_displaced_columns", built)
        out = tmp_path / "j.csv"
        assert main(["joint", "--alpha2", "1", "--r2", "0.5:1.5:3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: r2=1.5 outside [0, 1]\n"
        assert not out.exists()

    def test_scan_resolves_its_window_once(self, monkeypatch):
        """The window and its coherent tail depend on alpha, k and dim
        alone; a scan ran both checks again at every r2 step."""
        calls = []

        def counted(name):
            real = getattr(detector, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("_stage_window", "coherent_window"):
            monkeypatch.setattr(detector, name, counted(name))
        tables = list(detector._joint_tables(1.0, [0.1, 0.3, 0.5, 0.7, 0.9], 1,
                                             None, TMDConfig(1.0), TMDConfig(1.0)))
        assert len(tables) == 5
        assert sorted(calls) == ["_stage_window", "coherent_window"]


class TestJointPath:
    """`catalysis joint` runs one kernel per command, chosen by its work."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("this command must take the other kernel")

    def test_readme_joint_takes_the_standard_library_kernel(self, tmp_path,
                                                            monkeypatch):
        from photon_catalysis.cli import main

        monkeypatch.setattr(detector, "joint_output_distribution", self._refuse)
        assert main(["joint", "--alpha2", "1.11", "--r2", "0.3:0.7:41",
                     "--eta1", "0.1", "--eta2", "0.1",
                     "--out", str(tmp_path / "j.csv")]) == 0

    def test_large_table_takes_numpy(self, tmp_path, monkeypatch):
        from photon_catalysis.cli import main

        monkeypatch.setattr(detector, "_joint_tables", self._refuse)
        assert main(["joint", "--alpha2", "1", "--k", "500", "--r2", "0.5",
                     "--out", str(tmp_path / "j.csv")]) == 0
