"""Unit tests for parameter sweeps and the reflectivity optimizer."""

import json
import math

import numpy as np
import pytest

from photon_catalysis.analysis import (VACUUM_VARIANCE, variance_x_analytic,
                                       wigner, wigner_negativity)
from photon_catalysis import design
from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                        IteratedConfig, iterated_pcoc,
                                        pcoc_oracle, pcoc_state)
from photon_catalysis.design import (Axis, DesignProblem, SweepSpec, METRICS,
                                     optimize_reflectivities,
                                     optimize_result_to_json, sweep)
from photon_catalysis.fock import UndefinedQuantityError, fidelity, make_fock


class TestAxes:
    def test_values_inclusive(self):
        vals = Axis("r2", 0.1, 0.9, 5).values()
        assert vals[0] == 0.1 and vals[-1] == 0.9
        assert len(vals) == 5

    def test_k_axis_rounds_to_integers(self):
        vals = Axis("k", 1, 3, 3).values()
        assert list(vals) == [1, 2, 3]

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            Axis("phase", 0, 1, 5)

    def test_minimum_steps(self):
        with pytest.raises(ValueError):
            Axis("r2", 0, 1, 1)


class TestSweepSpec:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec((Axis("r2", 0, 1, 3), Axis("r2", 0, 1, 3)), "g2")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            SweepSpec((Axis("r2", 0, 1, 3),), "purity")

    def test_fidelity_requires_target(self):
        with pytest.raises(ValueError):
            SweepSpec((Axis("r2", 0, 1, 3),), "fidelity_to_target")

    def test_metric_registry(self):
        assert set(METRICS) == {"var_x_db", "var_p_db", "success_prob", "g2",
                                "fidelity_to_target", "wigner_min"}


class TestSweep:
    def test_row_major_order_and_closed_form_values(self):
        spec = SweepSpec((Axis("r2", 0.2, 0.4, 2), Axis("alpha", 0.5, 1.0, 2)),
                         "var_x_db")
        rows = sweep(spec)
        assert [(r[0], r[1]) for r in rows] == [(0.2, 0.5), (0.2, 1.0),
                                                (0.4, 0.5), (0.4, 1.0)]
        for r2, alpha, value, prob in rows:
            want = 10 * math.log10(
                variance_x_analytic(alpha, r2) / VACUUM_VARIANCE)
            assert value == pytest.approx(want, abs=1e-12)
            assert 0 < prob <= 1

    def test_higher_catalyst_number_uses_state_path(self):
        spec = SweepSpec((Axis("r2", 0.3, 0.6, 2),), "g2", alpha=1.0, k=2)
        rows = sweep(spec)
        from photon_catalysis.analysis import g2
        from photon_catalysis.catalysis import pcoc_oracle
        from photon_catalysis.fock import number_distribution
        for r2, value, prob in rows:
            state, p = pcoc_oracle(CatalysisConfig(1.0, BeamSplitter(r2), 2))
            assert value == pytest.approx(g2(number_distribution(state)),
                                          abs=1e-10)
            assert prob == pytest.approx(p, abs=1e-12)

    def test_fidelity_metric(self):
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.5), 1))
        spec = SweepSpec((Axis("r2", 0.4, 0.5, 2),), "fidelity_to_target",
                         target=target)
        rows = sweep(spec)
        assert rows[1][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0][1] < 1.0

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        spec = SweepSpec((Axis("r2", 0.1, 0.9, 7),), "g2")
        monkeypatch.setenv("CATALYSIS_THREADS", "4")
        parallel = sweep(spec)
        monkeypatch.setenv("CATALYSIS_THREADS", "1")
        serial = sweep(spec)
        assert parallel == serial


class TestSweepMatchesOracle:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("metric", METRICS)
    def test_rows_equal_oracle_built_states(self, metric, k, monkeypatch):
        target, _ = pcoc_state(CatalysisConfig(1.5, BeamSplitter(0.4), 1))
        steps = 3 if metric == "wigner_min" else 9
        spec = SweepSpec((Axis("r2", 0.05, 0.95, steps),), metric, alpha=1.6,
                         k=k, target=target)
        got = sweep(spec)
        monkeypatch.setattr(design, "pcoc_state", pcoc_oracle)
        want = sweep(spec)
        for row, ref in zip(got, want):
            assert row == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestWignerMinBlocks:
    def test_alpha_by_k_sweep_equals_per_point_wigner(self):
        """Nine points in blocks of 4, 4 and 1 whose states differ in dim."""
        spec = SweepSpec((Axis("alpha", 0.5, 3.5, 3), Axis("k", 1, 3, 3)),
                         "wigner_min", r2=0.4)
        warnings = []
        rows = sweep(spec, warnings.append)
        want_rows, want_warnings = [], []
        for alpha in (0.5, 2.0, 3.5):
            for k in (1, 2, 3):
                state, prob = pcoc_state(CatalysisConfig(alpha, BeamSplitter(0.4), k))
                grid = wigner(state)
                if grid.coverage_warning:
                    want_warnings.append(grid.coverage_warning)
                want_rows.append((alpha, k, wigner_negativity(grid)[0], prob))
        assert rows == want_rows
        assert warnings == want_warnings and warnings

    def test_first_failing_point_raises(self):
        """States are built in row order before any grid, so the error is
        the first point's, as it was when each point built its own grid."""
        spec = SweepSpec((Axis("k", -1, 1, 3),), "wigner_min", alpha=0.0,
                         r2=1.0)
        with pytest.raises(ValueError):
            sweep(spec)
        with pytest.raises(UndefinedQuantityError):
            sweep(SweepSpec((Axis("k", 0, 1, 2),), "wigner_min", alpha=0.0,
                            r2=1.0))


class TestDesignProblem:
    def make_target(self, r2=0.37):
        state, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(r2), 1))
        return state

    def test_default_bounds(self):
        p = DesignProblem(self.make_target(), stages=2, ks=(1, 1), alpha=1.0)
        assert p.bounds == ((0.0, 1.0), (0.0, 1.0))

    def test_ks_length_must_match(self):
        with pytest.raises(ValueError):
            DesignProblem(self.make_target(), stages=2, ks=(1,), alpha=1.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DesignProblem(self.make_target(), stages=1, ks=(1,), alpha=1.0,
                          bounds=((0.8, 0.2),))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        """A zero or negative tol never ends the golden section; nan skips it."""
        with pytest.raises(ValueError, match="tol"):
            DesignProblem(self.make_target(), stages=1, ks=(1,), alpha=1.0,
                          tol=tol)

    @pytest.mark.parametrize("alpha_bounds", [
        (2.0, 1.0), (1.0, 1.0), (math.nan, 2.0), (0.5, math.nan),
        (-math.inf, 1.0), (0.5, math.inf)])
    def test_alpha_bounds_must_be_finite_and_increasing(self, alpha_bounds):
        """Reversed bounds made _line_max return a coarse probe unrefined."""
        with pytest.raises(ValueError, match="alpha-bounds"):
            DesignProblem(self.make_target(), stages=1, ks=(1,), alpha=1.0,
                          alpha_bounds=alpha_bounds)


class TestOptimizer:
    def test_self_inversion(self):
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.37), 1))
        res = optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(1,), alpha=1.0, tol=1e-8))
        assert res.stages[0] == pytest.approx(0.37, abs=1e-4)
        assert res.fidelity > 1 - 1e-8
        assert not res.stagnated
        assert res.evaluations > 0
        assert len(res.local_optima) == 8

    def test_matches_dense_scan(self):
        """Single-stage result can never beat (or trail) a fine grid by much."""
        target = make_fock(0, 30)
        res = optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(1,), alpha=1.0, tol=1e-8))
        grid = np.linspace(0.0, 1.0, 2001)[:-1]
        best = max(fidelity(iterated_pcoc(IteratedConfig(1.0, ((g, 1),)))[0],
                            target) for g in grid)
        assert abs(res.fidelity - best) < 1e-3

    def test_two_stage_recovery(self):
        target, _ = iterated_pcoc(IteratedConfig(1.0, ((0.3, 1), (0.6, 1))))
        res = optimize_reflectivities(
            DesignProblem(target, stages=2, ks=(1, 1), alpha=1.0, tol=1e-6))
        assert res.fidelity > 1 - 1e-9
        # stages commute, so accept either ordering of the generating pair
        assert sorted(round(s, 4) for s in res.stages) == [0.3, 0.6]

    def test_free_alpha_recovers_amplitude(self):
        target, _ = pcoc_state(CatalysisConfig(1.3, BeamSplitter(0.45), 1))
        res = optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(1,), alpha=1.0, tol=1e-7,
                          alpha_bounds=(0.5, 2.0)))
        assert res.fidelity > 1 - 1e-7
        assert res.alpha == pytest.approx(1.3, abs=1e-3)
        assert res.stages[0] == pytest.approx(0.45, abs=1e-3)

    def test_stagnation_on_degenerate_interval(self):
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.3), 1))
        res = optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(1,), alpha=1.0, tol=1e-6,
                          bounds=((0.3, 0.3 + 1e-10),)))
        assert res.stagnated


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def pointwise_scan(problem, coords, stage, xs):
    """The coarse line scan as one evaluation per probe."""
    return [design._fidelity_at(
        problem, [*coords[:stage], float(x), *coords[stage + 1:]])[0] for x in xs]


class TestBatchedLineScan:
    @pytest.mark.parametrize("ks", [(1,), (2, 1), (1, 2, 3)])
    def test_scan_equals_pointwise_evaluations(self, ks):
        target, _ = pcoc_state(CatalysisConfig(1.2, BeamSplitter(0.4), 1))
        problem = DesignProblem(target, stages=len(ks), ks=ks, alpha=1.1)
        coords = [0.3, 0.65, 0.45][:len(ks)]
        xs = np.linspace(0.0, 1.0, 33)
        for stage in range(len(ks)):
            got = design._fidelity_scan(problem, coords, stage, xs)
            assert bits(got) == bits(pointwise_scan(problem, coords, stage, xs))

    def test_probes_that_cannot_herald_score_zero(self):
        """With ks = (1, 1) and stage 2 balanced, the r2 = 1 probe of stage 1
        leaves no photon number that stage 2 passes."""
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.3), 1))
        problem = DesignProblem(target, stages=2, ks=(1, 1), alpha=1.0)
        xs = np.linspace(0.0, 1.0, 33)
        got = design._fidelity_scan(problem, [0.2, 0.5], 0, xs)
        assert got[-1] == 0.0 and min(got[:-1]) > 0.0
        assert bits(got) == bits(pointwise_scan(problem, [0.2, 0.5], 0, xs))

    @pytest.mark.parametrize("ks, alpha_bounds", [((1, 1), None),
                                                  ((2,), (0.8, 1.4))])
    def test_optimizer_result_unchanged_by_batching(self, ks, alpha_bounds,
                                                    monkeypatch):
        target, _ = pcoc_state(CatalysisConfig(1.1, BeamSplitter(0.6), 2))
        problem = DesignProblem(target, stages=len(ks), ks=ks, alpha=1.0,
                                tol=1e-6, alpha_bounds=alpha_bounds)
        batched = optimize_reflectivities(problem)
        monkeypatch.setattr(design, "_fidelity_scan", pointwise_scan)
        assert optimize_reflectivities(problem) == batched


class TestResultJson:
    def run(self):
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.4), 1))
        return optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(1,), alpha=1.0, tol=1e-6))

    def test_key_set_and_types(self):
        doc = json.loads(optimize_result_to_json(self.run()))
        assert set(doc) == {"stages", "fidelity", "success_prob",
                            "evaluations", "stagnated"}
        assert isinstance(doc["stages"], list)
        assert isinstance(doc["evaluations"], int)
        assert isinstance(doc["stagnated"], bool)

    def test_alpha_included_on_request(self):
        doc = json.loads(optimize_result_to_json(self.run(), include_alpha=True))
        assert "alpha" in doc

    def test_seventeen_digit_floats(self):
        text = optimize_result_to_json(self.run())
        mantissa = text.split('"fidelity": ')[1].split("e")[0]
        assert len(mantissa.split(".")[1]) == 16
