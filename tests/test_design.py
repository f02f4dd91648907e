"""Unit tests for parameter sweeps and the reflectivity optimizer."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photon_catalysis.analysis import (VACUUM_VARIANCE, g2,
                                       quadrature_variances,
                                       variance_x_analytic, wigner,
                                       wigner_negativity)
from photon_catalysis import catalysis, core, design, frame
from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                        IteratedConfig, iterated_pcoc,
                                        pcoc_oracle, pcoc_state)
from photon_catalysis.design import (Axis, DesignProblem, SweepSpec, METRICS,
                                     optimize_reflectivities,
                                     optimize_result_to_json, sweep)
from photon_catalysis.fock import (UndefinedQuantityError, fidelity,
                                   make_fock, number_distribution)
from _mp_state import state_mp
from _traced_peak import traced_peak


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

    @settings(max_examples=400, deadline=None, database=None)
    @given(name=st.sampled_from(["r2", "alpha", "k"]), lo=st.floats(),
           hi=st.floats(), steps=st.integers(2, 150))
    @example(name="alpha", lo=0.0, hi=5e-324, steps=3)  # the step rounds to 0
    @example(name="k", lo=-2.5, hi=2.5, steps=11)       # halves round to even
    @example(name="r2", lo=0.0, hi=math.inf, steps=3)
    @example(name="k", lo=math.nan, hi=-math.nan, steps=27)  # NaN signs differ
    @example(name="alpha", lo=-1e308, hi=1e308, steps=3)   # HI - LO overflows
    def test_values_are_numpy_linspace_bit_for_bit(self, name, lo, hi, steps):
        """The sweep loads no numpy, so its axes lay out np.linspace (and
        np.round on k) themselves, as Python floats, from the one scan grid
        `core.scan`, which every scan of the package takes.  An axis whose
        ends or width are not finite is refused: which NaN sign and payload
        an operation on two NaNs keeps differs between the interpreter and
        numpy."""
        if not math.isfinite(hi - lo):
            with pytest.raises(ValueError, match=f"--axis {name} .* finite"):
                Axis(name, lo, hi, steps)
            return
        with np.errstate(all="ignore"):
            grid = np.linspace(lo, hi, steps)
            want = np.round(grid) if name == "k" else grid
        scan = core.scan(lo, hi, steps)
        got = Axis(name, lo, hi, steps).values()
        assert all(type(v) is float for v in scan + got)
        assert bits(scan) == bits(grid)
        assert bits(got) == bits(want)


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

    @pytest.mark.parametrize("metric, digest", [
        ("success_prob",
         "df3ca43f71755d55db74c971707ec48e56aad8d7e6ad4d4263b437cf0490fd1d"),
        ("var_x_db",
         "ecd1a6ac377a761ee38b4c878b7b65299444d6644c9713a68d307c498e968b33"),
        ("fidelity_to_target",
         "675094fd7be0ad3127e012c22ec742a421678485701408624313299407f05342"),
    ])
    def test_each_point_resolves_its_window_at_most_twice(self, monkeypatch,
                                                          metric, digest):
        """Now at most once: the kernel checks the point's default window the
        way CatalysisConfig does and builds no state.  The windowed path
        checked it twice, for the point's CatalysisConfig and for the cascade
        pcoc_state ran.  The rows are hashed.  The fidelity rows were
        re-hashed when the coefficient rows moved from the binomial sum to
        the recurrence: the target's last bits moved, and with them 51 of the
        99 fidelities, each by at most 1.9e-16.  Re-hashed again when the
        heralded states moved to the standard-library kernel: 59 of the 99
        fidelities, each by at most 1.9e-16."""
        target, _ = pcoc_state(CatalysisConfig(1.5, BeamSplitter(0.4), 1))
        spec = SweepSpec((Axis("r2", 0.01, 0.99, 99),), metric, alpha=2.7, k=3,
                         target=target)
        calls = []
        window_dim = core._window_dim

        def counted(*args):
            calls.append(args)
            return window_dim(*args)

        monkeypatch.setattr(core, "_window_dim", counted)
        rows = sweep(spec)
        assert len(rows) == 99
        assert len(calls) <= 99
        assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == digest

    def test_wigner_min_point_resolves_its_window_once(self, monkeypatch):
        """Each point's CatalysisConfig is built once, for the Wigner budget
        and for the state; the budget, the sweep and pcoc_state's cascade each
        built one (21 window checks here).  The rows are bitwise as before.
        Re-hashed when the coefficient rows moved from the binomial sum to the
        recurrence: 10 of the 14 wigner_min and success_prob values moved,
        each by at most 1.1e-16.  Re-hashed again when the heralded states
        moved to the standard-library kernel: 9 of the 14 (5 wigner_min, 4
        success_prob), each by at most 1.1e-16; and again when the cell
        centres became exactly symmetric and real states moved to the half
        plane p >= 0: 6 of the 14 (all wigner_min), each by at most 2.8e-16."""
        spec = SweepSpec((Axis("alpha", 0.5, 2.5, 7),), "wigner_min", k=2)
        calls = []
        window_dim = core._window_dim

        def counted(*args):
            calls.append(args)
            return window_dim(*args)

        monkeypatch.setattr(core, "_window_dim", counted)
        rows = sweep(spec)
        assert len(calls) == 7
        assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == \
            "0dc7e8e10807b331b0a6bb2c78ac7145b371a800463c591782ee574c3773b869"

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        spec = SweepSpec((Axis("r2", 0.1, 0.9, 7),), "g2")
        monkeypatch.setenv("CATALYSIS_THREADS", "4")
        parallel = sweep(spec)
        monkeypatch.setenv("CATALYSIS_THREADS", "1")
        serial = sweep(spec)
        assert parallel == serial


def oracle_metric(metric, alpha, r2, k, target) -> tuple[float, float]:
    """(metric, success_prob) of the brute-force oracle's state at one point."""
    state, prob = pcoc_oracle(CatalysisConfig(alpha, BeamSplitter(r2), k))
    if metric == "success_prob":
        return prob, prob
    if metric == "fidelity_to_target":
        return fidelity(state, target), prob
    if metric == "wigner_min":
        return wigner_negativity(wigner(state))[0], prob
    if metric == "g2":
        return g2(number_distribution(state)), prob
    stats = quadrature_variances(state)
    return (stats.squeeze_db_x if metric == "var_x_db" else stats.squeeze_db_p), prob


class TestSweepMatchesOracle:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("metric", METRICS)
    def test_rows_equal_oracle_built_states(self, metric, k):
        """Every row against the metric of the state that the two-mode
        unitary builds and heralds, which shares no code with the kernel."""
        target, _ = pcoc_state(CatalysisConfig(1.5, BeamSplitter(0.4), 1))
        steps = 3 if metric == "wigner_min" else 9
        axis = Axis("r2", 0.05, 0.95, steps)
        spec = SweepSpec((axis,), metric, alpha=1.6, k=k, target=target)
        got = sweep(spec)
        assert len(got) == steps
        for row, r2 in zip(got, axis.values()):
            want = (r2, *oracle_metric(metric, 1.6, r2, k, target))
            assert row == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestWignerMinBlocks:
    def test_alpha_by_k_sweep_equals_per_point_wigner(self):
        """Nine points whose states differ in dim, each the minimum of its
        own `wigner` grid."""
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

    def test_sweep_peaks_at_one_grid(self):
        """Each point's grid is dropped before the next is computed, so an
        8-point sweep's traced peak is one grid's plus at most 64 KiB (3.21
        MB against 2.88 MB when zip's result tuple held each grid while the
        next was computed)."""
        spec = SweepSpec((Axis("r2", 0.1, 0.9, 8),), "wigner_min", alpha=2.7,
                         k=2)
        state, _ = pcoc_state(CatalysisConfig(2.7, BeamSplitter(0.1), 2))
        sweep(spec)
        one = traced_peak(lambda: wigner(state))
        eight = traced_peak(lambda: sweep(spec))
        assert eight <= one + 64 * 1024

    def test_first_failing_point_raises(self):
        """Points are taken in row order, each state built before its grid,
        so the error is the first failing point's."""
        spec = SweepSpec((Axis("k", -1, 1, 3),), "wigner_min", alpha=0.0,
                         r2=1.0)
        with pytest.raises(ValueError):
            sweep(spec)
        with pytest.raises(UndefinedQuantityError):
            sweep(SweepSpec((Axis("k", 0, 1, 2),), "wigner_min", alpha=0.0,
                            r2=1.0))


class TestScanBudget:
    def test_points_boundary(self):
        SweepSpec((Axis("r2", 0, 1, 100), Axis("alpha", 0, 1, 100)), "g2")
        with pytest.raises(ValueError, match="--axis scan of 10100 points"):
            SweepSpec((Axis("r2", 0, 1, 101), Axis("alpha", 0, 1, 100)), "g2")

    def test_wigner_work_boundary(self):
        """dim 25 costs 201^2 * 25 * 26 / 2 = 1.31e7 cell-steps a point, so
        761 points fit 1e10 and 762 do not."""
        design._check_wigner_sweep([25] * 761)
        with pytest.raises(ValueError, match="--axis"):
            design._check_wigner_sweep([25] * 762)

    def test_refused_point_is_raised_before_any_budget_or_state(self,
                                                                monkeypatch):
        """10^4 points at dim 25 are over the budget; the first point past
        r2 = 1 is refused before it, and before any state is built."""
        def built(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(catalysis, "pcoc_state", built)
        spec = SweepSpec((Axis("r2", 0.5, 2.0, 10 ** 4),), "wigner_min",
                         alpha=1.0)
        with pytest.raises(ValueError, match=r"r2=1\.000\d+ outside"):
            sweep(spec)

    def test_fidelity_work_boundary(self, monkeypatch):
        """A 1000-level target costs 1000 * (1 + 4) steps a point at k = 1,
        so 2000 points fit 10^7 and 2001 do not; the budget is checked
        before any point is computed."""
        monkeypatch.setattr(frame, "sweep_point", lambda *args: (0.0, 1.0))
        target = [1.0] + [0.0] * 999
        for steps, fits in ((2000, True), (2001, False)):
            spec = SweepSpec((Axis("r2", 0.1, 0.9, steps),),
                             "fidelity_to_target", k=1, target=target)
            if fits:
                assert len(sweep(spec)) == steps
            else:
                with pytest.raises(ValueError, match="2001 points needs "
                                   "1.00e\\+07 .*--axis"):
                    sweep(spec)

    def test_fidelity_work_counts_each_point_k(self):
        """A k axis is costed point by point; a negative k is refused as a
        point, before the budget."""
        points = [(1.0, 0.5, k) for k in Axis("k", 0, 6, 7).values()]
        design._check_fidelity_sweep(points, 10 ** 7 // 49)
        with pytest.raises(ValueError, match="--axis"):
            design._check_fidelity_sweep(points, 10 ** 7 // 49 + 1)
        spec = SweepSpec((Axis("k", -1, 6, 8),), "fidelity_to_target",
                         target=[1.0] + [0.0] * (10 ** 7 // 49))
        with pytest.raises(ValueError, match="k must be non-negative"):
            sweep(spec)


class TestDesignProblem:
    def make_target(self, r2=0.37):
        state, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(r2), 1))
        return state

    def test_ks_length_must_match(self):
        with pytest.raises(ValueError):
            DesignProblem(self.make_target(), stages=2, ks=(1,), alpha=1.0)

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

    def test_stagnation_on_a_flat_landscape(self):
        """A k = 0 stage on the vacuum heralds the vacuum at every r2."""
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.3), 1))
        res = optimize_reflectivities(
            DesignProblem(target, stages=1, ks=(0,), alpha=0.0, tol=1e-6))
        assert res.stagnated


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def point_score(problem, coords):
    """(fidelity, success probability) at one point, as a line along
    coordinate 0 scores it."""
    return design._line(problem, coords, 0)(coords[0])


def pointwise_scan(problem, coords, stage, xs):
    """The coarse line scan as one evaluation per probe."""
    return [point_score(
        problem, [*coords[:stage], float(x), *coords[stage + 1:]])[0] for x in xs]


def line_scan(problem, coords, stage, xs):
    """The fidelities of one line search's probes at xs."""
    score = design._line(problem, coords, stage)
    return [score(float(x))[0] for x in xs]


class TestBatchedLineScan:
    """A line search takes the window, the target weights and the stages
    before the probed one once; its probes must stay bitwise the points."""

    @pytest.mark.parametrize("ks", [(1,), (2, 1), (1, 2, 3)])
    def test_scan_equals_pointwise_evaluations(self, ks):
        target, _ = pcoc_state(CatalysisConfig(1.2, BeamSplitter(0.4), 1))
        problem = DesignProblem(target, stages=len(ks), ks=ks, alpha=1.1)
        coords = [0.3, 0.65, 0.45][:len(ks)]
        xs = np.linspace(0.0, 1.0, 33)
        for stage in range(len(ks)):
            got = line_scan(problem, coords, stage, xs)
            assert bits(got) == bits(pointwise_scan(problem, coords, stage, xs))

    def test_probes_that_cannot_herald_score_zero(self):
        """With ks = (1, 1) and stage 2 balanced, the r2 = 1 probe of stage 1
        leaves no photon number that stage 2 passes."""
        target, _ = pcoc_state(CatalysisConfig(1.0, BeamSplitter(0.3), 1))
        problem = DesignProblem(target, stages=2, ks=(1, 1), alpha=1.0)
        xs = np.linspace(0.0, 1.0, 33)
        got = line_scan(problem, [0.2, 0.5], 0, xs)
        assert got[-1] == 0.0 and min(got[:-1]) > 0.0
        assert bits(got) == bits(pointwise_scan(problem, [0.2, 0.5], 0, xs))

    @pytest.mark.parametrize("ks, alpha_bounds", [((1, 1), None),
                                                  ((2,), (0.8, 1.4))])
    def test_optimizer_result_unchanged_by_batching(self, ks, alpha_bounds,
                                                    monkeypatch):
        """Every probe taken as a point of its own gives the same result."""
        target, _ = pcoc_state(CatalysisConfig(1.1, BeamSplitter(0.6), 2))
        problem = DesignProblem(target, stages=len(ks), ks=ks, alpha=1.0,
                                tol=1e-6, alpha_bounds=alpha_bounds)
        batched = optimize_reflectivities(problem)
        line = design._line

        def pointwise_line(problem, coords, i):
            def score(x):
                trial = [*coords[:i], x, *coords[i + 1:]]
                return line(problem, trial, 0)(trial[0])
            return score

        monkeypatch.setattr(design, "_line", pointwise_line)
        assert optimize_reflectivities(problem) == batched


def reference_scores(problem, coords, stage, xs):
    """(fidelity, success probability) per probe, straight from
    `core._row` and `core.coherent_window` with no cache in between, by
    the rule of the kernel `core._herald`: the window u times each row
    in declaration order is raw, prob = fsum(raw^2) and fidelity =
    |sum conj(target) raw|^2 / prob."""
    cfg = IteratedConfig(problem.alpha, tuple(zip(coords, problem.ks)))
    u, _ = core.coherent_window(cfg.alpha, cfg.dim)
    scores = []
    for x in xs:
        raw = list(u)
        for s, (r2, k) in enumerate(cfg.stages):
            row = core._row(x if s == stage else r2, k, cfg.dim)
            raw = [a * c for a, c in zip(raw, row)]
        prob = math.fsum(a * a for a in raw)
        if prob < 1e-300:
            scores.append((0.0, 0.0))
            continue
        overlap = sum(t.conjugate() * a for t, a in zip(problem.target, raw))
        scores.append((abs(overlap) ** 2 / prob, prob))
    return scores


PROBE_R2 = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
TARGETS = [pcoc_state(CatalysisConfig(1.35, BeamSplitter(0.77), 1))[0],
           pcoc_state(CatalysisConfig(0.4, BeamSplitter(0.3), 3))[0]]


class TestProbeCaches:
    """Optimizer probes take fixed stage rows from a bounded, read-only
    cache; every score stays bitwise the uncached one."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(ks=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           alpha=st.floats(0.3, 2.5), target=st.sampled_from(TARGETS),
           r2s=st.lists(PROBE_R2, min_size=3, max_size=3),
           xs=st.lists(PROBE_R2, min_size=1, max_size=6), data=st.data())
    @example(ks=[1, 1], alpha=1.0, target=TARGETS[0], r2s=[1.0, 0.5, 0.0],
             xs=[0.0, 1.0, 0.5], data=None)  # a dead herald among the probes
    def test_scores_equal_uncached_reference_bit_for_bit(self, ks, alpha, target,
                                                         r2s, xs, data):
        problem = DesignProblem(target, stages=len(ks), ks=tuple(ks), alpha=alpha)
        coords = r2s[:len(ks)]
        stage = data.draw(st.integers(0, len(ks) - 1)) if data else 0
        ref = reference_scores(problem, coords, stage, xs)
        for _ in range(2):  # cold, then warm caches
            got = line_scan(problem, coords, stage, xs)
            assert bits(got) == bits([fid for fid, _ in ref])
            for x, want in zip(xs, ref):
                trial = [*coords[:stage], x, *coords[stage + 1:]]
                assert bits(point_score(problem, trial)) == bits(want)
        assert bits(point_score(problem, coords)) == \
            bits(reference_scores(problem, coords, None, [None])[0])

    def test_cached_arrays_are_read_only(self):
        row = core._coefficient_row(0.3, 2, 30)
        assert isinstance(row, tuple)
        with pytest.raises(TypeError):
            row[0] = 0.0

    def test_caches_stay_within_their_bounds(self):
        problem = DesignProblem(TARGETS[0], stages=2, ks=(1, 2), alpha=1.0,
                                tol=1e-3, alpha_bounds=(0.6, 1.6))
        optimize_reflectivities(problem)
        info = core._coefficient_row.cache_info()
        assert info.maxsize == 1024
        assert 0 < info.currsize <= 1024

    def test_dead_herald_probe_scores_zero_with_warm_caches(self):
        """r2 = 1 passes only |1> through a k = 1 stage; a balanced second
        k = 1 stage cancels it (C_1 = t^2 - r^2 = 0)."""
        problem = DesignProblem(TARGETS[0], stages=2, ks=(1, 1), alpha=1.0)
        for _ in range(2):
            assert point_score(problem, [1.0, 0.5]) == (0.0, 0.0)
        assert point_score(problem, [0.9, 0.5])[0] > 0.0

    def test_complex_alphas_with_signed_zero_parts_keep_their_bits(self):
        """0.8j and -0+0.8j are equal numbers whose windows differ in the
        sign of zero parts, which an r2 = 1 stage leaves in the state; each
        state keeps its own."""
        got = []
        for alpha in (complex(0.0, 0.8), complex(-0.0, 0.8)):
            state, _ = iterated_pcoc(IteratedConfig(alpha, ((1.0, 2),)))
            u, _ = core.coherent_window(alpha, state.dim)
            raw = [a * c for a, c in zip(u, core._row(1.0, 2, state.dim))]
            norm = math.sqrt(math.fsum(abs(a) ** 2 for a in raw))
            want = np.array([a / norm for a in raw])
            got.append(bits(state.amplitudes.view(float)))
            assert got[-1] == bits(want.view(float))
        assert got[0] != got[1]

    def test_golden_section_stops_when_rounding_stalls_the_bracket(self):
        """A tol below the spacing of floats near the optimum used to loop
        forever; the search now ends at the narrowest bracket it can reach."""
        x, v = design._golden_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, 1e-300)
        assert x == pytest.approx(0.37, abs=1e-7) and v <= 0.0


class TestProbeMemo:
    """An optimizer run answers a repeated probe, and each line's begun
    product, from a memo of its own; every probe still counts as an
    evaluation."""

    def test_one_stage_search_builds_each_distinct_probe_once(self, monkeypatch):
        """A fixed-alpha line does not depend on the start, so all 8 starts
        repeat one scan."""
        herald, calls = design._herald, []

        def counted(*args):
            calls.append(args)
            return herald(*args)

        monkeypatch.setattr(design, "_herald", counted)
        res = optimize_reflectivities(
            DesignProblem(TARGETS[0], stages=1, ks=(2,), alpha=1.0))
        assert res.evaluations == 961 and len(calls) <= 64

    @pytest.mark.parametrize("ks, alpha_bounds, tol", [
        ((2,), None, 1e-6), ((1,), (0.5, 2.0), 1e-2), ((1, 1), None, 1e-6),
        ((2, 2, 2), None, 3e-2), ((1, 2), (0.6, 1.6), 1e-3)])
    def test_results_equal_a_memo_free_run(self, ks, alpha_bounds, tol,
                                           monkeypatch):
        problem = DesignProblem(TARGETS[1], stages=len(ks), ks=ks, alpha=1.2,
                                tol=tol, alpha_bounds=alpha_bounds)
        memo = optimize_reflectivities(problem)
        monkeypatch.setattr(design, "_LINES", 0)   # lru_cache(0) keeps nothing
        monkeypatch.setattr(design, "_PROBES", 0)
        assert optimize_reflectivities(problem) == memo


class TestOneKernel:
    """Probes and states share one kernel, `core._herald`."""

    @pytest.mark.parametrize("ks, alpha_bounds, tol", [
        ((1,), None, 1e-6), ((2,), (0.5, 2.0), 1e-2), ((1, 1), None, 1e-6),
        ((1, 2, 1), (0.5, 2.0), 1e-4), ((2, 2, 2), None, 3e-2)])
    def test_success_prob_is_the_printed_states(self, ks, alpha_bounds, tol):
        """The printed success_prob is bitwise the herald probability that
        iterated_pcoc gives the printed stages and alpha."""
        problem = DesignProblem(TARGETS[0], stages=len(ks), ks=ks, alpha=1.0,
                                tol=tol, alpha_bounds=alpha_bounds)
        res = optimize_reflectivities(problem)
        _, prob = iterated_pcoc(IteratedConfig(res.alpha,
                                               tuple(zip(res.stages, ks))))
        assert bits(res.success_prob) == bits(prob)

    def test_a_begun_product_continues_bitwise(self):
        stages = ((0.3, 1), (0.65, 2), (0.45, 3))
        whole = catalysis._herald(1.3, 30, stages)
        begun, _ = catalysis._herald(1.3, 30, stages[:1])
        got = catalysis._herald(1.3, 30, stages[1:], begun)
        assert bits(got[0]) == bits(whole[0]) and bits(got[1]) == bits(whole[1])


class TestEqualStageOrder:
    """Stages that share k commute, so the search can end on any order of
    them; the result lists them in one order, scored as listed."""

    @pytest.mark.parametrize("ks, alpha, tol", [
        ((2, 2, 2), 1.6554, 3e-2), ((2, 2), 1.9619, 1e-2), ((1, 2, 1), 1.3, 3e-2)])
    def test_permuting_equal_stages_cannot_change_the_printed_result(
            self, ks, alpha, tol, monkeypatch):
        """The first two searches end unsorted: the first printed stages
        [0.00966, 0.34831, 0.01194] before the order was fixed."""
        target, _ = pcoc_state(CatalysisConfig(1.5703, BeamSplitter(0.3532), 2))
        problem = DesignProblem(target, stages=len(ks), ks=ks, alpha=alpha,
                                tol=tol)
        res = optimize_reflectivities(problem)
        stages = list(res.stages)
        assert stages == design._canonical(problem, stages)
        assert (res.fidelity, res.success_prob) == \
            point_score(problem, stages)
        printed = optimize_result_to_json(res)
        canonical = design._canonical
        for perm in itertools.permutations(range(len(ks))):
            if perm == tuple(range(len(ks))) or \
                    any(ks[p] != ks[s] for s, p in enumerate(perm)):
                continue
            # the search ends on the permuted order of its answer
            monkeypatch.setattr(design, "_canonical", lambda problem, coords, perm=perm:
                                canonical(problem, [coords[p] for p in perm]))
            assert optimize_result_to_json(optimize_reflectivities(problem)) \
                == printed

    def test_only_stages_with_equal_k_are_sorted(self):
        problem = DesignProblem(TARGETS[0], stages=4, ks=(2, 1, 2, 2),
                                alpha=1.0)
        assert design._canonical(problem, [0.9, 0.1, 0.2, 0.4]) == \
            [0.2, 0.1, 0.4, 0.9]


class TestOptimizeAgainstHighPrecision:
    """The benchmark's check of `optimize`, in tier 1: the reported fidelity
    and success_prob are those of the reported stages (and alpha) on the
    window default_dim(alpha, max k), summed exactly."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(ks=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           alpha=st.floats(0.3, 2.7), target=st.sampled_from(TARGETS),
           free=st.booleans())
    @example(ks=[2, 2, 2], alpha=1.6554, target=TARGETS[1], free=False)
    @example(ks=[1], alpha=2.7, target=TARGETS[0], free=True)
    def test_reported_scores_are_the_reported_stages(self, ks, alpha, target,
                                                     free):
        bounds = (max(0.3, alpha - 0.6), min(2.7, alpha + 0.6)) if free else None
        problem = DesignProblem(target, stages=len(ks), ks=tuple(ks),
                                alpha=alpha, tol=1e-3, alpha_bounds=bounds)
        res = optimize_reflectivities(problem)
        if free:
            assert bounds[0] <= res.alpha <= bounds[1]
        want, prob = state_mp(res.alpha, list(zip(res.stages, ks)),
                              core.default_dim(res.alpha, max(ks)))
        n = min(want.size, len(problem.target))
        fidelity = abs(np.vdot(problem.target[:n], want[:n])) ** 2
        assert res.success_prob == pytest.approx(prob, rel=1e-10)
        assert res.fidelity == pytest.approx(fidelity, rel=1e-10)


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
