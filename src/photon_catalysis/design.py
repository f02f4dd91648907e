"""Parameter sweeps and derivative-free inverse design of stage reflectivities.

Every sweep metric but wigner_min comes from the displaced-frame kernel in
`frame`, and every optimizer probe scores the amplitudes and probability of
the standard-library heralded-state kernel `core._herald`, the one every
state takes, so those sweeps and the optimizer load no numpy, and the
optimizer no `catalysis`.  An optimizer run answers a repeated probe from a
memo of its own.  Each path imports what it runs when it runs: `frame` for
those sweeps, the numpy modules for wigner_min."""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import METRICS
from .core import (HERALD_CUTOFF, _check_stage, _herald, _stage_window,
                   _window_dim, fmt17, scan)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Scan budgets, measured on a 2-core VM: 10^4 points of the costliest state
# (k = 508) take 9 s for g2; 10^10 Wigner cell-steps take 4.5-8 s; 10^7
# fidelity recurrence steps took 5.5-10.1 s over six target and k shapes.
_MAX_POINTS = 10 ** 4
_MAX_WIGNER_WORK = 1e10
_MAX_FIDELITY_WORK = 1e7
# Bounds of one optimizer run's memo: the lines it keeps begun and the
# probes it keeps scored.  On the 24 optimize commands of benchmark seed 11
# these sizes leave 15,826 kernel calls (unbounded: 15,662; no memo: 71,960),
# and hold a 42,845-evaluation search within 0.4 MiB of its memo-free peak
# RSS (4,096 probes: 1.5 MiB).
_LINES = 16
_PROBES = 1024


class Axis:
    """One swept parameter; values laid out inclusively from lo to hi."""

    def __init__(self, name: str, lo: float, hi: float, steps: int):
        if name not in ("r2", "alpha", "k"):
            raise ValueError(f"unknown sweep parameter {name!r}")
        if steps < 2:
            raise ValueError("each axis needs at least 2 steps")
        if not math.isfinite(hi - lo):
            raise ValueError(f"--axis {name} ends {lo}:{hi} "
                             f"must be finite, with HI - LO finite")
        self.name, self.lo, self.hi, self.steps = name, lo, hi, steps

    def values(self) -> list[float]:
        """`core.scan(lo, hi, steps)`; a k axis is rounded half to even, as
        numpy's round does."""
        vals = scan(self.lo, self.hi, self.steps)
        return [round(v, 0) for v in vals] if self.name == "k" else vals


class SweepSpec:
    """``target``, for fidelity_to_target, is a FockState or a sequence of
    its amplitudes, kept as a list of complex amplitudes."""

    def __init__(self, axes, metric: str, alpha: float = 1.0, r2: float = 0.5,
                 k: int = 1, target=None):
        self.axes = tuple(axes)
        if not self.axes:
            raise ValueError("at least one axis required")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        if metric == "fidelity_to_target" and target is None:
            raise ValueError("fidelity_to_target requires a target state")
        self.metric, self.alpha, self.r2, self.k = metric, alpha, r2, k
        self.target = None if target is None else [
            complex(a) for a in getattr(target, "amplitudes", target)]
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate sweep axes")
        points = math.prod(a.steps for a in self.axes)
        if points > _MAX_POINTS:
            raise ValueError(f"--axis scan of {points} points exceeds the "
                             f"budget of {_MAX_POINTS}; use fewer steps")


def _check_wigner_sweep(dims: list[int]):
    """Refuse a wigner_min sweep whose windows ``dims`` need more than the
    sweep's budget of Wigner recurrence cell-steps, or whose largest needs
    more than one grid's."""
    from .analysis import _WIGNER_BUDGET, WignerGridSpec, _wigner_work

    work = _wigner_work(dims, WignerGridSpec())
    if work > _MAX_WIGNER_WORK:
        raise ValueError(f"wigner_min sweep of {len(dims)} points needs "
                         f"{work:.2e} Wigner cell-steps; the budget is "
                         f"{_MAX_WIGNER_WORK:.0e}; use fewer --axis steps or "
                         f"lower --alpha or --k")
    top = max(dims)
    if _wigner_work([top], WignerGridSpec()) > _WIGNER_BUDGET:
        raise ValueError(f"wigner_min sweep point at dim {top} needs more than "
                         f"{_WIGNER_BUDGET:.0e} Wigner cell-steps, one grid's "
                         f"budget; lower --alpha or --k, on --axis or as the "
                         f"base value")


def _check_fidelity_sweep(points: list[tuple], levels: int):
    """Refuse a fidelity_to_target sweep of (alpha, r2, k) ``points``, each
    checked, that needs more than the budget of recurrence steps: (target
    levels)(k + 4) a point, k + 1 entries per level and a displacement seed
    that costs about three."""
    work = levels * sum(k + 4 for _, _, k in points)
    if work > _MAX_FIDELITY_WORK:
        raise ValueError(f"fidelity_to_target sweep of {len(points)} points "
                         f"needs {work:.2e} recurrence steps, (target levels)"
                         f"(k + 4) a point; the budget is "
                         f"{_MAX_FIDELITY_WORK:.0e}; use fewer --axis steps, "
                         f"a lower --k or a target with fewer levels")


def sweep(spec: SweepSpec, warn=None) -> list[tuple]:
    """Row-major table over the declared axes: (*axis values, metric, success_prob).

    Every point's stage and window, then the budget, is checked before any
    point is computed.  ``warn``, if given, is called with each Wigner
    coverage warning.  wigner_min takes each point in row order: it builds
    the state, takes the minimum of its Wigner grid, and drops the grid."""
    names = [a.name for a in spec.axes]
    combos = list(itertools.product(*(a.values() for a in spec.axes)))
    points = [(p.get("alpha", spec.alpha), p.get("r2", spec.r2),
               p.get("k", spec.k))
              for p in (dict(zip(names, combo)) for combo in combos)]
    if spec.metric != "wigner_min":
        from .frame import sweep_point

        for alpha, r2, k in points:
            _stage_window(alpha, ((r2, k),))
        if spec.target is not None:
            _check_fidelity_sweep(points, len(spec.target))
        return [combo + sweep_point(spec.metric, alpha, r2, int(k), spec.target)
                for combo, (alpha, r2, k) in zip(combos, points)]
    from .analysis import wigner
    from .catalysis import BeamSplitter, CatalysisConfig, pcoc_state

    configs = [CatalysisConfig(alpha, BeamSplitter(r2), int(k))
               for alpha, r2, k in points]
    _check_wigner_sweep([cfg.dim for cfg in configs])
    rows = []
    for combo, cfg in zip(combos, configs):
        state, prob = pcoc_state(cfg)
        grid = wigner(state)
        if warn and grid.coverage_warning:
            warn(grid.coverage_warning)
        rows.append(combo + (float(grid.values.min()), prob))
        del grid    # dropped before the next grid is computed
    return rows


class DesignProblem:
    """Find stage reflectivities on [0, 1] maximizing fidelity to ``target``,
    a FockState or a sequence of its amplitudes (kept as a tuple of complex).
    The largest window a probe takes, at the largest k and at alpha or the
    farther end of ``alpha_bounds``, is checked before the first probe."""

    def __init__(self, target, stages: int, ks, alpha: float,
                 tol: float = 1e-6, alpha_bounds=None):
        if stages < 1:
            raise ValueError(f"--stages {stages} must be an integer >= 1")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol={tol} must be finite and > 0")
        if alpha_bounds is not None:
            lo, hi = alpha_bounds
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"--alpha-bounds {lo}:{hi} must be finite with LO < HI")
        if len(ks) != stages:
            raise ValueError(f"--k has {len(ks)} entries for --stages "
                             f"{stages}; expected K1,K2,... with one "
                             f"catalyst photon number per stage")
        self.ks = tuple(int(k) for k in ks)
        for k in self.ks:
            _check_stage(k=k)
        self.target = tuple(
            complex(a) for a in getattr(target, "amplitudes", target))
        self.stages, self.alpha = stages, alpha
        self.tol, self.alpha_bounds = tol, alpha_bounds
        if alpha_bounds is None:
            _window_dim(alpha, None, max(self.ks), "--alpha or --k")
        else:
            _window_dim(max(map(abs, alpha_bounds)), None, max(self.ks),
                        "--alpha-bounds or --k")


OptimizeResult = namedtuple("OptimizeResult", "stages alpha fidelity success_prob "
                            "evaluations stagnated local_optima")


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to parameter tolerance tol,
    or until rounding stops a step from narrowing the bracket."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _line_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Coarse scan for a bracket, then golden-section refinement.

    The fidelity landscape has interference zeros, so a single golden section
    over the full interval is not safe; 33 stratified probes locate the basin.
    """
    xs = scan(lo, hi, 33)
    vals = [f(x) for x in xs]
    i = vals.index(max(vals))
    a = xs[max(0, i - 1)]
    b = xs[min(len(xs) - 1, i + 1)]
    if b <= a:
        return xs[i], vals[i]
    x, v = _golden_max(f, a, b, tol)
    if v < vals[i]:
        return xs[i], vals[i]
    return x, v


def _start_points(bounds: list[tuple[float, float]]) -> list[list[float]]:
    """8 stratified starts in the coordinate box ``bounds``; coordinate i
    uses a golden-ratio-shifted lattice."""
    starts = []
    for j in range(8):
        point = []
        for i, (lo, hi) in enumerate(bounds):
            frac = ((j + 0.5) / 8.0 + i * _INV_PHI) % 1.0
            point.append(lo + frac * (hi - lo))
        starts.append(point)
    return starts


def _line(problem: DesignProblem, coords, i: int):
    """score(x): (fidelity, success probability) at coords with coordinate
    i set to x, the fidelity |sum conj(tau) u P|^2 / prob to the target tau
    of the amplitudes u P and probability that `core._herald` gives the
    state; a probe whose heralds cannot all fire scores (0, 0).  An r2 line
    takes u times the stages before stage i once, and its probes continue
    that product, which keeps the whole product's bits.  No probe reads
    coordinate i of coords.  DesignProblem checked the ks and the largest
    window, and every x lies in coordinate i's box."""
    conj_target = [t.conjugate() for t in problem.target]
    stages = [(float(r2), k) for r2, k in zip(coords, problem.ks)]
    top = max(problem.ks)

    def scored(raw, prob: float) -> tuple[float, float]:
        if prob < HERALD_CUTOFF:
            return 0.0, 0.0
        return abs(sum(map(mul, conj_target, raw))) ** 2 / prob, prob

    if i == problem.stages:
        return lambda x: scored(*_herald(x, _window_dim(x, None, top), stages))
    alpha = coords[problem.stages] if problem.alpha_bounds else problem.alpha
    dim = _window_dim(alpha, None, top)
    before, _ = _herald(alpha, dim, stages[:i])
    after, k = stages[i + 1:], problem.ks[i]
    return lambda x: scored(*_herald(alpha, dim, [(x, k), *after], before))


def _canonical(problem: DesignProblem, coords: list[float]) -> list[float]:
    """coords with r2 ascending within each group of stages that share k: the
    stage product commutes, so all orders of a group are one answer, and the
    search may end on any of them."""
    out = list(coords)
    for k in set(problem.ks):
        stages = [s for s, other in enumerate(problem.ks) if other == k]
        for s, r2 in zip(stages, sorted(coords[s] for s in stages)):
            out[s] = r2
    return out


def optimize_reflectivities(problem: DesignProblem) -> OptimizeResult:
    """Multi-start coordinate descent with golden-section line searches.

    Deterministic: the start set is fixed, coordinates cycle in declaration
    order, and iteration stops when no single-coordinate move larger than the
    tolerance improves the fidelity.  Every probe counts as an evaluation.
    A probe is fixed by its coordinate i, the other coordinates and x, and a
    repeat is answered from a memo local to the call, as is each line's
    begun product (`_line`) by i and the other coordinates: a one-stage
    fixed-alpha search probes the same line from all 8 starts.  The result
    lists equal stages in `_canonical` order and is scored once more as
    listed, so no order the search ends on changes what it reports.
    """
    evaluations = 0

    @lru_cache(maxsize=_LINES)
    def line(i: int, others: tuple):
        return _line(problem, [*others[:i], math.nan, *others[i:]], i)

    @lru_cache(maxsize=_PROBES)
    def probe(i: int, others: tuple, x: float) -> tuple[float, float]:
        return line(i, others)(x)

    def evaluate(i: int, others: tuple, x: float) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        return probe(i, others, x)

    bounds = [(0.0, 1.0)] * problem.stages
    if problem.alpha_bounds:
        bounds.append(problem.alpha_bounds)
    starts = _start_points(bounds)
    best_initial = -1.0
    local_optima = []
    best = None  # (fidelity, success_prob, coords)

    for start in starts:
        coords = list(start)
        fid, prob = evaluate(0, tuple(coords[1:]), coords[0])
        best_initial = max(best_initial, fid)
        improved = True
        passes = 0
        while improved and passes < 60:
            improved = False
            passes += 1
            for i, (lo, hi) in enumerate(bounds):
                others = (*coords[:i], *coords[i + 1:])
                x_new, f_new = _line_max(lambda x: evaluate(i, others, x)[0],
                                         lo, hi, problem.tol)
                if f_new > fid + 1e-13:
                    if abs(x_new - coords[i]) > problem.tol or f_new > fid + 1e-9:
                        improved = True
                    coords[i] = x_new
                    fid, prob = evaluate(i, others, x_new)
        local_optima.append((tuple(coords[:problem.stages]), fid))
        if best is None or fid > best[0]:
            best = (fid, prob, list(coords))

    fid, prob, coords = best
    stagnated = fid <= best_initial + 1e-15
    coords = _canonical(problem, coords)
    fid, prob = evaluate(0, tuple(coords[1:]), coords[0])
    alpha = coords[problem.stages] if problem.alpha_bounds else problem.alpha
    return OptimizeResult(
        stages=tuple(coords[:problem.stages]),
        alpha=float(alpha),
        fidelity=fid,
        success_prob=prob,
        evaluations=evaluations,
        stagnated=stagnated,
        local_optima=tuple(local_optima),
    )


def optimize_result_to_json(res: OptimizeResult,
                            include_alpha: bool = False) -> str:
    stages = ",".join(fmt17(r2) for r2 in res.stages)
    alpha_field = f'"alpha": {fmt17(res.alpha)}, ' if include_alpha else ""
    return (f'{{"stages": [{stages}], {alpha_field}'
            f'"fidelity": {fmt17(res.fidelity)}, '
            f'"success_prob": {fmt17(res.success_prob)}, '
            f'"evaluations": {res.evaluations}, '
            f'"stagnated": {"true" if res.stagnated else "false"}}}')
