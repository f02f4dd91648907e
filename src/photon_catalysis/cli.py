"""Command-line front end emitting states, sweeps, Wigner grids, joint click
statistics, and reflectivity fits as CSV/JSON/PGM.

Exit codes: 0 success, 2 usage or validation failure (including the
truncation gate, which means a user-chosen --dim was too small), 3 numerical
gate failure (pole in a closed form, zero-probability herald, overflow).
Identical flags produce byte-identical output files.

Each command imports the modules it runs, so --help, usage errors, `optimize`,
every sweep but wigner_min and every `joint` up to _STDLIB_JOINT_WORK finish
without loading numpy.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import METRICS

_MAX_BINS = 999  # (bins + 1)^2 joint cells per r2 point, the Wigner grid cap
# An r2 scan prints steps (bins + 1)^2 cells, about 1 us each, and builds a
# (dim + k)^2 two-mode table per step as a product of two (dim + k) x (k + 1)
# column blocks, (k + 1)(dim + k)^2 multiply-adds; steps (bins + 1)^2 alone
# would let a large window run for minutes.  A step's fixed cost, 75-430 us
# at k = 0 and windows up to 40 (2-core VM), counts as 2,000 cells.
_MAX_JOINT_CELLS = 2 * 10 ** 6
_MAX_JOINT_WORK = 10 ** 8
_JOINT_STEP_WORK = 2000
# Up to this much work a joint command runs the standard-library kernel,
# which skips numpy's import; above it numpy's products are faster.  The two
# break even at 1.4-2.0M as subprocesses (five geometries, 2-core VM).
_STDLIB_JOINT_WORK = 1_600_000


def _die(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _check_steps(flag: str, text: str, steps: int):
    if steps < 2:
        raise ValueError(f"{flag} spec {text!r} has {steps} steps; a scan "
                         f"needs integer steps >= 2")


def _parse_axis(text: str) -> Axis:
    """An inclusive scan "name:lo:hi:steps"."""
    from .design import Axis

    try:
        name, lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError(f"--axis spec {text!r}; expected name:lo:hi:steps "
                         f"with integer steps") from None
    _check_steps("--axis", text, steps)
    return Axis(name, lo, hi, steps)


def _parse_grid(text: str) -> WignerGridSpec:
    """Either a point count "201" or an extent spec "min:max:n"."""
    from .analysis import WignerGridSpec

    *extent, n = text.split(":")
    try:
        n = int(n)
        lo, hi = map(float, extent) if extent else (None, None)
    except ValueError:
        raise ValueError(f"--grid spec {text!r}; expected n or min:max:n "
                         f"with integer n") from None
    if lo is None:
        return WignerGridSpec(nx=n, np=n)
    return WignerGridSpec(x_min=lo, x_max=hi, p_min=lo, p_max=hi, nx=n, np=n)


def _build_state(alpha: float, r2: float, k: int,
                 dim: int | None) -> tuple[FockState, float]:
    from .catalysis import BeamSplitter, CatalysisConfig, pcoc_state

    return pcoc_state(CatalysisConfig(alpha, BeamSplitter(r2), k, dim))


def _write_text(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _warn_coverage(*warnings: str | None):
    """Each distinct Wigner coverage warning once, on stderr."""
    for warning in dict.fromkeys(filter(None, warnings)):
        print(f"warning: {warning}", file=sys.stderr)


def cmd_state(args) -> int:
    """The first four summary lines are `frame.sweep_point`'s, untruncated;
    the windowed state gives the JSON and the Wigner line."""
    from .analysis import wigner
    from .core import fmt9
    from .fock import state_to_json
    from .frame import sweep_point

    names = ("success_prob", "var_x_db", "var_p_db", "g2")
    state, _ = _build_state(args.alpha, args.r2, args.k, args.dim)
    values = [sweep_point(name, args.alpha, args.r2, args.k)[0] for name in names]
    grid = wigner(state)
    _warn_coverage(grid.coverage_warning)
    values.append(float(grid.values.min()))
    for name, value in zip((*names, "wigner_min"), values):
        print(f"{name} = {fmt9(value)}")
    if args.out:
        _write_text(args.out, state_to_json(state))
    return 0


def cmd_sweep(args) -> int:
    from .core import FMT9
    from .design import SweepSpec, sweep

    axes = [_parse_axis(spec_text) for spec_text in args.axis]
    target = _read_target(args.target) if args.target else None
    spec = SweepSpec(tuple(axes), args.metric, alpha=args.alpha, r2=args.r2,
                     k=args.k, target=target)
    warnings = []
    rows = sweep(spec, warnings.append)
    _warn_coverage(*warnings)
    header = ",".join([a.name for a in axes] + [args.metric, "success_prob"])
    # one %-template a row: %d for a k axis, fmt9's bytes for every other cell
    template = ",".join(["%d" if a.name == "k" else f"%{FMT9}" for a in axes]
                        + [f"%{FMT9}"] * 2) + "\n"
    _write_text(args.out, header + "\n" + "".join(template % row for row in rows))
    return 0


def cmd_wigner(args) -> int:
    from .analysis import _wigner_csv_rows, wigner, wigner_to_pgm
    from .core import fmt9

    state, _ = _build_state(args.alpha, args.r2, args.k, args.dim)
    grid = wigner(state, _parse_grid(args.grid))
    _warn_coverage(grid.coverage_warning)
    print(f"integral = {fmt9(grid.integral())}")
    if args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            fh.writelines(_wigner_csv_rows(grid))
    else:
        with open(args.out, "wb") as fh:
            fh.write(wigner_to_pgm(grid))
    return 0


def _parse_r2(text: str) -> tuple[float, float, int]:
    """joint's --r2 as (lo, hi, steps): one value "0.5" is one step, an
    inclusive scan "lo:hi:steps" at least two."""
    try:
        lo, hi, steps = text.split(":") if ":" in text else (text, text, 1)
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError(f"--r2 spec {text!r}; expected VALUE|LO:HI:STEPS "
                         f"with integer STEPS") from None
    if ":" in text:
        _check_steps("--r2", text, steps)
    if not math.isfinite(hi - lo):
        raise ValueError(f"--r2 spec {text!r} must be finite, with HI - LO finite")
    return lo, hi, steps


def cmd_joint(args) -> int:
    from .core import FMT9, _check_stage, _stage_window, fmt9, scan
    from .detector import TMDConfig, _joint_tables

    if args.alpha2 < 0:  # a non-finite one is refused by the window check
        raise ValueError(f"--alpha2 must be >= 0, got {args.alpha2}")
    if args.bins > _MAX_BINS:
        raise ValueError(f"--bins {args.bins} exceeds {_MAX_BINS}: the joint "
                         f"table has (bins + 1)^2 cells per r2 point, at "
                         f"most 10^6")
    for flag, eta in (("--eta1", args.eta1), ("--eta2", args.eta2)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{flag} {eta} outside [0, 1]; expected a "
                             f"detector efficiency")
    alpha = math.sqrt(args.alpha2)
    lo, hi, steps = _parse_r2(args.r2)
    # A scan's first r2 is LO at any step count, so it is checked, and the
    # budget too, before the scan is laid out.
    side = _stage_window(alpha, ((lo, args.k),), args.dim) + args.k
    cells = steps * (args.bins + 1) ** 2
    work = steps * ((args.k + 1) * side ** 2 + _JOINT_STEP_WORK)
    if steps > 1 and (cells > _MAX_JOINT_CELLS or work > _MAX_JOINT_WORK):
        raise ValueError(
            f"--r2 scan of {steps} steps prints {cells:.2e} cells and builds "
            f"{work:.2e} two-mode cells, {_JOINT_STEP_WORK} a step for its fixed "
            f"cost included; the budget is {_MAX_JOINT_CELLS:.0e} "
            f"and {_MAX_JOINT_WORK:.0e}; use fewer --r2 steps or lower --bins, "
            f"--k, --alpha2 or --dim")
    # The first step's stage check has passed, so its detectors come next.
    det1, det2 = TMDConfig(args.eta1, args.bins), TMDConfig(args.eta2, args.bins)
    r2s = scan(lo, hi, steps) if steps > 1 else [lo]
    for r2 in r2s[1:]:   # every step's r2, before either kernel builds a table
        _check_stage(r2)
    # The stdlib kernel's multiply-adds a step: side^2 amplitudes of k + 1
    # paths, side^2 b / 2 for |A|^2 T2 and side b^2 / 2 for T1^T, b clicks.
    b = min(args.bins + 1, side)
    if steps * (side * side * (args.k + 1 + b / 2) + side * b * b / 2) \
            <= _STDLIB_JOINT_WORK:
        tables = _joint_tables(alpha, r2s, args.k, args.dim, det1, det2)
    else:
        from .catalysis import BeamSplitter, CatalysisConfig
        from .detector import joint_output_distribution

        tables = (joint_output_distribution(
            CatalysisConfig(alpha, BeamSplitter(r2), args.k, args.dim), det1,
            det2).probabilities.tolist() for r2 in r2s)
    # Each (r2, i) row is one %-template: its "r2,i" prefix joins the row's
    # ",j,%p\n" suffixes, built once for the command.
    suffixes = [f",{j},%{FMT9}\n" for j in range(args.bins + 1)]
    parts = ["r2,i,j,p\n"]
    for r2, rows in zip(r2s, tables):
        r2_cell = fmt9(r2)
        for i, row in enumerate(rows):
            prefix = f"{r2_cell},{i}"
            parts.append((prefix + prefix.join(suffixes)) % tuple(row))
    _write_text(args.out, "".join(parts))
    return 0


def cmd_optimize(args) -> int:
    from .design import (DesignProblem, optimize_reflectivities,
                         optimize_result_to_json)

    target = _read_target(args.target)
    try:
        ks = tuple(int(s) for s in args.k.split(","))
    except ValueError:
        raise ValueError(f"--k spec {args.k!r}; expected K1,K2,... with "
                         f"integer K") from None
    alpha_bounds = None
    if args.alpha_bounds:
        try:
            lo, hi = map(float, args.alpha_bounds.split(":"))
        except ValueError:
            raise ValueError(f"--alpha-bounds spec {args.alpha_bounds!r}; "
                             f"expected LO:HI") from None
        alpha_bounds = (lo, hi)
    problem = DesignProblem(target=target, stages=args.stages, ks=ks,
                            alpha=args.alpha, tol=args.tol,
                            alpha_bounds=alpha_bounds)
    result = optimize_reflectivities(problem)
    text = optimize_result_to_json(result, include_alpha=alpha_bounds is not None)
    if args.out:
        _write_text(args.out, text + "\n")
    print(text)
    return 0


def _read_target(path: str) -> list[complex]:
    """The amplitudes of the --target state JSON; an unreadable or malformed
    file, or one whose squared amplitudes miss 1 by more than the 1e-10
    `wigner` allows, is a usage error naming it."""
    from .core import NORM_TOL, _parse_state

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    try:
        amplitudes = _parse_state(text)[0]
        # abs(a) * abs(a), not abs(a) ** 2, which raises past 1e154
        norm = math.fsum(abs(a) * abs(a) for a in amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes must be normalized, with squared moduli "
                             f"summing to 1 within {NORM_TOL:.0e}, got {norm:.9g}")
        return amplitudes
    except ValueError as exc:
        raise ValueError(f"--target {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalysis",
        description="Heralded photon catalysis: states, metrics, detector "
                    "statistics, and reflectivity design.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="conditioned state JSON plus metric summary")
    p.add_argument("--alpha", type=float, required=True, help="coherent amplitude")
    p.add_argument("--r2", type=float, required=True, help="intensity reflectivity")
    p.add_argument("--k", type=int, default=1, help="catalyst photon number")
    p.add_argument("--dim", type=int, default=None, help="truncation dimension")
    p.add_argument("--out", default=None, help="state JSON path")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("sweep", help="metric table over parameter axes")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--axis", action="append", required=True,
                   metavar="NAME:LO:HI:STEPS",
                   help="swept axis (r2, alpha, or k); repeatable, row-major")
    p.add_argument("--alpha", type=float, default=1.0, help="base value when not swept")
    p.add_argument("--r2", type=float, default=0.5, help="base value when not swept")
    p.add_argument("--k", type=int, default=1, help="base value when not swept")
    p.add_argument("--target", default=None,
                   help="state JSON for the fidelity_to_target metric")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wigner", help="Wigner function grid as CSV or PGM")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--grid", default="201", metavar="N|MIN:MAX:N",
                   help="points per axis, optionally with extent (default 201 over [-5,5])")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("joint", help="joint click distribution over an r2 scan")
    p.add_argument("--alpha2", type=float, required=True, help="mean photon number")
    p.add_argument("--r2", required=True, metavar="VALUE|LO:HI:STEPS")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--eta1", type=float, default=1.0, help="signal-arm efficiency")
    p.add_argument("--eta2", type=float, default=1.0, help="catalyst-arm efficiency")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("optimize", help="stage reflectivities maximizing target fidelity")
    p.add_argument("--target", required=True, help="target state JSON path")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--k", required=True, metavar="K1,K2,...",
                   help="catalyst photon number per stage")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha-bounds", default=None, metavar="LO:HI",
                   help="optimize alpha within these bounds instead of fixing it")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None, help="result JSON path")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .core import TruncationError, UndefinedQuantityError

    try:
        return args.func(args)
    except TruncationError as exc:
        return _die(f"truncation gate: {exc}", 2)
    # PoleError and OverflowError are ArithmeticErrors; DomainError is a
    # ValueError.
    except (UndefinedQuantityError, ArithmeticError) as exc:
        return _die(f"numerical gate: {exc}", 3)
    except (ValueError, OSError) as exc:
        return _die(str(exc), 2)


def run():
    """Process entry of the `catalysis` script and of `python -m
    photon_catalysis.cli`; tests and tracers call `main` in process.

    The cyclic collector frees nothing in a command: with it off, every
    command leaves the same 320 cyclic objects (argparse's parser tree)
    whatever its size.  Left on, it walks the ~21,600 objects numpy and the
    package make at import 34 times during import (6-8 ms) and again at
    exit, where freezing them first cuts teardown after `import numpy` from
    29 to 8 ms (2-core VM, Python 3.11)."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
