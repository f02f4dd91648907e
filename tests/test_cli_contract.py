"""The CLI's contract over random flags, in process: every command ends in
exit code 0, 2 or 3 with no exception escaping `cli.main`, and what a
successful command writes means what it says.

Flags are mostly valid, sometimes not, and bounded so that no example can
run long: |alpha| <= 4 and k <= 12 (each plus refused extremes, a --k or
--dim of up to 400 digits among them), Wigner grids of at most 41 points a
side outside `state` (plus counts of up to 200 digits, which are refused),
scans of at most 4 steps (with ends that may be non-finite) and
optimizer tolerances of at least 1e-2."""

import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from photon_catalysis.cli import main
from photon_catalysis.core import _row, coherent_amplitudes


def mostly(valid, *others):
    """``valid`` about nine draws in ten, else one of ``others``."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(others) if i == 9 else valid)


def number(lo: float, hi: float, *others: str):
    """A flag value: mostly a float in [lo, hi], else one of ``others``."""
    return mostly(st.floats(lo, hi).map(repr), *others)


ALPHA = number(-4.0, 4.0, "nan", "inf", "-inf", "1e6", "40", "31")
R2 = number(0.0, 1.0, "nan", "inf", "-0.1", "1.1", "0", "1")
# past the largest window side, and past the float range
K = mostly(st.integers(0, 12), -1, 1031, 10 ** 400 - 1).map(str)
DIM = mostly(st.none(), *range(1, 61), 1031, 10 ** 400 - 1)


def end(values):
    """A scan end: mostly ``values``, else non-finite or at the float range's
    edge."""
    return mostly(values, "nan", "inf", "-inf", "1e308", "-1e308")


# a grid point count past every budget, up to a 200-digit one
HUGE = st.integers(4, 200).map(lambda digits: "9" * digits)
# an extent spec lo:hi:n, mostly -E:E (a real state's half plane p >= 0),
# else asymmetric (the full plane), with odd or even n
EXTENT = st.tuples(st.floats(0.5, 6.0), st.floats(0.5, 6.0),
                   mostly(st.just(True), False), st.integers(2, 41)).map(
    lambda t: f"{-t[0]!r}:{t[0] if t[2] else t[1]!r}:{t[3]}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    assert main(["state", "--alpha", "1.2", "--r2", "0.4", "--k", "2",
                 "--out", str(path / "target.json")]) == 0
    return path


def invoke(workdir, argv: list[str], out: str | None = None):
    """(exit code, stdout, stderr) of `main(argv)`, with ``out``, a file in
    ``workdir``, removed first; flags are passed as --flag=value, so that a
    negative value is never read as an option."""
    if out is not None and os.path.exists(workdir / out):
        os.remove(workdir / out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    return code, stdout.getvalue(), stderr.getvalue()


def flags(**values) -> list[str]:
    return [f"--{name.replace('_', '-')}={value}"
            for name, value in values.items() if value is not None]


def output_tail(alpha: float, r2: float, k: int, dim: int) -> float:
    """The heralded state's probability beyond the window n < dim, as a
    fraction of the whole, summed directly over 200 more levels."""
    side = min(dim + 200, 1030 - k)
    weights = [abs(a * c) ** 2 for a, c in
               zip(coherent_amplitudes(alpha, side), _row(r2, k, side))]
    return math.fsum(weights[dim:]) / math.fsum(weights)


class TestContract:
    @settings(max_examples=150, deadline=None, database=None)
    @given(alpha=ALPHA, r2=R2, k=K, dim=DIM)
    # the coherent input's tail (8.3e-10) passed the gate, the output's is
    # 6.0e-5; the command exited 0 and stored the input's tail
    @example(alpha="1.0", r2="0.99", k="10", dim=12)
    @example(alpha="1.7938", r2="0.4011", k="4", dim=21)
    def test_state(self, workdir, alpha, r2, k, dim):
        code, stdout, _ = invoke(workdir, ["state", *flags(
            alpha=alpha, r2=r2, k=k, dim=dim, out=workdir / "s.json")], "s.json")
        if code:
            return
        summary = dict(line.split(" = ") for line in stdout.splitlines())
        assert 0.0 <= float(summary["success_prob"]) <= 1.0
        doc = json.loads((workdir / "s.json").read_text())
        want = output_tail(float(alpha), float(r2), int(k), doc["dim"])
        assert doc["tail_mass"] >= want - 1e-13

    @settings(max_examples=150, deadline=None, database=None)
    @given(metric=st.sampled_from(["var_x_db", "var_p_db", "success_prob", "g2",
                                   "fidelity_to_target", "wigner_min"]),
           axis=st.one_of(
               st.tuples(st.just("r2"), end(R2), end(R2), st.integers(1, 4)),
               st.tuples(st.just("alpha"), end(ALPHA), end(ALPHA),
                         st.integers(1, 4)),
               st.tuples(st.just("k"), end(K), end(K), st.integers(1, 4))),
           alpha=ALPHA, r2=R2, k=K)
    @example(metric="g2", axis=("k", "0", "inf", 3), alpha="1", r2="0.5", k="1")
    @example(metric="g2", axis=("r2", "-1e308", "1e308", 3), alpha="1",
             r2="0.5", k="1")
    # drawn scans stop at 4 steps; 8 wigner_min points run the grid loop
    # past four states
    @example(metric="wigner_min", axis=("r2", "0.1", "0.9", 8), alpha="2.7",
             r2="0.5", k="2")
    def test_sweep(self, workdir, metric, axis, alpha, r2, k):
        """A scan whose ends or width are not finite is refused naming its
        axis."""
        target = workdir / "target.json" if metric == "fidelity_to_target" else None
        code, _, stderr = invoke(workdir, ["sweep", *flags(
            metric=metric, axis=":".join(map(str, axis)), alpha=alpha, r2=r2,
            k=k, target=target, out=workdir / "s.csv")], "s.csv")
        name, lo, hi, steps = axis
        if steps >= 2 and not math.isfinite(float(hi) - float(lo)):
            assert code == 2 and f"--axis {name} " in stderr
        if code:
            return
        rows = (workdir / "s.csv").read_text().splitlines()[1:]
        assert rows and all(0.0 <= float(row.split(",")[-1]) <= 1.0
                            for row in rows)

    @settings(max_examples=80, deadline=None, database=None)
    @given(alpha=ALPHA, r2=R2, k=K, dim=DIM,
           grid=st.one_of(
               mostly(st.integers(2, 41).map(str), "1", "-4:4:25", "4:-4:25",
                      "-30:30:9", "nan:1:5", "0:0:3", "1001"),
               EXTENT, HUGE, HUGE.map(lambda n: "-5:5:" + n)),
           fmt=st.sampled_from(["csv", "pgm"]))
    @example(alpha="1", r2="0.3", k="1", dim=None, grid="1" + "0" * 180,
             fmt="csv")
    @example(alpha="2", r2="0.5", k="2", dim=None, grid="-4.5:4.5:20",
             fmt="csv")
    @example(alpha="2", r2="0.5", k="2", dim=None, grid="-4.5:4.5:21",
             fmt="pgm")
    @example(alpha="2", r2="0.5", k="2", dim=None, grid="-3.0:5.5:21",
             fmt="csv")
    def test_wigner(self, workdir, alpha, r2, k, dim, grid, fmt):
        """A grid past the point budget, of any size, is a usage error once
        its state is built (a 10^180-point count exited 3)."""
        code, _, stderr = invoke(workdir, ["wigner", *flags(
            alpha=alpha, r2=r2, k=k, dim=dim, grid=grid, format=fmt,
            out=workdir / "w.out")])
        if int(grid.rsplit(":", 1)[-1]) > 1000 and code == 3:
            assert "herald outcome has zero probability" in stderr

    @settings(max_examples=150, deadline=None, database=None)
    @given(alpha2=number(0.0, 12.0, "-1", "nan", "inf", "1e6", "900"),
           r2=st.one_of(R2, st.tuples(end(R2), end(R2), st.integers(0, 4)).map(
               lambda t: ":".join(map(str, t)))),
           k=mostly(st.integers(0, 6), -1), bins=mostly(st.integers(1, 12), 0),
           eta1=R2, eta2=R2, dim=DIM)
    def test_joint(self, workdir, alpha2, r2, k, bins, eta1, eta2, dim):
        code, _, _ = invoke(workdir, ["joint", *flags(
            alpha2=alpha2, r2=r2, k=k, bins=bins, eta1=eta1, eta2=eta2,
            dim=dim, out=workdir / "j.csv")], "j.csv")
        if code:
            return
        # one block of (bins + 1)^2 cells a step; a scan can repeat an r2
        cells = [float(line.split(",")[-1])
                 for line in (workdir / "j.csv").read_text().splitlines()[1:]]
        size = (bins + 1) ** 2
        assert cells and len(cells) % size == 0
        assert all(abs(math.fsum(cells[i:i + size]) - 1.0) <= 1e-7
                   for i in range(0, len(cells), size))

    @settings(max_examples=80, deadline=None, database=None)
    @given(ks=st.lists(mostly(st.integers(0, 3), -1), min_size=1, max_size=2),
           stages=mostly(st.none(), 0, 1, 2), alpha=number(0.1, 2.5, "nan", "40"),
           tol=mostly(st.sampled_from(["1e-2", "5e-2"]), "nan", "0"),
           alpha_bounds=st.sampled_from([None, None, "0.5:2", "2:0.5", "0:40"]))
    def test_optimize(self, workdir, ks, stages, alpha, tol, alpha_bounds):
        """``stages`` is mostly the number of ``ks``."""
        code, stdout, _ = invoke(workdir, ["optimize", *flags(
            target=workdir / "target.json",
            stages=len(ks) if stages is None else stages,
            k=",".join(map(str, ks)), alpha=alpha, tol=tol,
            alpha_bounds=alpha_bounds)])
        if code:
            return
        assert 0.0 <= json.loads(stdout)["success_prob"] <= 1.0
