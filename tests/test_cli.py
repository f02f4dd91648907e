"""End-to-end tests of the command-line interface (in-process)."""

import ast
import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import photon_catalysis
from photon_catalysis import cli
from photon_catalysis.cli import main
from photon_catalysis.fock import state_from_json
from _mp_state import state_mp
from _traced_peak import traced_peak

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestState:
    def test_summary_and_json(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        code, stdout, _ = run(capsys, "state", "--alpha", "1", "--r2", "0.332",
                              "--k", "1", "--out", str(out))
        assert code == 0
        names = [line.split(" = ")[0] for line in stdout.strip().split("\n")]
        assert names == ["success_prob", "var_x_db", "var_p_db", "g2",
                         "wigner_min"]
        state = state_from_json(out.read_text())
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_passthrough_values(self, capsys):
        code, stdout, _ = run(capsys, "state", "--alpha", "1", "--r2", "0",
                              "--k", "1")
        assert code == 0
        summary = dict(line.split(" = ") for line in stdout.strip().split("\n"))
        assert float(summary["g2"]) == pytest.approx(1.0, abs=1e-8)
        assert float(summary["var_x_db"]) == pytest.approx(0.0, abs=1e-7)
        assert float(summary["success_prob"]) == 1.0

    def test_readme_summary_is_pinned(self, capsys):
        """Printed from the windowed state before the first four lines came
        from the displaced-frame kernel."""
        code, stdout, _ = run(capsys, "state", "--alpha", "1.35", "--r2", "0.77",
                              "--k", "1")
        assert code == 0
        assert stdout == ("success_prob = 2.74773996e-01\n"
                          "var_x_db = 4.47728884e+00\n"
                          "var_p_db = 4.67322077e+00\n"
                          "g2 = 7.60172942e-01\n"
                          "wigner_min = -6.07746318e-01\n")

    def test_large_alpha_k_json_is_exact(self, tmp_path, capsys):
        """The JSON holds the state the summary lines describe.  Its
        coefficients were once alternating binomial sums, which missed the
        exact state by up to 2.9e-4 here."""
        out = tmp_path / "s.json"
        code, _, stderr = run(capsys, "state", "--alpha", "10", "--r2", "0.5",
                              "--k", "30", "--out", str(out))
        assert code == 0, stderr
        state = state_from_json(out.read_text())
        want, _ = state_mp(10.0, [(0.5, 30)], state.dim)
        assert np.abs(state.amplitudes - want).max() <= 1e-12

    def test_truncation_gate_is_validation_error(self, capsys):
        code, _, stderr = run(capsys, "state", "--alpha", "2", "--r2", "0.3",
                              "--k", "1", "--dim", "4")
        assert code == 2
        assert "truncation" in stderr

    def test_output_tail_beyond_dim_is_a_truncation_gate(self, tmp_path, capsys):
        """At --dim 12 the coherent input leaves 8.3e-10 outside the window,
        under the 1e-9 gate, but the heralded state leaves 6.0e-5.  The
        command exited 0 and stored the input's tail."""
        out = tmp_path / "s.json"
        code, stdout, stderr = run(capsys, "state", "--alpha", "1", "--r2", "0.99",
                                   "--k", "10", "--dim", "12", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == ("error: truncation gate: output tail mass 6.019e-05 "
                          "exceeds 1e-09 at dim=12; raise --dim\n")
        assert not out.exists()

    def test_zero_probability_herald_is_numerical_error(self, capsys):
        code, _, stderr = run(capsys, "state", "--alpha", "0", "--r2", "1",
                              "--k", "1")
        assert code == 3
        assert "numerical" in stderr

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["state", "--alpha", "1", "--r2", "0.3", "--frequency", "5"])
        assert exc.value.code == 2


class TestSweep:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--metric", "var_x_db",
                         "--axis", "r2:0.1:0.9:5", "--axis", "alpha:0.5:1.5:3",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert lines[0] == "r2,alpha,var_x_db,success_prob"
        assert len(lines) == 1 + 5 * 3

    def test_integer_k_axis_column(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--metric", "success_prob",
                         "--axis", "k:1:2:2", "--r2", "0.4", "--out", str(out))
        assert code == 0
        rows = out.read_text().rstrip("\n").split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "2"]

    def test_byte_identical_repeats(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--metric", "g2", "--axis", "r2:0.05:0.95:9"]
        monkeypatch.setenv("CATALYSIS_THREADS", "4")
        assert main(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("CATALYSIS_THREADS", "1")
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_axis_spec(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "sweep", "--metric", "g2",
                              "--axis", "r2:0:1", "--out",
                              str(tmp_path / "x.csv"))
        assert code == 2
        assert "axis" in stderr

    @pytest.mark.parametrize("metric", ["var_x_db", "var_p_db", "success_prob"])
    @pytest.mark.parametrize("flags, code, message", [
        (["--alpha", "40", "--axis", "r2:0.1:0.9:3"], 2,
         "|alpha|^2 = (40)^2 exceeds 1030"),
        (["--alpha", "27", "--axis", "r2:0.1:0.99:3"], 3,
         "herald outcome has zero probability"),
    ])
    def test_k1_metrics_follow_the_state_path_contract(self, tmp_path, capsys,
                                                       metric, flags, code,
                                                       message):
        """These came from k = 1 closed forms and exited 0 where g2 is refused,
        printing variances next to success_prob = 0."""
        out = tmp_path / "s.csv"
        argv = ["sweep", *flags, "--k", "1", "--out", str(out)]
        g2_code, _, g2_stderr = run(capsys, *argv, "--metric", "g2")
        got, stdout, stderr = run(capsys, *argv, "--metric", metric)
        assert got == g2_code == code
        assert stderr == g2_stderr and message in stderr
        assert stdout == "" and not out.exists()

    def test_large_alpha_times_k_prints_the_exact_herald_probability(
            self, tmp_path, capsys):
        """The windowed state's binomial sums cancelled here and printed
        success_prob = 1.01653682e+09 at r2 = 0.4 and 1.04e-3 at 0.5, with
        exit 0; 60-digit mpmath gives 4.72296455e-3 and 2.29110710e-4."""
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--metric", "g2", "--axis",
                         "r2:0.4:0.6:3", "--alpha", "20", "--k", "60",
                         "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
        assert [row[2] for row in rows[:2]] == ["4.72296455e-03", "2.29110710e-04"]
        assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)

    @pytest.mark.parametrize("argv, digest", [
        (["--metric", "var_x_db", "--axis", "r2:0.05:0.95:50"],
         "5352f1f587e32fc1934904a0e5a32ecda571bc52cf76c9f414b71f704c7a3f8c"),
        (["--metric", "g2", "--axis", "r2:0.01:0.99:99", "--alpha", "1.0536"],
         "12fc7787f49da9fce1f9129d80bdee3b456de51bb6c22d8fce884228539ab2f1"),
    ])
    def test_readme_sweep_bytes_are_pinned(self, tmp_path, capsys, argv, digest):
        """Hashed from the windowed state path; the kernel prints the same
        bytes."""
        out = tmp_path / "s.csv"
        assert run(capsys, "sweep", *argv, "--out", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fidelity_needs_target(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--metric", "fidelity_to_target",
                         "--axis", "r2:0:1:3", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestWigner:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, stdout, _ = run(capsys, "wigner", "--alpha", "1", "--r2", "0.332",
                              "--grid", "21", "--out", str(out))
        assert code == 0
        assert stdout.startswith("integral = ")
        lines = out.read_text().rstrip("\n").split("\n")
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 21 * 21

    def test_pgm_output(self, tmp_path, capsys):
        out = tmp_path / "w.pgm"
        code, _, _ = run(capsys, "wigner", "--alpha", "1.35", "--r2", "0.77",
                         "--grid", "31", "--format", "pgm", "--out", str(out))
        assert code == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n31 31\n65535\n")

    def test_extent_spec(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, _ = run(capsys, "wigner", "--alpha", "0.5", "--r2", "0.2",
                         "--grid=-3:3:13", "--out", str(out))
        assert code == 0
        first_x = float(out.read_text().split("\n")[1].split(",")[0])
        # first cell centre of 13 cells spanning [-3, 3]
        assert first_x == pytest.approx(-3 + 0.5 * 6 / 13, abs=1e-7)


class TestJoint:
    def test_scan_rows(self, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        code, _, _ = run(capsys, "joint", "--alpha2", "1.11",
                         "--r2", "0.4:0.6:3", "--k", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert lines[0] == "r2,i,j,p"
        assert (len(lines) - 1) % 3 == 0

    def test_single_point_and_probability_sum(self, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        code, _, _ = run(capsys, "joint", "--alpha2", "1.0", "--r2", "0.5",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().rstrip("\n").split("\n")[1:]
        total = sum(float(r.split(",")[3]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_readme_command_bytes_are_pinned(self, tmp_path, capsys):
        """The README joint command's CSV, hashed before the loss and click
        matrices moved to the photon-by-photon chain."""
        out = tmp_path / "joint.csv"
        code, _, _ = run(capsys, "joint", "--alpha2", "1.11", "--r2", "0.3:0.7:41",
                         "--eta1", "0.1", "--eta2", "0.1", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "23bc52f69a5aeea3b63b4149443b490d24b90d427657c464b90b793a33f885a7")

    @pytest.mark.parametrize("alpha2, bins", [("80", "200"), ("200", "16")])
    def test_many_photons_into_many_bins(self, tmp_path, capsys, alpha2, bins):
        """float(bins) ** n overflowed inside the dim + k <= 1030 gate."""
        out = tmp_path / "joint.csv"
        code, _, stderr = run(capsys, "joint", "--alpha2", alpha2, "--r2", "0.5",
                              "--bins", bins, "--out", str(out))
        assert code == 0, stderr
        rows = [r.split(",") for r in out.read_text().rstrip("\n").split("\n")[1:]]
        assert len(rows) == (int(bins) + 1) ** 2
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-8)

    def test_r2_scan_blocks_each_sum_to_one(self, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        code, _, _ = run(capsys, "joint", "--alpha2", "200", "--r2", "0.2:0.8:3",
                         "--bins", "16", "--out", str(out))
        assert code == 0
        totals = {}
        for r in out.read_text().rstrip("\n").split("\n")[1:]:
            r2, _, _, p = r.split(",")
            totals[r2] = totals.get(r2, 0.0) + float(p)
        assert list(totals) == ["2.00000000e-01", "5.00000000e-01", "8.00000000e-01"]
        assert all(t == pytest.approx(1.0, abs=1e-8) for t in totals.values())


class TestOptimize:
    def test_end_to_end(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        assert main(["state", "--alpha", "1", "--r2", "0.37", "--k", "1",
                     "--out", str(target)]) == 0
        out = tmp_path / "result.json"
        code, stdout, _ = run(capsys, "optimize", "--target", str(target),
                              "--stages", "1", "--k", "1", "--alpha", "1",
                              "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"stages", "fidelity", "success_prob",
                            "evaluations", "stagnated"}
        assert doc["fidelity"] > 1 - 1e-8
        assert doc["stages"][0] == pytest.approx(0.37, abs=1e-4)

    def test_free_alpha_reports_alpha(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        main(["state", "--alpha", "1.2", "--r2", "0.4", "--k", "1",
              "--out", str(target)])
        code, stdout, _ = run(capsys, "optimize", "--target", str(target),
                              "--stages", "1", "--k", "1", "--alpha", "1",
                              "--alpha-bounds", "0.8:1.6", "--tol", "1e-5")
        assert code == 0
        doc = json.loads(stdout.strip().split("\n")[-1])
        assert doc["alpha"] == pytest.approx(1.2, abs=1e-2)

    def test_probe_with_dead_herald_scores_zero(self, tmp_path, capsys):
        """A line-search probe can put one stage at r2 = 1 while another
        zeroes the only photon number it passes; the fit must go on."""
        target = tmp_path / "s.json"
        assert main(["state", "--alpha", "1.35", "--r2", "0.77", "--k", "1",
                     "--out", str(target)]) == 0
        code, stdout, stderr = run(capsys, "optimize", "--target", str(target),
                                   "--stages", "3", "--k", "1,1,1",
                                   "--alpha", "1.0")
        assert code == 0, stderr
        doc = json.loads(stdout.strip().split("\n")[-1])
        assert 0.0 < doc["fidelity"] <= 1.0
        assert doc["success_prob"] > 0.0

    def test_unreadable_target(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "optimize", "--target",
                              str(tmp_path / "missing.json"), "--stages", "1",
                              "--k", "1", "--alpha", "1")
        assert code == 2
        assert "missing.json" in stderr


class TestTopLevel:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_repeated_state_runs_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["state", "--alpha", "1.35", "--r2", "0.77", "--k", "1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestWignerBytes:
    """README Wigner commands and a wigner_min sweep over k = 1..3.  The PGM
    and the sweep keep the hashes of the per-cell recurrence.  The CSV was
    re-hashed when the sums moved onto the grid's distinct radii: 11,257 of
    its 40,401 cells print differently, each by at most 1e-16, all of them
    below 3e-8 in magnitude.  It was re-hashed again when the coefficient
    rows moved from the binomial sum to the recurrence: 10,971 cells, each
    by at most 1e-16, all below 2.8e-8 in magnitude; and again when the
    heralded states moved to the standard-library kernel: 10,880 cells,
    each by at most 1e-16, all below 2.8e-8 in magnitude; and again when
    the cell centres became exactly symmetric and real states moved to the
    half plane p >= 0: 11,080 cells, each by at most 1e-16, all below 2.8e-8
    in magnitude, with no x or p cell changed."""

    @pytest.mark.parametrize("entry", ["main", "process"])
    @pytest.mark.parametrize("argv, digest", [
        (["wigner", "--alpha", "1", "--r2", "0.332", "--grid", "201",
          "--format", "csv"],
         "3f365b4c4b32294b7847681799df5914356b9ccada44a1cd74306badf2815088"),
        (["wigner", "--alpha", "2", "--r2", "0.5", "--k", "2", "--grid=-5:5:201",
          "--format", "pgm"],
         "0e071d1a50bd2be098310819e746beba97c67a7573917de411ef42a8f658736a"),
        (["sweep", "--metric", "wigner_min", "--axis", "alpha:0.5:2.5:9",
          "--axis", "k:1:3:3", "--r2", "0.4"],
         "eecafdf9b9899c786a369d306da2df4e10e899f495a5353f60d894f2c33d1099"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, argv, digest, entry):
        """Through `main` in process, and through the process entry as
        `python -m photon_catalysis.cli`."""
        out = tmp_path / "out"
        if entry == "main":
            code, _, _ = run(capsys, *argv, "--out", str(out))
        else:
            code = subprocess.run(
                [sys.executable, "-m", "photon_catalysis.cli", *argv, "--out",
                 str(out)], env=_env(), capture_output=True, timeout=120).returncode
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestWignerCsvStream:
    def test_csv_adds_little_to_the_grid_peak(self, tmp_path, capsys):
        """The CSV is written a line at a time, so writing a 201^2 grid's
        1.9 MB file adds at most 0.25 MB to the traced peak of computing
        the grid (the whole text held at once added 0.48 MB)."""
        from photon_catalysis.analysis import wigner
        from photon_catalysis.catalysis import (BeamSplitter, CatalysisConfig,
                                                pcoc_state)

        argv = ["wigner", "--alpha", "2.7", "--r2", "0.3", "--k", "2",
                "--grid", "201", "--format", "csv", "--out",
                str(tmp_path / "w.csv")]
        assert main(argv) == 0
        state, _ = pcoc_state(CatalysisConfig(2.7, BeamSplitter(0.3), 2))
        grid = traced_peak(lambda: wigner(state))
        command = traced_peak(lambda: main(argv))
        capsys.readouterr()
        assert command <= grid + 250_000


class TestRefusedBeforeAnyWork:
    """A scan or search with a refused point exits 2 before it builds any
    state, grid, table or probe; each of these computed for up to 2.6 s
    first."""

    KERNELS = ("heralded_frame", "wigner", "two_mode_output",
               "_displaced_columns", "_herald")

    @classmethod
    def count_kernel_calls(cls, monkeypatch) -> list:
        """Wrap each kernel in every module that binds it; returns the list
        of the names called."""
        from photon_catalysis import (analysis, catalysis, core, design,
                                      detector, frame)

        calls = []
        for module in (analysis, catalysis, core, design, detector, frame):
            for name in cls.KERNELS:
                if hasattr(module, name):
                    def counted(*args, real=getattr(module, name), name=name,
                                **kwargs):
                        calls.append(name)
                        return real(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--metric", "fidelity_to_target", "--axis",
          "r2:0.1:1.5:9999", "--alpha", "2.7", "--k", "3"], "outside [0, 1]"),
        (["sweep", "--metric", "wigner_min", "--axis", "r2:0.1:1.5:7",
          "--alpha", "2.7", "--k", "3"], "outside [0, 1]"),
        (["joint", "--alpha2", "7", "--k", "2", "--bins", "16",
          "--r2", "0.1:1.5:6900"], "outside [0, 1]"),
        (["joint", "--alpha2", "1", "--k", "0", "--bins", "1",
          "--r2", "0.1:1.5:1200"], "outside [0, 1]"),
        (["optimize", "--stages", "1", "--k", "1", "--alpha", "1",
          "--alpha-bounds", "0.5:40"], "lower --alpha-bounds or --k"),
    ])
    def test_nothing_is_computed(self, tmp_path, capsys, monkeypatch, argv,
                                 message):
        target, out = tmp_path / "t.json", tmp_path / "o.csv"
        assert main(["state", "--alpha", "1.35", "--r2", "0.77", "--k", "1",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        if "fidelity_to_target" in argv or argv[0] == "optimize":
            argv = argv + ["--target", str(target)]
        if argv[0] != "optimize":
            argv = argv + ["--out", str(out)]
        calls = self.count_kernel_calls(monkeypatch)
        code, stdout, stderr = run(capsys, *argv)
        assert (code, calls, stdout) == (2, [], "")
        assert message in stderr and not out.exists()

    @pytest.mark.parametrize("flags, size, lower", [
        (["--alpha", "30"], "dim + k = 1150", "--alpha or --k"),
        (["--alpha", "1", "--alpha-bounds", "0.5:40"], "|alpha|^2 = (40)^2",
         "--alpha-bounds or --k"),
        (["--alpha", "1", "--alpha-bounds=-31:2"], "dim + k = 1219",
         "--alpha-bounds or --k"),
    ])
    def test_optimize_window_names_its_own_flags(self, tmp_path, capsys,
                                                  flags, size, lower):
        """optimize has neither --alpha2 nor --dim; its largest window, at
        the farther end of --alpha-bounds, is refused before any probe."""
        target = tmp_path / "t.json"
        assert main(["state", "--alpha", "1.35", "--r2", "0.77", "--k", "1",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        code, stdout, stderr = run(capsys, "optimize", "--target", str(target),
                                   "--stages", "2", "--k", "1,2", *flags)
        assert (code, stdout) == (2, "")
        assert stderr == (f"error: {size} exceeds 1030, the largest window "
                          f"side dim + k; lower {lower}\n")


class TestInputGates:
    """Inputs that used to hang, exhaust memory or fail late exit 2 at once."""

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_optimize_rejects_tolerance(self, tmp_path, capsys, tol):
        target = tmp_path / "t.json"
        assert main(["state", "--alpha", "1", "--r2", "0.37",
                     "--out", str(target)]) == 0
        code, _, stderr = run(capsys, "optimize", "--target", str(target),
                              "--stages", "1", "--k", "1", "--alpha", "1",
                              "--tol", tol)
        assert code == 2
        assert "tol" in stderr

    @pytest.mark.parametrize("bounds", ["2:1", "1:1", "nan:2", "1:inf"])
    def test_optimize_rejects_alpha_bounds(self, tmp_path, capsys, bounds):
        """Reversed bounds used to skip the golden section on alpha silently."""
        target = tmp_path / "t.json"
        assert main(["state", "--alpha", "1", "--r2", "0.37",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        code, stdout, stderr = run(capsys, "optimize", "--target", str(target),
                                   "--stages", "1", "--k", "1", "--alpha", "1",
                                   f"--alpha-bounds={bounds}")
        assert code == 2
        assert "--alpha-bounds" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_state_rejects_non_finite_alpha(self, capsys, alpha):
        code, _, stderr = run(capsys, "state", f"--alpha={alpha}", "--r2", "0.5")
        assert code == 2
        assert "--alpha" in stderr

    def test_joint_rejects_non_finite_alpha2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "joint", "--alpha2", "nan", "--r2", "0.5",
                              "--out", str(tmp_path / "j.csv"))
        assert code == 2
        assert "--alpha2" in stderr

    @pytest.mark.parametrize("argv", [
        ["state", "--alpha", "1e6", "--r2", "0.5"],
        ["state", "--alpha", "30", "--r2", "0.5"],
        ["state", "--alpha", "1", "--r2", "0.5", "--dim", "5000"],
        ["joint", "--alpha2", "900", "--r2", "0.5", "--out", "unused.csv"],
    ])
    def test_oversized_window_rejected(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert "--dim" in stderr and "--alpha" in stderr
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["wigner", "--alpha", "1", "--r2", "0.5", "--grid", "201.5"], "--grid"),
        (["sweep", "--metric", "g2", "--axis", "alpha:1:2:2.5"], "--axis"),
        (["joint", "--alpha2", "-1", "--r2", "0.5"], "--alpha2"),
    ])
    def test_malformed_numbers_are_named(self, tmp_path, capsys, argv, flag):
        """Each printed Python's bare int() or math domain error."""
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert flag in stderr and "int()" not in stderr and "domain" not in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["state", "--alpha", "1e200", "--r2", "0.5"],
        ["state", "--alpha", "1e200", "--r2", "0.5", "--dim", "30"],
        ["optimize", "--stages", "1", "--k", "1", "--alpha", "1",
         "--alpha-bounds", "1e-300:1e300"],
    ])
    def test_overflowing_alpha_is_a_usage_error(self, tmp_path, capsys, argv):
        """|alpha|^2 overflowed default_dim and exited 3 "(34, 'Numerical
        result out of range')"."""
        target = tmp_path / "t.json"
        assert main(["state", "--alpha", "1", "--r2", "0.37",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        if argv[0] == "optimize":
            argv = argv + ["--target", str(target)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert "--alpha" in stderr and "1030" in stderr
        assert stdout == ""

    def test_tolerance_below_rounding_finishes(self, tmp_path):
        """The golden section looped forever once its bracket was a few ulps
        wide and still wider than --tol 1e-17."""
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        cli = [sys.executable, "-m", "photon_catalysis.cli"]
        subprocess.run(cli + ["state", "--alpha", "1", "--r2", "0.37", "--k", "1",
                              "--out", "st.json"], env=env, cwd=tmp_path,
                       capture_output=True, check=True, timeout=10)
        proc = subprocess.run(
            cli + ["optimize", "--target", "st.json", "--stages", "1", "--k", "1",
                   "--alpha", "1", "--tol", "1e-17"], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["stages"][0] == pytest.approx(0.37, abs=1e-6)

    def test_state_reports_wigner_coverage(self, capsys):
        argv = ["state", "--alpha", "3.5", "--r2", "0.5"]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0
        assert stderr.startswith("warning: grid covers less than")
        names = [line.split(" = ")[0] for line in stdout.strip().split("\n")]
        assert names == ["success_prob", "var_x_db", "var_p_db", "g2",
                         "wigner_min"]
        code, _, stderr = run(capsys, "state", "--alpha", "1", "--r2", "0.5")
        assert code == 0 and stderr == ""

    def test_wigner_min_sweep_reports_coverage_once(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, stderr = run(capsys, "sweep", "--metric", "wigner_min",
                              "--axis", "alpha:3:3.5:2", "--r2", "0.5",
                              "--out", str(out))
        assert code == 0
        _, _, state_stderr = run(capsys, "state", "--alpha", "3.5", "--r2", "0.5")
        assert stderr == state_stderr
        assert stderr.count("\n") == 1
        code, _, stderr = run(capsys, "sweep", "--metric", "wigner_min",
                              "--axis", "alpha:0.5:1:2", "--r2", "0.5",
                              "--out", str(out))
        assert code == 0 and stderr == ""

    @pytest.mark.parametrize("grid", ["nan:5:21", "-inf:inf:21", "-5:nan:21",
                                      "-1e76:1e76:3"])
    def test_wigner_rejects_non_finite_grid(self, tmp_path, capsys, grid):
        """Each used to exit 0 with integral = nan and a CSV of nan."""
        out = tmp_path / "w.csv"
        code, stdout, stderr = run(capsys, "wigner", "--alpha", "1", "--r2", "0.5",
                                   f"--grid={grid}", "--out", str(out))
        assert code == 2
        assert "--grid" in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("grid", ["1" + "0" * 180, "-5:5:" + "1" + "0" * 180])
    def test_wigner_grid_of_any_point_count_is_a_usage_error(
            self, tmp_path, capsys, grid):
        """A count of 10^180 points exited 3, "integer division result too
        large for a float", from the work estimate."""
        out = tmp_path / "w.csv"
        code, stdout, stderr = run(capsys, "wigner", "--alpha", "1", "--r2", "0.3",
                                   f"--grid={grid}", "--out", str(out))
        assert code == 2
        assert "points; lower --grid" in stderr
        assert stdout == "" and not out.exists()

    HUGE = "9" * 400

    @pytest.mark.parametrize("argv, flag", [
        (["state", "--alpha", "1", "--r2", "0.5", "--k", HUGE], "--k"),
        (["state", "--alpha", "1", "--r2", "0.5", "--dim", HUGE], "--dim"),
        (["sweep", "--metric", "g2", "--axis", "r2:0.1:0.9:3", "--k", HUGE],
         "--k"),
        (["sweep", "--metric", "fidelity_to_target", "--axis", "r2:0.1:0.9:3",
          "--k", HUGE], "--k"),
        (["sweep", "--metric", "wigner_min", "--axis", "r2:0.1:0.9:3",
          "--k", HUGE], "--k"),
        (["wigner", "--alpha", "1", "--r2", "0.5", "--k", HUGE], "--k"),
        (["joint", "--alpha2", "1", "--r2", "0.5", "--k", HUGE], "--k"),
        (["optimize", "--stages", "1", "--alpha", "1", "--k", HUGE], "--k"),
    ])
    def test_k_or_dim_past_the_float_range_is_a_usage_error(
            self, tmp_path, capsys, argv, flag):
        """A 400-digit --k exited 3, "numerical gate: int too large to convert
        to float", from default_dim's float sum or the fidelity budget's
        message; a 400-digit --dim exited 2 printing dim + k in full."""
        if "fidelity_to_target" in argv or argv[0] == "optimize":
            target = tmp_path / "t.json"
            assert main(["state", "--alpha", "1", "--r2", "0.37",
                         "--out", str(target)]) == 0
            capsys.readouterr()
            argv = argv + ["--target", str(target)]
        out = tmp_path / "o.csv"
        if argv[0] != "optimize":
            argv = argv + ["--out", str(out)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.startswith(f"error: {flag} exceeds 1030")
        assert len(stderr) < 200
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["state", "--alpha", "1", "--r2", "0.5", "--dim=-" + "9" * 26],
        ["state", "--alpha", "1", "--r2", "0.5", "--dim", "0"],
        ["wigner", "--alpha", "1", "--r2", "0.5", "--dim=-5"],
        ["joint", "--alpha2", "1", "--r2", "0.5", "--dim=-5"],
    ])
    def test_dim_below_one_is_refused_naming_it(self, tmp_path, capsys, argv):
        """A --dim below 1 was refused as "k=1 must be below dim=-99...9",
        printing every digit and naming no flag."""
        out = tmp_path / "o.csv"
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stderr == "error: --dim must be at least 1\n"
        assert stdout == "" and not out.exists()

    def test_wigner_min_sweep_checks_each_grid_before_building(
            self, tmp_path, capsys, monkeypatch):
        """Within the sweep's 10^10 cell-steps (4.5e9), the dim-352 point
        needs more than one grid's 2e9: the sweep built both states, then
        the grid's own budget check refused it naming --dim and --grid,
        which sweep does not have."""
        from photon_catalysis import catalysis

        def refuse(*args):
            raise AssertionError("the sweep is refused before any state")

        monkeypatch.setattr(catalysis, "pcoc_state", refuse)
        out = tmp_path / "s.csv"
        code, stdout, stderr = run(capsys, "sweep", "--metric", "wigner_min",
                                   "--axis", "alpha:14:15:2", "--k", "1",
                                   "--out", str(out))
        assert code == 2
        assert stderr.startswith("error: wigner_min sweep point at dim 352 ")
        assert "--axis" in stderr and "--alpha" in stderr and "--k" in stderr
        assert "--dim" not in stderr and "--grid" not in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--metric", "g2", "--axis", "k:0:inf:3"], "--axis k"),
        (["sweep", "--metric", "g2", "--axis", "alpha:0:inf:3"], "--axis alpha"),
        (["sweep", "--metric", "g2", "--axis", "r2:nan:0.5:3"], "--axis r2"),
        (["sweep", "--metric", "g2", "--axis", "r2:-1e308:1e308:3"], "--axis r2"),
        (["joint", "--alpha2", "1", "--r2", "0.1:inf:3"], "--r2"),
        (["joint", "--alpha2", "1", "--r2=-inf:0.5:3"], "--r2"),
        (["joint", "--alpha2", "1", "--r2", "nan"], "--r2")])
    def test_non_finite_scan_ends_name_their_flag(self, tmp_path, capsys, argv,
                                                  flag):
        """They printed "cannot convert float NaN to integer", "must be
        finite, got nan" and "r2=nan outside [0, 1]"."""
        out = tmp_path / "s.csv"
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert f"error: {flag} " in stderr and "finite" in stderr
        assert stdout == "" and not out.exists()

    def test_state_over_the_wigner_budget_exits_at_once(self, tmp_path):
        """dim 1015 inside the window gate: the 201^2 recurrence ran past 20 s."""
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", "state", "--alpha", "28",
             "--r2", "0.5"], env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 2
        assert "--alpha/--dim or --grid" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, spec", [
        (["optimize", "--stages", "1", "--k", "x", "--alpha", "1"],
         "--k spec 'x'; expected K1,K2,..."),
        (["optimize", "--stages", "1", "--k", "1", "--alpha", "1",
          "--alpha-bounds", "1:2:3"], "--alpha-bounds spec '1:2:3'; expected LO:HI"),
        (["optimize", "--stages", "1", "--k", "1", "--alpha", "1",
          "--alpha-bounds", "a:2"], "--alpha-bounds spec 'a:2'; expected LO:HI"),
        (["joint", "--alpha2", "1", "--r2", "abc"],
         "--r2 spec 'abc'; expected VALUE|LO:HI:STEPS"),
        (["joint", "--alpha2", "1", "--r2", "0.1:0.5"],
         "--r2 spec '0.1:0.5'; expected VALUE|LO:HI:STEPS"),
    ])
    def test_parse_errors_name_flag_and_form(self, tmp_path, capsys, argv, spec):
        """Each printed Python's bare int(), float() or unpacking error, and
        a malformed --r2 scan quoted an internal 'r2:' prefix."""
        target, out = tmp_path / "t.json", tmp_path / "out"
        if argv[0] == "optimize":
            assert main(["state", "--alpha", "1", "--r2", "0.37",
                         "--out", str(target)]) == 0
            capsys.readouterr()
            argv = argv + ["--target", str(target)]
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert spec in stderr and "'r2:" not in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("bins", ["1000", "100000"])
    def test_joint_refuses_bins_before_allocating(self, tmp_path, bins):
        """--bins 100000 exited 1 with numpy's traceback for a 74.5 GiB
        (bins + 1)^2 table; run under a 2 GiB address-space cap."""
        resource = pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", "joint", "--alpha2",
             "1", "--r2", "0.5:0.6:2", "--bins", bins, "--out", "j.csv"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
            preexec_fn=cap)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: --bins {bins} exceeds 999: the joint table "
                               f"has (bins + 1)^2 cells per r2 point, at most 10^6\n")
        assert proc.stdout == "" and not (tmp_path / "j.csv").exists()


    @pytest.mark.parametrize("argv, message", [
        (["joint", "--alpha2", "1", "--r2", "0.5", "--bins", "0"],
         "--bins 0 must be an integer >= 1"),
        (["joint", "--alpha2", "1", "--r2", "0.5", "--eta1", "2"],
         "--eta1 2.0 outside [0, 1]"),
        (["joint", "--alpha2", "1", "--r2", "0.5", "--eta2", "2"],
         "--eta2 2.0 outside [0, 1]"),
        (["joint", "--alpha2", "1", "--r2", "0.5", "--eta2", "nan"],
         "--eta2 nan outside [0, 1]"),
        (["sweep", "--metric", "g2", "--axis", "r2:0:1:1"],
         "--axis spec 'r2:0:1:1' has 1 steps; a scan needs integer steps >= 2"),
        (["joint", "--alpha2", "1", "--r2", "0.5:0.6:1"],
         "--r2 spec '0.5:0.6:1' has 1 steps; a scan needs integer steps >= 2"),
        (["optimize", "--stages", "2", "--k", "1", "--alpha", "1"],
         "--k has 1 entries for --stages 2; expected K1,K2,..."),
        (["optimize", "--stages", "0", "--k", "1", "--alpha", "1"],
         "--stages 0 must be an integer >= 1"),
    ])
    def test_message_names_flag_and_form(self, tmp_path, capsys, argv, message):
        """The engine's checks printed "bins must be >= 1", "eta=2.0 outside
        [0, 1]" for either arm, "each axis needs at least 2 steps" and "one
        catalyst photon number per stage required"."""
        target, out = tmp_path / "t.json", tmp_path / "out"
        if argv[0] == "optimize":
            assert main(["state", "--alpha", "1", "--r2", "0.37",
                         "--out", str(target)]) == 0
            capsys.readouterr()
            argv = argv + ["--target", str(target)]
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert message in stderr
        assert stdout == "" and not out.exists()


    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--metric", "g2", "--axis", "r2:0:1:2000000"], "--axis"),
        (["sweep", "--metric", "g2", "--axis", "r2:0:1:101",
          "--axis", "alpha:0:1:100"], "--axis"),
        (["sweep", "--metric", "wigner_min", "--axis", "r2:0.01:0.99:800"],
         "--axis"),
        (["sweep", "--metric", "wigner_min", "--axis", "alpha:13:13.9:6",
          "--r2", "0.5"], "--axis"),
        (["joint", "--alpha2", "1", "--r2", "0.5:0.6:100000"], "--r2"),
        (["joint", "--alpha2", "1", "--r2", "0.5:0.6:3", "--bins", "999"],
         "--r2"),
        (["joint", "--alpha2", "700", "--r2", "0.1:0.9:100"], "--r2"),
        (["joint", "--alpha2", "1", "--k", "400", "--r2", "0.1:0.9:2"], "--r2"),
    ])
    def test_oversized_scan_refused_before_building(self, tmp_path, argv, flag):
        """The first sweep and the first joint scan ran past a 10 s timeout."""
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", *argv, "--out", "o.csv"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {flag} scan of ") or \
            proc.stderr.startswith("error: wigner_min sweep of ")
        assert flag in proc.stderr
        assert proc.stdout == "" and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("k, fits", [(0, 38095), (1, 29832)])
    def test_joint_step_work_boundary(self, tmp_path, capsys, monkeypatch, k,
                                      fits):
        """A step at the default window (dim 25) counts (k + 1)(25 + k)^2
        table cells plus 2,000 for its fixed cost: 2,625 at k = 0, so 38,095
        steps fit 10^8 and one more does not, and 3,352 at k = 1, so 29,832
        fit.  The table cells alone admitted 160,000 steps at k = 0, which
        took 34-36 s.  The steps are counted, not timed: no table is built.
        Both scans are far above the standard-library kernel's work bound,
        so they take the (patched) numpy side."""
        from photon_catalysis import detector

        def refuse(*args):
            raise AssertionError("a budget-edge scan took the stdlib kernel")

        table = detector.JointClickDistribution(np.eye(2) / 2)
        monkeypatch.setattr(detector, "joint_output_distribution",
                            lambda *args: table)
        monkeypatch.setattr(detector, "_joint_tables", refuse)
        out = tmp_path / "j.csv"
        for steps in (fits, fits + 1):
            code, _, stderr = run(capsys, "joint", "--alpha2", "1", "--k", str(k),
                                  "--r2", f"0.1:0.9:{steps}", "--bins", "1",
                                  "--out", str(out))
            if steps == fits:
                assert code == 0, stderr
                assert len(out.read_text().splitlines()) == 1 + 4 * steps
            else:
                assert code == 2
                assert stderr.startswith(f"error: --r2 scan of {steps} steps ")

    def test_fidelity_sweep_over_its_budget_exits_at_once(self, tmp_path):
        """10^4 points at k = 480 against a 25-level target ran for about
        a minute: (target levels)(k + 1) steps a point had no budget."""
        target = tmp_path / "t.json"
        target.write_text(photon_catalysis.state_to_json(
            photon_catalysis.make_fock(3, 25)))
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", "sweep", "--metric",
             "fidelity_to_target", "--axis", "r2:0.01:0.99:10000", "--k", "480",
             "--target", str(target), "--out", "o.csv"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: fidelity_to_target sweep of 10000 "
                                      "points needs 1.21e+08 recurrence steps")
        assert "--axis" in proc.stderr
        assert proc.stdout == "" and not (tmp_path / "o.csv").exists()

    def test_single_joint_value_at_k_500_is_quick(self, tmp_path):
        """The binomial two-mode sums took 29 s for this one r2 point."""
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", "joint", "--alpha2", "1",
             "--k", "500", "--r2", "0.5", "--out", "j.csv"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "j.csv").read_text().splitlines()[1:]
        assert len(rows) == 81
        assert sum(float(r.split(",")[3]) for r in rows) == pytest.approx(1.0, abs=1e-8)

    def test_single_joint_value_is_not_a_scan(self, tmp_path, capsys):
        out = tmp_path / "j.csv"
        code, _, _ = run(capsys, "joint", "--alpha2", "1", "--k", "120",
                         "--r2", "0.5", "--out", str(out))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    @pytest.mark.parametrize("text, problem", [
        ('{"amplitudes": [1, 2]}', "dim must be an integer >= 1, got None"),
        ('{"amplitudes": []}', "dim must be an integer >= 1"),
        ('{"amplitudes": [[1,0],[1,0]]}', "dim must be an integer >= 1"),
        ('{"amplitudes": [[NaN,0]]}', "dim must be an integer >= 1"),
        ("[1,2]", "expected a JSON object"),
        ('{"amplitudes": [["a",0]]}', "dim must be an integer >= 1"),
        ("", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"dim": true, "amplitudes": [[1,0]]}', "got True"),
        ('{"dim": 2, "amplitudes": [[1,0]]}', "a list of dim = 2 [re, im] pairs"),
        ('{"dim": 1, "amplitudes": [1]}', "a list of dim = 1 [re, im] pairs"),
        ('{"dim": 1, "amplitudes": [[NaN,0]]}', "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [["a",0]]}', "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [[1e999,0]]}', "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [[1' + "0" * 400 + ',0]]}',
         "must be finite numbers"),
        ('{"dim": 1, "amplitudes": [[1,0]], "tail_mass": "0"}',
         "must be finite numbers"),
        ('{"dim": 2, "amplitudes": [[2, 0], [0, 0]], "tail_mass": 0}',
         "amplitudes must be normalized, with squared moduli summing to 1 "
         "within 1e-10, got 4"),
        ('{"dim": 2, "amplitudes": [[0, 0], [0, 0]], "tail_mass": 0}',
         "amplitudes must be normalized, with squared moduli summing to 1 "
         "within 1e-10, got 0"),
    ])
    def test_malformed_target_names_flag_and_file(self, tmp_path, capsys,
                                                  command, text, problem):
        """Each exited 1 with a TypeError or KeyError traceback, or 2 with
        json's bare message; an unnormalized target exited 0, printing
        fidelities above 1 (up to 3.97 at alpha 0.5), or 0 for all zeros."""
        target, out = tmp_path / "t.json", tmp_path / "out"
        target.write_text(text)
        argv = (["optimize", "--stages", "1", "--k", "1", "--alpha", "1"]
                if command == "optimize" else
                ["sweep", "--metric", "fidelity_to_target", "--axis",
                 "r2:0.1:0.9:3"])
        code, stdout, stderr = run(capsys, *argv, "--target", str(target),
                                   "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"error: --target {target}: ")
        assert problem in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("alpha2, k", [("300", "30"), ("400", "100")])
    def test_joint_at_large_alpha_k_sums_to_one(self, tmp_path, capsys,
                                               alpha2, k):
        """The binomial two-mode sums cancelled here (the table summed to
        3.6e10 and 2.7e78), which exited 3 as a numerical gate."""
        out = tmp_path / "j.csv"
        code, stdout, stderr = run(capsys, "joint", "--alpha2", alpha2, "--k", k,
                                   "--r2", "0.5", "--out", str(out))
        assert (code, stdout, stderr) == (0, "", "")
        blocks = {}
        for line in out.read_text().splitlines()[1:]:
            r2, _, _, p = line.split(",")
            blocks[r2] = blocks.get(r2, 0.0) + float(p)
        # each 9-digit cell is rounded to 5e-9 of itself
        assert list(blocks) == ["5.00000000e-01"]
        assert blocks["5.00000000e-01"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("flags, message", [
        (["--alpha2", "1.11", "--dim", "12"],
         "truncation gate: coherent tail mass 2.630e-09 exceeds 1e-09"),
        (["--alpha2", "1.11", "--dim", "13"],
         "truncation gate: coherent tail mass 2.231e-10 beyond --dim 13 "
         "exceeds 1e-10"),
    ])
    def test_joint_window_tail_is_a_truncation_gate(self, tmp_path, capsys,
                                                    flags, message):
        """At --dim 13 the input tail, 2.2e-10, passes the 1e-9 coherent gate
        but not the table's 1e-10 norm check; it exited 3 as cancellation."""
        out = tmp_path / "j.csv"
        got, stdout, stderr = run(capsys, "joint", *flags, "--r2", "0.5",
                                  "--out", str(out))
        assert got == 2
        assert stderr.startswith(f"error: {message}")
        assert stdout == "" and not out.exists()

    def test_joint_window_past_the_tail_is_unchanged(self, tmp_path, capsys):
        """--dim 14 keeps the tail under 1e-10.  Hashed from the displaced-
        frame table: against the binomial sums, cell (7, 7), whose two
        catalyst paths cancel exactly, moved from one rounding residue to
        another (4.24328125e-45 to 4.24582246e-47).  Re-hashed when small
        tables moved to the standard-library kernel, whose sum of the two
        paths cancels to exactly 0: cell (7, 7) now prints 0.00000000e+00,
        and no other cell moved."""
        out = tmp_path / "j.csv"
        code, _, stderr = run(capsys, "joint", "--alpha2", "1.11", "--r2", "0.5",
                              "--dim", "14", "--out", str(out))
        assert code == 0, stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba18de8fd6096baea9a743f987efe75670a65ed1358eeec248862765c3e22f1a")


class TestOptimizeBytes:
    """fit.json of the README target, hashed before optimizer probes took
    their fixed stage rows and coherent windows from caches.  Re-hashed when
    the coefficient rows moved from the binomial sum to the recurrence: 21
    of the target's 51 JSON numbers moved, each by at most 5.6e-17; the
    first fit kept its bytes; the second moved its fidelity and success_prob
    by 4.5e-16 and 5.6e-17; the --tol 1e-8 fit moved its second stage by
    2.5e-9, inside its tol, its fidelity by 8.9e-16 and its success_prob
    by 5.4e-9.  Re-hashed when the probes moved to the standard-library
    kernel and the result gained a final scoring at the printed order (one
    more evaluation): 11 of the target's 51 numbers moved, each by at most
    5.6e-17; the first fit moved its fidelity by 3.4e-16 and success_prob
    by 1.1e-16; the second its fidelity by 5.6e-16; the --tol 1e-8 fit
    moved its stages by 4.9e-9 and 4.0e-9, inside its tol, its fidelity by
    8.0e-15, its success_prob by 8.6e-9 and its evaluations by 3.  The
    target was re-hashed when tail_mass became the output's own tail: it
    moved from 0 (the coherent input's) to 2.2e-16, and no amplitude moved;
    the fits kept their bytes.  Re-hashed when the probes took the heralded
    amplitudes and their fsum probability from the states' kernel: the
    first fit moved its fidelity by 3.6e-16 and success_prob by 4.0e-16
    relative; the second kept its bytes; the --tol 1e-8 fit moved its first
    stage by 4.9e-9, inside its tol, its fidelity by 8.4e-15 and its
    success_prob by 1.1e-9 relative; no evaluation count moved."""

    @pytest.mark.parametrize("argv, digest", [
        (["--stages", "2", "--k", "1,1", "--alpha", "1.0"],
         "2b22dad88fc454bd15e6b869baa1d2152b18b768cac1bc5f033871e45a015963"),
        (["--stages", "3", "--k", "1,2,1", "--alpha", "1.0",
          "--alpha-bounds", "0.5:2", "--tol", "1e-4"],
         "3195fc273e0c1437e4f767486f97dd4430867eea4ff0e6afb0a57e2e0ddd60cf"),
        (["--stages", "2", "--k", "2,3", "--alpha", "1.4", "--tol", "1e-8"],
         "0479d4794537873bf5e12953e3d180fc17e7498950a09f6d553963a748e24ce1"),
    ])
    def test_readme_target_fits_are_pinned(self, tmp_path, capsys, argv, digest):
        target, out = tmp_path / "state.json", tmp_path / "fit.json"
        assert main(["state", "--alpha", "1.35", "--r2", "0.77", "--k", "1",
                     "--out", str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "5ef729184968c2b895fc49f4b85c760713725dc185423528f0b0d880b3eac061")
        code, _, _ = run(capsys, "optimize", "--target", str(target), *argv,
                         "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestHelpText:
    """`catalysis [<command>] --help` at 80 columns, hashed while the parser
    still took the sweep metrics from `design`."""

    @pytest.mark.parametrize("command, digest", [
        ([], "89b580f751b191a967ed441ba444d0815988841c7ba3c6ddb7f1eb083158a43a"),
        (["state"], "c71fecc5e53e7929f46c703a444994ebdbc0bad33c1e63fb58e75b9465715038"),
        (["sweep"], "b3b1a339c5be783c97d915974dfafb81822c2747039206fbe9ee882732b9f7c3"),
        (["wigner"], "b67e631fa34901acd45f2b361e48acdbfb4e18ba421e0cce8af7027cec3e7ca2"),
        (["joint"], "f5bbeb59845fdbf4e470e9ad0cd4c2b26f72017922610ae4ed5f626961c5cf2d"),
        (["optimize"], "8441e06b8f550bb8430323b2b61efbb3b6307dd6f43a44e1261f5992b7827ea3"),
    ])
    def test_help_text_is_pinned(self, command, digest):
        src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", *command, "--help"],
            env=env, capture_output=True, timeout=30)
        assert proc.returncode == 0 and proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


# Runs argv lists in one fresh interpreter with the cyclic collector off, and
# prints how many objects gc.collect() finds after each.
GARBAGE = r"""
import gc
import json
import sys

gc.disable()
from photon_catalysis.cli import main

counts = []
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    counts.append(gc.collect())
print(json.dumps(counts))
"""


class TestProcessEntry:
    """`run` is the process entry; `main` in process leaves the collector as
    it found it."""

    def test_script_and_module_run_name_the_same_entry(self):
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            script = re.search(r'^catalysis = "photon_catalysis\.cli:(\w+)"$',
                               fh.read(), re.M)
        assert script and callable(getattr(cli, script.group(1)))
        tree = ast.parse(inspect.getsource(cli))
        blocks = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(blocks) == 1
        assert [ast.unparse(s) for s in blocks[0].body] == [f"{script.group(1)}()"]

    @pytest.mark.parametrize("argv, code", [
        (["state", "--alpha", "1", "--r2", "0.37"], 0),
        (["sweep", "--metric", "g2", "--axis", "r2:0.1:0.9:5"], 0),
        (["wigner", "--alpha", "1", "--r2", "0.37", "--grid", "21"], 0),
        (["joint", "--alpha2", "1.11", "--r2", "0.3:0.7:3"], 0),
        (["optimize", "--stages", "1", "--k", "1", "--alpha", "1",
          "--tol", "1e-4"], 0),
        (["state", "--alpha", "2", "--r2", "0.3", "--dim", "4"], 2),
        (["state", "--alpha", "0", "--r2", "1"], 3),
    ])
    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys, argv,
                                                 code):
        if argv[0] == "optimize":
            target = tmp_path / "t.json"
            assert main(["state", "--alpha", "1", "--r2", "0.37",
                         "--out", str(target)]) == 0
            argv = argv + ["--target", str(target)]
        elif argv[0] in ("sweep", "wigner", "joint"):
            argv = argv + ["--out", str(tmp_path / "out")]
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        assert run(capsys, *argv)[0] == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)

    @pytest.mark.parametrize("small, large", [
        (["state", "--alpha", "1", "--r2", "0.3"],
         ["state", "--alpha", "2.7", "--r2", "0.3", "--k", "3"]),
        (["sweep", "--metric", "g2", "--axis", "r2:0.01:0.99:3", "--alpha",
          "2.7", "--k", "3", "--out", "s.csv"],
         ["sweep", "--metric", "g2", "--axis", "r2:0.01:0.99:99", "--alpha",
          "2.7", "--k", "3", "--out", "s.csv"]),
        (["wigner", "--alpha", "2", "--r2", "0.3", "--k", "2", "--grid", "21",
          "--out", "w.csv"],
         ["wigner", "--alpha", "2", "--r2", "0.3", "--k", "2", "--grid", "201",
          "--out", "w.csv"]),
        (["joint", "--alpha2", "5", "--r2", "0.1:0.8:3", "--k", "2", "--out",
          "j.csv"],
         ["joint", "--alpha2", "5", "--r2", "0.1:0.8:41", "--k", "2", "--out",
          "j.csv"]),
        (["optimize", "--target", "t.json", "--stages", "1", "--k", "1",
          "--alpha", "1"],
         ["optimize", "--target", "t.json", "--stages", "3", "--k", "1,1,1",
          "--alpha", "1"]),
    ])
    def test_garbage_does_not_grow_with_the_work(self, tmp_path, small, large):
        """What the process entry leaves uncollected is the same for a small
        and a large run: nothing the work does makes cycles."""
        warm_up = [["state", "--alpha", "1.35", "--r2", "0.77", "--out",
                    "t.json"], small]
        proc = subprocess.run(
            [sys.executable, "-c", GARBAGE, json.dumps(warm_up + [small, large])],
            env=_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        assert counts[-2] == counts[-1]
