import contextlib
import io
import os

import _paths
import reference
import workloads
from photon_catalysis import cli, make_css, state_to_json


def _perturb_6th_digit(cell: str) -> str:
    """Change the 6th significant digit of a value printed as d.dddddddde+xx."""
    sign = "-" if cell.startswith("-") else ""
    body = cell.lstrip("-")
    digit = body[6]
    return sign + body[:6] + ("8" if digit == "9" else str(int(digit) + 1)) + body[7:]


def _run(cmd, work):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(cmd.args) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def test_perturbed_digit_helper():
    assert _perturb_6th_digit("-1.23456789e-01") == "-1.23457789e-01"
    assert float(_perturb_6th_digit("9.99999999e+00")) != 9.99999999


def test_check_flags_a_state_line_perturbed_in_its_6th_digit(tmp_path):
    cmd = workloads.Command("state", ["state", "--alpha", "1.2", "--r2", "0.35",
                                      "--k", "1", "--out", "s.json"], "s.json",
                            {"alpha": 1.2, "r2": 0.35, "k": 1})
    stdout = _run(cmd, tmp_path)
    assert reference.check(cmd, str(tmp_path), stdout, "") == []
    for i, line in enumerate(stdout.splitlines()):
        name, _, cell = line.partition(" = ")
        lines = stdout.splitlines()
        lines[i] = f"{name} = {_perturb_6th_digit(cell)}"
        bad = "\n".join(lines) + "\n"
        assert reference.check(cmd, str(tmp_path), bad, ""), name


def test_check_flags_a_sweep_value_perturbed_in_its_6th_digit(tmp_path):
    with open(tmp_path / "t.json", "w") as fh:
        fh.write(state_to_json(make_css(1.0, 0.5)))
    for metric, k in (("g2", 2), ("var_x_db", 1), ("fidelity_to_target", 1)):
        axes = [("r2", 0.05, 0.95, 5)]
        args = ["sweep", "--metric", metric, "--axis", "r2:0.05:0.95:5", "--alpha", "1.3",
                "--k", str(k), "--target", "t.json", "--out", "w.csv"]
        cmd = workloads.Command("sweep", args, "w.csv",
                                {"metric": metric, "axes": axes, "alpha": 1.3, "r2": 0.5,
                                 "k": k, "target": "t.json"})
        _run(cmd, tmp_path)
        assert reference.check(cmd, str(tmp_path), "", "") == []
        path = tmp_path / "w.csv"
        lines = path.read_text().split("\n")
        cells = lines[3].split(",")
        for column in (1, 2):
            changed = list(cells)
            changed[column] = _perturb_6th_digit(cells[column])
            path.write_text("\n".join(lines[:3] + [",".join(changed)] + lines[4:]))
            assert reference.check(cmd, str(tmp_path), "", ""), (metric, column)


def test_check_flags_an_optimize_fidelity_perturbed_in_its_6th_digit(tmp_path):
    with open(tmp_path / "t.json", "w") as fh:
        fh.write(state_to_json(make_css(1.0, 0.5)))
    args = ["optimize", "--target", "t.json", "--stages", "1", "--k", "1",
            "--alpha", "1.1", "--tol", "1e-3", "--out", "o.json"]
    cmd = workloads.Command("optimize", args, "o.json",
                            {"target": "t.json", "ks": (1,), "alpha": 1.1,
                             "alpha_bounds": None})
    stdout = _run(cmd, tmp_path)
    assert reference.check(cmd, str(tmp_path), stdout, "") == []
    key = '"fidelity": '
    start = stdout.index(key) + len(key)
    bad = stdout[:start] + _perturb_6th_digit(stdout[start:start + 23]) + stdout[start + 23:]
    (tmp_path / "o.json").write_text(bad)
    assert reference.check(cmd, str(tmp_path), bad, "")


def test_wigner_reference_matches_parity_formula_at_the_origin():
    psi, _ = reference.heralded(1.1, [(0.4, 2)], reference.default_dim(1.1, 2))
    grid = reference.wigner_grid(psi, -5.0, 5.0, 201)
    assert abs(grid[100, 100] - float(reference.parity_w00(psi))) < 1e-13
    assert abs(grid.sum() * (10.0 / 201) ** 2 - 1.0) < 1e-9
