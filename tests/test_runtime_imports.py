"""The package and every CLI command run without importing scipy, and each
command loads only the package modules it runs, and no command `dataclasses`.

scipy is needed only by the matrix-exponential oracle that the tests compare
the closed forms against.  This guard keeps its import cost off the CLI, and
keeps numpy off `catalysis --help`, usage errors, `optimize`, every sweep
but wigner_min and every `joint` table below the standard-library kernel's
work bound.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import photon_catalysis

SCRIPT = r"""
import os
import sys

import photon_catalysis
from photon_catalysis.cli import main

out = sys.argv[1]
target = os.path.join(out, "target.json")
for argv in (
    ["state", "--alpha", "1.2", "--r2", "0.4", "--k", "2", "--out", target],
    ["sweep", "--metric", "g2", "--axis", "r2:0.1:0.9:5", "--k", "2",
     "--out", os.path.join(out, "sweep.csv")],
    ["wigner", "--alpha", "1.2", "--r2", "0.4", "--k", "2", "--grid", "21",
     "--out", os.path.join(out, "w.csv")],
    ["joint", "--alpha2", "1.11", "--r2", "0.3:0.7:3", "--k", "2",
     "--out", os.path.join(out, "joint.csv")],
    ["optimize", "--target", target, "--stages", "1", "--k", "2",
     "--alpha", "1.2", "--tol", "1e-4"],
):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy loaded: {loaded[:5]}")
"""


def test_cli_commands_do_not_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(photon_catalysis.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# Runs one `catalysis` argv in a fresh interpreter and writes its exit code and
# the numpy, dataclasses and package modules it loaded to the JSON file named
# first.
PROBE = r"""
import json
import sys

from photon_catalysis.cli import main

try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules
                if m in ("numpy", "dataclasses")
                or m.split(".")[0] == "photon_catalysis")
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "loaded": loaded}, fh)
"""

PACKAGE = ["photon_catalysis", "photon_catalysis.cli"]
CORE = PACKAGE + ["photon_catalysis.core"]
# pcoc_state takes its output's tail against the frame's herald probability.
WIGNER = CORE + ["photon_catalysis.analysis", "photon_catalysis.catalysis",
                 "photon_catalysis.fock", "photon_catalysis.frame", "numpy"]
STATE = WIGNER
# Every sweep metric but wigner_min runs on the standard-library kernel.
SWEEP = CORE + ["photon_catalysis.design", "photon_catalysis.frame"]
WIGNER_SWEEP = WIGNER + ["photon_catalysis.design"]
# The optimizer's probes run on the standard-library heralded-state kernel
# of `core`.
OPTIMIZE = CORE + ["photon_catalysis.design"]
# A README-size joint table runs the standard-library kernel of `detector`;
# a large one numpy's products on `catalysis`'s two-mode output.
JOINT = CORE + ["photon_catalysis.detector", "photon_catalysis.frame"]
LARGE_JOINT = JOINT + ["photon_catalysis.catalysis", "numpy"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["--help"], 0, PACKAGE),
    (["sweep", "--help"], 0, PACKAGE),
    (["state", "--alpha", "1"], 2, PACKAGE),
    (["sweep", "--metric", "entropy", "--axis", "r2:0:1:3", "--out", "s.csv"],
     2, PACKAGE),
    (["state", "--alpha", "1.2", "--r2", "0.4", "--k", "2", "--out", "t.json"],
     0, STATE),
    (["wigner", "--alpha", "1.2", "--r2", "0.4", "--grid", "21", "--out", "w.csv"],
     0, WIGNER),
    (["sweep", "--metric", "g2", "--axis", "r2:0.1:0.9:5", "--out", "s.csv"],
     0, SWEEP),
    (["sweep", "--metric", "fidelity_to_target", "--axis", "alpha:0.5:1.5:3",
      "--axis", "k:1:2:2", "--target", "t.json", "--out", "s.csv"], 0, SWEEP),
    (["sweep", "--metric", "wigner_min", "--axis", "r2:0.1:0.9:3",
      "--out", "s.csv"], 0, WIGNER_SWEEP),
    (["optimize", "--target", "t.json", "--stages", "1", "--k", "2",
      "--alpha", "1.2", "--tol", "1e-4"], 0, OPTIMIZE),
    (["joint", "--alpha2", "1.11", "--r2", "0.5", "--out", "j.csv"], 0, JOINT),
    (["joint", "--alpha2", "1.11", "--r2", "0.3:0.7:3", "--out", "j.csv"],
     0, JOINT),
    (["joint", "--alpha2", "1", "--k", "500", "--r2", "0.5", "--out", "j.csv"],
     0, LARGE_JOINT),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, loaded):
    env = _env()
    if "--target" in argv:
        assert subprocess.run(
            [sys.executable, "-m", "photon_catalysis.cli", "state", "--alpha",
             "1.2", "--r2", "0.4", "--k", "2", "--out", "t.json"],
            env=env, cwd=tmp_path, capture_output=True, timeout=60).returncode == 0
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(report), *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert doc["code"] == code, proc.stderr
    assert doc["loaded"] == sorted(loaded)


def test_module_run_prints_no_runtime_warning(tmp_path):
    """runpy warns when the package `__init__` has already imported `cli`."""
    proc = subprocess.run([sys.executable, "-m", "photon_catalysis.cli", "--help"],
                          env=_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == "" and "RuntimeWarning" not in proc.stdout


# The names the package re-exported when its `__init__` imported every module.
EXPORTS = {
    "fock": ["FockState", "PhotonNumberDistribution", "TruncationError",
             "UndefinedQuantityError", "coherent_amplitudes", "default_dim",
             "fidelity", "make_coherent", "make_css", "make_fock",
             "number_distribution", "state_from_json", "state_to_json"],
    "catalysis": ["BeamSplitter", "CatalysisConfig", "IteratedConfig",
                  "TwoModeState", "bs_transform", "catalysis_coefficient",
                  "herald", "iterated_pcoc", "oracle_discrepancy", "pcoc_oracle",
                  "pcoc_state", "success_probability_analytic",
                  "two_mode_output"],
    "analysis": ["DomainError", "PoleError", "QuadratureStats", "WignerGrid",
                 "WignerGridSpec", "g2", "locus_alpha_max", "locus_alpha_min",
                 "quadrature_variances", "variance_p_analytic",
                 "variance_x_analytic", "wigner", "wigner_negativity",
                 "wigner_to_csv", "wigner_to_pgm"],
    "detector": ["ClickDistribution", "JointClickDistribution", "LossChannel",
                 "TMDConfig", "apply_loss", "g2_from_clicks",
                 "joint_output_distribution", "tmd_click_distribution"],
    "design": ["Axis", "DesignProblem", "OptimizeResult", "SweepSpec",
               "optimize_reflectivities", "optimize_result_to_json", "sweep"],
}


def test_public_names_resolve_to_their_modules():
    assert photon_catalysis.__all__ == sorted(
        name for names in EXPORTS.values() for name in names)
    assert photon_catalysis.__version__ == "0.1.0"
    listed = dir(photon_catalysis)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"photon_catalysis.{module}")
        assert getattr(photon_catalysis, module) is home and module in listed
        assert not hasattr(home, "__all__"), f"{module} keeps its own export list"
        for name in names:
            assert getattr(photon_catalysis, name) is getattr(home, name)
            assert name in listed
    design = importlib.import_module("photon_catalysis.design")
    assert design.METRICS is photon_catalysis.METRICS
    with pytest.raises(AttributeError):
        photon_catalysis.no_such_name


IMPORT_ALL = r"""
import sys

import photon_catalysis
assert "numpy" not in sys.modules, "import photon_catalysis loaded numpy"
namespace = {}
exec("from photon_catalysis import *", namespace)
missing = set(photon_catalysis.__all__) - set(namespace)
assert not missing, missing
"""


def test_star_import_loads_every_name_on_demand():
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def test_benchmark_traced_names_resolve():
    """The traced benchmark run reports a per-layer metric as null once every
    function behind its span is gone, so deleting a traced name fails here
    first."""
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for home, fname, _, _ in spans.LAYERS:
        module = importlib.import_module(spans.PACKAGE + home)
        assert callable(getattr(module, fname, None)), f"{home[1:]}.{fname}"
    module = importlib.import_module(spans.PACKAGE + spans.CACHE[0])
    assert hasattr(getattr(module, spans.CACHE[1]), "cache_info")
