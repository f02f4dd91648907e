"""The package and every CLI command run without importing scipy.

scipy is needed only by the matrix-exponential oracle that the tests compare
the closed forms against.  This guard keeps its import cost off the CLI.
"""

import os
import subprocess
import sys

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
