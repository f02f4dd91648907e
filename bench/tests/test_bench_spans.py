import types

import pytest

import _paths
import spans


def _span(start, end, parent=None):
    return {"name": "x", "start": start, "end": end, "parent": parent, "counters": {}}


def test_self_time_on_a_nested_tree():
    tree = [_span(0.0, 10.0), _span(1.0, 4.0, 0), _span(2.0, 3.0, 1),
            _span(5.0, 6.0, 0), _span(6.0, 6.5, 0)]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 1.0, 1.0, 0.5])


def test_self_time_shares_overlapping_worker_spans():
    # Two pool workers under one sweep: [1, 5] and [2, 6] overlap on [2, 5].
    tree = [_span(0.0, 10.0), _span(1.0, 5.0, 0), _span(2.0, 6.0, 0), _span(3.0, 4.0, 2)]
    times = spans.self_times(tree)
    assert times == pytest.approx([5.0, 1.0 + 0.5 + 0.5 + 0.5, 0.5 + 0.5 + 1.0, 0.5])
    assert sum(times) == pytest.approx(10.0)


def test_install_wraps_every_binding_and_reports_missing(monkeypatch):
    home = types.ModuleType("home")
    home.fidelity = lambda a, b: a * b
    user = types.ModuleType("user")
    user.fidelity = home.fidelity
    modules = {".fock": home, ".design": user}
    for key in (".catalysis", ".analysis", ".detector", ".cli", ""):
        modules[key] = types.ModuleType(key or "package")
    recorder = spans.Recorder()
    missing = spans.install(recorder, modules)
    assert home.fidelity is user.fidelity
    assert user.fidelity(2, 3) == 6
    assert [s[0] for s in recorder.spans] == ["fock.fidelity"]
    assert "catalysis.pcoc_oracle" in missing and "fock.fidelity" not in missing


def test_importtime_counts_outermost_modules_once():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     scipy.linalg._basic\n"
        "import time:       200 |        300 |   scipy.linalg\n"
        "import time:        50 |        50 |   numpy\n"
        "import time:       150 |        500 | photon_catalysis\n"
        "warning: grid covers less than 5 standard deviations of the state\n")
    imports, rest = spans.parse_importtime(stderr)
    assert imports["package_s"] == pytest.approx(500e-6)
    assert imports["scipy_s"] == pytest.approx(300e-6)
    assert rest == "warning: grid covers less than 5 standard deviations of the state\n"
