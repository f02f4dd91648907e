import _paths
import run
import workloads


def _flags(args):
    out = {}
    for i, arg in enumerate(args):
        if arg.startswith("--grid="):
            out.setdefault("--grid", []).append(arg[len("--grid="):])
        elif arg.startswith("--") and i + 1 < len(args):
            out.setdefault(arg, []).append(args[i + 1])
    return out


def _plans(seeds=range(5)):
    for name in workloads.WORKLOADS:
        for seed in seeds:
            yield name, workloads.generate(name, seed, 2)


def test_generator_is_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, 3)
        again = workloads.generate(name, 7, 3)
        other = workloads.generate(name, 8, 3)
        assert [c.args for c in first.commands] == [c.args for c in again.commands]
        assert [t.params for t in first.targets] == [t.params for t in again.targets]
        assert [c.args for c in first.commands] != [c.args for c in other.commands]


def test_generator_emits_only_in_range_flags():
    for name, plan in _plans():
        for t in plan.targets:
            assert abs(t.params.get("alpha", 0.0)) <= workloads.ALPHA_MAX
            assert t.params.get("k", 0) <= workloads.K_MAX
        for cmd in plan.commands:
            flags = _flags(cmd.args[1:])
            for alpha in flags.get("--alpha", []):
                assert 0.0 < float(alpha) <= workloads.ALPHA_MAX
            for alpha2 in flags.get("--alpha2", []):
                assert 0.0 < float(alpha2) <= workloads.ALPHA_MAX ** 2
            for k in flags.get("--k", []):
                ks = [int(x) for x in k.split(",")]
                assert all(0 <= x <= workloads.K_MAX for x in ks)
                # Multi-stage runs use ks = 2 only: other mixes can exit 3.
                assert len(ks) == 1 or set(ks) == {2}
            for spec in flags.get("--axis", []):
                axis, lo, hi, steps = spec.split(":")
                bounds = (0.0, 1.0) if axis == "r2" else (0.0, workloads.ALPHA_MAX)
                assert bounds[0] < float(lo) < float(hi) <= bounds[1]
                assert int(steps) >= 2
            for bounds in flags.get("--alpha-bounds", []):
                lo, hi = (float(x) for x in bounds.split(":"))
                assert 0.0 < lo < hi <= workloads.ALPHA_MAX
            for eta in flags.get("--eta1", []) + flags.get("--eta2", []):
                assert 0.0 < float(eta) <= 1.0
            if cmd.kind in ("state", "wigner"):
                assert 0.0 < float(flags["--r2"][0]) < 1.0
            for grid in flags.get("--grid", []):
                assert grid.endswith("201")  # odd and centred, for the W(0,0) check
            targets = {t.name for t in plan.targets}
            assert set(flags.get("--target", [])) <= targets


def test_tail_keeps_ten_samples_beyond():
    walls = [float(i) for i in range(40)]
    value, percentile = run.tail(walls)
    assert sum(1 for w in walls if w > value) == run.TAIL_BEYOND
    assert percentile == 75.0


def test_end_to_end_scales_timings_by_the_calibration():
    records = [run.Record(["x"], 0, wall, rss, "", "") for wall, rss in
               ((1.0, 60.0), (2.0, 90.0), (3.0, 70.0))]
    slow = [2 * run.CALIBRATION_REFERENCE_S] * 3   # the machine ran at half speed
    values, info = run.end_to_end([0.8, 1.0, 1.2], records, slow)
    assert info["speed_scale"] == 0.5
    assert values["setup_s"] == 0.5
    assert values["run_s"] == 3.0
    assert values["cmd_p50_s"] == 1.0
    assert values["peak_rss_mb"] == 90.0   # not scaled: the largest of any command


def test_per_layer_reports_null_only_for_absent_functions():
    record = run.Record(["x"], 0, 1.0, 60.0, "out", "")
    doc = {"spans": [], "missing": ["analysis.wigner", "fock.state_to_json"],
           "cache": {"hits": 1, "misses": 3},
           "imports": {"package_s": 0.4, "scipy_s": 0.3}}
    metrics = run.per_layer([(record, doc)], [record], [], [])
    assert [m["name"] for m in run.SPEC["per_layer"]] == list(metrics)
    nulls = {name for name, entry in metrics.items() if entry["value"] is None}
    assert nulls == {"analysis.wigner.calls", "analysis.wigner.self_s",
                     "analysis.wigner.steps_per_s"}
    assert metrics["catalysis.oracle_cache.hit_ratio"]["value"] == 0.25
