"""End-to-end benchmark of the `catalysis` CLI.

    python3 bench/run.py --workload scans --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

One closed-loop client runs the workload's seeded command list as CLI
subprocesses, one at a time, the way a user at a shell would.  Every output
is checked against the mpmath reference in reference.py.  Every timing is
scaled by the machine's speed during the run, measured with calibrate.py
between the commands (see README.md).  The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced pass (spans.py).
The full record -- machine facts, every command with its wall time, max-RSS,
exit code and sha256 of stdout and output file -- is written to
bench/out/<workload>-seed<seed>-trace<trace>.json.  The exit code is 0 only
when every command exited 0 and every output matched the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata

import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# Timings are scaled to the machine speed at which calibrate.py takes this
# long: value = wall * CALIBRATION_REFERENCE_S / median(calibration walls).
CALIBRATION_REFERENCE_S = 0.5
CALIBRATION_EVERY = 2   # calibrate.py runs before every second command
COMMAND_TIMEOUT_S = 150
TAIL_BEYOND = 10   # cmd_tail_s is the highest percentile with this many samples beyond
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Metric names, units and order come from BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@dataclass
class Record:
    """One finished child process and what the benchmark made of it."""

    args: list[str]
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    out_bytes: int = 0
    digests: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {"args": self.args, "exit": self.code, "wall_s": self.wall_s,
                "peak_rss_mb": self.rss_mb, "stdout_bytes": len(self.stdout.encode()),
                "out_bytes": self.out_bytes, "sha256": self.digests,
                "failures": self.failures}


def child_env(threads: int | None = None) -> dict:
    """Children import the checkout's src/, run BLAS on one thread, and keep
    CATALYSIS_THREADS at its default unless a thread count is given."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({name: "1" for name in BLAS_VARS})
    env.pop("CATALYSIS_THREADS", None)
    if threads is not None:
        env["CATALYSIS_THREADS"] = str(threads)
    return env


class Launcher:
    """The launch.py process, which starts, waits for and times every child."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], cwd: str, env: dict) -> Record:
        """Run one process to completion; max-RSS comes from its own rusage."""
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        job = {"argv": argv, "cwd": cwd, "env": env, "stdout": out_path,
               "stderr": err_path, "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        result = json.loads(reply)
        with open(out_path, encoding="utf-8", errors="replace", newline="") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Record(argv, result["code"], result["wall_s"],
                      result["maxrss_kib"] / 1024.0, stdout, stderr)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "photon_catalysis.cli"] + args


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def finish(record: Record, cmd: workloads.Command, work: str, check: bool):
    """Hash the outputs, run the reference check, and delete the output file."""
    record.digests["stdout"] = _sha256(record.stdout.encode())
    path = os.path.join(work, cmd.out) if cmd.out else None
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        record.out_bytes = len(data)
        record.digests["out"] = _sha256(data)
    if record.code != 0:
        record.failures.append(f"exit {record.code}: {record.stderr.strip()[-300:]}")
    elif check:
        try:
            record.failures += reference.check(cmd, work, record.stdout, record.stderr)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            record.failures.append(f"output unreadable by the check: {exc!r}")
    if path and os.path.exists(path):
        os.remove(path)


def write_targets(launcher: Launcher, plan: workloads.Plan, work: str, env: dict):
    """Untimed set-up: the target states that optimize and fidelity read."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from photon_catalysis import make_css, state_to_json

    for target in plan.targets:
        p = target.params
        if target.kind == "css":
            with open(os.path.join(work, target.name), "w") as fh:
                fh.write(state_to_json(make_css(p["a"], p["b"])))
            continue
        record = launcher.run(cli_argv(["state", "--alpha", repr(p["alpha"]), "--r2",
                                        repr(p["r2"]), "--k", str(p["k"]),
                                        "--out", target.name]), work, env)
        if record.code != 0:
            raise RuntimeError(f"set-up state target failed: {record.stderr.strip()}")


def time_help(launcher: Launcher, work: str, env: dict) -> float:
    """Wall time of one fresh `catalysis --help`: start, import, parser build."""
    record = launcher.run(cli_argv(["--help"]), work, env)
    if record.code != 0:
        raise RuntimeError(f"`catalysis --help` failed: {record.stderr.strip()}")
    return record.wall_s


def time_calibration(launcher: Launcher, work: str, env: dict) -> float:
    """Wall time of one calibrate.py run, a fixed job that uses nothing from src/."""
    record = launcher.run([sys.executable, os.path.join(HERE, "calibrate.py")], work, env)
    if record.code != 0:
        raise RuntimeError(f"calibrate.py failed: {record.stderr.strip()}")
    return record.wall_s


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0   # no percentile above the median has enough beyond it
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: list[float], records: list[Record],
               calibration: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; every timing is scaled by the calibration."""
    scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    walls = [r.wall_s * scale for r in records]
    tail_value, percentile = tail(walls)
    failed = sum(1 for r in records if r.failures)
    values = {"setup_s": statistics.median(setup) * scale, "run_s": sum(walls),
              "cmd_p50_s": statistics.median(walls), "cmd_tail_s": tail_value,
              "peak_rss_mb": max(r.rss_mb for r in records),
              "fail_frac": failed / len(records)}
    return values, {"cmd_tail_percentile": percentile, "command_count": len(walls),
                    "speed_scale": scale}


def run_traced(launcher: Launcher, commands, records: list[Record] | None, work: str,
               threads: int | None):
    """Run each command again under spans.py; returns (record, spans doc) pairs."""
    env = child_env(threads)
    traced = []
    for index, cmd in enumerate(commands):
        spans_path = os.path.join(work, "spans.json")
        argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "spans.py"),
                spans_path, "--"] + cmd.args
        record = launcher.run(argv, work, env)
        imports, record.stderr = spans.parse_importtime(record.stderr)
        finish(record, cmd, work, check=False)
        if record.code != 0:
            raise RuntimeError(f"traced command failed: {record.failures}")
        if records is not None and record.digests != records[index].digests:
            records[index].failures.append("tracing changed the output bytes")
        doc = spans.load(spans_path)
        doc["imports"] = imports
        traced.append((record, doc))
    return traced


def per_layer(traced, untraced: list[Record], single_thread, default_thread) -> dict:
    """Per-layer metrics, summed over a traced run of the whole command list.

    `single_thread` and `default_thread` are traced runs of the same sweep
    commands with CATALYSIS_THREADS=1 and at its default.
    """
    self_s, calls, inclusive, counters = {}, {}, {}, {}
    missing = set()
    unaccounted = 0.0
    hits = lookups = 0
    cache_present = True
    package, scipy = [], []
    output_bytes = 0
    for record, doc in traced:
        times = spans.self_times(doc["spans"])
        unaccounted += record.wall_s - sum(times)
        for span, own in zip(doc["spans"], times):
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + span["end"] - span["start"]
            for key, value in span["counters"].items():
                counters[(name, key)] = counters.get((name, key), 0) + value
        missing.update(doc["missing"])
        if doc["cache"] is None:
            cache_present = False
        else:
            hits += doc["cache"]["hits"]
            lookups += doc["cache"]["hits"] + doc["cache"]["misses"]
        package.append(doc["imports"]["package_s"])
        scipy.append(doc["imports"]["scipy_s"])
        output_bytes += len(record.stdout.encode()) + record.out_bytes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def sweep_time(runs) -> float:
        return sum(s["end"] - s["start"] for _, doc in runs
                   for s in doc["spans"] if s["name"] == "design.sweep")

    values = {
        "import.package_s": statistics.median(package),
        "import.scipy_s": statistics.median(scipy),
        "catalysis.oracle_cache.hit_ratio": ratio(hits, lookups) if cache_present else None,
        "analysis.wigner.steps_per_s": ratio(counters.get(("analysis.wigner", "steps"), 0),
                                             self_s.get("analysis.wigner", 0.0)),
        "analysis.wigner_to_csv.bytes": counters.get(("analysis.wigner_to_csv", "bytes"), 0),
        "analysis.wigner_to_pgm.bytes": counters.get(("analysis.wigner_to_pgm", "bytes"), 0),
        "design.sweep.points": counters.get(("design.sweep", "points"), 0),
        "design.sweep.thread_speedup": ratio(sweep_time(single_thread),
                                             sweep_time(default_thread)),
        "design.optimize_reflectivities.evaluations":
            counters.get(("design.optimize_reflectivities", "evaluations"), 0),
        "design.optimize_reflectivities.evals_per_s": ratio(
            counters.get(("design.optimize_reflectivities", "evaluations"), 0),
            inclusive.get("design.optimize_reflectivities", 0.0)),
        "cli.output_bytes": output_bytes,
        "trace.unaccounted_s": unaccounted,
        "trace.overhead_frac": ratio(sum(r.wall_s for r, _ in traced),
                                     sum(r.wall_s for r in untraced)) - 1.0,
    }
    result = {}
    for entry in SPEC["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        layer, _, kind = name.rpartition(".")
        # A layer's metrics are null when every function behind its spans is gone.
        needs = [f"{home[1:]}.{fname}" for home, fname, span, _ in spans.LAYERS
                 if span == layer]
        if needs and all(n in missing for n in needs):
            value = None
        elif name in values:
            value = values[name]
        elif kind == "calls":
            value = calls.get(layer, 0)
        else:
            value = self_s.get(layer, 0.0)
        result[name] = {"value": value, "unit": unit}
    return result


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from finding a repository that encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
        elif level == "1" and kind:
            caches[f"L1{kind[0].lower()}"] = _read(os.path.join(base, index, "size"))

    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            # Unset in the children, so the CLI resolves it to os.cpu_count().
            "catalysis_threads": {"set": None, "resolved": os.cpu_count()},
            "blas_threads": {name: "1" for name in BLAS_VARS},
            "commit": git_commit(), "seed": seed}


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result line, full record)."""
    if not os.path.isdir(os.path.join(SRC, "photon_catalysis")):
        raise RuntimeError(f"no package source at {os.path.relpath(SRC, ROOT)}/photon_catalysis")
    plan = workloads.generate(name, seed, workloads.passes_for(name, seconds))
    work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        env = child_env()
        time_help(launcher, work, env)  # warm-up: writes the bytecode caches
        write_targets(launcher, plan, work, env)
        # The set-up runs are spread over the run, so a burst of machine noise
        # cannot move all of them at once.
        spacing = -(-len(plan.commands) // (SETUP_REPEATS - 1))
        setup, records, calibration = [], [], []
        for index, cmd in enumerate(plan.commands):
            if index % CALIBRATION_EVERY == 0:
                calibration.append(time_calibration(launcher, work, env))
            if index % spacing == 0:
                setup.append(time_help(launcher, work, env))
            records.append(launcher.run(cli_argv(cmd.args), work, env))
        setup.append(time_help(launcher, work, env))
        calibration.append(time_calibration(launcher, work, env))
        # Checked only after the timed loop, so the check's own work never
        # runs between two timed commands.
        for record, cmd in zip(records, plan.commands):
            finish(record, cmd, work, check=True)
        layers = None
        if trace:
            traced = run_traced(launcher, plan.commands, records, work, None)
            # The first pass's sweeps again on one thread, for thread_speedup.
            first = len(plan.commands) // plan.passes
            sweeps = [i for i in range(first) if plan.commands[i].kind == "sweep"]
            single = run_traced(launcher, [plan.commands[i] for i in sweeps], None, work, 1)
            layers = per_layer(traced, records, single, [traced[i] for i in sweeps])
    finally:
        shutil.rmtree(work)
    e2e, tail_info = end_to_end(setup, records, calibration)
    failed = sum(1 for r in records if r.failures)
    if trace:
        metrics = layers
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    line = {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}
    full = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine_facts(seed), "setup_s": setup, "calibration_s": calibration,
            "end_to_end": {**{m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                              for m in SPEC["end_to_end"]},
                           "fail_frac": {"value": e2e["fail_frac"], "unit": "ratio"}},
            **tail_info, "per_layer": layers,
            "commands": [r.summary() for r in records]}
    return line, full


def print_summary(name: str, full: dict):
    print(f"workload {name} (seed {full['seed']}, {full['command_count']} commands):")
    for metric, entry in full["end_to_end"].items():
        note = ""
        if metric == "cmd_tail_s":
            note = f"  (p{full['cmd_tail_percentile']:.1f} of {full['command_count']} commands)"
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}{note}")
    for metric, entry in (full["per_layer"] or {}).items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric} = {shown} {entry['unit']}")
    for record in full["commands"]:
        for failure in record["failures"]:
            print(f"  FAILED {' '.join(record['args'])}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="sizes the command list: about this long at the seed commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for name in names:
        try:
            with Launcher() as launcher:
                line, full = run_workload(launcher, name, args.seed, args.seconds,
                                          bool(args.trace))
        except (RuntimeError, OSError, ImportError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 2
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(full, fh, indent=1)
        print_summary(name, full)
        print(json.dumps(line))
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
