"""Per-layer tracing for the benchmark: the traced child process and the analysis.

Run as a script, this module is the traced child process:

    python -X importtime bench/spans.py SPANS.json -- <catalysis arguments>

It imports the package, wraps each layer's public functions in every module
namespace that binds them (the defining module and the modules that import
the name), calls `photon_catalysis.cli.main(argv)` and, when that returns,
writes the spans it kept in memory.  `src/` is never changed: the wrappers
live only in the traced process.

The parent side turns spans into per-layer self time.  A span's self time is
the wall time during which it is an innermost running span.  In one thread
that is its duration minus the time its children cover.  When worker threads
run spans side by side (the sweep thread pool), each instant is shared
equally among the innermost spans running then, so the self times of a
command always add up to the wall time its spans cover.
"""

from __future__ import annotations

import json
import sys
import threading
import time

PACKAGE = "photon_catalysis"
MODULES = ("", ".fock", ".catalysis", ".analysis", ".detector", ".design", ".cli")


def _wigner_steps(args, kwargs, result):
    state = args[0]
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    nx, np_ = (201, 201) if spec is None else (spec.nx, spec.np)
    return {"steps": nx * np_ * state.dim * (state.dim + 1) // 2}


# (defining module, function, span name, counter taken from the call)
LAYERS = (
    (".catalysis", "pcoc_oracle", "catalysis.pcoc_oracle", None),
    (".catalysis", "bs_transform", "catalysis.bs_transform", None),
    (".catalysis", "pcoc_state", "catalysis.pcoc_state", None),
    (".catalysis", "iterated_pcoc", "catalysis.iterated_pcoc", None),
    (".fock", "fidelity", "fock.fidelity", None),
    (".fock", "state_to_json", "fock.state_io", None),
    (".fock", "state_from_json", "fock.state_io", None),
    (".analysis", "quadrature_variances", "analysis.moments", None),
    (".analysis", "g2", "analysis.moments", None),
    (".fock", "number_distribution", "analysis.moments", None),
    (".analysis", "wigner", "analysis.wigner", _wigner_steps),
    (".analysis", "wigner_to_csv", "analysis.wigner_to_csv",
     lambda a, kw, r: {"bytes": len(r)}),
    (".analysis", "wigner_to_pgm", "analysis.wigner_to_pgm",
     lambda a, kw, r: {"bytes": len(r)}),
    (".detector", "joint_output_distribution",
     "detector.joint_output_distribution", None),
    (".design", "sweep", "design.sweep", lambda a, kw, r: {"points": len(r)}),
    (".design", "optimize_reflectivities", "design.optimize_reflectivities",
     lambda a, kw, r: {"evaluations": r.evaluations}),
)
CACHE = (".catalysis", "_block_unitary")


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.local = threading.local()
        self.main_stack: list[int] = []
        self.local.stack = self.main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # A pool worker's first span belongs to the span that is waiting on
        # the pool in the main thread.
        owner = stack or self.main_stack
        parent = owner[-1] if owner else None
        record = [name, time.perf_counter(), None, parent, None]
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, counters: dict | None = None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counters
        self._stack().pop()

    def wrap(self, name: str, fn, counter):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            counters = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counters = counter(args, kwargs, result)
                return result
            finally:
                self.close(index, counters)
        return wrapper


def install(recorder: Recorder, modules: dict) -> list[str]:
    """Wrap every LAYERS function wherever it is bound; returns missing names."""
    missing = []
    for home, fname, name, counter in LAYERS:
        original = getattr(modules[home], fname, None)
        if original is None:
            missing.append(f"{home[1:]}.{fname}")
            continue
        wrapped = recorder.wrap(name, original, counter)
        for module in modules.values():
            if getattr(module, fname, None) is original:
                setattr(module, fname, wrapped)
    return missing


def child_main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json -- <catalysis arguments>")
    import importlib

    recorder = Recorder()
    index = recorder.open("import")
    modules = {m: importlib.import_module(PACKAGE + m) for m in MODULES}
    recorder.close(index)
    missing = install(recorder, modules)
    index = recorder.open("cli")
    try:
        code = modules[".cli"].main(cli_args)
    finally:
        recorder.close(index)
    sys.stdout.flush()
    cached = getattr(modules[CACHE[0]], CACHE[1], None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    names = sorted({s[0] for s in recorder.spans})
    lookup = {n: i for i, n in enumerate(names)}
    doc = {"names": names,
           "spans": [[lookup[s[0]], s[1], s[2], s[3], s[4]] for s in recorder.spans],
           "missing": missing,
           "cache": None if info is None else {"hits": info.hits, "misses": info.misses}}
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


def load(path: str) -> dict:
    """A child's spans as dicts with name, start, end, parent and counters."""
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    doc["spans"] = [{"name": names[n], "start": s, "end": e, "parent": p,
                     "counters": c or {}} for n, s, e, p, c in doc["spans"]]
    return doc


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span, sharing each instant among the innermost spans.

    `parent` is an index into `spans` or None.  A span is innermost while it
    runs and none of its children runs; every instant covered by some span is
    split equally among the innermost spans of that instant.
    """
    events = []
    for i, s in enumerate(spans):
        events.append((s["start"], 1, i))
        events.append((s["end"], 0, i))
    events.sort()
    result = [0.0] * len(spans)
    running_children = [0] * len(spans)
    active: set[int] = set()
    innermost: set[int] = set()
    previous = events[0][0] if events else 0.0
    for when, is_start, i in events:
        if innermost and when > previous:
            share = (when - previous) / len(innermost)
            for j in innermost:
                result[j] += share
        previous = when
        parent = spans[i]["parent"]
        if is_start:
            active.add(i)
            innermost.add(i)
            if parent in active:
                running_children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(i)
            innermost.discard(i)
            if parent in active:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    innermost.add(parent)
    return result


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Cumulative import seconds of the package and of scipy, and the rest of stderr.

    `-X importtime` prints each module after the modules it imported, indented
    by two spaces per level.  scipy's time is the sum over the outermost
    scipy modules, so nested scipy imports are not counted twice.
    """
    pending: dict[int, list] = {}
    other = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:") or line.count("|") != 2:
            other.append(line)
            continue
        _, cumulative, field = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = field.rstrip("\n")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(cumulative) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    def outermost(nodes, root):
        total = 0.0
        for name, cumulative, children in nodes:
            if name == root or name.startswith(root + "."):
                total += cumulative
            else:
                total += outermost(children, root)
        return total

    roots = pending.get(0, [])
    return ({"package_s": outermost(roots, PACKAGE), "scipy_s": outermost(roots, "scipy")},
            "".join(other))


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
