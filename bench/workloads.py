"""Seeded command lists for the three benchmark workloads.

Every command is a `catalysis` CLI invocation whose flags stay inside the range
`default_dim` documents (|alpha| <= 2.7, k <= 6), so each one is valid input
and exits 0 at the seed commit.  A workload is a list of passes; each pass has
the same mix of command kinds and draws its continuous parameters from fixed
strata, so the work in a pass hardly depends on the seed.  The program sees
only the generated flags and the target files written during set-up.

Inputs the benchmark leaves out on purpose (see README.md):
- `--alpha 30` hangs and `--alpha 1e6` runs out of memory; a hang cannot be
  timed, and both belong to the ROADMAP robustness item.
- `optimize` with several stages whose ks are not all 2 can exit 3 when a
  line-search probe sets one stage to r2 = 1 and the product of stage
  coefficients vanishes ("herald outcome has zero probability").  Multi-stage
  runs therefore use ks = 2,2[,2], for which no probe can zero the product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ALPHA_MAX = 2.7
K_MAX = 6
SWEEP_METRICS = ("g2", "var_x_db", "var_p_db", "success_prob",
                 "fidelity_to_target")
WORKLOADS = ("scans", "phase-space", "inverse-design")

# Nominal wall time of one pass on a 2-core x86 box at the seed commit; a run
# makes round(seconds / PASS_SECONDS) passes, so the list is fixed for a
# given --seconds and a faster program simply finishes sooner.
PASS_SECONDS = {"scans": 8.0, "phase-space": 6.0, "inverse-design": 10.5}


@dataclass
class Command:
    """One CLI call: `kind` is the subcommand, `args` follows the program name."""

    kind: str
    args: list[str]
    out: str | None
    params: dict = field(default_factory=dict)


@dataclass
class Target:
    """A target state file written during untimed set-up.

    kind "css" is written with `make_css(a, b)`; kind "state" is the JSON that
    `catalysis state --alpha A --r2 R --k K --out FILE` writes.
    """

    name: str
    kind: str
    params: dict


@dataclass
class Plan:
    targets: list[Target]
    commands: list[Command]
    passes: int


def _num(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


class _Commands:
    """The command list being drawn, with the seeded generator that draws it."""

    def __init__(self, rng: random.Random, targets: list[Target]):
        self.rng = rng
        self.targets = targets
        self.commands: list[Command] = []

    def uniform(self, lo: float, hi: float, digits: int = 4) -> tuple[str, float]:
        text = _num(self.rng.uniform(lo, hi), digits)
        return text, float(text)

    def add(self, kind: str, args: list[str], out: str | None, **params):
        self.commands.append(Command(kind, [kind] + args, out, params))

    def out_name(self, ext: str) -> str:
        return f"c{len(self.commands):04d}.{ext}"


def _strata(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    step = (hi - lo) / n
    return [(lo + i * step, lo + (i + 1) * step) for i in range(n)]


def _scans_pass(b: _Commands):
    rng = b.rng
    for k in (1, 2, 3):
        metrics = rng.sample(SWEEP_METRICS, 3)
        two_axis = rng.randrange(2)
        for s, (lo, hi) in enumerate(_strata(0.3, ALPHA_MAX, 3)):
            alpha_s, alpha = b.uniform(lo, hi)
            # The oracle caches one unitary per r2 and photon-number block, so
            # its largest sweep sets peak_rss_mb.  One sweep a pass sits at the
            # edge of the documented range with the most r2 points, so that
            # sweep is the same size in every run.
            largest = k == 3 and s == 2
            if largest:
                alpha_s, alpha = _num(ALPHA_MAX), ALPHA_MAX
            r2lo_s, r2lo = b.uniform(0.01, 0.1, 3)
            r2hi_s, r2hi = b.uniform(0.9, 0.99, 3)
            axes = []
            if s == two_axis:
                steps = rng.randint(41, 60)
                mid = 0.5 * (lo + hi)
                alo_s, alo = b.uniform(lo, mid, 3)
                ahi_s, ahi = b.uniform(mid, hi, 3)
                axes.append(("r2", r2lo, r2hi, steps))
                axes.append(("alpha", alo, ahi, 2))
                axis_args = ["--axis", f"r2:{r2lo_s}:{r2hi_s}:{steps}",
                             "--axis", f"alpha:{alo_s}:{ahi_s}:2"]
            else:
                steps = 99 if largest else rng.randint(41, 99)
                axes.append(("r2", r2lo, r2hi, steps))
                axis_args = ["--axis", f"r2:{r2lo_s}:{r2hi_s}:{steps}"]
            metric = metrics[s]
            out = b.out_name("csv")
            args = ["--metric", metric] + axis_args + [
                "--alpha", alpha_s, "--k", str(k), "--out", out]
            target = None
            if metric == "fidelity_to_target":
                target = rng.choice(b.targets).name
                args += ["--target", target]
            b.add("sweep", args, out, metric=metric, axes=axes, alpha=alpha,
                  r2=0.5, k=k, target=target)
    for j, (lo, hi) in enumerate(_strata(0.2, ALPHA_MAX ** 2, 3)):
        a2_s, a2 = b.uniform(lo, hi)
        k = (1, 2, rng.choice((1, 2)))[j]
        bins = rng.choice((8, 16))
        eta1_s, eta1 = b.uniform(0.05, 1.0, 3)
        eta2_s, eta2 = b.uniform(0.05, 1.0, 3)
        r2lo_s, r2lo = b.uniform(0.05, 0.3, 3)
        r2hi_s, r2hi = b.uniform(0.6, 0.95, 3)
        steps = rng.randint(21, 41)
        out = b.out_name("csv")
        b.add("joint", ["--alpha2", a2_s, "--r2", f"{r2lo_s}:{r2hi_s}:{steps}",
                        "--k", str(k), "--eta1", eta1_s, "--eta2", eta2_s,
                        "--bins", str(bins), "--out", out], out,
              alpha2=a2, scan=(r2lo, r2hi, steps), k=k, bins=bins)


def _grid_arg(b: _Commands) -> tuple[str, float]:
    """An odd 201-point grid centred on 0: the default extent or a random one."""
    if b.rng.random() < 0.5:
        return "201", 5.0
    ext_s, ext = b.uniform(4.5, 6.0, 2)
    return f"--grid=-{ext_s}:{ext_s}:201", ext


def _phase_space_pass(b: _Commands):
    rng = b.rng
    ks = [1, 1, rng.choice((2, 3))]
    rng.shuffle(ks)
    for k, (lo, hi) in zip(ks, _strata(0.3, ALPHA_MAX, 3)):
        alpha_s, alpha = b.uniform(lo, hi)
        r2_s, r2 = b.uniform(0.05, 0.95)
        out = b.out_name("json")
        b.add("state", ["--alpha", alpha_s, "--r2", r2_s, "--k", str(k),
                        "--out", out], out, alpha=alpha, r2=r2, k=k)
    for k, (lo, hi) in zip((1, rng.choice((1, 2, 3))),
                           _strata(0.3, ALPHA_MAX, 2)):
        alpha_s, alpha = b.uniform(lo, hi)
        r2_s, r2 = b.uniform(0.05, 0.95)
        grid_s, ext = _grid_arg(b)
        grid = [grid_s] if grid_s.startswith("--grid=") else ["--grid", grid_s]
        for fmt in ("csv", "pgm"):
            out = b.out_name(fmt)
            b.add("wigner", ["--alpha", alpha_s, "--r2", r2_s, "--k", str(k)]
                  + grid + ["--format", fmt, "--out", out], out,
                  alpha=alpha, r2=r2, k=k, extent=ext, n=201, format=fmt)
    k = rng.choice((1, 1, 2))
    alpha_s, alpha = b.uniform(0.5, 2.0)
    r2lo_s, r2lo = b.uniform(0.05, 0.3, 3)
    r2hi_s, r2hi = b.uniform(0.6, 0.95, 3)
    steps = rng.randint(4, 8)
    out = b.out_name("csv")
    b.add("sweep", ["--metric", "wigner_min", "--axis",
                    f"r2:{r2lo_s}:{r2hi_s}:{steps}", "--alpha", alpha_s,
                    "--k", str(k), "--out", out], out,
          metric="wigner_min", axes=[("r2", r2lo, r2hi, steps)], alpha=alpha,
          r2=0.5, k=k, target=None)


def _optimize(b: _Commands, ks: tuple[int, ...], tol: str | None,
              bounds: bool):
    target = b.rng.choice(b.targets).name
    alpha_s, alpha = b.uniform(0.6, 2.0)
    args = ["--target", target, "--stages", str(len(ks)),
            "--k", ",".join(map(str, ks)), "--alpha", alpha_s]
    alpha_bounds = None
    if bounds:
        lo_s, lo = b.uniform(0.4, 0.8, 3)
        hi_s, hi = b.uniform(1.6, 2.2, 3)
        args += ["--alpha-bounds", f"{lo_s}:{hi_s}"]
        alpha_bounds = (lo, hi)
    if tol is not None:
        args += ["--tol", tol]
    out = b.out_name("json")
    b.add("optimize", args + ["--out", out], out, target=target, ks=ks,
          alpha=alpha, alpha_bounds=alpha_bounds)


def _inverse_design_pass(b: _Commands):
    # Coarse --tol on the longer searches keeps their cost from swinging with
    # the landscape, so every pass does about the same work.
    for k in (1, 1, 1, 2, 2, 2, 2):
        _optimize(b, (k,), None, False)
    for k in (1, 2):
        _optimize(b, (k,), "1e-2", True)
    for _ in range(2):
        _optimize(b, (2, 2), "1e-2", False)
    _optimize(b, (2, 2, 2), "3e-2", False)


_PASSES = {"scans": _scans_pass, "phase-space": _phase_space_pass,
           "inverse-design": _inverse_design_pass}


def _targets(rng: random.Random) -> list[Target]:
    targets = []
    for i in range(2):
        a = float(_num(rng.uniform(0.6, 1.4)))
        beta = float(_num(rng.uniform(0.0, 0.8)))
        targets.append(Target(f"target-css{i}.json", "css", {"a": a, "b": beta}))
    for i in range(2):
        alpha = float(_num(rng.uniform(0.8, 1.8)))
        r2 = float(_num(rng.uniform(0.2, 0.8)))
        targets.append(Target(f"target-state{i}.json", "state",
                              {"alpha": alpha, "r2": r2, "k": 1 + i}))
    return targets


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def generate(workload: str, seed: int, passes: int) -> Plan:
    """The workload's targets and command list for `seed`; same seed, same plan."""
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    made = _Commands(rng, _targets(rng))
    for _ in range(passes):
        start = len(made.commands)
        _PASSES[workload](made)
        block = made.commands[start:]
        rng.shuffle(block)
        made.commands[start:] = block
    return Plan(made.targets, made.commands, passes)
