"""Independent reference for the benchmark's output check.

The heralded amplitudes come from the interference coefficient

    C_n = sum_j binom(n, j) binom(k, j) (-1)^j t^(n+k-2j) r^(2j)

evaluated in mpmath at 30 digits, times the coherent amplitudes
e^(-a^2/2) a^n / sqrt(n!).  Moments, g2, fidelity and herald probability are
summed in mpmath.  Wigner grids use a different algorithm from the engine's
displacement recurrence: the Wigner transform of the Hermite-function
wavefunction, integrated by the trapezoid rule on the grid's own half-step
lattice.  W(0,0) is also checked against the parity formula
(2/pi) sum (-1)^n |psi_n|^2 in mpmath.

`check(cmd, workdir, stdout, stderr)` returns a list of failure messages; an
empty list means the command's output matched.  Printed 9-digit values must
agree to REL_9 relative (half a unit in the 9th digit is 5e-9) with an
absolute floor ABS_FLOOR for values that are zero up to rounding; 17-digit
JSON values must agree to REL_17.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np

REL_9 = 1e-8
REL_17 = 1e-10
ABS_FLOOR = 1e-12
SUM_TOL = 1e-7          # a joint r2 block of 9-digit values sums to 1
# A window the CLI judges to cover 5 sigma can still miss the non-Gaussian
# tails of these states: up to 1.3e-5 over 540 random unwarned grids in
# the workloads' range.
INTEGRAL_TOL = 1e-4
DEFAULT_GRID = (-5.0, 5.0, 201)

mp.mp.dps = 30


def default_dim(alpha: float, k: int = 0) -> int:
    """The truncation the CLI documents: Poisson tail below 1e-9, floor 25."""
    u = abs(alpha) ** 2
    return max(25, math.ceil(u + 8.0 * math.sqrt(u + 1.0) + k + 5))


def coefficient(n: int, k: int, r2) -> mp.mpf:
    r2 = mp.mpf(r2)
    t = mp.sqrt(1 - r2)
    total = mp.mpf(0)
    for j in range(min(n, k) + 1):
        term = mp.binomial(n, j) * mp.binomial(k, j) * t ** (n + k - 2 * j) * r2 ** j
        total += -term if j % 2 else term
    return total


def heralded(alpha: float, stages, dim: int) -> tuple[list, mp.mpf]:
    """Normalized amplitudes and herald probability after the given stages.

    `stages` is a sequence of (r2, k); the probability is the joint success
    probability of all stage heralds inside the dim-level window.
    """
    a = mp.mpf(alpha)
    amp = mp.exp(-a * a / 2)
    raw = []
    for n in range(dim):
        if n:
            amp = amp * a / mp.sqrt(n)
        c = amp
        for r2, k in stages:
            c *= coefficient(n, k, r2)
        raw.append(c)
    prob = mp.fsum(x * x for x in raw)
    norm = mp.sqrt(prob)
    return [x / norm for x in raw], prob


def quadrature_db(psi) -> tuple[mp.mpf, mp.mpf]:
    """Squeezing in dB of X and P for real amplitudes (vacuum variance 1/4)."""
    dim = len(psi)
    mean_n = mp.fsum(n * psi[n] ** 2 for n in range(dim))
    a1 = mp.fsum(psi[n] * psi[n + 1] * mp.sqrt(n + 1) for n in range(dim - 1))
    a2 = mp.fsum(psi[n] * psi[n + 2] * mp.sqrt((n + 1) * (n + 2))
                 for n in range(dim - 2))
    var_x = (1 + 2 * mean_n + 2 * a2) / 4 - a1 ** 2
    var_p = (1 + 2 * mean_n - 2 * a2) / 4
    return 10 * mp.log10(var_x * 4), 10 * mp.log10(var_p * 4)


def g2(psi) -> mp.mpf:
    m1 = mp.fsum(n * x ** 2 for n, x in enumerate(psi))
    m2 = mp.fsum(n * (n - 1) * x ** 2 for n, x in enumerate(psi))
    return m2 / m1 ** 2


def fidelity(psi, target) -> mp.mpf:
    overlap = mp.fsum(mp.conj(t) * x for t, x in zip(target, psi))
    return abs(overlap) ** 2


def parity_w00(psi) -> mp.mpf:
    return 2 / mp.pi * mp.fsum((-1) ** n * abs(x) ** 2 for n, x in enumerate(psi))


def _hermite_functions(dim: int, x: np.ndarray) -> np.ndarray:
    """<x|n> for X = (a + a^+)/2, rows n = 0..dim-1, by the stable recurrence."""
    xi = math.sqrt(2.0) * x
    out = np.empty((dim, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-xi * xi / 2.0)
    if dim > 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(1, dim - 1):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * xi * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out * 2.0 ** 0.25


def wigner_grid(psi, lo: float, hi: float, n: int,
                reach: float = 7.0) -> np.ndarray:
    """W[ix, ip] on the midpoint grid of [lo, hi]^2, for real amplitudes.

    W(x, p) = (2/pi) int psi(x+y) psi(x-y) cos(4 p y) dy.  With y on multiples
    of half the grid step, x +- y falls on one lattice, so the wavefunction is
    evaluated once; the integrand decays like exp(-2 y^2), so |y| <= reach
    leaves nothing measurable behind.
    """
    amps = np.array([float(x) for x in psi])
    h = (hi - lo) / n
    half = math.ceil(reach / (h / 2.0))
    lattice = lo + np.arange(-half, 2 * n + half + 1) * h / 2.0
    wave = amps @ _hermite_functions(amps.size, lattice)
    i = np.arange(n)[:, None]
    j = np.arange(half + 1)[None, :]
    pairs = wave[2 * i + 1 + j + half] * wave[2 * i + 1 - j + half]
    ps = lo + (np.arange(n) + 0.5) * h
    cos = np.cos(4.0 * np.outer(np.arange(half + 1) * h / 2.0, ps))
    cos[1:] *= 2.0
    return (2.0 / math.pi) * (h / 2.0) * (pairs @ cos)


def read_state(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    return [mp.mpc(re, im) for re, im in doc["amplitudes"]]


def _close(value: float, ref, rel: float) -> bool:
    ref = float(ref)
    return abs(value - ref) <= rel * abs(ref) + ABS_FLOOR


def _fmt9(x: float) -> str:
    return f"{x:.8e}"


def _state_metric(metric: str, alpha: float, r2: float, k: int,
                  target) -> tuple[float, float]:
    """(metric, success_prob) at one sweep point, from the reference state."""
    psi, prob = heralded(alpha, [(r2, k)], default_dim(alpha, k))
    if metric == "g2":
        value = g2(psi)
    elif metric in ("var_x_db", "var_p_db"):
        value = quadrature_db(psi)[0 if metric == "var_x_db" else 1]
    elif metric == "success_prob":
        value = prob
    elif metric == "fidelity_to_target":
        value = fidelity(psi, target)
    elif metric == "wigner_min":
        value = wigner_grid(psi, *DEFAULT_GRID).min()
    else:
        raise ValueError(f"no reference for metric {metric!r}")
    return float(value), float(prob)


def _read_text(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name), newline="") as fh:
        return fh.read()


def check_sweep(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    p = cmd.params
    lines = _read_text(workdir, cmd.out).split("\n")
    names = [a[0] for a in p["axes"]]
    if lines[0] != ",".join(names + [p["metric"], "success_prob"]):
        return [f"sweep header {lines[0]!r}"]
    grids = [np.linspace(lo, hi, steps) for _, lo, hi, steps in p["axes"]]
    rows = lines[1:-1]
    if len(rows) != math.prod(g.size for g in grids) or lines[-1] != "":
        return [f"sweep has {len(rows)} rows"]
    target = read_state(os.path.join(workdir, p["target"])) if p["target"] else None
    # First, last and one interior row: the rows the axes' ends and middle fix.
    picks = sorted({0, len(rows) // 2, len(rows) - 1})
    failures = []
    for index in picks:
        cells = rows[index].split(",")
        point = dict(zip(names, (g[i] for g, i in
                                 zip(grids, np.unravel_index(index, [g.size for g in grids])))))
        for name, cell in zip(names, cells):
            if cell != _fmt9(point[name]):
                failures.append(f"sweep row {index}: {name} cell {cell}")
        value, prob = _state_metric(p["metric"], point.get("alpha", p["alpha"]),
                                    point.get("r2", p["r2"]), p["k"], target)
        for label, cell, ref in ((p["metric"], cells[-2], value),
                                 ("success_prob", cells[-1], prob)):
            if not _close(float(cell), ref, REL_9):
                failures.append(f"sweep row {index}: {label} {cell} != {ref:.9e}")
    return failures


def check_state(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    p = cmd.params
    dim = default_dim(p["alpha"], p["k"])
    psi, prob = heralded(p["alpha"], [(p["r2"], p["k"])], dim)
    var_x, var_p = quadrature_db(psi)
    w_min = wigner_grid(psi, *DEFAULT_GRID).min()
    expected = (("success_prob", prob), ("var_x_db", var_x), ("var_p_db", var_p),
                ("g2", g2(psi)), ("wigner_min", w_min))
    lines = stdout.splitlines()
    if len(lines) != len(expected):
        return [f"state printed {len(lines)} lines"]
    failures = []
    for line, (name, ref) in zip(lines, expected):
        label, _, cell = line.partition(" = ")
        if label != name or not _close(float(cell), ref, REL_9):
            failures.append(f"state line {line!r}, reference {name} = {float(ref):.9e}")
    amps = read_state(os.path.join(workdir, cmd.out))
    if len(amps) != dim:
        failures.append(f"state JSON has dim {len(amps)}, expected {dim}")
    elif max(abs(a - x) for a, x in zip(amps, psi)) > 1e-12:
        failures.append("state JSON amplitudes differ from the reference")
    return failures


def _grid_reference(p) -> tuple[list, np.ndarray, float]:
    psi, _ = heralded(p["alpha"], [(p["r2"], p["k"])], default_dim(p["alpha"], p["k"]))
    ext, n = p["extent"], p["n"]
    return psi, wigner_grid(psi, -ext, ext, n), (2 * ext / n) ** 2


def check_wigner(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    p = cmd.params
    psi, ref, cell = _grid_reference(p)
    n = p["n"]
    failures = []
    label, _, value = stdout.strip().partition(" = ")
    if label != "integral":
        return [f"wigner printed {stdout.strip()!r}"]
    integral = float(value)
    if not _close(integral, ref.sum() * cell, REL_9):
        failures.append(f"integral {value} != {ref.sum() * cell:.9e}")
    if "warning:" not in stderr and abs(integral - 1.0) > INTEGRAL_TOL:
        failures.append(f"integral {value} without a coverage warning")
    path = os.path.join(workdir, cmd.out)
    if p["format"] == "csv":
        text = _read_text(workdir, cmd.out)
        head, _, body = text.partition("\n")
        cells = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
        if head != "x,p,w" or cells.size != 3 * n * n:
            return failures + ["wigner CSV shape"]
        grid = cells.reshape(n, n, 3)
        axis = -p["extent"] + (np.arange(n) + 0.5) * 2 * p["extent"] / n
        if (np.abs(grid[:, 0, 0] - axis).max() > 1e-8 * p["extent"]
                or np.abs(grid[0, :, 1] - axis).max() > 1e-8 * p["extent"]):
            failures.append("wigner CSV coordinates")
        w = grid[:, :, 2]
        bad = np.abs(w - ref) > REL_9 * np.abs(ref) + ABS_FLOOR
        if bad.any():
            failures.append(f"wigner CSV: {int(bad.sum())} values differ from the reference")
        centre = n // 2
        if not _close(w[centre, centre], parity_w00(psi), REL_9):
            failures.append(f"W(0,0) {w[centre, centre]:.9e} != parity "
                            f"{float(parity_w00(psi)):.9e}")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        header = f"P5\n{n} {n}\n65535\n".encode("ascii")
        if not data.startswith(header) or len(data) != len(header) + 2 * n * n:
            return failures + ["PGM header or size"]
        pixels = np.frombuffer(data[len(header):], dtype=">u2").reshape(n, n)
        expected = np.round((ref - ref.min()) / (ref.max() - ref.min()) * 65535.0)
        if np.abs(pixels.astype(float) - expected).max() > 1.0:
            failures.append("PGM pixels differ from the reference by more than 1")
    return failures


def _scan(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def check_joint(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    p = cmd.params
    lines = _read_text(workdir, cmd.out).split("\n")
    if lines[0] != "r2,i,j,p" or lines[-1] != "":
        return ["joint CSV header or trailing newline"]
    side = p["bins"] + 1
    rows = lines[1:-1]
    r2s = _scan(*p["scan"])
    if len(rows) != len(r2s) * side * side:
        return [f"joint CSV has {len(rows)} rows"]
    failures = []
    for b, r2 in enumerate(r2s):
        block = [row.split(",") for row in rows[b * side * side:(b + 1) * side * side]]
        expect = [[_fmt9(r2), str(i), str(j)] for i in range(side) for j in range(side)]
        if [cells[:3] for cells in block] != expect:
            failures.append(f"joint block {b}: r2/i/j cells")
            continue
        probs = [float(cells[3]) for cells in block]
        if min(probs) < 0.0 or abs(math.fsum(probs) - 1.0) > SUM_TOL:
            failures.append(f"joint block r2={_fmt9(r2)} sums to {math.fsum(probs):.12g}")
    return failures


def check_optimize(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    p = cmd.params
    text = _read_text(workdir, cmd.out)
    if text != stdout:
        return ["optimize stdout and --out file differ"]
    doc = json.loads(text)
    stages = doc["stages"]
    if len(stages) != len(p["ks"]) or not all(0.0 <= r2 <= 1.0 for r2 in stages):
        return [f"optimize stages {stages}"]
    alpha = p["alpha"]
    failures = []
    if p["alpha_bounds"] is not None:
        alpha = doc["alpha"]
        lo, hi = p["alpha_bounds"]
        if not lo <= alpha <= hi:
            failures.append(f"optimize alpha {alpha} outside [{lo}, {hi}]")
    psi, prob = heralded(alpha, list(zip(stages, p["ks"])),
                         default_dim(alpha, max(p["ks"])))
    target = read_state(os.path.join(workdir, p["target"]))
    for name, ref in (("fidelity", fidelity(psi, target)), ("success_prob", prob)):
        if not _close(doc[name], ref, REL_17):
            failures.append(f"optimize {name} {doc[name]!r} != {float(ref)!r}")
    return failures


CHECKS = {"sweep": check_sweep, "state": check_state, "wigner": check_wigner,
          "joint": check_joint, "optimize": check_optimize}


def check(cmd, workdir: str, stdout: str, stderr: str) -> list[str]:
    """Failure messages for one finished command; empty when it is correct."""
    return CHECKS[cmd.kind](cmd, workdir, stdout, stderr)
