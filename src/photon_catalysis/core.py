"""Standard-library core that every command shares: the error classes, the
stage check and its truncation window, the coherent amplitudes, the scan
grid, number formats and state-JSON validation, imported by the numpy
modules and by the numpy-free paths (`frame`, `catalysis`'s kernel) alike."""

from __future__ import annotations

import cmath
import math
import sys

# Probability allowed to fall outside the truncation window before a
# constructor refuses to build the state.
TAIL_GATE = 1e-9
# A herald whose probability is below this cannot fire.
HERALD_CUTOFF = 1e-300
# Largest window side dim + k, kept from an older sum's float binomials so no
# refusal moves.  Above it, the coefficient rows overflowed past dim + k = 1,470
# (r2 -> 1), and e^{-|alpha|^2/2} is subnormal past |alpha|^2 = 1,416.
_MAX_WINDOW = 1030
VACUUM_VARIANCE = 0.25


class TruncationError(ValueError):
    """The requested dimension leaves more than TAIL_GATE probability outside."""


class UndefinedQuantityError(ValueError):
    """A requested statistic is undefined for the given input (e.g. g2 of vacuum)."""


def _check_stage(r2: float = 0.0, k: int = 0):
    """Refuse a catalysis stage: a reflectivity r2 outside [0, 1] first, then
    a negative catalyst photon number k.  Each caller passes what it holds."""
    if not 0.0 <= r2 <= 1.0:
        raise ValueError(f"r2={r2} outside [0, 1]")
    if k < 0:
        raise ValueError("k must be non-negative")


def _stage_window(alpha: complex, stages, dim: int | None = None) -> int:
    """The window of the cascade ``stages`` of (r2, k) on |alpha>, checked in
    the one order every stage takes: each stage's r2, then its k, which must
    convert with int(); then alpha and the window, sized for the largest k
    (`_window_dim`); then each k below dim."""
    ks = []
    for r2, k in stages:
        _check_stage(r2, k)
        ks.append(int(k))
    dim = _window_dim(alpha, dim, max(ks))
    for k in ks:
        if k >= dim:
            raise ValueError(f"k={k} must be below dim={dim}")
    return dim


def scan(lo: float, hi: float, steps: int) -> list[float]:
    """Every scan grid of the package: numpy's linspace(lo, hi, steps) bit for
    bit, as Python floats, i * step + lo (or i / div * delta + lo where the
    step rounds to 0) with the last value hi.  Bit for bit where hi - lo is
    finite, which the scan flags check: on NaN ends the interpreter and
    numpy keep different NaN signs."""
    lo, hi, div = float(lo), float(hi), steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        vals = [i / div * delta + lo for i in range(steps)]
    else:
        vals = [i * step + lo for i in range(steps)]
    vals[-1] = hi
    return vals


def default_dim(alpha: complex, k: int = 0) -> int:
    """Truncation large enough for a mean photon number |alpha|^2 plus k extra photons.

    Keeps the Poisson tail below TAIL_GATE for every parameter set used in
    practice (|alpha| <= 2.7, k <= 6), with a floor of 25.
    """
    u = abs(alpha) ** 2
    return max(25, math.ceil(u + 8.0 * math.sqrt(u + 1.0) + k + 5))


def _window_dim(alpha: complex, dim: int | None, k: int) -> int:
    """dim, or default_dim(alpha, k) when None, checked before anything is allocated."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"--alpha/--alpha2 must be finite, got {alpha}")
    # A mean photon number |alpha|^2 above the largest window fits no window,
    # and default_dim overflows on it once |alpha| passes 1e154.
    if abs(alpha) > math.sqrt(_MAX_WINDOW):
        size = f"|alpha|^2 = ({abs(alpha):.6g})^2"
    else:
        dim = default_dim(alpha, k) if dim is None else dim
        if dim + k <= _MAX_WINDOW:
            return dim
        size = f"dim + k = {dim + k}"
    raise ValueError(
        f"{size} exceeds {_MAX_WINDOW}, the largest window side dim + k; "
        f"lower --alpha/--alpha2, --k or --dim")


def coherent_amplitudes(alpha: complex, dim: int) -> list:
    """Coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!) for n < dim: floats for
    a real alpha, complex numbers for a complex one."""
    kind = complex if isinstance(alpha, complex) else float
    alpha, amps = kind(alpha), [kind(math.exp(-abs(alpha) ** 2 / 2.0))]
    for n in range(1, dim):
        amps.append(amps[-1] * alpha / math.sqrt(n))
    return amps[:dim]


def coherent_window(alpha: complex, dim: int) -> tuple[tuple, float]:
    """coherent_amplitudes inside the window and the Poisson tail beyond it.

    Raises TruncationError when the tail exceeds TAIL_GATE.
    """
    amps = coherent_amplitudes(alpha, dim)
    tail = max(0.0, 1.0 - math.fsum(abs(a) ** 2 for a in amps))
    if tail > TAIL_GATE:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} exceeds {TAIL_GATE:.0e} at dim={dim}; "
            f"try dim={default_dim(alpha)}")
    return tuple(amps), tail


FMT9 = ".8e"  # the 9-digit format spec; "%" + FMT9 formats a float to the same bytes


def fmt9(x: float) -> str:
    """Scientific notation with 9 significant digits: CSV cells and summary lines."""
    return format(x, FMT9)


def fmt17(x: float) -> str:
    """Scientific notation with 17 significant digits, round-trippable."""
    return f"{x:.16e}"


def _parse_state(text: str) -> tuple[list[complex], float]:
    """(amplitudes, tail_mass) of a `state_to_json` document (a missing
    tail_mass reads 0); any other document raises a ValueError that says
    what is wrong."""
    import json

    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object {dim, amplitudes, tail_mass}")
    dim, pairs = doc.get("dim"), doc.get("amplitudes")
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    if (not isinstance(pairs, list) or len(pairs) != dim
            or not all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ValueError(f"amplitudes must be a list of dim = {dim} [re, im] pairs")
    values = [v for pair in pairs for v in pair] + [doc.get("tail_mass", 0.0)]
    # JSON numbers, not bools, within the float range
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values):
        raise ValueError("amplitudes and tail_mass must be finite numbers")
    return [complex(re, im) for re, im in pairs], float(values[-1])
