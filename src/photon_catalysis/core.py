"""Standard-library core that every command shares: the error classes, the
stage check and its truncation window, the coherent amplitudes, the
heralded-state kernel, the scan grid, number formats and state-JSON
validation, imported by the numpy modules and by the numpy-free paths
(`frame`, the optimizer of `design`) alike.

The kernel `_herald` multiplies the coherent window by each stage's row of
interference coefficients C_n (`_row`, a three-term recurrence over whole
rows); every state of `catalysis` and every optimizer probe of `design` is
its product, so `optimize` loads neither `catalysis` nor numpy."""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import repeat
from operator import mul

# Probability allowed to fall outside the truncation window before a
# constructor refuses to build the state.
TAIL_GATE = 1e-9
# A probability total, or a state's squared norm, is 1 within this.
NORM_TOL = 1e-10
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
    a catalyst photon number k below 0 or above _MAX_WINDOW, compared before
    any float conversion.  Each caller passes what it holds."""
    if not 0.0 <= r2 <= 1.0:
        raise ValueError(f"r2={r2} outside [0, 1]")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > _MAX_WINDOW:
        raise ValueError(f"--k exceeds {_MAX_WINDOW}, the largest window side "
                         f"dim + k")


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


def _window_dim(alpha: complex, dim: int | None, k: int,
                lower: str = "--alpha/--alpha2, --k or --dim") -> int:
    """dim, or default_dim(alpha, k) when None, checked before anything is
    allocated; a window past _MAX_WINDOW is refused naming ``lower``."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"--alpha/--alpha2 must be finite, got {alpha}")
    # A mean photon number |alpha|^2 above the largest window fits no window,
    # and default_dim overflows on it once |alpha| passes 1e154.
    if abs(alpha) > math.sqrt(_MAX_WINDOW):
        size = f"|alpha|^2 = ({abs(alpha):.6g})^2"
    elif dim is not None and dim > _MAX_WINDOW:   # of any size, not printed
        size = "--dim"
    elif dim is not None and dim < 1:
        raise ValueError("--dim must be at least 1")
    else:
        dim = default_dim(alpha, k) if dim is None else dim
        if dim + k <= _MAX_WINDOW:
            return dim
        size = f"dim + k = {dim + k}"
    raise ValueError(
        f"{size} exceeds {_MAX_WINDOW}, the largest window side dim + k; "
        f"lower {lower}")


def coherent_amplitudes(alpha: complex, dim: int) -> list:
    """Coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!) for n < dim: floats for
    a real alpha, complex numbers for a complex one."""
    kind = complex if isinstance(alpha, complex) else float
    alpha, amps = kind(alpha), [kind(math.exp(-abs(alpha) ** 2 / 2.0))]
    for n in range(1, dim):
        amps.append(amps[-1] * alpha / math.sqrt(n))
    return amps[:dim]


def coherent_window(alpha: complex, dim: int) -> tuple[list, float]:
    """coherent_amplitudes inside the window and the Poisson tail beyond it.

    Raises TruncationError when the tail exceeds TAIL_GATE.
    """
    amps = coherent_amplitudes(alpha, dim)
    tail = max(0.0, 1.0 - math.fsum(abs(a) ** 2 for a in amps))
    if tail > TAIL_GATE:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} exceeds {TAIL_GATE:.0e} at dim={dim}; "
            f"try dim={default_dim(alpha)}")
    return amps, tail


def _row(r2: float, k: int, dim: int) -> tuple[float, ...]:
    """C_n = catalysis_coefficient(n, k, BeamSplitter(r2)) for n < dim.

    C is symmetric in n and k.  With m = min(n, k) and h = max(n, k),
    C = t^(h - m) D_m, and the generating function
    sum_n C_n x^n = (t - x)^k / (1 - t x)^(k + 1) gives D_0 = 1 and

        (j + 1) D_{j+1} = (2j + 1 - r2 (h + 1 + j)) D_j - j (1 - r2) D_{j-1},

    k steps taken for every n at once; column n < k is read at step j = n.
    """
    t2 = 1.0 - r2
    h1s = [k + 1] * min(k, dim) + [*range(k + 1, dim + 1)]   # h + 1
    d, d_prev, out = [1.0] * dim, [0.0] * dim, [0.0] * dim
    for j in range(min(k, dim)):
        out[j] = d[j]
        lead, lag = 2 * j + 1, j * t2
        d, d_prev = [((lead - r2 * (h1 + j)) * x - lag * x_prev) / (j + 1)
                     for h1, x, x_prev in zip(h1s, d, d_prev)], d
    out[k:] = d[k:]
    # t^|n - k|, bitwise t ** abs(n - k)
    powers = map(math.pow, repeat(math.sqrt(t2)), map(abs, range(-k, dim - k)))
    return tuple(map(mul, powers, out))


# The stage rows of the heralds and the optimizer's probes, immutable.
_coefficient_row = lru_cache(maxsize=1024)(_row)


def _herald(alpha: complex, dim: int, stages, raw=None) -> tuple[list, float]:
    """(u P, |u P|^2): the window u of |alpha>, n < dim, times each stage's
    row C_n in declaration order, and its herald probability.  ``raw``, if
    given, is u times the stages before ``stages``.  Every state and every
    optimizer probe is this product, so each keeps the others' bits."""
    if raw is None:
        raw = coherent_window(alpha, dim)[0]
    for r2, k in stages:
        raw = list(map(mul, raw, _coefficient_row(r2, k, dim)))
    if isinstance(alpha, complex):
        return raw, math.fsum(abs(a) ** 2 for a in raw)
    return raw, math.fsum(map(mul, raw, raw))   # bitwise abs(a) ** 2


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
