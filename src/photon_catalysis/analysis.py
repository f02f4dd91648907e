"""Quadrature statistics, squeezing loci, g2 and Wigner functions.

Conventions fixed throughout: X = (a + a^+)/2, P = (a - a^+)/(2i), so the
vacuum variance is 1/4 and squeezing in dB is 10 log10(var / (1/4)).

numpy and `fock` are imported only where arrays are built, so the minimum
of a default grid that `_wigner_min` certifies from the displaced frame
loads neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice
from operator import mul
from typing import Iterator

from .core import (FMT9, NORM_TOL, TAIL_GATE, VACUUM_VARIANCE,
                   TruncationError, UndefinedQuantityError, fmt9)
from .frame import _displaced_columns, _quadratures


class PoleError(ArithmeticError):
    """Closed-form variance evaluated where its denominator vanishes."""


class DomainError(ValueError):
    """Locus evaluated outside the region where it is real."""


QuadratureStats = namedtuple("QuadratureStats",
                             "var_x var_p product squeeze_db_x squeeze_db_p")

# The largest |2(x + ip)|^2 = y a grid may reach.  Up to 2^52 the far radii's
# log seed, about -y/2, and its power-of-2 shift cancel to within half a unit
# in floating point, so every seed stays within a factor of about 2 of 1; the
# shift fits an int64; and a step's growth y + 3 dim + 1 leaves
# `_wigner_values` nine steps or more between its 2^-512 rescales.  The
# cancellation's error grows with y (about 100 units at 2^60), and past
# y = 2^63 ln 4 the shift overflows an int64.
_WIGNER_REACH = 2.0 ** 52


class WignerGridSpec:
    """Rectangular phase-space window sampled at cell centers (midpoint
    rule), nx by np cells.  The centres of an axis lo:hi of n cells are
    c + (i - (n - 1)/2) step with c = (lo + hi)/2, the midpoints
    lo + (i + 0.5) step to within 4 ulp of max(|lo|, |hi|); for lo = -hi,
    c is 0.0 and the axis is exactly antisymmetric, bit for bit."""

    def __init__(self, x_min: float = -5.0, x_max: float = 5.0,
                 p_min: float = -5.0, p_max: float = 5.0, nx: int = 201,
                 np: int = 201):
        # bounds every |2 (x + i p)|^2 on the grid; NaN or inf gives NaN cells
        reach = 4.0 * sum(v * v for v in (x_min, x_max, p_min, p_max))
        if not reach <= _WIGNER_REACH:
            raise ValueError(
                f"--grid bounds x {x_min}:{x_max}, p {p_min}:{p_max} must be "
                f"finite, with 4(x_min^2 + x_max^2 + p_min^2 + p_max^2) at "
                f"most 2^52, which bounds every |2(x + ip)|^2 on the grid")
        if nx < 2 or np < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if x_max <= x_min or p_max <= p_min:
            raise ValueError("grid bounds must be increasing")
        self.x_min, self.x_max, self.p_min, self.p_max = x_min, x_max, p_min, p_max
        self.nx, self.np = nx, np

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    def x_axis(self) -> np.ndarray:
        import numpy as np

        return np.array(_centres(self.x_min, self.x_max, self.nx, self.dx))

    def p_axis(self) -> np.ndarray:
        import numpy as np

        return np.array(_centres(self.p_min, self.p_max, self.np, self.dp))


def _centres(lo: float, hi: float, n: int, step: float) -> list[float]:
    """The n cell centres of the axis lo:hi (see `WignerGridSpec`)."""
    return [(lo + hi) / 2.0 + (i - (n - 1) / 2.0) * step for i in range(n)]


class WignerGrid:
    """Values indexed [ix, ip] on ``spec``'s cells."""

    def __init__(self, spec: WignerGridSpec, values, coverage_warning=None):
        self.spec, self.values, self.coverage_warning = spec, values, coverage_warning

    def integral(self) -> float:
        return float(self.values.sum() * self.spec.dx * self.spec.dp)


def quadrature_variances(s: FockState) -> QuadratureStats:
    """Variances of X and P for a normalized state."""
    if s.tail_mass > TAIL_GATE:
        raise TruncationError(
            f"tail mass {s.tail_mass:.3e} too large for reliable variances")
    if abs(s.norm_squared() - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized")
    _, var_x, var_p = _quadratures(s.amplitudes.tolist(), 1.0)
    return QuadratureStats(
        var_x=var_x, var_p=var_p, product=var_x * var_p,
        squeeze_db_x=10.0 * math.log10(var_x / VACUUM_VARIANCE),
        squeeze_db_p=10.0 * math.log10(var_p / VACUUM_VARIANCE))


def _denominator(alpha: float, r2: float) -> float:
    """The closed forms' denominator; a PoleError where it vanishes."""
    u = abs(alpha) ** 2
    x = r2
    den = 1.0 - x * (1.0 + u * (2.0 - x * (3.0 + (1.0 - x) * u)))
    if abs(den) < 1e-14:
        raise PoleError(
            f"variance denominator vanishes at alpha={alpha}, r2={r2} "
            "(herald probability is zero there)")
    return den


def variance_x_analytic(alpha: float, r2: float) -> float:
    """Closed-form X variance of the single-photon-catalyst output."""
    u = abs(alpha) ** 2
    x = r2
    den = _denominator(alpha, r2)
    omx = 1.0 - x
    num = (omx ** 2
           - 4.0 * x * omx ** 2 * u
           + 3.0 * x ** 2 * (2.0 - 4.0 * x + 3.0 * x ** 2) * u ** 2
           - 4.0 * x ** 3 * omx ** 2 * u ** 3
           + x ** 4 * omx ** 2 * u ** 4)
    return num / (4.0 * den ** 2)


def variance_p_analytic(alpha: float, r2: float) -> float:
    """Closed-form P variance of the single-photon-catalyst output."""
    u = abs(alpha) ** 2
    x = r2
    den = _denominator(alpha, r2)
    return 0.25 + x * x * u / (2.0 * den)


def locus_alpha_min(r2: float) -> tuple[float, float]:
    """The two alpha branches where the X variance reaches its global minimum 3/16.

    Both branches read sqrt(((2 + r2) +- sqrt(3 (4 - r2) r2)) / (2 r2 (1 - r2)))
    with the reflectivity entering as intensity.  The radicand identity
    (2 + r2)^2 - 3 (4 - r2) r2 = 4 (1 - r2)^2 >= 0 keeps the lower branch real
    on all of (0, 1); written with the difference in the other order and the
    denominator sign flipped (as sometimes quoted) the lower branch would be
    imaginary everywhere, so this ordering is fixed by checking both branches
    against a direct numeric minimization of the variance.
    """
    x = r2
    if not 0.0 < x < 1.0:
        raise DomainError(
            f"r2={r2} outside (0, 1): both branches diverge at r2=0 and the "
            "denominator vanishes at r2=1")
    root = math.sqrt(3.0 * (4.0 - x) * x)
    den = 2.0 * x * (1.0 - x)
    low = math.sqrt(max(0.0, (2.0 + x) - root) / den)
    high = math.sqrt(((2.0 + x) + root) / den)
    return low, high


def locus_alpha_max(r2: float) -> float:
    """Alpha at which the P-variance excess peaks: |alpha|^2 r2 = 1."""
    if not 0.0 < r2 <= 1.0:
        raise DomainError(f"r2={r2} outside (0, 1]: the locus diverges at r2=0")
    return 1.0 / math.sqrt(r2)


def g2(d: PhotonNumberDistribution) -> float:
    """Second-order autocorrelation <n(n-1)> / <n>^2 at zero delay."""
    from .fock import factorial_moments

    m1, m2 = factorial_moments(d.probabilities)
    if m1 <= 0.0:
        raise UndefinedQuantityError("g2 undefined for vacuum (zero mean)")
    return m2 / m1 ** 2


_WIGNER_CELLS = 10 ** 6     # grid points; about 0.1 GiB of recurrence buffers
_WIGNER_BUDGET = 2e9        # recurrence cell-steps (`_wigner_work`), about 2 s


def _radii(xs: np.ndarray, ps: np.ndarray):
    """(u, y, radius) on the cells of xs by ps, raveled: u = gamma / |gamma|
    (1 at gamma = 0) with gamma = 2(x + ip), the distinct y = |gamma|^2
    ascending, and each cell's index into them."""
    import numpy as np

    unit = (xs[:, None] + 1j * ps[None, :]).ravel()
    unit *= 2.0
    r = np.abs(unit)
    np.divide(unit, r, out=unit, where=r > 0.0)
    unit[r == 0.0] = 1.0
    r *= r
    # np.unique(r, return_inverse=True), bit for bit, without the
    # grid-sized copies it holds at once: sort, mark where the sorted
    # radius changes, number the distinct radii, scatter back to cells.
    # Any sort kind gives the same y and index; with the stable one a
    # `state` command peaked about 0.1 MiB lower than with quicksort.
    order = np.argsort(r, kind="stable")
    r = r[order]
    new = np.empty(r.size, dtype=bool)
    new[0] = True
    np.not_equal(r[1:], r[:-1], out=new[1:])
    y = r[new]
    del r
    index = np.cumsum(new)
    index -= 1
    radius = np.empty_like(index)
    radius[order] = index
    return unit, y, radius


def _wigner_values(psi: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W[ix, ip] on the grid xs by ps of the normalized state with Fock
    amplitudes ``psi``.  With gamma = 2(x + ip), y = |gamma|^2 and
    u = gamma / |gamma|,

        W = (2/pi) sum_d w_d Re(u^d S_d(y)),   w_0 = 1, w_{d>0} = 2,
        S_d(y) = sum_n (-1)^n conj(c_{n+d}) c_n Q_{n,d}(y),

    where Q_{n,d} = |<n+d|D(gamma)|n>| obeys the stable recurrence

        Q_{n+1,d} = ((2n+1+d-y) Q_{n,d} - sqrt(n(n+d)) Q_{n-1,d})
                    / sqrt((n+1)(n+1+d)),

    seeded by Q_{0,d} = e^{-y/2} y^{d/2}/sqrt(d!); every Q is a unitary matrix
    element, so no factorial ratios appear.  S_d depends on a cell only
    through y, so the recurrence and the sums run once per distinct y (about
    a fifth of a square grid's cells), and only u^d is applied per cell.

    Per cell of xs by ps this holds u and the phase (complex, 32 B
    together), the radius index (8 B), the cell buffer (8 B) and the output
    (8 B); the recurrence buffers are per distinct radius.  For a real state
    on a window with p_min = -p_max, `wigner` passes the columns p >= 0
    only, so these count about half the window's cells.
    """
    import numpy as np

    unit, y, radius = _radii(xs, ps)
    q_seed = np.exp(-y / 2.0)
    # Past y = 1,417 e^{-y/2} is subnormal or 0, and the product loses the
    # seed.  Those radii take it in log form, -y/2 + (d/2) ln y - lgamma(d+1)/2,
    # and carry Q 2^shift, a shift per radius that brings the seed near 1.  A
    # step multiplies |Q| by at most y + 3 dim + 1, so checking every `every`
    # steps for a Q past 2^512 and scaling its radius, sums and all, by 2^-512
    # keeps Q below 2^1011.  Each sum is scaled back by its radius' shift.
    far = int(np.count_nonzero(q_seed >= np.finfo(float).tiny))
    log_far = np.log(y[far:])
    cell, phase = np.empty(unit.size), np.empty_like(unit)
    # q_prev, q_cur, spare, term, and a sum each for the real and the
    # imaginary part of the couplings
    q_prev, q_cur, spare, term, *sums = (np.empty_like(y) for _ in range(6))
    n_dim = psi.size
    total = np.zeros(cell.size)
    phase.fill(1.0)
    every = max(1, int(499 // math.log2(y[-1] + 3 * n_dim + 1)))
    for d in range(n_dim):
        if d > 0:
            np.divide(y, d, out=spare)
            q_seed *= np.sqrt(spare, out=spare)
            phase *= unit
            if not np.any(q_seed) and d > y[-1]:   # past d = y seeds only fall
                break
        if log_far.size:
            log_seed = 0.5 * (d * log_far - y[far:] - math.lgamma(d + 1))
            shift = np.rint(log_seed / -math.log(2.0))
            q_seed[far:] = np.exp(log_seed + shift * math.log(2.0))
        coup = np.conj(psi[d:]) * psi[:n_dim - d] * (2.0 if d else 1.0)
        coup[1::2] *= -1.0
        # (imaginary?, couplings, sum); Re(u^d i s) = -Im(u^d) s
        parts = [(imaginary, part.tolist(), acc) for imaginary, part, acc
                 in zip((False, True), (coup.real, -coup.imag), sums)
                 if part.any()]
        if not parts:
            continue
        for *_, acc in parts:
            acc.fill(0.0)
        steps = int(np.flatnonzero(coup)[-1]) + 1
        np.copyto(q_cur, q_seed)
        for n in range(steps):
            for _, a, acc in parts:
                if a[n]:
                    np.multiply(q_cur, a[n], out=term)
                    acc += term
            if n + 1 == steps:
                break
            np.subtract(2 * n + 1 + d, y, out=spare)
            spare *= q_cur
            if n:               # Q_{-1,d} = 0, and x - 0 * 0 is x
                q_prev *= math.sqrt(n * (n + d))
                spare -= q_prev
            spare /= math.sqrt((n + 1) * (n + 1 + d))
            if log_far.size and n % every == 0:
                big = far + np.flatnonzero(np.maximum(
                    np.abs(spare[far:]), np.abs(q_cur[far:])) > 2.0 ** 512)
                if big.size:
                    for buffer in (spare, q_cur, *(part[2] for part in parts)):
                        buffer[big] *= 2.0 ** -512
                    shift[big - far] -= 512
            q_prev, q_cur, spare = q_cur, spare, q_prev
        for imaginary, _, acc in parts:
            if log_far.size:
                acc[far:] = np.ldexp(acc[far:], -shift.astype(int))
            # every index is in range; "wrap" only skips the bounds check
            np.take(acc, radius, out=cell, mode="wrap")
            if d > 0:
                cell *= phase.imag if imaginary else phase.real
            total += cell
    total *= 2.0 / math.pi
    return total.reshape(xs.size, ps.size)


def _wigner_work(dims, spec: WignerGridSpec) -> int:
    """Recurrence cell-steps of the grids ``spec`` of states with these dims:
    nx np dim (dim + 1) / 2 a state, one step a cell and pair n <= m."""
    return spec.nx * spec.np * sum(d * (d + 1) for d in dims) // 2


def _check_wigner_work(dim: int, spec: WignerGridSpec):
    """Reject, before allocating, a grid whose buffers or recurrence would
    run past the budget; the point count first, whatever its size."""
    if spec.nx * spec.np > _WIGNER_CELLS:
        raise ValueError(f"Wigner grid of {spec.nx}x{spec.np} points exceeds "
                         f"the budget of {_WIGNER_CELLS:.0e} points; lower --grid")
    work = _wigner_work([dim], spec)
    if work > _WIGNER_BUDGET:
        raise ValueError(
            f"Wigner grid of {spec.nx}x{spec.np} points at dim {dim} needs "
            f"{work:.2e} recurrence cell-steps; the budget is "
            f"{_WIGNER_BUDGET:.0e} cell-steps; lower --alpha/--dim or --grid")


def _coverage_warning(amplitudes: list, tail_mass: float,
                      spec: WignerGridSpec) -> str | None:
    """A warning if the window covers less than 5 standard deviations of the
    quadrature spread of the normalized state with these amplitudes (no
    check once its tail is too heavy)."""
    if tail_mass > TAIL_GATE:
        return None
    a1, var_x, var_p = _quadratures(amplitudes, 1.0)
    sx, sp = math.sqrt(var_x), math.sqrt(var_p)
    if (a1.real - 5 * sx < spec.x_min or a1.real + 5 * sx > spec.x_max
            or a1.imag - 5 * sp < spec.p_min or a1.imag + 5 * sp > spec.p_max):
        return "grid covers less than 5 standard deviations of the state"
    return None


def _mirrored(upper: np.ndarray, half: int) -> np.ndarray:
    """The grid whose columns from ``half`` on are ``upper`` and whose first
    ``half`` columns mirror them, W(x, -p) = W(x, p); ``upper`` for 0."""
    import numpy as np

    if not half:
        return upper
    full = np.empty((upper.shape[0], half + upper.shape[1]))
    full[:, half:] = upper
    full[:, :half] = upper[:, ::-1][:, :half]
    return full


def wigner(s: FockState, spec: WignerGridSpec | None = None) -> WignerGrid:
    """Wigner function of a normalized state on a midpoint-rule grid.

    Normalized so that the vacuum gives W(0,0) = 2/pi and the full-plane
    integral is 1.  If the window covers less than 5 standard deviations of
    the state's quadrature spread a coverage warning is recorded.  The state
    is checked (normalization, work budget) before anything is allocated.
    For a real state and p_min = -p_max, W(x, -p) = W(x, p): the values are
    computed on the columns p >= 0, half the cells and half the distinct
    radii, and the grid mirrors them onto p < 0.  The p axis is then exactly
    antisymmetric, u(x, -p) = conj u(x, p) bit for bit, and both halves
    share every radius, so the mirrored grid is the full plane's bit for
    bit.  Otherwise the values cover the whole window.
    """
    import numpy as np

    if spec is None:
        spec = WignerGridSpec()
    if abs(s.norm_squared() - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized")
    _check_wigner_work(s.dim, spec)
    # the columns p < 0 the grid mirrors, none on the full plane
    real = not np.imag(s.amplitudes).any()
    half = spec.np // 2 if real and spec.p_min == -spec.p_max else 0
    upper = _wigner_values(s.amplitudes, spec.x_axis(), spec.p_axis()[half:])
    return WignerGrid(spec, _mirrored(upper, half),
                      _coverage_warning(s.amplitudes.tolist(), s.tail_mass, spec))


# The frame grid's largest k.  Its monomial form stays within 2.8e-15 of the
# windowed kernel run on phi up to here and takes 17 ms at k = 10, which a
# grid the frame does not certify adds to the command (2-core VM, CHANGES.md).
_FRAME_K = 10
# Most cells the certificate evaluates on the window, 0.24-1.3 ms each at
# windows of 25-40 levels.
_MAX_CANDIDATES = 16
# Bounds the frame grid's and the windowed kernel's rounding together.
_CERT_EPS = 1e-9
# Bounds the difference between the window's W at a cell by `_window_value`
# and by `wigner`: 11 times the largest seen, 8.9e-16 (CHANGES.md).
_ROUNDING = 1e-14


def _poisson_tail(mu: float, n: int) -> float:
    """An upper bound on sum_{m >= n} e^-mu mu^m / m!, summed from m = n
    (1 minus the sum below n rounds to 0 under 1e-16): terms one by one
    until their ratio mu / (m + 1) is at most 1/2 and they fall below
    1e-17 of the sum, then a geometric bound on the rest."""
    if mu == 0.0:
        return 0.0 if n else 1.0
    term = math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
    total = 0.0
    while term > 1e-17 * total or mu / (n + 1) > 0.5:
        total += term
        term *= mu / (n + 1)
        n += 1
    # the log form's and the sum's rounding, far inside the factor
    return (total + term / (1.0 - mu / (n + 1))) * (1.0 + 1e-9)


def _frame_polynomial(phi: list[float], prob: float) -> list[list[float]]:
    """d with W_phi(u, v) = (2/pi) e^{-2u^2 - 2v^2} sum_{q,p} d[q][p] u^p v^2q
    for a real phi on the levels 0..k, normalized by prob = |phi|^2.

    <m|D(2z)|n> = e^{-2|z|^2} sum_j sqrt(m! n!) (2z)^(m-j) (-2 conj z)^(n-j)
    / (j! (m-j)! (n-j)!), so with a = m - j and b = n - j the parity (-1)^n
    leaves P = sum_{a,b} c_ab z^a conj(z)^b, with

        c_ab = 2^(a+b) / (a! b!) sum_j (-1)^j sqrt((a+j)! (b+j)!) / j!
               phi_(a+j) phi_(b+j) / prob,

    symmetric in a and b.  z^a conj(z)^b = sum_q e_q i^q u^(a+b-q) v^q with
    e_q the coefficient of x^q in (1 + x)^a (1 - x)^b; the odd powers of v
    cancel between c_ab and c_ba.
    """
    k = len(phi) - 1
    fact = [math.factorial(n) for n in range(k + 1)]
    d = [[0.0] * (2 * k + 1 - 2 * q) for q in range(k + 1)]
    for a in range(k + 1):
        for b in range(k + 1):
            c = math.fsum((-1) ** j * math.sqrt(fact[a + j] * fact[b + j])
                          / fact[j] * phi[a + j] * phi[b + j]
                          for j in range(k + 1 - max(a, b)))
            c *= 2.0 ** (a + b) / (fact[a] * fact[b]) / prob
            for q in range(0, a + b + 1, 2):
                e = sum((-1) ** t * math.comb(a, q - t) * math.comb(b, t)
                        for t in range(max(0, q - a), min(q, b) + 1))
                d[q // 2][a + b - q] += (-1) ** (q // 2) * e * c
    return d


def _frame_grid(beta: float, phi: list[float], prob: float, xs: list[float],
                ps: list[float]) -> list[list[float]]:
    """W of D(beta) phi / |phi| on the cells xs by ps, for a real beta and
    phi: W_phi(x - beta, p), one x row at a time from the 2k + 1 row
    coefficients of `_frame_polynomial` and k + 1 columns v^2q e^{-2v^2}."""
    d = _frame_polynomial(phi, prob)
    cols = [[p ** (2 * q) * math.exp(-2.0 * p * p) for p in ps]
            for q in range(len(d))]
    rows = []
    for x in xs:
        u = x - beta
        scale = 2.0 / math.pi * math.exp(-2.0 * u * u)
        row = [0.0] * len(ps)
        for dq, col in zip(d, cols):
            r = 0.0
            for coeff in reversed(dq):
                r = r * u + coeff
            r *= scale
            row = [w + r * c for w, c in zip(row, col)]
        rows.append(row)
    return rows


def _window_candidates(alpha: complex, psi: list, frame) -> list | None:
    """The cells (x, p) of the default grid's half plane p >= 0 that can hold
    the minimum of the grid of the windowed state psi (the mirror half
    repeats them), from the frame (beta, phi, |phi|^2) of the same state;
    None when the frame does not narrow them to _MAX_CANDIDATES.

    Both are unit vectors: psi = P chi / |P chi| is the exact state chi
    cut to the window P, so |psi - chi|^2 <= 2t with t the probability of
    chi beyond the window, at most the coherent tail beyond it over |phi|^2
    (every |C_n| <= 1).  W of unit vectors differs by at most (4/pi) times
    their distance, so the windowed grid is within
    delta = (4/pi) sqrt(2t) + _CERT_EPS of the frame's, and a cell more than
    2 delta above the frame's minimum cannot hold the windowed minimum."""
    beta, phi, prob = frame
    if isinstance(alpha, complex) or len(phi) - 1 > _FRAME_K:
        return None
    spec = WignerGridSpec()
    xs = _centres(spec.x_min, spec.x_max, spec.nx, spec.dx)
    ps = _centres(spec.p_min, spec.p_max, spec.np, spec.dp)[spec.np // 2:]
    rows = _frame_grid(beta, [c.real for c in phi], prob, xs, ps)
    tail = _poisson_tail(abs(alpha) ** 2, len(psi)) / prob
    top = min(map(min, rows)) + 2.0 * (4.0 / math.pi * math.sqrt(2.0 * tail)
                                       + _CERT_EPS)
    cells = list(islice(((x, p) for x, row in zip(xs, rows)
                         for p, w in zip(ps, row) if w <= top),
                        _MAX_CANDIDATES + 1))
    return cells if len(cells) <= _MAX_CANDIDATES else None


def _window_value(psi: list[float], x: float, p: float) -> float:
    """W(x, p) of the real normalized state psi:
    (2/pi) sum_{m,n} psi_m psi_n (-1)^n <m|D(2(x + ip))|n>."""
    cols = _displaced_columns(complex(2.0 * x, 2.0 * p), len(psi), len(psi))
    total = sum((-1) ** n * c * sum(map(mul, col, psi))
                for n, (c, col) in enumerate(zip(psi, cols)))
    return 2.0 / math.pi * total.real


def _wigner_min(alpha: complex, psi: list, tail: float,
                frame) -> tuple[float, str | None]:
    """(minimum, coverage warning) of the default grid of the windowed state
    psi, normalized, with its tail mass and the frame (beta, phi, |phi|^2)
    of the same state, as `wigner` gives them; `cmd_state` and every
    wigner_min sweep point take it.  The grid's budget is checked first.
    Where `_window_candidates` narrows the minimum to a few cells, it is the
    least of psi's values there, if every value within _ROUNDING of it
    prints the same 9 digits, so that it prints the grid minimum's, and
    loads no numpy; otherwise `wigner` computes the grid."""
    spec = WignerGridSpec()
    _check_wigner_work(len(psi), spec)
    cells = _window_candidates(alpha, psi, frame)
    if cells is not None:
        minimum = min(_window_value(psi, x, p) for x, p in cells)
        if fmt9(minimum - _ROUNDING) == fmt9(minimum + _ROUNDING):
            return minimum, _coverage_warning(psi, tail, spec)
    from .fock import FockState

    grid = wigner(FockState(psi, tail), spec)
    return float(grid.values.min()), grid.coverage_warning


def wigner_negativity(w: WignerGrid) -> tuple[float, float]:
    """(minimum grid value, integral of |W| over the negative region)."""
    min_value = float(w.values.min())
    neg = w.values[w.values < 0.0]
    volume = float(-neg.sum() * w.spec.dx * w.spec.dp) if neg.size else 0.0
    return min_value, volume


def wigner_to_csv(w: WignerGrid) -> str:
    """Row-major CSV with header x,p,w; 9 significant digits."""
    return "".join(_wigner_csv_rows(w))


def _wigner_csv_rows(w: WignerGrid) -> Iterator[str]:
    """`wigner_to_csv`'s text in pieces: the header, then the lines of one x
    row at a time, from one %-template: the row's x cell joins its
    ",p,%w\n" suffixes, built once for the grid."""
    suffixes = [f",{fmt9(p)},%{FMT9}\n" for p in w.spec.p_axis()]
    yield "x,p,w\n"
    for x, row in zip(w.spec.x_axis(), w.values):
        x_cell = fmt9(x)
        yield (x_cell + x_cell.join(suffixes)) % tuple(row.tolist())


def wigner_to_pgm(w: WignerGrid) -> bytes:
    """16-bit NetPBM heatmap: linear map of [min, max] onto 0..65535."""
    import numpy as np

    lo = float(w.values.min())
    hi = float(w.values.max())
    if hi > lo:
        scaled = np.round((w.values - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(w.values)
    img = scaled.astype(">u2")
    header = f"P5\n{w.spec.np} {w.spec.nx}\n65535\n".encode("ascii")
    return header + img.tobytes()
