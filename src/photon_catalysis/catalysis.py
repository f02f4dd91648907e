"""Heralded beam-splitter interference of a coherent state with a k-photon catalyst.

Closed-form path: the conditioned amplitudes a_n = e^{-|a|^2/2} a^n/sqrt(n!) C_n
with the interference coefficient

    C_n(r, t, k) = sum_j binom(n, j) binom(k, j) (-1)^j t^{n+k-2j} r^{2j}.

catalysis_coefficient takes that sum one n at a time, as the reference; it
cancels at large n k.  Every state takes C from the three-term recurrence
over whole rows of `core._row`, which does not, and is built by the
standard-library heralded-state kernel `core._herald`, the one every
optimizer probe (`design`) takes.  A one-stage state's tail_mass is its
own, against the untruncated herald probability of `frame`.  numpy loads
with the module: FockState, the two-mode output U|alpha>|k> from the
displaced frame of `frame` (two_mode_output), and the brute-force oracle
(two-mode unitary from a matrix exponential, then projection) the closed
forms are tested against, which alone loads scipy, at its first use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (HERALD_CUTOFF, UndefinedQuantityError, _check_stage,
                   _herald, _stage_window, coherent_window)
from .frame import _displaced_columns, _weights, _windowed

# The reference sum's binomials are exact integers up to this order, log-gamma beyond.
_EXACT_BINOM_LIMIT = 64


class BeamSplitter:
    """Intensity reflectivity r2 with derived real amplitudes r, t.

    t2 is stored as the exact float complement 1 - r2 so that expressions in
    even powers of t cancel exactly where the algebra says they should
    (e.g. t^2 - r^2 = 0 at r2 = 0.5).
    """

    def __init__(self, r2: float):
        _check_stage(r2)
        self.r2 = r2

    @property
    def t2(self) -> float:
        return 1.0 - self.r2

    @property
    def r(self) -> float:
        return math.sqrt(self.r2)

    @property
    def t(self) -> float:
        return math.sqrt(self.t2)


class CatalysisConfig:
    """Interaction parameters for a single catalysis stage; ``dim`` is the
    checked window (`core._stage_window`)."""

    def __init__(self, alpha: complex, bs: BeamSplitter, k: int,
                 dim: int | None = None):
        self.alpha, self.bs, self.k = alpha, bs, k
        self.dim = _stage_window(alpha, ((bs.r2, k),), dim)


class IteratedConfig:
    """A cascade of catalysis stages (r2, k) applied to one coherent input."""

    def __init__(self, alpha: complex, stages, dim: int | None = None):
        if len(stages) == 0:
            raise ValueError("at least one stage required")
        self.alpha = alpha
        self.stages = tuple((float(r2), int(k)) for r2, k in stages)
        self.dim = _stage_window(alpha, self.stages, dim)


class TwoModeState:
    """Joint pure state on two truncated modes, amplitudes indexed (n_a, n_b)."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("two-mode amplitudes must be a matrix")
        self.amplitudes = amps

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _binom(n: int, j: int) -> float:
    if n + j <= _EXACT_BINOM_LIMIT:
        return float(math.comb(n, j))
    return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1))


def catalysis_coefficient(n: int, k: int, bs: BeamSplitter) -> float:
    """Two-mode matrix element <n, k| U |n, k> of the beam-splitter unitary.

    Powers of t are taken through t2 = 1 - r2 for the even part so that the
    j-alternating sum cancels exactly at analytically forced zeros.
    """
    if n < 0 or k < 0:
        raise ValueError("photon numbers must be non-negative")
    r2, t2, t = bs.r2, bs.t2, bs.t
    total = 0.0
    for j in range(min(n, k) + 1):
        e = n + k - 2 * j
        tp = t2 ** (e // 2) * (t if e % 2 else 1.0)
        term = _binom(n, j) * _binom(k, j) * tp * r2 ** j
        total += -term if j % 2 else term
    return total


def _state(raw: list, prob: float, tail: float) -> FockState:
    """The heralded state raw / |raw| with ``tail``; refuses a dead herald."""
    from .fock import FockState

    if prob < HERALD_CUTOFF:
        raise UndefinedQuantityError("herald outcome has zero probability")
    norm = math.sqrt(prob)
    return FockState([a / norm for a in raw], tail)


def pcoc_state(cfg: CatalysisConfig) -> tuple[FockState, float]:
    """Conditioned state and herald success probability: iterated_pcoc with one stage.

    The success probability is sum_n |a_n|^2 with the coherent Poisson weights
    included (the r2=0 limit gives exactly 1 and the r2=1 limit the Poisson
    weight of |k> in the input, both confirmed by the brute-force oracle).
    The state's tail_mass is the output's own, 1 - probability / |phi|^2
    with |phi|^2 untruncated, gated at TAIL_GATE (`frame._windowed`).
    """
    from .fock import FockState

    psi, prob, tail, _ = _windowed(cfg.alpha, cfg.bs.r2, int(cfg.k), cfg.dim)
    return FockState(psi, tail), prob


def success_probability_analytic(alpha: complex, bs: BeamSplitter) -> float:
    """Closed-form herald probability for a single-photon catalyst (k=1 only)."""
    u = abs(alpha) ** 2
    x = bs.r2
    return math.exp(-x * u) * (1.0 - x * (1.0 - u * (x * (3.0 + u) - 2.0 - x * x * u)))


def iterated_pcoc(cfg: IteratedConfig) -> tuple[FockState, float]:
    """Cascaded catalysis: each stage multiplies layer n by its own C_n.

    The returned probability is the joint success probability of all stage
    heralds, which for a cascade factorizes through the product coefficients.
    The state's tail_mass is the coherent input's tail beyond the window.
    """
    u, tail = coherent_window(cfg.alpha, cfg.dim)
    raw, prob = _herald(cfg.alpha, cfg.dim, cfg.stages, u)
    return _state(raw, prob, tail), prob


def two_mode_output(cfg: CatalysisConfig) -> TwoModeState:
    """U |alpha>|k> on both output modes, from the displaced frame.

    U D_a(alpha) U^+ = D_a(t alpha) D_b(-r alpha) and U|0, k> = sum_j w_j
    |j, k - j> (the convention is bs_transform's) give

        A[m, l] = sum_j w_j <m|D(t alpha)|j> <l|D(-r alpha)|k - j>.

    U conserves photon number, so the windowed input sum_{n < dim} a_n |n, k>
    fills exactly the cells with k <= m + l < dim + k; every other cell is
    set to zero, where the frame leaves the amplitudes beyond the window or
    rounding residue.  Heralding l = k leaves C_n.
    """
    return TwoModeState(_two_mode_amplitudes(cfg))


def _two_mode_amplitudes(cfg: CatalysisConfig) -> np.ndarray:
    """`two_mode_output`'s A as one product of the two column blocks, real
    for a real alpha, with the cells outside the window zeroed row by row."""
    coherent_window(cfg.alpha, cfg.dim)   # refuses a tail above TAIL_GATE
    k, side, r, t = cfg.k, cfg.dim + cfg.k, cfg.bs.r, cfg.bs.t
    a = np.array(_displaced_columns(t * cfg.alpha, side, k + 1)).T * _weights(r, t, k)
    b = np.array(_displaced_columns(-r * cfg.alpha, side, k + 1))[::-1]
    amps = a @ b
    for m, row in enumerate(amps):   # keep k <= m + l < side
        row[:max(0, k - m)] = 0.0
        row[side - m:] = 0.0
    return amps


@lru_cache(maxsize=4096)
def _block_unitary(r2: float, n_total: int) -> np.ndarray:
    """Beam-splitter unitary restricted to the total-photon-number-N block.

    Basis |m, N-m> for m = 0..N.  Generator K = a^+ b - b^+ a, U = exp(theta K)
    with theta = arcsin(r); this convention gives U a^+ U^+ = t a^+ - r b^+ and
    U b^+ U^+ = r a^+ + t b^+, which reproduces C_n exactly.  theta is taken
    as atan2(r, t): asin(sqrt(r2)) loses t near r2 = 1 (at r2 = 1 - 1.1e-16
    it gives t = 1.5e-8 for 1.05e-8).
    """
    from scipy.linalg import expm

    if n_total == 0:
        return np.ones((1, 1))
    theta = math.atan2(math.sqrt(r2), math.sqrt(1.0 - r2))
    size = n_total + 1
    gen = np.zeros((size, size))
    for m in range(n_total):
        c = math.sqrt((m + 1) * (n_total - m))
        gen[m + 1, m] = c
        gen[m, m + 1] = -c
    return expm(theta * gen)


def bs_transform(s: TwoModeState, bs: BeamSplitter) -> TwoModeState:
    """Exact unitary action, computed blockwise per conserved total photon number.

    Any populated amplitude whose block does not fit inside both mode windows is
    a hard error: a conserved block is never silently truncated.
    """
    amps = s.amplitudes
    da, db = amps.shape
    out = np.zeros_like(amps)
    max_block = min(da, db) - 1
    for n_total in range(da + db - 1):
        ms = np.arange(max(0, n_total - db + 1), min(da - 1, n_total) + 1)
        block = amps[ms, n_total - ms]
        if not np.any(block):
            continue
        if n_total > max_block:
            raise ValueError(
                f"populated total-photon block N={n_total} exceeds the window "
                f"(dims {da}x{db}); enlarge the state before transforming")
        u = _block_unitary(bs.r2, n_total)
        res = u @ amps[np.arange(n_total + 1), n_total - np.arange(n_total + 1)]
        out[np.arange(n_total + 1), n_total - np.arange(n_total + 1)] = res
    return TwoModeState(out)


def herald(s: TwoModeState, herald_mode: int, k: int) -> tuple[FockState | None, float]:
    """Project the herald mode onto |k>; returns (state, probability).

    A zero-probability outcome returns (None, 0.0) rather than raising: the
    None state is the unnormalizable-outcome flag.
    """
    from .fock import FockState

    if herald_mode not in (0, 1):
        raise ValueError("herald_mode must be 0 or 1")
    dim_h = s.amplitudes.shape[herald_mode]
    if not 0 <= k < dim_h:
        raise ValueError(f"herald photon number k={k} out of range for dim={dim_h}")
    column = s.amplitudes[k, :] if herald_mode == 0 else s.amplitudes[:, k]
    prob = float(np.vdot(column, column).real)
    if prob < HERALD_CUTOFF:
        return None, 0.0
    return FockState(column, 0.0).normalized(), prob


def pcoc_oracle(cfg: CatalysisConfig) -> tuple[FockState, float]:
    """Brute-force path: build |alpha> x |k>, apply the unitary, project.

    Makes no use of the closed-form coefficients; this is the independent
    reference for the closed-form path.
    """
    from .fock import FockState

    coh, _ = coherent_window(cfg.alpha, cfg.dim)
    side = cfg.dim + cfg.k
    joint = np.zeros((side, side), dtype=complex)
    joint[:cfg.dim, cfg.k] = coh
    rotated = bs_transform(TwoModeState(joint), cfg.bs)
    state, prob = herald(rotated, 1, cfg.k)
    if state is None:
        raise UndefinedQuantityError("herald outcome has zero probability")
    return FockState(state.amplitudes[:cfg.dim], 0.0).normalized(), prob


def oracle_discrepancy(cfg: CatalysisConfig) -> dict:
    """Closed form vs oracle comparison record."""
    s1, p1 = pcoc_state(cfg)
    s2, p2 = pcoc_oracle(cfg)
    max_amp = float(abs(s1.amplitudes - s2.amplitudes).max())
    return {
        "config": {"alpha_re": complex(cfg.alpha).real, "alpha_im": complex(cfg.alpha).imag,
                   "r2": cfg.bs.r2, "k": cfg.k, "dim": cfg.dim},
        "max_amp_err": max_amp,
        "prob_err": abs(p1 - p2),
    }
