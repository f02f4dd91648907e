"""Detection chain model: binomial loss plus time-multiplexed click counting.

Photons are routed independently and uniformly into a fixed number of bins,
each bin a non-number-resolving click detector.  All probabilities come from
exact combinatorics (surjection counts), never sampling, so every consumer is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalysis import CatalysisConfig, two_mode_output
from .fock import PhotonNumberDistribution, UndefinedQuantityError, fmt9

__all__ = [
    "LossChannel", "TMDConfig", "ClickDistribution", "JointClickDistribution",
    "apply_loss", "tmd_click_distribution", "joint_output_distribution",
    "g2_from_clicks", "joint_to_csv", "joint_to_json",
]

@dataclass(frozen=True)
class LossChannel:
    """Each photon independently survives with probability eta."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True)
class TMDConfig:
    """Click-counting detector: loss eta followed by uniform routing into bins."""

    eta: float
    bins: int = 8

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class ClickDistribution:
    """Probabilities of observing 0..bins clicks."""

    probabilities: np.ndarray
    bins: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.size != self.bins + 1:
            raise ValueError("need bins + 1 click probabilities")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"click probabilities sum to {p.sum():.12g}")
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True, eq=False)
class JointClickDistribution:
    """P[i, j] for i clicks on the first detector and j on the second."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 2:
            raise ValueError("joint click probabilities must be a matrix")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"joint click probabilities sum to {p.sum():.12g}")
        object.__setattr__(self, "probabilities", p)


def _loss_matrix(n_max: int, eta: float) -> np.ndarray:
    """L[n, m] = binom(n, m) eta^m (1-eta)^(n-m): m of n photons survive."""
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for m in range(n + 1):
            out[n, m] = math.comb(n, m) * eta ** m * (1.0 - eta) ** (n - m)
    return out


def apply_loss(d: PhotonNumberDistribution,
               ch: LossChannel) -> PhotonNumberDistribution:
    """Binomial thinning: p'_m = sum_n p_n binom(n, m) eta^m (1-eta)^(n-m)."""
    return PhotonNumberDistribution(d.probabilities @ _loss_matrix(d.size - 1, ch.eta))


def _surjections(n: int, c: int) -> int:
    """Number of ways n distinguishable photons occupy exactly c given bins."""
    return sum((-1) ** i * math.comb(c, i) * (c - i) ** n for i in range(c + 1))


def _click_matrix(n_max: int, bins: int) -> np.ndarray:
    """T[n, c] = P(c clicks | n photons) for ideal uniform routing."""
    t = np.zeros((n_max + 1, bins + 1))
    t[0, 0] = 1.0
    for n in range(1, n_max + 1):
        denom = float(bins) ** n
        for c in range(1, min(n, bins) + 1):
            t[n, c] = math.comb(bins, c) * _surjections(n, c) / denom
    return t


def tmd_click_distribution(d: PhotonNumberDistribution,
                           cfg: TMDConfig) -> ClickDistribution:
    """Loss, then exact occupancy statistics of uniform routing into bins."""
    lossy = apply_loss(d, LossChannel(cfg.eta))
    t = _click_matrix(lossy.size - 1, cfg.bins)
    return ClickDistribution(lossy.probabilities @ t, cfg.bins)


def joint_output_distribution(cfg: CatalysisConfig, cfg1: TMDConfig,
                              cfg2: TMDConfig) -> JointClickDistribution:
    """Click statistics of both beam-splitter output arms, with no heralding.

    The joint state is built from the closed-form two-mode amplitudes;
    detector 1 sees the mode carrying the transformed coherent input, detector
    2 the mode the catalyst was injected into.
    """
    q = np.abs(two_mode_output(cfg).amplitudes) ** 2
    n_max = q.shape[0] - 1
    return JointClickDistribution(
        _loss_click_matrix(n_max, cfg1).T @ q @ _loss_click_matrix(n_max, cfg2))


@lru_cache(maxsize=64)
def _loss_click_matrix(n_max: int, cfg: TMDConfig) -> np.ndarray:
    """T[n, c] including the loss channel commuted in front of the binning.

    Cached, because a scan asks for the same matrix at every point; read-only,
    so no caller can change the cached copy.
    """
    out = _loss_matrix(n_max, cfg.eta) @ _click_matrix(n_max, cfg.bins)
    out.flags.writeable = False
    return out


def g2_from_clicks(c: ClickDistribution, cfg: TMDConfig) -> float:
    """Finite-bin correlation estimator (bins/(bins-1)) <m(m-1)> / <m>^2.

    The prefactor removes the collision bias exactly for Poissonian input at
    any bin count (independent Poisson bin occupancies make the click count
    binomial); for other inputs the estimator is exact only as bins -> inf.
    """
    if cfg.bins < 2:
        raise ValueError("estimator needs at least 2 bins")
    if c.bins != cfg.bins:
        raise ValueError("click distribution and config disagree on bins")
    m = np.arange(c.probabilities.size, dtype=float)
    m1 = float(np.dot(c.probabilities, m))
    if m1 <= 0.0:
        raise UndefinedQuantityError("g2 undefined for zero mean click count")
    m2 = float(np.dot(c.probabilities, m * (m - 1.0)))
    return (cfg.bins / (cfg.bins - 1.0)) * m2 / m1 ** 2


def joint_to_csv(j: JointClickDistribution) -> str:
    lines = ["i,j,p"]
    ni, nj = j.probabilities.shape
    for i in range(ni):
        for jj in range(nj):
            lines.append(f"{i},{jj},{fmt9(j.probabilities[i, jj])}")
    return "\n".join(lines) + "\n"


def joint_to_json(j: JointClickDistribution) -> str:
    rows = ",".join(
        "[" + ",".join(fmt9(v) for v in row) + "]" for row in j.probabilities)
    return f'{{"probabilities": [{rows}]}}'
