"""Detection chain model: binomial loss plus time-multiplexed click counting.

Photons are routed independently and uniformly into a fixed number of bins,
each bin a non-number-resolving click detector.  Every loss and click matrix
comes from one chain that adds one photon at a time, never from sampling, so
every consumer is deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .catalysis import CatalysisConfig, two_mode_output
from .fock import (PhotonNumberDistribution, TruncationError,
                   UndefinedQuantityError, factorial_moments)

__all__ = [
    "LossChannel", "TMDConfig", "ClickDistribution", "JointClickDistribution",
    "apply_loss", "tmd_click_distribution", "joint_output_distribution",
    "g2_from_clicks",
]


class LossChannel:
    """Each photon independently survives with probability eta."""

    def __init__(self, eta: float):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta={eta} outside [0, 1]")
        self.eta = eta


class TMDConfig(namedtuple("TMDConfig", "eta bins")):
    """Click-counting detector: loss eta followed by uniform routing into
    bins.  A value: equal configs share `_loss_click_matrix`'s cache entry."""

    __slots__ = ()

    def __new__(cls, eta: float, bins: int = 8):
        if bins < 1:
            raise ValueError(f"--bins {bins} must be an integer >= 1")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta={eta} outside [0, 1]")
        return super().__new__(cls, eta, bins)


class ClickDistribution:
    """Probabilities of observing 0..bins clicks."""

    def __init__(self, probabilities, bins: int):
        p = np.asarray(probabilities, dtype=float)
        if p.size != bins + 1:
            raise ValueError("need bins + 1 click probabilities")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"click probabilities sum to {p.sum():.12g}")
        self.probabilities, self.bins = p, bins


class JointClickDistribution:
    """P[i, j] for i clicks on the first detector and j on the second."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 2:
            raise ValueError("joint click probabilities must be a matrix")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"joint click probabilities sum to {p.sum():.12g}")
        self.probabilities = p


def _photon_chain(n_max: int, stay: np.ndarray, step: np.ndarray) -> np.ndarray:
    """T[n, c] = P(outcome c | n photons), adding one photon at a time.

    A photon leaves the outcome at c with probability stay[c] or moves it from
    c - 1 to c with probability step[c]:
    T[n+1, c] = T[n, c] stay[c] + T[n, c-1] step[c].  Every term is
    nonnegative, so nothing cancels and nothing overflows at any n.
    """
    t = np.zeros((n_max + 1, stay.size))
    t[0, 0] = 1.0
    for n in range(n_max):
        t[n + 1] = t[n] * stay
        t[n + 1, 1:] += t[n, :-1] * step[1:]
    return t


def apply_loss(d: PhotonNumberDistribution,
               ch: LossChannel) -> PhotonNumberDistribution:
    """Binomial thinning: each photon survives (m -> m+1) with probability eta."""
    n = d.size
    loss = _photon_chain(n - 1, np.full(n, 1.0 - ch.eta), np.full(n, ch.eta))
    return PhotonNumberDistribution(d.probabilities @ loss)


def tmd_click_distribution(d: PhotonNumberDistribution,
                           cfg: TMDConfig) -> ClickDistribution:
    """Loss, then exact occupancy statistics of uniform routing into bins."""
    return ClickDistribution(
        d.probabilities @ _loss_click_matrix(d.size - 1, cfg), cfg.bins)


def joint_output_distribution(cfg: CatalysisConfig, cfg1: TMDConfig,
                              cfg2: TMDConfig) -> JointClickDistribution:
    """Click statistics of both beam-splitter output arms, with no heralding.

    The joint state is the two-mode output U|alpha>|k>; detector 1 sees the
    mode carrying the transformed coherent input, detector 2 the mode the
    catalyst was injected into.  The table holds the input window's photon
    numbers only, so it misses its norm by the coherent tail beyond --dim; a
    miss above 1e-10 is refused as a TruncationError.
    """
    q = np.abs(two_mode_output(cfg).amplitudes) ** 2
    tail = 1.0 - q.sum()
    if abs(tail) > 1e-10:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} beyond --dim {cfg.dim} exceeds "
            f"1e-10, the two-mode table's norm tolerance; raise --dim")
    n_max = q.shape[0] - 1
    return JointClickDistribution(
        _loss_click_matrix(n_max, cfg1).T @ q @ _loss_click_matrix(n_max, cfg2))


@lru_cache(maxsize=64)
def _loss_click_matrix(n_max: int, cfg: TMDConfig) -> np.ndarray:
    """T[n, c] = P(c clicks | n photons) through loss eta and then the bins.

    A photon is lost or lands in one of the c already clicked bins (stay), or
    survives into one of the bins - c + 1 empty ones (step from c - 1).
    Cached, because a scan asks for the same matrix at every point; read-only,
    so no caller can change the cached copy.
    """
    eta, bins = cfg.eta, cfg.bins
    c = np.arange(bins + 1, dtype=float)
    out = _photon_chain(n_max, (1.0 - eta) + eta * c / bins,
                        eta * (bins - c + 1.0) / bins)
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
    m1, m2 = factorial_moments(c.probabilities)
    if m1 <= 0.0:
        raise UndefinedQuantityError("g2 undefined for zero mean click count")
    return (cfg.bins / (cfg.bins - 1.0)) * m2 / m1 ** 2
