"""Truncated Fock-space states, canonical constructors and overlap primitives."""

from __future__ import annotations

import math

import numpy as np

from . import core
from .core import (NORM_TOL, TAIL_GATE, TruncationError,
                   UndefinedQuantityError, _parse_state, default_dim, fmt17)


class FockState:
    """Single-mode pure state sum_n amplitudes[n] |n> over n = 0..dim-1.

    ``tail_mass`` is the state's own probability beyond the window, as a
    fraction of the untruncated state's, kept so downstream consumers can
    gate on truncation quality (`iterated_pcoc` keeps its input's).
    """

    def __init__(self, amplitudes, tail_mass: float = 0.0):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1d vector")
        self.amplitudes, self.tail_mass = amps, tail_mass

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "FockState":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockState(self.amplitudes / math.sqrt(n2), self.tail_mass)


class PhotonNumberDistribution:
    """Probability vector over photon number."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probabilities must be a non-empty 1d vector")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"probabilities sum to {p.sum():.12g}, expected 1")
        self.probabilities = np.clip(p, 0.0, 1.0)

    @property
    def size(self) -> int:
        return self.probabilities.size


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized-in-window coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    return np.array(core.coherent_amplitudes(alpha, dim), dtype=complex)


def make_coherent(alpha: complex, dim: int | None = None) -> FockState:
    """Coherent state |alpha> truncated to ``dim`` levels (gated as in
    `core.coherent_window`)."""
    if dim is None:
        dim = default_dim(alpha)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return FockState(*core.coherent_window(alpha, dim)).normalized()


def make_fock(k: int, dim: int) -> FockState:
    """Number state |k>."""
    if not 0 <= k < dim:
        raise ValueError(f"photon number k={k} out of range for dim={dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return FockState(amps, 0.0)


def _css_terms(alpha: float, beta: float, dim: int, displaced_cat: bool):
    """Raw CSS coefficients before normalization.

    The literal expansion uses ((beta+alpha)^n + (beta-alpha)^n)/sqrt(n!),
    which weights the two superposed branches without their coherent-state
    Gaussian factors.  With ``displaced_cat`` the branches are true displaced
    coherent states D(beta)(|alpha> + |-alpha>), i.e. each branch carries
    e^{-(beta+-alpha)^2/2}.
    """
    p = beta + alpha
    q = beta - alpha
    wp = math.exp(-p * p / 2.0) if displaced_cat else 1.0
    wq = math.exp(-q * q / 2.0) if displaced_cat else 1.0
    coeffs = np.zeros(dim, dtype=complex)
    tp, tq = wp, wq          # running  w * x^n / sqrt(n!)
    coeffs[0] = tp + tq
    for n in range(1, dim):
        tp *= p / math.sqrt(n)
        tq *= q / math.sqrt(n)
        coeffs[n] = tp + tq
    # Total squared norm of the untruncated series, for the tail estimate:
    # sum_n |w_p p^n + w_q q^n|^2 / n! = w_p^2 e^{p^2} + w_q^2 e^{q^2} + 2 w_p w_q e^{pq}
    total = (wp * wp * math.exp(p * p) + wq * wq * math.exp(q * q)
             + 2.0 * wp * wq * math.exp(p * q))
    return coeffs, total


def make_css(alpha: float, beta: float, dim: int | None = None,
             displaced_cat: bool = False) -> FockState:
    """Superposition of two coherent-state branches beta+alpha and beta-alpha.

    Default is the literal Fock expansion ((beta+alpha)^n + (beta-alpha)^n)/sqrt(n!);
    ``displaced_cat=True`` builds the standard displaced even cat instead.  Both
    are kept because the two conventions differ and downstream comparisons test
    against each.
    """
    if dim is None:
        dim = default_dim(abs(beta) + abs(alpha))
    if dim < 1:
        raise ValueError("dim must be >= 1")
    coeffs, total = _css_terms(float(alpha), float(beta), dim, displaced_cat)
    inside = float(np.vdot(coeffs, coeffs).real)
    tail = max(0.0, 1.0 - inside / total) if total > 0 else 0.0
    if tail > TAIL_GATE:
        raise TruncationError(
            f"CSS tail mass {tail:.3e} exceeds {TAIL_GATE:.0e} at dim={dim}")
    return FockState(coeffs, tail).normalized()


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for pure states; amplitudes beyond the shorter window pair
    with zeros and drop out."""
    n = min(a.dim, b.dim)
    return abs(complex(np.vdot(a.amplitudes[:n], b.amplitudes[:n]))) ** 2


def number_distribution(s: FockState) -> PhotonNumberDistribution:
    p = np.abs(s.amplitudes) ** 2
    total = p.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized before taking its distribution")
    return PhotonNumberDistribution(p / total)


def factorial_moments(p: np.ndarray) -> tuple[float, float]:
    """(<n>, <n(n-1)>) of probabilities p over n = 0, 1, 2, ..."""
    n = np.arange(p.size, dtype=float)
    return float(np.dot(p, n)), float(np.dot(p, n * (n - 1.0)))


def state_to_json(s: FockState) -> str:
    """Serialize to the fixed schema {dim, amplitudes: [[re, im], ...], tail_mass}."""
    rows = ",".join(
        f"[{fmt17(a.real)},{fmt17(a.imag)}]" for a in s.amplitudes)
    return (f'{{"dim": {s.dim}, "amplitudes": [{rows}], '
            f'"tail_mass": {fmt17(s.tail_mass)}}}')


def state_from_json(text: str) -> FockState:
    """Parse the `state_to_json` schema (a missing tail_mass reads 0); any
    other document raises a ValueError that says what is wrong."""
    amplitudes, tail_mass = _parse_state(text)
    return FockState(np.array(amplitudes, dtype=complex), tail_mass)
