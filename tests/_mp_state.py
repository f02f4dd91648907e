"""High-precision references for the interference coefficients and the
windowed heralded states: the alternating binomial sum of
`catalysis.catalysis_coefficient`, taken in mpmath at a precision that its
cancellation cannot exhaust.  Its terms sum in magnitude to at most
(r + t)^(n + k) <= 2^((n + k) / 2), so 30 digits more than (n + k) / 6
leave every coefficient exact to about 30 digits."""

import math

import mpmath
import numpy as np


def _digits(side: int) -> int:
    return 30 + side // 6


def _coefficients(r2: float, k: int, dim: int) -> list:
    """C_n for n < dim as mpf, at the working precision."""
    r2m = mpmath.mpf(r2)
    t2 = 1 - r2m
    t = mpmath.sqrt(t2)
    # t^e as (1 - r2)^(e // 2), times t for an odd e, the rule of
    # `catalysis.catalysis_coefficient`: at r2 = 0.5, n = k = 5 the exact
    # C_5 = 0, where t^e in powers of a rounded sqrt left a residue of 1e-36
    t_pow = [t2 ** (e // 2) * (t if e % 2 else 1) for e in range(dim + k)]
    r2_pow = [r2m ** j for j in range(k + 1)]
    return [mpmath.fsum((-1) ** j * math.comb(n, j) * math.comb(k, j)
                        * t_pow[n + k - 2 * j] * r2_pow[j]
                        for j in range(min(n, k) + 1))
            for n in range(dim)]


def coefficient_row_mp(r2: float, k: int, dim: int) -> np.ndarray:
    """`core._row(r2, k, dim)`, rounded from the exact sum."""
    with mpmath.workdps(_digits(dim + k)):
        return np.array([float(c) for c in _coefficients(r2, k, dim)])


def state_mp(alpha: float, stages, dim: int) -> tuple[np.ndarray, float]:
    """(normalized amplitudes, herald probability) of the cascade `stages`
    of (r2, k) on the window |alpha> restricted to n < dim, for a real alpha."""
    with mpmath.workdps(_digits(dim + max(k for _, k in stages))):
        a = mpmath.mpf(alpha)
        raw = [mpmath.exp(-a * a / 2) * a ** n / mpmath.sqrt(mpmath.factorial(n))
               for n in range(dim)]
        for r2, k in stages:
            raw = [x * c for x, c in zip(raw, _coefficients(r2, k, dim))]
        prob = mpmath.fsum(x * x for x in raw)
        if prob == 0:
            return np.zeros(dim), 0.0
        norm = mpmath.sqrt(prob)
        return np.array([float(x / norm) for x in raw]), float(prob)
