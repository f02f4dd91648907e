"""Frozen copy of the one-state Wigner recurrence, kept as the bitwise oracle
for the block kernel `analysis._wigner_values`.  Do not edit: the block kernel
must reproduce every bit of it."""

import math

import numpy as np


def wigner_values_one_state(psi: np.ndarray, xs: np.ndarray,
                            ps: np.ndarray) -> np.ndarray:
    n_dim = psi.size
    x_grid, p_grid = np.meshgrid(xs, ps, indexing="ij")
    gamma = 2.0 * (x_grid + 1j * p_grid)
    y = np.abs(gamma) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(y > 0.0, gamma / np.where(y > 0.0, np.abs(gamma), 1.0), 1.0)
    total = np.zeros_like(y)
    q_seed = np.exp(-y / 2.0)
    phase = np.ones_like(gamma)
    for d in range(n_dim):
        if d > 0:
            q_seed = q_seed * np.sqrt(y / d)
            phase = phase * unit
            if not np.any(q_seed):
                break
        coup = np.conj(psi[d:]) * psi[:n_dim - d]
        if not np.any(coup):
            continue
        acc = np.zeros_like(y)
        q_prev = np.zeros_like(y)
        q_cur = q_seed
        sign = 1.0
        for n in range(n_dim - d):
            if d == 0:
                acc += (sign * coup[n].real) * q_cur
            else:
                acc += sign * (coup[n] * phase).real * q_cur
            sign = -sign
            q_next = ((2 * n + 1 + d - y) * q_cur
                      - math.sqrt(n * (n + d)) * q_prev) / math.sqrt((n + 1) * (n + 1 + d))
            q_prev, q_cur = q_cur, q_next
        total += acc if d == 0 else 2.0 * acc
    return (2.0 / math.pi) * total
