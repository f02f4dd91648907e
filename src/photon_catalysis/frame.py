"""The displaced-frame kernel: every sweep metric but wigner_min, the first
four `state` summary lines and the column blocks of `joint`'s two-mode
table, in standard-library Python.

It rests on two identities of the beam splitter U (the convention of
`catalysis.bs_transform`):

    U D_a(alpha) U^+ = D_a(t alpha) D_b(-r alpha),
    U |0, k> = sum_j w_j |j, k - j>,   w_j = sqrt(C(k, j)) r^j t^(k-j).

So heralding k photons in mode b leaves the unnormalised state D(beta) phi
in mode a, with beta = t alpha and phi_j = w_j <k|D(-r alpha)|k - j> on the
k + 1 levels j = 0..k.  The herald probability is |phi|^2, exactly, and every
moment of the output follows from phi's own moments, because displacement
only shifts the means.  No Fock window truncates any of it.  `_windowed`
gives the windowed one-stage state beside its frame, which the state JSON,
the Wigner minima and `catalysis.pcoc_state` take.
"""

from __future__ import annotations

import math
import sys

from .core import (HERALD_CUTOFF, TAIL_GATE, VACUUM_VARIANCE, TruncationError,
                   UndefinedQuantityError, _herald)


def _displaced_columns(gamma: complex, rows: int, cols: int) -> list[list[complex]]:
    """D[j][m] = <m|D(gamma)|j> for m < rows and j < cols: floats for a real
    gamma, complex numbers for a complex one.

    With i = min(m, j), d = |m - j|, y = |gamma|^2 and u = gamma / |gamma|,
    <i+d|D|i> = u^d Q_{i,d}(y) and <i|D|i+d> = (-conj(u))^d Q_{i,d}(y), where
    Q_{i,d} runs the normalised Laguerre recurrence of
    `analysis._wigner_values` along i, from a seed Q_{0,d} taken in log form,
    -y/2 + (d/2) ln y - lgamma(d + 1)/2, so that no factorial overflows.  A
    real gamma has u = +-1, so each float is the real part of the complex
    entry of complex(gamma), bit for bit.
    """
    y = abs(gamma) ** 2
    u = gamma / abs(gamma) if gamma else 1.0
    zero = 0j if isinstance(gamma, complex) else 0.0
    out = [[zero] * rows for _ in range(cols)]
    sqrt = math.sqrt
    power = 1.0 + zero        # u^d
    for d in range(max(rows, cols)):
        below = min(cols, rows - d)   # entries <i+d|D|i> in the block
        above = min(rows, cols - d)   # entries <i|D|i+d>
        lower, upper = power, (-1) ** d * power.conjugate()
        if y > 0.0:
            q = math.exp(-0.5 * y + 0.5 * d * math.log(y) - 0.5 * math.lgamma(d + 1))
        else:
            q = 0.0 if d else 1.0
        if q == 0.0 and d > y:
            break   # past d = y the seeds only fall, and a 0 seed keeps Q at 0
        q_prev = 0.0
        for i in range(max(below, above)):
            if i < below:
                out[i][i + d] = lower * q
            if d and i < above:
                out[i + d][i] = upper * q
            q, q_prev = ((2 * i + 1 + d - y) * q - sqrt(i * (i + d)) * q_prev) \
                / sqrt((i + 1) * (i + 1 + d)), q
        power *= u
    return out


def _displaced_row(gamma: complex, k: int) -> list[complex]:
    """<k|D(gamma)|n> for n = 0..k.

    These are u^(k-n) h_n with h_n = Q_{n,k-n}(y), the entries of
    `_displaced_columns` on the anti-diagonal n + d = k.  The generating
    function sum_n L_n^(k-n)(y) s^n = (1 + s)^k e^(-ys) gives them the
    three-term recurrence

        sqrt(y (n+1)) h_{n+1} = (k - n - y) h_n - sqrt(y n) h_{n-1},

        h_0 = e^{-y/2} sqrt(y)^k / sqrt(k!),

    k steps instead of the k^2/2 that one recurrence per diagonal takes.
    Taken upward in n it follows the growing solution wherever |h_n| is
    not oscillating, so it is stable.  Seed and recurrence carry binary
    exponents of their own, because the seed can underflow where h_k does
    not (y -> 0 makes D the identity), and a log-form seed would lose
    |ln h_0| ulps to that cancellation.
    """
    y = abs(gamma) ** 2
    if y == 0.0:
        return [0j] * k + [1.0 + 0j]
    u = gamma / abs(gamma)
    sqrt, root_y = math.sqrt, math.sqrt(y)
    seed, exponent = math.exp(-0.5 * y), 0
    if seed < 2.0 ** -1022:   # subnormal, past y = 1416: start from a normal one,
        # 2^q e^(-y/2 - q ln 2), where q times ln 2's leading 32 bits is exact
        exponent = round(-0.5 * y / math.log(2))
        seed = math.exp(-0.5 * y - exponent * 6.93147180369123816490e-01
                        - exponent * 1.90821492927058770002e-10)
    for i in range(1, k + 1):
        seed, e = math.frexp(seed * root_y / sqrt(i))
        exponent += e
    h, h_prev = 1.0, 0.0
    scaled = [(h, exponent)]
    for n in range(k):
        h, h_prev = ((k - n - y) * h - sqrt(y * n) * h_prev) / (root_y * sqrt(n + 1)), h
        if abs(h) > 2.0 ** 100:
            h, e = math.frexp(h)
            h_prev = math.ldexp(h_prev, -e)
            exponent += e
        scaled.append((h, exponent))
    return [u ** (k - n) * math.ldexp(h * seed, e) for n, (h, e) in enumerate(scaled)]


def _weights(r: float, t: float, k: int) -> list[float]:
    """w_j = sqrt(C(k, j)) r^j t^(k-j) for j = 0..k: U|0, k> = sum_j w_j |j, k - j>.

    A binomial past the float range (k >= 1030) is multiplied by
    r^j t^(k-j) in log form, as that product may fall below the range; such
    a j has 0 < j < k, so r = 0 or t = 0 makes its weight 0."""
    w, binom = [], 1
    for j in range(k + 1):
        if binom <= sys.float_info.max:
            w.append(math.sqrt(binom) * r ** j * t ** (k - j))
        elif r and t:
            w.append(math.exp(0.5 * math.log(binom) + j * math.log(r)
                              + (k - j) * math.log(t)))
        else:
            w.append(0.0)
        binom = binom * (k - j) // (j + 1)
    return w


def heralded_frame(alpha: complex, r2: float, k: int) -> tuple[complex, list[complex], float]:
    """(beta, phi, |phi|^2) of the state heralded by k photons at reflectivity
    r2: D(beta) phi, unnormalised, with the herald probability |phi|^2.

    Raises UndefinedQuantityError where the herald cannot fire, as
    `catalysis.pcoc_state` does; checks no window."""
    r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
    row = _displaced_row(-r * alpha, k)
    phi = [w * row[k - j] for j, w in enumerate(_weights(r, t, k))]
    # at most 1; the recurrences can round it a few ulps above where r2 -> 0
    prob = min(math.fsum(abs(c) ** 2 for c in phi), 1.0)
    if prob < HERALD_CUTOFF:
        raise UndefinedQuantityError("herald outcome has zero probability")
    return t * alpha, phi, prob


def _windowed(alpha: complex, r2: float, k: int,
              dim: int) -> tuple[list, float, float, tuple]:
    """(psi, prob, tail, frame) of the one-stage state on the checked window
    dim: its normalized amplitudes psi = u C / |u C| on n < dim from
    `core._herald` and their herald probability prob; tail, its own
    probability beyond the window, 1 - prob / |phi|^2; and frame, its
    `heralded_frame`.  Refuses a dead herald and a tail above TAIL_GATE."""
    raw, prob = _herald(alpha, dim, ((r2, k),))
    frame = heralded_frame(alpha, r2, k)
    tail = max(0.0, 1.0 - prob / frame[2])
    if tail > TAIL_GATE:
        raise TruncationError(f"output tail mass {tail:.3e} exceeds "
                              f"{TAIL_GATE:.0e} at dim={dim}; raise --dim")
    if prob < HERALD_CUTOFF:
        raise UndefinedQuantityError("herald outcome has zero probability")
    norm = math.sqrt(prob)
    return [a / norm for a in raw], prob, tail, frame


def _moments(phi: list[complex], prob: float):
    """<n>, <a>, <a^2>, <a^+ a^2>, <a^+2 a^2> of phi / |phi|."""
    n = a1 = a2 = na1 = nn = 0.0
    for j, c in enumerate(phi):
        weight = abs(c) ** 2
        n += j * weight
        nn += j * (j - 1) * weight
        if j:
            term = phi[j - 1].conjugate() * c * math.sqrt(j)
            a1 += term
            na1 += (j - 1) * term
        if j > 1:
            a2 += phi[j - 2].conjugate() * c * math.sqrt((j - 1) * j)
    return n / prob, a1 / prob, a2 / prob, na1 / prob, nn / prob


def _quadratures(phi: list[complex], prob: float) -> tuple[complex, float, float]:
    """(<a>, X variance, P variance) of phi / |phi|, X = Re a and P = Im a."""
    n, a1, a2, _, _ = _moments(phi, prob)
    return (a1, (1.0 + 2.0 * n + 2.0 * a2.real) / 4.0 - a1.real ** 2,
            (1.0 + 2.0 * n - 2.0 * a2.real) / 4.0 - a1.imag ** 2)


def _g2(beta: complex, phi: list[complex], prob: float) -> float:
    """<a^+2 a^2> / <n>^2 of D(beta) phi, expanded in phi's moments."""
    n, a1, a2, na1, nn = _moments(phi, prob)
    b, y = beta.conjugate(), abs(beta) ** 2
    mean = y + 2.0 * (b * a1).real + n
    if mean <= 0.0:
        raise UndefinedQuantityError("g2 undefined for vacuum (zero mean)")
    pairs = (nn + 4.0 * (b * na1).real + 2.0 * (b * b * a2).real + 4.0 * y * n
             + 4.0 * y * (b * a1).real + y * y)
    return pairs / mean ** 2


def _fidelity(beta: complex, phi: list[complex], prob: float,
              target: list[complex]) -> float:
    """|<target|D(beta) phi>|^2 / |phi|^2 over every level of the target."""
    cols = _displaced_columns(beta, len(target), len(phi))
    overlap = sum(c * sum(col[n] * tn.conjugate() for n, tn in enumerate(target))
                  for c, col in zip(phi, cols))
    return abs(overlap) ** 2 / prob


def sweep_point(metric: str, alpha: complex, r2: float, k: int,
                target: list[complex] | None = None) -> tuple[float, float]:
    """(metric value, success probability) at one sweep point, for every
    metric but wigner_min, refused here only by the herald: `design.sweep`
    checks every point's stage and window first, and `SweepSpec` the metric."""
    beta, phi, prob = heralded_frame(alpha, r2, k)
    if metric == "success_prob":
        value = prob
    elif metric == "fidelity_to_target":
        value = _fidelity(beta, phi, prob, target)
    elif metric in ("var_x_db", "var_p_db"):
        # in dB over the vacuum's; displacement leaves the variances as phi's
        var = _quadratures(phi, prob)[1 + (metric == "var_p_db")]
        value = 10.0 * math.log10(var / VACUUM_VARIANCE)
    else:
        value = _g2(beta, phi, prob)
    return value, prob
