"""Detection chain model: binomial loss plus time-multiplexed click counting.

Photons are routed independently and uniformly into a fixed number of bins,
each bin a non-number-resolving click detector.  Every loss and click matrix
comes from one chain that adds one photon at a time (`_photon_chain`, in
standard-library lists), never from sampling, so every consumer is
deterministic.

The joint click table of both beam-splitter output arms has two kernels:
`joint_output_distribution`, numpy products on `catalysis`'s two-mode
output, and `_joint_tables`, the same tables in standard-library Python from
`frame`'s displacement columns.  `catalysis joint` takes the second up to a
work bound, so a small table loads neither numpy nor `catalysis`, and
writes each r2 step's table before it builds the next.  For a real alpha,
as every CLI alpha is, both kernels run in real arithmetic: the displacement
columns are floats and the products real.  numpy is imported only where
arrays are built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import add, mul

from .core import (NORM_TOL, TruncationError, UndefinedQuantityError,
                   _stage_window, coherent_window)
from .frame import _displaced_columns, _weights


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
        import numpy as np

        p = np.asarray(probabilities, dtype=float)
        if p.size != bins + 1:
            raise ValueError("need bins + 1 click probabilities")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"click probabilities sum to {p.sum():.12g}")
        self.probabilities, self.bins = p, bins


class JointClickDistribution:
    """P[i, j] for i clicks on the first detector and j on the second."""

    def __init__(self, probabilities):
        import numpy as np

        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 2:
            raise ValueError("joint click probabilities must be a matrix")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"joint click probabilities sum to {p.sum():.12g}")
        self.probabilities = p


def _photon_chain(n_max: int, stay: list[float],
                  step: list[float]) -> list[list[float]]:
    """Rows T[n][c] = P(outcome c | n photons), adding one photon at a time.

    A photon leaves the outcome at c with probability stay[c] or moves it from
    c - 1 to c with probability step[c]:
    T[n+1][c] = T[n][c] stay[c] + T[n][c-1] step[c].  Every term is
    nonnegative, so nothing cancels and nothing overflows at any n.  Row n
    is 0 past c = n, so only its first n + 1 cells are computed.
    """
    width = len(stay)
    t = [[1.0] + [0.0] * (width - 1)]
    for n in range(n_max):
        prev, live = t[-1], min(n + 2, width)
        row = list(map(mul, prev[:live], stay))
        row[1:] = map(add, row[1:], map(mul, prev, step[1:]))
        t.append(row + [0.0] * (width - live))
    return t


def _click_chain(n_max: int, cfg: TMDConfig) -> list[list[float]]:
    """Rows T[n][c] = P(c clicks | n photons) through loss eta and then the bins.

    A photon is lost or lands in one of the c already clicked bins (stay), or
    survives into one of the bins - c + 1 empty ones (step from c - 1).
    """
    eta, bins = cfg
    c = [float(x) for x in range(bins + 1)]
    return _photon_chain(n_max, [(1.0 - eta) + eta * x / bins for x in c],
                         [eta * (bins - x + 1.0) / bins for x in c])


def apply_loss(d: PhotonNumberDistribution,
               ch: LossChannel) -> PhotonNumberDistribution:
    """Binomial thinning: each photon survives (m -> m+1) with probability eta."""
    import numpy as np

    from .fock import PhotonNumberDistribution

    n = d.size
    loss = _photon_chain(n - 1, [1.0 - ch.eta] * n, [ch.eta] * n)
    return PhotonNumberDistribution(d.probabilities @ np.array(loss))


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
    miss above 1e-10 is refused as a TruncationError.  `catalysis` is
    imported here, so that importing this module loads neither it nor numpy.
    A real alpha's amplitudes are squared in place into |A|^2.
    """
    import numpy as np

    from .catalysis import _two_mode_amplitudes

    amps = _two_mode_amplitudes(cfg)
    q = np.square(amps, out=amps) if amps.dtype.kind == "f" else np.abs(amps) ** 2
    _check_table_norm(1.0 - q.sum(), cfg.dim)
    n_max = q.shape[0] - 1
    return JointClickDistribution(
        _loss_click_matrix(n_max, cfg1).T @ q @ _loss_click_matrix(n_max, cfg2))


def _check_table_norm(tail: float, dim: int):
    if abs(tail) > NORM_TOL:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} beyond --dim {dim} exceeds "
            f"{NORM_TOL:.0e}, the two-mode table's norm tolerance; raise --dim")


def _joint_tables(alpha: float, r2s, k: int, dim: int | None,
                  cfg1: TMDConfig, cfg2: TMDConfig):
    """Yield, for each r2 of the sequence ``r2s``, the rows of
    joint_output_distribution(CatalysisConfig(alpha, BeamSplitter(r2), k,
    dim), cfg1, cfg2).probabilities for a real alpha >= 0 and r2s in [0, 1],
    in standard-library Python.  The window, its coherent tail and the click
    columns depend on alpha, k and dim alone, so a scan resolves them once,
    at its first r2; `cli.cmd_joint` checks every r2 before the first table.

    The amplitudes A[m][l] = sum_j w_j a_j[m] b_{k-j}[l], with a_j and b_j the
    displacement columns of D(t alpha) and D(-r alpha), are built only on the
    input window's cells k <= m + l < dim + k, one j at a time.  Then
    P = T1^T |A|^2 T2 takes sums of nonnegative products, skipping
    T[n][c] = 0 for c > n and the clicks past dim + k - 1, so no cell can
    come out negative, as expanding |A|^2 into cross terms could.
    """
    side = _stage_window(alpha, ((r2s[0], k),), dim) + k
    coherent_window(alpha, side - k)   # refuses a tail above TAIL_GATE
    # T[c..][c], the click columns below c = side
    cols = [[col[c:] for c, col in
             enumerate(islice(zip(*_click_chain(side - 1, cfg)), side))]
            for cfg in (cfg1, cfg2)]
    for r2 in r2s:
        r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
        a = [[z * w for z in col] for col, w in
             zip(_displaced_columns(t * alpha, side, k + 1), _weights(r, t, k))]
        # b[j] = D(-r alpha)|k - j>; both blocks are floats for a real alpha
        b = _displaced_columns(-r * alpha, side, k + 1)[::-1]
        q = []   # |A[m][l]|^2, 0 for l < k - m, ending at l = dim + k - m - 1
        for m in range(side):
            lo = max(0, k - m)
            n, bm = side - m - lo, [col[lo:] for col in b] if lo else b
            amps = map(mul, repeat(a[0][m], n), bm[0])
            for j in range(1, k + 1):
                amps = map(add, amps, map(mul, repeat(a[j][m], n), bm[j]))
            q.append([0.0] * lo + [x * x for x in amps])
        _check_table_norm(1.0 - math.fsum(chain.from_iterable(q)), side - k)
        # R[m][c] = sum_l q[m][l] T2[l][c], column by column, 0 past m = side - c
        r_cols = [[sum(map(mul, q_m[c:], col), 0.0) for q_m in islice(q, side - c)]
                  for c, col in enumerate(cols[1])]
        pad = [0.0] * (cfg2.bins + 1 - len(r_cols))
        rows = [[sum(map(mul, col, r_col[i:]), 0.0) for r_col in r_cols] + pad
                for i, col in enumerate(cols[0])]
        yield rows + [[0.0] * (cfg2.bins + 1)
                      for _ in range(cfg1.bins + 1 - len(rows))]


@lru_cache(maxsize=64)
def _loss_click_matrix(n_max: int, cfg: TMDConfig) -> np.ndarray:
    """`_click_chain` as a matrix.  Cached, because a scan asks for the same
    matrix at every point; read-only, so no caller can change the cached
    copy."""
    import numpy as np

    out = np.array(_click_chain(n_max, cfg))
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
    from .fock import factorial_moments

    m1, m2 = factorial_moments(c.probabilities)
    if m1 <= 0.0:
        raise UndefinedQuantityError("g2 undefined for zero mean click count")
    return (cfg.bins / (cfg.bins - 1.0)) * m2 / m1 ** 2
