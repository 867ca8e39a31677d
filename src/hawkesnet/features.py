"""Observable excitation statistics and data-driven penalty weights.

All statistics are built from the matrix-valued process

    H[j, k](t) = sum_{t_{k,i} < t} exp(-alpha[j, k] * (t - t_{k,i})),

which is left-continuous (every event at exactly t excluded) and decays
between events.  Rows of H with equal decay rows alpha[j, :] are equal, so
``excitation_states`` runs the exponential recursion (Ozaki 1979) once per
distinct decay row, O(N * d) for N merged events.  ``compute_stats`` makes
that one sweep per observation window and reduces its N x d states to a
frozen ``Window``: the Gram integrals and event left limits both losses
read, and the suprema and variation estimates the weights and the bounds
read.  A uniform alpha has one distinct row: O(N * d) time and O(d^2)
memory beyond the states and the left limits.

``PenaltyWeights`` (w, W, tau) is the whole penalty,
w . |mu| + W . |A| + tau * ||A||_*, and the argument that
``solver.fit_hawkes`` takes with the window.  Theoretical, practical and
constant weighting differ only in how they compute it; constant weights
ignore the window's statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: multiplicative constants of the theoretical weight formulas
W_MU_SQRT = 6 * math.sqrt(2)
W_MU_LIN = 27.93
W_A_SQRT = 4 * math.sqrt(2)
W_A_LIN = 18.62
TAU_SQRT = 8.0
TAU_LIN_A = 10.34
TAU_LIN_B = 2.65

#: events x d x d elements per chunk of the Gram sum of a varying decay row
GRAM_CHUNK = 1 << 20


def _rates(a, dt) -> np.ndarray:
    """a * dt per interval: (N, 1) when the decays a are equal, else (N, d)."""
    if np.ptp(a) == 0:
        return (a[0] * dt)[:, None]
    return np.multiply.outer(dt, a)


@dataclass(frozen=True)
class ExcitationStates:
    """The excitation state of one decay row a at the N merged events.

    x_k(t) = sum_{t_{k,i} < t} exp(-a[k] * (t - t_{k,i})) is H[j, :] for
    every row j of alpha equal to a.  left[n] = x(t_n-) excludes every event
    at t_n; post[n] is x on the seg[n] long segment from event n to the next
    event or T.  Of events at one timestamp only the last has a nonempty
    segment, and its post state carries all their jumps.
    """

    decay: np.ndarray  # (d,)
    nodes: np.ndarray  # (N,)
    left: np.ndarray  # (N, d)
    post: np.ndarray  # (N, d)
    seg: np.ndarray  # (N,)

    def integral(self) -> np.ndarray:
        """int_0^T x(t) dt."""
        rates = _rates(self.decay, self.seg)
        return np.sum(-np.expm1(-rates) / self.decay * self.post, axis=0)

    def gram(self) -> np.ndarray:
        """int_0^T x(t) x(t)^T dt: one GEMM when the decays are equal, else
        sum_n (y_n y_n^T) * C_n over chunks of events, O(d^2) memory each."""
        a, y, seg = self.decay, self.post, self.seg
        if np.ptp(a) == 0:
            w = y * np.sqrt(-np.expm1(-2 * a[0] * seg) / (2 * a[0]))[:, None]
            return w.T @ w
        asum = a[:, None] + a[None, :]
        G = np.zeros_like(asum)
        step = max(1, GRAM_CHUNK // asum.size)
        for i in range(0, seg.size, step):
            c = -np.expm1(-asum * seg[i:i + step, None, None]) / asum
            G += np.einsum("nk,nl,nkl->kl", y[i:i + step], y[i:i + step], c)
        return G


def excitation_states(data, decay_row) -> ExcitationStates:
    """One O(N * d) sweep of the exponential recursion for one decay row."""
    a = np.asarray(decay_row, dtype=float)
    times, nodes = data.merged()
    N = times.size
    gaps = np.diff(times, prepend=0.0)
    decay = np.exp(-_rates(a, gaps))
    left = np.empty((N, data.d))
    x = np.zeros(data.d)
    for n, l in enumerate(nodes.tolist()):
        x *= decay[n]
        left[n] = x
        x[l] += 1.0
    idx = np.arange(N)
    last = idx
    if N and not np.all(gaps[1:] > 0):
        # every event of a timestamp reads the state before the first of
        # them; the last of them carries the jumps of all
        starts = gaps > 0
        left = left[np.maximum.accumulate(np.where(starts, idx, 0))]
        ends = np.append(starts[1:], True)
        last = np.minimum.accumulate(np.where(ends, idx, N)[::-1])[::-1]
    post = left.copy()
    post[last, nodes] += 1.0
    return ExcitationStates(decay=a, nodes=nodes, left=left, post=post,
                            seg=np.diff(times, append=data.horizon_T))


def block_states(data, alpha):
    """Excitation states per distinct row of alpha, and each row's block."""
    rows, row_block = np.unique(np.asarray(alpha, dtype=float), axis=0,
                                return_inverse=True)
    return [excitation_states(data, a) for a in rows], row_block.reshape(-1)


@dataclass(frozen=True)
class Window:
    """Everything the weights, the bounds and both losses read of H on [0, T].

    Rows j of H with equal decay rows alpha[j, :] are equal, so the Gram
    integrals are kept once per distinct decay row: row j reads block
    b = row_block[j], G[b] = (1/T) int_0^T H[j, :] H[j, :]^T dt, a single
    (1, d, d) block when alpha is uniform.  int_H = int_0^T H dt, S[j] is
    (1/T) times the sum of H[j, :](t-) over the events t of node j, and
    H_at_events[j] holds those (n_j, d) left limits.  B holds the suprema
    of H, Vhat / Vhat1 / Vhat2 the optional-variation estimates and
    sup_H_2inf the supremum over time of the max row 2-norm of H.
    """

    horizon_T: float
    counts: np.ndarray
    row_block: np.ndarray
    G: np.ndarray
    int_H: np.ndarray
    S: np.ndarray
    H_at_events: tuple
    B: np.ndarray
    Vhat: np.ndarray
    Vhat1: np.ndarray
    Vhat2: np.ndarray
    sup_H_2inf: float

    @property
    def d(self) -> int:
        return self.counts.shape[0]

    @property
    def node_counts(self) -> np.ndarray:
        """``counts``, under the name the counters of perfbench/ read."""
        return self.counts

    @property
    def psi(self) -> np.ndarray:
        """(1/T) int_0^T H dt."""
        return self.int_H / self.horizon_T

    def block(self, j: int) -> np.ndarray:
        """The (d, d) Gram integrals of row j."""
        return self.G[self.row_block[j]]

    def apply(self, A) -> np.ndarray:
        """Each row of A through its Gram block: out[j] = G_j @ A[j]."""
        out = np.empty_like(A)
        for b, G in enumerate(self.G):
            rows = self.row_block == b
            out[rows] = A[rows] @ G.T
        return out


@dataclass(frozen=True)
class PenaltyWeights:
    """Per-coordinate l1 weights and the trace-norm coefficient."""

    w: np.ndarray
    W: np.ndarray
    tau: float

    def __post_init__(self):
        v = np.concatenate([np.ravel(self.w), np.ravel(self.W), [self.tau]])
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("penalty weights must be finite and >= 0")


def compute_stats(data, alpha) -> Window:
    """The window of ``data``: one ``block_states`` sweep, then array algebra."""
    d, T = data.d, data.horizon_T
    states, row_block = block_states(data, alpha)
    H = tuple(states[b].left[states[b].nodes == j]
              for j, b in enumerate(row_block.tolist()))
    nodes = states[0].nodes
    idx = np.arange(nodes.size)
    # per event n and block b: H[j, l_n](t_n-) and |H[j, :](t_n-)|^2, j in b
    own = np.stack([s.left[idx, nodes] for s in states], axis=1)
    sq = np.stack([np.einsum("nk,nk->n", s.left, s.left) for s in states],
                  axis=1)
    h2inf_sq = sq.max(axis=1)
    denom = sq[idx, row_block[nodes]]
    ratio = np.divide(h2inf_sq, denom, out=np.zeros_like(denom),
                      where=denom > 0)
    Vhat2 = (own * ratio[:, None]).T @ own
    # H[:, k] jumps only at the events of node k, so its sup follows one
    B = np.stack([s.post.max(axis=0, initial=0.0) for s in states])
    post_sq = max(np.einsum("nk,nk->n", s.post, s.post).max(initial=0.0)
                  for s in states)
    return Window(
        horizon_T=T,
        counts=data.counts,
        row_block=row_block,
        G=np.stack([s.gram() for s in states]) / T,
        int_H=np.stack([s.integral() for s in states])[row_block],
        S=np.array([h.sum(axis=0) for h in H]) / T,
        H_at_events=H,
        B=B[row_block],
        Vhat=np.array([np.sum(h * h, axis=0) for h in H]) / T,
        Vhat1=np.bincount(nodes, weights=h2inf_sq, minlength=d) / T,
        Vhat2=Vhat2[np.ix_(row_block, row_block)] / T,
        sup_H_2inf=math.sqrt(post_sq),
    )


def _loglog(arg: float) -> float:
    return 2.0 * math.log(math.log(max(arg, math.e)))


def iterated_log_mu(counts, x: float) -> np.ndarray:
    """Technical iterated-logarithm terms for the baseline weights."""
    counts = np.asarray(counts, dtype=float)
    return np.array([_loglog((6 * n + 56 * x) / (112 * x)) for n in counts])


def iterated_log_A(Vhat, B, x: float, T: float) -> np.ndarray:
    """Technical iterated-logarithm terms for the matrix weights.

    Defined as 0 when B[j, k] = 0 (never-excited pair); the corresponding
    weight vanishes anyway because Vhat[j, k] = 0 as well.
    """
    out = np.zeros_like(np.asarray(B, dtype=float))
    nz = B > 0
    arg = (6 * T * Vhat[nz] + 56 * x * B[nz] ** 2) / (112 * x * B[nz] ** 2)
    out[nz] = 2.0 * np.log(np.log(np.maximum(arg, math.e)))
    return out


def opnorm_V1(stats: Window) -> float:
    """Operator norm of the diagonal matrix Vhat1."""
    return float(stats.Vhat1.max()) if stats.Vhat1.size else 0.0


def opnorm_V2(stats: Window) -> float:
    # Vhat2 is symmetric PSD by construction (sum of scaled outer products)
    return float(np.linalg.norm(stats.Vhat2, 2))


def iterated_log_opnorm(stats: Window, x: float) -> float:
    """Technical iterated-logarithm term entering the trace-norm coefficient."""
    s2 = stats.sup_H_2inf ** 2
    bump = 2 * (4 + s2 / 3) * x
    return (
        _loglog((2 * opnorm_V1(stats) + bump) / x)
        + _loglog((2 * opnorm_V2(stats) + bump) / x)
        + _loglog(s2)
    )


def theoretical_weights(stats: Window, x: float) -> PenaltyWeights:
    """Fully data-driven weights at confidence level x (natural logs)."""
    if x <= 0:
        raise ValueError("x must be positive")
    T = stats.horizon_T
    if T <= 0:
        raise ValueError("T must be positive")
    d = stats.d
    log_d = math.log(d)

    ell_j = iterated_log_mu(stats.counts, x)
    lev_mu = x + log_d + ell_j
    w = W_MU_SQRT * np.sqrt(lev_mu * (stats.counts / T) / T) + W_MU_LIN * lev_mu / T

    L_jk = iterated_log_A(stats.Vhat, stats.B, x, T)
    lev_A = x + 2 * log_d + L_jk
    W = W_A_SQRT * np.sqrt(lev_A * stats.Vhat / T) + W_A_LIN * lev_A * stats.B / T

    ell = iterated_log_opnorm(stats, x)
    vmax = max(opnorm_V1(stats), opnorm_V2(stats))
    lev = x + log_d + ell
    tau = TAU_SQRT * math.sqrt(lev * vmax / T) + 2 * lev * (
        TAU_LIN_A + TAU_LIN_B * stats.sup_H_2inf
    ) / T

    return PenaltyWeights(w=w, W=W, tau=tau)


def practical_weights(stats: Window, c1: float, c2: float,
                      tau: float = 0.0) -> PenaltyWeights:
    """Simplified weights with negligible terms dropped and x = log T.

    The trace-norm coefficient is not data-driven in this mode; callers
    typically cross-validate it and pass the chosen value here.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    T = stats.horizon_T
    if T <= 1:
        raise ValueError("practical weights need T > 1 so log T > 0")
    lev = math.log(T) + math.log(stats.d)
    w = c1 * np.sqrt(lev * (stats.counts / T) / T)
    W = c2 * np.sqrt(lev * stats.Vhat / T)
    return PenaltyWeights(w=w, W=W, tau=tau)


def constant_weights(d: int, c1: float, c2: float,
                     tau: float = 0.0) -> PenaltyWeights:
    """Non-weighted l1 penalties: a single constant per block."""
    return PenaltyWeights(w=np.full(d, c1), W=np.full((d, d), c2), tau=tau)
