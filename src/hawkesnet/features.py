"""Observable excitation statistics and data-driven penalty weights.

All statistics are built from the matrix-valued process

    H[j, k](t) = sum_{t_{k,i} < t} exp(-alpha[j, k] * (t - t_{k,i})),

which is left-continuous (every event at exactly t excluded) and decays
between events.  Rows of H with equal decay rows alpha[j, :] are equal, so
``excitation_states`` runs the exponential recursion (Ozaki 1979) once per
distinct decay row, O(N * d) for N merged events.  ``compute_stats`` makes
that one sweep per observation window and reduces each row's N x d states,
before it sweeps the next row, to a frozen ``Window``: the Gram integrals
and event left limits both losses read, and the suprema and variation
estimates the weights and the bounds read.  int H dt and the Gram block of
a row both come from one factor 1 - e^{-a s} per segment of length s,
applied to the recursion's own post-jump states.  A uniform alpha has one
distinct row: O(N * d) time and O(d^2) memory beyond the states and the
left limits.

``PenaltyWeights`` (w, W, tau) is the whole penalty,
w . |mu| + W . |A| + tau * ||A||_*, and the argument that
``solver.fit_hawkes`` takes with the window.  Theoretical, practical and
constant weighting differ only in how they compute it; constant weights
ignore the window's statistics.  A fitting procedure (``PROCEDURES``) is a
weighting with or without the trace norm, and ``procedure_weights`` is its
penalty.  The theoretical weights are twice the deviation bounds of the
concentration inequality that ``bounds`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: multiplicative constants of the theoretical weight formulas
W_MU_SQRT = 6 * math.sqrt(2)
W_MU_LIN = 27.93
W_A_SQRT = 4 * math.sqrt(2)
W_A_LIN = 18.62
TAU_SQRT = 8.0
TAU_LIN_A = 10.34
TAU_LIN_B = 2.65


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
    at t_n; post[n], the recursion's state just after event n, is x on the
    seg[n] long segment to the next event or T.  Of events at one timestamp
    only the last has a nonempty segment, and its post state carries all
    their jumps.
    """

    decay: np.ndarray  # (d,)
    left: np.ndarray  # (N, d)
    post: np.ndarray  # (N, d)
    seg: np.ndarray  # (N,)

    def integrals(self) -> tuple[np.ndarray, np.ndarray]:
        """int_0^T x(t) dt and int_0^T x(t) x(t)^T dt, both from one factor
        p = 1 - e^{-a s} per segment of length s.  The Gram is one GEMM when
        the decays are equal, else two: on a segment the (k, l) entry
        integrates to y_k y_l (1 - e^{-(a_k + a_l) s}) / (a_k + a_l), and
        with q = e^{-a s}, 1 - e^{-(a_k + a_l) s} = p_k + q_k p_l: a sum of
        nonnegative terms, so nothing cancels."""
        a, y = self.decay, self.post
        rates = _rates(a, self.seg)
        p = -np.expm1(-rates)
        if rates.shape[1] == 1:
            int_x = np.sum(p / a * y, axis=0)
            w = y * np.sqrt(-np.expm1(-2 * rates) / (2 * a[0]))
            return int_x, w.T @ w
        yp = np.multiply(y, p, out=p)
        G = (yp.T @ y + (y * np.exp(-rates)).T @ yp) / (a[:, None] + a)
        return yp.sum(axis=0) / a, (G + G.T) / 2


def excitation_states(times, nodes, horizon_T, decay_row) -> ExcitationStates:
    """One O(N * d) sweep of one decay row over ``EventData.merged()``."""
    a = np.asarray(decay_row, dtype=float)
    N = times.size
    gaps = np.diff(times, prepend=0.0)
    decay = np.exp(-_rates(a, gaps))
    left = np.empty((N, a.size))
    x = np.zeros(a.size)
    for n, l in enumerate(nodes.tolist()):
        x *= decay[n]
        left[n] = x
        x[l] += 1.0
    post = left.copy()
    post[np.arange(N), nodes] += 1.0
    if N and not np.all(gaps[1:] > 0):
        # every event of a timestamp reads the state before the first of them
        starts = np.where(gaps > 0, np.arange(N), 0)
        left = left[np.maximum.accumulate(starts)]
    return ExcitationStates(decay=a, left=left, post=post,
                            seg=np.diff(times, append=horizon_T))


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

    @cached_property
    def psi(self) -> np.ndarray:
        """(1/T) int_0^T H dt, computed on first use."""
        return self.int_H / self.horizon_T

    def block(self, j: int) -> np.ndarray:
        """The (d, d) Gram integrals of row j."""
        return self.G[self.row_block[j]]

    def apply(self, A) -> np.ndarray:
        """Each row of A through its Gram block: out[j] = G_j @ A[j], one
        GEMM when every row reads the same block."""
        if len(self.G) == 1:
            return A @ self.G[0].T
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
    """The window of ``data``: one merge of its events, one sweep of them
    per distinct decay row, each reduced before the next is swept, then
    array algebra.  The decays ``alpha`` must be d x d, finite, positive."""
    d, T = data.d, data.horizon_T
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (d, d):
        raise ValueError(f"alpha must be {d} x {d} for d={d}; got shape "
                         f"{alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must be finite")
    if not np.all(alpha > 0):
        raise ValueError("alpha must be positive")
    decays, row_block = np.unique(alpha, axis=0, return_inverse=True)
    row_block = row_block.reshape(-1)
    times, nodes = data.merged()
    H = [None] * d
    own, sq, B, post_sq, integrals = [], [], [], [], []
    for b, a in enumerate(decays):
        s = excitation_states(times, nodes, T, a)
        for j in np.flatnonzero(row_block == b).tolist():
            H[j] = s.left[nodes == j]
        # per event n: H[j, l_n](t_n-) and |H[j, :](t_n-)|^2 for j in block b
        own.append(s.left[np.arange(nodes.size), nodes])
        sq.append(np.einsum("nk,nk->n", s.left, s.left))
        # H[:, k] jumps only at the events of node k, so its sup follows one
        B.append(s.post.max(axis=0, initial=0.0))
        post_sq.append(np.einsum("nk,nk->n", s.post, s.post).max(initial=0.0))
        integrals.append(s.integrals())
        del s  # O(N * d) memory: one row's states at a time
    int_H, G = zip(*integrals)
    own, sq = np.stack(own, axis=1), np.stack(sq, axis=1)
    h2inf_sq = sq.max(axis=1)
    denom = sq[np.arange(nodes.size), row_block[nodes]]
    ratio = np.divide(h2inf_sq, denom, out=np.zeros_like(denom),
                      where=denom > 0)
    Vhat2 = (own * ratio[:, None]).T @ own
    return Window(
        horizon_T=T,
        counts=data.counts,
        row_block=row_block,
        G=np.stack(G) / T,
        int_H=np.stack(int_H)[row_block],
        S=np.array([h.sum(axis=0) for h in H]) / T,
        H_at_events=tuple(H),
        B=np.stack(B)[row_block],
        Vhat=np.array([np.sum(h * h, axis=0) for h in H]) / T,
        Vhat1=np.bincount(nodes, weights=h2inf_sq, minlength=d) / T,
        Vhat2=Vhat2[np.ix_(row_block, row_block)] / T,
        sup_H_2inf=math.sqrt(max(post_sq)),
    )


def _loglog(arg):
    return 2.0 * np.log(np.log(np.maximum(arg, math.e)))


def iterated_log_mu(counts, x: float) -> np.ndarray:
    """Technical iterated-logarithm terms for the baseline weights."""
    counts = np.asarray(counts, dtype=float)
    return _loglog((6 * counts + 56 * x) / (112 * x))


def iterated_log_A(Vhat, B, x: float, T: float) -> np.ndarray:
    """Technical iterated-logarithm terms for the matrix weights.

    Defined as 0 when B[j, k] = 0 (never-excited pair); the corresponding
    weight vanishes anyway because Vhat[j, k] = 0 as well.
    """
    out = np.zeros_like(np.asarray(B, dtype=float))
    nz = B > 0
    arg = (6 * T * Vhat[nz] + 56 * x * B[nz] ** 2) / (112 * x * B[nz] ** 2)
    out[nz] = _loglog(arg)
    return out


def theoretical_weights(stats: Window, x: float) -> PenaltyWeights:
    """Fully data-driven weights at confidence level x (natural logs)."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and positive; got {x}")
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

    # operator norms of the diagonal Vhat1 and of the symmetric PSD Vhat2
    v1 = float(stats.Vhat1.max()) if stats.Vhat1.size else 0.0
    v2 = float(np.linalg.norm(stats.Vhat2, 2))
    s2 = stats.sup_H_2inf ** 2
    bump = 2 * (4 + s2 / 3) * x
    ell = _loglog((2 * v1 + bump) / x) + _loglog((2 * v2 + bump) / x) \
        + _loglog(s2)
    vmax = max(v1, v2)
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


#: procedure -> (weighting, uses the trace norm); NoPen fits the zero penalty
PROCEDURES = {
    "NoPen": (None, False),
    "L1": ("constant", False),
    "wL1": ("practical", False),
    "L1Nuclear": ("constant", True),
    "wL1Nuclear": ("practical", True),
}


def procedure_weights(procedure: str, stats: Window, c1: float = 0.0,
                      c2: float = 0.0, tau: float = 0.0) -> PenaltyWeights:
    """The penalty of ``procedure`` with constants (c1, c2, tau): tau counts
    only with the trace norm, and NoPen's penalty is zero."""
    weighting, use_trace = PROCEDURES[procedure]
    tau = tau if use_trace else 0.0
    if weighting == "practical":
        return practical_weights(stats, c1, c2, tau)
    if weighting is None:
        c1 = c2 = 0.0
    return constant_weights(stats.d, c1, c2, tau)
