"""Penalty values and proximal operators (weighted l1 + nonneg, trace norm)."""

from __future__ import annotations

import numpy as np

from .features import PenaltyWeights


def trace_norm(A) -> float:
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())


def pen_value(mu, A, weights: PenaltyWeights) -> float:
    """w . |mu| + W . |A| + tau * ||A||_*; zero weights add exactly 0."""
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    total = float(np.sum(weights.w * np.abs(mu))) \
        + float(np.sum(weights.W * np.abs(A)))
    if weights.tau > 0:
        total += weights.tau * trace_norm(A)
    return total


def prox_l1_nonneg(v, weights, step: float):
    """Exact prox of step * <weights, |.|> plus the nonnegativity indicator."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != v.shape:
        raise ValueError("weights shape must match input shape")
    if step <= 0:
        raise ValueError("step must be positive")
    return np.maximum(v - step * w, 0.0)


def prox_trace(V, tau_step: float):
    """Singular value soft-thresholding: prox of tau_step * trace norm.

    Output entries may be negative.  ``solver.fit_split`` takes it as its
    trace-norm step and returns the nonnegative points of the l1 prox.
    """
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise ValueError("non-finite input to prox_trace")
    if tau_step < 0:
        raise ValueError("tau_step must be nonnegative")
    if tau_step == 0:
        return V.copy()
    try:
        U, s, Vt = np.linalg.svd(V, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer SVD (gesdd) fails to converge on rare
        # finite matrices, such as a d=100 split iterate with entries from
        # 0.1 down to 1e-42; the transpose takes another path through it
        Ut, s, Vtt = np.linalg.svd(V.T, full_matrices=False)
        U, Vt = Vtt.T, Ut.T
    s_thr = np.maximum(s - tau_step, 0.0)
    return (U * s_thr) @ Vt
