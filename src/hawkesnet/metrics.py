"""Estimation-quality metrics: relative l2 error and support-recovery AUC."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    rel_l2_error: float
    auc: float
    support_size_true: int
    support_size_est_at_threshold: int

    def as_dict(self) -> dict:
        return asdict(self)


def _flatten(mu, A) -> np.ndarray:
    return np.concatenate([np.ravel(np.asarray(mu, dtype=float)),
                           np.ravel(np.asarray(A, dtype=float))])


def relative_error(mu_hat, A_hat, mu_true, A_true) -> float:
    """Squared l2 distance over squared l2 norm of the truth (mu and A stacked)."""
    est = _flatten(mu_hat, A_hat)
    truth = _flatten(mu_true, A_true)
    if est.shape != truth.shape:
        raise ValueError("parameter shapes do not match")
    denom = float(np.sum(truth * truth))
    if denom == 0:
        raise ValueError("true parameter is identically zero")
    diff = est - truth
    return float(np.sum(diff * diff)) / denom


def auc_score(A_hat, support_true) -> float:
    """Mann-Whitney AUC of the estimated entries against the true support.

    Ties get 1/2 credit, so a constant estimate scores 0.5.
    """
    scores = np.asarray(A_hat, dtype=float).ravel()
    labels = np.asarray(support_true, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError("shape mismatch between estimate and support")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ground truth support must contain both classes")
    # average ranks: a tie group's is its cumulative count - (count - 1) / 2
    _, group, n = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(n) - (n - 1) / 2)[group]
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return float(auc)


def evaluate(mu_hat, A_hat, mu_true, A_true, support_true) -> EvalReport:
    A_hat = np.asarray(A_hat, dtype=float)
    if not (np.all(np.isfinite(mu_hat)) and np.all(np.isfinite(A_hat))):
        raise ValueError("estimate must be finite")
    return EvalReport(
        rel_l2_error=relative_error(mu_hat, A_hat, mu_true, A_true),
        auc=auc_score(A_hat, support_true),
        support_size_true=int(np.asarray(support_true, dtype=bool).sum()),
        support_size_est_at_threshold=int((A_hat > 0).sum()),
    )
