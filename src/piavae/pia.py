"""Personalized item alignment: learnable anchors, the alignment loss in
closed and sampled form, and the adaptive strength schedule.

The alignment loss for a user with positives S and posterior q is
mean_{i in S} E_{z~q} ||z - e_i||^2, which for a diagonal Gaussian equals
||mu - ebar||^2 + tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2) with ebar the
anchor centroid of S; training uses this closed form inside
model.loss_and_grads_fixed. The Monte-Carlo estimator exists only to
verify the closed form and never feeds training. The schedule's
hyperparameters live in PiaConfig; LambdaSchedule holds only its state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySupportError
from .numerics import GaussianPosterior


@dataclass(frozen=True)
class AnchorTable:
    """One learnable latent anchor per item (rows of an I x d matrix)."""

    anchors: np.ndarray

    def __post_init__(self):
        anchors = np.asarray(self.anchors, dtype=np.float64)
        if anchors.ndim != 2:
            raise ValueError("anchors must be an I x d matrix")
        object.__setattr__(self, "anchors", anchors)

    @classmethod
    def init(cls, n_items: int, latent_dim: int, rng: np.random.Generator,
             init_scale: float | None = None) -> "AnchorTable":
        # Unspecified upstream; 1/sqrt(d) keeps ||e_i|| around 1.
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(latent_dim)
        return cls(anchors=scale * rng.standard_normal((n_items, latent_dim)))


@dataclass(frozen=True)
class PiaConfig:
    """Alignment hyperparameters; defaults follow the reference settings
    (initial strength 8, doubling after 5 stalled epochs)."""

    lambda_a: float = 8.0
    lambda_scale: float = 2.0
    patience: int = 5
    anchor_init_scale: float | None = None

    def __post_init__(self):
        if self.lambda_a <= 0:
            raise ValueError("lambda_a must be positive")
        if self.lambda_scale <= 1:
            raise ValueError("lambda_scale must exceed 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class LambdaSchedule:
    """Adaptive alignment-strength state driven by validation NDCG."""

    lambda_a: float
    best_val: float = -np.inf
    best_epoch: int = 0


def schedule_update(s: LambdaSchedule, cfg: PiaConfig, epoch: int,
                    epoch_ndcg: float) -> LambdaSchedule:
    """Record an improvement, or scale lambda after `cfg.patience` stalled
    epochs.

    A strict improvement moves the best marker and leaves lambda alone.
    Otherwise lambda is multiplied by cfg.lambda_scale once the gap since
    the best epoch reaches the patience, and again on every later stalled
    epoch while the gap keeps growing.
    """
    if epoch_ndcg > s.best_val:
        return replace(s, best_val=epoch_ndcg, best_epoch=epoch)
    if epoch - s.best_epoch >= cfg.patience:
        return replace(s, lambda_a=cfg.lambda_scale * s.lambda_a)
    return s


def _positives_array(positives) -> np.ndarray:
    idx = np.asarray(list(positives) if not isinstance(positives, np.ndarray)
                     else positives, dtype=np.int64)
    if idx.size == 0:
        raise EmptySupportError("alignment needs at least one positive item")
    return idx


def anchor_centroid(table: AnchorTable, positives) -> np.ndarray:
    """Coordinate-wise mean of the anchors of the given positive items."""
    idx = _positives_array(positives)
    return table.anchors[idx].mean(axis=0)


def alignment_closed_form(q: GaussianPosterior, table: AnchorTable,
                          positives) -> float:
    """||mu - ebar||^2 + tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2).

    The constant term is the variance of the selected anchors around
    their centroid, hence always >= 0.
    """
    idx = _positives_array(positives)
    selected = table.anchors[idx]
    ebar = selected.mean(axis=0)
    const = float(np.mean(np.sum(selected**2, axis=1)) - np.sum(ebar**2))
    mean_term = float(np.sum((q.mean - ebar) ** 2))
    trace_term = float(np.sum(q.var))
    return mean_term + trace_term + const


def alignment_mc_standard_error(q: GaussianPosterior, table: AnchorTable,
                                positives, n_samples: int,
                                rng: np.random.Generator) -> tuple[float, float]:
    """Empirical mean over z ~ q of mean_i ||z - e_i||^2, plus its standard
    error (for tolerance checks).

    Verification oracle for alignment_closed_form; computed literally
    anchor by anchor rather than through the centroid identity.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    idx = _positives_array(positives)
    noise = rng.standard_normal((n_samples, q.dim))
    z = q.mean + noise * q.std
    per_sample = np.zeros(n_samples, dtype=np.float64)
    for i in idx:
        diff = z - table.anchors[i]
        per_sample += np.sum(diff * diff, axis=1)
    per_sample /= idx.size
    est = float(np.mean(per_sample))
    se = float(np.std(per_sample, ddof=1) / np.sqrt(n_samples))
    return est, se
