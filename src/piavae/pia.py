"""Personalized item alignment: the alignment loss in closed and sampled
form, and the hyperparameters of the adaptive strength schedule.

The alignment loss for a user with positives S and posterior q is
mean_{i in S} E_{z~q} ||z - e_i||^2, where e_i is row i of the (items x
latent) anchor array. For a diagonal Gaussian it equals ||mu - ebar||^2 +
tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2) with ebar the anchor centroid
of S; training uses this closed form inside model.loss_and_grads_fixed.
The Monte-Carlo estimator exists only to verify the closed form and never
feeds training. `model.fit` draws the anchors and runs the schedule that
PiaConfig parameterizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .numerics import GaussianPosterior


@dataclass(frozen=True)
class PiaConfig:
    """Alignment hyperparameters; defaults follow the reference settings
    (initial strength 8, doubling after 5 stalled epochs). With
    anchor_init_scale None, fit draws anchors with scale 1/sqrt(latent)."""

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


def _positives_array(positives) -> np.ndarray:
    idx = np.asarray(list(positives) if not isinstance(positives, np.ndarray)
                     else positives, dtype=np.int64)
    if idx.size == 0:
        raise EmptySupportError("alignment needs at least one positive item")
    return idx


def alignment_closed_form(q: GaussianPosterior, anchors: np.ndarray,
                          positives) -> float:
    """||mu - ebar||^2 + tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2).

    The constant term is the variance of the selected anchors around
    their centroid, hence always >= 0.
    """
    idx = _positives_array(positives)
    selected = anchors[idx]
    ebar = selected.mean(axis=0)
    const = float(np.mean(np.sum(selected**2, axis=1)) - np.sum(ebar**2))
    mean_term = float(np.sum((q.mean - ebar) ** 2))
    trace_term = float(np.sum(q.var))
    return mean_term + trace_term + const


def alignment_mc_standard_error(q: GaussianPosterior, anchors: np.ndarray,
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
        diff = z - anchors[i]
        per_sample += np.sum(diff * diff, axis=1)
    per_sample /= idx.size
    est = float(np.mean(per_sample))
    se = float(np.std(per_sample, ddof=1) / np.sqrt(n_samples))
    return est, se
