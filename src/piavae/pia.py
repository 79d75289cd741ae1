"""Personalized item alignment: the alignment loss in closed and sampled
form, and the hyperparameters of the adaptive strength schedule.

The alignment loss for a user with positives S and posterior q is
mean_{i in S} E_{z~q} ||z - e_i||^2, where e_i is row i of the (items x
latent) anchor array. For a diagonal Gaussian it equals ||mu - ebar||^2 +
tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2) with ebar the anchor centroid
of S. Training (model.loss_and_grads_fixed) and the `prop1` geometry
suite run the one closed form, `alignment_closed_form`; the Monte-Carlo
estimator exists only to verify it and never feeds training. `model.fit`
draws the anchors and runs the schedule that PiaConfig parameterizes.

The oracle stays literal: it sums ||z - e_i||^2 anchor by anchor over an
(n, d) array of draws z = mean + noise * std, and never uses the centroid
identity or the ||z||^2 - 2 z.e + ||e||^2 expansion, since it is the
reference the closed form is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, ShapeError
from .numerics import GaussianPosterior


@dataclass(frozen=True)
class PiaConfig:
    """Alignment hyperparameters; defaults follow the reference settings
    (initial strength 8, scale 2, patience 5). `fit` multiplies the
    strength by lambda_scale after every epoch that does not improve on
    the best validation NDCG once the best epoch is at least patience
    epochs back: once per stalled epoch from then on, not once per
    patience stalled epochs."""

    lambda_a: float = 8.0
    lambda_scale: float = 2.0
    patience: int = 5

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0.0 < self.lambda_a < math.inf:
            raise ValueError("lambda_a must be finite and positive")
        if not 1.0 < self.lambda_scale < math.inf:
            raise ValueError("lambda_scale must be finite and exceed 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def _check_anchor_width(anchors: np.ndarray, dim: int) -> None:
    shape = np.shape(anchors)
    if len(shape) != 2 or shape[1] != dim:
        raise ShapeError(f"anchors {shape} must be (n_anchors, {dim})")


def alignment_closed_form(mu: np.ndarray, var: np.ndarray, weights,
                          anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ||mu - ebar||^2 + tr(Sigma) + (sum_i w_i ||e_i||^2 -
    ||ebar||^2), and ebar = weights @ anchors, for posterior means and
    variances in the rows of mu and var and a row-stochastic weights
    matrix (dense or scipy CSR; 1/|S| on each positive of S gives the loss
    above). The last term, the weighted spread of the anchors around
    ebar, is always >= 0.
    """
    _check_anchor_width(anchors, mu.shape[-1])
    ebar = weights @ anchors
    sq_norms = np.einsum("ij,ij->i", anchors, anchors)
    const = weights @ sq_norms - np.sum(ebar**2, axis=1)
    return np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1) + const, ebar


def alignment_mc_standard_error(q: GaussianPosterior, anchors: np.ndarray,
                                positives, n_samples: int,
                                rng: np.random.Generator) -> tuple[float, float]:
    """Empirical mean over z ~ q of mean_i ||z - e_i||^2, plus its standard
    error (for tolerance checks).

    Verification oracle for alignment_closed_form with weights 1/|S| on
    the positives; computed literally anchor by anchor rather than through
    the centroid identity. anchors must be (n_anchors, q.dim) and each
    positive a row of it.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    anchors = np.asarray(anchors)
    _check_anchor_width(anchors, q.dim)
    idx = np.asarray(positives, dtype=np.int64)
    if idx.size == 0:
        raise EmptySupportError("alignment needs at least one positive item")
    outside = (idx < 0) | (idx >= len(anchors))
    if outside.any():
        raise ValueError(f"positive {idx[outside][0]} is outside "
                         f"[0, {len(anchors)})")
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
