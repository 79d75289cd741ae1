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

The oracle stays literal: it sums ||z - e_i||^2 anchor by anchor, and
never uses the centroid identity or the ||z||^2 - 2 z.e + ||e||^2
expansion, since it is the reference the closed form is checked against.
It works latent-major: the normals are drawn as (n, d), in the same
order as ever, and copied once into a (d, n) array, so each numpy call
runs over n contiguous values of one coordinate. On a row-major (n, d)
array with d <= 5 most of each call goes to its short inner axis. The
squared coordinates are added one dimension at a time, left to right;
numpy's row sum adds fewer than 8 terms the same way, so the result is
bit for bit the row-major one for d <= 7 and may differ in the last bit
beyond.
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
    (initial strength 8, doubling after 5 stalled epochs)."""

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
    z = np.ascontiguousarray(noise.T)
    z *= q.std[:, None]
    z += q.mean[:, None]
    per_sample = np.zeros(n_samples, dtype=np.float64)
    sq_dist = np.empty(n_samples)
    sq_coord = np.empty(n_samples)
    for e in anchors[idx]:
        sq_dist.fill(0.0)
        for z_k, e_k in zip(z, e):
            np.subtract(z_k, e_k, out=sq_coord)
            sq_coord *= sq_coord
            sq_dist += sq_coord
        per_sample += sq_dist
    per_sample /= idx.size
    est = float(np.mean(per_sample))
    se = float(np.std(per_sample, ddof=1) / np.sqrt(n_samples))
    return est, se
