"""Personalized item alignment: the alignment loss in closed and sampled
form, and the hyperparameters of the adaptive strength schedule.

The alignment loss for a user with positives S and posterior q is
mean_{i in S} E_{z~q} ||z - e_i||^2, where e_i is row i of the (items x
latent) anchor array. For a diagonal Gaussian it equals ||mu - ebar||^2 +
tr(Sigma) + (mean_i ||e_i||^2 - ||ebar||^2) with ebar the anchor centroid
of S. Training (model.loss_and_grads_fixed) and the `prop1` geometry
suite run the one closed form, `alignment_closed_form`, on CSR rows of
positives; the Monte-Carlo estimator, on one row's, exists only to
verify it and never feeds training. Both raise one NumericalError for a
row with no positive. `model.fit` draws the anchors and runs the
schedule that PiaConfig parameterizes.

The oracle stays literal, as the reference the closed form is checked
against: no centroid identity, no ||z||^2 - 2 z.e + ||e||^2 expansion. It
adds each anchor's squared coordinates left to right into one per-sample
row of a latent-major (d, n) copy of its draws z = noise * std + mean, and
the anchors in `positives` order. numpy sums a row of d <= 7 terms left to
right too, so the bits are those of (n, d) row sums; from d = 8 numpy sums
pairwise and the last bit may differ, a case no shipped caller runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import entry_rows
from .errors import NumericalError, ShapeError
from .numerics import GaussianPosterior

_NO_POSITIVE = "alignment needs at least one positive per row"


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


def _check_anchors(anchors: np.ndarray, dim: int,
                   positives: np.ndarray) -> None:
    shape = np.shape(anchors)
    if len(shape) != 2 or shape[1] != dim:
        raise ShapeError(f"anchors {shape} must be (n_anchors, {dim})")
    outside = (positives < 0) | (positives >= shape[0])
    if outside.any():
        raise ValueError(f"positive {positives[outside][0]} is outside "
                         f"[0, {shape[0]})")


def alignment_closed_form(mu: np.ndarray, var: np.ndarray, indptr: np.ndarray,
                          indices: np.ndarray, anchors: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ||mu - ebar||^2 + tr(Sigma) + (mean_{i in S} ||e_i||^2 -
    ||ebar||^2) for posteriors in the rows of mu and var, row r's
    positives S the anchors indices[indptr[r]:indptr[r+1]], returned with
    ebar, the centroids, and weight, each stored entry's 1/|S|. The last
    term, the anchors' spread around ebar, is always >= 0. A row with no
    positive is a NumericalError naming it, and a positive that is not an
    anchor's row a ValueError, as in the oracle.
    """
    from scipy import sparse

    _check_anchors(anchors, mu.shape[-1], indices)
    counts = np.diff(indptr).astype(np.float64)
    if np.any(counts < 1):
        raise NumericalError(_NO_POSITIVE, row_index=int(np.argmin(counts)))
    weight = 1.0 / counts[entry_rows(indptr)]
    weights = sparse.csr_matrix((weight, indices, indptr),
                                shape=(counts.size, len(anchors)))
    ebar = weights @ anchors
    sq_norms = np.einsum("ij,ij->i", anchors, anchors)
    const = weights @ sq_norms - np.sum(ebar**2, axis=1)
    return (np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1) + const,
            ebar, weight)


def alignment_mc_standard_error(q: GaussianPosterior, anchors: np.ndarray,
                                positives, n_samples: int,
                                rng: np.random.Generator) -> tuple[float, float]:
    """Empirical mean over z ~ q of mean_i ||z - e_i||^2, plus its standard
    error (for tolerance checks).

    Verification oracle for alignment_closed_form on one row of
    positives, summed literally: latent-major, coordinates left to right,
    which keeps numpy's row-sum bits for q.dim <= 7 and may differ in the
    last bit beyond, where numpy sums rows pairwise. anchors must be
    (n_anchors, q.dim) and each positive a row of it.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    anchors = np.asarray(anchors)
    idx = np.asarray(positives, dtype=np.int64)
    _check_anchors(anchors, q.dim, idx)
    if idx.size == 0:
        raise NumericalError(_NO_POSITIVE, row_index=0)
    z = np.ascontiguousarray(rng.standard_normal((n_samples, q.dim)).T)
    z *= q.std[:, None]
    z += q.mean[:, None]
    per_sample = np.zeros(n_samples, dtype=np.float64)
    for e in anchors[idx]:
        per_sample += np.sum((z - e[:, None]) ** 2, axis=0)
    per_sample /= idx.size
    est = float(np.mean(per_sample))
    se = float(np.std(per_sample, ddof=1) / np.sqrt(n_samples))
    return est, se
