"""Numerical verification lab for the masking/latent-geometry theory.

Covers: exact masked-distance distributions with contraction/expansion
lower bounds, closed-form Gaussian transport distances with quadrature
and coupling oracles, the transport-entropy (T1) bound, the dataset-level
distance/KL bound, the Bernoulli-family Jensen-gap decomposition of the
pairwise objective, the quadratic shrinkage toy model, and empirical
gradient-sharing probes, which encode through `model.encode_rows` and
batch their samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri, xlogy

from .corpus import InteractionMatrix
from .errors import DimensionMismatch, NumericalError
from .model import ModelParams, draw_mask, encode_rows, posterior_means
from .numerics import GaussianPosterior, kl_diag_gaussian

__all__ = [
    "GeometryReport", "PairGrid", "PairStats",
    "contraction_bound", "expansion_bound",
    "masked_distance_exact", "masked_distance_enumerate",
    "t1_bound_check", "dataset_bound_report",
    "pairwise_decomposition_check", "quadratic_toy",
    "sharing_probe", "export_latents",
]


@dataclass(frozen=True)
class PairStats:
    """Disagreeing coordinate count h and shared positive count s."""

    h: int
    s: int

    def __post_init__(self):
        if self.h < 0 or self.s < 0:
            raise ValueError("h and s must be nonnegative")

    @classmethod
    def of(cls, x_u: np.ndarray, x_v: np.ndarray) -> "PairStats":
        x_u = np.asarray(x_u, dtype=np.float64)
        x_v = np.asarray(x_v, dtype=np.float64)
        if x_u.shape != x_v.shape:
            raise DimensionMismatch("input vectors differ in length")
        return cls(h=int(np.sum(np.abs(x_u - x_v))), s=int(np.dot(x_u, x_v)))


@dataclass
class GeometryReport:
    """Named scalar results plus the slack tolerances that gate `passed`.

    Every tolerance key must exist in values; the check passes when each
    such value is at most its tolerance.
    """

    name: str
    values: dict[str, float]
    tolerances: dict[str, float] = field(default_factory=dict)
    passed: bool = True

    def __post_init__(self):
        missing = [k for k in self.tolerances if k not in self.values]
        if missing:
            raise ValueError(f"tolerance keys without values: {missing}")

    @classmethod
    def check(cls, name: str, values: dict[str, float],
              tolerances: dict[str, float]) -> "GeometryReport":
        passed = all(values[k] <= tol for k, tol in tolerances.items())
        return cls(name=name, values=values, tolerances=tolerances, passed=passed)

    def extend(self, name: str, values: dict[str, float],
               tolerances: dict[str, float]) -> "GeometryReport":
        """A renamed copy with more values and tolerances, re-checked."""
        return GeometryReport.check(name, {**self.values, **values},
                                    {**self.tolerances, **tolerances})

    def to_dict(self) -> dict:
        return {"name": self.name, "values": dict(self.values),
                "tolerances": dict(self.tolerances), "pass": self.passed}


@dataclass(frozen=True)
class SharingDiagnostics:
    """Empirical ingredients of the gradient-sharing radius for one pair."""

    w2_latent: float
    grad_norm_u: float
    delta_x: float
    lipschitz_probe: float
    r_share_estimate: float


# ---------------------------------------------------------------------------
# Masked-distance bounds and exact distribution
# ---------------------------------------------------------------------------

def _binom_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                     for k in range(n + 1)], dtype=np.float64)


def contraction_bound(stats: PairStats, keep_prob: float, delta: float) -> float:
    """Lower bound on Pr[masked distance < delta].

    (rho^2 + (1-rho)^2)^s * Pr[Binomial(h, rho) <= ceil(delta) - 1]: the
    event that every shared positive survives or dies in both masks and
    few disagreeing coordinates survive.
    """
    if not 0.0 < keep_prob < 1.0:
        raise ValueError("keep_prob must lie strictly between 0 and 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rho = keep_prob
    tail = float(np.sum(_binom_pmf(stats.h, rho)[:math.ceil(delta)]))
    return float((rho**2 + (1.0 - rho) ** 2) ** stats.s * tail)


def expansion_bound(s: int, keep_prob: float, delta: float) -> float:
    """Lower bound on Pr[masked distance >= delta]: the shared positives
    alone disagree at least ceil(delta) times, each with prob 2 rho (1-rho)."""
    if not 0.0 < keep_prob < 1.0:
        raise ValueError("keep_prob must lie strictly between 0 and 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    p = 2.0 * keep_prob * (1.0 - keep_prob)
    return float(np.sum(_binom_pmf(s, p)[math.ceil(delta):]))


def masked_distance_exact(x_u: np.ndarray, x_v: np.ndarray,
                          keep_prob: float) -> np.ndarray:
    """Full distribution of the masked l1 distance D'.

    D' decomposes into independent Binomial(h, rho) survivals on the
    disagreeing coordinates plus Binomial(s, 2 rho (1-rho)) mask
    disagreements on the shared positives; the table is their
    convolution, exact for any input size. Entry d is Pr[D' = d].
    """
    stats = PairStats.of(x_u, x_v)
    rho = keep_prob
    if rho >= 1.0:
        table = np.zeros(stats.h + stats.s + 1)
        table[stats.h] = 1.0
        return table
    y = _binom_pmf(stats.h, rho)
    z = _binom_pmf(stats.s, 2.0 * rho * (1.0 - rho))
    return np.convolve(y, z)


def masked_distance_enumerate(x_u: np.ndarray, x_v: np.ndarray,
                              keep_prob: float) -> np.ndarray:
    """Brute-force oracle: enumerate every mask pair over both supports.

    Costs 2^(|support u| + |support v|); intended for supports of at most
    8 combined coordinates.
    """
    x_u = np.asarray(x_u, dtype=np.float64)
    x_v = np.asarray(x_v, dtype=np.float64)
    su = np.flatnonzero(x_u > 0)
    sv = np.flatnonzero(x_v > 0)
    union = {int(c): bit for bit, c in enumerate(np.union1d(su, sv))}
    nu, nv = su.size, sv.size
    max_d = int(np.sum(np.abs(x_u - x_v))) + int(np.dot(x_u, x_v))
    table = np.zeros(max_d + 1, dtype=np.float64)
    rho = keep_prob

    def survivors(support, mask_bits):
        word = 0
        for j, coord in enumerate(support):
            if mask_bits >> j & 1:
                word |= 1 << union[int(coord)]
        return word

    v_words = [survivors(sv, mv) for mv in range(1 << nv)]
    v_probs = [rho ** mv.bit_count() * (1.0 - rho) ** (nv - mv.bit_count())
               for mv in range(1 << nv)]
    for mu in range(1 << nu):
        u_word = survivors(su, mu)
        pu = rho ** mu.bit_count() * (1.0 - rho) ** (nu - mu.bit_count())
        for v_word, pv in zip(v_words, v_probs):
            table[(u_word ^ v_word).bit_count()] += pu * pv
    return table


# ---------------------------------------------------------------------------
# Gaussian transport distances
# ---------------------------------------------------------------------------

def w2_diag_gaussian(a: GaussianPosterior,
                     b: GaussianPosterior) -> float | np.ndarray:
    """sqrt(||mu_a - mu_b||^2 + ||sigma_a - sigma_b||^2); one value per row
    when a and b hold batches of posteriors."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    w2 = np.sqrt(np.sum((a.mean - b.mean) ** 2, axis=-1)
                 + np.sum((a.std - b.std) ** 2, axis=-1))
    return float(w2) if w2.ndim == 0 else w2


def w1_1d_numeric(a: GaussianPosterior, b: GaussianPosterior,
                  n_quad: int = 100_000) -> float:
    """Quantile-coupling quadrature of the 1-D W1 distance.

    Integrates |F_a^{-1}(t) - F_b^{-1}(t)| over (0, 1) with the midpoint
    rule on n_quad cells.
    """
    if a.dim != 1 or b.dim != 1:
        raise DimensionMismatch("w1_1d_numeric handles 1-D Gaussians only")
    if n_quad < 100:
        raise ValueError("n_quad must be >= 100")
    t = (np.arange(n_quad) + 0.5) / n_quad
    quantiles = ndtri(t)
    qa = a.mean[0] + a.std[0] * quantiles
    qb = b.mean[0] + b.std[0] * quantiles
    return float(np.mean(np.abs(qa - qb)))


def t1_bound_check(q_u: GaussianPosterior, q_v: GaussianPosterior,
                   prior_var: float, n_quad: int = 100_000) -> GeometryReport:
    """Transport-entropy check: a provable lower bound on W1(q_u, q_v)
    must not exceed sqrt(2C KL_u) + sqrt(2C KL_v).

    In 1-D the lower bound is the quadrature W1 itself; in higher
    dimension it is the mean gap ||mu_u - mu_v||.
    """
    if q_u.dim != q_v.dim:
        raise DimensionMismatch(f"{q_u.dim} vs {q_v.dim}")
    c = prior_var
    kl_u = kl_diag_gaussian(q_u, c)
    kl_v = kl_diag_gaussian(q_v, c)
    bound = math.sqrt(2.0 * c * kl_u) + math.sqrt(2.0 * c * kl_v)
    values = {"kl_u": kl_u, "kl_v": kl_v, "bound": bound,
              "w2": w2_diag_gaussian(q_u, q_v)}
    if q_u.dim == 1:
        w1 = w1_1d_numeric(q_u, q_v, n_quad=n_quad)
        values["w1"] = w1
        values["w1_minus_bound"] = w1 - bound
        tolerances = {"w1_minus_bound": 1e-8}
        name = "transport-entropy-1d"
    else:
        gap = float(np.linalg.norm(q_u.mean - q_v.mean))
        values["mean_gap"] = gap
        values["mean_gap_minus_bound"] = gap - bound
        tolerances = {"mean_gap_minus_bound": 1e-8}
        name = "transport-entropy-mean-gap"
    return GeometryReport.check(name, values, tolerances)


def dataset_bound_report(p: ModelParams, matrix: InteractionMatrix,
                         keep_prob: float, prior_var: float, n_pairs: int,
                         rng: np.random.Generator) -> GeometryReport:
    """Dataset-average latent-distance bound on sampled masked user pairs.

    The 2 n_pairs rows are drawn in one call (pair j is rows 2j and
    2j + 1), masked on their nonzeros and encoded in one batch. Every pair
    contributes a mean-gap lower bound on its W1 and both encodings feed
    the average KL, so mean gap <= 2 sqrt(2C mean KL) holds
    deterministically for the sample (pairwise bound followed by
    concavity of the square root).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    c = prior_var
    indptr, indices = matrix.csr_rows(rng.integers(matrix.n_users,
                                                   size=2 * n_pairs))
    q = encode_rows(p, indptr, indices,
                    draw_mask((indices.size,), keep_prob, rng))
    mean_kl = float(np.mean(kl_diag_gaussian(q, c)))
    q_a = GaussianPosterior(mean=q.mean[0::2], logvar=q.logvar[0::2])
    q_b = GaussianPosterior(mean=q.mean[1::2], logvar=q.logvar[1::2])
    rhs = 2.0 * math.sqrt(2.0 * c * mean_kl)
    mean_gap = float(np.mean(np.linalg.norm(q_a.mean - q_b.mean, axis=1)))
    values = {"mean_kl": mean_kl, "rhs": rhs, "mean_gap": mean_gap,
              "mean_w2": float(np.mean(w2_diag_gaussian(q_a, q_b))),
              "gap_minus_rhs": mean_gap - rhs}
    return GeometryReport.check("dataset-average-bound", values,
                                {"gap_minus_rhs": 1e-8})


# ---------------------------------------------------------------------------
# Bernoulli exponential-family decomposition
# ---------------------------------------------------------------------------

def _bernoulli_conjugate(t: np.ndarray) -> np.ndarray:
    """A*(t) = sum_j t ln t + (1-t) ln(1-t), with 0 ln 0 = 0."""
    t = np.asarray(t, dtype=np.float64)
    return np.sum(xlogy(t, t) + xlogy(1.0 - t, 1.0 - t), axis=-1)


def jensen_gap_bernoulli(t1: np.ndarray, t2: np.ndarray, alpha) -> np.ndarray | float:
    """Convexity gap of the Bernoulli conjugate at mixing weight alpha.

    alpha may be a scalar or an array of weights; the gap is always
    nonnegative and vanishes iff t1 == t2 or alpha is an endpoint.
    """
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    if t1.shape != t2.shape:
        raise DimensionMismatch("t1 and t2 must have equal length")
    if np.any(t1 < 0) or np.any(t1 > 1) or np.any(t2 < 0) or np.any(t2 > 1):
        raise ValueError("mean parameters must lie in [0, 1]")
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    scalar = alpha_arr.ndim == 0
    a = alpha_arr.reshape(-1, 1)
    mix = a * t1 + (1.0 - a) * t2
    gap = (a[:, 0] * _bernoulli_conjugate(t1)
           + (1.0 - a[:, 0]) * _bernoulli_conjugate(t2)
           - _bernoulli_conjugate(mix))
    return float(gap[0]) if scalar else gap


@dataclass(frozen=True)
class PairGrid:
    """Midpoint quadrature nodes and weights for a pair of 1-D Gaussians."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_pair(cls, q_u: GaussianPosterior, q_v: GaussianPosterior,
                 n_points: int = 4000, half_width: float = 8.0) -> "PairGrid":
        """One window per posterior (mean +/- half_width sigma), merged
        when they overlap; n_points midpoint cells per window."""
        if n_points < 2000:
            raise ValueError("use at least 2000 quadrature points")
        windows = []
        for q in (q_u, q_v):
            mu, sd = float(q.mean[0]), float(q.std[0])
            windows.append((mu - half_width * sd, mu + half_width * sd))
        windows.sort()
        merged = [windows[0]]
        for lo, hi in windows[1:]:
            last_lo, last_hi = merged[-1]
            if lo <= last_hi:
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        points, weights = [], []
        for lo, hi in merged:
            step = (hi - lo) / n_points
            points.append(lo + (np.arange(n_points) + 0.5) * step)
            weights.append(np.full(n_points, step))
        return cls(points=np.concatenate(points), weights=np.concatenate(weights))


def _gauss_pdf(q: GaussianPosterior, z: np.ndarray) -> np.ndarray:
    mu, sd = float(q.mean[0]), float(q.std[0])
    return np.exp(-0.5 * ((z - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _softplus(eta: np.ndarray) -> np.ndarray:
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


def pairwise_decomposition_check(x_u: np.ndarray, x_v: np.ndarray,
                                 q_u: GaussianPosterior, q_v: GaussianPosterior,
                                 beta: float,
                                 grid: PairGrid) -> GeometryReport:
    """Two-user objective identity for a per-coordinate Bernoulli decoder.

    Left side: at each grid point the reconstruction integrand is
    minimized over the natural parameter (closed form: the logit of the
    posterior-weighted mixture of the two inputs) and integrated, plus
    the beta-weighted KL terms. Right side: a constant from the conjugate
    at the data points plus the integrated Jensen gap plus the same KL
    terms. Both sides must agree to 1e-6 relative.
    """
    x_u = np.asarray(x_u, dtype=np.float64)
    x_v = np.asarray(x_v, dtype=np.float64)
    if x_u.shape != x_v.shape:
        raise DimensionMismatch("inputs differ in length")
    if x_u.size > 5:
        raise ValueError("decomposition check is meant for <= 5 items")

    z = grid.points
    w = grid.weights
    pdf_u = _gauss_pdf(q_u, z)
    pdf_v = _gauss_pdf(q_v, z)
    total = pdf_u + pdf_v
    live = total > 0.0
    alpha = np.zeros_like(total)
    alpha[live] = pdf_u[live] / total[live]

    # Mixture of sufficient statistics per grid point: (n_z, I).
    mix = alpha[:, None] * x_u + (1.0 - alpha)[:, None] * x_v
    interior = (mix > 0.0) & (mix < 1.0)
    eta = np.zeros_like(mix)
    eta[interior] = np.log(mix[interior] / (1.0 - mix[interior]))
    point_min = np.where(interior, _softplus(eta) - mix * eta, 0.0).sum(axis=1)
    recon_lhs = float(np.sum(w * total * point_min * live))

    kl_terms = beta * (kl_diag_gaussian(q_u) + kl_diag_gaussian(q_v))
    lhs = recon_lhs + kl_terms

    const = -float(_bernoulli_conjugate(x_u) + _bernoulli_conjugate(x_v))
    gap = np.zeros_like(total)
    gap[live] = jensen_gap_bernoulli(x_u, x_v, alpha[live])
    gap_integral = float(np.sum(w * total * gap))
    rhs = const + gap_integral + kl_terms

    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NumericalError("quadrature produced a non-finite value")
    rel_err = abs(lhs - rhs) / max(1.0, abs(lhs))
    values = {"lhs": lhs, "rhs": rhs, "const": const,
              "gap_integral": gap_integral, "rel_err": rel_err}
    return GeometryReport.check("pairwise-decomposition", values,
                                {"rel_err": 1e-6})


# ---------------------------------------------------------------------------
# Quadratic shrinkage toy model
# ---------------------------------------------------------------------------

def quadratic_minimizers(hessian_eigs: np.ndarray, mask_offsets,
                         lambda_a: float,
                         centroid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mask minimizers without and with the alignment penalty.

    The unregularized minimizer for gradient offset g is -H^{-1} g; the
    aligned one is M a + (I - M) centroid with M = (H + 2 lambda I)^{-1} H.
    """
    eigs = np.asarray(hessian_eigs, dtype=np.float64)
    if np.any(eigs <= 0):
        raise ValueError("Hessian eigenvalues must be positive")
    if lambda_a < 0:
        raise ValueError("lambda_a must be >= 0")
    offsets = np.asarray(mask_offsets, dtype=np.float64)
    if offsets.ndim != 2 or offsets.shape[0] < 2:
        raise ValueError("need at least 2 mask offsets")
    centroid = np.asarray(centroid, dtype=np.float64)
    unaligned = -offsets / eigs
    shrink = eigs / (eigs + 2.0 * lambda_a)
    aligned = shrink * unaligned + (1.0 - shrink) * centroid
    return unaligned, aligned


def quadratic_toy(hessian_eigs: np.ndarray, mask_offsets, lambda_a: float,
                  centroid: np.ndarray) -> GeometryReport:
    """Mask-variance and centroid-drift shrinkage under alignment.

    With tau = L / (L + 2 lambda) for the largest eigenvalue L, the
    aligned minimizers must contract the covariance trace by tau^2 and
    the root-mean-square centroid drift by tau.
    """
    unaligned, aligned = quadratic_minimizers(hessian_eigs, mask_offsets,
                                              lambda_a, centroid)
    centroid = np.asarray(centroid, dtype=np.float64)

    def covariance(a: np.ndarray) -> np.ndarray:
        d = a - a.mean(axis=0)
        return d.T @ d / a.shape[0]

    var0 = covariance(unaligned)
    var_a = covariance(aligned)
    tau = float(np.max(hessian_eigs) / (np.max(hessian_eigs) + 2.0 * lambda_a))
    trace_ratio = float(np.trace(var_a) / np.trace(var0))
    opnorm_ratio = float(np.max(np.linalg.eigvalsh(var_a))
                         / np.max(np.linalg.eigvalsh(var0)))
    drift_ratio = float(np.sqrt(
        np.mean(np.sum((aligned - centroid) ** 2, axis=1))
        / np.mean(np.sum((unaligned - centroid) ** 2, axis=1))))
    values = {
        "tau": tau,
        "trace_ratio": trace_ratio,
        "opnorm_ratio": opnorm_ratio,
        "drift_ratio": drift_ratio,
        "trace_ratio_minus_tau_sq": trace_ratio - tau**2,
        "drift_ratio_minus_tau": drift_ratio - tau,
    }
    return GeometryReport.check("quadratic-shrinkage", values,
                                {"trace_ratio_minus_tau_sq": 1e-12,
                                 "drift_ratio_minus_tau": 1e-12})


# ---------------------------------------------------------------------------
# Gradient-sharing probe
# ---------------------------------------------------------------------------

def _softmax_rows(p: ModelParams, z: np.ndarray) -> np.ndarray:
    """softmax(dec_w z + dec_b) for each row z of an (n, latent) array."""
    probs = z @ p.dec_w.T + p.dec_b
    probs -= np.max(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True)
    return probs


def _mean_grad_norm(d_logits: np.ndarray, z: np.ndarray) -> float:
    """Norm of the mean over rows of the flat (dec_w, dec_b) gradient
    (outer(d, z), d) of the row pairs (d, z)."""
    return float(np.sqrt(np.sum((d_logits.T @ z / len(z)) ** 2)
                         + np.sum(np.mean(d_logits, axis=0) ** 2)))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _encode_one(p: ModelParams, x: np.ndarray) -> GaussianPosterior:
    """Posterior of one dense input vector, encoded alone as a one-row CSR
    batch of its nonzeros."""
    idx = np.flatnonzero(x)
    q = encode_rows(p, np.array([0, idx.size]), idx, x[idx])
    return GaussianPosterior(mean=q.mean[0], logvar=q.logvar[0])


def sharing_probe(p: ModelParams, x_u: np.ndarray, x_v: np.ndarray,
                  n_samples: int, perturb_scale: float,
                  rng: np.random.Generator) -> SharingDiagnostics:
    """Monte-Carlo estimates feeding the gradient-sharing radius.

    All gradients are over decoder parameters only: for input x and
    latent z the gradient of -loglik(dec_w z + dec_b, x) is
    (outer(d, z), d) with d = sum(x) softmax(dec_w z + dec_b) - x. Every
    sample is one row of a batched softmax. The Lipschitz probe is an
    empirical lower bound on the true constant, so the resulting radius
    is a diagnostic, not a certified quantity.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    x_u = np.asarray(x_u, dtype=np.float64)
    x_v = np.asarray(x_v, dtype=np.float64)
    k_u, k_v = np.sum(x_u), np.sum(x_v)
    q_u = _encode_one(p, x_u)
    q_v = _encode_one(p, x_v)
    w2 = w2_diag_gaussian(q_u, q_v)
    shape = (n_samples, p.latent_dim)

    z_u = q_u.mean + rng.standard_normal(shape) * q_u.std
    d_u = k_u * _softmax_rows(p, z_u) - x_u
    grad_norm_u = _mean_grad_norm(d_u, z_u)

    z_v = q_v.mean + rng.standard_normal(shape) * q_v.std
    soft_v = _softmax_rows(p, z_v)
    delta_x = _mean_grad_norm((k_u * soft_v - x_u) - (k_v * soft_v - x_v), z_v)

    # Per sample, ||(outer(d_u, z) - outer(d_e, z + eps), d_u - d_e)|| with
    # d_e at z + eps; with a = d_u - d_e its square is
    # |a|^2 (|z|^2 + 1) + |d_e|^2 |eps|^2 - 2 (a . d_e)(z . eps).
    eps = perturb_scale * rng.standard_normal(shape)
    d_e = k_u * _softmax_rows(p, z_u + eps) - x_u
    a = d_u - d_e
    sq = (_row_dot(a, a) * (_row_dot(z_u, z_u) + 1.0)
          + _row_dot(d_e, d_e) * _row_dot(eps, eps)
          - 2.0 * _row_dot(a, d_e) * _row_dot(z_u, eps))
    lipschitz = float(np.max(np.sqrt(np.maximum(sq, 0.0))
                             / np.linalg.norm(eps, axis=1)))

    if lipschitz > 0.0:
        r_share = max(0.0, grad_norm_u - delta_x) / lipschitz
    else:
        r_share = math.inf
    return SharingDiagnostics(w2_latent=w2, grad_norm_u=grad_norm_u,
                              delta_x=delta_x, lipschitz_probe=lipschitz,
                              r_share_estimate=r_share)


def export_latents(p: ModelParams, matrix: InteractionMatrix,
                   path: str | Path) -> None:
    """Write posterior means under clean inputs to CSV.

    The means come from model.posterior_means, the chunked sparse kernel
    that scoring uses. Columns: user_index, interaction_count, mu_1 ..
    mu_d; float values are repr-formatted so they round-trip bit-exactly.
    """
    if matrix.n_users == 0:
        raise ValueError("need at least one user row to export")
    means = posterior_means(p, matrix)
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_index", "interaction_count"]
                        + [f"mu_{j + 1}" for j in range(p.latent_dim)])
        for u, (count, mu) in enumerate(zip(matrix.row_lengths(), means)):
            writer.writerow([u, int(count)] + [repr(float(v)) for v in mu])
