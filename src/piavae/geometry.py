"""Numerical verification lab for the masking/latent-geometry theory.

Covers: exact masked-distance distributions with contraction/expansion
lower bounds and a brute-force enumeration oracle, Gaussian transport
distances (closed-form W2 for diagonal Gaussians, closed-form W1 in 1-D),
the transport-entropy (T1) bound, the dataset-level distance/KL bound,
the Bernoulli-family Jensen-gap decomposition of the pairwise objective
on a midpoint grid built from the pair itself, the quadratic shrinkage
toy model, and the empirical gradient-sharing probe. The probe runs the
model's own kernels: `model.encode_rows` encodes its pair and
`model.decode_loss`, the decoder training runs, gives every gradient it
measures, in one batched pass; it returns plain report values.

The masked-distance distribution and bounds take a binary pair's counts
(h disagreeing coordinates, s shared positives); the enumeration oracle
takes the two rows, so comparing them also checks that reduction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from .corpus import InteractionMatrix
from .errors import NumericalError, ShapeError, SplitError
from .model import (ModelParams, TrainConfig, decode_loss, draw_mask,
                    encode_rows, posterior_means)
from .numerics import GaussianPosterior, kl_diag_gaussian

@dataclass
class GeometryReport:
    """Named scalar results plus the slack tolerances that gate `passed`.

    Every tolerance key must exist in values; the check passes when each
    such value is at most its tolerance.
    """

    name: str
    values: dict[str, float]
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        missing = [k for k in self.tolerances if k not in self.values]
        if missing:
            raise ValueError(f"tolerance keys without values: {missing}")

    @property
    def passed(self) -> bool:
        return all(self.values[k] <= tol for k, tol in self.tolerances.items())

    def extend(self, name: str, values: dict[str, float],
               tolerances: dict[str, float]) -> "GeometryReport":
        """A renamed copy with more values and tolerances."""
        return GeometryReport(name, {**self.values, **values},
                              {**self.tolerances, **tolerances})

    def to_dict(self) -> dict:
        return {"name": self.name, "values": dict(self.values),
                "tolerances": dict(self.tolerances), "pass": self.passed}


# ---------------------------------------------------------------------------
# Masked-distance bounds and exact distribution
# ---------------------------------------------------------------------------

def _binom_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                     for k in range(n + 1)], dtype=np.float64)


def contraction_bound(h: int, s: int, keep_prob: float, delta: float) -> float:
    """Lower bound on Pr[masked distance < delta] for a pair with h
    disagreeing coordinates and s shared positives.

    (rho^2 + (1-rho)^2)^s * Pr[Binomial(h, rho) <= ceil(delta) - 1]: the
    event that every shared positive survives or dies in both masks and
    few disagreeing coordinates survive.
    """
    if not 0.0 < keep_prob < 1.0:
        raise ValueError("keep_prob must lie strictly between 0 and 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if h < 0 or s < 0:
        raise ValueError("h and s must be nonnegative")
    rho = keep_prob
    tail = float(np.sum(_binom_pmf(h, rho)[:math.ceil(delta)]))
    return float((rho**2 + (1.0 - rho) ** 2) ** s * tail)


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


def masked_distance_exact(h: int, s: int, keep_prob: float) -> np.ndarray:
    """Full distribution of the masked l1 distance D' of a pair with h
    disagreeing coordinates and s shared positives.

    D' decomposes into independent Binomial(h, rho) survivals on the
    disagreeing coordinates plus Binomial(s, 2 rho (1-rho)) mask
    disagreements on the shared positives; the table is their
    convolution, exact for any input size (at keep_prob 1 both are point
    masses, so the table is exactly 1 at d = h). Entry d is Pr[D' = d].
    """
    if h < 0 or s < 0:
        raise ValueError("h and s must be nonnegative")
    rho = keep_prob
    return np.convolve(_binom_pmf(h, rho),
                       _binom_pmf(s, 2.0 * rho * (1.0 - rho)))


def masked_distance_enumerate(x_u: np.ndarray, x_v: np.ndarray,
                              keep_prob: float) -> np.ndarray:
    """Brute-force oracle for masked_distance_exact: enumerate every mask
    pair over the supports of the binary rows x_u and x_v.

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
        raise ShapeError(f"{a.dim} vs {b.dim}")
    w2 = np.sqrt(np.sum((a.mean - b.mean) ** 2, axis=-1)
                 + np.sum((a.std - b.std) ** 2, axis=-1))
    return float(w2) if w2.ndim == 0 else w2


def w1_1d_numeric(a: GaussianPosterior, b: GaussianPosterior) -> float:
    """Closed-form W1 distance between two 1-D Gaussians.

    The quantile coupling, optimal in 1-D, pairs mu_a + sigma_a Z with
    mu_b + sigma_b Z, so W1 = E|m + s Z| for m = mu_a - mu_b and
    s = |sigma_a - sigma_b|: the folded-normal mean
    m erf(m / (s sqrt 2)) + s sqrt(2 / pi) exp(-m^2 / (2 s^2)), and |m|
    when s = 0.
    """
    if a.dim != 1 or b.dim != 1:
        raise ShapeError("w1_1d_numeric handles 1-D Gaussians only")
    m = float(a.mean[0] - b.mean[0])
    s = abs(float(a.std[0] - b.std[0]))
    if s == 0.0:
        return abs(m)
    r = m / s
    return (m * math.erf(r / math.sqrt(2.0))
            + s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * r * r))


def t1_bound_check(q_u: GaussianPosterior, q_v: GaussianPosterior,
                   prior_var: float) -> GeometryReport:
    """Transport-entropy check: a provable lower bound on W1(q_u, q_v)
    must not exceed sqrt(2C KL_u) + sqrt(2C KL_v) for prior N(0, C I).

    In 1-D the lower bound is the closed-form W1 itself; in higher
    dimension it is the mean gap ||mu_u - mu_v||.
    """
    if q_u.dim != q_v.dim:
        raise ShapeError(f"{q_u.dim} vs {q_v.dim}")
    c = prior_var
    kl_u = kl_diag_gaussian(q_u, c)
    kl_v = kl_diag_gaussian(q_v, c)
    bound = math.sqrt(2.0 * c * kl_u) + math.sqrt(2.0 * c * kl_v)
    values = {"kl_u": kl_u, "kl_v": kl_v, "bound": bound,
              "w2": w2_diag_gaussian(q_u, q_v)}
    if q_u.dim == 1:
        w1 = w1_1d_numeric(q_u, q_v)
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
    return GeometryReport(name, values, tolerances)


def dataset_bound_report(p: ModelParams, matrix: InteractionMatrix,
                         rng: np.random.Generator) -> GeometryReport:
    """Dataset-average latent-distance bound on sampled masked user pairs.

    The 60 rows of 30 pairs are drawn in one call (pair j is rows 2j and
    2j + 1), each stored entry kept with TrainConfig's keep_prob, and
    encoded in one batch. Every pair contributes a mean-gap lower bound on
    its W1 and both encodings feed the average KL to the N(0, I) prior, so
    mean gap <= 2 sqrt(2 mean KL) holds deterministically for the sample
    (pairwise bound followed by concavity of the square root).
    """
    indptr, indices = matrix.csr_rows(rng.integers(matrix.n_users, size=60))
    q = encode_rows(p, indptr, indices,
                    draw_mask(indices.size, TrainConfig().keep_prob, rng))
    mean_kl = float(np.mean(kl_diag_gaussian(q)))
    q_a = GaussianPosterior(mean=q.mean[0::2], logvar=q.logvar[0::2])
    q_b = GaussianPosterior(mean=q.mean[1::2], logvar=q.logvar[1::2])
    rhs = 2.0 * math.sqrt(2.0 * mean_kl)
    mean_gap = float(np.mean(np.linalg.norm(q_a.mean - q_b.mean, axis=1)))
    values = {"mean_kl": mean_kl, "rhs": rhs, "mean_gap": mean_gap,
              "mean_w2": float(np.mean(w2_diag_gaussian(q_a, q_b))),
              "gap_minus_rhs": mean_gap - rhs}
    return GeometryReport("dataset-average-bound", values,
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
        raise ShapeError("t1 and t2 must have equal length")
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


GRID_CELLS = 4000        # midpoint cells per window of the pair grid
GRID_HALF_WIDTH = 8.0    # window half-width in posterior standard deviations


def _pair_grid(q_u: GaussianPosterior,
               q_v: GaussianPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights for a pair of 1-D Gaussians: one window
    per posterior (mean +/- GRID_HALF_WIDTH sigma), merged when they
    overlap, GRID_CELLS cells per window."""
    windows = []
    for q in (q_u, q_v):
        mu, sd = float(q.mean[0]), float(q.std[0])
        windows.append((mu - GRID_HALF_WIDTH * sd, mu + GRID_HALF_WIDTH * sd))
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
        step = (hi - lo) / GRID_CELLS
        points.append(lo + (np.arange(GRID_CELLS) + 0.5) * step)
        weights.append(np.full(GRID_CELLS, step))
    return np.concatenate(points), np.concatenate(weights)


def _gauss_pdf(q: GaussianPosterior, z: np.ndarray) -> np.ndarray:
    mu, sd = float(q.mean[0]), float(q.std[0])
    return np.exp(-0.5 * ((z - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _softplus(eta: np.ndarray) -> np.ndarray:
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


def pairwise_decomposition_check(x_u: np.ndarray, x_v: np.ndarray,
                                 q_u: GaussianPosterior, q_v: GaussianPosterior,
                                 beta: float) -> GeometryReport:
    """Two-user objective identity for a per-coordinate Bernoulli decoder.

    Both sides are integrated on a midpoint grid built from the pair's
    posteriors. Left side: at each grid point the reconstruction
    integrand is minimized over the natural parameter (closed form: the
    logit of the posterior-weighted mixture of the two inputs) and
    integrated, plus the beta-weighted KL terms. Right side: a constant from the conjugate
    at the data points plus the integrated Jensen gap plus the same KL
    terms. Both sides must agree to 1e-6 relative.
    """
    x_u = np.asarray(x_u, dtype=np.float64)
    x_v = np.asarray(x_v, dtype=np.float64)
    if x_u.shape != x_v.shape:
        raise ShapeError("inputs differ in length")
    if x_u.size > 5:
        raise ValueError("decomposition check is meant for <= 5 items")

    z, w = _pair_grid(q_u, q_v)
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
    return GeometryReport("pairwise-decomposition", values, {"rel_err": 1e-6})


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
    return GeometryReport("quadratic-shrinkage", values,
                          {"trace_ratio_minus_tau_sq": 1e-12,
                           "drift_ratio_minus_tau": 1e-12})


# ---------------------------------------------------------------------------
# Gradient-sharing probe
# ---------------------------------------------------------------------------

def _mean_grad_norm(d_logits: np.ndarray, z: np.ndarray) -> float:
    """Norm of the mean over rows of the flat (dec_w, dec_b) gradient
    (outer(d, z), d) of the row pairs (d, z)."""
    return float(np.sqrt(np.sum((d_logits.T @ z / len(z)) ** 2)
                         + np.sum(np.mean(d_logits, axis=0) ** 2)))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


PROBE_SAMPLES = 400   # latent samples per user in sharing_probe
PROBE_PERTURB = 0.1   # std of the latent perturbation of the Lipschitz probe


def sharing_probe(p: ModelParams, items_u, items_v,
                  rng: np.random.Generator) -> dict[str, float]:
    """Monte-Carlo estimates feeding the gradient-sharing radius of users
    with the distinct positives items_u and items_v, as report values:
    w2_latent, grad_norm_u, delta_x, lipschitz_probe and r_share_estimate.

    Both rows are encoded in one `model.encode_rows` call. Gradients are
    over decoder parameters only: for target x and latent z, (outer(d, z),
    d) with d = |x| softmax(dec_w z + dec_b) - x, the logit gradient of
    `model.decode_loss`, the decoder training runs, at scale 1. Its one
    pass covers PROBE_SAMPLES rows each of (z_u, u), (z_v, u), (z_v, v)
    and (z_u + eps, u), with z_u, z_v and eps drawn in that order. The
    Lipschitz probe is an empirical lower bound on the true constant, so
    the radius is a diagnostic, not a certified quantity.
    """
    items_u = np.asarray(items_u, dtype=np.int64)
    items_v = np.asarray(items_v, dtype=np.int64)
    both = np.concatenate([items_u, items_v])
    q = encode_rows(p, np.array([0, items_u.size, both.size]), both)
    q_u = GaussianPosterior(mean=q.mean[0], logvar=q.logvar[0])
    q_v = GaussianPosterior(mean=q.mean[1], logvar=q.logvar[1])
    shape = (PROBE_SAMPLES, p.latent_dim)
    z_u = q_u.mean + rng.standard_normal(shape) * q_u.std
    z_v = q_v.mean + rng.standard_normal(shape) * q_v.std
    eps = PROBE_PERTURB * rng.standard_normal(shape)

    targets = (items_u, items_u, items_v, items_u)
    indptr = np.concatenate(([0], np.cumsum(np.repeat(
        [t.size for t in targets], PROBE_SAMPLES))))
    indices = np.concatenate([np.tile(t, PROBE_SAMPLES) for t in targets])
    _, d_logits = decode_loss(p, np.vstack([z_u, z_v, z_v, z_u + eps]),
                              indptr, indices, 1)
    d_u, d_vu, d_vv, d_e = np.split(d_logits, 4)
    grad_norm_u = _mean_grad_norm(d_u, z_u)
    delta_x = _mean_grad_norm(d_vu - d_vv, z_v)

    # Per sample, ||(outer(d_u, z) - outer(d_e, z + eps), d_u - d_e)|| with
    # d_e at z + eps; with a = d_u - d_e its square is
    # |a|^2 (|z|^2 + 1) + |d_e|^2 |eps|^2 - 2 (a . d_e)(z . eps).
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
    return {"w2_latent": w2_diag_gaussian(q_u, q_v),
            "grad_norm_u": grad_norm_u, "delta_x": delta_x,
            "lipschitz_probe": lipschitz, "r_share_estimate": r_share}


def export_latents(p: ModelParams, matrix: InteractionMatrix,
                   path: str | Path) -> None:
    """Write posterior means under clean inputs to CSV.

    The means come from model.posterior_means, the chunked sparse kernel
    that scoring uses, and are written one chunk at a time. Columns:
    user_index, interaction_count, mu_1 .. mu_d; float values are
    repr-formatted so they round-trip bit-exactly.
    """
    if matrix.n_users == 0:
        raise SplitError("the part to export has no users")
    # The item count is checked here, before the file is opened.
    rows = (mu for means in posterior_means(p, matrix) for mu in means)
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_index", "interaction_count"]
                        + [f"mu_{j + 1}" for j in range(p.latent_dim)])
        for u, (count, mu) in enumerate(zip(matrix.row_lengths(), rows)):
            writer.writerow([u, int(count)] + [repr(float(v)) for v in mu])
