"""Masked multinomial VAE: architecture, manual backpropagation, training
loop, scoring, and checkpoint serialization.

The encoder is input -> tanh(hidden) -> (mean, logvar) heads; the decoder
is a single linear layer back to item logits. All gradients are derived by
hand; `finite_diff_check` in the test suite guards every term.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import InteractionMatrix, SplitDataset, check_end, read_array
from .errors import NumericalError, ShapeError
from .numerics import (LOGVAR_MAX, LOGVAR_MIN, AdamState, GaussianPosterior,
                       adam_step)
from .pia import AnchorTable, LambdaSchedule, PiaConfig, schedule_update

MODEL_MAGIC = b"PIAM"
ANCHOR_SECTION = b"ANCH"

# Users per scoring chunk. Fixed, not a parameter: batched sums depend on
# the chunk, so a fixed size keeps seeded scores repeatable.
SCORE_CHUNK = 256
# Rows of enc_w1 per sparse product in scoring (see _score_rows).
HIDDEN_BLOCK = 64

_WEIGHT_FIELDS = ("enc_w1", "enc_b1", "enc_w_mu", "enc_b_mu",
                  "enc_w_lv", "enc_b_lv", "dec_w", "dec_b")


@dataclass(frozen=True)
class MaskConfig:
    """Bernoulli keep probability for input masking."""

    keep_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (defaults mirror the reference setup)."""

    beta: float = 0.2
    keep_prob: float = 0.5
    batch_size: int = 500
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    input_normalize: bool = True
    hidden_dim: int = 600
    latent_dim: int = 200

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@dataclass(frozen=True)
class ModelParams:
    """Encoder/decoder weights plus the optional anchor table.

    Weight layout: enc_w1 (hidden x items), heads (latent x hidden),
    dec_w (items x latent); biases match the output side of each layer.
    input_normalize records whether the encoder expects L2-normalized
    inputs so checkpoints are self-describing.
    """

    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w_mu: np.ndarray
    enc_b_mu: np.ndarray
    enc_w_lv: np.ndarray
    enc_b_lv: np.ndarray
    dec_w: np.ndarray
    dec_b: np.ndarray
    input_normalize: bool = True
    anchors: np.ndarray | None = None

    def __post_init__(self):
        for name in _WEIGHT_FIELDS:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if self.anchors is not None:
            object.__setattr__(self, "anchors",
                               np.asarray(self.anchors, dtype=np.float64))
        h, i = self.enc_w1.shape
        d = self.enc_w_mu.shape[0]
        ok = (self.enc_b1.shape == (h,)
              and self.enc_w_mu.shape == (d, h) and self.enc_b_mu.shape == (d,)
              and self.enc_w_lv.shape == (d, h) and self.enc_b_lv.shape == (d,)
              and self.dec_w.shape == (i, d) and self.dec_b.shape == (i,))
        if not ok:
            raise ShapeError("inconsistent parameter shapes")
        if self.anchors is not None and self.anchors.shape != (i, d):
            raise ShapeError(
                f"anchors {self.anchors.shape} must be ({i}, {d})")

    @property
    def n_items(self) -> int:
        return self.enc_w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.enc_w1.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.enc_w_mu.shape[0]


def init_params(n_items: int, hidden_dim: int, latent_dim: int,
                rng: np.random.Generator, input_normalize: bool = True,
                anchors: np.ndarray | None = None) -> ModelParams:
    """Scaled-normal weight init (std 1/sqrt(fan_in)), zero biases."""
    def layer(out_dim, in_dim):
        return rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)

    return ModelParams(
        enc_w1=layer(hidden_dim, n_items),
        enc_b1=np.zeros(hidden_dim),
        enc_w_mu=layer(latent_dim, hidden_dim),
        enc_b_mu=np.zeros(latent_dim),
        enc_w_lv=layer(latent_dim, hidden_dim),
        enc_b_lv=np.zeros(latent_dim),
        dec_w=layer(n_items, latent_dim),
        dec_b=np.zeros(n_items),
        input_normalize=input_normalize,
        anchors=anchors,
    )


def pack_params(p: ModelParams) -> np.ndarray:
    """Flatten all trainable arrays (anchors last) into one vector."""
    parts = [getattr(p, name).ravel() for name in _WEIGHT_FIELDS]
    if p.anchors is not None:
        parts.append(p.anchors.ravel())
    return np.concatenate(parts)


def unpack_params(vec: np.ndarray, template: ModelParams) -> ModelParams:
    """Rebuild a ModelParams with template shapes from a flat vector."""
    out = {}
    offset = 0
    for name in _WEIGHT_FIELDS:
        shape = getattr(template, name).shape
        size = int(np.prod(shape))
        out[name] = vec[offset:offset + size].reshape(shape).copy()
        offset += size
    anchors = None
    if template.anchors is not None:
        size = template.anchors.size
        anchors = vec[offset:offset + size].reshape(template.anchors.shape).copy()
        offset += size
    if offset != vec.size:
        raise ShapeError(f"flat vector has {vec.size} entries, expected {offset}")
    return ModelParams(**out, input_normalize=template.input_normalize,
                       anchors=anchors)


def apply_mask(x: np.ndarray, keep_prob: float,
               rng: np.random.Generator) -> np.ndarray:
    """Zero each coordinate independently with probability 1 - keep_prob."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must lie in (0, 1]")
    x = np.asarray(x, dtype=np.float64)
    if keep_prob >= 1.0:
        return x.copy()
    keep = rng.random(x.shape) < keep_prob
    return x * keep


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    # Zero rows pass through unchanged (no division by zero).
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    return x / np.where(norms > 0.0, norms, 1.0)


def encode(p: ModelParams, x_h: np.ndarray,
           normalize: bool | None = None) -> GaussianPosterior:
    """Run the encoder on one interaction vector."""
    if normalize is None:
        normalize = p.input_normalize
    x_h = np.asarray(x_h, dtype=np.float64)
    if x_h.shape != (p.n_items,):
        raise ShapeError(f"input length {x_h.shape} vs {p.n_items} items")
    x_in = _normalize_rows(x_h) if normalize else x_h
    h1 = np.tanh(p.enc_w1 @ x_in + p.enc_b1)
    mu = p.enc_w_mu @ h1 + p.enc_b_mu
    logvar = np.clip(p.enc_w_lv @ h1 + p.enc_b_lv, LOGVAR_MIN, LOGVAR_MAX)
    return GaussianPosterior(mean=mu, logvar=logvar)


def decode(p: ModelParams, z: np.ndarray) -> np.ndarray:
    """Item logits for one latent vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (p.latent_dim,):
        raise ShapeError(f"latent length {z.shape} vs {p.latent_dim}")
    return p.dec_w @ z + p.dec_b


def _as_dense_batch(batch, n_items: int) -> np.ndarray:
    if isinstance(batch, np.ndarray) and batch.ndim == 2:
        return np.asarray(batch, dtype=np.float64)
    rows = list(batch)
    out = np.zeros((len(rows), n_items), dtype=np.float64)
    for k, r in enumerate(rows):
        out[k, np.asarray(r, dtype=np.int64)] = 1.0
    return out


def loss_and_grads_fixed(p: ModelParams, x: np.ndarray, mask: np.ndarray,
                         noise: np.ndarray, beta: float,
                         lambda_a: float = 0.0) -> tuple[float, np.ndarray]:
    """Loss and flat gradient for fixed mask and noise draws.

    Per row: -loglik(decode(z), x) + beta * KL(q || N(0, I)) and, when
    lambda_a > 0, lambda_a times the closed-form alignment penalty of the
    row's positives; the total is the batch mean.
    """
    n = x.shape[0]
    xh = x * mask
    x_in = _normalize_rows(xh) if p.input_normalize else xh

    a1 = x_in @ p.enc_w1.T + p.enc_b1
    h1 = np.tanh(a1)
    mu = h1 @ p.enc_w_mu.T + p.enc_b_mu
    lv_raw = h1 @ p.enc_w_lv.T + p.enc_b_lv
    lv = np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX)
    sigma = np.exp(0.5 * lv)
    z = mu + noise * sigma
    logits = z @ p.dec_w.T + p.dec_b

    mx = np.max(logits, axis=1, keepdims=True)
    lse = mx + np.log(np.sum(np.exp(logits - mx), axis=1, keepdims=True))
    log_probs = logits - lse
    recon = -np.sum(x * log_probs, axis=1)
    var = np.exp(lv)
    kl = 0.5 * np.sum(mu**2 + var - 1.0 - lv, axis=1)
    per_row = recon + beta * kl

    use_align = lambda_a > 0.0 and p.anchors is not None
    if use_align:
        counts = np.sum(x, axis=1)
        if np.any(counts < 1):
            raise NumericalError("alignment needs at least one positive per row",
                                 row_index=int(np.argmin(counts)))
        ebar = (x @ p.anchors) / counts[:, None]
        sq_norms = np.sum(p.anchors**2, axis=1)
        const = (x @ sq_norms) / counts - np.sum(ebar**2, axis=1)
        align = np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1) + const
        per_row = per_row + lambda_a * align

    if not np.all(np.isfinite(per_row)):
        bad = int(np.flatnonzero(~np.isfinite(per_row))[0])
        raise NumericalError(f"non-finite loss at batch row {bad}", row_index=bad)
    loss = float(np.mean(per_row))

    # Backward pass; every d(loss)/d(per-row term) carries the 1/n factor.
    softmax = np.exp(log_probs)
    d_logits = (np.sum(x, axis=1, keepdims=True) * softmax - x) / n
    g_dec_w = d_logits.T @ z
    g_dec_b = np.sum(d_logits, axis=0)
    d_z = d_logits @ p.dec_w

    d_mu = d_z + (beta / n) * mu
    d_lv = 0.5 * d_z * noise * sigma + (beta / n) * 0.5 * (var - 1.0)
    g_anchors = None
    if use_align:
        d_mu = d_mu + (lambda_a / n) * 2.0 * (mu - ebar)
        d_lv = d_lv + (lambda_a / n) * var
        weights = x / counts[:, None]
        g_anchors = (2.0 * lambda_a / n) * (
            p.anchors * np.sum(weights, axis=0)[:, None] - weights.T @ mu)
    elif p.anchors is not None:
        g_anchors = np.zeros_like(p.anchors)

    inside = (lv_raw > LOGVAR_MIN) & (lv_raw < LOGVAR_MAX)
    d_lv_raw = d_lv * inside
    g_mu_w = d_mu.T @ h1
    g_mu_b = np.sum(d_mu, axis=0)
    g_lv_w = d_lv_raw.T @ h1
    g_lv_b = np.sum(d_lv_raw, axis=0)
    d_h1 = d_mu @ p.enc_w_mu + d_lv_raw @ p.enc_w_lv
    d_a1 = d_h1 * (1.0 - h1**2)
    g_w1 = d_a1.T @ x_in
    g_b1 = np.sum(d_a1, axis=0)

    parts = [g_w1.ravel(), g_b1, g_mu_w.ravel(), g_mu_b,
             g_lv_w.ravel(), g_lv_b, g_dec_w.ravel(), g_dec_b]
    if g_anchors is not None:
        parts.append(g_anchors.ravel())
    return loss, np.concatenate(parts)


def draw_mask_and_noise(shape: tuple[int, int], latent_dim: int,
                        keep_prob: float, rng: np.random.Generator):
    """Mask first, then noise, in one fixed consumption order."""
    if keep_prob >= 1.0:
        mask = np.ones(shape, dtype=np.float64)
    else:
        mask = (rng.random(shape) < keep_prob).astype(np.float64)
    noise = rng.standard_normal((shape[0], latent_dim))
    return mask, noise


def loss_and_grads(p: ModelParams, batch, cfg: TrainConfig,
                   rng: np.random.Generator,
                   lambda_a: float = 0.0) -> tuple[float, np.ndarray]:
    """Draw one mask and one latent sample per row, then backpropagate."""
    x = _as_dense_batch(batch, p.n_items)
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    mask, noise = draw_mask_and_noise(x.shape, p.latent_dim, cfg.keep_prob, rng)
    return loss_and_grads_fixed(p, x, mask, noise, cfg.beta, lambda_a=lambda_a)


def vae_loss_and_grads(p: ModelParams, batch, cfg: TrainConfig,
                       rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Plain masked-ELBO objective (no alignment term)."""
    return loss_and_grads(p, batch, cfg, rng, lambda_a=0.0)


def select_best_epoch(ndcg_by_epoch: list[float]) -> int:
    """1-based index of the highest validation NDCG (first one on ties)."""
    return int(np.argmax(ndcg_by_epoch)) + 1


def _mean_val_ndcg(p: ModelParams, fold: InteractionMatrix,
                   hold: InteractionMatrix, k: int = 100) -> float:
    from .evaluate import per_user_metrics

    _, ndcg = per_user_metrics(score_matrix(p, fold), fold, hold, [k])[k]
    return float(np.mean(ndcg))


def fit(data: SplitDataset, cfg: TrainConfig,
        pia: PiaConfig | None = None) -> tuple[ModelParams, list[dict]]:
    """Train with Adam over shuffled batches; keep the best-validation epoch.

    Per epoch the log records the mean batch loss, validation NDCG@100 on
    the fold-in/holdout pair, and the alignment strength in force during
    that epoch (0 when alignment is off). The returned parameters are the
    snapshot from the epoch with the highest validation NDCG.
    """
    rng = np.random.default_rng(cfg.seed)
    anchors = None
    schedule = None
    if pia is not None:
        table = AnchorTable.init(data.n_items, cfg.latent_dim, rng,
                                 init_scale=pia.anchor_init_scale)
        anchors = table.anchors
        schedule = LambdaSchedule(lambda_a=pia.lambda_a,
                                  lambda_scale=pia.lambda_scale,
                                  patience=pia.patience)
    p = init_params(data.n_items, cfg.hidden_dim, cfg.latent_dim, rng,
                    input_normalize=cfg.input_normalize, anchors=anchors)
    theta = pack_params(p)
    adam = AdamState.init(theta.size, lr=cfg.lr)

    log: list[dict] = []
    best_ndcg = -np.inf
    best_theta = theta.copy()
    best_epoch = 0
    n_train = data.train.n_users
    try:
        for epoch in range(1, cfg.epochs + 1):
            lam = schedule.lambda_a if schedule is not None else 0.0
            perm = rng.permutation(n_train)
            losses = []
            for start in range(0, n_train, cfg.batch_size):
                chunk = perm[start:start + cfg.batch_size]
                x = data.train.dense_rows(chunk)
                loss, grads = loss_and_grads(p, x, cfg, rng, lambda_a=lam)
                theta, adam = adam_step(adam, theta, grads)
                p = unpack_params(theta, p)
                losses.append(loss)
            val_ndcg = _mean_val_ndcg(p, data.val_fold_in, data.val_holdout, k=100)
            log.append({"epoch": epoch, "loss": float(np.mean(losses)),
                        "val_ndcg100": val_ndcg, "lambda_a": lam})
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_theta = theta.copy()
                best_epoch = epoch
            if schedule is not None:
                schedule = schedule_update(schedule, epoch, val_ndcg)
    except NumericalError as exc:
        log.append({"event": "aborted", "error": str(exc),
                    "last_good_epoch": best_epoch})
    return unpack_params(best_theta, p), log


def _score_rows(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
                data: np.ndarray, out: np.ndarray,
                normalize: bool | None) -> None:
    """Write posterior-mean logits for CSR input rows into `out`.

    Entries with a positive input value are set to -inf. The encoder
    input layer runs on the sparse rows one block of hidden units at a
    time: scipy multiplies a sparse matrix by a C-ordered copy of the
    dense operand, and the block bounds that copy to HIDDEN_BLOCK columns
    of enc_w1.T instead of all of it.
    """
    from scipy import sparse

    if normalize is None:
        normalize = p.input_normalize
    n_rows = out.shape[0]
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    if normalize:
        norms = np.sqrt(np.bincount(row_of, weights=data * data,
                                    minlength=n_rows))
        data = data / np.where(norms > 0.0, norms, 1.0)[row_of]
    x = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, p.n_items))
    a1 = np.empty((n_rows, p.hidden_dim))
    for start in range(0, p.hidden_dim, HIDDEN_BLOCK):
        stop = start + HIDDEN_BLOCK
        a1[:, start:stop] = x @ p.enc_w1[start:stop].T
    h1 = np.tanh(a1 + p.enc_b1)
    mu = h1 @ p.enc_w_mu.T + p.enc_b_mu
    np.matmul(mu, p.dec_w.T, out=out)
    out += p.dec_b
    seen = data > 0
    out[row_of[seen], indices[seen]] = -np.inf


def predict_scores(p: ModelParams, fold_in: np.ndarray,
                   normalize: bool | None = None) -> np.ndarray:
    """Deterministic item scores: posterior mean of the clean fold-in,
    decoded to logits, with fold-in items forced to -inf."""
    fold_in = np.asarray(fold_in, dtype=np.float64)
    if fold_in.shape != (p.n_items,):
        raise ShapeError(f"input length {fold_in.shape} vs {p.n_items} items")
    nz = np.flatnonzero(fold_in)
    scores = np.empty((1, p.n_items))
    _score_rows(p, np.array([0, nz.size]), nz, fold_in[nz], scores, normalize)
    return scores[0]


def score_matrix(p: ModelParams, fold: InteractionMatrix,
                 normalize: bool | None = None) -> np.ndarray:
    """predict_scores for every user of a fold-in matrix.

    Users are scored SCORE_CHUNK at a time from the fold-in's CSR arrays,
    with no dense users x items input. Batched products sum in another
    order than a one-row call, so a row here agrees with predict_scores
    to 1e-12 on finite entries (about 1e-15 at the reference shape), with
    the same -inf entries, but not bit for bit. The chunk size is fixed,
    so the same inputs always give the same bits.
    """
    scores = np.empty((fold.n_users, p.n_items), dtype=np.float64)
    for start in range(0, fold.n_users, SCORE_CHUNK):
        stop = min(start + SCORE_CHUNK, fold.n_users)
        lo, hi = fold.indptr[start], fold.indptr[stop]
        _score_rows(p, fold.indptr[start:stop + 1] - lo, fold.indices[lo:hi],
                    np.ones(hi - lo), scores[start:stop], normalize)
    return scores


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(p: ModelParams, path: str | Path) -> None:
    """Magic, shape header, raw little-endian f64 arrays, anchors last."""
    flags = 1 if p.input_normalize else 0
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<QQQQ", p.n_items, p.hidden_dim,
                             p.latent_dim, flags))
        # Written from the arrays' own buffers: a copy of enc_w1 would set
        # the peak memory of a save.
        for name in _WEIGHT_FIELDS:
            fh.write(np.ascontiguousarray(getattr(p, name), dtype="<f8"))
        if p.anchors is not None:
            fh.write(ANCHOR_SECTION)
            fh.write(np.ascontiguousarray(p.anchors, dtype="<f8"))


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ShapeError(f"bad checkpoint magic {magic!r}")
        n_items, hidden, latent, flags = map(
            int, read_array(fh, "<u8", (4,), path, "header"))
        shapes = {
            "enc_w1": (hidden, n_items), "enc_b1": (hidden,),
            "enc_w_mu": (latent, hidden), "enc_b_mu": (latent,),
            "enc_w_lv": (latent, hidden), "enc_b_lv": (latent,),
            "dec_w": (n_items, latent), "dec_b": (n_items,),
        }
        arrays = {name: read_array(fh, "<f8", shape, path, name)
                  for name, shape in shapes.items()}
        anchors = None
        section = fh.read(4)
        if section == ANCHOR_SECTION:
            anchors = read_array(fh, "<f8", (n_items, latent), path, "anchors")
            check_end(fh, path)
        elif section:
            raise ShapeError(f"unexpected trailing section {section!r}")
    return ModelParams(**arrays, input_normalize=bool(flags & 1),
                       anchors=anchors)
