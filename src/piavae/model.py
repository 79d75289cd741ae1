"""Masked multinomial VAE: architecture, manual backpropagation, training
loop, scoring, and checkpoint serialization.

The encoder is input -> tanh(hidden) -> (mean, logvar) heads; the decoder
is a single linear layer back to item logits. `_encoder_heads` is the one
encoder definition, and `_input_layer` the one sparse input-layer product:
training (`loss_and_grads_fixed`, on CSR batches of the training matrix)
and `encode_rows`, the one encoder entry point over CSR rows, share both.
`score_matrix` and `posterior_means` run `encode_rows` over a matrix in
fixed-size chunks, and the geometry probes call it directly; there is no
dense encoder path. The mask is drawn on the nonzeros of a batch only.
During `fit` the parameters are views into one flat buffer that
`adam_step` updates in place. All gradients are derived by hand;
`finite_diff_check` in the test suite guards every term.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (InteractionMatrix, SplitDataset, check_end, entry_rows,
                     read_array)
from .errors import NumericalError, ShapeError, SplitError
from .numerics import (LOGVAR_MAX, LOGVAR_MIN, AdamState, GaussianPosterior,
                       adam_step)
from .pia import PiaConfig

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        for name in _trained_fields(self):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
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


def _trained_fields(p: ModelParams) -> tuple[str, ...]:
    """Names of the trained arrays in flat-vector order, anchors last."""
    return _WEIGHT_FIELDS + (("anchors",) if p.anchors is not None else ())


def pack_params(p: ModelParams) -> np.ndarray:
    """Flatten all trainable arrays (anchors last) into one new vector."""
    return np.concatenate([getattr(p, name).ravel() for name in _trained_fields(p)])


def unpack_params(vec: np.ndarray, template: ModelParams) -> ModelParams:
    """ModelParams shaped like template whose trained arrays are views into
    the float64 vector vec, in pack_params order, so an in-place update of
    vec updates the parameters and the reverse."""
    views = {}
    offset = 0
    for name in _trained_fields(template):
        shape = getattr(template, name).shape
        size = math.prod(shape)
        views[name] = vec[offset:offset + size].reshape(shape)
        offset += size
    if offset != vec.size:
        raise ShapeError(f"flat vector has {vec.size} entries, expected {offset}")
    return ModelParams(**views, input_normalize=template.input_normalize)


def draw_mask(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """0/1 mask keeping each coordinate with probability keep_prob.

    keep_prob 1 draws nothing from rng. One draw of shape (n, I) consumes
    the same random stream as n draws of shape (I,).
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must lie in (0, 1]")
    if keep_prob >= 1.0:
        return np.ones(shape, dtype=np.float64)
    return (rng.random(shape) < keep_prob).astype(np.float64)


def _encoder_heads(p: ModelParams, a1: np.ndarray):
    """Hidden layer and raw (mean, logvar) heads from the input-layer
    product a1 = x_in @ enc_w1.T of a batch of rows."""
    h1 = np.tanh(a1 + p.enc_b1)
    mu = h1 @ p.enc_w_mu.T + p.enc_b_mu
    lv_raw = h1 @ p.enc_w_lv.T + p.enc_b_lv
    return h1, mu, lv_raw


def _csr_input(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray):
    """scipy CSR encoder input, each row L2-normalized when
    p.input_normalize (an empty row stays empty)."""
    from scipy import sparse

    n_rows = indptr.size - 1
    if p.input_normalize:
        row_of = entry_rows(indptr)
        norms = np.sqrt(np.bincount(row_of, weights=data * data,
                                    minlength=n_rows))
        data = data / np.where(norms > 0.0, norms, 1.0)[row_of]
    return sparse.csr_matrix((data, indices, indptr), shape=(n_rows, p.n_items))


def _input_layer(p: ModelParams, x) -> np.ndarray:
    """x @ enc_w1.T for a scipy CSR x, one block of hidden units at a time.

    scipy multiplies a sparse matrix by a C-ordered copy of the dense
    operand; the block bounds that copy to HIDDEN_BLOCK columns of
    enc_w1.T instead of all of it.
    """
    a1 = np.empty((x.shape[0], p.hidden_dim))
    for start in range(0, p.hidden_dim, HIDDEN_BLOCK):
        stop = start + HIDDEN_BLOCK
        a1[:, start:stop] = x @ p.enc_w1[start:stop].T
    return a1


def loss_and_grads_fixed(p: ModelParams, indptr: np.ndarray,
                         indices: np.ndarray, keep: np.ndarray,
                         noise: np.ndarray, beta: float, lambda_a: float = 0.0,
                         out: np.ndarray | None = None
                         ) -> tuple[float, np.ndarray]:
    """Loss and flat gradient of a CSR batch for fixed mask and noise draws.

    Row r of the batch x holds a 1 at items indices[indptr[r]:indptr[r+1]];
    keep holds the mask's 0/1 value at each of those entries (the mask is
    applied only where x is nonzero). Per row: -loglik(decode(z), x) +
    beta * KL(q || N(0, I)) and, when lambda_a > 0, lambda_a times the
    closed-form alignment penalty of the row's positives; the total is the
    batch mean. Only the decoder is dense (rows x items): the input layer,
    its gradient and the alignment term are sparse products over the
    batch's items. The gradient is written in pack_params order into out,
    or into a new vector.
    """
    from scipy import sparse

    n = indptr.size - 1
    counts = np.diff(indptr).astype(np.float64)
    row_of = entry_rows(indptr)
    if out is None:
        out = np.empty(sum(getattr(p, name).size for name in _trained_fields(p)))
    g = unpack_params(out, p)
    # The batch's items; col_of maps each stored entry to its item's place.
    items, col_of = np.unique(indices, return_inverse=True)

    kept = keep > 0
    kept_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(row_of[kept], minlength=n))))
    x_in = _csr_input(p, kept_indptr, indices[kept], keep[kept])
    h1, mu, lv_raw = _encoder_heads(p, _input_layer(p, x_in))
    lv = np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX)
    sigma = np.exp(0.5 * lv)
    z = mu + noise * sigma

    # The logits buffer becomes exp(logits - max), then d_logits.
    work = z @ p.dec_w.T
    work += p.dec_b
    work -= np.max(work, axis=1, keepdims=True)
    picked = np.bincount(row_of, weights=work[row_of, indices], minlength=n)
    np.exp(work, out=work)
    sums = np.sum(work, axis=1)
    recon = counts * np.log(sums) - picked
    var = np.exp(lv)
    kl = 0.5 * np.sum(mu**2 + var - 1.0 - lv, axis=1)
    per_row = recon + beta * kl

    use_align = lambda_a > 0.0 and p.anchors is not None
    if use_align:
        if np.any(counts < 1):
            raise NumericalError("alignment needs at least one positive per row",
                                 row_index=int(np.argmin(counts)))
        anchors = p.anchors[items]
        entry_weight = 1.0 / counts[row_of]
        weights = sparse.csr_matrix((entry_weight, col_of, indptr),
                                    shape=(n, items.size))
        ebar = weights @ anchors
        sq_norms = np.einsum("ij,ij->i", anchors, anchors)
        const = weights @ sq_norms - np.sum(ebar**2, axis=1)
        align = np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1) + const
        per_row = per_row + lambda_a * align

    if not np.all(np.isfinite(per_row)):
        bad = int(np.flatnonzero(~np.isfinite(per_row))[0])
        raise NumericalError(f"non-finite loss at batch row {bad}", row_index=bad)
    loss = float(np.mean(per_row))

    # Backward pass; every d(loss)/d(per-row term) carries the 1/n factor.
    d_logits = work
    d_logits *= (counts / (n * sums))[:, None]
    d_logits[row_of, indices] -= 1.0 / n
    # (z.T @ d_logits).T runs faster in OpenBLAS than d_logits.T @ z.
    g.dec_w[...] = (z.T @ d_logits).T
    np.sum(d_logits, axis=0, out=g.dec_b)
    d_z = d_logits @ p.dec_w
    del work, d_logits

    d_mu = d_z + (beta / n) * mu
    d_lv = 0.5 * d_z * noise * sigma + (beta / n) * 0.5 * (var - 1.0)
    if use_align:
        d_mu = d_mu + (lambda_a / n) * 2.0 * (mu - ebar)
        d_lv = d_lv + (lambda_a / n) * var
        g_items = (2.0 * lambda_a / n) * (
            anchors * np.bincount(col_of, weights=entry_weight,
                                  minlength=items.size)[:, None]
            - weights.T @ mu)
        g.anchors.fill(0.0)
        g.anchors[items] = g_items
    elif p.anchors is not None:
        g.anchors.fill(0.0)

    inside = (lv_raw > LOGVAR_MIN) & (lv_raw < LOGVAR_MAX)
    d_lv_raw = d_lv * inside
    np.matmul(d_mu.T, h1, out=g.enc_w_mu)
    np.sum(d_mu, axis=0, out=g.enc_b_mu)
    np.matmul(d_lv_raw.T, h1, out=g.enc_w_lv)
    np.sum(d_lv_raw, axis=0, out=g.enc_b_lv)
    d_h1 = d_mu @ p.enc_w_mu + d_lv_raw @ p.enc_w_lv
    d_a1 = d_h1 * (1.0 - h1**2)
    # enc_w1's gradient d_a1.T @ x_in is zero outside the batch's items.
    x_items = sparse.csr_matrix((x_in.data, col_of[kept], kept_indptr),
                                shape=(n, items.size)).T
    g_w1 = g.enc_w1
    g_w1.fill(0.0)
    for start in range(0, p.hidden_dim, HIDDEN_BLOCK):
        stop = start + HIDDEN_BLOCK
        g_w1[start:stop, items] = (x_items @ d_a1[:, start:stop]).T
    np.sum(d_a1, axis=0, out=g.enc_b1)
    return loss, out


def draw_mask_and_noise(indptr: np.ndarray, latent_dim: int, keep_prob: float,
                        rng: np.random.Generator):
    """One keep flag per stored entry of a CSR batch, then one noise row
    per batch row, in that fixed consumption order."""
    keep = draw_mask((int(indptr[-1]),), keep_prob, rng)
    return keep, rng.standard_normal((indptr.size - 1, latent_dim))


def loss_and_grads(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
                   cfg: TrainConfig, rng: np.random.Generator,
                   lambda_a: float = 0.0, out: np.ndarray | None = None
                   ) -> tuple[float, np.ndarray]:
    """Draw the mask on the nonzeros and one latent sample per row of the
    CSR batch (indptr, indices), then backpropagate."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.size < 2:
        raise ValueError("batch must be nonempty")
    keep, noise = draw_mask_and_noise(indptr, p.latent_dim, cfg.keep_prob, rng)
    return loss_and_grads_fixed(p, indptr, indices, keep, noise, cfg.beta,
                                lambda_a=lambda_a, out=out)


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
    snapshot from the epoch with the highest validation NDCG. With `pia`,
    the strength starts at pia.lambda_a and is multiplied by
    pia.lambda_scale after every epoch that does not improve on the best
    NDCG once the best epoch is at least pia.patience epochs back. A
    NumericalError ends training with an "aborted" record naming the
    epoch, the batch (from 1) and the batch row of the error. A split
    with no validation users is a SplitError, raised before any training.

    The parameters are views into one flat buffer that adam_step updates
    in place, and each batch's gradient is written into one reused buffer.
    """
    if data.val_fold_in.n_users == 0:
        raise SplitError("training needs validation users to choose its best "
                         "epoch; split with n_val_users >= 1 (synth) or "
                         "--val >= 1 (preprocess)")
    rng = np.random.default_rng(cfg.seed)
    anchors = None
    lam = 0.0
    if pia is not None:
        # Unspecified upstream; 1/sqrt(d) keeps ||e_i|| around 1.
        scale = (pia.anchor_init_scale if pia.anchor_init_scale is not None
                 else 1.0 / np.sqrt(cfg.latent_dim))
        anchors = scale * rng.standard_normal((data.n_items, cfg.latent_dim))
        lam = pia.lambda_a
    p = init_params(data.n_items, cfg.hidden_dim, cfg.latent_dim, rng,
                    input_normalize=cfg.input_normalize, anchors=anchors)
    theta = pack_params(p)
    p = unpack_params(theta, p)
    grads = np.empty_like(theta)
    adam = AdamState.init(theta.size, lr=cfg.lr)

    log: list[dict] = []
    best_ndcg = -np.inf
    best_theta = theta.copy()
    best_epoch = 0
    n_train = data.train.n_users
    epoch = batch = None
    try:
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.permutation(n_train)
            losses = []
            for batch, start in enumerate(range(0, n_train, cfg.batch_size),
                                          start=1):
                indptr, indices = data.train.csr_rows(
                    perm[start:start + cfg.batch_size])
                loss, _ = loss_and_grads(p, indptr, indices, cfg, rng,
                                         lambda_a=lam, out=grads)
                adam_step(adam, theta, grads)
                losses.append(loss)
            batch = None
            val_ndcg = _mean_val_ndcg(p, data.val_fold_in, data.val_holdout, k=100)
            log.append({"epoch": epoch, "loss": float(np.mean(losses)),
                        "val_ndcg100": val_ndcg, "lambda_a": lam})
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                np.copyto(best_theta, theta)
                best_epoch = epoch
            elif pia is not None and epoch - best_epoch >= pia.patience:
                lam *= pia.lambda_scale
    except NumericalError as exc:
        log.append({"event": "aborted", "error": str(exc),
                    "last_good_epoch": best_epoch, "epoch": epoch,
                    "batch": batch, "row_index": exc.row_index})
    return unpack_params(best_theta, p), log


def encode_rows(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
                data: np.ndarray) -> GaussianPosterior:
    """Posterior (mean, clipped logvar) of each CSR input row, whose values
    data[indptr[r]:indptr[r+1]] sit at items indices[indptr[r]:indptr[r+1]]:
    the one encoder entry point, on training's sparse input layer."""
    x = _csr_input(p, indptr, indices, data)
    _, mu, lv_raw = _encoder_heads(p, _input_layer(p, x))
    return GaussianPosterior(mean=mu,
                             logvar=np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX))


def score_matrix(p: ModelParams, fold: InteractionMatrix) -> np.ndarray:
    """Deterministic item scores for every user of a fold-in matrix: the
    posterior mean of the clean fold-in row, decoded to logits, with the
    fold-in items forced to -inf.

    Users are scored SCORE_CHUNK at a time from the fold-in's CSR arrays,
    with no dense users x items input. Batched products sum in another
    order than a one-user call, so a row here agrees with the same user
    scored alone to 1e-12 on finite entries (about 1e-15 at the reference
    shape), with the same -inf entries, but not bit for bit. The chunk
    size is fixed, so the same inputs always give the same bits.
    """
    scores = np.empty((fold.n_users, p.n_items), dtype=np.float64)
    for rows, indptr, indices in _csr_chunks(fold):
        out = scores[rows]
        mu = encode_rows(p, indptr, indices, np.ones(indices.size)).mean
        np.matmul(mu, p.dec_w.T, out=out)
        out += p.dec_b
        out[entry_rows(indptr), indices] = -np.inf
    return scores


def posterior_means(p: ModelParams, matrix: InteractionMatrix) -> np.ndarray:
    """Posterior means of every user's clean input row, SCORE_CHUNK users
    at a time as in score_matrix."""
    means = np.empty((matrix.n_users, p.latent_dim), dtype=np.float64)
    for rows, indptr, indices in _csr_chunks(matrix):
        means[rows] = encode_rows(p, indptr, indices,
                                  np.ones(indices.size)).mean
    return means


def _csr_chunks(matrix: InteractionMatrix):
    """(row slice, indptr, indices) of each run of SCORE_CHUNK users."""
    for start in range(0, matrix.n_users, SCORE_CHUNK):
        stop = min(start + SCORE_CHUNK, matrix.n_users)
        lo, hi = matrix.indptr[start], matrix.indptr[stop]
        yield (slice(start, stop), matrix.indptr[start:stop + 1] - lo,
               matrix.indices[lo:hi])


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
