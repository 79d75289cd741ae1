"""Masked multinomial VAE: architecture, manual backpropagation, training
loop, scoring, and checkpoint serialization.

The encoder is input -> tanh(hidden) -> (mean, logvar) heads; the decoder
is a single linear layer back to item logits. `_weight_shapes` is the one
parameter layout, which init, shape checks, the flat vector and the
checkpoint follow; `_order` keeps enc_w1 items-major (column-major) in
memory, while the checkpoint stays row-major. `_encoder_heads` is the one
encoder definition, and `_input_layer` the one sparse input-layer
product: training (`loss_and_grads_fixed`, on CSR batches of the
training matrix) and `encode_rows`, the one encoder entry point over CSR
rows, share both.
`decode_loss` is the one decoder, with its loss and logit gradient: the
training kernel and `geometry.sharing_probe` run it.
`posterior_means` runs `encode_rows` over a matrix in fixed-size chunks
and `score_matrix` decodes its means; there is no dense encoder path.
The mask is drawn on the nonzeros of a batch only, and the alignment
term is `pia.alignment_closed_form`. During `fit` the parameters are
views into one flat buffer that `adam_step` updates in place. All
gradients are derived by hand; `finite_diff_check` guards every term.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (ROW_BLOCKS, InteractionMatrix, SplitDataset, check_end,
                     entry_rows, read_array)
from .errors import NumericalError, ShapeError, SplitError
from .numerics import (LOGVAR_MAX, LOGVAR_MIN, AdamState, GaussianPosterior,
                       adam_step)
from .pia import PiaConfig, alignment_closed_form

MODEL_MAGIC = b"PIAM"
ANCHOR_SECTION = b"ANCH"

# Users per encoder chunk in posterior_means. Fixed, not a parameter:
# batched sums depend on the chunk, so a fixed size keeps seeded scores
# repeatable.
SCORE_CHUNK = 256


def _weight_shapes(n_items: int, hidden: int,
                   latent: int) -> dict[str, tuple[int, ...]]:
    """Shape of each weight array, in flat-vector and checkpoint order;
    anchors, when present, come last and take dec_w's shape."""
    return {"enc_w1": (hidden, n_items), "enc_b1": (hidden,),
            "enc_w_mu": (latent, hidden), "enc_b_mu": (latent,),
            "enc_w_lv": (latent, hidden), "enc_b_lv": (latent,),
            "dec_w": (n_items, latent), "dec_b": (n_items,)}


_WEIGHT_FIELDS = tuple(_weight_shapes(0, 0, 0))


def _order(name: str) -> str:
    """Memory order of a trained array in ModelParams and the flat vector.
    enc_w1 is column-major, so enc_w1.T is the C-ordered operand that
    scipy's sparse product reads without a copy, and an item's gradient
    is one contiguous row of it."""
    return "F" if name == "enc_w1" else "C"


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
        # Written so that NaN fails too.
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ModelParams:
    """Encoder/decoder weights plus the optional anchor table, laid out
    as `_weight_shapes` says, each stored in `_order` (a row-major enc_w1
    is stored as a column-major copy). input_normalize records whether
    the encoder expects L2-normalized inputs so checkpoints are
    self-describing.
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
            object.__setattr__(self, name, np.asarray(
                getattr(self, name), dtype=np.float64, order=_order(name)))
        shapes = _weight_shapes(self.n_items, self.hidden_dim, self.latent_dim)
        shapes["anchors"] = shapes["dec_w"]
        bad = [f"{name} {getattr(self, name).shape} must be {shapes[name]}"
               for name in _trained_fields(self)
               if getattr(self, name).shape != shapes[name]]
        if bad:
            raise ShapeError("parameter shapes disagree: " + ", ".join(bad))

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
    """Scaled-normal weight init (std 1/sqrt(fan_in)), zero biases; the
    weight matrices are drawn from rng in `_weight_shapes` order."""
    arrays = {name: (rng.standard_normal(shape) / np.sqrt(shape[1])
                     if len(shape) == 2 else np.zeros(shape))
              for name, shape in _weight_shapes(n_items, hidden_dim,
                                                latent_dim).items()}
    return ModelParams(**arrays, input_normalize=input_normalize,
                       anchors=anchors)


def _trained_fields(p: ModelParams) -> tuple[str, ...]:
    """Names of the trained arrays in flat-vector order, anchors last."""
    return _WEIGHT_FIELDS + (("anchors",) if p.anchors is not None else ())


def pack_params(p: ModelParams) -> np.ndarray:
    """Flatten all trainable arrays (anchors last), each in its `_order`,
    into one new vector."""
    return np.concatenate([getattr(p, name).ravel(_order(name))
                           for name in _trained_fields(p)])


def unpack_params(vec: np.ndarray, template: ModelParams) -> ModelParams:
    """ModelParams shaped like template whose trained arrays are views into
    the float64 vector vec, in pack_params order, so an in-place update of
    vec updates the parameters and the reverse."""
    views = {}
    offset = 0
    for name in _trained_fields(template):
        shape = getattr(template, name).shape
        size = math.prod(shape)
        views[name] = vec[offset:offset + size].reshape(shape,
                                                        order=_order(name))
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
    """x @ enc_w1.T for a scipy CSR x. scipy copies a dense operand that
    is not C-ordered; enc_w1 is column-major, so enc_w1.T is read in
    place."""
    return x @ p.enc_w1.T


def decode_loss(p: ModelParams, z: np.ndarray, indptr: np.ndarray,
                indices: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """The one decoder: -loglik(softmax(dec_w z[r] + dec_b), x_r) per row
    r, and its logit gradient (|x_r| softmax - x_r) / scale as a (rows,
    items) array, for binary targets x_r with 1s at the distinct items
    indices[indptr[r]:indptr[r+1]]. Training passes scale = batch size."""
    n = indptr.size - 1
    counts = np.diff(indptr).astype(np.float64)
    row_of = entry_rows(indptr)
    # The logits buffer becomes exp(logits - max), then d_logits.
    work = z @ p.dec_w.T
    work += p.dec_b
    work -= np.max(work, axis=1, keepdims=True)
    picked = np.bincount(row_of, weights=work[row_of, indices], minlength=n)
    np.exp(work, out=work)
    sums = np.sum(work, axis=1)
    recon = counts * np.log(sums) - picked
    work *= (counts / (scale * sums))[:, None]
    work[row_of, indices] -= 1.0 / scale
    return recon, work


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
    # The batch's items, ascending; col_of maps each stored entry to its
    # item's place among them (np.unique's inverse, without the sort).
    present = np.bincount(indices, minlength=p.n_items) > 0
    items = np.flatnonzero(present)
    col_of = (np.cumsum(present) - 1)[indices]

    kept = keep > 0
    kept_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(row_of[kept], minlength=n))))
    x_in = _csr_input(p, kept_indptr, indices[kept], keep[kept])
    h1, mu, lv_raw = _encoder_heads(p, _input_layer(p, x_in))
    lv = np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX)
    sigma = np.exp(0.5 * lv)
    z = mu + noise * sigma

    recon, d_logits = decode_loss(p, z, indptr, indices, n)
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
        align, ebar = alignment_closed_form(mu, var, weights, anchors)
        per_row = per_row + lambda_a * align

    if not np.all(np.isfinite(per_row)):
        bad = int(np.flatnonzero(~np.isfinite(per_row))[0])
        raise NumericalError(f"non-finite loss at batch row {bad}", row_index=bad)
    loss = float(np.mean(per_row))

    # Backward pass; every d(loss)/d(per-row term) carries the 1/n factor.
    # (z.T @ d_logits).T runs faster in OpenBLAS than d_logits.T @ z.
    g.dec_w[...] = (z.T @ d_logits).T
    np.sum(d_logits, axis=0, out=g.dec_b)
    d_z = d_logits @ p.dec_w
    del d_logits

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
    # enc_w1's gradient d_a1.T @ x_in is zero outside the batch's items;
    # each item's is one row of the C-ordered g.enc_w1.T.
    x_items = sparse.csr_matrix((x_in.data, col_of[kept], kept_indptr),
                                shape=(n, items.size)).T
    g.enc_w1.T.fill(0.0)
    g.enc_w1.T[items] = x_items @ d_a1
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
                   hold: InteractionMatrix) -> float:
    from .evaluate import per_user_metrics

    _, ndcg = per_user_metrics(score_matrix(p, fold), fold, hold, [100])[100]
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
    with no training or no validation users is a SplitError, raised
    before any training. Anchors are drawn with scale 1/sqrt(latent).

    The parameters are views into one flat buffer that adam_step updates
    in place, and each batch's gradient is written into one reused buffer.
    """
    if data.train.n_users == 0:
        raise SplitError("the split has no training users to train on")
    if data.val_fold_in.n_users == 0:
        raise SplitError("training needs validation users to choose its best "
                         "epoch; split with n_val_users >= 1 (synth) or "
                         "--val >= 1 (preprocess)")
    rng = np.random.default_rng(cfg.seed)
    anchors = None
    lam = 0.0
    if pia is not None:
        # Unspecified upstream; 1/sqrt(d) keeps ||e_i|| around 1.
        anchors = (1.0 / np.sqrt(cfg.latent_dim)) * rng.standard_normal(
            (data.n_items, cfg.latent_dim))
        lam = pia.lambda_a
    p = init_params(data.n_items, cfg.hidden_dim, cfg.latent_dim, rng,
                    input_normalize=cfg.input_normalize, anchors=anchors)
    theta = pack_params(p)
    p = unpack_params(theta, p)
    grads = np.empty_like(theta)
    adam = AdamState.init(theta.size, cfg.lr)

    log: list[dict] = []
    best_ndcg = -np.inf
    best_theta = theta.copy()
    best_epoch = 0
    n_train = data.train.n_users
    epoch = batch = None
    # A diverging step overflows on the way to a non-finite loss; the loss
    # check is the one detector, so numpy's warnings stay quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(1, cfg.epochs + 1):
                perm = rng.permutation(n_train)
                losses = []
                for batch, start in enumerate(
                        range(0, n_train, cfg.batch_size), start=1):
                    indptr, indices = data.train.csr_rows(
                        perm[start:start + cfg.batch_size])
                    loss, _ = loss_and_grads(p, indptr, indices, cfg, rng,
                                             lambda_a=lam, out=grads)
                    adam_step(adam, theta, grads)
                    losses.append(loss)
                batch = None
                val_ndcg = _mean_val_ndcg(p, data.val_fold_in,
                                          data.val_holdout)
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


def posterior_means(p: ModelParams, matrix: InteractionMatrix) -> np.ndarray:
    """Posterior means of every user's clean input row, encoded from the
    matrix's CSR arrays SCORE_CHUNK users at a time, with no dense users x
    items input. A matrix over another number of items than the model's
    is a ShapeError."""
    if matrix.n_items != p.n_items:
        raise ShapeError(f"the model has {p.n_items} items but the data has "
                         f"{matrix.n_items}")
    means = np.empty((matrix.n_users, p.latent_dim), dtype=np.float64)
    for start in range(0, matrix.n_users, SCORE_CHUNK):
        stop = min(start + SCORE_CHUNK, matrix.n_users)
        lo, hi = matrix.indptr[start], matrix.indptr[stop]
        means[start:stop] = encode_rows(p, matrix.indptr[start:stop + 1] - lo,
                                        matrix.indices[lo:hi],
                                        np.ones(hi - lo)).mean
    return means


def score_matrix(p: ModelParams, fold: InteractionMatrix) -> np.ndarray:
    """Deterministic item scores for every user of a fold-in matrix: the
    posterior mean of the clean fold-in row, decoded to logits, with the
    fold-in items forced to -inf.

    Batched products sum in another order than a one-user call, so a row
    here agrees with the same user scored alone to 1e-12 on finite
    entries (about 1e-15 at the reference shape), with the same -inf
    entries, but not bit for bit. The encoder's chunk size is fixed, so
    the same inputs always give the same bits.
    """
    scores = posterior_means(p, fold) @ p.dec_w.T
    scores += p.dec_b
    scores[entry_rows(fold.indptr), fold.indices] = -np.inf
    return scores


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(p: ModelParams, path: str | Path) -> None:
    """Magic, shape header, raw little-endian f64 arrays, anchors last.
    Every array is written row-major, so the bytes do not depend on the
    memory order: enc_w1 is copied to row-major in ROW_BLOCKS blocks of
    rows.
    """
    flags = 1 if p.input_normalize else 0
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<QQQQ", p.n_items, p.hidden_dim,
                             p.latent_dim, flags))
        for name in _trained_fields(p):
            if name == "anchors":
                fh.write(ANCHOR_SECTION)
            # A row-major array is written from its own buffer; a whole
            # copy of enc_w1 would set the peak memory of a save.
            a = getattr(p, name)
            step = len(a) // ROW_BLOCKS + 1
            for start in range(0, len(a), step):
                fh.write(np.ascontiguousarray(a[start:start + step], "<f8"))


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ShapeError(f"bad checkpoint magic {magic!r}")
        n_items, hidden, latent, flags = map(
            int, read_array(fh, "<u8", (4,), path, "header"))
        shapes = _weight_shapes(n_items, hidden, latent)
        arrays = {name: read_array(fh, "<f8", shape, path, name, _order(name))
                  for name, shape in shapes.items()}
        anchors = None
        section = fh.read(4)
        if section == ANCHOR_SECTION:
            anchors = read_array(fh, "<f8", shapes["dec_w"], path, "anchors")
            check_end(fh, path)
        elif section:
            raise ShapeError(f"unexpected trailing section {section!r}")
    return ModelParams(**arrays, input_normalize=bool(flags & 1),
                       anchors=anchors)
