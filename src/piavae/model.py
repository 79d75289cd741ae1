"""Masked multinomial VAE: architecture, manual backpropagation, training
loop, scoring, and checkpoint serialization.

The encoder is input -> tanh(hidden) -> (mean, logvar) heads; the decoder
is a single linear layer back to item logits. `_weight_shapes` is the one
parameter layout, which init, shape checks, the flat vector and the
checkpoint follow; `_order` keeps enc_w1 items-major (column-major), and
each array is stored in its memory order in the flat vector and the
checkpoint alike. A mask is `draw_mask`'s boolean keep flag per stored
entry of binary CSR rows. `_encode` is the one encoder: it reads the
kept entries (all, without a mask), each as 1/sqrt(kept count), the
L2-normalized row, applies the sparse input layer and both heads, and
returns the posterior they give, whose constructor is the one place a
logvar is clipped. Training (`loss_and_grads_fixed`) and `encode_rows`
both run it.
`decode_loss` is the one decoder, with its loss and logit gradient: the
training kernel and `geometry.sharing_probe` run it, its elementwise
passes over the logits in row blocks of DECODE_BLOCK entries.
`posterior_means` yields `encode_rows` means over a matrix in fixed-size
chunks and `score_rows` decodes each chunk, yielding it as one chunk of
logits (SCORE_CHUNK users x items at most), fold-in items included:
excluding them is the ranker's rule (`evaluate.per_user_metrics`, which
ranks chunk by chunk). No users x items array is built.
The encoder's sparse input layer, the decoder's product and row passes,
score_rows' product and the kernel's two backward phases (independent
work side by side, into outputs the calling thread allocates) run
through `numerics.split` under its rule, so the bits are one thread's.
There is no dense encoder path. The alignment term, there when p has
anchors, is `pia.alignment_closed_form`, which the `prop1` gate checks.
During `fit` the parameters are views into one flat buffer θ that
`adam_step` updates in place from the kernel's per-array gradient
pieces, which `pack_grads` flattens; enc_w1's covers only the items the
mask keeps. `fit` holds three θ-sized arrays: θ and Adam's two moments.
The best epoch so far lives in an anonymous temporary file under TMPDIR,
written from θ before a step moves θ off an improving epoch and read
back into θ only when training ends elsewhere (an abort, or a best epoch
before the last); the initial parameters are redrawn from the seed,
not stored. All gradients are derived by hand; `finite_diff_check` guards
every term.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (InteractionMatrix, SplitDataset, check_end, entry_rows,
                     read_array)
from .errors import CorruptFileError, NumericalError, ShapeError, SplitError
from .numerics import (ENTRY_WORK, LOGVAR_MAX, LOGVAR_MIN, SPARSE_CACHED,
                       SPARSE_WORK, AdamState, GaussianPosterior, adam_step,
                       kl_diag_gaussian, split, split_matmul)
from .pia import PiaConfig, alignment_closed_form

MODEL_MAGIC = b"PIM2"
ANCHOR_SECTION = b"ANCH"

# Users per chunk of posterior_means and score_rows, which hold one
# chunk of score rows at a time. Fixed, not a parameter: batched sums
# depend on the chunk, so a fixed size keeps seeded scores repeatable.
SCORE_CHUNK = 256
# Entries per row block of decode_loss's elementwise passes and of the
# anchor rows' CSR product: a block (512 KiB) stays in a 2 MiB L2.
DECODE_BLOCK = 1 << 16


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
    """Memory order of a trained array in ModelParams, the flat vector and
    the checkpoint. enc_w1 is column-major, so enc_w1.T is the C-ordered
    operand that scipy's sparse product reads without a copy, and an
    item's gradient is one contiguous row of it."""
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
        if self.hidden_dim < 1 or self.latent_dim < 1:
            raise ValueError("hidden_dim and latent_dim must be >= 1")


@dataclass(frozen=True)
class ModelParams:
    """Encoder/decoder weights plus the optional anchor table, laid out
    as `_weight_shapes` says, each stored in `_order` (a row-major enc_w1
    is stored as a column-major copy). input_normalize must be True, the
    one encoder; the field stays only while perfbench/workloads.py sets
    and reads it.
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
        if self.input_normalize is not True:
            raise ValueError("the encoder reads only L2-normalized rows")
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
                rng: np.random.Generator, anchors: bool = False) -> ModelParams:
    """Parameters drawn from rng: with anchors, first the anchor table at
    scale 1/sqrt(latent), then the weight matrices in `_weight_shapes`
    order, each scaled-normal (std 1/sqrt(fan_in)); biases are zero."""
    # Unspecified upstream; 1/sqrt(d) keeps ||e_i|| around 1.
    table = (1.0 / np.sqrt(latent_dim)) * rng.standard_normal(
        (n_items, latent_dim)) if anchors else None
    arrays = {name: (rng.standard_normal(shape) / np.sqrt(shape[1])
                     if len(shape) == 2 else np.zeros(shape))
              for name, shape in _weight_shapes(n_items, hidden_dim,
                                                latent_dim).items()}
    return ModelParams(**arrays, anchors=table)


def _trained_fields(p: ModelParams) -> tuple[str, ...]:
    """Names of the trained arrays in flat-vector order, anchors last."""
    return _WEIGHT_FIELDS + (("anchors",) if p.anchors is not None else ())


def pack_params(p: ModelParams) -> np.ndarray:
    """Flatten all trainable arrays (anchors last), each in its `_order`,
    into one new vector."""
    return np.concatenate([getattr(p, name).ravel(_order(name))
                           for name in _trained_fields(p)])


def pack_grads(p: ModelParams, grads) -> np.ndarray:
    """The kernel's gradient pieces (enc_w1's is of enc_w1.T) as one new
    pack_params-ordered vector; omitted rows are 0."""
    out = np.zeros(sum(getattr(p, name).size for name in _trained_fields(p)))
    g = unpack_params(out, p)
    for name, piece in zip(_trained_fields(p), grads, strict=True):
        view = getattr(g, name).T if _order(name) == "F" else getattr(g, name)
        at, rows = piece if isinstance(piece, tuple) else (..., piece)
        view[at] = rows
    return out


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
    return ModelParams(**views)


def draw_mask(n: int, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep flags for n stored entries, each True with probability
    keep_prob, drawn as rng.random(n) < keep_prob; keep_prob 1 draws
    nothing from rng."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must lie in (0, 1]")
    if keep_prob >= 1.0:
        return np.ones(n, dtype=bool)
    return rng.random(n) < keep_prob


def _encode(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
            keep: np.ndarray | None = None):
    """The one encoder, over binary CSR rows with 1s at items
    indices[indptr[r]:indptr[r+1]], reading only the entries whose
    boolean flag in keep is set (all when keep is None). Each kept
    entry's input is 1/sqrt(its row's kept count), the L2-normalized row.
    The scipy CSR input x goes through h1 = tanh(x @ enc_w1.T + enc_b1),
    split over x's rows above the work floor when enc_w1 outgrows the
    cache (numerics.SPARSE_CACHED), to the mean and logvar heads.
    Returns (x, h1, q), q the GaussianPosterior of the raw heads. scipy
    copies a dense operand that is not C-ordered; enc_w1 is column-major,
    so enc_w1.T is read in place."""
    from scipy import sparse

    if keep is not None:
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        indices = indices[keep]
    counts = np.diff(indptr)
    value = 1.0 / np.sqrt(np.maximum(counts, 1))
    x = sparse.csr_matrix((np.repeat(value, counts), indices, indptr),
                          shape=(counts.size, p.n_items))
    h1 = np.empty((counts.size, p.hidden_dim))

    def layer(lo, hi):
        rows = x if hi - lo == counts.size else x[lo:hi]
        h1[lo:hi] = rows @ p.enc_w1.T
        h1[lo:hi] += p.enc_b1
        np.tanh(h1[lo:hi], out=h1[lo:hi])

    # Each output row sums its own stored entries in order, so rows split
    # anywhere.
    work = x.nnz * p.hidden_dim * SPARSE_WORK
    split(layer, counts.size, work * (p.enc_w1.nbytes >= SPARSE_CACHED))
    return x, h1, GaussianPosterior(mean=h1 @ p.enc_w_mu.T + p.enc_b_mu,
                                    logvar=h1 @ p.enc_w_lv.T + p.enc_b_lv)


def decode_loss(p: ModelParams, z: np.ndarray, indptr: np.ndarray,
                indices: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """The one decoder: -loglik(softmax(dec_w z[r] + dec_b), x_r) per row
    r, and its logit gradient (|x_r| softmax - x_r) / scale as a (rows,
    items) array, for binary targets x_r with 1s at the distinct items
    indices[indptr[r]:indptr[r+1]]. Training passes scale = batch size.
    After one z @ dec_w.T, split over items, each elementwise pass runs
    on blocks of whole rows of DECODE_BLOCK entries (or one row), the
    rows split between workers, giving the same bits."""
    n = indptr.size - 1
    counts = np.diff(indptr).astype(np.float64)
    recon = np.empty(n)
    # The logits buffer becomes exp(logits - max), then d_logits.
    work = split_matmul(z, p.dec_w.T)
    step = max(1, DECODE_BLOCK // p.n_items)

    def passes(lo, hi):
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            block, rows = work[r0:r1], slice(r0, r1)
            row_of = entry_rows(indptr[r0:r1 + 1] - indptr[r0])
            cols = indices[indptr[r0]:indptr[r1]]
            block += p.dec_b
            block -= np.max(block, axis=1, keepdims=True)
            picked = np.bincount(row_of, weights=block[row_of, cols],
                                 minlength=r1 - r0)
            np.exp(block, out=block)
            sums = np.sum(block, axis=1)
            recon[rows] = counts[rows] * np.log(sums) - picked
            block *= (counts[rows] / (scale * sums))[:, None]
            block[row_of, cols] -= 1.0 / scale

    # Every pass works row by row, so rows split anywhere.
    split(passes, n, work.size * ENTRY_WORK)
    return recon, work


def _item_transpose(indptr: np.ndarray, indices: np.ndarray,
                    data: np.ndarray, n_items: int):
    """The boolean mark of the items CSR rows touch, each entry's column
    among them, and the rows' transpose compacted to them, one CSR row
    per item."""
    from scipy import sparse

    present = np.bincount(indices, minlength=n_items) > 0
    col_of = (np.cumsum(present) - 1)[indices]
    compact = sparse.csr_matrix((data, col_of, indptr), shape=(
        indptr.size - 1, np.count_nonzero(present)))
    return present, col_of, compact.T.tocsr()


def loss_and_grads_fixed(p: ModelParams, indptr: np.ndarray,
                         indices: np.ndarray, keep: np.ndarray,
                         noise: np.ndarray, beta: float, lambda_a: float = 0.0
                         ) -> tuple[float, list]:
    """Loss and gradient of a CSR batch for fixed mask and noise draws.

    Row r of the batch x holds a 1 at items indices[indptr[r]:indptr[r+1]];
    keep is the mask, a boolean keep flag for each of those entries, so
    the encoder reads x's kept entries and the decoder's target is all of
    x. Per row: -loglik(decode(z), x) + beta * KL(q || N(0, I)) and, when
    p has anchors, lambda_a times the closed-form alignment penalty of the
    row's positives, every row needing one; the total is the batch mean.
    Only the decoder is dense (rows x items): the input layer, its
    gradient and the alignment term are sparse products over the batch's
    items. The alignment is alignment_closed_form on x's rows and the
    anchor table in place; its backward reads the 1/|S| entry weights
    that returns. The gradient is one piece per trained array in
    pack_params order, as adam_step takes it: enc_w1's and the anchors'
    as (mark, rows), the rows of enc_w1.T for the items with a kept entry
    (none if all are masked) and of anchors for the batch's items. Two
    splits run independent tasks side by side into outputs this thread
    allocates: A, at SPLIT_FLOOR, d_z here beside the decoder's gradient
    and the alignment forward, then the loss check; B, with anchors and
    under _encode's gate, the encoder's gradients beside the anchor rows.
    """
    n = indptr.size - 1
    x, h1, q = _encode(p, indptr, indices, keep)
    mu, lv, sigma, var = q.mean, q.logvar, q.std, q.var
    z = mu + noise * sigma
    recon, d_logits = decode_loss(p, z, indptr, indices, n)

    # Backward pass; every d(loss)/d(per-row term) carries the 1/n factor.
    # (z.T @ d_logits).T runs faster in OpenBLAS than d_logits.T @ z.
    d_z, closed_form = np.empty((n, p.latent_dim)), []
    g_dec = [np.empty((p.latent_dim, p.n_items)), np.empty(p.n_items)]

    def decoder_grads():
        np.matmul(z.T, d_logits, out=g_dec[0])
        np.sum(d_logits, axis=0, out=g_dec[1])
        if p.anchors is not None:
            closed_form.extend(alignment_closed_form(mu, var, indptr,
                                                     indices, p.anchors))

    tasks = [lambda: np.matmul(d_logits, p.dec_w, out=d_z), decoder_grads]
    work = d_logits.size * p.latent_dim
    split(lambda lo, hi: [task() for task in tasks[lo:hi]], 2, work)
    del d_logits
    per_row = recon + beta * kl_diag_gaussian(q)
    if p.anchors is not None:
        align, ebar, entry_weight = closed_form
        per_row = per_row + lambda_a * align
    if not np.all(np.isfinite(per_row)):
        bad = int(np.flatnonzero(~np.isfinite(per_row))[0])
        raise NumericalError(f"non-finite loss at batch row {bad}", row_index=bad)
    loss = float(np.mean(per_row))

    d_mu = d_z + (beta / n) * mu
    d_lv = 0.5 * d_z * noise * sigma + (beta / n) * 0.5 * (var - 1.0)
    g_enc, g_anchors = [], []
    if p.anchors is not None:
        d_mu = d_mu + (lambda_a / n) * 2.0 * (mu - ebar)
        d_lv = d_lv + (lambda_a / n) * var
        present, col_of, weights_t = _item_transpose(indptr, indices,
                                                     entry_weight, p.n_items)
        g_anchors.append((present, np.empty((weights_t.shape[0],
                                             p.latent_dim))))
    # Strict inequalities on the clipped lv hold exactly where they hold
    # on the raw head, and NaN fails both.
    d_lv *= (lv > LOGVAR_MIN) & (lv < LOGVAR_MAX)

    def encoder_grads():
        d_a1 = d_mu @ p.enc_w_mu + d_lv @ p.enc_w_lv
        d_a1 *= 1.0 - h1**2
        # enc_w1's gradient d_a1.T @ x is zero outside the items x keeps;
        # each such item's is one row of the C-ordered enc_w1.T.
        kept, _, x_t = _item_transpose(x.indptr, x.indices, x.data, p.n_items)
        g_enc.extend([(kept, x_t @ d_a1), np.sum(d_a1, axis=0), d_mu.T @ h1,
                      np.sum(d_mu, axis=0), d_lv.T @ h1, np.sum(d_lv, axis=0)])

    def anchor_grads():
        present, g_items = g_anchors[0]
        items = np.flatnonzero(present)
        scale = np.bincount(col_of, weights=entry_weight)[:, None]
        step = max(1, DECODE_BLOCK // p.latent_dim)
        for r0 in range(0, len(items), step):
            rows = slice(r0, r0 + step)
            g_items[rows] = p.anchors[items[rows]] * scale[rows]
            g_items[rows] -= weights_t[rows] @ mu
        g_items *= 2.0 * lambda_a / n

    tasks = [encoder_grads] + [anchor_grads] * (p.anchors is not None)
    split(lambda lo, hi: [task() for task in tasks[lo:hi]], len(tasks),
          work * (p.enc_w1.nbytes >= SPARSE_CACHED))
    return loss, [*g_enc, g_dec[0].T, g_dec[1], *g_anchors]


def draw_mask_and_noise(indptr: np.ndarray, latent_dim: int, keep_prob: float,
                        rng: np.random.Generator):
    """One keep flag per stored entry of a CSR batch, then one noise row
    per batch row, in that fixed consumption order."""
    keep = draw_mask(int(indptr[-1]), keep_prob, rng)
    return keep, rng.standard_normal((indptr.size - 1, latent_dim))


def loss_and_grads(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
                   cfg: TrainConfig, rng: np.random.Generator,
                   lambda_a: float = 0.0) -> tuple[float, list]:
    """Draw a keep flag per stored entry and one latent sample per row of
    the CSR batch (indptr, indices), then backpropagate."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.size < 2:
        raise ValueError("batch must be nonempty")
    keep, noise = draw_mask_and_noise(indptr, p.latent_dim, cfg.keep_prob, rng)
    return loss_and_grads_fixed(p, indptr, indices, keep, noise, cfg.beta,
                                lambda_a=lambda_a)


def fit(data: SplitDataset, cfg: TrainConfig,
        pia: PiaConfig | None = None) -> tuple[ModelParams, list[dict]]:
    """Train with Adam over shuffled batches; keep the best-validation epoch.

    Per epoch the log records the mean batch loss, validation NDCG@100
    (stratified_report's, on the val part), and the strength in force during
    that epoch (0 when alignment is off). The returned parameters are the
    snapshot from the epoch with the highest validation NDCG. With `pia`,
    the strength starts at pia.lambda_a and is multiplied by
    pia.lambda_scale after every epoch that does not improve on the best
    NDCG once the best epoch is at least pia.patience epochs back. A
    NumericalError ends training with an "aborted" record naming the
    epoch, the batch (from 1) and the batch row of the error. A split
    with no training or no validation users is a SplitError, raised
    before any training. Training starts from init_params' draw from
    np.random.default_rng(cfg.seed), with anchors when pia is given.

    The parameters are views into one flat buffer θ that adam_step updates
    in place from each batch's gradient pieces; no gradient vector is made.
    fit holds three θ-sized arrays: θ and Adam's two moments. The best
    epoch is kept in an anonymous temporary file under TMPDIR, written
    from θ only before the first batch after an improving epoch, and
    read back into θ only when the epoch to return is not θ's current
    state (an abort, or a best epoch before the last). When no epoch
    improved (an abort in epoch 1), θ gets the initial parameters again,
    redrawn from cfg.seed by the same init_params call. One buffered
    write or readinto moves all of θ, with no θ-sized copy; a failed or
    short one is an OSError. The returned parameters view θ.
    """
    from .evaluate import stratified_report

    if data.train.n_users == 0:
        raise SplitError("the split has no training users to train on")
    if data.val_fold_in.n_users == 0:
        raise SplitError("training needs validation users to choose its best "
                         "epoch; split with n_val_users >= 1 (synth) or "
                         "--val >= 1 (preprocess)")
    rng = np.random.default_rng(cfg.seed)
    p = init_params(data.n_items, cfg.hidden_dim, cfg.latent_dim, rng,
                    anchors=pia is not None)
    theta = pack_params(p)
    p = unpack_params(theta, p)  # frees the drawn arrays; p views theta
    lam = 0.0 if pia is None else pia.lambda_a
    adam = AdamState.init(theta.size, cfg.lr)
    # A step's freed gradient (58 MiB at train-ref) stays in glibc's heap,
    # resident under the next step's logits, unless trimmed after the step.
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if (
        os.name == "posix" and p.enc_w1.nbytes >= SPARSE_CACHED) else None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int

    log: list[dict] = []
    best_ndcg = -np.inf
    best_epoch = 0
    n_train = data.train.n_users
    epoch = batch = None
    # A diverging step overflows on the way to a non-finite loss; the loss
    # check is the one detector, so numpy's warnings stay quiet.
    with tempfile.TemporaryFile() as best_file, \
            np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(1, cfg.epochs + 1):
                if epoch > 1 and best_epoch == epoch - 1:  # theta is the best
                    best_file.seek(0)
                    best_file.write(theta)
                perm = rng.permutation(n_train)
                losses = []
                for batch, start in enumerate(
                        range(0, n_train, cfg.batch_size), start=1):
                    indptr, indices = data.train.csr_rows(
                        perm[start:start + cfg.batch_size])
                    loss, grads = loss_and_grads(p, indptr, indices, cfg,
                                                 rng, lambda_a=lam)
                    adam_step(adam, theta, grads)
                    del grads  # not alive through the next batch's kernel
                    if trim is not None:
                        trim(0)
                    losses.append(loss)
                batch = None
                val_ndcg = stratified_report(p, data, [100],
                                             part="val").ndcg[100]
                log.append({"epoch": epoch, "loss": float(np.mean(losses)),
                            "val_ndcg100": val_ndcg, "lambda_a": lam})
                if val_ndcg > best_ndcg:
                    best_ndcg = val_ndcg
                    best_epoch = epoch
                elif pia is not None and epoch - best_epoch >= pia.patience:
                    lam *= pia.lambda_scale
        except NumericalError as exc:
            log.append({"event": "aborted", "error": str(exc),
                        "last_good_epoch": best_epoch, "epoch": epoch,
                        "batch": batch, "row_index": exc.row_index})
        if best_epoch == 0:  # no epoch beat the initial parameters
            theta[:] = pack_params(init_params(
                data.n_items, cfg.hidden_dim, cfg.latent_dim,
                np.random.default_rng(cfg.seed), anchors=pia is not None))
        elif epoch != best_epoch:  # theta holds a later or a partial epoch
            best_file.seek(0)
            moved = best_file.readinto(theta)
            if moved < theta.nbytes:
                raise OSError(f"the best-epoch file moved {moved} of "
                              f"{theta.nbytes} bytes")
    return p, log


def encode_rows(p: ModelParams, indptr: np.ndarray, indices: np.ndarray,
                keep: np.ndarray | None = None) -> GaussianPosterior:
    """Posterior of each binary CSR input row, with 1s at items
    indices[indptr[r]:indptr[r+1]], under the boolean keep flags (one per
    stored entry; None keeps all): `_encode`, the encoder training runs,
    without its hidden layer."""
    return _encode(p, indptr, indices, keep)[2]


def posterior_means(p: ModelParams, matrix: InteractionMatrix):
    """Posterior means of every user's clean input row, encoded from the
    matrix's CSR arrays and yielded as one (users, latent) array per
    SCORE_CHUNK users. A matrix over another number of items than the
    model's is a ShapeError, raised at the call, before any encoding."""
    if matrix.n_items != p.n_items:
        raise ShapeError(f"the model has {p.n_items} items but the data has "
                         f"{matrix.n_items}")
    n = matrix.n_users
    chunks = (matrix.csr_rows(np.arange(start, min(start + SCORE_CHUNK, n)))
              for start in range(0, n, SCORE_CHUNK))
    return (encode_rows(p, indptr, indices).mean for indptr, indices in chunks)


def score_rows(p: ModelParams, fold: InteractionMatrix):
    """Deterministic item logits of the fold-in users, yielded in order
    as fresh (users, items) chunks of SCORE_CHUNK users (the last may be
    shorter): the posterior means of the clean fold-in rows, decoded a
    chunk at a time. Fold-in items keep their logits; the ranker excludes
    them. The chunk size is fixed, so the same inputs always give the
    same bits.
    """
    for means in posterior_means(p, fold):
        yield split_matmul(means, p.dec_w.T, bias=p.dec_b)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(p: ModelParams, path: str | Path) -> None:
    """Magic, shape header (flags always 1), then each trained array as
    raw little-endian f64 in its `_order`, written from its own buffer,
    with the ANCH marker before the anchors: the body is pack_params(p)
    with that marker inserted."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<QQQQ", p.n_items, p.hidden_dim,
                             p.latent_dim, 1))
        for name in _trained_fields(p):
            if name == "anchors":
                fh.write(ANCHOR_SECTION)
            flat = getattr(p, name).ravel(_order(name))
            fh.write(flat.astype("<f8", copy=False))


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read what save_checkpoint writes: each section is read flat and
    reshaped in its `_order`, with no copy. A bad magic is a
    CorruptFileError at byte 0, a zero dimension or flags other than 1 one
    at the header, a non-finite value one at that value's byte, and an
    unknown trailing section one at its marker."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise CorruptFileError(path, 0, f"bad checkpoint magic {magic!r}")
        n_items, hidden, latent, flags = map(
            int, read_array(fh, "<u8", (4,), path, "header"))
        if min(n_items, hidden, latent) < 1 or flags != 1:
            raise CorruptFileError(
                path, 4, f"bad header: {n_items} items, hidden {hidden}, "
                f"latent {latent}, flags {flags}")
        shapes = _weight_shapes(n_items, hidden, latent)
        shapes["anchors"] = shapes["dec_w"]

        def read_section(name):
            start = fh.tell()
            flat = read_array(fh, "<f8", (math.prod(shapes[name]),), path, name)
            # min and max propagate NaN and allocate nothing.
            if not np.isfinite((flat.min(), flat.max())).all():
                bad = int(np.argmin(np.isfinite(flat)))
                raise CorruptFileError(path, start + 8 * bad,
                                       f"non-finite value in {name}")
            return flat.reshape(shapes[name], order=_order(name))

        arrays = {name: read_section(name) for name in _WEIGHT_FIELDS}
        anchors = None
        marker = fh.read(4)
        if marker == ANCHOR_SECTION:
            anchors = read_section("anchors")
            check_end(fh, path)
        elif marker:
            raise CorruptFileError(path, fh.tell() - len(marker),
                                   f"unexpected trailing section {marker!r}")
    return ModelParams(**arrays, anchors=anchors)
