import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from piavae.corpus import (SynthSpec, entry_rows, matrix_from_rows,
                           split_dataset, synth_block_dataset)
from piavae.errors import (CorruptFileError, NumericalError, ShapeError,
                           SplitError)
from piavae.evaluate import per_user_metrics, stratified_report
from piavae import model, numerics
from piavae.model import (DECODE_BLOCK, ModelParams, TrainConfig, decode_loss,
                          draw_mask, encode_rows, fit, init_params,
                          load_checkpoint, loss_and_grads,
                          loss_and_grads_fixed, pack_grads, pack_params,
                          save_checkpoint, score_rows, unpack_params)
from piavae.numerics import (LOGVAR_MAX, LOGVAR_MIN, AdamState,
                             GaussianPosterior, adam_step, finite_diff_check,
                             kl_diag_gaussian)
from piavae.pia import PiaConfig


def tiny_params(with_anchors=False, seed=0, n_items=20, hidden=8, latent=4):
    rng = np.random.default_rng(seed)
    anchors = 0.3 * rng.standard_normal((n_items, latent)) if with_anchors else None
    return init_params(n_items, hidden, latent, rng, anchors=anchors)


def hand_params():
    """2 items, 1 hidden unit, 1 latent dim with hand-picked weights."""
    return ModelParams(
        enc_w1=np.array([[0.3, -0.2]]),
        enc_b1=np.array([0.1]),
        enc_w_mu=np.array([[0.5]]),
        enc_b_mu=np.array([-0.4]),
        enc_w_lv=np.array([[0.7]]),
        enc_b_lv=np.array([0.2]),
        dec_w=np.array([[1.5], [-0.5]]),
        dec_b=np.array([0.05, -0.1]),
    )


def multinomial_loglik(logits, x):
    """Reference: sum_i x_i * log softmax(logits)_i with log-sum-exp
    stabilization, for one row."""
    logits = np.asarray(logits, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m = np.max(logits)
    log_norm = m + np.log(np.sum(np.exp(logits - m)))
    return float(np.dot(x, logits - log_norm))


def encode_one(p, x):
    """Posterior of one dense 0/1 input vector, encoded alone as a one-row
    CSR batch of its nonzeros."""
    idx = np.flatnonzero(x)
    q = encode_rows(p, np.array([0, idx.size]), idx)
    return GaussianPosterior(mean=q.mean[0], logvar=q.logvar[0])


def score_one(p, fold_in):
    """score_rows of a single user whose fold-in is the dense 0/1 vector
    fold_in."""
    fold = matrix_from_rows([np.flatnonzero(fold_in)], p.n_items)
    return next(score_rows(p, fold))


def to_csr(x):
    """(indptr, indices) of a dense 0/1 batch."""
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(x, axis=1))])
    return indptr, np.nonzero(x)[1]


def csr_loss_and_grads(p, x, mask, noise, beta, lambda_a=0.0):
    """The training kernel on a dense batch x, with the dense boolean mask
    restricted to x's nonzeros."""
    indptr, indices = to_csr(x)
    loss, grads = loss_and_grads_fixed(p, indptr, indices, mask[x > 0], noise,
                                       beta, lambda_a=lambda_a)
    return loss, pack_grads(p, grads)


def dense_loss_and_grads(p, x, mask, noise, beta, lambda_a=0.0):
    """Reference: the loss and flat gradient on dense (rows x items)
    arrays, the way the kernel computed them before it took CSR input."""
    n = x.shape[0]
    xh = x * mask
    norms = np.sqrt(np.sum(xh * xh, axis=1, keepdims=True))
    x_in = xh / np.where(norms > 0.0, norms, 1.0)
    h1 = np.tanh(x_in @ p.enc_w1.T + p.enc_b1)
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

    if p.anchors is not None:
        counts = np.sum(x, axis=1)
        ebar = (x @ p.anchors) / counts[:, None]
        sq_norms = np.sum(p.anchors**2, axis=1)
        const = (x @ sq_norms) / counts - np.sum(ebar**2, axis=1)
        align = np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1) + const
        per_row = per_row + lambda_a * align
    loss = float(np.mean(per_row))

    softmax = np.exp(log_probs)
    d_logits = (np.sum(x, axis=1, keepdims=True) * softmax - x) / n
    g_dec_w = d_logits.T @ z
    g_dec_b = np.sum(d_logits, axis=0)
    d_z = d_logits @ p.dec_w

    d_mu = d_z + (beta / n) * mu
    d_lv = 0.5 * d_z * noise * sigma + (beta / n) * 0.5 * (var - 1.0)
    g_anchors = None
    if p.anchors is not None:
        d_mu = d_mu + (lambda_a / n) * 2.0 * (mu - ebar)
        d_lv = d_lv + (lambda_a / n) * var
        weights = x / counts[:, None]
        g_anchors = (2.0 * lambda_a / n) * (
            p.anchors * np.sum(weights, axis=0)[:, None] - weights.T @ mu)

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

    return loss, pack_params(ModelParams(
        enc_w1=g_w1, enc_b1=g_b1, enc_w_mu=g_mu_w, enc_b_mu=g_mu_b,
        enc_w_lv=g_lv_w, enc_b_lv=g_lv_b, dec_w=g_dec_w, dec_b=g_dec_b,
        anchors=g_anchors))


def whole_array_decode_loss(p, z, indptr, indices, scale):
    """Reference: decode_loss with each elementwise pass over the whole
    (rows, items) logits array at once, the way it ran before its passes
    went row block by row block."""
    n = indptr.size - 1
    counts = np.diff(indptr).astype(np.float64)
    row_of = entry_rows(indptr)
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


def param_blocks(p):
    """(name, slice of the flat vector) of each trained array."""
    names = ["enc_w1", "enc_b1", "enc_w_mu", "enc_b_mu", "enc_w_lv",
             "enc_b_lv", "dec_w", "dec_b"]
    if p.anchors is not None:
        names.append("anchors")
    blocks, offset = [], 0
    for name in names:
        size = getattr(p, name).size
        blocks.append((name, slice(offset, offset + size)))
        offset += size
    return blocks


class TestApplyMask:
    # A mask is a boolean keep flag per stored entry; applied to a dense
    # row it is x * keep.
    def test_keep_prob_one_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        keep = draw_mask(x.size, 1.0, rng)
        assert keep.dtype == bool and np.array_equal(x * keep, x)
        assert rng.random() == np.random.default_rng(0).random()  # no draw

    def test_zero_vector_stays_zero(self):
        rng = np.random.default_rng(0)
        assert not (np.zeros(10) * draw_mask(10, 0.3, rng)).any()

    def test_mask_never_creates_positives(self):
        rng = np.random.default_rng(1)
        x = (rng.random(50) < 0.4).astype(float)
        for _ in range(200):
            mask = draw_mask(x.size, 0.5, rng)
            assert mask.dtype == bool and mask.shape == x.shape
            masked = x * mask
            assert np.all(masked <= x)
            assert set(np.flatnonzero(masked)) <= set(np.flatnonzero(x))

    def test_draw_is_one_uniform_per_entry(self):
        rng = np.random.default_rng(3)
        keep = draw_mask(30, 0.4, rng)
        want = np.random.default_rng(3)
        assert keep.tobytes() == (want.random(30) < 0.4).tobytes()
        assert rng.random() == want.random()

    def test_mc_mean_matches_keep_prob(self):
        n = 100_000
        sizes = draw_mask(n * 20, 0.5, np.random.default_rng(2))
        sizes = sizes.reshape(n, 20).sum(axis=1)
        se = math.sqrt(20 * 0.25 / n)
        assert abs(sizes.mean() - 10.0) < 4 * se

    @pytest.mark.parametrize("keep_prob", [0.0, -0.5, 1.5])
    def test_out_of_range_keep_prob_rejected(self, keep_prob):
        with pytest.raises(ValueError):
            draw_mask(6, keep_prob, np.random.default_rng(0))


class TestEncodeDecode:
    def test_zero_network_maps_everything_to_prior(self):
        p = tiny_params()
        zeros = unpack_params(np.zeros(pack_params(p).size), p)
        q = encode_one(zeros, np.ones(20))
        assert not q.mean.any()
        assert not q.logvar.any()

    def test_hand_forward_pass_normalized(self):
        p = hand_params()
        q = encode_one(p, np.array([1.0, 1.0]))
        h1 = math.tanh((0.3 - 0.2) / math.sqrt(2.0) + 0.1)
        assert q.mean[0] == pytest.approx(0.5 * h1 - 0.4, abs=1e-12)
        assert q.logvar[0] == pytest.approx(0.7 * h1 + 0.2, abs=1e-12)

    def test_hand_forward_pass_masked_row_feeds_kept_count(self):
        # Both items stored, one kept: the input is 1/sqrt(1) on the kept
        # item, not 1/sqrt(2) from the stored count.
        p = hand_params()
        q = encode_rows(p, np.array([0, 2]), np.array([0, 1]),
                        keep=np.array([True, False]))
        h1 = math.tanh(0.3 + 0.1)
        assert q.mean[0, 0] == pytest.approx(0.5 * h1 - 0.4, abs=1e-12)
        assert q.logvar[0, 0] == pytest.approx(0.7 * h1 + 0.2, abs=1e-12)

    def test_zero_input_with_normalization_takes_bias_path(self):
        p = hand_params()
        q = encode_one(p, np.zeros(2))
        h1 = math.tanh(0.1)
        assert q.mean[0] == pytest.approx(0.5 * h1 - 0.4, abs=1e-12)

    # The decoder is checked through score_rows, which decodes the
    # posterior mean of the clean fold-in.
    def test_zero_decoder_gives_uniform_logits(self):
        p = tiny_params()
        zeros = unpack_params(np.zeros(pack_params(p).size), p)
        assert not score_one(zeros, np.zeros(20)).any()

    def test_hand_decoder_column(self):
        # Empty fold-in: the encoder's bias path decoded through both
        # items' decoder rows.
        p = hand_params()
        mu = 0.5 * math.tanh(0.1) - 0.4
        scores = score_one(p, np.zeros(2))
        np.testing.assert_allclose(scores, [1.5 * mu + 0.05, -0.5 * mu - 0.1],
                                   rtol=0.0, atol=1e-15)

    def test_decoder_is_affine(self):
        # Scores are dec_w @ mu + dec_b for the posterior mean, at every
        # item, fold-in items included.
        p = tiny_params(seed=3)
        x = np.zeros(20)
        x[[1, 4, 9]] = 1.0
        scores = score_one(p, x)
        expected = p.dec_w @ encode_one(p, x).mean + p.dec_b
        np.testing.assert_allclose(scores, expected, rtol=0.0, atol=1e-12)


class TestSharedForward:
    def test_batch_encode_equals_stacked_rows(self):
        p = tiny_params(seed=40)
        rng = np.random.default_rng(41)
        x = (rng.random((7, 20)) < 0.3).astype(float)
        x[3] = 0.0  # a zero row takes the bias path
        indptr, indices = to_csr(x)
        batch = encode_rows(p, indptr, indices)
        rows = [encode_one(p, row) for row in x]
        assert batch.mean.shape == batch.logvar.shape == (7, 4)
        np.testing.assert_allclose(batch.mean, [q.mean for q in rows],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(batch.logvar, [q.logvar for q in rows],
                                   rtol=0.0, atol=1e-12)

    def test_masked_batch_encodes_as_its_kept_items(self):
        # A masked batch gives the bits of the batch of its kept items, and
        # no mask the bits of an all-True one. Row 2 is empty, and row 4
        # keeps none of its entries.
        p = tiny_params(seed=44)
        rng = np.random.default_rng(45)
        x = rng.random((6, 20)) < 0.4
        x[2] = False
        x[4, [1, 5, 9]] = True
        mask = rng.random((6, 20)) < 0.5
        mask[4] = False
        indptr, indices = to_csr(x)
        for got, want in [
                (encode_rows(p, indptr, indices, mask[x]),
                 encode_rows(p, *to_csr(x & mask))),
                (encode_rows(p, indptr, indices),
                 encode_rows(p, indptr, indices,
                             np.ones(indices.size, dtype=bool)))]:
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.logvar.tobytes() == want.logvar.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.2, 1.5])
    def test_training_loss_matches_numerics_reference(self, beta):
        # keep_prob 1, zero noise, no alignment: the batched training
        # forward is the mean of the per-row ELBO built from the references.
        p = tiny_params(seed=42, with_anchors=True)
        rng = np.random.default_rng(43)
        x = (rng.random((5, 20)) < 0.3).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        loss, _ = loss_and_grads_fixed(p, indptr, indices,
                                       np.ones(indices.size, dtype=bool),
                                       np.zeros((5, 4)), beta=beta, lambda_a=0.0)
        per_row = []
        for row in x:
            q = encode_one(p, row)
            logits = q.mean @ p.dec_w.T + p.dec_b
            per_row.append(-multinomial_loglik(logits, row)
                           + beta * kl_diag_gaussian(q))
        assert loss == pytest.approx(np.mean(per_row), rel=1e-12, abs=1e-12)


class TestLossAndGrads:
    def test_zero_decoder_uniform_reconstruction(self):
        # beta = 0, zero decoder: loss = k * log I for a row with k positives.
        p = tiny_params(seed=5)
        zero_dec = ModelParams(
            enc_w1=p.enc_w1, enc_b1=p.enc_b1, enc_w_mu=p.enc_w_mu,
            enc_b_mu=p.enc_b_mu, enc_w_lv=p.enc_w_lv, enc_b_lv=p.enc_b_lv,
            dec_w=np.zeros_like(p.dec_w), dec_b=np.zeros_like(p.dec_b))
        cfg = TrainConfig(beta=0.0, keep_prob=0.5, batch_size=1, epochs=1,
                          hidden_dim=8, latent_dim=4)
        loss, _ = loss_and_grads(zero_dec, [0, 3], [2, 5, 11], cfg,
                                 np.random.default_rng(0))
        assert loss == pytest.approx(3.0 * math.log(20.0), abs=1e-12)

    def test_beta_only_adds_nonnegative_term(self):
        p = tiny_params(seed=6)
        rng = np.random.default_rng(7)
        x = (rng.random((4, 20)) < 0.3).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        keep = rng.random(indices.size) < 0.5
        noise = rng.standard_normal((4, 4))
        base, _ = loss_and_grads_fixed(p, indptr, indices, keep, noise, beta=0.0)
        for beta in (0.1, 0.5, 2.0):
            higher, _ = loss_and_grads_fixed(p, indptr, indices, keep, noise,
                                             beta=beta)
            assert higher >= base

    def test_gradient_check_small_model(self):
        p = tiny_params(seed=8)
        rng = np.random.default_rng(9)
        x = (rng.random((4, 20)) < 0.3).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        keep = rng.random(indices.size) < 0.5
        noise = rng.standard_normal((4, 4))
        theta = pack_params(p)
        grads = pack_grads(p, loss_and_grads_fixed(p, indptr, indices, keep,
                                                   noise, beta=0.2)[1])

        def loss_fn(vec):
            return loss_and_grads_fixed(unpack_params(vec, p), indptr, indices,
                                        keep, noise, beta=0.2)[0]

        assert finite_diff_check(loss_fn, theta, grads) < 1e-4

    def test_gradient_check_with_normalization(self):
        p = tiny_params(seed=10)
        rng = np.random.default_rng(11)
        x = (rng.random((3, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        keep = rng.random(indices.size) < 0.5
        noise = rng.standard_normal((3, 4))
        theta = pack_params(p)
        grads = pack_grads(p, loss_and_grads_fixed(p, indptr, indices, keep,
                                                   noise, beta=0.3)[1])

        def loss_fn(vec):
            return loss_and_grads_fixed(unpack_params(vec, p), indptr, indices,
                                        keep, noise, beta=0.3)[0]

        assert finite_diff_check(loss_fn, theta, grads) < 1e-4

    def test_non_finite_loss_reports_row(self):
        p = tiny_params(seed=12)
        bad = ModelParams(
            enc_w1=p.enc_w1, enc_b1=p.enc_b1, enc_w_mu=p.enc_w_mu,
            enc_b_mu=p.enc_b_mu, enc_w_lv=p.enc_w_lv, enc_b_lv=p.enc_b_lv,
            dec_w=np.full_like(p.dec_w, np.nan), dec_b=p.dec_b)
        cfg = TrainConfig(hidden_dim=8, latent_dim=4, batch_size=2, epochs=1)
        with pytest.raises(NumericalError) as exc:
            loss_and_grads(bad, [0, 1, 2], [0, 0], cfg, np.random.default_rng(0))
        assert exc.value.row_index == 0


class TestCsrKernel:
    # The CSR kernel against the dense reference above, given the same
    # mask restricted to the nonzeros. Row 2 keeps none of its positives.
    @staticmethod
    def batch(seed):
        rng = np.random.default_rng(seed)
        x = (rng.random((5, 20)) < 0.35).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        mask = rng.random(x.shape) < 0.5
        mask[2] = False
        return x, mask, rng.standard_normal((5, 4))

    @pytest.mark.parametrize("lambda_a, with_anchors", [(0.0, False),
                                                        (0.0, True),
                                                        (1.5, True)])
    def test_matches_dense_reference(self, lambda_a, with_anchors):
        p = tiny_params(with_anchors=with_anchors, seed=44)
        x, mask, noise = self.batch(45)
        want_loss, want = dense_loss_and_grads(p, x, mask, noise, 0.3, lambda_a)
        loss, got = csr_loss_and_grads(p, x, mask, noise, 0.3, lambda_a)
        assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        for name, block in param_blocks(p):
            np.testing.assert_allclose(got[block], want[block], rtol=0.0,
                                       atol=1e-12, err_msg=name)

    def test_gradient_check_every_block(self):
        p = tiny_params(with_anchors=True, seed=46)
        x, mask, noise = self.batch(47)
        indptr, indices = to_csr(x)
        keep = mask[x > 0]
        theta = pack_params(p)
        grads = pack_grads(p, loss_and_grads_fixed(
            p, indptr, indices, keep, noise, beta=0.2, lambda_a=1.5)[1])
        for name, block in param_blocks(p):
            def loss_fn(part, block=block):
                vec = theta.copy()
                vec[block] = part
                return loss_and_grads_fixed(unpack_params(vec, p), indptr,
                                            indices, keep, noise, beta=0.2,
                                            lambda_a=1.5)[0]

            err = finite_diff_check(loss_fn, theta[block], grads[block])
            assert err < 1e-4, name

    def test_gradient_written_into_out(self):
        # The kernel returns new pieces; two calls must agree to the bit.
        p = tiny_params(with_anchors=True, seed=48)
        x, mask, noise = self.batch(49)
        indptr, indices = to_csr(x)
        loss, pieces = loss_and_grads_fixed(p, indptr, indices, mask[x > 0],
                                            noise, 0.2, lambda_a=2.0)
        fresh = loss_and_grads_fixed(p, indptr, indices, mask[x > 0], noise,
                                     0.2, lambda_a=2.0)
        assert loss == fresh[0]
        assert (pack_grads(p, pieces).tobytes()
                == pack_grads(p, fresh[1]).tobytes())

    def test_mask_draws_one_flag_per_nonzero_then_noise(self):
        indptr = np.array([0, 3, 3, 7])
        keep, noise = model.draw_mask_and_noise(indptr, 4, 0.5,
                                                np.random.default_rng(50))
        rng = np.random.default_rng(50)
        assert keep.tobytes() == draw_mask(7, 0.5, rng).tobytes()
        assert noise.tobytes() == rng.standard_normal((3, 4)).tobytes()


# Rows of 5000 items per decode_loss row block; a row wider than
# DECODE_BLOCK takes a block on its own.
PER_BLOCK = DECODE_BLOCK // 5000


class TestRowBlockedDecoder:
    # decode_loss runs its passes DECODE_BLOCK entries of rows at a time;
    # every pass works row by row, so any row count gives the whole-array
    # passes' bits. Row 0 has no targets.
    @staticmethod
    def batch(n_items, n_rows, seed):
        rng = np.random.default_rng(seed)
        p = tiny_params(seed=seed, n_items=n_items, hidden=4, latent=3)
        rows = [np.sort(rng.choice(n_items, 0 if r == 0 else
                                   rng.integers(1, 40), replace=False))
                for r in range(n_rows)]
        indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        z = 2.0 * rng.standard_normal((n_rows, 3))
        return p, z, indptr, np.concatenate(rows).astype(np.int64)

    @pytest.mark.parametrize("n_items, n_rows", [
        *((5000, n) for n in (1, PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1,
                              3 * PER_BLOCK + 5)),
        *((DECODE_BLOCK + 100, n) for n in (1, 2, 8))])
    @pytest.mark.parametrize("scale", ["batch", 1])
    def test_row_blocks_give_whole_array_bits(self, n_items, n_rows, scale):
        p, z, indptr, indices = self.batch(n_items, n_rows, seed=n_rows)
        scale = n_rows if scale == "batch" else scale
        want = whole_array_decode_loss(p, z, indptr, indices, scale)
        got = decode_loss(p, z, indptr, indices, scale)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestKernelPieces:
    def test_enc_w1_piece_marks_the_items_with_a_kept_entry(self):
        p = tiny_params(with_anchors=True, seed=70)
        x, mask, noise = TestCsrKernel.batch(71)
        indptr, indices = to_csr(x)
        keep = mask[x > 0]
        pieces = loss_and_grads_fixed(p, indptr, indices, keep, noise, 0.2,
                                      lambda_a=1.5)[1]
        kept = np.zeros(p.n_items, dtype=bool)
        kept[indices[keep]] = True
        assert kept.sum() < np.unique(indices).size
        assert np.array_equal(pieces[0][0], kept)
        present = np.zeros(p.n_items, dtype=bool)
        present[indices] = True
        assert np.array_equal(pieces[-1][0], present)

    def test_fully_masked_batch_gives_an_empty_piece(self):
        p = tiny_params(with_anchors=True, seed=72)
        x, _, noise = TestCsrKernel.batch(73)
        indptr, indices = to_csr(x)
        pieces = loss_and_grads_fixed(p, indptr, indices,
                                      np.zeros(indices.size, dtype=bool),
                                      noise, 0.2, lambda_a=1.5)[1]
        mark, rows = pieces[0]
        assert not mark.any() and rows.shape == (0, p.hidden_dim)
        flat = pack_grads(p, pieces)
        w1 = param_blocks(p)[0][1]
        assert flat[w1].tobytes() == np.zeros(p.enc_w1.size).tobytes()
        runs = [(pack_params(p), AdamState.init(flat.size, 1e-2))
                for _ in range(2)]
        adam_step(runs[0][1], runs[0][0], pieces)
        adam_step(runs[1][1], runs[1][0], [flat])
        (got, got_state), (want, want_state) = runs
        assert got.tobytes() == want.tobytes()
        assert got_state.first_moment.tobytes() == \
            want_state.first_moment.tobytes()
        assert got_state.second_moment.tobytes() == \
            want_state.second_moment.tobytes()


class TestPieceStep:
    # The kernel's pieces through adam_step against the flat path they
    # replace: the zero-filled gradient from pack_grads, then adam_step on
    # flat arrays. enc_w1 spans several Adam row blocks, and the moments
    # start with -0.0 entries, so .tobytes() also compares zero signs.
    @pytest.mark.parametrize("with_anchors, lambda_a, density", [
        (True, 1.5, 0.3), (False, 0.0, 0.3), (True, 0.0, 0.3),
        (True, 1.5, 0.002)])
    def test_pieces_step_like_the_flat_gradient(self, with_anchors, lambda_a,
                                                density):
        p = tiny_params(with_anchors=with_anchors, seed=60, n_items=3000,
                        hidden=24, latent=4)
        rng = np.random.default_rng(61)
        theta = pack_params(p)
        first = rng.standard_normal(theta.size) * (rng.random(theta.size) < 0.5)
        first[::3] = -0.0
        second = first**2
        second[::5] = -0.0
        runs = [(theta.copy(), AdamState(first.copy(), second.copy(), 2, 1e-2))
                for _ in range(2)]
        for _ in range(3):
            x = (rng.random((8, 3000)) < density).astype(float)
            x[x.sum(axis=1) == 0, 0] = 1.0
            indptr, indices = to_csr(x)
            keep, noise = model.draw_mask_and_noise(indptr, 4, 0.5, rng)
            _, pieces = loss_and_grads_fixed(unpack_params(runs[0][0], p),
                                             indptr, indices, keep, noise,
                                             beta=0.2, lambda_a=lambda_a)
            present = pieces[0][0]
            assert (present.sum() < 300) == (density < 0.01)
            adam_step(runs[1][1], runs[1][0], [pack_grads(p, pieces)])
            adam_step(runs[0][1], runs[0][0], pieces)
            (got, got_state), (want, want_state) = runs
            assert got.tobytes() == want.tobytes()
            assert got_state.first_moment.tobytes() == \
                want_state.first_moment.tobytes()
            assert got_state.second_moment.tobytes() == \
                want_state.second_moment.tobytes()


def small_split(seed=0):
    spec = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(4, 12),
                     n_items=24, noise_rate=0.05, seed=seed)
    m = synth_block_dataset(spec)
    return split_dataset(m, 6, 6, 0.8, seed=seed)


def spy_ranges(monkeypatch):
    """(lo, hi) of every range numerics.split runs from now on, and the
    thread that ran it."""
    ranges, real = [], numerics.split

    def spy(fn, n, work, align=numerics.SPLIT_ALIGN):
        def record(lo, hi):
            ranges.append((lo, hi, threading.get_ident()))
            return fn(lo, hi)
        real(record, n, work, align)

    monkeypatch.setattr(numerics, "split", spy)
    monkeypatch.setattr(model, "split", spy)
    return ranges


# At batch 500, hidden 300 and latent 100 over 4,096 items with anchors,
# each decoder product, the row passes and Adam's walk are above
# numerics.SPLIT_FLOOR; 1,000 training users make two full batches.
SPLIT_SIZED = TrainConfig(epochs=1, batch_size=500, hidden_dim=300,
                          latent_dim=100, seed=90)


def split_sized_split():
    rng = np.random.default_rng(90)
    rows = [rng.choice(4096, 24, replace=False) for _ in range(1050)]
    return split_dataset(matrix_from_rows(rows, 4096), 50, 0, 0.8, seed=90)


def split_sized_digest() -> str:
    """SHA-256 of a seeded split-sized fit's parameters and log."""
    params, log = fit(split_sized_split(), SPLIT_SIZED, PiaConfig())
    return hashlib.sha256(pack_params(params).tobytes() + json.dumps(
        log, sort_keys=True).encode()).hexdigest()


class TestFit:
    def test_single_epoch_smoke(self):
        split = small_split()
        cfg = TrainConfig(epochs=1, batch_size=16, hidden_dim=10, latent_dim=4,
                          seed=0)
        params, log = fit(split, cfg)
        assert len(log) == 1
        assert set(log[0]) == {"epoch", "loss", "val_ndcg100", "lambda_a"}
        assert np.all(np.isfinite(pack_params(params)))

    def test_same_seed_identical_logs(self):
        split = small_split()
        cfg = TrainConfig(epochs=3, batch_size=16, hidden_dim=10, latent_dim=4,
                          seed=42)
        _, log_a = fit(split, cfg)
        _, log_b = fit(split, cfg)
        assert json.dumps(log_a, sort_keys=True) == json.dumps(log_b, sort_keys=True)

    def test_returned_params_come_from_best_epoch(self):
        split = small_split(seed=3)
        cfg = TrainConfig(epochs=4, batch_size=16, hidden_dim=10, latent_dim=4,
                          seed=3)
        params, log = fit(split, cfg)
        recomputed = stratified_report(params, split, [100], part="val")
        assert recomputed.ndcg[100] == max(r["val_ndcg100"] for r in log)

    def test_same_seed_identical_params(self):
        split = small_split(seed=4)
        cfg = TrainConfig(epochs=3, batch_size=16, hidden_dim=10, latent_dim=4,
                          seed=5)
        runs = [fit(split, cfg, PiaConfig(lambda_a=2.0)) for _ in range(2)]
        (params_a, log_a), (params_b, log_b) = runs
        assert json.dumps(log_a, sort_keys=True) == json.dumps(log_b, sort_keys=True)
        assert pack_params(params_a).tobytes() == pack_params(params_b).tobytes()

    def test_first_step_moves_each_parameter_by_at_most_config_lr(
            self, monkeypatch):
        # One batch, one epoch: fit returns θ after Adam's first step,
        # which moves each entry by lr * |g| / (|g| + eps). An lr other
        # than the default shows that the step takes TrainConfig.lr.
        initial, real = [], model.init_params

        def recorded(*args, **kwargs):
            p = real(*args, **kwargs)
            initial.append(pack_params(p).copy())
            return p

        monkeypatch.setattr(model, "init_params", recorded)
        cfg = TrainConfig(epochs=1, batch_size=1000, hidden_dim=10,
                          latent_dim=4, lr=2.5e-3, seed=6)
        params, log = fit(small_split(seed=6), cfg)
        assert [r["epoch"] for r in log] == [1]
        moved = np.abs(pack_params(params) - initial[0])
        assert moved.max() <= cfg.lr
        assert moved.max() > 0.99 * cfg.lr

    def test_no_validation_users_is_an_error_before_training(self, monkeypatch):
        split = split_dataset(synth_block_dataset(SynthSpec(
            cohort_sizes=(20, 20), cohort_support_sizes=(4, 12), n_items=24,
            noise_rate=0.05, seed=0)), 0, 6, 0.8, seed=0)

        def no_step(*args, **kwargs):
            raise AssertionError("trained without validation users")

        monkeypatch.setattr(model, "loss_and_grads", no_step)
        cfg = TrainConfig(epochs=2, batch_size=16, hidden_dim=10, latent_dim=4)
        for pia in (None, PiaConfig()):
            with pytest.raises(SplitError, match="n_val_users >= 1"):
                fit(split, cfg, pia)

    def test_no_training_users_is_an_error_before_training(self):
        split = replace(small_split(), train=matrix_from_rows([], 24))
        cfg = TrainConfig(epochs=2, batch_size=16, hidden_dim=10, latent_dim=4)
        with pytest.raises(SplitError, match="no training users"):
            fit(split, cfg)

    def test_numeric_abort_names_epoch_batch_and_row(self, monkeypatch):
        def nan_decoder(*args, **kwargs):
            p = init_params(*args, **kwargs)
            p.dec_w[...] = np.nan
            return p

        monkeypatch.setattr(model, "init_params", nan_decoder)
        cfg = TrainConfig(epochs=2, batch_size=16, hidden_dim=10, latent_dim=4,
                          seed=0)
        _, log = fit(small_split(), cfg)
        assert log == [{"event": "aborted",
                        "error": "non-finite loss at batch row 0",
                        "last_good_epoch": 0, "epoch": 1, "batch": 1,
                        "row_index": 0}]

    def test_split_fit_has_the_one_worker_bits(self, monkeypatch):
        ranges = spy_ranges(monkeypatch)
        digests = []
        for workers in (1, 2):
            monkeypatch.setattr(numerics, "WORKERS", workers)
            ranges.clear()
            digests.append(split_sized_digest())
            pooled = any(thread != threading.get_ident()
                         for _, _, thread in ranges)
            assert pooled == (workers == 2)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("value", [np.nan, np.finfo(float).max])
    def test_numeric_abort_under_split_names_epoch_batch_and_row(
            self, monkeypatch, value):
        # Pool threads compute half the decoder. The largest float as
        # weights overflows there; unless they run under fit's errstate,
        # Tier-1's error::RuntimeWarning turns that into an exception
        # that skips the aborted record.
        def bad_decoder(*args, **kwargs):
            p = init_params(*args, **kwargs)
            p.dec_w[...] = value
            return p

        monkeypatch.setattr(model, "init_params", bad_decoder)
        _, log = fit(split_sized_split(), SPLIT_SIZED, PiaConfig())
        assert log == [{"event": "aborted",
                        "error": "non-finite loss at batch row 0",
                        "last_good_epoch": 0, "epoch": 1, "batch": 1,
                        "row_index": 0}]


def fit_bits(split, cfg, pia=None) -> bytes:
    return pack_params(fit(split, cfg, pia)[0]).tobytes()


def abort_on_call(monkeypatch, call):
    """Make loss_and_grads raise NumericalError on its call-th call."""
    calls, real = [], model.loss_and_grads

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise NumericalError("planted", row_index=0)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "loss_and_grads", failing)


def faulty_temporary_file(monkeypatch, **ops):
    """Make tempfile.TemporaryFile give a buffered file, as it does, over a
    real raw temporary file whose named methods run ops[name](file,
    buffer) instead."""
    real = tempfile.TemporaryFile

    class Faulty:
        def __init__(self):
            self.file = real(buffering=0)

        def __getattr__(self, name):
            return getattr(self.file, name)

    for name, op in ops.items():
        setattr(Faulty, name, lambda self, buf, op=op: op(self.file, buf))
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda: io.BufferedRandom(Faulty()))


def no_space(file, buf):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestBestEpochFile:
    # fit keeps its best epoch in a temporary file, not in memory; what it
    # returns must be that epoch's bits, as a shorter fit ends with them.
    # Through epoch k the random stream is the same.
    SIZES = dict(batch_size=16, hidden_dim=10, latent_dim=4)

    @pytest.mark.parametrize("seed, pia, best", [
        (1, PiaConfig(), 1), (3, None, 2), (2, PiaConfig(), 3)],
        ids=["pia-best-1", "best-2", "pia-best-3"])
    def test_best_epoch_before_the_last_returns_its_bits(self, seed, pia,
                                                          best):
        split = small_split(seed=seed)
        cfg = TrainConfig(epochs=4, seed=seed, **self.SIZES)
        params, log = fit(split, cfg, pia)
        ndcgs = [r["val_ndcg100"] for r in log]
        assert 1 + ndcgs.index(max(ndcgs)) == best
        assert pack_params(params).tobytes() == fit_bits(
            split, replace(cfg, epochs=best), pia)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_abort_in_epoch_2_returns_epoch_1(self, monkeypatch, batch):
        # small_split has 28 training users: two batches an epoch. Aborting
        # at the second, after one step of epoch 2, must undo that step.
        split = small_split()
        cfg = TrainConfig(epochs=3, seed=7, **self.SIZES)
        one_epoch = fit_bits(split, replace(cfg, epochs=1))
        abort_on_call(monkeypatch, 2 + batch)
        params, log = fit(split, cfg)
        assert log[-1]["last_good_epoch"] == 1
        assert (log[-1]["epoch"], log[-1]["batch"]) == (2, batch)
        assert pack_params(params).tobytes() == one_epoch

    def test_abort_in_epoch_1_returns_the_initial_parameters(self,
                                                             monkeypatch):
        split = small_split()
        cfg = TrainConfig(epochs=2, seed=7, **self.SIZES)
        initial = init_params(split.n_items, cfg.hidden_dim, cfg.latent_dim,
                              np.random.default_rng(cfg.seed))
        abort_on_call(monkeypatch, 2)
        params, log = fit(split, cfg)
        assert log[-1]["last_good_epoch"] == 0
        assert pack_params(params).tobytes() == pack_params(initial).tobytes()

    def test_writes_and_reads_in_parts_keep_the_bits(self, monkeypatch):
        # The raw file under the buffered one may move fewer bytes than
        # asked per call.
        split = small_split(seed=3)
        cfg = TrainConfig(epochs=4, seed=3, **self.SIZES)
        whole = fit_bits(split, cfg)
        faulty_temporary_file(
            monkeypatch, write=lambda f, buf: f.write(buf[:1000]),
            readinto=lambda f, buf: f.readinto(buf[:1000]))
        assert fit_bits(split, cfg) == whole

    def test_full_disk_is_an_os_error(self, monkeypatch):
        faulty_temporary_file(monkeypatch, write=no_space)
        cfg = TrainConfig(epochs=2, seed=0, **self.SIZES)
        with pytest.raises(OSError) as info:
            fit(small_split(), cfg)
        assert info.value.errno == errno.ENOSPC

    def test_short_read_is_an_os_error(self, monkeypatch):
        # The file loses half its bytes at each read of the read-back: the
        # fit raises rather than return half-old parameters.
        def truncated(file, buf):
            file.truncate(os.fstat(file.fileno()).st_size // 2)
            return file.readinto(buf)

        faulty_temporary_file(monkeypatch, readinto=truncated)
        cfg = TrainConfig(epochs=4, seed=3, **self.SIZES)
        with pytest.raises(OSError, match="best-epoch file moved"):
            fit(small_split(seed=3), cfg)


def test_fit_bits_do_not_depend_on_blas_threads():
    # A fresh interpreter per OPENBLAS_NUM_THREADS: piavae pins OpenBLAS
    # to one thread before its first product, so a fit that splits gives
    # the same bits at 1 and 2 (unpinned, they differed).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = {split_sized_digest()}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(root, "src"))
        digests.add(subprocess.run(
            [sys.executable, "-c", "from tests.test_model import "
             "split_sized_digest; print(split_sized_digest())"], cwd=root,
            env=env, capture_output=True, text=True, check=True,
            timeout=300).stdout.strip())
    assert len(digests) == 1


class TestPredictScores:
    def test_zero_network_ties_fall_to_index_order(self):
        # All scores tie, so with fold-in [0, 3] the top 3 is [1, 2, 4]:
        # user u's one holdout item is the top 3's entry u, so it is a
        # hit at K = 1, 2, 3 from K = u + 1 on.
        p = tiny_params(seed=14)
        zeros = unpack_params(np.zeros(pack_params(p).size), p)
        fold = matrix_from_rows([[0, 3]] * 3, 20)
        hold = matrix_from_rows([[1], [2], [4]], 20)
        per_k = per_user_metrics(score_rows(zeros, fold), fold, hold,
                                 [1, 2, 3])
        for k, (recall, _) in per_k.items():
            assert recall.tolist() == [float(k >= u + 1) for u in range(3)]

    def test_hand_model_top1(self):
        p = hand_params()
        # fold-in = item 0 only; candidate item 1 takes whatever logit
        # the hand forward pass yields.
        fold = np.array([1.0, 0.0])
        h1 = math.tanh(0.3 + 0.1)
        mu = 0.5 * h1 - 0.4
        expected = -0.5 * mu - 0.1
        scores = score_one(p, fold)
        assert scores[1] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_and_mask_free(self):
        p = tiny_params(seed=15)
        fold = np.zeros(20)
        fold[[1, 2, 7]] = 1.0
        a = score_one(p, fold)
        b = score_one(p, fold)
        assert a.tobytes() == b.tobytes()

    def test_score_rows_match_single_row_path(self):
        # A user scored in a chunk and the same user scored alone sum in
        # different orders, so scores agree to a tolerance; the ranking
        # is exact.
        split = small_split(seed=1)
        p = tiny_params(seed=16, n_items=24)
        scores = np.array(list(score_rows(p, split.val_fold_in)))
        for u in range(split.val_fold_in.n_users):
            x = np.zeros(24)
            x[split.val_fold_in.row(u)] = 1.0
            single = score_one(p, x)
            assert np.all(np.isfinite(scores[u]))
            np.testing.assert_allclose(scores[u], single, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_array_equal(
                np.argsort(-scores[u], kind="stable"),
                np.argsort(-single, kind="stable"))


class TestCheckpoint:
    def test_roundtrip_without_anchors(self, tmp_path):
        p = tiny_params(seed=17)
        save_checkpoint(p, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.input_normalize is True
        assert back.anchors is None
        np.testing.assert_array_equal(pack_params(back), pack_params(p))

    def test_roundtrip_with_anchors(self, tmp_path):
        p = tiny_params(seed=18, with_anchors=True)
        save_checkpoint(p, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.anchors is not None
        np.testing.assert_array_equal(back.anchors, p.anchors)

    def test_byte_identical_when_saved_twice(self, tmp_path):
        p = tiny_params(seed=19, with_anchors=True)
        save_checkpoint(p, tmp_path / "a.ckpt")
        save_checkpoint(p, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    # A wide enc_w1 as well as a small one: read in the wrong order, each
    # comes back transposed.
    @pytest.mark.parametrize("n_items, hidden", [(20, 8), (5000, 131)])
    def test_enc_w1_section_is_items_major(self, tmp_path, n_items, hidden):
        p = tiny_params(seed=29, with_anchors=True, n_items=n_items,
                        hidden=hidden)
        save_checkpoint(p, tmp_path / "a.ckpt")
        blob = (tmp_path / "a.ckpt").read_bytes()
        want = p.enc_w1.ravel("F").astype("<f8").tobytes()
        start = 4 + 4 * 8  # magic, then four u8 header fields
        assert blob[start:start + len(want)] == want
        back = load_checkpoint(tmp_path / "a.ckpt")
        assert back.enc_w1.flags.f_contiguous
        save_checkpoint(back, tmp_path / "b.ckpt")
        assert (tmp_path / "b.ckpt").read_bytes() == blob

    def test_magic_and_anchor_section_markers(self, tmp_path):
        p = tiny_params(seed=20, with_anchors=True)
        save_checkpoint(p, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        assert blob[:4] == b"PIM2"
        at = len(blob) - 4 - 8 * p.anchors.size
        assert blob[at:at + 4] == b"ANCH"
        # Another magic, or another marker where ANCH goes, is a corrupt
        # file at that marker's byte.
        for damaged, offset in ((b"XXXX" + blob[4:], 0),
                                (blob[:at] + b"JUNK" + blob[at + 4:], at)):
            (tmp_path / "m.ckpt").write_bytes(damaged)
            with pytest.raises(CorruptFileError) as exc:
                load_checkpoint(tmp_path / "m.ckpt")
            assert exc.value.offset == offset


    @pytest.mark.parametrize("cut", [20, 100, -3])
    def test_truncated_file_names_file_and_offset(self, tmp_path, cut):
        save_checkpoint(tiny_params(seed=24, with_anchors=True), tmp_path / "m.ckpt")
        short = (tmp_path / "m.ckpt").read_bytes()[:cut]
        (tmp_path / "m.ckpt").write_bytes(short)
        with pytest.raises(CorruptFileError) as exc:
            load_checkpoint(tmp_path / "m.ckpt")
        assert exc.value.offset == len(short)
        assert "m.ckpt" in str(exc.value)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        save_checkpoint(tiny_params(seed=26), tmp_path / "m.ckpt")
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        blob[4:12] = (2**40).to_bytes(8, "little")  # n_items
        blob[12:20] = (2**40).to_bytes(8, "little")  # hidden
        (tmp_path / "m.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError) as exc:
            load_checkpoint(tmp_path / "m.ckpt")
        assert exc.value.offset == len(blob)

    @pytest.mark.parametrize("name, value", [("enc_w1", math.nan),
                                             ("dec_b", -math.inf),
                                             ("anchors", math.inf)])
    def test_non_finite_value_names_array_and_offset(self, tmp_path, name,
                                                      value):
        # The named array's last entry turns non-finite. Its byte follows
        # the 36-byte header, 8 bytes per earlier entry and, for an
        # anchor, the 4-byte ANCH marker.
        p = tiny_params(seed=28, with_anchors=True)
        order = ("enc_w1", "enc_b1", "enc_w_mu", "enc_b_mu", "enc_w_lv",
                 "enc_b_lv", "dec_w", "dec_b", "anchors")
        k = sum(getattr(p, f).size for f in order[:order.index(name) + 1]) - 1
        vec = pack_params(p)
        vec[k] = value
        save_checkpoint(unpack_params(vec, p), tmp_path / "m.ckpt")
        with pytest.raises(CorruptFileError) as exc:
            load_checkpoint(tmp_path / "m.ckpt")
        at = 36 + 8 * k + (4 if name == "anchors" else 0)
        assert exc.value.offset == at
        blob = (tmp_path / "m.ckpt").read_bytes()
        assert not np.isfinite(np.frombuffer(blob, "<f8", count=1, offset=at)[0])
        assert f"non-finite value in {name}" in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        save_checkpoint(tiny_params(seed=25, with_anchors=True), tmp_path / "m.ckpt")
        size = (tmp_path / "m.ckpt").stat().st_size
        with open(tmp_path / "m.ckpt", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(CorruptFileError) as exc:
            load_checkpoint(tmp_path / "m.ckpt")
        assert exc.value.offset == size

    def test_zero_flags_refused_at_header(self, tmp_path):
        # Every checkpoint carries flags 1; flags 0 marked an unnormalized
        # encoder, which no longer exists.
        save_checkpoint(tiny_params(seed=22), tmp_path / "m.ckpt")
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        assert blob[28:36] == (1).to_bytes(8, "little")
        blob[28:36] = bytes(8)
        (tmp_path / "m.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError, match="flags 0") as exc:
            load_checkpoint(tmp_path / "m.ckpt")
        assert exc.value.offset == 4


class TestPackUnpack:
    def test_unnormalized_encoder_refused(self):
        with pytest.raises(ValueError, match="L2-normalized"):
            replace(tiny_params(seed=23), input_normalize=False)

    @pytest.mark.parametrize("name", ["enc_b1", "dec_w", "anchors"])
    def test_shape_mismatch_names_the_array(self, name):
        p = tiny_params(seed=27, with_anchors=True)
        with pytest.raises(ShapeError, match=f"{name} .* must be") as exc:
            replace(p, **{name: getattr(p, name)[:-1]})
        assert str(exc.value).count("must be") == 1

    def test_roundtrip(self):
        p = tiny_params(seed=21, with_anchors=True)
        vec = pack_params(p)
        back = unpack_params(vec, p)
        for name in ("enc_w1", "enc_b1", "enc_w_mu", "enc_b_mu", "enc_w_lv",
                     "enc_b_lv", "dec_w", "dec_b", "anchors"):
            np.testing.assert_array_equal(getattr(back, name), getattr(p, name))

    def test_enc_w1_is_held_column_major(self):
        p = tiny_params(seed=28)
        row_major = np.ascontiguousarray(p.enc_w1)
        q = replace(p, enc_w1=row_major)
        assert q.enc_w1.flags.f_contiguous and not q.enc_w1.flags.c_contiguous
        np.testing.assert_array_equal(q.enc_w1, row_major)
        vec = pack_params(q)
        view = unpack_params(vec, q).enc_w1
        assert view.flags.f_contiguous and np.shares_memory(view, vec)
        np.testing.assert_array_equal(view, row_major)

    def test_loss_identical_through_pack_cycle(self):
        p = tiny_params(seed=22)
        rng = np.random.default_rng(23)
        x = (rng.random((3, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        cfg = TrainConfig(hidden_dim=8, latent_dim=4)
        l1, g1 = loss_and_grads(p, indptr, indices, cfg, np.random.default_rng(1))
        p2 = unpack_params(pack_params(p), p)
        l2, g2 = loss_and_grads(p2, indptr, indices, cfg, np.random.default_rng(1))
        assert l1 == l2
        assert pack_grads(p, g1).tobytes() == pack_grads(p2, g2).tobytes()


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, as tracemalloc sees them
    (numpy reports its array buffers to it). A first, untraced call does
    the imports fn makes on first use."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocation:
    # Byte counts, not timings: a copy of enc_w1, or of a large block of
    # it, fails these.
    @staticmethod
    def wide_params():
        return tiny_params(seed=31, n_items=5000, hidden=128, latent=4)

    def test_encode_rows_reads_enc_w1_in_place(self):
        p = self.wide_params()
        rng = np.random.default_rng(32)
        indices = np.concatenate([rng.choice(5000, 20, replace=False)
                                  for _ in range(32)])
        indptr = np.arange(0, indices.size + 1, 20)
        peak = traced_peak(encode_rows, p, indptr, indices)
        w1_bytes = p.enc_w1.nbytes
        assert peak < w1_bytes / 16

    def test_save_checkpoint_copies_enc_w1_in_blocks(self, tmp_path):
        # Each array is written from its own buffer: nothing is staged.
        p = self.wide_params()
        peak = traced_peak(save_checkpoint, p, tmp_path / "m.ckpt")
        assert peak <= 64 * 1024

    def test_fit_holds_no_gradient_vector(self):
        # theta and both moments are three parameter vectors; the best
        # epoch lives in a file. A fourth, a best-epoch copy or a
        # gradient vector, would pass 4x. Beyond the three, the peak
        # holds the batch's decoder buffer and the dec_w piece, each
        # under a tenth of a vector at this shape.
        spec = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(10, 40),
                         n_items=20_000, noise_rate=0.001, seed=0)
        split = split_dataset(synth_block_dataset(spec), 4, 0, 0.8, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=10, hidden_dim=128,
                          latent_dim=8, seed=0)
        peak = traced_peak(fit, split, cfg, PiaConfig())
        p = tiny_params(with_anchors=True, n_items=20_000, hidden=128,
                        latent=8)
        assert peak <= 3.5 * pack_params(p).nbytes

    def test_kernel_transients_leave_out_masked_items_and_anchor_copies(self):
        # 50 rows of 400 of 20k items: a third of the batch's items have
        # every entry masked. At the peak only the logits buffer and the
        # dec_w piece are large; a gathered copy of the batch's anchor
        # rows beside them, or enc_w1 rows for the masked items, pass the
        # bound.
        rng = np.random.default_rng(80)
        p = init_params(20_000, 32, 32, rng,
                        anchors=0.2 * rng.standard_normal((20_000, 32)))
        indices = np.concatenate([np.sort(rng.choice(20_000, 400,
                                                     replace=False))
                                  for _ in range(50)])
        indptr = np.arange(0, indices.size + 1, 400)
        keep, noise = model.draw_mask_and_noise(indptr, 32, 0.5, rng)
        peak = traced_peak(loss_and_grads_fixed, p, indptr, indices, keep,
                           noise, 0.2, 8.0)
        logits = 50 * p.n_items * 8
        assert peak <= logits + p.dec_w.nbytes + logits / 4

    def test_load_checkpoint_reads_enc_w1_in_blocks(self, tmp_path):
        # The result is alive at the peak; any copy of enc_w1, or of a
        # large block of it, would add to it.
        p = self.wide_params()
        save_checkpoint(p, tmp_path / "m.ckpt")
        peak = traced_peak(load_checkpoint, tmp_path / "m.ckpt")
        assert peak <= pack_params(p).nbytes + 64 * 1024
