from dataclasses import replace

import numpy as np
import pytest

from piavae import evaluate, suites
from piavae.errors import NumericalError, ShapeError
from piavae.evaluate import MetricReport
from piavae.model import (TrainConfig, draw_mask_and_noise, fit, loss_and_grads,
                          loss_and_grads_fixed, pack_grads, pack_params,
                          unpack_params)
from piavae.numerics import GaussianPosterior, finite_diff_check
from piavae.pia import (PiaConfig, alignment_closed_form,
                        alignment_mc_standard_error)
from tests.test_model import small_split, tiny_params, to_csr


def closed_form(q, positives, anchors):
    """alignment_closed_form of one posterior and one row of positives."""
    positives = np.asarray(positives, dtype=np.int64)
    values, _, _ = alignment_closed_form(q.mean[None], q.var[None],
                                         np.array([0, positives.size]),
                                         positives,
                                         np.asarray(anchors, dtype=float))
    return float(values[0])


def closed_form_at(anchors, positives, mean):
    """closed_form of a zero-variance posterior at `mean` on the
    positives: ||mean - ebar||^2 plus their spread."""
    q = GaussianPosterior(mean=mean, logvar=np.full(len(mean), -np.inf))
    return closed_form(q, positives, anchors)


class TestAnchorCentroid:
    # The centroid ebar is where the zero-variance closed form is smallest;
    # a step d away from it adds exactly ||d||^2.
    def test_single_positive_returns_its_anchor(self):
        anchors = [[1.0, 2.0], [3.0, -1.0]]
        assert closed_form_at(anchors, [1], [3.0, -1.0]) == 0.0
        assert closed_form_at(anchors, [1], [3.5, -1.0]) == 0.25

    def test_symmetric_pair_cancels(self):
        anchors = [[1.0, 0.0], [-1.0, 0.0]]
        assert closed_form_at(anchors, [0, 1], [0.0, 0.0]) == 1.0
        assert closed_form_at(anchors, [0, 1], [0.0, 0.5]) == 1.25

    def test_three_anchor_mean(self):
        anchors = np.array([[0.2, 1.0], [-0.4, 0.5], [1.1, -0.7]])
        expected = np.array([(0.2 - 0.4 + 1.1) / 3.0, (1.0 + 0.5 - 0.7) / 3.0])
        spread = np.mean(np.sum((anchors - expected) ** 2, axis=1))
        assert closed_form_at(anchors, [0, 1, 2], expected) == pytest.approx(
            spread, abs=1e-15)
        for step in ([0.1, 0.0], [0.0, -0.3], [0.2, 0.2]):
            assert closed_form_at(anchors, [0, 1, 2], expected + step) == \
                pytest.approx(spread + np.sum(np.square(step)), abs=1e-15)

    def test_empty_positives_rejected(self):
        # A row with no positives has no centroid; the training kernel,
        # which builds the weights, rejects it and names the row.
        p = tiny_params(seed=29, with_anchors=True)
        indptr, indices = np.array([0, 2, 2]), np.array([1, 3])
        with pytest.raises(NumericalError, match="positive") as exc:
            loss_and_grads_fixed(p, indptr, indices, np.ones(2, dtype=bool),
                                 np.zeros((2, 4)), beta=0.2, lambda_a=1.0)
        assert exc.value.row_index == 1


class TestAlignmentClosedForm:
    def test_degenerate_at_centroid_is_exactly_zero(self):
        anchors = np.array([[0.7, -0.3]])
        q = GaussianPosterior(mean=[0.7, -0.3], logvar=[-np.inf, -np.inf])
        assert closed_form(q, [0], anchors) == 0.0

    def test_unit_variance_at_origin_single_anchor(self):
        # E||z||^2 = d for a standard 2-D Gaussian and an anchor at 0.
        anchors = np.zeros((1, 2))
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        assert closed_form(q, [0], anchors) == pytest.approx(2.0, abs=1e-12)

    def test_opposed_anchors_add_their_spread(self):
        # Mean term 0, trace 2, anchor variance around centroid 1.
        anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        assert closed_form(q, [0, 1], anchors) == pytest.approx(3.0, abs=1e-12)

    def test_constant_term_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            anchors = rng.standard_normal((n, d))
            positives = rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False)
            selected = anchors[positives]
            ebar = selected.mean(axis=0)
            const = np.mean(np.sum(selected**2, axis=1)) - np.sum(ebar**2)
            assert const >= -1e-12
            # The closed form with q centered at the centroid and zero
            # variance reduces to exactly that constant.
            q = GaussianPosterior(mean=ebar, logvar=np.full(d, -np.inf))
            assert closed_form(q, positives, anchors) == \
                pytest.approx(const, abs=1e-12)

    def test_invariant_to_positive_order(self):
        # CSR rows storing the same positives in two orders give the same
        # values, and so does each row on its own: rows of a batch are
        # independent.
        rng = np.random.default_rng(1)
        anchors = rng.standard_normal((6, 3))
        mu = rng.standard_normal((2, 3))
        var = np.exp(rng.uniform(-1, 1, (2, 3)))
        indptr = np.array([0, 3, 4])
        values, ebar, weight = alignment_closed_form(
            mu, var, indptr, np.array([0, 2, 5, 1]), anchors)
        np.testing.assert_allclose(
            ebar, [anchors[[0, 2, 5]].mean(axis=0), anchors[1]], atol=1e-15)
        np.testing.assert_array_equal(weight, [1 / 3, 1 / 3, 1 / 3, 1.0])
        for order in ([5, 0, 2, 1], [2, 5, 0, 1]):
            got, _, _ = alignment_closed_form(mu, var, indptr,
                                              np.array(order), anchors)
            np.testing.assert_allclose(got, values, rtol=0.0, atol=1e-15)
        for r, positives in enumerate(([0, 2, 5], [1])):
            row, _, _ = alignment_closed_form(mu[r:r + 1], var[r:r + 1],
                                              np.array([0, len(positives)]),
                                              np.array(positives), anchors)
            assert row[0] == pytest.approx(values[r], abs=1e-15)


def row_major_oracle(q, anchors, positives, n_samples, rng):
    """The oracle computed row-major: samples in the rows of an
    (n_samples, d) array, each anchor's squared distance a row sum. The
    oracle it replaced, which added the coordinates of each sample left to
    right, gave the same bits up to d = 7, so `prop1` values at a fixed
    sample count did not move with it."""
    idx = np.asarray(positives, dtype=np.int64)
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


def oracle_pair(q, anchors, positives, n_samples, seed):
    """(oracle, row-major reference) on the same draws."""
    return (alignment_mc_standard_error(q, anchors, positives, n_samples,
                                        np.random.default_rng(seed)),
            row_major_oracle(q, anchors, positives, n_samples,
                             np.random.default_rng(seed)))


class TestOracleMatchesRowMajorReference:
    # numpy sums fewer than 8 terms of a row left to right, so up to d = 7
    # any literal oracle that adds coordinates in order agrees bit for bit.
    @pytest.mark.parametrize("d", range(1, 8))
    def test_bit_identical_up_to_seven_dimensions(self, d):
        rng = np.random.default_rng(100 + d)
        for n_anchors in range(1, 8):
            anchors = rng.standard_normal((n_anchors, d))
            logvar = rng.uniform(-2.0, 1.0, d)
            logvar[n_anchors % d] = -np.inf
            q = GaussianPosterior(mean=rng.standard_normal(d), logvar=logvar)
            positives = rng.integers(0, n_anchors, size=n_anchors + 2)
            for n_samples in (2, 3000):
                got, want = oracle_pair(q, anchors, positives, n_samples,
                                        seed=n_anchors)
                assert got == want

    @pytest.mark.parametrize("d", [8, 200])
    def test_within_last_bit_beyond_seven_dimensions(self, d):
        rng = np.random.default_rng(200 + d)
        anchors = rng.standard_normal((5, d))
        q = GaussianPosterior(mean=rng.standard_normal(d),
                              logvar=rng.uniform(-2.0, 1.0, d))
        got, want = oracle_pair(q, anchors, [0, 1, 1, 4], 3000, seed=d)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w)


class TestAnchorShapes:
    # Broadcasting alone would accept anchors narrower than the posterior.
    def test_closed_form_rejects_anchor_width(self):
        with pytest.raises(ShapeError, match="anchors"):
            alignment_closed_form(np.zeros((1, 3)), np.ones((1, 3)),
                                  np.array([0, 2]), np.array([0, 1]),
                                  np.ones((2, 1)))

    @pytest.mark.parametrize("positive", [-1, 3])
    def test_closed_form_rejects_positive_out_of_range(self, positive):
        # The sparse product would read past the anchor table.
        with pytest.raises(ValueError, match=f"positive {positive} "):
            alignment_closed_form(np.zeros((1, 2)), np.ones((1, 2)),
                                  np.array([0, 2]), np.array([0, positive]),
                                  np.ones((3, 2)))

    def test_oracle_rejects_anchor_width(self):
        q = GaussianPosterior(mean=np.zeros(3), logvar=np.zeros(3))
        with pytest.raises(ShapeError, match="anchors"):
            alignment_mc_standard_error(q, np.ones((2, 1)), [0, 1], 100,
                                        np.random.default_rng(0))

    @pytest.mark.parametrize("positive", [-1, 3])
    def test_oracle_rejects_positive_out_of_range(self, positive):
        # Indexing alone would wrap -1 to the last anchor.
        q = GaussianPosterior(mean=np.zeros(2), logvar=np.zeros(2))
        with pytest.raises(ValueError, match=f"positive {positive} "):
            alignment_mc_standard_error(q, np.ones((3, 2)), [0, positive], 100,
                                        np.random.default_rng(0))


class TestAlignmentMcOracle:
    def test_zero_variance_single_anchor_exact(self):
        anchors = np.array([[0.4, 0.9]])
        q = GaussianPosterior(mean=[0.4, 0.9], logvar=[-np.inf, -np.inf])
        rng = np.random.default_rng(2)
        assert alignment_mc_standard_error(q, anchors, [0], 1000, rng) == (0.0, 0.0)

    def test_reproduces_unit_variance_case(self):
        anchors = np.zeros((1, 2))
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        rng = np.random.default_rng(3)
        mc, se = alignment_mc_standard_error(q, anchors, [0], 100_000, rng)
        assert abs(mc - 2.0) < 3 * se

    def test_reproduces_opposed_anchor_case(self):
        anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        rng = np.random.default_rng(4)
        mc, se = alignment_mc_standard_error(q, anchors, [0, 1], 100_000, rng)
        assert abs(mc - 3.0) < 3 * se

    def test_fixed_seed_reproducible(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        anchors = np.random.default_rng(6).standard_normal((4, 3))
        q = GaussianPosterior(mean=[0.1, -0.2, 0.3], logvar=[0.5, -0.5, 0.0])
        a = alignment_mc_standard_error(q, anchors, [0, 2], 5000, rng_a)
        b = alignment_mc_standard_error(q, anchors, [0, 2], 5000, rng_b)
        assert a == b

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n_samples):
        # One sample has no standard error (ddof=1 would divide by zero).
        anchors = np.zeros((1, 2))
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        with pytest.raises(ValueError, match="n_samples"):
            alignment_mc_standard_error(q, anchors, [0], n_samples,
                                        np.random.default_rng(0))

    @pytest.mark.parametrize("positives", [[], np.array([], dtype=np.int64)])
    def test_empty_positives_rejected(self, positives):
        anchors = np.zeros((3, 2))
        q = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        with pytest.raises(NumericalError, match="at least one positive"):
            alignment_mc_standard_error(q, anchors, positives, 100,
                                        np.random.default_rng(0))


# Three wrong closed forms, each with alignment_closed_form's signature.
def without_trace(mu, var, indptr, indices, anchors):
    values, ebar, weight = alignment_closed_form(mu, var, indptr, indices,
                                                 anchors)
    return values - np.sum(var, axis=1), ebar, weight


def without_spread(mu, var, indptr, indices, anchors):
    _, ebar, weight = alignment_closed_form(mu, var, indptr, indices, anchors)
    return np.sum((mu - ebar) ** 2, axis=1) + np.sum(var, axis=1), ebar, weight


def first_anchor_for_centroid(mu, var, indptr, indices, anchors):
    values, ebar, weight = alignment_closed_form(mu, var, indptr, indices,
                                                 anchors)
    first = anchors[indices[indptr[:-1]]]
    spread = values - np.sum((mu - ebar) ** 2, axis=1) - np.sum(var, axis=1)
    return (np.sum((mu - first) ** 2, axis=1) + np.sum(var, axis=1) + spread,
            ebar, weight)


class TestProp1Gate:
    # Each mutant is wrong wherever a user has two or more positives, so the
    # exact part must fail there, at any seed; one positive makes the last
    # two no-ops. The Monte-Carlo part must catch each mutant too, so the
    # gate does not rest on the exact part alone.
    @pytest.mark.parametrize("mutant", [without_trace, without_spread,
                                        first_anchor_for_centroid])
    def test_mutated_closed_form_fails(self, monkeypatch, mutant):
        monkeypatch.setattr(suites, "alignment_closed_form", mutant)
        instances = [r.values for r in suites.suite_prop1(seed=0)
                     if "positives" in r.values]
        shared = [v for v in instances if v["positives"] >= 2]
        assert len(instances) == suites.PROP1_INSTANCES and shared
        assert all(v["literal_slack"] > 0.0 for v in shared)
        assert any(v["mc_slack"] > 0.0 for v in instances)


class TestPiaLossAndGrads:
    def test_lambda_zero_is_bitwise_plain_vae(self):
        # Anchors present, so the kernel aligns, but at lambda 0: the model
        # without anchors, bit for bit, and a zero anchor gradient over the
        # batch's items.
        p = tiny_params(seed=30, with_anchors=True)
        rng = np.random.default_rng(31)
        x = (rng.random((4, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        batch = to_csr(x)
        cfg = TrainConfig(hidden_dim=8, latent_dim=4)
        loss_a, grads_a = loss_and_grads(replace(p, anchors=None), *batch, cfg,
                                         np.random.default_rng(9))
        loss_b, grads_b = loss_and_grads(p, *batch, cfg, np.random.default_rng(9),
                                         lambda_a=0.0)
        assert grads_b[-1][0].tolist() == (x.sum(axis=0) > 0).tolist()
        grads_a = pack_grads(replace(p, anchors=None), grads_a)
        grads_b = pack_grads(p, grads_b)
        assert loss_a == loss_b
        assert grads_a.tobytes() == grads_b[:grads_a.size].tobytes()
        assert not grads_b[grads_a.size:].any()

    def test_gradient_check_including_anchors(self):
        p = tiny_params(seed=32, with_anchors=True)
        rng = np.random.default_rng(33)
        x = (rng.random((4, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        keep = rng.random(indices.size) < 0.5
        noise = rng.standard_normal((4, 4))
        theta = pack_params(p)
        grads = pack_grads(p, loss_and_grads_fixed(
            p, indptr, indices, keep, noise, beta=0.2, lambda_a=1.5)[1])

        def loss_fn(vec):
            return loss_and_grads_fixed(unpack_params(vec, p), indptr, indices,
                                        keep, noise, beta=0.2, lambda_a=1.5)[0]

        assert finite_diff_check(loss_fn, theta, grads) < 1e-4

    def test_absent_items_get_zero_anchor_gradient(self):
        p = tiny_params(seed=34, with_anchors=True)
        indptr, indices = [0, 2, 4], [1, 3, 3, 7]
        noise = np.zeros((2, 4))
        _, grads = loss_and_grads_fixed(p, np.array(indptr), np.array(indices),
                                        np.ones(4, dtype=bool), noise,
                                        beta=0.0, lambda_a=2.0)
        grads = pack_grads(p, grads)
        anchor_grads = grads[-p.anchors.size:].reshape(p.anchors.shape)
        touched = {1, 3, 7}
        for item in range(20):
            if item not in touched:
                assert not anchor_grads[item].any()
        for item in touched:
            assert anchor_grads[item].any()

    def test_alignment_never_changes_decoder_gradients(self):
        p = tiny_params(seed=35, with_anchors=True)
        rng = np.random.default_rng(36)
        x = (rng.random((3, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        indptr, indices = to_csr(x)
        keep, noise = draw_mask_and_noise(indptr, 4, 0.5,
                                          np.random.default_rng(8))
        _, g0 = loss_and_grads_fixed(p, indptr, indices, keep, noise, beta=0.2,
                                     lambda_a=0.0)
        _, g1 = loss_and_grads_fixed(p, indptr, indices, keep, noise, beta=0.2,
                                     lambda_a=4.0)
        # Decoder block sits between the encoder weights and the anchors.
        enc_size = (p.enc_w1.size + p.enc_b1.size + p.enc_w_mu.size
                    + p.enc_b_mu.size + p.enc_w_lv.size + p.enc_b_lv.size)
        dec_size = p.dec_w.size + p.dec_b.size
        g0, g1 = pack_grads(p, g0), pack_grads(p, g1)
        dec0 = g0[enc_size:enc_size + dec_size]
        dec1 = g1[enc_size:enc_size + dec_size]
        assert dec0.tobytes() == dec1.tobytes()

    def test_alignment_strength_adds_penalty_and_anchor_block(self):
        p = tiny_params(seed=37)
        anchors = 0.2 * np.random.default_rng(38).standard_normal((20, 4))
        rng = np.random.default_rng(39)
        x = (rng.random((3, 20)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        batch = to_csr(x)
        cfg = TrainConfig(hidden_dim=8, latent_dim=4)
        loss_pia, grads_pia = loss_and_grads(replace(p, anchors=anchors),
                                             *batch, cfg, np.random.default_rng(3),
                                             lambda_a=8.0)
        loss_vae, _ = loss_and_grads(p, *batch, cfg, np.random.default_rng(3))
        assert loss_pia > loss_vae  # alignment penalty is nonnegative
        grads_pia = pack_grads(replace(p, anchors=anchors), grads_pia)
        assert grads_pia.size == pack_params(p).size + anchors.size


def scripted_lambdas(monkeypatch, ndcgs, **pia_settings):
    """The alignment strength fit logs for each epoch when the validation
    NDCG@100 of the epochs is the sequence ndcgs."""
    script = iter(ndcgs)
    monkeypatch.setattr(evaluate, "stratified_report", lambda *args, **kw:
                        MetricReport(recall={}, ndcg={100: next(script)},
                                     n_users=0))
    cfg = TrainConfig(epochs=len(ndcgs), batch_size=64, hidden_dim=6,
                      latent_dim=3)
    _, log = fit(small_split(), cfg, PiaConfig(**pia_settings))
    assert [rec["epoch"] for rec in log] == list(range(1, len(ndcgs) + 1))
    return [rec["lambda_a"] for rec in log]


class TestLambdaSchedule:
    # The log records the strength in force during each epoch, so a change
    # decided after epoch e shows at epoch e + 1.
    def test_improving_sequence_never_scales(self, monkeypatch):
        lambdas = scripted_lambdas(monkeypatch, [0.1, 0.2, 0.3, 0.4],
                                   lambda_a=8.0, lambda_scale=2.0, patience=5)
        assert lambdas == [8.0, 8.0, 8.0, 8.0]

    def test_flat_sequence_scales_at_patience(self, monkeypatch):
        # Best at epoch 1, then five stalls: the fifth scales.
        lambdas = scripted_lambdas(monkeypatch, [0.5] * 7, lambda_a=8.0,
                                   lambda_scale=2.0, patience=5)
        assert lambdas == [8.0] * 6 + [16.0]

    def test_default_schedule_doubles_on_every_later_stall(self, monkeypatch):
        # Best at epoch 1: once it is 5 epochs back, every further stalled
        # epoch doubles the strength again; the count does not restart.
        lambdas = scripted_lambdas(monkeypatch, [0.5] * 12)
        assert lambdas == [8.0] * 6 + [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]

    def test_patience_one_doubles_on_every_stall(self, monkeypatch):
        values = [0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.3]
        lambdas = scripted_lambdas(monkeypatch, values, lambda_a=8.0,
                                   lambda_scale=2.0, patience=1)
        assert lambdas == [8.0, 8.0, 16.0, 16.0, 32.0, 32.0, 64.0]

    def test_lambda_never_decreases_and_scales_exactly(self, monkeypatch):
        values = np.random.default_rng(40).random(60).tolist()
        lambdas = scripted_lambdas(monkeypatch, values, lambda_a=8.0,
                                   lambda_scale=2.0, patience=3)
        ratios = [b / a for a, b in zip(lambdas, lambdas[1:])]
        assert set(ratios) == {1.0, 2.0}

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            PiaConfig(lambda_a=0.0)
        with pytest.raises(ValueError):
            PiaConfig(lambda_scale=1.0)
        with pytest.raises(ValueError):
            PiaConfig(patience=0)
