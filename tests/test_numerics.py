import math

import numpy as np
import pytest

from piavae.errors import NumericalError, ShapeError
from piavae.numerics import (ADAM_BLOCK, FD_STEP, AdamState, GaussianPosterior,
                             adam_step, finite_diff_check, kl_diag_gaussian)
from tests.test_model import multinomial_loglik


class TestGaussianPosterior:
    def test_logvar_clamped_at_construction(self):
        q = GaussianPosterior(mean=[0.0], logvar=[50.0])
        assert q.logvar[0] == 20.0
        q = GaussianPosterior(mean=[0.0], logvar=[-50.0])
        assert q.logvar[0] == -20.0

    def test_neg_inf_logvar_means_zero_variance(self):
        q = GaussianPosterior(mean=[1.0], logvar=[-np.inf])
        assert q.var[0] == 0.0
        assert q.std[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            GaussianPosterior(mean=[0.0, 1.0], logvar=[0.0])


class TestKlDiagGaussian:
    def test_prior_equals_posterior_gives_zero(self):
        q = GaussianPosterior(mean=np.zeros(4), logvar=np.zeros(4))
        assert kl_diag_gaussian(q) == 0.0

    def test_unit_mean_shift(self):
        # 1/2 (mu^2 + 1 - 1 - 0) = 1/2
        q = GaussianPosterior(mean=[1.0], logvar=[0.0])
        assert kl_diag_gaussian(q) == pytest.approx(0.5, abs=1e-15)

    def test_variance_four(self):
        # 1/2 (0 + 4 - 1 - ln 4) = 0.806853...
        q = GaussianPosterior(mean=[0.0], logvar=[math.log(4.0)])
        expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
        assert kl_diag_gaussian(q) == pytest.approx(expected, abs=1e-12)
        assert kl_diag_gaussian(q) == pytest.approx(0.806853, abs=1e-6)

    def test_nonnegative_with_equality_only_at_prior(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d = int(rng.integers(1, 8))
            q = GaussianPosterior(mean=rng.standard_normal(d),
                                  logvar=rng.uniform(-5, 5, d))
            kl = kl_diag_gaussian(q)
            assert kl >= 0.0
            if np.any(q.mean != 0.0) or np.any(q.logvar != 0.0):
                assert kl > 0.0

    def test_unit_prior_is_bitwise_the_standard_formula(self):
        # Dividing by C = 1 and subtracting log 1 = 0 are exact, so the
        # scaled-prior formula gives the N(0, I) formula's bits, row by row.
        rng = np.random.default_rng(8)
        q = GaussianPosterior(mean=rng.standard_normal((50, 6)),
                              logvar=rng.uniform(-5, 5, (50, 6)))
        expected = 0.5 * np.sum(q.mean**2 + q.var - 1.0 - q.logvar, axis=1)
        assert kl_diag_gaussian(q).tobytes() == expected.tobytes()
        assert kl_diag_gaussian(q, prior_var=1.0).tobytes() == expected.tobytes()

    def test_scaled_prior(self):
        # KL(N(m, s2) || N(0, C)) = 1/2 ((m^2 + s2) / C - 1 - ln(s2 / C)).
        q = GaussianPosterior(mean=[1.5], logvar=[math.log(0.5)])
        expected = 0.5 * ((1.5**2 + 0.5) / 2.0 - 1.0 - math.log(0.5 / 2.0))
        assert kl_diag_gaussian(q, 2.0) == pytest.approx(expected, abs=1e-15)
        with pytest.raises(ValueError):
            kl_diag_gaussian(q, 0.0)


class TestMultinomialLoglik:
    # The reference loss that tests/test_model.py checks the kernel against.
    def test_empty_target_is_zero(self):
        assert multinomial_loglik(np.array([3.0, -1.0]), np.zeros(2)) == 0.0

    def test_uniform_logits_single_positive(self):
        ll = multinomial_loglik(np.zeros(4), np.array([1.0, 0, 0, 0]))
        assert ll == pytest.approx(math.log(0.25), abs=1e-12)
        assert ll == pytest.approx(-1.386294, abs=1e-6)

    def test_uniform_logits_two_positives(self):
        ll = multinomial_loglik(np.zeros(4), np.array([1.0, 1.0, 0, 0]))
        assert ll == pytest.approx(2 * math.log(0.25), abs=1e-12)
        assert ll == pytest.approx(-2.772589, abs=1e-6)

    def test_softmax_normalization(self):
        # exp(loglik) over all one-hot targets must sum to 1.
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal(6) * 5
            total = sum(
                math.exp(multinomial_loglik(logits, np.eye(6)[i]))
                for i in range(6)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_logits_stable(self):
        ll = multinomial_loglik(np.array([1000.0, 0.0]), np.array([1.0, 0.0]))
        assert np.isfinite(ll)


def textbook_adam(m, v, t, params, grads, lr, b1, b2, eps):
    """Fresh-array reference: the expression adam_step evaluates in place."""
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * grads**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# Piece layouts for adam_step's one block walk: ("dense", shape) or
# ("rows", n_rows, width), a (mask, rows) piece with about a third of its
# rows marked.
B = ADAM_BLOCK
BLOCK_WALKS = {
    "all in one block": [("dense", (3, 5)), ("rows", 10, 4), ("dense", (7,))],
    "boundary in a dense piece": [("rows", 30, 7), ("dense", (100, 500)),
                                  ("dense", (9,))],
    "boundary in a rows piece": [("dense", (20, 1000)), ("rows", 3000, 12),
                                 ("dense", (4, 3))],
    "rows longer than a block": [("dense", (5,)), ("dense", (3, B + 7)),
                                 ("rows", 4, B + 1), ("dense", (2, 6))],
}


class TestAdamStep:
    def test_zero_grads_leave_params_unchanged(self):
        state = AdamState.init(3)
        params = np.array([1.0, -2.0, 3.0])
        new_params, new_state = adam_step(state, params, np.zeros(3))
        assert np.array_equal(new_params, params)
        assert new_state.step_count == 1

    def test_first_step_bias_corrected(self):
        # With bias correction the first update is lr * g / (|g| + eps).
        state = AdamState.init(1, lr=1e-3)
        new_params, _ = adam_step(state, np.zeros(1), np.array([2.0]))
        assert new_params[0] == pytest.approx(-1e-3, abs=1e-8)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal(10)
        grads = rng.standard_normal(10)
        # adam_step updates params in place, so each call gets a copy.
        a, _ = adam_step(AdamState.init(10), params.copy(), grads)
        b, _ = adam_step(AdamState.init(10), params.copy(), grads)
        assert a.tobytes() == b.tobytes()

    def test_in_place_update_is_bitwise_the_textbook_step(self):
        # Fresh-array reference: the expression adam_step evaluates block
        # by block. 200,000 entries span several blocks and a partial one.
        reference = textbook_adam
        rng = np.random.default_rng(1)
        n = 200_000
        params = rng.standard_normal(n)
        state = AdamState.init(n, lr=3e-3)
        want, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 6):
            grads = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
            grads[::7] = 0.0
            got, state = adam_step(state, params, grads)
            want, m, v = reference(m, v, t, want, grads, 3e-3, 0.9, 0.999, 1e-8)
            assert got is params and state.step_count == t
            assert params.tobytes() == want.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()

    @pytest.mark.parametrize("layout", BLOCK_WALKS.values(), ids=BLOCK_WALKS)
    def test_block_walk_gives_the_flat_textbook_bits(self, layout):
        # Blocks take whole rows from consecutive pieces; a piece's
        # unmarked rows are zeros, so the flat gradient is zero-filled
        # there. The moments start with -0.0 entries and .tobytes()
        # compares zero signs.
        rng = np.random.default_rng(5)
        size = sum(math.prod(spec[1]) if spec[0] == "dense"
                   else spec[1] * spec[2] for spec in layout)
        params = rng.standard_normal(size)
        m = rng.standard_normal(size) * (rng.random(size) < 0.5)
        m[::3] = -0.0
        v = m**2
        v[::5] = -0.0
        state = AdamState(m.copy(), v.copy(), 4, 1e-2)
        want = params.copy()
        for t in range(5, 8):
            pieces, flat = [], []
            for spec in layout:
                if spec[0] == "dense":
                    piece = rng.standard_normal(spec[1])
                    piece.ravel()[::4] = -0.0
                    pieces.append(piece)
                    flat.append(piece.ravel())
                else:
                    _, n_rows, width = spec
                    mark = rng.random(n_rows) < 0.35
                    mark[0] = True
                    rows = rng.standard_normal((mark.sum(), width))
                    pieces.append((mark, rows))
                    full = np.zeros((n_rows, width))
                    full[mark] = rows
                    flat.append(full.ravel())
            flat = np.concatenate(flat)
            adam_step(state, params, pieces)
            want, m, v = textbook_adam(m, v, t, want, flat, 1e-2, 0.9, 0.999,
                                       1e-8)
            assert params.tobytes() == want.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()

    def test_layout_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(AdamState.init(3), np.zeros(3), np.zeros(4))

    def test_malformed_pieces_are_refused(self):
        # A flat gradient is 1-D; a mask is boolean, one True per given row.
        state, params = AdamState.init(4), np.zeros(4)
        for grads in (np.zeros((2, 2)),
                      [(np.array([1, 1]), np.zeros((2, 2)))],
                      [(np.array([True, False]), np.zeros((2, 2)))]):
            with pytest.raises(ShapeError):
                adam_step(state, params, grads)
        with pytest.raises(TypeError):
            adam_step(state, params, [0.0, 0.0, 0.0, 0.0])
        assert state.step_count == 0 and not params.any()


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(1)
        params = rng.standard_normal(6)
        err = finite_diff_check(lambda t: 0.5 * np.sum(t**2), params, params)
        assert err < 1e-9

    def test_sine_within_truncation_error(self):
        rng = np.random.default_rng(2)
        params = rng.uniform(-1, 1, 5)
        h = FD_STEP
        err = finite_diff_check(lambda t: np.sum(np.sin(t)), params,
                                np.cos(params))
        assert err < 10 * h**2

    def test_wrong_gradient_detected(self):
        rng = np.random.default_rng(3)
        params = rng.standard_normal(4) + 2.0
        err = finite_diff_check(lambda t: 0.5 * np.sum(t**2), params,
                                2.0 * params)
        assert err == pytest.approx(0.5, abs=1e-3)

    def test_non_finite_loss_raises(self):
        with pytest.raises(NumericalError):
            finite_diff_check(lambda t: float("nan"), np.ones(2), np.ones(2))
