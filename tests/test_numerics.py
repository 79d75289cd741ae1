import ctypes
import math
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from piavae import numerics
from piavae.errors import NumericalError, ShapeError
from piavae.numerics import (ADAM_BLOCK, ENTRY_WORK, FD_STEP, SPLIT_ALIGN,
                             SPLIT_FLOOR, AdamState, GaussianPosterior,
                             adam_step, finite_diff_check, kl_diag_gaussian,
                             split, split_matmul)
from tests.test_model import multinomial_loglik, spy_ranges


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

    @pytest.mark.parametrize("prior_var", [np.nan, np.inf, -np.inf, -1.0])
    def test_prior_var_must_be_finite_and_positive(self, prior_var):
        # NaN would give a NaN KL and +inf an infinite one, silently.
        q = GaussianPosterior(mean=[1.5, 0.0], logvar=[0.0, -1.0])
        with pytest.raises(ValueError, match="finite and > 0"):
            kl_diag_gaussian(q, prior_var)


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
        state = AdamState.init(3, lr=1e-3)
        params = np.array([1.0, -2.0, 3.0])
        new_params, new_state = adam_step(state, params, [np.zeros(3)])
        assert np.array_equal(new_params, params)
        assert new_state.step_count == 1

    def test_first_step_bias_corrected(self):
        # With bias correction the first update is lr * g / (|g| + eps).
        state = AdamState.init(1, lr=1e-3)
        new_params, _ = adam_step(state, np.zeros(1), [np.array([2.0])])
        assert new_params[0] == pytest.approx(-1e-3, abs=1e-8)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal(10)
        grads = rng.standard_normal(10)
        # adam_step updates params in place, so each call gets a copy.
        a, _ = adam_step(AdamState.init(10, lr=1e-3), params.copy(), [grads])
        b, _ = adam_step(AdamState.init(10, lr=1e-3), params.copy(), [grads])
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
            got, state = adam_step(state, params, [grads])
            want, m, v = reference(m, v, t, want, grads, 3e-3, 0.9, 0.999, 1e-8)
            assert got is params and state.step_count == t
            assert params.tobytes() == want.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()

    @pytest.mark.parametrize("layout", BLOCK_WALKS.values(), ids=BLOCK_WALKS)
    @pytest.mark.same_bits
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
            adam_step(AdamState.init(3, lr=1e-3), np.zeros(3), [np.zeros(4)])

    def test_malformed_pieces_are_refused(self):
        # A mask is boolean, one True per given row.
        state, params = AdamState.init(4, lr=1e-3), np.zeros(4)
        for grads in ([(np.array([1, 1]), np.zeros((2, 2)))],
                      [(np.array([True, False]), np.zeros((2, 2)))]):
            with pytest.raises(ShapeError):
                adam_step(state, params, grads)
        with pytest.raises(TypeError):
            adam_step(state, params, [0.0, 0.0, 0.0, 0.0])
        assert state.step_count == 0 and not params.any()


    @pytest.mark.same_bits
    def test_split_walk_gives_the_textbook_bits(self, monkeypatch):
        # At SPLIT_FLOOR / ENTRY_WORK entries the walk is split, each range
        # with its own scratch; a dense piece and a masked one meet inside
        # a block. Moments start with -0.0 entries.
        ranges = spy_ranges(monkeypatch)
        rng = np.random.default_rng(6)
        n_rows, width = 1000, 7
        dense = SPLIT_FLOOR // ENTRY_WORK - n_rows * width + 3
        params = rng.standard_normal(dense + n_rows * width)
        m = rng.standard_normal(params.size) * (rng.random(params.size) < 0.5)
        m[::3] = -0.0
        state, v = AdamState(m.copy(), m**2, 2, 1e-2), m**2
        mark = rng.random(n_rows) < 0.4
        rows = rng.standard_normal((mark.sum(), width))
        flat = np.zeros(params.size)
        flat[:dense] = rng.standard_normal(dense)
        flat[dense:].reshape(n_rows, width)[mark] = rows
        want = textbook_adam(m, v, 3, params, flat, 1e-2, 0.9, 0.999, 1e-8)
        adam_step(state, params, [flat[:dense], (mark, rows)])
        assert len(ranges) == 2
        assert params.tobytes() == want[0].tobytes()
        assert state.first_moment.tobytes() == want[1].tobytes()
        assert state.second_moment.tobytes() == want[2].tobytes()


# (rows, inner, columns) of a @ b: the 14 x 5000 x 3 edge case, 1-3 rows,
# widths off the tile sizes, and shapes just above SPLIT_FLOOR. The first
# of those has too few columns to cut; its transpose has enough.
SPLIT_SHAPES = [(14, 3, 5000), (1, 200, 5000), (2, 64, 3001), (3, 7, 4097),
                (385, 5, 385), (700, 33, 700), (449, 544, 1203)]
ABOVE_FLOOR = [(500, 2000, 201), (201, 2000, 500), (500, 201, 2000),
               (88, 200, 11_367)]


class TestSplit:
    # A product split over output columns gives the one call's bits, in
    # every operand layout the model uses.
    @pytest.mark.parametrize("shape", SPLIT_SHAPES + ABOVE_FLOOR)
    @pytest.mark.parametrize("layout", ["a @ w.T", "a.T @ b", "a @ w"])
    @pytest.mark.same_bits
    def test_split_matmul_gives_the_one_call_bits(self, shape, layout,
                                                  monkeypatch):
        m, k, n = shape
        if shape not in ABOVE_FLOOR:
            monkeypatch.setattr(numerics, "SPLIT_FLOOR", 0)
        rng = np.random.default_rng(m * n + k)
        a, b = {"a @ w.T": (rng.standard_normal((m, k)),
                            rng.standard_normal((n, k)).T),
                "a.T @ b": (rng.standard_normal((k, m)).T,
                            rng.standard_normal((k + 5, n))[5:]),
                "a @ w": (rng.standard_normal((m, k)),
                          rng.standard_normal((k, n)))}[layout]
        ranges = spy_ranges(monkeypatch)
        got = split_matmul(a, b)
        assert got.tobytes() == (a @ b).tobytes()
        bounds = sorted(r[:2] for r in ranges)
        assert len(bounds) == 1 + (n >= 2 * SPLIT_ALIGN)
        assert all(lo % SPLIT_ALIGN == 0 and hi - lo >= SPLIT_ALIGN
                   for lo, hi in bounds[1:])

    def test_work_under_the_floor_stays_on_the_calling_thread(self):
        threads = []
        split(lambda lo, hi: threads.append(
            (lo, hi, threading.get_ident())), 10_000, SPLIT_FLOOR - 1)
        assert threads == [(0, 10_000, threading.get_ident())]

    def test_one_worker_runs_one_range(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 1)
        ranges = []
        split(lambda lo, hi: ranges.append((lo, hi)), 1000, SPLIT_FLOOR)
        assert ranges == [(0, 1000)]

    def test_ranges_tile_and_run_on_two_threads(self):
        seen = []
        split(lambda lo, hi: seen.append((lo, hi, threading.get_ident())),
              1000, SPLIT_FLOOR)
        seen.sort()
        assert [s[:2] for s in seen] == [(0, 500), (500, 1000)]
        assert seen[0][2] == threading.get_ident() != seen[1][2]

    def test_pool_range_runs_under_the_callers_errstate(self):
        # Tier-1 turns RuntimeWarning into an error: an overflow in the
        # pool thread raises there unless the caller's errstate goes along.
        def overflow(lo, hi):
            np.exp(np.full(4, 1000.0))

        with np.errstate(over="ignore"):
            split(overflow, 1000, SPLIT_FLOOR)
        with pytest.raises(RuntimeWarning, match="overflow"):
            split(lambda lo, hi: lo and overflow(lo, hi), 1000,
                  SPLIT_FLOOR)

    def test_new_pool_thread_steps_off_the_callers_core(self, monkeypatch):
        # It starts on another core than its creator and keeps every core
        # the caller may use.
        libc, seen = ctypes.CDLL(None), {}
        monkeypatch.setattr(numerics, "_POOL", None)
        core = libc.sched_getcpu()
        try:
            split(lambda lo, hi: seen.update(
                {lo: (libc.sched_getcpu(), os.sched_getaffinity(0))}),
                1000, SPLIT_FLOOR)
        finally:
            numerics._POOL.shutdown()
        assert seen[500][1] == os.sched_getaffinity(0)
        assert seen[500][0] != core or len(os.sched_getaffinity(0)) == 1

    @pytest.mark.same_bits
    def test_concurrent_callers_each_get_the_one_call_bits(self, monkeypatch):
        # Six callers share a fresh pool of two threads (more workers than
        # cores) with the interpreter switching threads every microsecond:
        # a range lost, run twice or written into another call's output
        # changes some result's bits.
        monkeypatch.setattr(numerics, "_POOL", None)
        monkeypatch.setattr(numerics, "WORKERS", 3)
        monkeypatch.setattr(numerics, "SPLIT_FLOOR", 0)
        rng = np.random.default_rng(12)
        pairs = [(rng.standard_normal((600, 9)), rng.standard_normal((9, 700)))
                 for _ in range(6)]
        bad = []

        def caller(a, b):
            for _ in range(20):
                if split_matmul(a, b).tobytes() != (a @ b).tobytes():
                    bad.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=pair)
                       for pair in pairs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            numerics._POOL.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []

    def test_forked_child_starts_its_own_pool(self):
        # The parent's pool thread does not exist in a fork; a child that
        # queued work on the inherited pool would wait forever (the alarm
        # ends it instead).
        code = textwrap.dedent("""
            import os, signal, numpy as np
            from piavae import numerics
            a, b = np.ones((4, 3)), np.ones((3, 500))
            numerics.SPLIT_FLOOR = 0
            numerics.split_matmul(a, b)
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                os._exit(int(numerics.split_matmul(a, b).sum() != 6000))
            print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(numerics.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "0", out.stderr

    def test_pool_exception_is_raised_after_every_range_ends(self):
        done = []

        def work(lo, hi):
            if lo:
                raise ValueError(f"range from {lo}")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="range from"):
            split(work, 1000, SPLIT_FLOOR)
        assert done == [0]


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
