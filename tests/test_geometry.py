import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import piavae
from piavae import geometry, suites
from piavae.errors import ShapeError
from piavae.geometry import (GeometryReport, _binom_pmf, contraction_bound,
                             dataset_bound_report, expansion_bound,
                             export_latents, jensen_gap_bernoulli,
                             masked_distance_enumerate,
                             masked_distance_exact,
                             pairwise_decomposition_check,
                             quadratic_minimizers, quadratic_toy,
                             row_gradients, t1_bound_check, w1_1d_numeric,
                             w2_diag_gaussian)
from piavae.corpus import matrix_from_rows
from piavae.model import (loss_and_grads_fixed, pack_grads, pack_params,
                          posterior_means, unpack_params)
from piavae.numerics import GaussianPosterior, kl_diag_gaussian
from tests.test_model import encode_one, tiny_params


def test_suites_import_leaves_scipy_stats_unloaded():
    # The geometry lab's set-up is this import in a fresh interpreter:
    # 0.03-0.06 s on a 2-core x86_64 machine, where importing scipy.stats
    # (for a chi-squared p-value, say) adds 0.5-0.8 s. Ranking, event
    # reading and the command line are not the lab's, so it loads none
    # of them either; scipy.sparse waits for the first sparse product.
    env = {**os.environ, "PYTHONPATH": str(Path(piavae.__file__).parents[1])}
    unloaded = ("scipy.stats", "scipy.sparse", "piavae.evaluate",
                "piavae.events", "piavae.cli")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, piavae.suites; "
         f"print([m for m in {unloaded!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


class TestGeometryReport:
    def test_tolerance_without_value_rejected(self):
        with pytest.raises(ValueError, match=r"\['slack'\]"):
            GeometryReport("r", {"gap": 0.0}, {"gap": 1.0, "slack": 0.0})


def pair_vectors(h, s):
    """A binary pair with s shared positives and h disagreements."""
    x_u = np.zeros(h + s)
    x_v = np.zeros(h + s)
    x_u[:h + s] = 1.0
    x_v[:s] = 1.0
    return x_u, x_v


class TestMaskedDistanceBounds:
    def test_identical_empty_overlap_pair_never_moves(self):
        assert contraction_bound(0, 0, 0.5, 1.0) == 1.0
        assert contraction_bound(0, 0, 0.3, 5.0) == 1.0

    def test_contraction_hand_case(self):
        # h=2, s=1, rho=0.5, delta=1: 0.5 * C(2,0) * 0.25 = 0.125.
        val = contraction_bound(2, 1, 0.5, 1.0)
        assert val == pytest.approx(0.125, abs=1e-15)

    def test_contraction_tight_at_single_disagreement(self):
        val = contraction_bound(1, 0, 0.5, 1.0)
        assert val == pytest.approx(0.5, abs=1e-15)
        table = masked_distance_exact(1, 0, 0.5)
        assert float(table[0]) == pytest.approx(0.5, abs=1e-15)  # bound is tight

    def test_expansion_empty_overlap(self):
        assert expansion_bound(0, 0.5, 1.0) == 0.0

    def test_expansion_hand_case(self):
        # s=2, rho=0.5: p = 0.5; P[Bin(2, 0.5) >= 1] = 0.75.
        assert expansion_bound(2, 0.5, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_expansion_beyond_support_is_zero(self):
        assert expansion_bound(1, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("h, s", [(-1, 0), (0, -1)])
    def test_negative_counts_rejected(self, h, s):
        with pytest.raises(ValueError, match="nonnegative"):
            contraction_bound(h, s, 0.5, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            masked_distance_exact(h, s, 0.5)

    def test_bounds_hold_on_grid_sample(self):
        for h in range(0, 6):
            for s in range(0, 6):
                for rho in (0.1, 0.5, 0.9):
                    table = masked_distance_exact(h, s, rho)
                    for delta in (1.0, 2.0, 3.0):
                        lt = float(np.sum(table[:math.ceil(delta)]))
                        ge = float(np.sum(table[math.ceil(delta):]))
                        assert lt >= contraction_bound(h, s, rho, delta) - 1e-12
                        assert ge >= expansion_bound(s, rho, delta) - 1e-12

    def test_bounds_match_their_binomial_sums(self):
        # The binomial tails summed term by term, as the bounds' formulas
        # read; summing the pmf's slices may round differently.
        def term(n, p, k):
            return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)

        for h in range(0, 11):
            for s in range(0, 11):
                for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
                    p = 2.0 * rho * (1.0 - rho)
                    for delta in (0.5, 1.0, 2.5, 3.0, 5.0, 12.0):
                        t = math.ceil(delta)
                        contraction = ((rho**2 + (1.0 - rho) ** 2) ** s
                                       * sum(term(h, rho, k)
                                             for k in range(min(h, t - 1) + 1)))
                        expansion = sum(term(s, p, k) for k in range(t, s + 1))
                        assert contraction_bound(h, s, rho, delta) \
                            == pytest.approx(contraction, rel=0.0, abs=1e-15)
                        assert expansion_bound(s, rho, delta) \
                            == pytest.approx(expansion, rel=0.0, abs=1e-15)


class TestMaskedDistanceExact:
    def test_convolution_hand_case(self):
        # x_u = [1,1,0], x_v = [1,0,1]: h=2, s=1.
        # P[D'=0] = P[Bin(2,.5)=0] * P[Bin(1,.5)=0] = 0.25 * 0.5.
        table = masked_distance_exact(2, 1, 0.5)
        assert table[0] == pytest.approx(0.125, abs=1e-15)

    def test_keep_prob_one_concentrates_at_h(self):
        # x_u = [1,1,0,1], x_v = [1,0,1,1]: h=2, s=2.
        table = masked_distance_exact(2, 2, 1.0)
        assert table[2] == 1.0
        assert table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, s = rng.integers(0, 13, size=2)
            table = masked_distance_exact(int(h), int(s),
                                          float(rng.uniform(0.05, 0.95)))
            assert abs(table.sum() - 1.0) < 1e-12

    def test_enumeration_agrees_with_convolution(self):
        for h in range(0, 9):
            for s in range(0, 9 - h):
                x_u, x_v = pair_vectors(h, s)
                for rho in (0.3, 0.7):
                    conv = masked_distance_exact(h, s, rho)
                    enum = masked_distance_enumerate(x_u, x_v, rho)
                    np.testing.assert_allclose(conv, enum, atol=1e-12)

    def test_enumeration_on_interleaved_supports(self):
        # Disagreements split across both sides, not just one: h=4, s=1.
        x_u = np.array([1.0, 1, 0, 0, 1])
        x_v = np.array([0.0, 1, 1, 1, 0])
        conv = masked_distance_exact(4, 1, 0.4)
        enum = masked_distance_enumerate(x_u, x_v, 0.4)
        np.testing.assert_allclose(conv, enum, atol=1e-12)

    # keep_prob 1 is valid (no coordinate is dropped); beyond (0, 1] the
    # binomial terms are no probabilities and the table sums to 1 anyway.
    @pytest.mark.parametrize("keep_prob", [0.0, -0.5, 1.5, math.nan])
    def test_exact_rejects_keep_prob_outside_unit_interval(self, keep_prob):
        with pytest.raises(ValueError, match="keep_prob"):
            masked_distance_exact(2, 1, keep_prob)

    @pytest.mark.parametrize("keep_prob", [0.0, -0.5, 1.5, math.nan])
    def test_enumerate_rejects_keep_prob_outside_unit_interval(self,
                                                               keep_prob):
        with pytest.raises(ValueError, match="keep_prob"):
            masked_distance_enumerate(*pair_vectors(2, 1), keep_prob)


def thm3_pmf_inputs():
    """Every (n, p) whose binomial pmf the thm3 grid builds; its
    enumeration checks use a subset of them."""
    rhos = suites.MASK_GRID_RHO
    return ({(h, rho) for h in suites.MASK_GRID_H for rho in rhos}
            | {(s, 2.0 * rho * (1.0 - rho))
               for s in suites.MASK_GRID_S for rho in rhos})


class TestBinomPmfMemo:
    # Every caller shares one cached pmf per (n, p).
    def test_cached_pmf_is_read_only(self):
        pmf = _binom_pmf(3, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            pmf[0] = 1.0
        assert _binom_pmf(3, 0.5)[0] == 0.125

    def test_exact_table_is_fresh_and_writable(self):
        table = masked_distance_exact(2, 1, 0.5)
        assert table.flags.writeable
        table[0] = 9.0
        assert masked_distance_exact(2, 1, 0.5)[0] == 0.125

    def test_thm3_repeats_its_reports(self):
        _binom_pmf.cache_clear()
        first = [r.to_dict() for r in suites.suite_thm3()]
        assert first == [r.to_dict() for r in suites.suite_thm3()]

    def test_thm3_pmfs_equal_the_uncached_function(self):
        _binom_pmf.cache_clear()
        suites.suite_thm3()
        built = _binom_pmf.cache_info()
        keys = thm3_pmf_inputs()
        for n, p in keys:
            want = _binom_pmf.__wrapped__(n, p)
            assert _binom_pmf(n, p).tobytes() == want.tobytes()
        # Each key was a hit, and the suite built no pmf outside them.
        assert _binom_pmf.cache_info().misses == built.misses
        assert built.currsize == len(keys) == 99


class TestW2DiagGaussian:
    def test_identical_distributions(self):
        q = GaussianPosterior(mean=[1.0, 2.0], logvar=[0.3, -0.2])
        assert w2_diag_gaussian(q, q) == 0.0

    def test_pure_mean_shift(self):
        a = GaussianPosterior(mean=[0.0, 0.0], logvar=[0.0, 0.0])
        b = GaussianPosterior(mean=[3.0, 4.0], logvar=[0.0, 0.0])
        assert w2_diag_gaussian(a, b) == pytest.approx(5.0, abs=1e-15)

    def test_pure_scale_difference(self):
        a = GaussianPosterior(mean=[0.0], logvar=[0.0])
        b = GaussianPosterior(mean=[0.0], logvar=[2.0 * math.log(3.0)])
        assert w2_diag_gaussian(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_batch_gives_one_distance_per_row(self):
        rng = np.random.default_rng(8)
        a = GaussianPosterior(mean=rng.standard_normal((5, 3)),
                              logvar=rng.uniform(-2, 2, (5, 3)))
        b = GaussianPosterior(mean=rng.standard_normal((5, 3)),
                              logvar=rng.uniform(-2, 2, (5, 3)))
        rows = [w2_diag_gaussian(GaussianPosterior(a.mean[r], a.logvar[r]),
                                 GaussianPosterior(b.mean[r], b.logvar[r]))
                for r in range(5)]
        assert np.array_equal(w2_diag_gaussian(a, b), rows)

    def test_dimension_mismatch(self):
        a = GaussianPosterior(mean=[0.0], logvar=[0.0])
        b = GaussianPosterior(mean=[0.0, 1.0], logvar=[0.0, 0.0])
        with pytest.raises(ShapeError):
            w2_diag_gaussian(a, b)

    def test_matches_explicit_coupling_mc(self):
        # z_b = mu_b + (sigma_b / sigma_a) (z_a - mu_a) realizes W2 for
        # diagonal Gaussians; the sampled mean squared distance must match.
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            a = GaussianPosterior(mean=rng.standard_normal(d),
                                  logvar=rng.uniform(-1.5, 1.5, d))
            b = GaussianPosterior(mean=rng.standard_normal(d),
                                  logvar=rng.uniform(-1.5, 1.5, d))
            n = 100_000
            eps = rng.standard_normal((n, d))
            z_a = a.mean + eps * a.std
            z_b = b.mean + eps * b.std
            sq = np.sum((z_a - z_b) ** 2, axis=1)
            se = np.std(sq, ddof=1) / math.sqrt(n)
            assert abs(sq.mean() - w2_diag_gaussian(a, b) ** 2) <= 3 * se


def w1_midpoint_quadrature(a, b, n_quad=100_000):
    """Reference 1-D W1: |F_a^{-1}(t) - F_b^{-1}(t)| integrated over
    (0, 1) by the midpoint rule on n_quad cells."""
    quantiles = ndtri((np.arange(n_quad) + 0.5) / n_quad)
    return float(np.mean(np.abs((a.mean[0] + a.std[0] * quantiles)
                                - (b.mean[0] + b.std[0] * quantiles))))


class TestW11dNumeric:
    def test_identical_gaussians(self):
        q = GaussianPosterior(mean=[0.3], logvar=[0.4])
        assert w1_1d_numeric(q, q) == 0.0

    def test_pure_shift_is_exact(self):
        # Equal scales: s = 0, so W1 is |m| exactly.
        a = GaussianPosterior(mean=[0.0], logvar=[0.7])
        b = GaussianPosterior(mean=[3.0], logvar=[0.7])
        assert w1_1d_numeric(a, b) == pytest.approx(3.0, rel=0.0, abs=1e-12)
        assert w1_1d_numeric(b, a) == pytest.approx(3.0, rel=0.0, abs=1e-12)

    def test_scale_difference_formula(self):
        # W1(N(0,1), N(0,4)) = (2-1) E|Z| = sqrt(2/pi).
        a = GaussianPosterior(mean=[0.0], logvar=[0.0])
        b = GaussianPosterior(mean=[0.0], logvar=[math.log(4.0)])
        expected = math.sqrt(2.0 / math.pi)
        assert w1_1d_numeric(a, b) == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_matches_midpoint_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(120):
            a = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                  logvar=rng.uniform(-2, 2, 1))
            b = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                  logvar=rng.uniform(-2, 2, 1))
            assert abs(w1_1d_numeric(a, b)
                       - w1_midpoint_quadrature(a, b)) <= 1e-5

    def test_only_1d_accepted(self):
        q = GaussianPosterior(mean=[0.0, 1.0], logvar=[0.0, 0.0])
        with pytest.raises(ShapeError):
            w1_1d_numeric(q, q)


class TestT1BoundCheck:
    def test_prior_pair_trivially_passes(self):
        q = GaussianPosterior(mean=[0.0], logvar=[0.0])
        report = t1_bound_check(q, q, prior_var=1.0)
        assert report.passed
        assert report.values["w1"] == 0.0
        assert report.values["bound"] == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_is_tight(self):
        # KL(N(1,1) || N(0,1)) = 1/2, so bound = sqrt(2 * 0.5) = 1 = W1.
        q_u = GaussianPosterior(mean=[1.0], logvar=[0.0])
        q_v = GaussianPosterior(mean=[0.0], logvar=[0.0])
        report = t1_bound_check(q_u, q_v, prior_var=1.0)
        assert report.passed
        assert report.values["w1"] == 1.0
        assert report.values["bound"] == pytest.approx(1.0, abs=1e-12)

    def test_random_1d_pairs_pass(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                  logvar=rng.uniform(-2, 2, 1))
            b = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                  logvar=rng.uniform(-2, 2, 1))
            assert t1_bound_check(a, b, float(rng.uniform(0.5, 2.0))).passed

    def test_random_8d_pairs_pass_mean_gap_variant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = GaussianPosterior(mean=2 * rng.standard_normal(8),
                                  logvar=rng.uniform(-2, 2, 8))
            b = GaussianPosterior(mean=2 * rng.standard_normal(8),
                                  logvar=rng.uniform(-2, 2, 8))
            report = t1_bound_check(a, b, float(rng.uniform(0.5, 2.0)))
            assert report.passed
            assert "mean_gap" in report.values

    @pytest.mark.parametrize("prior_var", [np.nan, np.inf])
    def test_prior_var_must_be_finite(self, prior_var):
        # An infinite prior variance made the bound infinite, so any pair
        # passed; a NaN one made it NaN.
        q_u = GaussianPosterior(mean=[1.0], logvar=[0.0])
        q_v = GaussianPosterior(mean=[-2.0], logvar=[0.5])
        with pytest.raises(ValueError, match="finite and > 0"):
            t1_bound_check(q_u, q_v, prior_var)

    def test_kl_vs_scaled_prior(self):
        # KL(N(0, C) || N(0, C)) = 0 for any prior variance.
        c = 2.7
        q = GaussianPosterior(mean=[0.0], logvar=[math.log(c)])
        assert kl_diag_gaussian(q, c) == pytest.approx(0.0, abs=1e-14)


class TestDatasetBoundReport:
    def test_encoder_pinned_at_prior(self):
        p = tiny_params(seed=60)
        zeros = unpack_params(np.zeros(pack_params(p).size), p)
        rows = matrix_from_rows([np.array([0, 1]), np.array([2, 3, 4]),
                                 np.array([5])], 20)
        report = dataset_bound_report(zeros, rows, np.random.default_rng(0))
        assert report.passed
        assert report.values["mean_kl"] == 0.0
        assert report.values["rhs"] == 0.0
        assert report.values["mean_gap"] == 0.0

    def test_random_small_models_pass(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = tiny_params(seed=seed)
            rows = matrix_from_rows(
                [rng.choice(20, size=int(rng.integers(2, 8)), replace=False)
                 for _ in range(30)], 20)
            report = dataset_bound_report(p, rows, rng)
            assert report.passed, report.values


class TestJensenGapBernoulli:
    def test_equal_arguments_gap_zero(self):
        t = np.array([0.2, 0.7, 1.0])
        assert jensen_gap_bernoulli(t, t, 0.37) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_alphas_gap_zero(self):
        t1 = np.array([0.9, 0.1])
        t2 = np.array([0.4, 0.6])
        assert jensen_gap_bernoulli(t1, t2, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert jensen_gap_bernoulli(t1, t2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_opposite_certainties_give_ln2(self):
        val = jensen_gap_bernoulli(np.array([1.0]), np.array([0.0]), 0.5)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_nonnegative_on_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            t1 = rng.random(n)
            t2 = rng.random(n)
            assert jensen_gap_bernoulli(t1, t2, float(rng.random())) >= -1e-12


class TestPairwiseDecomposition:
    def test_equal_inputs_reduce_to_kl_terms(self):
        x = np.array([1.0, 0.0, 1.0])
        q_u = GaussianPosterior(mean=[0.0], logvar=[0.0])
        q_v = GaussianPosterior(mean=[0.8], logvar=[math.log(0.5)])
        report = pairwise_decomposition_check(x, x, q_u, q_v, beta=0.4)
        assert report.passed
        assert abs(report.values["gap_integral"]) < 1e-10
        expected = 0.4 * (kl_diag_gaussian(q_u) + kl_diag_gaussian(q_v))
        assert report.values["lhs"] == pytest.approx(expected, abs=1e-8)

    def test_disjoint_posterior_supports_have_no_gap(self):
        x_u = np.array([1.0, 1.0, 0.0])
        x_v = np.array([0.0, 1.0, 1.0])
        q_u = GaussianPosterior(mean=[-40.0], logvar=[0.0])
        q_v = GaussianPosterior(mean=[40.0], logvar=[0.0])
        report = pairwise_decomposition_check(x_u, x_v, q_u, q_v, beta=0.2)
        assert report.passed
        assert report.values["gap_integral"] < 1e-8

    def test_generic_overlap_matches_to_1e6_relative(self):
        x_u = np.array([1.0, 1.0, 0.0])
        x_v = np.array([0.0, 1.0, 1.0])
        q_u = GaussianPosterior(mean=[0.0], logvar=[0.0])
        q_v = GaussianPosterior(mean=[1.0], logvar=[0.0])
        report = pairwise_decomposition_check(x_u, x_v, q_u, q_v, beta=0.2)
        assert report.passed
        assert report.values["rel_err"] < 1e-6
        assert report.values["gap_integral"] > 0.0

    def test_twenty_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x_u = (rng.random(n) < 0.5).astype(float)
            x_v = (rng.random(n) < 0.5).astype(float)
            q_u = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                    logvar=rng.uniform(-2, 2, 1))
            q_v = GaussianPosterior(mean=2 * rng.standard_normal(1),
                                    logvar=rng.uniform(-2, 2, 1))
            report = pairwise_decomposition_check(
                x_u, x_v, q_u, q_v, beta=float(rng.uniform(0, 1)))
            assert report.passed, report.values


class TestQuadraticToy:
    OFFSETS = np.array([[1.0, 2.0], [-0.5, 0.3], [2.0, -1.0], [0.1, 0.4]])

    def test_lambda_zero_identity(self):
        report = quadratic_toy(np.array([0.7, 2.5]), self.OFFSETS, 0.0,
                               np.array([0.3, -0.8]))
        assert report.values["tau"] == 1.0
        assert report.values["trace_ratio"] == 1.0
        assert report.values["drift_ratio"] == 1.0
        assert report.passed

    def test_identity_hessian_exact_values(self):
        report = quadratic_toy(np.array([1.0, 1.0]), self.OFFSETS, 0.5,
                               np.array([0.2, 0.1]))
        assert report.values["tau"] == pytest.approx(0.5, abs=1e-15)
        assert report.values["trace_ratio"] == pytest.approx(0.25, abs=1e-12)
        assert report.values["drift_ratio"] == pytest.approx(0.5, abs=1e-12)
        assert report.passed

    def test_random_sweep_passes(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            eigs = rng.uniform(0.5, 4.0, d)
            offsets = rng.standard_normal((50, d))
            report = quadratic_toy(eigs, offsets, float(rng.uniform(0, 3)),
                                   rng.standard_normal(d))
            assert report.passed, report.values

    def test_loewner_contraction_in_commuting_construction(self):
        # Offsets in +/- pairs along the axes keep both covariances
        # diagonal, hence commuting with H; the contraction must then hold
        # eigenvalue by eigenvalue.
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            eigs = rng.uniform(0.5, 4.0, d)
            scales = rng.uniform(0.5, 2.0, d)
            offsets = np.concatenate([np.diag(scales), -np.diag(scales)])
            lam = float(rng.uniform(0.1, 3.0))
            centroid = rng.standard_normal(d)
            unaligned, aligned = quadratic_minimizers(eigs, offsets, lam,
                                                      centroid)
            tau = float(eigs.max() / (eigs.max() + 2 * lam))

            def cov(a):
                dcentered = a - a.mean(axis=0)
                return dcentered.T @ dcentered / a.shape[0]

            v0 = np.sort(np.linalg.eigvalsh(cov(unaligned)))
            va = np.sort(np.linalg.eigvalsh(cov(aligned)))
            assert np.all(va <= tau**2 * v0 + 1e-12)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            quadratic_toy(np.array([0.0, 1.0]), self.OFFSETS, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            quadratic_toy(np.array([1.0, 1.0]), self.OFFSETS[:1], 1.0,
                          np.zeros(2))


class TestRowGradients:
    ROWS = [[0, 3, 5], [1, 2, 7, 9], [0, 3, 5], [4], [2, 19]]

    @pytest.mark.parametrize("with_anchors", [False, True])
    def test_duplicated_row_gives_identical_rows_bit_for_bit(self,
                                                             with_anchors):
        p = tiny_params(with_anchors=with_anchors, seed=74)
        losses, g = row_gradients(p, self.ROWS, 0.2, 8.0)
        gram = g @ g.T
        assert g.shape == (5, pack_params(p).size)
        assert losses[0] == losses[2]
        assert g[0].tobytes() == g[2].tobytes()
        assert gram[0].tobytes() == gram[2].tobytes()
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) > 0.0)

    @pytest.mark.parametrize("with_anchors", [False, True])
    def test_permuted_rows_permute_the_gradients_bit_for_bit(self,
                                                             with_anchors):
        # Each row's gradient is its own: a batched Gram that replaces the
        # per-row loop must keep this.
        p = tiny_params(with_anchors=with_anchors, seed=76)
        order = [3, 0, 4, 1, 2]
        losses, g = row_gradients(p, self.ROWS, 0.2, 8.0)
        losses_p, g_p = row_gradients(p, [self.ROWS[i] for i in order],
                                      0.2, 8.0)
        assert losses_p.tobytes() == losses[order].tobytes()
        assert g_p.tobytes() == g[order].tobytes()

    @pytest.mark.parametrize("with_anchors", [False, True])
    def test_gradient_matches_central_differences_of_the_row_loss(
            self, with_anchors):
        # A directional derivative of each row's own loss checks that the
        # flattened gradient lines up with pack_params' order.
        p = tiny_params(with_anchors=with_anchors, seed=77)
        theta = pack_params(p)
        direction = np.random.default_rng(77).standard_normal(theta.size)
        losses, g = row_gradients(p, self.ROWS, 0.2, 8.0)
        h = 1e-5
        for row, loss, grad in zip(self.ROWS, losses, g):
            up, down = (row_gradients(unpack_params(theta + s * h * direction,
                                                    p), [row], 0.2, 8.0)[0][0]
                        for s in (1.0, -1.0))
            assert row_gradients(p, [row], 0.2, 8.0)[0][0] == loss
            assert (up - down) / (2 * h) == pytest.approx(
                float(grad @ direction), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("with_anchors", [False, True])
    def test_zero_decoder_weights_give_the_softmax_decoder_gradient(
            self, with_anchors):
        # With dec_w = 0 the logits are dec_b for every z, so the decoder
        # blocks of a row's gradient are exactly d = k softmax(dec_b) - x
        # for dec_b and d mu^T for dec_w, z being the posterior mean at
        # zero noise.
        p = tiny_params(with_anchors=with_anchors, seed=78)
        p = unpack_params(pack_params(p), p)
        p.dec_w[:] = 0.0
        soft = np.exp(p.dec_b - p.dec_b.max())
        soft /= soft.sum()
        _, g = row_gradients(p, self.ROWS, 0.2, 8.0)
        for row, grad in zip(self.ROWS, g):
            x = np.zeros(p.n_items)
            x[row] = 1.0
            d = x.sum() * soft - x
            pieces = unpack_params(grad, p)
            np.testing.assert_allclose(pieces.dec_b, d, rtol=1e-12,
                                       atol=1e-15)
            np.testing.assert_allclose(
                pieces.dec_w, np.outer(d, encode_one(p, x).mean),
                rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("with_anchors", [False, True])
    def test_rows_add_up_to_the_batch_gradient(self, with_anchors):
        # With every entry kept and zero noise the batch loss is the mean of
        # the rows' own losses, and so is its gradient.
        p = tiny_params(with_anchors=with_anchors, seed=75)
        losses, g = row_gradients(p, self.ROWS, 0.2, 8.0)
        indptr = np.cumsum([0] + [len(r) for r in self.ROWS])
        indices = np.concatenate(self.ROWS)
        loss, pieces = loss_and_grads_fixed(
            p, indptr, indices, np.ones(indices.size, dtype=bool),
            np.zeros((len(self.ROWS), p.latent_dim)), 0.2, 8.0)
        assert loss == pytest.approx(np.mean(losses), rel=1e-13)
        np.testing.assert_allclose(pack_grads(p, pieces), g.mean(axis=0),
                                   rtol=1e-12, atol=1e-14)

    # A sign error in one block moves the first-order error by 2 lr times
    # that block's share of G[u, v]: the gate sees it when the share is not
    # small beside the second-order term at lr 1e-3, as enc_w1's and
    # enc_b1's are with PIA off and on.
    @pytest.mark.parametrize("block", [0, 1], ids=["enc_w1", "enc_b1"])
    def test_a_sign_error_in_one_block_fails_the_probe_gate(self, monkeypatch,
                                                            block):
        def flipped(*args):
            loss, pieces = loss_and_grads_fixed(*args)
            piece = pieces[block]
            pieces[block] = ((piece[0], -piece[1]) if isinstance(piece, tuple)
                             else -piece)
            return loss, pieces

        monkeypatch.setattr(geometry, "loss_and_grads_fixed", flipped)
        for seed in (0, 1):
            reports = suites.suite_probe(seed)
            assert [r.passed for r in reports] == [False, False]

    def test_fixed_seed_probe_reproducible(self):
        a, b = suites.suite_probe(5), suites.suite_probe(5)
        assert [(r.name, r.values, r.passed) for r in a] == \
            [(r.name, r.values, r.passed) for r in b]


class TestExportLatents:
    def test_shape_and_header(self, tmp_path):
        p = tiny_params(seed=80, n_items=6, hidden=4, latent=2)
        m = matrix_from_rows([np.array([0, 1]), np.array([2]),
                              np.array([3, 4, 5])], 6)
        out = tmp_path / "latents.csv"
        export_latents(p, m, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "user_index,interaction_count,mu_1,mu_2"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 4 for line in lines[1:])


    def test_rows_span_chunks_in_user_order(self, tmp_path):
        # 300 users are two chunks of means, 256 + 44.
        p = tiny_params(seed=83, n_items=6, hidden=4, latent=2)
        rng = np.random.default_rng(84)
        rows = [np.flatnonzero(rng.random(6) < 0.5) for _ in range(300)]
        m = matrix_from_rows(rows, 6)
        export_latents(p, m, tmp_path / "latents.csv")
        lines = (tmp_path / "latents.csv").read_text().strip().splitlines()
        cells = np.array([[float(c) for c in line.split(",")]
                          for line in lines[1:]])
        assert cells[:, 0].tolist() == list(range(300))
        assert cells[:, 1].tolist() == [row.size for row in rows]
        means = np.concatenate(list(posterior_means(p, m)))
        assert np.ascontiguousarray(cells[:, 2:]).tobytes() == means.tobytes()

    def test_values_roundtrip_bitwise(self, tmp_path):
        # The CSV holds the chunked kernel's means bit for bit, and they
        # agree with each user encoded alone to rounding.
        p = tiny_params(seed=82, n_items=6, hidden=4, latent=2)
        rows = [np.array([0, 2, 4]), np.array([], dtype=np.int64),
                np.array([1]), np.array([0, 1, 2, 3, 4, 5])]
        m = matrix_from_rows(rows, 6)
        means = np.concatenate(list(posterior_means(p, m)))
        out = tmp_path / "latents.csv"
        export_latents(p, m, out)
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == len(rows)
        for u, (line, row) in enumerate(zip(lines, rows)):
            cells = line.split(",")
            assert (int(cells[0]), int(cells[1])) == (u, row.size)
            x = np.zeros(6)
            x[row] = 1.0
            values = np.array([float(c) for c in cells[2:]])
            assert values.tobytes() == means[u].tobytes()
            np.testing.assert_allclose(values, encode_one(p, x).mean,
                                       rtol=0.0, atol=1e-12)
