import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piavae.corpus import (SplitDataset, SynthSpec, matrix_from_rows,
                           split_dataset, synth_block_dataset)
from piavae.errors import MetricError, ShapeError
from piavae import evaluate
from piavae.evaluate import bucket_users, per_user_metrics, stratified_report
from piavae.model import encode_rows, score_rows
from tests.test_model import tiny_params, traced_peak


def one_user(scores, holdout, fold_in, k):
    """(Recall@k, NDCG@k) of a single user through per_user_metrics, from
    the user's scores and item collections."""
    scores = np.asarray(scores, dtype=np.float64)
    fold = matrix_from_rows([sorted(fold_in)], scores.size)
    hold = matrix_from_rows([sorted(holdout)], scores.size)
    rec, nd = per_user_metrics(scores[None], fold, hold, [k])[k]
    return float(rec[0]), float(nd[0])


class TestRecallAtK:
    def test_all_holdout_in_topk(self):
        scores = np.array([9.0, 8.0, 7.0, 0.1, 0.2])
        assert one_user(scores, {0, 1, 2}, set(), 3)[0] == 1.0

    def test_no_holdout_in_topk(self):
        scores = np.array([0.0, 0.1, 9.0, 8.0])
        assert one_user(scores, {0, 1}, set(), 2)[0] == 0.0

    def test_truncation_normalizer(self):
        # k=2, three holdout items, one hit -> 1 / min(2, 3) = 0.5.
        scores = np.array([5.0, 4.0, 0.0, 0.1, 0.2])
        assert one_user(scores, {0, 3, 4}, set(), 2)[0] == pytest.approx(0.5)

    def test_fold_in_never_counts_as_hit(self):
        scores = np.array([10.0, 9.0, 1.0, 0.5])
        # Item 0 is fold-in despite its huge score.
        assert one_user(scores, {2}, {0}, 2)[0] == pytest.approx(1.0)

    def test_empty_holdout_rejected(self):
        with pytest.raises(MetricError):
            one_user(np.zeros(3), set(), set(), 2)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(MetricError):
            one_user(np.zeros(3), {1}, {1}, 2)


class TestNdcgAtK:
    def test_perfect_ranking(self):
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        assert one_user(scores, {0, 1}, set(), 2)[1] == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        scores = np.array([2.0, 1.0, 0.0])
        val = one_user(scores, {1}, set(), 2)[1]
        assert val == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert val == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_beyond_k_scores_zero(self):
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        assert one_user(scores, {3}, set(), 2)[1] == 0.0

    def test_at_most_one_with_equality_iff_ideal_prefix(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = 12
            scores = rng.standard_normal(n)
            holdout = set(rng.choice(n, size=3, replace=False).tolist())
            k = int(rng.integers(1, 8))
            val = one_user(scores, holdout, set(), k)[1]
            assert val <= 1.0 + 1e-12
            top = np.argsort(-scores, kind="stable")[:min(k, len(holdout))]
            if val == pytest.approx(1.0, abs=1e-12):
                assert all(int(i) in holdout for i in top)


class TestRankInvariance:
    def test_metrics_depend_only_on_ranks(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            scores = rng.standard_normal(15)
            holdout = set(rng.choice(15, size=4, replace=False).tolist())
            fold_in = set()
            k = int(rng.integers(1, 10))
            # Strictly increasing transform: a * exp(x) + b with a > 0.
            transformed = 2.5 * np.exp(scores) + 1.0
            assert one_user(scores, holdout, fold_in, k) == \
                one_user(transformed, holdout, fold_in, k)

    def test_ties_break_by_ascending_index(self):
        scores = np.zeros(6)
        assert one_user(scores, {0}, set(), 1)[0] == 1.0
        assert one_user(scores, {5}, set(), 1)[0] == 0.0


def reference_metrics(scores, holdout, fold_in, k):
    """Recall@k and NDCG@k from a full stable argsort of the negated
    scores, fold-in items forced to -inf: the ranking the one-pass
    metrics must reproduce."""
    masked = np.array(scores, dtype=np.float64)
    masked[sorted(fold_in)] = -np.inf
    top = np.argsort(-masked, kind="stable")[:k]
    hits = [int(i) in holdout for i in top]
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = sum(discounts[r] for r, hit in enumerate(hits) if hit)
    ideal = min(k, len(holdout))
    return sum(hits) / ideal, dcg / np.sum(discounts[:ideal])


@st.composite
def ranking_cases(draw):
    """Integer scores (heavy ties, some -inf and NaN) for a few users, each
    with a fold-in and a nonempty disjoint holdout, and several K, some
    above the number of candidates. Fold-in items draw their scores like
    any other, so per_user_metrics alone must exclude them."""
    n_items = draw(st.integers(2, 30))
    n_users = draw(st.integers(1, 4))
    folds, holds, rows = [], [], []
    for _ in range(n_users):
        roles = draw(st.lists(st.sampled_from("fhn"), min_size=n_items,
                              max_size=n_items).filter(lambda r: "h" in r))
        levels = draw(st.lists(st.integers(-2, 3), min_size=n_items,
                               max_size=n_items))
        special = {-2: np.nan, -1: -np.inf}
        row = np.array([special.get(v, float(v)) for v in levels])
        folds.append([i for i, r in enumerate(roles) if r == "f"])
        holds.append([i for i, r in enumerate(roles) if r == "h"])
        rows.append(row)
    k_list = draw(st.lists(st.integers(1, n_items + 5), min_size=1, max_size=4))
    return np.array(rows), folds, holds, k_list


class TestOnePassRanking:
    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_equals_stable_argsort_reference(self, case):
        scores, folds, holds, k_list = case
        n_items = scores.shape[1]
        fold = matrix_from_rows([np.array(f, dtype=np.int64) for f in folds], n_items)
        hold = matrix_from_rows([np.array(h, dtype=np.int64) for h in holds], n_items)
        per_k = per_user_metrics(scores, fold, hold, k_list)
        assert sorted(per_k) == sorted(set(k_list))
        for k, (rec, nd) in per_k.items():
            for u in range(scores.shape[0]):
                want = reference_metrics(scores[u], set(holds[u]), set(folds[u]), k)
                assert (rec[u], nd[u]) == want

    def test_huge_k_equals_k_at_item_count(self):
        # Past the item count the ranked list ends; the ideal prefix never
        # outgrows the longest holdout, so K = 10**6 costs what K = 8 does.
        scores = np.random.default_rng(5).standard_normal((3, 8))
        fold = matrix_from_rows([[0], [1, 2], []], 8)
        hold = matrix_from_rows([[3, 4], [0], [5, 6, 7]], 8)
        per_k = per_user_metrics(scores, fold, hold, [8, 10**6])
        for at_n, at_huge in zip(per_k[8], per_k[10**6]):
            assert at_n.tobytes() == at_huge.tobytes()

    @pytest.mark.parametrize("as_rows", [np.asarray, lambda a: (r for r in a)],
                             ids=["array", "generator"])
    @pytest.mark.parametrize("shape", [(2, 8), (4, 8), (3, 7)],
                             ids=["too-few-rows", "too-many-rows",
                                  "wrong-width"])
    def test_scores_unlike_the_fold_are_a_shape_error(self, shape, as_rows):
        fold = matrix_from_rows([[0], [1, 2], []], 8)
        hold = matrix_from_rows([[3, 4], [0], [5, 6, 7]], 8)
        with pytest.raises(ShapeError):
            per_user_metrics(as_rows(np.zeros(shape)), fold, hold, [5])


def block_keys(score, fold_in):
    """The ranker's keys: -score, with +inf at the fold-ins."""
    key = -score
    key[fold_in] = np.inf
    return key


@st.composite
def prefilter_blocks(draw):
    """A block of scores 1 to 40 wide with NaN, +inf, -inf (whose key,
    +inf, ties a fold-in's) and ties, heavy in some rows and few in
    others, some rows all tied, fold-ins anywhere (inside the first 4
    columns too), and the K per_user_metrics ranks for a K of 1 to 6:
    K clipped to the width. With RANK_SAMPLE = 4 the pre-filter runs
    whenever K <= 4 and K is below the width, on rows wider than
    4 x RANK_SAMPLE, on narrower ones and on rows that are their own
    sample."""
    n_rows = draw(st.integers(1, 6))
    n_items = draw(st.one_of(st.integers(1, 8), st.integers(9, 40)))
    special = {-3: np.nan, -2: -np.inf, 3: np.inf}
    score = np.empty((n_rows, n_items))
    for r in range(n_rows):
        levels = draw(st.lists(st.integers(-3, draw(st.sampled_from([3, 40]))),
                               min_size=n_items, max_size=n_items))
        if draw(st.booleans()) and draw(st.booleans()):
            levels = [levels[0]] * n_items
        score[r] = [special.get(v, float(v)) for v in levels]
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    fold_in = np.array(draw(st.lists(st.floats(0, 1), min_size=score.size,
                                     max_size=score.size))
                       ).reshape(score.shape) < share
    return score, fold_in, min(draw(st.integers(1, 6)), n_items)


def assert_prefilter_settles(score, fold_in, k):
    """_rank_block ranks the block as the stable argsort does, and its
    batched pre-filter ran and settled every row: a row it leaves is
    argsorted alone, by a one-dimensional np.argsort."""
    top = np.empty((len(score), k), dtype=np.int64)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        evaluate._rank_block(score, *np.nonzero(fold_in), k, top)
    shapes = [np.shape(call.args[0]) for call in argsort.call_args_list]
    assert shapes and all(len(shape) == 2 for shape in shapes), shapes
    for key, got in zip(block_keys(score, fold_in), top):
        assert got.tolist() == np.argsort(key, kind="stable")[:k].tolist()


class TestBlockRanking:
    # A row with a NaN cut has no survivors beside one with exactly K.
    @example(case=(np.array([[np.nan] * 16, [5.0, 4.0] + [0.0] * 14]),
                   np.zeros((2, 16), dtype=bool), 2))
    @settings(max_examples=400, deadline=None)
    @given(prefilter_blocks())
    def test_equals_stable_argsort(self, case):
        score, fold_in, k = case
        top = np.empty((len(score), k), dtype=np.int64)
        with mock.patch.object(evaluate, "RANK_SAMPLE", 4):
            evaluate._rank_block(score, *np.nonzero(fold_in), k, top)
        for key, got in zip(block_keys(score, fold_in), top):
            assert got.tolist() == np.argsort(key, kind="stable")[:k].tolist()

    @pytest.mark.parametrize("n_rows, n_items, n_fold_in", [
        (5, 4 * evaluate.RANK_SAMPLE, 300),
        # The dense training workload's validation ranking, where every
        # row is its own sample.
        (200, 2000, 184)], ids=["sample-wide", "validation"])
    def test_prefilter_settles_rows_without_ties(self, n_rows, n_items,
                                                 n_fold_in):
        # Distinct scores, K = 100, fold-ins among each row's sampled
        # columns, blocks of RANK_ROWS: the batched pre-filter ranks every
        # row, none falls back.
        rng = np.random.default_rng(7)
        score = rng.permutation(n_rows * n_items).reshape(n_rows, n_items) / 7.0
        fold_in = np.zeros(score.shape, dtype=bool)
        for row in fold_in:
            row[rng.choice(min(n_items, evaluate.RANK_SAMPLE), n_fold_in,
                           replace=False)] = True
        for lo in range(0, n_rows, evaluate.RANK_ROWS):
            rows = slice(lo, lo + evaluate.RANK_ROWS)
            assert_prefilter_settles(score[rows], fold_in[rows], 100)

def heldout_split(n_users, n_items, seed):
    """A split whose test part holds n_users users, each with 5 fold-in
    and 3 holdout items drawn at random; the other parts are empty."""
    rng = np.random.default_rng(seed)
    picks = [rng.choice(n_items, 8, replace=False) for _ in range(n_users)]
    empty = matrix_from_rows([], n_items)
    return SplitDataset(
        train=empty, val_fold_in=empty, val_holdout=empty,
        test_fold_in=matrix_from_rows([r[:5] for r in picks], n_items),
        test_holdout=matrix_from_rows([r[5:] for r in picks], n_items),
        seed=seed)


class TestStreamedScoring:
    K_LIST = [20, 50, 100]

    def test_metrics_equal_a_one_gemm_reference(self):
        # 600 users are score chunks of 256 + 256 + 88 rows. The reference
        # encodes all of them in one call and decodes them in one GEMM.
        n_items = 2000
        p = tiny_params(seed=54, n_items=n_items, hidden=16, latent=6)
        split = heldout_split(600, n_items, seed=1)
        fold, hold = split.test_fold_in, split.test_holdout
        indptr, indices = fold.csr_rows(np.arange(fold.n_users))
        means = encode_rows(p, indptr, indices).mean
        reference = means @ p.dec_w.T + p.dec_b
        np.testing.assert_allclose(np.concatenate(list(score_rows(p, fold))),
                                   reference, rtol=0.0, atol=1e-12)
        want = per_user_metrics(reference, fold, hold, self.K_LIST)
        got = per_user_metrics(score_rows(p, fold), fold, hold, self.K_LIST)
        report = stratified_report(p, split, self.K_LIST)
        for k in self.K_LIST:
            for streamed, one_gemm in zip(got[k], want[k]):
                assert streamed.tobytes() == one_gemm.tobytes()
            assert report.recall[k] == float(np.mean(want[k][0]))
            assert report.ndcg[k] == float(np.mean(want[k][1]))

    @pytest.mark.same_bits
    def test_chunks_give_the_one_array_bits(self, monkeypatch):
        # 300 users of 4 x RANK_SAMPLE items are chunks of 256 and 44
        # rows, ranked with the pre-filter, the first chunk on two threads.
        n_items = 4 * evaluate.RANK_SAMPLE
        p = tiny_params(seed=56, n_items=n_items, hidden=8, latent=4)
        split = heldout_split(300, n_items, seed=3)
        fold, hold = split.test_fold_in, split.test_holdout
        chunks = list(score_rows(p, fold))
        assert [len(c) for c in chunks] == [256, 44]
        threads, real = set(), evaluate.split

        def spy(fn, n, work, align=1):
            def record(lo, hi):
                threads.add(threading.get_ident())
                return fn(lo, hi)
            real(record, n, work, align)

        monkeypatch.setattr(evaluate, "split", spy)
        got = per_user_metrics(iter(chunks), fold, hold, self.K_LIST)
        assert len(threads) == 2
        want = per_user_metrics(np.concatenate(chunks), fold, hold,
                                self.K_LIST)
        for k in self.K_LIST:
            for chunked, whole in zip(got[k], want[k]):
                assert chunked.tobytes() == whole.tobytes()

    def test_peak_memory_grows_by_less_than_a_score_matrix(self):
        # A users x items score matrix would add 8 bytes per user and item
        # from 300 to 2,400 users; streamed scoring holds one chunk of
        # rows, so the growth is the per-user metric arrays, about 4 KB
        # per user at max K = 100.
        n_items = 2000
        p = tiny_params(seed=55, n_items=n_items)
        small, large = (traced_peak(stratified_report, p,
                                    heldout_split(n, n_items, seed=2),
                                    self.K_LIST)
                        for n in (300, 2400))
        assert large - small < 2100 * n_items * 8 / 2


class TestBucketUsers:
    def test_default_edges_reproduce_four_groups(self):
        counts = np.array([5, 10, 11, 50, 51, 100, 101, 500])
        buckets = bucket_users(counts, (5, 10, 50, 100))
        assert list(buckets) == ["[5-10]", "[11-50]", "[51-100]", "[101+]"]
        assert buckets["[5-10]"].tolist() == [0, 1]
        assert buckets["[11-50]"].tolist() == [2, 3]
        assert buckets["[51-100]"].tolist() == [4, 5]
        assert buckets["[101+]"].tolist() == [6, 7]

    def test_users_below_first_edge_fall_nowhere(self):
        buckets = bucket_users(np.array([1, 2, 7]), (5, 10))
        assert buckets["[5-10]"].tolist() == [2]
        assert buckets["[11+]"].tolist() == []


class TestStratifiedReport:
    @staticmethod
    def _split(seed=0):
        spec = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(4, 12),
                         n_items=24, noise_rate=0.05, seed=seed)
        m = synth_block_dataset(spec)
        return split_dataset(m, 8, 8, 0.8, seed=seed)

    def test_single_bucket_equals_overall(self):
        split = self._split()
        p = tiny_params(seed=50, n_items=24)
        report = stratified_report(p, split, [5, 10], bucket_edges=(1, 1000))
        assert report.strata is not None
        only = report.strata["[1-1000]"]
        for k in (5, 10):
            assert only.recall[k] == pytest.approx(report.recall[k], abs=1e-15)
            assert only.ndcg[k] == pytest.approx(report.ndcg[k], abs=1e-15)

    def test_bucket_means_match_hand_average(self):
        split = self._split(seed=2)
        p = tiny_params(seed=51, n_items=24)
        fold, hold = split.test_fold_in, split.test_holdout
        per_k = per_user_metrics(score_rows(p, fold), fold, hold, [5])
        counts = fold.row_lengths()
        report = stratified_report(p, split, [5], bucket_edges=(1, 5))
        lo = np.flatnonzero((counts >= 1) & (counts <= 5))
        hi = np.flatnonzero(counts > 5)
        rec, nd = per_k[5]
        if lo.size:
            assert report.strata["[1-5]"].recall[5] == pytest.approx(
                float(np.mean(rec[lo])), abs=1e-12)
        if hi.size:
            assert report.strata["[6+]"].ndcg[5] == pytest.approx(
                float(np.mean(nd[hi])), abs=1e-12)

    def test_empty_buckets_are_omitted(self, caplog):
        split = self._split(seed=3)
        p = tiny_params(seed=52, n_items=24)
        report = stratified_report(p, split, [5], bucket_edges=(1, 2, 10_000))
        assert "[10001+]" not in report.strata

    def test_report_serializes(self):
        split = self._split(seed=4)
        p = tiny_params(seed=53, n_items=24)
        report = stratified_report(p, split, [5, 10])
        d = report.to_dict()
        assert d["n_users"] == 8
        assert set(d["recall"]) == {"5", "10"}
        assert all(0.0 <= v <= 1.0 for v in d["recall"].values())
