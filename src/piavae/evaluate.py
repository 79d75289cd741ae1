"""Ranking metrics over fold-in/holdout users and activity-stratified reports.

Ranking rule, kept by `per_user_metrics` alone: a user's fold-in items
are excluded whatever their scores (they rank after every other item),
and the rest is ranked by np.argsort(-scores, kind="stable"), so items
with equal scores rank in ascending item index; this holds for all-tied
rows, for -inf and NaN scores and for K above the number of candidates,
where the tail is the excluded items in index order. The metrics rank
only the top max(K) of each row and read Recall@K and NDCG@K for every
K from one hit vector.

Block ranking: `per_user_metrics` reads the scores a chunk at a time and
ranks each chunk in blocks of RANK_ROWS rows, which `numerics.split`
spreads over its workers. A row's keys are its negated scores with +inf
at its fold-ins; its top K is the first K of np.argsort(key,
kind="stable"). Rows at least 4 x RANK_SAMPLE wide are pre-filtered
first. A row's cut is the K-th smallest key among its first RANK_SAMPLE
columns (only that sample is negated, with one scatter of +inf at its
fold-ins), and its survivors are its keys at or below the cut, in index
order: the scores at or above -cut, fold-ins dropped. Only the
survivors are negated, so a block's keys are never written out. The
pre-filter is exact. The K-th smallest key of any subset of a row is at
least the row's K-th smallest, t, so every key at or below t survives
(at least K keys) and t is also the survivors' K-th smallest; every
dropped key is above the cut, NaN or a fold-in's. One batched
argpartition over the block's survivors, padded with +inf, finds each
row's K smallest. When exactly K survivors are at or below t, those K
are the row's top K, and a stable sort of them, taken in index order,
ranks them as the full argsort does. A row whose cut is NaN or
infinite, that has fewer than K survivors, or whose K-th key is tied
across the cut (more than K keys at or below t) is ranked alone by
`_ranked_top`, a partial selection that sorts only its top K. Either
path gives the argsort's list, bit for bit.

Scores are the logits of model.score_rows, which scores users in
fixed-size chunks and yields one chunk at a time. A batched row agrees
with the same user scored alone to 1e-12 on every entry (about 1e-15 at
the reference shape), not bit for bit, so a score tie that only rounding
decides may rank differently in the two cases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix, SplitDataset, entry_rows
from .errors import MetricError, ShapeError, SplitError
from .model import score_rows
from .numerics import ENTRY_WORK, split

logger = logging.getLogger(__name__)

DEFAULT_STRATA_EDGES = (5, 10, 50, 100)
# Rows ranked together, split between the workers as whole blocks, so a
# range makes a few long numpy calls (numerics' rule). Ranking 600 rows
# of 19,932 items at K = 100 (median of 15, 2-core x86_64): one row at a
# time 67 ms; one-row blocks 81 ms on one thread and 130 ms on two;
# 32-row blocks 41 ms and 30 ms (16 rows: 36 ms, 64 rows: 49 ms, two
# threads). A block's survivor mask takes RANK_ROWS x items bytes and its
# negated sample RANK_ROWS x RANK_SAMPLE x 8 (0.6 and 1 MB here).
RANK_ROWS = 32
# Leading columns whose K-th smallest key is a row's pre-filter cut; about
# K x items / RANK_SAMPLE keys survive it. The 600 rows above took 40 ms
# with 2,048, 34 ms with 3,072 and 30 ms with 4,096 on two threads. Rows
# narrower than 4 x RANK_SAMPLE, where the sample would be over a quarter
# of the row, are ranked one at a time.
RANK_SAMPLE = 4096


def _ranked_top(key: np.ndarray, k: int) -> np.ndarray:
    """The first k entries of np.argsort(key, kind="stable"), found by a
    partial selection that sorts only those k."""
    if k >= key.size:
        return np.argsort(key, kind="stable")
    t = key[np.argpartition(key, k - 1)[k - 1]]
    if np.isnan(t):  # fewer than k non-NaN keys: NaNs rank last, by index
        return np.argsort(key, kind="stable")[:k]
    better = np.flatnonzero(key < t)
    tied = np.flatnonzero(key == t)[:k - better.size]
    top = np.concatenate([better, tied])
    return top[np.argsort(key[top], kind="stable")]


def _rank_block(score: np.ndarray, fold_rows: np.ndarray,
                fold_cols: np.ndarray, k: int, top: np.ndarray) -> None:
    """top[r] = the first k of np.argsort(key[r], kind="stable") for each
    row r of the block, key being -score with +inf at the fold-ins
    (fold_rows[i], fold_cols[i]); rows at least 4 x RANK_SAMPLE wide are
    pre-filtered together, the others ranked one at a time."""
    todo = range(len(score))
    if score.shape[1] >= 4 * RANK_SAMPLE and k <= RANK_SAMPLE:
        sample = -score[:, :RANK_SAMPLE]
        inside = fold_cols < RANK_SAMPLE
        sample[fold_rows[inside], fold_cols[inside]] = np.inf
        cut = np.partition(sample, k - 1, axis=1)[:, k - 1]
        survive = score >= -cut[:, None]  # key <= cut; never NaN
        survive[fold_rows, fold_cols] = False
        survive[~np.isfinite(cut)] = False
        at = np.flatnonzero(survive)
        r, c = np.divmod(at, score.shape[1])
        count = np.bincount(r, minlength=len(score))
        if count.max() >= k:
            # Each row's survivors' keys in index order, padded with +inf.
            slot = np.arange(r.size) - np.repeat(np.cumsum(count) - count,
                                                 count)
            cand = np.full((len(score), count.max()), np.inf)
            cand[r, slot] = -score.ravel()[at]
            col = np.zeros(cand.shape, dtype=np.int64)
            col[r, slot] = c
            part = np.sort(np.argpartition(cand, k - 1, axis=1)[:, :k], axis=1)
            vals = np.take_along_axis(cand, part, axis=1)
            ties = np.count_nonzero(cand <= vals.max(axis=1)[:, None], axis=1)
            done = (count >= k) & (ties == k)
            order = np.take_along_axis(
                part, np.argsort(vals, axis=1, kind="stable"), axis=1)
            top[done] = np.take_along_axis(col, order, axis=1)[done]
            todo = np.flatnonzero(~done)
    for r in todo:
        key = -score[r]
        key[fold_cols[fold_rows == r]] = np.inf
        top[r] = _ranked_top(key, k)


@dataclass
class MetricReport:
    """Per-K recall and NDCG means with optional activity strata."""

    recall: dict[int, float]
    ndcg: dict[int, float]
    n_users: int
    strata: dict[str, "MetricReport"] | None = None

    def to_dict(self) -> dict:
        out = {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "n_users": self.n_users,
        }
        if self.strata is not None:
            out["strata"] = {name: r.to_dict() for name, r in self.strata.items()}
        return out


def per_user_metrics(scores, fold: InteractionMatrix,
                     hold: InteractionMatrix,
                     k_list: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(recall, ndcg) arrays over the users of `fold` for each K.

    `scores` is a 2-D array of item scores or an iterable of such chunks
    (model.score_rows), read once; the chunks' rows in order are the
    users, row u ranked against row u of the fold-in and holdout matrices
    by the module's ranking rule, in blocks. A chunk that is not 2-D, a
    width or a total row count other than the fold's is a ShapeError.
    One ranked prefix per row, as long as the largest K, serves every K.
    """
    ks = [int(k) for k in k_list]
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    n_users, n_items = fold.n_users, fold.n_items
    if (hold.n_users, hold.n_items) != (n_users, n_items):
        raise ShapeError(f"fold-in is {n_users} x {n_items}, holdout "
                         f"{hold.n_users} x {hold.n_items}")
    hold_len = hold.row_lengths()
    if np.any(hold_len == 0):
        raise MetricError(
            f"holdout set of user {int(np.argmin(hold_len))} is empty")
    # Row-major (user, item) keys, sorted because every row is sorted; the
    # fold-in's end with a key past every other, so a merge of the two
    # sorted arrays finds each holdout key's match or a larger key.
    fold_keys = np.append(entry_rows(fold.indptr) * n_items + fold.indices,
                          n_users * n_items)
    hold_keys = entry_rows(hold.indptr) * n_items + hold.indices
    shared = fold_keys[np.searchsorted(fold_keys, hold_keys)] == hold_keys
    if shared.any():
        user = int(hold_keys[np.argmax(shared)] // n_items)
        raise MetricError(f"fold-in and holdout sets of user {user} overlap")

    width = min(max(ks), n_items)
    top = np.empty((n_users, width), dtype=np.int64)
    done = 0
    for chunk in [scores] if isinstance(scores, np.ndarray) else scores:
        chunk = np.asarray(chunk, dtype=np.float64)
        n = len(chunk) if chunk.ndim == 2 else 0
        if chunk.ndim != 2 or chunk.shape[1] != n_items or done + n > n_users:
            raise ShapeError(f"score chunk of shape {chunk.shape} after "
                             f"{done} rows, for {n_users} fold-in rows of "
                             f"{n_items} items")

        def rank(lo, hi, chunk=chunk, at=done):
            for r0 in range(lo * RANK_ROWS, min(hi * RANK_ROWS, len(chunk)),
                            RANK_ROWS):
                rows = slice(at + r0, at + min(r0 + RANK_ROWS, len(chunk)))
                ptr = fold.indptr[rows.start:rows.stop + 1]
                _rank_block(chunk[r0:r0 + RANK_ROWS], entry_rows(ptr - ptr[0]),
                            fold.indices[ptr[0]:ptr[-1]], width, top[rows])

        # Each block's rows are its own, so blocks split anywhere.
        split(rank, -(-n // RANK_ROWS), chunk.size * ENTRY_WORK)
        done += n
    if done != n_users:
        raise ShapeError(f"{done} score rows for {n_users} fold-in rows")
    top_keys = top + (np.arange(n_users) * n_items)[:, None]
    pos = np.minimum(np.searchsorted(hold_keys, top_keys), hold_keys.size - 1)
    hits = hold_keys[pos] == top_keys

    discounts = 1.0 / np.log2(np.arange(2, width + 2))
    # One np.sum per prefix length, not a cumsum: numpy sums pairwise, so
    # this is the normalizer a direct sum over the ideal prefix gives. The
    # ideal prefix min(k, hold_len) is never longer than the longest
    # holdout, so the table stops there, whatever K is.
    longest_ideal = min(max(ks), int(hold_len.max(initial=0)))
    idcg = np.array([np.sum(discounts[:m]) for m in range(longest_ideal + 1)])
    # Running sums in rank order add the same terms in the same order as
    # a sum over the hits, so each DCG@K is one column.
    hit_count = np.cumsum(hits, axis=1)
    dcg = np.cumsum(hits * discounts[:width], axis=1)
    out = {}
    for k in ks:
        col = min(k, width) - 1
        ideal = np.minimum(k, hold_len)
        out[k] = (hit_count[:, col] / ideal, dcg[:, col] / idcg[ideal])
    return out


def bucket_users(counts: np.ndarray, edges) -> dict[str, np.ndarray]:
    """Map bucket labels to user-index arrays.

    Edges (a, b, c, d) produce [a-b], [b+1-c], [c+1-d] and [d+1+] buckets,
    following the usual activity-group table layout. Users below the first
    edge fall in no bucket.
    """
    edges = sorted(int(e) for e in edges)
    if len(edges) < 2:
        raise ValueError("need at least two bucket edges")
    lows = [edges[0]] + [e + 1 for e in edges[1:]]
    buckets = {f"[{lo}-{hi}]": np.flatnonzero((counts >= lo) & (counts <= hi))
               for lo, hi in zip(lows, edges[1:])}
    buckets[f"[{lows[-1]}+]"] = np.flatnonzero(counts >= lows[-1])
    return buckets


def _aggregate(per_k: dict, users: np.ndarray) -> MetricReport:
    recall = {k: float(np.mean(rec[users])) for k, (rec, _) in per_k.items()}
    ndcg = {k: float(np.mean(nd[users])) for k, (_, nd) in per_k.items()}
    return MetricReport(recall=recall, ndcg=ndcg, n_users=int(users.size))


def stratified_report(params, split: SplitDataset, k_list: list[int],
                      bucket_edges=DEFAULT_STRATA_EDGES,
                      part: str = "test") -> MetricReport:
    """Overall and per-activity-bucket means over held-out users.

    Users are bucketed by their fold-in interaction count; empty buckets
    are omitted with a log note. A part with no users is a SplitError.
    """
    fold = getattr(split, f"{part}_fold_in")
    hold = getattr(split, f"{part}_holdout")
    if fold.n_users == 0:
        raise SplitError(f"the {part} part has no users to evaluate")
    per_k = per_user_metrics(score_rows(params, fold), fold, hold,
                             list(k_list))
    report = _aggregate(per_k, np.arange(fold.n_users))
    buckets = bucket_users(fold.row_lengths(), bucket_edges)
    for label in [name for name, users in buckets.items() if not users.size]:
        logger.info("stratum %s is empty; omitted", label)
    report.strata = {label: _aggregate(per_k, users)
                     for label, users in buckets.items() if users.size}
    return report
