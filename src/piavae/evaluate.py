"""Ranking metrics over fold-in/holdout users and activity-stratified reports.

Ranking rule: fold-in items are excluded (scored -inf), and the list is
np.argsort(-scores, kind="stable"), so items with equal scores rank in
ascending item index; this holds for all-tied rows, for -inf scores and
for K above the number of candidates, where the tail is -inf items in
index order. The metrics select the top max(K) of each row by partial
selection, sort only that prefix, and read Recall@K and NDCG@K for every
K from one hit vector.

Scores come from model.score_matrix, which scores users in fixed-size
batches. A batched row agrees with the same user scored alone to 1e-12
on every finite entry, with the same -inf entries; it is not bit for bit
the same, so a score tie that only rounding decides may rank differently
in the two cases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix, SplitDataset, entry_rows
from .errors import MetricError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_STRATA_EDGES = (5, 10, 50, 100)


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


def per_user_metrics(scores: np.ndarray, fold: InteractionMatrix,
                     hold: InteractionMatrix,
                     k_list: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(recall, ndcg) arrays over the rows of `scores` for each K.

    Row u of `scores` is ranked against row u of the fold-in and holdout
    matrices. One ranked prefix per row, as long as the largest K, serves
    every K.
    """
    ks = [int(k) for k in k_list]
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    n_users, n_items = scores.shape
    if fold.n_users != n_users or hold.n_users != n_users:
        raise ShapeError(f"{n_users} score rows need {n_users} fold-in and "
                         "holdout rows")
    hold_len = hold.row_lengths()
    if np.any(hold_len == 0):
        raise MetricError(
            f"holdout set of user {int(np.argmin(hold_len))} is empty")
    # Row-major (user, item) keys; sorted because every row is sorted.
    fold_keys = entry_rows(fold.indptr) * n_items + fold.indices
    hold_keys = entry_rows(hold.indptr) * n_items + hold.indices
    shared = np.isin(hold_keys, fold_keys)
    if shared.any():
        user = int(hold_keys[np.argmax(shared)] // n_items)
        raise MetricError(f"fold-in and holdout sets of user {user} overlap")

    width = min(max(ks), n_items)
    top = np.empty((n_users, width), dtype=np.int64)
    for u in range(n_users):
        key = -np.asarray(scores[u], dtype=np.float64)
        key[fold.row(u)] = np.inf
        top[u] = _ranked_top(key, width)
    top_keys = top + (np.arange(n_users) * n_items)[:, None]
    pos = np.minimum(np.searchsorted(hold_keys, top_keys), hold_keys.size - 1)
    hits = hold_keys[pos] == top_keys

    discounts = 1.0 / np.log2(np.arange(2, max(ks) + 2))
    # One np.sum per prefix length, not a cumsum: numpy sums pairwise, so
    # this is the normalizer a direct sum over the ideal prefix gives.
    idcg = np.array([np.sum(discounts[:m]) for m in range(max(ks) + 1)])
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


def _bucket_label(lo: int, hi: int | None) -> str:
    return f"[{lo}-{hi}]" if hi is not None else f"[{lo}+]"


def bucket_users(counts: np.ndarray, edges) -> dict[str, np.ndarray]:
    """Map bucket labels to user-index arrays.

    Edges (a, b, c, d) produce [a-b], [b+1-c], [c+1-d] and [d+] buckets,
    following the usual activity-group table layout. Users below the first
    edge fall in no bucket.
    """
    edges = sorted(int(e) for e in edges)
    if len(edges) < 2:
        raise ValueError("need at least two bucket edges")
    buckets: dict[str, np.ndarray] = {}
    lo = edges[0]
    for hi in edges[1:]:
        label = _bucket_label(lo, hi)
        buckets[label] = np.flatnonzero((counts >= lo) & (counts <= hi))
        lo = hi + 1
    buckets[_bucket_label(edges[-1], None)] = np.flatnonzero(counts > edges[-1])
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
    are omitted with a log note.
    """
    from .model import score_matrix

    fold = getattr(split, f"{part}_fold_in")
    hold = getattr(split, f"{part}_holdout")
    scores = score_matrix(params, fold)
    per_k = per_user_metrics(scores, fold, hold, list(k_list))
    all_users = np.arange(fold.n_users)
    report = _aggregate(per_k, all_users)
    counts = fold.row_lengths()
    strata = {}
    for label, users in bucket_users(counts, bucket_edges).items():
        if users.size == 0:
            logger.info("stratum %s is empty; omitted", label)
            continue
        strata[label] = _aggregate(per_k, users)
    report.strata = strata
    return report
