"""Ranking metrics over fold-in/holdout users and activity-stratified reports.

Ranking rule, kept by `per_user_metrics` alone: a user's fold-in items
are excluded whatever their scores (they rank after every other item),
and the rest is ranked by np.argsort(-scores, kind="stable"), so items
with equal scores rank in ascending item index; this holds for all-tied
rows, for -inf and NaN scores and for K above the number of candidates,
where the tail is the excluded items in index order. The metrics select
the top max(K) of each row by partial selection, sort only that prefix,
and read Recall@K and NDCG@K for every K from one hit vector.

Scores are the logits of model.score_rows, which scores users in
fixed-size chunks and yields them row by row. A batched row agrees with
the same user scored alone to 1e-12 on every entry (about 1e-15 at the
reference shape), not bit for bit, so a score tie that only rounding
decides may rank differently in the two cases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix, SplitDataset, entry_rows
from .errors import MetricError, ShapeError, SplitError
from .model import score_rows

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


def per_user_metrics(scores, fold: InteractionMatrix,
                     hold: InteractionMatrix,
                     k_list: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(recall, ndcg) arrays over the users of `fold` for each K.

    `scores` is read once: any iterable of item-score rows (an array, or
    model.score_rows), row u ranked against row u of the fold-in and
    holdout matrices by the module's ranking rule; a row count or width
    other than the fold's is a ShapeError. One ranked prefix per row, as
    long as the largest K, serves every K.
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
    # Row-major (user, item) keys; sorted because every row is sorted.
    fold_keys = entry_rows(fold.indptr) * n_items + fold.indices
    hold_keys = entry_rows(hold.indptr) * n_items + hold.indices
    shared = np.isin(hold_keys, fold_keys)
    if shared.any():
        user = int(hold_keys[np.argmax(shared)] // n_items)
        raise MetricError(f"fold-in and holdout sets of user {user} overlap")

    width = min(max(ks), n_items)
    top = np.empty((n_users, width), dtype=np.int64)
    u = -1
    for u, row in enumerate(scores):
        key = -np.asarray(row, dtype=np.float64)
        if u == n_users or key.shape != (n_items,):
            raise ShapeError(f"score row {u} of shape {key.shape} for "
                             f"{n_users} fold-in rows of {n_items} items")
        key[fold.row(u)] = np.inf
        top[u] = _ranked_top(key, width)
    if u + 1 != n_users:
        raise ShapeError(f"{u + 1} score rows for {n_users} fold-in rows")
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
