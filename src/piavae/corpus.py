"""Ingestion, preprocessing filters, train/val/test splits, and synthetic data.

The on-disk container for sparse binary matrices is a little-endian CSR
layout: magic ``PIA1``, three u64 counts (users, items, nnz), the row
offset array ((n_users + 1) * u64) and the column index array (nnz * u64).
External ids live in a sidecar ``idmap.tsv``. Rows move through the
package as these CSR arrays, built from integer codes by `ingest_events`
and sliced by `InteractionMatrix.csr_rows`; no dense rows are built.

`ingest_events` reads events with the two readers of `piavae.events`,
which give one result: a byte reader for plain LF or CRLF files and the
record-by-record csv.reader loop for every other file.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CorruptFileError, EmptyDatasetError, MatrixError,
                     ParseError, SplitError)

CSR_MAGIC = b"PIA1"
# Share of each held-out user's items folded in, as in Mult-VAE.
FOLD_IN_FRACTION = 0.8


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse binary user-item matrix in CSR form with external-id maps.

    Every stored entry is implicitly 1; item indices inside each row are
    strictly increasing.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self):
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.shape != (self.n_users + 1,):
            raise MatrixError("indptr length must be n_users + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise MatrixError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise MatrixError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_items):
            raise MatrixError("item index out of range")
        # A step from one row's last index to the next row's first may fall.
        falls = indices[1:] <= indices[:-1]
        starts = indptr[1:-1]
        falls[starts[(starts > 0) & (starts < indices.size)] - 1] = False
        if falls.any():
            u = int(np.searchsorted(indptr, np.argmax(falls), side="right")) - 1
            raise MatrixError(f"row {u} not strictly increasing")
        if len(self.user_ids) != self.n_users or len(self.item_ids) != self.n_items:
            raise MatrixError("id maps must cover every dense index")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def csr_rows(self, users: np.ndarray | list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the given users' rows, in the given order."""
        users = np.asarray(users, dtype=np.int64)
        starts = self.indptr[users]
        lengths = self.indptr[users + 1] - starts
        indptr = np.zeros(users.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Position of every stored entry of the chosen rows, row by row.
        shift = np.repeat(starts - indptr[:-1], lengths)
        return indptr, self.indices[np.arange(indptr[-1]) + shift]


def entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row of every stored entry of the CSR rows that indptr delimits."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def matrix_from_rows(rows: list[np.ndarray], n_items: int,
                     user_ids: list[str] | None = None,
                     item_ids: list[str] | None = None) -> InteractionMatrix:
    """Build an InteractionMatrix from per-user item-index arrays."""
    sorted_rows = [np.unique(np.asarray(r, dtype=np.int64)) for r in rows]
    return InteractionMatrix(
        n_users=len(sorted_rows),
        n_items=n_items,
        indptr=np.cumsum([0] + [r.size for r in sorted_rows]),
        indices=np.concatenate([np.zeros(0, dtype=np.int64), *sorted_rows]),
        user_ids=tuple(user_ids or map(str, range(len(sorted_rows)))),
        item_ids=tuple(item_ids or map(str, range(n_items))),
    )


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/val/test user populations over a shared item set.

    Validation and test matrices come in fold-in/holdout pairs over the
    same users; per user the two parts are disjoint and their union is
    that user's full row.
    """

    train: InteractionMatrix
    val_fold_in: InteractionMatrix
    val_holdout: InteractionMatrix
    test_fold_in: InteractionMatrix
    test_holdout: InteractionMatrix
    seed: int

    @property
    def n_items(self) -> int:
        return self.train.n_items


@dataclass(frozen=True)
class SynthSpec:
    """Planted nested-cohort generator settings.

    cohort_support_sizes must be strictly increasing; support k is a
    subset of support k+1, so light users are strict-subset neighbors of
    heavier ones. A field value that breaks this, or a support larger
    than n_items, is a ValueError.
    """

    cohort_sizes: tuple[int, ...]
    cohort_support_sizes: tuple[int, ...]
    n_items: int
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cohort_sizes", tuple(int(c) for c in self.cohort_sizes))
        object.__setattr__(self, "cohort_support_sizes",
                           tuple(int(s) for s in self.cohort_support_sizes))
        if len(self.cohort_sizes) != len(self.cohort_support_sizes):
            raise ValueError("cohort_sizes and cohort_support_sizes must align")
        if not self.cohort_sizes:
            raise ValueError("at least one cohort required")
        sizes = self.cohort_support_sizes
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("cohort_support_sizes must be strictly increasing")
        if any(c < 1 for c in self.cohort_sizes):
            raise ValueError("cohort sizes must be positive")
        if sizes[0] < 1:
            raise ValueError("supports must be nonempty")
        if sizes[-1] > self.n_items:
            raise ValueError("largest support exceeds n_items")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@contextmanager
def _open_utf8(path: str | Path, newline: str | None = None):
    """Open path as UTF-8 text. A byte that does not decode, wherever the
    caller reads it, is a ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                             f"{path} is not UTF-8 text") from None
        raise


def ingest_events(path: str | Path, min_user_interactions: int,
                  min_item_users: int, rating_threshold: float) -> InteractionMatrix:
    """Read `user,item,rating` CSV events and build the binary matrix.

    Ratings >= rating_threshold become positives, coded and indexed in the
    order a positive first names each user and item. Items with fewer than
    min_item_users distinct users and users with fewer than
    min_user_interactions items are dropped alternately until both
    constraints hold at once (a fixed point, independent of filter order);
    users and items left with no pair are dropped at any minimum. An id
    holding a tab or a line break, which the idmap cannot hold, is a
    ParseError.

    Ids are `str.strip`ped fields and ratings `float` of the stripped
    field, whichever reader runs (piavae.events). A file of unquoted
    3-field records ending in LF or CRLF, with no NUL and no field that
    would be an error or is over csv.field_size_limit(), is read as bytes
    with numpy; any other file goes whole to the csv.reader loop, which
    raises every ParseError, a csv.Error included, with the record's line.
    """
    if min_user_interactions < 0 or min_item_users < 0:
        raise ValueError("min counts must be >= 0")
    # Imported here: the geometry lab, which never reads events, does not
    # load the readers.
    from .events import read_events
    user_of, item_of, user_ids, item_ids = read_events(path, rating_threshold)

    # One key per distinct pair, sorted by user code, then item code
    # (np.unique hashes int64 keys: about 100x slower than this sort on a
    # million keys with numpy 2.4). The codes go as soon as the keys hold
    # them, to keep the peak down.
    n_codes = len(item_ids)
    keys = user_of * n_codes
    keys += item_of
    del user_of, item_of
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) > 0]
    user, item = np.divmod(keys, n_codes)
    # Alternate the two filters until neither removes a pair.
    alive = np.ones(keys.size, dtype=bool)
    while True:
        n_alive = np.count_nonzero(alive)
        alive &= np.bincount(item[alive], minlength=n_codes)[item] >= min_item_users
        alive &= (np.bincount(user[alive], minlength=len(user_ids))[user]
                  >= min_user_interactions)
        if np.count_nonzero(alive) == n_alive:
            break
    if not alive.any():
        raise EmptyDatasetError("no interactions survived the count filters")

    # Codes are first-seen order, so ascending renumbering keeps it.
    kept_users, row = np.unique(user[alive], return_inverse=True)
    kept_items, indices = np.unique(item[alive], return_inverse=True)
    indptr = np.searchsorted(row, np.arange(kept_users.size + 1))
    return InteractionMatrix(
        n_users=kept_users.size,
        n_items=kept_items.size,
        indptr=indptr,
        indices=indices,
        user_ids=tuple(user_ids[c] for c in kept_users),
        item_ids=tuple(item_ids[c] for c in kept_items),
    )


def _submatrix(m: InteractionMatrix, users: np.ndarray) -> InteractionMatrix:
    indptr, indices = m.csr_rows(users)
    return InteractionMatrix(n_users=len(users), n_items=m.n_items,
                             indptr=indptr, indices=indices,
                             user_ids=tuple(m.user_ids[int(u)] for u in users),
                             item_ids=m.item_ids)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_dataset(m: InteractionMatrix, n_val_users: int, n_test_users: int,
                  fold_in_fraction: float, seed: int) -> SplitDataset:
    """Sample disjoint val/test user sets and partition their rows.

    The held-out users are the first n_val_users + n_test_users users of a
    seeded permutation among those with at least 2 interactions (val
    first); every other user trains. Each held-out user's items go
    round_half_up(fraction * |row|) into the fold-in part (clamped so both
    parts stay nonempty) and the rest into the holdout. Deterministic
    given the seed.
    """
    if not 0.0 < fold_in_fraction < 1.0:
        raise SplitError("fold_in_fraction must lie strictly between 0 and 1")
    if n_val_users < 0 or n_test_users < 0:
        raise SplitError(f"cannot hold out a negative number of users: "
                         f"{n_val_users} val and {n_test_users} test users")
    n_held = n_val_users + n_test_users
    if n_held >= m.n_users:
        raise SplitError(
            f"cannot hold out {n_held} users from a {m.n_users}-user matrix"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m.n_users)
    held = perm[m.row_lengths()[perm] >= 2][:n_held]
    if held.size < n_held:
        raise SplitError(
            f"cannot hold out {n_held} users: only {held.size} of the "
            f"{m.n_users} users have at least 2 interactions"
        )
    val_users = np.sort(held[:n_val_users])
    test_users = np.sort(held[n_val_users:])
    train_users = np.setdiff1d(perm, held)

    def partition(users: np.ndarray) -> tuple[InteractionMatrix, InteractionMatrix]:
        fold_rows, hold_rows, ids = [], [], []
        for u in users:
            row = m.row(int(u))
            k = _round_half_up(fold_in_fraction * row.size)
            k = min(max(k, 1), row.size - 1)
            shuffled = rng.permutation(row)
            fold_rows.append(np.sort(shuffled[:k]))
            hold_rows.append(np.sort(shuffled[k:]))
            ids.append(m.user_ids[int(u)])
        fold = matrix_from_rows(fold_rows, m.n_items, user_ids=ids,
                                item_ids=list(m.item_ids))
        hold = matrix_from_rows(hold_rows, m.n_items, user_ids=ids,
                                item_ids=list(m.item_ids))
        return fold, hold

    val_fold, val_hold = partition(val_users)
    test_fold, test_hold = partition(test_users)
    return SplitDataset(
        train=_submatrix(m, train_users),
        val_fold_in=val_fold,
        val_holdout=val_hold,
        test_fold_in=test_fold,
        test_holdout=test_hold,
        seed=seed,
    )


def synth_block_dataset(spec: SynthSpec) -> InteractionMatrix:
    """Generate users over nested item supports plus Bernoulli noise.

    Support k is the first cohort_support_sizes[k] items of a seeded item
    permutation, so smaller supports are subsets of larger ones. A cohort-k
    user covers all of support k-1 plus a random nonempty subset of the
    remaining support-k items; cohort-0 users cover a random nonempty
    subset of support 0. With zero noise this plants strict-subset
    relations between cohorts: any lighter-cohort row is contained in any
    heavier-cohort row while their l1 distance stays large.
    """
    rng = np.random.default_rng(spec.seed)
    item_perm = rng.permutation(spec.n_items)
    coverage = 0.8  # per-item keep probability inside the fresh support slice

    rows: list[np.ndarray] = []
    for k, (n_users, support_size) in enumerate(
            zip(spec.cohort_sizes, spec.cohort_support_sizes)):
        base_size = spec.cohort_support_sizes[k - 1] if k > 0 else 0
        base = item_perm[:base_size]
        fresh = item_perm[base_size:support_size]
        for _ in range(n_users):
            keep = rng.random(fresh.size) < coverage
            if not keep.any():
                keep[int(rng.integers(fresh.size))] = True
            items = np.concatenate([base, fresh[keep]])
            if spec.noise_rate > 0.0:
                extra = np.flatnonzero(rng.random(spec.n_items) < spec.noise_rate)
                items = np.union1d(items, extra)
            rows.append(np.sort(items))
    return matrix_from_rows(rows, spec.n_items)


# ---------------------------------------------------------------------------
# On-disk container
# ---------------------------------------------------------------------------

def write_csr(m: InteractionMatrix, path: str | Path) -> None:
    """Serialize the matrix to the PIA1 little-endian CSR container."""
    with open(path, "wb") as fh:
        fh.write(CSR_MAGIC)
        fh.write(struct.pack("<QQQ", m.n_users, m.n_items, m.nnz))
        fh.write(m.indptr.astype("<u8").tobytes())
        fh.write(m.indices.astype("<u8").tobytes())


def read_array(fh, dtype: str, shape: tuple[int, ...], path,
               what: str) -> np.ndarray:
    """Read the C-ordered array `what` from a binary file straight into a
    new buffer, or raise CorruptFileError at the byte where the file ends.
    The length is checked against the file before anything is allocated,
    so a corrupt header cannot ask for more memory than the file holds."""
    size = np.dtype(dtype).itemsize * math.prod(shape)  # Python ints: no wrap
    offset = fh.tell()
    end = os.fstat(fh.fileno()).st_size
    if size > end - offset:
        raise CorruptFileError(
            path, end, f"truncated: {what} needs {size} bytes from byte {offset}")
    out = np.empty(shape, dtype=dtype)
    fh.readinto(memoryview(out).cast("B"))
    return out


def check_end(fh, path) -> None:
    """Raise CorruptFileError if bytes follow what the header describes."""
    offset = fh.tell()
    if fh.read(1):
        raise CorruptFileError(path, offset, "data past the end its header gives")


def read_csr(path: str | Path, user_ids: list[str] | None = None,
             item_ids: list[str] | None = None) -> InteractionMatrix:
    """Read write_csr's file; a bad magic or length is a CorruptFileError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CSR_MAGIC:
            raise CorruptFileError(path, 0, f"bad magic {magic!r}")
        n_users, n_items, nnz = map(int, read_array(fh, "<u8", (3,), path, "header"))
        indptr = read_array(fh, "<u8", (n_users + 1,), path, "indptr")
        indices = read_array(fh, "<u8", (nnz,), path, "indices")
        check_end(fh, path)
    try:
        return InteractionMatrix(
            n_users=n_users,
            n_items=n_items,
            indptr=indptr.astype(np.int64),
            indices=indices.astype(np.int64),
            user_ids=tuple(map(str, range(n_users)) if user_ids is None
                           else user_ids),
            item_ids=tuple(map(str, range(n_items)) if item_ids is None
                           else item_ids),
        )
    except MatrixError as exc:
        raise MatrixError(f"{path}: {exc}") from None


def write_idmap(path: str | Path, user_ids: dict[str, list[str]],
                item_ids: list[str]) -> None:
    """Write `kind<TAB>dense_index<TAB>external_id` lines.

    User rows carry the split part in the kind column (user:train,
    user:val, user:test) since the parts index users independently.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for part, ids in user_ids.items():
            for idx, ext in enumerate(ids):
                fh.write(f"user:{part}\t{idx}\t{ext}\n")
        for idx, ext in enumerate(item_ids):
            fh.write(f"item\t{idx}\t{ext}\n")


def read_idmap(path: str | Path) -> tuple[dict[str, list[str]], list[str]]:
    """Read write_idmap's rows; each dense index must count the earlier
    rows of its kind (item, or user:<part>), or it is a ParseError naming
    path and the line. Blank lines are skipped."""
    users: dict[str, list[str]] = {}
    items: list[str] = []
    with _open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(line_no, f"{path}: rows need 3 tab-separated fields")
            kind, index, ext = parts
            if kind == "item":
                ids = items
            elif kind.startswith("user:"):
                ids = users.setdefault(kind.split(":", 1)[1], [])
            else:
                raise ParseError(line_no, f"{path}: unknown kind {kind!r}")
            if index != str(len(ids)):
                raise ParseError(line_no, f"{path}: {kind} row has index "
                                 f"{index!r}, expected {len(ids)}")
            ids.append(ext)
    return users, items


SPLIT_FILES = {
    "train": "train.csr",
    "val_fold_in": "val_fold.csr",
    "val_holdout": "val_hold.csr",
    "test_fold_in": "test_fold.csr",
    "test_holdout": "test_hold.csr",
}


def save_split(split: SplitDataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for attr, fname in SPLIT_FILES.items():
        write_csr(getattr(split, attr), out / fname)
    write_idmap(
        out / "idmap.tsv",
        user_ids={
            "train": list(split.train.user_ids),
            "val": list(split.val_fold_in.user_ids),
            "test": list(split.test_fold_in.user_ids),
        },
        item_ids=list(split.train.item_ids),
    )
    (out / "seed.txt").write_text(f"{split.seed}\n", encoding="utf-8")


def load_split(data_dir: str | Path) -> SplitDataset:
    data = Path(data_dir)
    users, items = read_idmap(data / "idmap.tsv")
    part_of = {
        "train": "train", "val_fold_in": "val", "val_holdout": "val",
        "test_fold_in": "test", "test_holdout": "test",
    }
    matrices = {
        attr: read_csr(data / fname, user_ids=users.get(part_of[attr], []),
                       item_ids=items)
        for attr, fname in SPLIT_FILES.items()
    }
    seed_file = data / "seed.txt"
    try:
        seed = int(seed_file.read_text(encoding="utf-8")) if seed_file.exists() else 0
    except ValueError:  # a UnicodeDecodeError too
        raise ParseError(1, f"{seed_file} must hold an integer seed") from None
    return SplitDataset(seed=seed, **matrices)
