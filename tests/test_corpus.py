import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piavae import events
from piavae.corpus import (InteractionMatrix, SynthSpec, _open_utf8,
                           ingest_events, load_split, matrix_from_rows,
                           read_csr, read_idmap, save_split, split_dataset,
                           synth_block_dataset, write_csr, write_idmap)
from piavae.events import _ID_BREAK
from piavae.errors import (CorruptFileError, EmptyDatasetError, MatrixError,
                           ParseError, PiaVaeError, SplitError)
from piavae.suites import _tiny_split
from tests.test_model import traced_peak

TOY_CSV = """user,item,rating
u1,i1,5
u1,i2,3
u2,i1,4
u2,i3,5
u3,i2,4
u3,i3,2
"""


def _write(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def reference_ingest_events(path, min_user_interactions, min_item_users,
                            rating_threshold):
    """The set-based ingest that the array version replaced, kept as its
    reference (no input checks: the callers write well-formed files)."""
    pairs, seen = [], set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for user, item, rating in reader:
            if float(rating) >= rating_threshold and (user, item) not in seen:
                seen.add((user, item))
                pairs.append((user, item))
    user_items, item_users = {}, {}
    for user, item in pairs:
        user_items.setdefault(user, set()).add(item)
        item_users.setdefault(item, set()).add(user)
    while True:
        bad_items = [i for i, us in item_users.items() if len(us) < min_item_users]
        for i in bad_items:
            for u in item_users.pop(i):
                user_items[u].discard(i)
        bad_users = [u for u, its in user_items.items()
                     if len(its) < min_user_interactions]
        for u in bad_users:
            for i in user_items.pop(u):
                item_users[i].discard(u)
        item_users = {i: us for i, us in item_users.items() if us}
        if not bad_items and not bad_users:
            break
    if not user_items or not item_users:
        raise EmptyDatasetError("no interactions survived the count filters")
    user_idx, item_idx = {}, {}
    for user, item in pairs:
        if user in user_items:
            user_idx.setdefault(user, len(user_idx))
        if item in item_users:
            item_idx.setdefault(item, len(item_idx))
    rows = [[] for _ in user_idx]
    for user, item in pairs:
        if user in user_idx and item in item_idx:
            rows[user_idx[user]].append(item_idx[item])
    return matrix_from_rows([np.array(r, dtype=np.int64) for r in rows],
                            n_items=len(item_idx), user_ids=list(user_idx),
                            item_ids=list(item_idx))


def loop_ingest_events(path, min_user_interactions, min_item_users,
                       rating_threshold):
    """The record-by-record csv.reader ingest that the byte reader
    replaced, kept as its exact reference: the same matrix, or the same
    error with the same line and message."""
    if min_user_interactions < 0 or min_item_users < 0:
        raise ValueError("min counts must be >= 0")
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    user_of: list[int] = []
    item_of: list[int] = []
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "missing header") from None
        if len(header) < 3:
            raise ParseError(1, "header must have user,item,rating columns")
        while True:
            # Each record is numbered by the file line it starts on.
            line_no = reader.line_num + 1
            fields = next(reader, None)
            if fields is None:
                break
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            if len(fields) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(fields)}")
            user, item, rating_text = map(str.strip, fields)
            if not user or not item:
                raise ParseError(line_no, "empty user or item id")
            broken = _ID_BREAK.search(user) or _ID_BREAK.search(item)
            if broken:
                raise ParseError(line_no, f"id {broken.string!r} holds a tab "
                                 "or a line break, which the idmap cannot hold")
            try:
                rating = float(rating_text)
            except ValueError:
                raise ParseError(line_no, f"bad rating {rating_text!r}") from None
            if rating >= rating_threshold:
                user_of.append(user_code.setdefault(user, len(user_code)))
                item_of.append(item_code.setdefault(item, len(item_code)))

    n_codes = len(item_code)
    keys = np.sort(np.array(user_of, dtype=np.int64) * n_codes
                   + np.array(item_of, dtype=np.int64))
    keys = keys[np.diff(keys, prepend=-1) > 0]
    user, item = np.divmod(keys, n_codes)
    alive = np.ones(keys.size, dtype=bool)
    while True:
        n_alive = np.count_nonzero(alive)
        alive &= np.bincount(item[alive], minlength=n_codes)[item] >= min_item_users
        alive &= (np.bincount(user[alive], minlength=len(user_code))[user]
                  >= min_user_interactions)
        if np.count_nonzero(alive) == n_alive:
            break
    if not alive.any():
        raise EmptyDatasetError("no interactions survived the count filters")
    kept_users, row = np.unique(user[alive], return_inverse=True)
    kept_items, indices = np.unique(item[alive], return_inverse=True)
    indptr = np.searchsorted(row, np.arange(kept_users.size + 1))
    user_ids, item_ids = list(user_code), list(item_code)
    return InteractionMatrix(
        n_users=kept_users.size,
        n_items=kept_items.size,
        indptr=indptr,
        indices=indices,
        user_ids=tuple(user_ids[c] for c in kept_users),
        item_ids=tuple(item_ids[c] for c in kept_items),
    )


def ingest_outcome(ingest, path, *args):
    """What an ingest gives: the matrix's bytes and ids, or the error."""
    try:
        m = ingest(path, *args)
    except PiaVaeError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return m.indptr.tobytes(), m.indices.tobytes(), m.user_ids, m.item_ids


class TestIngestEvents:
    def test_toy_file_threshold_filters_low_ratings(self, tmp_path):
        # Hand-filtered: rating >= 4 keeps (u1,i1) (u2,i1) (u2,i3) (u3,i2).
        m = ingest_events(_write(tmp_path, TOY_CSV), 1, 1, 4.0)
        assert m.n_users == 3 and m.n_items == 3
        by_ext = {m.user_ids[u]: {m.item_ids[i] for i in m.row(u)}
                  for u in range(m.n_users)}
        assert by_ext == {"u1": {"i1"}, "u2": {"i1", "i3"}, "u3": {"i2"}}

    def test_no_filtering_keeps_every_pair(self, tmp_path):
        m = ingest_events(_write(tmp_path, TOY_CSV), 0, 0, float("-inf"))
        assert m.nnz == 6
        assert m.n_users == 3 and m.n_items == 3

    def test_duplicate_pairs_collapse(self, tmp_path):
        text = "user,item,rating\nu1,i1,5\nu1,i1,4\nu1,i2,5\n"
        m = ingest_events(_write(tmp_path, text), 0, 0, 0.0)
        assert m.nnz == 2

    def test_alternating_filter_reaches_fixed_point(self, tmp_path):
        # Dropping item j1 (single user) leaves u4 with one item, which must
        # then also be dropped, which in turn leaves j2 under-supported.
        text = ("user,item,rating\n"
                "u4,j1,5\nu4,j2,5\n"
                "u5,j2,5\nu5,j3,5\nu5,j4,5\n"
                "u6,j3,5\nu6,j4,5\n")
        m = ingest_events(_write(tmp_path, text), 2, 2, 4.0)
        kept_users = set(m.user_ids)
        kept_items = set(m.item_ids)
        assert kept_users == {"u5", "u6"}
        assert kept_items == {"j3", "j4"}
        counts = m.row_lengths()
        assert np.all(counts >= 2)
        item_counts = np.bincount(m.indices, minlength=m.n_items)
        assert np.all(item_counts >= 2)

    def test_fixed_point_property_random(self, tmp_path):
        rng = np.random.default_rng(42)
        lines = ["user,item,rating"]
        for _ in range(300):
            lines.append(f"u{rng.integers(30)},i{rng.integers(40)},{rng.integers(1, 6)}")
        m = ingest_events(_write(tmp_path, "\n".join(lines) + "\n"), 3, 2, 3.0)
        assert np.all(m.row_lengths() >= 3)
        assert np.all(np.bincount(m.indices, minlength=m.n_items) >= 2)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_events(tmp_path / "absent.csv", 1, 1, 4.0)

    def test_malformed_line_carries_line_number(self, tmp_path):
        text = "user,item,rating\nu1,i1,5\nu2,i2\n"
        with pytest.raises(ParseError) as exc:
            ingest_events(_write(tmp_path, text), 0, 0, 0.0)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_number_counts_file_lines_not_records(self, tmp_path, newline):
        # The quoted rating's line break is valid CSV: the bad record that
        # follows starts on file line 4, though it is the third record.
        text = newline.join(["user,item,rating", 'u1,i1,"5', '"', "u2,i2,good", ""])
        with pytest.raises(ParseError, match="bad rating 'good'") as exc:
            ingest_events(_write(tmp_path, text), 0, 0, 0.0)
        assert exc.value.line_number == 4

    def test_bad_rating_raises(self, tmp_path):
        text = "user,item,rating\nu1,i1,good\n"
        with pytest.raises(ParseError):
            ingest_events(_write(tmp_path, text), 0, 0, 0.0)

    def test_empty_after_filter(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            ingest_events(_write(tmp_path, TOY_CSV), 10, 10, 4.0)

    def test_user_left_without_items_is_dropped_at_min_zero(self, tmp_path):
        # 20 users share items i0-i3; "lone" names only "rare", which no
        # one else has, so min_item 2 drops it and leaves "lone" empty.
        lines = ["user,item,rating"]
        lines += [f"u{u},i{i},5" for u in range(20) for i in range(4)]
        lines.append("lone,rare,5")
        m = ingest_events(_write(tmp_path, "\n".join(lines) + "\n"), 0, 2, 4.0)
        assert m.n_users == 20 and "lone" not in m.user_ids
        assert m.item_ids == ("i0", "i1", "i2", "i3")
        assert np.all(m.row_lengths() == 4)

    @pytest.mark.parametrize("bad", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_id_the_idmap_cannot_hold_is_rejected(self, tmp_path, bad, column):
        fields = ["u2", "i2", "5"]
        fields[column] = f'"x{bad}y"'
        text = "user,item,rating\nu1,i1,5\n" + ",".join(fields) + "\n"
        with pytest.raises(ParseError, match="tab or a line break") as exc:
            ingest_events(_write(tmp_path, text), 0, 0, 0.0)
        assert exc.value.line_number == 3
        assert repr(f"x{bad}y") in str(exc.value)

    def test_first_seen_order_is_deterministic(self, tmp_path):
        m1 = ingest_events(_write(tmp_path, TOY_CSV, "a.csv"), 0, 0, 0.0)
        m2 = ingest_events(_write(tmp_path, TOY_CSV, "b.csv"), 0, 0, 0.0)
        assert m1.user_ids == m2.user_ids == ("u1", "u2", "u3")
        assert m1.item_ids == ("i1", "i2", "i3")


def _random_matrix(n_users=100, n_items=40, min_row=3, max_row=12, seed=0):
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(n_items, size=int(rng.integers(min_row, max_row)),
                               replace=False))
            for _ in range(n_users)]
    return matrix_from_rows(rows, n_items)


class TestSplitDataset:
    def test_five_item_user_gets_4_1_partition(self):
        rows = [np.arange(5) for _ in range(10)]
        m = matrix_from_rows(rows, 8)
        split = split_dataset(m, 2, 2, 0.8, seed=1)
        for part in (split.val_fold_in, split.test_fold_in):
            assert np.all(part.row_lengths() == 4)
        for part in (split.val_holdout, split.test_holdout):
            assert np.all(part.row_lengths() == 1)

    def test_same_seed_is_byte_identical(self, tmp_path):
        m = _random_matrix()
        a = split_dataset(m, 10, 10, 0.8, seed=7)
        b = split_dataset(m, 10, 10, 0.8, seed=7)
        for attr in ("train", "val_fold_in", "val_holdout",
                     "test_fold_in", "test_holdout"):
            write_csr(getattr(a, attr), tmp_path / "a.csr")
            write_csr(getattr(b, attr), tmp_path / "b.csr")
            assert (tmp_path / "a.csr").read_bytes() == (tmp_path / "b.csr").read_bytes()

    def test_user_sets_partition_everyone(self):
        m = _random_matrix(100)
        split = split_dataset(m, 10, 10, 0.8, seed=3)
        assert split.train.n_users == 80
        all_ids = (set(split.train.user_ids) | set(split.val_fold_in.user_ids)
                   | set(split.test_fold_in.user_ids))
        assert all_ids == set(m.user_ids)
        assert not set(split.val_fold_in.user_ids) & set(split.test_fold_in.user_ids)
        assert not set(split.train.user_ids) & set(split.val_fold_in.user_ids)

    def test_fold_in_and_holdout_exactly_tile_each_row(self):
        m = _random_matrix(60, seed=5)
        split = split_dataset(m, 15, 15, 0.8, seed=9)
        original = {m.user_ids[u]: set(m.row(u).tolist()) for u in range(m.n_users)}
        for fold, hold in ((split.val_fold_in, split.val_holdout),
                           (split.test_fold_in, split.test_holdout)):
            for u in range(fold.n_users):
                f = set(fold.row(u).tolist())
                h = set(hold.row(u).tolist())
                assert f and h
                assert not f & h
                assert f | h == original[fold.user_ids[u]]

    def test_too_few_users_rejected(self):
        m = _random_matrix(10)
        with pytest.raises(SplitError):
            split_dataset(m, 5, 5, 0.8, seed=0)

    def test_single_interaction_user_trains(self):
        # A one-item row cannot give both a fold-in and a holdout item, so
        # that user trains wherever the permutation puts it.
        rows = [np.array([0]), np.array([0, 1]), np.array([1, 2]),
                np.array([0, 2])]
        m = matrix_from_rows(rows, 3)
        for seed in range(10):
            split = split_dataset(m, 2, 1, 0.8, seed=seed)
            assert split.train.user_ids == (m.user_ids[0],)
        m = matrix_from_rows(rows + [np.array([2])], 3)
        with pytest.raises(SplitError, match="only 3 of the 5 users"):
            split_dataset(m, 2, 2, 0.8, seed=0)

    def test_tiny_split_holds_at_every_seed(self):
        # The geometry lab's planted split has one-item users at many seeds.
        for seed in range(200):
            split = _tiny_split(seed)
            assert split.val_fold_in.n_users == split.test_fold_in.n_users == 8

    def test_bad_fraction_rejected(self):
        m = _random_matrix(20)
        with pytest.raises(SplitError):
            split_dataset(m, 2, 2, 1.0, seed=0)


class TestSynthBlockDataset:
    def test_zero_noise_rows_stay_inside_support(self):
        spec = SynthSpec(cohort_sizes=(2,), cohort_support_sizes=(3,),
                         n_items=10, noise_rate=0.0, seed=4)
        m = synth_block_dataset(spec)
        assert m.n_users == 2
        support = set()
        for u in range(2):
            support |= set(m.row(u).tolist())
        assert len(support) <= 3

    def test_cohort_rows_subset_of_their_support(self):
        spec = SynthSpec(cohort_sizes=(10, 10, 10),
                         cohort_support_sizes=(5, 20, 60),
                         n_items=100, noise_rate=0.0, seed=11)
        m = synth_block_dataset(spec)
        # Recover supports from the union of each cohort's rows.
        unions = []
        for c in range(3):
            items: set[int] = set()
            for u in range(10 * c, 10 * (c + 1)):
                items |= set(m.row(u).tolist())
            unions.append(items)
        assert len(unions[0]) <= 5
        assert unions[0] <= unions[1] <= unions[2]
        assert len(unions[1]) <= 20 and len(unions[2]) <= 60

    def test_nested_cohorts_are_far_but_related(self):
        spec = SynthSpec(cohort_sizes=(8, 8), cohort_support_sizes=(5, 50),
                         n_items=200, noise_rate=0.0, seed=2)
        m = synth_block_dataset(spec)
        for u in range(8):
            row_u = set(m.row(u).tolist())
            for v in range(8, 16):
                row_v = set(m.row(v).tolist())
                assert row_u < row_v  # strict-subset neighbor
                assert len(row_u & row_v) > 0
                l1 = len(row_u ^ row_v)
                assert l1 > 5

    def test_seed_reproducibility(self):
        spec = SynthSpec(cohort_sizes=(5, 5), cohort_support_sizes=(4, 12),
                         n_items=30, noise_rate=0.1, seed=8)
        a = synth_block_dataset(spec)
        b = synth_block_dataset(spec)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_oversized_support_rejected(self):
        with pytest.raises(ValueError, match="exceeds n_items"):
            SynthSpec(cohort_sizes=(2,), cohort_support_sizes=(11,),
                      n_items=10, noise_rate=0.0, seed=0)

    def test_non_nested_sizes_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SynthSpec(cohort_sizes=(2, 2), cohort_support_sizes=(5, 5),
                      n_items=10, noise_rate=0.0, seed=0)


class TestCsrContainer:
    def test_roundtrip_preserves_matrix(self, tmp_path):
        m = _random_matrix(seed=13)
        write_csr(m, tmp_path / "m.csr")
        back = read_csr(tmp_path / "m.csr")
        assert back.n_users == m.n_users
        assert back.n_items == m.n_items
        assert np.array_equal(back.indptr, m.indptr)
        assert np.array_equal(back.indices, m.indices)

    def test_magic_checked(self, tmp_path):
        (tmp_path / "bad.csr").write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(CorruptFileError, match="magic") as exc:
            read_csr(tmp_path / "bad.csr")
        assert exc.value.offset == 0

    def test_header_layout(self, tmp_path):
        m = matrix_from_rows([np.array([0, 2])], 3)
        write_csr(m, tmp_path / "m.csr")
        blob = (tmp_path / "m.csr").read_bytes()
        assert blob[:4] == b"PIA1"
        assert int.from_bytes(blob[4:12], "little") == 1   # users
        assert int.from_bytes(blob[12:20], "little") == 3  # items
        assert int.from_bytes(blob[20:28], "little") == 2  # nnz

    @pytest.mark.parametrize("cut", [10, -4])
    def test_truncated_file_names_file_and_offset(self, tmp_path, cut):
        m = _random_matrix(seed=14)
        write_csr(m, tmp_path / "m.csr")
        blob = (tmp_path / "m.csr").read_bytes()
        short = blob[:cut]
        (tmp_path / "m.csr").write_bytes(short)
        with pytest.raises(CorruptFileError) as exc:
            read_csr(tmp_path / "m.csr")
        assert exc.value.offset == len(short)
        assert "m.csr" in str(exc.value)
        assert f"byte {len(short)}" in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        write_csr(_random_matrix(seed=15), tmp_path / "m.csr")
        size = (tmp_path / "m.csr").stat().st_size
        with open(tmp_path / "m.csr", "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CorruptFileError) as exc:
            read_csr(tmp_path / "m.csr")
        assert exc.value.offset == size

    def test_split_directory_roundtrip(self, tmp_path):
        m = _random_matrix(40, seed=21)
        split = split_dataset(m, 8, 8, 0.8, seed=5)
        save_split(split, tmp_path / "data")
        back = load_split(tmp_path / "data")
        assert back.seed == 5
        assert back.train.user_ids == split.train.user_ids
        assert back.val_fold_in.user_ids == split.val_fold_in.user_ids
        for attr in ("train", "val_fold_in", "val_holdout",
                     "test_fold_in", "test_holdout"):
            assert np.array_equal(getattr(back, attr).indices,
                                  getattr(split, attr).indices)


class TestInteractionMatrixInvariants:
    def test_rows_sorted_strictly(self):
        m = matrix_from_rows([np.array([3, 1, 1, 0])], 5)
        assert m.row(0).tolist() == [0, 1, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(MatrixError):
            InteractionMatrix(n_users=1, n_items=2,
                              indptr=np.array([0, 1]), indices=np.array([5]),
                              user_ids=("a",), item_ids=("x", "y"))

    def test_indptr_of_the_wrong_length_rejected(self):
        # read_csr reads n_users + 1 offsets, so no file reaches this guard.
        with pytest.raises(MatrixError, match="indptr length"):
            InteractionMatrix(n_users=2, n_items=2,
                              indptr=np.array([0, 1]), indices=np.array([0]),
                              user_ids=("a", "b"), item_ids=("x", "y"))

    def test_first_unsorted_row_is_named(self):
        # Row 0 ends high and row 2 starts low: that step is allowed. Row 3
        # repeats an index and row 4 falls; row 3 is reported.
        with pytest.raises(MatrixError, match="row 3 not strictly increasing"):
            InteractionMatrix(n_users=5, n_items=9,
                              indptr=np.array([0, 2, 2, 4, 6, 8]),
                              indices=np.array([1, 8, 0, 5, 4, 4, 7, 6]),
                              user_ids=tuple("abcde"), item_ids=tuple("012345678"))

    def test_csr_rows_matches_row_by_row(self):
        # Any order, repeats allowed; an empty choice gives an empty batch.
        m = _random_matrix(seed=16)
        users = np.array([5, 0, 5, 99, 17])
        indptr, indices = m.csr_rows(users)
        assert indptr.tolist() == [0, *np.cumsum([m.row(u).size for u in users])]
        assert indices.tobytes() == np.concatenate([m.row(u) for u in users]).tobytes()
        indptr, indices = m.csr_rows([])
        assert indptr.tolist() == [0] and indices.size == 0


# ---------------------------------------------------------------------------
# Round-trip and fixed-point properties
# ---------------------------------------------------------------------------

@st.composite
def matrices(draw):
    n_items = draw(st.integers(1, 12))
    rows = draw(st.lists(st.sets(st.integers(0, n_items - 1)), max_size=8))
    return matrix_from_rows([np.array(sorted(r), dtype=np.int64) for r in rows],
                            n_items)


# An id is any text without the idmap's field and line separators.
IDS = st.text(st.characters(blacklist_categories=("Cs",),
                            blacklist_characters="\t\n\r"), max_size=6)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_csr_roundtrip(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            write_csr(m, Path(tmp) / "m.csr")
            back = read_csr(Path(tmp) / "m.csr")
        assert (back.n_users, back.n_items) == (m.n_users, m.n_items)
        assert back.indptr.tobytes() == m.indptr.tobytes()
        assert back.indices.tobytes() == m.indices.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(["train", "val", "test"]),
                           st.lists(IDS, min_size=1, max_size=5)),
           st.lists(IDS, max_size=6))
    def test_idmap_roundtrip(self, users, items):
        with tempfile.TemporaryDirectory() as tmp:
            write_idmap(Path(tmp) / "idmap.tsv", users, items)
            back_users, back_items = read_idmap(Path(tmp) / "idmap.tsv")
        assert back_users == users and back_items == items

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 11),
                              st.integers(1, 5)), max_size=80),
           st.integers(0, 4), st.integers(0, 3))
    def test_ingest_is_a_fixed_point(self, events, min_user, min_item):
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "events.csv"
            first.write_text("user,item,rating\n" + "".join(
                f"u{u},i{i},{r}\n" for u, i, r in events), encoding="utf-8")
            try:
                m = ingest_events(first, min_user, min_item, 3.0)
            except EmptyDatasetError:
                return  # nothing survived the filters: nothing to re-ingest
            assert np.all(m.row_lengths() >= min_user)
            assert np.all(np.bincount(m.indices, minlength=m.n_items) >= min_item)
            pairs = [(m.user_ids[u], m.item_ids[i])
                     for u in range(m.n_users) for i in m.row(u)]
            again = Path(tmp) / "again.csv"
            again.write_text("user,item,rating\n" + "".join(
                f"{u},{i},5\n" for u, i in pairs), encoding="utf-8")
            m2 = ingest_events(again, min_user, min_item, 3.0)
        assert m2.user_ids == m.user_ids
        assert set(m2.item_ids) == set(m.item_ids)
        assert {(m2.user_ids[u], m2.item_ids[i]) for u in range(m2.n_users)
                for i in m2.row(u)} == set(pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9),
                              st.integers(1, 5)), max_size=120),
           st.integers(1, 3), st.integers(1, 3))
    def test_ingest_matches_the_set_based_reference(self, events, min_user,
                                                    min_item):
        # Small id pools repeat ids and pairs; ratings below 3 are dropped.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            path.write_text("user,item,rating\n" + "".join(
                f"u{u},i{i},{r}\n" for u, i, r in events), encoding="utf-8")
            try:
                expected = reference_ingest_events(path, min_user, min_item, 3.0)
            except EmptyDatasetError:
                with pytest.raises(EmptyDatasetError):
                    ingest_events(path, min_user, min_item, 3.0)
                return
            m = ingest_events(path, min_user, min_item, 3.0)
        assert m.indptr.tobytes() == expected.indptr.tobytes()
        assert m.indices.tobytes() == expected.indices.tobytes()
        assert (m.user_ids, m.item_ids) == (expected.user_ids, expected.item_ids)


# ---------------------------------------------------------------------------
# The byte reader against the record-by-record loop
# ---------------------------------------------------------------------------

# Id fields: texts that repeat, run past 8 and 16 bytes and leave ASCII,
# padded with what str.strip removes, so ids that differ only in padding
# are one.
PADS = ["", " ", "\x1c", "\xa0", "\t"]
ID_FIELDS = [[(a + text + b).encode("utf-8") for a in PADS for text in texts
              for b in PADS]
             for texts in (["u1", "u2", "é", "user-00000001"],
                           ["i1", "i2", "ü2x", "ключ-12", "item-0001-long-tail"])]
# What float() takes, spelled oddly.
RATINGS = [b"5", b"4", b"3", b"1", b"4.5", b"4_0", b" nan", b"inf", b"1e0", b"-0"]
# Rows the byte reader hands to the loop: blank and whitespace-only lines,
# 2 and 4 fields, quoted fields holding a comma, a tab or a line break, a
# tab or a lone CR in a bare id, NULs (a trailing one must not merge
# "u1\0" with "u1"), an empty id, a byte that is not UTF-8 and ratings
# float() refuses.
ODD_ROWS = [b"", b"  ", b"u1,i1", b"u1,i1,5,x", b'"u,1",i1,5', b'u1,"i\t1",5',
            b'"u\n1",i1,5', b'"u\r\n1",i1,5', b'u1,"i1",4', b"u1,i\t1,5",
            b"u1,i1\r,5", b"u\x001,i1,5", b"u1\x00,i1,5", b"u\xff,i1,5",
            b",i1,5", b"u1, ,5", b"u1,i1,good", b"u2,i2,"]


@st.composite
def event_files(draw):
    """(CSV bytes, whether the byte reader must take them)."""
    rows = [b",".join(row) for row in draw(st.lists(st.tuples(
        *map(st.sampled_from, [*ID_FIELDS, RATINGS])), max_size=30))]
    odd = draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(ODD_ROWS)),
                        max_size=2))
    for at, row in odd:
        rows.insert(at, row)
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    endings = [ending] * (len(rows) + 1)
    lone_cr = draw(st.integers(0, 5)) == 0
    if lone_cr:
        endings[draw(st.integers(0, len(rows)))] = b"\r"
    data = b"".join(row + end for row, end in
                    zip([b"user,item,rating", *rows], endings))
    if draw(st.booleans()):
        data = data[:-len(endings[-1])]
    return data, not odd and not lone_cr


def _ingest_both(path, *args, block=events._INGEST_BLOCK):
    """ingest_events' and the loop's outcomes, and the byte reader's result."""
    expected = ingest_outcome(loop_ingest_events, path, *args)
    with mock.patch.object(events, "_INGEST_BLOCK", block):
        got = ingest_outcome(ingest_events, path, *args)
        byte_read = events._code_events_bytes(path, args[-1])
    return got, expected, byte_read


class TestByteReader:
    @settings(max_examples=150, deadline=None)
    @given(event_files(), st.sampled_from([1, 40, 1 << 18]),
           st.integers(0, 2), st.integers(0, 2))
    def test_matches_the_record_loop(self, event_file, block, min_user,
                                     min_item):
        # Small blocks put most records, and the odd rows, in later blocks.
        data, clean = event_file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            path.write_bytes(data)
            got, expected, byte_read = _ingest_both(path, min_user, min_item,
                                                    3.5, block=block)
        assert got == expected
        assert clean <= (byte_read is not None)

    @pytest.mark.parametrize("header, odd", [
        *((b"user,item,rating", row) for row in ODD_ROWS),
        (b"user,item", None), (b"", None), (b"u,i,r,x", None)])
    def test_each_odd_row_goes_to_the_loop(self, tmp_path, header, odd):
        # 40-byte blocks: the odd row, near the end, is in a later block.
        rows = [header] + [b"u%d,i%d,5" % (u, i) for u in range(4)
                           for i in range(3)]
        if odd is not None:
            rows.insert(-2, odd)
        path = tmp_path / "events.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        got, expected, byte_read = _ingest_both(path, 0, 0, 3.5, block=40)
        assert got == expected
        assert (byte_read is None) == (header.count(b",") < 2 or odd is not None)

    @pytest.mark.parametrize("bad", [None, b"u1,i1,good", b"u\xff1,i1,5"])
    def test_file_over_one_block_with_a_bad_row_in_a_later_one(self, tmp_path,
                                                               bad):
        rng = np.random.default_rng(7)
        rows = rng.integers([0, 0, 1], [900, 400, 6], size=(25_000, 3))
        lines = [b"user,item,rating", *("u{},item-{:05},{}".format(*r).encode()
                                       for r in rows.tolist())]
        if bad is not None:
            lines.insert(len(lines) - 100, bad)
        path = tmp_path / "events.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        assert path.stat().st_size > 1.5 * events._INGEST_BLOCK
        got, expected, byte_read = _ingest_both(path, 5, 2, 3.5)
        assert got == expected
        assert (byte_read is None) == (bad is not None)

    @staticmethod
    def chunked_case(case):
        """(file bytes, chunk size, whether the byte reader takes it)."""
        rows = [b"user,item,rating"] + [b"u%d,i%d,%d" % (u, i, 3 + (u + i) % 3)
                                        for u in range(6) for i in range(5)]
        data = b"\n".join(rows) + b"\n"
        if case == "records straddle":
            return data, 7, True
        if case == "CRLF straddles":
            data = b"\r\n".join(rows) + b"\r\n"
            return data, data.index(b"\r\n", 40) + 1, True
        if case == "field longer than a chunk":
            return data.replace(b"u3,i2", b"u3," + b"i" * 150), 64, True
        if case == "size a multiple of the chunk":
            data = data.replace(b"rating", b"rating" + b"x" * (-len(data) % 8))
            return data, len(data) // 8, True
        if case == "last record without LF":
            return data[:-1], 16, True
        if case == "quote first in the last chunk":
            data = data[:-1] + b'\nu9,"i9",5\n'
            return data, len(data) - 5, False
        raise AssertionError(case)

    @pytest.mark.parametrize("case", [
        "records straddle", "CRLF straddles", "field longer than a chunk",
        "size a multiple of the chunk",
        "last record without LF", "quote first in the last chunk"])
    def test_chunked_reads_match_the_record_loop(self, tmp_path, case):
        data, chunk, taken = self.chunked_case(case)
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        got, expected, byte_read = _ingest_both(path, 0, 0, 3.5, block=chunk)
        assert got == expected
        assert (byte_read is not None) == taken

    def test_record_carried_past_three_fields_goes_to_the_loop(self, tmp_path):
        # No record of 3 fields within the limit is longer than 3 * limit
        # + 3 bytes. This one is 4 * limit: two 256 KiB reads bring no LF
        # after it starts, so _record_blocks stops carrying it and yields
        # None before any block holds it, and the loop names its line.
        limit = csv.field_size_limit()
        path = tmp_path / "events.csv"
        path.write_text("user,item,rating\nu1,i1,5\n"
                        + "u" * (4 * limit) + ",i1,5\n")
        blocks = []
        record_blocks = events._record_blocks

        def spy(fh, longest):
            for block in record_blocks(fh, longest):
                blocks.append(block)
                yield block

        with mock.patch.object(events, "_record_blocks", spy):
            assert events._code_events_bytes(path, 3.5) is None
        assert blocks == [b"u1,i1,5\n", None]
        with pytest.raises(ParseError, match="line 3: field larger"):
            ingest_events(path, 0, 0, 3.5)

    def test_header_not_utf8_goes_to_the_loop(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"us\xe9r,item,rating\nu1,i1,5\n")
        assert events._code_events_bytes(path, 3.5) is None
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            ingest_events(path, 0, 0, 3.5)
        assert exc.value.line_number == 1

    def test_reader_holds_chunks_not_the_file(self, tmp_path):
        # 60,000 records of 86 bytes. Beyond the codes it returns, the
        # byte reader holds a block's temporaries, not the whole file.
        rng = np.random.default_rng(9)
        rows = rng.integers([0, 0, 1], [300, 500, 6], size=(60_000, 3))
        path = tmp_path / "events.csv"
        path.write_text("user,item,rating\n" + "".join(
            "user-{:036d},item-{:036d},{}\n".format(*r) for r in rows.tolist()))
        user_of, item_of, _, _ = events._code_events_bytes(path, 3.5)
        peak = traced_peak(events._code_events_bytes, path, 3.5)
        assert peak - user_of.nbytes - item_of.nbytes < path.stat().st_size

    def test_peak_memory_stays_under_the_loops(self, tmp_path):
        # 218,803 rows: 190,264 distinct positive pairs of 1,000 users and
        # 2,000 items, and 15% more rows rated below the threshold. With
        # the record-by-record loop, ingest_events peaked at 19,201,760
        # bytes on this file (numpy 2.4.6, Python 3.11.7); with the byte
        # reader at about 15,814,000, 17.6% under it (18,715,178 with 1 MiB
        # blocks).
        rng = np.random.default_rng(0)
        n_users, n_items = 1000, 2000
        keys = np.unique(rng.integers(0, n_users * n_items, 200_000))
        neg = rng.integers(0, n_users * n_items, keys.size * 15 // 100)
        rows = np.concatenate([
            np.column_stack([keys // n_items, keys % n_items,
                             rng.integers(4, 6, keys.size)]),
            np.column_stack([neg // n_items, neg % n_items,
                             rng.integers(1, 4, neg.size)])])
        rows = rows[rng.permutation(len(rows))]
        path = tmp_path / "events.csv"
        path.write_text("user,item,rating\n" + "".join(
            map("u{},i{},{}\n".format, *rows.T.tolist())))
        assert traced_peak(ingest_events, path, 5, 2, 3.5) <= 19_201_760
