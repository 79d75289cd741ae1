"""Reading `user,item,rating` events files: two readers, one result.

An id is its field after `str.strip`, and a rating is `float` of its
stripped field, whichever reader runs. The byte reader takes a file of
unquoted 3-field records with LF or CRLF endings, no NUL, and no field
that would be an error or is over csv.field_size_limit(): it reads the
file in chunks, carrying a partial record into the next block,
tokenizes each block of whole records with numpy, and decodes each
distinct field once in Python. Every other file (quoting, blank lines,
lone CRs, NULs, or any bad record) goes whole to the record-by-record
csv.reader loop, which alone raises the ParseErrors.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from .corpus import _open_utf8
from .errors import ParseError

# Characters that would break an idmap.tsv row.
_ID_BREAK = re.compile("[\t\r\n]")

# The byte reader walks the file in blocks of whole records of about this
# many bytes, some 20,000 records. A record costs some 150 bytes of numpy
# temporaries while its block is parsed. At 256 KiB the ingest of a
# 200k-row file peaks 18% under the csv.reader loop's peak, at 1 MiB only
# 2% under it, at the same speed; smaller blocks pay more per-block numpy
# call overhead for no lower peak.
_INGEST_BLOCK = 1 << 18
# Low-byte masks: a field of n <= 8 bytes read as a little-endian u64
# keeps its own bytes under _LOW_BYTES[n] and zeros the rest.
_LOW_BYTES = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


def read_events(path: str | Path, rating_threshold: float):
    """The user and item codes of the positives (ratings >= threshold),
    each id coded in the order a positive first names it, and the ids in
    code order: (user_of, item_of, user_ids, item_ids)."""
    return (_code_events_bytes(path, rating_threshold)
            or _code_events_csv(path, rating_threshold))


def _csv_records(fh):
    """(line number, fields) of each CSV record, numbered by the file line
    it starts on, from 1. A csv.Error, such as a field over
    csv.field_size_limit(), is a ParseError naming the record it stopped
    in."""
    reader = csv.reader(fh)
    while True:
        line_no = reader.line_num + 1
        try:
            fields = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(line_no, str(exc)) from None
        yield line_no, fields


def _code_events_csv(path: str | Path, rating_threshold: float):
    """The record-by-record reader: every file may take it, and it raises
    every ParseError of ingest_events. Returns the positives' user and
    item codes and the ids in code order."""
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    user_of: list[int] = []
    item_of: list[int] = []
    with _open_utf8(path, newline="") as fh:
        records = _csv_records(fh)
        _, header = next(records, (1, None))
        if header is None:
            raise ParseError(1, "missing header")
        if len(header) < 3:
            raise ParseError(1, "header must have user,item,rating columns")
        for line_no, fields in records:
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
    return (np.array(user_of, dtype=np.int64), np.array(item_of, dtype=np.int64),
            list(user_code), list(item_code))


def _code_events_bytes(path: str | Path, rating_threshold: float):
    """The byte reader: _code_events_csv's result, or None for a file it
    cannot vouch for, which the loop then reads.

    It takes a file with no `"` (quoting), no NUL (keys pad fields with
    NULs) and no CR outside a CRLF, whose header has at least 3 fields
    and whose records all have exactly 3, each within
    csv.field_size_limit() bytes; every distinct id field must strip to
    an id the idmap can hold and every distinct rating field to a float.
    A file that decodes as UTF-8 field by field decodes as a whole, since
    the separators are ASCII. Each block of whole records is checked and
    parsed as it is read, so a CRLF that a read splits is checked as one
    pair, and the first block that fails returns None.
    """
    limit = csv.field_size_limit()
    users, items = _Column(_id_of), _Column(_id_of)
    ratings = _Column(lambda field: float(field.decode("utf-8").strip())
                      >= rating_threshold)
    user_of, item_of = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    with open(path, "rb") as fh:
        header = fh.readline(limit + 2)
        name = header.rstrip(b"\r\n")
        if not _plain(header) or name.count(b",") < 2 or len(name) > limit:
            return None
        try:
            name.decode("utf-8")
        except UnicodeDecodeError:
            return None
        # A valid record is at most 3 fields of `limit` bytes, 2 commas
        # and a CR.
        for data in _record_blocks(fh, 3 * limit + 3):
            split = _plain(data) and _split_block(np.frombuffer(data, np.uint8),
                                                  limit)
            if not split:
                return None
            buf, user, item, rating = split
            rating = ratings.slots(buf, *rating)
            user, item = users.slots(buf, *user), items.slots(buf, *item)
            if rating is None or user is None or item is None:
                return None
            positive = np.array(ratings.values, dtype=bool)[rating]
            user_of.append(users.codes(user[positive]))
            item_of.append(items.codes(item[positive]))
    return (np.concatenate(user_of), np.concatenate(item_of),
            list(users.code_of), list(items.code_of))


def _plain(data: bytes | None) -> bool:
    """Whether data is bytes with no quote, NUL or CR outside a CRLF."""
    return data is not None and b'"' not in data and b"\0" not in data and (
        b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))


def _record_blocks(fh, longest: int):
    """The rest of fh as blocks of whole records, read _INGEST_BLOCK bytes
    at a time; the bytes after a read's last LF start the next block, so
    only the last block may lack its LF. A partial record carried past
    `longest` bytes yields None, so a block and a record bound memory."""
    carry = b""
    while chunk := fh.read(_INGEST_BLOCK):
        data = carry + chunk
        cut = data.rfind(b"\n") + 1
        block, carry = data[:cut], data[cut:]
        if len(carry) > longest:
            yield None
            return
        if block:
            yield block
    if carry:
        yield carry


def _split_block(block: np.ndarray, limit: int):
    """(buf, user, item, rating) of a block of whole LF-terminated records
    (the last may lack its LF): each field as (starts, lengths) in buf, a
    copy of the block padded to hold every field's key window. None if a
    record has not exactly 3 fields or a field is over limit bytes."""
    ends = np.flatnonzero(block == ord("\n"))
    if block[-1] != ord("\n"):
        ends = np.append(ends, block.size)
    commas = np.flatnonzero(block == ord(","))
    if not np.array_equal(np.searchsorted(commas, ends),
                          np.arange(2, 2 * ends.size + 1, 2)):
        return None  # a record without exactly 3 fields, or a blank line
    first, second = commas[0::2], commas[1::2]
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A CRLF's CR stays in the rating field, which float() strips anyway.
    fields = [(starts, first - starts), (first + 1, second - first - 1),
              (second + 1, ends - second - 1)]
    longest = max(int(lengths.max()) for _, lengths in fields)
    if longest > limit:
        return None
    buf = np.zeros(block.size + max(8, 2 * longest), dtype=np.uint8)
    buf[:block.size] = block
    return buf, *fields


def _id_of(field: bytes) -> str:
    """The id a raw id field names; ValueError where the loop raises."""
    name = field.decode("utf-8").strip()
    if not name or _ID_BREAK.search(name):
        raise ValueError(f"id {name!r}")
    return name


class _Column:
    """One CSV column read block by block. Each distinct raw field gets a
    slot when a block first brings it, and Python makes its value, once.

    Fields of up to 8 bytes are keyed by one little-endian u64 of their
    bytes, zero-padded; wider ones by S<width>, in classes of doubling
    width so that one long field cannot widen the keys of all. Each class
    keeps its known keys sorted, beside their slots.
    """

    def __init__(self, parse):
        self.parse = parse      # field bytes -> value, or ValueError
        self.values = []        # per slot
        self.known: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.code_at = np.zeros(0, dtype=np.int64)  # per slot; -1: uncoded
        self.code_of: dict = {}  # value -> code, in code order

    def slots(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """Slot of every field buf[s:s + n], or None if a field new to the
        column does not parse. buf must run on for twice the widest
        field's length, and 8 bytes at least, past its start."""
        slots = np.empty(starts.size, dtype=np.int64)
        done, low, width = 0, -1, 8
        while done < starts.size:
            chosen = np.flatnonzero((lengths > low) & (lengths <= width))
            low, width = width, 2 * width
            if not chosen.size:
                continue
            done += chosen.size
            windows = np.ndarray((buf.size - low + 1,), dtype=f"S{low}",
                                 buffer=buf, strides=(1,))[starts[chosen]]
            if low == 8:
                keys = windows.view("<u8") & _LOW_BYTES[lengths[chosen]]
            else:
                keys = windows
                keys.view(np.uint8).reshape(-1, low)[
                    np.arange(low) >= lengths[chosen, None]] = 0
            found, inverse = np.unique(keys, return_inverse=True)
            known, known_slots = self.known.get(low, (found[:0], slots[:0]))
            at = np.searchsorted(known, found)
            seen = at < known.size
            seen[seen] = known[at[seen]] == found[seen]
            fresh = np.flatnonzero(~seen)
            found_slots = np.empty(found.size, dtype=np.int64)
            found_slots[seen] = known_slots[at[seen]]
            found_slots[fresh] = len(self.values) + np.arange(fresh.size)
            self.known[low] = (np.insert(known, at[fresh], found[fresh]),
                               np.insert(known_slots, at[fresh], found_slots[fresh]))
            fields = found[fresh]
            if low == 8:
                fields = fields.astype("<u8").view("S8")
            try:
                self.values += [self.parse(field) for field in fields.tolist()]
            except ValueError:
                return None
            slots[chosen] = found_slots[inverse]
        return slots

    def codes(self, slots: np.ndarray) -> np.ndarray:
        """Code of the value at each slot. Values new to the codes are coded
        in the order the slots first name them, after earlier calls'."""
        self.code_at = np.append(self.code_at,
                                 np.full(len(self.values) - self.code_at.size, -1))
        uncoded = slots[self.code_at[slots] < 0]
        fresh, first = np.unique(uncoded, return_index=True)
        for slot in fresh[np.argsort(first)].tolist():
            self.code_at[slot] = self.code_of.setdefault(self.values[slot],
                                                         len(self.code_of))
        return self.code_at[slots]
