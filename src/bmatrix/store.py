"""The triple store: two k2-trees plus a compact predicate index.

Triples are sorted by (predicate, object, subject); column i of both
binary matrices represents the i-th triple in that order. The subject
matrix has one row per subject id and a 1 at (s-1, i) for each triple,
the object matrix likewise for objects, so every column carries exactly
one 1 in each matrix. Predicates occupy consecutive column runs tracked
by the predicate index.

All eight bound/unbound triple patterns reduce to row, column, cell and
rectangle queries on the two trees plus rank/select on the predicate
runs. The store is immutable after build and safe for unlimited
concurrent readers. Two thresholds, not stored since no answer depends
on them, steer query strategy and may change between queries: (s, ?, o)
intersects two rows above merge_sorted candidates (DEFAULT_MERGE_SORTED),
and column-to-row lookups read a run of more than merge_unsorted
(DEFAULT_MERGE_UNSORTED) consecutive columns by rects of up to _SLICE columns.

`TripleStore.build` builds the subject tree on a worker thread while the
calling thread builds the object tree; numpy releases the GIL for most of
a tree build. Both builds only read their inputs and the build path keeps
no module state, so the trees are a sequential build's, bit for bit.
Errors surface in subject-then-object order.

A store file (format version 11) is, little-endian throughout: the magic
"BMX1" and the u16 format version, then the dictionary's four pools
(shared, subject-only, object-only, predicates; each a u64 blob length
and the blob, see `dictionary`), the predicate index (u64 start count,
u64 run starts), the subject tree and the object tree, then a u32 CRC32
(`zlib.crc32`) of every byte before it, and nothing after that. Each
tree is its leaf side (u8), sampling preset byte (u8), rows (u64), level
count (u16), one k byte per level and its tree bits T:L (u64 bit count,
then u64 words), every level in one bitmap; a tree with a leaf side
above 1 then holds its DAC leaf ids, the DAC's levels alone with one
chunk width per level, and its leaf vocabulary, an encoding byte and the
leaves (see `Dac` and `LeafVocabulary`). A count is written once, where
no other part implies it: triples are the last run start, predicates one
fewer than the run starts, subjects and objects the rows of their trees,
a pool's terms those in its blob, a tree's columns the triples, a DAC's
leaf ids the set bits of its tree's last level, a vocabulary's leaves
the largest leaf id + 1. No index is stored; loading rebuilds them all:
rank samples, each tree's level table and each pool's bucket offsets.
Files of older versions are refused with a request to rebuild them.

Loading reads the whole file and checks the magic, then the version,
then the checksum, and only then parses the rest. The checksum catches
every single-bit error; a crafted file carries a valid one, so parsing
still refuses a file, with a ValueError, when:
- a read runs into the checksum, or bytes lie between the object tree
  and the checksum;
- a pool fails the dictionary's checks, or a count does not fit its bytes;
- the dictionary's subject, predicate and object counts are not the
  store's, unless all three are 0 (a store saved without a dictionary);
- a packed field (a bitmap, DAC chunks, vocabulary leaves, flags or
  rows) has a set bit past its length;
- a tag byte names no known sampling preset or vocabulary encoding;
- a tree's geometry does not add up: a leaf side other than 1, 2, 4 or
  8, no level, a k below 2, a side prod(ks) * leaf side below its rows
  or columns or above MAX_SIDE, or a tree-bit count other than its
  levels need;
- a vocabulary leaf holds no 1, as one read from padding does;
- a DAC level's chunk width is outside 1 to 64, a DAC level starts at
  bit 64 or later (the widths of the levels before it add up to 64 or
  more), a chunk has bits past bit 63, or the last of two or more levels
  has a 0 chunk; continuation flags on a DAC's last level make the reader
  take the bytes after it for another level, which then breaks one of
  these checks or another part's;
- the predicate index's run starts do not rise from 0.

A query that meets a column with no 1 in a tree, or a run of columns
whose rect does not give exactly one 1 per column, raises a ValueError.
"""

from __future__ import annotations

import io
import struct
import zlib
from array import array
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._binio import pack_fixed, packed_array, read_exact, unpack_fixed, written_size
from .dictionary import Dictionary
from .k2tree import K2Config, K2Tree

MAGIC = b"BMX1"
FORMAT_VERSION = 11

DEFAULT_MERGE_SORTED = 700
DEFAULT_MERGE_UNSORTED = 2
_SLICE = 4096   # most columns per `_rows_of` rect: ??? peaks grow above 8,192

# The eight triple patterns: shape (the bound slots' letters, "?" for an
# unbound slot) -> the TripleStore method that takes the bound ids in
# s, p, o order. Each result lists the unbound slots in s, p, o order.
SHAPES = {
    "spo": "contains",      # -> bool
    "sp?": "objects",       # -> [o]
    "?po": "subjects",      # -> [s]
    "?p?": "by_predicate",  # -> [(s, o)]
    "s?o": "predicates",    # -> [p]
    "s??": "by_subject",    # -> [(p, o)]
    "??o": "by_object",     # -> [(s, p)]
    "???": "all_triples",   # -> [(s, p, o)]
}


def shape_of(s, p, o) -> str:
    """The SHAPES key of a pattern whose unbound slots are None."""
    return ("?" if s is None else "s") + ("?" if p is None else "p") \
        + ("?" if o is None else "o")


def sort_unique(ids: np.ndarray) -> np.ndarray:
    """(s, p, o) id rows sorted by (p, o, s), duplicates dropped.

    Ids are non-negative. When the bit widths of the largest p, o and s sum
    to at most 63, each row packs into one int64 key p << (bo + bs) | o << bs
    | s, whose order is the (p, o, s) order: one sort and one adjacent
    comparison of the keys then stand in for a three-key lexsort. Wider ids
    take the lexsort.
    """
    if len(ids) == 0:
        return ids
    s, p, o = ids[:, 0], ids[:, 1], ids[:, 2]
    bs, bo, bp = (int(col.max()).bit_length() for col in (s, o, p))
    if bp + bo + bs > 63:
        ids = ids[np.lexsort((s, o, p))]
        s, p, o = ids[:, 0], ids[:, 1], ids[:, 2]
        keep = np.ones(len(ids), dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
        return ids[keep]
    key = p.astype(np.int64) << (bo + bs)
    key |= o.astype(np.int64) << bs
    key |= s.astype(np.int64, copy=False)
    key.sort()
    key = key[np.r_[True, key[1:] != key[:-1]]]
    out = np.empty((len(key), 3), dtype=ids.dtype)
    out[:, 0] = key & ((1 << bs) - 1)
    out[:, 1] = key >> (bo + bs)
    out[:, 2] = key >> bs & ((1 << bo) - 1)
    return out


class PredicateIndex:
    """Column runs per predicate, kept as their starts.

    starts[p-1] is the first column of predicate p (0-based), with a
    final sentinel, the triple count n; unused predicate ids own empty
    runs, which start where the next run starts. Select is a lookup in
    starts and rank a binary search over it. starts is an `array.array`
    of the smallest unsigned typecode that holds its values; the file
    keeps it as u64.
    """

    __slots__ = ("starts", "n", "n_predicates")

    def __init__(self, starts: array):
        self.starts = starts
        self.n = starts[-1]
        self.n_predicates = len(starts) - 1

    @classmethod
    def from_sorted(cls, preds_sorted: np.ndarray, n_predicates: int) -> "PredicateIndex":
        starts = np.searchsorted(preds_sorted, np.arange(1, n_predicates + 2),
                                 side="left")
        return cls(packed_array(starts))

    def col_range(self, p: int) -> tuple[int, int]:
        """Inclusive column range of predicate p; empty when lo > hi."""
        if not 1 <= p <= self.n_predicates:
            raise IndexError(f"predicate id {p} out of range [1, {self.n_predicates}]")
        return self.starts[p - 1], self.starts[p] - 1

    def predicate_of(self, i: int) -> int:
        """Predicate owning column i (== rank over the run bitmap)."""
        if not 0 <= i < self.n:
            raise IndexError(f"column {i} out of range [0, {self.n})")
        return bisect_right(self.starts, i)

    def write(self, out) -> None:
        out.write(struct.pack("<Q", len(self.starts)))
        out.write(pack_fixed(self.starts, 64))

    @classmethod
    def read(cls, src) -> "PredicateIndex":
        (n_starts,) = struct.unpack("<Q", read_exact(src, 8))
        starts = unpack_fixed(read_exact(src, 8 * n_starts), 64, n_starts)
        if not starts or starts[0] != 0 or any(
                a > b for a, b in zip(starts, starts[1:])):
            raise ValueError("predicate index run starts do not rise from 0")
        return cls(starts)


class TripleStore:
    """Immutable id-triple store answering all eight triple patterns.

    Its counts are its parts': triples and predicates from the predicate
    index, subjects and objects from the rows of their trees.
    """

    __slots__ = ("subject_tree", "object_tree", "pred_index", "n",
                 "n_subjects", "n_objects", "n_predicates",
                 "merge_sorted", "merge_unsorted")

    def __init__(self, subject_tree: K2Tree, object_tree: K2Tree,
                 pred_index: PredicateIndex):
        self.subject_tree = subject_tree
        self.object_tree = object_tree
        self.pred_index = pred_index
        self.n = pred_index.n
        self.n_subjects = subject_tree.n_rows
        self.n_objects = object_tree.n_rows
        self.n_predicates = pred_index.n_predicates
        self.merge_sorted, self.merge_unsorted = DEFAULT_MERGE_SORTED, DEFAULT_MERGE_UNSORTED

    @classmethod
    def build(cls, triples, n_subjects: int, n_objects: int, n_predicates: int,
              config: K2Config = K2Config()) -> "TripleStore":
        """Build from (s, p, o) id triples, 1-based ids within the given dims,
        in any order and with repeats.

        This is the one place that orders the triples: they are sorted by
        (p, o, s), and duplicates collapse to one column.
        The subject tree is built on one extra thread, joined before this
        returns or raises; a subject-tree error wins over an object-tree one.
        """
        arr = np.asarray(list(triples) if not isinstance(triples, np.ndarray)
                         else triples, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("triples must be (s, p, o) rows")
        if arr.shape[0]:
            s, p, o = arr[:, 0], arr[:, 1], arr[:, 2]
            if (s.min() < 1 or s.max() > n_subjects
                    or p.min() < 1 or p.max() > n_predicates
                    or o.min() < 1 or o.max() > n_objects):
                raise ValueError("triple id outside the declared dimensions")
            arr = sort_unique(arr)
        n = arr.shape[0]
        cols = np.arange(n, dtype=np.int64)

        def tree(ids, n_rows):
            return K2Tree.build(np.column_stack((ids - 1, cols)), n_rows, n, config)
        with ThreadPoolExecutor(1) as worker:
            subject_future = worker.submit(tree, arr[:, 0], n_subjects)
            try:
                object_tree = tree(arr[:, 2], n_objects)
            finally:
                subject_tree = subject_future.result()
        pidx = PredicateIndex.from_sorted(arr[:, 1], n_predicates)
        return cls(subject_tree, object_tree, pidx)

    # -- id validation ---------------------------------------------------

    def _check_s(self, s: int) -> None:
        if not 1 <= s <= self.n_subjects:
            raise IndexError(f"subject id {s} out of range [1, {self.n_subjects}]")

    def _check_o(self, o: int) -> None:
        if not 1 <= o <= self.n_objects:
            raise IndexError(f"object id {o} out of range [1, {self.n_objects}]")

    # -- the eight patterns ------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        """(s, p, o): membership test, first match wins."""
        self._check_s(s)
        lo, hi = self.pred_index.col_range(p)
        self._check_o(o)
        obj_tree = self.object_tree
        o_row = o - 1
        for i in self.subject_tree.row(s - 1, lo, hi):
            if obj_tree.cell(o_row, i):
                return True
        return False

    def objects(self, s: int, p: int) -> list[int]:
        """(s, p, ?): object ids, ascending."""
        self._check_s(s)
        lo, hi = self.pred_index.col_range(p)
        return self._rows_of(self.object_tree, self.subject_tree.row(s - 1, lo, hi))

    def subjects(self, p: int, o: int) -> list[int]:
        """(?, p, o): subject ids, ascending."""
        lo, hi = self.pred_index.col_range(p)
        self._check_o(o)
        return self._rows_of(self.subject_tree, self.object_tree.row(o - 1, lo, hi))

    def predicates(self, s: int, o: int) -> list[int]:
        """(s, ?, o): predicate ids, ascending.

        Few candidate columns for the object -> cell checks in the
        subject tree; many -> a second row query and the sorted
        intersection of the two column lists (threshold: merge_sorted).
        """
        self._check_s(s)
        self._check_o(o)
        by_object = self.object_tree.row(o - 1)
        if len(by_object) <= self.merge_sorted:
            cell, s_row = self.subject_tree.cell, s - 1
            cols = [i for i in by_object if cell(s_row, i)]
        else:
            cols = sorted(set(by_object).intersection(self.subject_tree.row(s - 1)))
        predicate_of = self.pred_index.predicate_of
        return [predicate_of(i) for i in cols]

    def by_subject(self, s: int) -> list[tuple[int, int]]:
        """(s, ?, ?): (predicate, object) pairs, ascending by column."""
        self._check_s(s)
        cols = self.subject_tree.row(s - 1)
        return list(zip(map(self.pred_index.predicate_of, cols),
                        self._rows_of(self.object_tree, cols)))

    def by_object(self, o: int) -> list[tuple[int, int]]:
        """(?, ?, o): (subject, predicate) pairs, ascending by column."""
        self._check_o(o)
        cols = self.object_tree.row(o - 1)
        return list(zip(self._rows_of(self.subject_tree, cols),
                        map(self.pred_index.predicate_of, cols)))

    def by_predicate(self, p: int) -> list[tuple[int, int]]:
        """(?, p, ?): (subject, object) pairs, ascending by column: one run per tree."""
        lo, hi = self.pred_index.col_range(p)
        cols = range(lo, hi + 1)
        return list(zip(self._rows_of(self.subject_tree, cols),
                        self._rows_of(self.object_tree, cols)))

    def all_triples(self) -> list[tuple[int, int, int]]:
        """(?, ?, ?): every stored triple, ascending by column."""
        starts, cols = self.pred_index.starts, range(self.n)
        preds = [p for p in range(1, len(starts)) for _ in range(starts[p - 1], starts[p])]
        return list(zip(self._rows_of(self.subject_tree, cols), preds,
                        self._rows_of(self.object_tree, cols)))

    def _rows_of(self, tree: K2Tree, cols) -> list[int]:
        """The 1-based row of the 1 in each of the ascending columns `cols` of
        a store tree: a run of more than merge_unsorted consecutive columns by
        rects of at most _SLICE columns, each cell put in its column's slot,
        every other column by a walk to its 1."""
        out, start = [], 0
        for end in range(1, len(cols) + 1):
            if end < len(cols) and cols[end] == cols[end - 1] + 1:
                continue
            lo, hi, start = cols[start], cols[end - 1], end
            if hi - lo < self.merge_unsorted:
                for i in range(lo, hi + 1):
                    rows = tree.col(i, limit=1)
                    if not rows:
                        raise ValueError(f"column {i} holds no 1: the store is damaged")
                    out.append(rows[0] + 1)
                continue
            for lo in range(lo, hi + 1, _SLICE):
                top = min(lo + _SLICE, hi + 1)
                cells, rows = tree.rect(0, tree.n_rows - 1, lo, top - 1), [0] * (top - lo)
                for r, i in cells:
                    rows[i - lo] = r + 1
                if len(cells) != len(rows) or 0 in rows:
                    raise ValueError(f"not one 1 per column in {lo}-{top - 1}: the store"
                                     " is damaged")
                out += rows
        return out

    def pattern_query(self, s: int | None = None, p: int | None = None,
                      o: int | None = None):
        """Answer a pattern through its SHAPES method; None marks an unbound slot."""
        method = getattr(self, SHAPES[shape_of(s, p, o)])
        return method(*[x for x in (s, p, o) if x is not None])

    def pattern_triples(self, s=None, p=None, o=None) -> list[tuple[int, int, int]]:
        """Like pattern_query but always expanded to full (s, p, o) triples."""
        result = self.pattern_query(s, p, o)
        if isinstance(result, bool):
            return [(s, p, o)] if result else []
        pattern = (s, p, o)
        if pattern.count(None) == 1:
            result = [(x,) for x in result]
        out = []
        for unbound in map(iter, result):  # fills the None slots in s, p, o order
            out.append(tuple(next(unbound) if x is None else x for x in pattern))
        return out

    # -- space accounting ----------------------------------------------------

    def space_report(self) -> dict:
        """Per-component sizes: the bytes each part writes, and its in-memory
        rank overhead."""
        parts = {
            "subject_tree": (written_size(self.subject_tree),
                             self.subject_tree.accel_bytes),
            "object_tree": (written_size(self.object_tree),
                            self.object_tree.accel_bytes),
            "pred_index": (written_size(self.pred_index), 0),
        }
        return {name: {"serialized": ser, "accel": acc, "total": ser + acc}
                for name, (ser, acc) in parts.items()}


# -- store files -------------------------------------------------------------


def write_store(out, store: TripleStore, dictionary: Dictionary) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    dictionary.write(buf)
    store.pred_index.write(buf)
    store.subject_tree.write(buf)
    store.object_tree.write(buf)
    with buf.getbuffer() as data:
        out.write(data)
        out.write(struct.pack("<I", zlib.crc32(data)))


def read_store(src) -> tuple[TripleStore, Dictionary]:
    data = src.read()
    src = io.BytesIO(data)
    if read_exact(src, 4) != MAGIC:
        raise ValueError("not a store file (bad magic)")
    (version,) = struct.unpack("<H", read_exact(src, 2))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported store format version {version} (this"
                         f" bmx reads version {FORMAT_VERSION}); rebuild the"
                         f" store with bmx build")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise ValueError("the store file is damaged: its CRC32 checksum does not"
                         " match its bytes")
    dictionary = Dictionary.read(src)
    pidx = PredicateIndex.read(src)
    subject_tree = K2Tree.read(src, pidx.n)
    object_tree = K2Tree.read(src, pidx.n)
    end = len(data) - 4                 # where the checksum starts
    if src.tell() != end:
        raise ValueError("truncated input: the store runs into its checksum"
                         if src.tell() > end else "trailing bytes after the store")
    d = dictionary
    if (d.subject_count or d.predicate_count or d.object_count) and not (
            d.subject_count == subject_tree.n_rows and d.object_count == object_tree.n_rows
            and d.predicate_count == pidx.n_predicates):
        raise ValueError(f"the dictionary's {d.subject_count} subjects, {d.predicate_count}"
                         f" predicates and {d.object_count} objects are not the store's")
    return TripleStore(subject_tree, object_tree, pidx), dictionary


def save(path: str, store: TripleStore,
         dictionary: Dictionary | None = None) -> None:
    with open(path, "wb") as out:
        write_store(out, store, dictionary or Dictionary.empty())


def load(path: str) -> tuple[TripleStore, Dictionary]:
    with open(path, "rb") as src:
        return read_store(src)

