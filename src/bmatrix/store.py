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
concurrent readers; the two merge thresholds only steer query strategy
and may be changed between queries.

A store file (format version 2) is, little-endian throughout: the magic
"BMX1", the u16 format version, the integer widths of the predicate
index (u8 8, u8 4), eight u64 header counts (triples, shared terms,
subjects, objects, predicates, rank period, the two merge thresholds),
then the dictionary's four pools (shared, subject-only, object-only,
predicates; front-coded, see `dictionary`), the predicate index, the
subject tree and the object tree, and nothing after them. Version 1
files, whose pools were plain UTF-8 plus per-term offsets, are refused
with a request to rebuild them.

Loading refuses a file, with a ValueError, when:
- a read runs past its end, or bytes follow the object tree;
- a pool fails the dictionary's checks, or a count does not fit its bytes;
- a tag byte names no known encoding, sampling preset or leaf mode;
- a header count (triples, shared terms, subjects, objects, predicates)
  or the rank period differs from what the sections hold;
- a tree's geometry does not add up: a k below 2, prod(ks) * leaf side
  other than its side, a side below its rows or columns or above
  MAX_SIDE, a leaf mode that does not fit its leaf side, or fewer tree
  bits or leaves than its levels need;
- the predicate index has a period below 1, a sample count other than
  one per period, or run starts that do not rise from 0 to its columns.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right

import numpy as np

from ._binio import pack_fixed, packed_array, read_exact, unpack_fixed
from .dictionary import Dictionary, sort_unique
from .k2tree import K2Config, K2Tree

MAGIC = b"BMX1"
FORMAT_VERSION = 2

DEFAULT_RANK_PERIOD = 1024
DEFAULT_MERGE_THRESHOLD = 10

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


class PredicateIndex:
    """Column runs per predicate: run starts plus a sampled rank table.

    starts[p-1] is the first column of predicate p (0-based), with a
    final sentinel equal to the triple count; unused predicate ids own
    empty runs. samples[j] holds the predicate of column j*period
    (clamped to the last column), which narrows the binary search that
    maps a column back to its predicate. Both are `array.array`s of the
    smallest unsigned typecode that holds their values; the file keeps
    starts as u64 and samples as u32.
    """

    __slots__ = ("starts", "period", "samples", "n", "n_predicates")

    def __init__(self, starts: array, period: int, samples: array, n: int):
        self.starts = starts
        self.period = period
        self.samples = samples
        self.n = n
        self.n_predicates = len(starts) - 1

    @classmethod
    def from_sorted(cls, preds_sorted: np.ndarray, n_predicates: int,
                    period: int = DEFAULT_RANK_PERIOD) -> "PredicateIndex":
        if period < 1:
            raise ValueError("sampling period must be >= 1")
        n = int(preds_sorted.size)
        starts = np.searchsorted(preds_sorted, np.arange(1, n_predicates + 2),
                                 side="left")
        if n:
            cols = np.minimum(np.arange(0, n // period + 1) * period, n - 1)
            samples = preds_sorted[cols]
        else:
            samples = ()
        return cls(packed_array(starts), period, packed_array(samples), n)

    def _check_predicate(self, p: int) -> None:
        if not 1 <= p <= self.n_predicates:
            raise IndexError(f"predicate id {p} out of range [1, {self.n_predicates}]")

    def first_col(self, p: int) -> int:
        """First column of predicate p's run (== select over the run bitmap)."""
        self._check_predicate(p)
        return self.starts[p - 1]

    def col_range(self, p: int) -> tuple[int, int]:
        """Inclusive column range of predicate p; empty when lo > hi."""
        self._check_predicate(p)
        return self.starts[p - 1], self.starts[p] - 1

    def predicate_of(self, i: int) -> int:
        """Predicate owning column i (== rank over the run bitmap)."""
        if not 0 <= i < self.n:
            raise IndexError(f"column {i} out of range [0, {self.n})")
        j = i // self.period
        lo = self.samples[j]
        hi = self.samples[j + 1] if j + 1 < len(self.samples) else self.n_predicates
        # rightmost start <= i within the sampled predicate window
        idx = bisect_right(self.starts, i, lo - 1, hi) - 1
        return idx + 1

    @property
    def data_bytes(self) -> int:
        return 8 * len(self.starts) + 4 * len(self.samples)

    def write(self, out) -> None:
        out.write(struct.pack("<QQ", self.n, self.period))
        out.write(struct.pack("<Q", len(self.starts)))
        out.write(pack_fixed(self.starts, 64))
        out.write(struct.pack("<Q", len(self.samples)))
        out.write(pack_fixed(self.samples, 32))

    @classmethod
    def read(cls, src) -> "PredicateIndex":
        n, period = struct.unpack("<QQ", read_exact(src, 16))
        (n_starts,) = struct.unpack("<Q", read_exact(src, 8))
        starts = unpack_fixed(read_exact(src, 8 * n_starts), 64, n_starts)
        (n_samples,) = struct.unpack("<Q", read_exact(src, 8))
        samples = unpack_fixed(read_exact(src, 4 * n_samples), 32, n_samples)
        if period < 1:
            raise ValueError(f"predicate index period {period} is below 1")
        if n_samples != (n // period + 1 if n else 0):
            raise ValueError(f"predicate index holds {n_samples} samples, not one per"
                             f" {period} of its {n} columns")
        if not starts or starts[0] != 0 or starts[-1] != n or any(
                a > b for a, b in zip(starts, starts[1:])):
            raise ValueError("predicate index run starts do not rise from 0 to its"
                             f" {n} columns")
        return cls(starts, period, samples, n)


def _merge_sorted_lists(a: list[int], b: list[int]) -> list[int]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


class TripleStore:
    """Immutable id-triple store answering all eight triple patterns."""

    __slots__ = ("subject_tree", "object_tree", "pred_index", "n",
                 "n_subjects", "n_objects", "n_predicates",
                 "merge_sorted", "merge_unsorted")

    def __init__(self, subject_tree: K2Tree, object_tree: K2Tree,
                 pred_index: PredicateIndex, n: int, n_subjects: int,
                 n_objects: int, n_predicates: int,
                 merge_sorted: int = DEFAULT_MERGE_THRESHOLD,
                 merge_unsorted: int = DEFAULT_MERGE_THRESHOLD):
        self.subject_tree = subject_tree
        self.object_tree = object_tree
        self.pred_index = pred_index
        self.n = n
        self.n_subjects = n_subjects
        self.n_objects = n_objects
        self.n_predicates = n_predicates
        self.merge_sorted = merge_sorted
        self.merge_unsorted = merge_unsorted

    @classmethod
    def build(cls, triples, n_subjects: int, n_objects: int, n_predicates: int,
              config: K2Config = K2Config(), period: int = DEFAULT_RANK_PERIOD,
              merge_sorted: int = DEFAULT_MERGE_THRESHOLD,
              merge_unsorted: int = DEFAULT_MERGE_THRESHOLD) -> "TripleStore":
        """Build from (s, p, o) id triples, 1-based ids within the given dims.

        Triples are sorted by (p, o, s); duplicates collapse to one column.
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
        subject_tree = K2Tree.build(
            np.column_stack((arr[:, 0] - 1, cols)), n_subjects, n, config)
        object_tree = K2Tree.build(
            np.column_stack((arr[:, 2] - 1, cols)), n_objects, n, config)
        pidx = PredicateIndex.from_sorted(arr[:, 1], n_predicates, period)
        return cls(subject_tree, object_tree, pidx, n, n_subjects, n_objects,
                   n_predicates, merge_sorted, merge_unsorted)

    # -- id validation ---------------------------------------------------

    def _check_s(self, s: int) -> None:
        if not 1 <= s <= self.n_subjects:
            raise IndexError(f"subject id {s} out of range [1, {self.n_subjects}]")

    def _check_p(self, p: int) -> None:
        if not 1 <= p <= self.n_predicates:
            raise IndexError(f"predicate id {p} out of range [1, {self.n_predicates}]")

    def _check_o(self, o: int) -> None:
        if not 1 <= o <= self.n_objects:
            raise IndexError(f"object id {o} out of range [1, {self.n_objects}]")

    # -- the eight patterns ------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        """(s, p, o): membership test, first match wins."""
        self._check_s(s)
        self._check_p(p)
        self._check_o(o)
        if self.n == 0:
            return False
        lo, hi = self.pred_index.col_range(p)
        if lo > hi:
            return False
        obj_tree = self.object_tree
        o_row = o - 1
        for i in self.subject_tree.row(s - 1, lo, hi):
            if obj_tree.cell(o_row, i):
                return True
        return False

    def objects(self, s: int, p: int) -> list[int]:
        """(s, p, ?): object ids, ascending."""
        self._check_s(s)
        self._check_p(p)
        if self.n == 0:
            return []
        lo, hi = self.pred_index.col_range(p)
        if lo > hi:
            return []
        col = self.object_tree.col
        return [col(i, limit=1)[0] + 1
                for i in self.subject_tree.row(s - 1, lo, hi)]

    def subjects(self, p: int, o: int) -> list[int]:
        """(?, p, o): subject ids, ascending."""
        self._check_p(p)
        self._check_o(o)
        if self.n == 0:
            return []
        lo, hi = self.pred_index.col_range(p)
        if lo > hi:
            return []
        col = self.subject_tree.col
        return [col(i, limit=1)[0] + 1
                for i in self.object_tree.row(o - 1, lo, hi)]

    def predicates(self, s: int, o: int) -> list[int]:
        """(s, ?, o): predicate ids, ascending.

        Few candidate columns for the object -> cell checks in the
        subject tree; many -> a second row query and a merge of the two
        sorted column lists (threshold: merge_sorted).
        """
        self._check_s(s)
        self._check_o(o)
        if self.n == 0:
            return []
        by_object = self.object_tree.row(o - 1)
        if len(by_object) <= self.merge_sorted:
            s_row = s - 1
            cell = self.subject_tree.cell
            cols = [i for i in by_object if cell(s_row, i)]
        else:
            cols = _merge_sorted_lists(by_object, self.subject_tree.row(s - 1))
        predicate_of = self.pred_index.predicate_of
        return [predicate_of(i) for i in cols]

    def by_subject(self, s: int) -> list[tuple[int, int]]:
        """(s, ?, ?): (predicate, object) pairs, ascending by column."""
        self._check_s(s)
        if self.n == 0:
            return []
        predicate_of = self.pred_index.predicate_of
        col = self.object_tree.col
        return [(predicate_of(i), col(i, limit=1)[0] + 1)
                for i in self.subject_tree.row(s - 1)]

    def by_object(self, o: int) -> list[tuple[int, int]]:
        """(?, ?, o): (subject, predicate) pairs, ascending by column."""
        self._check_o(o)
        if self.n == 0:
            return []
        predicate_of = self.pred_index.predicate_of
        col = self.subject_tree.col
        return [(col(i, limit=1)[0] + 1, predicate_of(i))
                for i in self.object_tree.row(o - 1)]

    def by_predicate(self, p: int) -> list[tuple[int, int]]:
        """(?, p, ?): (subject, object) pairs, ascending by column.

        Few matches -> per-column object lookups; many -> a second
        rectangle query on the object tree, with both DFS result lists
        sorted by column before zipping (threshold: merge_unsorted).
        """
        self._check_p(p)
        if self.n == 0:
            return []
        lo, hi = self.pred_index.col_range(p)
        if lo > hi:
            return []
        with_subject = self.subject_tree.rect(0, self.n_subjects - 1, lo, hi)
        with_subject.sort(key=lambda rc: rc[1])
        if len(with_subject) <= self.merge_unsorted:
            col = self.object_tree.col
            return [(r + 1, col(i, limit=1)[0] + 1) for r, i in with_subject]
        with_object = self.object_tree.rect(0, self.n_objects - 1, lo, hi)
        with_object.sort(key=lambda rc: rc[1])
        return [(sr + 1, orow + 1)
                for (sr, _), (orow, _) in zip(with_subject, with_object)]

    def all_triples(self) -> list[tuple[int, int, int]]:
        """(?, ?, ?): every stored triple, ascending by column."""
        out = []
        for p in range(1, self.n_predicates + 1):
            out.extend((s, p, o) for s, o in self.by_predicate(p))
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
        """Per-component sizes: serialized bytes and in-memory rank overhead."""
        parts = {
            "subject_tree": (self.subject_tree.serialized_bytes(),
                             self.subject_tree.accel_bytes),
            "object_tree": (self.object_tree.serialized_bytes(),
                            self.object_tree.accel_bytes),
            "pred_index": (self.pred_index.data_bytes, 0),
        }
        return {name: {"serialized": ser, "accel": acc, "total": ser + acc}
                for name, (ser, acc) in parts.items()}


# -- store files -------------------------------------------------------------


def write_store(out, store: TripleStore, dictionary: Dictionary) -> None:
    out.write(MAGIC)
    out.write(struct.pack("<H", FORMAT_VERSION))
    out.write(struct.pack("<BB", 8, 4))  # widths: run starts, rank samples
    out.write(struct.pack(
        "<QQQQQQQQ", store.n, dictionary.so_count, store.n_subjects,
        store.n_objects, store.n_predicates, store.pred_index.period,
        store.merge_sorted, store.merge_unsorted))
    dictionary.write(out)
    store.pred_index.write(out)
    store.subject_tree.write(out)
    store.object_tree.write(out)


def read_store(src) -> tuple[TripleStore, Dictionary]:
    if read_exact(src, 4) != MAGIC:
        raise ValueError("not a store file (bad magic)")
    (version,) = struct.unpack("<H", read_exact(src, 2))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported store format version {version} (this"
                         f" bmx reads version {FORMAT_VERSION}); rebuild the"
                         f" store with bmx build")
    start_w, sample_w = struct.unpack("<BB", read_exact(src, 2))
    if (start_w, sample_w) != (8, 4):
        raise ValueError("unsupported integer widths")
    (n, n_so, n_subjects, n_objects, n_predicates, period,
     merge_sorted, merge_unsorted) = struct.unpack("<QQQQQQQQ", read_exact(src, 64))
    dictionary = Dictionary.read(src)
    if dictionary.so_count != n_so:
        raise ValueError("dictionary does not match store header")
    pidx = PredicateIndex.read(src)
    subject_tree = K2Tree.read(src)
    object_tree = K2Tree.read(src)
    if src.read(1):
        raise ValueError("trailing bytes after the store")
    if not (n == pidx.n == subject_tree.n_cols == object_tree.n_cols
            and n_subjects == subject_tree.n_rows and n_objects == object_tree.n_rows
            and n_predicates == pidx.n_predicates and period == pidx.period):
        raise ValueError(
            f"store header (triples {n}, subjects {n_subjects}, objects {n_objects},"
            f" predicates {n_predicates}, rank period {period}) does not match its"
            f" sections (triples {pidx.n}/{subject_tree.n_cols}/{object_tree.n_cols},"
            f" subjects {subject_tree.n_rows}, objects {object_tree.n_rows},"
            f" predicates {pidx.n_predicates}, rank period {pidx.period})")
    store = TripleStore(subject_tree, object_tree, pidx, n, n_subjects,
                        n_objects, n_predicates, merge_sorted, merge_unsorted)
    return store, dictionary


def save(path: str, store: TripleStore,
         dictionary: Dictionary | None = None) -> None:
    with open(path, "wb") as out:
        write_store(out, store, dictionary or Dictionary.empty())


def load(path: str) -> tuple[TripleStore, Dictionary]:
    with open(path, "rb") as src:
        return read_store(src)

