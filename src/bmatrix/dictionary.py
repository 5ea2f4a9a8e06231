"""Four-pool term/id mapping shared by subjects, predicates and objects.

Terms appearing as both subject and object live in a single shared pool
and keep the same id in both roles (1..n_so); subject-only and
object-only terms continue the numbering after the shared pool, so the
subject and object id spaces overlap numerically but denote different
pools above n_so. Pools are sorted lexicographically, which makes builds
deterministic and lookups a binary search.

A dictionary is built from the triples as three term columns, with no
Python step per triple: the distinct terms of each column are a `set`,
the pools are the sorted set differences and intersection, each role's
term -> id index is ``dict(zip(pool, count(1)))``, and the id columns
are ``np.fromiter(map(index.__getitem__, column))``. Only the distinct
terms pass through Python code, as in HDT's dictionary build. The id rows
keep the statements' order and repeats; the store sorts them.

Each pool is front-coded (plain front coding, as in HDT), in the layout
the store file keeps it (format v2):

    count                          u64
    bucket offsets                 u64 x (buckets + 1), from 0 up to the
                                   blob length; buckets = ceil(count / 16)
    blob                           the buckets back to back

The sorted UTF-8 terms are cut into buckets of BUCKET = 16. A bucket
starts with its header term whole, as a vbyte length and the bytes.
Each later term is a vbyte shared-prefix length with the term before
it, a vbyte suffix length and the suffix. A vbyte is 7 bits per byte,
least significant group first, high bit set on every byte but the last.

In memory a pool is the blob, the bucket offsets (an `array.array` of
the smallest unsigned typecode) and a tuple of the header terms as
`bytes`. A lookup bisects the headers and scans one bucket; an id->term
decode walks one bucket up to the term. No other term exists as a
Python object until it is decoded.

Loading walks every bucket once and refuses a pool unless the bucket
offsets ascend strictly from 0, every vbyte and suffix stays inside its
bucket, no shared prefix is longer than the term before it, each bucket
but the last holds BUCKET terms and the last the rest, the terms are
UTF-8 cut at character boundaries, and they ascend strictly.

Lookups compare UTF-8 bytes. That agrees with the `str` order the pools
are sorted by, because UTF-8 byte order is code-point order for Unicode
scalar values, and terms hold no surrogates (the N-Triples reader
rejects them, and a pool that holds one cannot be encoded or loaded).
"""

from __future__ import annotations

import operator
import struct
from array import array
from bisect import bisect_right
from itertools import chain, count, islice
from typing import Sequence

import numpy as np

from ._binio import pack_fixed, packed_array, read_exact

BUCKET = 16


def _shared_prefixes(blob: bytes, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
    """For each term, the length of its common prefix with the term before
    it (0 for the first); term i is blob[starts[i]:starts[i] + lengths[i]].

    Compares all pairs still matching at once, 8 bytes to a word, in
    windows that double in width while fewer than 2^17 words are compared
    per round, so a pair costs at most about twice its prefix length and
    the loop runs about log2(longest prefix) times.
    """
    out = np.zeros(len(lengths), dtype=np.int64)
    # words[x] is the 8 bytes from blob[x], zero-padded past the end
    words = np.ndarray((len(blob) + 1,), dtype="<u8", buffer=blob + bytes(8),
                       strides=(1,))
    limit = np.minimum(lengths[1:], lengths[:-1])
    pairs = np.flatnonzero(limit)        # pair j compares terms j and j + 1
    done, width = 0, 1                   # in words
    while pairs.size:
        width = max(1, min(2 * width, (1 << 17) // pairs.size))
        at = 8 * np.arange(done, done + width)
        a = words[np.minimum(starts[pairs, None] + at, len(blob))]
        b = words[np.minimum(starts[pairs + 1, None] + at, len(blob))]
        same = ((a ^ b).view(np.uint8).reshape(len(pairs), 8 * width) == 0) & (
            np.arange(8 * done, 8 * (done + width)) < limit[pairs, None])
        run = np.where(same.all(axis=1), 8 * width, same.argmin(axis=1))
        out[pairs + 1] += run
        pairs = pairs[run == 8 * width]
        done += width
    return out


def _front_code(encoded: list[bytes]) -> tuple[bytes, list[int]]:
    """Sorted UTF-8 terms as a front-coded blob and its bucket offsets.

    All terms at once: each term's vbyte fields (its length for a bucket
    head, else its shared-prefix and suffix lengths) are scattered to its
    start, and the term bytes outside the shared prefixes fill the rest
    of the blob in order.
    """
    n = len(encoded)
    joined = b"".join(encoded)
    lengths = np.fromiter(map(len, encoded), np.int64, n)
    plain = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=plain[1:])
    shared = _shared_prefixes(joined, plain[:-1], lengths)
    head = np.arange(n) % BUCKET == 0
    shared[head] = 0
    suffix = lengths - shared
    # fields[i] = (first field, second field) of term i; heads have one
    fields = np.column_stack((np.where(head, lengths, shared), suffix))
    has_field = np.column_stack((np.ones(n, dtype=bool), ~head))
    vals = fields[has_field]
    sizes = np.ones(vals.size, dtype=np.int64)    # vbyte bytes per field
    rest = vals >> 7
    while rest.any():
        sizes += rest > 0
        rest >>= 7
    field_sizes = np.zeros(fields.shape, dtype=np.int64)
    field_sizes[has_field] = sizes
    fields_end = field_sizes.sum(axis=1)          # the fields' bytes per term
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fields_end + suffix, out=start[1:])
    blob = np.empty(start[-1], dtype=np.uint8)
    at = np.column_stack((start[:-1], start[:-1] + field_sizes[:, 0]))[has_field]
    for k in range(int(sizes.max(initial=0))):
        sel = sizes > k
        group = vals[sel] >> 7 * k & 0x7F | (sizes[sel] > k + 1) * 0x80
        blob[at[sel] + k] = group
    # each term is its fields then its suffix in the blob, and its shared
    # prefix then its suffix in the joined terms
    blob[~_runs(fields_end, suffix)] = np.frombuffer(joined, dtype=np.uint8)[
        ~_runs(shared, suffix)]
    return blob.tobytes(), start[:-1:BUCKET].tolist() + [int(start[-1])]


def _runs(set_run: np.ndarray, clear_run: np.ndarray) -> np.ndarray:
    """A mask of set_run[0] set bits, clear_run[0] clear ones, then
    set_run[1] set bits, and so on."""
    pattern = np.zeros(2 * len(set_run), dtype=bool)
    pattern[::2] = True
    return np.repeat(pattern, np.column_stack((set_run, clear_run)).ravel())


def _read_vbyte(blob: bytes, pos: int, end: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        if pos >= end:
            raise ValueError("dictionary pool vbyte runs past its bucket")
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def _bucket_terms(blob: bytes, pos: int, end: int):
    """The terms of the bucket blob[pos:end], rebuilt as bytes, in order."""
    size, pos = _read_vbyte(blob, pos, end)
    term = blob[pos:pos + size]
    pos += size
    if pos > end:
        raise ValueError("dictionary pool term runs past its bucket")
    yield term
    while pos < end:
        shared = blob[pos]
        if shared < 0x80 and pos + 1 < end and (size := blob[pos + 1]) < 0x80:
            pos += 2
        else:
            shared, pos = _read_vbyte(blob, pos, end)
            size, pos = _read_vbyte(blob, pos, end)
        if shared > len(term):
            raise ValueError("dictionary pool shared prefix is longer than the"
                             " previous term")
        term = term[:shared] + blob[pos:pos + size]
        pos += size
        if pos > end:
            raise ValueError("dictionary pool term runs past its bucket")
        yield term


class TermPool:
    """Sorted terms, front-coded in buckets of BUCKET (see the module notes)."""

    __slots__ = ("blob", "offsets", "headers", "count")

    def __init__(self, blob: bytes, offsets: array, headers: tuple[bytes, ...],
                 count: int):
        self.blob = blob
        self.offsets = offsets
        self.headers = headers
        self.count = count

    @classmethod
    def from_terms(cls, terms: list[str]) -> "TermPool":
        encoded = [term.encode("utf-8") for term in terms]
        blob, offsets = _front_code(encoded)
        return cls(blob, packed_array(offsets), tuple(encoded[::BUCKET]),
                   len(encoded))

    def _bucket(self, b: int):
        offsets = self.offsets
        return _bucket_terms(self.blob, offsets[b], offsets[b + 1])

    def index(self, key: bytes) -> int:
        """0-based position of the UTF-8 encoded term `key`, or -1."""
        b = bisect_right(self.headers, key) - 1
        if b < 0:
            return -1
        for i, term in enumerate(self._bucket(b), BUCKET * b):
            if term >= key:
                return i if term == key else -1
        return -1

    def term(self, i: int) -> str:
        """The term at 0-based position i, which must be in range."""
        b, r = divmod(i, BUCKET)
        return next(islice(self._bucket(b), r, None)).decode("utf-8")

    def write(self, out) -> None:
        out.write(struct.pack("<Q", self.count))
        out.write(pack_fixed(self.offsets, 64))
        out.write(self.blob)

    @classmethod
    def read(cls, src) -> "TermPool":
        """One pool as the file holds it, refused unless every check in the
        module notes holds."""
        (count,) = struct.unpack("<Q", read_exact(src, 8))
        n_buckets = -(-count // BUCKET)
        offsets = np.frombuffer(read_exact(src, 8 * (n_buckets + 1)), dtype="<u8")
        if offsets[0] != 0 or (offsets[1:] <= offsets[:-1]).any():
            raise ValueError("dictionary pool bucket offsets are not ascending from 0")
        blob = read_exact(src, int(offsets[-1]))
        offsets = packed_array(offsets)
        terms: list[bytes] = []
        for b in range(n_buckets):
            terms += islice(_bucket_terms(blob, offsets[b], offsets[b + 1]),
                            BUCKET + 1)
            if len(terms) != min(count, BUCKET * (b + 1)):
                raise ValueError(f"dictionary pool bucket {b} holds the wrong"
                                 f" number of terms")
        _check_terms(terms)
        return cls(blob, offsets, tuple(terms[::BUCKET]), count)


def _check_terms(terms: list[bytes]) -> None:
    """Refuses terms that are not UTF-8 cut at character boundaries, or
    that do not ascend strictly."""
    joined = b"".join(terms)
    try:
        joined.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"dictionary pool is not valid UTF-8 ({err.reason})"
                         ) from None
    lengths = np.fromiter(map(len, terms), np.int64, len(terms))
    starts = (np.cumsum(lengths) - lengths)[lengths > 0]
    if (np.frombuffer(joined, dtype=np.uint8)[starts] & 0xC0 == 0x80).any():
        raise ValueError("dictionary pool term starts inside a character")
    if not all(map(operator.lt, terms, islice(terms, 1, None))):
        raise ValueError("dictionary pool terms are not in strictly ascending order")


def _key(term: str) -> bytes:
    # a lone surrogate encodes to bytes that are not UTF-8, so it matches
    # no pooled term instead of raising
    return term.encode("utf-8", "surrogatepass")


class Dictionary:
    """Immutable term<->id mapping; ids are 1-based per role."""

    __slots__ = ("shared", "subject_only", "object_only", "predicates",
                 "so_count", "subject_count", "object_count", "predicate_count")

    def __init__(self, shared: TermPool, subject_only: TermPool,
                 object_only: TermPool, predicates: TermPool):
        self.shared = shared
        self.subject_only = subject_only
        self.object_only = object_only
        self.predicates = predicates
        self.so_count = shared.count
        self.subject_count = shared.count + subject_only.count
        self.object_count = shared.count + object_only.count
        self.predicate_count = predicates.count

    @classmethod
    def empty(cls) -> "Dictionary":
        return cls(*(TermPool.from_terms([]) for _ in range(4)))

    @classmethod
    def from_triples(cls, subjects: Sequence[str], predicates: Sequence[str],
                     objects: Sequence[str]):
        """Classify terms and encode the triples given as three term columns,
        row i being (subjects[i], predicates[i], objects[i]); returns
        (dictionary, ids), with ids an (n, 3) int64 array whose row i is the
        (s, p, o) ids of statement i. Nothing is sorted or dropped:
        `TripleStore.build` orders the rows and collapses repeats.
        """
        s_terms, o_terms = set(subjects), set(objects)
        shared = sorted(s_terms & o_terms)
        subject_only = sorted(s_terms - o_terms)
        object_only = sorted(o_terms - s_terms)
        predicate_pool = sorted(set(predicates))
        ids = np.empty((len(subjects), 3), dtype=np.int64)
        for j, column, pool in ((0, subjects, chain(shared, subject_only)),
                                (1, predicates, predicate_pool),
                                (2, objects, chain(shared, object_only))):
            index = dict(zip(pool, count(1)))
            ids[:, j] = np.fromiter(map(index.__getitem__, column), np.int64,
                                    len(column))
        pools = map(TermPool.from_terms, (shared, subject_only, object_only,
                                          predicate_pool))
        return cls(*pools), ids

    # -- term -> id ----------------------------------------------------------

    def _role_id(self, term: str, own: TermPool, role: str) -> int:
        """Id of a subject or object term: shared ids first, then `own`'s."""
        key = _key(term)
        i = self.shared.index(key)
        if i >= 0:
            return i + 1
        i = own.index(key)
        if i >= 0:
            return self.so_count + i + 1
        raise KeyError(f"{role} term not found: {term!r}")

    def subject_id(self, term: str) -> int:
        return self._role_id(term, self.subject_only, "subject")

    def object_id(self, term: str) -> int:
        return self._role_id(term, self.object_only, "object")

    def predicate_id(self, term: str) -> int:
        i = self.predicates.index(_key(term))
        if i >= 0:
            return i + 1
        raise KeyError(f"predicate term not found: {term!r}")

    # -- id -> term ----------------------------------------------------------

    def _role_term(self, i: int, own: TermPool, count: int, role: str) -> str:
        """Term of a subject or object id below `count`, from the shared
        pool or from `own`."""
        if 1 <= i <= self.so_count:
            return self.shared.term(i - 1)
        if self.so_count < i <= count:
            return own.term(i - self.so_count - 1)
        raise KeyError(f"{role} id not found: {i}")

    def subject_term(self, i: int) -> str:
        return self._role_term(i, self.subject_only, self.subject_count, "subject")

    def object_term(self, i: int) -> str:
        return self._role_term(i, self.object_only, self.object_count, "object")

    def predicate_term(self, i: int) -> str:
        if not 1 <= i <= self.predicate_count:
            raise KeyError(f"predicate id not found: {i}")
        return self.predicates.term(i - 1)

    # -- serialization -------------------------------------------------------

    def write(self, out) -> None:
        for pool in (self.shared, self.subject_only, self.object_only,
                     self.predicates):
            pool.write(out)

    @classmethod
    def read(cls, src) -> "Dictionary":
        return cls(*(TermPool.read(src) for _ in range(4)))

