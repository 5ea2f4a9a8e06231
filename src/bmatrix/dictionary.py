"""Four-pool term/id mapping shared by subjects, predicates and objects.

Terms appearing as both subject and object live in a single shared pool
and keep the same id in both roles (1..n_so); subject-only and
object-only terms continue the numbering after the shared pool, so the
subject and object id spaces overlap numerically but denote different
pools above n_so. Pools are sorted lexicographically, which makes builds
deterministic and lookups a binary search.

Each pool is packed as the store file lays it out: one `bytes` blob of
the terms' UTF-8 encodings back to back, plus count + 1 offsets into it
(an `array.array` of the smallest unsigned typecode), so term i is
blob[offsets[i]:offsets[i + 1]]. A loaded pool is the blob slice read
from the file; no term exists as a Python `str` until it is decoded.

Lookups bisect the encoded term over the encoded pool. That agrees with
the `str` order the pools are sorted by, because UTF-8 byte order is
code-point order for Unicode scalar values, and terms hold no
surrogates (the N-Triples reader rejects them, and a pool that holds
one cannot be encoded or loaded).
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

import numpy as np

from ._binio import pack_fixed, packed_array, read_exact
from .ntriples import RawTriple


class _Encoded:
    """A pool's terms as UTF-8 bytes, indexable for `bisect`."""

    __slots__ = ("blob", "offsets")

    def __init__(self, blob: bytes, offsets: array):
        self.blob = blob
        self.offsets = offsets

    def __getitem__(self, i: int) -> bytes:
        offsets = self.offsets
        return self.blob[offsets[i]:offsets[i + 1]]


class TermPool:
    """Sorted terms as one UTF-8 blob plus count + 1 offsets into it."""

    __slots__ = ("blob", "offsets", "count")

    def __init__(self, blob: bytes, offsets: array):
        self.blob = blob
        self.offsets = offsets
        self.count = len(offsets) - 1

    @classmethod
    def from_terms(cls, terms: list[str]) -> "TermPool":
        encoded = [term.encode("utf-8") for term in terms]
        return cls(b"".join(encoded),
                   packed_array(list(accumulate(map(len, encoded), initial=0))))

    def __iter__(self):
        """The terms in order, decoded."""
        blob, offsets = self.blob, self.offsets
        return (blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                for i in range(self.count))

    def index(self, key: bytes) -> int:
        """0-based position of the UTF-8 encoded term `key`, or -1."""
        encoded = _Encoded(self.blob, self.offsets)
        i = bisect_left(encoded, key, 0, self.count)
        if i < self.count and encoded[i] == key:
            return i
        return -1

    def serialized_bytes(self) -> int:
        return 8 * (self.count + 2) + len(self.blob)

    def write(self, out) -> None:
        out.write(struct.pack("<Q", self.count))
        out.write(pack_fixed(self.offsets, 64))
        out.write(self.blob)

    @classmethod
    def read(cls, src) -> "TermPool":
        """One pool as the file holds it; refuses offsets that do not cut
        valid UTF-8 into whole characters."""
        (count,) = struct.unpack("<Q", read_exact(src, 8))
        offsets = np.frombuffer(read_exact(src, 8 * (count + 1)), dtype="<u8")
        if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("dictionary pool offsets are not ascending from 0")
        blob = read_exact(src, int(offsets[-1]))
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"dictionary pool is not valid UTF-8 ({err.reason})"
                             ) from None
        starts = offsets[:-1][offsets[:-1] < offsets[1:]]
        if (np.frombuffer(blob, dtype=np.uint8)[starts] & 0xC0 == 0x80).any():
            raise ValueError("dictionary pool term starts inside a character")
        return cls(blob, packed_array(offsets))


def _key(term: str) -> bytes:
    # a lone surrogate encodes to bytes that are not UTF-8, so it matches
    # no pooled term instead of raising
    return term.encode("utf-8", "surrogatepass")


def _pool_ids(provisional: dict[str, int], pool: list[str]) -> np.ndarray:
    """Provisional id -> 1-based position in `pool`, which holds every term."""
    seen_at = np.fromiter(map(provisional.__getitem__, pool), np.int64, len(pool))
    out = np.empty(len(pool), dtype=np.int64)
    out[seen_at] = np.arange(1, len(pool) + 1)
    return out


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
    def from_triples(cls, triples: Iterable[RawTriple]):
        """Classify terms and encode; returns (dictionary, ids), with ids the
        sorted unique (s, p, o) id triples as an (n, 3) int64 array.

        The triples are sorted by (p, o, s), as the store orders its columns.
        """
        # terms get provisional ids in order of first sight, remapped to
        # their pool ids once the pools are known
        s_ids: dict[str, int] = {}
        p_ids: dict[str, int] = {}
        o_ids: dict[str, int] = {}
        s_col, p_col, o_col = array("q"), array("q"), array("q")
        for t in triples:
            s_col.append(s_ids.setdefault(t.subject, len(s_ids)))
            p_col.append(p_ids.setdefault(t.predicate, len(p_ids)))
            o_col.append(o_ids.setdefault(t.object, len(o_ids)))
        shared = sorted(s_ids.keys() & o_ids.keys())
        subject_only = sorted(s_ids.keys() - o_ids.keys())
        object_only = sorted(o_ids.keys() - s_ids.keys())
        predicates = sorted(p_ids)
        s = _pool_ids(s_ids, shared + subject_only)[np.frombuffer(s_col, np.int64)]
        p = _pool_ids(p_ids, predicates)[np.frombuffer(p_col, np.int64)]
        o = _pool_ids(o_ids, shared + object_only)[np.frombuffer(o_col, np.int64)]
        pools = map(TermPool.from_terms, (shared, subject_only, object_only, predicates))
        return cls(*pools), sort_unique(np.column_stack((s, p, o)))

    # -- term -> id ----------------------------------------------------------

    def subject_id(self, term: str) -> int:
        key = _key(term)
        i = self.shared.index(key)
        if i >= 0:
            return i + 1
        i = self.subject_only.index(key)
        if i >= 0:
            return self.so_count + i + 1
        raise KeyError(f"subject term not found: {term!r}")

    def object_id(self, term: str) -> int:
        key = _key(term)
        i = self.shared.index(key)
        if i >= 0:
            return i + 1
        i = self.object_only.index(key)
        if i >= 0:
            return self.so_count + i + 1
        raise KeyError(f"object term not found: {term!r}")

    def predicate_id(self, term: str) -> int:
        i = self.predicates.index(_key(term))
        if i >= 0:
            return i + 1
        raise KeyError(f"predicate term not found: {term!r}")

    # -- id -> term ----------------------------------------------------------
    #
    # one slice and one decode, inlined: these run once per result term

    def subject_term(self, i: int) -> str:
        if 1 <= i <= self.so_count:
            pool, i = self.shared, i - 1
        elif self.so_count < i <= self.subject_count:
            pool, i = self.subject_only, i - self.so_count - 1
        else:
            raise KeyError(f"subject id not found: {i}")
        offsets = pool.offsets
        return pool.blob[offsets[i]:offsets[i + 1]].decode("utf-8")

    def object_term(self, i: int) -> str:
        if 1 <= i <= self.so_count:
            pool, i = self.shared, i - 1
        elif self.so_count < i <= self.object_count:
            pool, i = self.object_only, i - self.so_count - 1
        else:
            raise KeyError(f"object id not found: {i}")
        offsets = pool.offsets
        return pool.blob[offsets[i]:offsets[i + 1]].decode("utf-8")

    def predicate_term(self, i: int) -> str:
        if not 1 <= i <= self.predicate_count:
            raise KeyError(f"predicate id not found: {i}")
        offsets = self.predicates.offsets
        return self.predicates.blob[offsets[i - 1]:offsets[i]].decode("utf-8")

    # -- serialization -------------------------------------------------------

    def _pools(self) -> tuple[TermPool, ...]:
        return (self.shared, self.subject_only, self.object_only, self.predicates)

    def write(self, out) -> None:
        for pool in self._pools():
            pool.write(out)

    @classmethod
    def read(cls, src) -> "Dictionary":
        return cls(*(TermPool.read(src) for _ in range(4)))

    def serialized_bytes(self) -> int:
        return sum(pool.serialized_bytes() for pool in self._pools())


def sort_unique(ids: np.ndarray) -> np.ndarray:
    """(s, p, o) id rows sorted by (p, o, s), duplicates dropped; rows that
    already ascend strictly in that order come back as they are."""
    s, p, o = ids[:, 0], ids[:, 1], ids[:, 2]
    ascending = (p[1:] > p[:-1]) | (p[1:] == p[:-1]) & (
        (o[1:] > o[:-1]) | (o[1:] == o[:-1]) & (s[1:] > s[:-1]))
    if ascending.all():
        return ids
    ids = ids[np.lexsort((s, o, p))]
    s, p, o = ids[:, 0], ids[:, 1], ids[:, 2]
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
    return ids[keep]
