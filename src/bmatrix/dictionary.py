"""Four-pool term/id mapping shared by subjects, predicates and objects.

Terms appearing as both subject and object live in a single shared pool
and keep the same id in both roles (1..n_so); subject-only and
object-only terms continue the numbering after the shared pool, so the
subject and object id spaces overlap numerically but denote different
pools above n_so. Pools are sorted lexicographically, which makes builds
deterministic and lookups a binary search.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

import numpy as np

from ._binio import read_exact
from .ntriples import RawTriple


def _pool_ids(provisional: dict[str, int], pool: list[str]) -> np.ndarray:
    """Provisional id -> 1-based position in `pool`, which holds every term."""
    seen_at = np.fromiter(map(provisional.__getitem__, pool), np.int64, len(pool))
    out = np.empty(len(pool), dtype=np.int64)
    out[seen_at] = np.arange(1, len(pool) + 1)
    return out


def _index(pool: list[str], term: str) -> int:
    i = bisect_left(pool, term)
    if i < len(pool) and pool[i] == term:
        return i
    return -1


class Dictionary:
    """Immutable term<->id mapping; ids are 1-based per role."""

    __slots__ = ("shared", "subject_only", "object_only", "predicates")

    def __init__(self, shared: list[str], subject_only: list[str],
                 object_only: list[str], predicates: list[str]):
        self.shared = shared
        self.subject_only = subject_only
        self.object_only = object_only
        self.predicates = predicates

    @classmethod
    def empty(cls) -> "Dictionary":
        return cls([], [], [], [])

    @classmethod
    def from_triples(cls, triples: Iterable[RawTriple]):
        """Classify terms and encode; returns (dictionary, sorted unique id triples).

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
        order = np.lexsort((s, o, p))
        s, p, o = s[order], p[order], o[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
        ids = list(zip(s[keep].tolist(), p[keep].tolist(), o[keep].tolist()))
        return cls(shared, subject_only, object_only, predicates), ids

    # -- counts ------------------------------------------------------------

    @property
    def so_count(self) -> int:
        return len(self.shared)

    @property
    def subject_count(self) -> int:
        return len(self.shared) + len(self.subject_only)

    @property
    def object_count(self) -> int:
        return len(self.shared) + len(self.object_only)

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)

    # -- term -> id ----------------------------------------------------------

    def subject_id(self, term: str) -> int:
        i = _index(self.shared, term)
        if i >= 0:
            return i + 1
        i = _index(self.subject_only, term)
        if i >= 0:
            return len(self.shared) + i + 1
        raise KeyError(f"subject term not found: {term!r}")

    def object_id(self, term: str) -> int:
        i = _index(self.shared, term)
        if i >= 0:
            return i + 1
        i = _index(self.object_only, term)
        if i >= 0:
            return len(self.shared) + i + 1
        raise KeyError(f"object term not found: {term!r}")

    def predicate_id(self, term: str) -> int:
        i = _index(self.predicates, term)
        if i >= 0:
            return i + 1
        raise KeyError(f"predicate term not found: {term!r}")

    # -- id -> term ----------------------------------------------------------

    def subject_term(self, i: int) -> str:
        if 1 <= i <= len(self.shared):
            return self.shared[i - 1]
        if len(self.shared) < i <= self.subject_count:
            return self.subject_only[i - len(self.shared) - 1]
        raise KeyError(f"subject id not found: {i}")

    def object_term(self, i: int) -> str:
        if 1 <= i <= len(self.shared):
            return self.shared[i - 1]
        if len(self.shared) < i <= self.object_count:
            return self.object_only[i - len(self.shared) - 1]
        raise KeyError(f"object id not found: {i}")

    def predicate_term(self, i: int) -> str:
        if 1 <= i <= len(self.predicates):
            return self.predicates[i - 1]
        raise KeyError(f"predicate id not found: {i}")

    # -- serialization -------------------------------------------------------

    def write(self, out) -> None:
        for pool in (self.shared, self.subject_only, self.object_only,
                     self.predicates):
            encoded = [term.encode("utf-8") for term in pool]
            out.write(struct.pack("<Q", len(pool)))
            out.write(struct.pack(f"<{len(pool) + 1}Q", 0,
                                  *accumulate(map(len, encoded))))
            out.write(b"".join(encoded))

    @classmethod
    def read(cls, src) -> "Dictionary":
        pools = []
        for _ in range(4):
            (count,) = struct.unpack("<Q", read_exact(src, 8))
            offsets = struct.unpack(f"<{count + 1}Q",
                                    read_exact(src, 8 * (count + 1)))
            blob = read_exact(src, offsets[-1])
            pools.append([blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                          for i in range(count)])
        return cls(*pools)

    def serialized_bytes(self) -> int:
        from io import BytesIO
        buf = BytesIO()
        self.write(buf)
        return buf.tell()
