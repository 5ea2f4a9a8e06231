"""Four-pool term/id mapping shared by subjects, predicates and objects.

Terms appearing as both subject and object live in a single shared pool
and keep the same id in both roles (1..n_so); subject-only and
object-only terms continue the numbering after the shared pool, so the
subject and object id spaces overlap numerically but denote different
pools above n_so. Pools are sorted lexicographically, which makes builds
deterministic and lookups a binary search.

A dictionary is built from terms and term numbers, as the N-Triples
reader yields them: a list of stored terms and an (n, 3) array whose
row i holds the positions in that list of statement i's subject,
predicate and object. No Python step runs per statement. The distinct
terms are sorted once; each number maps to its term's rank by one dict
lookup per number; the ranks a role uses are marked in a boolean array,
and the pools and each role's ids follow from those marks by numpy
masks, cumulative sums and takes. A term that stands at two positions
gets one id per role. Only the distinct terms pass through Python code,
as in HDT's dictionary build. The id rows keep the statements' order
and repeats; the store sorts them.

Each pool is suffix-coded, then front-coded (plain front coding, as in
HDT), in the layout the store file keeps it (since format v12):

    suffix count                   vbyte
    each suffix                    vbyte length, then its UTF-8 bytes
    blob length                    u64
    blob                           the buckets back to back

A literal is a term that starts with '"'. Its head is the term up to and
including its last '"'; its suffix is the rest: "^^" and a datatype IRI,
"@" and a language tag, or nothing. The N-Triples reader keeps '"' out of
suffixes, and an IRI that starts with '"' keeps its brackets, so only
literals start with '"'. A pool's suffix table holds each distinct suffix
of its literals once, in strictly ascending order, and a suffix's code is
its rank in the table; a pool without literals has an empty table. A
literal is coded as its head, then its code as a little-endian integer of
the fewest bytes that hold the suffix count - 1 (none for a table of one
suffix); every other term is coded as itself. So a datatype IRI is stored
once a pool, not once a literal, as in HDT's literal dictionaries.

The coded terms, in the pool's term order, are cut into buckets of
BUCKET = 16. A bucket starts with its header term whole, as a vbyte
length and the bytes. Each later term is a vbyte shared-prefix length
with the term before it, a vbyte suffix length and the suffix. A vbyte is
7 bits per byte, least significant group first, high bit set on every
byte but the last.

In memory a pool is the coded blob, the bucket offsets (an `array.array`
of the smallest unsigned typecode, from 0 up to the blob length), a tuple
of the header terms as `bytes`, not coded, and the suffix table. Coded
terms do not sort like terms: "a"A" sorts before "a"^^<x>, but coded
with the table ("", "^^<x>"), "a"A" then byte 0 sorts after "a" then
byte 1. So a lookup bisects the headers with
the key, codes the key (a literal whose suffix is not in the table is
absent at once) and scans the bucket for the coded key, all of it when
the key is absent; an id->term decode walks one bucket up to the term and
appends a literal's suffix. No other term exists as a Python object until
it is decoded.

The file holds no term count, no code width and no bucket offsets:
loading walks the whole blob once, counting the terms and noting where
every BUCKET-th one, a header, starts. It refuses a pool unless the
suffixes are UTF-8, hold no '"' and ascend strictly; every vbyte and
suffix stays inside the blob and no shared prefix is longer than the term
before it; each coded literal is longer than its code, its head ends in
'"' and its code is inside the table; and the terms, its literals
expanded, are UTF-8 cut at character boundaries and ascend strictly.

Lookups compare UTF-8 bytes. That agrees with the `str` order the pools
are sorted by, because UTF-8 byte order is code-point order for Unicode
scalar values, and terms hold no surrogates (the N-Triples reader
rejects them, and a pool that holds one cannot be encoded or loaded).
"""

from __future__ import annotations

import operator
import struct
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count, islice
from typing import Sequence

import numpy as np

from ._binio import packed_array, read_exact

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


def _code_width(n_suffixes: int) -> int:
    """Bytes of a suffix code: the fewest that hold n_suffixes - 1."""
    return (max(n_suffixes - 1, 0).bit_length() + 7) // 8


def _code_literals(encoded: list[bytes], lo: int, hi: int):
    """The suffix table of the literals encoded[lo:hi], and every term
    coded (see the module notes), joined, with the coded lengths.

    Each literal's last quote is the last '"' before its end in the joined
    terms (its first byte is one), found by one search over all quotes;
    only the suffixes are cut out as objects, to rank them.
    """
    joined = b"".join(encoded)
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    if lo == hi:
        return (), joined, lengths
    ends = np.cumsum(lengths[:hi])[lo:]
    first, last = int(ends[0] - lengths[lo]), int(ends[-1])
    data = np.frombuffer(joined, dtype=np.uint8)[first:last]
    quotes = np.flatnonzero(data == 0x22) + first
    cut = quotes[np.searchsorted(quotes, ends) - 1] + 1     # suffix starts
    found = [joined[i:j] for i, j in zip(cut.tolist(), ends.tolist())]
    suffixes = tuple(sorted(set(found)))
    rank = dict(zip(suffixes, count()))
    codes = np.fromiter(map(rank.__getitem__, found), np.int64, hi - lo)
    width = _code_width(len(suffixes))
    heads = cut - (ends - lengths[lo:hi])
    # the literals' bytes, each suffix replaced by its code
    coded = np.empty(int(heads.sum()) + width * (hi - lo), dtype=np.uint8)
    in_head = _runs(heads, np.full(hi - lo, width))
    coded[in_head] = data[_runs(heads, ends - cut)]
    coded[~in_head] = (codes[:, None] >> 8 * np.arange(width) & 0xFF).ravel()
    lengths[lo:hi] = heads + width
    return suffixes, b"".join((joined[:first], coded.tobytes(), joined[last:])), lengths


def _front_code(joined: bytes, lengths: np.ndarray) -> tuple[bytes, list[int]]:
    """Terms, joined, with their lengths, as a front-coded blob and its
    bucket offsets.

    All terms at once: each term's vbyte fields (its length for a bucket
    head, else its shared-prefix and suffix lengths) are scattered to its
    start, and the term bytes outside the shared prefixes fill the rest
    of the blob in order.
    """
    n = len(lengths)
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


def _vbyte(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_vbyte(blob: bytes, pos: int, end: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        if pos >= end:
            raise ValueError("dictionary pool vbyte runs past its blob")
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def _stream_vbyte(src) -> int:
    value = shift = 0
    while (byte := read_exact(src, 1)[0]) >= 0x80:
        value |= (byte & 0x7F) << shift
        shift += 7
    return value | byte << shift


def _bucket_terms(blob: bytes, pos: int, end: int):
    """The coded terms of the bucket from its header at `pos` to `end`.
    The blob is one `_walk_blob` has checked, or the coder's."""
    size, pos = _read_vbyte(blob, pos, end)
    term = blob[pos:pos + size]
    pos += size
    yield term
    while pos < end:
        shared, size = blob[pos], blob[pos + 1]
        if shared < 0x80 and size < 0x80:
            pos += 2
        else:
            shared, pos = _read_vbyte(blob, pos, end)
            size, pos = _read_vbyte(blob, pos, end)
        term = term[:shared] + blob[pos:pos + size]
        pos += size
        yield term


def _walk_blob(blob: bytes) -> tuple[list[bytes], list[int]]:
    """Every coded term of a pool's blob, and where each bucket starts;
    refuses a vbyte or a term that runs past the blob, and a shared
    prefix longer than the term before it."""
    terms: list[bytes] = []
    heads: list[int] = []
    pos, end = 0, len(blob)
    later = range(BUCKET - 1)
    while pos < end:
        heads.append(pos)
        size, pos = _read_vbyte(blob, pos, end)
        term = blob[pos:pos + size]
        pos += size
        terms.append(term)
        for _ in later:
            if pos >= end:
                break
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
            terms.append(term)
    if pos > end:                   # a slice at the end came out short
        raise ValueError("dictionary pool term runs past its blob")
    return terms, heads


class TermPool:
    """Sorted terms, suffix-coded and front-coded in buckets of BUCKET (see
    the module notes)."""

    __slots__ = ("blob", "offsets", "headers", "count", "suffixes", "_width")

    def __init__(self, blob: bytes, offsets: array, headers: tuple[bytes, ...],
                 count: int, suffixes: tuple[bytes, ...]):
        self.blob = blob
        self.offsets = offsets
        self.headers = headers
        self.count = count
        self.suffixes = suffixes
        self._width = _code_width(len(suffixes))

    @classmethod
    def from_terms(cls, terms: list[str]) -> "TermPool":
        """The pool of `terms`, which must be sorted and distinct."""
        suffixes, joined, lengths = _code_literals(
            [term.encode("utf-8") for term in terms],
            bisect_left(terms, '"'), bisect_left(terms, "#"))
        blob, offsets = _front_code(joined, lengths)
        # the headers are encoded again once the list above is freed: kept
        # from it, every BUCKET-th object would pin the allocator pages of
        # the terms around it, and the build's peak memory with them
        return cls(blob, packed_array(offsets),
                   tuple(term.encode("utf-8") for term in terms[::BUCKET]),
                   len(terms), suffixes)

    def _bucket(self, b: int):
        offsets = self.offsets
        return _bucket_terms(self.blob, offsets[b], offsets[b + 1])

    def index(self, key: bytes) -> int:
        """0-based position of the UTF-8 encoded term `key`, or -1."""
        b = bisect_right(self.headers, key) - 1
        if b < 0:
            return -1
        if key[:1] == b'"':
            end = key.rindex(b'"') + 1
            suffix, suffixes = key[end:], self.suffixes
            code = bisect_left(suffixes, suffix)
            if code == len(suffixes) or suffixes[code] != suffix:
                return -1
            key = key[:end] + code.to_bytes(self._width, "little")
        # coded terms do not sort like terms: no early stop
        try:
            return BUCKET * b + operator.indexOf(self._bucket(b), key)
        except ValueError:
            return -1

    def term(self, i: int) -> str:
        """The term at 0-based position i, which must be in range."""
        b, r = divmod(i, BUCKET)
        term = next(islice(self._bucket(b), r, None))
        if term[:1] == b'"':
            end = len(term) - self._width
            term = term[:end] + self.suffixes[int.from_bytes(term[end:], "little")]
        return term.decode("utf-8")

    def write(self, out) -> None:
        out.write(_vbyte(len(self.suffixes)))
        for suffix in self.suffixes:
            out.write(_vbyte(len(suffix)))
            out.write(suffix)
        out.write(struct.pack("<Q", len(self.blob)))
        out.write(self.blob)

    @classmethod
    def read(cls, src) -> "TermPool":
        """One pool as the file holds it, refused unless the module notes' checks hold."""
        suffixes = tuple([read_exact(src, _stream_vbyte(src))
                          for _ in range(_stream_vbyte(src))])
        _check_suffixes(suffixes)
        blob = read_exact(src, int.from_bytes(read_exact(src, 8), "little"))
        terms, heads = _walk_blob(blob)
        _expand_literals(terms, suffixes)
        _check_terms(terms)
        return cls(blob, packed_array(heads + [len(blob)]), tuple(terms[::BUCKET]),
                   len(terms), suffixes)


def _check_suffixes(suffixes: tuple[bytes, ...]) -> None:
    # joined by an ASCII byte, the suffixes are UTF-8 only if each one is
    try:
        b'"'.join(suffixes).decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"dictionary pool suffix is not valid UTF-8 ({err.reason})"
                         ) from None
    if any(b'"' in suffix for suffix in suffixes):
        raise ValueError("dictionary pool suffix holds a '\"'")
    if not all(map(operator.lt, suffixes, suffixes[1:])):
        raise ValueError("dictionary pool suffixes are not in strictly ascending order")


def _expand_literals(terms: list[bytes], suffixes: tuple[bytes, ...]) -> None:
    """Replaces each coded literal in `terms` by the literal, refused unless
    it is longer than its code, its head ends in '"' and its code is inside
    the table.

    The literals are found by bisection, which is exact when the terms'
    first bytes ascend; when they do not, `_check_terms` refuses the pool.
    """
    lo, hi = bisect_left(terms, b'"'), bisect_left(terms, b"#")
    if lo == hi:
        return
    width = _code_width(len(suffixes))
    literals = terms[lo:hi]
    lengths = np.fromiter(map(len, literals), np.int64, hi - lo)
    if (lengths <= width).any():
        raise ValueError("dictionary pool literal is shorter than its suffix code")
    data = np.frombuffer(b"".join(literals), dtype=np.uint8)
    ends = np.cumsum(lengths)
    if (data[ends - width - 1] != 0x22).any():
        raise ValueError("dictionary pool literal's head does not end in '\"'")
    codes = np.zeros(hi - lo, dtype=np.int64)
    for k in range(width):
        codes |= data[ends - width + k].astype(np.int64) << 8 * k
    if (codes >= len(suffixes)).any():
        raise ValueError("dictionary pool suffix code is past its table")
    terms[lo:hi] = [term[:n] + suffixes[code] for term, n, code in
                    zip(literals, (lengths - width).tolist(), codes.tolist())]


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
    def from_triples(cls, terms: Sequence[str], numbers: np.ndarray):
        """Classify terms and encode the statements given as term numbers:
        row i of the (n, 3) integer array `numbers` holds the positions in
        `terms` of statement i's subject, predicate and object. A term may
        stand at more than one position; it gets one id per role all the
        same. Returns (dictionary, ids), with ids an (n, 3) int64 array
        whose row i is the (s, p, o) ids of statement i. Nothing is sorted
        or dropped: `TripleStore.build` orders the rows and collapses
        repeats.
        """
        distinct = sorted(set(terms))
        position = dict(zip(distinct, count()))
        # term number -> the position of its term in `distinct`
        rank = np.fromiter(map(position.__getitem__, terms), np.int32, len(terms))
        del position
        used = np.zeros((3, len(distinct)), dtype=bool)
        for j in range(3):
            used[j, rank[numbers[:, j]]] = True
        is_s, is_p, is_o = used
        shared = is_s & is_o
        only = (is_s & ~is_o, is_o & ~is_s)
        n_so = int(shared.sum())
        # by rank: the shared pool's ids first, then the role's own pool's
        s_ids, o_ids = (np.where(shared, np.cumsum(shared), n_so + np.cumsum(own))
                        for own in only)
        ids = np.empty((len(numbers), 3), dtype=np.int64)
        for j, role_ids in enumerate((s_ids, np.cumsum(is_p), o_ids)):
            ids[:, j] = role_ids[rank][numbers[:, j]]
        pools = (list(compress(distinct, mask.tolist()))
                 for mask in (shared, *only, is_p))
        return cls(*map(TermPool.from_terms, pools)), ids

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

