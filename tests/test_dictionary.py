import io
import random

import numpy as np
import pytest

import pfc_reference
from bmatrix.dictionary import Dictionary, TermPool, _front_code
from bmatrix.store import TripleStore


def T(s, p, o):
    return s, p, o


def pool_terms(pool):
    """The pool's terms in order, read one at a time."""
    return [pool.term(i) for i in range(pool.count)]


def numbered(triples):
    """(terms, numbers) for Dictionary.from_triples, each term numbered
    once, in order of first appearance."""
    index = {}
    numbers = [[index.setdefault(term, len(index)) for term in t] for t in triples]
    return list(index), np.array(numbers, dtype=np.int32).reshape(-1, 3)


def encode(triples):
    """Dictionary.from_triples over (s, p, o) triples of terms."""
    return Dictionary.from_triples(*numbered(triples))


def test_shared_terms_get_one_id():
    d, ids = encode([T("a", "p", "b"), T("b", "p", "a")])
    assert pool_terms(d.shared) == ["a", "b"]
    assert pool_terms(d.subject_only) == [] and pool_terms(d.object_only) == []
    assert pool_terms(d.predicates) == ["p"]
    assert d.subject_id("a") == d.object_id("a") == 1
    assert d.subject_id("b") == d.object_id("b") == 2
    assert d.predicate_id("p") == 1
    assert sorted(map(tuple, ids.tolist())) == [(1, 1, 2), (2, 1, 1)]


def test_disjoint_id_spaces_overlap_numerically():
    d, ids = encode([T("a", "p", "b")])
    assert pool_terms(d.shared) == [] and pool_terms(d.subject_only) == ["a"]
    assert pool_terms(d.object_only) == ["b"]
    assert d.subject_id("a") == 1
    assert d.object_id("b") == 1
    assert ids.tolist() == [[1, 1, 1]]


def test_empty_input():
    d, ids = encode([])
    assert ids.tolist() == []
    assert d.subject_count == d.object_count == d.predicate_count == 0


def test_id_ranges_and_round_trip_lookup():
    triples = [T(f"s{i}", f"p{i % 3}", f"o{i % 5}") for i in range(20)]
    triples += [T("x", "p0", "y"), T("y", "p1", "x")]
    d, ids = encode(triples)
    n_so = d.so_count
    for i in range(1, d.subject_count + 1):
        assert d.subject_id(d.subject_term(i)) == i
    for i in range(1, d.object_count + 1):
        assert d.object_id(d.object_term(i)) == i
    for i in range(1, d.predicate_count + 1):
        assert d.predicate_id(d.predicate_term(i)) == i
    for term in pool_terms(d.shared):
        assert d.subject_id(term) == d.object_id(term) <= n_so
    # ids exactly cover [1, count]
    subjects = {s for s, _, _ in ids.tolist()}
    assert max(subjects) <= d.subject_count
    assert {p for _, p, _ in ids.tolist()} == set(range(1, d.predicate_count + 1))


def every_position_numbered(triples):
    """(terms, numbers) with a number for each term of each triple."""
    terms = [term for t in triples for term in t]
    return terms, np.arange(len(terms), dtype=np.int32).reshape(-1, 3)


def shuffled_with_copies(triples):
    """(terms, numbers) with each term at two or three shuffled positions,
    each use of it numbered by one of them at random."""
    rng = random.Random(7)
    first, numbers = numbered(triples)
    slots = [t for t in range(len(first)) for _ in range(rng.randint(2, 3))]
    rng.shuffle(slots)          # the first number of the term at each position
    copies = [[] for _ in first]
    for position, t in enumerate(slots):
        copies[t].append(position)
    numbers = [[rng.choice(copies[n]) for n in row] for row in numbers.tolist()]
    return [first[t] for t in slots], np.array(numbers, dtype=np.int32).reshape(-1, 3)


def test_columns_match_per_triple_reference():
    # the reference encodes one triple at a time by position in the pools;
    # a term that arrives under more than one number gets one id per role
    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(60)] + ["caf\u00e9", "☃", "\U0001F600", ""]
    triples = [(vocab[a], vocab[b % 7], vocab[c])
               for a, b, c in rng.integers(0, len(vocab), (3000, 3)).tolist()]
    subjects = {t[0] for t in triples}
    objects = {t[2] for t in triples}
    s_pool = sorted(subjects & objects) + sorted(subjects - objects)
    o_pool = sorted(subjects & objects) + sorted(objects - subjects)
    p_pool = sorted({t[1] for t in triples})
    # one row per statement, in statement order, repeats kept
    want = [(s_pool.index(s) + 1, p_pool.index(p) + 1, o_pool.index(o) + 1)
            for s, p, o in triples]
    for numbering in (numbered, every_position_numbered, shuffled_with_copies):
        d, ids = Dictionary.from_triples(*numbering(triples))
        assert pool_terms(d.shared) + pool_terms(d.subject_only) == s_pool
        assert pool_terms(d.shared) + pool_terms(d.object_only) == o_pool
        assert pool_terms(d.predicates) == p_pool
        assert list(map(tuple, ids.tolist())) == want


def test_dedup_set_semantics():
    # the dictionary keeps every statement; the store collapses repeats
    d, ids = encode([T("a", "p", "b")] * 4)
    assert ids.tolist() == [[1, 1, 1]] * 4
    store = TripleStore.build(ids, d.subject_count, d.object_count,
                              d.predicate_count)
    assert store.n == 1


def test_not_found():
    d, _ = encode([T("a", "p", "b")])
    with pytest.raises(KeyError):
        d.subject_id("b")  # object-only term is not a subject
    with pytest.raises(KeyError):
        d.object_id("a")
    with pytest.raises(KeyError):
        d.predicate_id("a")
    with pytest.raises(KeyError):
        d.subject_term(2)
    with pytest.raises(KeyError):
        d.predicate_term(0)


def test_lexicographic_order():
    d, _ = encode(
        [T("zz", "q", "aa"), T("aa", "p", "zz"), T("mm", "p", "nn")])
    assert pool_terms(d.shared) == ["aa", "zz"]
    assert pool_terms(d.subject_only) == ["mm"] and pool_terms(d.object_only) == ["nn"]
    assert pool_terms(d.predicates) == ["p", "q"]


def test_serialization_round_trip():
    d, _ = encode(
        [T("a", "p", '"café"@fr'), T('"café"@fr', "p", "a"),
         T("_:b1", "q", '"x\ny"')])
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    back = Dictionary.read(buf)
    assert pool_terms(back.shared) == pool_terms(d.shared)
    assert pool_terms(back.subject_only) == pool_terms(d.subject_only)
    assert pool_terms(back.object_only) == pool_terms(d.object_only)
    assert pool_terms(back.predicates) == pool_terms(d.predicates)
    empty = Dictionary.empty()
    buf = io.BytesIO()
    empty.write(buf)
    buf.seek(0)
    assert Dictionary.read(buf).subject_count == 0



MIXED = ["", "a", "ab", "b", "caf\u00e9", "cafe\u0301", "z☃", "☃", "\U0001F600",
         "\U0001F600x", "\x7f", "߿", "ࠀ", "￿", "\U00010000"]
OBJECT_ONLY = ["o", "o☃", "o\U0001F600"]


def mixed_dictionary():
    # shared: MIXED[:8]; subject-only: MIXED[8:]; all of MIXED are predicates
    objects = MIXED[:8] + OBJECT_ONLY
    triples = [T(t, t, objects[i % len(objects)]) for i, t in enumerate(MIXED)]
    return encode(triples)[0]


def test_packed_pool_lookup_and_decode_round_trip():
    d = mixed_dictionary()
    assert (d.so_count, d.subject_count, d.object_count) == (8, 15, 11)
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    for dd in (d, Dictionary.read(buf)):
        assert pool_terms(dd.predicates) == sorted(MIXED)
        assert pool_terms(dd.object_only) == sorted(OBJECT_ONLY)
        for i in range(1, dd.subject_count + 1):
            assert dd.subject_id(dd.subject_term(i)) == i
        for i in range(1, dd.object_count + 1):
            assert dd.object_id(dd.object_term(i)) == i
        for i in range(1, dd.predicate_count + 1):
            assert dd.predicate_id(dd.predicate_term(i)) == i
        assert dd.subject_id("") == dd.object_id("") == dd.predicate_id("") == 1
        assert {dd.subject_term(dd.subject_id(t)) for t in MIXED} == set(MIXED)


def test_packed_pool_write_read_write_is_byte_identical():
    first = io.BytesIO()
    mixed_dictionary().write(first)
    first.seek(0)
    second = io.BytesIO()
    Dictionary.read(first).write(second)
    assert second.getvalue() == first.getvalue()


@pytest.mark.parametrize("term", ["c", "caf", "cafés", "☃☃", "\U0001F601",
                                  "\ud800", "a\udfff", "\udfff", "oé"])
def test_absent_and_surrogate_terms_are_not_found(term):
    d = mixed_dictionary()
    for lookup in (d.subject_id, d.object_id, d.predicate_id):
        with pytest.raises(KeyError):
            lookup(term)


def test_terms_are_found_only_in_their_roles():
    d = mixed_dictionary()
    with pytest.raises(KeyError):
        d.subject_id("o☃")
    with pytest.raises(KeyError):
        d.object_id(MIXED[9])
    with pytest.raises(KeyError):
        d.predicate_id("o")


# adjacent once sorted, "é"/"ê", "caf\u00e9"/"caf\u00ea" and "☃"/"☄" share a
# prefix that ends inside a multi-byte character; the 200-byte terms take
# two-byte vbytes
FRONT_CODED = ["", "é", "ê", "☃", "☄", "\U0001F600", "\U0001F600x", "caf\u00e9",
               "caf\u00ea", "é" * 100, "é" * 100 + "x"] + [f"x{i:02d}" for i in range(22)]


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
def test_front_coded_pool_round_trip(n):
    terms = sorted(FRONT_CODED[:n])
    encoded = [t.encode() for t in terms]
    pool = TermPool.from_terms(terms)
    assert (pool.blob, list(pool.offsets)) == pfc_reference.front_code(encoded)
    first = io.BytesIO()
    pool.write(first)
    assert first.getvalue() == pfc_reference.pool_bytes(encoded)
    first.seek(0)
    back = TermPool.read(first)
    second = io.BytesIO()
    back.write(second)
    assert second.getvalue() == first.getvalue()
    for p in (pool, back):
        assert pool_terms(p) == terms
        for i, (term, key) in enumerate(zip(terms, encoded)):
            assert p.index(key) == i and p.term(i) == term
        for absent in ("\x00", "caf", "cafe", "é\x00", "\U0001F600y", "\uffff"):
            assert p.index(absent.encode()) == -1



@pytest.mark.parametrize("seed", range(4))
def test_front_code_matches_the_reference(seed):
    """Random sorted pools whose shared prefixes and suffixes reach 128 and
    16,384 bytes, so their vbytes take two and three bytes, with the empty
    term at the front of every other pool."""
    rng = random.Random(seed)
    stems = ["", "a" * 127, "b" * 128, "c" * 300, "d" * 16_384]
    terms = {rng.choice(stems) + "".join(rng.choice("xyé") for _ in range(rng.choice(
        (0, 1, 5, 127, 128, 400, 16_400)))) for _ in range(rng.randrange(40, 120))}
    terms.discard("")
    if seed % 2:
        terms.add("")
    encoded = sorted(t.encode() for t in terms)
    assert _front_code(encoded) == pfc_reference.front_code(encoded)
