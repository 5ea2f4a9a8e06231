import io

import numpy as np
import pytest

from bmatrix.dictionary import Dictionary, sort_unique
from bmatrix.ntriples import RawTriple


def T(s, p, o):
    return RawTriple(s, p, o)


def test_shared_terms_get_one_id():
    d, ids = Dictionary.from_triples([T("a", "p", "b"), T("b", "p", "a")])
    assert list(d.shared) == ["a", "b"]
    assert list(d.subject_only) == [] and list(d.object_only) == []
    assert list(d.predicates) == ["p"]
    assert d.subject_id("a") == d.object_id("a") == 1
    assert d.subject_id("b") == d.object_id("b") == 2
    assert d.predicate_id("p") == 1
    assert sorted(map(tuple, ids.tolist())) == [(1, 1, 2), (2, 1, 1)]


def test_disjoint_id_spaces_overlap_numerically():
    d, ids = Dictionary.from_triples([T("a", "p", "b")])
    assert list(d.shared) == [] and list(d.subject_only) == ["a"]
    assert list(d.object_only) == ["b"]
    assert d.subject_id("a") == 1
    assert d.object_id("b") == 1
    assert ids.tolist() == [[1, 1, 1]]


def test_empty_input():
    d, ids = Dictionary.from_triples([])
    assert ids.tolist() == []
    assert d.subject_count == d.object_count == d.predicate_count == 0


def test_id_ranges_and_round_trip_lookup():
    triples = [T(f"s{i}", f"p{i % 3}", f"o{i % 5}") for i in range(20)]
    triples += [T("x", "p0", "y"), T("y", "p1", "x")]
    d, ids = Dictionary.from_triples(triples)
    n_so = d.so_count
    for i in range(1, d.subject_count + 1):
        assert d.subject_id(d.subject_term(i)) == i
    for i in range(1, d.object_count + 1):
        assert d.object_id(d.object_term(i)) == i
    for i in range(1, d.predicate_count + 1):
        assert d.predicate_id(d.predicate_term(i)) == i
    for term in d.shared:
        assert d.subject_id(term) == d.object_id(term) <= n_so
    # ids exactly cover [1, count]
    subjects = {s for s, _, _ in ids.tolist()}
    assert max(subjects) <= d.subject_count
    assert {p for _, p, _ in ids.tolist()} == set(range(1, d.predicate_count + 1))


def test_dedup_set_semantics():
    d, ids = Dictionary.from_triples([T("a", "p", "b")] * 4)
    assert len(ids) == 1


def test_not_found():
    d, _ = Dictionary.from_triples([T("a", "p", "b")])
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
    d, _ = Dictionary.from_triples(
        [T("zz", "q", "aa"), T("aa", "p", "zz"), T("mm", "p", "nn")])
    assert list(d.shared) == ["aa", "zz"]
    assert list(d.subject_only) == ["mm"] and list(d.object_only) == ["nn"]
    assert list(d.predicates) == ["p", "q"]


def test_serialization_round_trip():
    d, _ = Dictionary.from_triples(
        [T("a", "p", '"café"@fr'), T('"café"@fr', "p", "a"),
         T("_:b1", "q", '"x\ny"')])
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    back = Dictionary.read(buf)
    assert list(back.shared) == list(d.shared)
    assert list(back.subject_only) == list(d.subject_only)
    assert list(back.object_only) == list(d.object_only)
    assert list(back.predicates) == list(d.predicates)
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
    return Dictionary.from_triples(triples)[0]


def test_packed_pool_lookup_and_decode_round_trip():
    d = mixed_dictionary()
    assert (d.so_count, d.subject_count, d.object_count) == (8, 15, 11)
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    for dd in (d, Dictionary.read(buf)):
        assert list(dd.predicates) == sorted(MIXED)
        assert list(dd.object_only) == sorted(OBJECT_ONLY)
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
    assert len(first.getvalue()) == mixed_dictionary().serialized_bytes()


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


def test_sort_unique_matches_np_unique():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 50, 3000):
        ids = rng.integers(1, 6, (n, 3))
        got = sort_unique(ids)
        want = np.unique(ids[:, [1, 2, 0]], axis=0)[:, [2, 0, 1]]
        assert got.tolist() == want.reshape(-1, 3).tolist()
        assert sort_unique(got) is got
