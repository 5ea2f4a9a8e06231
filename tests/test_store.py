import io
from array import array

import numpy as np
import pytest

from bmatrix import store as store_mod
from bmatrix.k2tree import K2Config, Stage, VOCAB_COLS_RANK, VOCAB_PLAIN
from bmatrix.ntriples import RawTriple
from bmatrix.oracle import TripleList
from bmatrix.store import (PredicateIndex, TripleStore, read_store,
                           write_store)
from bmatrix.dictionary import Dictionary

# running example: triples {(1,1,1),(2,1,2),(1,2,2),(2,2,1)} as (s,p,o);
# (p,o,s) order puts them in columns 0..3 as (1,1,1),(2,1,2),(2,2,1),(1,2,2)
E = [(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1)]
SMALL = K2Config(stages=(Stage(2, None),), leaf_side=1)


@pytest.fixture
def store_e():
    return TripleStore.build(E, 2, 2, 2, config=SMALL, period=2)


def test_build_matrices(store_e):
    st, ot = store_e.subject_tree, store_e.object_tree
    assert [st.row(0), st.row(1)] == [[0, 3], [1, 2]]
    assert [ot.row(0), ot.row(1)] == [[0, 2], [1, 3]]
    # exactly one 1 per column in each matrix
    for tree in (st, ot):
        for i in range(4):
            assert len(tree.col(i)) == 1


def test_predicate_index(store_e):
    pidx = store_e.pred_index
    assert list(pidx.starts) == [0, 2, 4]
    assert list(pidx.samples) == [1, 2, 2]
    assert pidx.first_col(2) == 2
    assert pidx.predicate_of(3) == 2
    assert pidx.predicate_of(0) == 1
    for p in (1, 2):
        lo, hi = pidx.col_range(p)
        for i in range(lo, hi + 1):
            assert pidx.predicate_of(i) == p
        assert pidx.predicate_of(pidx.first_col(p)) == p
    with pytest.raises(IndexError):
        pidx.first_col(3)
    with pytest.raises(IndexError):
        pidx.predicate_of(4)


def test_rank_select_with_unused_predicates():
    triples = [(1, 1, 1), (1, 1, 2), (2, 3, 1), (3, 3, 2)]
    pidx = PredicateIndex.from_sorted(np.array([1, 1, 3, 3]), 5, period=2)
    assert list(pidx.starts) == [0, 2, 2, 4, 4, 4]
    for i, expect in enumerate([1, 1, 3, 3]):
        assert pidx.predicate_of(i) == expect
    store = TripleStore.build(triples, 3, 2, 5, config=SMALL)
    assert store.by_predicate(2) == []
    assert store.by_predicate(5) == []
    assert store.by_predicate(3) == [(2, 1), (3, 2)]


def test_spo(store_e):
    assert store_e.contains(1, 1, 1) is True
    assert store_e.contains(1, 1, 2) is False
    empty = TripleStore.build([], 2, 2, 2, config=SMALL)
    assert empty.contains(1, 1, 1) is False


def test_sp(store_e):
    assert store_e.objects(2, 2) == [1]
    assert store_e.objects(1, 1) == [1]
    other = TripleStore.build([(1, 1, 1)], 5, 2, 2, config=SMALL)
    assert other.objects(4, 1) == []


def test_po(store_e):
    assert store_e.subjects(2, 1) == [2]
    assert store_e.subjects(1, 2) == [2]
    with pytest.raises(IndexError):
        store_e.subjects(1, 3)  # o > n_objects is a contract violation


def test_so(store_e):
    assert store_e.predicates(1, 2) == [2]
    assert store_e.predicates(1, 1) == [1]
    assert store_e.predicates(2, 2) == [1]


def test_s(store_e):
    assert store_e.by_subject(1) == [(1, 1), (2, 2)]
    assert store_e.by_subject(2) == [(1, 2), (2, 1)]
    other = TripleStore.build([(1, 1, 1)], 5, 2, 2, config=SMALL)
    assert other.by_subject(3) == []


def test_o(store_e):
    assert store_e.by_object(1) == [(1, 1), (2, 2)]
    assert store_e.by_object(2) == [(2, 1), (1, 2)]


def test_p(store_e):
    assert store_e.by_predicate(2) == [(2, 1), (1, 2)]
    assert store_e.by_predicate(1) == [(1, 1), (2, 2)]


def test_all(store_e):
    assert store_e.all_triples() == [(1, 1, 1), (2, 1, 2), (2, 2, 1), (1, 2, 2)]
    assert sorted(store_e.all_triples()) == sorted(E)
    assert TripleStore.build([], 2, 2, 2, config=SMALL).all_triples() == []
    single = TripleStore.build([(1, 1, 1)], 1, 1, 1, config=SMALL)
    assert single.all_triples() == [(1, 1, 1)]


def test_column_bijection(store_e):
    assert sum(len(store_e.by_predicate(p)) for p in (1, 2)) == store_e.n


def test_duplicates_collapse():
    store = TripleStore.build(E + E, 2, 2, 2, config=SMALL)
    assert store.n == 4


def test_id_bounds_rejected():
    with pytest.raises(ValueError):
        TripleStore.build([(3, 1, 1)], 2, 2, 2, config=SMALL)
    with pytest.raises(ValueError):
        TripleStore.build([(1, 0, 1)], 2, 2, 2, config=SMALL)
    store = TripleStore.build(E, 2, 2, 2, config=SMALL)
    with pytest.raises(IndexError):
        store.contains(0, 1, 1)
    with pytest.raises(IndexError):
        store.by_subject(3)


def test_threshold_invariance_small():
    rng = np.random.default_rng(31)
    tr = np.column_stack([rng.integers(1, 40, 600), rng.integers(1, 8, 600),
                          rng.integers(1, 40, 600)])
    store = TripleStore.build(tr, 40, 40, 8)
    tl = TripleList(tr)
    probes_so = [(int(rng.integers(1, 41)), int(rng.integers(1, 41)))
                 for _ in range(40)]
    baselines = {pair: tl.pattern_query(s=pair[0], o=pair[1]) for pair in probes_so}
    preds = {p: tl.pattern_query(p=p) for p in range(1, 9)}
    for threshold in (0, 1, 10, store.n):
        store.merge_sorted = threshold
        store.merge_unsorted = threshold
        for (s, o), expect in baselines.items():
            assert store.predicates(s, o) == expect
        for p, expect in preds.items():
            assert store.by_predicate(p) == expect


def test_pattern_query_dispatch(store_e):
    assert store_e.pattern_query(1, 1, 1) is True
    assert store_e.pattern_query(s=1, p=1) == [1]
    assert store_e.pattern_query(p=1, o=2) == [2]
    assert store_e.pattern_query(s=1, o=2) == [2]
    assert store_e.pattern_query(s=2) == [(1, 2), (2, 1)]
    assert store_e.pattern_query(o=2) == [(2, 1), (1, 2)]
    assert store_e.pattern_query(p=2) == [(2, 1), (1, 2)]
    assert len(store_e.pattern_query()) == 4
    assert store_e.pattern_triples(s=2) == [(2, 1, 2), (2, 2, 1)]
    assert store_e.pattern_triples(1, 1, 2) == []


def test_store_file_round_trip(store_e):
    d, _ = Dictionary.from_triples([])
    buf = io.BytesIO()
    write_store(buf, store_e, d)
    data = buf.getvalue()
    assert data[:4] == b"BMX1"
    buf.seek(0)
    back, dict_back = read_store(buf)
    assert back.n == store_e.n
    assert back.all_triples() == store_e.all_triples()
    assert back.merge_sorted == store_e.merge_sorted
    assert back.pred_index.starts == store_e.pred_index.starts
    assert dict_back.subject_count == 0


def test_store_file_rejects_garbage():
    with pytest.raises(ValueError):
        read_store(io.BytesIO(b"NOPE" + b"\x00" * 64))


def test_vocab_store_round_trip():
    rng = np.random.default_rng(5)
    tr = np.column_stack([rng.integers(1, 200, 3000), rng.integers(1, 50, 3000),
                          rng.integers(1, 200, 3000)])
    for preset in ("default", "dense"):
        cfg = K2Config(sample_preset=preset)
        store = TripleStore.build(tr, 200, 200, 50, config=cfg)
        buf = io.BytesIO()
        write_store(buf, store, Dictionary.empty())
        buf.seek(0)
        back, _ = read_store(buf)
        assert back.subject_tree.config.sample_preset == preset
        assert back.all_triples() == store.all_triples()


def test_strategy_matches_oracle_shapes():
    rng = np.random.default_rng(17)
    tr = np.column_stack([rng.integers(1, 120, 2500), rng.integers(1, 30, 2500),
                          rng.integers(1, 120, 2500)])
    store = TripleStore.build(tr, 120, 120, 30,
                              config=K2Config(stages=(Stage(4, 2), Stage(2, None)),
                                              leaf_side=4,
                                              vocab_encoding=VOCAB_PLAIN))
    tl = TripleList(tr)
    for _ in range(200):
        s = int(rng.integers(1, 121))
        p = int(rng.integers(1, 31))
        o = int(rng.integers(1, 121))
        assert store.contains(s, p, o) == tl.pattern_query(s, p, o)
        assert store.objects(s, p) == tl.pattern_query(s=s, p=p)
        assert store.subjects(p, o) == tl.pattern_query(p=p, o=o)
        assert store.predicates(s, o) == tl.pattern_query(s=s, o=o)
        assert store.by_subject(s) == tl.pattern_query(s=s)
        assert store.by_object(o) == tl.pattern_query(o=o)
        assert store.by_predicate(p) == tl.pattern_query(p=p)
    assert store.all_triples() == tl.pattern_query()


PACKED_CONFIGS = [
    K2Config(),
    K2Config(leaf_side=1),
    K2Config(leaf_side=4, vocab_encoding=VOCAB_PLAIN, dac_chunk_bits=3),
    K2Config(leaf_side=8, vocab_encoding=VOCAB_PLAIN, dac_chunk_bits=16),
    K2Config(leaf_side=2, vocab_encoding=VOCAB_COLS_RANK, sample_preset="dense"),
]


def term_store(config, n=2500, seed=11):
    rng = np.random.default_rng(seed)
    raw = [RawTriple(f"<http://x/n{s}>", f"<http://x/p{p}>", f"<http://x/n{o}>")
           for s, p, o in zip(rng.integers(0, 300, n), rng.integers(0, 40, n),
                              rng.integers(0, 300, n))]
    dictionary, ids = Dictionary.from_triples(raw)
    store = TripleStore.build(ids, dictionary.subject_count,
                              dictionary.object_count,
                              dictionary.predicate_count, config=config, period=64)
    return store, dictionary


@pytest.mark.parametrize("config", PACKED_CONFIGS)
def test_save_load_save_is_byte_identical(tmp_path, config):
    store, dictionary = term_store(config)
    first, second = tmp_path / "a.bmx", tmp_path / "b.bmx"
    store_mod.save(str(first), store, dictionary)
    back, dict_back = store_mod.load(str(first))
    store_mod.save(str(second), back, dict_back)
    assert first.read_bytes() == second.read_bytes()
    assert back.all_triples() == store.all_triples()


# per-level tables: one entry per tree level, not per element
PER_LEVEL = {"ks", "_arity", "_block", "_level_start", "_ones_before"}


def int_lists(obj, path):
    """Paths of the non-empty lists of ints reachable through slots and sequences."""
    if isinstance(obj, list) and obj and all(isinstance(x, int) for x in obj):
        yield path
    if isinstance(obj, (list, tuple)):
        for i, x in enumerate(obj):
            yield from int_lists(x, f"{path}[{i}]")
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield from int_lists(getattr(obj, name), f"{path}.{name}")


@pytest.mark.parametrize("config", PACKED_CONFIGS)
def test_loaded_store_holds_no_int_lists(tmp_path, config):
    store, dictionary = term_store(config)
    path = tmp_path / "s.bmx"
    store_mod.save(str(path), store, dictionary)
    for st in (store, store_mod.load(str(path))[0]):
        found = [p for p in int_lists(st, "store")
                 if p.rsplit(".", 1)[-1] not in PER_LEVEL]
        assert found == []
        assert isinstance(st.subject_tree.tree_bits.data, bytes)


def lists_and_strs(obj, path):
    """Paths of the lists and strs reachable through slots."""
    if isinstance(obj, (list, str)):
        yield path
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield from lists_and_strs(getattr(obj, name), f"{path}.{name}")


def test_loaded_dictionary_pools_hold_no_lists_or_strs(tmp_path):
    store, dictionary = term_store(K2Config())
    path = tmp_path / "s.bmx"
    store_mod.save(str(path), store, dictionary)
    loaded = store_mod.load(str(path))[1]
    for d in (dictionary, loaded):
        assert list(lists_and_strs(d, "dictionary")) == []
        for pool in (d.shared, d.subject_only, d.object_only, d.predicates):
            assert isinstance(pool.blob, bytes)
            assert isinstance(pool.offsets, array)
    assert list(loaded.shared) == list(dictionary.shared)
