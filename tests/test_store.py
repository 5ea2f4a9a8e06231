import io
import sys
import threading
from array import array

import numpy as np
import pytest

from bmatrix import store as store_mod
from bmatrix.k2tree import (K2Config, K2Tree, MAX_SIDE, VOCAB_COLS_FULL,
                            VOCAB_COLS_RANK, VOCAB_ENCODINGS, VOCAB_PLAIN,
                            plan_levels)
from bmatrix.oracle import TripleList
from bmatrix.store import (SHAPES, PredicateIndex, TripleStore, read_store,
                           sort_unique, write_store)
from bmatrix.dictionary import BUCKET, Dictionary

# running example: triples {(1,1,1),(2,1,2),(1,2,2),(2,2,1)} as (s,p,o);
# (p,o,s) order puts them in columns 0..3 as (1,1,1),(2,1,2),(2,2,1),(1,2,2)
E = [(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1)]
SMALL = K2Config(k1_levels=0, leaf_side=1)


@pytest.fixture
def store_e():
    return TripleStore.build(E, 2, 2, 2, config=SMALL)


def store_bytes(store: TripleStore) -> bytes:
    buf = io.BytesIO()
    write_store(buf, store, Dictionary.empty())
    return buf.getvalue()


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
    assert pidx.col_range(2)[0] == 2
    assert pidx.predicate_of(3) == 2
    assert pidx.predicate_of(0) == 1
    for p in (1, 2):
        lo, hi = pidx.col_range(p)
        for i in range(lo, hi + 1):
            assert pidx.predicate_of(i) == p
        assert pidx.predicate_of(pidx.col_range(p)[0]) == p
    with pytest.raises(IndexError):
        pidx.col_range(3)
    with pytest.raises(IndexError):
        pidx.predicate_of(4)


def test_rank_select_with_unused_predicates():
    triples = [(1, 1, 1), (1, 1, 2), (2, 3, 1), (3, 3, 2)]
    pidx = PredicateIndex.from_sorted(np.array([1, 1, 3, 3]), 5)
    assert list(pidx.starts) == [0, 2, 2, 4, 4, 4]
    for i, expect in enumerate([1, 1, 3, 3]):
        assert pidx.predicate_of(i) == expect
    store = TripleStore.build(triples, 3, 2, 5, config=SMALL)
    assert store.by_predicate(2) == []
    assert store.by_predicate(5) == []
    assert store.by_predicate(3) == [(2, 1), (3, 2)]


@pytest.mark.parametrize("seed", range(5))
def test_predicate_of_matches_searchsorted(seed):
    """predicate_of(i) names column i's predicate, the rightmost run start at
    or before i, with empty runs first, last and back to back, and n 0 or 1."""
    rng = np.random.default_rng(seed)
    n_predicates = int(rng.integers(8, 60))
    gap = int(rng.integers(3, n_predicates - 2))
    # predicates 1, gap, gap + 1 and n_predicates own no column
    used = [p for p in range(2, n_predicates) if p not in (gap, gap + 1)]
    for n in (0, 1, int(rng.integers(2, 400))):
        preds = np.sort(rng.choice(used, size=n))
        pidx = PredicateIndex.from_sorted(preds, n_predicates)
        starts = np.asarray(pidx.starts)
        assert starts[1] == 0 and starts[gap - 1] == starts[gap + 1]
        assert starts[-2] == n
        got = [pidx.predicate_of(i) for i in range(n)]
        assert got == preds.tolist()
        assert got == np.searchsorted(starts, np.arange(n), "right").tolist()
        for i in (-1, n):
            with pytest.raises(IndexError):
                pidx.predicate_of(i)


def test_spo(store_e):
    assert store_e.contains(1, 1, 1) is True
    assert store_e.contains(1, 1, 2) is False
    # a store without triples answers every shape from its empty trees, by
    # either strategy of (s, ?, o) and (?, p, ?), and saves the same after a
    # load; each empty tree has levels like any other
    for config in [SMALL] + THREADED_CONFIGS + [
            K2Config(leaf_side=4, vocab_encoding=e) for e in VOCAB_ENCODINGS]:
        for dim in (2, 0):
            empty = TripleStore.build([], dim, dim, dim, config=config)
            for tree in (empty.subject_tree, empty.object_tree):
                assert tree.ks == plan_levels(config, 0) and tree.side > 0
            for threshold in (10, -1):
                empty.merge_sorted = empty.merge_unsorted = threshold
                for shape, method in SHAPES.items():
                    bound = [1] * (3 - shape.count("?"))
                    if dim == 0 and bound:
                        with pytest.raises(IndexError):
                            getattr(empty, method)(*bound)
                    else:
                        assert getattr(empty, method)(*bound) == (
                            [] if "?" in shape else False)
            saved = store_bytes(empty)
            assert store_bytes(read_store(io.BytesIO(saved))[0]) == saved


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


def test_sort_unique_matches_np_unique():
    rng = np.random.default_rng(3)
    inputs = [rng.integers(1, 6, (n, 3)) for n in (0, 1, 2, 50, 3000)]
    # widths summing past 63 bits take the lexsort path
    wide = rng.integers(1, 1 << 31, (3000, 3), endpoint=True)
    wide[::3] = wide[1::3]
    # widths of exactly 63 bits (p 21, o 21, s 21) are the edge of the packed key
    edge = rng.integers(1 << 20, 1 << 21, (3000, 3))
    edge[::3] = edge[2::3]
    edge[-2:] = [[1, (1 << 21) - 1, 1], [(1 << 21) - 1, 1, (1 << 21) - 1]]
    for ids in inputs + [wide, edge]:
        got = sort_unique(ids)
        want = np.unique(ids[:, [1, 2, 0]], axis=0)[:, [2, 0, 1]]
        assert got.tolist() == want.reshape(-1, 3).tolist()
        # input that is already sorted and unique comes back equal
        assert sort_unique(got).tolist() == got.tolist()


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


def tree_bytes(tree: K2Tree) -> bytes:
    buf = io.BytesIO()
    tree.write(buf)
    return buf.getvalue()


PRESETS = ("default", "dense")
THREADED_CONFIGS = [K2Config(leaf_side=1, sample_preset=p) for p in PRESETS] + [
    K2Config(leaf_side=side, vocab_encoding=e, sample_preset=p)
    for side in (2, 8) for e in VOCAB_ENCODINGS for p in PRESETS]


def test_threaded_build_equals_sequential_tree_builds():
    """Each tree of a store equals, byte for byte, K2Tree.build called
    directly on the same points, with thread switches forced as often as
    the interpreter allows; the build's one worker thread is gone when it
    returns."""
    rng = np.random.default_rng(16)
    dims = (3000, 40, 2500)
    tr = np.unique(np.column_stack([rng.integers(1, m + 1, 12_000) for m in dims]),
                   axis=0)
    assert len(tr) >= 10_000
    tr = tr[np.lexsort((tr[:, 0], tr[:, 2], tr[:, 1]))]    # (p, o, s) order
    cols = np.arange(len(tr))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for config in THREADED_CONFIGS:
            threads = threading.active_count()
            store = TripleStore.build(tr, dims[0], dims[2], dims[1], config=config)
            assert threading.active_count() == threads
            for tree, ids, n_rows in ((store.subject_tree, tr[:, 0], dims[0]),
                                      (store.object_tree, tr[:, 2], dims[2])):
                direct = K2Tree.build(np.column_stack((ids - 1, cols)), n_rows,
                                      len(tr), config)
                assert tree_bytes(tree) == tree_bytes(direct), config
    finally:
        sys.setswitchinterval(interval)


def build_error(n_rows: int, n: int) -> str:
    """The message of K2Tree.build's ValueError for an n_rows x n tree."""
    with pytest.raises(ValueError) as err:
        K2Tree.build([(0, 0)], n_rows, n)
    return str(err.value)


def test_tree_build_errors_surface_in_subject_then_object_order():
    threads = threading.active_count()
    big, bigger = MAX_SIDE + 1, 2 * MAX_SIDE + 1
    # only the subject tree, built on the worker thread, fails
    with pytest.raises(ValueError) as err:
        TripleStore.build([(1, 1, 1)], big, 1, 1)
    assert str(err.value) == build_error(big, 1)
    assert threading.active_count() == threads
    # only the object tree, built on the calling thread, fails
    with pytest.raises(ValueError) as err:
        TripleStore.build([(1, 1, 1)], 1, bigger, 1)
    assert str(err.value) == build_error(bigger, 1)
    assert threading.active_count() == threads
    # both fail: the subject tree's error wins, as in a sequential build
    assert build_error(big, 1) != build_error(bigger, 1)
    with pytest.raises(ValueError) as err:
        TripleStore.build([(1, 1, 1)], big, bigger, 1)
    assert str(err.value) == build_error(big, 1)
    assert threading.active_count() == threads


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
    d, _ = Dictionary.from_triples([], np.empty((0, 3), dtype=np.int32))
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


def test_column_without_a_1_is_a_damaged_store(store_e):
    """Column 1 of this object tree holds no 1."""
    bad = K2Tree.build([(0, 0), (0, 2), (1, 3)], 2, 4, SMALL)
    store = TripleStore(store_e.subject_tree, bad, store_e.pred_index)
    with pytest.raises(ValueError, match="column 1 holds no 1: the store is damaged"):
        store.by_subject(2)


def test_sections_that_disagree_on_the_triple_count_are_refused(store_e):
    short = TripleStore(store_e.subject_tree, store_e.object_tree,
                        PredicateIndex(array("B", [0, 2, 3])))
    buf = io.BytesIO()
    write_store(buf, short, Dictionary.empty())
    buf.seek(0)
    with pytest.raises(ValueError, match="the object tree's 4 and the predicate"
                                         " index's 3 triples are not one triple count"):
        read_store(buf)


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
        assert back.subject_tree.sample_preset == preset
        assert back.all_triples() == store.all_triples()


def test_strategy_matches_oracle_shapes():
    rng = np.random.default_rng(17)
    tr = np.column_stack([rng.integers(1, 120, 2500), rng.integers(1, 30, 2500),
                          rng.integers(1, 120, 2500)])
    store = TripleStore.build(tr, 120, 120, 30,
                              config=K2Config(k1_levels=2,
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
    K2Config(leaf_side=4, vocab_encoding=VOCAB_PLAIN),
    K2Config(leaf_side=8, vocab_encoding=VOCAB_PLAIN),
    K2Config(leaf_side=2, vocab_encoding=VOCAB_COLS_RANK, sample_preset="dense"),
    K2Config(leaf_side=8, vocab_encoding=VOCAB_COLS_RANK),
    K2Config(leaf_side=4, vocab_encoding=VOCAB_COLS_FULL),
]


def term_store(config, n=2500, seed=11):
    rng = np.random.default_rng(seed)
    s, p, o = (rng.integers(0, m, n).tolist() for m in (300, 40, 300))
    # terms 0..299 are nodes, 300..339 predicates
    terms = [f"<http://x/n{i}>" for i in range(300)]
    terms += [f"<http://x/p{i}>" for i in range(40)]
    numbers = np.column_stack((s, np.add(p, 300), o)).astype(np.int32)
    dictionary, ids = Dictionary.from_triples(terms, numbers)
    store = TripleStore.build(ids, dictionary.subject_count,
                              dictionary.object_count,
                              dictionary.predicate_count, config=config)
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
            # one header term per bucket, not one object per term
            assert len(pool.headers) == -(-pool.count // BUCKET)
    assert [loaded.shared.term(i) for i in range(loaded.shared.count)] == \
        [dictionary.shared.term(i) for i in range(dictionary.shared.count)]
