import io
from bisect import bisect_left
from math import prod

import numpy as np
import pytest

from bmatrix._binio import pack_fixed, unpack_fixed
from bmatrix.bitvector import BitVector
from bmatrix.dac import Dac
from bmatrix.k2tree import (MAX_SIDE, K2Config, K2Tree, LeafVocabulary,
                            VOCAB_COLS_FULL, VOCAB_COLS_RANK, VOCAB_PLAIN,
                            _stable_order, plan_levels)
from tree_layout import packed_fields, tree_offsets

K2_PLAIN = K2Config(k1_levels=0, leaf_side=1)
HYBRID = K2Config(leaf_side=1)


def bits(bv):
    return "".join("1" if bv.access(i) else "0" for i in range(len(bv)))


def leaf_ids(tree):
    return [tree.leaf_ids.access(i) for i in range(len(tree.leaf_ids))]


def dense(pts, nr, nc):
    m = np.zeros((nr, nc), dtype=bool)
    for r, c in pts:
        m[r, c] = True
    return m


def assert_matches_dense(tree, m, rng, probes=30):
    nr, nc = m.shape
    for _ in range(probes):
        r, c = int(rng.integers(nr)), int(rng.integers(nc))
        assert tree.cell(r, c) == m[r, c]
    for _ in range(8):
        r = int(rng.integers(nr))
        lo = int(rng.integers(nc))
        hi = int(rng.integers(lo, nc))
        assert tree.row(r, lo, hi) == (np.flatnonzero(m[r, lo:hi + 1]) + lo).tolist()
        assert tree.row(r, lo, lo - 1) == [] == tree.rect(r, r - 1, lo, hi)
        # the walk's order contract: a one-row rectangle is the row, in order
        assert tree.rect(r, r, lo, hi) == [(r, c) for c in tree.row(r, lo, hi)]
    for _ in range(8):
        c = int(rng.integers(nc))
        expect = np.flatnonzero(m[:, c]).tolist()
        assert tree.col(c) == expect
        assert tree.col(c, limit=1) == expect[:1]
        assert tree.rect(0, nr - 1, c, c) == [(r, c) for r in tree.col(c)]
    for _ in range(8):
        r1 = int(rng.integers(nr)); r2 = int(rng.integers(r1, nr))
        c1 = int(rng.integers(nc)); c2 = int(rng.integers(c1, nc))
        got = tree.rect(r1, r2, c1, c2)
        assert len(got) == len(set(got))
        expect = {(int(r) + r1, int(c) + c1)
                  for r, c in zip(*np.nonzero(m[r1:r2 + 1, c1:c2 + 1]))}
        assert set(got) == expect


# -- spec-pinned examples ----------------------------------------------------


def test_single_point_4x4():
    t = K2Tree.build([(0, 0)], 4, 4, K2_PLAIN)
    assert bits(t.tree_bits) == "1000" + "1000"     # T:L in one bitmap
    assert t.cell(0, 0) is True
    assert t.cell(3, 3) is False
    assert t.row(0, 0, 3) == [0]
    assert t.col(0, limit=1) == [0]
    assert t.rect(1, 3, 0, 3) == []


def test_empty_4x4():
    t = K2Tree.build([], 4, 4, K2_PLAIN)
    assert bits(t.tree_bits) == "0000"
    assert t.cell(1, 2) is False
    assert t.col(0) == []


def test_full_4x4():
    pts = [(r, c) for r in range(4) for c in range(4)]
    t = K2Tree.build(pts, 4, 4, K2_PLAIN)
    assert bits(t.tree_bits) == "1111" + "1" * 16
    assert t.row(2, 1, 2) == [1, 2]
    assert t.col(3) == [0, 1, 2, 3]
    assert sorted(t.rect(1, 1, 0, 1)) == [(1, 0), (1, 1)]


def test_children_base():
    t = K2Tree.build([(0, 0)], 4, 4, K2_PLAIN)
    assert t.children_base(0) == 4  # rank1(T,0) * k^2
    full = K2Tree.build([(r, c) for r in range(4) for c in range(4)], 4, 4, K2_PLAIN)
    assert full.children_base(3) == 16
    assert full.children_base(0) == 4
    with pytest.raises(ValueError):
        t.children_base(1)  # zero bit
    for tree, last in ((t, 4), (K2Tree.build([(0, 0)], 4, 4, K2Config()), 0)):
        assert tree.bit_at(last)
        with pytest.raises(ValueError, match="last level"):
            tree.children_base(last)


def test_zero_dims_and_bad_points():
    t = K2Tree.build([], 0, 5, K2_PLAIN)
    assert t.ks == plan_levels(K2_PLAIN, 5) and t.side >= 5
    assert t.rect(0, -1, 0, 4) == [] == t.col(4)
    for pts, n_rows, n_cols in (([(0, 0)], 0, 5), ([(0, 0)], 5, 0), ([(0, 0)], 0, 0)):
        with pytest.raises(ValueError, match="outside matrix bounds"):
            K2Tree.build(pts, n_rows, n_cols, K2_PLAIN)
    with pytest.raises(ValueError):
        K2Tree.build([(4, 0)], 4, 4, K2_PLAIN)
    with pytest.raises(IndexError):
        K2Tree.build([], 4, 4, K2_PLAIN).cell(4, 0)
    with pytest.raises(IndexError):
        K2Tree.build([], 4, 4, K2_PLAIN).row(0, 2, 0)   # only lo == hi + 1 is empty


# -- level planning ----------------------------------------------------------


def test_plan_prefers_minimal_side_then_early_stages():
    cfg = K2Config(leaf_side=1)
    # smallest 4^a*2^b >= 100 is 128; among those prefer more k=4 levels
    assert plan_levels(cfg, 100) == [4, 4, 4, 2]
    assert plan_levels(cfg, 1024) == [4, 4, 4, 4, 4]
    assert plan_levels(cfg, 1 << 20) == [4] * 5 + [2] * 10
    vocab = K2Config(leaf_side=8)
    assert plan_levels(vocab, 1 << 20) == [4] * 5 + [2] * 7
    # too small for any k=4 level: still at least one subdivision level
    assert plan_levels(vocab, 5) == [2]


@pytest.mark.parametrize("k1", [2, 3, 4, 8])
@pytest.mark.parametrize("k2", [2, 3])
def test_plan_is_the_smallest_hybrid_side(k1, k2):
    """plan_levels against every side k1^a * k2^b * leaf_side, a <= k1_levels:
    the smallest that covers max_dim, the largest a on a tie, and one k2
    level when the leaf side alone covers it."""
    dims = list(range(601)) + [1 << e for e in range(31)]
    for k1_levels in range(7):
        for leaf in (1, 2, 4, 8):
            cfg = K2Config(k1=k1, k1_levels=k1_levels, k2=k2, leaf_side=leaf)
            sides = sorted((k1 ** a * k2 ** b * leaf, -a, b)
                           for a in range(k1_levels + 1) for b in range(32))
            for dim in dims:
                _, neg_a, b = sides[bisect_left(sides, (max(dim, 1),))]
                if neg_a == b == 0:
                    b = 1
                assert plan_levels(cfg, dim) == [k1] * -neg_a + [k2] * b, (cfg, dim)


def test_plan_stops_once_k1_levels_cover_the_matrix():
    assert plan_levels(K2Config(k1_levels=32767), 10**6) == [4] * 8 + [2]


def test_structural_level_law():
    rng = np.random.default_rng(5)
    m = rng.random((60, 60)) < 0.08
    t = K2Tree.build(np.argwhere(m), 60, 60, HYBRID)
    # ones at level l, times the next level's arity, equals next level's bits
    for lvl in range(t.depth - 1):
        lo, hi = t._level_start[lvl], t._level_start[lvl + 1]
        ones = t._ones_before[lvl + 1] - t._ones_before[lvl]
        assert ones == sum(t.bit_at(p) for p in range(lo, hi))
        assert t._level_start[lvl + 2] - hi == ones * t._arity[lvl + 1]


def test_children_reconstruct_submatrices():
    rng = np.random.default_rng(8)
    for cfg in (K2_PLAIN, HYBRID,
                K2Config(k1_levels=0, leaf_side=2,
                         vocab_encoding=VOCAB_PLAIN)):
        nr = nc = 33
        m = rng.random((nr, nc)) < 0.1
        t = K2Tree.build(np.argwhere(m), nr, nc, cfg)
        padded = np.zeros((t.side, t.side), dtype=bool)
        padded[:nr, :nc] = m
        # frontier: nodes whose children bits start at `base` for level lvl
        frontier = [(0, 0, 0)]
        for lvl in range(t.depth):
            k = t.ks[lvl]
            child = t._block[lvl + 1]
            nxt = []
            for base, row0, col0 in frontier:
                for d in range(k * k):
                    p = base + d
                    r0 = row0 + (d // k) * child
                    c0 = col0 + (d % k) * child
                    occupied = bool(padded[r0:r0 + child, c0:c0 + child].any())
                    assert t.bit_at(p) == occupied
                    if occupied and lvl < t.depth - 1:
                        nxt.append((t.children_base(p), r0, c0))
            frontier = nxt


# -- vocabulary --------------------------------------------------------------


def leaf_vocab(pattern_rows, encoding):
    side = len(pattern_rows)
    bits_int = 0
    for r, row in enumerate(pattern_rows):
        for c, v in enumerate(row):
            if v:
                bits_int |= 1 << (r * side + c)
    return LeafVocabulary.build([bits_int], side, encoding)


def written_cols(v):
    """The column flags, as a bit string, and the rows of v's cols file form."""
    buf = io.BytesIO()
    v.write(buf)
    buf.seek(1)                           # encoding tag
    n_flags = v.count * v.side
    flags = unpack_fixed(buf.read((n_flags + 7) // 8), 1, n_flags)
    n_rows = sum(flags) if v.encoding == VOCAB_COLS_RANK else n_flags
    rows = unpack_fixed(buf.read(), v.row_index_bits, n_rows)
    return "".join(map(str, flags)), list(rows)


def test_cols_full_example():
    v = leaf_vocab([[0, 1], [0, 0]], VOCAB_COLS_FULL)
    assert written_cols(v) == ("01", [0, 0])  # unset columns store 0
    assert v.bit(0, 0, 1) is True
    assert v.bit(0, 1, 1) is False
    assert v.bit(0, 0, 0) is False


def test_cols_rank_example():
    v = leaf_vocab([[0, 1], [0, 0]], VOCAB_COLS_RANK)
    assert written_cols(v) == ("01", [0])
    assert v.bit(0, 0, 1) is True
    assert v.bit(0, 1, 1) is False


@pytest.mark.parametrize("encoding", [VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK])
def test_set_padding_bits_of_a_tree_are_refused(encoding):
    """As the cli test for whole stores, on a tree whose DAC has several
    levels, each packed field right after the one before."""
    rng = np.random.default_rng(5)
    pts = np.column_stack((rng.integers(0, 60, 400), np.arange(400)))
    t = K2Tree.build(pts, 60, 400, K2Config(k1_levels=0, leaf_side=2,
                                            vocab_encoding=encoding))
    # 1-bit levels, so the DAC has several, of one chunk width or another
    t.leaf_ids = Dac.encode(leaf_ids(t), chunk_bits=1)
    assert len(t.leaf_ids.levels) > 2
    buf = io.BytesIO()
    t.write(buf)
    data = buf.getvalue()
    padding = [bit for at, n_bits, n_bytes in packed_fields(t)
               for bit in range(8 * at + n_bits, 8 * (at + n_bytes))]
    assert padding and all(data[bit // 8] >> bit % 8 & 1 == 0 for bit in padding)
    for bit in padding:
        flipped = bytearray(data)
        flipped[bit // 8] |= 1 << bit % 8
        with pytest.raises(ValueError, match="set bits past the"):
            K2Tree.read(io.BytesIO(bytes(flipped)), t.n_cols)


def test_cols_encodings_reject_multi_one_columns():
    for enc in (VOCAB_COLS_FULL, VOCAB_COLS_RANK):
        with pytest.raises(ValueError):
            leaf_vocab([[1, 0], [1, 0]], enc)
    # plain accepts anything
    v = leaf_vocab([[1, 0], [1, 0]], VOCAB_PLAIN)
    assert v.bit(0, 0, 0) and v.bit(0, 1, 0)


def test_cols_full_payload_identity():
    rng = np.random.default_rng(12)
    nc, nr = 500, 90
    rows = rng.integers(0, nr, nc)
    pts = np.column_stack((rows, np.arange(nc)))
    # the distinct non-empty 8x8 leaves of the matrix padded to whole leaves
    m = np.zeros((96, 504), dtype=bool)
    m[rows, np.arange(nc)] = True
    blocks = m.reshape(12, 8, 63, 8).swapaxes(1, 2).reshape(-1, 64)
    leaves = np.unique(blocks[blocks.any(axis=1)], axis=0)
    for encoding, payload in ((VOCAB_COLS_FULL, len(leaves) * 8 * (1 + 3)),
                              (VOCAB_COLS_RANK, len(leaves) * 8 + int(leaves.sum()) * 3)):
        t = K2Tree.build(pts, nr, nc, K2Config(k1_levels=0, leaf_side=8,
                                               vocab_encoding=encoding))
        v = t.vocab
        assert v.count == len(leaves)
        assert v.payload_bits() == payload


def test_vocab_frequency_ranked_ids():
    # two distinct leaf patterns; the more frequent one gets id 0
    pts = [(0, c) for c in range(0, 32, 2)] + [(1, 33)]
    t = K2Tree.build(pts, 2, 40, K2Config(k1_levels=0, leaf_side=2,
                                          vocab_encoding=VOCAB_PLAIN))
    counts = {}
    for i in range(len(t.leaf_ids)):
        e = t.leaf_ids.access(i)
        counts[e] = counts.get(e, 0) + 1
    assert set(counts) == set(range(t.vocab.count))
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    assert [e for e, _ in ranked] == sorted(counts)


def ranked_vocab_reference(pts, n_rows, n_cols, config):
    """Leaf ids and vocabulary patterns by the ranking rule, from dicts:
    the leaves' patterns in path-code order, ranked by descending count,
    ties by first appearance."""
    ks = plan_levels(config, max(n_rows, n_cols))
    side = config.leaf_side
    leaves = {}
    for r, c in pts.tolist():
        code, block = 0, prod(ks) * side
        for k in ks:
            block //= k
            code = code * k * k + (r // block % k) * k + c // block % k
        leaves[code] = leaves.get(code, 0) | 1 << (r % side * side + c % side)
    patterns = [leaves[code] for code in sorted(leaves)]
    count, first = {}, {}
    for i, pattern in enumerate(patterns):
        count[pattern] = count.get(pattern, 0) + 1
        first.setdefault(pattern, i)
    ranked = sorted(count, key=lambda pattern: (-count[pattern], first[pattern]))
    rank = {pattern: e for e, pattern in enumerate(ranked)}
    return [rank[pattern] for pattern in patterns], ranked


@pytest.mark.parametrize("encoding", [VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK])
@pytest.mark.parametrize("leaf_side", [2, 4, 8])
def test_vocab_ranks_ties_by_first_appearance(encoding, leaf_side):
    rng = np.random.default_rng(leaf_side * 17 + len(encoding))
    config = K2Config(k1_levels=1, leaf_side=leaf_side, vocab_encoding=encoding)
    tied = 0
    for n_rows, n_cols in [(0, 0), (9, 0), (1, 1)] + [
            (int(rng.integers(1, 40)), int(rng.integers(1, 120))) for _ in range(12)]:
        # few leaves, rows from a palette of three and at most one 1 per
        # column (as the column encodings need): patterns repeat, counts tie
        cols = np.flatnonzero(rng.random(n_cols) < 0.6)
        pts = np.column_stack((rng.choice(rng.integers(0, max(n_rows, 1), 3), cols.size),
                               cols)).astype(np.int64)
        # duplicated points, in no particular order
        pts = rng.permutation(np.concatenate((pts, pts[rng.random(len(pts)) < 0.3])))
        tree = K2Tree.build(pts, n_rows, n_cols, config)
        ids, patterns = ranked_vocab_reference(pts, n_rows, n_cols, config)
        assert leaf_ids(tree) == ids
        assert list(tree.vocab.patterns) == patterns
        counts = np.bincount(ids, minlength=len(patterns))
        tied += len(patterns) - len(set(counts.tolist()))
    assert tied >= 5


@pytest.mark.parametrize("values", [
    pytest.param([], id="empty"),
    pytest.param([7], id="one value"),
    pytest.param([5] * 300, id="all equal"),
    pytest.param([1 << 63] * 40 + [3] * 40, id="two values"),
    pytest.param([(i % 5) << 32 | 9 for i in range(777)], id="high 32 bits differ"),
    pytest.param([(1 << 40) | (i * 7919) % 13 for i in range(1025)],
                 id="low 32 bits differ"),
    pytest.param([0, (1 << 64) - 1] * 50 + [1 << 63, 0], id="0 and 2^64-1"),
    pytest.param("heavy duplicates", id="heavy duplicates")])
def test_stable_order_matches_numpy_stable_argsort(values):
    if values == "heavy duplicates":
        rng = np.random.default_rng(3)
        pool = rng.integers(0, 1 << 63, 6, dtype=np.uint64) << np.uint64(1)
        values = pool[rng.integers(0, 6, 70_000)] | rng.integers(0, 2, 70_000,
                                                                  dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    order = _stable_order(values, 64)
    assert order.tolist() == np.argsort(values, kind="stable").tolist()
    # one pass over the low 16 bits orders those bits alone
    low = values & np.uint64(0xFFFF)
    assert _stable_order(low, 16).tolist() == np.argsort(low, kind="stable").tolist()


def five_leaf_tree(encoding=VOCAB_PLAIN):
    """A 2 x 10 tree of five 2 x 2 leaves of five patterns."""
    pts = [(0, 0), (0, 3), (1, 4), (1, 7), (0, 8), (1, 9)]
    t = K2Tree.build(pts, 2, 10, K2Config(k1_levels=0, leaf_side=2,
                                          vocab_encoding=encoding))
    assert t.vocab.count == len(t.leaf_ids) == 5
    return t


@pytest.mark.parametrize("ids, chunk_bits, levels, message", [
    # 4 and 5 both reach the last level, with the same chunk there; a sixth
    # leaf fits in the bytes of five, so it is read from their padding
    ([0, 1, 2, 5, 4], 1, 3, "leaf 5 holds no 1"),
    ([0, 1, 2, 3, 4], 1, 3, None),
    # ten leaves take 5 bytes, and the tree ends 3 bytes on
    ([0, 9, 2, 3, 4], 4, 1, "truncated input")])
def test_a_leaf_id_past_the_vocabulary_is_refused(ids, chunk_bits, levels, message):
    """The file holds no leaf count: the tree's largest leaf id + 1 gives
    it, so ids past the leaves written make the reader take more leaves
    than there are, from padding, which holds no 1, or past the end."""
    t = five_leaf_tree()
    t.leaf_ids = Dac.encode(ids, chunk_bits=chunk_bits)
    assert len(t.leaf_ids.levels) == levels
    buf = io.BytesIO()
    t.write(buf)
    if message is None:
        back = K2Tree.read(io.BytesIO(buf.getvalue()), t.n_cols)
        assert leaf_ids(back) == ids and back.vocab.count == 5
        return
    with pytest.raises(ValueError, match=message):
        K2Tree.read(io.BytesIO(buf.getvalue()), t.n_cols)


@pytest.mark.parametrize("encoding", [VOCAB_COLS_FULL, VOCAB_COLS_RANK])
def test_a_leaf_read_from_padding_is_refused(encoding):
    """As for the plain form above: ids 0, 1, 2, 5, 4 claim six leaves, and
    the column flags and rows of the sixth lie in the padding bits after
    the five written."""
    t = five_leaf_tree(encoding)
    t.leaf_ids = Dac.encode([0, 1, 2, 5, 4])
    buf = io.BytesIO()
    t.write(buf)
    with pytest.raises(ValueError, match="vocabulary leaf 5 holds no 1"):
        K2Tree.read(io.BytesIO(buf.getvalue()), t.n_cols)


def test_leaf_ids_whose_last_chunk_is_0_are_refused():
    """Ids 9, 1, 2, 3, 4 in 4-bit chunks, 9 stopping at level 0 and 1 going
    on with a 0 chunk: the values that reach the last level do not hold the
    largest id, so the reader refuses the DAC itself."""
    t = five_leaf_tree()
    t.leaf_ids = Dac(5, [(4, pack_fixed([9, 1, 2, 3, 4], 4),
                          BitVector(np.array([0, 1, 0, 0, 0], dtype=bool))),
                         (4, pack_fixed([0], 4), BitVector(np.zeros(1, dtype=bool)))])
    assert leaf_ids(t) == [9, 1, 2, 3, 4]
    buf = io.BytesIO()
    t.write(buf)
    with pytest.raises(ValueError, match="DAC level 1 is the last and has a 0 chunk"):
        K2Tree.read(io.BytesIO(buf.getvalue()), t.n_cols)


@pytest.mark.parametrize("encoding", [VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK])
@pytest.mark.parametrize("leaf_side", [2, 4, 8])
def test_vocab_matches_dense_single_one_cols(encoding, leaf_side):
    rng = np.random.default_rng(leaf_side * 31 + len(encoding))
    nc = int(rng.integers(10, 300))
    nr = int(rng.integers(5, 120))
    rows = rng.integers(0, nr, nc)
    keep = rng.random(nc) < 0.85
    pts = np.column_stack((rows[keep], np.flatnonzero(keep)))
    cfg = K2Config(k1_levels=2, leaf_side=leaf_side,
                   vocab_encoding=encoding)
    t = K2Tree.build(pts, nr, nc, cfg)
    assert_matches_dense(t, dense(pts, nr, nc), rng)
    # every leaf decodes to the plain pattern, and the readers mask that decode
    plain = K2Tree.build(pts, nr, nc, K2Config(
        k1_levels=cfg.k1_levels, leaf_side=leaf_side, vocab_encoding=VOCAB_PLAIN)).vocab
    v = t.vocab
    assert v.count == plain.count > 1
    for e in range(v.count):
        leaf = v.cells(e)
        assert leaf == plain.patterns[e]
        cells = {(r, c) for r in range(leaf_side) for c in range(leaf_side)
                 if leaf >> (r * leaf_side + c) & 1}
        for r in range(leaf_side):
            assert v.row_cols(e, r) == sorted(c for rr, c in cells if rr == r)
            for c in range(leaf_side):
                assert v.bit(e, r, c) == ((r, c) in cells)
        for c in range(leaf_side):
            assert v.col_rows(e, c) == sorted(r for r, cc in cells if cc == c)


def test_encodings_agree_bit_for_bit():
    rng = np.random.default_rng(77)
    nc, nr = 200, 70
    rows = rng.integers(0, nr, nc)
    pts = np.column_stack((rows, np.arange(nc)))
    m = dense(pts, nr, nc)
    trees = {enc: K2Tree.build(pts, nr, nc,
                               K2Config(k1_levels=0, leaf_side=4,
                                        vocab_encoding=enc))
             for enc in (VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK)}
    probes = [(int(rng.integers(nr)), int(rng.integers(nc))) for _ in range(200)]
    for r, c in probes:
        answers = {enc: t.cell(r, c) for enc, t in trees.items()}
        assert len(set(answers.values())) == 1
        assert answers[VOCAB_PLAIN] == m[r, c]
    for r in range(0, nr, 7):
        rows_ = {enc: t.row(r) for enc, t in trees.items()}
        assert len({tuple(v) for v in rows_.values()}) == 1
    rects = {enc: t.rect(0, nr - 1, 0, nc - 1) for enc, t in trees.items()}
    assert len({tuple(v) for v in rects.values()}) == 1


# -- randomized equivalence ---------------------------------------------------


@pytest.mark.parametrize("trial", range(10))
def test_matches_dense_random(trial):
    rng = np.random.default_rng(1000 + trial)
    nr = int(rng.integers(3, 260))
    nc = int(rng.integers(3, 260))
    density = [0.002, 0.05, 0.15][trial % 3]
    m = rng.random((nr, nc)) < density
    cfg = [K2_PLAIN, HYBRID,
           K2Config(k1_levels=0, leaf_side=4,
                    vocab_encoding=VOCAB_PLAIN),
           K2Config(k1_levels=1, leaf_side=8,
                    vocab_encoding=VOCAB_PLAIN)][trial % 4]
    t = K2Tree.build(np.argwhere(m), nr, nc, cfg)
    assert_matches_dense(t, m, rng)


def test_serialization_round_trip():
    rng = np.random.default_rng(2024)
    for cfg in (K2_PLAIN, HYBRID,
                K2Config(k1_levels=0, leaf_side=8,
                         vocab_encoding=VOCAB_COLS_RANK),
                K2Config(k1_levels=2, leaf_side=4,
                         vocab_encoding=VOCAB_COLS_FULL, sample_preset="dense")):
        nc = 120
        rows = rng.integers(0, 50, nc)
        pts = np.column_stack((rows, np.arange(nc)))
        t = K2Tree.build(pts, 50, nc, cfg)
        buf = io.BytesIO()
        t.write(buf)
        buf.seek(0)
        back = K2Tree.read(buf, t.n_cols)
        assert back.ks == t.ks and back.side == t.side
        assert (back.leaf_side, back.sample_preset) == (cfg.leaf_side, cfg.sample_preset)
        if cfg.leaf_side > 1:
            assert back.vocab.encoding == cfg.vocab_encoding
            assert back.leaf_ids.widths == t.leaf_ids.widths
        assert_matches_dense(back, dense(pts, 50, nc), rng, probes=20)


@pytest.mark.parametrize("field, value, message", [
    ("preset", 2, "sample preset byte 2"),
    ("vocab tag", 9, "vocabulary encoding tag byte 9")])
def test_unknown_tag_byte_is_named(field, value, message):
    nc = 120
    pts = np.column_stack((np.arange(nc) % 50, np.arange(nc)))
    t = K2Tree.build(pts, 50, nc, K2Config())
    buf = io.BytesIO()
    t.write(buf)
    data = bytearray(buf.getvalue())
    at = tree_offsets(t)[{"preset": "preset", "vocab tag": "vocab"}[field]]
    assert data[at] in (0, 1)          # the byte holds a known value before
    data[at] = value
    with pytest.raises(ValueError, match=message):
        K2Tree.read(io.BytesIO(bytes(data)), t.n_cols)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 120), (50, 120)])
@pytest.mark.parametrize("leaf_side", [1, 8])
def test_a_tree_without_levels_is_refused(rows, cols, leaf_side):
    """Every tree has at least one level, an empty matrix's too: a header
    with depth 0 is refused whatever the matrix."""
    pts = np.column_stack((np.arange(cols) % 50, np.arange(cols))) if rows else []
    t = K2Tree.build(pts, rows, cols, K2Config(leaf_side=leaf_side))
    buf = io.BytesIO()
    t.write(buf)
    data = bytearray(buf.getvalue())
    at = tree_offsets(t)
    data[at["depth"]:at["depth"] + 2] = (0).to_bytes(2, "little")
    del data[at["ks"]:at["ks"] + len(t.ks)]
    with pytest.raises(ValueError, match="tree geometry does not add up"):
        K2Tree.read(io.BytesIO(bytes(data)), t.n_cols)


def test_leaf_side_limit():
    with pytest.raises(ValueError):
        K2Config(k1_levels=0, leaf_side=16)


def unique_level_bits(pts, n_rows, n_cols, config):
    """T:L bits of the tree over pts, each level's parents found by np.unique."""
    ks = plan_levels(config, max(n_rows, n_cols))
    rows, cols = pts[:, 0], pts[:, 1]
    block = prod(ks) * config.leaf_side
    code = np.zeros(len(pts), dtype=np.int64)
    for k in ks:
        block //= k
        code = code * (k * k) + (rows // block % k) * k + (cols // block % k)
    codes = np.unique(code)
    levels = []
    for lvl in range(len(ks) - 1, -1, -1):
        arity = ks[lvl] * ks[lvl]
        digit, parent = codes % arity, codes // arity
        uniq = np.unique(parent) if lvl else np.zeros(1, dtype=np.int64)
        level = np.zeros(len(uniq) * arity, dtype=bool)
        level[np.searchsorted(uniq, parent) * arity + digit] = True
        levels.insert(0, level)
        codes = uniq
    return np.concatenate(levels)


@pytest.mark.parametrize("config", [K2Config(vocab_encoding=VOCAB_PLAIN),
                                    K2_PLAIN, HYBRID,
                                    K2Config(k1=3, k1_levels=2,
                                             leaf_side=4, vocab_encoding=VOCAB_PLAIN),
                                    # arity 9 below; 15 k1 levels alone plan
                                    # the largest matrix
                                    K2Config(k1_levels=15, k2=3, leaf_side=2,
                                             vocab_encoding=VOCAB_PLAIN)])
def test_level_bits_match_unique_reference(config):
    rng = np.random.default_rng(23)
    # the last two inputs have far more leaf rows and columns than points,
    # so the path codes are computed without tables; the last one is the
    # largest matrix, whose far corner's path code is near 2^62 at leaf side 1
    for size, low, high in ([(n, 1, 700) for n in (0, 1, 2, 17, 400, 3000)]
                            + [(40, 1 << 28, 1 << 30), (40, MAX_SIDE - 1, MAX_SIDE)]):
        n_rows, n_cols = (int(x) for x in rng.integers(low, high, 2))
        pts = np.column_stack([rng.integers(0, n_rows, size),
                               rng.integers(0, n_cols, size)])
        if low == MAX_SIDE - 1:
            pts = np.vstack([pts, [n_rows - 1, n_cols - 1]])
        tree = K2Tree.build(pts, n_rows, n_cols, config)
        got = bits(tree.tree_bits)
        want = unique_level_bits(pts, n_rows, n_cols, config)
        assert got == "".join("1" if b else "0" for b in want)
