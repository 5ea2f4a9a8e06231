import io
from math import prod

import numpy as np
import pytest

from bmatrix.bitvector import BitVector, SAMPLE_RATE_DEFAULT
from bmatrix.k2tree import (K2Config, K2Tree, LeafVocabulary, Stage,
                            VOCAB_COLS_FULL, VOCAB_COLS_RANK, VOCAB_PLAIN,
                            plan_levels)

K2_PLAIN = K2Config(stages=(Stage(2, None),), leaf_side=1)
HYBRID = K2Config(stages=(Stage(4, 5), Stage(2, None)), leaf_side=1)


def bits(bv):
    return "".join("1" if bv.access(i) else "0" for i in range(len(bv)))


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
    assert bits(t.tree_bits) == "1000"
    assert bits(t.leaf_bits) == "1000"
    assert t.cell(0, 0) is True
    assert t.cell(3, 3) is False
    assert t.row(0, 0, 3) == [0]
    assert t.col(0, limit=1) == [0]
    assert t.rect(1, 3, 0, 3) == []


def test_empty_4x4():
    t = K2Tree.build([], 4, 4, K2_PLAIN)
    assert bits(t.tree_bits) == "0000"
    assert len(t.leaf_bits) == 0
    assert t.cell(1, 2) is False
    assert t.col(0) == []


def test_full_4x4():
    pts = [(r, c) for r in range(4) for c in range(4)]
    t = K2Tree.build(pts, 4, 4, K2_PLAIN)
    assert bits(t.tree_bits) == "1111"
    assert bits(t.leaf_bits) == "1" * 16
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


def test_zero_dims_and_bad_points():
    t = K2Tree.build([], 0, 5, K2_PLAIN)
    assert t.side == 0
    with pytest.raises(ValueError):
        K2Tree.build([(0, 0)], 0, 5, K2_PLAIN)
    with pytest.raises(ValueError):
        K2Tree.build([(4, 0)], 4, 4, K2_PLAIN)
    with pytest.raises(IndexError):
        K2Tree.build([], 4, 4, K2_PLAIN).cell(4, 0)


# -- level planning ----------------------------------------------------------


def test_plan_prefers_minimal_side_then_early_stages():
    cfg = K2Config(stages=(Stage(4, 5), Stage(2, None)), leaf_side=1)
    # smallest 4^a*2^b >= 100 is 128; among those prefer more k=4 levels
    assert plan_levels(cfg, 100) == [4, 4, 4, 2]
    assert plan_levels(cfg, 1024) == [4, 4, 4, 4, 4]
    assert plan_levels(cfg, 1 << 20) == [4] * 5 + [2] * 10
    vocab = K2Config(stages=(Stage(4, 5), Stage(2, None)), leaf_side=8)
    assert plan_levels(vocab, 1 << 20) == [4] * 5 + [2] * 7
    # too small for any k=4 level: still at least one subdivision level
    assert plan_levels(vocab, 5) == [2]


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
                K2Config(stages=(Stage(2, None),), leaf_side=2,
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
    return LeafVocabulary.build([bits_int], side, encoding, SAMPLE_RATE_DEFAULT)


def test_cols_full_example():
    v = leaf_vocab([[0, 1], [0, 0]], VOCAB_COLS_FULL)
    assert bits(v.col_flags) == "01"
    assert list(v.row_in_col) == [0, 0]  # unset columns store 0
    assert v.bit(0, 0, 1) is True
    assert v.bit(0, 1, 1) is False
    assert v.bit(0, 0, 0) is False


def test_cols_rank_example():
    v = leaf_vocab([[0, 1], [0, 0]], VOCAB_COLS_RANK)
    assert bits(v.col_flags) == "01"
    assert list(v.row_in_col) == [0]
    assert v.bit(0, 0, 1) is True
    assert v.bit(0, 1, 1) is False


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
    t = K2Tree.build(pts, nr, nc, K2Config(stages=(Stage(2, None),), leaf_side=8,
                                           vocab_encoding=VOCAB_COLS_FULL))
    v = t.vocab
    assert v.payload_bits() == v.count * 8 * (1 + 3)


def test_vocab_frequency_ranked_ids():
    # two distinct leaf patterns; the more frequent one gets id 0
    pts = [(0, c) for c in range(0, 32, 2)] + [(1, 33)]
    t = K2Tree.build(pts, 2, 40, K2Config(stages=(Stage(2, None),), leaf_side=2,
                                          vocab_encoding=VOCAB_PLAIN))
    counts = {}
    for i in range(len(t.leaf_ids)):
        e = t.leaf_ids.access(i)
        counts[e] = counts.get(e, 0) + 1
    assert set(counts) == set(range(t.vocab.count))
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    assert [e for e, _ in ranked] == sorted(counts)


@pytest.mark.parametrize("encoding", [VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK])
@pytest.mark.parametrize("leaf_side", [2, 4, 8])
def test_vocab_matches_dense_single_one_cols(encoding, leaf_side):
    rng = np.random.default_rng(leaf_side * 31 + len(encoding))
    nc = int(rng.integers(10, 300))
    nr = int(rng.integers(5, 120))
    rows = rng.integers(0, nr, nc)
    keep = rng.random(nc) < 0.85
    pts = np.column_stack((rows[keep], np.flatnonzero(keep)))
    cfg = K2Config(stages=(Stage(4, 2), Stage(2, None)), leaf_side=leaf_side,
                   vocab_encoding=encoding)
    t = K2Tree.build(pts, nr, nc, cfg)
    assert_matches_dense(t, dense(pts, nr, nc), rng)


def test_encodings_agree_bit_for_bit():
    rng = np.random.default_rng(77)
    nc, nr = 200, 70
    rows = rng.integers(0, nr, nc)
    pts = np.column_stack((rows, np.arange(nc)))
    m = dense(pts, nr, nc)
    trees = {enc: K2Tree.build(pts, nr, nc,
                               K2Config(stages=(Stage(2, None),), leaf_side=4,
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
           K2Config(stages=(Stage(2, None),), leaf_side=4,
                    vocab_encoding=VOCAB_PLAIN),
           K2Config(stages=(Stage(4, 1), Stage(2, None)), leaf_side=8,
                    vocab_encoding=VOCAB_PLAIN)][trial % 4]
    t = K2Tree.build(np.argwhere(m), nr, nc, cfg)
    assert_matches_dense(t, m, rng)


def test_serialization_round_trip():
    rng = np.random.default_rng(2024)
    for cfg in (K2_PLAIN, HYBRID,
                K2Config(stages=(Stage(2, None),), leaf_side=8,
                         vocab_encoding=VOCAB_COLS_RANK),
                K2Config(stages=(Stage(4, 2), Stage(2, None)), leaf_side=4,
                         vocab_encoding=VOCAB_COLS_FULL, sample_preset="dense")):
        nc = 120
        rows = rng.integers(0, 50, nc)
        pts = np.column_stack((rows, np.arange(nc)))
        t = K2Tree.build(pts, 50, nc, cfg)
        buf = io.BytesIO()
        t.write(buf)
        buf.seek(0)
        back = K2Tree.read(buf)
        assert back.config == cfg
        assert back.ks == t.ks and back.side == t.side
        assert_matches_dense(back, dense(pts, 50, nc), rng, probes=20)


@pytest.mark.parametrize("field, value, message", [
    ("encoding", 3, "vocabulary encoding tag byte 3"),
    ("preset", 2, "sample preset byte 2"),
    ("mode", 3, "leaf mode byte 3"),
    ("vocab tag", 9, "vocabulary encoding tag byte 9")])
def test_unknown_tag_byte_is_named(field, value, message):
    nc = 120
    pts = np.column_stack((np.arange(nc) % 50, np.arange(nc)))
    t = K2Tree.build(pts, 50, nc, K2Config())
    buf = io.BytesIO()
    t.write(buf)
    data = bytearray(buf.getvalue())
    header = 1 + 3 * len(t.config.stages)
    mode_at = header + 4 + 24 + 2 + len(t.ks) + 8 + len(t.tree_bits.data)
    dac = io.BytesIO()
    t.leaf_ids.write(dac)
    at = {"encoding": header + 1, "preset": header + 2, "mode": mode_at,
          "vocab tag": mode_at + 1 + len(dac.getvalue())}[field]
    assert data[at] in (0, 1)          # the byte holds a known value before
    data[at] = value
    with pytest.raises(ValueError, match=message):
        K2Tree.read(io.BytesIO(bytes(data)))


def test_leaf_side_limit():
    with pytest.raises(ValueError):
        K2Config(stages=(Stage(2, None),), leaf_side=16)


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
                                    K2Config(stages=(Stage(3, 2), Stage(2, None)),
                                             leaf_side=4, vocab_encoding=VOCAB_PLAIN)])
def test_level_bits_match_unique_reference(config):
    rng = np.random.default_rng(23)
    for size in (0, 1, 2, 17, 400, 3000):
        n_rows, n_cols = (int(x) for x in rng.integers(1, 700, 2))
        pts = np.column_stack([rng.integers(0, n_rows, size),
                               rng.integers(0, n_cols, size)])
        tree = K2Tree.build(pts, n_rows, n_cols, config)
        got = bits(tree.tree_bits)
        if tree.leaf_bits is not None:
            got += bits(tree.leaf_bits)
        want = unique_level_bits(pts, n_rows, n_cols, config)
        assert got == "".join("1" if b else "0" for b in want)
