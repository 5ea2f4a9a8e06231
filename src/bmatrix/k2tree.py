"""Succinct sparse binary matrix with hybrid-k subdivision.

The matrix is padded to a square and recursively split into k x k blocks;
each level stores one bit per block (1 = block contains a 1). Internal
level bits live in T; with the leaf vocabulary disabled the last level's
bits (the cells) live in L. With a leaf vocabulary, subdivision stops at
leaf_side x leaf_side blocks whose contents are deduplicated into a
frequency-ranked vocabulary, and the per-leaf ids are stored as a DAC.

Child navigation follows rank over T: the children of the j-th set bit
of a level are consecutive at the next level, so a single bitmap plus
per-level offsets replaces all pointers.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from io import BytesIO
from itertools import repeat
from math import prod

import numpy as np

from ._binio import pack_fixed, packed_array, read_exact, unpack_fixed
from .bitvector import SAMPLE_PRESETS, BitVector
from .dac import Dac

MAX_SIDE = 1 << 31  # path codes must fit in int64

VOCAB_PLAIN = "plain"
VOCAB_COLS_FULL = "cols-full"
VOCAB_COLS_RANK = "cols-rank"
VOCAB_ENCODINGS = (VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK)


def _vocab_encoding(tag: int) -> str:
    """The vocabulary encoding a file's tag byte names."""
    if tag >= len(VOCAB_ENCODINGS):
        raise ValueError(f"unknown vocabulary encoding tag byte {tag}")
    return VOCAB_ENCODINGS[tag]


@dataclass(frozen=True)
class Stage:
    """A run of subdivision levels with a common branching side k.

    levels=None means "use this k for all remaining levels"; only the
    last stage may be unbounded.
    """
    k: int
    levels: int | None = None


@dataclass(frozen=True)
class K2Config:
    stages: tuple[Stage, ...] = (Stage(4, 5), Stage(2, None))
    leaf_side: int = 8              # 1 disables the vocabulary
    vocab_encoding: str = VOCAB_COLS_FULL
    sample_preset: str = "default"
    dac_chunk_bits: int = 8

    def __post_init__(self):
        if not self.stages:
            raise ValueError("at least one subdivision stage is required")
        for i, st in enumerate(self.stages):
            if st.k < 2:
                raise ValueError("branching side k must be >= 2")
            if st.levels is None and i != len(self.stages) - 1:
                raise ValueError("only the last stage may be unbounded")
            if st.levels is not None and st.levels < 0:
                raise ValueError("stage level count must be >= 0")
        if self.leaf_side != 1:
            if self.leaf_side not in (2, 4, 8):
                raise ValueError("leaf_side must be 1 (disabled) or one of 2, 4, 8")
            if self.vocab_encoding not in VOCAB_ENCODINGS:
                raise ValueError(f"unknown vocabulary encoding {self.vocab_encoding!r}")
        if self.sample_preset not in SAMPLE_PRESETS:
            raise ValueError(f"unknown sample preset {self.sample_preset!r}")
        if self.dac_chunk_bits < 1:
            raise ValueError("dac_chunk_bits must be >= 1")

    @property
    def sample_rate(self) -> int:
        return SAMPLE_PRESETS[self.sample_preset]


def plan_levels(config: K2Config, max_dim: int) -> list[int]:
    """Per-level branching sides covering max_dim.

    Picks the smallest side of the form prod(k_i) * leaf_side >= max_dim
    reachable with the configured stage budget, preferring to spend levels
    on earlier stages when sides tie. Small matrices simply use fewer
    levels of the early stages. At least one subdivision level is always
    planned so T:L is never degenerate.
    """
    target = max(int(max_dim), 1)
    stages = config.stages
    best: tuple[int, tuple[int, ...]] | None = None

    def consider(counts: tuple[int, ...], side: int) -> None:
        nonlocal best
        if side < target:
            return
        if best is None or side < best[0] or (side == best[0] and counts > best[1]):
            best = (side, counts)

    def walk(i: int, counts: tuple[int, ...], side: int) -> None:
        if i == len(stages):
            consider(counts, side)
            return
        st = stages[i]
        if st.levels is None:
            extra = 0
            s = side
            while True:
                consider(counts + (extra,), s)
                if s >= target:
                    break
                extra += 1
                s *= st.k
            return
        for used in range(st.levels + 1):
            walk(i + 1, counts + (used,), side * st.k ** used)

    walk(0, (), config.leaf_side)
    assert best is not None
    counts = list(best[1])
    if sum(counts) == 0:
        counts[-1] = 1
    ks: list[int] = []
    for st, used in zip(stages, counts):
        ks.extend([st.k] * used)
    return ks


def _level_bits(codes: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """Per-level node bits, top level first, from the ascending distinct
    path codes of the last level's set cells."""
    level_bits: list[np.ndarray] = [None] * len(ks)  # type: ignore[list-item]
    for lvl in range(len(ks) - 1, -1, -1):
        arity = ks[lvl] * ks[lvl]
        digit = codes % arity
        parent = codes // arity
        if lvl == 0:
            bits = np.zeros(arity, dtype=bool)
            bits[digit] = True
        else:
            # codes ascend, so parent does too: a new parent starts each run
            new = np.empty(parent.size, dtype=bool)
            new[:1] = True
            np.not_equal(parent[1:], parent[:-1], out=new[1:])
            codes = parent[new]
            bits = np.zeros(codes.size * arity, dtype=bool)
            bits[(np.cumsum(new) - 1) * arity + digit] = True
        level_bits[lvl] = bits
    return level_bits


class LeafVocabulary:
    """Distinct leaf matrices ranked by descending frequency.

    plain      -- each matrix stored as side*side bits.
    cols-full  -- per column: a presence bit in C plus a log2(side)-bit row
                  index in R (unset columns keep row 0).
    cols-rank  -- like cols-full but R holds entries only for set columns,
                  located through rank on C. Both column encodings require
                  at most one 1 per leaf column.

    `patterns` and `row_in_col` are `array.array`s of the smallest
    unsigned typecode that holds their values.
    """

    __slots__ = ("encoding", "side", "count", "patterns", "col_flags", "row_in_col")

    def __init__(self, encoding, side, count, patterns=None, col_flags=None,
                 row_in_col=None):
        self.encoding = encoding
        self.side = side
        self.count = count
        self.patterns = patterns       # plain: array of side*side-bit ints
        self.col_flags = col_flags     # cols-*: BitVector of count*side bits
        self.row_in_col = row_in_col   # cols-*: array of row indices

    @classmethod
    def build(cls, patterns, side: int, encoding: str,
              sample_rate: int) -> "LeafVocabulary":
        """patterns[i] = bits of the matrix with id i, bit r*side+c set for a 1."""
        pats = np.asarray(patterns, dtype=np.uint64).ravel()
        m = int(pats.size)
        if encoding == VOCAB_PLAIN:
            return cls(encoding, side, m, patterns=packed_array(pats))
        shifts = np.arange(side * side, dtype=np.uint64)
        cells = ((pats[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
        cells = cells.reshape(m, side, side)          # [id, row, col]
        per_col = cells.sum(axis=1)
        if (per_col > 1).any():
            raise ValueError(
                f"{encoding} vocabulary requires at most one 1 per leaf column")
        col_flags = BitVector(per_col.ravel() > 0, sample_rate)
        rows = np.argmax(cells, axis=1)               # 0 for empty columns
        if encoding == VOCAB_COLS_FULL:
            return cls(encoding, side, m, col_flags=col_flags,
                       row_in_col=packed_array(rows.ravel()))
        mask = per_col.ravel() > 0
        return cls(encoding, side, m, col_flags=col_flags,
                   row_in_col=packed_array(rows.ravel()[mask]))

    def bit(self, e: int, r: int, c: int) -> bool:
        """Cell (r, c) of the stored leaf matrix e."""
        if not 0 <= e < self.count:
            raise IndexError(f"leaf id {e} out of range [0, {self.count})")
        if not (0 <= r < self.side and 0 <= c < self.side):
            raise IndexError(f"cell ({r}, {c}) outside a {self.side}x{self.side} leaf")
        if self.encoding == VOCAB_PLAIN:
            return (self.patterns[e] >> (r * self.side + c)) & 1 == 1
        i = e * self.side + c
        if not self.col_flags.access(i):
            return False
        if self.encoding == VOCAB_COLS_FULL:
            return self.row_in_col[i] == r
        return self.row_in_col[self.col_flags.rank1(i) - 1] == r

    # Bulk enumerators used by the tree traversals; local coordinates,
    # ascending / row-major order so results come out sorted without probing
    # every cell of a leaf.

    def row_cols(self, e: int, r: int) -> list[int]:
        """Columns set in row r of leaf e, ascending."""
        side = self.side
        if self.encoding == VOCAB_PLAIN:
            bits = (self.patterns[e] >> (r * side)) & ((1 << side) - 1)
            out = []
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            return out
        base = e * side
        flags = self.col_flags.data
        rows = self.row_in_col
        if self.encoding == VOCAB_COLS_FULL:
            return [c for c in range(side)
                    if (flags[(base + c) >> 3] >> ((base + c) & 7)) & 1
                    and rows[base + c] == r]
        j = self.col_flags.rank1(base - 1) if base else 0
        out = []
        for c in range(side):
            i = base + c
            if (flags[i >> 3] >> (i & 7)) & 1:
                if rows[j] == r:
                    out.append(c)
                j += 1
        return out

    def col_rows(self, e: int, c: int) -> list[int]:
        """Rows set in column c of leaf e, ascending."""
        side = self.side
        if self.encoding == VOCAB_PLAIN:
            bits = self.patterns[e] >> c
            out = []
            for r in range(side):
                if bits & 1:
                    out.append(r)
                bits >>= side
            return out
        i = e * side + c
        if not self.col_flags.access(i):
            return []
        if self.encoding == VOCAB_COLS_FULL:
            return [self.row_in_col[i]]
        return [self.row_in_col[self.col_flags.rank1(i) - 1]]

    def cells(self, e: int) -> list[tuple[int, int]]:
        """Set cells of leaf e in row-major order."""
        side = self.side
        if self.encoding == VOCAB_PLAIN:
            bits = self.patterns[e]
            out = []
            while bits:
                low = bits & -bits
                b = low.bit_length() - 1
                out.append((b // side, b % side))
                bits ^= low
            return out
        base = e * side
        flags = self.col_flags.data
        rows = self.row_in_col
        if self.encoding == VOCAB_COLS_FULL:
            pairs = [(rows[base + c], c) for c in range(side)
                     if (flags[(base + c) >> 3] >> ((base + c) & 7)) & 1]
        else:
            j = self.col_flags.rank1(base - 1) if base else 0
            pairs = []
            for c in range(side):
                i = base + c
                if (flags[i >> 3] >> (i & 7)) & 1:
                    pairs.append((rows[j], c))
                    j += 1
        pairs.sort()
        return pairs

    @property
    def row_index_bits(self) -> int:
        return self.side.bit_length() - 1  # side is a power of two

    def payload_bits(self) -> int:
        """Semantic payload size in bits (packing padding excluded)."""
        if self.encoding == VOCAB_PLAIN:
            return self.count * self.side * self.side
        if self.encoding == VOCAB_COLS_FULL:
            return self.count * self.side * (1 + self.row_index_bits)
        return self.count * self.side + len(self.row_in_col) * self.row_index_bits

    @property
    def data_bytes(self) -> int:
        return (self.payload_bits() + 7) // 8

    @property
    def accel_bytes(self) -> int:
        return self.col_flags.accel_bytes if self.col_flags is not None else 0

    def write(self, out) -> None:
        tag = VOCAB_ENCODINGS.index(self.encoding)
        out.write(struct.pack("<BBQ", tag, self.side, self.count))
        if self.encoding == VOCAB_PLAIN:
            out.write(pack_fixed(self.patterns, self.side * self.side))
        else:
            self.col_flags.write(out)
            out.write(struct.pack("<Q", len(self.row_in_col)))
            out.write(pack_fixed(self.row_in_col, self.row_index_bits))

    @classmethod
    def read(cls, src, sample_rate: int) -> "LeafVocabulary":
        tag, side, count = struct.unpack("<BBQ", read_exact(src, 10))
        encoding = _vocab_encoding(tag)
        if encoding == VOCAB_PLAIN:
            n_bytes = (count * side * side + 7) // 8
            patterns = unpack_fixed(read_exact(src, n_bytes), side * side, count)
            return cls(encoding, side, count, patterns=patterns)
        col_flags = BitVector.read(src, sample_rate)
        (n_rows,) = struct.unpack("<Q", read_exact(src, 8))
        width = side.bit_length() - 1
        rows = unpack_fixed(read_exact(src, (n_rows * width + 7) // 8), width, n_rows)
        return cls(encoding, side, count, col_flags=col_flags, row_in_col=rows)


class K2Tree:
    """k2-tree over an n_rows x n_cols binary matrix, immutable after build."""

    __slots__ = ("config", "n_rows", "n_cols", "side", "ks", "tree_bits",
                 "leaf_bits", "leaf_ids", "vocab",
                 "_arity", "_block", "_level_start", "_ones_before")

    def __init__(self, config, n_rows, n_cols, side, ks, tree_bits,
                 leaf_bits=None, leaf_ids=None, vocab=None):
        self.config = config
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.side = side
        self.ks = ks
        self.tree_bits = tree_bits
        self.leaf_bits = leaf_bits
        self.leaf_ids = leaf_ids
        self.vocab = vocab
        self._index_levels()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, points, n_rows: int, n_cols: int,
              config: K2Config = K2Config()) -> "K2Tree":
        """Build from an iterable/array of (row, col) pairs.

        Duplicated points are tolerated (cells are idempotent); points
        outside the logical bounds are rejected.
        """
        pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                         dtype=np.int64)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (row, col) pairs")
        rows, cols = pts[:, 0], pts[:, 1]
        if n_rows == 0 or n_cols == 0:
            if pts.shape[0]:
                raise ValueError("points given for an empty matrix")
            return cls(config, int(n_rows), int(n_cols), 0, [],
                       BitVector((), config.sample_rate))
        if pts.shape[0] and (
                rows.min() < 0 or rows.max() >= n_rows
                or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("point outside matrix bounds")

        ks = plan_levels(config, max(n_rows, n_cols))
        side = prod(ks) * config.leaf_side
        if side > MAX_SIDE:
            raise ValueError(f"padded side {side} exceeds supported maximum {MAX_SIDE}")
        depth = len(ks)
        leaf_side = config.leaf_side
        rate = config.sample_rate

        block = side
        leaf_code = np.zeros(pts.shape[0], dtype=np.int64)
        for k in ks:
            block //= k
            digit = (rows // block % k) * k + (cols // block % k)
            leaf_code = leaf_code * (k * k) + digit

        if leaf_side > 1:
            bit_idx = ((rows % leaf_side) * leaf_side + (cols % leaf_side)).astype(np.uint64)
            masks = np.uint64(1) << bit_idx
            order = np.argsort(leaf_code, kind="stable")
            lc = leaf_code[order]
            if lc.size:
                starts = np.flatnonzero(np.r_[True, lc[1:] != lc[:-1]])
                codes = lc[starts]
                patterns = np.bitwise_or.reduceat(masks[order], starts)
            else:
                codes = lc
                patterns = masks
        else:
            codes = np.unique(leaf_code)
            patterns = None

        level_bits = _level_bits(codes, ks)

        if leaf_side > 1:
            tree = BitVector(np.concatenate(level_bits), rate)
            if patterns.size:
                uniq_pat, first, inverse, counts = np.unique(
                    patterns, return_index=True, return_inverse=True,
                    return_counts=True)
                by_freq = np.lexsort((first, -counts))
                rank_of = np.empty(len(uniq_pat), dtype=np.int64)
                rank_of[by_freq] = np.arange(len(uniq_pat))
                ids = rank_of[inverse]
                vocab_patterns = uniq_pat[by_freq]
            else:
                ids = np.zeros(0, dtype=np.int64)
                vocab_patterns = np.zeros(0, dtype=np.uint64)
            vocab = LeafVocabulary.build(vocab_patterns, leaf_side,
                                         config.vocab_encoding, rate)
            leaf_ids = Dac.encode(ids, config.dac_chunk_bits, rate)
            return cls(config, int(n_rows), int(n_cols), side, ks, tree,
                       leaf_ids=leaf_ids, vocab=vocab)

        tree = BitVector(
            np.concatenate(level_bits[:-1]) if depth > 1 else np.zeros(0, dtype=bool),
            rate)
        leaves = BitVector(level_bits[-1], rate)
        return cls(config, int(n_rows), int(n_cols), side, ks, tree,
                   leaf_bits=leaves)

    def _index_levels(self) -> None:
        """Per level: its arity, block side, start in T:L and the ones of T
        before it. The children of a set bit at `pos` on level l start at
        _level_start[l + 1] + (rank1(pos) - _ones_before[l] - 1) * _arity[l + 1]."""
        depth = len(self.ks)
        self._arity = [k * k for k in self.ks]
        block = [self.side]
        for k in self.ks:
            block.append(block[-1] // k)
        self._block = block
        start = [0]
        ones_before = [0]
        nodes = 1
        in_tree = depth if self.vocab is not None else depth - 1
        for lvl in range(depth):
            end = start[-1] + nodes * self._arity[lvl]
            if lvl < in_tree:
                if end > len(self.tree_bits):
                    raise ValueError(f"tree bits end inside level {lvl}")
                ones = (self.tree_bits.rank1(end - 1) if end else 0) - ones_before[-1]
                ones_before.append(ones_before[-1] + ones)
                nodes = ones
            start.append(end)
        if depth and (len(self.leaf_ids) != nodes if self.vocab is not None
                      else len(self.leaf_bits) != start[-1] - start[-2]):
            raise ValueError("leaf count does not match the tree's last level")
        self._level_start = start
        self._ones_before = ones_before

    # -- bit-level navigation ---------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.ks)

    def bit_at(self, pos: int) -> bool:
        """Bit at `pos` in the T:L concatenation."""
        t_len = self.tree_bits.length
        if pos < t_len:
            return self.tree_bits.access(pos)
        return self.leaf_bits.access(pos - t_len)

    def children_base(self, pos: int) -> int:
        """First child's position in T:L for the set internal bit at `pos`.

        The children of the j-th set bit of a level are consecutive at the
        next level, so the base is next level's start plus (j-1) arities.
        """
        if not self.tree_bits.access(pos):
            raise ValueError(f"no node at position {pos}: bit is 0")
        lvl = bisect_right(self._level_start, pos) - 1
        if lvl >= self.depth - 1 and self.vocab is not None:
            raise ValueError("node's children are vocabulary leaves, not T:L bits")
        ordinal = self.tree_bits.rank1(pos) - self._ones_before[lvl] - 1
        return self._level_start[lvl + 1] + ordinal * self._arity[lvl + 1]

    # -- queries ------------------------------------------------------------

    def cell(self, r: int, c: int) -> bool:
        """True iff cell (r, c) is set."""
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range [0, {self.n_rows})")
        if not 0 <= c < self.n_cols:
            raise IndexError(f"col {c} out of range [0, {self.n_cols})")
        tree = self.tree_bits
        tdata = tree.data
        last = self.depth - 1
        base = 0
        for lvl, k in enumerate(self.ks):
            child = self._block[lvl + 1]
            pos = base + (r // child % k) * k + (c // child % k)
            if lvl == last and self.vocab is None:
                return self.bit_at(pos)
            if not (tdata[pos >> 3] >> (pos & 7)) & 1:
                return False
            ordinal = tree.rank1(pos) - self._ones_before[lvl] - 1
            if lvl == last:
                side = self.config.leaf_side
                return self.vocab.bit(self.leaf_ids.access(ordinal), r % side, c % side)
            base = self._level_start[lvl + 1] + ordinal * self._arity[lvl + 1]
        return False  # depth 0: an empty matrix

    def _walk(self, r_lo: int, r_hi: int, c_lo: int, c_hi: int,
              limit: int = 0) -> tuple[list[int], list[int]]:
        """Set cells of [r_lo, r_hi] x [c_lo, c_hi] as a row list and a column
        list, stopping at `limit` cells (0: no limit). One depth-first descent
        clips each node to the rectangle and visits its children in row-major
        order, so a one-row walk gives ascending columns and a one-column walk
        ascending rows."""
        rows, cols = [], []
        ks = self.ks
        if not ks:
            return rows, cols
        tree = self.tree_bits
        tdata = tree.data
        rank1 = tree.rank1
        block = self._block
        level_start = self._level_start
        ones_before = self._ones_before
        arity = self._arity
        last = len(ks) - 1
        vocab = self.vocab
        if vocab is None:
            ldata = self.leaf_bits.data
            t_len = tree.length
        else:
            leaf_access = self.leaf_ids.access
            leaf_before = ones_before[last] + 1
        # frames: (level of the node's child bits, the node's bit one level up,
        # node origin); a rank is taken on visiting, so `limit` skips the rest
        stack = [(0, 0, 0, 0)]
        while stack:
            lvl, pos, row0, col0 = stack.pop()
            k = ks[lvl]
            child = block[lvl + 1]
            node_side = block[lvl]
            base = (level_start[lvl] + (rank1(pos) - ones_before[lvl - 1] - 1) * arity[lvl]
                    if lvl else 0)
            rr_lo = (r_lo - row0) // child if r_lo > row0 else 0
            rr_hi = (r_hi - row0) // child if r_hi < row0 + node_side else k - 1
            cc_lo = (c_lo - col0) // child if c_lo > col0 else 0
            cc_hi = (c_hi - col0) // child if c_hi < col0 + node_side else k - 1
            if lvl < last:
                # push set children in reverse so they pop in row-major order
                if cc_lo == cc_hi:  # one column: its children are k bits apart
                    c0 = col0 + cc_lo * child
                    for pos in range(base + rr_hi * k + cc_lo,
                                     base + rr_lo * k + cc_lo - 1, -k):
                        if (tdata[pos >> 3] >> (pos & 7)) & 1:
                            stack.append((lvl + 1, pos, row0 + (pos - base) // k * child, c0))
                    continue
                if rr_lo == rr_hi:  # one row: its children are adjacent bits
                    row_base = base + rr_lo * k
                    r0 = row0 + rr_lo * child
                    for pos in range(row_base + cc_hi, row_base + cc_lo - 1, -1):
                        if (tdata[pos >> 3] >> (pos & 7)) & 1:
                            stack.append((lvl + 1, pos, r0, col0 + (pos - row_base) * child))
                    continue
                for rr in range(rr_hi, rr_lo - 1, -1):
                    row_base = base + rr * k
                    r0 = row0 + rr * child
                    for cc in range(cc_hi, cc_lo - 1, -1):
                        pos = row_base + cc
                        if (tdata[pos >> 3] >> (pos & 7)) & 1:
                            stack.append((lvl + 1, pos, r0, col0 + cc * child))
                continue
            for rr in range(rr_lo, rr_hi + 1):
                row_base = base + rr * k
                r0 = row0 + rr * child
                lr_lo = r_lo - r0 if r_lo > r0 else 0
                lr_hi = r_hi - r0 if r_hi < r0 + child - 1 else child - 1
                for cc in range(cc_lo, cc_hi + 1):
                    pos = row_base + cc
                    if vocab is None:  # the last level's bits are the cells, in L
                        pos -= t_len
                        if (ldata[pos >> 3] >> (pos & 7)) & 1:
                            rows.append(r0)
                            cols.append(col0 + cc)
                    elif (tdata[pos >> 3] >> (pos & 7)) & 1:
                        leaf = leaf_access(rank1(pos) - leaf_before)
                        c0 = col0 + cc * child
                        lc_lo = c_lo - c0 if c_lo > c0 else 0
                        lc_hi = c_hi - c0 if c_hi < c0 + child - 1 else child - 1
                        if lr_lo == lr_hi:
                            found = zip(repeat(lr_lo), vocab.row_cols(leaf, lr_lo))
                        elif lc_lo == lc_hi:
                            found = zip(vocab.col_rows(leaf, lc_lo), repeat(lc_lo))
                        else:
                            found = vocab.cells(leaf)
                        for r, c in found:
                            if lr_lo <= r <= lr_hi and lc_lo <= c <= lc_hi:
                                rows.append(r0 + r)
                                cols.append(c0 + c)
                    if 0 < limit <= len(rows):
                        return rows[:limit], cols[:limit]
        return rows, cols

    def row(self, r: int, c_lo: int = 0, c_hi: int | None = None) -> list[int]:
        """Columns c in [c_lo, c_hi] with cell (r, c) set, ascending.

        The store relies on this order: a one-row walk visits the columns
        left to right.
        """
        if c_hi is None:
            c_hi = self.n_cols - 1
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range [0, {self.n_rows})")
        if not (0 <= c_lo <= c_hi < self.n_cols):
            raise IndexError(f"column range [{c_lo}, {c_hi}] invalid for {self.n_cols} cols")
        return self._walk(r, r, c_lo, c_hi)[1]

    def col(self, c: int, limit: int | None = None) -> list[int]:
        """Rows r with cell (r, c) set, ascending; stops early at `limit`.

        The store relies on this order: a one-column walk visits the rows
        top to bottom, so `limit=1` gives the smallest row.
        """
        if not 0 <= c < self.n_cols:
            raise IndexError(f"col {c} out of range [0, {self.n_cols})")
        return self._walk(0, self.n_rows - 1, c, c, limit or 0)[0]

    def rect(self, r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> list[tuple[int, int]]:
        """Set cells inside the rectangle as (row, col) pairs, in depth-first
        order with each node's children in row-major order.

        Results are not globally sorted; callers needing column order sort
        the returned pairs themselves. A one-row rectangle gives the cells
        of `row` in its order, a one-column rectangle those of `col`.
        """
        if not (0 <= r_lo <= r_hi < self.n_rows):
            raise IndexError(f"row range [{r_lo}, {r_hi}] invalid for {self.n_rows} rows")
        if not (0 <= c_lo <= c_hi < self.n_cols):
            raise IndexError(f"column range [{c_lo}, {c_hi}] invalid for {self.n_cols} cols")
        return list(zip(*self._walk(r_lo, r_hi, c_lo, c_hi)))

    # -- space accounting -----------------------------------------------

    def _parts(self) -> list:
        return [part for part in (self.tree_bits, self.leaf_bits, self.leaf_ids, self.vocab)
                if part is not None]

    @property
    def data_bytes(self) -> int:
        return sum(part.data_bytes for part in self._parts())

    @property
    def accel_bytes(self) -> int:
        return sum(part.accel_bytes for part in self._parts())

    def serialized_bytes(self) -> int:
        buf = BytesIO()
        self.write(buf)
        return buf.tell()

    # -- serialization ----------------------------------------------------

    def write(self, out) -> None:
        cfg = self.config
        out.write(struct.pack("<B", len(cfg.stages)))
        for st in cfg.stages:
            out.write(struct.pack("<Bh", st.k, -1 if st.levels is None else st.levels))
        preset = 0 if cfg.sample_preset == "default" else 1
        enc = VOCAB_ENCODINGS.index(cfg.vocab_encoding) if cfg.leaf_side > 1 else 255
        out.write(struct.pack("<BBBB", cfg.leaf_side, enc, preset, cfg.dac_chunk_bits))
        out.write(struct.pack("<QQQ", self.n_rows, self.n_cols, self.side))
        out.write(struct.pack("<H", len(self.ks)))
        out.write(bytes(self.ks))
        self.tree_bits.write(out)
        if self.side == 0:
            out.write(struct.pack("<B", 2))
        elif self.vocab is not None:
            out.write(struct.pack("<B", 1))
            self.leaf_ids.write(out)
            self.vocab.write(out)
        else:
            out.write(struct.pack("<B", 0))
            self.leaf_bits.write(out)

    @classmethod
    def read(cls, src) -> "K2Tree":
        (n_stages,) = struct.unpack("<B", read_exact(src, 1))
        stages = []
        for _ in range(n_stages):
            k, levels = struct.unpack("<Bh", read_exact(src, 3))
            stages.append(Stage(k, None if levels < 0 else levels))
        leaf_side, enc, preset, chunk_bits = struct.unpack("<BBBB", read_exact(src, 4))
        if preset > 1:
            raise ValueError(f"unknown sample preset byte {preset}")
        config = K2Config(
            stages=tuple(stages), leaf_side=leaf_side,
            vocab_encoding=_vocab_encoding(enc) if enc != 255 else VOCAB_COLS_FULL,
            sample_preset=("default", "dense")[preset],
            dac_chunk_bits=chunk_bits)
        n_rows, n_cols, side = struct.unpack("<QQQ", read_exact(src, 24))
        (depth,) = struct.unpack("<H", read_exact(src, 2))
        ks = list(read_exact(src, depth))
        if side:
            fits = (min(ks, default=0) >= 2 and prod(ks) * leaf_side == side
                    and max(n_rows, n_cols) <= side <= MAX_SIDE)
        else:  # an empty matrix
            fits = not ks and min(n_rows, n_cols) == 0
        if not fits:
            raise ValueError(f"tree geometry does not add up: side {side}, leaf side"
                             f" {leaf_side}, {depth} levels, {n_rows}x{n_cols} matrix")
        tree = BitVector.read(src, config.sample_rate)
        (mode,) = struct.unpack("<B", read_exact(src, 1))
        if mode > 2:
            raise ValueError(f"unknown tree leaf mode byte {mode}")
        if mode != (2 if not side else 1 if leaf_side > 1 else 0):
            raise ValueError(f"tree leaf mode byte {mode} does not fit leaf side"
                             f" {leaf_side} and side {side}")
        if mode == 2:
            return cls(config, n_rows, n_cols, side, ks, tree)
        if mode == 1:
            leaf_ids = Dac.read(src, config.sample_rate)
            vocab = LeafVocabulary.read(src, config.sample_rate)
            if vocab.side != leaf_side:
                raise ValueError(f"leaf vocabulary side {vocab.side} is not {leaf_side}")
            return cls(config, n_rows, n_cols, side, ks, tree,
                       leaf_ids=leaf_ids, vocab=vocab)
        leaves = BitVector.read(src, config.sample_rate)
        return cls(config, n_rows, n_cols, side, ks, tree, leaf_bits=leaves)
