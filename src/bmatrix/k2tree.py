"""Succinct sparse binary matrix with hybrid-k subdivision.

The matrix is padded to a square and recursively split into k x k blocks;
each level stores one bit per block (1 = block contains a 1), and one
bitmap holds every level, top first: T:L, the internal levels T followed
by the last level L. With leaf side 1 the last level's bits are the
cells. With a leaf vocabulary, subdivision stops at leaf_side x leaf_side
blocks whose contents are deduplicated into a frequency-ranked
vocabulary, and the last level's set bits own per-leaf ids stored as a
DAC whose level widths `Dac.encode` chooses for the least space.

Child navigation follows rank over T:L: the children of the j-th set bit
of a level are consecutive at the next level, so a single bitmap plus
per-level offsets replaces all pointers.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from math import prod

import numpy as np

from ._binio import (as_uint, pack_fixed, packed_array, read_exact, unpack_fixed,
                     unpack_values)
from .bitvector import SAMPLE_PRESETS, BitVector
from .dac import Dac

MAX_SIDE = 1 << 31  # path codes must fit in int64

VOCAB_PLAIN = "plain"
VOCAB_COLS_FULL = "cols-full"
VOCAB_COLS_RANK = "cols-rank"
VOCAB_ENCODINGS = (VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK)

LEAF_SIDES = (1, 2, 4, 8)              # 1 disables the vocabulary

# a tree file's preset byte indexes these SAMPLE_PRESETS names
PRESET_BYTES = ("default", "dense")


@dataclass(frozen=True)
class K2Config:
    """How `K2Tree.build` plans and encodes a tree: the hybrid k2-tree's k1
    levels on top, then k2 levels (see `plan_levels`). The tree keeps only
    what it built (ks, leaf side, bitmaps, leaf ids, vocabulary), not this."""

    k1: int = 4
    k1_levels: int = 5
    k2: int = 2
    leaf_side: int = 8              # 1 disables the vocabulary
    vocab_encoding: str = VOCAB_COLS_FULL
    sample_preset: str = "default"

    def __post_init__(self):
        for k in (self.k1, self.k2):
            # a tree file holds each k in a byte
            if not 2 <= k <= 255:
                raise ValueError(f"branching side k must be 2 to 255, not {k}")
        # any bound above 31 will do: no plan under MAX_SIDE uses more k1 levels
        if not 0 <= self.k1_levels <= 32767:
            raise ValueError(f"k1 level count must be 0 to 32767, not {self.k1_levels}")
        if self.leaf_side != 1:
            if self.leaf_side not in LEAF_SIDES:
                raise ValueError("leaf_side must be 1 (disabled) or one of 2, 4, 8")
            if self.vocab_encoding not in VOCAB_ENCODINGS:
                raise ValueError(f"unknown vocabulary encoding {self.vocab_encoding!r}")
        if self.sample_preset not in SAMPLE_PRESETS:
            raise ValueError(f"unknown sample preset {self.sample_preset!r}")

    @property
    def sample_rate(self) -> int:
        return SAMPLE_PRESETS[self.sample_preset]


def plan_levels(config: K2Config, max_dim: int) -> list[int]:
    """Per-level branching sides covering max_dim: a levels of k1, then b
    levels of k2.

    Picks the smallest side k1^a * k2^b * leaf_side >= max_dim with
    a <= k1_levels, and the largest a when sides tie. Small matrices
    simply use fewer k1 levels. At least one level is always planned, a k2
    level when leaf_side alone covers max_dim, so T:L is never degenerate
    and an empty matrix (max_dim 0) gets one k2 level.
    """
    target = max(int(max_dim), 1)
    best = None  # (side, a, b)
    top = config.leaf_side  # k1^a * leaf_side
    for a in range(config.k1_levels + 1):
        side, b = top, 0
        while side < target:
            side *= config.k2
            b += 1
        if best is None or side <= best[0]:
            best = (side, a, b)
        if top >= target:  # more k1 levels only widen the side
            break
        top *= config.k1
    _, a, b = best
    if a + b == 0:
        b = 1
    return [config.k1] * a + [config.k2] * b


def _path_part(coords: np.ndarray, extent: int, ks: list[int],
               weights: list[int]) -> np.ndarray:
    """sum(digit_l * weights[l]) over the digits of each coordinate in the
    mixed radix ks, most significant first; coords lie in [0, extent). A
    digit is x - q * k for q = x // k (int64 `%` is several times slower).
    When extent is at most the number of coordinates, the sum is tabulated
    over range(extent) and gathered, so the table never outgrows them."""
    tabulate = extent <= coords.size
    x = np.arange(extent, dtype=np.int64) if tabulate else coords
    part = np.zeros(x.size, dtype=np.int64)
    for k, w in zip(reversed(ks), reversed(weights)):
        x, rest = x // k, x
        part += (rest - x * k) * w
    return part[coords] if tabulate else part


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Flags of the elements of `a` that differ from the one before."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _level_bits(codes: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """Per-level node bits, top level first, from the ascending distinct
    path codes of the last level's set cells. It overwrites `codes` and
    reuses arrays in place, since fresh ones cost page faults."""
    level_bits: list[np.ndarray] = []
    for lvl in range(len(ks) - 1, -1, -1):
        arity = ks[lvl] * ks[lvl]
        parent = codes // arity
        codes -= parent * arity                      # now the digits
        # codes ascend, so parent does too: a new parent starts each run
        new = _run_starts(parent)
        digit, codes = codes, parent[np.flatnonzero(new)]
        new[:1] = False                  # so new's running count is the block
        pos = np.cumsum(new, out=parent)
        pos *= arity
        pos += digit
        # the top level is the root's one block, an empty matrix's too
        bits = np.zeros((codes.size if lvl else 1) * arity, dtype=bool)
        bits[pos] = True
        level_bits.insert(0, bits)
    return level_bits


def _stable_order(values: np.ndarray, value_bits: int) -> np.ndarray:
    """np.argsort(values, kind="stable") for uint64 values below 2^value_bits,
    by LSD passes. A pass sorts distinct keys, a digit of the values above
    the position, so a plain sort is stable. Positions take b bits and a
    digit the other 64 - b: two passes for 64-bit values below 2^32 of them."""
    pos_bits = (values.size - 1).bit_length()
    order = None
    for lo in range(0, value_bits, 64 - pos_bits):
        key = (values if order is None else values[order]) >> np.uint64(lo)
        key <<= np.uint64(pos_bits)
        key |= np.arange(values.size, dtype=np.uint64)
        key.sort()
        key &= np.uint64((1 << pos_bits) - 1)
        order = key.view(np.int64) if order is None else order[key.view(np.int64)]
    return order


def _col_mask(side: int) -> int:
    """Bit r*side set for every row r: column 0 of a side x side leaf."""
    return ((1 << side * side) - 1) // ((1 << side) - 1)


class LeafVocabulary:
    """Distinct leaf matrices ranked by descending frequency.

    In memory there is one form: `patterns[e]` is leaf e as a side*side-bit
    int, bit r*side + c set for a 1, so its set bits from low to high are
    the cells in row-major order; `patterns` is an `array.array` of the
    smallest unsigned typecode that holds them. `cells(e)` is that int;
    `bit` and the tree walk mask it, and `row_cols`/`col_rows` call `bit`.

    The encoding names one of three file forms, written by `write` and
    decoded back to the plain ints by `read`. Each is the encoding byte,
    then packed bits for as many leaves as the tree's largest leaf id + 1:

    plain      -- each matrix as side*side bits.
    cols-full  -- per column a presence bit, count*side bits C, then per
                  column a log2(side)-bit row index, count*side slots R
                  (unset columns keep row 0).
    cols-rank  -- like cols-full but R holds rows only for the set columns,
                  as many as C has ones. Both column forms require at
                  most one 1 per leaf column.
    """

    __slots__ = ("encoding", "side", "count", "patterns")

    def __init__(self, encoding, side, count, patterns):
        self.encoding = encoding
        self.side = side
        self.count = count
        self.patterns = patterns

    @classmethod
    def build(cls, patterns, side: int, encoding: str) -> "LeafVocabulary":
        """patterns[i] = bits of the matrix with id i, bit r*side+c set for a 1."""
        pats = np.asarray(patterns, dtype=np.uint64).ravel()
        if encoding != VOCAB_PLAIN:
            # no column holds two 1s iff a leaf has as many 1s as its rows' OR
            cols = np.zeros_like(pats)
            for r in range(side):
                cols |= pats >> np.uint64(r * side)
            cols &= np.uint64((1 << side) - 1)
            if (np.bitwise_count(cols) != np.bitwise_count(pats)).any():
                raise ValueError(
                    f"{encoding} vocabulary requires at most one 1 per leaf column")
        return cls(encoding, side, int(pats.size), packed_array(pats))

    def cells(self, e: int) -> int:
        """Leaf e as a side*side-bit int, bit r*side + c set for a 1."""
        return self.patterns[e]

    def bit(self, e: int, r: int, c: int) -> bool:
        """Cell (r, c) of the stored leaf matrix e."""
        if not 0 <= e < self.count:
            raise IndexError(f"leaf id {e} out of range [0, {self.count})")
        if not (0 <= r < self.side and 0 <= c < self.side):
            raise IndexError(f"cell ({r}, {c}) outside a {self.side}x{self.side} leaf")
        return self.cells(e) >> (r * self.side + c) & 1 == 1

    def row_cols(self, e: int, r: int) -> list[int]:
        """Columns set in row r of leaf e, ascending."""
        return [c for c in range(self.side) if self.bit(e, r, c)]

    def col_rows(self, e: int, c: int) -> list[int]:
        """Rows set in column c of leaf e, ascending."""
        return [r for r in range(self.side) if self.bit(e, r, c)]

    @property
    def row_index_bits(self) -> int:
        return self.side.bit_length() - 1  # side is a power of two

    def payload_bits(self) -> int:
        """Semantic payload size in bits of the file form (packing padding
        excluded)."""
        if self.encoding == VOCAB_PLAIN:
            return self.count * self.side * self.side
        if self.encoding == VOCAB_COLS_FULL:
            return self.count * self.side * (1 + self.row_index_bits)
        # one row per set column, and a column holds at most one 1
        ones = int(np.bitwise_count(as_uint(self.patterns)).sum())
        return self.count * self.side + ones * self.row_index_bits

    def write(self, out) -> None:
        side = self.side
        out.write(bytes((VOCAB_ENCODINGS.index(self.encoding),)))
        if self.encoding == VOCAB_PLAIN:
            out.write(pack_fixed(self.patterns, side * side))
            return
        leaf_bytes = as_uint(self.patterns).astype("<u8").view(np.uint8)
        dense = np.unpackbits(leaf_bytes.reshape(self.count, 8), axis=1,
                              count=side * side, bitorder="little")
        dense = dense.reshape(self.count, side, side)   # [id, row, col]
        # a column holds at most one 1, so sums over its rows give its flag
        # and its row (0 for an unset column)
        flags = np.ones(side, dtype=np.uint8) @ dense > 0
        rows = np.arange(side, dtype=np.uint8) @ dense
        out.write(pack_fixed(flags.ravel(), 1))
        if self.encoding == VOCAB_COLS_RANK:
            rows = rows[flags]
        out.write(pack_fixed(rows.ravel(), self.row_index_bits))

    @classmethod
    def read(cls, src, side: int, count: int) -> "LeafVocabulary":
        """The vocabulary of `count` side x side leaves written next in `src`."""
        tag = read_exact(src, 1)[0]
        if tag >= len(VOCAB_ENCODINGS):
            raise ValueError(f"unknown vocabulary encoding tag byte {tag}")
        encoding = VOCAB_ENCODINGS[tag]
        if encoding == VOCAB_PLAIN:
            n_bytes = (count * side * side + 7) // 8
            patterns = unpack_fixed(read_exact(src, n_bytes), side * side, count)
            return cls(encoding, side, count, patterns)
        n_flags = count * side
        flags = unpack_values(read_exact(src, (n_flags + 7) // 8), 1,
                              n_flags).astype(bool)
        n_rows = int(flags.sum()) if encoding == VOCAB_COLS_RANK else n_flags
        width = side.bit_length() - 1
        rows = unpack_values(read_exact(src, (n_rows * width + 7) // 8), width, n_rows)
        flags = flags.reshape(count, side)
        if encoding == VOCAB_COLS_RANK:           # unset columns take row 0
            rows, set_rows = np.zeros(flags.shape, dtype=np.uint8), rows
            rows[flags] = set_rows
        shift = rows.reshape(count, side) * np.uint8(side) + np.arange(side, dtype=np.uint8)
        # a leaf's set columns are distinct bits, so their sum is the leaf
        patterns = ((np.uint64(1) << shift.astype(np.uint64)) * flags).sum(
            axis=1, dtype=np.uint64)
        return cls(encoding, side, count, packed_array(patterns))


class K2Tree:
    """k2-tree over an n_rows x n_cols binary matrix, immutable after build.

    Its padded side is prod(ks) * leaf_side, and it has at least one
    level, an empty matrix's too. tree_bits holds every level (T:L). With
    leaf side 1 the last level's bits are the cells; otherwise the last
    level's j-th set bit is the leaf whose vocab id is leaf_ids[j].
    """

    __slots__ = ("n_rows", "n_cols", "ks", "leaf_side", "side", "tree_bits",
                 "leaf_ids", "vocab",
                 "_arity", "_block", "_level_start", "_ones_before")

    def __init__(self, n_rows, n_cols, ks, leaf_side, tree_bits,
                 leaf_ids=None, vocab=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.ks = ks
        self.leaf_side = leaf_side
        self.side = prod(ks) * leaf_side
        self.tree_bits = tree_bits
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

        Each point's leaf path code has the digit r_l * k_l + c_l at level l,
        worth prod(k_m^2 for m > l), where r_l and c_l are the level-l digits
        of row // leaf_side and col // leaf_side in the mixed radix ks. The
        code is therefore a row part plus a column part, each a function of
        one coordinate (`_path_part`); the points are then sorted by code and
        the levels built bottom-up from the distinct codes. The vocabulary
        ranks leaf patterns by count, ties by first leaf (`_stable_order`).
        """
        pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                         dtype=np.int64)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (row, col) pairs")
        rows, cols = pts[:, 0], pts[:, 1]
        if pts.shape[0] and (
                rows.min() < 0 or rows.max() >= n_rows
                or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("point outside matrix bounds")

        ks = plan_levels(config, max(n_rows, n_cols))
        side = prod(ks) * config.leaf_side
        if side > MAX_SIDE:
            raise ValueError(f"padded side {side} exceeds supported maximum {MAX_SIDE}")
        leaf_side = config.leaf_side
        rate = config.sample_rate

        col_weight = [prod(k * k for k in ks[lvl + 1:]) for lvl in range(len(ks))]
        row_weight = [k * w for k, w in zip(ks, col_weight)]
        leaf_rows, leaf_cols = -(-n_rows // leaf_side), -(-n_cols // leaf_side)
        # (code, cell in leaf) keys; codes < (MAX_SIDE / leaf_side)^2, so keys < 2^62
        lb = leaf_side.bit_length() - 1
        key = _path_part(rows >> lb, leaf_rows, ks, row_weight)
        key += _path_part(cols >> lb, leaf_cols, ks, col_weight)
        key <<= 2 * lb
        key |= (rows & (leaf_side - 1)) << lb | cols & (leaf_side - 1)
        key.sort()
        lc = key >> 2 * lb
        starts = np.flatnonzero(_run_starts(lc))  # each code's first key
        tree = BitVector(np.concatenate(_level_bits(lc[starts], ks)), rate)
        if leaf_side == 1:
            return cls(int(n_rows), int(n_cols), ks, leaf_side, tree)

        cell = (key & ((1 << 2 * lb) - 1)).view(np.uint64)
        patterns = np.bitwise_or.reduceat(np.left_shift(1, cell, out=cell), starts)
        order = _stable_order(patterns, leaf_side * leaf_side)
        group = np.flatnonzero(_run_starts(patterns[order]))
        counts = np.diff(group, append=patterns.size)
        first = order[group]
        by_freq = np.lexsort((first, -counts))
        ids = np.empty(patterns.size, dtype=np.uint64)
        ids[order] = np.repeat(np.argsort(by_freq), counts)   # each group's rank
        vocab = LeafVocabulary.build(patterns[first[by_freq]], leaf_side,
                                     config.vocab_encoding)
        return cls(int(n_rows), int(n_cols), ks, leaf_side, tree,
                   leaf_ids=Dac.encode(ids, sample_rate=rate), vocab=vocab)

    def _index_levels(self) -> None:
        """Per level: its arity, block side, start in T:L and the ones of T:L
        before it. The children of a set bit at `pos` on level l start at
        _level_start[l + 1] + (rank1(pos) - _ones_before[l] - 1) * _arity[l + 1]."""
        self._arity = [k * k for k in self.ks]
        block = [self.side]
        for k in self.ks:
            block.append(block[-1] // k)
        self._block = block
        start = [0]
        ones_before = [0]
        nodes = 1
        for lvl, arity in enumerate(self._arity):
            end = start[-1] + nodes * arity
            if end > len(self.tree_bits):
                raise ValueError(f"tree bits end inside level {lvl}")
            nodes = self.tree_bits.rank1(end - 1) - ones_before[-1]
            ones_before.append(ones_before[-1] + nodes)
            start.append(end)
        if len(self.tree_bits) != start[-1]:
            raise ValueError(f"{len(self.tree_bits)} tree bits, but the levels"
                             f" take {start[-1]}")
        if self.vocab is not None and len(self.leaf_ids) != nodes:
            raise ValueError("leaf count does not match the tree's last level")
        self._level_start = start
        self._ones_before = ones_before

    # -- bit-level navigation ---------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def sample_preset(self) -> str:
        """The SAMPLE_PRESETS name of the rate the tree's bitmaps sample at."""
        rate = self.tree_bits.sample_rate
        return next(name for name, r in SAMPLE_PRESETS.items() if r == rate)

    def bit_at(self, pos: int) -> bool:
        """Bit at `pos` in the T:L concatenation."""
        return self.tree_bits.access(pos)

    def children_base(self, pos: int) -> int:
        """First child's position in T:L for the set internal bit at `pos`.

        The children of the j-th set bit of a level are consecutive at the
        next level, so the base is next level's start plus (j-1) arities.
        """
        if not self.tree_bits.access(pos):
            raise ValueError(f"no node at position {pos}: bit is 0")
        lvl = bisect_right(self._level_start, pos) - 1
        if lvl == self.depth - 1:
            raise ValueError(f"position {pos} is on the last level: it has no children")
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
            if not (tdata[pos >> 3] >> (pos & 7)) & 1:
                return False
            if lvl == last and self.vocab is None:
                return True
            ordinal = tree.rank1(pos) - self._ones_before[lvl] - 1
            if lvl == last:
                side = self.leaf_side
                leaf = self.vocab.cells(self.leaf_ids.access(ordinal))
                return leaf >> (r % side * side + c % side) & 1 == 1
            base = self._level_start[lvl + 1] + ordinal * self._arity[lvl + 1]

    def _walk(self, r_lo: int, r_hi: int, c_lo: int, c_hi: int,
              limit: int = 0) -> tuple[list[int], list[int]]:
        """Set cells of [r_lo, r_hi] x [c_lo, c_hi] as a row list and a column
        list, stopping at `limit` cells (0: no limit). One depth-first descent
        clips each node to the rectangle and visits its children in row-major
        order, so a one-row walk gives ascending columns and a one-column walk
        ascending rows. An empty range gives no cells."""
        rows, cols = [], []
        ks = self.ks
        if r_lo > r_hi or c_lo > c_hi:
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
        if vocab is not None:
            leaf_access = self.leaf_ids.access
            leaf_before = ones_before[last] + 1
            cells = vocab.cells
            side = vocab.side
            shift = side.bit_length() - 1
            col_mask = _col_mask(side)
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
                # leaf rows [lr_lo, lr_hi]; with a vocabulary, child is its side
                row_band = (1 << (lr_hi + 1) * child) - (1 << lr_lo * child)
                for cc in range(cc_lo, cc_hi + 1):
                    pos = row_base + cc
                    if not (tdata[pos >> 3] >> (pos & 7)) & 1:
                        continue
                    if vocab is None:  # the last level's bits are the cells
                        rows.append(r0)
                        cols.append(col0 + cc)
                    else:
                        c0 = col0 + cc * child
                        lc_lo = c_lo - c0 if c_lo > c0 else 0
                        lc_hi = c_hi - c0 if c_hi < c0 + child - 1 else child - 1
                        # the leaf's cells inside the rectangle, row-major
                        bits = (cells(leaf_access(rank1(pos) - leaf_before)) & row_band
                                & ((1 << lc_hi + 1) - (1 << lc_lo)) * col_mask)
                        while bits:  # set bits, low to high
                            low = bits & -bits
                            b = low.bit_length() - 1
                            rows.append(r0 + (b >> shift))
                            cols.append(c0 + (b & side - 1))
                            bits ^= low
                    if 0 < limit <= len(rows):
                        return rows[:limit], cols[:limit]
        return rows, cols

    def row(self, r: int, c_lo: int = 0, c_hi: int | None = None) -> list[int]:
        """Columns c in [c_lo, c_hi] with cell (r, c) set, ascending; an
        empty range (c_lo == c_hi + 1) gives [].

        The store relies on this order: a one-row walk visits the columns
        left to right.
        """
        if c_hi is None:
            c_hi = self.n_cols - 1
        if not 0 <= r < self.n_rows:
            raise IndexError(f"row {r} out of range [0, {self.n_rows})")
        if not 0 <= c_lo <= c_hi + 1 <= self.n_cols:
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
        of `row` in its order, a one-column rectangle those of `col`. An
        empty range (lo == hi + 1) gives [].
        """
        if not 0 <= r_lo <= r_hi + 1 <= self.n_rows:
            raise IndexError(f"row range [{r_lo}, {r_hi}] invalid for {self.n_rows} rows")
        if not 0 <= c_lo <= c_hi + 1 <= self.n_cols:
            raise IndexError(f"column range [{c_lo}, {c_hi}] invalid for {self.n_cols} cols")
        return list(zip(*self._walk(r_lo, r_hi, c_lo, c_hi)))

    # -- space accounting -----------------------------------------------

    @property
    def accel_bytes(self) -> int:
        return sum(part.accel_bytes for part in (self.tree_bits, self.leaf_ids)
                   if part is not None)

    # -- serialization ----------------------------------------------------

    def write(self, out) -> None:
        out.write(struct.pack("<BBQQH", self.leaf_side,
                              PRESET_BYTES.index(self.sample_preset),
                              self.n_rows, self.n_cols, len(self.ks)))
        out.write(bytes(self.ks))
        self.tree_bits.write(out)
        if self.vocab is not None:
            self.leaf_ids.write(out)
            self.vocab.write(out)

    @classmethod
    def read(cls, src) -> "K2Tree":
        leaf_side, preset, n_rows, n_cols, depth = struct.unpack(
            "<BBQQH", read_exact(src, 20))
        if preset >= len(PRESET_BYTES):
            raise ValueError(f"unknown sample preset byte {preset}")
        rate = SAMPLE_PRESETS[PRESET_BYTES[preset]]
        ks = list(read_exact(src, depth))
        side = prod(ks) * leaf_side
        if (leaf_side not in LEAF_SIDES or not ks or min(ks) < 2
                or not max(n_rows, n_cols) <= side <= MAX_SIDE):
            raise ValueError(f"tree geometry does not add up: side {side}, leaf side"
                             f" {leaf_side}, {depth} levels, {n_rows}x{n_cols} matrix")
        tree = BitVector.read(src, rate)
        if leaf_side == 1:
            return cls(n_rows, n_cols, ks, leaf_side, tree)
        leaf_ids = Dac.read(src, rate)
        vocab = LeafVocabulary.read(src, leaf_side, leaf_ids.top() + 1)
        if not as_uint(vocab.patterns).all():
            raise ValueError(f"vocabulary leaf {as_uint(vocab.patterns).argmin()} holds no 1")
        return cls(n_rows, n_cols, ks, leaf_side, tree, leaf_ids=leaf_ids, vocab=vocab)
