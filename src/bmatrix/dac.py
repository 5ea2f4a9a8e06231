"""Direct-access storage for variable-length unsigned integers.

Each value is split into chunks, least significant first: level l holds
the next w_l bits of every value that still has bits left, and value 0
takes one chunk. Each level's chunks sit together, with a continuation
bitmap per level whose rank steers the decoder to the next level.

`Dac.encode` picks the widths w_l by the dynamic program of the DACs paper
(Brisaboa, Ladra and Navarro, IPM 49, 2013): over the bit-length histogram
of the values, the widths of at most DAC_MAX_LEVELS levels that minimize
the sum over levels of chunks_l * (w_l + 1) bits, a chunk and its flag
each. `Dac.encode(values, chunk_bits=b)` gives uniform b-bit levels
instead, as many as the values need.

In memory a level is its width, its chunks as `bytes` in the packed
w_l-bit slots (LSB first) that the file holds, and its flags as a
`BitVector`; `access` reads a slot with one `int.from_bytes`, or two byte
reads when the slot is at most 9 bits wide.

A DAC file is its levels alone: per level its width (u8), its chunks in
w_l-bit slots and its continuation flags in u64 words, as many flags as
chunks. The owner supplies the length, as a k2-tree does with its last
level's set bits. Level 0 holds `length` chunks, each later level one
chunk per continuation one of the level before, and the first level whose
flags hold no ones is the last, so the file holds no length, level or
chunk counts.
"""

from __future__ import annotations

import numpy as np

from .bitvector import SAMPLE_RATE_DEFAULT, BitVector, padded_size
from ._binio import check_padding, pack_fixed, read_exact, unpack_values

# the most levels `Dac.encode` picks widths for: each level past the first
# costs a rank call on the values that reach it
DAC_MAX_LEVELS = 3


def _check_width(chunk_bits: int) -> None:
    # values are 64-bit, so a wider chunk would only hold zeros
    if not 1 <= chunk_bits <= 64:
        raise ValueError(f"DAC chunk width must be 1 to 64, not {chunk_bits}")


def bit_length_counts(values: np.ndarray) -> np.ndarray:
    """counts[b], b = 0..64: how many of the uint64 `values` are b bits long,
    0 counted as 1 bit long (it takes a chunk), so counts[0] is 0."""
    # float64 holds every value below 2^53 exactly, and frexp's exponent is
    # then its bit length; above that, rounding may carry a value up to the
    # next power of two, one bit too long
    _, exp = np.frexp(values.astype(np.float64))
    big = np.flatnonzero(exp > 53)
    if big.size:
        e = exp[big]
        exp[big] = e - (values[big] >> (e - 1).astype(np.uint64) == 0)
    counts = np.bincount(exp, minlength=65)
    counts[1] += counts[0]
    counts[0] = 0
    return counts


def optimal_widths(counts) -> list[int]:
    """The level widths, at most DAC_MAX_LEVELS of them, that minimize the sum
    over levels of chunks * (width + 1) bits for values whose bit lengths
    `counts` tallies (see `bit_length_counts`). The level that starts at
    bit s holds a chunk for each value longer than s bits. Of equal costs
    the plan with the widest first level wins, so fewer values continue."""
    lengths = np.flatnonzero(counts)
    if not lengths.size:
        return []
    top = int(lengths[-1])                       # the longest value's bits
    longer = np.cumsum(np.asarray(counts)[::-1])[::-1][1:top + 1].tolist()
    # plan[s]: (bits, widths) of the cheapest levels for bits s..top-1 in
    # the number of levels planned so far; one level to start with
    plan = [(longer[s] * (top - s + 1), [top - s]) for s in range(top)]
    plan.append((0, []))
    for _ in range(DAC_MAX_LEVELS - 1):
        plan = [min(((longer[s] * (w + 1) + plan[s + w][0], [w] + plan[s + w][1])
                     for w in range(top - s, 0, -1)), key=lambda p: p[0])
                for s in range(top)] + [(0, [])]
    return plan[0][1]


class Dac:
    """Random-access sequence of unsigned ints, immutable after encode.

    levels[l] is (width, chunks, flags): the level's chunk width, its
    chunks packed in width-bit slots and its continuation flags."""

    __slots__ = ("length", "levels")

    def __init__(self, length: int, levels: list[tuple[int, bytes, BitVector]]):
        self.length = length
        self.levels = levels

    @classmethod
    def encode(cls, values, chunk_bits: int | None = None,
               sample_rate: int = SAMPLE_RATE_DEFAULT) -> "Dac":
        """The values in levels of the optimal widths, or of `chunk_bits`
        bits each when given."""
        arr = np.asarray(values, dtype=np.uint64).ravel()
        if chunk_bits is None:
            widths = optimal_widths(bit_length_counts(arr))
        else:
            _check_width(chunk_bits)
            widths = [chunk_bits] * -(-64 // chunk_bits)
        levels = []
        cur = arr
        for w in widths:
            if not cur.size:
                break
            rest = cur >> np.uint64(w)
            more = rest != 0
            levels.append((w, pack_fixed(cur & np.uint64((1 << w) - 1), w),
                           BitVector(more, sample_rate)))
            cur = rest[np.flatnonzero(more)]
        return cls(int(arr.size), levels)

    def access(self, i: int) -> int:
        """Reconstruct the i-th encoded value."""
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range [0, {self.length})")
        levels = self.levels
        value = shift = lvl = 0
        while True:
            w, chunks, flags = levels[lvl]
            at = i * w
            # a slot of up to 9 bits lies in the bytes of its first and last
            # bits; two byte reads beat slicing for int.from_bytes
            if w <= 9:
                chunk = (chunks[(at + w - 1) >> 3] << 8 | chunks[at >> 3]) >> (at & 7)
            else:
                chunk = int.from_bytes(chunks[at >> 3:(at + w + 7) >> 3], "little") >> (at & 7)
            value |= (chunk & ((1 << w) - 1)) << shift
            if not flags.data[i >> 3] >> (i & 7) & 1:
                return value
            i = flags.rank1(i) - 1
            lvl += 1
            shift += w

    def top(self) -> int:
        """The largest value, -1 with none. A value that reaches the last level
        is longer than every value that stops before it (its chunk there is not
        0), so only those are decoded, through the continuation ones before."""
        top, at = np.uint64(0), None
        for w, chunks, flags in reversed(self.levels):
            at = np.arange(flags.length) if at is None else np.flatnonzero(np.unpackbits(
                np.frombuffer(flags.data, dtype=np.uint8), count=flags.length,
                bitorder="little"))[at]
            top = top << np.uint64(w) | unpack_values(chunks, w, flags.length)[at]
        return int(top.max()) if self.length else -1

    @property
    def widths(self) -> list[int]:
        return [w for w, _, _ in self.levels]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Dac(length={self.length}, widths={self.widths})"

    @property
    def accel_bytes(self) -> int:
        return sum(flags.accel_bytes for _, _, flags in self.levels)

    def write(self, out) -> None:
        for w, chunks, flags in self.levels:
            out.write(bytes((w,)))
            out.write(chunks)
            out.write(flags.data)

    @classmethod
    def read(cls, src, length: int, sample_rate: int = SAMPLE_RATE_DEFAULT) -> "Dac":
        """The DAC of `length` values written next in `src`. Refuses, with a
        ValueError, a width outside 1 to 64, a level from bit 64 on, a chunk with
        bits past bit 63, and a 0 chunk on a last level past level 0, which
        `encode` never writes and `top()` cannot take. Flags past the last level
        make the next bytes read as a level, which fails a check."""
        levels = []
        count = length  # level 0 holds a chunk per value
        shift = 0       # the bits of the levels before
        while count:
            if shift >= 64:
                raise ValueError(f"DAC level {len(levels)} starts at bit {shift}, more"
                                 " than 64-bit values need")
            w = read_exact(src, 1)[0]
            _check_width(w)
            chunks = read_exact(src, (count * w + 7) // 8)
            check_padding(chunks, count * w)
            # top() would drop those bits, and access() would keep them
            if shift + w > 64 and int(unpack_values(chunks, w, count).max()) >> 64 - shift:
                raise ValueError(f"DAC level {len(levels)} has a chunk with bits past bit 63")
            flags = BitVector.from_bytes(read_exact(src, padded_size(count)), count,
                                         sample_rate)
            if levels and not flags.ones and not unpack_values(chunks, w, count).all():
                raise ValueError(f"DAC level {len(levels)} is the last and has a 0 chunk")
            levels.append((w, chunks, flags))
            count = flags.ones
            shift += w
        return cls(length, levels)
