"""Direct-access storage for variable-length unsigned integers.

Each value is split into base-2**b chunks, least significant first; chunks
are regrouped per level, with a continuation bitmap per level whose rank
steers the decoder to the next chunk. Value 0 occupies exactly one chunk.
Each level's chunks are an `array.array` of the smallest unsigned typecode
that holds a chunk.

A DAC file is its chunk width (u8) and length (u64), then per level its
chunks in `b`-bit slots and its continuation flags in u64 words, as many
flags as chunks. Level 0 holds `length` chunks, each later level one chunk
per continuation one of the level before, and the first level whose flags
hold no ones is the last, so the file holds no level or chunk counts.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from .bitvector import SAMPLE_RATE_DEFAULT, BitVector, padded_size
from ._binio import as_uint, pack_fixed, packed_array, read_exact, unpack_fixed


def _check_width(chunk_bits: int) -> None:
    # values are 64-bit, so a wider chunk would only hold zeros
    if not 1 <= chunk_bits <= 64:
        raise ValueError(f"DAC chunk width must be 1 to 64, not {chunk_bits}")


class Dac:
    """Random-access sequence of unsigned ints, immutable after encode."""

    __slots__ = ("chunk_bits", "length", "levels")

    def __init__(self, chunk_bits: int, length: int,
                 levels: list[tuple[array, BitVector]]):
        self.chunk_bits = chunk_bits
        self.length = length
        self.levels = levels

    @classmethod
    def encode(cls, values, chunk_bits: int = 8,
               sample_rate: int = SAMPLE_RATE_DEFAULT) -> "Dac":
        _check_width(chunk_bits)
        arr = np.asarray(values, dtype=np.uint64).ravel()
        b = np.uint64(chunk_bits)
        mask = np.uint64((1 << chunk_bits) - 1)
        levels = []
        cur = arr
        while cur.size:
            rest = cur >> b
            more = rest != 0
            levels.append((packed_array(cur & mask),
                           BitVector(more, sample_rate)))
            cur = rest[more]
        return cls(int(chunk_bits), int(arr.size), levels)

    def access(self, i: int) -> int:
        """Reconstruct the i-th encoded value."""
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range [0, {self.length})")
        chunks, flags = self.levels[0]
        value = chunks[i]
        shift = self.chunk_bits
        j = i
        lvl = 0
        while flags.access(j):
            j = flags.rank1(j) - 1
            lvl += 1
            chunks, flags = self.levels[lvl]
            value |= chunks[j] << shift
            shift += self.chunk_bits
        return value

    def values(self) -> np.ndarray:
        """All encoded values in order, as uint64, decoded a level at a time
        from the last: level l+1's chunks, and the higher bits decoded with
        them, belong to the values at level l's continuation ones."""
        values = np.zeros(0, dtype=np.uint64)
        for chunks, flags in reversed(self.levels):
            more = np.unpackbits(np.frombuffer(flags.data, dtype=np.uint8),
                                 count=flags.length, bitorder="little")
            higher = values << np.uint64(self.chunk_bits)
            values = as_uint(chunks).astype(np.uint64)
            values[np.flatnonzero(more)] |= higher
        return values

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Dac(chunk_bits={self.chunk_bits}, length={self.length}, levels={len(self.levels)})"

    @property
    def accel_bytes(self) -> int:
        return sum(flags.accel_bytes for _, flags in self.levels)

    def write(self, out) -> None:
        out.write(struct.pack("<BQ", self.chunk_bits, self.length))
        for chunks, flags in self.levels:
            out.write(pack_fixed(chunks, self.chunk_bits))
            out.write(flags.data)

    @classmethod
    def read(cls, src, sample_rate: int = SAMPLE_RATE_DEFAULT) -> "Dac":
        """Refuses, with a ValueError, continuation flags that reach past
        the levels a 64-bit value needs, and chunks with bits past bit 63."""
        chunk_bits, length = struct.unpack("<BQ", read_exact(src, 9))
        _check_width(chunk_bits)
        levels = []
        count = length  # level 0 holds a chunk per value
        while count:
            shift = len(levels) * chunk_bits
            if shift >= 64:
                raise ValueError(f"DAC has {len(levels) + 1} levels of {chunk_bits}-bit"
                                 " chunks, more than 64-bit values need")
            chunks = unpack_fixed(read_exact(src, (count * chunk_bits + 7) // 8),
                                  chunk_bits, count)
            # values() would drop those bits, and access() would keep them
            if shift + chunk_bits > 64 and int(as_uint(chunks).max()) >> 64 - shift:
                raise ValueError(f"DAC level {len(levels)} has a chunk with bits past bit 63")
            flags = BitVector.from_bytes(read_exact(src, padded_size(count)), count,
                                         sample_rate)
            levels.append((chunks, flags))
            count = flags.ones
        return cls(chunk_bits, length, levels)
