"""Plain bit sequence with sampled rank/select acceleration.

Bits are packed LSB-first into one immutable `bytes` object, zero-padded
to whole 64-bit words: the same bytes as the little-endian u64 words of
the file format. Rank uses one cumulative 64-bit counter every
`sample_rate` bits, a positive multiple of 64, so every sample starts on
a word and the overhead over the raw bits is 64/sample_rate: the
"default" preset costs 5% extra space, the "dense" preset 12.5% and
shortens the popcount between samples.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from ._binio import check_padding, read_exact

WORD_BITS = 64

SAMPLE_RATE_DEFAULT = 1280  # 64/1280 = 5% overhead
SAMPLE_RATE_DENSE = 512     # 64/512 = 12.5% overhead

SAMPLE_PRESETS = {
    "default": SAMPLE_RATE_DEFAULT,
    "dense": SAMPLE_RATE_DENSE,
}


def _as_bool_array(bits) -> np.ndarray:
    if isinstance(bits, str):
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    return np.asarray(bits, dtype=bool).ravel()


def padded_size(length: int) -> int:
    """Bytes holding `length` bits in whole 64-bit words."""
    return 8 * ((length + WORD_BITS - 1) // WORD_BITS)


class BitVector:
    """Immutable bit sequence; positions are 0-based, rank1(i) includes bit i.

    Bit i is `data[i >> 3] >> (i & 7) & 1`. Safe for unlimited concurrent
    readers once built.
    """

    __slots__ = ("length", "sample_rate", "data", "_samples", "ones")

    def __init__(self, bits=(), sample_rate: int = SAMPLE_RATE_DEFAULT):
        arr = _as_bool_array(bits)
        packed = np.packbits(arr, bitorder="little").tobytes()
        self._wrap(packed.ljust(padded_size(arr.size), b"\x00"),
                   int(arr.size), sample_rate)

    @classmethod
    def from_bytes(cls, data: bytes, length: int,
                   sample_rate: int = SAMPLE_RATE_DEFAULT) -> "BitVector":
        """Wrap bits packed LSB-first in whole 64-bit words; bits past `length` must be 0."""
        if len(data) != padded_size(length):
            raise ValueError("byte count does not match length")
        check_padding(data, length)
        bv = cls.__new__(cls)
        bv._wrap(bytes(data), length, sample_rate)
        return bv

    def _wrap(self, data: bytes, length: int, sample_rate: int) -> None:
        if sample_rate < 1 or sample_rate % WORD_BITS:
            raise ValueError(f"sample_rate must be a positive multiple of"
                             f" {WORD_BITS}, not {sample_rate}")
        self.data = data
        self.length = int(length)
        self.sample_rate = int(sample_rate)
        self._build_samples()

    def _build_samples(self) -> None:
        # samples[j] = number of ones in bits [0, j*sample_rate): the sum of
        # the popcounts of the j*sample_rate/64 words before it
        rows = self.length // self.sample_rate
        words = self.sample_rate // WORD_BITS
        counts = np.bitwise_count(np.frombuffer(self.data, dtype="<u8"))
        samples = np.zeros(rows + 1, dtype=np.uint64)
        per_row = counts[:rows * words].reshape(rows, words)
        np.cumsum(per_row.sum(axis=1, dtype=np.uint64), out=samples[1:])
        self._samples = array("Q", samples.tobytes())
        self.ones = int(counts.sum(dtype=np.uint64))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"BitVector(length={self.length}, ones={self.ones})"

    def access(self, i: int) -> bool:
        """Bit value at position i."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit position {i} out of range [0, {self.length})")
        return self.data[i >> 3] >> (i & 7) & 1 == 1

    def rank1(self, i: int) -> int:
        """Number of 1s in bits [0, i] (inclusive)."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit position {i} out of range [0, {self.length})")
        j = i // self.sample_rate
        data = self.data
        b = i >> 3
        # bytes from the sample's word to i's byte, less the bits of i's
        # byte above i
        return (self._samples[j]
                + int.from_bytes(data[j * self.sample_rate >> 3:b + 1],
                                 "little").bit_count()
                - (data[b] >> (i & 7) >> 1).bit_count())

    def rank0(self, i: int) -> int:
        """Number of 0s in bits [0, i] (inclusive)."""
        return i + 1 - self.rank1(i)

    def _word(self, wi: int) -> int:
        """The wi-th 64-bit word, LSB first."""
        return int.from_bytes(self.data[wi << 3:(wi + 1) << 3], "little")

    def select1(self, j: int) -> int:
        """0-based position of the j-th 1 (j >= 1)."""
        if j < 1 or j > self.ones:
            raise ValueError(f"no {j}-th occurrence of bit 1 (total {self.ones})")
        idx = bisect_left(self._samples, j) - 1
        return self._scan(idx * self.sample_rate >> 6, j - self._samples[idx], False)

    def select0(self, j: int) -> int:
        """0-based position of the j-th 0 (j >= 1)."""
        zeros = self.length - self.ones
        if j < 1 or j > zeros:
            raise ValueError(f"no {j}-th occurrence of bit 0 (total {zeros})")
        rate = self.sample_rate
        samples = self._samples
        idx = bisect_right(range(len(samples)), j - 1,
                           key=lambda x: x * rate - samples[x]) - 1
        return self._scan(idx * rate >> 6, j - (idx * rate - samples[idx]), True)

    def _scan(self, wi: int, need: int, zeros: bool) -> int:
        """Position of the need-th 1 (0 when `zeros`) from word wi on."""
        while True:
            w = self._word(wi)
            if zeros:  # the padding's 0s lie past every 0 a caller asks for
                w ^= (1 << WORD_BITS) - 1
            c = w.bit_count()
            if c >= need:
                for _ in range(need - 1):
                    w &= w - 1
                return (wi << 6) + (w & -w).bit_length() - 1
            need -= c
            wi += 1

    # -- space accounting ---------------------------------------------------

    @property
    def accel_bytes(self) -> int:
        """Bytes of the rank sampling table (rebuilt on load, never serialized)."""
        return 8 * len(self._samples)

    # -- serialization ------------------------------------------------------

    def write(self, out) -> None:
        """Length as u64 LE, then the packed bytes (u64 LE words); samples are not written."""
        out.write(struct.pack("<Q", self.length))
        out.write(self.data)

    @classmethod
    def read(cls, src, sample_rate: int = SAMPLE_RATE_DEFAULT) -> "BitVector":
        (length,) = struct.unpack("<Q", read_exact(src, 8))
        return cls.from_bytes(read_exact(src, padded_size(length)), length,
                              sample_rate)
