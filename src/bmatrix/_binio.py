"""Little-endian binary helpers shared by the serializers.

On disk, integer buffers are fixed-width little-endian slots. In memory,
the buffers read one element at a time (vocabulary patterns, predicate
run starts, pool offsets) are `array.array`s of the smallest unsigned
typecode that holds their largest value (native byte order, as `array`
requires); DAC chunks stay as the file's packed `bytes`, and
`unpack_values` returns numpy arrays for whole-buffer decodes.
"""

from __future__ import annotations

import io
import sys
from array import array

import numpy as np

# unsigned array typecodes by ascending item size; "Q" is always 8 bytes
_TYPECODES = "BHIQ"


def read_exact(src, n: int) -> bytes:
    """The next n bytes of `src`, an in-memory buffer such as `io.BytesIO`,
    whose read allocates no more than it holds, however large a corrupt n
    (a read size must fit in an index, so a larger n reads what is left)."""
    data = src.read(min(n, sys.maxsize))
    if len(data) != n:
        raise ValueError(f"truncated input: wanted {n} bytes, got {len(data)}")
    return data


def as_uint(values) -> np.ndarray:
    if isinstance(values, array):
        return np.asarray(memoryview(values))
    if isinstance(values, np.ndarray) and values.dtype.kind == "u":
        return values.ravel()     # already unsigned: no uint64 copy
    return np.asarray(values, dtype=np.uint64).ravel()


def packed_array(values) -> array:
    """Unsigned ints as an array of the smallest typecode that fits them all."""
    arr = as_uint(values)
    top = int(arr.max()) if arr.size else 0
    out = next(array(tc) for tc in _TYPECODES
               if top >> (8 * array(tc).itemsize) == 0)
    out.frombytes(arr.astype(f"=u{out.itemsize}").tobytes())
    return out[:]     # frombytes leaves spare room; a slice is sized exactly


def pack_fixed(values, width: int) -> bytes:
    """Pack unsigned ints into `width`-bit slots, LSB-first bit order; each
    value must fit in `width` bits."""
    arr = as_uint(values)
    if arr.size == 0:
        return b""
    if width in (8, 16, 32, 64):
        return arr.astype(f"<u{width // 8}").tobytes()
    if width < 8:
        # eight slots fill `width` bytes: build them as one u64 and keep its
        # low `width` bytes
        rows = -(-arr.size // 8)
        slots = np.zeros((rows, 8), dtype=np.uint8)
        slots.ravel()[:arr.size] = arr
        words = slots[:, 0].astype(np.uint64)
        for k in range(1, 8):
            words |= slots[:, k].astype(np.uint64) << np.uint64(k * width)
        packed = words.astype("<u8", copy=False).view(np.uint8).reshape(rows, 8)
        return packed[:, :width].tobytes()[:(arr.size * width + 7) // 8]
    return _pack_bits(arr, width)


def _pack_bits(arr: np.ndarray, width: int) -> bytes:
    """pack_fixed through a values x width bit matrix, for any width."""
    arr = arr.astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def check_padding(data: bytes, n_bits: int) -> None:
    """Refuse set bits in `data` past its first `n_bits`."""
    if int.from_bytes(data[n_bits >> 3:], "little") >> (n_bits & 7):
        raise ValueError(f"set bits past the {n_bits} bits of a packed field")


def unpack_fixed(data: bytes, width: int, count: int):
    """Inverse of pack_fixed: `count` ints as a packed_array. Bits past
    count * width must be 0."""
    return packed_array(unpack_values(data, width, count))


def unpack_values(data: bytes, width: int, count: int) -> np.ndarray:
    """unpack_fixed's ints as a numpy array of an unsigned dtype that holds
    `width` bits."""
    if width < 1 or count * width > 8 * len(data):
        raise ValueError(f"{count} values of {width} bits do not fit in"
                         f" {len(data)} bytes")
    check_padding(data, count * width)
    if width in (8, 16, 32, 64):
        return np.frombuffer(data, dtype=f"<u{width // 8}", count=count)
    raw = np.frombuffer(data, dtype=np.uint8)
    if width < 8:
        # each `width` bytes hold eight slots: widen them to one u64 and
        # shift each slot out of it
        rows = -(-count // 8)
        used = min(raw.size, rows * width)
        flat = np.zeros(rows * width, dtype=np.uint8)
        flat[:used] = raw[:used]
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, :width] = flat.reshape(rows, width)
        words = words.view("<u8").ravel()
        slots = np.empty((rows, 8), dtype=np.uint8)
        mask = np.uint64((1 << width) - 1)
        for k in range(8):
            slots[:, k] = words >> np.uint64(k * width) & mask
        return slots.ravel()[:count]
    return _unpack_bits(raw, width, count)


def _unpack_bits(raw: np.ndarray, width: int, count: int) -> np.ndarray:
    """unpack_values through a count x width bit matrix, for any width."""
    bits = np.unpackbits(raw, count=count * width, bitorder="little")
    # the smallest dtype that holds 2^width - 1, so the matmul sums no wider
    dtype = next(np.dtype(f"u{n}") for n in (1, 2, 4, 8) if width <= 8 * n)
    weights = dtype.type(1) << np.arange(width, dtype=dtype)
    return bits.reshape(count, width) @ weights


def written_size(part) -> int:
    """The number of bytes `part.write` emits."""
    buf = io.BytesIO()
    part.write(buf)
    return buf.tell()
