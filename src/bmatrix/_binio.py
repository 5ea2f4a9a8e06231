"""Little-endian binary helpers shared by the serializers.

In memory, per-element integer buffers are `array.array`s of the smallest
unsigned typecode that holds their largest value (native byte order, as
`array` requires); on disk they are fixed-width little-endian slots.
"""

from __future__ import annotations

from array import array

import numpy as np

# unsigned array typecodes by ascending item size; "Q" is always 8 bytes
_TYPECODES = "BHIQ"


# reads larger than this go in pieces, so a corrupt length read from a
# file asks for no more memory than the file holds
_READ_CHUNK = 1 << 24


def read_exact(src, n: int) -> bytes:
    if n <= _READ_CHUNK:
        data = src.read(n)
    else:
        parts = []
        left = n
        while left and (part := src.read(min(left, _READ_CHUNK))):
            parts.append(part)
            left -= len(part)
        data = b"".join(parts)
    if len(data) != n:
        raise ValueError(f"truncated input: wanted {n} bytes, got {len(data)}")
    return data


def _as_uint(values) -> np.ndarray:
    if isinstance(values, (bytes, array)):
        return np.asarray(memoryview(values))
    return np.asarray(values, dtype=np.uint64).ravel()


def packed_array(values) -> array:
    """Unsigned ints as an array of the smallest typecode that fits them all."""
    arr = _as_uint(values)
    top = int(arr.max()) if arr.size else 0
    out = next(array(tc) for tc in _TYPECODES
               if top >> (8 * array(tc).itemsize) == 0)
    out.frombytes(arr.astype(f"=u{out.itemsize}").tobytes())
    return out


def pack_fixed(values, width: int) -> bytes:
    """Pack unsigned ints into `width`-bit slots, LSB-first bit order."""
    arr = _as_uint(values)
    if arr.size == 0:
        return b""
    if width in (8, 16, 32, 64):
        return arr.astype(f"<u{width // 8}").tobytes()
    arr = arr.astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack_fixed(data: bytes, width: int, count: int):
    """Inverse of pack_fixed: `count` ints, as `data` itself at width 8,
    else as a packed_array."""
    if width == 8:
        return bytes(data[:count])
    if width in (16, 32, 64):
        return packed_array(np.frombuffer(data, dtype=f"<u{width // 8}", count=count))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=count * width, bitorder="little")
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    return packed_array(bits.reshape(count, width).astype(np.uint64) @ weights)
