"""Reference front coder: the store's dictionary pool layout written one
term at a time, as `bmatrix.dictionary` documents it.

Tests compare `TermPool.from_terms` with it, and use it to write pools
that the program would never write: unsorted, or not UTF-8.
"""

import struct

BUCKET = 16


def vbyte(value: int) -> bytes:
    """7 bits per byte, low group first, high bit set on all but the last."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def front_code(terms: list[bytes]) -> tuple[bytes, list[int]]:
    """The pool blob and its bucket offsets, the last one the blob length."""
    blob = bytearray()
    offsets = []
    prev = b""
    for i, term in enumerate(terms):
        if i % BUCKET == 0:
            offsets.append(len(blob))
            blob += vbyte(len(term)) + term
        else:
            shared = 0
            while shared < min(len(term), len(prev)) and term[shared] == prev[shared]:
                shared += 1
            blob += vbyte(shared) + vbyte(len(term) - shared) + term[shared:]
        prev = term
    offsets.append(len(blob))
    return bytes(blob), offsets


def pool_bytes(terms: list[bytes]) -> bytes:
    """One pool as a store file holds it: count, bucket offsets, blob."""
    blob, offsets = front_code(terms)
    return (struct.pack("<Q", len(terms))
            + struct.pack(f"<{len(offsets)}Q", *offsets) + blob)
