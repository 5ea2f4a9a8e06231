"""Reference pool coder: the store's dictionary pool layout written one
term at a time, as `bmatrix.dictionary` documents it.

Tests compare `TermPool.from_terms` with it, and use it to write pools
that the program would never write: unsorted, not UTF-8, or with a
damaged suffix table or suffix code.
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


def code_terms(terms: list[bytes]) -> tuple[list[bytes], list[bytes]]:
    """The suffix table of `terms` and each term coded. A literal, a term
    that starts with '"', is its head (up to and including its last '"')
    and its suffix (the rest); it is coded as its head, then its suffix's
    rank in the sorted table, little-endian in the fewest bytes that hold
    len(table) - 1. Other terms are coded as themselves."""
    split = [term.rpartition(b'"') for term in terms]
    table = sorted({suffix for term, (_, _, suffix) in zip(terms, split)
                    if term.startswith(b'"')})
    width = 0
    while 256 ** width < len(table):
        width += 1
    coded = [head + quote + table.index(suffix).to_bytes(width, "little")
             if term.startswith(b'"') else term
             for term, (head, quote, suffix) in zip(terms, split)]
    return table, coded


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


def pool_bytes(table: list[bytes], coded: list[bytes]) -> bytes:
    """One pool as a store file holds it: the suffix count and each suffix,
    then the blob length and the blob of the coded terms."""
    blob, _ = front_code(coded)
    return (vbyte(len(table)) + b"".join(vbyte(len(s)) + s for s in table)
            + struct.pack("<Q", len(blob)) + blob)
