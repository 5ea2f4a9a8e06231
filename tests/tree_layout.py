"""Where each section of a saved store, and each field of a written
k2-tree, sits, stated from the store file layout (see the `store` module
docstring) apart from the readers, so that tests can find and corrupt
single fields, and reseal the file so that the reader gets past its
checksum to the field."""

import io
import zlib

from bmatrix import store as store_mod
from bmatrix.k2tree import VOCAB_COLS_RANK, VOCAB_PLAIN


def reseal(data) -> bytes:
    """`data`, a store file, with its CRC32 trailer rewritten over the
    bytes before it."""
    body = bytes(data[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def section_offsets(path) -> dict:
    """Byte offset of each section of a saved store; the magic and the
    format version come before the first, the 4-byte CRC32 after the last."""
    store, dictionary = store_mod.load(str(path))
    at = 4 + 2                    # magic, format version
    offsets = {}
    for name, section in (("dictionary", dictionary),
                          ("pred_index", store.pred_index),
                          ("subject_tree", store.subject_tree),
                          ("object_tree", store.object_tree)):
        offsets[name] = at
        buf = io.BytesIO()
        section.write(buf)
        at += len(buf.getvalue())
    assert at + 4 == path.stat().st_size
    return offsets


def tree_offsets(tree, at: int = 0) -> dict:
    """Byte offset of each field of `tree` as written, for a tree that
    starts at byte `at` of its file."""
    offsets = {"leaf side": at, "preset": at + 1, "rows": at + 2,
               "cols": at + 10, "depth": at + 18, "ks": at + 20}
    at += 20 + len(tree.ks)
    offsets["tree bits"] = at             # u64 length, then the words
    at += 8 + len(tree.tree_bits.data)
    if tree.vocab is not None:
        offsets["dac"] = at               # u64 length, then the levels
        dac = io.BytesIO()
        tree.leaf_ids.write(dac)
        offsets["vocab"] = at + len(dac.getvalue())   # encoding byte, leaves
    return offsets


def packed_fields(tree, at: int = 0) -> list:
    """(byte offset, bits used, bytes) of each packed field of `tree` as
    written from byte `at`: its tree bits, each DAC level's chunks and
    flags, and its vocabulary's leaves, or column flags and rows."""
    fields = tree_offsets(tree, at)
    out = [(fields["tree bits"] + 8, len(tree.tree_bits), len(tree.tree_bits.data))]
    if tree.vocab is None:
        return out
    dac, vocab = tree.leaf_ids, tree.vocab
    at = fields["dac"] + 8
    for width, _, flags in dac.levels:
        at += 1                           # the level's width byte
        n = len(flags) * width
        out.append((at, n, (n + 7) // 8))
        at += (n + 7) // 8
        out.append((at, len(flags), len(flags.data)))
        at += len(flags.data)
    side, count = vocab.side, vocab.count
    at = fields["vocab"] + 1
    if vocab.encoding == VOCAB_PLAIN:
        n = count * side * side
        return out + [(at, n, (n + 7) // 8)]
    n = count * side                      # the column flags
    out.append((at, n, (n + 7) // 8))
    at += (n + 7) // 8
    if vocab.encoding == VOCAB_COLS_RANK:   # a row per set column flag
        n = sum(vocab.cells(e).bit_count() for e in range(count))
    n *= vocab.row_index_bits
    return out + [(at, n, (n + 7) // 8)]
