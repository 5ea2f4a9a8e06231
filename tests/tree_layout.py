"""Where each field of a written k2-tree sits, stated from the tree file
layout (see the `store` module docstring) apart from `K2Tree.write`, so
that tests can find and corrupt single fields."""

import io


def tree_offsets(tree, at: int = 0) -> dict:
    """Byte offset of each field of `tree` as written, for a tree that
    starts at byte `at` of its file."""
    offsets = {"leaf side": at, "preset": at + 1, "rows": at + 2,
               "cols": at + 10, "depth": at + 18, "ks": at + 20}
    at += 20 + len(tree.ks)
    offsets["tree bits"] = at             # u64 length, then the words
    at += 8 + len(tree.tree_bits.data)
    if tree.vocab is not None:
        offsets["dac"] = at
        dac = io.BytesIO()
        tree.leaf_ids.write(dac)
        offsets["vocab"] = at + len(dac.getvalue())   # encoding byte, u64 count
    return offsets
