"""Traced mode: spans and call counts around calls into each bmatrix module.

The wrappers are installed on the program's classes and modules from
here, for the traced run only, and removed afterwards; the program itself
holds no tracing code. Each call into a wrapped function records its
name, the query shape the benchmark was running (or "setup"), start, end
and the enclosing kept span. Self time is a call's duration minus the
durations of the wrapped calls made inside it.

High-rate functions (rank, DAC access, leaf vocabulary, predicate_of,
dictionary lookups, the N-Triples line parser) are aggregated into
(calls, seconds, self seconds) per name and shape; the rest are also kept
one by one as spans and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

SETUP = "setup"

SPAN = "span"        # kept one by one and aggregated
COUNT = "count"      # aggregated only
GENERATOR = "gen"    # each next() aggregated


def targets(bitvector, dac, k2tree, store, dictionary, ntriples, cli):
    """(owner, attribute, traced name, kind) for each wrapped public function."""
    B, D = bitvector.BitVector, dac.Dac
    K, V = k2tree.K2Tree, k2tree.LeafVocabulary
    P, T, W = store.PredicateIndex, store.TripleStore, dictionary.Dictionary
    out = [
        (B, "rank1", "bitvector.rank1", COUNT),
        (B, "read", "bitvector.read", SPAN),
        (D, "access", "dac.access", COUNT),
        (D, "encode", "dac.encode", SPAN),
        (D, "read", "dac.read", SPAN),
        (K, "build", "k2tree.build", SPAN),
        (K, "read", "k2tree.read", SPAN),
        (V, "read", "k2tree.vocab_read", SPAN),
        (P, "from_sorted", "store.pred_index_build", SPAN),
        (P, "read", "store.pred_index_read", SPAN),
        (P, "predicate_of", "store.predicate_of", COUNT),
        (T, "build", "store.build", SPAN),
        (T, "pattern_query", "store.pattern_query", SPAN),
        (store, "save", "store.save", SPAN),
        (store, "load", "store.load", SPAN),
        (W, "from_triples", "dictionary.from_triples", SPAN),
        (W, "read", "dictionary.read", SPAN),
        (ntriples, "iter_file", "ntriples.iter_file", GENERATOR),
        (ntriples, "iter_triples", "ntriples.iter_triples", GENERATOR),
        (ntriples, "parse_line", "ntriples.parse_line", COUNT),
        (cli, "main", "cli.main", SPAN),
    ]
    out += [(K, m, f"k2tree.{m}", SPAN) for m in ("cell", "row", "col", "rect")]
    out += [(V, m, "k2tree.vocab", COUNT)
            for m in ("bit", "row_cols", "col_rows", "cells")]
    out += [(T, m, "store.shape_method", SPAN)
            for m in ("contains", "objects", "subjects", "predicates",
                      "by_subject", "by_object", "by_predicate")]
    out += [(W, m, "dictionary.lookup", COUNT)
            for m in ("subject_id", "predicate_id", "object_id")]
    out += [(W, m, "dictionary.decode", COUNT)
            for m in ("subject_term", "predicate_term", "object_term")]
    return out


class Tracer:
    """Spans and per-(name, shape) totals, kept in memory until written."""

    def __init__(self):
        self.shape = SETUP
        self.stats: dict[tuple[str, str], list] = {}   # -> [calls, s, self s]
        self.spans: list = []     # (name, shape, start, end, parent index)
        self._stack: list = []    # open calls: [child seconds, kept span index]

    def _record(self, name, frame, t0, t1, keep_at):
        dur = t1 - t0
        stack = self._stack
        if stack:
            stack[-1][0] += dur
        key = (name, self.shape)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - frame[0]
        if keep_at is not None:
            self.spans[keep_at] = (name, self.shape, t0, t1,
                                   stack[-1][1] if stack else -1)

    def _wrap(self, fn, name, keep):
        stack, spans, record = self._stack, self.spans, self._record
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if keep:
                at = len(spans)
                spans.append(None)
            else:
                at = None
            frame = [0.0, at if keep else (stack[-1][1] if stack else -1)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record(name, frame, t0, t1, at)
        return traced

    def _wrap_generator(self, fn, name):
        stack, record = self._stack, self._record
        clock = time.perf_counter
        done = object()

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0, stack[-1][1] if stack else -1]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    item = done
                t1 = clock()
                stack.pop()
                record(name, frame, t0, t1, None)
                if item is done:
                    return
                yield item
        return traced

    @contextmanager
    def installed(self, wrap_list):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, kind in wrap_list:
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if kind == GENERATOR:
                    new = self._wrap_generator(fn, name)
                else:
                    new = self._wrap(fn, name, kind == SPAN)
                saved.append((owner, attr, raw))
                setattr(owner, attr,
                        classmethod(new) if isinstance(raw, classmethod) else new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- reading the totals ---------------------------------------------------

    def calls(self, name, shape=None) -> int:
        return sum(v[0] for (n, s), v in self.stats.items()
                   if n == name and (shape is None and s != SETUP or s == shape))

    def seconds(self, name, shape=None, self_only=False) -> float:
        i = 2 if self_only else 1
        return sum(v[i] for (n, s), v in self.stats.items()
                   if n == name and (shape is None and s != SETUP or s == shape))

    def write(self, path) -> None:
        """Spans and totals as JSON; span parents are indexes into `spans`."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "shape", "start", "end", "parent"],
                       "spans": self.spans,
                       "totals": [[n, s, *v] for (n, s), v in self.stats.items()]},
                      out, separators=(",", ":"))
