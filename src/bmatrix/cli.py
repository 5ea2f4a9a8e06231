"""Command-line front end: build, query, stats, bench and verify.

Pattern syntax shared by `query` arguments, bench query files and verify
reproducers: each of the three slots is `?` (unbound), an N-Triples term,
or `#<id>` to address ids directly without dictionary lookups.

Exit codes: 0 ok (including empty results and unknown bound terms),
1 error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import ntriples, store as store_mod
from ._binio import written_size
from .dictionary import Dictionary
from .bitvector import SAMPLE_PRESETS
from .k2tree import K2Config, VOCAB_ENCODINGS
from .oracle import TripleList
from .store import SHAPES, TripleStore, shape_of

SHAPE_FAMILY = {shape: "scan" if shape == "???" else
                "bound-p" if shape[1] == "p" else "unbound-p" for shape in SHAPES}

ROLES = ("subject", "predicate", "object")


class TermNotFound(LookupError):
    def __init__(self, token: str, role: str):
        super().__init__(f"{role} term not found: {token}")


# -- pattern parsing ----------------------------------------------------------

# ASCII digits only: str.isdigit also takes "²", which int() refuses
_ID_TOKEN = re.compile(r"#([0-9]+)")


def parse_pattern_tokens(text: str, line_no: int = 0) -> list:
    """Three slots from a pattern line: None (?), int (#id) or a term string."""
    tokens = []
    i = 0
    while len(tokens) < 3:
        i = ntriples._skip_ws(text, i)
        if i >= len(text):
            raise ntriples.ParseError("pattern needs three slots", line_no, text)
        c = text[i]
        if c == "?":
            tokens.append(None)
            i += 1
        elif c == "#":
            m = _ID_TOKEN.match(text, i)
            if m is None:
                raise ntriples.ParseError("bad #id token", line_no, text)
            tokens.append(int(m[1]))
            i = m.end()
        else:
            term, _, i = ntriples._scan_term(text, i, line_no)
            tokens.append(term)
    if ntriples._skip_ws(text, i) < len(text):
        raise ntriples.ParseError("trailing junk after pattern", line_no, text)
    return tokens


def resolve_pattern(tokens, store: TripleStore, dictionary: Dictionary):
    """Map the three slots to ids; raises TermNotFound for unknown bound terms."""
    dims = (store.n_subjects, store.n_predicates, store.n_objects)
    lookup = (dictionary.subject_id, dictionary.predicate_id, dictionary.object_id)
    out = []
    for token, role, dim, to_id in zip(tokens, ROLES, dims, lookup):
        if token is None:
            out.append(None)
        elif isinstance(token, int):
            if not 1 <= token <= dim:
                raise TermNotFound(f"#{token}", role)
            out.append(token)
        else:
            try:
                out.append(to_id(token))
            except KeyError:
                raise TermNotFound(token, role) from None
    return tuple(out)


def pattern_text(s, p, o) -> str:
    return " ".join("?" if x is None else f"#{x}" for x in (s, p, o))


# -- shared reporting ---------------------------------------------------------


def _per(size: int, count: int) -> str:
    """size / count to 3 decimals, or "-" when there is nothing to divide by."""
    return f"{size / count:.3f}" if count else "-"


def _print_space_report(store: TripleStore, dictionary: Dictionary, out) -> None:
    report = store.space_report()
    pools = {name: getattr(dictionary, name) for name in
             ("shared", "subject_only", "object_only", "predicates")}
    pool_bytes = {name: written_size(pool) for name, pool in pools.items()}
    dict_bytes = sum(pool_bytes.values())
    report["dictionary"] = {"serialized": dict_bytes, "accel": 0,
                            "total": dict_bytes}
    n = store.n
    print("component bytes (serialized / +rank acceleration):", file=out)
    for name in ("subject_tree", "object_tree", "pred_index", "dictionary"):
        r = report[name]
        print(f"  {name:<13} {r['serialized']:>12}  {r['total']:>12}"
              f"  {_per(r['total'], n):>8} B/triple", file=out)
    for name, pool in pools.items():
        size = pool_bytes[name]
        print(f"    {name.replace('_', '-') + ' pool':<17} {pool.count:>9} terms"
              f" {size:>12} bytes  {_per(size, pool.count):>8} B/term",
              file=out)
    core = ["subject_tree", "object_tree", "pred_index"]
    ser = sum(report[k]["serialized"] for k in core)
    tot = sum(report[k]["total"] for k in core)
    print(f"  store core (trees + predicate index): {ser} bytes serialized"
          f" = {_per(ser, n)} B/triple", file=out)
    print(f"  store core incl. rank acceleration:   {tot} bytes"
          f" = {_per(tot, n)} B/triple", file=out)


def _print_counts(store: TripleStore, dictionary: Dictionary, out) -> None:
    print(f"triples            {store.n}", file=out)
    print(f"subject-objects    {dictionary.so_count}", file=out)
    print(f"subjects           {store.n_subjects}", file=out)
    print(f"objects            {store.n_objects}", file=out)
    print(f"predicates         {store.n_predicates}", file=out)


# -- build ---------------------------------------------------------------------


def _read_inputs(paths: list[str], strict: bool = False):
    """The stored terms of the N-Triples files `paths`, and their statements
    as an (n, 3) int32 array of positions in those terms; prints each
    file's bad lines and counts to stderr."""
    terms: list[str] = []
    blocks = [np.empty((0, 3), dtype=np.int32)]
    for path in paths:
        errors: list = []
        first, before = len(terms), len(blocks)
        for new, numbers in ntriples.iter_file(path, strict=strict, errors=errors):
            terms += new
            numbers += first
            blocks.append(numbers)
        for err in errors:
            print(f"{path}:{err}", file=sys.stderr)
        print(f"parsed {path}: {sum(map(len, blocks[before:]))} statements,"
              f" {len(errors)} bad lines", file=sys.stderr)
    return terms, np.concatenate(blocks)


def build_config(args) -> K2Config:
    """The K2Config that `bmx build`'s options name."""
    return K2Config(k1=args.k1, k1_levels=args.k1_levels, k2=args.k2,
                    leaf_side=args.leaf, vocab_encoding=args.vocab,
                    sample_preset=args.sample)


def cmd_build(args) -> int:
    config = build_config(args)   # refuse bad options before reading the input
    t0 = time.perf_counter()
    terms, numbers = _read_inputs(args.inputs, args.strict)
    t1 = time.perf_counter()
    dictionary, ids = Dictionary.from_triples(terms, numbers)
    del terms, numbers
    t2 = time.perf_counter()
    store = TripleStore.build(
        ids, dictionary.subject_count, dictionary.object_count,
        dictionary.predicate_count, config=config)
    t3 = time.perf_counter()
    store_mod.save(args.output, store, dictionary)
    t4 = time.perf_counter()
    print(f"phases: parse {t1 - t0:.3f} s, dictionary {t2 - t1:.3f} s,"
          f" sort+trees {t3 - t2:.3f} s, save {t4 - t3:.3f} s;"
          f" {store.n / (t4 - t0):,.0f} triples/s", file=sys.stderr)
    _print_counts(store, dictionary, sys.stdout)
    _print_space_report(store, dictionary, sys.stdout)
    print(f"wrote {args.output}")
    return 0


# -- query ---------------------------------------------------------------------


def _decoders(dictionary: Dictionary):
    return (dictionary.subject_term, dictionary.predicate_term,
            dictionary.object_term)


def cmd_query(args) -> int:
    store, dictionary = store_mod.load(args.store)
    try:
        tokens = parse_pattern_tokens(
            " ".join((args.subject, args.predicate, args.object)))
    except ntriples.ParseError as err:
        print(f"bad pattern: {err}", file=sys.stderr)
        return 1
    try:
        s, p, o = resolve_pattern(tokens, store, dictionary)
    except TermNotFound as err:
        print(f"term not found: no match possible ({err})", file=sys.stderr)
        if args.count_only:
            print(0)
        return 0
    triples = store.pattern_triples(s, p, o)
    if args.count_only:
        print(len(triples))
        return 0
    if args.ids:
        for ts, tp, to in triples:
            print(f"#{ts}\t#{tp}\t#{to}" if args.tsv else f"#{ts} #{tp} #{to}")
        return 0
    if triples and not dictionary.predicate_count:  # a load refuses a partial dictionary
        print("error: the store was saved without a dictionary; use --ids",
              file=sys.stderr)
        return 1
    dec_s, dec_p, dec_o = _decoders(dictionary)
    for ts, tp, to in triples:
        subj, pred, obj = dec_s(ts), dec_p(tp), dec_o(to)
        if args.tsv:
            print(f"{subj}\t{pred}\t{obj}")
        else:
            print(ntriples.format_triple(ntriples.RawTriple(subj, pred, obj)))
    return 0


# -- stats ----------------------------------------------------------------------


def cmd_stats(args) -> int:
    store, dictionary = store_mod.load(args.store)
    _print_counts(store, dictionary, sys.stdout)
    for name, tree in (("subject tree", store.subject_tree),
                       ("object tree", store.object_tree)):
        levels = "x".join(map(str, tree.ks))
        vocab = tree.vocab.encoding if tree.vocab is not None else "none"
        print(f"{name:<18} side {tree.side}, levels {levels},"
              f" leaf {tree.leaf_side}x{tree.leaf_side}, vocab {vocab},"
              f" sampling {tree.sample_preset}")
        dac = tree.leaf_ids
        if dac is None:
            print(f"{'':<18} leaf ids: none")
        else:
            widths = "+".join(map(str, dac.widths))
            chunks = "/".join(str(len(flags)) for _, _, flags in dac.levels)
            print(f"{'':<18} leaf ids: widths {widths or '-'}, chunks {chunks or '0'}")
    _print_space_report(store, dictionary, sys.stdout)
    return 0


# -- bench -----------------------------------------------------------------------


@dataclass
class BenchRow:
    shape: str
    queries: int
    results: int
    passes: int
    mean_pass_s: float

    @property
    def us_per_query(self) -> float:
        return self.mean_pass_s / self.queries * 1e6

    @property
    def us_per_result(self) -> float:
        return self.mean_pass_s / self.results * 1e6 if self.results else float("nan")


def load_query_file(path: str, store: TripleStore, dictionary: Dictionary):
    """Query file -> {shape: [(s, p, o) id patterns]}; bad lines are reported."""
    by_shape: dict[str, list] = {}
    skipped = 0
    with open(path, "r", encoding="utf-8") as src:
        for line_no, line in enumerate(src, 1):
            line = line.strip()
            if not line:
                continue
            try:
                tokens = parse_pattern_tokens(line, line_no)
                s, p, o = resolve_pattern(tokens, store, dictionary)
            except (ntriples.ParseError, TermNotFound) as err:
                print(f"{path}:{line_no}: skipped ({err})", file=sys.stderr)
                skipped += 1
                continue
            by_shape.setdefault(shape_of(s, p, o), []).append((s, p, o))
    if skipped:
        print(f"{path}: skipped {skipped} unusable patterns", file=sys.stderr)
    return by_shape


def run_benchmark(store: TripleStore, by_shape: dict, min_reps: int,
                  min_time_s: float, decode=None) -> list[BenchRow]:
    """Repeat each shape's batch until timings are trustworthy; average per pass.

    decode, when given, is (dec_s, dec_p, dec_o) and pulls the dictionary
    decode of every result into the timed region.
    """
    rows = []
    query = store.pattern_query
    for shape in SHAPES:
        batch = by_shape.get(shape)
        if not batch:
            continue
        passes: list[float] = []
        results = 0
        while len(passes) < max(1, min_reps) or sum(passes) < min_time_s:
            total = 0
            t0 = time.perf_counter()
            if decode is None:
                for s, p, o in batch:
                    r = query(s, p, o)
                    total += (1 if r else 0) if isinstance(r, bool) else len(r)
            else:
                dec_s, dec_p, dec_o = decode
                for s, p, o in batch:
                    triples = store.pattern_triples(s, p, o)
                    for ts, tp, to in triples:
                        dec_s(ts), dec_p(tp), dec_o(to)
                    total += len(triples)
            passes.append(time.perf_counter() - t0)
            results = total
        rows.append(BenchRow(shape, len(batch), results, len(passes),
                             sum(passes) / len(passes)))
    return rows


def format_bench_report(rows: list[BenchRow]) -> str:
    lines = ["shape\tfamily\tqueries\tresults\tpasses\tus_per_query\tus_per_result"]
    for row in rows:
        upr = f"{row.us_per_result:.3f}" if row.results else "-"
        lines.append(f"{row.shape}\t{SHAPE_FAMILY[row.shape]}\t{row.queries}"
                     f"\t{row.results}\t{row.passes}"
                     f"\t{row.us_per_query:.3f}\t{upr}")
    total_q = sum(r.queries for r in rows)
    total_res = sum(r.results for r in rows)
    total_t = sum(r.mean_pass_s for r in rows)
    if rows:
        upr = f"{total_t / total_res * 1e6:.3f}" if total_res else "-"
        lines.append(f"TOTAL\t-\t{total_q}\t{total_res}\t-"
                     f"\t{(total_t / total_q * 1e6):.3f}\t{upr}")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    store, dictionary = store_mod.load(args.store)
    if args.thresholds:
        parts = [int(part) for part in args.thresholds.split(",")]
        if len(parts) not in (1, 2) or min(parts) < 0:
            raise ValueError("thresholds must be 'N' or 'SORTED,UNSORTED', each >= 0")
        store.merge_sorted, store.merge_unsorted = parts[0], parts[-1]
    by_shape = load_query_file(args.queries, store, dictionary)
    decode = _decoders(dictionary) if args.decode else None
    rows = run_benchmark(store, by_shape, args.min_reps, args.min_time, decode)
    print(format_bench_report(rows))
    return 0


# -- verify ------------------------------------------------------------------------


def _sample_patterns(rng, tl: TripleList, dims, count: int):
    """Per shape, `count` patterns biased toward stored values."""
    n = len(tl)
    out = []
    for shape in SHAPES:
        seen = set()
        for _ in range(count if shape != "???" else 1):
            if n and rng.random() < 0.8:
                i = rng.randrange(n)
                s, p, o = int(tl.s[i]), int(tl.p[i]), int(tl.o[i])
            else:
                s = rng.randint(1, dims[0]) if dims[0] else 1
                p = rng.randint(1, dims[1]) if dims[1] else 1
                o = rng.randint(1, dims[2]) if dims[2] else 1
            pat = (s if shape[0] == "s" else None,
                   p if shape[1] == "p" else None,
                   o if shape[2] == "o" else None)
            if pat not in seen:
                seen.add(pat)
                out.append(pat)
    return out


def _looked_up(terms: list[str], column: np.ndarray, lookup) -> np.ndarray:
    """lookup(term) for the term of each number in `column`, called once
    per distinct number."""
    distinct, inverse = np.unique(column, return_inverse=True)
    return np.array([lookup(terms[i]) for i in distinct.tolist()],
                    dtype=np.int64)[inverse]


def cmd_verify(args) -> int:
    store, dictionary = store_mod.load(args.store)
    terms, numbers = _read_inputs([args.input])
    lookups = (dictionary.subject_id, dictionary.predicate_id, dictionary.object_id)
    try:
        ids = np.column_stack([_looked_up(terms, numbers[:, j], lookup)
                               for j, lookup in enumerate(lookups)])
    except KeyError as err:
        print(f"MISMATCH: input term missing from store dictionary: {err}",
              file=sys.stderr)
        return 2
    tl = TripleList(ids)
    if len(tl) != store.n:
        print(f"MISMATCH: store has {store.n} triples, input {len(tl)}",
              file=sys.stderr)
        return 2
    dims = (store.n_subjects, store.n_predicates, store.n_objects)
    rng = random.Random(args.seed)
    patterns = _sample_patterns(rng, tl, dims, args.sample)
    checked = 0
    for s, p, o in patterns:
        if (s is not None and not 1 <= s <= dims[0]) \
                or (p is not None and not 1 <= p <= dims[1]) \
                or (o is not None and not 1 <= o <= dims[2]):
            continue
        got = store.pattern_query(s, p, o)
        expected = tl.pattern_query(s, p, o)
        checked += 1
        if got != expected:
            print("MISMATCH: pattern", pattern_text(s, p, o), file=sys.stderr)
            print(f"  expected: {expected!r}", file=sys.stderr)
            print(f"  got:      {got!r}", file=sys.stderr)
            return 2
    print(f"verify OK: {checked} patterns across all shapes match the oracle")
    return 0


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmx",
        description="Compressed in-memory RDF triple store over k2-trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a store file from N-Triples input")
    b.add_argument("inputs", nargs="+", help="N-Triples files, plain or gzip")
    b.add_argument("-o", "--output", required=True, help="store file to write")
    b.add_argument("--k1", type=int, default=K2Config.k1,
                   help="branching side of the top levels")
    b.add_argument("--k1-levels", type=int, default=K2Config.k1_levels,
                   help="most levels of side k1; fewer when they reach past the matrix")
    b.add_argument("--k2", type=int, default=K2Config.k2,
                   help="branching side of the levels below the k1 levels")
    b.add_argument("--leaf", type=int, default=K2Config.leaf_side,
                   help="leaf matrix side: 2, 4 or 8, or 1 for no leaf vocabulary")
    b.add_argument("--vocab", default=K2Config.vocab_encoding, choices=VOCAB_ENCODINGS,
                   help="leaf vocabulary encoding")
    b.add_argument("--sample", default=K2Config.sample_preset, choices=SAMPLE_PRESETS,
                   help="bitmap rank sampling preset (~5%% or 12.5%% overhead)")
    b.add_argument("--strict", action="store_true",
                   help="abort on the first malformed input line")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="run one triple pattern against a store")
    q.add_argument("store")
    q.add_argument("subject", help="term, #id, or ?")
    q.add_argument("predicate", help="term, #id, or ?")
    q.add_argument("object", help="term, #id, or ?")
    q.add_argument("--ids", action="store_true", help="print numeric ids")
    q.add_argument("--count-only", action="store_true")
    q.add_argument("--tsv", action="store_true", help="tab-separated terms")
    q.set_defaults(func=cmd_query)

    s = sub.add_parser("stats", help="print store statistics")
    s.add_argument("store")
    s.set_defaults(func=cmd_stats)

    n = sub.add_parser("bench", help="time a pattern query file")
    n.add_argument("store")
    n.add_argument("queries", help="file with one pattern per line")
    n.add_argument("--min-reps", type=int, default=3,
                   help="minimum timed passes per shape")
    n.add_argument("--min-time", type=float, default=0.2,
                   help="minimum total seconds per shape")
    n.add_argument("--thresholds", default=None,
                   help="merge thresholds for this run, as 'N' or 'SORTED,UNSORTED'")
    n.add_argument("--decode", action="store_true",
                   help="include dictionary decode in the timed region")
    n.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="compare a store against its source triples")
    v.add_argument("store")
    v.add_argument("input", help="original N-Triples file, plain or gzip")
    v.add_argument("--sample", type=int, default=200,
                   help="random patterns per shape")
    v.add_argument("--seed", type=int, default=20240809)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # gzip: EOFError if cut short; BrokenProcessPool if a parse worker dies
    except (OSError, ValueError, EOFError, BrokenProcessPool) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
