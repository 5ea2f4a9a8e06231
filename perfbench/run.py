#!/usr/bin/env python3
"""Seeded benchmark of bmatrix: set-up, load, space and per-pattern query cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src, never
from an installed copy. With --trace 0 the run prints the end-to-end
metrics: set-up time and space. With --trace 1 it prints the per-layer
metrics: the untraced load and query timings, and figures from wrappers
installed around the program's public functions (see tracer.py). Either
way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the same object plus
reference figures goes to .perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import tracer as tracing
from inputs import SHAPES, result_count

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
clock = time.perf_counter

MIN_ROUNDS = 3          # untraced: the shape medians need at least three rounds
HOST_LOOP_N = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                         # "zipf", "clustered" or "ntriples"
    size: dict                        # generator parameters
    batch: dict                       # queries per shape in one round
    setup: tuple[int, int]            # (minimum samples, set-ups in one sample)
    load: tuple[int, int]             # (samples, loads timed in one sample)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "zipf-40k", "zipf",
        dict(n=40_000, n_subjects=10_000, n_objects=12_000, n_predicates=100),
        dict(contains=400, objects=100, subjects=100, predicates=50,
             by_subject=20, by_object=20, by_predicate=20),
        setup=(5, 5), load=(7, 20),
        why="store fits in CPU cache: query time is Python traversal in k2tree "
            "and rank in bitvector, free of memory and load effects"),
    Workload(
        "clustered-1m", "clustered",
        dict(n=1_000_000, n_predicates=1000),
        dict(contains=1200, objects=120, subjects=120, predicates=16,
             by_subject=10, by_object=10, by_predicate=6),
        setup=(3, 1), load=(5, 4),
        why="1e6 triples, 12-level trees, seconds of build and load: memory "
            "layout, load, build and deep-traversal changes"),
    Workload(
        "ntriples-200k", "ntriples",
        dict(n_statements=200_000, n_iris=24_000, n_bnodes=6_000,
             n_literals=60_000, n_predicates=200),
        dict(contains=400, objects=100, subjects=100, predicates=40,
             by_subject=10, by_object=10, by_predicate=10),
        setup=(3, 1), load=(5, 4),
        why="bmx build of N-Triples and queries by term with decoded results: "
            "parse and dictionary work beside the two read-heavy workloads"),
)}


def import_program():
    """The bmatrix modules from ./src; exits when the sources are not there."""
    src = ROOT / "src"
    if not (src / "bmatrix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bmatrix sources under {src}")
    sys.path.insert(0, str(src))
    import bmatrix
    from bmatrix import bitvector, cli, dac, dictionary, k2tree, ntriples, store
    if Path(bmatrix.__file__).resolve().parent != (src / "bmatrix").resolve():
        sys.exit(f"perfbench: bmatrix imported from {bmatrix.__file__}, not {src}")
    return SimpleNamespace(bitvector=bitvector, dac=dac, k2tree=k2tree,
                           store=store, dictionary=dictionary,
                           ntriples=ntriples, cli=cli)


# -- inputs --------------------------------------------------------------------


def make_input(wl: Workload, seed: int) -> SimpleNamespace:
    """Generated triples, their dimensions, query patterns and expected answers."""
    rng = np.random.default_rng([seed, 1])
    z = wl.size
    lines = term_ids = None
    if wl.kind == "zipf":
        triples = inputs.skewed_triples(rng, z["n"], z["n_subjects"],
                                        z["n_objects"], z["n_predicates"])
        dims = (z["n_subjects"], z["n_objects"], z["n_predicates"])
    elif wl.kind == "clustered":
        triples = inputs.clustered_triples(rng, z["n"], z["n_predicates"])
        side = 1024 * 192
        dims = (side, side, z["n_predicates"])
    else:
        lines, terms, distinct = inputs.ntriples_dataset(rng, **z)
        term_ids = inputs.TermIds(terms, distinct)
        triples, dims = term_ids.triples, term_ids.dims
    expected = inputs.Expected(triples, dims)
    patterns = inputs.query_patterns(
        np.random.default_rng([seed, 2]), triples, dims, wl.batch,
        lambda pat: expected.answer("contains", pat))
    answers = {sh: [expected.answer(sh, pat) for pat in pats]
               for sh, pats in patterns.items()}
    if term_ids is not None:
        answers = {sh: [term_ids.answer_terms(sh, a) for a in ans]
                   for sh, ans in answers.items()}
        patterns = {sh: [term_ids.pattern_terms(p) for p in pats]
                    for sh, pats in patterns.items()}
    return SimpleNamespace(
        triples=triples, dims=dims, n=len(triples), lines=lines,
        statements=z.get("n_statements", 0),
        term_ids=term_ids, patterns=patterns, answers=answers,
        counts={sh: sum(map(result_count, ans)) for sh, ans in answers.items()})


# -- one run ---------------------------------------------------------------------


def host_loop_ms() -> float:
    """A fixed pure-Python loop; its time tells host slowness from program slowness."""
    t0 = clock()
    x = 0
    for i in range(HOST_LOOP_N):
        x += i * i % 7
    return (clock() - t0) * 1e3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.note(f"MISMATCH {what}")
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.note(f"ERROR {what}: {type(exc).__name__}: {exc}")

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            print(text, file=sys.stderr)
        self.notes.append(text)


class Bench:
    """One workload on one seed: set-up, load, space, checked queries."""

    def __init__(self, prog, wl: Workload, data, workdir: Path):
        self.prog = prog
        self.wl = wl
        self.data = data
        self.tally = Tally()
        self.store_path = workdir / "store.bmx"
        self.input_path = workdir / "input.nt"
        if data.lines is not None:
            with open(self.input_path, "w", encoding="utf-8") as out:
                out.write("\n".join(data.lines) + "\n")

    # -- set-up and load ---------------------------------------------------

    def setup_once(self):
        """Input ready -> store ready: build + save + load, or bmx build + load."""
        prog, d = self.prog, self.data
        if d.term_ids is None:
            st = prog.store.TripleStore.build(d.triples, *d.dims)
            prog.store.save(str(self.store_path), st)
            return prog.store.load(str(self.store_path)), None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = prog.cli.main(["build", str(self.input_path),
                                "-o", str(self.store_path)])
        return prog.store.load(str(self.store_path)), (rc, out.getvalue(),
                                                       err.getvalue())

    def check_store(self, loaded, what: str) -> None:
        store, dictionary = loaded
        d = self.data
        self.tally.check(store.n == d.n, f"{what}: store.n {store.n} != {d.n}")
        if d.term_ids is None:
            dims = (store.n_subjects, store.n_objects, store.n_predicates)
            self.tally.check(dims == d.dims, f"{what}: dims {dims} != {d.dims}")
            return
        t = d.term_ids
        counts = (dictionary.so_count, dictionary.subject_count,
                  dictionary.object_count, dictionary.predicate_count)
        want = (t.n_shared, *t.dims)
        self.tally.check(counts == want,
                         f"{what}: dictionary counts {counts} != {want}")

    def check_bmx_output(self, report) -> None:
        rc, out, err = report
        t = self.data.term_ids
        got = {}
        for line in out.splitlines():
            parts = line.rsplit(None, 1)
            if len(parts) == 2 and parts[1].isdigit():
                got[parts[0]] = int(parts[1])
        want = {"triples": self.data.n, "subject-objects": t.n_shared,
                "subjects": t.dims[0], "objects": t.dims[1],
                "predicates": t.dims[2]}
        self.tally.check(rc == 0, f"bmx build exit code {rc}")
        self.tally.check(all(got.get(k) == v for k, v in want.items()),
                         f"bmx build counts {got} != {want}")
        self.tally.check(f": {self.data.statements} statements, 0 bad lines" in err,
                         f"bmx build parse report {err.strip()!r}")

    def timed_setups(self, seconds):
        """Median set-up time over samples taken for `seconds`, and at least
        the workload's minimum; returns it, the samples, the host loop
        times between samples and the last loaded store."""
        min_samples, per = self.wl.setup
        times, host = [], []
        deadline = clock() + seconds
        while len(times) < min_samples or clock() < deadline:
            loaded = None    # the previous sample's store is freed before timing
            gc.collect()
            t0 = clock()
            done = [self.setup_once() for _ in range(per)]
            times.append((clock() - t0) / per)
            for item, report in done:
                self.check_store(item, "set-up")
                if report is not None:
                    self.check_bmx_output(report)
            loaded = done[-1][0]
            del done
            host.append(host_loop_ms())
        return statistics.median(times), times, host, loaded

    def timed_loads(self):
        samples, per = self.wl.load
        load, path = self.prog.store.load, str(self.store_path)
        times = []
        for _ in range(samples):
            gc.collect()
            t0 = clock()
            held = [load(path) for _ in range(per)]
            times.append((clock() - t0) / per)
            for item in held:
                self.check_store(item, "load")
            del held
        return statistics.median(times), times

    def live_bytes(self):
        """tracemalloc bytes held by one loaded store and dictionary, by file."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            base = tracemalloc.get_traced_memory()[0]
            loaded = self.prog.store.load(str(self.store_path))
            total = tracemalloc.get_traced_memory()[0] - base
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        self.check_store(loaded, "live-bytes load")
        by_file = {}
        for stat in after.compare_to(before, "filename"):
            name = Path(stat.traceback[0].filename)
            if name.parent.name == "bmatrix":
                by_file[name.stem] = by_file.get(name.stem, 0) + stat.size_diff
        return total, by_file

    # -- queries -----------------------------------------------------------

    def runner(self, loaded):
        """shape, pattern -> answer along the user's path for this workload.

        Made after any tracing wrappers are installed, since it binds methods.
        """
        store, dictionary = loaded
        query = store.pattern_query
        if self.data.term_ids is None:
            return lambda shape, pat: query(*pat)
        d = dictionary
        lookup = (d.subject_id, d.predicate_id, d.object_id)
        ds, dp, do = d.subject_term, d.predicate_term, d.object_term
        decode = {
            "contains": lambda r: r,
            "objects": lambda r: [do(i) for i in r],
            "subjects": lambda r: [ds(i) for i in r],
            "predicates": lambda r: [dp(i) for i in r],
            "by_subject": lambda r: [(dp(a), do(b)) for a, b in r],
            "by_object": lambda r: [(ds(a), dp(b)) for a, b in r],
            "by_predicate": lambda r: [(ds(a), do(b)) for a, b in r],
        }

        def run(shape, pat):
            ids = [None if term is None else to_id(term)
                   for term, to_id in zip(pat, lookup)]
            return decode[shape](query(*ids))
        return run

    def check_answers(self, run) -> None:
        """Every pattern once, untimed, compared exactly with the expected answer."""
        for shape in SHAPES:
            for pat, want in zip(self.data.patterns[shape], self.data.answers[shape]):
                try:
                    got = run(shape, pat)
                except Exception as exc:
                    self.tally.error(f"{shape}{pat}", exc)
                    continue
                self.tally.check(got == want, f"{shape}{pat}: got {got!r:.200}"
                                              f" want {want!r:.200}")

    def timed_batch(self, run, shape):
        """Per-query seconds of one batch, or None when it failed."""
        times = []
        results = 0
        try:
            for pat in self.data.patterns[shape]:
                t0 = clock()
                answer = run(shape, pat)
                times.append(clock() - t0)
                results += result_count(answer)
        except Exception as exc:
            self.tally.error(f"timed {shape} batch", exc)
            return None
        want = self.data.counts[shape]
        if not self.tally.check(results == want,
                                f"timed {shape} batch: {results} results, want {want}"):
            return None
        return times

    def rounds(self, run, seconds, min_rounds, tracer=None):
        """Interleaved rounds of every shape's batch, in a rotating order."""
        out, host = [], []
        deadline = clock() + seconds
        r = 0
        while r < min_rounds or clock() < deadline:
            order = SHAPES[r % len(SHAPES):] + SHAPES[:r % len(SHAPES)]
            batches = {}
            for shape in order:
                gc.collect()
                if tracer is not None:
                    tracer.shape = shape
                batches[shape] = self.timed_batch(run, shape)
                if tracer is not None:
                    tracer.shape = "idle"
            out.append(batches)
            host.append(host_loop_ms())
            r += 1
        return out, host


# -- metrics ------------------------------------------------------------------------


def shape_metric(shape: str) -> str:
    return "contains_us_per_query" if shape == "contains" else f"{shape}_us_per_result"


def query_figures(data, rounds):
    """Shape metrics and queries_per_s as medians over rounds, plus reference tails."""
    metrics, tails = {}, {}
    for shape in SHAPES:
        den = len(data.patterns[shape]) if shape == "contains" \
            else max(1, data.counts[shape])
        batch_times = [sum(b[shape]) for b in rounds if b[shape] is not None]
        if batch_times:
            metrics[shape_metric(shape)] = statistics.median(batch_times) / den * 1e6
        per_query = sorted(t for b in rounds if b[shape] is not None for t in b[shape])
        tails[shape] = percentiles(per_query)
        if batch_times:
            tails[shape]["batch_s"] = statistics.median(batch_times)
    per_round = [sum(len(b[sh]) for sh in SHAPES) / sum(sum(b[sh]) for sh in SHAPES)
                 for b in rounds if all(b[sh] is not None for sh in SHAPES)]
    if per_round:
        metrics["queries_per_s"] = statistics.median(per_round)
    return metrics, tails


def percentiles(sorted_times):
    """p50, and the highest of p99/p90 with at least ten samples beyond it, in us."""
    n = len(sorted_times)
    if not n:
        return {}
    out = {"n": n, "p50_us": sorted_times[n // 2] * 1e6}
    for q, min_n in ((99, 1000), (90, 100)):
        if n >= min_n:
            out[f"p{q}_us"] = sorted_times[min(n - 1, int(n * q / 100))] * 1e6
            break
    return out


# The end-to-end metrics, with units. The load and query timings are
# per-layer metrics: on a shared host they spread by more than a quarter
# between runs (see README.md).
END_TO_END = {"setup_s": "s", "file_bytes_per_triple": "B/triple",
              "live_bytes_per_triple": "B/triple"}


QUERY_LAYERS = (
    # (traced name, calls counted per "query" or "result", time unit)
    ("k2tree.col", "result", "us"),
    ("k2tree.row", "query", "us"),
    ("k2tree.cell", "query", "us"),
    ("k2tree.rect", "query", "us"),
    ("k2tree.vocab", "query", "ns"),
    ("bitvector.rank1", "query", "ns"),
    ("dac.access", "query", "ns"),
    ("store.predicate_of", "result", "ns"),
)

# Per-shape splits, only for the shapes whose path calls the layer on some
# workload. by_predicate calls col only below merge_unsorted matches, which
# no predicate of the three inputs has.
SPLITS = {
    "bitvector.rank1.calls_per_query": SHAPES,
    "bitvector.rank1.time_share": SHAPES,
    "dac.access.calls_per_query": SHAPES,
    "k2tree.vocab.calls_per_query": SHAPES,
    "store.query_self_share": SHAPES,
    "k2tree.row.calls_per_query": ("contains", "objects", "subjects",
                                   "predicates", "by_subject", "by_object"),
    "k2tree.col.calls_per_result": ("objects", "subjects", "by_subject",
                                    "by_object"),
    "k2tree.col.us_per_call": ("objects", "subjects", "by_subject", "by_object"),
    "k2tree.cell.calls_per_query": ("contains", "predicates"),
    "k2tree.rect.calls_per_query": ("by_predicate",),
    "store.predicate_of.calls_per_result": ("predicates", "by_subject", "by_object"),
}

# Allocating file -> metric prefix (a metric name starts with a letter).
LIVE_MODULES = {"bitvector": "bitvector", "dac": "dac", "k2tree": "k2tree",
                "store": "store", "dictionary": "dictionary", "_binio": "binio"}


def per_layer_names():
    """Every per-layer metric with its unit, in the order the traced run prints them."""
    names = [("load_s", "s"), ("queries_per_s", "1/s")]
    names += [(shape_metric(sh), "us") for sh in SHAPES]
    names += [("ntriples.parse_us_per_triple", "us/triple"),
             ("dictionary.encode_us_per_triple", "us/triple"),
             ("cli.build_self_s", "s"),
             ("store.build_self_s", "s"), ("k2tree.build_s", "s"),
             ("store.save_s", "s"),
             ("bitvector.read_s", "s"), ("dac.read_s", "s"),
             ("k2tree.read_self_s", "s"), ("store.pred_index_read_s", "s"),
             ("dictionary.read_s", "s")]
    names += [(f"{m}.live_bytes_per_triple", "B/triple")
              for m in LIVE_MODULES.values()]
    names.append(("store.notional_bytes_per_triple", "B/triple"))
    for name, per, unit in QUERY_LAYERS:
        names.append((f"{name}.calls_per_{per}", f"calls/{per}"))
        names.append((f"{name}.{unit}_per_call", unit))
    names += [("bitvector.rank1.time_share", "fraction"),
              ("store.query_self_share", "fraction"),
              ("dictionary.lookup_us_per_query", "us/query"),
              ("dictionary.decode_us_per_result", "us/result"),
              ("trace.overhead_x", "x")]
    units = dict(names)
    for metric, shapes in SPLITS.items():
        names += [(f"{metric}.{sh}", units[metric]) for sh in shapes]
    return names


def layer_figures(tr, data, live_by_file, notional, traced_rounds, overhead):
    """Per-layer metrics from the tracer's totals; see per_layer_names()."""
    S = tracing.SETUP

    def own(name):
        return tr.seconds(name, S, self_only=True)

    def whole(name):
        return tr.seconds(name, S)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "ntriples.parse_us_per_triple": ratio(
            own("ntriples.iter_file") + own("ntriples.iter_triples")
            + own("ntriples.parse_line"), data.statements) * 1e6,
        "dictionary.encode_us_per_triple":
            ratio(own("dictionary.from_triples"), data.statements) * 1e6,
        "cli.build_self_s": own("cli.main"),
        "store.build_self_s": own("store.build"),
        "k2tree.build_s": whole("k2tree.build"),
        "store.save_s": whole("store.save"),
        "bitvector.read_s": own("bitvector.read"),
        "dac.read_s": own("dac.read"),
        "k2tree.read_self_s": own("k2tree.read") + own("k2tree.vocab_read"),
        "store.pred_index_read_s": whole("store.pred_index_read"),
        "dictionary.read_s": whole("dictionary.read"),
        "store.notional_bytes_per_triple": notional / data.n,
    }
    for stem, prefix in LIVE_MODULES.items():
        m[f"{prefix}.live_bytes_per_triple"] = live_by_file.get(stem, 0) / data.n

    n_rounds = len(traced_rounds)
    queries = {sh: len(data.patterns[sh]) * n_rounds for sh in SHAPES}
    results = {sh: data.counts[sh] * n_rounds for sh in SHAPES}
    busy = {sh: sum(sum(b[sh]) for b in traced_rounds) for sh in SHAPES}

    def over(shape, table):
        return table[shape] if shape else sum(table.values())

    def query_metrics(shape, suffix):
        out = {}
        for name, per, unit in QUERY_LAYERS:
            calls = tr.calls(name, shape)
            out[f"{name}.calls_per_{per}{suffix}"] = ratio(
                calls, over(shape, queries if per == "query" else results))
            scale = 1e6 if unit == "us" else 1e9
            out[f"{name}.{unit}_per_call{suffix}"] = ratio(
                tr.seconds(name, shape), calls) * scale
        out[f"bitvector.rank1.time_share{suffix}"] = ratio(
            tr.seconds("bitvector.rank1", shape), over(shape, busy))
        out[f"store.query_self_share{suffix}"] = ratio(
            tr.seconds("store.shape_method", shape, self_only=True)
            + tr.seconds("store.pattern_query", shape, self_only=True),
            over(shape, busy))
        return out

    m.update(query_metrics(None, ""))
    m["dictionary.lookup_us_per_query"] = ratio(
        tr.seconds("dictionary.lookup"), sum(queries.values())) * 1e6
    m["dictionary.decode_us_per_result"] = ratio(
        tr.seconds("dictionary.decode"), sum(results.values())) * 1e6
    m["trace.overhead_x"] = overhead
    for shape in SHAPES:
        split = query_metrics(shape, f".{shape}")
        for metric, shapes in SPLITS.items():
            if shape in shapes:
                m[f"{metric}.{shape}"] = split[f"{metric}.{shape}"]
    return m


# -- the two modes ------------------------------------------------------------------


def run_untraced(bench, seconds):
    """End-to-end metrics: set-up for `seconds`, then space; every answer checked."""
    setup_s, setup_samples, host, loaded = bench.timed_setups(seconds)
    live_total, _ = bench.live_bytes()
    n = bench.data.n
    metrics = {"setup_s": setup_s,
               "file_bytes_per_triple": os.path.getsize(bench.store_path) / n,
               "live_bytes_per_triple": live_total / n}
    bench.check_answers(bench.runner(loaded))
    return metrics, {"setup_samples_s": setup_samples, "host_loop_ms": host}


def run_traced(bench, seconds, tracer):
    """Per-layer metrics: one traced set-up, untimed space by file, untraced
    load and query rounds for half of `seconds`, traced rounds for the rest."""
    prog = bench.prog
    wraps = tracing.targets(prog.bitvector, prog.dac, prog.k2tree, prog.store,
                            prog.dictionary, prog.ntriples, prog.cli)
    with tracer.installed(wraps):
        loaded, report = bench.setup_once()
    bench.check_store(loaded, "traced set-up")
    if report is not None:
        bench.check_bmx_output(report)
    load_s, load_samples = bench.timed_loads()
    _, live_by_file = bench.live_bytes()
    notional = sum(v["total"] for v in loaded[0].space_report().values())
    run = bench.runner(loaded)
    bench.check_answers(run)
    plain, host = bench.rounds(run, seconds / 2, MIN_ROUNDS)
    with tracer.installed(wraps):
        run = bench.runner(loaded)
        traced, _ = bench.rounds(run, seconds / 2, 1, tracer)

    def round_time(rounds):
        return statistics.median(sum(sum(b[sh]) for sh in SHAPES if b[sh])
                                 for b in rounds)
    overhead = round_time(traced) / round_time(plain)
    metrics = layer_figures(tracer, bench.data, live_by_file, notional,
                            traced, overhead)
    query, tails = query_figures(bench.data, plain)
    metrics.update(query, load_s=load_s)
    info = {"load_samples_s": load_samples, "rounds": len(plain),
            "traced_rounds": len(traced), "host_loop_ms": host,
            "per_query": tails, "untraced_round_s": round_time(plain),
            "traced_round_s": round_time(traced), "spans": len(tracer.spans)}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long set-up is sampled (trace 0) or the query "
                         "rounds run (trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    prog = import_program()
    tracer = tracing.Tracer() if args.trace else None
    result, info = run_workload(prog, WORKLOADS[args.workload], args.seed,
                                args.seconds, tracer)
    write_result(args, result, info, tracer)
    print_report(result, info)
    print(json.dumps(result))
    return 0


def run_workload(prog, wl, seed, seconds, tracer=None):
    """(result object, reference info) of one run, traced when a tracer is given."""
    t_start = clock()
    data = make_input(wl, seed)
    input_s = clock() - t_start
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(prog, wl, data, workdir)
        # The inputs and expected answers live for the whole run; frozen, they
        # add nothing to the program's garbage-collection work.
        gc.freeze()
        if tracer is not None:
            metrics, info = run_traced(bench, seconds, tracer)
            units = dict(per_layer_names())
        else:
            metrics, info = run_untraced(bench, seconds)
            units = END_TO_END
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    tally = bench.tally
    info.update(workload=wl.name, seed=seed, triples=data.n, input_s=input_s,
                wall_s=clock() - t_start, notes=tally.notes[:20])
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, info


def write_result(args, result, info, tracer) -> None:
    """The result with its reference figures, and the traced run's spans."""
    out = OUT_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"result": result, "info": info}, f, indent=1)
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.json")


def print_report(result, info) -> None:
    print(f"workload {info['workload']} seed {info['seed']}: {info['triples']} "
          f"triples, {info['wall_s']:.1f} s wall")
    if "setup_samples_s" in info:
        print(f"set-up samples (s): {info['setup_samples_s']}")
    host = info["host_loop_ms"]
    print(f"host loop ({HOST_LOOP_N} iterations): median "
          f"{statistics.median(host):.2f} ms, min {min(host):.2f}, "
          f"max {max(host):.2f} over {len(host)} samples (not a metric)")
    for shape, tail in info.get("per_query", {}).items():
        print(f"  {shape:<13} per query: " + ", ".join(
            f"{k} {v:.1f}" if k.endswith("_us") else f"{k} {v:.3g}"
            for k, v in tail.items()))
    if "traced_round_s" in info:
        print(f"{info['rounds']} untraced and {info['traced_rounds']} traced rounds;"
              f" tracing overhead: traced round {info['traced_round_s']:.3f} s "
              f"against untraced {info['untraced_round_s']:.3f} s "
              f"({info['spans']} spans kept)")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:14.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


if __name__ == "__main__":
    sys.exit(main())
