"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The generated-dataset
fleet and the large clustered dataset are built once per module.
"""

import io
import random
import time

import numpy as np
import pytest

from bmatrix import cli
from bmatrix.bitvector import BitVector, SAMPLE_PRESETS
from bmatrix.dac import Dac
from bmatrix.k2tree import (K2Config, K2Tree, VOCAB_COLS_FULL,
                            VOCAB_COLS_RANK, VOCAB_PLAIN)
from bmatrix.oracle import TripleList
from bmatrix.store import TripleStore, save

from datagen import (SHAPES7, clustered_dataset, fleet_specs, pattern_batches,
                     skewed_dataset, write_query_file, zipf_ids)

SEED = 20240809
ALL_SHAPES = SHAPES7 + ["???"]


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# -- shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    """51 generated datasets (1k-50k triples, 5/100/1000 predicates, Zipf ids)."""
    rng = np.random.default_rng(SEED)
    datasets = []
    for i, (n, n_preds, exponent) in enumerate(fleet_specs()):
        n_subjects = max(64, n // 4)
        n_objects = max(64, n // 3)
        triples = skewed_dataset(rng, n, n_subjects, n_objects, n_preds,
                                 exponent)
        dims = (n_subjects, n_objects, n_preds)
        store = TripleStore.build(triples, *dims)
        datasets.append({"name": f"ds{i:02d}(n={len(triples)},P={n_preds})",
                         "triples": triples, "dims": dims, "store": store,
                         "oracle": TripleList(triples)})
    # the worked example rides along
    ex = np.array([(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1)])
    datasets.append({"name": "example-E", "triples": ex, "dims": (2, 2, 2),
                     "store": TripleStore.build(ex, 2, 2, 2),
                     "oracle": TripleList(ex)})
    return datasets


@pytest.fixture(scope="module")
def big():
    """Criterion-6 dataset: 1e6 clustered triples, 1000 predicates."""
    rng = np.random.default_rng(SEED)
    triples, dims = clustered_dataset(rng)
    return triples, dims


@pytest.fixture(scope="module")
def big_store(big):
    triples, dims = big
    return TripleStore.build(triples, *dims,
                             config=K2Config(sample_preset="default"))


@pytest.fixture(scope="module")
def big_store_dense(big):
    triples, dims = big
    return TripleStore.build(triples, *dims,
                             config=K2Config(sample_preset="dense"))


def draw_patterns(rng, triples, dims, shape, count=200):
    """`count` random bound-value draws, deduplicated before evaluation."""
    n = len(triples)
    pats = []
    for _ in range(count):
        if n and rng.random() < 0.7:
            row = triples[int(rng.integers(n))]
            s, p, o = int(row[0]), int(row[1]), int(row[2])
        else:
            s = 1 + int(rng.integers(dims[0]))
            p = 1 + int(rng.integers(dims[2]))
            o = 1 + int(rng.integers(dims[1]))
        pats.append((s if shape[0] == "s" else None,
                     p if shape[1] == "p" else None,
                     o if shape[2] == "o" else None))
    return list(dict.fromkeys(pats))


# -- criterion 1: oracle equivalence across all 8 shapes -------------------------


def test_c1_oracle_equivalence(fleet):
    rng = np.random.default_rng(SEED + 1)
    draws = probes = mismatches = 0
    t0 = time.perf_counter()
    for ds in fleet:
        store, oracle = ds["store"], ds["oracle"]
        dims = (store.n_subjects, store.n_objects, store.n_predicates)
        for shape in ALL_SHAPES:
            count = 200 if shape != "???" else 1
            pats = draw_patterns(rng, ds["triples"], dims, shape, count)
            draws += count
            for s, p, o in pats:
                probes += 1
                got = store.pattern_query(s, p, o)
                expected = oracle.pattern_query(s, p, o)
                # lists compare element-wise: set AND order contracts at once
                if got != expected:
                    mismatches += 1
                    print(f"  mismatch {ds['name']} {shape} {(s, p, o)}")
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300
    report(1, ok, f"{len(fleet)} datasets x 8 shapes, {draws} draws "
                  f"({probes} unique probes), {mismatches} mismatches, "
                  f"{elapsed:.0f}s (< 300s)")
    assert mismatches == 0
    assert elapsed < 300


# -- criterion 2: succinct-structure oracles ------------------------------------


def test_c2_bitvector_dac_k2tree_oracles():
    rng = np.random.default_rng(SEED + 2)
    # bitvector vs naive cumulative scan: 1e5 probes over 1e6-bit vectors
    probes_total = 0
    mism = 0
    for density in (0.01, 0.5, 0.99):
        n = 1_000_000
        bits = rng.random(n) < density
        cum = np.cumsum(bits)
        positions_of_ones = np.flatnonzero(bits)
        positions_of_zeros = np.flatnonzero(~bits)
        for rate_name, rate in SAMPLE_PRESETS.items():
            bv = BitVector(bits, rate)
            idx = rng.integers(0, n, 6000)
            for i in idx.tolist():
                probes_total += 3
                if bv.rank1(i) != int(cum[i]):
                    mism += 1
                if bv.rank0(i) != i + 1 - int(cum[i]):
                    mism += 1
                if bv.access(i) != bool(bits[i]):
                    mism += 1
            for j in rng.integers(1, len(positions_of_ones) + 1, 1500).tolist():
                probes_total += 1
                if bv.select1(j) != int(positions_of_ones[j - 1]):
                    mism += 1
            for j in rng.integers(1, len(positions_of_zeros) + 1, 1500).tolist():
                probes_total += 1
                if bv.select0(j) != int(positions_of_zeros[j - 1]):
                    mism += 1
    assert probes_total >= 100_000

    # DAC round-trip identity
    dac_values = 0
    for b in (1, 2, 4, 8):
        values = rng.integers(0, 1 << 32, 25_000, dtype=np.uint64)
        d = Dac.encode(values, chunk_bits=b)
        for i in range(0, len(values), 7):
            dac_values += 1
            if d.access(i) != int(values[i]):
                mism += 1

    # k2-tree vs dense-matrix oracle, >= 100 matrices, sides 16..512
    configs = [
        K2Config(k1_levels=0, leaf_side=1),
        K2Config(leaf_side=1),
        K2Config(leaf_side=8,
                 vocab_encoding=VOCAB_PLAIN),
        K2Config(k1_levels=0, leaf_side=4,
                 vocab_encoding=VOCAB_PLAIN),
    ]
    matrices = 0
    for trial in range(104):
        side_cap = int(rng.integers(16, 513))
        nr = int(rng.integers(16, side_cap + 1))
        nc = int(rng.integers(16, side_cap + 1))
        density = float(rng.uniform(0.001, 0.1))
        if trial % 4 == 3:
            # single-1-per-column matrices (the ST/OT shape), cols encodings
            rows = rng.integers(0, nr, nc)
            keep = rng.random(nc) < 0.9
            pts = np.column_stack((rows[keep], np.flatnonzero(keep)))
            cfg = K2Config(k1_levels=2, leaf_side=8,
                           vocab_encoding=(VOCAB_COLS_FULL,
                                           VOCAB_COLS_RANK)[(trial // 4) % 2])
        else:
            m0 = rng.random((nr, nc)) < density
            pts = np.argwhere(m0)
            cfg = configs[trial % 4]
        m = np.zeros((nr, nc), dtype=bool)
        if len(pts):
            m[pts[:, 0], pts[:, 1]] = True
        tree = K2Tree.build(pts, nr, nc, cfg)
        matrices += 1
        for _ in range(40):
            r, c = int(rng.integers(nr)), int(rng.integers(nc))
            if tree.cell(r, c) != m[r, c]:
                mism += 1
        for _ in range(6):
            r = int(rng.integers(nr))
            lo = int(rng.integers(nc)); hi = int(rng.integers(lo, nc))
            if tree.row(r, lo, hi) != (np.flatnonzero(m[r, lo:hi + 1]) + lo).tolist():
                mism += 1
            c = int(rng.integers(nc))
            if tree.col(c) != np.flatnonzero(m[:, c]).tolist():
                mism += 1
            r1 = int(rng.integers(nr)); r2 = int(rng.integers(r1, nr))
            c1 = int(rng.integers(nc)); c2 = int(rng.integers(c1, nc))
            got = set(tree.rect(r1, r2, c1, c2))
            exp = {(int(rr) + r1, int(cc) + c1)
                   for rr, cc in zip(*np.nonzero(m[r1:r2 + 1, c1:c2 + 1]))}
            if got != exp:
                mism += 1
    ok = mism == 0
    report(2, ok, f"bitvector {probes_total} probes, dac {dac_values} values, "
                  f"{matrices} matrices vs dense oracle, {mism} mismatches")
    assert mism == 0


# -- criterion 3: child-navigation law -------------------------------------------


def walk_children_law(tree, padded):
    """Check every set internal bit's children block; returns bits checked."""
    checked = 0
    frontier = [(0, 0, 0)]
    for lvl in range(tree.depth):
        k = tree.ks[lvl]
        child = tree._block[lvl + 1]
        nxt = []
        for base, row0, col0 in frontier:
            for d in range(k * k):
                p = base + d
                r0 = row0 + (d // k) * child
                c0 = col0 + (d % k) * child
                block = padded[r0:r0 + child, c0:c0 + child]
                assert tree.bit_at(p) == bool(block.any())
                checked += 1
                if block.any() and lvl < tree.depth - 1:
                    nxt.append((tree.children_base(p), r0, c0))
        frontier = nxt
    return checked


def test_c3_children_navigation_law():
    rng = np.random.default_rng(SEED + 3)
    configs = [
        K2Config(k1_levels=0, leaf_side=1),
        K2Config(leaf_side=1),
        K2Config(k1_levels=1, leaf_side=4,
                 vocab_encoding=VOCAB_PLAIN),
        K2Config(k1_levels=0, leaf_side=8,
                 vocab_encoding=VOCAB_PLAIN),
    ]
    trees = bits_checked = leaves_checked = 0
    for side in (8, 16, 33, 48, 64):
        for density in (0.02, 0.15):
            m = rng.random((side, side)) < density
            for cfg in configs:
                tree = K2Tree.build(np.argwhere(m), side, side, cfg)
                padded = np.zeros((tree.side, tree.side), dtype=bool)
                padded[:side, :side] = m
                bits_checked += walk_children_law(tree, padded)
                trees += 1
                if tree.vocab is not None:
                    # leaf contents reconstruct the final subdivision too
                    for r in range(side):
                        for c in range(side):
                            assert tree.cell(r, c) == m[r, c]
                            leaves_checked += 1
    report(3, True, f"{trees} trees <= 64 side, {bits_checked} child bits "
                    f"reconstructed exhaustively, {leaves_checked} leaf cells")


# -- criterion 4: vocabulary equivalence and exact size ---------------------------


def test_c4_vocabulary_equivalence_and_size(fleet):
    rng = np.random.default_rng(SEED + 4)
    encodings = (VOCAB_PLAIN, VOCAB_COLS_FULL, VOCAB_COLS_RANK)
    checked_stores = probes = 0
    for ds in fleet[2:42:8]:
        triples, dims = ds["triples"], ds["dims"]
        stores = {}
        for enc in encodings:
            cfg = K2Config(leaf_side=8,
                           vocab_encoding=enc)
            stores[enc] = TripleStore.build(triples, *dims, config=cfg)
        checked_stores += 1
        # identical answers on every shape
        for shape in ALL_SHAPES:
            for pat in draw_patterns(rng, triples, dims, shape,
                                     40 if shape != "???" else 1):
                answers = [stores[enc].pattern_query(*pat) for enc in encodings]
                probes += 1
                assert answers[0] == answers[1] == answers[2], (shape, pat)
        # exact payload identity on both matrices of the cols-full build
        st = stores[VOCAB_COLS_FULL]
        for tree in (st.subject_tree, st.object_tree):
            v = tree.vocab
            log2 = v.side.bit_length() - 1
            assert v.payload_bits() == v.count * v.side * (1 + log2)
    report(4, True, f"{checked_stores} datasets x 3 encodings, {probes} probe "
                    f"batteries identical; cols-full payload == m*k*(1+log2 k) exactly")


# -- criterion 5: threshold invariance --------------------------------------------


def test_c5_threshold_invariance(fleet):
    rng = np.random.default_rng(SEED + 5)
    checked = 0
    for ds in fleet:
        store, oracle = ds["store"], ds["oracle"]
        dims = (store.n_subjects, store.n_objects, store.n_predicates)
        so_pats = draw_patterns(rng, ds["triples"], dims, "s?o", 30)
        pred_ids = sorted({1 + int(rng.integers(dims[2]))
                           for _ in range(min(6, dims[2]))})
        base_so = {pat: oracle.pattern_query(*pat) for pat in so_pats}
        base_p = {p: oracle.pattern_query(p=p) for p in pred_ids}
        for threshold in (0, 1, 10, store.n):
            store.merge_sorted = threshold
            store.merge_unsorted = threshold
            for pat, expected in base_so.items():
                assert store.pattern_query(*pat) == expected, (ds["name"], pat)
            for p, expected in base_p.items():
                assert store.by_predicate(p) == expected, (ds["name"], p)
            checked += len(base_so) + len(base_p)
        store.merge_sorted = store.merge_unsorted = 10
    report(5, True, f"thresholds {{0, 1, 10, n}} x {len(fleet)} datasets, "
                    f"{checked} comparisons identical")


# -- criterion 6: space sanity at desk scale ---------------------------------------


def test_c6_space_sanity(big_store):
    t0 = time.perf_counter()
    rep = big_store.space_report()
    n = big_store.n
    serialized = sum(v["serialized"] for v in rep.values())
    accounted = sum(v["total"] for v in rep.values())
    per_triple_ser = serialized / n
    per_triple_tot = accounted / n
    elapsed = time.perf_counter() - t0
    ok = per_triple_ser < 12.0 and per_triple_tot < 12.0
    report(6, ok, f"1e6 clustered triples, ST+OT+pidx serialized "
                  f"{per_triple_ser:.2f} B/triple, incl. rank acceleration "
                  f"{per_triple_tot:.2f} B/triple (< 12); measure {elapsed:.1f}s")
    assert n == 1_000_000
    assert per_triple_ser < 12.0
    assert per_triple_tot < 12.0


# -- criterion 7: sampling tradeoff direction ---------------------------------------


def test_c7_sampling_tradeoff(big, big_store, big_store_dense):
    triples, dims = big
    # space: denser sampling must cost measurably more
    core = ("subject_tree", "object_tree")
    rep_d = big_store.space_report()
    rep_x = big_store_dense.space_report()
    size_default = sum(rep_d[k]["total"] for k in core)
    size_dense = sum(rep_x[k]["total"] for k in core)
    ser_default = sum(rep_d[k]["serialized"] for k in core)
    ser_dense = sum(rep_x[k]["serialized"] for k in core)
    # the file format keeps acceleration derived, so byte streams tie; the
    # structure size including its rank tables is what must grow
    assert ser_default == ser_dense
    space_ok = size_dense > size_default

    rng = np.random.default_rng(SEED + 7)
    counts = {"spo": 400, "sp?": 300, "?po": 300, "?p?": 150,
              "s?o": 150, "s??": 150, "??o": 150}
    batches = {}
    for shape, cnt in counts.items():
        batches[shape] = pattern_batches(rng, triples, dims, cnt,
                                         shapes=[shape])[shape]
    # the two stores take turns on each shape's batch, in alternating order
    # from round to round, so a slow or fast spell of a shared host falls on
    # both alike
    stores = (big_store, big_store_dense)
    pass_s = [0.0, 0.0]
    results = [0, 0]
    for rnd in range(4):
        for shape, batch in batches.items():
            for i in ((0, 1) if rnd % 2 == 0 else (1, 0)):
                (row,) = cli.run_benchmark(stores[i], {shape: batch}, min_reps=1,
                                           min_time_s=0.05)
                pass_s[i] += row.mean_pass_s
                results[i] += row.results
    us_default, us_dense = (pass_s[i] / results[i] * 1e6 for i in (0, 1))
    time_ok = us_dense <= us_default
    report(7, space_ok and time_ok,
           f"tree size dense {size_dense / 1e6:.2f} MB > default "
           f"{size_default / 1e6:.2f} MB; mean per-result dense "
           f"{us_dense:.2f} us <= default {us_default:.2f} us")
    assert space_ok
    assert time_ok


# -- criterion 8: benchmark methodology ----------------------------------------------


def test_c8_bench_methodology(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 8)
    triples = skewed_dataset(rng, 40_000, 10_000, 12_000, 100, exponent=0.8)
    dims = (10_000, 12_000, 100)
    store = TripleStore.build(triples, *dims)
    store_path = tmp_path / "bench.bmx"
    save(str(store_path), store)
    qfile = tmp_path / "queries.txt"
    batches = pattern_batches(rng, triples, dims, 500)
    write_query_file(str(qfile), batches)
    assert sum(len(v) for v in batches.values()) == 500 * 7

    outputs = []
    for _ in range(2):
        rc = cli.main(["bench", str(store_path), str(qfile),
                       "--min-reps", "2", "--min-time", "0.05"])
        assert rc == 0
        outputs.append(capsys.readouterr().out.strip().splitlines())

    structure = []
    for lines in outputs:
        assert lines[0].split("\t") == ["shape", "family", "queries", "results",
                                        "passes", "us_per_query", "us_per_result"]
        shapes = [ln.split("\t")[0] for ln in lines[1:]]
        assert shapes == SHAPES7 + ["TOTAL"]
        for ln in lines[1:-1]:
            fields = ln.split("\t")
            assert int(fields[2]) == 500
            assert int(fields[4]) >= 2          # repetition control
            float(fields[5]); float(fields[6])  # numeric report
        structure.append([(ln.split("\t")[0], ln.split("\t")[1],
                           ln.split("\t")[2]) for ln in lines])
    stable = structure[0] == structure[1]
    report(8, stable, "500 queries x 7 shapes, per-shape mean us/result with "
                      "repetition control; report structure identical across runs")
    assert stable
