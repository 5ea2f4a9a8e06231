import gzip
import multiprocessing
import os
import random
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pfc_reference
import bmatrix
from bmatrix._binio import pack_fixed
from tree_layout import packed_fields, reseal, section_offsets, tree_offsets
from bmatrix import cli, ntriples, store as store_mod
from bmatrix.k2tree import K2Config
from bmatrix.store import TripleStore

CORPUS = """\
<http://x/a> <http://x/p1> <http://x/b> .
<http://x/b> <http://x/p1> <http://x/a> .
<http://x/a> <http://x/p2> "hello world"@en .
# comment
<http://x/c> <http://x/p2> "two\\nlines" .
<http://x/a> <http://x/p2> "hello world"@en .
"""


@pytest.fixture
def built(tmp_path):
    src = tmp_path / "corpus.nt"
    src.write_text(CORPUS)
    out = tmp_path / "corpus.bmx"
    rc = cli.main(["build", str(src), "-o", str(out)])
    assert rc == 0
    return src, out


def test_every_export_resolves():
    missing = [name for name in bmatrix.__all__ if not hasattr(bmatrix, name)]
    assert missing == []


def test_build_reports_counts(built, capsys):
    src, out = built
    rc = cli.main(["stats", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "triples            4" in captured
    assert ("subject tree       side 16, levels 2, leaf 8x8, vocab cols-full,"
            " sampling default") in captured
    assert "B/triple" in captured
    assert captured.count(" B/term") == 4      # one line per dictionary pool
    assert out.stat().st_size > 0


def test_build_skips_bad_lines(tmp_path, capsys):
    src = tmp_path / "bad.nt"
    src.write_text("<a> <p> <b> .\nbroken\n")
    out = tmp_path / "bad.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "line 2" in err
    assert f"parsed {src}: 1 statements, 1 bad lines" in err
    assert re.search(r"^phases: parse \d+\.\d{3} s, dictionary \d+\.\d{3} s,"
                     r" sort\+trees \d+\.\d{3} s, save \d+\.\d{3} s; [\d,]+ triples/s$",
                     err, re.M)
    assert cli.main(["build", str(src), "-o", str(out), "--strict"]) == 1
    err = capsys.readouterr().err
    assert "error: line 2:" in err and "Traceback" not in err


def test_build_defaults_are_the_k2config_defaults():
    args = cli.build_parser().parse_args(["build", "x", "-o", "y"])
    assert cli.build_config(args) == K2Config()


def test_build_does_not_depend_on_the_hash_seed(tmp_path):
    # the dictionary is built from sets, whose order follows the hash seed
    src = tmp_path / "terms.nt"
    src.write_text(CORPUS + "".join(
        f'<http://x/n{i % 97}> <http://x/p{i % 7}> "v{i % 89}"@en .\n'
        f"_:b{i % 53} <http://x/q> <http://x/n{i % 61}> .\n" for i in range(400)))
    env = dict(os.environ, PYTHONPATH=str(Path(bmatrix.__file__).parents[1]))
    stores = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.bmx"
        subprocess.run([sys.executable, "-m", "bmatrix.cli", "build", str(src),
                        "-o", str(out)], env=dict(env, PYTHONHASHSEED=seed),
                       check=True, capture_output=True, timeout=120)
        stores.append(out.read_bytes())
    assert stores[0] == stores[1]


def test_build_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.nt"
    src.write_text("")
    out = tmp_path / "empty.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    built_out = capsys.readouterr().out
    assert "triples            0" in built_out
    assert cli.main(["stats", str(out)]) == 0
    stats_out = capsys.readouterr().out
    assert ("object tree        side 16, levels 2, leaf 8x8, vocab cols-full,"
            " sampling default") in stats_out
    assert stats_out.count("leaf ids: widths -, chunks 0") == 2
    # no triples and no terms: every ratio is "-", not bytes over 1
    for report in (built_out, stats_out):
        ratios = re.findall(r"(\S+) B/(?:triple|term)$", report, re.M)
        assert ratios == ["-"] * 10
    assert cli.main(["query", str(out), "?", "?", "?", "--count-only"]) == 0


def test_leaf_side_1_builds_without_a_vocabulary(built, tmp_path, capsys):
    src, out = built
    assert cli.main(["query", str(out), "?", "?", "?"]) == 0
    expected = capsys.readouterr().out
    plain = tmp_path / "plain.bmx"
    assert cli.main(["build", str(src), "-o", str(plain), "--leaf", "1"]) == 0
    assert cli.main(["stats", str(plain)]) == 0
    stats = capsys.readouterr().out
    assert ("subject tree       side 4, levels 4, leaf 1x1, vocab none,"
            " sampling default") in stats
    assert stats.count("leaf ids: none") == 2
    assert cli.main(["query", str(plain), "?", "?", "?"]) == 0
    assert capsys.readouterr().out == expected


def test_stats_prints_each_trees_dac_levels(tmp_path, capsys):
    rng = random.Random(9)
    triples = [(rng.randrange(1, 400), rng.randrange(1, 20), rng.randrange(1, 400))
               for _ in range(3000)]
    store = TripleStore.build(triples, 400, 400, 20)
    out = tmp_path / "ids.bmx"
    store_mod.save(str(out), store)
    assert cli.main(["stats", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, tree in (("subject tree", store.subject_tree),
                       ("object tree", store.object_tree)):
        at = next(i for i, line in enumerate(lines) if line.startswith(name))
        widths = "+".join(str(w) for w, _, _ in tree.leaf_ids.levels)
        chunks = "/".join(str(len(flags)) for _, _, flags in tree.leaf_ids.levels)
        assert lines[at + 1].split() == ["leaf", "ids:", "widths", widths + ",",
                                         "chunks", chunks]
    assert len(store.subject_tree.leaf_ids.levels) > 1


def test_query_by_term(built, capsys):
    _, out = built
    rc = cli.main(["query", str(out), "?", "<http://x/p1>", "?"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert sorted(lines) == [
        "<http://x/a> <http://x/p1> <http://x/b> .",
        "<http://x/b> <http://x/p1> <http://x/a> .",
    ]


def test_query_literal_and_tsv(built, capsys):
    _, out = built
    rc = cli.main(["query", str(out), "?", "?", '"hello world"@en', "--tsv"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.split("\t") == ["http://x/a", "http://x/p2", '"hello world"@en']


def test_query_ids_and_numeric_form(built, capsys):
    _, out = built
    assert cli.main(["query", str(out), "#1", "?", "?", "--ids"]) == 0
    id_lines = capsys.readouterr().out.strip().splitlines()
    assert all(tok.startswith("#") for line in id_lines for tok in line.split())
    assert cli.main(["query", str(out), "?", "?", "?", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_query_unknown_term_is_not_an_error(built, capsys):
    _, out = built
    rc = cli.main(["query", str(out), "<http://x/zzz>", "?", "?", "--count-only"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "0"
    assert "term not found" in captured.err
    # out-of-range numeric ids take the same path
    assert cli.main(["query", str(out), "#999", "?", "?", "--count-only"]) == 0


def test_query_bad_pattern_is_an_error(built, capsys):
    _, out = built
    assert cli.main(["query", str(out), "<unterminated", "?", "?"]) == 1


def test_missing_store_is_an_error(tmp_path, capsys):
    assert cli.main(["stats", str(tmp_path / "nope.bmx")]) == 1
    assert cli.main(["query", str(tmp_path / "nope.bmx"), "?", "?", "?"]) == 1


def test_gzip_build(tmp_path, capsys):
    src = tmp_path / "z.nt.gz"
    src.write_bytes(gzip.compress(CORPUS.encode()))
    out = tmp_path / "z.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    assert cli.main(["query", str(out), "?", "?", "?", "--count-only"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4"


@pytest.mark.parametrize("name, data", [
    ("x.nt", gzip.compress(CORPUS.encode())),     # gzip without the suffix
    ("x.nt.gz", CORPUS.encode()),                 # plain text with the suffix
], ids=["gzip-named-nt", "plain-named-gz"])
def test_gzip_is_told_by_its_magic_bytes_not_the_name(built, tmp_path, name, data):
    _, plain_out = built
    src = tmp_path / name
    src.write_bytes(data)
    out = tmp_path / "named.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == plain_out.read_bytes()
    assert cli.main(["verify", str(out), str(src), "--sample", "10"]) == 0


def test_gzip_build_from_a_pipe(built, tmp_path):
    _, plain_out = built
    fifo = tmp_path / "pipe.nt"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as pipe:
            pipe.write(gzip.compress(CORPUS.encode()))
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        out = tmp_path / "pipe.bmx"
        assert cli.main(["build", str(fifo), "-o", str(out)]) == 0
    finally:
        writer.join(timeout=60)
    assert out.read_bytes() == plain_out.read_bytes()


def test_cut_or_bad_gzip_input_is_a_clean_error(tmp_path, capsys):
    data = gzip.compress(CORPUS.encode() * 50)
    for name, cut in (("cut.nt", data[:len(data) // 2]), ("bad.nt", data[:2] + b"x" * 30)):
        src = tmp_path / name
        src.write_bytes(cut)
        assert cli.main(["build", str(src), "-o", str(tmp_path / "x.bmx")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("options", [[], ["--leaf", "1"], ["--vocab", "cols-rank"]])
def test_space_report_adds_up_to_the_file_size(tmp_path, capsys, options):
    src = tmp_path / "corpus.nt"
    src.write_text(CORPUS)
    out = tmp_path / "corpus.bmx"
    assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
    capsys.readouterr()
    assert cli.main(["stats", str(out)]) == 0
    report = capsys.readouterr().out
    parts = [int(re.search(rf"^  {name} +(\d+) ", report, re.M)[1])
             for name in ("subject_tree", "object_tree", "pred_index", "dictionary")]
    # magic and version (6 bytes) and the CRC32 (4) frame the four parts
    assert sum(parts) + 10 == os.path.getsize(out)


def test_verify_ok(built, capsys):
    src, out = built
    assert cli.main(["verify", str(out), str(src), "--sample", "40"]) == 0
    assert "verify OK" in capsys.readouterr().out


def test_verify_mismatch_exits_2(built, tmp_path, capsys):
    _, out = built
    other = tmp_path / "other.nt"
    other.write_text("<http://x/a> <http://x/p1> <http://x/qq> .\n")
    assert cli.main(["verify", str(out), str(other)]) == 2
    assert "MISMATCH" in capsys.readouterr().err


def test_bench_report(built, tmp_path, capsys):
    src, out = built
    qfile = tmp_path / "queries.txt"
    qfile.write_text(
        "#1 #1 #2\n"
        "#1 #1 ?\n"
        "? #1 #1\n"
        "? #2 ?\n"
        "#1 ? #2\n"
        "#1 ? ?\n"
        "? ? #1\n"
        "? ? ?\n")
    rc = cli.main(["bench", str(out), str(qfile), "--min-reps", "2",
                   "--min-time", "0.01"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split("\t")
    assert header == ["shape", "family", "queries", "results", "passes",
                      "us_per_query", "us_per_result"]
    shapes = [line.split("\t")[0] for line in lines[1:]]
    assert shapes == ["spo", "sp?", "?po", "?p?", "s?o", "s??", "??o", "???",
                      "TOTAL"]
    families = [line.split("\t")[1] for line in lines[1:-1]]
    assert families == ["bound-p"] * 4 + ["unbound-p"] * 3 + ["scan"]
    for line in lines[1:-1]:
        fields = line.split("\t")
        assert int(fields[2]) == 1
        assert int(fields[4]) >= 2
        float(fields[5])


def test_bench_decode_times_the_same_results(built, tmp_path, capsys):
    _, out = built
    qfile = tmp_path / "queries.txt"
    qfile.write_text("#1 #1 #2\n? #1 #1\n? #2 ?\n#1 ? ?\n? ? ?\n")
    columns = []
    for extra in ([], ["--decode"]):
        assert cli.main(["bench", str(out), str(qfile), "--min-reps", "1",
                         "--min-time", "0", *extra]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # shape, family, queries, results
        columns.append([line.split("\t")[:4] for line in lines])
    assert columns[0] == columns[1]
    assert [row[0] for row in columns[0][1:]] == ["spo", "?po", "?p?", "s??", "???",
                                                  "TOTAL"]


def test_bench_skips_unknown_terms(built, tmp_path, capsys):
    _, out = built
    qfile = tmp_path / "queries.txt"
    qfile.write_text("<http://x/zzz> ? ?\n#1 ? ?\n\n")
    assert cli.main(["bench", str(out), str(qfile), "--min-reps", "1",
                     "--min-time", "0"]) == 0
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    assert "s??" in captured.out


def test_bench_empty_query_file(built, tmp_path, capsys):
    _, out = built
    qfile = tmp_path / "queries.txt"
    qfile.write_text("")
    assert cli.main(["bench", str(out), str(qfile)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_thresholds_flag(built, tmp_path, capsys):
    _, out = built
    qfile = tmp_path / "q.txt"
    qfile.write_text("#1 ? #1\n")
    assert cli.main(["bench", str(out), str(qfile), "--thresholds", "0,5",
                     "--min-reps", "1", "--min-time", "0"]) == 0
    assert cli.main(["bench", str(out), str(qfile), "--thresholds", "bad"]) == 1


def test_query_store_without_dictionary(tmp_path, capsys):
    path = tmp_path / "ids.bmx"
    store_mod.save(str(path), TripleStore.build([(1, 1, 2), (2, 1, 1)], 2, 2, 1))
    assert cli.main(["query", str(path), "#1", "?", "?"]) == 1
    assert "--ids" in capsys.readouterr().err
    assert cli.main(["query", str(path), "#1", "?", "?", "--ids"]) == 0
    assert capsys.readouterr().out.split() == ["#1", "#1", "#2"]


@pytest.mark.parametrize("bad", [
    "<a> <p>",                      # truncated statement
    '<a> <p> "\\uD800" .',          # a surrogate cannot be saved as UTF-8
    '<a> <p> "\\UFFFFFFFF" .',      # beyond what chr() takes
])
def test_build_skips_unparsable_statement(tmp_path, capsys, bad):
    src = tmp_path / "bad.nt"
    src.write_text(f"<a> <p> <b> .\n{bad}\n<a> <p> <c> .\n")
    out = tmp_path / "bad.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "2 statements, 1 bad lines" in captured.err
    assert "line 2" in captured.err
    assert "triples            2" in captured.out


@pytest.mark.parametrize("options", [
    ["--k1", "1"], ["--k2", "1"], ["--k1-levels", "-1"],
    ["--k1", "300"], ["--k2", "256"], ["--k1-levels", "40000"]])
def test_options_the_store_cannot_hold_are_a_clean_error(tmp_path, capsys, options):
    src, out = tmp_path / "corpus.nt", tmp_path / "corpus.bmx"
    src.write_text(CORPUS)
    assert cli.main(["build", str(src), "-o", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_truncated_store_is_a_clean_error(tmp_path, capsys):
    src = tmp_path / "long.nt"
    src.write_text("".join(
        f"<http://example.org/resource/entity-{i}> <http://x/p{i % 3}> "
        f"<http://example.org/resource/entity-{i * 7 % 200}> .\n"
        for i in range(200)))
    full = tmp_path / "long.bmx"
    assert cli.main(["build", str(src), "-o", str(full)]) == 0
    data = full.read_bytes()
    offsets = section_offsets(full)
    mid_subject_tree = (offsets["subject_tree"] + offsets["object_tree"]) // 2
    cut = tmp_path / "cut.bmx"
    for size in (80, 100, 2000, mid_subject_tree, len(data) - 1):
        # cut, its checksum fails; resealed, the body is shorter than it
        # says (the last cut takes one byte of the object tree, whose read
        # then runs into the checksum)
        for cut_data, message in ((data[:size], "CRC32 checksum does not match"),
                                  (reseal(data[:size]), "truncated input")):
            capsys.readouterr()
            cut.write_bytes(cut_data)
            assert cli.main(["stats", str(cut)]) == 1
            assert message in capsys.readouterr().err
    # resealed, a cut in the middle of the file lands in the dictionary,
    # whose reader may refuse it by another check than the length
    cut.write_bytes(reseal(data[:len(data) // 2]))
    assert cli.main(["stats", str(cut)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_iri_that_reads_like_a_blank_node_is_its_own_term(tmp_path, capsys):
    src = tmp_path / "clash.nt"
    src.write_text('<http://a> <http://p> <_:b> .\n_:b <http://p> "x" .\n')
    out = tmp_path / "clash.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    assert "subject-objects    0" in capsys.readouterr().out
    assert cli.main(["query", str(out), "?", "?", "?"]) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == [
        '<http://a> <http://p> <_:b> .', '_:b <http://p> "x" .']
    assert cli.main(["query", str(out), "?", "?", "<_:b>", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.main(["query", str(out), "_:b", "?", "?", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_non_ascii_digit_id_is_a_bad_pattern(built, capsys):
    _, out = built
    assert cli.main(["query", str(out), "#²", "?", "?"]) == 1
    assert "bad pattern" in capsys.readouterr().err


def test_bench_skips_non_ascii_digit_id(built, tmp_path, capsys):
    _, out = built
    qfile = tmp_path / "queries.txt"
    qfile.write_text("#² ? ?\n#1 ? ?\n")
    assert cli.main(["bench", str(out), str(qfile), "--min-reps", "1",
                     "--min-time", "0"]) == 0
    captured = capsys.readouterr()
    assert ":1: skipped" in captured.err
    assert "s??" in captured.out


POOL_TERMS = [f"http://x/t{i:02d}" for i in range(38)] + [
    "http://x/café", "http://x/snow☃"]


def _pool_store(tmp_path):
    """A built store whose shared pool spans three buckets, and where that
    pool sits in the file: (bytes, offsets position, blob position,
    bucket offsets, the pool's terms as bytes)."""
    src = tmp_path / "pool.nt"
    terms = POOL_TERMS
    src.write_text("".join(f"<{a}> <http://x/p> <{b}> .\n"
                           for a, b in zip(terms, terms[1:] + terms[:1])))
    path = tmp_path / "pool.bmx"
    assert cli.main(["build", str(src), "-o", str(path)]) == 0
    data = bytearray(path.read_bytes())
    at = section_offsets(path)["dictionary"]
    count = int.from_bytes(data[at:at + 8], "little")
    assert count == len(terms)
    offsets = [int.from_bytes(data[at + 8 + 8 * i:at + 16 + 8 * i], "little")
               for i in range(4)]
    encoded = sorted(t.encode() for t in terms)
    blob_at = at + 8 + 8 * len(offsets)
    assert (bytes(data[at:blob_at + offsets[-1]])
            == pfc_reference.pool_bytes(encoded))
    return data, at + 8, blob_at, offsets, encoded


def _set_offset(data, offsets_at, i, value):
    data[offsets_at + 8 * i:offsets_at + 8 * i + 8] = value.to_bytes(8, "little")


def _corrupt_pool(data, offsets_at, blob_at, offsets, terms, fault):
    if fault == "offsets decrease":
        _set_offset(data, offsets_at, 1, offsets[2] + 1)
    elif fault == "offset past the blob":
        _set_offset(data, offsets_at, 2, offsets[3] + 1)
    elif fault == "offsets do not start at 0":
        _set_offset(data, offsets_at, 0, 1)
    elif fault == "blob length past the file":
        _set_offset(data, offsets_at, 3, 1 << 62)
    elif fault == "invalid UTF-8":
        data[blob_at + offsets[-1] - 1] = 0xFF
    elif fault == "shared prefix past the previous term":
        # the second term's shared-prefix vbyte follows the header term
        data[blob_at + 1 + len(terms[0])] = len(terms[0]) + 1
    elif fault == "vbyte past its bucket":
        # the first bucket ends after the second term's shared-prefix vbyte
        _set_offset(data, offsets_at, 1, 1 + len(terms[0]) + 1)
    else:
        if fault == "two terms swapped":
            terms[5], terms[6] = terms[6], terms[5]
        else:  # a term ends inside its "é", and the next term starts there
            terms[-2:] = [terms[-2] + b"caf\xc3", b"\xa9!"]
        pool_at = offsets_at - 8
        data[pool_at:blob_at + offsets[-1]] = pfc_reference.pool_bytes(terms)


@pytest.mark.parametrize("fault, message", [
    ("offsets decrease", "not ascending"),
    ("offset past the blob", "not ascending"),
    ("offsets do not start at 0", "not ascending"),
    ("blob length past the file", "truncated input"),
    ("invalid UTF-8", "not valid UTF-8"),
    ("boundary inside a character", "starts inside a character"),
    ("shared prefix past the previous term", "longer than the previous term"),
    ("vbyte past its bucket", "vbyte runs past its bucket"),
    ("two terms swapped", "not in strictly ascending order")])
def test_corrupt_dictionary_pool_is_a_clean_error(tmp_path, capsys, fault,
                                                   message):
    data, offsets_at, blob_at, offsets, terms = _pool_store(tmp_path)
    _corrupt_pool(data, offsets_at, blob_at, offsets, terms, fault)
    bad = tmp_path / "bad.bmx"
    bad.write_bytes(reseal(data))
    capsys.readouterr()
    assert cli.main(["stats", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("with_dictionary", [True, False])
def test_store_survives_every_cut_and_huge_count(built, capsys, with_dictionary):
    """Every truncation is refused, and 2^62 written at any offset of the
    body, then resealed, gives a clean error or a store that loads; no
    exception escapes."""
    _, out = built
    if not with_dictionary:
        store_mod.save(str(out), TripleStore.build([(1, 1, 2), (2, 1, 1)], 2, 2, 1))
    header = slice(0, section_offsets(out)["dictionary"])   # magic, version
    data = out.read_bytes()
    for size in range(len(data)):
        out.write_bytes(data[:size])
        assert cli.main(["stats", str(out)]) == 1, size
    huge = (1 << 62).to_bytes(8, "little")
    for at in range(len(data) - 4 - 7):
        corrupt = reseal(data[:at] + huge + data[at + 8:])
        out.write_bytes(corrupt)
        refused = (1,) if corrupt[header] != data[header] else (0, 1)
        assert cli.main(["stats", str(out)]) in refused, at
    capsys.readouterr()


@pytest.mark.parametrize("field, message", [
    ("zero k", "tree geometry does not add up"),
    ("run start past the columns", "predicate index run starts do not rise")])
@pytest.mark.parametrize("command", [["stats"], ["query", "?", "?", "?", "--ids"]])
def test_zero_k_or_period_is_a_clean_error(built, capsys, field, message, command):
    _, out = built
    store = store_mod.load(str(out))[0]
    tree, offsets = store.subject_tree, section_offsets(out)
    # the second run start follows the index's start count and first start
    at, width, value, new = {
        "zero k": (tree_offsets(tree, offsets["subject_tree"])["ks"], 1,
                   tree.ks[0], 0),
        "run start past the columns": (offsets["pred_index"] + 8 + 8, 8,
                                       store.pred_index.starts[1], store.n + 1)}[field]
    data = bytearray(out.read_bytes())
    assert int.from_bytes(data[at:at + width], "little") == value
    data[at:at + width] = new.to_bytes(width, "little")
    out.write_bytes(reseal(data))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("fault, message", [
    ("leaf id past the vocabulary", "leaf id 255 is past the"),
    # the flag makes the reader take the bytes after the DAC for more
    # levels, until a level's flag word has set bits past its one flag
    ("level continues past the last", "set bits past the 1 bits"),
    ("length 2^62", "truncated input")])
@pytest.mark.parametrize("command", [["stats"], ["query", "?", "?", "?"]])
def test_corrupt_leaf_ids_are_a_clean_error(built, capsys, fault, message, command):
    _, out = built
    tree = store_mod.load(str(out))[0].subject_tree
    fields = tree_offsets(tree, section_offsets(out)["subject_tree"])
    at = fields["dac"]
    dac = tree.leaf_ids
    n = len(dac)
    # every leaf id is 0: one level of 1-bit chunks
    assert (dac.widths, tree.vocab.count) == ([1], 1) and n <= 64
    chunks_at = at + 8 + 1              # length, the level's width
    flags_at = chunks_at + 1            # a level's flag words follow its chunks
    data = bytearray(out.read_bytes())
    if fault == "leaf id past the vocabulary":
        # the same ids as one level of 8-bit chunks, the first one 255
        dac_bytes = (struct.pack("<QB", n, 8) + bytes([255] + [0] * (n - 1))
                     + bytes(8))
        data[at:fields["vocab"]] = dac_bytes
    elif fault == "level continues past the last":
        data[flags_at] |= 1
    else:
        data[at:at + 8] = (1 << 62).to_bytes(8, "little")
    out.write_bytes(reseal(data))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["stats"], ["query", "?", "?", "?"]])
def test_leaf_id_bits_past_bit_63_are_a_clean_error(built, capsys, command):
    """The subject tree's leaf ids as a 3-bit DAC in which id 0 is 21 zero
    chunks and then a chunk of 2, whose bits pass bit 63."""
    _, out = built
    tree = store_mod.load(str(out))[0].subject_tree
    fields = tree_offsets(tree, section_offsets(out)["subject_tree"])
    n = len(tree.leaf_ids)
    assert n <= 64                      # level 0's flags fit one word

    def level(chunks, flags):
        return bytes((3,)) + pack_fixed(chunks, 3) + flags.to_bytes(8, "little")

    dac = (struct.pack("<Q", n) + level([0] * n, 1)
           + level([0], 1) * 20 + level([2], 0))
    data = out.read_bytes()
    out.write_bytes(reseal(data[:fields["dac"]] + dac + data[fields["vocab"]:]))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bits past bit 63" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
def test_old_store_version_asks_for_a_rebuild(built, capsys, version):
    _, out = built
    data = bytearray(out.read_bytes())
    data[4:6] = version.to_bytes(2, "little")
    out.write_bytes(bytes(data))
    assert cli.main(["stats", str(out)]) == 1
    assert "rebuild" in capsys.readouterr().err


@pytest.mark.parametrize("tree", ["subject_tree", "object_tree"])
@pytest.mark.parametrize("command", [["stats"], ["query", "<http://x/c>", "?", "?"],
                                     ["query", "?", "?", "?"]])
def test_dictionary_counts_must_match_the_store(built, capsys, tree, command):
    """A tree with one row fewer than the dictionary has terms for is
    refused at load, so no dictionary id can fall outside the store."""
    _, out = built
    store = store_mod.load(str(out))[0]
    at = tree_offsets(getattr(store, tree), section_offsets(out)[tree])["rows"]
    data = bytearray(out.read_bytes())
    rows = getattr(store, tree).n_rows
    assert int.from_bytes(data[at:at + 8], "little") == rows
    data[at:at + 8] = (rows - 1).to_bytes(8, "little")
    out.write_bytes(reseal(data))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "are not the store's" in err


def test_a_store_without_a_dictionary_answers_only_by_id(tmp_path, capsys):
    out = tmp_path / "ids.bmx"
    store_mod.save(str(out), TripleStore.build([(1, 1, 2), (2, 1, 1)], 2, 2, 1))
    assert cli.main(["query", str(out), "?", "?", "?"]) == 1
    assert "saved without a dictionary; use --ids" in capsys.readouterr().err
    assert cli.main(["query", str(out), "#1", "?", "?", "--ids"]) == 0
    assert capsys.readouterr().out == "#1 #1 #2\n"


@pytest.mark.parametrize("options", [[], ["--leaf", "1"]])
@pytest.mark.parametrize("command", [["stats"], ["query", "?", "?", "?"]])
def test_tree_bits_past_the_levels_are_a_clean_error(built, capsys, options, command):
    """A tree-bit length one above what the levels take is refused, not
    read with the extra bit ignored."""
    src, out = built
    assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
    tree = store_mod.load(str(out))[0].subject_tree
    at = tree_offsets(tree, section_offsets(out)["subject_tree"])["tree bits"]
    data = bytearray(out.read_bytes())
    assert int.from_bytes(data[at:at + 8], "little") == len(tree.tree_bits)
    data[at:at + 8] = (len(tree.tree_bits) + 1).to_bytes(8, "little")
    out.write_bytes(reseal(data))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{len(tree.tree_bits) + 1} tree bits, but the levels take" in err


@pytest.mark.parametrize("options", [[], ["--vocab", "cols-rank"], ["--vocab", "plain"],
                                     ["--leaf", "2"], ["--leaf", "1"]])
def test_set_padding_bits_are_a_clean_error(built, capsys, options):
    """Setting any bit past the length of a packed field of either tree (its
    tree bits, DAC chunks and flags, vocabulary leaves, column flags and
    rows) is refused, not ignored: ones would count it."""
    src, out = built
    assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
    store = store_mod.load(str(out))[0]
    offsets = section_offsets(out)
    data = out.read_bytes()
    padding = [bit for name in ("subject_tree", "object_tree")
               for at, n_bits, n_bytes in packed_fields(getattr(store, name), offsets[name])
               for bit in range(8 * at + n_bits, 8 * (at + n_bytes))]
    assert padding and all(data[bit // 8] >> bit % 8 & 1 == 0 for bit in padding)
    for bit in padding:
        flipped = bytearray(data)
        flipped[bit // 8] |= 1 << bit % 8
        out.write_bytes(reseal(flipped))
        capsys.readouterr()
        assert cli.main(["stats", str(out)]) == 1, (options, bit)
        assert "set bits past the" in capsys.readouterr().err, (options, bit)


def test_trailing_bytes_are_an_error(built, capsys):
    _, out = built
    data = out.read_bytes()
    out.write_bytes(reseal(data[:-4] + b"junk" + data[-4:]))
    assert cli.main(["stats", str(out)]) == 1
    assert "trailing bytes" in capsys.readouterr().err


def test_bit_flips_never_escape_main(tmp_path, capsys):
    """1,000 seeded single-bit flips of a small store, built with the
    cols-full vocabulary, the cols-rank one and none, each resealed so that
    the parser meets it: stats and three queries on each exit 0 or 1 (with
    a message), and never raise. A resealed flip is a crafted file, so an
    exit-0 answer may still differ from the intact store's."""
    rng = random.Random(1)
    triples = set()
    while len(triples) < 31:
        triples.add((f"<http://x/e{rng.randrange(8)}>",
                     f"<http://x/p{rng.randrange(4)}>",
                     f"<http://x/e{rng.randrange(8)}>"))
    src, out = tmp_path / "small.nt", tmp_path / "small.bmx"
    src.write_text("".join(f"{s} {p} {o} .\n" for s, p, o in sorted(triples)))
    commands = [["stats", str(out)], ["query", str(out), "?", "?", "?"],
                ["query", str(out), "<http://x/e1>", "?", "?"],
                ["query", str(out), "?", "?", "<http://x/e2>"]]
    for options in (["--vocab", "cols-full"], ["--vocab", "cols-rank"], ["--leaf", "1"]):
        assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
        data = out.read_bytes()
        assert [cli.main(c) for c in commands] == [0, 0, 0, 0]
        for _ in range(1000):
            bit = rng.randrange(8 * len(data))
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << bit % 8
            out.write_bytes(reseal(flipped))
            for command in commands:
                capsys.readouterr()
                rc = cli.main(command)
                assert rc in (0, 1), (options, bit, command)
                assert rc == 0 or capsys.readouterr().err.strip(), (options, bit, command)


@pytest.mark.parametrize("options", [["--vocab", "cols-full"], ["--vocab", "cols-rank"],
                                     ["--vocab", "plain"], ["--leaf", "2"], ["--leaf", "1"]])
def test_every_flipped_bit_is_refused(built, capsys, options):
    """Every single-bit flip of a store makes bmx stats exit 1: in the magic
    as not a store file, in the version with the rebuild request, and
    anywhere else, a DAC flag or a vocabulary's column flag included, with
    the checksum error."""
    src, out = built
    assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
    data = out.read_bytes()
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        out.write_bytes(bytes(flipped))
        capsys.readouterr()
        assert cli.main(["stats", str(out)]) == 1, (options, bit)
        message = ("bad magic" if bit < 32 else "rebuild the store" if bit < 48
                   else "the store file is damaged: its CRC32 checksum")
        assert message in capsys.readouterr().err, (options, bit)


def test_no_header_bit_is_ignored(built, capsys):
    """Every single-bit flip of the store header, and of each tree's header
    (its bytes before the tree bits), makes bmx stats or bmx query exit 1
    with an error or changes what they print: no header byte is skipped by
    the reader or only repeats another field. The store is built once with
    the default leaf vocabulary and once without one (leaf side 1)."""
    src, out = built
    commands = [["stats", str(out)], ["query", str(out), "?", "?", "?"]]

    def outputs():
        """Each command's exit code and output, or None once one is refused."""
        got = []
        for command in commands:
            capsys.readouterr()
            rc = cli.main(command)
            captured = capsys.readouterr()
            if rc == 1 and captured.err.startswith("error: "):
                return None
            got.append((rc, captured.out))
        return got

    silent = []
    for options in ([], ["--leaf", "1"]):
        assert cli.main(["build", str(src), "-o", str(out), *options]) == 0
        data = out.read_bytes()
        intact = outputs()
        assert [rc for rc, _ in intact] == [0, 0]
        store = store_mod.load(str(out))[0]
        offsets = section_offsets(out)
        headers = [(0, offsets["dictionary"])]      # magic, version
        for name in ("subject_tree", "object_tree"):
            fields = tree_offsets(getattr(store, name), offsets[name])
            headers.append((offsets[name], fields["tree bits"]))
        for lo, hi in headers:
            for bit in range(8 * lo, 8 * hi):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 1 << bit % 8
                out.write_bytes(reseal(flipped))
                if outputs() == intact:
                    silent.append((options, bit))
    assert silent == []


# -- two byte ranges at once -----------------------------------------------------

SPLIT_CORPUS = CORPUS + "".join(
    f'<http://x/n{i % 97}> <http://x/p{i % 7}> "v{i % 89}"@en .\n'
    f"_:b{i % 53} <http://x/q> <http://x/n{i % 61}> .\n"
    + ("<http://x/bad> <http://x/p>\n" if i % 37 == 5 else "") for i in range(300))


def _parse_report(err: str, path) -> str:
    (line,) = [line for line in err.splitlines() if line.startswith(f"parsed {path}:")]
    return line[len(f"parsed {path}:"):]


def test_plain_gzip_and_split_inputs_build_identical_stores(tmp_path, capsys, cuts):
    lines = SPLIT_CORPUS.splitlines(keepends=True)
    plain, zipped = tmp_path / "all.nt", tmp_path / "all.nt.gz"
    plain.write_text(SPLIT_CORPUS)
    zipped.write_bytes(gzip.compress(SPLIT_CORPUS.encode()))
    head, tail = tmp_path / "head.nt", tmp_path / "tail.nt"
    head.write_text("".join(lines[:250]))
    tail.write_text("".join(lines[250:]))
    stores, reports = [], []
    for inputs in ([plain], [zipped], [head, tail]):
        out = tmp_path / "out.bmx"
        assert cli.main(["build", *map(str, inputs), "-o", str(out)]) == 0
        stores.append(out.read_bytes())
        err = capsys.readouterr().err
        reports.append([_parse_report(err, path) for path in inputs])
        assert multiprocessing.active_children() == []
    # the plain files took two ranges; the gzip one took one
    assert cuts[0] is not None and cuts[1:] != [None, None]
    assert stores[0] == stores[1] == stores[2]
    want = []
    for part in (lines, lines[:250], lines[250:]):
        errors = []
        n = len(list(ntriples.iter_triples(part, errors=errors)))
        want.append(f" {n} statements, {len(errors)} bad lines")
    assert reports == [want[:1], want[:1], want[1:]]
    assert want[0] == " 605 statements, 8 bad lines"


@pytest.mark.parametrize("bad_half", [0, 1])
def test_strict_build_fails_in_either_half(tmp_path, capsys, cuts, bad_half):
    lines = CORPUS.splitlines(keepends=True) * 40
    bad_at = len(lines) // 4 + bad_half * len(lines) // 2
    lines[bad_at] = "<http://x/a> <http://x/p>\n"
    src = tmp_path / "strict.nt"
    src.write_text("".join(lines))
    assert cli.main(["build", str(src), "-o", str(tmp_path / "x.bmx"), "--strict"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {bad_at + 1}: ") and "Traceback" not in err
    assert cuts[-1] is not None
    assert multiprocessing.active_children() == []


def test_a_dead_parse_worker_is_a_clean_error(tmp_path, capsys, cuts, monkeypatch):
    src = tmp_path / "x.nt"
    src.write_text(CORPUS * 40)
    parent, range_blocks = os.getpid(), ntriples._range_blocks

    def dies_in_the_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return range_blocks(*args)

    monkeypatch.setattr(ntriples, "_range_blocks", dies_in_the_worker)
    assert cli.main(["build", str(src), "-o", str(tmp_path / "x.bmx")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert cuts[-1] is not None
    assert multiprocessing.active_children() == []
