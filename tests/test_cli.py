import gzip
import io

import pytest

import pfc_reference
from bmatrix import cli, store as store_mod
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


def test_build_reports_counts(built, capsys):
    src, out = built
    rc = cli.main(["stats", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "triples            4" in captured
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
    assert cli.main(["build", str(src), "-o", str(out), "--strict"]) == 1


def test_build_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.nt"
    src.write_text("")
    out = tmp_path / "empty.bmx"
    assert cli.main(["build", str(src), "-o", str(out)]) == 0
    assert "triples            0" in capsys.readouterr().out
    assert cli.main(["query", str(out), "?", "?", "?", "--count-only"]) == 0


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


def test_truncated_store_is_a_clean_error(tmp_path, capsys):
    src = tmp_path / "long.nt"
    src.write_text("".join(
        f"<http://example.org/resource/entity-{i}> <http://x/p{i % 3}> "
        f"<http://example.org/resource/entity-{i * 7 % 200}> .\n"
        for i in range(200)))
    full = tmp_path / "long.bmx"
    assert cli.main(["build", str(src), "-o", str(full)]) == 0
    data = full.read_bytes()
    cut = tmp_path / "cut.bmx"
    for size in (80, 100, 2000, len(data) // 2):
        capsys.readouterr()
        cut.write_bytes(data[:size])
        assert cli.main(["stats", str(cut)]) == 1
        assert "truncated input" in capsys.readouterr().err


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
    at = 4 + 2 + 2 + 64            # magic, version, widths, header counts
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
    bad.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli.main(["stats", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("with_dictionary", [True, False])
def test_store_survives_every_cut_and_huge_count(built, capsys, with_dictionary):
    """Every truncation is refused, and 2^62 written at any offset gives a
    clean error or a store that loads; no exception escapes."""
    _, out = built
    if not with_dictionary:
        store_mod.save(str(out), TripleStore.build([(1, 1, 2), (2, 1, 1)], 2, 2, 1))
    data = out.read_bytes()
    for size in range(len(data)):
        out.write_bytes(data[:size])
        assert cli.main(["stats", str(out)]) == 1, size
    huge = (1 << 62).to_bytes(8, "little")
    for at in range(len(data) - 7):
        corrupt = data[:at] + huge + data[at + 8:]
        out.write_bytes(corrupt)
        # bytes 8-55 hold the five header counts and the rank period, which
        # must match the sections; the merge thresholds after them may be 2^62
        refused = (1,) if corrupt[8:56] != data[8:56] else (0, 1)
        assert cli.main(["stats", str(out)]) in refused, at
    capsys.readouterr()


@pytest.mark.parametrize("field, message", [
    ("zero k", "tree geometry does not add up"),
    ("zero period", "predicate index period 0")])
@pytest.mark.parametrize("command", [["stats"], ["query", "?", "?", "?", "--ids"]])
def test_zero_k_or_period_is_a_clean_error(built, capsys, field, message, command):
    _, out = built
    store, dictionary = store_mod.load(str(out))
    sections = []
    for section in (dictionary, store.pred_index):
        buf = io.BytesIO()
        section.write(buf)
        sections.append(len(buf.getvalue()))
    pred_index_at = 4 + 2 + 2 + 64 + sections[0]
    tree = store.subject_tree
    # the subject tree's ks follow its stages, leaf bytes, dims and depth
    ks_at = pred_index_at + sections[1] + 1 + 3 * len(tree.config.stages) + 4 + 24 + 2
    at, width, value = {"zero k": (ks_at, 1, tree.ks[0]),
                        "zero period": (pred_index_at + 8, 8, store.pred_index.period)}[field]
    data = bytearray(out.read_bytes())
    assert int.from_bytes(data[at:at + width], "little") == value
    data[at:at + width] = bytes(width)
    out.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli.main([command[0], str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_version_1_store_asks_for_a_rebuild(built, capsys):
    _, out = built
    data = bytearray(out.read_bytes())
    data[4:6] = (1).to_bytes(2, "little")
    out.write_bytes(bytes(data))
    assert cli.main(["stats", str(out)]) == 1
    assert "rebuild" in capsys.readouterr().err


def test_trailing_bytes_are_an_error(built, capsys):
    _, out = built
    out.write_bytes(out.read_bytes() + b"junk")
    assert cli.main(["stats", str(out)]) == 1
    assert "trailing bytes" in capsys.readouterr().err
