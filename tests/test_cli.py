import gzip

import pytest

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
