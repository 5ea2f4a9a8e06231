import gzip
import multiprocessing
import random
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest

import ntriples_reference as reference
from bmatrix import ntriples
from bmatrix.ntriples import (ParseError, RawTriple, format_triple, iter_file,
                              iter_triples, parse_line)


def test_minimal_statement():
    t = parse_line("<a> <p> <b> .")
    assert t == RawTriple("a", "p", "b")


def test_language_literal():
    t = parse_line('<a> <p> "x"@en .')
    assert t.object == '"x"@en'


def test_typed_literal():
    t = parse_line('<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert t.object == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_blank_nodes_and_spacing():
    t = parse_line("_:b1\t<p>  _:x.y .")
    assert t.subject == "_:b1"
    assert t.object == "_:x.y"


def test_comments_and_blank_lines():
    assert parse_line("# comment") is None
    assert parse_line("   ") is None
    assert parse_line("<a> <p> <b> . # trailing") == RawTriple("a", "p", "b")


def test_escapes_decoded():
    t = parse_line(r'<a> <p> "line\nbreak A \"q\"" .')
    assert t.object == '"line\nbreak A "q""'
    t = parse_line(r"<aA> <p> <b> .")
    assert t.subject == "aA"


def test_malformed_lines_reported_not_fatal():
    lines = [
        "<a> <p> <b> .",
        "bad line",
        "<a> <p> <b>",          # missing dot
        '<a> <p> "open .',      # unterminated literal
        '"lit" <p> <b> .',      # literal subject
        "<a> _:b <c> .",        # bnode predicate
        "<a> <p> <b> . junk",
        "<a> <p> <b> .",
        "<a> <p>",              # truncated statements
        "<a>",
        "<a> ",
    ]
    errors = []
    triples = list(iter_triples(lines, errors=errors))
    assert len(triples) == 2
    assert len(errors) == 9
    assert [e.line_no for e in errors] == [2, 3, 4, 5, 6, 7, 9, 10, 11]


def test_strict_mode_raises():
    with pytest.raises(ParseError):
        list(iter_triples(["<a> <p> <b> .", "nope"], strict=True))


def test_duplicates_preserved():
    lines = ["<a> <p> <b> ."] * 3
    assert len(list(iter_triples(lines))) == 3


def test_round_trip_identity():
    lines = [
        "<a> <p> <b> .",
        '<a> <p> "x"@en-GB .',
        '<a> <p> "tab\\there \\\\ and \\"quotes\\"" .',
        '<s> <p> "5.5"^^<http://t/int> .',
        "_:n1 <p> _:n2 .",
        '<u\\u00e9> <p> "caf\\u00e9\\n" .',
    ]
    first = list(iter_triples(lines, strict=True))
    formatted = [format_triple(t) for t in first]
    second = list(iter_triples(formatted, strict=True))
    assert first == second


def numbered_triples(blocks) -> list[RawTriple]:
    """iter_file's (terms, numbers) blocks as triples of terms."""
    terms, triples = [], []
    for new, numbers in blocks:
        assert numbers.dtype == np.int32 and numbers.shape[1:] == (3,)
        terms += new
        triples += (RawTriple(*map(terms.__getitem__, row)) for row in numbers.tolist())
    return triples


def file_triples(path, **kwargs) -> list[RawTriple]:
    """iter_file's statements, as triples of terms."""
    return numbered_triples(iter_file(str(path), **kwargs))


def test_gzip_input(tmp_path):
    plain = tmp_path / "x.nt"
    plain.write_text("<a> <p> <b> .\n")
    zipped = tmp_path / "x.nt.gz"
    zipped.write_bytes(gzip.compress(b"<a> <p> <c> .\n"))
    assert file_triples(plain)[0].object == "b"
    assert file_triples(zipped)[0].object == "c"


def test_bad_utf8_is_a_diagnostic(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_bytes(b"<a> <p> <b> .\n<a> <p> \xff\xfe .\n<a> <p> <c> .\n")
    errors = []
    triples = file_triples(path, errors=errors)
    # one block: the bad line is named, and the block's other lines kept
    assert triples == [RawTriple("a", "p", "b"), RawTriple("a", "p", "c")]
    assert len(errors) == 1 and errors[0].line_no == 2
    assert errors[0].message == "invalid UTF-8 (invalid start byte)"


@pytest.mark.parametrize("line", [
    r'<a> <p> "\u+0E9" .',          # int(..., 16) takes a sign,
    r'<a> <p> "\u00_E" .',          # underscores,
    r'<a> <p> "\u 0e9" .',          # spaces
    r'<a> <p> "\U0x0000E9" .',      # and a 0x prefix
    r'<a> <p> "\uD800" .',          # surrogates are not scalar values
    r'<a> <p> "\U0000DFFF" .',
    r'<a> <p> "\U00110000" .',      # above 10FFFF
    r'<a> <p> "\UFFFFFFFF" .',
    r'<a\uD83D> <p> <b> .',
    r'<a> <p> "x"^^<t\U0011FFFF> .',
    "<a<b> <p> <c> .",              # "<" is not an IRI character
    "<a> <p> <b<c> .",
])
def test_escape_and_iri_conformance(line):
    with pytest.raises(ParseError):
        parse_line(line)


def test_unicode_escapes_at_the_edges():
    t = parse_line(r'<\U0010FFFF> <p> "퟿é" .')
    assert t.subject == "\U0010FFFF"
    assert t.object == '"퟿é"'


def test_blank_node_label_cannot_be_shortened():
    # the label runs up to a space or tab: "_:a<p>" is the subject and the
    # line lacks an object, whatever shorter label would make it match
    with pytest.raises(ParseError):
        parse_line("_:a<p> <b> .")
    with pytest.raises(ParseError):
        parse_line("<a> <p> _:b.#c")
    assert parse_line("<a> <p> _:b. #c").object == "_:b"
    assert parse_line("_:a.b.c <p> _:d.").subject == "_:a.b.c"


def test_iri_that_reads_like_another_term_keeps_its_brackets():
    t = parse_line(r'<_:b> <\u0022p> <\u003Cx\u003E> .')
    assert t == RawTriple("<_:b>", '<"p>', "<<x>>")
    assert parse_line("_:b <p> _:c .") == RawTriple("_:b", "p", "_:c")
    assert format_triple(t) == r"<_:b> <\u0022p> <\u003Cx\u003E> ."
    assert parse_line(format_triple(t)) == t


def test_language_tags_are_unicode_letters_and_digits():
    assert parse_line('<a> <p> "x"@été-2 .').object == '"x"@été-2'
    assert parse_line('<a> <p> "x"@日本語 .').object == '"x"@日本語'
    for tag in ("²en", "1en", "-en", "", "_en"):
        with pytest.raises(ParseError):
            parse_line(f'<a> <p> "x"@{tag} .')
    with pytest.raises(ParseError):
        parse_line('<a> <p> "x"@en_US .')


# -- differential test against the character scanner ---------------------------

_VALID = [
    "<http://example.org/a> <http://example.org/p> <http://example.org/b> .",
    r'<http://x/café/1> <http://x/p> "naïve ☃ \U0001F600"@en-GB .',
    r'_:b1 <http://x/p> "say \"hi\"\n\t\\ it\'s"'
    r"^^<http://www.w3.org/2001/XMLSchema#string> .",
    "_:n.1\t<p>  _:x.y . # comment",
    '<s> <p> "5"^^<http://t/int> .',
    "<a><p><b>.",
    '<s> <p> "x"@été .',
    '<s> <p> "naïve ☃ ²"@en-x-1 .',
    '  <s>\t<p>\t"tab\there"\t.\t',
    "# a comment line",
    "",
]
_FRAGMENTS = (list('<>"\\_:.@^# \t') + ["é", "☃", "²"]
              + [r"\u", r"\U", r"é", r"\U0001F600", r"\uD800",
                 r"\U0000DFFF", r"\U00110000", r"\u+0E9", r"\u00_E",
                 r"\u 0e9", r"\u-001", r"\U0x0000E9", r"\UFFFFFFFF", r"\n", r"\"", r"\\",
                 r"\x", r"\'"]
              + ["@en", "@é", "@²", "@-", "@en-", "^^", "^^<", "^^<http://t/d>",
                 "_:", "_:b", "<x>", '"'])


def _mutate(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(line))
        op = rng.random()
        if op < 0.55:
            line = line[:i] + rng.choice(_FRAGMENTS) + line[i:]
        elif op < 0.85:
            line = line[:i] + line[i + rng.randint(1, 3):]
        else:
            line = line[:i]
    return line


def _outcome(parse, line):
    try:
        return parse(line)
    except ParseError:
        return "ParseError"
    except (IndexError, OverflowError):
        return "crash"


def _mutated_lines() -> list[str]:
    rng = random.Random(20261018)
    return list(_VALID) + [_mutate(rng, rng.choice(_VALID)) for _ in range(120_000)]


def test_parse_line_matches_reference_scanner_on_mutated_lines():
    lines = _mutated_lines()
    kinds = {"same": 0, "crash fixed": 0, "lax accept fixed": 0,
             "iri kept bracketed": 0}
    accepted = 0
    for line in lines:
        got = _outcome(parse_line, line)
        want = _outcome(lambda x: reference.parse_line(x, conform=True), line)
        assert got == want, line
        lax = _outcome(reference.parse_line, line)
        if lax == want:
            kinds["same"] += 1
        elif isinstance(want, RawTriple):
            # an IRI that reads like a blank node or a literal now keeps
            # its brackets; nothing else about the triple differs
            assert isinstance(lax, RawTriple), line
            for w, old in zip(astuple(want), astuple(lax)):
                assert w == old or w == f"<{old}>", line
            kinds["iri kept bracketed"] += 1
        else:
            # the only differences: the old scanner crashed, or accepted
            # what the grammar excludes, and the parser now rejects
            assert want == "ParseError", line
            assert lax == "crash" or isinstance(lax, RawTriple), line
            kinds["crash fixed" if lax == "crash" else "lax accept fixed"] += 1
        if isinstance(got, RawTriple):
            accepted += 1
            assert parse_line(format_triple(got)) == got, line
            for term in (got.subject, got.predicate, got.object):
                if not term.startswith(('"', "_:")):
                    assert ntriples._escape_iri(term) == reference.escape_iri(term)
    assert accepted > len(lines) // 10
    assert kinds["crash fixed"] > 0 and kinds["lax accept fixed"] > 0
    assert kinds["iri kept bracketed"] > 0


# -- the block reader against the line path ------------------------------------


def _errors(errors):
    return [(e.message, e.line_no, e.line) for e in errors]


def test_block_reader_matches_line_path_on_mutated_lines(tmp_path, monkeypatch):
    rng = random.Random(20261019)
    lines = _mutated_lines()
    data = [line.encode("utf-8") for line in lines]
    for i in rng.sample(range(len(data)), 40):
        data[i] = data[i][:3] + b"\xff" + data[i][3:]     # not UTF-8
    path = tmp_path / "mutated.nt"
    path.write_bytes(b"".join(line + rng.choice((b"\n", b"\r\n")) for line in data))
    want_errors = []
    with path.open("rb") as src:
        want = list(iter_triples(src, errors=want_errors))
    assert len(want) > len(lines) // 10 and len(want_errors) > len(lines) // 10

    numbered_block = ntriples._numbered_block
    took_block_path = []

    def counted(lines, memo):
        out = numbered_block(lines, memo)
        took_block_path.append(out is not None)
        return out

    # one range: a worker's blocks would not be counted here
    monkeypatch.setattr(ntriples, "_second_range", lambda raw: None)
    monkeypatch.setattr(ntriples, "_numbered_block", counted)
    # one line, then a few lines to a block, so that many blocks take each path
    for size, least in ((1, 10_000), (200, 10)):
        monkeypatch.setattr(ntriples, "BLOCK_BYTES", size)
        took_block_path.clear()
        got_errors = []
        assert file_triples(path, errors=got_errors) == want
        assert _errors(got_errors) == _errors(want_errors)
        assert least < sum(took_block_path) < len(took_block_path) - least

    with pytest.raises(ParseError) as line_err, path.open("rb") as src:
        list(iter_triples(src, strict=True))
    blocks = []
    with pytest.raises(ParseError) as block_err:
        blocks += iter_file(str(path), strict=True)
    got = numbered_triples(blocks)
    assert _errors([block_err.value]) == _errors([line_err.value])
    assert got == want[:len(got)]


@pytest.mark.parametrize("char", ["\u2028", "\u0085", "\x0b", "\x0c", "\x1c", "\r"])
def test_line_breaks_only_at_line_feed(tmp_path, monkeypatch, char):
    path = tmp_path / "breaks.nt"
    path.write_bytes(f'<a> <p> "x{char}y" .\n<b> <p> "{char}"@en .\n'.encode("utf-8"))
    want = [RawTriple("a", "p", f'"x{char}y"'), RawTriple("b", "p", f'"{char}"@en')]
    with path.open("rb") as src:
        assert list(iter_triples(src, strict=True)) == want

    def no_line_path(line, line_no=0):
        raise AssertionError("the block took the line path")

    monkeypatch.setattr(ntriples, "parse_line", no_line_path)
    assert file_triples(path, strict=True) == want


def test_crlf_file_parses_like_its_lf_twin(tmp_path, monkeypatch):
    statements = ["<a> <p> <b> .", "# comment", "", '_:x <p> "l\\u00e9"@fr . # c',
                  "_:y <p> _:z.", '<c> <q> "5"^^<http://t/int> .']
    bad = ["<a> <p>", r'<a> <p> "\uD800" .', '<a> <p> "x"@1a .']
    lf, crlf = tmp_path / "lf.nt", tmp_path / "crlf.nt"
    for path, end in ((lf, "\n"), (crlf, "\r\n")):
        path.write_text(end.join(statements + bad + statements) + end, newline="")
    lf_errors, crlf_errors = [], []
    want = file_triples(lf, errors=lf_errors)
    assert len(want) == 8 and len(lf_errors) == 3
    assert file_triples(crlf, errors=crlf_errors) == want
    assert _errors(crlf_errors) == _errors(lf_errors)

    def no_line_path(line, line_no=0):
        raise AssertionError("the block took the line path")

    # with no bad line, a CRLF block needs no line path
    crlf.write_text("\r\n".join(statements) + "\r\n", newline="")
    monkeypatch.setattr(ntriples, "parse_line", no_line_path)
    assert file_triples(crlf) == want[:4]


def test_parse_line_rejects_a_line_break():
    for text in ("<a> <p> <b> .\n", '<a> <p> "x\ny" .', "# c\n<a> <p> <b> .",
                 "<a> <p> <b> .\n<c> <p> <d> ."):
        with pytest.raises(ParseError, match="line break"):
            parse_line(text)


# -- two byte ranges at once -----------------------------------------------------

# every kind of line, bad ones included: a grammar error, a surrogate
# escape, a block that is not UTF-8, a comment, a blank line, and a term
# spelled two ways
_SPLIT_LINES = [
    b"<a> <p> <b> .",
    b"# comment",
    b"",
    b'_:x <p> "l\\u00e9"@fr . # c',
    b"<a> <p>",
    b'<a> <p> "\\uD800" .',
    b"<c> <q> \xff\xfe .",
    b'<c> <q> "5"^^<http://t/int> .',
    b"<\\u0061> <p> <b> .",
    b"<a> <p> <b> .",
]


def _write_lines(path, lines, last_end=b"\n"):
    """`lines` ended by LF and CRLF in turn, the last one by `last_end`."""
    ends = [(b"\n", b"\r\n")[i % 2] for i in range(len(lines) - 1)] + [last_end]
    path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
    return path


def _line_path(path, strict=False):
    """The statements and bad lines of `path` as iter_triples finds them."""
    errors = []
    with path.open("rb") as src:
        return list(iter_triples(src, strict=strict, errors=errors)), errors


@pytest.mark.parametrize("last_end", [b"\n", b""])
@pytest.mark.parametrize("pad", range(0, 48, 3))
def test_two_ranges_parse_like_one(tmp_path, cuts, pad, last_end):
    # the padding comment moves the cut through several lines
    path = _write_lines(tmp_path / "split.nt",
                        [b"#" * pad] + _SPLIT_LINES * 4, last_end)
    want, want_errors = _line_path(path)
    errors = []
    assert file_triples(path, errors=errors) == want
    assert _errors(errors) == _errors(want_errors)
    assert cuts[-1] is not None and 0 < cuts[-1] < path.stat().st_size
    lines_before_cut = path.read_bytes()[:cuts[-1]].count(b"\n")
    bad_lines = [err.line_no for err in errors]
    assert min(bad_lines) <= lines_before_cut < max(bad_lines)


def test_cut_exactly_on_a_line_start(tmp_path, cuts):
    # the middle byte starts a line, and the first range's last block ends
    # on the cut: no line is read twice or lost there
    half = b"".join(line + b"\n" for line in _SPLIT_LINES)
    path = tmp_path / "halves.nt"
    path.write_bytes(half + half.replace(b"<a>", b"<A>"))
    want, want_errors = _line_path(path)
    errors = []
    got = file_triples(path, errors=errors)
    assert cuts == [len(half)]
    assert len(got) == len(want) == 10
    assert got == want and _errors(errors) == _errors(want_errors)


def _parses(line: bytes) -> bool:
    try:
        parse_line(line.decode("utf-8"))
    except (ParseError, UnicodeDecodeError):
        return False
    return True


@pytest.mark.parametrize("bad_in", ["first", "second", "both"])
def test_strict_two_ranges_raise_the_first_bad_line(tmp_path, cuts, bad_in):
    good = [line for line in _SPLIT_LINES if _parses(line)]
    bad = b"<a> <p> <b> . junk"
    first, second = good * 3, good * 3
    if bad_in in ("first", "both"):
        first[5] = bad
    if bad_in in ("second", "both"):
        second[4] = bad
    path = _write_lines(tmp_path / "strict.nt", first + second)
    want, _ = _line_path(path)
    with pytest.raises(ParseError) as want_err:
        _line_path(path, strict=True)
    blocks = []
    with pytest.raises(ParseError) as got_err:
        blocks += iter_file(str(path), strict=True)
    lines_before_cut = path.read_bytes()[:cuts[-1]].count(b"\n")
    assert (got_err.value.line_no > lines_before_cut) == (bad_in == "second")
    assert _errors([got_err.value]) == _errors([want_err.value])
    got = numbered_triples(blocks)
    assert got == want[:len(got)]


def test_two_ranges_number_every_term(tmp_path, cuts):
    # a term met on both sides of the cut, or spelled two ways, takes more
    # than one number; every number names its term
    path = _write_lines(tmp_path / "twice.nt", _SPLIT_LINES * 4)
    terms, rows = [], 0
    for new, numbers in iter_file(str(path)):
        terms += new
        rows += len(numbers)
        assert numbers.size == 0 or numbers.max() < len(terms)
    assert cuts[-1] is not None
    assert rows == len(_line_path(path)[0])
    assert terms.count("a") >= 2 and len(set(terms)) < len(terms)


def test_worker_is_joined_when_the_generator_closes_early(tmp_path, cuts):
    path = _write_lines(tmp_path / "close.nt", _SPLIT_LINES * 40)
    blocks = iter_file(str(path))
    next(blocks)
    assert multiprocessing.active_children()
    blocks.close()
    assert cuts[-1] is not None
    assert multiprocessing.active_children() == []


def _sleeps(*args):
    time.sleep(30)


def test_strict_failure_stops_the_worker_at_once(tmp_path, cuts, monkeypatch):
    monkeypatch.setattr(ntriples, "_parse_range", _sleeps)
    path = _write_lines(tmp_path / "stop.nt", [b"<a> <p>"] + _SPLIT_LINES * 40)
    began = time.monotonic()
    with pytest.raises(ParseError, match="^line 1: "):
        list(iter_file(str(path), strict=True))
    assert time.monotonic() - began < 10
    assert cuts[-1] is not None
    assert multiprocessing.active_children() == []


def test_early_close_stops_the_worker_at_once(tmp_path, cuts, monkeypatch):
    monkeypatch.setattr(ntriples, "_parse_range", _sleeps)
    path = _write_lines(tmp_path / "stop.nt", _SPLIT_LINES * 40)
    began = time.monotonic()
    blocks = iter_file(str(path))
    next(blocks)
    blocks.close()
    assert time.monotonic() - began < 10
    assert cuts[-1] is not None
    assert multiprocessing.active_children() == []


def test_one_range_while_another_thread_runs(tmp_path, cuts):
    # a forked worker could wait forever on a lock that thread holds
    path = _write_lines(tmp_path / "threads.nt", _SPLIT_LINES * 4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert file_triples(path) == _line_path(path)[0]
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert cuts == [None]
