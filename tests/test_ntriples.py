import gzip
import random

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


def test_gzip_input(tmp_path):
    plain = tmp_path / "x.nt"
    plain.write_text("<a> <p> <b> .\n")
    zipped = tmp_path / "x.nt.gz"
    zipped.write_bytes(gzip.compress(b"<a> <p> <c> .\n"))
    assert list(iter_file(str(plain)))[0].object == "b"
    assert list(iter_file(str(zipped)))[0].object == "c"
    # forced modes
    assert list(iter_file(str(zipped), gzip_mode="on"))[0].object == "c"
    with pytest.raises(OSError):
        list(iter_file(str(plain), gzip_mode="on"))


def test_bad_utf8_is_a_diagnostic(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_bytes(b"<a> <p> <b> .\n<a> <p> \xff\xfe .\n<a> <p> <c> .\n")
    errors = []
    triples = list(iter_file(str(path), errors=errors))
    assert len(triples) == 2
    assert len(errors) == 1 and errors[0].line_no == 2


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


def test_parse_line_matches_reference_scanner_on_mutated_lines():
    rng = random.Random(20261018)
    lines = list(_VALID) + [_mutate(rng, rng.choice(_VALID)) for _ in range(120_000)]
    kinds = {"same": 0, "crash fixed": 0, "lax accept fixed": 0}
    accepted = 0
    for line in lines:
        got = _outcome(parse_line, line)
        want = _outcome(lambda x: reference.parse_line(x, conform=True), line)
        assert got == want, line
        lax = _outcome(reference.parse_line, line)
        if lax == want:
            kinds["same"] += 1
        else:
            # the only differences: the old scanner crashed, or accepted
            # what the grammar excludes, and the parser now rejects
            assert want == "ParseError", line
            assert lax == "crash" or isinstance(lax, RawTriple), line
            kinds["crash fixed" if lax == "crash" else "lax accept fixed"] += 1
        if isinstance(got, RawTriple):
            accepted += 1
            for term in (got.subject, got.predicate, got.object):
                if not term.startswith(('"', "_:")):
                    assert ntriples._escape_iri(term) == reference.escape_iri(term)
    assert accepted > len(lines) // 10
    assert kinds["crash fixed"] > 0 and kinds["lax accept fixed"] > 0
