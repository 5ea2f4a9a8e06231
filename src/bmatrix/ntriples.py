r"""Streaming line-oriented N-Triples reader and writer.

Terms are kept in a compact canonical form: IRIs without the angle
brackets, blank nodes with their ``_:`` prefix, literals with their
surrounding quotes plus any language tag or ``^^<datatype>`` suffix.
Escape sequences are decoded on input and re-escaped on output, so
parse -> format -> parse is the identity.

The statement grammar is W3C RDF 1.1 N-Triples (2014), compiled once
into regular expressions below; a statement line is one ``fullmatch``.
As implemented:

- A statement is a subject (IRI or blank node), a predicate (IRI), an
  object (IRI, blank node or literal) and ``.``, optionally followed by
  a ``#`` comment. Spaces and tabs may separate the parts, and may be
  left out. Lines of only spaces, tabs and a comment carry no statement.
- An IRI is ``<`` ... ``>`` over any character outside
  ``[\x00-\x20<>"{}|^`\\]``, plus the escapes ``\uXXXX`` and
  ``\UXXXXXXXX`` (UCHAR).
- UCHAR takes exactly 4 or 8 hex digits ``[0-9A-Fa-f]`` and must name a
  Unicode scalar value: a surrogate (D800-DFFF) or a value above 10FFFF
  is an error.
- A literal is ``"`` ... ``"`` over any character but ``"`` and ``\``,
  plus UCHAR and the escapes ``\t \b \n \r \f \" \' \\`` (ECHAR), then
  optionally ``@`` and a language tag, or ``^^`` and a datatype IRI.
  A language tag is a run of letters, digits and ``-`` whose first
  character is a letter. Letters and digits are Unicode ones
  (``str.isalpha``/``str.isalnum``), wider than BCP 47's ASCII.
- A blank node is ``_:`` and a label of any characters but space, tab
  and ``.``. A dot belongs to the label only when more label follows it,
  so ``_:a.b .`` is the label ``_:a.b`` and ``_:a.`` is ``_:a`` followed
  by the end of the statement. This is wider than N-Triples' PN_CHARS.

A line the grammar rejects is walked term by term with the same pieces
to name the error. Malformed statements are skipped and reported by
default; a strict mode aborts on the first error.
"""

from __future__ import annotations

import gzip
import io
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class RawTriple:
    subject: str
    predicate: str
    object: str


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.message = message
        self.line_no = line_no
        self.line = line


_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}

IRI = "iri"
BNODE = "bnode"
LITERAL = "literal"

# -- the grammar -------------------------------------------------------------
#
# Each repetition below starts with a character its neighbours cannot
# match (a backslash, a dot, a dash), so every piece matches in one way
# and a failed statement match backtracks in linear time.

_UCHAR = r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}"
_IRI_RUN = r'[^\x00-\x20<>"{}|^`\\]*'
_IRI_BODY = _IRI_RUN + r"(?:\\(?:" + _UCHAR + ")" + _IRI_RUN + ")*"
_LIT_RUN = r'[^"\\]*'
_LIT_BODY = _LIT_RUN + r"""(?:\\(?:[tbnrf"'\\]|""" + _UCHAR + ")" + _LIT_RUN + ")*"
# [^\W_] is str.isalnum; the first character must also pass str.isalpha,
# which _literal_term checks, as no re class spells it
_LANG = r"[^\W\d_][^\W_]*(?:-[^\W_]*)*"
_WS = r"[ \t]*"

# groups: IRI body
_IRI = "<(" + _IRI_BODY + ")>"
# groups: label; the lookahead pins the label's end where the dot rule
# puts it, so no shorter label can be tried when the rest fails
_BNODE = r"(_:[^ \t.](?:\.?[^ \t.])*)(?![^ \t.]|\.[^ \t.])"
# groups: whole literal, lexical form, language tag, datatype IRI body
_LITERAL = ('("(' + _LIT_BODY + ')"(?:@(' + _LANG + r")|\^\^" + _IRI
            + r"|(?!@|\^\^)))")

_STATEMENT = re.compile(
    _WS + "(?:" + _IRI + "|" + _BNODE + ")" + _WS + _IRI + _WS
    + "(?:" + _IRI + "|" + _BNODE + "|" + _LITERAL + ")"
    + _WS + r"\." + _WS + "(?:#.*)?", re.DOTALL)
_IRI_RE = re.compile(_IRI)
_BNODE_RE = re.compile(_BNODE)
_LITERAL_RE = re.compile(_LITERAL)
_WS_RE = re.compile(_WS)
# the longest valid beginnings, to find where a term goes wrong
_IRI_PREFIX_RE = re.compile("<" + _IRI_BODY)
_LIT_PREFIX_RE = re.compile('"' + _LIT_BODY + '(")?')
_ESCAPE_RE = re.compile(r"""\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([tbnrf"'\\]))""")


def _escaped_char(m: re.Match) -> str:
    if m[3] is not None:
        return _ECHAR[m[3]]
    code = int(m[1] or m[2], 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError(f"escape {m[0]} is not a Unicode scalar value")
    return chr(code)


def _unescape(text: str, line_no: int, line: str) -> str:
    """`text` with its escapes decoded; the grammar has checked their form."""
    if "\\" not in text:
        return text
    try:
        return _ESCAPE_RE.sub(_escaped_char, text)
    except ParseError as err:
        raise ParseError(err.message, line_no, line) from None


def _literal_term(whole: str, lexical: str, lang: str | None,
                  dtype: str | None, line_no: int, line: str) -> str:
    if lang is not None and not lang[0].isalpha():
        raise ParseError("malformed language tag", line_no, line)
    if "\\" not in whole:
        return whole
    lexical = _unescape(lexical, line_no, line)
    if lang is not None:
        return f'"{lexical}"@{lang}'
    if dtype is not None:
        return f'"{lexical}"^^<{_unescape(dtype, line_no, line)}>'
    return f'"{lexical}"'


def parse_line(line: str, line_no: int = 0) -> RawTriple | None:
    """One statement line -> RawTriple; None for blank/comment lines."""
    m = _STATEMENT.fullmatch(line)
    if m is None:
        return _explain(line, line_no)
    s_iri, s_bnode, pred, o_iri, o_bnode, *literal = m.groups()
    subject = s_bnode if s_iri is None else _unescape(s_iri, line_no, line)
    if o_iri is not None:
        obj = _unescape(o_iri, line_no, line)
    elif o_bnode is not None:
        obj = o_bnode
    else:
        obj = _literal_term(*literal, line_no, line)
    return RawTriple(subject, _unescape(pred, line_no, line), obj)


# -- naming the error ------------------------------------------------------------


def _skip_ws(s: str, i: int) -> int:
    return _WS_RE.match(s, i).end()


def _escape_error(s: str, j: int, line_no: int, in_iri: bool) -> ParseError:
    # s[j] is a backslash the grammar did not take as an escape
    c = s[j + 1:j + 2]
    if not c:
        return ParseError("dangling backslash", line_no, s)
    if c == "u" or c == "U":
        n = 4 if c == "u" else 8
        hexpart = s[j + 2:j + 2 + n]
        if len(hexpart) != n:
            return ParseError(f"truncated \\{c} escape", line_no, s)
        return ParseError(f"bad \\{c} escape {hexpart!r}", line_no, s)
    if in_iri:
        return ParseError("only \\u/\\U escapes are allowed in IRIs", line_no, s)
    return ParseError(f"unknown escape \\{c}", line_no, s)


def _iri_error(s: str, i: int, line_no: int) -> ParseError:
    j = _IRI_PREFIX_RE.match(s, i).end()
    if j == len(s):
        return ParseError("unterminated IRI", line_no, s)
    if s[j] == "\\":
        return _escape_error(s, j, line_no, in_iri=True)
    return ParseError(f"character {s[j]!r} not allowed in IRI", line_no, s)


def _literal_error(s: str, i: int, line_no: int) -> ParseError:
    m = _LIT_PREFIX_RE.match(s, i)
    j = m.end()
    if m[1] is None:
        if j == len(s):
            return ParseError("unterminated literal", line_no, s)
        return _escape_error(s, j, line_no, in_iri=False)
    # closed, so the suffix after the quote, "@" or "^^", is what failed
    if s.startswith("@", j):
        return ParseError("malformed language tag", line_no, s)
    if not s.startswith("<", j + 2):
        return ParseError("datatype must be an IRI", line_no, s)
    return _iri_error(s, j + 2, line_no)


def _scan_term(s: str, i: int, line_no: int):
    """The term that starts at s[i] -> (term, kind, end index); raises a
    ParseError that names the fault when no term starts there."""
    if s.startswith("<", i):
        m = _IRI_RE.match(s, i)
        if m is None:
            raise _iri_error(s, i, line_no)
        return _unescape(m[1], line_no, s), IRI, m.end()
    if s.startswith('"', i):
        m = _LITERAL_RE.match(s, i)
        if m is None:
            raise _literal_error(s, i, line_no)
        return _literal_term(*m.groups(), line_no, s), LITERAL, m.end()
    if s.startswith("_:", i):
        m = _BNODE_RE.match(s, i)
        if m is None:
            raise ParseError("empty blank node label", line_no, s)
        return m[1], BNODE, m.end()
    if i >= len(s):
        raise ParseError("line ends where a term should start", line_no, s)
    raise ParseError(f"unexpected character {s[i]!r} at column {i}", line_no, s)


def _explain(line: str, line_no: int) -> None:
    """None for a blank or comment line; otherwise raises the ParseError
    for the first place where `line` leaves the statement grammar."""
    i = _skip_ws(line, 0)
    if i == len(line) or line[i] == "#":
        return None
    _, kind, i = _scan_term(line, i, line_no)
    if kind == LITERAL:
        raise ParseError("literal cannot be a subject", line_no, line)
    _, kind, i = _scan_term(line, _skip_ws(line, i), line_no)
    if kind != IRI:
        raise ParseError("predicate must be an IRI", line_no, line)
    _, _, i = _scan_term(line, _skip_ws(line, i), line_no)
    if not line.startswith(".", _skip_ws(line, i)):
        raise ParseError("statement not terminated by '.'", line_no, line)
    raise ParseError("trailing junk after '.'", line_no, line)


def iter_triples(lines: Iterable, *, strict: bool = False,
                 errors: list | None = None) -> Iterator[RawTriple]:
    """Parse an iterable of text or bytes lines, skipping and reporting bad ones.

    Diagnostics are appended to `errors` when given; strict mode raises on
    the first malformed line instead.
    """
    for line_no, line in enumerate(lines, 1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                err = ParseError(f"invalid UTF-8 ({exc.reason})", line_no, repr(line))
                if strict:
                    raise err from None
                if errors is not None:
                    errors.append(err)
                continue
        line = line.rstrip("\r\n")
        try:
            triple = parse_line(line, line_no)
        except ParseError as err:
            if strict:
                raise
            if errors is not None:
                errors.append(err)
            continue
        if triple is not None:
            yield triple


def open_source(path: str, gzip_mode: str = "auto") -> io.BufferedIOBase:
    """Open an N-Triples file for binary reading, transparently gunzipping.

    gzip_mode: "auto" decides by the .gz suffix, "on"/"off" force it.
    """
    if gzip_mode not in ("auto", "on", "off"):
        raise ValueError(f"bad gzip mode {gzip_mode!r}")
    use_gzip = gzip_mode == "on" or (gzip_mode == "auto" and path.endswith(".gz"))
    return gzip.open(path, "rb") if use_gzip else open(path, "rb")


def iter_file(path: str, *, gzip_mode: str = "auto", strict: bool = False,
              errors: list | None = None) -> Iterator[RawTriple]:
    with open_source(path, gzip_mode) as src:
        yield from iter_triples(src, strict=strict, errors=errors)


# -- formatting (canonical output) -----------------------------------------


def _escape_literal(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r"))


_IRI_UNSAFE_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _escape_iri(s: str) -> str:
    return _IRI_UNSAFE_RE.sub(lambda m: f"\\u{ord(m[0]):04X}", s)


def format_term(term: str) -> str:
    """Canonical N-Triples spelling of a stored term."""
    if term.startswith('"'):
        end = term.rindex('"')
        lexical = term[1:end]
        suffix = term[end + 1:]
        if suffix.startswith("^^<") and suffix.endswith(">"):
            suffix = f"^^<{_escape_iri(suffix[3:-1])}>"
        return f'"{_escape_literal(lexical)}"{suffix}'
    if term.startswith("_:"):
        return term
    return f"<{_escape_iri(term)}>"


def format_triple(t: RawTriple) -> str:
    return (f"{format_term(t.subject)} {format_term(t.predicate)} "
            f"{format_term(t.object)} .")
