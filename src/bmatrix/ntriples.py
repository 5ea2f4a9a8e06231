r"""Streaming N-Triples reader and writer.

Terms are kept in a compact canonical form: IRIs without the angle
brackets, blank nodes with their ``_:`` prefix, literals with their
surrounding quotes plus any language tag or ``^^<datatype>`` suffix.
An IRI whose text starts with ``_:``, ``"`` or ``<`` (which escapes can
spell) keeps its brackets, so it is told apart from a blank node, a
literal or another bracketed IRI. Escape sequences are decoded on input
and re-escaped on output, so parse -> format -> parse is the identity.

The statement grammar is W3C RDF 1.1 N-Triples (2014), compiled once
into one regular expression, `_STATEMENT`, with three groups: the raw
source text of the subject, the predicate and the object. As
implemented:

- A statement is a subject (IRI or blank node), a predicate (IRI), an
  object (IRI, blank node or literal) and ``.``, optionally followed by
  a ``#`` comment. Spaces and tabs may separate the parts, and may be
  left out. Lines of only spaces, tabs and a comment carry no statement;
  they match with empty groups.
- An IRI is ``<`` ... ``>`` over any character outside
  ``[\x00-\x20<>"{}|^`\\]``, plus the escapes ``\uXXXX`` and
  ``\UXXXXXXXX`` (UCHAR).
- UCHAR takes exactly 4 or 8 hex digits ``[0-9A-Fa-f]`` and must name a
  Unicode scalar value: a surrogate (D800-DFFF) or a value above 10FFFF
  is an error.
- A literal is ``"`` ... ``"`` over any character but ``"``, ``\`` and
  a line feed, plus UCHAR and the escapes ``\t \b \n \r \f \" \' \\``
  (ECHAR), then optionally ``@`` and a language tag, or ``^^`` and a
  datatype IRI. A language tag is a run of letters, digits and ``-``
  whose first character is a letter. Letters and digits are Unicode ones
  (``str.isalpha``/``str.isalnum``), wider than BCP 47's ASCII.
- A blank node is ``_:`` and a label of any characters but space, tab,
  line feed and ``.``. A dot belongs to the label only when more label
  follows it, so ``_:a.b .`` is the label ``_:a.b`` and ``_:a.`` is
  ``_:a`` followed by the end of the statement. This is wider than
  N-Triples' PN_CHARS.

Lines end at ``\n`` only (a ``\r`` before it is dropped). No part of the
grammar takes a ``\n``, so a match never runs on into the next line, and
`parse_line` rejects a string with a line break inside it. Other
characters `str.splitlines` breaks at (U+2028, U+0085, ``\x0b``,
``\x0c``, ``\x1c``, a lone ``\r``) are ordinary characters of a literal.

`iter_file` recognises gzip input by its first two bytes, the gzip magic
1f 8b; a ``.gz`` suffix means nothing to it. It reads about BLOCK_BYTES
of whole lines at a time, decodes the block in one call and runs one
``findall`` of the grammar over it. Statements leave it as term numbers,
not terms: a memo maps each raw term the range has shown to a number,
so each distinct raw term is unescaped once, and a block comes back as
the stored terms of the raw terms new to the memo and a (k, 3) int32
array of numbers, one row per statement. Only distinct terms pass
through Python code, as in HDT's dictionary build; `Dictionary.from_triples`
takes the terms and numbers as they are. A term can be numbered twice,
when it is spelled two ways (``<a>``, ``<\u0061>``), or met in both
ranges or on the line path; the dictionary gives it one id.

A block takes the line path instead, `parse_line` on one line at a time
as `iter_triples` does, when it is not valid UTF-8, when it has a line
the grammar does not match, or when a raw term new to the memo raises
ParseError (a surrogate escape, or a language tag that does not start
with a letter). The line path names each bad line's fault: a line the
grammar rejects is walked term by term with the same pieces. It numbers
the block's own distinct stored terms and keeps no memo. So the
triples, the errors, their line numbers and their order are the same on
both paths. Malformed statements are skipped and reported by default; a
strict mode aborts on the first error.

A plain regular file of more than BLOCK_BYTES is parsed in two byte
ranges at once when the process may run on two CPUs and can fork: the
fork start method exists and no other thread is running. The
second range starts at the first line start at or after the middle
byte; one forked worker parses it, with its own memo, while the caller
parses the first. Both ranges, and the one range of gzip input, pipes
and small files, run the same range parser. The worker's blocks come
back whole over a one-way pipe, its numbers raised past the first
range's terms and its bad lines renumbered past the first range's lines,
so the caller sees the blocks and errors of a one-range parse. In strict
mode the first range's first bad line, else the second's, is raised. The
worker is stopped, not joined: it is killed once its result is in or the
caller stops early (a strict failure, an early close).
"""

from __future__ import annotations

import gzip
import math
import multiprocessing
import os
import re
import stat
import threading
from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np


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
# and a failed statement match backtracks in linear time. No class takes
# "\n", so in a block of lines no match runs on into the next line.

_UCHAR = r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}"
_IRI_RUN = r'[^\x00-\x20<>"{}|^`\\]*'
_IRI_BODY = _IRI_RUN + r"(?:\\(?:" + _UCHAR + ")" + _IRI_RUN + ")*"
_LIT_RUN = r'[^"\\\n]*'
_LIT_BODY = _LIT_RUN + r"""(?:\\(?:[tbnrf"'\\]|""" + _UCHAR + ")" + _LIT_RUN + ")*"
# [^\W_] is str.isalnum; the first character must also pass str.isalpha,
# which _literal_term checks, as no re class spells it
_LANG = r"[^\W\d_][^\W_]*(?:-[^\W_]*)*"
_WS = r"[ \t]*"

_IRI = "<" + _IRI_BODY + ">"
# the lookahead pins the label's end where the dot rule puts it, so no
# shorter label can be tried when the rest fails
_BNODE = r"_:[^ \t.\n](?:\.?[^ \t.\n])*(?![^ \t.\n]|\.[^ \t.\n])"
_LITERAL = '"' + _LIT_BODY + '"(?:@' + _LANG + r"|\^\^" + _IRI + r"|(?!@|\^\^))"

# groups: the raw subject, predicate and object; all three are empty (or
# None) on a line of only spaces, tabs and a comment
_STATEMENT = re.compile(
    "^" + _WS + "(?:(" + _IRI + "|" + _BNODE + ")" + _WS + "(" + _IRI + ")"
    + _WS + "(" + _IRI + "|" + _BNODE + "|" + _LITERAL + ")"
    + _WS + r"\." + _WS + ")?(?:#[^\n]*)?$", re.M)
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


# an IRI whose text starts like another kind of term keeps its brackets
_BRACKETED = ("_:", '"', "<")


def _iri_term(raw: str, line_no: int, line: str) -> str:
    """The stored form of the IRI written as `raw`, brackets included."""
    body = raw[1:-1]
    if "\\" in body:
        body = _unescape(body, line_no, line)
    return f"<{body}>" if body.startswith(_BRACKETED) else body


def _literal_term(raw: str, line_no: int, line: str) -> str:
    """The stored form of the literal written as `raw`, suffix included."""
    end = raw.rindex('"')      # the closing quote: no suffix holds a '"'
    if raw.startswith("@", end + 1) and not raw[end + 2].isalpha():
        raise ParseError("malformed language tag", line_no, line)
    if "\\" not in raw:
        return raw
    lexical = _unescape(raw[1:end], line_no, line)
    # only a datatype IRI can hold an escape after the quote
    return f'"{lexical}"{_unescape(raw[end + 1:], line_no, line)}'


def _term(raw: str, line_no: int = 0, line: str = "") -> str:
    """The stored form of one term the grammar matched, written as `raw`;
    raises ParseError for a non-scalar escape or a language tag that does
    not start with a letter."""
    if raw[0] == "<":
        return _iri_term(raw, line_no, line)
    if raw[0] == '"':
        return _literal_term(raw, line_no, line)
    return raw


def parse_line(line: str, line_no: int = 0) -> RawTriple | None:
    """One statement line -> RawTriple; None for blank/comment lines."""
    m = _STATEMENT.fullmatch(line)
    if m is None:
        return _explain(line, line_no)
    s, p, o = m.groups()
    if s is None:
        return None
    subject = _term(s, line_no, line)
    obj = _term(o, line_no, line)
    return RawTriple(subject, _term(p, line_no, line), obj)


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
        if j == len(s) or s[j] == "\n":
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
        return _iri_term(m[0], line_no, s), IRI, m.end()
    if s.startswith('"', i):
        m = _LITERAL_RE.match(s, i)
        if m is None:
            raise _literal_error(s, i, line_no)
        return _literal_term(m[0], line_no, s), LITERAL, m.end()
    if s.startswith("_:", i):
        m = _BNODE_RE.match(s, i)
        if m is None:
            raise ParseError("empty blank node label", line_no, s)
        return m[0], BNODE, m.end()
    if i >= len(s):
        raise ParseError("line ends where a term should start", line_no, s)
    raise ParseError(f"unexpected character {s[i]!r} at column {i}", line_no, s)


def _explain(line: str, line_no: int) -> None:
    """None for a blank or comment line; otherwise raises the ParseError
    for the first place where `line` leaves the statement grammar."""
    if "\n" in line:
        raise ParseError("line break inside the line", line_no, line)
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


def _line_triples(lines: Iterable, first: int, strict: bool,
                  errors: list | None) -> Iterator[RawTriple]:
    """The line path: each line decoded and parsed on its own, the first
    one numbered `first`."""
    for line_no, line in enumerate(lines, first):
        try:
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"invalid UTF-8 ({exc.reason})", line_no,
                                     repr(line)) from None
            triple = parse_line(line.rstrip("\r\n"), line_no)
        except ParseError as err:
            if strict:
                raise
            if errors is not None:
                errors.append(err)
            continue
        if triple is not None:
            yield triple


def iter_triples(lines: Iterable, *, strict: bool = False,
                 errors: list | None = None) -> Iterator[RawTriple]:
    """Parse an iterable of text or bytes lines, skipping and reporting bad ones.

    Diagnostics are appended to `errors` when given; strict mode raises on
    the first malformed line instead.
    """
    yield from _line_triples(lines, 1, strict, errors)


# about how many bytes of whole lines iter_file reads and parses at once
BLOCK_BYTES = 1 << 20

_has_subject = itemgetter(0)


class _Memo(dict):
    """Raw term -> term number, for one range. Looking up a raw term not yet
    in it gives the raw term the next number and lists it in `new`."""

    def __init__(self):
        super().__init__()
        self.numbered = 0         # the numbers given, the line path's too
        self.new: list[str] = []

    def __missing__(self, raw: str) -> int:
        number = self[raw] = self.numbered
        self.numbered += 1
        self.new.append(raw)
        return number


def _numbered_block(lines: list[bytes], memo: _Memo):
    """The statements of a block of lines as (the stored terms of the raw
    terms new to `memo`, in order of first appearance, and (k, 3) term
    numbers), or None when the block must take the line path: it is not
    UTF-8, a line does not match the statement grammar, or a new raw term
    raises ParseError. The memo is left as it was in that case."""
    try:
        text = b"".join(lines).decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        # the line path strips "\r" before the "\n"; a further "\r" only
        # matches inside a comment, which is dropped either way
        text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]       # else the end of the text matches as a line
    rows = _STATEMENT.findall(text)
    if len(rows) < len(lines):
        return None
    # blank and comment lines have no subject
    raws = list(chain.from_iterable(filter(_has_subject, rows)))
    memo.new = []
    numbers = np.fromiter(map(memo.__getitem__, raws), np.int32, len(raws))
    try:
        return list(map(_term, memo.new)), numbers.reshape(-1, 3)
    except ParseError:
        for raw in memo.new:
            del memo[raw]
        memo.numbered -= len(memo.new)
        return None


def _line_block(lines: list, line_no: int, strict: bool, errors: list | None,
                memo: _Memo):
    """The line path's (terms, numbers) for a block whose first line is
    numbered `line_no`: the block's distinct stored terms, numbered next
    after `memo`'s numbers and not kept in it."""
    terms = [term for t in _line_triples(lines, line_no, strict, errors)
             for term in (t.subject, t.predicate, t.object)]
    index = dict(zip(dict.fromkeys(terms), count(memo.numbered)))
    memo.numbered += len(index)
    numbers = np.fromiter(map(index.__getitem__, terms), np.int32, len(terms))
    return list(index), numbers.reshape(-1, 3)


def _range_blocks(src, size, strict: bool, errors: list | None):
    """The next `size` bytes of `src` (math.inf: the rest), which start at a
    line start and end at one, block by block: yields (stored terms,
    (k, 3) int32 term numbers) per block of about BLOCK_BYTES, the terms
    numbered from 0 in the order they are yielded. Bad lines are numbered
    from 1 at the range's first line. Returns the number of lines read and
    the number of terms numbered."""
    memo = _Memo()
    line_no = 1
    while size > 0 and (lines := src.readlines(min(BLOCK_BYTES, size))):
        # readlines reads one line past a hint that ends on a line start
        got = sum(map(len, lines))
        while got > size:
            got -= len(lines.pop())
        size -= got
        block = _numbered_block(lines, memo)
        if block is None:
            block = _line_block(lines, line_no, strict, errors, memo)
        line_no += len(lines)
        yield block
    return line_no - 1, memo.numbered


def _parse_range(send, path: str, start: int, strict: bool) -> None:
    """The worker process of a two-range parse, from byte `start` of `path`
    to its end. Sends down the connection `send` the blocks and the bad
    lines as (message, line_no, line) tuples, numbered from the range's
    first line (after a strict failure: the blocks before it, and it), or
    the exception that stopped the parse."""
    blocks, errors = [], []
    try:
        with open(path, "rb") as src:
            src.seek(start)
            blocks += _range_blocks(src, math.inf, strict, errors)
    except ParseError as err:
        errors.append(err)
    except Exception as exc:
        send.send(exc)
        return
    send.send((blocks, [(err.message, err.line_no, err.line) for err in errors]))


def _second_range(raw) -> int | None:
    """Where a worker starts parsing the open file `raw`: the first line
    start at or after its middle byte. None, for one range, unless `raw`
    is a regular file of more than BLOCK_BYTES with a line start past the
    middle, and this process may run on two CPUs and can fork: it runs no
    other thread, which might hold a lock the worker would wait on."""
    st = os.fstat(raw.fileno())
    if not (stat.S_ISREG(st.st_mode) and st.st_size > BLOCK_BYTES
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return None
    raw.seek(st.st_size // 2 - 1)
    raw.readline()
    cut = raw.tell()
    raw.seek(0)
    return cut if cut < st.st_size else None


def iter_file(path: str, *, strict: bool = False,
              errors: list | None = None) -> Iterator[tuple[list, np.ndarray]]:
    """The statements of an N-Triples file, one (terms, numbers) pair per
    block of about BLOCK_BYTES, in file order. `numbers` is a (k, 3) int32
    array with one row per statement: the positions of its subject,
    predicate and object in the concatenation of all the `terms` lists
    yielded so far, this block's included. `terms` holds the stored terms
    first numbered in the block. A term may be numbered more than once
    (spelled two ways, or met in both ranges or on the line path).

    A file whose first two bytes are the gzip magic 1f 8b is gunzipped as
    it is read; the name, ".gz" or not, plays no part. The path is opened
    once and its first bytes are peeked, not reread, so a pipe works too.
    A plain regular file of more than BLOCK_BYTES is parsed in two ranges
    at once, by the caller and a forked worker, when the process may run
    on two CPUs and can fork (see the module notes). The worker is killed
    once its result is in, or when the generator is closed or raises; one
    that dies without a result raises OSError.
    Bad lines are skipped and appended to `errors` when given, in file
    order, as iter_triples reports them; strict mode raises the first.
    """
    with open(path, "rb") as raw:
        gzipped = raw.peek(2)[:2] == b"\x1f\x8b"
        cut = None if gzipped else _second_range(raw)
        if cut is None:
            with (gzip.GzipFile(fileobj=raw) if gzipped else raw) as src:
                yield from _range_blocks(src, math.inf, strict, errors)
            return
        fork = multiprocessing.get_context("fork")
        results, send = fork.Pipe(duplex=False)
        worker = fork.Process(target=_parse_range, args=(send, path, cut, strict))
        worker.start()
        send.close()      # else the worker's death would not end recv
        try:
            lines, numbered = yield from _range_blocks(raw, cut, strict, errors)
            try:
                second = results.recv()
            except EOFError:
                raise OSError(f"{path}: the parse worker ended without a result") from None
        finally:
            worker.kill()
            worker.join()
            results.close()
    if isinstance(second, Exception):
        raise second
    blocks, bad = second
    bad = [ParseError(message, lines + line_no, line) for message, line_no, line in bad]
    if errors is not None and not strict:
        errors += bad
    for terms, numbers in blocks:
        numbers += numbered
        yield terms, numbers
    if strict and bad:
        raise bad[0]


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
    if term.startswith("<"):
        term = term[1:-1]
    return f"<{_escape_iri(term)}>"


def format_triple(t: RawTriple) -> str:
    return (f"{format_term(t.subject)} {format_term(t.predicate)} "
            f"{format_term(t.object)} .")
