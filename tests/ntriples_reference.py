"""Reference N-Triples line parser: the character-by-character scanner
that `bmatrix.ntriples` used before its compiled grammar.

Tests compare `bmatrix.ntriples.parse_line` with it, as `oracle.TripleList`
is compared with the store for queries. With `conform=False` it is the
old scanner as it was, faults included. With `conform=True` it also
applies the three fixes the compiled grammar made, each marked
"conform" below:

- a statement that ends where a term should start is a ParseError (the
  old scanner raised IndexError);
- a \\u/\\U escape takes exactly 4/8 hex digits and must name a Unicode
  scalar value (`int(hexpart, 16)` allowed a sign, "0x", underscores and
  spaces, surrogates decoded, and `chr` raised OverflowError from
  \\U80000000 up);
- "<" is not allowed inside an IRI.
"""

from __future__ import annotations

from bmatrix.ntriples import ParseError, RawTriple

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
_HEX = set("0123456789abcdefABCDEF")

IRI = "iri"
BNODE = "bnode"
LITERAL = "literal"


def _decode_escape(s: str, i: int, line_no: int, conform: bool):
    # s[i] == "\\"; returns (char, next index)
    if i + 1 >= len(s):
        raise ParseError("dangling backslash", line_no, s)
    c = s[i + 1]
    if c in _ECHAR:
        return _ECHAR[c], i + 2
    if c == "u" or c == "U":
        n = 4 if c == "u" else 8
        hexpart = s[i + 2:i + 2 + n]
        if len(hexpart) != n:
            raise ParseError(f"truncated \\{c} escape", line_no, s)
        if conform and not set(hexpart) <= _HEX:
            raise ParseError(f"bad \\{c} escape {hexpart!r}", line_no, s)
        try:
            code = int(hexpart, 16)
            if conform and (0xD800 <= code <= 0xDFFF or code > 0x10FFFF):
                raise ValueError("not a Unicode scalar value")
            return chr(code), i + 2 + n
        except ValueError:
            raise ParseError(f"bad \\{c} escape {hexpart!r}", line_no, s) from None
    raise ParseError(f"unknown escape \\{c}", line_no, s)


def _scan_iri(s: str, i: int, line_no: int, conform: bool):
    # s[i] == "<"; IRIs admit only \u/\U escapes
    parts: list[str] = []
    i += 1
    while i < len(s):
        c = s[i]
        if c == ">":
            return "".join(parts), i + 1
        if c == "\\":
            if i + 1 < len(s) and s[i + 1] not in ("u", "U"):
                raise ParseError("only \\u/\\U escapes are allowed in IRIs", line_no, s)
            ch, i = _decode_escape(s, i, line_no, conform)
            parts.append(ch)
            continue
        if c in ' "{}|^`' or ord(c) <= 0x20 or (conform and c == "<"):
            raise ParseError(f"character {c!r} not allowed in IRI", line_no, s)
        parts.append(c)
        i += 1
    raise ParseError("unterminated IRI", line_no, s)


def _scan_bnode(s: str, i: int, line_no: int):
    # s[i:i+2] == "_:"
    j = i + 2
    if j >= len(s) or s[j] in " \t.":
        raise ParseError("empty blank node label", line_no, s)
    while j < len(s):
        c = s[j]
        if c in " \t":
            break
        if c == ".":
            # a dot is part of the label only when more label follows
            if j + 1 < len(s) and s[j + 1] not in " \t.":
                j += 1
                continue
            break
        j += 1
    return s[i:j], j


def _scan_literal(s: str, i: int, line_no: int, conform: bool):
    # s[i] == '"'
    parts: list[str] = []
    i += 1
    while True:
        if i >= len(s):
            raise ParseError("unterminated literal", line_no, s)
        c = s[i]
        if c == '"':
            i += 1
            break
        if c == "\\":
            ch, i = _decode_escape(s, i, line_no, conform)
            parts.append(ch)
            continue
        parts.append(c)
        i += 1
    lexical = "".join(parts)
    if i < len(s) and s[i] == "@":
        j = i + 1
        while j < len(s) and (s[j].isalnum() or s[j] == "-"):
            j += 1
        tag = s[i + 1:j]
        if not tag or not tag[0].isalpha():
            raise ParseError("malformed language tag", line_no, s)
        return f'"{lexical}"@{tag}', j
    if s.startswith("^^", i):
        if i + 2 >= len(s) or s[i + 2] != "<":
            raise ParseError("datatype must be an IRI", line_no, s)
        dtype, j = _scan_iri(s, i + 2, line_no, conform)
        return f'"{lexical}"^^<{dtype}>', j
    return f'"{lexical}"', i


def _scan_term(s: str, i: int, line_no: int, conform: bool):
    if conform and i >= len(s):
        raise ParseError("line ends where a term should start", line_no, s)
    c = s[i]
    if c == "<":
        text, j = _scan_iri(s, i, line_no, conform)
        return text, IRI, j
    if c == '"':
        text, j = _scan_literal(s, i, line_no, conform)
        return text, LITERAL, j
    if c == "_" and s.startswith("_:", i):
        text, j = _scan_bnode(s, i, line_no)
        return text, BNODE, j
    raise ParseError(f"unexpected character {c!r} at column {i}", line_no, s)


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in " \t":
        i += 1
    return i


def parse_line(line: str, line_no: int = 0, *,
               conform: bool = False) -> RawTriple | None:
    """One statement line -> RawTriple; None for blank/comment lines."""
    i = _skip_ws(line, 0)
    if i >= len(line) or line[i] == "#":
        return None
    subject, kind, i = _scan_term(line, i, line_no, conform)
    if kind == LITERAL:
        raise ParseError("literal cannot be a subject", line_no, line)
    i = _skip_ws(line, i)
    predicate, kind, i = _scan_term(line, i, line_no, conform)
    if kind != IRI:
        raise ParseError("predicate must be an IRI", line_no, line)
    i = _skip_ws(line, i)
    obj, _, i = _scan_term(line, i, line_no, conform)
    i = _skip_ws(line, i)
    if i >= len(line) or line[i] != ".":
        raise ParseError("statement not terminated by '.'", line_no, line)
    i = _skip_ws(line, i + 1)
    if i < len(line) and line[i] != "#":
        raise ParseError("trailing junk after '.'", line_no, line)
    return RawTriple(subject, predicate, obj)


def escape_iri(s: str) -> str:
    """IRI body as N-Triples writes it: unsafe characters as \\u escapes."""
    out = []
    for c in s:
        if c in ' "{}|^`<>\\' or ord(c) <= 0x20:
            out.append(f"\\u{ord(c):04X}" if ord(c) <= 0xFFFF else f"\\U{ord(c):08X}")
        else:
            out.append(c)
    return "".join(out)
