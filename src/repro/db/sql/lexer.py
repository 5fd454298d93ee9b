"""SQL lexer for the supported subset: one compiled master regex.

Produces a flat token list; the recursive-descent parser walks it with
one token of lookahead. Keywords are case-insensitive; identifiers are
lowercased (the catalog is lowercase-normalized).

Each token carries its character offset; errors derive the 1-based
line/column from it (:func:`location_of`) and point at the exact spot
with a caret-annotated snippet (:func:`error_at`). String literals
support the standard ``''`` escape; an unclosed quote is a hard error
located at the opening quote.

:func:`scan_shape` finds a statement's value literals with one regex
split, without building tokens: the shape key of the statement memo
(:mod:`repro.db.sql.shapes`).
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import SqlError


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "having", "limit",
    "as", "and", "or", "not", "between", "asc", "desc", "join", "on", "distinct",
    "sum", "avg", "count", "min", "max", "date", "interval", "day",
    # Statement surface beyond SELECT.
    "offset", "in", "insert", "into", "values", "update", "set", "delete",
    "create", "table", "drop", "begin", "commit", "rollback", "abort",
    "explain", "analyze",
}

#: One match per token: the whitespace and comments before it, then one
#: alternative per token class. A string may not end on the first quote
#: of a ``''`` escape, so a quote without its closing partner lands on
#: ``quote`` (unterminated) at the opening quote.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<number>\d+(?:\.\d*)?|\.\d+)
      | (?P<symbol><=|>=|<>|!=|[(),*+\-/=<>.;])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<quote>')
      | (?P<end>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

#: Keywords whose following number is part of the plan, not a value.
_COUNT_KEYWORDS = ("limit", "offset")

#: The value literals of the shape scan: a number not glued to a word or
#: a dot (those digits belong to an identifier or a qualified name), or a
#: quoted string. Each alternative opens with a character class, which
#: lets the search skip ahead; the look-behinds then check the glue.
_LITERAL_RE = re.compile(
    r"(\d(?<![\w.]\d)\d*(?:\.\d*)?|\.(?<![\w.]\.)\d+|'[^']*(?:''[^']*)*'(?!'))"
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:
        return f"{self.text!r}" if self.kind is not TokenKind.EOF else "end of input"


def caret_snippet(sql: str, position: int) -> str:
    """The source line containing ``position`` with a ``^`` marker under it."""
    position = min(max(position, 0), len(sql))
    start = sql.rfind("\n", 0, position) + 1
    end = sql.find("\n", position)
    if end < 0:
        end = len(sql)
    line = sql[start:end]
    return f"  {line}\n  {' ' * (position - start)}^"


def location_of(sql: str, position: int) -> "tuple[int, int]":
    """1-based (line, column) of a character offset in ``sql``."""
    position = min(max(position, 0), len(sql))
    line = sql.count("\n", 0, position) + 1
    column = position - (sql.rfind("\n", 0, position) + 1) + 1
    return line, column


def error_at(message: str, sql: str, position: int) -> SqlError:
    """Build a :class:`SqlError` carrying location + caret snippet."""
    line, column = location_of(sql, position)
    return SqlError(
        f"{message} (line {line}, column {column})\n"
        f"{caret_snippet(sql, position)}",
        line=line,
        column=column,
    )


def tokenize(sql: str) -> List[Token]:
    """Split ``sql`` into tokens, raising :class:`SqlError` on garbage."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    i = 0
    while True:
        m = match(sql, i)
        group = m.lastgroup
        start, i = m.span(group)
        text = m[group]
        if group == "word":
            lead = text[0]
            if lead.isalpha() or lead == "_":
                text = text.lower()
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                append(Token(kind, text, start))
                continue
            if not lead.isdigit():  # a numeral such as a fraction
                raise error_at(f"unexpected character {lead!r}", sql, start)
            # else a digit that is not decimal (a superscript): a number
        elif group == "symbol":
            if not (text == "." and sql[i : i + 1].isdigit()):
                append(Token(TokenKind.SYMBOL, "<>" if text == "!=" else text, start))
                continue
        elif group == "string":
            append(Token(TokenKind.STRING, text[1:-1].replace("''", "'"), start))
            continue
        elif group == "end":
            append(Token(TokenKind.EOF, "", start))
            return tokens
        elif group == "quote":
            raise error_at("unterminated string literal", sql, start)
        elif group == "bad":
            raise error_at(f"unexpected character {text!r}", sql, start)
        # A number. Its digits are those of ``str.isdigit``, which also
        # admits non-decimal digits that ``\d`` leaves out: re-read it
        # when one opens or continues it.
        if group != "number" or sql[i : i + 1].isdigit():
            i = _number_end(sql, start)
        append(Token(TokenKind.NUMBER, sql[start:i], start))


def scan_shape(sql: str) -> Optional[Tuple[Tuple[str, ...], List[str], List[int]]]:
    """``(key, literals, positions)`` of an ASCII statement, or None.

    ``key`` is the text with each value literal replaced by its kind
    (``'`` string, ``#`` int, ``#.`` float), so statements that differ
    only in those literals share it. Numbers the parser reads as part of
    the plan stay verbatim: a ``LIMIT``/``OFFSET`` count and the ``n`` of
    ``name(n)`` (a CHAR width). ``literals`` are the value literals'
    source texts (strings still quoted), ``positions`` their offsets.

    One regex search finds the literals; it does not know comments, so a
    digit or quote inside one reads as a literal. The parse memo stores
    a shape only after checking that these literals are exactly the
    tokens the parser read as values.
    """
    if not sql.isascii():
        return None
    parts = _LITERAL_RE.split(sql)
    literals: List[str] = []
    positions: List[int] = []
    at = 0
    for k in range(1, len(parts), 2):
        text = parts[k]
        at += len(parts[k - 1])
        if text[0] == "'":
            parts[k] = "'"
        elif _is_count(parts[k - 1]):
            at += len(text)
            continue
        else:
            parts[k] = "#." if "." in text else "#"
        literals.append(text)
        positions.append(at)
        at += len(text)
    return tuple(parts), literals, positions


def _is_count(before: str) -> bool:
    """Whether a number after the text ``before`` is structural."""
    tail = before.rstrip()
    last = tail[-1:]
    if last == "(":  # after a name that is not a keyword: a CHAR width
        word = _last_word(tail[:-1].rstrip())
        return (word[:1].isalpha() or word[:1] == "_") and word not in KEYWORDS
    if last in ("t", "T"):
        return _last_word(tail) in _COUNT_KEYWORDS
    return False


def _last_word(text: str) -> str:
    """The word ``text`` ends with, lowercased ("" if none)."""
    j = len(text)
    while j and (text[j - 1].isalnum() or text[j - 1] == "_"):
        j -= 1
    return text[j:].lower()


def _number_end(sql: str, i: int) -> int:
    """End of the number starting at ``i`` under ``str.isdigit`` (which
    also admits non-decimal digits such as superscripts, unlike ``\\d``):
    digits with at most one ``.``."""
    j, seen_dot = i, False
    while j < len(sql) and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
        seen_dot = seen_dot or sql[j] == "."
        j += 1
    return j
