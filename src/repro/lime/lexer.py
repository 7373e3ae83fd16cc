"""The Lime lexer: one compiled master pattern, one ``finditer`` pass.

Notable Lime-specific lexical features:

* bit literals — ``100b`` (Section 2.2): a run of 0/1 digits followed by
  the ``b`` suffix;
* the map operator ``@`` and reduce operator ``!`` are ordinary tokens;
* ``=>`` (task connect) must win maximal munch over ``=``.

``_MASTER`` is the lexical grammar (docs/LANGUAGE.md quotes it): its
alternatives are tried in order at each offset, so a ``/*`` is a
comment before it is a ``/``, and a number before it is a word.
"""

from __future__ import annotations

import re

from repro.errors import LimeSyntaxError, SourcePosition
from repro.lime.tokens import KEYWORDS, Token, TokenKind
from repro.values.bits import parse_bit_literal

_TWO_CHAR = {
    "=>": TokenKind.CONNECT,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "<<": TokenKind.SHL,
    ">>": TokenKind.SHR,
    "&&": TokenKind.AMP_AMP,
    "||": TokenKind.PIPE_PIPE,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN,
    "/=": TokenKind.SLASH_ASSIGN,
    "++": TokenKind.PLUS_PLUS,
    "--": TokenKind.MINUS_MINUS,
}

_ONE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    "?": TokenKind.QUESTION,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "@": TokenKind.AT,
    "!": TokenKind.BANG,
    "~": TokenKind.TILDE,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}

_IDENT = (TokenKind.IDENT, None)

#: Every fixed spelling -> (kind, value); any other word is an IDENT.
_FIXED = {
    text: (kind, {"true": True, "false": False}.get(text))
    for text, kind in {**KEYWORDS, **_TWO_CHAR, **_ONE_CHAR}.items()
}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Alternatives are tried in order at each offset: trivia first, a
# number before a word, a comment before the ``/`` it starts with, and
# ``bad`` last. Literals take ASCII digits only. A word starts with a
# letter or ``_`` and continues with letters, digits and ``_``, Unicode
# included (``uword`` takes the non-ASCII starts, checked in ``lex``).
_MASTER = re.compile(
    r"""
    (?P<space>[ \t\r]+|//[^\n]*)
  | (?P<newline>\n)
  | (?P<real>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)[fFdD]?)
  | (?P<integer>[0-9]+(?:[fFdDlL]|b(?![^\W_]))?)
  | (?P<comment>/\*(?s:.*?)\*/)
  | (?P<open_comment>/\*)
  | (?P<fixed>[A-Za-z_]\w*|[=!<>+\-*/]=|=>|<<|>>|&&|\|\||\+\+|--
      |[(){}\[\];,.:?+\-*/%@!~&|^<>=])
  | (?P<uword>\w+)
  | (?P<string>"(?:[^"\\\n]|\\(?s:.))*")
  | (?P<open_string>"(?:[^"\\\n]|\\(?s:.))*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_ESCAPE = re.compile(r"\\(?s:.)")

_NUMBER_KINDS = {
    "f": TokenKind.FLOAT_LIT,
    "F": TokenKind.FLOAT_LIT,
    "d": TokenKind.DOUBLE_LIT,
    "D": TokenKind.DOUBLE_LIT,
    "l": TokenKind.LONG_LIT,
    "L": TokenKind.LONG_LIT,
}


def lex(source: str, filename: str = "<lime>") -> "list[Token]":
    """Lex ``source`` into a token list ending with EOF; raises
    LimeSyntaxError on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    fixed = _FIXED
    ident = _IDENT
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        start = match.start()
        if group == "newline":
            line += 1
            line_start = start + 1
            continue
        text = match.group()
        position = SourcePosition(line, start - line_start + 1, filename)
        if group == "fixed":
            kind, value = fixed.get(text, ident)
            append(Token(kind, text, position, value))
        elif group == "integer":
            append(_integer(text, position))
        elif group == "real":
            kind = _NUMBER_KINDS.get(text[-1])
            value = float(text) if kind is None else float(text[:-1])
            append(Token(kind or TokenKind.DOUBLE_LIT, text, position, value))
        elif group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif group == "string":
            value = _unescape(text[1:-1], position)
            append(Token(TokenKind.STRING_LIT, value, position, value))
        elif group == "uword" and text[0].isalpha():
            append(Token(TokenKind.IDENT, text, position, None))
        elif group == "open_comment":
            raise LimeSyntaxError("unterminated comment", position)
        elif group == "open_string":
            _unescape(text[1:], position)
            raise LimeSyntaxError("unterminated string literal", position)
        else:  # bad, or a word starting with a non-letter such as ``²``
            raise LimeSyntaxError(
                f"unexpected character {text[0]!r}", position
            )
    append(
        Token(
            TokenKind.EOF, "",
            SourcePosition(line, len(source) - line_start + 1, filename),
        )
    )
    return tokens


def _integer(text: str, position: SourcePosition) -> Token:
    suffix = text[-1]
    if suffix == "b":
        digits = text[:-1]
        if digits.strip("01"):
            raise LimeSyntaxError(
                f"malformed bit literal {text}: digits must be 0 or 1",
                position,
            )
        return Token(
            TokenKind.BIT_LIT, text, position, parse_bit_literal(digits)
        )
    kind = _NUMBER_KINDS.get(suffix)
    if kind is None:
        return Token(TokenKind.INT_LIT, text, position, int(text))
    if kind is TokenKind.LONG_LIT:
        return Token(kind, text, position, int(text[:-1]))
    return Token(kind, text, position, float(text[:-1]))


def _unescape(body: str, position: SourcePosition) -> str:
    """A string literal's value; raises on the first unknown escape."""
    if "\\" not in body:
        return body

    def replace(match):
        escape = match.group()[1]
        if escape not in _ESCAPES:
            raise LimeSyntaxError(f"unknown escape \\{escape}", position)
        return _ESCAPES[escape]

    return _ESCAPE.sub(replace, body)
