"""The character-at-a-time Lime lexer: the differential oracle.

Until ``repro.lime.lexer`` became one compiled master pattern, this was
``Lexer`` in ``src/repro/lime/lexer.py``. It lives on here, moved
verbatim apart from two fixes applied to both lexers (literals take
ASCII digits only; a backslash at the end of the input inside a string
is an unterminated string, not an ``IndexError``), as the reference
``tests/test_lexer_differential.py`` holds ``lex`` against: same kind,
text, value and position for every token, and the same exception
class, message and position for every error.
"""

from __future__ import annotations

from repro.errors import LimeSyntaxError, SourcePosition
from repro.lime.tokens import KEYWORDS, Token, TokenKind

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


def _is_digit(ch: str) -> bool:
    """An ASCII digit (``str.isdigit`` also takes ``²`` and ``٣``)."""
    return "0" <= ch <= "9"


class Lexer:
    """Converts Lime source text into a token list (ending with EOF)."""

    def __init__(self, source: str, filename: str = "<lime>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def _position(self) -> SourcePosition:
        return SourcePosition(self.line, self.column, self.filename)

    def _peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        return self.source[index] if index < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._position()
                self._advance()
                self._advance()
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise LimeSyntaxError("unterminated comment", start)
                    self._advance()
                self._advance()
                self._advance()
            else:
                return

    def tokens(self) -> "list[Token]":
        """Lex the whole source; raises LimeSyntaxError on bad input."""
        out: list[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                out.append(Token(TokenKind.EOF, "", self._position()))
                return out
            out.append(self._next_token())

    def _next_token(self) -> Token:
        position = self._position()
        ch = self._peek()
        if _is_digit(ch):
            return self._lex_number(position)
        if ch.isalpha() or ch == "_":
            return self._lex_word(position)
        if ch == '"':
            return self._lex_string(position)
        two = ch + self._peek(1)
        if two in _TWO_CHAR:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR[two], two, position)
        if ch in _ONE_CHAR:
            self._advance()
            return Token(_ONE_CHAR[ch], ch, position)
        raise LimeSyntaxError(f"unexpected character {ch!r}", position)

    def _lex_word(self, position: SourcePosition) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        if kind in (TokenKind.KW_TRUE, TokenKind.KW_FALSE):
            return Token(kind, text, position, text == "true")
        return Token(kind, text, position)

    def _lex_string(self, position: SourcePosition) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source) or self._peek() == "\n":
                raise LimeSyntaxError("unterminated string literal", position)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                if self.pos >= len(self.source):
                    raise LimeSyntaxError(
                        "unterminated string literal", position
                    )
                esc = self._advance()
                escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                if esc not in escapes:
                    raise LimeSyntaxError(
                        f"unknown escape \\{esc}", position
                    )
                chars.append(escapes[esc])
            else:
                chars.append(ch)
        text = "".join(chars)
        return Token(TokenKind.STRING_LIT, text, position, text)

    def _lex_number(self, position: SourcePosition) -> Token:
        start = self.pos
        while _is_digit(self._peek()):
            self._advance()
        is_float = False
        # Fractional part: require a digit after '.' to keep member
        # access on literals unambiguous.
        if self._peek() == "." and _is_digit(self._peek(1)):
            is_float = True
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        # Exponent part.
        if self._peek() in "eE" and (
            _is_digit(self._peek(1))
            or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while _is_digit(self._peek()):
                self._advance()
        text = self.source[start : self.pos]
        # NB: guard against end-of-input — '' would match any `in` test.
        suffix = self._peek() or "\0"
        if not is_float and suffix == "b" and not self._peek(1).isalnum():
            # Bit literal, e.g. 100b. Only 0/1 digits are legal.
            self._advance()
            if any(c not in "01" for c in text):
                raise LimeSyntaxError(
                    f"malformed bit literal {text}b: digits must be 0 or 1",
                    position,
                )
            from repro.values.bits import parse_bit_literal

            return Token(
                TokenKind.BIT_LIT, text + "b", position, parse_bit_literal(text)
            )
        if suffix in "fF":
            self._advance()
            return Token(
                TokenKind.FLOAT_LIT, text + suffix, position, float(text)
            )
        if suffix in "dD":
            self._advance()
            return Token(
                TokenKind.DOUBLE_LIT, text + suffix, position, float(text)
            )
        if not is_float and suffix in "lL":
            self._advance()
            return Token(
                TokenKind.LONG_LIT, text + suffix, position, int(text)
            )
        if is_float:
            return Token(TokenKind.DOUBLE_LIT, text, position, float(text))
        return Token(TokenKind.INT_LIT, text, position, int(text))


def lex(source: str, filename: str = "<lime>") -> "list[Token]":
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
