"""Token definitions for the Lime lexer."""

from __future__ import annotations

from enum import Enum, auto

from repro.errors import SourcePosition


class TokenKind(Enum):
    # Literals and names
    IDENT = auto()
    INT_LIT = auto()
    LONG_LIT = auto()
    FLOAT_LIT = auto()
    DOUBLE_LIT = auto()
    BIT_LIT = auto()
    STRING_LIT = auto()

    # Punctuation
    LPAREN = auto()      # (
    RPAREN = auto()      # )
    LBRACE = auto()      # {
    RBRACE = auto()      # }
    LBRACKET = auto()    # [
    RBRACKET = auto()    # ]
    SEMI = auto()        # ;
    COMMA = auto()       # ,
    DOT = auto()         # .
    COLON = auto()       # :
    QUESTION = auto()    # ?

    # Operators
    ASSIGN = auto()      # =
    PLUS_ASSIGN = auto()     # +=
    MINUS_ASSIGN = auto()    # -=
    STAR_ASSIGN = auto()     # *=
    SLASH_ASSIGN = auto()    # /=
    CONNECT = auto()     # =>
    PLUS = auto()        # +
    MINUS = auto()       # -
    STAR = auto()        # *
    SLASH = auto()       # /
    PERCENT = auto()     # %
    AT = auto()          # @  (map operator)
    BANG = auto()        # !  (unary not / binary reduce operator)
    TILDE = auto()       # ~
    AMP = auto()         # &
    PIPE = auto()        # |
    CARET = auto()       # ^
    AMP_AMP = auto()     # &&
    PIPE_PIPE = auto()   # ||
    EQ = auto()          # ==
    NE = auto()          # !=
    LT = auto()          # <
    GT = auto()          # >
    LE = auto()          # <=
    GE = auto()          # >=
    SHL = auto()         # <<
    SHR = auto()         # >>
    PLUS_PLUS = auto()   # ++
    MINUS_MINUS = auto() # --

    # Keywords
    KW_CLASS = auto()
    KW_ENUM = auto()
    KW_VALUE = auto()
    KW_LOCAL = auto()
    KW_PUBLIC = auto()
    KW_PRIVATE = auto()
    KW_STATIC = auto()
    KW_FINAL = auto()
    KW_VAR = auto()
    KW_NEW = auto()
    KW_RETURN = auto()
    KW_IF = auto()
    KW_ELSE = auto()
    KW_FOR = auto()
    KW_WHILE = auto()
    KW_BREAK = auto()
    KW_CONTINUE = auto()
    KW_TASK = auto()
    KW_THIS = auto()
    KW_TRUE = auto()
    KW_FALSE = auto()
    KW_VOID = auto()
    KW_INT = auto()
    KW_LONG = auto()
    KW_FLOAT = auto()
    KW_DOUBLE = auto()
    KW_BOOLEAN = auto()
    KW_BIT = auto()
    KW_STRING = auto()

    EOF = auto()


KEYWORDS = {
    "class": TokenKind.KW_CLASS,
    "enum": TokenKind.KW_ENUM,
    "value": TokenKind.KW_VALUE,
    "local": TokenKind.KW_LOCAL,
    "public": TokenKind.KW_PUBLIC,
    "private": TokenKind.KW_PRIVATE,
    "static": TokenKind.KW_STATIC,
    "final": TokenKind.KW_FINAL,
    "var": TokenKind.KW_VAR,
    "new": TokenKind.KW_NEW,
    "return": TokenKind.KW_RETURN,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "task": TokenKind.KW_TASK,
    "this": TokenKind.KW_THIS,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "void": TokenKind.KW_VOID,
    "int": TokenKind.KW_INT,
    "long": TokenKind.KW_LONG,
    "float": TokenKind.KW_FLOAT,
    "double": TokenKind.KW_DOUBLE,
    "boolean": TokenKind.KW_BOOLEAN,
    "bit": TokenKind.KW_BIT,
    "String": TokenKind.KW_STRING,
}

PRIMITIVE_TYPE_KINDS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_LONG: "long",
    TokenKind.KW_FLOAT: "float",
    TokenKind.KW_DOUBLE: "double",
    TokenKind.KW_BOOLEAN: "boolean",
    TokenKind.KW_BIT: "bit",
    TokenKind.KW_VOID: "void",
}


class Token:
    """One lexical token with its source position and literal payload.

    A plain ``__slots__`` class: the lexer makes one per token, and a
    frozen dataclass costs about 2.5x as much to construct."""

    __slots__ = ("kind", "text", "position", "value")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        position: SourcePosition,
        value: object = None,
    ):
        self.kind = kind
        self.text = text
        self.position = position
        self.value = value

    def _key(self) -> tuple:
        return (self.kind, self.text, self.position, self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}@{self.position})"
