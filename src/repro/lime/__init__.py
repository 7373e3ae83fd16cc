"""The Lime language frontend: lexer, parser, types, semantic analysis."""

from repro.lime.lexer import lex
from repro.lime.parser import Parser, parse
from repro.lime.printer import pretty
from repro.lime.typecheck import TypeChecker, analyze, check

__all__ = [
    "Parser",
    "TypeChecker",
    "analyze",
    "check",
    "lex",
    "parse",
    "pretty",
]
