"""Unit tests for the Lime lexer."""

import os
import re

import pytest

from repro.errors import LimeSyntaxError
from repro.lime.lexer import _MASTER, lex
from repro.lime.tokens import TokenKind
from repro.values import Bit


def kinds(source):
    return [t.kind for t in lex(source)][:-1]  # drop EOF


class TestBasics:
    def test_empty_source(self):
        tokens = lex("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("foo class value local task") == [
            TokenKind.IDENT,
            TokenKind.KW_CLASS,
            TokenKind.KW_VALUE,
            TokenKind.KW_LOCAL,
            TokenKind.KW_TASK,
        ]

    def test_line_comments_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comments_skipped(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LimeSyntaxError):
            lex("a /* never closed")

    def test_positions_track_lines(self):
        tokens = lex("a\n  b")
        assert tokens[0].position.line == 1
        assert tokens[1].position.line == 2
        assert tokens[1].position.column == 3

    def test_unexpected_character(self):
        with pytest.raises(LimeSyntaxError):
            lex("a $ b")


class TestOperators:
    def test_connect_vs_assign_vs_eq(self):
        assert kinds("= => ==") == [
            TokenKind.ASSIGN,
            TokenKind.CONNECT,
            TokenKind.EQ,
        ]

    def test_map_and_reduce_tokens(self):
        assert kinds("@ !") == [TokenKind.AT, TokenKind.BANG]

    def test_bang_equals(self):
        assert kinds("!=") == [TokenKind.NE]

    def test_shifts_and_relations(self):
        assert kinds("< << <= > >> >=") == [
            TokenKind.LT,
            TokenKind.SHL,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.SHR,
            TokenKind.GE,
        ]

    def test_compound_assignment(self):
        assert kinds("+= -= *= /= ++ --") == [
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.STAR_ASSIGN,
            TokenKind.SLASH_ASSIGN,
            TokenKind.PLUS_PLUS,
            TokenKind.MINUS_MINUS,
        ]

    def test_brackets_are_individual_tokens(self):
        # '[[]]' lexes as four tokens; the parser reassembles them.
        assert kinds("bit[[]]") == [
            TokenKind.KW_BIT,
            TokenKind.LBRACKET,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.RBRACKET,
        ]


class TestNumbers:
    def test_int_literal(self):
        token = lex("42")[0]
        assert token.kind == TokenKind.INT_LIT
        assert token.value == 42

    def test_long_literal(self):
        token = lex("42L")[0]
        assert token.kind == TokenKind.LONG_LIT
        assert token.value == 42

    def test_float_literal(self):
        token = lex("2.5f")[0]
        assert token.kind == TokenKind.FLOAT_LIT
        assert token.value == 2.5

    def test_double_literal(self):
        token = lex("2.5")[0]
        assert token.kind == TokenKind.DOUBLE_LIT
        assert token.value == 2.5

    def test_exponent_literal(self):
        token = lex("1e-3")[0]
        assert token.kind == TokenKind.DOUBLE_LIT
        assert token.value == 1e-3

    def test_member_access_on_int_stays_int(self):
        # '1.foo' must not lex 1. as a double.
        assert kinds("x1.length") == [TokenKind.IDENT, TokenKind.DOT, TokenKind.IDENT]


class TestBitLiterals:
    def test_paper_literal_100b(self):
        token = lex("100b")[0]
        assert token.kind == TokenKind.BIT_LIT
        assert token.value == (Bit.ZERO, Bit.ZERO, Bit.ONE)

    def test_single_bit_literals(self):
        assert lex("0b")[0].kind == TokenKind.BIT_LIT
        assert lex("1b")[0].kind == TokenKind.BIT_LIT

    def test_nine_bit_waveform_input(self):
        # The Figure 4 example drives 9 input bits.
        token = lex("110010111b")[0]
        assert token.kind == TokenKind.BIT_LIT
        assert len(token.value) == 9

    def test_malformed_bit_literal(self):
        with pytest.raises(LimeSyntaxError):
            lex("102b")

    def test_bit_literal_requires_boundary(self):
        # '100bc' is an error (no identifier may follow a number).
        tokens = lex("100bc")
        # lexes as INT 100 then IDENT 'bc' — the parser will reject the
        # juxtaposition, but the lexer must not claim a bit literal.
        assert tokens[0].kind == TokenKind.INT_LIT
        assert tokens[1].kind == TokenKind.IDENT


class TestStrings:
    def test_string_literal(self):
        token = lex('"hello"')[0]
        assert token.kind == TokenKind.STRING_LIT
        assert token.value == "hello"

    def test_escapes(self):
        assert lex(r'"a\nb"')[0].value == "a\nb"
        assert lex(r'"a\"b"')[0].value == 'a"b'

    def test_unterminated_string(self):
        with pytest.raises(LimeSyntaxError):
            lex('"oops')


class TestUnicode:
    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_is_not_a_literal(self, digit):
        # str.isdigit() takes both; a Lime literal takes 0-9 only.
        with pytest.raises(LimeSyntaxError) as info:
            lex(f"x = {digit};")
        assert str(info.value) == (
            f"<lime>:1:5: unexpected character {digit!r}"
        )
        assert info.value.position.column == 5

    def test_non_ascii_digit_after_ascii_digits(self):
        with pytest.raises(LimeSyntaxError, match="unexpected character"):
            lex("x = 1²;")

    def test_unicode_identifiers_stay_accepted(self):
        tokens = lex("int é = 1; int x٣ = 2;")
        assert [t.text for t in tokens if t.kind == TokenKind.IDENT] == [
            "é", "x٣",
        ]

    def test_backslash_at_end_of_input_in_a_string(self):
        with pytest.raises(
            LimeSyntaxError, match="unterminated string literal"
        ):
            lex('"abc\\')


class TestToken:
    def test_equality_and_hash(self):
        first, again = lex("x 1"), lex("x 1")
        assert first == again
        assert hash(first[0]) == hash(again[0])
        assert first[0] != first[1]
        assert first[0] != ("IDENT", "x")

    def test_value_and_position_take_part_in_equality(self):
        assert lex("1")[0] != lex("1L")[0]
        assert lex("x")[0] != lex(" x")[0]

    def test_repr(self):
        token = lex("\n  foo")[0]
        assert repr(token) == "Token(IDENT, 'foo'@<lime>:2:3)"
        assert token.value is None


def test_language_doc_quotes_the_master_pattern():
    doc = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "docs", "LANGUAGE.md"
    )
    with open(doc, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Lexical grammar", 1)[1]
    quoted = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert quoted.strip() == _MASTER.pattern.strip()
