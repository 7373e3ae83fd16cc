"""The master-pattern lexer against the character-loop oracle.

``repro.lime.lexer.lex`` must give, for any input, what
``tests/oracle_lexer.py`` gives: per token the kind, text, value (and
the value's type) and position; per error the exception class, message
and position. Checked on all 17 suite sources, a list of edge cases
and two generators: token soup (every keyword and operator, literal
forms and suffixes, comments, strings with escapes, joined with or
without whitespace) and raw character soup over the characters the
lexical grammar cares about.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle_lexer import _ONE_CHAR, _TWO_CHAR
from tests.oracle_lexer import lex as oracle_lex
from repro.apps import SUITE
from repro.lime.lexer import lex
from repro.lime.tokens import KEYWORDS


def outcome(lexer, source):
    try:
        tokens = lexer(source, "<diff>")
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))
    return [
        (t.kind, t.text, type(t.value), t.value, t.position) for t in tokens
    ]


def assert_same(source):
    assert outcome(lex, source) == outcome(oracle_lex, source), source


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_source_matches_oracle(name):
    assert_same(SUITE[name].source)


EDGES = [
    "", " ", "\n", "\r\n", "\t", "x", "1.e5", "1e", "1e+", "1e-5", "1E+5f",
    "100b2", "100b", "0b", "1.5b", "12b", "100b_", "100bx", "100b.", "1__2",
    "x.1", "1.5.5", "1x", "9abc", "1.5L", "1e5L", "2L", "2l", "3f", "3.f",
    "4D", "4.5d", "09", "1 .5", "a/*b*/c", "a/*b\n\nc*/d", "/*", "a /*",
    "/*/", "/**/", "/***/x", "//", "// x\ny", '"', 'a "', '"abc', '"a\\',
    '"\\"', '"a\nb"', '"\\n\\t\\"\\\\"', '"\\q"', '"\\q', '"a\\\nb"',
    "x = ²;", "x = ٣;", "1²", "x٣", "int é = 1;", "Ⅻ", "_", "_1", "$",
    "#", "a\x0cb", " ", "=>=", "===", "!==", "<<=", ">>=", "+++",
    "---", "&&&", "|||", "a+=b-=c*=d/=e", "/=", "/ =", "2147483648",
    "12345678901234567890", "12345678901234567890L", "true false",
    "truex", "String string", "\r", "a\r\nb\r\n  c",
]


@pytest.mark.parametrize("source", EDGES)
def test_edge_case_matches_oracle(source):
    assert_same(source)


_WORDS = list(KEYWORDS) + ["x", "foo", "_tmp", "a1", "é", "x٣", "b", "e"]
_PUNCT = list(_TWO_CHAR) + list(_ONE_CHAR)
_LITERALS = [
    "0", "7", "42", "100", "2147483647", "1.5", "0.25", "1e5", "1E-3",
    "2.5e+2", "3f", "3.5F", "4d", "4.0D", "5L", "6l", "0b", "1b", "101b",
    '""', '"hi"', '"a\\nb"', '"\\t"', '"\\""', '"\\\\"', "1.e5", "1e",
    "1e+", "100b2", "1.5b", "1__2", "x.1", "9x",
]
_TRIVIA = [
    "", " ", "  ", "\t", "\n", "\r\n", "// note\n", "/* c */", "/* a\nb */",
]

fragments = st.sampled_from(_WORDS + _PUNCT + _LITERALS + _TRIVIA)


@settings(max_examples=300, deadline=None)
@given(st.lists(fragments, max_size=30), st.lists(st.sampled_from(_TRIVIA)))
def test_token_soup_matches_oracle(parts, separators):
    # Separators cycle between the parts; "" glues neighbours together.
    seps = separators or [""]
    source = "".join(
        part + seps[i % len(seps)] for i, part in enumerate(parts)
    )
    assert_same(source)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='019abeEfdLlx_é²٣. +-*/=<>!&|"\\\n\r\t;()[]$', max_size=40))
def test_character_soup_matches_oracle(source):
    assert_same(source)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=30))
def test_any_text_matches_oracle(source):
    assert_same(source)
