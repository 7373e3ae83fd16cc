"""Unit tests for the Lime parser."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY, USER_ENUM
from repro.errors import LimeSyntaxError
from repro.lime.parser import parse
from repro.lime import ast_nodes as ast


class TestFigure1:
    def test_parses(self):
        program = parse(FIGURE1)
        assert len(program.classes) == 1
        cls = program.classes[0]
        assert cls.name == "Bitflip"
        assert [m.name for m in cls.methods] == [
            "flip",
            "mapFlip",
            "taskFlip",
        ]

    def test_flip_modifiers(self):
        cls = parse(FIGURE1).classes[0]
        flip = cls.methods[0]
        assert "local" in flip.modifiers
        assert "static" in flip.modifiers

    def test_map_expression_shape(self):
        cls = parse(FIGURE1).classes[0]
        map_flip = cls.methods[1]
        decl = map_flip.body.statements[0]
        assert isinstance(decl, ast.VarDecl)
        assert decl.type_syntax is None  # 'var'
        assert isinstance(decl.init, ast.MapExpr)
        assert decl.init.receiver == "Bitflip"
        assert decl.init.method == "flip"

    def test_task_graph_shape(self):
        cls = parse(FIGURE1).classes[0]
        task_flip = cls.methods[2]
        graph_decl = task_flip.body.statements[1]
        connect = graph_decl.init
        # ((source => reloc) => sink)
        assert isinstance(connect, ast.ConnectExpr)
        assert isinstance(connect.left, ast.ConnectExpr)
        source = connect.left.left
        reloc = connect.left.right
        sink = connect.right
        assert isinstance(source, ast.Call) and source.name == "source"
        assert isinstance(reloc, ast.RelocExpr)
        assert isinstance(reloc.inner, ast.TaskExpr)
        assert reloc.inner.method == "flip"
        assert isinstance(sink, ast.Call) and sink.name == "sink"
        assert len(sink.type_args) == 1
        assert sink.type_args[0].name == "bit"

    def test_value_array_types(self):
        cls = parse(FIGURE1).classes[0]
        map_flip = cls.methods[1]
        assert str(map_flip.return_type) == "bit[[]]"
        assert str(map_flip.params[0].type_syntax) == "bit[[]]"


class TestEnum:
    def test_user_enum(self):
        program = parse(USER_ENUM)
        cls = program.classes[0]
        assert cls.is_enum
        assert cls.is_value
        assert cls.enum_constants == ["red", "green", "blue"]
        assert len(cls.methods) == 1

    def test_operator_method(self):
        cls = parse(USER_ENUM).classes[0]
        op = cls.methods[0]
        assert op.is_operator
        assert op.name == "~"
        assert op.params == []

    def test_figure1_bit_enum_shape(self):
        # Figure 1 lines 1-6 verbatim, with a non-reserved name.
        source = """
        public value enum mybit {
            zero, one;
            public mybit ~ this {
                return this == zero ? one : zero;
            }
        }
        """
        cls = parse(source).classes[0]
        assert cls.enum_constants == ["zero", "one"]
        assert cls.methods[0].is_operator


class TestExpressions:
    def wrap(self, expr_text, pre=""):
        source = f"class T {{ static void m() {{ {pre} var r = {expr_text}; }} }}"
        program = parse(source)
        body = program.classes[0].methods[0].body
        return body.statements[-1].init

    def test_precedence_mul_over_add(self):
        expr = self.wrap("1 + 2 * 3")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_ternary(self):
        expr = self.wrap("true ? 1 : 2")
        assert isinstance(expr, ast.Ternary)

    def test_reduce_expr(self):
        expr = self.wrap("Ops ! add(xs)")
        assert isinstance(expr, ast.ReduceExpr)
        assert expr.receiver == "Ops"
        assert expr.method == "add"

    def test_unary_not_vs_reduce(self):
        expr = self.wrap("!flag")
        assert isinstance(expr, ast.Unary) and expr.op == "!"

    def test_new_array(self):
        expr = self.wrap("new int[10]")
        assert isinstance(expr, ast.New)
        assert expr.array_length is not None

    def test_new_value_array_conversion(self):
        expr = self.wrap("new bit[[]](result)")
        assert isinstance(expr, ast.New)
        assert expr.type_syntax.array_dims == ["value"]

    def test_cast(self):
        expr = self.wrap("(int) x")
        assert isinstance(expr, ast.Cast)

    def test_parenthesized_not_cast(self):
        expr = self.wrap("(x)")
        assert isinstance(expr, ast.Name)

    def test_chained_connects_left_associative(self):
        expr = self.wrap("a => b => c")
        assert isinstance(expr, ast.ConnectExpr)
        assert isinstance(expr.left, ast.ConnectExpr)

    def test_index_chains(self):
        expr = self.wrap("m[i][j]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.array, ast.Index)

    def test_task_with_class_qualifier(self):
        expr = self.wrap("task Ops.f")
        assert isinstance(expr, ast.TaskExpr)
        assert expr.receiver == "Ops"
        assert expr.method == "f"

    def test_nested_index_not_value_array_decl(self):
        # a[b[i]] = 1; must parse as an assignment, not a declaration.
        source = "class T { static void m(int[] a, int[] b, int i) { a[b[i]] = 1; } }"
        program = parse(source)
        stmt = program.classes[0].methods[0].body.statements[0]
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.Assign)


class TestStatements:
    def parse_body(self, body_text, params=""):
        source = f"class T {{ static void m({params}) {{ {body_text} }} }}"
        return parse(source).classes[0].methods[0].body.statements

    def test_if_else(self):
        stmts = self.parse_body("if (x) { return; } else { return; }", "boolean x")
        assert isinstance(stmts[0], ast.If)
        assert stmts[0].other is not None

    def test_for_loop(self):
        stmts = self.parse_body("for (int i = 0; i < 10; i++) { }")
        loop = stmts[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.VarDecl)
        assert isinstance(loop.update, ast.Unary)

    def test_while_loop(self):
        stmts = self.parse_body("while (x) { }", "boolean x")
        assert isinstance(stmts[0], ast.While)

    def test_multi_declarator(self):
        stmts = self.parse_body("int a = 1, b = 2;")
        assert isinstance(stmts[0], ast.Block)
        assert len(stmts[0].statements) == 2

    def test_break_continue(self):
        stmts = self.parse_body("while (true) { break; } while (true) { continue; }")
        assert isinstance(stmts[0].body.statements[0], ast.Break)
        assert isinstance(stmts[1].body.statements[0], ast.Continue)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(LimeSyntaxError):
            parse("class T { static void m() { int x = 1 } }")

    def test_bad_assignment_target(self):
        with pytest.raises(LimeSyntaxError):
            parse("class T { static void m() { 1 = 2; } }")

    def test_unclosed_class(self):
        with pytest.raises(LimeSyntaxError):
            parse("class T {")

    def test_map_receiver_must_be_name(self):
        with pytest.raises(LimeSyntaxError):
            parse("class T { static void m() { var x = (1+2) @ f(a); } }")

    def test_type_args_require_call(self):
        with pytest.raises(LimeSyntaxError):
            parse("class T { static void m(int[] r) { var x = r.<bit>field; } }")


def _returning(expr: str, type_name: str = "int") -> str:
    return (
        f"public class L {{ public static {type_name} f() "
        f"{{ return {expr}; }} }}"
    )


class TestIntegerLiteralRanges:
    @pytest.mark.parametrize(
        "expr, type_name, literal",
        [
            ("2147483648", "int", "2147483648"),
            ("12345678901234567890", "long", "12345678901234567890"),
            ("9223372036854775808L", "long", "9223372036854775808L"),
            ("-(2147483648)", "int", "2147483648"),
            ("1 - 2147483648", "int", "2147483648"),
        ],
    )
    def test_out_of_range_is_a_positioned_error(
        self, expr, type_name, literal
    ):
        source = _returning(expr, type_name)
        with pytest.raises(LimeSyntaxError) as info:
            parse(source)
        assert f"integer number too large: {literal}" in str(info.value)
        assert info.value.position.column == source.index(literal) + 1

    @pytest.mark.parametrize(
        "expr, type_name, value, is_long",
        [
            ("-2147483648", "int", 2147483648, False),
            ("- 2147483648", "int", 2147483648, False),
            ("-9223372036854775808L", "long", 9223372036854775808, True),
        ],
    )
    def test_minimum_as_operand_of_unary_minus(
        self, expr, type_name, value, is_long
    ):
        ret = parse(_returning(expr, type_name)).classes[0].methods[0]
        result = ret.body.statements[0].value
        assert isinstance(result, ast.Unary) and result.op == "-"
        assert isinstance(result.operand, ast.IntLit)
        assert result.operand.value == value
        assert result.operand.is_long == is_long

    def test_maximum_is_accepted(self):
        parse(_returning("2147483647"))
        parse(_returning("9223372036854775807L", "long"))


class TestSaxpy:
    def test_parses(self):
        program = parse(SAXPY)
        assert program.classes[0].name == "Saxpy"
        assert len(program.classes[0].methods) == 4
