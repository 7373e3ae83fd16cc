"""Tests for the IR verifier: hand-built broken IR must be rejected;
everything the real pipeline produces must pass (checked implicitly by
the whole suite, spot-checked here)."""

import pytest

from repro.apps import SUITE
from repro.errors import LoweringError
from repro.ir.builder import build_ir
from repro.ir import nodes as ir
from repro.ir.verifier import _FunctionVerifier, verify_module
from repro.lime.typecheck import analyze
from repro.lime import types as ty


def make_function(body, params=(), return_type=ty.VOID, is_local=False):
    return ir.IRFunction(
        qualified_name="T.broken",
        params=[ir.IRParam(n, t) for n, t in params],
        return_type=return_type,
        body=body,
        is_local=is_local,
    )


def make_module(function, extra_functions=()):
    functions = {function.qualified_name: function}
    for f in extra_functions:
        functions[f.qualified_name] = f
    return ir.IRModule(functions=functions, classes={})


def verify_one(function, extra=()):
    _FunctionVerifier(function, make_module(function, extra)).run()


class TestRejections:
    def test_undefined_local(self):
        f = make_function(
            [ir.SReturn(ir.ELocal(ty.INT, "ghost"))],
            return_type=ty.INT,
        )
        with pytest.raises(LoweringError, match="undefined local"):
            verify_one(f)

    def test_assignment_before_declaration(self):
        f = make_function(
            [ir.SAssignLocal("x", ir.EConst(ty.INT, 1))]
        )
        with pytest.raises(LoweringError, match="undefined local"):
            verify_one(f)

    def test_untyped_expression(self):
        f = make_function([ir.SExpr(ir.EConst(None, 1))])
        with pytest.raises(LoweringError, match="no type"):
            verify_one(f)

    def test_unknown_callee(self):
        f = make_function(
            [ir.SExpr(ir.ECall(ty.VOID, "Nowhere.m", []))]
        )
        with pytest.raises(LoweringError, match="unknown function"):
            verify_one(f)

    def test_break_outside_loop(self):
        f = make_function([ir.SBreak()])
        with pytest.raises(LoweringError, match="break/continue"):
            verify_one(f)

    def test_missing_return(self):
        f = make_function([], return_type=ty.INT)
        with pytest.raises(LoweringError, match="without returning"):
            verify_one(f)

    def test_value_return_from_void(self):
        f = make_function([ir.SReturn(ir.EConst(ty.INT, 1))])
        with pytest.raises(LoweringError, match="void"):
            verify_one(f)

    def test_unreachable_statement(self):
        f = make_function(
            [
                ir.SReturn(ir.EConst(ty.INT, 1)),
                ir.SExpr(ir.ECall(ty.VOID, "T.broken", [])),
            ],
            return_type=ty.INT,
        )
        with pytest.raises(LoweringError, match="unreachable"):
            verify_one(f)

    def test_graph_construction_in_local_function(self):
        f = make_function(
            [
                ir.SExpr(
                    ir.EGraphTask(
                        ty.TaskType(ty.INT, ty.INT), "T.x"
                    )
                )
            ],
            is_local=True,
        )
        f.body[0].expr.type = ty.TaskType(ty.INT, ty.INT)
        with pytest.raises(LoweringError, match="local method"):
            verify_one(f)

    def test_branch_scoped_local_rejected_after_join(self):
        cond = ir.EConst(ty.BOOLEAN, True)
        f = make_function(
            [
                ir.SIf(
                    cond,
                    [ir.SLet("x", ty.INT, ir.EConst(ty.INT, 1))],
                    [],
                ),
                ir.SReturn(ir.ELocal(ty.INT, "x")),
            ],
            return_type=ty.INT,
        )
        with pytest.raises(LoweringError, match="undefined local"):
            verify_one(f)


    def test_integer_operation_on_a_double_operand(self):
        # What 'x += 2.5' on an int x lowered to before the checker's
        # operation type reached the IR: an int add of a double.
        f = make_function(
            [
                ir.SReturn(
                    ir.EBinary(
                        ty.INT, "+", ir.ELocal(ty.INT, "x"),
                        ir.EConst(ty.DOUBLE, 2.5),
                    )
                )
            ],
            params=[("x", ty.INT)],
            return_type=ty.INT,
        )
        with pytest.raises(LoweringError, match="int '\\+' has a double"):
            verify_one(f)

    def test_long_negation_of_a_float(self):
        f = make_function(
            [ir.SReturn(ir.EUnary(ty.LONG, "-", ir.ELocal(ty.FLOAT, "x")))],
            params=[("x", ty.FLOAT)],
            return_type=ty.LONG,
        )
        with pytest.raises(LoweringError, match="long '-' has a float"):
            verify_one(f)


class TestAcceptances:
    def test_integer_operations_mix_int_and_long(self):
        f = make_function(
            [
                ir.SReturn(
                    ir.EBinary(
                        ty.INT, "<<", ir.ELocal(ty.INT, "x"),
                        ir.EConst(ty.LONG, 3),
                    )
                )
            ],
            params=[("x", ty.INT)],
            return_type=ty.INT,
        )
        verify_one(f)

    def test_compound_assignment_is_the_promoted_operation_then_a_cast(self):
        module = build_ir(analyze(
            "class C { static int f(int x) { x /= 0.1; return x; } }"
        ), run_optimizations=False)
        (store, _) = module.functions["C.f"].body
        assert isinstance(store.value, ir.ECast)
        assert store.value.type == ty.INT
        assert store.value.operand.type == ty.DOUBLE
        assert store.value.operand.op == "/"

    def test_both_arm_definition_survives_join(self):
        cond_param = ("c", ty.BOOLEAN)
        f = make_function(
            [
                ir.SIf(
                    ir.ELocal(ty.BOOLEAN, "c"),
                    [ir.SLet("x", ty.INT, ir.EConst(ty.INT, 1))],
                    [ir.SLet("x", ty.INT, ir.EConst(ty.INT, 2))],
                ),
                ir.SReturn(ir.ELocal(ty.INT, "x")),
            ],
            params=[cond_param],
            return_type=ty.INT,
        )
        verify_one(f)

    def test_early_return_arm_keeps_other_arms_defs(self):
        f = make_function(
            [
                ir.SIf(
                    ir.ELocal(ty.BOOLEAN, "c"),
                    [ir.SReturn(ir.EConst(ty.INT, 0))],
                    [ir.SLet("x", ty.INT, ir.EConst(ty.INT, 2))],
                ),
                ir.SReturn(ir.ELocal(ty.INT, "x")),
            ],
            params=[("c", ty.BOOLEAN)],
            return_type=ty.INT,
        )
        verify_one(f)

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_real_pipeline_output_verifies(self, name):
        module = build_ir(analyze(SUITE[name].source))
        verify_module(module)  # explicitly, beyond build_ir's own call
