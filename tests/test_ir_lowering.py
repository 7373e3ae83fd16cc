"""Tests for AST -> IR lowering, shape discovery, and optimizations."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY
from repro.errors import TaskGraphError
from repro.ir.builder import build_ir, lower
from repro.ir.optimizations import optimize
from repro.ir import nodes as ir
from repro.lime.typecheck import analyze
from repro.lime import types as ty


def module_for(source, optimized=True):
    return build_ir(analyze(source), run_optimizations=optimized)


class TestFigure1Lowering:
    def test_functions_present(self):
        module = module_for(FIGURE1)
        assert "Bitflip.flip" in module.functions
        assert "Bitflip.mapFlip" in module.functions
        assert "Bitflip.taskFlip" in module.functions

    def test_flip_body_is_intrinsic_invert(self):
        module = module_for(FIGURE1)
        flip = module.functions["Bitflip.flip"]
        assert len(flip.body) == 1
        ret = flip.body[0]
        assert isinstance(ret, ir.SReturn)
        assert isinstance(ret.value, ir.EIntrinsic)
        assert ret.value.name == "bit.~"

    def test_mapflip_lowers_to_emap(self):
        module = module_for(FIGURE1)
        map_flip = module.functions["Bitflip.mapFlip"]
        let = map_flip.body[0]
        assert isinstance(let, ir.SLet)
        assert isinstance(let.init, ir.EMap)
        assert let.init.method == "Bitflip.flip"

    def test_taskflip_graph_discovered(self):
        module = module_for(FIGURE1)
        assert len(module.task_graphs) == 1
        graph = module.task_graphs[0]
        assert graph.owner_function == "Bitflip.taskFlip"
        assert [s.kind for s in graph.stages] == ["source", "filter", "sink"]
        assert graph.is_closed

    def test_filter_stage_is_relocatable(self):
        module = module_for(FIGURE1)
        graph = module.task_graphs[0]
        filter_stage = graph.stages[1]
        assert filter_stage.relocatable
        assert filter_stage.method == "Bitflip.flip"

    def test_relocation_regions(self):
        module = module_for(FIGURE1)
        graph = module.task_graphs[0]
        assert graph.relocation_regions() == [(1, 1)]

    def test_task_ids_unique_and_stable(self):
        module = module_for(FIGURE1)
        ids = [s.task_id for s in module.task_graphs[0].stages]
        assert len(set(ids)) == 3
        module2 = module_for(FIGURE1)
        ids2 = [s.task_id for s in module2.task_graphs[0].stages]
        assert ids == ids2

    def test_graph_start_annotated(self):
        module = module_for(FIGURE1)
        task_flip = module.functions["Bitflip.taskFlip"]
        starts = [
            s
            for s in ir.walk_stmts(task_flip.body)
            if isinstance(s, ir.SGraphStart)
        ]
        assert len(starts) == 1
        assert starts[0].blocking  # finish()
        assert starts[0].graph_id == module.task_graphs[0].graph_id

    def test_describe(self):
        module = module_for(FIGURE1)
        assert module.task_graphs[0].describe() == "source(1) => [flip] => sink"


class TestShapeErrors:
    def test_reloc_under_control_flow_rejected(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs, bit[] out, boolean c) {
                if (c) {
                    var t = xs.source(1) => ([ task f ]) => out.sink();
                    t.finish();
                }
            }
        }
        """
        with pytest.raises(TaskGraphError):
            module_for(source)

    def test_dynamic_graph_without_reloc_allowed(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs, bit[] out, boolean c) {
                if (c) {
                    var t = xs.source(1) => task f => out.sink();
                    t.finish();
                }
            }
        }
        """
        module = module_for(source)
        assert module.task_graphs == []

    def test_multiple_graphs_in_one_function(self):
        source = """
        class T {
            local static bit f(bit b) { return b; }
            static void m(bit[[]] xs, bit[] a, bit[] b) {
                var t1 = xs.source(1) => ([ task f ]) => a.sink();
                t1.finish();
                var t2 = xs.source(1) => ([ task f ]) => b.sink();
                t2.finish();
            }
        }
        """
        module = module_for(source)
        assert len(module.task_graphs) == 2
        assert module.task_graphs[0].graph_id != module.task_graphs[1].graph_id


class TestLoweringDetails:
    def test_compound_assignment_expanded(self):
        source = "class T { static int m(int x) { x += 5; return x; } }"
        module = module_for(source, optimized=False)
        body = module.functions["T.m"].body
        assign = body[0]
        assert isinstance(assign, ir.SAssignLocal)
        assert isinstance(assign.value, ir.EBinary)
        assert assign.value.op == "+"

    def test_canonical_for(self):
        source = (
            "class T { static int m(int n) { int s = 0; "
            "for (int i = 0; i < n; i++) { s += i; } return s; } }"
        )
        module = module_for(source)
        body = module.functions["T.m"].body
        loop = body[1]
        assert isinstance(loop, ir.SFor)
        assert loop.var == "i"

    def test_noncanonical_for_becomes_while(self):
        source = (
            "class T { static int m(int n) { int s = 0; "
            "for (int i = n; i > 0; i -= 1) { s += i; } return s; } }"
        )
        module = module_for(source)
        body = module.functions["T.m"].body
        assert any(isinstance(s, ir.SWhile) for s in body)

    def test_constructor_synthesized(self):
        source = """
        value class V {
            int x;
            V(int x0) { this.x = x0; }
        }
        """
        module = module_for(source)
        init = module.functions["V.<init>"]
        assert init.is_constructor
        assert [p.name for p in init.params] == ["this", "x0"]
        assert isinstance(init.body[0], ir.SFieldStore)

    def test_instance_method_gets_this_param(self):
        source = """
        value class V {
            int x;
            V(int x0) { this.x = x0; }
            int get() { return x; }
        }
        """
        module = module_for(source)
        get = module.functions["V.get"]
        assert get.params[0].name == "this"
        ret = get.body[0]
        assert isinstance(ret.value, ir.EFieldLoad)

    def test_saxpy_reduce_lowering(self):
        module = module_for(SAXPY)
        total = module.functions["Saxpy.total"]
        ret = total.body[0]
        assert isinstance(ret.value, ir.EReduce)
        assert ret.value.method == "Saxpy.add"


class TestOptimizations:
    def opt_body(self, body_src, params="", ret="int"):
        source = f"class T {{ static {ret} m({params}) {{ {body_src} }} }}"
        module = module_for(source)
        return module.functions["T.m"].body

    def test_constant_folding(self):
        body = self.opt_body("return 2 + 3 * 4;")
        assert isinstance(body[0].value, ir.EConst)
        assert body[0].value.value == 14

    def test_identity_add_zero(self):
        body = self.opt_body("return x + 0;", params="int x")
        assert isinstance(body[0].value, ir.ELocal)

    def test_identity_mul_one(self):
        body = self.opt_body("return x * 1;", params="int x")
        assert isinstance(body[0].value, ir.ELocal)

    def test_mul_zero_folds_when_pure(self):
        body = self.opt_body("return x * 0;", params="int x")
        assert isinstance(body[0].value, ir.EConst)
        assert body[0].value.value == 0

    def test_constant_branch_pruned(self):
        body = self.opt_body("if (true) { return 1; } else { return 2; }")
        assert len(body) == 1
        assert body[0].value.value == 1

    def test_unreachable_after_return_dropped_by_checker(self):
        # The checker rejects obviously unreachable code, but constant
        # folding can create it; e.g. a pruned branch.
        body = self.opt_body(
            "if (1 < 2) { return 5; } return 6;"
        )
        assert len(body) == 1

    def test_division_by_zero_not_folded(self):
        body = self.opt_body("return 1 / 0;")
        assert isinstance(body[0].value, ir.EBinary)

    def test_while_false_removed(self):
        body = self.opt_body("int s = 0; while (false) { s += 1; } return s;")
        assert not any(isinstance(s, ir.SWhile) for s in body)

    def test_pure_expression_statement_dropped(self):
        body = self.opt_body("int y = x; y + 1; return y;", params="int x")
        assert not any(isinstance(s, ir.SExpr) for s in body)

    def test_call_statement_not_dropped(self):
        source = """
        class T {
            static int g() { println(1); return 1; }
            static void m() { g(); }
        }
        """
        module = module_for(source)
        body = module.functions["T.m"].body
        assert any(isinstance(s, ir.SExpr) for s in body)

    def test_double_negation(self):
        body = self.opt_body("return - - x;", params="int x")
        assert isinstance(body[0].value, ir.ELocal)

    def test_java_division_truncates_toward_zero(self):
        body = self.opt_body("return -7 / 2;")
        assert body[0].value.value == -3

    def test_int_overflow_wraps(self):
        body = self.opt_body("return 2147483647 + 1;")
        assert body[0].value.value == -2147483648

    def test_cast_folding(self):
        body = self.opt_body("return (int) 2.9;")
        assert isinstance(body[0].value, ir.EConst)
        assert body[0].value.value == 2
