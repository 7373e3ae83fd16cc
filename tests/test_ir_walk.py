"""``ir.walk_expr`` pinned to the recursive walk it replaced.

``recursive_walk_expr`` is the recursive generator with the
``isinstance`` chain that ``src/repro/ir/nodes.py`` used before the walk
became an explicit stack over a ``type -> children`` table, moved here
verbatim. Both must yield the very same nodes (by ``id``) in the same
preorder for every expression in the IR of all 17 suite apps, with
fusion off and with fusion ``auto`` (which rewrites map chains), starting
from every top-level statement expression, every static field
initialiser and every sub-expression.
"""

import pytest

from repro.ir import nodes as ir
from repro.apps import SUITE
from repro.compiler import CompileOptions, compile_program
from repro.ir.fusion import FusionOptions
from repro.ir.nodes import (
    EBinary,
    ECall,
    ECast,
    EFieldLoad,
    EFreeze,
    EGraphConnect,
    EGraphSink,
    EGraphSource,
    EIndex,
    EIntrinsic,
    ELength,
    EMap,
    ENewArray,
    ENewObject,
    EReduce,
    ETernary,
    EUnary,
)


def recursive_walk_expr(expr):
    """Yield ``expr`` and all sub-expressions, preorder."""
    yield expr
    children: list = []
    if isinstance(expr, (EUnary, ECast, EFreeze)):
        children = [expr.operand]
    elif isinstance(expr, EBinary):
        children = [expr.left, expr.right]
    elif isinstance(expr, ETernary):
        children = [expr.cond, expr.then, expr.other]
    elif isinstance(expr, EIndex):
        children = [expr.array, expr.index]
    elif isinstance(expr, ELength):
        children = [expr.array]
    elif isinstance(expr, (ECall, EIntrinsic, EMap, EReduce)):
        children = list(expr.args)
    elif isinstance(expr, ENewArray):
        children = [expr.length]
    elif isinstance(expr, ENewObject):
        children = list(expr.args)
    elif isinstance(expr, EFieldLoad):
        children = [expr.receiver]
    elif isinstance(expr, EGraphSource):
        children = [expr.array]
    elif isinstance(expr, EGraphSink):
        children = [expr.array]
    elif isinstance(expr, EGraphConnect):
        children = [expr.left, expr.right]
    for child in children:
        yield from recursive_walk_expr(child)


def module_roots(module):
    """Every top-level expression of the module's IR."""
    for function in module.functions.values():
        for stmt in ir.walk_stmts(function.body):
            yield from ir.stmt_exprs(stmt)
    for cls in module.classes.values():
        yield from (e for e in cls.static_fields.values() if e is not None)


@pytest.mark.parametrize("mode", ["off", "auto"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_walk_matches_recursive_reference(name, mode):
    options = CompileOptions(fusion=FusionOptions(mode=mode))
    module = compile_program(
        SUITE[name].source, filename=f"<{name}.lime>", options=options
    ).module
    roots = list(module_roots(module))
    assert roots
    nodes = 0
    for root in roots:
        for node in recursive_walk_expr(root):
            expected = [id(n) for n in recursive_walk_expr(node)]
            assert [id(n) for n in ir.walk_expr(node)] == expected
            nodes += 1
    assert nodes > len(roots)  # sub-expressions were walked too


def test_suite_has_every_node_kind_with_children():
    # So the comparison above exercises every row of the children table.
    kinds = set()
    for name in SUITE:
        module = compile_program(SUITE[name].source).module
        kinds |= {
            type(node)
            for root in module_roots(module)
            for node in ir.walk_expr(root)
        }
    assert set(ir._CHILDREN_REVERSED) <= kinds
