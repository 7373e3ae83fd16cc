"""Counting loops: what a loop's own guard proves about its counter.

The stager (:mod:`repro.backends.bytecode.staging`) asks this module,
before it translates a function, which checks the bytecode makes are
implied by a counting loop's header test. A *counting loop* is a
natural loop (header ``H``, back edge ``JMP H`` from the loop's last
pc) whose

* header block is ``LOAD l; <bound>; BINOP <; JZ exit``, ``<bound>``
  being ``CONST N`` (an int literal, 0 <= N < 2**31) or ``LOAD p; LEN``
  of a parameter ``p`` that is never stored (its length is read once:
  the stager's ``nP``) — parameters and array elements are no bounds,
  for nothing range-checks what they hold;
* ``int`` counter ``l`` is stored exactly twice in the function: once
  outside the loop, from a literal >= 0, and once inside it, by
  ``LOAD l; CONST 1; BINOP (+, int); STORE l``;
* code is entered only through ``H`` (the compiler's loops are
  contiguous runs of pcs; a loop entered elsewhere is left alone);
* jumps land neither inside the header test nor on a store of ``l``
  nor between the increment's ``LOAD l`` and its ``STORE l``: the
  compiler's ternary ``c ? x : y`` ends in a jump to the pc after it,
  so ``l = c ? -1 : 0`` is a STORE after ``CONST 0`` that may store -1;
* increment is in no inner loop (it is not reached from itself before
  the header test again), so every increment follows a passed test.

At a pc in the loop that the header test reaches without passing the
increment (*clean*), ``0 <= l < bound``: the counter starts at or
above zero, only ever grows by one, and the test came after its last
store. So at a clean pc

* the increment cannot overflow (``l < bound <= 2**31 - 1``) and needs
  no wrap;
* an access ``a[l]`` of the array whose length is the bound needs no
  bounds check, and any other access ``x[l]`` only its upper half.

A pc the increment reaches before the header test again is not clean:
``a[i]`` read after ``i = i + 1`` keeps its whole check.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.backends.bytecode import isa

_INT_MAX = (1 << 31) - 1
_JUMPS = (isa.JMP, isa.JZ, isa.JNZ)


class Facts(NamedTuple):
    """``unwrapped``: pcs of the increments that need no wrap.
    ``bounds``: pc -> {counter slot: bound} at each clean pc, a bound
    being ``("len", parameter slot)`` or ``("literal", N)``."""

    unwrapped: frozenset
    bounds: dict


def counting_loops(code: list, num_params: int) -> Facts:
    """The counting loops of ``code`` and what their guards prove."""
    stores: dict = {}
    targets = set()
    for pc, (op, operand) in enumerate(code):
        if op == isa.STORE:
            stores.setdefault(operand, []).append(pc)
        elif op in _JUMPS:
            targets.add(operand)
    unwrapped, bounds = set(), {}
    for pc, (op, target) in enumerate(code):
        if op != isa.JMP or target > pc:
            continue
        loop = _counting(code, target, pc, stores, targets, num_params)
        if loop is None:
            continue
        counter, bound, increment, clean = loop
        unwrapped.add(increment - 1)
        for at in clean:
            bounds.setdefault(at, {})[counter] = bound
    return Facts(frozenset(unwrapped), bounds)


def _counting(code, header, last, stores, targets, num_params):
    """``(counter, bound, increment STORE pc, clean pcs)`` of the loop
    ``header..last``, or None if it is no counting loop (``targets``:
    the pcs any jump of ``code`` lands on)."""
    head = code[header:header + 5]
    if len(head) < 4 or head[0][0] != isa.LOAD:
        return None
    counter = head[0][1]
    if head[1][0] == isa.CONST:
        value = head[1][1]
        if value.__class__ is not int or not 0 <= value <= _INT_MAX:
            return None
        bound, test = ("literal", value), 2
    elif head[1][0] == isa.LOAD and head[2][0] == isa.LEN:
        array = head[1][1]
        if array >= num_params or array in stores:
            return None
        bound, test = ("len", array), 3
    else:
        return None
    if len(head) <= test or head[test][0] != isa.BINOP \
            or head[test][1][0] != "<":
        return None
    branch, exit = head[test + 1] if test + 1 < len(head) else (None, None)
    if branch != isa.JZ or header <= exit <= last:
        return None
    body = header + test + 2              # the first pc the test admits
    entered = any(
        op in _JUMPS and header < target <= last and not header <= pc <= last
        for pc, (op, target) in enumerate(code)
    )
    if counter < num_params or entered \
            or targets.intersection(range(header + 1, body)):
        return None
    outside = [pc for pc in stores.get(counter, ()) if not header <= pc <= last]
    inside = [pc for pc in stores.get(counter, ()) if header <= pc <= last]
    if len(outside) != 1 or len(inside) != 1:
        return None
    start = code[outside[0] - 1] if outside[0] else (None, None)
    if start[0] != isa.CONST or start[1].__class__ is not int \
            or start[1] < 0 or outside[0] in targets:
        return None
    increment = inside[0]
    if code[increment - 3:increment] != [
        (isa.LOAD, counter), (isa.CONST, 1), (isa.BINOP, ("+", "int")),
    ] or targets.intersection(range(increment - 2, increment + 1)):
        return None
    dirty = _reached(code, increment + 1, header, last)
    if increment in dirty:              # an increment the test does not guard
        return None
    clean = {pc for pc in range(body, last + 1) if pc not in dirty}
    return counter, bound, increment, clean


def _reached(code, start, header, last) -> set:
    """The pcs of ``header..last`` reached from ``start`` before control
    comes back to ``header``."""
    seen, work = set(), [start]
    while work:
        pc = work.pop()
        if pc in seen or pc == header or not header < pc <= last:
            continue
        seen.add(pc)
        op, operand = code[pc]
        if op == isa.JMP:
            work.append(operand)
        elif op in (isa.JZ, isa.JNZ):
            work += [pc + 1, operand]
        elif op not in (isa.RET, isa.RETV):
            work.append(pc + 1)
    return seen
