"""Operator semantics of Lime: one table, four consumers.

Every ``EBinary``/``EUnary``/``ECast``/``Math.*`` is defined exactly
once here, as a Python *expression template* per ``(operator,
typename)``. The stager (:mod:`repro.backends.bytecode.staging`)
splices the templates into the Python function it generates per
``CompiledFunction``; the FPGA datapath
(:func:`repro.backends.verilog.codegen.compile_datapath`) splices them
into the function it generates per module; :func:`apply_binary`,
:func:`apply_unary`, :func:`apply_cast` and :func:`apply_math` evaluate
them one operation at a time for the constant folder
(:mod:`repro.ir.optimizations`, the datapath builder) and the test
oracle. All of them see the helper functions through
:data:`NAMESPACE`, so they cannot disagree. The module sits beside the
IR nodes it gives meaning to, so every layer above can import it.

Integer arithmetic wraps in two's complement (JVM semantics); division
and remainder truncate toward zero; ``float`` operations round through
binary32 so CPU and device results agree bit-for-bit. Floating point is
total, as in Java: overflow rounds to an infinity, ``x / ±0.0`` is a
signed infinity or NaN, ``x % 0.0`` is NaN, ``(int)``/``(long)`` of a
float saturate and map NaN to 0, and the ``Math.*`` functions return
NaN/±Infinity outside their domain. Only integer division and
remainder by zero raise (:class:`~repro.errors.DeviceError`).

A template may evaluate its operands in any order but evaluates each
exactly once; the stager only ever substitutes operands that are free
of side effects and cannot raise.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

from repro.errors import DeviceError
from repro.values.bits import Bit

_INT_SPAN = 1 << 32
_INT_HALF = 1 << 31
_LONG_SPAN = 1 << 64
_LONG_HALF = 1 << 63

_BINARY32 = struct.Struct("<f")
_pack32 = _BINARY32.pack
_unpack32 = _BINARY32.unpack


def wrap_int(value: int) -> int:
    value &= _INT_SPAN - 1
    return value - _INT_SPAN if value >= _INT_HALF else value


def wrap_long(value: int) -> int:
    value &= _LONG_SPAN - 1
    return value - _LONG_SPAN if value >= _LONG_HALF else value


def to_float32(value: float) -> float:
    """Round a Python float through IEEE-754 binary32 (round to nearest
    even; magnitudes beyond the binary32 range become an infinity)."""
    try:
        return _unpack32(_pack32(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def java_idiv(left: int, right: int) -> int:
    if right == 0:
        raise DeviceError("integer division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def java_irem(left: int, right: int) -> int:
    if right == 0:
        raise DeviceError("integer remainder by zero")
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


def java_fdiv(left: float, right: float) -> float:
    """IEEE-754 division: a zero divisor gives NaN for ``0/0`` and
    ``NaN/0``, otherwise an infinity signed by both operands."""
    try:
        return left / right
    except ZeroDivisionError:
        if left != left or left == 0:
            return math.nan
        return math.copysign(math.inf, left) * math.copysign(1.0, right)


def java_frem(left: float, right: float) -> float:
    """IEEE-754 remainder (C ``fmod``): NaN when the divisor is zero or
    the dividend infinite."""
    try:
        return math.fmod(left, right)
    except ValueError:
        return math.nan


def _float_to_integral(value: float, low: int, high: int) -> int:
    """Java's narrowing of a float: truncate, saturate, NaN -> 0."""
    if value != value:
        return 0
    if value >= high:
        return high
    if value <= low:
        return low
    return int(value)


def cast_int(value) -> int:
    if isinstance(value, float):
        return _float_to_integral(value, -_INT_HALF, _INT_HALF - 1)
    return wrap_int(int(value))


def cast_long(value) -> int:
    if isinstance(value, float):
        return _float_to_integral(value, -_LONG_HALF, _LONG_HALF - 1)
    return wrap_long(int(value))


def to_display(value) -> str:
    """The string-concatenation / ``println`` form of a runtime value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# --- Math.* ---------------------------------------------------------------


def _is_odd_integer(value: float) -> bool:
    return value % 2 == 1  # False for NaN and the infinities


def _total(fn, on_value_error, on_overflow=None):
    """``fn`` made total: the IEEE/Java result where Python raises."""

    def call(*args):
        try:
            return float(fn(*args))
        except ValueError:
            return on_value_error(*args)
        except OverflowError:
            return (on_overflow or on_value_error)(*args)

    return call


def _nan(*args) -> float:
    return math.nan


def _log_edge(x) -> float:
    return -math.inf if x == 0 else math.nan


def _pow_domain(x, y) -> float:
    # 0 ** negative is an infinity (negative only for -0.0 and odd y);
    # a negative base with a fractional exponent has no real value.
    if x == 0:
        return math.copysign(math.inf, x) if _is_odd_integer(y) else math.inf
    return math.nan


def _pow_overflow(x, y) -> float:
    return -math.inf if x < 0 and _is_odd_integer(y) else math.inf


def _itself(x) -> float:
    return float(x)  # floor/ceil of NaN or an infinity


# Double-valued Math.* functions, total over float-convertible input.
_MATH_FUNCTIONS = {
    "Math.sqrt": _total(math.sqrt, _nan),
    "Math.exp": _total(math.exp, _nan, lambda x: math.inf),
    "Math.log": _total(math.log, _log_edge),
    "Math.sin": _total(math.sin, _nan),
    "Math.cos": _total(math.cos, _nan),
    "Math.tan": _total(math.tan, _nan),
    "Math.pow": _total(math.pow, _pow_domain, _pow_overflow),
    "Math.floor": _total(math.floor, _itself),
    "Math.ceil": _total(math.ceil, _itself),
}

# Math.* functions whose result type follows their arguments.
_MATH_SELECT = {"Math.abs": abs, "Math.min": min, "Math.max": max}


def apply_math(name: str, args: list, result_typename: str = "double"):
    """Evaluate a Math.* intrinsic; abs/min/max follow the result type."""
    fn = _MATH_FUNCTIONS.get(name) or _MATH_SELECT.get(name)
    if fn is None:
        raise DeviceError(f"unknown math intrinsic {name!r}")
    result = fn(*args)
    if result_typename in ("int", "long"):
        return apply_cast(int(result), result_typename)
    if name in ("Math.floor", "Math.ceil"):
        return result
    return apply_cast(result, result_typename)


def _selecting(name: str):
    def call(*args):
        integral = all(
            isinstance(a, int) and not isinstance(a, bool) for a in args
        )
        return apply_math(name, args, "int" if integral else "double")

    return call


#: The callable behind each pure ``INTRINSIC``: abs/min/max are ``int``
#: when every argument is an int and ``double`` otherwise, the other
#: Math.* functions are always ``double``. (``println``/``print`` write
#: to the interpreter and are not in here.)
INTRINSICS = {
    **_MATH_FUNCTIONS,
    **{name: _selecting(name) for name in _MATH_SELECT},
    "bit.~": operator.invert,
}


# --- the expression templates ---------------------------------------------

# Result wrapping per result typename; anything else passes through.
# An ``int``/``long`` result can be a float (``x += 2.5`` on an int x is
# ``x = (int)(x + 2.5)``), hence the class test and the cast.
# ``_t`` is a scratch local of whatever function the text lands in: a
# nested template finishes with it before the enclosing one assigns it.
_WRAP = {
    "int": (
        "(_t if -0x80000000 <= (_t := {}) <= 0x7FFFFFFF"
        " and _t.__class__ is int else cast_int(_t))"
    ),
    "long": (
        "(_t if -0x8000000000000000 <= (_t := {}) <= 0x7FFFFFFFFFFFFFFF"
        " and _t.__class__ is int else cast_long(_t))"
    ),
    "float": "to_float32({})",
    "double": "float({})",
}

_ARITHMETIC = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "<<": "({a} << ({b} & {mask}))",
    ">>": "({a} >> ({b} & {mask}))",
}
_DIVISION = {
    ("/", True): "java_idiv({a}, {b})",
    ("%", True): "java_irem({a}, {b})",
    ("/", False): "java_fdiv({a}, {b})",
    ("%", False): "java_frem({a}, {b})",
}
_UNWRAPPED = {
    "&": "({a} & {b})",
    "|": "({a} | {b})",
    "^": "({a} ^ {b})",
    "==": "({a} == {b})",
    "!=": "({a} != {b})",
    "<": "({a} < {b})",
    ">": "({a} > {b})",
    "<=": "({a} <= {b})",
    ">=": "({a} >= {b})",
    "&&": "(bool({a}) and bool({b}))",
    "||": "(bool({a}) or bool({b}))",
}
_UNARY = {"-": "(-{a})", "~": "(~{a})"}
_CAST = {
    "int": "cast_int({a})",
    "long": "cast_long({a})",
    "float": "to_float32(float({a}))",
    "double": "float({a})",
    "bit": "Bit(int({a}) & 1)",
    "boolean": "bool({a})",
}


def _wrapped(text: str, typename: str) -> str:
    template = _WRAP.get(typename)
    return text if template is None else template.format(text)


def shift_mask(typename: str) -> int:
    """Java takes a shift amount modulo the width of the shifted type."""
    return 63 if typename == "long" else 31


def binary_can_raise(op: str, typename: str) -> bool:
    """Whether the operator can raise on well-typed operands (only
    integer ``/`` and ``%``); such an operation must be evaluated where
    the program put it, never deferred."""
    return op in ("/", "%") and typename in ("int", "long")


def binary_expr(op: str, typename: str, a: str, b: str) -> str:
    """Python source for ``a <op> b`` with Lime/Java semantics.

    ``typename`` is the *result* type name for arithmetic ('int',
    'long', 'float', 'double', 'boolean', 'bit', 'String').
    """
    if typename == "String":
        return f"(to_display({a}) + to_display({b}))"
    if op in ("/", "%"):
        template = _DIVISION[op, typename in ("int", "long")]
        return _wrapped(template.format(a=a, b=b), typename)
    template = _ARITHMETIC.get(op)
    if template is not None:
        mask = shift_mask(typename)
        return _wrapped(template.format(a=a, b=b, mask=mask), typename)
    template = _UNWRAPPED.get(op)
    if template is None:
        raise DeviceError(f"unknown binary operator {op!r}")
    return template.format(a=a, b=b)


def unary_expr(op: str, typename: str, a: str) -> str:
    if op == "!":
        return f"(not {a})"
    template = _UNARY.get(op)
    if template is None:
        raise DeviceError(f"unknown unary operator {op!r}")
    return _wrapped(template.format(a=a), typename)


def cast_expr(typename: str, a: str) -> str:
    template = _CAST.get(typename)
    if template is None:
        raise DeviceError(f"cannot cast to {typename!r}")
    return template.format(a=a)


#: Globals of every piece of text the templates above end up in.
NAMESPACE = {
    "Bit": Bit,
    "cast_int": cast_int,
    "cast_long": cast_long,
    "java_fdiv": java_fdiv,
    "java_frem": java_frem,
    "java_idiv": java_idiv,
    "java_irem": java_irem,
    "to_display": to_display,
    "to_float32": to_float32,
    "wrap_int": wrap_int,
    "wrap_long": wrap_long,
}


@functools.lru_cache(maxsize=None)
def _compiled(kind: str, op: str, typename: str):
    """The template for one operation as a callable (a few dozen
    distinct keys exist, all short strings)."""
    if kind == "binary":
        text = "lambda a, b: " + binary_expr(op, typename, "a", "b")
    elif kind == "unary":
        text = "lambda a: " + unary_expr(op, typename, "a")
    else:
        text = "lambda a: " + cast_expr(typename, "a")
    return eval(text, NAMESPACE)  # text is built from the tables above


def apply_binary(op: str, left, right, typename: str):
    """Evaluate one binary operator with Lime/Java semantics."""
    return _compiled("binary", op, typename)(left, right)


def apply_unary(op: str, operand, typename: str):
    return _compiled("unary", op, typename)(operand)


def apply_cast(value, typename: str):
    return _compiled("cast", "", typename)(value)

