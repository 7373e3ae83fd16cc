"""Operator semantics of Lime: one table, four consumers.

Every ``EBinary``/``EUnary``/``ECast`` and every pure intrinsic
(``Math.*``, ``bit.~``) is defined exactly once here, as a Python
*expression template* per ``(operator or intrinsic name, typename)``.
The typename is the result type the type checker decided; it reaches
the stager through the ``BINOP``/``UNOP``/``CAST``/``INTRINSIC``
operand, so no template re-tests the class of a value at run time. The
stager (:mod:`repro.backends.bytecode.staging`)
splices the templates into the Python function it generates per
``CompiledFunction``; the FPGA datapath
(:func:`repro.backends.verilog.codegen.compile_datapath`) splices them
into the function it generates per module; :func:`apply_binary`,
:func:`apply_unary`, :func:`apply_cast` and :func:`apply_math` evaluate
them one operation at a time for the constant folder
(:mod:`repro.ir.optimizations`, the datapath builder) and the test
oracle (:func:`apply_math` for the intrinsics). All of them see the
helper functions through
:data:`NAMESPACE`, so they cannot disagree. The module sits beside the
IR nodes it gives meaning to, so every layer above can import it.

Integer arithmetic wraps in two's complement (JVM semantics); division
and remainder truncate toward zero; ``float`` operations round through
binary32 so CPU and device results agree bit-for-bit. Floating point is
total, as in Java: overflow rounds to an infinity, ``x / ±0.0`` is a
signed infinity or NaN, ``x % 0.0`` is NaN, ``(int)``/``(long)`` of a
float saturate and map NaN to 0, ``Math.min``/``Math.max`` return NaN
if either operand is NaN and order ``-0.0`` below ``0.0``, and the other
``Math.*`` functions return NaN/±Infinity outside their domain. Only
integer division and remainder by zero raise
(:class:`~repro.errors.DeviceError`).

A template may evaluate its operands in any order and may name an
atom operand (a bare name or literal) more than once, but evaluates
each non-atom operand exactly once; the stager only ever substitutes
operands that are free of side effects and cannot raise.

The templates above the "staged fast paths" line define each operator
one operation at a time: the constant folder, the FPGA datapath and the
test oracle evaluate them, helpers and per-operator wrap included. The
stager splices the forms below that line where it can, which compute
the same value with no Python call on the common path:

* **One wrap per integer expression.** A two's-complement wrap commutes
  with ``+ - * << & | ^`` and unary ``- ~`` (:data:`RING`,
  :data:`RING_UNARY`), so an ``int``/``long`` tree of them is computed
  unwrapped (:func:`ring_parts`) and wrapped once (:func:`wrap`),
  wherever anything else reads it.
* **Edge arms.** Float ``/`` tests its divisor inline
  (:func:`float_division_parts`), integer ``/`` and ``%`` by a variable
  are a zero test (:func:`division_check`) and a truncating expression
  (:func:`division_parts`), and ``Math.sqrt/exp/log/sin/cos/tan`` call
  the C function under a domain test (:func:`domain_parts`): the helper
  runs only on the arm where the C operation would raise.
* **Exact results.** A cast, a float negation and a float ``Math.abs``
  skip ``float()`` and the binary32 rounding where the operand's class
  makes the result exact already (:func:`staged_cast_parts`,
  :func:`keeps_binary32`).
"""

from __future__ import annotations

import functools
import math
import struct
from array import array

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


#: The same rounding as a store. Assigning a number to an ``array('f')``
#: element is the C conversion ``(float)x`` that :func:`to_float32`'s
#: pack performs (round to nearest even, ±inf beyond the binary32 range,
#: NaN stays NaN), and reading it back widens exactly — about half the
#: cost of the pack/unpack round-trip. Staged code rounds a ``float``
#: result as the statement ``_f[0] = <value>`` followed by a read of
#: ``_f[0]``, where ``_f`` is a copy of this prototype made by
#: :func:`float32_cell` *per call*, or per launch (a launch runs on one
#: thread): a cell shared by two threads (a module-level or
#: per-interpreter one; GPU simulators and service jobs run staged code
#: concurrently) could be overwritten between the store and the read.
#: The constant folder, the FPGA datapath and the test oracle keep
#: :func:`to_float32`, so the two are checked against each other.
FLOAT32_CELL = array("f", (0.0,))
float32_cell = FLOAT32_CELL.__copy__


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


def float_once(value) -> float:
    """``value`` as a double that one binary32 rounding takes where
    rounding ``value`` itself once would. An integer above 2**53 would
    round a first time in ``float(value)``, so the bits below the 53
    kept are folded into a sticky last bit (round to odd), which the
    binary32 rounding then resolves as one rounding of the exact value
    (Java's ``(float)`` of a ``long``). ``OverflowError`` beyond the
    double range."""
    if value.__class__ is not int:
        return float(value)
    magnitude = abs(value)
    shift = max(magnitude.bit_length() - 53, 0)
    kept = magnitude >> shift
    if kept << shift != magnitude:
        kept |= 1
    double = math.ldexp(kept, shift)
    return -double if value < 0 else double


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


def _integral(fn):
    """``Math.floor``/``Math.ceil``: a zero result keeps the sign of its
    argument, as in Java (``Math.ceil(-0.5)`` is ``-0.0``)."""

    def call(x):
        try:
            return math.copysign(fn(x), x)
        except (ValueError, OverflowError):
            return _itself(x)

    return call


# Double-valued Math.* functions, total over float-convertible input.
_MATH_FUNCTIONS = {
    "Math.sqrt": _total(math.sqrt, _nan),
    "Math.exp": _total(math.exp, _nan, lambda x: math.inf),
    "Math.log": _total(math.log, _log_edge),
    "Math.sin": _total(math.sin, _nan),
    "Math.cos": _total(math.cos, _nan),
    "Math.tan": _total(math.tan, _nan),
    "Math.pow": _total(math.pow, _pow_domain, _pow_overflow),
    "Math.floor": _integral(math.floor),
    "Math.ceil": _integral(math.ceil),
}


def java_min(a, b):
    """Java's ``Math.min``: NaN if either operand is NaN (the NaN
    operand itself), and ``-0.0`` is below ``0.0``."""
    if a != a:
        return a
    if a == 0 and b == 0 and math.copysign(1.0, b) < 0:
        return b
    return a if a <= b else b


def java_max(a, b):
    """Java's ``Math.max``: NaN if either operand is NaN, and ``0.0``
    is above ``-0.0``."""
    if a != a:
        return a
    if a == 0 and b == 0 and math.copysign(1.0, a) < 0:
        return b
    return a if a >= b else b


# --- the expression templates ---------------------------------------------

# Result wrapping per result typename; anything else passes through
# (a ``float`` result is rounded separately: ``_wrapped``, ``_rounded``).
# An ``int``/``long`` operation only ever sees integral operands (the
# IR verifier refuses anything else: ``x += 2.5`` on an int x is
# ``x = (int)(x + 2.5)``), so its result is an ``int`` and is wrapped
# only when it left the range.
# ``_t`` is a scratch local of whatever function the text lands in: a
# nested template finishes with it before the enclosing one assigns it.
_WRAP = {
    "int": (
        "(_t if -0x80000000 <= (_t := {}) <= 0x7FFFFFFF else wrap_int(_t))"
    ),
    "long": (
        "(_t if -0x8000000000000000 <= (_t := {}) <= 0x7FFFFFFFFFFFFFFF"
        " else wrap_long(_t))"
    ),
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
# Integer ``/`` and ``%`` by a nonzero constant ``m`` (its magnitude;
# a negative divisor negates the quotient): total, so deferrable.
_BY_CONSTANT = {
    "/": "(_t // {m} if (_t := {a}) >= 0 else -(-_t // {m}))",
    "%": "(_t % {m} if (_t := {a}) >= 0 else -(-_t % {m}))",
}
_UNARY = {"-": "(-{a})", "~": "(~{a})"}
# Math.* whose result type follows the promoted argument type, per
# (name, integral result). Integers have no NaN and no signed zero, so
# Python's own abs/min/max are Java's there.
_FOLLOWING = {
    ("Math.abs", True): "abs({a})",
    ("Math.min", True): "min({a}, {b})",
    ("Math.max", True): "max({a}, {b})",
    ("Math.abs", False): "abs({a})",
    ("Math.min", False): "java_min({a}, {b})",
    ("Math.max", False): "java_max({a}, {b})",
}
_TWO_ARGUMENTS = frozenset(("Math.pow", "Math.min", "Math.max"))
_CAST = {
    "int": "cast_int({a})",
    "long": "cast_long({a})",
    # An integer of more than 53 bits would round twice through float():
    # float_once keeps it exact enough for the one binary32 rounding.
    "float": (
        "(_t if -0x20000000000000 <= (_t := {a}) <= 0x20000000000000"
        " else float_once(_t))"
    ),                          # then rounded to binary32
    "double": "float({a})",
    "bit": "Bit(int({a}) & 1)",
    "boolean": "bool({a})",
}


def _wrapped(text: str, typename: str) -> "tuple[str, bool]":
    if typename == "float":
        return text, True
    template = _WRAP.get(typename)
    return (text if template is None else template.format(text)), False


def _rounded(parts: "tuple[str, bool]") -> str:
    text, float32 = parts
    return f"to_float32({text})" if float32 else text


def shift_mask(typename: str) -> int:
    """Java takes a shift amount modulo the width of the shifted type."""
    return 63 if typename == "long" else 31


def binary_can_raise(op: str, typename: str) -> bool:
    """Whether the operator can raise on well-typed operands (only
    integer ``/`` and ``%``); such an operation must be evaluated where
    the program put it, never deferred."""
    return op in ("/", "%") and typename in ("int", "long")


def binary_parts(op: str, typename: str, a: str, b: str) -> "tuple[str, bool]":
    """:func:`binary_expr` before its binary32 rounding: the text, and
    whether its value is a ``float`` result still to be rounded (by
    :func:`to_float32`, or through a :data:`FLOAT32_CELL` copy)."""
    if typename == "String":
        return f"(to_display({a}) + to_display({b}))", False
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
    return template.format(a=a, b=b), False


def unary_parts(op: str, typename: str, a: str) -> "tuple[str, bool]":
    """:func:`unary_expr` before its binary32 rounding."""
    if op == "!":
        return f"(not {a})", False
    template = _UNARY.get(op)
    if template is None:
        raise DeviceError(f"unknown unary operator {op!r}")
    return _wrapped(template.format(a=a), typename)


def intrinsic_parts(name: str, typename: str, args: list):
    """Python source for the pure intrinsic ``name`` (``Math.*``,
    ``bit.~``) of result type ``typename`` over the texts ``args``,
    before its binary32 rounding; None when ``name`` is no pure
    intrinsic (``println``/``print`` write to the interpreter). A double
    ``Math.*`` helper already returns a double and is not wrapped
    again."""
    if name == "bit.~":
        return f"(~{args[0]})", False
    if name in _MATH_FUNCTIONS:
        return f"{name.replace('.', '_')}({', '.join(args)})", False
    template = _FOLLOWING.get((name, typename in ("int", "long")))
    if template is None:
        return None
    return _wrapped(template.format(a=args[0], b=args[-1]), typename)


def cast_parts(typename: str, a: str) -> "tuple[str, bool]":
    """:func:`cast_expr` before its binary32 rounding."""
    template = _CAST.get(typename)
    if template is None:
        raise DeviceError(f"cannot cast to {typename!r}")
    return template.format(a=a), typename == "float"


def binary_expr(op: str, typename: str, a: str, b: str) -> str:
    """Python source for ``a <op> b`` with Lime/Java semantics.

    ``typename`` is the *result* type name for arithmetic ('int',
    'long', 'float', 'double', 'boolean', 'bit', 'String').
    """
    return _rounded(binary_parts(op, typename, a, b))


def unary_expr(op: str, typename: str, a: str) -> str:
    return _rounded(unary_parts(op, typename, a))


def cast_expr(typename: str, a: str) -> str:
    return _rounded(cast_parts(typename, a))


# --- staged fast paths -----------------------------------------------------

#: Two's-complement wrapping commutes with these int/long operators:
#: wrap(wrap(a) op wrap(b)) == wrap(a op b). The stager computes a tree
#: of them unwrapped and wraps it once, at its root.
RING = frozenset(("+", "-", "*", "<<", "&", "|", "^"))
RING_UNARY = frozenset(("-", "~"))
# These keep in-range operands in range (``>>`` is no ring operator).
_IN_RANGE = frozenset(("&", "|", "^", "~", ">>"))

#: Bits in the magnitude of an in-range int/long value, one more than a
#: two's-complement width needs so that a bound survives negation.
WIDTH = {"int": 32, "long": 64}


def wrap(text: str, typename: str) -> str:
    """``text``, an ``int``/``long`` value that may have left the range
    of ``typename``, wrapped into it."""
    return _WRAP[typename].format(text)


def ring_parts(op: str, typename: str, a: str, b: "str | None" = None):
    """The unwrapped text of the ring operator ``op`` or of ``>>``
    (unary when ``b`` is None) over ``int``/``long`` operand texts that may themselves be
    unwrapped, and whether it can leave the range of ``typename`` when
    its operands are in range."""
    if b is None:
        return _UNARY[op].format(a=a), op not in _IN_RANGE
    template = _ARITHMETIC.get(op) or _UNWRAPPED[op]
    text = template.format(a=a, b=b, mask=shift_mask(typename))
    return text, op not in _IN_RANGE


def ring_bits(op: str, typename: str, a: int, b: "int | None" = None) -> int:
    """A bound on the magnitude bits of :func:`ring_parts`' unwrapped
    value, given bounds on its operands' (the stager wraps an operand
    before the bound grows large)."""
    if b is None:
        return a + 1
    if op == "*":
        return a + b
    if op == "<<":
        return a + shift_mask(typename)
    return max(a, b) + 1


def division_check(op: str, a: str, b: str) -> str:
    """The statement integer ``a / b`` or ``a % b`` (atoms) makes where
    the program divides: it raises the helper's ``DeviceError`` when
    ``b`` is zero, after which :func:`division_parts` is total."""
    helper = "java_idiv" if op == "/" else "java_irem"
    return f"if not {b}: {helper}({a}, {b})"


def division_parts(op: str, a: str, b: str) -> "tuple[str, bool]":
    """``java_idiv``/``java_irem`` of the atoms ``a`` and a nonzero
    ``b`` as one expression, unwrapped: the quotient truncates toward
    zero and the remainder takes the dividend's sign. Whether it can
    leave the range (only ``MIN / -1``)."""
    if op == "/":
        return f"({a} // {b} if ({a} ^ {b}) >= 0 else -(-{a} // {b}))", True
    return f"({a} % {b} if ({a} ^ {b}) >= 0 else -(-{a} % {b}))", False


def constant_division_parts(
    op: str, a: str, divisor: int
) -> "tuple[str, bool]":
    """:func:`division_parts` of an ``int``/``long`` ``a / divisor`` or
    ``a % divisor`` whose divisor is a nonzero constant (``a`` any
    operand): nothing raises, and only a quotient by -1 can leave the
    range."""
    text = _BY_CONSTANT[op].format(a=a, m=abs(divisor))
    if op == "/" and divisor < 0:
        text = f"(-{text})"
    return text, op == "/" and divisor == -1


def float_division_parts(a: str, b: str, divisor=None) -> str:
    """``java_fdiv(a, b)`` with the divisor atom ``b`` tested inline
    (``a`` an atom too: the text names it twice); a plain ``/``, ``a``
    any operand, when ``divisor``, the constant ``b`` stands for, is
    nonzero."""
    if divisor:
        return f"({a} / {b})"
    return f"({a} / {b} if {b} else java_fdiv({a}, {b}))"


# Where each Math.* function's C implementation returns without raising;
# outside it the total helper gives Java's NaN or infinity.
_DOMAIN = {
    "Math.sqrt": "{a} >= 0.0",
    "Math.exp": "{a} < 709.0",      # math.exp overflows above 709.78
    "Math.log": "{a} > 0.0",
    "Math.sin": "{a} - {a} == 0.0",  # finite
    "Math.cos": "{a} - {a} == 0.0",
    "Math.tan": "{a} - {a} == 0.0",
}


def domain_parts(name: str, a: str) -> "str | None":
    """``Math_<fn>(a)`` of the atom ``a`` as the C function under a
    domain test, the helper on the edge arm; None if ``name`` has no
    such form."""
    test = _DOMAIN.get(name)
    if test is None:
        return None
    fn = name[len("Math."):]
    helper = name.replace(".", "_")
    return f"({fn}({a}) if {test.format(a=a)} else {helper}({a}))"


def integral_parts(name: str, args: list) -> "tuple[str, bool]":
    """``Math.abs/min/max`` of ``int``/``long`` texts, unwrapped, and
    whether it can leave the range (only ``abs(MIN)``)."""
    text = _FOLLOWING[name, True].format(a=args[0], b=args[-1])
    return text, name == "Math.abs"


def keeps_binary32(name: str) -> bool:
    """Whether the ``float`` operation ``name`` (a unary operator or an
    intrinsic) of a binary32 value is a binary32 value: the rounding
    after it is the identity."""
    return name in ("-", "Math.abs")


def staged_cast_parts(
    typename: str, a: str, source: "str | None"
) -> "tuple[str, bool]":
    """:func:`cast_parts` when the operand's class is known: ``source``
    is ``"int"`` (an int in the int range), ``"float"`` (a binary32
    value), ``"double"`` (a Python float) or None (unknown). A cast
    that is the identity returns ``a`` itself."""
    if typename == "float":
        if source == "float":
            return a, False
        if source in ("int", "double"):
            return a, True          # converted exactly, rounded once
    elif typename == "double":
        if source in ("float", "double"):
            return a, False
    elif typename in ("int", "long") and source == "int":
        return a, False
    return cast_parts(typename, a)


#: Globals of every piece of text the templates above end up in.
NAMESPACE = {
    "Bit": Bit,
    "cast_int": cast_int,
    "cast_long": cast_long,
    "float_once": float_once,
    "java_fdiv": java_fdiv,
    "java_frem": java_frem,
    "java_idiv": java_idiv,
    "java_irem": java_irem,
    "java_max": java_max,
    "java_min": java_min,
    "to_display": to_display,
    "to_float32": to_float32,
    "wrap_int": wrap_int,
    "wrap_long": wrap_long,
    **{name.replace(".", "_"): fn for name, fn in _MATH_FUNCTIONS.items()},
    # The C functions the domain-tested forms call on the common arm.
    **{name[len("Math."):]: getattr(math, name[len("Math."):])
       for name in _DOMAIN},
}


@functools.lru_cache(maxsize=None)
def _compiled(kind: str, op: str, typename: str):
    """The template for one operation as a callable (a few dozen
    distinct keys exist, all short strings)."""
    if kind == "binary":
        text = "lambda a, b: " + binary_expr(op, typename, "a", "b")
    elif kind == "unary":
        text = "lambda a: " + unary_expr(op, typename, "a")
    elif kind == "intrinsic":
        args = ["a", "b"] if op in _TWO_ARGUMENTS else ["a"]
        parts = intrinsic_parts(op, typename, args)
        if parts is None:
            raise DeviceError(f"unknown math intrinsic {op!r}")
        text = f"lambda {', '.join(args)}: " + _rounded(parts)
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


def apply_math(name: str, args: list, result_typename: str = "double"):
    """Evaluate one ``Math.*`` intrinsic (or ``bit.~``) whose result is
    a ``result_typename``."""
    return _compiled("intrinsic", name, result_typename)(*args)

