"""Per-opcode differential tests of the instruction semantics tables.

MiniC only emits ``+ - * / %``, so these programs are built with the
IR builder: every binary opcode, comparison predicate and cast kind,
on edge values, in every operand shape the decoded engine specializes
(register/register, register/constant, constant/register and
constant/constant).  Both engines must agree on each result, step
count and fault message, the shapes must agree with each other, and
constant folding must produce the engines' value wherever it folds.
"""

import pytest

from repro.errors import RuntimeFault
from repro.ir import Function, FunctionType, IRBuilder, Module
from repro.ir.instructions import BINARY_OPS, CAST_KINDS, CMP_PREDICATES
from repro.ir.interp import (
    BINOP_SEMANTICS,
    CAST_SEMANTICS,
    CMP_SEMANTICS,
    ENGINES,
    Machine,
)
from repro.ir.passes import constant_fold
from repro.ir.types import F64, I1, I8, I32, I64, PointerType
from repro.ir.values import Constant

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Integer edge values: zero divisors, ±1, negative dividends, the
#: int64 limits, an out-of-range 2^63 and shift counts of 64 and up.
INT_VALUES = [0, 1, -1, 7, -7, 3, 64, 65, 127, INT64_MIN, INT64_MAX,
              1 << 63]
FLOAT_VALUES = [0.0, -0.0, 1.0, -1.5, 2.5, 7, 1e300]
#: fptosi sources: the float edges plus NaN, the infinities and the
#: int64 boundary, where 2^63 is the first value out of range.
FPTOSI_VALUES = FLOAT_VALUES + [float("nan"), float("inf"),
                                float("-inf"), 2.0 ** 63, -2.0 ** 63,
                                9.2e18]

INT_TYPES = {"i8": I8, "i32": I32, "i64": I64}


def _outcome(machine, name, args):
    """``(repr of the result or fault message, steps taken)``."""
    before = machine.total_steps
    try:
        result = repr(machine.run_function(name, args))
    except RuntimeFault as fault:
        result = f"fault: {fault}"
    return result, machine.total_steps - before


def _add(module, name, ret, params, emit):
    fn = module.add_function(Function(name, FunctionType(ret, params)))
    builder = IRBuilder(fn.add_block("entry"))
    builder.ret(emit(builder, fn.args))


def _binary_module(emit, ret, operand_type, values):
    """One function per operand shape: ``rr(x, y)``, ``rc<j>(x)``,
    ``cr<i>(y)`` and ``cc<i>_<j>()``, each returning
    ``emit(builder, lhs, rhs)``."""
    module = Module("opcode")

    def const(value):
        return Constant(operand_type, value)

    _add(module, "rr", ret, [operand_type, operand_type],
         lambda b, args: emit(b, args[0], args[1]))
    for i, v in enumerate(values):
        _add(module, f"rc{i}", ret, [operand_type],
             lambda b, args, v=v: emit(b, args[0], const(v)))
        _add(module, f"cr{i}", ret, [operand_type],
             lambda b, args, v=v: emit(b, const(v), args[0]))
        for j, w in enumerate(values):
            _add(module, f"cc{i}_{j}", ret, [],
                 lambda b, args, v=v, w=w: emit(b, const(v), const(w)))
    return module


def _run_binary(build, values):
    """Outcomes of every value pair, per engine, checked to agree
    across engines and operand shapes; returns the legacy outcomes
    keyed by ``(i, j)``."""
    outcomes = {}
    for engine in ENGINES:
        machine = Machine(build(), engine=engine)
        table = {}
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                shapes = {
                    "reg/reg": _outcome(machine, "rr", [a, b]),
                    "reg/const": _outcome(machine, f"rc{j}", [a]),
                    "const/reg": _outcome(machine, f"cr{i}", [b]),
                    "const/const": _outcome(machine, f"cc{i}_{j}", []),
                }
                assert len(set(shapes.values())) == 1, (engine, a, b,
                                                        shapes)
                table[i, j] = shapes["reg/reg"]
        outcomes[engine] = table
    for engine in ENGINES:
        assert outcomes[engine] == outcomes["legacy"], engine
    return outcomes["legacy"]


def _check_constfold(module, outcomes, values):
    """Every folded ``cc`` function returns the engines' value; only
    faulting evaluations stay unfolded."""
    constant_fold(module)
    for i, _ in enumerate(values):
        for j, _ in enumerate(values):
            fn = module.functions[f"cc{i}_{j}"]
            returned = fn.blocks[0].instructions[-1].value
            result, _steps = outcomes[i, j]
            if isinstance(returned, Constant):
                assert repr(returned.value) == result, (i, j)
            else:
                assert result.startswith("fault: "), (i, j, result)


def test_tables_cover_every_opcode():
    assert set(BINOP_SEMANTICS) == BINARY_OPS
    assert set(CMP_SEMANTICS) == CMP_PREDICATES
    assert set(CAST_SEMANTICS) == CAST_KINDS


INT_OPS = sorted(op for op in BINARY_OPS if not op.startswith("f"))
FLOAT_OPS = sorted(op for op in BINARY_OPS if op.startswith("f"))


@pytest.mark.parametrize("width", sorted(INT_TYPES))
@pytest.mark.parametrize("op", INT_OPS)
def test_integer_binop(op, width):
    type = INT_TYPES[width]

    def build():
        return _binary_module(lambda b, x, y: b.binop(op, x, y), type,
                              type, INT_VALUES)

    outcomes = _run_binary(build, INT_VALUES)
    _check_constfold(build(), outcomes, INT_VALUES)
    if op in ("sdiv", "udiv", "srem", "urem"):
        assert outcomes[0, 0][0].startswith("fault: integer")


@pytest.mark.parametrize("op", FLOAT_OPS)
def test_float_binop(op):
    def build():
        return _binary_module(lambda b, x, y: b.binop(op, x, y), F64,
                              F64, FLOAT_VALUES)

    outcomes = _run_binary(build, FLOAT_VALUES)
    _check_constfold(build(), outcomes, FLOAT_VALUES)
    if op == "fdiv":
        assert outcomes[2, 0][0] == "fault: float division by zero"


@pytest.mark.parametrize("predicate", sorted(CMP_PREDICATES))
def test_comparison(predicate):
    values = FLOAT_VALUES if predicate.startswith("f") else INT_VALUES
    type = F64 if predicate.startswith("f") else I64

    def build():
        return _binary_module(lambda b, x, y: b.cmp(predicate, x, y),
                              I1, type, values)

    outcomes = _run_binary(build, values)
    _check_constfold(build(), outcomes, values)
    assert {result for result, _steps in outcomes.values()} == {"0", "1"}


#: cast kind -> (source type, destination type, source values)
CASTS = {
    "trunc": [(I64, I8, INT_VALUES), (I64, I32, INT_VALUES)],
    "zext": [(I8, I64, INT_VALUES), (I1, I64, [0, 1])],
    "sext": [(I32, I64, INT_VALUES), (I1, I64, [0, 1])],
    "fptosi": [(F64, I64, FPTOSI_VALUES), (F64, I8, FPTOSI_VALUES)],
    "sitofp": [(I64, F64, INT_VALUES)],
    "bitcast": [(PointerType(I64), PointerType(I8), [0, 4096])],
    "inttoptr": [(I64, PointerType(I8), INT_VALUES)],
    "ptrtoint": [(PointerType(I8), I64, [0, 4096])],
}


def test_cast_cases_cover_every_kind():
    assert set(CASTS) == CAST_KINDS


@pytest.mark.parametrize("kind", sorted(CASTS))
def test_cast(kind):
    for source, dest, values in CASTS[kind]:
        def build():
            module = Module("cast")
            _add(module, "r", dest, [source],
                 lambda b, args: b.cast(kind, args[0], dest))
            for i, v in enumerate(values):
                _add(module, f"c{i}", dest, [],
                     lambda b, args, v=v: b.cast(kind, Constant(source, v),
                                                 dest))
            return module

        outcomes = {}
        for engine in ENGINES:
            machine = Machine(build(), engine=engine)
            outcomes[engine] = [_outcome(machine, "r", [v])
                                for v in values]
            assert outcomes[engine] == [_outcome(machine, f"c{i}", [])
                                        for i in range(len(values))]
        assert outcomes["decoded"] == outcomes["legacy"]
        module = build()
        constant_fold(module)
        for i, v in enumerate(values):
            returned = module.functions[f"c{i}"].blocks[0] \
                .instructions[-1].value
            result = outcomes["legacy"][i][0]
            if isinstance(returned, Constant):
                assert repr(returned.value) == result
            else:
                # Pass-through casts keep their provenance unfolded,
                # and a faulting cast is left for the runtime.
                assert CAST_SEMANTICS[kind] is None or \
                    result.startswith("fault: "), (kind, v, result)


def test_fptosi_faults_outside_the_destination_range():
    """NaN, the infinities and 2^63 have no i64 value: both engines
    raise the same typed fault instead of a Python error or an
    oversized register value; in-range values truncate toward
    zero."""
    values = FPTOSI_VALUES
    module = Module("fptosi")
    _add(module, "r", I64, [F64],
         lambda b, args: b.cast("fptosi", args[0], I64))
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        outcomes = {repr(v): _outcome(machine, "r", [v])[0]
                    for v in values}
        for text in ("nan", "inf", "-inf", repr(2.0 ** 63)):
            assert outcomes[text] == \
                f"fault: fptosi of {text} does not fit in i64", engine
        assert outcomes[repr(-2.0 ** 63)] == repr(INT64_MIN)
        assert outcomes["-1.5"] == "-1"
        assert outcomes["9.2e+18"] == repr(int(9.2e18))


@pytest.mark.parametrize("kind, source, value, expected", [
    ("sext", I1, 1, -1), ("sext", I1, 0, 0), ("sext", I8, -1, -1),
    ("sext", I32, 1 << 31, -(1 << 31)), ("zext", I1, 1, 1),
    ("zext", I8, -1, 255), ("zext", I32, -1, (1 << 32) - 1),
])
def test_extension_reads_the_source_width(kind, source, value,
                                          expected):
    """sext reinterprets the source bits as signed and zext as
    unsigned, on both engines and in constant folding: ``sext i1
    true`` is -1, ``zext i8 -1`` is 255."""
    module = Module("ext")
    _add(module, "r", I64, [source],
         lambda b, args: b.cast(kind, args[0], I64))
    _add(module, "c", I64, [],
         lambda b, args: b.cast(kind, Constant(source, value), I64))
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        assert _outcome(machine, "r", [value])[0] == repr(expected)
        assert _outcome(machine, "c", [])[0] == repr(expected)
    constant_fold(module)
    folded = module.functions["c"].blocks[0].instructions[-1].value
    assert folded.value == expected
