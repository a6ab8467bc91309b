"""MiniPy language semantics, compiled through the shared contract
and executed on the partitioned runtime."""

import pytest

from repro.core.compiler import compile_and_partition
from repro.errors import FrontendError
from repro.ir.interp import ENGINES
from repro.runtime.executor import run_partitioned


def run(source, mode="relaxed", entry="main", engine="decoded"):
    program = compile_and_partition(source, mode=mode,
                                    frontend="minipy")
    result, runtime = run_partitioned(program, entry, engine=engine)
    return result, runtime


def result_of(source, **kw):
    return run(source, **kw)[0]


def test_arithmetic_follows_python_floor_division_spelling():
    # `//` and `%` lower to the same sdiv/srem MiniC uses.
    assert result_of("""\
@entry
def main():
    return (7 * 6 - 2) // 4 + 17 % 5
""") == 12


def test_while_if_elif_else_and_aug_assign():
    assert result_of("""\
@entry
def main():
    total = 0
    i = 0
    while i < 10:
        if i % 3 == 0:
            total += i
        elif i % 3 == 1:
            total += 100
        else:
            pass
        i += 1
    return total
""") == 318  # 0+3+6+9 plus three i%3==1 hits


def test_break_and_continue():
    assert result_of("""\
@entry
def main():
    total = 0
    i = 0
    while True:
        i += 1
        if i > 20:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
""") == 100  # sum of odd 1..19


def test_function_calls_and_recursion():
    assert result_of("""\
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

@entry
def main():
    return fib(12)
""") == 144


def test_short_circuit_and_or_not():
    source = """\
calls = 0

def bump():
    calls = calls + 1
    return 1

@entry
def main():
    if 0 and bump():
        return -1
    if 1 or bump():
        pass
    if not 0:
        return calls
    return -2
"""
    # Neither `and` nor `or` evaluated bump(): short-circuit worked.
    assert result_of(source) == 0


def test_booleans_are_one_and_zero():
    assert result_of("""\
@entry
def main():
    return (3 < 5) * 10 + (5 < 3)
""") == 10


def test_builtins_printf_and_strlen():
    result, runtime = run("""\
@entry
def main():
    printf("len=%d\\n", strlen("hello"))
    return strlen("hello")
""")
    assert result == 5
    assert runtime.machine.stdout == "len=5\n"


def test_module_globals_write_through_without_global_keyword():
    assert result_of("""\
counter = 0

def bump(v):
    counter = counter + v
    return counter

@entry
def main():
    bump(3)
    bump(4)
    return counter
""") == 7


def test_augmented_assignment_loads_the_target_first():
    # As in Python, `g += bump()` reads g (1) before bump() sets it to
    # 10, so the sum is 1 + 0.
    assert result_of("""\
g = public(1)

def bump():
    g = 10
    return 0

@entry
def main():
    g += bump()
    return g
""") == 1


def test_all_engines_agree_on_a_secure_program():
    source = """\
secret = secure("blue", 41)
out = public(0)

@ignore
def declass(v):
    return v

@entry
def main():
    i = 0
    total = 0
    while i < 5:
        total = total + secret
        i += 1
    out = declass(total % 100)
    return out
"""
    program = compile_and_partition(source, mode="hardened",
                                    frontend="minipy")
    for engine in ENGINES:
        result, _ = run_partitioned(program, "main", engine=engine)
        assert result == 5, engine


# -- rejected programs ---------------------------------------------------------


@pytest.mark.parametrize("source,fragment", [
    ("x = secure(\"blue\", 1)\n@entry\ndef main():\n"
     "    y = secure(\"red\", 2)\n    return y\n", "module level"),
    ("@entry\ndef main():\n    return 1 < 2 < 3\n", "chained"),
    ("@entry\ndef main():\n    return 0\n"
     "def main():\n    return 1\n", "duplicate"),
    ("@entry\ndef main():\n    return nonesuch(1)\n", "nonesuch"),
    ("@entry\ndef main():\n    return strlen()\n", "argument"),
])
def test_bad_programs_raise_frontend_errors(source, fragment):
    with pytest.raises(FrontendError, match=fragment):
        compile_and_partition(source, frontend="minipy")


def test_division_and_remainder_truncate_toward_zero():
    # `//` and `%` lower to sdiv/srem and truncate like C, not floor
    # like Python: -7 // 2 is -3 and -7 % 2 is -1.
    assert result_of("""\
@entry
def main():
    return (-7 // 2) * 10 + (-7 % 2)
""") == -31
    assert result_of("""\
@entry
def main():
    return (7 // -2) * 10 + (7 % -2)
""") == -29
