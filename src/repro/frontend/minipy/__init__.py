"""MiniPy — the second Privagic frontend.

A Python-like secure scripting language: functions over 64-bit
integers and byte strings, ``while``/``if``, calls, and
``secure("color", value)`` / ``public(value)`` module-level
declarations.  Lowers through the shared lowering core
(:mod:`repro.frontend.lowering`) and :mod:`repro.secval` onto the same IR,
pipeline, partitioner and engines as MiniC; a module lowered from
MiniPy is indistinguishable from one lowered from MiniC.

    secret = secure("blue", 41)
    out = public(0)

    @entry
    def main():
        out = declass(secret + 1)
        return out

    @ignore
    def declass(x):
        return x
"""

from repro.frontend.minipy.codegen import CodeGenerator
from repro.frontend.minipy.lexer import tokenize
from repro.frontend.minipy.parser import parse

compile_source = CodeGenerator.compile_source
lower_source = CodeGenerator.lower_source

__all__ = ["compile_source", "lower_source", "parse", "tokenize"]
