"""repro.frontend — the MiniC compiler (clang substitute).

MiniC is a small C dialect sufficient for the paper's programs:
structs, pointers, arrays, the usual statements and expressions, plus
the Privagic surface syntax:

* ``color(name)`` type qualifier (paper Fig 1) — e.g.
  ``double color(red) balance;``
* ``within`` / ``ignore`` / ``entry`` function annotations
  (paper §6.2–§6.4);
* ``extern`` declarations for external functions.

The compiler produces :class:`repro.ir.Module` objects through
:func:`compile_source`, exactly as clang produces LLVM bitcode for the
real Privagic (paper §5): the ``color`` qualifier is carried as a type
annotation in the IR, and the Privagic analyses never look at the
source language again.
"""

from repro.frontend.lexer import Lexer, Token, tokenize
from repro.frontend.parser import Parser, parse
from repro.frontend.codegen import CodeGenerator

compile_source = CodeGenerator.compile_source
lower_source = CodeGenerator.lower_source

__all__ = [
    "Lexer", "Token", "tokenize",
    "Parser", "parse",
    "CodeGenerator",
    "compile_source", "lower_source",
]
