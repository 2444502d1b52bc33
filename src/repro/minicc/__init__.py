"""mini-C: the C-subset compiler used to produce x86-64 binaries (lifter
input).  Its LIR frontend (``frontend_lir``) feeds the native pipeline,
the evaluation's Native baseline."""

from .astnodes import CType, FuncDef, Program
from .codegen_x86 import CodegenError, compile_to_x86
from .lexer import LexError, tokenize
from .parser import ParseError, parse
from .sema import BUILTINS, SemaError, SemaResult, analyze

__all__ = [
    "CType", "FuncDef", "Program",
    "CodegenError", "compile_to_x86",
    "LexError", "tokenize",
    "ParseError", "parse",
    "BUILTINS", "SemaError", "SemaResult", "analyze",
]
