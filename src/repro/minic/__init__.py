"""MiniC: the small C-like language guest applications are written in."""

from .lexer import LexError, Token, TokenKind, tokenize
from .parser import ParseError, parse
from .codegen import BUILTINS, CompileError, compile_source

__all__ = [
    "BUILTINS",
    "CompileError",
    "LexError",
    "ParseError",
    "Token",
    "TokenKind",
    "compile_source",
    "parse",
    "tokenize",
]
