"""Verilog front-end: preprocessor, lexer, parser, AST, writer.

This package replaces Pyverilog's parsing layer in the GNN4IP pipeline.  The
typical entry point is::

    from repro.verilog import parse_source

    source = parse_source(verilog_text)
"""

from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import tokenize
from repro.verilog.parser import Parser, parse, parse_module
from repro.verilog.preprocess import Preprocessor, preprocess, strip_comments
from repro.verilog.writer import write_expr, write_module, write_source


def parse_source(text, include_dirs=(), defines=None, include_sources=None):
    """Preprocess and parse Verilog text in one step."""
    cleaned = preprocess(text, include_dirs=include_dirs, defines=defines,
                         include_sources=include_sources)
    return parse(cleaned)


__all__ = [
    "ast",
    "tokenize",
    "Parser",
    "parse",
    "parse_module",
    "parse_source",
    "Preprocessor",
    "preprocess",
    "strip_comments",
    "write_expr",
    "write_module",
    "write_source",
]
