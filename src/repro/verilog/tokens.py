"""Token definitions for the Verilog lexer.

The lexer produces a flat stream of :class:`Token` objects.  Token kinds are
plain strings (an enum would buy little here and cost verbosity at every
comparison site in the parser).
"""

from typing import NamedTuple

# Token kinds ---------------------------------------------------------------
IDENT = "IDENT"
NUMBER = "NUMBER"          # plain decimal literal, e.g. 42
BASED_NUMBER = "BASED"     # sized/based literal, e.g. 8'hFF, 'b0101
STRING = "STRING"
KEYWORD = "KEYWORD"
PUNCT = "PUNCT"            # operators and punctuation
EOF = "EOF"

#: Verilog-2001 keywords in the synthesizable subset we accept.  Keeping the
#: set tight means misuse fails loudly at parse time instead of silently.
KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "real", "parameter", "localparam", "assign", "always",
    "initial", "begin", "end", "if", "else", "case", "casez", "casex",
    "endcase", "default", "for", "while", "posedge", "negedge", "or",
    "and", "nand", "nor", "xor", "xnor", "not", "buf", "signed",
    "function", "endfunction", "generate", "endgenerate", "genvar",
    "supply0", "supply1",
})

#: Gate primitive keywords (subset of KEYWORDS) recognised as instantiations.
GATE_PRIMITIVES = frozenset({
    "and", "nand", "or", "nor", "xor", "xnor", "not", "buf",
})

#: Multi-character operators, longest first so the lexer can match greedily.
MULTI_CHAR_OPERATORS = (
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~&", "~|", "~^", "^~",
    "**", "+:", "-:",
)

#: Single-character operators / punctuation.
SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>!&|^~?:=.,;#@(){}[]")


class Token(NamedTuple):
    """A single lexical token (a tuple, cheap to build in bulk).

    Attributes:
        kind: one of the module-level kind constants.
        value: the matched text (numbers keep their textual form; the parser
            interprets them).
        line: 1-based source line, for error messages.
        column: 1-based source column.
    """

    kind: str
    value: str
    line: int
    column: int

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, L{self.line})"
