"""Verilog operator and gate-primitive labels of the RTL vocabulary.

The dataflow analyzer (:mod:`repro.dataflow.analyzer`) names op nodes
with these labels, and the RTL featurizer (:mod:`repro.core.features`)
builds its one-hot vocabulary from them.  They live apart from the
analyzer so that the featurizer, which every serving process imports,
does not load the Verilog frontend.
"""

#: Verilog operator -> vocabulary label (binary position).
BINARY_OP_LABELS = {
    "+": "plus", "-": "minus", "*": "times", "/": "divide", "%": "mod",
    "**": "power",
    "<<": "sll", ">>": "srl", "<<<": "sla", ">>>": "sra",
    "<": "lt", ">": "gt", "<=": "le", ">=": "ge",
    "==": "eq", "!=": "neq", "===": "eqcase", "!==": "neqcase",
    "&": "and", "|": "or", "^": "xor", "~^": "xnor", "^~": "xnor",
    "&&": "land", "||": "lor",
}

#: Verilog operator -> vocabulary label (unary position).
UNARY_OP_LABELS = {
    "+": "uplus", "-": "uminus", "!": "lnot", "~": "unot",
    "&": "uand", "|": "uor", "^": "uxor",
    "~&": "unand", "~|": "unor", "~^": "uxnor",
}

#: Gate primitive -> vocabulary label.
GATE_LABELS = {
    "and": "and", "or": "or", "xor": "xor", "xnor": "xnor",
    "nand": "nand", "nor": "nor", "not": "unot", "buf": "buf",
}
