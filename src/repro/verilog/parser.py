"""Recursive-descent parser for the synthesizable Verilog subset.

The grammar covers what the GNN4IP corpus needs: module definitions (ANSI and
non-ANSI headers), net/reg declarations with vector ranges, parameters,
continuous assigns, always/initial blocks with if/case/for, gate primitives,
and hierarchical module instantiation with parameter overrides.

Expression parsing uses precedence climbing.  The two statements most of a
gate-level netlist consists of -- a one-name declaration and a named gate
on bare identifiers -- are each taken in one step; every other shape goes
through the general rules, which alone raise parse errors.
"""

from repro.errors import ParseError
from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import tokenize
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    GATE_PRIMITIVES,
    IDENT,
    KEYWORD,
    NUMBER,
    PUNCT,
    STRING,
)

#: Binary operator precedence, higher binds tighter.  ``or`` the keyword is
#: excluded — in expression position it only appears in sensitivity lists.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPERATORS = frozenset({"+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^"})
_NET_KINDS = frozenset({"wire", "reg", "integer", "supply0", "supply1"})
#: Tokens that end an expression and bind to no operator.
_EXPRESSION_ENDS = frozenset({",", ")", ";"})


class Parser:
    """Parses a token stream into a :class:`repro.verilog.ast_nodes.SourceFile`."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0
        self._anonymous_gates = 0

    # -- token helpers --------------------------------------------------
    # The stream ends in EOF and ``_advance`` never steps past it, so the
    # current token is always ``self._tokens[self._pos]``.
    def _peek(self):
        return self._tokens[self._pos]

    def _advance(self):
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _check(self, kind, value=None):
        token = self._tokens[self._pos]
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind, value=None):
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind, value=None):
        token = self._peek()
        if not self._check(kind, value):
            wanted = value if value is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.value!r}", line=token.line)
        return self._advance()

    def _error(self, message):
        raise ParseError(message, line=self._peek().line)

    # -- entry points ----------------------------------------------------
    def parse(self):
        """Parse a full source file (one or more modules)."""
        modules = []
        while not self._check(EOF):
            modules.append(self._parse_module())
        return ast.SourceFile(modules)

    def _parse_module(self):
        start = self._expect(KEYWORD, "module")
        name = self._expect(IDENT).value
        self._anonymous_gates = 0
        params = []
        if self._accept(PUNCT, "#"):
            params = self._parse_param_port_list()
        ports = []
        if self._accept(PUNCT, "("):
            ports = self._parse_port_list()
        self._expect(PUNCT, ";")
        items = []
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            if token.kind == KEYWORD and token.value == "endmodule":
                break
            if token.kind == EOF:
                self._error(f"unterminated module {name!r}")
            item = self._parse_module_item()
            if isinstance(item, list):
                items.extend(item)
            elif item is not None:
                items.append(item)
        self._expect(KEYWORD, "endmodule")
        module = ast.Module(name=name, ports=ports, items=items,
                            params=params, line=start.line)
        _merge_port_declarations(module)
        return module

    def _parse_param_port_list(self):
        """Parse ``#(parameter W = 8, ...)`` in a module header."""
        self._expect(PUNCT, "(")
        params = []
        while not self._check(PUNCT, ")"):
            self._accept(KEYWORD, "parameter")
            width = self._parse_optional_width()
            name = self._expect(IDENT).value
            self._expect(PUNCT, "=")
            value = self._parse_expression()
            params.append(ast.ParamDecl(name=name, value=value, width=width))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ")")
        return params

    def _parse_port_list(self):
        ports = []
        if self._check(PUNCT, ")"):
            self._advance()
            return ports
        direction = None
        is_reg = False
        signed = False
        width = None
        while True:
            token = self._peek()
            if token.kind == KEYWORD and token.value in ("input", "output", "inout"):
                direction = self._advance().value
                is_reg = bool(self._accept(KEYWORD, "reg"))
                if not is_reg:
                    self._accept(KEYWORD, "wire")
                signed = bool(self._accept(KEYWORD, "signed"))
                width = self._parse_optional_width()
            elif token.kind == KEYWORD and token.value == "wire":
                self._advance()
                width = self._parse_optional_width() or width
            name = self._expect(IDENT).value
            ports.append(ast.Port(name=name, direction=direction, width=width,
                                  is_reg=is_reg, signed=signed))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ")")
        return ports

    # -- module items ----------------------------------------------------
    def _parse_module_item(self):
        token = self._peek()
        if token.kind == KEYWORD:
            value = token.value
            # Declarations and gates first: they are most netlist items.
            if value in _NET_KINDS:
                return self._parse_net_declaration()
            if value in GATE_PRIMITIVES:
                return self._parse_gate_instances()
            if value in ("input", "output", "inout"):
                return self._parse_port_declaration()
            if value in ("parameter", "localparam"):
                return self._parse_param_declaration()
            if value == "assign":
                return self._parse_assign()
            if value == "always":
                return self._parse_always()
            if value == "initial":
                self._advance()
                return ast.Initial(self._parse_statement())
            if value in ("genvar",):
                self._advance()
                while not self._accept(PUNCT, ";"):
                    self._advance()
                return None
            if value in ("function", "generate"):
                self._error(f"unsupported construct {value!r}")
            self._error(f"unexpected keyword {value!r} in module body")
        if token.kind == IDENT:
            return self._parse_module_instances()
        self._error(f"unexpected token {token.value!r} in module body")

    def _parse_port_declaration(self):
        """Non-ANSI ``input [3:0] a, b;`` — returned as Port markers."""
        direction = self._advance().value
        is_reg = bool(self._accept(KEYWORD, "reg"))
        if not is_reg:
            self._accept(KEYWORD, "wire")
        signed = bool(self._accept(KEYWORD, "signed"))
        width = self._parse_optional_width()
        ports = []
        while True:
            name = self._expect(IDENT).value
            ports.append(ast.Port(name=name, direction=direction, width=width,
                                  is_reg=is_reg, signed=signed))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return ports

    def _parse_net_declaration(self):
        # ``wire NAME ;`` -- one name, no width, no initializer, the
        # shape of every netlist declaration -- from a three-token
        # lookahead.  The stream ends in EOF, so ``tokens[pos + 2]``
        # exists once ``tokens[pos + 1]`` is an identifier.
        tokens = self._tokens
        pos = self._pos
        token = tokens[pos]
        name = tokens[pos + 1]
        if name.kind == IDENT:
            end = tokens[pos + 2]
            if end.kind == PUNCT and end.value == ";":
                self._pos = pos + 3
                return ast.NetDecl(token.value, [name.value], None, False,
                                   token.line)
        self._advance()
        kind = token.value
        signed = bool(self._accept(KEYWORD, "signed"))
        width = self._parse_optional_width()
        names = []
        assigns = []
        while True:
            name = self._expect(IDENT).value
            names.append(name)
            if self._accept(PUNCT, "="):
                # net declaration assignment: wire x = a & b;
                rhs = self._parse_expression()
                assigns.append(ast.Assign(lhs=ast.Identifier(name), rhs=rhs,
                                          line=token.line))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        decl = ast.NetDecl(kind=kind, names=names, width=width, signed=signed,
                           line=token.line)
        return [decl] + assigns if assigns else decl

    def _parse_param_declaration(self):
        local = self._advance().value == "localparam"
        width = self._parse_optional_width()
        decls = []
        while True:
            name = self._expect(IDENT).value
            self._expect(PUNCT, "=")
            value = self._parse_expression()
            decls.append(ast.ParamDecl(name=name, value=value, local=local,
                                       width=width))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return decls

    def _parse_assign(self):
        token = self._advance()
        assigns = []
        while True:
            lhs = self._parse_lvalue()
            self._expect(PUNCT, "=")
            rhs = self._parse_expression()
            assigns.append(ast.Assign(lhs=lhs, rhs=rhs, line=token.line))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return assigns if len(assigns) > 1 else assigns[0]

    def _parse_always(self):
        token = self._advance()
        sens_list = []
        if self._accept(PUNCT, "@"):
            if self._accept(PUNCT, "*"):
                pass
            else:
                self._expect(PUNCT, "(")
                if self._accept(PUNCT, "*"):
                    self._expect(PUNCT, ")")
                else:
                    sens_list = self._parse_sensitivity_list()
        statement = self._parse_statement()
        return ast.Always(sens_list=sens_list, statement=statement,
                          line=token.line)

    def _parse_sensitivity_list(self):
        items = []
        while True:
            edge = "level"
            if self._accept(KEYWORD, "posedge"):
                edge = "posedge"
            elif self._accept(KEYWORD, "negedge"):
                edge = "negedge"
            signal = self._parse_expression()
            items.append(ast.SensItem(edge=edge, signal=signal))
            if self._accept(PUNCT, ",") or self._accept(KEYWORD, "or"):
                continue
            break
        self._expect(PUNCT, ")")
        return items

    def _parse_gate_instances(self):
        instance = self._parse_plain_gate()
        if instance is not None:
            return instance
        token = self._advance()
        gate = token.value
        instances = []
        while True:
            if self._check(IDENT):
                name = self._advance().value
            else:
                # Numbered per module: instance names must be unique.
                name = f"{gate}_anon{self._anonymous_gates}"
                self._anonymous_gates += 1
            self._expect(PUNCT, "(")
            args = [self._parse_expression()]
            while self._accept(PUNCT, ","):
                args.append(self._parse_expression())
            self._expect(PUNCT, ")")
            instances.append(ast.GateInstance(gate=gate, name=name, args=args,
                                              line=token.line))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return instances if len(instances) > 1 else instances[0]

    def _parse_plain_gate(self):
        """``GATE NAME ( ID {, ID} ) ;`` -- one named instance on bare
        identifiers, the shape of every netlist gate -- in one loop over
        the tokens; ``None`` (nothing consumed) for any other shape.

        Each index is read only after the token before it proved not to
        be EOF, so the scan never runs off the stream's end.
        """
        tokens = self._tokens
        pos = self._pos
        name = tokens[pos + 1]
        if name.kind != IDENT:
            return None
        token = tokens[pos + 2]
        if token.kind != PUNCT or token.value != "(":
            return None
        args = []
        pos += 3
        while True:
            arg = tokens[pos]
            if arg.kind != IDENT:
                return None
            follow = tokens[pos + 1]
            if follow.kind != PUNCT:
                return None
            args.append(ast.Identifier(arg.value))
            pos += 2
            if follow.value == ")":
                break
            if follow.value != ",":
                return None
        end = tokens[pos]
        if end.kind != PUNCT or end.value != ";":
            return None
        gate = tokens[self._pos]
        self._pos = pos + 1
        return ast.GateInstance(gate.value, name.value, args, gate.line)

    def _parse_module_instances(self):
        token = self._advance()
        module_name = token.value
        param_overrides = []
        if self._accept(PUNCT, "#"):
            self._expect(PUNCT, "(")
            param_overrides = self._parse_connection_list()
            self._expect(PUNCT, ")")
        instances = []
        while True:
            inst_name = self._expect(IDENT).value
            self._expect(PUNCT, "(")
            connections = []
            if not self._check(PUNCT, ")"):
                connections = self._parse_connection_list()
            self._expect(PUNCT, ")")
            instances.append(ast.ModuleInstance(
                module=module_name, name=inst_name, connections=connections,
                param_overrides=list(param_overrides), line=token.line))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return instances if len(instances) > 1 else instances[0]

    def _parse_connection_list(self):
        connections = []
        while True:
            if self._check(PUNCT, "."):
                self._advance()
                port = self._expect(IDENT).value
                self._expect(PUNCT, "(")
                expr = None
                if not self._check(PUNCT, ")"):
                    expr = self._parse_expression()
                self._expect(PUNCT, ")")
                connections.append(ast.PortConnection(port=port, expr=expr))
            else:
                connections.append(
                    ast.PortConnection(port=None, expr=self._parse_expression()))
            if not self._accept(PUNCT, ","):
                break
        return connections

    # -- statements -------------------------------------------------------
    def _parse_statement(self):
        token = self._peek()
        if token.kind == KEYWORD:
            if token.value == "begin":
                return self._parse_block()
            if token.value == "if":
                return self._parse_if()
            if token.value in ("case", "casez", "casex"):
                return self._parse_case()
            if token.value == "for":
                return self._parse_for()
        if token.kind == PUNCT and token.value == ";":
            self._advance()
            return ast.Block(statements=[])
        return self._parse_assignment_statement()

    def _parse_block(self):
        self._expect(KEYWORD, "begin")
        name = None
        if self._accept(PUNCT, ":"):
            name = self._expect(IDENT).value
        statements = []
        while not self._check(KEYWORD, "end"):
            if self._check(EOF):
                self._error("unterminated begin block")
            statements.append(self._parse_statement())
        self._expect(KEYWORD, "end")
        return ast.Block(statements=statements, name=name)

    def _parse_if(self):
        self._expect(KEYWORD, "if")
        self._expect(PUNCT, "(")
        cond = self._parse_expression()
        self._expect(PUNCT, ")")
        then_stmt = self._parse_statement()
        else_stmt = None
        if self._accept(KEYWORD, "else"):
            else_stmt = self._parse_statement()
        return ast.If(cond=cond, then_stmt=then_stmt, else_stmt=else_stmt)

    def _parse_case(self):
        kind = self._advance().value
        self._expect(PUNCT, "(")
        expr = self._parse_expression()
        self._expect(PUNCT, ")")
        items = []
        while not self._check(KEYWORD, "endcase"):
            if self._check(EOF):
                self._error("unterminated case statement")
            if self._accept(KEYWORD, "default"):
                self._accept(PUNCT, ":")
                items.append(ast.CaseItem(patterns=[],
                                          statement=self._parse_statement()))
                continue
            patterns = [self._parse_expression()]
            while self._accept(PUNCT, ","):
                patterns.append(self._parse_expression())
            self._expect(PUNCT, ":")
            items.append(ast.CaseItem(patterns=patterns,
                                      statement=self._parse_statement()))
        self._expect(KEYWORD, "endcase")
        return ast.Case(expr=expr, items=items, kind=kind)

    def _parse_for(self):
        self._expect(KEYWORD, "for")
        self._expect(PUNCT, "(")
        init = self._parse_simple_assign()
        self._expect(PUNCT, ";")
        cond = self._parse_expression()
        self._expect(PUNCT, ";")
        step = self._parse_simple_assign()
        self._expect(PUNCT, ")")
        body = self._parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body)

    def _parse_simple_assign(self):
        lhs = self._parse_lvalue()
        self._expect(PUNCT, "=")
        rhs = self._parse_expression()
        return ast.BlockingAssign(lhs=lhs, rhs=rhs)

    def _parse_assignment_statement(self):
        line = self._peek().line
        lhs = self._parse_lvalue()
        if self._accept(PUNCT, "<="):
            rhs = self._parse_expression()
            self._expect(PUNCT, ";")
            return ast.NonblockingAssign(lhs=lhs, rhs=rhs, line=line)
        self._expect(PUNCT, "=")
        rhs = self._parse_expression()
        self._expect(PUNCT, ";")
        return ast.BlockingAssign(lhs=lhs, rhs=rhs, line=line)

    def _parse_lvalue(self):
        if self._check(PUNCT, "{"):
            return self._parse_concat()
        name = self._expect(IDENT).value
        expr = ast.Identifier(name)
        return self._parse_selects(expr)

    # -- expressions -------------------------------------------------------
    def _parse_expression(self):
        # A bare identifier closed by ``,``, ``)`` or ``;`` (a gate or
        # port argument) is the ladder's answer too, without the climb.
        token = self._tokens[self._pos]
        if token.kind == IDENT:
            follow = self._tokens[self._pos + 1]
            if follow.kind == PUNCT and follow.value in _EXPRESSION_ENDS:
                self._pos += 1
                return ast.Identifier(token.value)
        return self._parse_ternary()

    def _parse_ternary(self):
        cond = self._parse_binary(0)
        if self._accept(PUNCT, "?"):
            true_value = self._parse_expression()
            self._expect(PUNCT, ":")
            false_value = self._parse_expression()
            return ast.Ternary(cond=cond, true_value=true_value,
                               false_value=false_value)
        return cond

    def _parse_binary(self, min_precedence):
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind != PUNCT:
                return left
            precedence = _BINARY_PRECEDENCE.get(token.value)
            if precedence is None or precedence < min_precedence:
                return left
            op = self._advance().value
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(op=op, left=left, right=right)

    def _parse_unary(self):
        token = self._peek()
        if token.kind == PUNCT and token.value in _UNARY_OPERATORS:
            op = self._advance().value
            operand = self._parse_unary()
            return ast.UnaryOp(op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self):
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            return ast.IntConst(int(token.value))
        if token.kind == BASED_NUMBER:
            self._advance()
            return _parse_based_literal(token.value)
        if token.kind == STRING:
            self._advance()
            return ast.StringConst(token.value)
        if token.kind == PUNCT and token.value == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect(PUNCT, ")")
            return self._parse_selects(expr)
        if token.kind == PUNCT and token.value == "{":
            return self._parse_concat()
        if token.kind == IDENT:
            name = self._advance().value
            if self._check(PUNCT, "("):
                return self._parse_function_call(name)
            return self._parse_selects(ast.Identifier(name))
        self._error(f"unexpected token {token.value!r} in expression")

    def _parse_function_call(self, name):
        self._expect(PUNCT, "(")
        args = []
        if not self._check(PUNCT, ")"):
            args.append(self._parse_expression())
            while self._accept(PUNCT, ","):
                args.append(self._parse_expression())
        self._expect(PUNCT, ")")
        return ast.FunctionCall(name=name, args=args)

    def _parse_concat(self):
        self._expect(PUNCT, "{")
        first = self._parse_expression()
        if self._check(PUNCT, "{"):
            # replication {N{expr}}
            inner = self._parse_concat()
            self._expect(PUNCT, "}")
            return ast.Repeat(count=first, value=inner)
        parts = [first]
        while self._accept(PUNCT, ","):
            parts.append(self._parse_expression())
        self._expect(PUNCT, "}")
        return ast.Concat(parts=parts)

    def _parse_selects(self, expr):
        while self._check(PUNCT, "["):
            self._advance()
            first = self._parse_expression()
            if self._accept(PUNCT, ":"):
                second = self._parse_expression()
                self._expect(PUNCT, "]")
                expr = ast.PartSelect(base=expr, left=first, right=second)
            elif self._check(PUNCT, "+:") or self._check(PUNCT, "-:"):
                mode = self._advance().value
                second = self._parse_expression()
                self._expect(PUNCT, "]")
                expr = ast.PartSelect(base=expr, left=first, right=second,
                                      mode=mode)
            else:
                self._expect(PUNCT, "]")
                expr = ast.BitSelect(base=expr, index=first)
        return expr

    def _parse_optional_width(self):
        if self._accept(PUNCT, "["):
            msb = self._parse_expression()
            self._expect(PUNCT, ":")
            lsb = self._parse_expression()
            self._expect(PUNCT, "]")
            return ast.Width(msb=msb, lsb=lsb)
        return None


def _parse_based_literal(text):
    """Convert lexer text like ``8'hFF`` into a :class:`BasedConst`."""
    size_text, _, rest = text.partition("'")
    rest = rest.lstrip("sS") if rest[:1] in "sS" else rest
    base = rest[0].lower()
    digits = rest[1:]
    width = int(size_text.replace("_", "")) if size_text else None
    return ast.BasedConst(width=width, base=base, digits=digits)


def _merge_port_declarations(module):
    """Fold non-ANSI body port declarations into the header port list."""
    body_ports = {}
    items = []
    for item in module.items:
        if isinstance(item, ast.Port):
            body_ports[item.name] = item
            continue
        items.append(item)
    module.items = items
    for port in module.ports:
        declared = body_ports.get(port.name)
        if declared is None:
            continue
        if port.direction is None:
            port.direction = declared.direction
        if port.width is None:
            port.width = declared.width
        port.is_reg = port.is_reg or declared.is_reg
        port.signed = port.signed or declared.signed
    for port in module.ports:
        if port.direction is None:
            port.direction = "input"


def parse(text):
    """Parse preprocessed Verilog source text into a SourceFile.

    Raises:
        ParseError: for malformed source, including nesting too deep
            for the recursive-descent parser (past Python's recursion
            limit), which is reported with its bracket depth instead of
            escaping as an untyped ``RecursionError``.
    """
    tokens = tokenize(text)
    try:
        return Parser(tokens).parse()
    except RecursionError:
        depth, line = _deepest_nesting(tokens)
        message = "nesting too deep to parse"
        if depth:
            message += f" (brackets nest {depth} deep)"
        raise ParseError(message, line=line) from None


def _deepest_nesting(tokens):
    """``(depth, line)`` of the deepest bracket nesting in a token
    stream (``(0, None)`` when nothing is bracketed)."""
    depth = deepest = 0
    line = None
    for token in tokens:
        if token.kind != PUNCT:
            continue
        if token.value in ("(", "[", "{"):
            depth += 1
            if depth > deepest:
                deepest, line = depth, token.line
        elif token.value in (")", "]", "}"):
            depth -= 1
    return deepest, line


def parse_module(text):
    """Parse text expected to contain exactly one module; return it."""
    source = parse(text)
    if len(source.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(source.modules)}")
    return source.modules[0]
