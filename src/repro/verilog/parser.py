"""Recursive-descent parser for the synthesizable Verilog subset.

The grammar covers what the GNN4IP corpus needs: module definitions (ANSI and
non-ANSI headers), net/reg declarations with vector ranges, parameters,
continuous assigns, always/initial blocks with if/case/for, gate primitives,
and hierarchical module instantiation with parameter overrides.

Expression parsing uses precedence climbing.  :func:`parse` reads module
bodies statement by statement: the statements a gate-level netlist is made
of (one-name declarations, named gates on names and one-bit constants, mux
assigns) are each taken by one anchored regex match, straight from the
text, and only the spans between them are tokenized and read by the
recursive-descent :class:`Parser`.  A span that does not end inside a
module at an item boundary sends the whole rest of the text to the general
rules, which alone raise errors, so the scan gives the tree and the error
``Parser(tokenize(text)).parse()`` gives.
"""

import re

from repro.errors import ParseError
from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import tokenize
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    GATE_PRIMITIVES,
    IDENT,
    KEYWORD,
    KEYWORDS,
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

# The statement scan.  Blanks are the lexer's; a name is an identifier
# token (a keyword is refused after the match) and an argument a name or
# a one-bit constant.  Quantifiers are possessive, so a statement that
# does not match fails in one pass over its text.
_B = r"[ \t\r\f\n]*+"
_NAME = r"[A-Za-z_$][A-Za-z0-9_$]*+"
_ARG = rf"(?:{_NAME}|1'b[01])"
_GATES = "|".join(sorted(GATE_PRIMITIVES))
#: One statement of the shapes a gate-level netlist is made of, blanks
#: before it included: ``wire|reg NAME ;``, ``GATE NAME ( ARG {, ARG} ) ;``
#: and the mux ``assign NAME = NAME ? ARG : ARG ;``.
_STATEMENT = re.compile(
    rf"({_B})(?:"
    rf"(?P<kind>wire|reg)[ \t\r\f\n]++(?P<net>{_NAME})"
    rf"|(?P<gate>{_GATES})[ \t\r\f\n]++(?P<name>{_NAME}){_B}\({_B}"
    rf"(?P<args>{_ARG}(?:{_B},{_B}{_ARG})*+){_B}\)"
    rf"|assign[ \t\r\f\n]++(?P<lhs>{_NAME}){_B}={_B}(?P<cond>{_NAME})"
    rf"{_B}\?{_B}(?P<high>{_ARG}){_B}:{_B}(?P<low>{_ARG})"
    rf"){_B};")
#: The arguments in the ``args`` group of a gate statement.
_ARGUMENTS = re.compile(rf"1'b[01]|{_NAME}").findall
#: A blank before a word that may start such a statement: a search with
#: a fixed one-character head, so finding the next one stays linear.
_STATEMENT_HEAD = re.compile(
    rf"[ \t\r\f\n](?=(?:wire|reg|assign|{_GATES})[ \t\r\f\n])")


class Parser:
    """Parses a token stream into a :class:`repro.verilog.ast_nodes.SourceFile`."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0
        self._anonymous_gates = 0
        self._modules = []
        #: The module whose items are being read, if any.
        self._module = None

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
        self._read()
        return self._finish()

    def _parse_text(self, text):
        """Parse ``text``, taking module items :data:`_STATEMENT` matches
        straight from the text and tokenizing only the spans between.

        A span ends where the next statement the scan takes begins.  It
        is read by the general rules, and must end inside a module at an
        item boundary; otherwise (a boundary inside a comment, string or
        unfinished item, or a real error) the state is put back and the
        general rules read all the rest of the text, so every error and
        every tree is the one :meth:`parse` gives for the whole stream.
        """
        match = _STATEMENT.match
        count = text.count
        end = len(text)
        pos = 0
        # ``line`` is the line offset ``counted`` is on, and ``line_start``
        # the start of the line offset ``known`` is on; each is brought
        # forward over text it has not yet seen, so the scan stays linear.
        line = 1
        counted = 0
        line_start = 0
        known = 0
        while True:
            if self._module is not None:
                items = self._module.items
                while True:
                    statement = match(text, pos)
                    if statement is None:
                        break
                    head = statement.end(1)
                    line += count("\n", counted, head)
                    counted = head
                    item = _statement_item(statement, line)
                    if item is None:
                        pos = head
                        break
                    items.append(item)
                    pos = statement.end()
            line += count("\n", counted, pos)
            counted = pos
            newline = text.rfind("\n", known, pos)
            if newline >= 0:
                line_start = newline + 1
            known = pos
            span_end = _next_statement(text, pos)
            # A line comment running into the span's end would be cut
            # short there.
            if span_end == end or text.find("//", pos, span_end) >= 0:
                break
            module = self._module
            state = (len(self._modules), module and len(module.items),
                     self._anonymous_gates)
            try:
                self._tokens = tokenize(text, pos, span_end, line, line_start)
                self._pos = 0
                self._read()
                whole = self._module is not None
            except Exception:  # the general rules below raise it again
                whole = False
            if not whole:
                module_count, item_count, self._anonymous_gates = state
                del self._modules[module_count:]
                if module is not None:
                    del module.items[item_count:]
                self._module = module
                break
            eof = self._tokens[-1]
            pos = counted = known = span_end
            line = eof.line
            line_start = span_end + 1 - eof.column
        self._tokens = tokenize(text, pos, end, line, line_start)
        self._pos = 0
        self._read()
        return self._finish()

    def _read(self):
        """Read modules and module items up to the stream's EOF.

        A module still open at EOF stays in ``self._module``, so a stream
        may stop at any item boundary and the next stream continue it.
        """
        tokens = self._tokens
        while True:
            module = self._module
            if module is None:
                if tokens[self._pos].kind == EOF:
                    return
                module = self._module = self._parse_module_header()
            items = module.items
            while True:
                token = tokens[self._pos]
                if token.kind == KEYWORD and token.value == "endmodule":
                    break
                if token.kind == EOF:
                    return
                item = self._parse_module_item()
                if isinstance(item, list):
                    items.extend(item)
                elif item is not None:
                    items.append(item)
            self._pos += 1
            self._modules.append(module)
            self._module = None

    def _finish(self):
        """The source file once the last stream is read to its EOF."""
        if self._module is not None:
            self._error(f"unterminated module {self._module.name!r}")
        for module in self._modules:
            _merge_port_declarations(module)
        return ast.SourceFile(self._modules)

    def _parse_module_header(self):
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
        return ast.Module(name=name, ports=ports, items=[], params=params,
                          line=start.line)

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
            if value == "genvar":
                self._advance()
                while not self._accept(PUNCT, ";"):
                    if self._advance().kind == EOF:
                        self._error("unterminated genvar declaration")
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
        token = self._advance()
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


def _next_statement(text, pos):
    """Where the first statement at or after ``pos`` that the scan takes
    begins (``len(text)`` if there is none)."""
    search = _STATEMENT_HEAD.search
    while True:
        head = search(text, pos)
        if head is None:
            return len(text)
        pos = head.end()
        statement = _STATEMENT.match(text, pos)
        if statement is not None and _statement_item(statement, 0):
            return pos


def _statement_item(statement, line):
    """The module item a :data:`_STATEMENT` match stands for -- the node
    the general rules build from its tokens -- or ``None`` when a name
    in it is a keyword."""
    _, kind, net, gate, name, args, lhs, cond, high, low = statement.groups()
    if kind is not None:
        if net in KEYWORDS:
            return None
        return ast.NetDecl(kind, [net], None, False, line)
    if gate is not None:
        args = _ARGUMENTS(args)
        if name in KEYWORDS or not KEYWORDS.isdisjoint(args):
            return None
        return ast.GateInstance(gate, name, [_argument(arg) for arg in args],
                                line)
    if not KEYWORDS.isdisjoint((lhs, cond, high, low)):
        return None
    return ast.Assign(ast.Identifier(lhs), ast.Ternary(
        ast.Identifier(cond), _argument(high), _argument(low)), line)


def _argument(text):
    """A matched argument (a name or a one-bit constant) as its node."""
    if text[0] == "1":
        return _parse_based_literal(text)
    return ast.Identifier(text)


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
        LexerError: for text that is not a token stream.
        ParseError: for malformed source, including nesting too deep
            for the recursive-descent parser (past Python's recursion
            limit), which is reported with its bracket depth instead of
            escaping as an untyped ``RecursionError``.
    """
    try:
        return Parser(None)._parse_text(text)
    except RecursionError:
        depth, line = _deepest_nesting(tokenize(text))
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
