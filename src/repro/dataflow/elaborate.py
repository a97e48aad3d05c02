"""Design elaboration: flatten the module hierarchy into one module.

This implements the "flatten the modular codes" step of the paper's
preprocessing phase.  Instances are inlined recursively; instance-local
signals are prefixed with the instance path (``cpu.alu.result``), parameters
are substituted by their constant values, and port connections become
continuous assignments.
"""

from repro.errors import ElaborationError
from repro.dataflow.consteval import evaluate_const, try_evaluate_const
from repro.verilog import ast_nodes as ast

_MAX_DEPTH = 64
#: Items a flattening that renames nothing passes through as they are.
_VERBATIM_ITEMS = (ast.Assign, ast.GateInstance, ast.Always)


def rewrite_expr(expr, mapping):
    """Return a copy of ``expr`` with identifiers substituted via ``mapping``.

    ``mapping`` maps identifier names to replacement *expressions*.  Names
    absent from the mapping are kept (they are either globals like constants
    or an error caught later).  The result shares no node with ``expr`` or
    ``mapping``: a replacement is copied by rewriting it with an empty
    mapping.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Identifier):
        replacement = mapping.get(expr.name)
        if replacement is None:
            return ast.Identifier(expr.name)
        return rewrite_expr(replacement, {})
    if isinstance(expr, ast.IntConst):
        return ast.IntConst(expr.value)
    if isinstance(expr, ast.BasedConst):
        return ast.BasedConst(expr.width, expr.base, expr.digits)
    if isinstance(expr, ast.StringConst):
        return ast.StringConst(expr.value)
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, rewrite_expr(expr.operand, mapping))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, rewrite_expr(expr.left, mapping),
                            rewrite_expr(expr.right, mapping))
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(rewrite_expr(expr.cond, mapping),
                           rewrite_expr(expr.true_value, mapping),
                           rewrite_expr(expr.false_value, mapping))
    if isinstance(expr, ast.Concat):
        return ast.Concat([rewrite_expr(p, mapping) for p in expr.parts])
    if isinstance(expr, ast.Repeat):
        return ast.Repeat(rewrite_expr(expr.count, mapping),
                          rewrite_expr(expr.value, mapping))
    if isinstance(expr, ast.BitSelect):
        return ast.BitSelect(rewrite_expr(expr.base, mapping),
                             rewrite_expr(expr.index, mapping))
    if isinstance(expr, ast.PartSelect):
        return ast.PartSelect(rewrite_expr(expr.base, mapping),
                              rewrite_expr(expr.left, mapping),
                              rewrite_expr(expr.right, mapping), expr.mode)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name,
                                [rewrite_expr(a, mapping) for a in expr.args])
    raise ElaborationError(
        f"cannot rewrite expression of type {type(expr).__name__}")


def _rewrite_statement(stmt, mapping):
    if isinstance(stmt, ast.Block):
        return ast.Block([_rewrite_statement(s, mapping)
                          for s in stmt.statements], stmt.name)
    if isinstance(stmt, ast.BlockingAssign):
        return ast.BlockingAssign(rewrite_expr(stmt.lhs, mapping),
                                  rewrite_expr(stmt.rhs, mapping), stmt.line)
    if isinstance(stmt, ast.NonblockingAssign):
        return ast.NonblockingAssign(rewrite_expr(stmt.lhs, mapping),
                                     rewrite_expr(stmt.rhs, mapping),
                                     stmt.line)
    if isinstance(stmt, ast.If):
        else_stmt = (_rewrite_statement(stmt.else_stmt, mapping)
                     if stmt.else_stmt is not None else None)
        return ast.If(rewrite_expr(stmt.cond, mapping),
                      _rewrite_statement(stmt.then_stmt, mapping), else_stmt)
    if isinstance(stmt, ast.Case):
        items = [ast.CaseItem([rewrite_expr(p, mapping) for p in item.patterns],
                              _rewrite_statement(item.statement, mapping))
                 for item in stmt.items]
        return ast.Case(rewrite_expr(stmt.expr, mapping), items, stmt.kind)
    if isinstance(stmt, ast.For):
        return ast.For(_rewrite_statement(stmt.init, mapping),
                       rewrite_expr(stmt.cond, mapping),
                       _rewrite_statement(stmt.step, mapping),
                       _rewrite_statement(stmt.body, mapping))
    raise ElaborationError(
        f"cannot rewrite statement of type {type(stmt).__name__}")


def _rewrite_width(width, param_env):
    """Evaluate a symbolic width with the parameter environment."""
    if width is None:
        return None
    msb = try_evaluate_const(width.msb, param_env)
    lsb = try_evaluate_const(width.lsb, param_env)
    if msb is None or lsb is None:
        raise ElaborationError(
            f"width {width} does not evaluate to constants")
    return ast.Width(ast.IntConst(msb), ast.IntConst(lsb))


def find_top_module(source, top=None):
    """Pick the top module: explicitly named, or never-instantiated one."""
    modules = source.module_map()
    if top is not None:
        if top not in modules:
            raise ElaborationError(f"top module {top!r} not found")
        return modules[top]
    instantiated = set()
    for module in source.modules:
        for item in module.items:
            if isinstance(item, ast.ModuleInstance):
                instantiated.add(item.module)
    candidates = [m for m in source.modules if m.name not in instantiated]
    if not candidates:
        raise ElaborationError("no top-level module (instantiation cycle?)")
    return candidates[0]


class Elaborator:
    """Flattens a multi-module design into a single module.

    Instance items are rebuilt under their instance prefix, but the top
    module's own items are reused when flattening renames nothing (no
    parameters), so the flat module may share nodes with the parsed
    AST.  That is safe because nothing writes to an AST node once the
    parser has returned it.
    """

    def __init__(self, source):
        self._modules = source.module_map()

    def elaborate(self, top=None):
        """Return a flat :class:`Module` for the chosen top."""
        top_module = find_top_module(
            ast.SourceFile(list(self._modules.values())), top)
        param_env = self._default_params(top_module, {})
        items = self._flatten(top_module, prefix="", param_env=param_env,
                              depth=0)
        ports = []
        for port in top_module.ports:
            width = (_rewrite_width(port.width, param_env)
                     if port.width is not None else None)
            ports.append(ast.Port(port.name, port.direction, width,
                                  port.is_reg, port.signed))
        return ast.Module(name=top_module.name, ports=ports, items=items,
                          params=[], line=top_module.line)

    # ------------------------------------------------------------------
    def _default_params(self, module, overrides):
        env = {}
        for param in module.params:
            if param.name in overrides:
                env[param.name] = overrides[param.name]
            else:
                env[param.name] = evaluate_const(param.value, env)
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                if item.name in overrides and not item.local:
                    env[item.name] = overrides[item.name]
                else:
                    env[item.name] = evaluate_const(item.value, env)
        return env

    def _local_names(self, module):
        names = set(module.port_names())
        for item in module.items:
            if isinstance(item, ast.NetDecl):
                names.update(item.names)
        return names

    def _flatten(self, module, prefix, param_env, depth):
        if depth > _MAX_DEPTH:
            raise ElaborationError(
                f"instantiation too deep at {module.name!r} (recursion?)")
        # Flattening that renames nothing -- the top module, without
        # parameters -- maps every name to itself, so its items are
        # reused as they are.  A declared width is still rebuilt: that
        # evaluates it to constants or raises.
        renames = bool(prefix or param_env)
        mapping = {}
        if renames:
            mapping = {name: ast.IntConst(value)
                       for name, value in param_env.items()}
            for name in self._local_names(module):
                mapping[name] = ast.Identifier(prefix + name)

        items = []
        for item in module.items:
            if not renames and (isinstance(item, _VERBATIM_ITEMS) or (
                    isinstance(item, ast.NetDecl) and item.width is None)):
                items.append(item)
            elif isinstance(item, ast.ParamDecl):
                continue
            elif isinstance(item, ast.NetDecl):
                width = _rewrite_width(item.width, param_env)
                names = [prefix + name for name in item.names]
                items.append(ast.NetDecl(item.kind, names, width,
                                         item.signed, item.line))
            elif isinstance(item, ast.Assign):
                items.append(ast.Assign(rewrite_expr(item.lhs, mapping),
                                        rewrite_expr(item.rhs, mapping),
                                        item.line))
            elif isinstance(item, ast.GateInstance):
                args = [rewrite_expr(a, mapping) for a in item.args]
                items.append(ast.GateInstance(item.gate, prefix + item.name,
                                              args, item.line))
            elif isinstance(item, ast.Always):
                sens = [ast.SensItem(s.edge, rewrite_expr(s.signal, mapping))
                        for s in item.sens_list]
                items.append(ast.Always(
                    sens, _rewrite_statement(item.statement, mapping),
                    item.line))
            elif isinstance(item, ast.Initial):
                continue  # initial blocks carry no dataflow
            elif isinstance(item, ast.ModuleInstance):
                items.extend(self._flatten_instance(item, prefix, mapping,
                                                    param_env, depth))
            else:
                raise ElaborationError(
                    f"unsupported module item {type(item).__name__}")
        return items

    def _flatten_instance(self, inst, prefix, mapping, param_env, depth):
        child = self._modules.get(inst.module)
        if child is None:
            raise ElaborationError(
                f"module {inst.module!r} instantiated but not defined")
        child_prefix = f"{prefix}{inst.name}."

        overrides = self._evaluate_overrides(inst, child, param_env)
        child_env = self._default_params(child, overrides)

        items = []
        # Declare child port nets in the flat namespace, then wire them up.
        connections = self._pair_connections(inst, child)
        for port in child.ports:
            width = (_rewrite_width(port.width, child_env)
                     if port.width is not None else None)
            kind = "reg" if port.is_reg else "wire"
            items.append(ast.NetDecl(kind, [child_prefix + port.name], width))
        for port, actual in connections:
            if actual is None:
                continue
            actual_expr = rewrite_expr(actual, mapping)
            port_ref = ast.Identifier(child_prefix + port.name)
            if port.direction == "input":
                items.append(ast.Assign(lhs=port_ref, rhs=actual_expr,
                                        line=inst.line))
            else:  # output / inout: the child drives the parent net
                items.append(ast.Assign(lhs=actual_expr, rhs=port_ref,
                                        line=inst.line))
        items.extend(self._flatten(child, child_prefix, child_env, depth + 1))
        return items

    def _evaluate_overrides(self, inst, child, param_env):
        overrides = {}
        if not inst.param_overrides:
            return overrides
        positional = [c for c in inst.param_overrides if c.port is None]
        if positional and len(positional) == len(inst.param_overrides):
            names = [p.name for p in child.params]
            if len(positional) > len(names):
                raise ElaborationError(
                    f"too many parameter overrides on {inst.name!r}")
            for name, conn in zip(names, positional):
                overrides[name] = evaluate_const(conn.expr, param_env)
        else:
            for conn in inst.param_overrides:
                if conn.port is None:
                    raise ElaborationError(
                        "mixed positional/named parameter overrides")
                overrides[conn.port] = evaluate_const(conn.expr, param_env)
        return overrides

    def _pair_connections(self, inst, child):
        """Return (port, actual_expr) pairs for an instantiation."""
        pairs = []
        named = [c for c in inst.connections if c.port is not None]
        if named and len(named) != len(inst.connections):
            raise ElaborationError(
                f"mixed named/positional connections on {inst.name!r}")
        if named:
            by_name = {c.port: c.expr for c in named}
            unknown = set(by_name) - set(child.port_names())
            if unknown:
                raise ElaborationError(
                    f"instance {inst.name!r} connects unknown ports {unknown}")
            for port in child.ports:
                pairs.append((port, by_name.get(port.name)))
        else:
            if len(inst.connections) > len(child.ports):
                raise ElaborationError(
                    f"too many connections on instance {inst.name!r}")
            for port, conn in zip(child.ports, inst.connections):
                pairs.append((port, conn.expr))
        return pairs


def elaborate(source, top=None):
    """Flatten ``source`` (a SourceFile) into a single module."""
    return Elaborator(source).elaborate(top)
