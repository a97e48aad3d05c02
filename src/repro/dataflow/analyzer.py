"""Dataflow analysis: build per-signal dataflow trees and merge them.

This is the "data flow analysis" + "merge graphs" phase of the paper's
pipeline (Fig. 2).  Procedural blocks are symbolically executed: blocking
assignments update an environment, control flow becomes ``branch`` nodes,
and clocked blocks wrap the register's next-state tree in a ``dff`` node
whose second operand records the clock edge.
"""

from repro.errors import DataflowError
from repro.dataflow.consteval import try_evaluate_const
from repro.ir.graphir import (
    KIND_CONST,
    KIND_OP,
    KIND_SIGNAL,
    LEVEL_RTL,
    GraphIR,
)
from repro.ir.oplabels import BINARY_OP_LABELS, GATE_LABELS, UNARY_OP_LABELS
from repro.verilog import ast_nodes as ast

_MAX_LOOP_ITERATIONS = 4096


class DataflowAnalyzer:
    """Builds an RTL :class:`~repro.ir.graphir.GraphIR` from one flattened
    module.

    Edges run from the dependent node toward the nodes it depends on, so a
    path from an output signal leads to the inputs that feed it.  The
    analyzer owns the signal table: each signal gets one node, created
    with its final role, that every tree reading or driving it shares.
    """

    def __init__(self, module):
        self._module = module
        self._graph = GraphIR(module.name, level=LEVEL_RTL)
        self._signal_ids = {}     # signal name -> node id
        self._roles = {}
        self._integers = set()
        self._collect_signal_roles()

    def analyze(self):
        """Process every module item; returns the merged (untrimmed) graph."""
        for name in self._roles:
            self._signal(name)
        for item in self._module.items:
            if isinstance(item, ast.Assign):
                self._process_assign(item)
            elif isinstance(item, ast.GateInstance):
                self._process_gate(item)
            elif isinstance(item, ast.Always):
                self._process_always(item)
            elif isinstance(item, (ast.NetDecl, ast.Initial)):
                continue
            elif isinstance(item, ast.ModuleInstance):
                raise DataflowError(
                    f"unelaborated instance {item.name!r}; run elaborate() first")
            else:
                raise DataflowError(
                    f"unsupported item {type(item).__name__} in dataflow")
        return self._graph

    # -- signal table ----------------------------------------------------
    def _collect_signal_roles(self):
        for port in self._module.ports:
            role = port.direction if port.direction != "inout" else "output"
            self._roles[port.name] = role
        for item in self._module.items:
            if not isinstance(item, ast.NetDecl):
                continue
            for name in item.names:
                if item.kind == "integer":
                    self._integers.add(name)
                    continue
                role = "reg" if item.kind == "reg" else "wire"
                if name not in self._roles:
                    self._roles[name] = role

    # -- helpers -----------------------------------------------------------
    def _op(self, label, children):
        node = self._graph.add_node(KIND_OP, label)
        for child in children:
            self._graph.add_edge(node, child)
        return node

    def _const(self, text):
        return self._graph.add_node(KIND_CONST, "const", name=str(text))

    def _signal(self, name):
        node_id = self._signal_ids.get(name)
        if node_id is None:
            # An implicit net (legal Verilog) is a wire declared on first use.
            role = self._roles.setdefault(name, "wire")
            node_id = self._graph.add_node(KIND_SIGNAL, role, name)
            self._signal_ids[name] = node_id
        return node_id

    def _drive(self, name, tree):
        """Connect signal ``name`` to the top of its dataflow tree."""
        signal = self._signal(name)
        existing = self._graph.successors(signal)
        if existing:
            # Multiple drivers (e.g. partial assigns from several items):
            # join them under a single concat node.
            joined = self._op("concat", existing + [tree])
            self._graph._succ[signal] = []
            for dep in existing:
                self._graph._pred[dep].remove(signal)
            self._graph.add_edge(signal, joined)
        else:
            self._graph.add_edge(signal, tree)

    # -- expression trees ----------------------------------------------------
    def build_tree(self, expr, env=None, loop_env=None):
        """Build the DFG subtree for ``expr``; returns the top node id."""
        env = env if env is not None else {}
        loop_env = loop_env if loop_env is not None else {}
        if isinstance(expr, ast.Identifier):
            if expr.name in loop_env:
                return self._const(loop_env[expr.name])
            if expr.name in env:
                return env[expr.name]
            if expr.name in self._integers:
                raise DataflowError(
                    f"integer {expr.name!r} read before assignment")
            return self._signal(expr.name)
        if isinstance(expr, ast.IntConst):
            return self._const(expr.value)
        if isinstance(expr, ast.BasedConst):
            return self._const(str(expr))
        if isinstance(expr, ast.StringConst):
            return self._const(expr.value)
        if isinstance(expr, ast.UnaryOp):
            label = UNARY_OP_LABELS.get(expr.op)
            if label is None:
                raise DataflowError(f"unknown unary operator {expr.op!r}")
            return self._op(label, [self.build_tree(expr.operand, env, loop_env)])
        if isinstance(expr, ast.BinaryOp):
            label = BINARY_OP_LABELS.get(expr.op)
            if label is None:
                raise DataflowError(f"unknown binary operator {expr.op!r}")
            return self._op(label, [self.build_tree(expr.left, env, loop_env),
                                    self.build_tree(expr.right, env, loop_env)])
        if isinstance(expr, ast.Ternary):
            return self._op("branch", [
                self.build_tree(expr.cond, env, loop_env),
                self.build_tree(expr.true_value, env, loop_env),
                self.build_tree(expr.false_value, env, loop_env)])
        if isinstance(expr, ast.Concat):
            return self._op("concat", [self.build_tree(p, env, loop_env)
                                       for p in expr.parts])
        if isinstance(expr, ast.Repeat):
            return self._op("repeat", [self.build_tree(expr.count, env, loop_env),
                                       self.build_tree(expr.value, env, loop_env)])
        if isinstance(expr, ast.BitSelect):
            return self._op("pointer", [self.build_tree(expr.base, env, loop_env),
                                        self.build_tree(expr.index, env, loop_env)])
        if isinstance(expr, ast.PartSelect):
            return self._op("partselect", [
                self.build_tree(expr.base, env, loop_env),
                self.build_tree(expr.left, env, loop_env),
                self.build_tree(expr.right, env, loop_env)])
        if isinstance(expr, ast.FunctionCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                return self.build_tree(expr.args[0], env, loop_env)
            return self._op("func", [self.build_tree(a, env, loop_env)
                                     for a in expr.args])
        raise DataflowError(
            f"cannot analyze expression of type {type(expr).__name__}")

    # -- module items ----------------------------------------------------
    def _process_assign(self, item):
        tree = self.build_tree(item.rhs)
        self._assign_lhs(item.lhs, tree, env=None, loop_env={})

    def _process_gate(self, item):
        if not item.args:
            raise DataflowError(f"gate {item.name!r} has no connections")
        label = GATE_LABELS[item.gate]
        inputs = [self.build_tree(arg) for arg in item.args[1:]]
        if not inputs:
            raise DataflowError(f"gate {item.name!r} has no inputs")
        tree = self._op(label, inputs)
        self._assign_lhs(item.args[0], tree, env=None, loop_env={})

    def _process_always(self, item):
        env = {}
        loop_env = {}
        self._exec_statement(item.statement, env, loop_env)
        clocked = item.is_clocked
        edge_nodes = []
        if clocked:
            for sens in item.sens_list:
                if sens.edge in ("posedge", "negedge"):
                    signal = self.build_tree(sens.signal)
                    edge_nodes.append(self._op(sens.edge, [signal]))
        for target, tree in env.items():
            if target.startswith("\0"):
                continue  # loop-variable markers
            if clocked:
                tree = self._op("dff", [tree] + edge_nodes)
            self._drive(target, tree)

    # -- statement symbolic execution ------------------------------------
    def _exec_statement(self, stmt, env, loop_env):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._exec_statement(inner, env, loop_env)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
            self._exec_assign(stmt, env, loop_env)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env, loop_env)
        elif isinstance(stmt, ast.Case):
            self._exec_case(stmt, env, loop_env)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env, loop_env)
        else:
            raise DataflowError(
                f"unsupported statement {type(stmt).__name__}")

    def _exec_assign(self, stmt, env, loop_env):
        target = stmt.lhs
        if isinstance(target, ast.Identifier) and (
                target.name in self._integers or target.name in loop_env):
            value = try_evaluate_const(stmt.rhs, dict(loop_env))
            if value is None:
                raise DataflowError(
                    f"loop variable {target.name!r} assigned a non-constant")
            loop_env[target.name] = value
            return
        # Reads in blocking assignments see earlier writes from this block;
        # non-blocking reads also use env when present (conservative and
        # structurally equivalent for DFG purposes).
        tree = self.build_tree(stmt.rhs, env, loop_env)
        self._assign_lhs(target, tree, env, loop_env)

    def _assign_lhs(self, lhs, tree, env, loop_env):
        if isinstance(lhs, ast.Identifier):
            self._store(lhs.name, tree, env)
        elif isinstance(lhs, ast.BitSelect):
            index = self.build_tree(lhs.index, env or {}, loop_env)
            base_name = _lhs_base_name(lhs)
            prev = self._read_previous(base_name, env)
            node = self._op("partassign", [prev, index, tree])
            self._store(base_name, node, env)
        elif isinstance(lhs, ast.PartSelect):
            left = self.build_tree(lhs.left, env or {}, loop_env)
            right = self.build_tree(lhs.right, env or {}, loop_env)
            base_name = _lhs_base_name(lhs)
            prev = self._read_previous(base_name, env)
            node = self._op("partassign", [prev, left, right, tree])
            self._store(base_name, node, env)
        elif isinstance(lhs, ast.Concat):
            for part in lhs.parts:
                node = self._op("partselect", [tree])
                self._assign_lhs(part, node, env, loop_env)
        else:
            raise DataflowError(
                f"invalid assignment target {type(lhs).__name__}")

    def _store(self, name, tree, env):
        if env is None:
            self._drive(name, tree)
        else:
            env[name] = tree

    def _read_previous(self, name, env):
        if env is not None and name in env:
            return env[name]
        return self._signal(name)

    def _exec_if(self, stmt, env, loop_env):
        constant = try_evaluate_const(stmt.cond, dict(loop_env))
        if constant is not None and _is_pure_loop_condition(stmt.cond, loop_env):
            branch = stmt.then_stmt if constant else stmt.else_stmt
            if branch is not None:
                self._exec_statement(branch, env, loop_env)
            return
        cond = self.build_tree(stmt.cond, env, loop_env)
        then_env = dict(env)
        self._exec_statement(stmt.then_stmt, then_env, dict(loop_env))
        else_env = dict(env)
        if stmt.else_stmt is not None:
            self._exec_statement(stmt.else_stmt, else_env, dict(loop_env))
        self._merge_branches(cond, then_env, else_env, env)

    def _exec_case(self, stmt, env, loop_env):
        subject = self.build_tree(stmt.expr, env, loop_env)
        default_env = dict(env)
        arms = []
        for item in stmt.items:
            if not item.patterns:
                self._exec_statement(item.statement, default_env,
                                     dict(loop_env))
                continue
            pattern_nodes = [self.build_tree(p, env, loop_env)
                             for p in item.patterns]
            cond = self._op("eq", [subject] + pattern_nodes)
            arm_env = dict(env)
            self._exec_statement(item.statement, arm_env, dict(loop_env))
            arms.append((cond, arm_env))
        # Fold from the last arm toward the first: default is the innermost.
        result_env = default_env
        for cond, arm_env in reversed(arms):
            merged = dict(env)
            self._merge_branches(cond, arm_env, result_env, merged)
            result_env = merged
        env.clear()
        env.update(result_env)

    def _merge_branches(self, cond, then_env, else_env, out_env):
        # Sorted so node creation order (hence node ids and downstream
        # top-k tie-breaks) never depends on hash-randomized set order:
        # identical source must yield an identical graph in every process.
        touched = sorted(set(then_env) | set(else_env))
        for name in touched:
            then_tree = then_env.get(name)
            else_tree = else_env.get(name)
            if then_tree is None:
                then_tree = self._read_previous(name, out_env)
            if else_tree is None:
                else_tree = self._read_previous(name, out_env)
            if then_tree == else_tree:
                out_env[name] = then_tree
            else:
                out_env[name] = self._op("branch",
                                         [cond, then_tree, else_tree])

    def _exec_for(self, stmt, env, loop_env):
        inner_loop_env = dict(loop_env)
        self._exec_assign(stmt.init, env, inner_loop_env)
        iterations = 0
        while True:
            condition = try_evaluate_const(stmt.cond, dict(inner_loop_env))
            if condition is None:
                raise DataflowError("for-loop condition is not constant")
            if not condition:
                break
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise DataflowError("for-loop exceeds unroll limit")
            self._exec_statement(stmt.body, env, inner_loop_env)
            self._exec_assign(stmt.step, env, inner_loop_env)


def _lhs_base_name(lhs):
    base = lhs.base
    while isinstance(base, (ast.BitSelect, ast.PartSelect)):
        base = base.base
    if not isinstance(base, ast.Identifier):
        raise DataflowError("assignment target base must be an identifier")
    return base.name


def _is_pure_loop_condition(expr, loop_env):
    """True when every identifier in ``expr`` is a loop variable."""
    if isinstance(expr, ast.Identifier):
        return expr.name in loop_env
    if isinstance(expr, (ast.IntConst, ast.BasedConst)):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _is_pure_loop_condition(expr.operand, loop_env)
    if isinstance(expr, ast.BinaryOp):
        return (_is_pure_loop_condition(expr.left, loop_env)
                and _is_pure_loop_condition(expr.right, loop_env))
    if isinstance(expr, ast.Ternary):
        return (_is_pure_loop_condition(expr.cond, loop_env)
                and _is_pure_loop_condition(expr.true_value, loop_env)
                and _is_pure_loop_condition(expr.false_value, loop_env))
    return False


def analyze(module):
    """Build the merged, untrimmed RTL GraphIR for a flattened module."""
    return DataflowAnalyzer(module).analyze()
