"""RTL-to-gates synthesizer.

Lowers a *flattened* module (see :func:`repro.dataflow.elaborate`) to a
single-bit gate-level :class:`~repro.netlist.Netlist`:

* vector signals become ``name_0 .. name_{w-1}`` nets (LSB first);
* continuous assigns, gate primitives, and combinational always blocks are
  bit-blasted through :class:`~repro.synth.bitblast.BitLowering`;
* posedge-clocked always blocks infer one DFF per register bit (async
  resets are folded into the D input, i.e. implemented synchronously —
  equivalent under the cycle-accurate reference simulator).

The result is deliberately un-optimized: like the paper's netlist corpus,
the graphs are large relative to their RTL source.
"""

from repro.errors import SynthesisError
from repro.dataflow.consteval import try_evaluate_const
from repro.netlist.netlist import CONST0, CONST1, NetlistBuilder
from repro.synth.bitblast import BitLowering, const_bits, fit
from repro.verilog import ast_nodes as ast

#: Bumped when the synthesizer's *output structure* changes for the same
#: source (folded into the netlist frontend's options fingerprint, so
#: content-addressed caches and index keys can never reuse graphs from an
#: older lowering).  v2: structural gate instances drive their output
#: nets directly instead of through a per-gate buffer.
SYNTH_VERSION = 2

_MAX_UNROLL = 4096


class Synthesizer:
    """Synthesizes one flattened module into a netlist."""

    def __init__(self, module):
        self._module = module
        self._builder = NetlistBuilder(module.name)
        self._logic = BitLowering(self._builder)
        self._widths = {}
        self._signs = {}
        self._integers = set()
        self._clock = None

    def synthesize(self):
        """Run synthesis; returns the validated netlist."""
        self._collect_signals()
        for item in self._module.items:
            if isinstance(item, ast.Assign):
                self._synth_assign(item)
            elif isinstance(item, ast.GateInstance):
                self._synth_gate(item)
            elif isinstance(item, ast.Always):
                self._synth_always(item)
            elif isinstance(item, (ast.NetDecl, ast.Initial)):
                continue
            elif isinstance(item, ast.ModuleInstance):
                raise SynthesisError("flatten the design before synthesis")
            else:
                raise SynthesisError(
                    f"cannot synthesize {type(item).__name__}")
        return self._builder.build()

    # -- signal table ----------------------------------------------------
    def _width_of_decl(self, width):
        if width is None:
            return 1
        msb = try_evaluate_const(width.msb)
        lsb = try_evaluate_const(width.lsb)
        if msb is None or lsb is None:
            raise SynthesisError(f"non-constant width {width}")
        return abs(msb - lsb) + 1

    def _collect_signals(self):
        netlist = self._builder.netlist
        for port in self._module.ports:
            width = self._width_of_decl(port.width)
            self._widths[port.name] = width
            if port.direction == "input":
                if width == 1:
                    netlist.add_input(port.name)
                else:
                    for i in range(width):
                        netlist.add_input(f"{port.name}_{i}")
            else:
                if width == 1:
                    netlist.add_output(port.name)
                else:
                    for i in range(width):
                        netlist.add_output(f"{port.name}_{i}")
        for item in self._module.items:
            if isinstance(item, ast.NetDecl):
                if item.kind == "integer":
                    self._integers.update(item.names)
                    continue
                width = self._width_of_decl(item.width)
                for name in item.names:
                    self._widths.setdefault(name, width)
        # Fresh intermediate nets must never collide with declared
        # signals: a structural source can legitimately contain wires
        # named like the builder's fresh-net scheme (``xor_0`` ...),
        # e.g. when a netlist this synthesizer emitted is re-synthesized.
        for name, width in self._widths.items():
            if width == 1:
                self._builder.reserve((name,))
            else:
                self._builder.reserve(f"{name}_{i}" for i in range(width))

    def _signal_bits(self, name):
        width = self._widths.get(name)
        if width is None:
            raise SynthesisError(f"undeclared signal {name!r}")
        if width == 1:
            return [name]
        return [f"{name}_{i}" for i in range(width)]

    def _drive(self, nets, bits):
        """Connect computed ``bits`` onto named signal nets with buffers."""
        for net, bit in zip(nets, fit(bits, len(nets))):
            self._builder.buf_(bit, out=net)

    # -- module items ----------------------------------------------------
    def _adopt_output(self, bit, target):
        """Try to rename a just-created gate's output onto ``target``.

        Succeeds only when ``bit`` is the expression's freshly allocated
        root net — the output of the last gate added and not a declared
        signal — so no other reader can exist.  The gate then drives the
        assign target directly instead of through a buffer, keeping
        write -> parse -> synthesize round-trips gate-for-gate.
        """
        gates = self._builder.netlist.gates
        if not gates or gates[-1].output != bit:
            return False
        if bit in (CONST0, CONST1) or self._builder.is_reserved(bit):
            return False
        gates[-1].output = target
        return True

    def _synth_assign(self, item):
        env = {}
        lhs_nets, width = self._lhs_nets(item.lhs, env)
        bits = fit(self._eval(item.rhs, env, width_hint=width), width)
        if len(lhs_nets) == 1 and len(bits) == 1 \
                and self._adopt_output(bits[0], lhs_nets[0]):
            return
        self._drive(lhs_nets, bits)

    def _synth_gate(self, item):
        inputs = []
        widths = self._widths
        for arg in item.args[1:]:
            # A declared one-bit signal is its own net: the general
            # path would evaluate, fit and OR-reduce it to itself.
            if type(arg) is ast.Identifier and widths.get(arg.name) == 1:
                inputs.append(arg.name)
                continue
            bits = self._eval(arg, {}, width_hint=1)
            inputs.append(self._logic.logic_value(bits))
        lhs_nets, _ = self._lhs_nets(item.args[0], {})
        gate = item.gate
        if gate == "buf":
            self._drive(lhs_nets, [inputs[0]])
            return
        if len(lhs_nets) == 1:
            # A structural gate instance drives its output net directly.
            # Routing it through _drive would add a buffer per gate, so
            # re-synthesizing a netlist (the evaluation harness's
            # round-trip treatment) would inflate it ~2x and the graph
            # would stop resembling a freshly synthesized one.
            self._builder.gate(gate, inputs, output=lhs_nets[0])
            return
        value = (self._logic.bit_not(inputs[0]) if gate == "not"
                 else self._builder.gate(gate, inputs))
        self._drive(lhs_nets, [value])

    def _synth_always(self, item):
        env = {}
        nba_env = {} if item.is_clocked else env
        loop_env = {}
        self._exec_statement(item.statement, env, nba_env, loop_env)
        if item.is_clocked:
            clock = self._find_clock(item)
            combined = dict(env)
            combined.update(nba_env)
            for name, bits in combined.items():
                targets = self._signal_bits(name)
                width = len(targets)
                for net, bit in zip(targets, fit(bits, width)):
                    self._builder.dff_(bit, clock, out=net)
        else:
            for name, bits in env.items():
                targets = self._signal_bits(name)
                self._drive(targets, fit(bits, len(targets)))

    def _find_clock(self, item):
        """Pick the clock edge signal; async-reset edges are folded to sync."""
        posedges = [s for s in item.sens_list if s.edge == "posedge"]
        negedges = [s for s in item.sens_list if s.edge == "negedge"]
        candidates = posedges + negedges
        if not candidates:
            raise SynthesisError("clocked always without an edge")
        for sens in candidates:
            if isinstance(sens.signal, ast.Identifier) and \
                    sens.signal.name.lower() in ("clk", "clock", "ck"):
                return sens.signal.name
        signal = candidates[0].signal
        if not isinstance(signal, ast.Identifier):
            raise SynthesisError("clock must be a plain signal")
        return signal.name

    # -- statements ---------------------------------------------------------
    def _exec_statement(self, stmt, env, nba_env, loop_env):
        """Symbolically execute a statement.

        ``env`` holds blocking updates (reads see it); ``nba_env`` collects
        non-blocking updates (reads never see it).  Combinational blocks
        pass the same dict for both.
        """
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._exec_statement(inner, env, nba_env, loop_env)
        elif isinstance(stmt, ast.BlockingAssign):
            self._exec_assign(stmt, env, env, loop_env)
        elif isinstance(stmt, ast.NonblockingAssign):
            self._exec_assign(stmt, env, nba_env, loop_env)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env, nba_env, loop_env)
        elif isinstance(stmt, ast.Case):
            self._exec_case(stmt, env, nba_env, loop_env)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env, nba_env, loop_env)
        else:
            raise SynthesisError(
                f"cannot synthesize statement {type(stmt).__name__}")

    def _exec_assign(self, stmt, read_env, write_env, loop_env):
        lhs = stmt.lhs
        if isinstance(lhs, ast.Identifier) and (
                lhs.name in self._integers or lhs.name in loop_env):
            value = try_evaluate_const(stmt.rhs, dict(loop_env))
            if value is None:
                raise SynthesisError(
                    f"loop variable {lhs.name!r} assigned non-constant")
            loop_env[lhs.name] = value
            return
        self._assign_lhs(lhs, stmt.rhs, read_env, write_env, loop_env)

    def _assign_lhs(self, lhs, rhs_expr, read_env, write_env, loop_env):
        if isinstance(lhs, ast.Identifier):
            width = self._widths.get(lhs.name)
            if width is None:
                raise SynthesisError(f"undeclared signal {lhs.name!r}")
            bits = self._eval(rhs_expr, read_env, loop_env, width_hint=width)
            write_env[lhs.name] = fit(bits, width)
            return
        if isinstance(lhs, ast.BitSelect):
            name = self._lhs_base(lhs)
            index = try_evaluate_const(lhs.index, dict(loop_env))
            current = list(self._read_signal(name, write_env))
            bits = self._eval(rhs_expr, read_env, loop_env, width_hint=1)
            if index is not None:
                if 0 <= index < len(current):
                    current[index] = bits[0]
            else:
                index_bits = self._eval(lhs.index, read_env, loop_env)
                for position in range(len(current)):
                    match = self._logic.eq(
                        index_bits, const_bits(position, len(index_bits)))
                    current[position] = self._logic.bit_mux(
                        current[position], bits[0], match)
            write_env[name] = current
            return
        if isinstance(lhs, ast.PartSelect):
            name = self._lhs_base(lhs)
            left = try_evaluate_const(lhs.left, dict(loop_env))
            right = try_evaluate_const(lhs.right, dict(loop_env))
            if left is None or right is None:
                raise SynthesisError("part-select assign needs const bounds")
            if lhs.mode == "+:":
                lsb, width = left, right
            elif lhs.mode == "-:":
                lsb, width = left - right + 1, right
            else:
                lsb, width = right, left - right + 1
            current = list(self._read_signal(name, write_env))
            bits = self._eval(rhs_expr, read_env, loop_env, width_hint=width)
            bits = fit(bits, width)
            for offset in range(width):
                if 0 <= lsb + offset < len(current):
                    current[lsb + offset] = bits[offset]
            write_env[name] = current
            return
        if isinstance(lhs, ast.Concat):
            total = sum(self._lhs_width(p) for p in lhs.parts)
            bits = fit(self._eval(rhs_expr, read_env, loop_env,
                                  width_hint=total), total)
            offset = total
            for part in lhs.parts:
                width = self._lhs_width(part)
                offset -= width
                piece = bits[offset:offset + width]
                self._assign_bits(part, piece, write_env)
            return
        raise SynthesisError(f"invalid lvalue {type(lhs).__name__}")

    def _assign_bits(self, lhs, bits, env):
        if isinstance(lhs, ast.Identifier):
            width = self._widths.get(lhs.name, len(bits))
            env[lhs.name] = fit(bits, width)
            return
        raise SynthesisError("nested concat lvalues must be identifiers")

    def _lhs_base(self, lhs):
        base = lhs.base
        if not isinstance(base, ast.Identifier):
            raise SynthesisError("lvalue base must be an identifier")
        return base.name

    def _lhs_width(self, lhs):
        if isinstance(lhs, ast.Identifier):
            return self._widths.get(lhs.name, 1)
        if isinstance(lhs, ast.BitSelect):
            return 1
        if isinstance(lhs, ast.PartSelect):
            left = try_evaluate_const(lhs.left)
            right = try_evaluate_const(lhs.right)
            if lhs.mode in ("+:", "-:"):
                return right
            return abs(left - right) + 1
        raise SynthesisError("unsupported lvalue in concat")

    def _lhs_nets(self, lhs, env):
        """Resolve a continuous-assign target to its nets."""
        if isinstance(lhs, ast.Identifier):
            nets = self._signal_bits(lhs.name)
            return nets, len(nets)
        if isinstance(lhs, ast.BitSelect):
            name = self._lhs_base(lhs)
            index = try_evaluate_const(lhs.index)
            if index is None:
                raise SynthesisError("continuous bit-select needs const index")
            return [self._signal_bits(name)[index]], 1
        if isinstance(lhs, ast.PartSelect):
            name = self._lhs_base(lhs)
            left = try_evaluate_const(lhs.left)
            right = try_evaluate_const(lhs.right)
            if left is None or right is None:
                raise SynthesisError("part-select needs const bounds")
            if lhs.mode == "+:":
                lsb, width = left, right
            elif lhs.mode == "-:":
                lsb, width = left - right + 1, right
            else:
                lsb, width = right, left - right + 1
            nets = self._signal_bits(name)[lsb:lsb + width]
            return nets, width
        if isinstance(lhs, ast.Concat):
            nets = []
            for part in lhs.parts:
                part_nets, _ = self._lhs_nets(part, env)
                nets = part_nets + nets  # concat is MSB-first
            return nets, len(nets)
        raise SynthesisError(f"invalid assign target {type(lhs).__name__}")

    def _exec_if(self, stmt, env, nba_env, loop_env):
        constant = try_evaluate_const(stmt.cond, dict(loop_env))
        if constant is not None and _only_loop_vars(stmt.cond, loop_env,
                                                    self._integers):
            branch = stmt.then_stmt if constant else stmt.else_stmt
            if branch is not None:
                self._exec_statement(branch, env, nba_env, loop_env)
            return
        cond = self._logic.logic_value(self._eval(stmt.cond, env, loop_env))
        then_env = dict(env)
        then_nba = nba_env if nba_env is env else dict(nba_env)
        self._exec_statement(stmt.then_stmt, then_env,
                             then_env if nba_env is env else then_nba,
                             dict(loop_env))
        else_env = dict(env)
        else_nba = nba_env if nba_env is env else dict(nba_env)
        if stmt.else_stmt is not None:
            self._exec_statement(stmt.else_stmt, else_env,
                                 else_env if nba_env is env else else_nba,
                                 dict(loop_env))
        self._merge(cond, then_env, else_env, env)
        if nba_env is not env:
            self._merge(cond, then_nba, else_nba, nba_env)

    def _exec_case(self, stmt, env, nba_env, loop_env):
        subject = self._eval(stmt.expr, env, loop_env)
        separate_nba = nba_env is not env
        arms = []
        default_env = dict(env)
        default_nba = dict(nba_env) if separate_nba else default_env
        explicit_default = False
        constant_patterns = set()
        for item in stmt.items:
            if not item.patterns:
                explicit_default = True
                self._exec_statement(item.statement, default_env,
                                     default_nba, dict(loop_env))
                continue
            match = CONST0
            for pattern in item.patterns:
                value = try_evaluate_const(pattern, dict(loop_env))
                if value is not None:
                    constant_patterns.add(value & ((1 << len(subject)) - 1))
                pattern_bits = self._eval(pattern, env, loop_env,
                                          width_hint=len(subject))
                match = self._logic.bit_or(
                    match, self._logic.eq(subject, pattern_bits))
            arm_env = dict(env)
            arm_nba = dict(nba_env) if separate_nba else arm_env
            self._exec_statement(item.statement, arm_env, arm_nba,
                                 dict(loop_env))
            arms.append((match, arm_env, arm_nba))
        # A case whose constant patterns cover every subject value is
        # complete: its last arm acts as the default (prevents latched
        # feedback, i.e. a fake combinational cycle).
        if (not explicit_default and arms
                and len(constant_patterns) == (1 << len(subject))):
            _, default_env, default_nba = arms.pop()
        result, result_nba = default_env, default_nba
        for match, arm_env, arm_nba in reversed(arms):
            merged = dict(env)
            self._merge(match, arm_env, result, merged)
            if separate_nba:
                merged_nba = dict(nba_env)
                self._merge(match, arm_nba, result_nba, merged_nba)
                result_nba = merged_nba
            else:
                result_nba = merged
            result = merged
        env.clear()
        env.update(result)
        if separate_nba:
            nba_env.clear()
            nba_env.update(result_nba)

    def _merge(self, cond, then_env, else_env, out_env):
        # Sorted so gate creation order never depends on hash-randomized
        # set order; identical source must synthesize identically in every
        # process (content-addressed caching relies on it).
        for name in sorted(set(then_env) | set(else_env)):
            then_bits = then_env.get(name)
            else_bits = else_env.get(name)
            if then_bits is None:
                then_bits = self._read_signal(name, out_env)
            if else_bits is None:
                else_bits = self._read_signal(name, out_env)
            if then_bits == else_bits:
                out_env[name] = then_bits
            else:
                out_env[name] = self._logic.mux_word(else_bits, then_bits,
                                                     cond)

    def _read_signal(self, name, env):
        if env is not None and name in env:
            return env[name]
        return self._signal_bits(name)

    def _exec_for(self, stmt, env, nba_env, loop_env):
        inner = dict(loop_env)
        self._exec_assign(stmt.init, env, env, inner)
        iterations = 0
        while True:
            condition = try_evaluate_const(stmt.cond, dict(inner))
            if condition is None:
                raise SynthesisError("for condition must be constant")
            if not condition:
                break
            iterations += 1
            if iterations > _MAX_UNROLL:
                raise SynthesisError("for loop exceeds unroll limit")
            self._exec_statement(stmt.body, env, nba_env, inner)
            self._exec_assign(stmt.step, env, env, inner)

    # -- expressions ----------------------------------------------------------
    def _natural_width(self, expr, loop_env):
        if isinstance(expr, ast.Identifier):
            if expr.name in loop_env:
                return max(1, int(loop_env[expr.name]).bit_length())
            return self._widths.get(expr.name, 1)
        if isinstance(expr, ast.IntConst):
            return max(1, expr.value.bit_length())
        if isinstance(expr, ast.BasedConst):
            if expr.width is not None:
                return expr.width
            return max(1, expr.value.bit_length())
        if isinstance(expr, ast.UnaryOp):
            if expr.op in ("&", "|", "^", "~&", "~|", "~^", "!"):
                return 1
            return self._natural_width(expr.operand, loop_env)
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return 1
            left = self._natural_width(expr.left, loop_env)
            right = self._natural_width(expr.right, loop_env)
            if op == "+":
                return max(left, right) + 1
            if op == "*":
                return left + right
            if op in ("<<", "<<<"):
                amount = try_evaluate_const(expr.right, dict(loop_env))
                return left + (amount if amount is not None else 0)
            return max(left, right)
        if isinstance(expr, ast.Ternary):
            return max(self._natural_width(expr.true_value, loop_env),
                       self._natural_width(expr.false_value, loop_env))
        if isinstance(expr, ast.Concat):
            return sum(self._natural_width(p, loop_env) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            count = try_evaluate_const(expr.count, dict(loop_env)) or 1
            return count * self._natural_width(expr.value, loop_env)
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            left = try_evaluate_const(expr.left, dict(loop_env))
            right = try_evaluate_const(expr.right, dict(loop_env))
            if expr.mode in ("+:", "-:"):
                return right if right is not None else 1
            if left is None or right is None:
                raise SynthesisError("part select needs const bounds")
            return abs(left - right) + 1
        if isinstance(expr, ast.FunctionCall):
            if expr.args:
                return self._natural_width(expr.args[0], loop_env)
        return 1

    def _eval(self, expr, env, loop_env=None, width_hint=None):
        loop_env = loop_env if loop_env is not None else {}
        bits = self._eval_inner(expr, env, loop_env, width_hint)
        if width_hint is not None:
            return fit(bits, max(width_hint, len(bits)))
        return bits

    def _eval_inner(self, expr, env, loop_env, width_hint):
        logic = self._logic
        if isinstance(expr, ast.Identifier):
            if expr.name in loop_env:
                value = loop_env[expr.name]
                return const_bits(value, width_hint
                                  or max(1, value.bit_length()))
            return list(self._read_signal(expr.name, env))
        if isinstance(expr, (ast.IntConst, ast.BasedConst)):
            value = expr.value
            width = (expr.width if isinstance(expr, ast.BasedConst)
                     and expr.width is not None
                     else width_hint or max(1, value.bit_length()))
            return const_bits(value, width)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env, loop_env)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env, loop_env, width_hint)
        if isinstance(expr, ast.Ternary):
            cond = logic.logic_value(self._eval(expr.cond, env, loop_env))
            then_bits = self._eval(expr.true_value, env, loop_env, width_hint)
            else_bits = self._eval(expr.false_value, env, loop_env, width_hint)
            return logic.mux_word(else_bits, then_bits, cond)
        if isinstance(expr, ast.Concat):
            bits = []
            for part in reversed(expr.parts):
                width = self._natural_width(part, loop_env)
                bits.extend(fit(self._eval(part, env, loop_env), width))
            return bits
        if isinstance(expr, ast.Repeat):
            count = try_evaluate_const(expr.count, dict(loop_env))
            if count is None:
                raise SynthesisError("repeat count must be constant")
            width = self._natural_width(expr.value, loop_env)
            piece = fit(self._eval(expr.value, env, loop_env), width)
            return piece * count
        if isinstance(expr, ast.BitSelect):
            base = self._eval(expr.base, env, loop_env)
            index = try_evaluate_const(expr.index, dict(loop_env))
            if index is not None:
                if 0 <= index < len(base):
                    return [base[index]]
                return [CONST0]
            index_bits = self._eval(expr.index, env, loop_env)
            return [logic.select_var_bit(base, index_bits)]
        if isinstance(expr, ast.PartSelect):
            base = self._eval(expr.base, env, loop_env)
            left = try_evaluate_const(expr.left, dict(loop_env))
            right = try_evaluate_const(expr.right, dict(loop_env))
            if left is None or right is None:
                raise SynthesisError("part select needs const bounds")
            if expr.mode == "+:":
                lsb, width = left, right
            elif expr.mode == "-:":
                lsb, width = left - right + 1, right
            else:
                lsb, width = right, left - right + 1
            return fit(base[lsb:lsb + width], width)
        if isinstance(expr, ast.FunctionCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                return self._eval(expr.args[0], env, loop_env, width_hint)
            raise SynthesisError(f"cannot synthesize call {expr.name!r}")
        raise SynthesisError(
            f"cannot synthesize expression {type(expr).__name__}")

    def _eval_unary(self, expr, env, loop_env):
        logic = self._logic
        operand = self._eval(expr.operand, env, loop_env)
        op = expr.op
        if op == "+":
            return operand
        if op == "-":
            return logic.neg(operand)
        if op == "~":
            return logic.word_not(operand)
        if op == "!":
            return [logic.bit_not(logic.logic_value(operand))]
        if op == "&":
            return [logic.reduce_and(operand)]
        if op == "~&":
            return [logic.bit_not(logic.reduce_and(operand))]
        if op == "|":
            return [logic.reduce_or(operand)]
        if op == "~|":
            return [logic.bit_not(logic.reduce_or(operand))]
        if op == "^":
            return [logic.reduce_xor(operand)]
        if op == "~^":
            return [logic.bit_not(logic.reduce_xor(operand))]
        raise SynthesisError(f"unknown unary {op!r}")

    def _eval_binary(self, expr, env, loop_env, width_hint):
        logic = self._logic
        op = expr.op
        if op in ("&&", "||"):
            left = logic.logic_value(self._eval(expr.left, env, loop_env))
            right = logic.logic_value(self._eval(expr.right, env, loop_env))
            if op == "&&":
                return [logic.bit_and(left, right)]
            return [logic.bit_or(left, right)]
        # Context-determined sizing: the assignment-context width reaches
        # down into arithmetic/bitwise operands (IEEE 1364 expression
        # sizing), so nested additions keep their carries.
        operand_hint = (width_hint if op in ("+", "-", "*", "&", "|", "^",
                                             "~^", "^~") else None)
        left = self._eval(expr.left, env, loop_env, width_hint=operand_hint)
        right = self._eval(expr.right, env, loop_env,
                           width_hint=operand_hint)
        natural = max(len(left), len(right))
        target = max(width_hint or 0, natural)
        if op == "+":
            # Keep the carry when the context does not cap the width.
            return logic.add(left, right,
                             width=target if width_hint else natural + 1)
        if op == "-":
            return logic.sub(left, right, width=target)
        if op == "*":
            return logic.mul(left, right, width=width_hint
                             or (len(left) + len(right)))
        if op == "&":
            return logic.word_and(left, right)
        if op == "|":
            return logic.word_or(left, right)
        if op == "^":
            return logic.word_xor(left, right)
        if op in ("~^", "^~"):
            return logic.word_not(logic.word_xor(left, right))
        if op == "==":
            return [logic.eq(left, right)]
        if op == "!=":
            return [logic.neq(left, right)]
        if op == "<":
            return [logic.lt(left, right)]
        if op == ">":
            return [logic.lt(right, left)]
        if op == "<=":
            return [logic.le(left, right)]
        if op == ">=":
            return [logic.le(right, left)]
        if op in ("<<", "<<<", ">>", ">>>"):
            is_left = op in ("<<", "<<<")
            amount = try_evaluate_const(expr.right, dict(loop_env))
            width = max(target, len(left))
            if amount is not None:
                return logic.shift_const(left, amount, is_left, width)
            return logic.shift_var(left, right, is_left, width)
        raise SynthesisError(f"cannot synthesize operator {op!r}")


def _only_loop_vars(expr, loop_env, integers):
    if isinstance(expr, ast.Identifier):
        return expr.name in loop_env or expr.name in integers
    if isinstance(expr, (ast.IntConst, ast.BasedConst)):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _only_loop_vars(expr.operand, loop_env, integers)
    if isinstance(expr, ast.BinaryOp):
        return (_only_loop_vars(expr.left, loop_env, integers)
                and _only_loop_vars(expr.right, loop_env, integers))
    return False


def synthesize(module):
    """Synthesize a flattened module; returns a validated Netlist."""
    return Synthesizer(module).synthesize()


def synthesize_verilog(text, top=None, library=None):
    """Parse + elaborate + synthesize Verilog text in one call.

    Args:
        library: optional techmap vocabulary (see
            :data:`repro.synth.techmap.LIBRARIES`); when given, the
            synthesized netlist is remapped onto that cell library.
    """
    from repro.dataflow.elaborate import elaborate
    from repro.verilog import parse_source

    source = parse_source(text)
    netlist = synthesize(elaborate(source, top=top))
    if library is not None:
        from repro.synth.techmap import map_netlist

        netlist = map_netlist(netlist, library)
    return netlist
