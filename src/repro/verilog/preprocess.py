"""Verilog preprocessor: comments, ```define``, ```include``, conditionals.

This implements the "preprocess" phase of the GNN4IP DFG pipeline (Fig. 2 of
the paper): the source is cleaned of directives and flattened into a single
compilation unit before lexing.
"""

import re
from pathlib import Path

from repro.errors import PreprocessorError

_DIRECTIVE_RE = re.compile(r"^\s*`(\w+)\s*(.*)$")
_MACRO_USE_RE = re.compile(r"`(\w+)")
#: Directives that are simply dropped — they carry no dataflow information.
_IGNORED_DIRECTIVES = frozenset({
    "timescale", "default_nettype", "celldefine", "endcelldefine",
    "resetall", "line", "pragma",
})
_MAX_MACRO_DEPTH = 32


#: One alternative per construct the comment stripper must see whole: a
#: string hides comment markers, and one broken by a newline is an error.
_COMMENT_RE = re.compile(r"""
    (?P<line>//[^\n]*)
  | (?P<block>/\*(?s:.*?)\*/)
  | (?P<open_block>/\*)
  | (?P<string>"[^"\n]*(?:"|\Z))
  | (?P<broken_string>")
""", re.VERBOSE)


def _replace_comment(match):
    kind = match.lastgroup
    if kind == "line":
        return ""
    if kind == "block":
        return "\n" * match.group().count("\n")
    if kind == "string":
        return match.group()
    if kind == "open_block":
        raise PreprocessorError("unterminated block comment")
    raise PreprocessorError("unterminated string literal")


def strip_comments(text):
    """Remove ``//`` and ``/* */`` comments, preserving line structure.

    Block comments are replaced by an equivalent number of newlines so that
    line numbers in later error messages stay accurate.  Comment markers
    inside a string literal are kept; a string left open at the end of the
    text passes through, one broken by a newline raises.
    """
    # Every alternative of the pattern starts with ``/`` or ``"``.
    if "/" not in text and '"' not in text:
        return text
    return _COMMENT_RE.sub(_replace_comment, text)


class Preprocessor:
    """Expands directives and produces a single flat source string.

    Args:
        include_dirs: directories searched by ```include``.
        defines: initial macro table (name -> replacement text).
        include_sources: in-memory mapping of file name -> source text; it is
            consulted before the filesystem, which lets generated corpora use
            includes without touching disk.
    """

    def __init__(self, include_dirs=(), defines=None, include_sources=None):
        self._include_dirs = [Path(d) for d in include_dirs]
        self._defines = dict(defines or {})
        self._include_sources = dict(include_sources or {})

    @property
    def defines(self):
        """The current macro table (name -> replacement text)."""
        return dict(self._defines)

    def process(self, text):
        """Return preprocessed source for ``text``."""
        return "\n".join(self._process_lines(strip_comments(text).split("\n"),
                                             depth=0))

    def process_file(self, path):
        """Read ``path`` and preprocess its contents."""
        return self.process(Path(path).read_text())

    # ------------------------------------------------------------------
    def _process_lines(self, lines, depth):
        if depth > 16:
            raise PreprocessorError("include depth exceeded (recursive include?)")
        output = []
        # Stack of booleans: is the current conditional region active?
        cond_stack = []
        taken_stack = []
        for line in lines:
            match = _DIRECTIVE_RE.match(line)
            if match:
                name, rest = match.group(1), match.group(2).strip()
                handled = self._handle_directive(
                    name, rest, output, cond_stack, taken_stack, depth)
                if handled:
                    continue
            if all(cond_stack):
                output.append(self._expand_macros(line))
            else:
                output.append("")
        if cond_stack:
            raise PreprocessorError("unterminated `ifdef")
        return output

    def _handle_directive(self, name, rest, output, cond_stack, taken_stack,
                          depth):
        """Process one directive line; returns False for macro-use lines."""
        active = all(cond_stack)
        if name == "ifdef":
            cond = active and rest.split()[0] in self._defines if rest else False
            cond_stack.append(cond)
            taken_stack.append(cond)
        elif name == "ifndef":
            cond = active and bool(rest) and rest.split()[0] not in self._defines
            cond_stack.append(cond)
            taken_stack.append(cond)
        elif name == "elsif":
            if not cond_stack:
                raise PreprocessorError("`elsif without `ifdef")
            parent_active = all(cond_stack[:-1])
            cond = (parent_active and not taken_stack[-1]
                    and bool(rest) and rest.split()[0] in self._defines)
            cond_stack[-1] = cond
            taken_stack[-1] = taken_stack[-1] or cond
        elif name == "else":
            if not cond_stack:
                raise PreprocessorError("`else without `ifdef")
            parent_active = all(cond_stack[:-1])
            cond_stack[-1] = parent_active and not taken_stack[-1]
            taken_stack[-1] = True
        elif name == "endif":
            if not cond_stack:
                raise PreprocessorError("`endif without `ifdef")
            cond_stack.pop()
            taken_stack.pop()
        elif not active:
            pass  # directives inside a dead region are skipped
        elif name == "define":
            self._handle_define(rest)
        elif name == "undef":
            self._defines.pop(rest.split()[0], None) if rest else None
        elif name == "include":
            output.extend(self._handle_include(rest, depth))
        elif name in _IGNORED_DIRECTIVES:
            pass
        else:
            # Unknown directive at line start: treat the line as macro use.
            return False
        return True

    def _handle_define(self, rest):
        parts = rest.split(None, 1)
        if not parts:
            raise PreprocessorError("`define without a macro name")
        name = parts[0]
        if "(" in name:
            raise PreprocessorError(
                f"function-like macro {name!r} is not supported")
        self._defines[name] = parts[1].strip() if len(parts) > 1 else ""

    def _handle_include(self, rest, depth):
        file_name = rest.strip().strip('"<>')
        if not file_name:
            raise PreprocessorError("`include without a file name")
        if file_name in self._include_sources:
            source = self._include_sources[file_name]
        else:
            source = self._read_include(file_name)
        lines = strip_comments(source).split("\n")
        return self._process_lines(lines, depth + 1)

    def _read_include(self, file_name):
        for directory in self._include_dirs:
            candidate = directory / file_name
            if candidate.exists():
                return candidate.read_text()
        raise PreprocessorError(f"cannot find include file {file_name!r}")

    def _expand_macros(self, line, depth=0):
        if "`" not in line:
            return line
        if depth > _MAX_MACRO_DEPTH:
            raise PreprocessorError("macro expansion too deep (recursive macro?)")

        def replace(match):
            name = match.group(1)
            if name in self._defines:
                return self._defines[name]
            raise PreprocessorError(f"undefined macro `{name}")

        expanded = _MACRO_USE_RE.sub(replace, line)
        if "`" in expanded:
            expanded = self._expand_macros(expanded, depth + 1)
        return expanded


def preprocess(text, include_dirs=(), defines=None, include_sources=None):
    """One-shot convenience wrapper around :class:`Preprocessor`."""
    processor = Preprocessor(include_dirs=include_dirs, defines=defines,
                             include_sources=include_sources)
    return processor.process(text)
