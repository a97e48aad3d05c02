"""Regex lexer for the synthesizable Verilog subset.

One compiled master pattern with a named group per token kind (the
tokenizer recipe of the :mod:`re` docs) scans the text; a short loop
turns the matches into tokens and keeps line and column.  Malformed input
is matched by its own error groups, so every :class:`LexerError` names
where the scan stopped.  The lexer assumes comments and compiler
directives have already been handled by :mod:`repro.verilog.preprocess`;
stray comments are still skipped so it can also be used standalone on
clean snippets.
"""

import re

from repro.errors import LexerError
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    NUMBER,
    PUNCT,
    SINGLE_CHAR_OPERATORS,
    STRING,
    Token,
)

_OPERATOR = "|".join(
    [re.escape(op) for op in MULTI_CHAR_OPERATORS]
    + ["[" + re.escape("".join(sorted(SINGLE_CHAR_OPERATORS))) + "]"])
_BASED_HEAD = r"(?:[0-9][0-9_]*)?'[sS]?"

#: Alternatives are tried in order: comments before the ``/`` operator,
#: based literals before plain numbers, and each error group after the
#: well-formed groups it backs up.  Blanks before a token are consumed by
#: the pattern's prefix rather than matched as tokens of their own; a
#: match therefore starts at the blanks, and the token is its named group
#: (``match.start(kind)``, not ``match.start()``).  Blanks that end the
#: text have no token after them: ``BAD_CHAR`` skips blanks, and the last
#: group, ``WS``, takes the run in one linear match (a run no group could
#: take would cost a backtracking search per blank, quadratic in its
#: length).
_MASTER = re.compile(r"[ \t\r\f]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("NL", r"\n[\n \t\r\f]*"),
        ("IDENT", r"[A-Za-z_$][A-Za-z0-9_$]*"),
        ("LINE_COMMENT", r"//[^\n]*"),
        ("BLOCK_COMMENT", r"/\*(?s:.*?)\*/"),
        ("OPEN_BLOCK_COMMENT", r"/\*"),
        ("OP", _OPERATOR),
        ("BASED", _BASED_HEAD + r"[bBoOdDhH][0-9a-fA-FxXzZ?_]+"),
        ("NO_DIGITS", _BASED_HEAD + r"[bBoOdDhH]"),
        ("BAD_BASE", _BASED_HEAD),
        ("NUMBER", r"[0-9][0-9_]*"),
        ("STRING", r'"[^"\n]*"'),
        ("OPEN_STRING", r'"[^"\n]*'),
        ("ESCAPED", r"\\\S+"),
        ("EMPTY_ESCAPED", r"\\"),
        ("DIRECTIVE", r"`"),
        ("BAD_CHAR", r"[^ \t\r\f]"),
        ("WS", r"[ \t\r\f]+"),
    )) + ")")


def tokenize(text, pos=0, endpos=None, line=1, line_start=0):
    """Lex ``text`` and return the token list, terminated by one EOF token.

    ``text[pos:endpos]`` alone is lexed, as if the text ended at
    ``endpos``; ``line`` is the line ``pos`` is on and ``line_start`` the
    offset that line starts at, so tokens carry their line and column in
    the whole text.

    Raises:
        LexerError: at the first character sequence that is not a token.
    """
    if endpos is None:
        endpos = len(text)
    tokens = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the namedtuple's __new__
    for match in _MASTER.finditer(text, pos, endpos):
        kind = match.lastgroup
        start, end = match.span(kind)
        if kind == "IDENT":
            word = text[start:end]
            append(new(Token, (KEYWORD if word in KEYWORDS else IDENT, word,
                               line, start - line_start + 1)))
        elif kind == "OP":
            append(new(Token, (PUNCT, text[start:end], line,
                               start - line_start + 1)))
        elif kind == "NL" or kind == "BLOCK_COMMENT":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
        elif kind == "LINE_COMMENT" or kind == "WS":
            continue
        elif kind == "NUMBER":
            append(new(Token, (NUMBER, text[start:end].replace("_", ""),
                               line, start - line_start + 1)))
        elif kind == "BASED":
            append(new(Token, (BASED_NUMBER, text[start:end], line,
                               start - line_start + 1)))
        elif kind == "STRING":
            append(new(Token, (STRING, text[start + 1:end - 1], line,
                               start - line_start + 1)))
        elif kind == "ESCAPED":
            append(new(Token, (IDENT, text[start + 1:end], line,
                               start - line_start + 1)))
        else:
            _raise(kind, text, endpos, match, line, line_start)
    append(new(Token, (EOF, "", line, endpos - line_start + 1)))
    return tokens


def _raise(kind, text, endpos, match, line, line_start):
    """Raise the :class:`LexerError` an error-group ``match`` stands for.

    Positions come from the ``kind`` group: the whole match also holds
    the blanks before it.
    """
    pos = match.end(kind)
    if kind == "OPEN_BLOCK_COMMENT":
        message, pos = "unterminated block comment", endpos
        newlines = text.count("\n", match.start(kind), endpos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", 0, endpos) + 1
    elif kind == "NO_DIGITS":
        message = "based literal has no digits"
    elif kind == "BAD_BASE":
        found = text[pos:pos + 1] if pos < endpos else ""
        message = f"invalid base character {found!r} in literal"
        if pos == endpos and text.endswith("'", 0, endpos):
            # An apostrophe that ends the text is reported one column
            # past the end.
            pos += 1
    elif kind == "OPEN_STRING":
        message = "unterminated string literal"
    elif kind == "EMPTY_ESCAPED":
        message = "empty escaped identifier"
    elif kind == "DIRECTIVE":
        message, pos = ("stray compiler directive (run the preprocessor "
                        "first)"), match.start(kind)
    else:
        message, pos = (f"unexpected character {match.group(kind)!r}",
                        match.start(kind))
    raise LexerError(message, line=line, column=pos - line_start + 1)
