"""Parser for a human-friendly propositional surface syntax.

Grammar (lowest to highest precedence; ``->`` and ``<->`` associate to the
right, ``&``/``|``/``^`` to the left and are flattened):

.. code-block:: text

    iff     := implies ( '<->' implies )*
    implies := or ( '->' implies )?
    or      := xor ( ('|' | 'or') xor )*
    xor     := and ( '^' and )*
    and     := unary ( ('&' | 'and') unary )*
    unary   := ('!' | '~' | 'not') unary | primary
    primary := '(' iff ')' | 'true' | 'false' | ATOM

Atom tokens are identifiers: a letter or underscore followed by letters,
digits, or underscores.  The keywords ``and``, ``or``, ``not``, ``true``,
``false`` are reserved (case-insensitive).

>>> from repro.logic.parser import parse
>>> str(parse("a & b -> !c"))
'a & b -> !c'
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError, ReproError
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Xor,
    conjoin,
    disjoin,
    formula_depth,
)

__all__ = ["MAX_FORMULA_DEPTH", "as_formula", "parse"]

#: Deepest syntax tree :func:`as_formula` accepts.  The printer, the
#: evaluator and the parser itself recurse once or more per level (a
#: parenthesis costs the parser seven frames), and a formula is printed
#: into snapshots and parsed again on load, so the cap keeps every one of
#: them far inside CPython's default recursion limit of 1000.  A stored
#: formula may be one level deeper than the cap (a merge records the
#: disjunction of its sources), so :func:`parse`, which the snapshot
#: loader calls, applies no cap of its own.
MAX_FORMULA_DEPTH = 64

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<and>&&?)
  | (?P<or>\|\|?)
  | (?P<xor>\^)
  | (?P<not>[!~])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r}", text, position
            )
        kind = match.lastgroup or ""
        token_text = match.group()
        if kind == "name":
            lowered = token_text.lower()
            if lowered in _KEYWORDS:
                kind = lowered
        if kind != "ws":
            tokens.append(_Token(kind, token_text, position))
        position = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                self._text,
                token.position,
            )
        return self._advance()

    def parse(self) -> Formula:
        formula = self._iff()
        token = self._peek()
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {token.text!r}", self._text, token.position
            )
        return formula

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek().kind == "iff":
            self._advance()
            right = self._iff()
            return Iff(left, right)
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._peek().kind == "implies":
            self._advance()
            right = self._implies()
            return Implies(left, right)
        return left

    def _or(self) -> Formula:
        parts = [self._xor()]
        while self._peek().kind == "or":
            self._advance()
            parts.append(self._xor())
        return disjoin(parts)

    def _xor(self) -> Formula:
        left = self._and()
        while self._peek().kind == "xor":
            self._advance()
            right = self._and()
            left = Xor(left, right)
        return left

    def _and(self) -> Formula:
        parts = [self._unary()]
        while self._peek().kind == "and":
            self._advance()
            parts.append(self._unary())
        return conjoin(parts)

    def _unary(self) -> Formula:
        token = self._peek()
        if token.kind == "not":
            self._advance()
            return Not(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        token = self._peek()
        if token.kind == "lparen":
            self._advance()
            inner = self._iff()
            self._expect("rparen")
            return inner
        if token.kind == "true":
            self._advance()
            return TOP
        if token.kind == "false":
            self._advance()
            return BOTTOM
        if token.kind == "name":
            self._advance()
            return Atom(token.text)
        raise ParseError(
            f"expected a formula, found {token.text or 'end of input'!r}",
            self._text,
            token.position,
        )


def parse(text: str) -> Formula:
    """Parse ``text`` into a :class:`~repro.logic.syntax.Formula`.

    Raises :class:`~repro.errors.ParseError` with the offending position on
    malformed input, and without one when the text is nested too deeply
    for the parser's recursion.  Outside input should go through
    :func:`as_formula`, which also caps the depth of the tree.
    """
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", text) from None


def as_formula(source: str | Formula) -> Formula:
    """Parse a string and pass a :class:`Formula` through; refuse the rest.

    This is where formulas arrive from JSON bodies, the shell and the
    Python API, so anything else (a number, ``None``, a list) is a
    :class:`~repro.errors.ReproError` here rather than an ``AttributeError``
    deep inside an operator, and so is a syntax tree deeper than
    :data:`MAX_FORMULA_DEPTH`.
    """
    if isinstance(source, str):
        formula = parse(source)
    elif isinstance(source, Formula):
        formula = source
    else:
        raise ReproError(f"expected a formula string, got {type(source).__name__}")
    if formula_depth(formula) > MAX_FORMULA_DEPTH:
        raise ReproError(
            f"formula nested too deeply (more than {MAX_FORMULA_DEPTH} levels)"
        )
    return formula
