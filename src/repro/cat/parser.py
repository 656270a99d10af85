"""Recursive-descent parser for the .cat dialect.

Expression precedence, loosest to tightest (see the package docstring)::

    e  ::=  e '|' e          union
         |  e '&' e          intersection
         |  e '\\' e          difference (left associative)
         |  e ';' e          relational composition
         |  e '*' e          Cartesian product of two event sets
         |  '~' e            complement
         |  primary postfix*

    primary  ::=  name | name '(' e {',' e} ')' | '(' e ')' | '[' e ']'
               |  '0' | '{' '}'
    postfix  ::=  '^+' | '^*' | '^?' | '^-1' | '+' | '?'

Statements: ``let``/``let rec``, the three checks (optionally ``flag``-ged
or ``~``-negated), ``include``, ``show``/``unshow``.  The first token of a
file may be a string literal naming the model.
"""

from __future__ import annotations

from .ast import (
    Apply,
    Binary,
    Check,
    CHECK_KINDS,
    EmptyRel,
    Expr,
    Include,
    Let,
    LetRec,
    Lift,
    Model,
    Name,
    Postfix,
    SetLiteral,
    Show,
    Stmt,
    Unary,
)
from .errors import CatSyntaxError
from .lexer import Token, TokenKind, tokenize

__all__ = ["parse", "parse_expression"]

_POSTFIX_OPS = {
    TokenKind.HATPLUS: "^+",
    TokenKind.HATSTAR: "^*",
    TokenKind.HATOPT: "^?",
    TokenKind.INVERSE: "^-1",
    TokenKind.PLUS: "^+",
    TokenKind.OPT: "^?",
}


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = list(tokenize(source))
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.current
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            want = text or kind
            raise CatSyntaxError(
                f"expected {want!r}, found {self.current.text!r}",
                self.current.line,
                self.current.col,
            )
        return token

    # -- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        return self._union()

    def _union(self) -> Expr:
        left = self._inter()
        while self.check(TokenKind.UNION):
            op = self.advance()
            right = self._inter()
            left = Binary(op.line, op.col, "|", left, right)
        return left

    def _inter(self) -> Expr:
        left = self._diff()
        while self.check(TokenKind.INTER):
            op = self.advance()
            right = self._diff()
            left = Binary(op.line, op.col, "&", left, right)
        return left

    def _diff(self) -> Expr:
        left = self._seq()
        while self.check(TokenKind.DIFF):
            op = self.advance()
            right = self._seq()
            left = Binary(op.line, op.col, "\\", left, right)
        return left

    def _seq(self) -> Expr:
        left = self._cross()
        while self.check(TokenKind.SEQ):
            op = self.advance()
            right = self._cross()
            left = Binary(op.line, op.col, ";", left, right)
        return left

    def _cross(self) -> Expr:
        left = self._unary()
        while self.check(TokenKind.STAR):
            op = self.advance()
            right = self._unary()
            left = Binary(op.line, op.col, "*", left, right)
        return left

    def _unary(self) -> Expr:
        if self.check(TokenKind.COMPL):
            op = self.advance()
            return Unary(op.line, op.col, "~", self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self.current.kind in _POSTFIX_OPS:
            op = self.advance()
            expr = Postfix(op.line, op.col, _POSTFIX_OPS[op.kind], expr)
        return expr

    def _primary(self) -> Expr:
        token = self.current
        if token.kind == TokenKind.LPAREN:
            self.advance()
            inner = self.expression()
            self.expect(TokenKind.RPAREN)
            return inner
        if token.kind == TokenKind.LBRACKET:
            self.advance()
            inner = self.expression()
            self.expect(TokenKind.RBRACKET)
            return Lift(token.line, token.col, inner)
        if token.kind == TokenKind.LBRACE:
            self.advance()
            self.expect(TokenKind.RBRACE)
            return SetLiteral(token.line, token.col)
        if token.kind == TokenKind.NUMBER:
            self.advance()
            if token.text != "0":
                raise CatSyntaxError(
                    f"the only numeric literal is 0, found {token.text!r}",
                    token.line,
                    token.col,
                )
            return EmptyRel(token.line, token.col)
        if token.kind == TokenKind.IDENT:
            self.advance()
            if self.check(TokenKind.LPAREN):
                self.advance()
                args = [self.expression()]
                while self.accept(TokenKind.COMMA):
                    args.append(self.expression())
                self.expect(TokenKind.RPAREN)
                return Apply(token.line, token.col, token.text, tuple(args))
            return Name(token.line, token.col, token.text)
        raise CatSyntaxError(
            f"expected an expression, found {token.text!r}",
            token.line,
            token.col,
        )

    # -- statements -------------------------------------------------------

    def _let(self) -> Stmt:
        start = self.expect(TokenKind.KEYWORD, "let")
        if self.accept(TokenKind.KEYWORD, "rec"):
            bindings = [self._binding()]
            while self.accept(TokenKind.KEYWORD, "and"):
                bindings.append(self._binding())
            return LetRec(start.line, start.col, tuple(bindings))
        name = self.expect(TokenKind.IDENT).text
        params: tuple[str, ...] = ()
        if self.accept(TokenKind.LPAREN):
            names = [self.expect(TokenKind.IDENT).text]
            while self.accept(TokenKind.COMMA):
                names.append(self.expect(TokenKind.IDENT).text)
            self.expect(TokenKind.RPAREN)
            params = tuple(names)
        self.expect(TokenKind.EQUALS)
        body = self.expression()
        return Let(start.line, start.col, name, params, body)

    def _binding(self) -> tuple[str, Expr]:
        name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.EQUALS)
        return name, self.expression()

    def _check(self, flag: bool) -> Stmt:
        negated = self.accept(TokenKind.COMPL) is not None
        token = self.current
        if token.kind != TokenKind.KEYWORD or token.text not in CHECK_KINDS:
            raise CatSyntaxError(
                f"expected one of {'/'.join(CHECK_KINDS)}, found {token.text!r}",
                token.line,
                token.col,
            )
        self.advance()
        expr = self.expression()
        if self.accept(TokenKind.KEYWORD, "as"):
            name = self.expect(TokenKind.IDENT).text
        else:
            name = f"{token.text}@{token.line}"
        return Check(token.line, token.col, token.text, expr, name, flag, negated)

    def _show(self) -> Stmt:
        start = self.advance()  # show / unshow
        names = [self.expect(TokenKind.IDENT).text]
        while self.accept(TokenKind.COMMA):
            names.append(self.expect(TokenKind.IDENT).text)
        # Optional "as alias" on the last shown expression.
        if self.accept(TokenKind.KEYWORD, "as"):
            self.expect(TokenKind.IDENT)
        return Show(start.line, start.col, tuple(names))

    def statement(self) -> Stmt:
        token = self.current
        if token.kind == TokenKind.COMPL:  # a negated check: ``~empty r``
            return self._check(flag=False)
        if token.kind != TokenKind.KEYWORD:
            raise CatSyntaxError(
                f"expected a statement, found {token.text!r}",
                token.line,
                token.col,
            )
        if token.text == "let":
            return self._let()
        if token.text == "include":
            self.advance()
            filename = self.expect(TokenKind.STRING).text
            return Include(token.line, token.col, filename)
        if token.text in ("show", "unshow"):
            return self._show()
        if token.text == "flag":
            self.advance()
            return self._check(flag=True)
        if token.text in CHECK_KINDS:
            return self._check(flag=False)
        raise CatSyntaxError(
            f"unexpected keyword {token.text!r}", token.line, token.col
        )

    def model(self) -> Model:
        title = ""
        if self.check(TokenKind.STRING):
            title = self.advance().text
        statements = []
        while not self.check(TokenKind.EOF):
            statements.append(self.statement())
        return Model(title, tuple(statements))


def parse(source: str) -> Model:
    """Parse a .cat file into a :class:`Model`."""
    return _Parser(source).model()


def parse_expression(source: str) -> Expr:
    """Parse a single expression (handy for tests and the REPL)."""
    parser = _Parser(source)
    expr = parser.expression()
    parser.expect(TokenKind.EOF)
    return expr
