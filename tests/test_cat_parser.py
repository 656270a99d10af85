"""Unit tests for the .cat parser: precedence, statements, errors."""

import pytest

from repro.cat.ast import (
    Apply,
    Binary,
    Check,
    EmptyRel,
    Include,
    Let,
    LetRec,
    Lift,
    Name,
    Postfix,
    SetLiteral,
    Show,
    Unary,
)
from repro.cat.errors import CatSyntaxError
from repro.cat.parser import parse, parse_expression


class TestExpressionPrecedence:
    def test_union_is_loosest(self):
        # a | b ; c  ==  a | (b ; c)
        expr = parse_expression("a | b ; c")
        assert isinstance(expr, Binary) and expr.op == "|"
        assert isinstance(expr.right, Binary) and expr.right.op == ";"

    def test_intersection_binds_tighter_than_union(self):
        expr = parse_expression("a | b & c")
        assert expr.op == "|"
        assert isinstance(expr.right, Binary) and expr.right.op == "&"

    def test_difference_binds_tighter_than_intersection(self):
        expr = parse_expression("a & b \\ c")
        assert expr.op == "&"
        assert isinstance(expr.right, Binary) and expr.right.op == "\\"

    def test_seq_binds_tighter_than_difference(self):
        # lwsync \ a ; b  ==  lwsync \ (a ; b)
        expr = parse_expression("lwsync \\ a ; b")
        assert expr.op == "\\"
        assert isinstance(expr.right, Binary) and expr.right.op == ";"

    def test_cross_binds_tighter_than_seq(self):
        # a ; W * R  ==  a ; (W * R)
        expr = parse_expression("a ; W * R")
        assert expr.op == ";"
        assert isinstance(expr.right, Binary) and expr.right.op == "*"

    def test_left_associativity_of_difference(self):
        # a \ b \ c  ==  (a \ b) \ c
        expr = parse_expression("a \\ b \\ c")
        assert expr.op == "\\"
        assert isinstance(expr.left, Binary) and expr.left.op == "\\"

    def test_complement_binds_tighter_than_cross(self):
        expr = parse_expression("~a * b")
        assert isinstance(expr, Binary) and expr.op == "*"
        assert isinstance(expr.left, Unary)

    def test_postfix_binds_tightest(self):
        expr = parse_expression("~a^+")
        assert isinstance(expr, Unary)
        assert isinstance(expr.body, Postfix) and expr.body.op == "^+"


class TestExpressionForms:
    def test_name(self):
        expr = parse_expression("po")
        assert isinstance(expr, Name) and expr.ident == "po"

    def test_lift(self):
        expr = parse_expression("[W]")
        assert isinstance(expr, Lift)
        assert isinstance(expr.body, Name)

    def test_zero_is_empty_relation(self):
        assert isinstance(parse_expression("0"), EmptyRel)

    def test_braces_are_empty_set(self):
        assert isinstance(parse_expression("{}"), SetLiteral)

    def test_nonzero_number_rejected(self):
        with pytest.raises(CatSyntaxError, match="only numeric literal"):
            parse_expression("2")

    def test_bare_plus_postfix(self):
        expr = parse_expression("po+")
        assert isinstance(expr, Postfix) and expr.op == "^+"

    def test_bare_opt_postfix(self):
        expr = parse_expression("rfe?")
        assert isinstance(expr, Postfix) and expr.op == "^?"

    def test_inverse(self):
        expr = parse_expression("rf^-1")
        assert isinstance(expr, Postfix) and expr.op == "^-1"

    def test_stacked_postfix(self):
        expr = parse_expression("a^-1^+")
        assert expr.op == "^+"
        assert isinstance(expr.body, Postfix) and expr.body.op == "^-1"

    def test_application(self):
        expr = parse_expression("fencerel(SYNC)")
        assert isinstance(expr, Apply)
        assert expr.func == "fencerel" and len(expr.args) == 1

    def test_application_two_args(self):
        expr = parse_expression("weaklift(com, stxn)")
        assert isinstance(expr, Apply) and len(expr.args) == 2

    def test_parenthesised(self):
        expr = parse_expression("(a | b) ; c")
        assert expr.op == ";"
        assert isinstance(expr.left, Binary) and expr.left.op == "|"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CatSyntaxError):
            parse_expression("a b")


class TestStatements:
    def test_title(self):
        model = parse('"my model"\nlet x = po')
        assert model.title == "my model"
        assert len(model.statements) == 1

    def test_let(self):
        (stmt,) = parse("let hb = po | rf").statements
        assert isinstance(stmt, Let)
        assert stmt.name == "hb" and stmt.params == ()

    def test_let_function(self):
        (stmt,) = parse("let lift2(r, t) = t; r; t").statements
        assert isinstance(stmt, Let)
        assert stmt.params == ("r", "t")

    def test_let_rec(self):
        (stmt,) = parse("let rec a = b and b = a").statements
        assert isinstance(stmt, LetRec)
        assert [name for name, _ in stmt.bindings] == ["a", "b"]

    def test_check_with_name(self):
        (stmt,) = parse("acyclic po | com as Order").statements
        assert isinstance(stmt, Check)
        assert stmt.kind == "acyclic" and stmt.name == "Order"
        assert not stmt.flag and not stmt.negated

    def test_check_auto_name(self):
        (stmt,) = parse("empty rmw").statements
        assert stmt.name.startswith("empty@")

    def test_negated_check(self):
        (stmt,) = parse("~empty rf as HasRf").statements
        assert not stmt.flag and stmt.negated and stmt.kind == "empty"
        with pytest.raises(CatSyntaxError, match="expected one of"):
            parse("~rf as HasRf")

    def test_flagged_negated_check(self):
        (stmt,) = parse("flag ~empty race as DataRace").statements
        assert stmt.flag and stmt.negated and stmt.kind == "empty"

    def test_irreflexive_check(self):
        (stmt,) = parse("irreflexive hb ; com as HbCom").statements
        assert stmt.kind == "irreflexive"

    def test_include(self):
        (stmt,) = parse('include "stdlib.cat"').statements
        assert isinstance(stmt, Include)
        assert stmt.filename == "stdlib.cat"

    def test_show_is_parsed_and_kept_inert(self):
        (stmt,) = parse("show ppo, fence").statements
        assert isinstance(stmt, Show)
        assert stmt.names == ("ppo", "fence")

    def test_unshow(self):
        (stmt,) = parse("unshow po").statements
        assert isinstance(stmt, Show)

    def test_statement_required(self):
        with pytest.raises(CatSyntaxError, match="expected a statement"):
            parse("po | rf")

    def test_multiline_model(self):
        model = parse(
            """
            "two statements"
            let hb = po | rf
            acyclic hb as Order
            """
        )
        assert len(model.statements) == 2

    def test_error_position(self):
        with pytest.raises(CatSyntaxError) as exc:
            parse("let x = ")
        assert exc.value.line == 1
