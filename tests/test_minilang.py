"""Expression-language tests: parser, printer, evaluator, folding."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.minilang import (
    ArityError,
    Assign,
    Bin,
    Call,
    Cmp,
    Cond,
    Const,
    DomainError,
    ExprSyntaxError,
    Neg,
    TypeCheckError,
    Var,
    assemble_program,
    compile_program,
    fold_constants,
    parse_expr,
    parse_statement,
    replace_at,
    to_source,
    walk,
)


def make_fn(src, params=("a", "b")):
    stmts = [parse_statement(line) for line in src.strip().splitlines()]
    return compile_program(assemble_program("t", params, stmts))


# --- generators -------------------------------------------------------------

_VARS = st.sampled_from(("x", "y", "z")).map(Var)
_CONSTS = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda v: Const(float(v))),
    st.sampled_from((0.5, 2.25, 0.001, 712500000.0)).map(Const),
)


def _neg(e):
    # parse folds -<literal> into the constant, so Neg(Const) cannot round-trip
    return Neg(e) if not isinstance(e, Const) else Neg(Var("x"))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*", "/", "%")), children, children).map(
            lambda t: Bin(*t)
        ),
        st.tuples(st.sampled_from(("<", "<=", "==")), children, children).map(
            lambda t: Cmp(*t)
        ),
        st.tuples(children, children, children).map(lambda t: Cond(*t)),
        children.map(_neg),
        st.tuples(st.sampled_from(("sqrt", "abs")), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


ANY_EXPR = st.recursive(st.one_of(_CONSTS, _VARS), _extend, max_leaves=25)

# total fragment: no /, %, sqrt, and comparisons only inside ternary guards
_TOTAL_LEAF = st.one_of(_CONSTS, _VARS)


def _extend_total(children):
    guard = st.tuples(st.sampled_from(("<", "<=", "==")), children, children).map(
        lambda t: Cmp(*t)
    )
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), children, children).map(
            lambda t: Bin(*t)
        ),
        st.tuples(guard, children, children).map(lambda t: Cond(*t)),
        children.map(_neg),
        children.map(lambda e: Call("abs", (e,))),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


TOTAL_EXPR = st.recursive(_TOTAL_LEAF, _extend_total, max_leaves=20)


def reference_eval(node, env):
    """Independent recursive interpreter for the total fragment."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Bin):
        a, b = reference_eval(node.left, env), reference_eval(node.right, env)
        return {"+": a + b, "-": a - b, "*": a * b}[node.op]
    if isinstance(node, Cmp):
        a, b = reference_eval(node.left, env), reference_eval(node.right, env)
        return {"<": a < b, "<=": a <= b, "==": a == b}[node.op]
    if isinstance(node, Cond):
        branch = node.then if reference_eval(node.test, env) else node.other
        return reference_eval(branch, env)
    if isinstance(node, Neg):
        return -reference_eval(node.operand, env)
    if node.fn == "abs":
        return abs(reference_eval(node.args[0], env))
    vals = [reference_eval(a, env) for a in node.args]
    return min(vals) if node.fn == "min" else max(vals)


# --- parsing and printing ---------------------------------------------------


class TestParsePrint:
    @given(ANY_EXPR)
    @settings(max_examples=300)
    def test_roundtrip(self, expr):
        assert parse_expr(to_source(expr)) == expr

    def test_precedence(self):
        assert parse_expr("1 + 2 * 3") == Bin(
            "+", Const(1.0), Bin("*", Const(2.0), Const(3.0))
        )
        assert parse_expr("(1 + 2) * 3") == Bin(
            "*", Bin("+", Const(1.0), Const(2.0)), Const(3.0)
        )

    def test_left_associative(self):
        assert parse_expr("8 - 3 - 2") == Bin(
            "-", Bin("-", Const(8.0), Const(3.0)), Const(2.0)
        )

    def test_ternary_right_associative(self):
        e = parse_expr("x < 0 ? 1 : x < 5 ? 2 : 3")
        assert isinstance(e, Cond) and isinstance(e.other, Cond)

    def test_negative_literal_folds_to_const(self):
        assert parse_expr("-5") == Const(-5.0)
        assert parse_expr("--5") == Const(5.0)
        assert parse_expr("-x") == Neg(Var("x"))

    @pytest.mark.parametrize(
        "src",
        ["1 +", "$", "(1", "min(1)", "frob(2)", "1 2", "? : 3", ""],
    )
    def test_rejects_garbage(self, src):
        with pytest.raises((ExprSyntaxError, ArityError)):
            parse_expr(src)

    def test_statement_forms(self):
        assert parse_statement("u = x + 1") == Assign(
            "u", Bin("+", Var("x"), Const(1.0))
        )
        assert parse_statement("return x") == Var("x")
        # "returned" is an identifier, not the keyword plus a tail
        assert parse_statement("returned = 2") == Assign("returned", Const(2.0))

    @given(st.text(max_size=30))
    @settings(max_examples=200)
    def test_parser_total(self, text):
        try:
            parse_expr(text)
        except (ExprSyntaxError, ArityError):
            pass


# --- evaluation -------------------------------------------------------------


class TestEval:
    @given(
        TOTAL_EXPR,
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    @settings(max_examples=200)
    def test_matches_reference_interpreter(self, expr, x, y, z):
        env = {"x": float(x), "y": float(y), "z": float(z)}
        prog = assemble_program("t", ("x", "y", "z"), [expr])
        got = compile_program(prog)(*env.values())
        assert got == reference_eval(expr, env)

    def test_mod_is_total(self):
        f = make_fn("return a % b")
        assert f(7, 0) == 7.0
        assert f(-3, 0) == -3.0
        assert f(-7, 3) == -7 % 3  # floored, matches Python
        assert f(7.5, 2) == 7.5 % 2

    def test_division_by_zero_raises(self):
        f = make_fn("return a / b")
        assert f(1, 4) == 0.25
        with pytest.raises(DomainError):
            f(1, 0)

    def test_sqrt_negative_raises(self):
        f = make_fn("return sqrt(a)", params=("a",))
        assert f(9) == 3.0
        with pytest.raises(DomainError):
            f(-1)

    def test_ternary_does_not_eval_untaken_branch(self):
        f = make_fn("return a == 0 ? 1 : b / a")
        assert f(0, 5) == 1.0  # the division never runs
        assert f(4, 2) == 0.5

    def test_assignment_chain_and_rebinding(self):
        f = make_fn("u = a + b\nu = u * u\nreturn u - 1")
        assert f(2, 3) == 24.0

    def test_arity_checked_at_call(self):
        f = make_fn("return a + b")
        with pytest.raises(ArityError):
            f(1.0)

    def test_evaluate_helper(self):
        prog = assemble_program("t", ("a",), [parse_statement("return a * 3")])
        assert compile_program(prog)(2.0) == 6.0


# --- type checking ----------------------------------------------------------


class TestTypes:
    def test_bool_confined_to_guards(self):
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_expr("1 + (a < 2)")])
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_expr("a < 2")])
        with pytest.raises(TypeCheckError):
            # guard must be a comparison, not a number
            assemble_program("t", ("a",), [Cond(Var("a"), Const(1.0), Const(0.0))])

    def test_undefined_variable(self):
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_expr("a + q")])

    def test_body_shape_rules(self):
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [])
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_statement("u = 1")])
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a", "a"), [parse_expr("a")])


# --- folding and tree surgery -----------------------------------------------


class TestFold:
    def test_folds_constant_arithmetic(self):
        assert fold_constants(parse_expr("1 + 2 * 3")) == Const(7.0)
        assert fold_constants(parse_expr("sqrt(9)")) == Const(3.0)
        assert fold_constants(parse_expr("3 < 5 ? 10 : 20")) == Const(10.0)
        assert fold_constants(parse_expr("7 % 0")) == Const(7.0)

    def test_folds_only_constant_subtrees(self):
        got = fold_constants(parse_expr("x + (6 - 2)"))
        assert got == Bin("+", Var("x"), Const(4.0))

    def test_leaves_raising_subtrees_alone(self):
        assert fold_constants(parse_expr("1 / 0")) == Bin("/", Const(1.0), Const(0.0))
        assert fold_constants(parse_expr("sqrt(0 - 4)")) == Call(
            "sqrt", (Const(-4.0),)
        )

    @given(TOTAL_EXPR)
    @settings(max_examples=150)
    def test_fold_preserves_value(self, expr):
        env = {"x": 2.0, "y": -1.0, "z": 0.5}
        assert reference_eval(fold_constants(expr), env) == reference_eval(expr, env)

    @given(ANY_EXPR)
    @settings(max_examples=150)
    def test_replace_at_identity(self, expr):
        for path, node in walk(expr):
            assert replace_at(expr, path, node) == expr
