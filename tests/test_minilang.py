"""Expression-language tests: parser, printer, evaluator, folding."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.minilang import (
    ArityError,
    Assign,
    Const,
    DomainError,
    MAX_DEPTH,
    ExprSyntaxError,
    Op,
    Program,
    TypeCheckError,
    Var,
    assemble_program,
    compile_program,
    compile_variants,
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
    # parse folds -<literal> into the constant, so a `neg` of a Const cannot round-trip
    return Op("neg", (e if not isinstance(e, Const) else Var("x"),))


def _op(t):
    """(op, arg, ...) as an Op node."""
    return Op(t[0], tuple(t[1:]))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*", "/", "%")), children, children).map(_op),
        st.tuples(st.sampled_from(("<", "<=", "==")), children, children).map(_op),
        st.tuples(st.just("?:"), children, children, children).map(_op),
        children.map(_neg),
        st.tuples(st.sampled_from(("sqrt", "abs")), children).map(_op),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(_op),
    )


ANY_EXPR = st.recursive(st.one_of(_CONSTS, _VARS), _extend, max_leaves=25)

# total fragment: no /, %, sqrt, and comparisons only inside ternary guards
_TOTAL_LEAF = st.one_of(_CONSTS, _VARS)


def _extend_total(children):
    guard = st.tuples(st.sampled_from(("<", "<=", "==")), children, children).map(_op)
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), children, children).map(_op),
        st.tuples(st.just("?:"), guard, children, children).map(_op),
        children.map(_neg),
        children.map(lambda e: Op("abs", (e,))),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(_op),
    )


TOTAL_EXPR = st.recursive(_TOTAL_LEAF, _extend_total, max_leaves=20)


def reference_eval(node, env):
    """Independent recursive interpreter for the whole language."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if node.op == "?:":
        test, then, other = node.args
        return reference_eval(then if reference_eval(test, env) else other, env)
    vals = [reference_eval(a, env) for a in node.args]
    if node.op == "neg":
        return -vals[0]
    if node.op == "sqrt":
        if vals[0] < 0:
            raise DomainError("sqrt of a negative number")
        return math.sqrt(vals[0])
    if node.op == "abs":
        return abs(vals[0])
    if node.op in ("min", "max"):
        return min(vals) if node.op == "min" else max(vals)
    a, b = vals
    if node.op == "/":
        if b == 0:
            raise DomainError("division by zero")
        return a / b
    if node.op == "%":
        return a if b == 0 else a % b
    return {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: a * b,
        "<": lambda: a < b,
        "<=": lambda: a <= b,
        "==": lambda: a == b,
    }[node.op]()


def outcome(thunk):
    """A value, or the marker of a DomainError."""
    try:
        return thunk()
    except DomainError:
        return DomainError


def same_outcome(a, b):
    """Equal floats (-0.0 only matches -0.0), NaN matches NaN, DomainError
    matches DomainError."""
    if a is DomainError or b is DomainError:
        return a is b
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -3.0))
SHAPES = ("var-var", "var-const", "const-var", "const-const", "nested")  # operands of a binary op


# --- parsing and printing ---------------------------------------------------


class TestParsePrint:
    @given(ANY_EXPR)
    @settings(max_examples=300)
    def test_roundtrip(self, expr):
        assert parse_expr(to_source(expr)) == expr

    @pytest.mark.parametrize("value", (math.inf, -math.inf, -0.0, 0.0, 1e15, -2.5))
    def test_roundtrip_is_bit_exact(self, value):
        for tree in (Const(value), Op("*", (Var("x"), Const(value)))):
            back = parse_expr(to_source(tree))
            assert back == tree
            const = back if isinstance(back, Const) else back.args[1]
            assert math.copysign(1.0, const.value) == math.copysign(1.0, value)

    def test_nan_has_no_literal(self):
        with pytest.raises(ValueError, match="NaN"):
            to_source(Const(math.nan))

    def test_precedence(self):
        assert parse_expr("1 + 2 * 3") == Op("+", (Const(1.0), Op("*", (Const(2.0), Const(3.0)))))
        assert parse_expr("(1 + 2) * 3") == Op("*", (Op("+", (Const(1.0), Const(2.0))), Const(3.0)))

    def test_left_associative(self):
        assert parse_expr("8 - 3 - 2") == Op("-", (Op("-", (Const(8.0), Const(3.0))), Const(2.0)))

    @pytest.mark.parametrize(
        "src,tree",
        (
            ("1 < 2 + 3", Op("<", (Const(1.0), Op("+", (Const(2.0), Const(3.0)))))),
            ("a % b * c", Op("*", (Op("%", (Var("a"), Var("b"))), Var("c")))),
            ("a - b + c", Op("+", (Op("-", (Var("a"), Var("b"))), Var("c")))),
        ),
    )
    def test_levels_of_the_precedence_table(self, src, tree):
        assert parse_expr(src) == tree

    @pytest.mark.parametrize(
        "src,message",
        (
            ("a < b < c", "trailing input '<' at column 7"),
            ("a == b <= c", "trailing input '<=' at column 8"),
            ("x < 0 ? a < b < c : 1", "unexpected '<' at column 15 (expected ':')"),
        ),
    )
    def test_comparisons_do_not_chain(self, src, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(src)
        assert str(info.value).startswith(message)

    def test_ternary_right_associative(self):
        e = parse_expr("x < 0 ? 1 : x < 5 ? 2 : 3")
        assert e.op == "?:" and e.args[2].op == "?:"

    def test_negative_literal_folds_to_const(self):
        assert parse_expr("-5") == Const(-5.0)
        assert parse_expr("--5") == Const(5.0)
        assert parse_expr("-x") == Op("neg", (Var("x"),))

    @pytest.mark.parametrize(
        "src",
        ["1 +", "$", "(1", "min(1)", "frob(2)", "1 2", "? : 3", ""],
    )
    def test_rejects_garbage(self, src):
        with pytest.raises((ExprSyntaxError, ArityError)):
            parse_expr(src)

    def test_statement_forms(self):
        assert parse_statement("u = x + 1") == Assign("u", Op("+", (Var("x"), Const(1.0))))
        assert parse_statement("return x") == Var("x")
        # "returned" is an identifier, not the keyword plus a tail
        assert parse_statement("returned = 2") == Assign("returned", Const(2.0))

    @pytest.mark.parametrize("line,col", (("return x + )", 12), ("  return x + )", 14), ("return", 7)))
    def test_return_columns_count_from_the_line_start(self, line, col):
        with pytest.raises(ExprSyntaxError) as info:
            parse_statement(line)
        assert info.value.col == col

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

    @staticmethod
    def _matches_on_special_operands(op, shape):
        # leaf and nested operands against the tree-walking reference
        values = (7.5, -3.0, 0.0, -0.0, math.inf, -math.inf, math.nan)
        for n in values:
            for d in values:
                left = Var("x") if shape in ("var-var", "var-const") else Const(n)
                right = Var("y") if shape in ("var-var", "const-var") else Const(d)
                if shape == "nested":
                    left = Op("+", (Var("x"), Const(0.0)))
                    right = Op("neg", (Op("neg", (Var("y"),)),))
                expr = Op(op, (left, right))
                fn = compile_program(Program("t", ("x", "y"), (), expr))
                got = outcome(lambda: fn(n, d))
                assert same_outcome(got, outcome(lambda: reference_eval(expr, {"x": n, "y": d}))), (shape, n, d)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mod_matches_the_reference_on_special_operands(self, shape):
        self._matches_on_special_operands("%", shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_division_matches_the_reference_on_special_operands(self, shape):
        # a zero divisor of either sign is a DomainError, in the reference too
        self._matches_on_special_operands("/", shape)

    @pytest.mark.parametrize(
        "expr",
        (
            Op("-", (Var("x"), Const(-2.5))),
            Op("-", (Const(-2.5), Var("x"))),
            Op("*", (Var("x"), Const(-3.0))),
            Op("*", (Const(-3.0), Var("x"))),
            Op("neg", (Const(-2.5),)),
            Op("neg", (Op("neg", (Const(-1e300),)),)),
            Op("?:", (Op("<", (Const(-2.5), Var("x"))), Const(-3.0), Var("x"))),
            Op("?:", (Op("<=", (Var("x"), Const(-2.5))), Var("x"), Op("neg", (Const(-3.0),)))),
            Op("%", (Const(-2.5), Var("x"))),
            Op("/", (Var("x"), Const(-3.0))),
        ),
        ids=to_source,
    )
    def test_negative_literals_match_the_reference(self, expr):
        fn = compile_program(Program("t", ("x",), (), expr))
        for x in (2.0, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan):
            assert same_outcome(outcome(lambda: fn(x)), outcome(lambda: reference_eval(expr, {"x": x}))), x

    @pytest.mark.parametrize(
        "expr",
        (
            Op("-", (Var("x"), Op("-", (Var("x"), Const(1.0))))),
            Op("*", (Op("+", (Var("x"), Const(1.0))), Var("x"))),
            Op("neg", (Op("+", (Var("x"), Const(1.0))),)),
            Op("<", (Op("<", (Var("x"), Const(1.0))), Const(1.0))),
            Op("?:", (Op("?:", (Op("<", (Var("x"), Const(0.0))), Op("<", (Var("x"), Const(-1.0))), Op("==", (Var("x"), Var("x"))))), Var("x"), Const(2.0))),
            Op("?:", (Op("<", (Const(1.0), Var("x"))), Op("?:", (Op("<", (Var("x"), Const(0.0))), Var("x"), Const(3.0))), Const(2.0))),
            Op("*", (Op("%", (Var("x"), Const(3.0))), Const(2.0))),
            Op("-", (Const(1.0), Op("/", (Var("x"), Const(4.0))))),
        ),
        ids=to_source,
    )
    def test_operands_that_need_parentheses_match_the_reference(self, expr):
        # unchecked trees, so comparisons may nest: each needs its parentheses in the generated code
        fn = compile_program(Program("t", ("x",), (), expr))
        for x in (2.0, 0.5, -2.5, 0.0, -0.0, math.inf, math.nan):
            assert same_outcome(outcome(lambda: fn(x)), outcome(lambda: reference_eval(expr, {"x": x}))), x

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

    @pytest.mark.parametrize("params", ((), ("a",), ("a", "b", "c")), ids=len)
    def test_wrong_argument_count_is_an_arity_error(self, params):
        fn = compile_program(Program("t", params, (), Const(1.0)))
        assert fn(*range(len(params))) == 1.0
        for count in {max(len(params) - 1, 0), len(params) + 1} - {len(params)}:
            with pytest.raises(ArityError, match=rf"t takes {len(params)} argument\(s\), got {count}$"):
                fn(*[1.0] * count)

    @staticmethod
    def _agrees_with_reference(expr, xyz):
        # unchecked programs: codegen must agree on every tree, typed or not
        env = dict(zip(("x", "y", "z"), xyz))
        expected = outcome(lambda: reference_eval(expr, env))
        for tree in (expr, fold_constants(expr)):
            fn = compile_program(Program("t", ("x", "y", "z"), (), tree))
            assert same_outcome(outcome(lambda: fn(*xyz)), expected), (tree, xyz)

    @given(ANY_EXPR, st.tuples(FINITE, FINITE, FINITE))
    @settings(max_examples=300)
    def test_codegen_matches_the_reference_on_finite_inputs(self, expr, xyz):
        self._agrees_with_reference(expr, xyz)

    @given(ANY_EXPR, st.tuples(SPECIAL, SPECIAL, SPECIAL))
    @settings(max_examples=300)
    def test_codegen_matches_the_reference_on_signed_zero_inf_and_nan(self, expr, xyz):
        self._agrees_with_reference(expr, xyz)

    @pytest.mark.parametrize("value", (-0.0, math.inf, -math.inf, math.nan))
    def test_constants_without_a_literal_compile(self, value):
        # folding makes these; the generated code binds them by name
        fn = compile_program(Program("t", (), (), Op("+", (Const(value), Const(-0.0)))))
        assert same_outcome(fn(), value + -0.0)

    def test_depth_limit_is_shared_by_parser_and_compiler(self):
        chain = " % ".join(["x"] * MAX_DEPTH)
        fn = compile_program(assemble_program("t", ("x",), [parse_expr(chain)]))
        assert fn(3.0) == 0.0
        with pytest.raises(ExprSyntaxError):
            parse_expr(chain + " % x")
        deep = Var("x")
        for _ in range(MAX_DEPTH):
            deep = Op("neg", (deep,))
        with pytest.raises(ExprSyntaxError):
            compile_program(Program("t", ("x",), (), deep))

    def test_evaluate_helper(self):
        prog = assemble_program("t", ("a",), [parse_statement("return a * 3")])
        assert compile_program(prog)(2.0) == 6.0


# --- mutant schemata: one compiled function for many variants --------------


def _deep(depth):
    """A tree exactly `depth` levels deep."""
    node = Var("y")
    for _ in range(depth - 1):
        node = Op("neg", (node,))
    return node


@st.composite
def programs_and_variants(draw):
    """A program over x, y, z with rebinding assignments, and variants of it.

    One assignment may be nested to MAX_DEPTH, the most the compiler takes,
    so the selector code around it must not add expression nesting.
    """
    assigns = [
        Assign(draw(st.sampled_from(("x", "y", "z"))), draw(ANY_EXPR))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if draw(st.booleans()):
        assigns.insert(draw(st.integers(0, len(assigns))), Assign("z", _deep(MAX_DEPTH)))
    prog = Program("t", ("x", "y", "z"), tuple(assigns), draw(ANY_EXPR))
    exprs = [a.expr for a in prog.assigns] + [prog.result]
    variants = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, len(exprs) - 1))
        path, _node = draw(st.sampled_from(list(walk(exprs[k]))))
        variants.append((k, replace_at(exprs[k], path, draw(ANY_EXPR))))
    return prog, variants


def _rebuilt(prog, k, expr):
    assigns = list(prog.assigns)
    if k < len(assigns):
        assigns[k] = Assign(assigns[k].name, expr)
        return Program(prog.name, prog.params, tuple(assigns), prog.result)
    return Program(prog.name, prog.params, prog.assigns, expr)


def _observed(fn, args):
    """repr of the value, or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # any error must match, not only DomainError
        return type(exc)


_INPUT = st.one_of(FINITE, SPECIAL)


class TestVariants:
    @given(programs_and_variants(), st.tuples(_INPUT, _INPUT, _INPUT))
    @settings(max_examples=150, deadline=None)
    def test_each_variant_matches_its_rebuilt_program(self, case, xyz):
        prog, variants = case
        try:
            expected = [compile_program(_rebuilt(prog, k, e)) for k, e in variants]
        except ExprSyntaxError:  # a replacement pushed a statement past MAX_DEPTH
            with pytest.raises(ExprSyntaxError):
                compile_variants(prog, variants)
            return
        got = compile_variants(prog, variants)
        assert len(got) == len(variants)
        for want, fn in zip(expected, got):
            assert _observed(fn, xyz) == _observed(want, xyz)
            assert _observed(fn, xyz[:2]) is _observed(want, xyz[:2]) is ArityError

    def test_many_alternatives_in_one_statement(self):
        # 3,000 variants of one statement; a flat if/elif chain this long
        # exceeds CPython's compiler recursion limit
        prog = assemble_program("t", ("x",), [parse_statement("return x")])
        fns = compile_variants(prog, [(0, Op("+", (Var("x"), Const(float(i))))) for i in range(3000)])
        assert [fns[i](1.0) for i in (0, 1, 1499, 2999)] == [1.0, 2.0, 1500.0, 3000.0]

    def test_unknown_statement_is_refused(self):
        prog = assemble_program("t", ("x",), [parse_statement("return x")])
        with pytest.raises(IndexError):
            compile_variants(prog, [(1, Var("x"))])


# --- type checking ----------------------------------------------------------


class TestTypes:
    def test_bool_confined_to_guards(self):
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_expr("1 + (a < 2)")])
        with pytest.raises(TypeCheckError):
            assemble_program("t", ("a",), [parse_expr("a < 2")])
        with pytest.raises(TypeCheckError):
            # guard must be a comparison, not a number
            assemble_program("t", ("a",), [Op("?:", (Var("a"), Const(1.0), Const(0.0)))])

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
        assert got == Op("+", (Var("x"), Const(4.0)))

    def test_leaves_raising_subtrees_alone(self):
        assert fold_constants(parse_expr("1 / 0")) == Op("/", (Const(1.0), Const(0.0)))
        assert fold_constants(parse_expr("sqrt(0 - 4)")) == Op("sqrt", (Const(-4.0),))

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
