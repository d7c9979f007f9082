"""A tiny C-flavored expression language.

Programs are straight-line: a sequence of assignments followed by a single
`return`.  Expressions cover arithmetic (+ - * / %), comparisons (< <= ==),
the lazy ternary `?:`, unary minus, and four builtins (sqrt, abs, min, max).
A two-type discipline separates numbers from booleans: comparisons may only
appear as ternary guards.

Numeric semantics are IEEE-754 doubles.  `%` is the floored-division
remainder (sign of the divisor) and is total: `a % 0 == a`, matching the
behavior of a guarded loop that never divides by zero.  `/ 0` and
`sqrt(negative)` raise DomainError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple, Union


class MiniLangError(Exception):
    pass


class ExprSyntaxError(MiniLangError):
    """Bad surface syntax; col is 1-based within the offending line."""

    def __init__(self, message: str, col: int, expected: str):
        super().__init__(f"{message} at column {col} (expected {expected})")
        self.col = col
        self.expected = expected


class TypeCheckError(MiniLangError):
    pass


class DomainError(MiniLangError):
    pass


class ArityError(MiniLangError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cond:
    test: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple["Expr", ...]


Expr = Union[Const, Var, Bin, Cmp, Cond, Neg, Call]

BIN_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("<", "<=", "==")
BUILTIN_ARITY = {"sqrt": 1, "abs": 1, "min": 2, "max": 2}


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Program:
    """Assignments in order, then one result expression."""

    name: str
    params: Tuple[str, ...]
    assigns: Tuple[Assign, ...]
    result: Expr

    @property
    def arity(self) -> int:
        return len(self.params)


# ---------------------------------------------------------------------------
# Generic traversal helpers (used by the mutation engine)


def children(node: Expr) -> Tuple[Expr, ...]:
    if isinstance(node, (Const, Var)):
        return ()
    if isinstance(node, (Bin, Cmp)):
        return (node.left, node.right)
    if isinstance(node, Cond):
        return (node.test, node.then, node.other)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return node.args
    raise TypeError(f"not an expression node: {node!r}")


def with_children(node: Expr, new: Sequence[Expr]) -> Expr:
    if isinstance(node, (Const, Var)):
        if new:
            raise ValueError("leaf nodes take no children")
        return node
    if isinstance(node, Bin):
        return Bin(node.op, new[0], new[1])
    if isinstance(node, Cmp):
        return Cmp(node.op, new[0], new[1])
    if isinstance(node, Cond):
        return Cond(new[0], new[1], new[2])
    if isinstance(node, Neg):
        return Neg(new[0])
    if isinstance(node, Call):
        return Call(node.fn, tuple(new))
    raise TypeError(f"not an expression node: {node!r}")


def walk(node: Expr, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], Expr]]:
    """Preorder (path, node) pairs; paths are child-index tuples."""
    yield path, node
    for i, child in enumerate(children(node)):
        yield from walk(child, path + (i,))


def replace_at(node: Expr, path: Tuple[int, ...], new_node: Expr) -> Expr:
    if not path:
        return new_node
    kids = list(children(node))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new_node)
    return with_children(node, kids)


def _all_const(nodes: Sequence[Expr]) -> bool:
    return all(isinstance(n, Const) for n in nodes)


def fold_constants(node: Expr) -> Expr:
    """Evaluate constant subtrees; leaves anything that would raise alone.

    Constant nodes run through the evaluator's own compiler, so folding and
    evaluation share one statement of the operator semantics.
    """
    kids = [fold_constants(c) for c in children(node)]
    node = with_children(node, kids) if kids else node
    try:
        if isinstance(node, (Bin, Neg, Call)) and _all_const(kids):
            return Const(_compile_expr(node, {})(()))
        if isinstance(node, Cond) and isinstance(node.test, Cmp) and _all_const(children(node.test)):
            return node.then if _compile_expr(node.test, {})(()) else node.other
    except DomainError:
        pass
    return node


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|==|[-+*/%<?:(),=]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            col = pos + len(text[pos:]) - len(text[pos:].lstrip()) + 1
            raise ExprSyntaxError(f"unrecognized character {stripped[0]!r}", col, "a token")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num") + 1))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self) -> Tuple[str, str, int]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.text) + 1)

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, col = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", col, repr(op))

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    # expr := ternary
    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        test = self.parse_comparison()
        if self.at_op("?"):
            self.next()
            then = self.parse_ternary()
            self.expect_op(":")
            other = self.parse_ternary()
            return Cond(test, then, other)
        return test

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        if self.at_op("<", "<=", "=="):
            _, op, _ = self.next()
            right = self.parse_additive()
            return Cmp(op, left, right)
        return left

    def parse_additive(self) -> Expr:
        node = self.parse_multiplicative()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            node = Bin(op, node, self.parse_multiplicative())
        return node

    def parse_multiplicative(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*", "/", "%"):
            _, op, _ = self.next()
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Const):
                # literal negatives fold to constants; no Neg node survives
                return Const(-inner.value)
            return Neg(inner)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        kind, text, col = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if self.at_op("("):
                return self.parse_call(text, col)
            return Var(text)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", col, "an expression")

    def parse_call(self, fn: str, col: int) -> Expr:
        if fn not in BUILTIN_ARITY:
            raise ExprSyntaxError(f"unknown function {fn!r}", col, "sqrt, abs, min or max")
        self.expect_op("(")
        args = [self.parse_expr()]
        while self.at_op(","):
            self.next()
            args.append(self.parse_expr())
        self.expect_op(")")
        if len(args) != BUILTIN_ARITY[fn]:
            raise ArityError(f"{fn} takes {BUILTIN_ARITY[fn]} argument(s), got {len(args)}")
        return Call(fn, tuple(args))

    def done(self) -> None:
        kind, text, col = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {text!r}", col, "end of line")


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    node = p.parse_expr()
    p.done()
    return node


def parse_statement(text: str) -> Union[Assign, Expr]:
    """One body line: `name = expr` gives Assign, `return expr` gives Expr."""
    stripped = text.strip()
    if stripped.startswith("return") and (len(stripped) == 6 or not stripped[6].isalnum() and stripped[6] != "_"):
        return parse_expr(stripped[6:])
    p = _Parser(text)
    kind, name, col = p.next()
    if kind != "ident":
        raise ExprSyntaxError(f"unexpected {name or 'end of input'!r}", col, "an identifier")
    p.expect_op("=")
    expr = p.parse_expr()
    p.done()
    return Assign(name, expr)


def assemble_program(name: str, params: Sequence[str], statements: Sequence[Union[Assign, Expr]]) -> Program:
    """Build and type-check a Program from parsed body statements.

    The final statement must be the return expression; assignments may
    rebind earlier names (straight-line SSA is not required).
    """
    if not statements:
        raise TypeCheckError(f"{name}: empty body")
    *assigns, result = statements
    if isinstance(result, Assign):
        raise TypeCheckError(f"{name}: last body line must be a return")
    for a in assigns:
        if not isinstance(a, Assign):
            raise TypeCheckError(f"{name}: return before the end of the body")
    if len(set(params)) != len(params):
        raise TypeCheckError(f"{name}: duplicate parameter names")
    prog = Program(name, tuple(params), tuple(assigns), result)
    type_check(prog)
    return prog


# ---------------------------------------------------------------------------
# Type checking: two types, boolean confined to ternary guards


def expr_type(node: Expr, scope: set) -> str:
    if isinstance(node, Const):
        return "num"
    if isinstance(node, Var):
        if node.name not in scope:
            raise TypeCheckError(f"undefined variable {node.name!r}")
        return "num"
    if isinstance(node, Bin):
        if expr_type(node.left, scope) != "num" or expr_type(node.right, scope) != "num":
            raise TypeCheckError(f"arithmetic {node.op!r} needs numeric operands")
        return "num"
    if isinstance(node, Cmp):
        if expr_type(node.left, scope) != "num" or expr_type(node.right, scope) != "num":
            raise TypeCheckError(f"comparison {node.op!r} needs numeric operands")
        return "bool"
    if isinstance(node, Cond):
        if expr_type(node.test, scope) != "bool":
            raise TypeCheckError("ternary guard must be a comparison")
        if expr_type(node.then, scope) != "num" or expr_type(node.other, scope) != "num":
            raise TypeCheckError("ternary branches must be numeric")
        return "num"
    if isinstance(node, Neg):
        if expr_type(node.operand, scope) != "num":
            raise TypeCheckError("negation needs a numeric operand")
        return "num"
    if isinstance(node, Call):
        if len(node.args) != BUILTIN_ARITY[node.fn]:
            raise ArityError(f"{node.fn} takes {BUILTIN_ARITY[node.fn]} argument(s)")
        for a in node.args:
            if expr_type(a, scope) != "num":
                raise TypeCheckError(f"{node.fn} needs numeric arguments")
        return "num"
    raise TypeError(f"not an expression node: {node!r}")


def type_check(prog: Program) -> None:
    scope = set(prog.params)
    for a in prog.assigns:
        if expr_type(a.expr, scope) != "num":
            raise TypeCheckError(f"{prog.name}: assignment to {a.name!r} must be numeric")
        scope.add(a.name)
    if expr_type(prog.result, scope) != "num":
        raise TypeCheckError(f"{prog.name}: return value must be numeric")


# ---------------------------------------------------------------------------
# Evaluation: compile once to nested closures, then call


def _compile_expr(node: Expr, slots: dict) -> Callable:
    if isinstance(node, Const):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        i = slots[node.name]
        return lambda env: env[i]
    if isinstance(node, Bin):
        lf = _compile_expr(node.left, slots)
        rf = _compile_expr(node.right, slots)
        op = node.op
        if op == "+":
            return lambda env: lf(env) + rf(env)
        if op == "-":
            return lambda env: lf(env) - rf(env)
        if op == "*":
            return lambda env: lf(env) * rf(env)
        if op == "/":

            def divide(env):
                d = rf(env)
                if d == 0.0:
                    raise DomainError("division by zero")
                return lf(env) / d

            return divide

        def modulo(env):
            d = rf(env)
            n = lf(env)
            return n if d == 0.0 else n % d

        return modulo
    if isinstance(node, Cmp):
        lf = _compile_expr(node.left, slots)
        rf = _compile_expr(node.right, slots)
        op = node.op
        if op == "<":
            return lambda env: lf(env) < rf(env)
        if op == "<=":
            return lambda env: lf(env) <= rf(env)
        return lambda env: lf(env) == rf(env)
    if isinstance(node, Cond):
        tf = _compile_expr(node.test, slots)
        thn = _compile_expr(node.then, slots)
        els = _compile_expr(node.other, slots)
        return lambda env: thn(env) if tf(env) else els(env)
    if isinstance(node, Neg):
        f = _compile_expr(node.operand, slots)
        return lambda env: -f(env)
    if isinstance(node, Call):
        fns = [_compile_expr(a, slots) for a in node.args]
        if node.fn == "sqrt":
            a0 = fns[0]

            def root(env):
                v = a0(env)
                if v < 0.0:
                    raise DomainError("sqrt of a negative number")
                return math.sqrt(v)

            return root
        if node.fn == "abs":
            a0 = fns[0]
            return lambda env: abs(a0(env))
        if node.fn == "min":
            a0, a1 = fns
            return lambda env: min(a0(env), a1(env))
        a0, a1 = fns
        return lambda env: max(a0(env), a1(env))
    raise TypeError(f"not an expression node: {node!r}")


def compile_program(prog: Program) -> Callable[..., float]:
    """Compile to a plain Python callable; raises ArityError on bad calls."""
    slots = {name: i for i, name in enumerate(prog.params)}
    for a in prog.assigns:
        if a.name not in slots:
            slots[a.name] = len(slots)
    steps = [(slots[a.name], _compile_expr(a.expr, slots)) for a in prog.assigns]
    result = _compile_expr(prog.result, slots)
    nslots = len(slots)
    nparams = len(prog.params)
    name = prog.name

    def run(*args: float) -> float:
        if len(args) != nparams:
            raise ArityError(f"{name} takes {nparams} argument(s), got {len(args)}")
        env = [0.0] * nslots
        for i, v in enumerate(args):
            env[i] = float(v)
        for slot, f in steps:
            env[slot] = f(env)
        return result(env)

    return run


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expr)

_LEVEL_COND = 1
_LEVEL_CMP = 2
_LEVEL_ADD = 3
_LEVEL_MUL = 4
_LEVEL_ATOM = 5


def _level(node: Expr) -> int:
    if isinstance(node, Cond):
        return _LEVEL_COND
    if isinstance(node, Cmp):
        return _LEVEL_CMP
    if isinstance(node, Bin):
        return _LEVEL_ADD if node.op in ("+", "-") else _LEVEL_MUL
    return _LEVEL_ATOM


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _child(node: Expr, floor: int) -> str:
    text = to_source(node)
    return f"({text})" if _level(node) < floor else text


def to_source(node: Expr) -> str:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Bin):
        lvl = _level(node)
        left = _child(node.left, lvl)
        # left-associative: equal-level right children need parens
        right = _child(node.right, lvl + 1)
        return f"{left} {node.op} {right}"
    if isinstance(node, Cmp):
        return f"{_child(node.left, _LEVEL_ADD)} {node.op} {_child(node.right, _LEVEL_ADD)}"
    if isinstance(node, Cond):
        test = _child(node.test, _LEVEL_CMP)
        then = _child(node.then, _LEVEL_CMP)
        other = _child(node.other, _LEVEL_COND)  # right-assoc chain stays bare
        return f"{test} ? {then} : {other}"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _level(node.operand) < _LEVEL_ATOM:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def statement_to_source(stmt: Union[Assign, Expr]) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.name} = {to_source(stmt.expr)}"
    return f"return {to_source(stmt)}"


def program_body_lines(prog: Program) -> List[str]:
    lines = [statement_to_source(a) for a in prog.assigns]
    lines.append(statement_to_source(prog.result))
    return lines
