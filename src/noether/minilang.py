"""A tiny C-flavored expression language.

Programs are straight-line: a sequence of assignments followed by a single
`return`.  Expressions cover arithmetic (+ - * / %), comparisons (< <= ==),
the lazy ternary `?:`, unary minus, and four builtins (sqrt, abs, min, max).
A two-type discipline separates numbers from booleans: comparisons may only
appear as ternary guards.

Numeric semantics are IEEE-754 doubles.  `%` is the floored-division
remainder (sign of the divisor) and is total: `a % 0 == a`, matching the
behavior of a guarded loop that never divides by zero.  `/ 0` and
`sqrt(negative)` raise DomainError.  Expression trees nest at most
MAX_DEPTH levels; deeper input is an ExprSyntaxError.

`compile_program` turns a program into the source of one Python function
and compiles it once.  `compile_variants` compiles many one-statement
variants of a program the same way, as one mutant schema: every statement
is emitted once, each variant's replacement beside it, and each variant is
a closure over the shared code that selects its own statement.
`fold_constants` computes constant subtrees with the same operator
functions that the compiled code calls.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union


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

BUILTIN_ARITY = {"sqrt": 1, "abs": 1, "min": 2, "max": 2}

# Deepest expression tree the parser and the compiler accept (a leaf is one
# level).  It bounds every recursive walk over a tree, and the generated
# Python nests one parenthesis per level, well inside CPython's 200.
MAX_DEPTH = 100


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


def _check_depth(node: Expr, col: int) -> None:
    """Raise ExprSyntaxError if the tree is deeper than MAX_DEPTH; no recursion."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(col)
        stack.extend((c, depth + 1) for c in children(node))


def _too_deep(col: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", col, "a shallower expression")


def _all_const(nodes: Sequence[Expr]) -> bool:
    return all(isinstance(n, Const) for n in nodes)


def fold_constants(node: Expr) -> Expr:
    """Evaluate constant subtrees; leaves anything that would raise alone.

    Constant nodes are computed by the functions the compiled code calls,
    so folding and evaluation share one statement of the semantics.
    """
    kids = [fold_constants(c) for c in children(node)]
    node = with_children(node, kids) if kids else node
    try:
        if isinstance(node, Neg) and _all_const(kids):
            return Const(-kids[0].value)
        if isinstance(node, (Bin, Call)) and _all_const(kids):
            op = node.fn if isinstance(node, Call) else node.op
            return Const(_OPS[op](*(k.value for k in kids)))
        if isinstance(node, Cond) and isinstance(node.test, Cmp) and _all_const(children(node.test)):
            test = node.test
            return node.then if _OPS[test.op](test.left.value, test.right.value) else node.other
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
        self.level = 0  # nesting of the parse, bounded like the trees it builds

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

    def descend(self) -> None:
        """Enter one more level of nesting; past MAX_DEPTH, refuse."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise _too_deep(self.peek()[2])

    # expr := comparison ["?" expr ":" expr]; each expr is one level deeper
    def parse_expr(self) -> Expr:
        self.descend()
        node = self.parse_comparison()
        if self.at_op("?"):
            self.next()
            then = self.parse_expr()
            self.expect_op(":")
            node = Cond(node, then, self.parse_expr())
        self.level -= 1
        return node

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
            self.descend()
            inner = self.parse_unary()
            self.level -= 1
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

    def finish(self, node: Expr, col: int) -> Expr:
        """Require the end of input and a tree no deeper than MAX_DEPTH."""
        kind, text, tail = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {text!r}", tail, "end of line")
        _check_depth(node, col)
        return node


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    col = p.peek()[2]
    return p.finish(p.parse_expr(), col)


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
    col = p.peek()[2]
    return Assign(name, p.finish(p.parse_expr(), col))


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
# Evaluation: each program compiles once to the source of one Python `def`.
# Operators without a Python counterpart of the same meaning are called by
# name; folding calls the same functions, so the semantics are written once.


def _div(n: float, d: float) -> float:
    if d == 0.0:
        raise DomainError("division by zero")
    return n / d


def _mod(n: float, d: float) -> float:
    return n if d == 0.0 else n % d


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError("sqrt of a negative number")
    return math.sqrt(v)


def _arity_error(name: str, expected: int, got: int) -> ArityError:
    return ArityError(f"{name} takes {expected} argument(s), got {got}")


_INFIX = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}
_CALLED = {"/": _div, "%": _mod, "sqrt": _sqrt, "abs": abs, "min": min, "max": max}
_OPS = {**_INFIX, **_CALLED}
_NAMESPACE = {f.__name__: f for f in (*_CALLED.values(), _arity_error)}


def _emit(node: Expr, local: Mapping[str, str], consts: Dict[str, float], depth: int = 1) -> str:
    """Python source for one expression; past MAX_DEPTH, ExprSyntaxError.

    Constants are bound by name, not written as literals: folding can make
    inf, nan and -0.0, which have none.
    """
    if depth > MAX_DEPTH:
        raise _too_deep(1)
    if isinstance(node, Const):
        name = f"c{len(consts)}"
        consts[name] = node.value
        return name
    if isinstance(node, Var):
        return local[node.name]
    args = [_emit(c, local, consts, depth + 1) for c in children(node)]
    if isinstance(node, Neg):
        return f"(-{args[0]})"
    if isinstance(node, Cond):
        test, then, other = args
        return f"({then} if {test} else {other})"  # lazy, like `?:`
    op = node.fn if isinstance(node, Call) else node.op
    if op in _INFIX:
        return f"({args[0]} {op} {args[1]})"
    return f"{_CALLED[op].__name__}({', '.join(args)})"


def _select(lines: List[str], indent: str, target: str, sources: Sequence[str], first: int) -> None:
    """Run `target + sources[_a - first]`, halving on `_a`: depth and compares grow as log2."""
    if len(sources) == 1:
        lines.append(f"{indent}{target}{sources[0]}")
        return
    mid = len(sources) // 2
    lines.append(f"{indent}if _a < {first + mid}:")
    _select(lines, indent + "    ", target, sources[:mid], first)
    lines.append(f"{indent}else:")
    _select(lines, indent + "    ", target, sources[mid:], first + mid)


def _compile(
    prog: Program, alternatives: Mapping[int, Sequence[Expr]]
) -> Callable[[int, int], Callable[..., float]]:
    """Compile `prog` once and return the factory of its functions.

    `factory(s, a)` is a closure that runs statement `s` as
    `alternatives[s][a]` and every other statement as written.  Only
    statements with alternatives test the selector, so the functions of a
    program without any run no selector at all.
    """
    n = len(prog.params)
    local = {p: f"v{i}" for i, p in enumerate(prog.params)}
    consts: Dict[str, float] = {}
    lines = [
        "def schema(_s, _a):",
        "    def run(*args):",
        f"        if len(args) != {n}:",
        f"            raise _arity_error(name, {n}, len(args))",
    ]
    lines += [f"        v{i} = float(args[{i}])" for i in range(n)]
    statements = [(a.name, a.expr) for a in prog.assigns] + [(None, prog.result)]
    for k, (name, expr) in enumerate(statements):
        sources = [_emit(e, local, consts) for e in (expr, *alternatives.get(k, ()))]
        if name is not None:
            local.setdefault(name, f"v{len(local)}")
        target = "return " if name is None else f"{local[name]} = "
        if len(sources) == 1:
            lines.append(f"        {target}{sources[0]}")
            continue
        lines += [f"        if _s != {k}:", f"            {target}{sources[0]}", "        else:"]
        _select(lines, "            ", target, sources[1:], 0)
    lines.append("    return run")
    namespace = dict(_NAMESPACE, name=prog.name, **consts)
    exec(compile("\n".join(lines), f"<minilang {prog.name}>", "exec"), namespace)
    return namespace["schema"]


def compile_program(prog: Program) -> Callable[..., float]:
    """Compile to a plain Python function; raises ArityError on bad calls.

    Expressions deeper than MAX_DEPTH raise ExprSyntaxError, as the parser
    does, so a hand-built program cannot exceed what Python compiles.
    """
    return _compile(prog, {})(-1, -1)


def compile_variants(
    prog: Program, variants: Sequence[Tuple[int, Expr]]
) -> List[Callable[..., float]]:
    """One function per `(statement index, expression)` variant of `prog`.

    Variant `(k, e)` behaves as `compile_program` of `prog` with statement
    `k`'s expression replaced by `e`.  All variants share one compiled
    mutant schema (Untch, Offutt & Harrold, ISSTA 1993): each statement is
    emitted once, plus each variant's replacement, and every function is a
    closure over the same code that selects its own statement.
    """
    alternatives: Dict[int, List[Expr]] = {}
    selectors = []
    for k, expr in variants:
        if not 0 <= k <= len(prog.assigns):
            raise IndexError(f"{prog.name} has no statement {k}")
        slot = alternatives.setdefault(k, [])
        selectors.append((k, len(slot)))
        slot.append(expr)
    schema = _compile(prog, alternatives)
    return [schema(k, a) for k, a in selectors]


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
    """A literal that parses back to `v` bit for bit; NaN has none."""
    v = float(v)
    if math.isnan(v):
        raise ValueError("NaN has no mini-language literal")
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"  # the tokenizer's float() overflows to inf
    if v == 0.0 and math.copysign(1.0, v) < 0:
        return "-0"  # the parser negates the literal 0 to -0.0
    if v.is_integer() and abs(v) < 1e15:
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
