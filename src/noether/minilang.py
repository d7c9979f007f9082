"""A tiny C-flavored expression language.

Programs are straight-line: a sequence of assignments followed by a single
`return`.  Expressions cover arithmetic (+ - * / %), comparisons (< <= ==),
the lazy ternary `?:`, unary minus, and four builtins (sqrt, abs, min, max).
A two-type discipline separates numbers from booleans: comparisons may only
appear as ternary guards.

An expression is a `Const`, a `Var` or an `Op`: one operator name (`neg`
for unary minus, `?:` for the ternary, otherwise the operator or builtin as
written) applied to a tuple of operands in source order.  `ARITY` gives
each operator's operand count.

Numeric semantics are IEEE-754 doubles.  `%` is the floored-division
remainder (sign of the divisor) and is total: `a % 0 == a`, matching the
behavior of a guarded loop that never divides by zero.  `/ 0` and
`sqrt(negative)` raise DomainError.  Expression trees nest at most
MAX_DEPTH levels; deeper input is an ExprSyntaxError.

`compile_program` turns a program into the source of one Python function,
written with Python's own operators, literals and precedence wherever they
mean the same, and compiles it once.  `compile_variants` compiles many
one-statement variants of a program the same way, as one mutant schema:
every statement is emitted once, each variant's replacement beside it, and
each variant is a closure over the shared code that selects its own
statement.
`fold_constants` computes constant subtrees with the same operator
functions that the compiled code calls.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from ._record import record


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


@record
class Const:
    value: float


@record
class Var:
    name: str


@record
class Op:
    """`op` applied to `args`: (left, right), (operand,) for `neg`,
    (test, then, other) for `?:`, or a builtin's arguments."""

    op: str
    args: Tuple["Expr", ...]


Expr = Union[Const, Var, Op]

BUILTIN_ARITY = {"sqrt": 1, "abs": 1, "min": 2, "max": 2}
COMPARISONS = ("<", "<=", "==")
ARITY = {**dict.fromkeys(("+", "-", "*", "/", "%", *COMPARISONS), 2), "neg": 1, "?:": 3, **BUILTIN_ARITY}

# Deepest expression tree the parser and the compiler accept (a leaf is one
# level).  It bounds every recursive walk over a tree, and the generated
# Python nests at most one parenthesis per level, well inside CPython's 200.
MAX_DEPTH = 100


@record
class Assign:
    name: str
    expr: Expr


@record
class Program:
    """Assignments in order, then one result expression."""

    name: str
    params: Tuple[str, ...]
    assigns: Tuple[Assign, ...]
    result: Expr


# ---------------------------------------------------------------------------
# Generic traversal helpers (used by the mutation engine)


def walk(node: Expr, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], Expr]]:
    """Preorder (path, node) pairs; paths are operand-index tuples."""
    yield path, node
    if isinstance(node, Op):
        for i, arg in enumerate(node.args):
            yield from walk(arg, path + (i,))


def replace_at(node: Expr, path: Tuple[int, ...], new_node: Expr) -> Expr:
    if not path:
        return new_node
    args = list(node.args)
    args[path[0]] = replace_at(args[path[0]], path[1:], new_node)
    return Op(node.op, tuple(args))


def _check_depth(node: Expr, col: int) -> None:
    """Raise ExprSyntaxError if the tree is deeper than MAX_DEPTH; no recursion."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(col)
        if isinstance(node, Op):
            stack.extend((a, depth + 1) for a in node.args)


def _too_deep(col: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", col, "a shallower expression")


def _all_const(nodes: Sequence[Expr]) -> bool:
    return all(isinstance(n, Const) for n in nodes)


def fold_constants(node: Expr) -> Expr:
    """Evaluate constant subtrees; leaves anything that would raise alone.

    Constant nodes are computed by the functions the compiled code calls
    (its inline `%` and `/` give the same outcomes), so folding and
    evaluation share one statement of the semantics.  A
    comparison folds only as the test of a `?:`, which it then selects.
    """
    if not isinstance(node, Op):
        return node
    args = tuple(fold_constants(a) for a in node.args)
    if node.op == "?:":
        test = args[0]
        if isinstance(test, Op) and test.op in COMPARISONS and _all_const(test.args):
            return args[1] if _OPS[test.op](*(a.value for a in test.args)) else args[2]
    elif node.op not in COMPARISONS and _all_const(args):
        try:
            return Const(_OPS[node.op](*(a.value for a in args)))
        except DomainError:
            pass
    return Op(node.op, args)


# ---------------------------------------------------------------------------
# Parsing.  `_LEVEL` ranks the operators from loosest to tightest binding;
# the parser, the printer and the compiler all read it.

_LEVEL_COND = 1
_LEVEL_CMP = 2
_LEVEL_ADD = 3
_LEVEL_MUL = 4
_LEVEL_ATOM = 5  # leaves, `neg` and calls
_LEVEL = {
    "?:": _LEVEL_COND,
    **dict.fromkeys(COMPARISONS, _LEVEL_CMP),
    **dict.fromkeys("+-", _LEVEL_ADD),
    **dict.fromkeys("*/%", _LEVEL_MUL),
}

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
            col = len(text) - len(text[pos:].lstrip()) + 1
            raise ExprSyntaxError(f"unrecognized character {stripped[0]!r}", col, "a token")
        kind = m.lastgroup  # the one named group that matched
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
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

    # expr := binary ["?" expr ":" expr]; each expr is one level deeper
    def parse_expr(self) -> Expr:
        self.descend()
        node = self.parse_binary(_LEVEL_CMP)
        if self.at_op("?"):
            self.next()
            then = self.parse_expr()
            self.expect_op(":")
            node = Op("?:", (node, then, self.parse_expr()))
        self.level -= 1
        return node

    def parse_binary(self, level: int) -> Expr:
        """The operators `_LEVEL` ranks at `level` over operands of the next
        level: arithmetic is left-associative, and comparisons do not chain."""
        # the operand call is written twice, not put in a helper, so that a
        # nesting level costs six frames; only operator tokens spell a
        # `_LEVEL` key
        node = self.parse_binary(level + 1) if level < _LEVEL_MUL else self.parse_unary()
        while _LEVEL.get(self.peek()[1]) == level:
            op = self.next()[1]
            right = self.parse_binary(level + 1) if level < _LEVEL_MUL else self.parse_unary()
            node = Op(op, (node, right))
            if level == _LEVEL_CMP:
                break
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            self.descend()
            inner = self.parse_unary()
            self.level -= 1
            if isinstance(inner, Const):
                # literal negatives fold to constants; no `neg` of a Const survives
                return Const(-inner.value)
            return Op("neg", (inner,))
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
        return Op(fn, tuple(args))

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
    """One body line: `name = expr` gives Assign, `return expr` gives Expr.

    Columns count from the start of `text`, the keyword included."""
    p = _Parser(text)
    kind, name, col = p.next()
    if kind != "ident":
        raise ExprSyntaxError(f"unexpected {name or 'end of input'!r}", col, "an identifier")
    if name != "return":
        p.expect_op("=")
    expr = p.finish(p.parse_expr(), p.peek()[2])
    return expr if name == "return" else Assign(name, expr)


def assemble_program(name: str, params: Sequence[str], statements: Sequence[Union[Assign, Expr]]) -> Program:
    """Build and type-check a Program from parsed body statements.

    The final statement must be the return expression; assignments may
    rebind earlier names (straight-line SSA is not required).
    """
    if not statements:
        raise TypeCheckError("empty body")
    *assigns, result = statements
    if isinstance(result, Assign):
        raise TypeCheckError("last body line must be a return")
    for a in assigns:
        if not isinstance(a, Assign):
            raise TypeCheckError("return before the end of the body")
    if len(set(params)) != len(params):
        raise TypeCheckError("duplicate parameter names")
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
    op, args = node.op, node.args
    if len(args) != ARITY[op]:
        raise ArityError(f"{op} takes {ARITY[op]} argument(s)")
    if op == "?:":
        if expr_type(args[0], scope) != "bool":
            raise TypeCheckError("ternary guard must be a comparison")
        args = args[1:]
    for a in args:
        if expr_type(a, scope) != "num":
            raise TypeCheckError(f"operands of {op!r} must be numeric")
    return "bool" if op in COMPARISONS else "num"


def type_check(prog: Program) -> None:
    scope = set(prog.params)
    for a in prog.assigns:
        if expr_type(a.expr, scope) != "num":
            raise TypeCheckError(f"assignment to {a.name!r} must be numeric")
        scope.add(a.name)
    if expr_type(prog.result, scope) != "num":
        raise TypeCheckError(f"{prog.name}: return value must be numeric")


# ---------------------------------------------------------------------------
# Evaluation: each program compiles once to the source of one Python `def`.
# Operators without a Python counterpart of the same meaning are called by
# name; folding calls the same functions, so the semantics are written once.
# `%` and `/` of two leaves are the exception: written inline, they test the
# divisor's truth, which is false exactly where `_mod` and `_div` see zero.


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


_INFIX = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}
_CALLED = {"/": _div, "%": _mod, "sqrt": _sqrt, "abs": abs, "min": min, "max": max}
_OPS = {**_INFIX, **_CALLED, "neg": operator.neg}
_NAMESPACE = {f.__name__: f for f in (*_CALLED.values(), ArityError)}


def _emit(node: Expr, local: Mapping[str, str], consts: Dict[str, float], floor: int, depth: int = 1) -> str:
    """Python source for one expression, parenthesized if it binds looser
    than `floor`; past MAX_DEPTH, ExprSyntaxError.

    Python ranks conditional < comparison < `+ -` < `*` as `_LEVEL` does,
    so parentheses go only where `to_source` puts them: comparisons do not
    chain and arithmetic is left-associative.  A finite constant is its
    `repr` literal; inf, nan and -0.0 are bound by name.  `%` and `/` of two
    leaves are written inline with the outcome of `_mod` and `_div`; nested
    operands are passed to those functions.
    """
    if depth > MAX_DEPTH:
        raise _too_deep(1)
    if isinstance(node, Var):
        return local[node.name]
    if isinstance(node, Const):
        text = repr(node.value)
        if text in ("inf", "-inf", "nan", "-0.0"):
            text = f"c{len(consts)}"
            consts[text] = node.value
        return text
    op = node.op
    level = _LEVEL.get(op, _LEVEL_ATOM)
    if op == "?:":
        floors = (_LEVEL_CMP, _LEVEL_CMP, _LEVEL_COND)
    else:  # the arguments of a call need none
        floors = (0, 0) if op in _CALLED else (max(level, _LEVEL_ADD), level + 1)
    args = [_emit(a, local, consts, f, depth + 1) for a, f in zip(node.args, floors)]
    if op == "?:":
        test, then, other = args
        text = f"{then} if {test} else {other}"  # lazy, like `?:`
    elif op == "neg":
        text = "-" + args[0]
    elif op in _INFIX:
        text = f"{args[0]} {op} {args[1]}"
    elif op in "%/" and not any(isinstance(a, Op) for a in node.args):
        n, d = args  # leaves, so each may be read twice
        zero = n if op == "%" else f"_div({n}, {d})"
        text, level = f"{n} {op} {d} if {d} else {zero}", _LEVEL_COND
    else:
        text, level = f"{_CALLED[op].__name__}({', '.join(args)})", _LEVEL_ATOM
    return f"({text})" if level < floor else text


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
        "        try:",
        f"            [{', '.join(local.values())}] = args",
        "        except ValueError:",
        f"            raise ArityError(f'{{name}} takes {n} argument(s), got {{len(args)}}') from None",
    ]
    lines += [f"        v{i} = float(v{i})" for i in range(n)]
    statements = [(a.name, a.expr) for a in prog.assigns] + [(None, prog.result)]
    for k, (name, expr) in enumerate(statements):
        sources = [_emit(e, local, consts, _LEVEL_COND) for e in (expr, *alternatives.get(k, ()))]
        if name is not None:
            local.setdefault(name, f"v{len(local)}")
        target = "return " if name is None else f"{local[name]} = "
        if len(sources) == 1:
            lines.append(f"        {target}{sources[0]}")
            continue
        lines += [f"        if _s != {k}:", f"            {target}{sources[0]}", "        else:"]
        _select(lines, "            ", target, sources[1:], 0)
    lines.append("    return run")
    source = "\n".join(lines)
    del lines  # only the joined text is alive while Python compiles it
    namespace = dict(_NAMESPACE, name=prog.name, **consts)
    exec(compile(source, f"<minilang {prog.name}>", "exec"), namespace)
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


def _level(node: Expr) -> int:
    return _LEVEL.get(node.op, _LEVEL_ATOM) if isinstance(node, Op) else _LEVEL_ATOM


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
    op, args = node.op, node.args
    if op == "?:":
        test, then, other = args
        # a right-associative chain stays bare
        return f"{_child(test, _LEVEL_CMP)} ? {_child(then, _LEVEL_CMP)} : {_child(other, _LEVEL_COND)}"
    if op == "neg":
        return f"-{_child(args[0], _LEVEL_ATOM)}"
    if op in BUILTIN_ARITY:
        return f"{op}({', '.join(map(to_source, args))})"
    lvl = _LEVEL[op]
    left, right = args
    # comparisons do not chain; arithmetic is left-associative, so an
    # equal-level right operand needs parentheses
    return f"{_child(left, _LEVEL_ADD if lvl == _LEVEL_CMP else lvl)} {op} {_child(right, lvl + 1)}"


def statement_to_source(stmt: Union[Assign, Expr]) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.name} = {to_source(stmt.expr)}"
    return f"return {to_source(stmt)}"


def program_body_lines(prog: Program) -> List[str]:
    lines = [statement_to_source(a) for a in prog.assigns]
    lines.append(statement_to_source(prog.result))
    return lines
