"""Query plans and the rewrite-rule syntax of `.alg` documents.

Query plans are tiny trees of select, natural join and distinct over base
relations, the heads the rewrite MRs build.  A rewrite rule is written in a
prefix pattern notation, e.g. `select(p,join(R,S)) -> join(select(p,R),S)`
guarded by attribute containment; a pattern is a plan whose leaves may be
variables (`Var`), and each leaf is a predicate or a plan.  Reading an
algebra's rewrite lines needs only this module; `relational` evaluates the
plans and fires the rules.
"""

from __future__ import annotations

import re
from typing import Tuple, Union

from ._record import fields, record

EMPTY_NAME = "EMPTY"  # every generated database carries an empty relation


class UnknownRelation(KeyError):
    pass


class SchemaMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Predicates and query plans


@record
class Predicate:
    """Single comparison of one attribute against a constant; or truth."""

    op: str  # true | eq | le | lt
    attr: str = ""
    value: object = None

    def attrs(self) -> frozenset:
        return frozenset() if self.op == "true" else frozenset({self.attr})

    def holds(self, schema: Tuple[str, ...], row: Tuple) -> bool:
        if self.op == "true":
            return True
        if self.attr not in schema:
            raise SchemaMismatch(f"predicate attribute {self.attr!r} not in {schema}")
        got = row[schema.index(self.attr)]
        if self.op == "eq":
            return got == self.value
        if type(got) is str or type(self.value) is str:
            raise SchemaMismatch(f"ordered comparison on string attribute {self.attr!r}")
        if self.op == "le":
            return got <= self.value
        if self.op == "lt":
            return got < self.value
        raise ValueError(f"unknown predicate op {self.op!r}")


TRUE = Predicate("true")


@record
class Base:
    name: str


@record
class Select:
    pred: Predicate
    child: "QueryExpr"


@record
class Join:
    left: "QueryExpr"
    right: "QueryExpr"


@record
class Distinct:
    child: "QueryExpr"


QueryExpr = Union[Base, Select, Join, Distinct]

# The one list of plan heads: rewrite patterns name plan nodes by these keys,
# and each head takes one argument per field of its class.
_HEADS = {"select": Select, "join": Join, "distinct": Distinct}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _HEADS.values()}


# ---------------------------------------------------------------------------
# Rewrite rules: patterns are plans whose leaves may be variables


@record
class Var:
    """A pattern variable: it matches whatever sits at its position, the
    same value each time it recurs.  `p` may only stand for a predicate."""

    name: str


_LEAVES = {"true": TRUE, "empty": Base(EMPTY_NAME)}
_LEAF_NAMES = {leaf: name for name, leaf in _LEAVES.items()}
_HEAD_NAMES = {cls: head for head, cls in _HEADS.items()}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\S")
_END = "end of pattern"  # follows the last token; never itself a token

# Deepest head nesting `parse_pattern` accepts: it recurses once per level,
# so the bound keeps a hostile pattern inside Python's recursion limit.
MAX_PATTERN_DEPTH = 100


def parse_pattern(text: str) -> QueryExpr:
    """Prefix notation, e.g. `join(R,S)`, as a plan: `true` is `TRUE`,
    `empty` is `Base(EMPTY_NAME)` and any other leaf name is a `Var`.
    ValueError on a character outside names, `(),` and whitespace, an
    unknown head, a wrong number of arguments, or heads nested deeper than
    `MAX_PATTERN_DEPTH`."""
    tokens = _TOKEN.findall(text) + [_END]
    pos = 0

    def fail(reason: str) -> ValueError:
        return ValueError(f"bad pattern {text!r}: {reason}")

    def parse(depth: int):
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if not _NAME.fullmatch(tok):
            raise fail(f"expected a name, found {tok!r}")
        if tok not in _HEADS:
            if tokens[pos] == "(":
                raise fail(f"unknown head {tok!r}")
            return _LEAVES[tok] if tok in _LEAVES else Var(tok)
        children = []
        if tokens[pos] == "(":
            if depth > MAX_PATTERN_DEPTH:
                raise fail(f"nesting deeper than {MAX_PATTERN_DEPTH} levels")
            sep = ","
            while sep == ",":
                pos += 1
                children.append(parse(depth + 1))
                sep = tokens[pos]
            if sep != ")":
                raise fail(f"expected ',' or ')', found {sep!r}")
            pos += 1
        cls = _HEADS[tok]
        if len(children) != len(_FIELDS[cls]):
            raise fail(f"{tok} takes {len(_FIELDS[cls])} argument(s), got {len(children)}")
        return cls(*children)

    try:
        out = parse(1)
    finally:
        del parse  # `parse` refers to itself: end the parse without that cycle
    if tokens[pos] != _END:
        raise fail(f"trailing {tokens[pos]!r}")
    return out


def _pattern_text(pat) -> str:
    """The prefix notation `parse_pattern` reads back as `pat`."""
    cls = type(pat)
    if cls is Var:
        return pat.name
    if cls not in _FIELDS:
        return _LEAF_NAMES[pat]
    return f"{_HEAD_NAMES[cls]}({','.join(_pattern_text(getattr(pat, f)) for f in _FIELDS[cls])})"


@record
class Guard:
    """attrs(<predvar>) subset attrs(<relvar>); or nothing."""

    pred_var: str = ""
    rel_var: str = ""


def parse_guard(text: str) -> Guard:
    text = text.strip()
    if not text or text == "none":
        return Guard()
    m = re.fullmatch(r"attrs\((\w+)\)\s+subset\s+attrs\((\w+)\)", text)
    if not m:
        raise ValueError(f"unsupported guard {text!r}")
    return Guard(pred_var=m.group(1), rel_var=m.group(2))


@record
class RewriteRule:
    """A rewrite rule: lhs and rhs are plans whose leaves may be `Var`s.

    ValueError if rhs or guard uses a variable that lhs does not bind, or if
    a leaf stands for both a predicate and a plan; `p` and `true` stand for
    predicates, `empty` for a plan, and a guard reads a predicate and a plan.
    So a rule that fires builds a plan the evaluator runs and a guard it can
    check."""

    name: str
    lhs: QueryExpr
    rhs: QueryExpr
    guard: Guard

    def __post_init__(self):
        lhs, rhs = list(_leaves(self.lhs)), list(_leaves(self.rhs))
        if self.guard.pred_var:
            rhs += [(Var(self.guard.pred_var), "pred"), (Var(self.guard.rel_var), "plan")]
        bound = {leaf for leaf, _ in lhs if type(leaf) is Var}
        unbound = sorted({leaf.name for leaf, _ in rhs if type(leaf) is Var and leaf not in bound})
        if unbound:
            raise ValueError(f"rhs or guard uses {', '.join(unbound)}, which lhs does not bind")
        kinds = {Var("p"): "pred", TRUE: "pred", Base(EMPTY_NAME): "plan"}
        for leaf, slot in lhs + rhs:
            if kinds.setdefault(leaf, slot) != slot:
                kind = _SLOT_NAMES[kinds[leaf]]
                raise ValueError(f"{_pattern_text(leaf)} stands for both {kind} and {_SLOT_NAMES[slot]}")


def rule_to_text(rule: RewriteRule) -> str:
    """The rule as the words after `rewrite` on an `.alg` line."""
    guard = rule.guard
    guard_text = f"attrs({guard.pred_var}) subset attrs({guard.rel_var})" if guard.pred_var else "none"
    return f"{rule.name} lhs={_pattern_text(rule.lhs)} rhs={_pattern_text(rule.rhs)} guard={guard_text}"


# The kind of place a leaf sits in: the field it fills, or "plan"
_SLOT_NAMES = {"pred": "a predicate", "plan": "a plan"}


def _leaves(pat, slot: str = "plan"):
    """(leaf, the kind of place it sits in) for each leaf of `pat`."""
    cls = type(pat)
    if cls not in _FIELDS:
        yield pat, slot
        return
    for name in _FIELDS[cls]:
        yield from _leaves(getattr(pat, name), name if name in _SLOT_NAMES else "plan")
