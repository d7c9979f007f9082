"""Bag-semantics relational mini-evaluator and its rewrite-equality MRs.

Relations are multisets of tuples over named columns (NULL-free; values are
small ints and three-letter strings).  Query plans are tiny trees of select,
project, natural join, union and distinct over base relations.  The rewrite
rules come from the bundled query-plan algebra in a prefix pattern notation,
e.g. `select(p,join(R,S)) -> join(select(p,R),S)` guarded by attribute
containment.  Two deliberately broken evaluation modes exist so the rewrite
MRs have something to catch: a join evaluated as a left-biased semi-join,
and a select-over-join pushdown performed without its containment guard.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import RewriteDecl
from .minilang import MAX_DEPTH

EMPTY_NAME = "EMPTY"  # every generated database carries an empty relation
STRING_POOL = ("oak", "elm", "fir", "yew")

REL_MR_NAMES = ("rho_join-comm", "rho_select-push", "rho_distinct-idem", "rho_plan-equiv")


class UnknownRelation(KeyError):
    pass


class SchemaMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class Relation:
    schema: Tuple[str, ...]
    rows: Counter = field(default_factory=Counter)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", Counter(self.rows))
        for row in self.rows:
            if len(row) != len(self.schema):
                raise SchemaMismatch(
                    f"row arity {len(row)} != schema arity {len(self.schema)}"
                )

    @property
    def size(self) -> int:
        return sum(self.rows.values())

    def reordered(self, new_schema: Sequence[str]) -> "Relation":
        if set(new_schema) != set(self.schema) or len(new_schema) != len(self.schema):
            raise SchemaMismatch(f"cannot reorder {self.schema} as {tuple(new_schema)}")
        index = [self.schema.index(a) for a in new_schema]
        rows = Counter()
        for row, count in self.rows.items():
            rows[tuple(row[i] for i in index)] += count
        return Relation(tuple(new_schema), rows)


def bag_equal(left: Relation, right: Relation, modulo_column_order: bool = False) -> bool:
    if modulo_column_order:
        if set(left.schema) != set(right.schema):
            return False
        order = tuple(sorted(left.schema))
        return left.reordered(order).rows == right.reordered(order).rows
    return left.schema == right.schema and left.rows == right.rows


# ---------------------------------------------------------------------------
# Predicates and query plans


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Select:
    pred: Predicate
    child: "QueryExpr"


@dataclass(frozen=True)
class Project:
    attrs: Tuple[str, ...]
    child: "QueryExpr"


@dataclass(frozen=True)
class Join:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class UnionAll:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Distinct:
    child: "QueryExpr"


QueryExpr = Union[Base, Select, Project, Join, UnionAll, Distinct]

# The one list of plan heads: rewrite patterns name plan nodes by these keys,
# and each head takes one argument per field of its class.
_HEADS = {"select": Select, "join": Join, "project": Project, "union": UnionAll, "distinct": Distinct}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _HEADS.values()}
_PLAN_NODES = (Base, *_HEADS.values())


def schema_of(q: QueryExpr, db: Mapping[str, Relation]) -> Tuple[str, ...]:
    if isinstance(q, Base):
        if q.name not in db:
            raise UnknownRelation(q.name)
        return db[q.name].schema
    if isinstance(q, (Select, Distinct)):
        return schema_of(q.child, db)
    if isinstance(q, Project):
        return tuple(q.attrs)
    if isinstance(q, Join):
        left, right = schema_of(q.left, db), schema_of(q.right, db)
        return left + tuple(a for a in right if a not in left)
    if isinstance(q, UnionAll):
        return schema_of(q.left, db)
    raise TypeError(f"not a query node: {q!r}")


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class Evaluator:
    """Evaluation pipeline under test.

    join_mode "left-semi" keeps only left rows with a match (a classic join
    bug); pushdown_guard=False optimizes select-over-join by pushing the
    predicate into the left child without the containment check.
    """

    join_mode: str = "natural"  # natural | left-semi
    pushdown_guard: bool = True

    def optimize(self, q: QueryExpr, db: Mapping[str, Relation]) -> QueryExpr:
        """The pushdown step this evaluator would apply at the plan root."""
        if isinstance(q, Select) and isinstance(q.child, Join):
            guard_ok = q.pred.attrs() <= set(schema_of(q.child.left, db))
            if guard_ok or not self.pushdown_guard:
                return Join(Select(q.pred, q.child.left), q.child.right)
        return q

    def eval(self, q: QueryExpr, db: Mapping[str, Relation]) -> Relation:
        if isinstance(q, Base):
            if q.name not in db:
                raise UnknownRelation(q.name)
            return db[q.name]
        if isinstance(q, Select):
            child = self.eval(q.child, db)
            rows = Counter()
            for row, count in child.rows.items():
                if q.pred.holds(child.schema, row):
                    rows[row] += count
            return Relation(child.schema, rows)
        if isinstance(q, Project):
            child = self.eval(q.child, db)
            missing = [a for a in q.attrs if a not in child.schema]
            if missing:
                raise SchemaMismatch(f"projection of absent attributes {missing}")
            index = [child.schema.index(a) for a in q.attrs]
            rows = Counter()
            for row, count in child.rows.items():
                rows[tuple(row[i] for i in index)] += count
            return Relation(tuple(q.attrs), rows)
        if isinstance(q, Join):
            return self._join(self.eval(q.left, db), self.eval(q.right, db))
        if isinstance(q, UnionAll):
            left, right = self.eval(q.left, db), self.eval(q.right, db)
            if left.schema != right.schema:
                raise SchemaMismatch(f"union schemas differ: {left.schema} vs {right.schema}")
            return Relation(left.schema, left.rows + right.rows)
        if isinstance(q, Distinct):
            child = self.eval(q.child, db)
            return Relation(child.schema, Counter(dict.fromkeys(child.rows, 1)))
        raise TypeError(f"not a query node: {q!r}")

    def _join(self, left: Relation, right: Relation) -> Relation:
        shared = [a for a in left.schema if a in right.schema]
        left_idx = [left.schema.index(a) for a in shared]
        right_idx = [right.schema.index(a) for a in shared]
        extra = [i for i, a in enumerate(right.schema) if a not in left.schema]
        schema = left.schema + tuple(right.schema[i] for i in extra)
        by_key: Dict[Tuple, List[Tuple[Tuple, int]]] = {}
        for row, count in right.rows.items():
            by_key.setdefault(tuple(row[i] for i in right_idx), []).append((row, count))
        rows = Counter()
        if self.join_mode == "left-semi":
            # biased: emit the left row once per multiplicity iff matched
            for row, count in left.rows.items():
                if tuple(row[i] for i in left_idx) in by_key:
                    rows[row] += count
            return Relation(left.schema, rows)
        for lrow, lcount in left.rows.items():
            for rrow, rcount in by_key.get(tuple(lrow[i] for i in left_idx), ()):
                rows[lrow + tuple(rrow[i] for i in extra)] += lcount * rcount
        return Relation(schema, rows)


CORRECT = Evaluator()


def eval_query(q: QueryExpr, db: Mapping[str, Relation]) -> Relation:
    return CORRECT.eval(q, db)


# ---------------------------------------------------------------------------
# Rewrite rules: prefix-notation patterns over plans


@dataclass(frozen=True)
class Pattern:
    """head: a plan head (a key of `_HEADS`) with one child per field, or a leaf.

    Leaves: `p` (predicate variable), `true` (literal truth predicate),
    `empty` (the canonical empty relation), any other name (relation
    variable).
    """

    head: str
    children: Tuple["Pattern", ...] = ()
    name: str = ""


_LEAVES = {"true": TRUE, "empty": Base(EMPTY_NAME)}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\S")
_END = "end of pattern"  # follows the last token; never itself a token


def parse_pattern(text: str) -> Pattern:
    """Prefix notation, e.g. `join(R,S)`.  ValueError on a character outside
    names, `(),` and whitespace, an unknown head, a wrong number of
    arguments, or heads nested deeper than `minilang.MAX_DEPTH`."""
    tokens = _TOKEN.findall(text) + [_END]
    pos = 0

    def fail(reason: str) -> ValueError:
        return ValueError(f"bad pattern {text!r}: {reason}")

    def parse(depth: int) -> Pattern:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if not _NAME.fullmatch(tok):
            raise fail(f"expected a name, found {tok!r}")
        if tok not in _HEADS:
            if tokens[pos] == "(":
                raise fail(f"unknown head {tok!r}")
            if tok in _LEAVES:
                return Pattern(tok)
            return Pattern("predvar" if tok == "p" else "relvar", name=tok)
        children = []
        if tokens[pos] == "(":
            if depth > MAX_DEPTH:
                raise fail(f"nesting deeper than {MAX_DEPTH} levels")
            sep = ","
            while sep == ",":
                pos += 1
                children.append(parse(depth + 1))
                sep = tokens[pos]
            if sep != ")":
                raise fail(f"expected ',' or ')', found {sep!r}")
            pos += 1
        arity = len(_FIELDS[_HEADS[tok]])
        if len(children) != arity:
            raise fail(f"{tok} takes {arity} argument(s), got {len(children)}")
        return Pattern(tok, tuple(children))

    out = parse(1)
    if tokens[pos] != _END:
        raise fail(f"trailing {tokens[pos]!r}")
    return out


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RewriteRule:
    """An executable rule; SpecSemanticError if rhs or guard uses a
    variable that lhs does not bind."""

    name: str
    lhs: Pattern
    rhs: Pattern
    guard: Guard

    def __post_init__(self):
        from .specfile import SpecSemanticError

        used = _variables(self.rhs) | {self.guard.pred_var, self.guard.rel_var}
        unbound = sorted(used - _variables(self.lhs) - {""})
        if unbound:
            raise SpecSemanticError(
                self.name, f"rhs or guard uses {', '.join(unbound)}, which lhs does not bind"
            )


def _variables(pat: Pattern) -> set:
    if pat.name:
        return {pat.name}
    return set().union(*map(_variables, pat.children))


def compile_rule(decl: RewriteDecl) -> RewriteRule:
    """Parse the rule's three fields into its executable form."""
    return RewriteRule(
        decl.name, parse_pattern(decl.lhs), parse_pattern(decl.rhs), parse_guard(decl.guard)
    )


def _match(pat: Pattern, expr, bindings: Dict[str, object]) -> bool:
    head = pat.head
    if pat.name:
        if head == "predvar" and not isinstance(expr, Predicate):
            return False
        return bindings.setdefault(pat.name, expr) == expr
    if head == "true":
        return isinstance(expr, Predicate) and expr.op == "true"
    if head == "empty":
        return isinstance(expr, Base) and expr.name == EMPTY_NAME
    cls = _HEADS[head]
    if type(expr) is not cls:
        return False
    for child, name in zip(pat.children, _FIELDS[cls]):
        if not _match(child, getattr(expr, name), bindings):
            return False
    return True


def _instantiate(pat: Pattern, bindings: Mapping[str, object]):
    if pat.name:
        return bindings[pat.name]
    if pat.head in _LEAVES:
        return _LEAVES[pat.head]
    return _HEADS[pat.head](*[_instantiate(c, bindings) for c in pat.children])


def _guard_holds(guard: Guard, bindings: Mapping[str, object], db: Mapping[str, Relation]) -> bool:
    if not guard.pred_var:
        return True
    pred = bindings[guard.pred_var]
    rel_expr = bindings[guard.rel_var]
    return pred.attrs() <= set(schema_of(rel_expr, db))


def apply_rule(
    rule: RewriteRule, expr: QueryExpr, db: Mapping[str, Relation]
) -> Optional[QueryExpr]:
    """The rule's rewrite at this node, or None if it does not fire."""
    bindings: Dict[str, object] = {}
    if not _match(rule.lhs, expr, bindings):
        return None
    if not _guard_holds(rule.guard, bindings, db):
        return None
    return _instantiate(rule.rhs, bindings)


def rewrite_once(
    expr: QueryExpr, rules: Sequence[RewriteRule], db: Mapping[str, Relation]
) -> QueryExpr:
    """One bottom-up pass; at each node the first firing rule applies."""
    cls = type(expr)
    if cls is not Base:
        args = []
        for name in _FIELDS[cls]:
            value = getattr(expr, name)
            args.append(rewrite_once(value, rules, db) if isinstance(value, _PLAN_NODES) else value)
        expr = cls(*args)
    for rule in rules:
        out = apply_rule(rule, expr, db)
        if out is not None:
            return out
    return expr


def bundled_rules() -> Tuple[RewriteRule, ...]:
    from . import zoo

    algebra = zoo.load_algebra("relational")
    return tuple(compile_rule(decl) for decl in algebra.semiring_rules)


# ---------------------------------------------------------------------------
# Database generation: R(a,b), S(b,c), T(c,d); at most 4 rows each;
# values are ints 0..9 (0..4 on join columns b) and three-letter strings.


def gen_database(seed: int) -> Dict[str, Relation]:
    rng = np.random.default_rng(seed)

    def rows(maker, count):
        bag = Counter()
        for _ in range(count):
            bag[maker()] += 1
        return bag

    def s(pool=STRING_POOL):
        return pool[int(rng.integers(0, len(pool)))]

    r = Relation(("a", "b"), rows(lambda: (int(rng.integers(0, 10)), int(rng.integers(0, 5))), int(rng.integers(1, 5))))
    s_rel = Relation(("b", "c"), rows(lambda: (int(rng.integers(0, 5)), s()), int(rng.integers(1, 5))))
    t = Relation(("c", "d"), rows(lambda: (s(), int(rng.integers(0, 10))), int(rng.integers(1, 5))))
    return {"R": r, "S": s_rel, "T": t, EMPTY_NAME: Relation(("e",), Counter())}


def _random_predicate(rng: np.random.Generator, over: Sequence[str]) -> Predicate:
    attr = over[int(rng.integers(0, len(over)))]
    if attr == "c":
        return Predicate("eq", "c", STRING_POOL[int(rng.integers(0, len(STRING_POOL)))])
    op = ("eq", "le", "lt")[int(rng.integers(0, 3))]
    bound = int(rng.integers(0, 5 if attr == "b" else 10))
    return Predicate(op, attr, bound)


# ---------------------------------------------------------------------------
# The four rewrite MRs


@dataclass
class RelTrial:
    mr: str
    passed: bool
    detail: str = ""


def _safe_bag_equal(evaluator, q1, q2, db, modulo=False) -> Tuple[bool, str]:
    try:
        left = evaluator.eval(q1, db)
        right = evaluator.eval(q2, db)
    except (SchemaMismatch, UnknownRelation) as exc:
        return False, f"evaluation error: {exc}"
    if bag_equal(left, right, modulo_column_order=modulo):
        return True, ""
    return False, f"bags differ: {left.schema}:{left.size} vs {right.schema}:{right.size}"


def run_rel_trial(
    mr: str,
    db: Mapping[str, Relation],
    rng: np.random.Generator,
    rules: Sequence[RewriteRule],
    evaluator: Evaluator = CORRECT,
) -> RelTrial:
    """One trial of one rewrite MR; callers load `rules` once per run."""
    if mr == "rho_join-comm":
        ok, detail = _safe_bag_equal(
            evaluator, Join(Base("R"), Base("S")), Join(Base("S"), Base("R")), db, modulo=True
        )
        return RelTrial(mr, ok, detail)
    if mr == "rho_select-push":
        pred = _random_predicate(rng, ("a", "b", "c"))
        q = Select(pred, Join(Base("R"), Base("S")))
        pushed = evaluator.optimize(q, db)
        ok, detail = _safe_bag_equal(evaluator, q, pushed, db)
        return RelTrial(mr, ok, detail + (f" [pred on {pred.attr}]" if not ok else ""))
    if mr == "rho_distinct-idem":
        pred = _random_predicate(rng, ("b", "c"))
        once = Select(pred, Base("S"))
        twice = Select(pred, once)
        plan_ok = rewrite_once(twice, rules, db) == once
        sem_ok, detail = _safe_bag_equal(evaluator, twice, once, db)
        dd_ok, dd_detail = _safe_bag_equal(
            evaluator, Distinct(Distinct(Base("S"))), Distinct(Base("S")), db
        )
        if not plan_ok:
            detail = "plan trees differ after one rewrite pass"
        return RelTrial(mr, plan_ok and sem_ok and dd_ok, detail or dd_detail)
    if mr == "rho_plan-equiv":
        q1 = Join(Join(Base("R"), Base("S")), Base("T"))
        q2 = Join(Base("R"), Join(Base("S"), Base("T")))
        ok, detail = _safe_bag_equal(evaluator, q1, q2, db, modulo=True)
        return RelTrial(mr, ok, detail)
    raise ValueError(f"unknown relational MR {mr!r}")


def run_rel_mrs(
    db_seed: int, trials: int, evaluator: Evaluator = CORRECT
) -> Dict[str, Tuple[int, int]]:
    """Per-MR (passes, fails) over `trials` seeded databases."""
    if trials < 1:
        raise ValueError("trials must be positive")
    counts = {mr: [0, 0] for mr in REL_MR_NAMES}
    rules = bundled_rules()
    for k in range(trials):
        db = gen_database(db_seed + k)
        rng = np.random.default_rng([db_seed, k])
        for mr in REL_MR_NAMES:
            outcome = run_rel_trial(mr, db, rng, rules, evaluator)
            counts[mr][0 if outcome.passed else 1] += 1
    return {mr: (p, f) for mr, (p, f) in counts.items()}


def check_rules_on_db(db: Mapping[str, Relation], seed: int = 0) -> List[str]:
    """Violations of `eval(lhs) == eval(rhs)` for every bundled rule on db.

    Each rule's lhs is instantiated with concrete bindings drawn over the
    database's base relations and a sampled predicate, then rewritten by
    `apply_rule`, so the guard is honored.
    """
    rng = np.random.default_rng(seed)
    violations = []
    base_names = [n for n in sorted(db) if n != EMPTY_NAME]
    for rule in bundled_rules():
        for left_name in base_names:
            for right_name in base_names:
                bindings: Dict[str, object] = {
                    "R": Base(left_name),
                    "S": Base(right_name),
                    "p": _random_predicate(rng, schema_of(Base(left_name), db)),
                }
                lhs = _instantiate(rule.lhs, bindings)
                rhs = apply_rule(rule, lhs, db)
                if rhs is None:  # the guard does not hold
                    continue
                try:
                    left = CORRECT.eval(lhs, db)
                    right = CORRECT.eval(rhs, db)
                except (SchemaMismatch, UnknownRelation) as exc:
                    violations.append(f"{rule.name} on ({left_name},{right_name}): {exc}")
                    continue
                # identities like R join EMPTY = EMPTY change the schema but
                # not the (empty) bag; emptiness on both sides counts as equal
                both_empty = left.size == 0 and right.size == 0
                if not both_empty and not bag_equal(left, right, modulo_column_order=True):
                    violations.append(
                        f"{rule.name} on ({left_name},{right_name}): "
                        f"bags differ {left.schema}:{left.size} vs {right.schema}:{right.size}"
                    )
    return violations
