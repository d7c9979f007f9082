"""Bag-semantics relational mini-evaluator and its rewrite-equality MRs.

Relations are multisets of tuples over distinct named columns (NULL-free;
values are small ints and three-letter strings).  Query plans are tiny trees of select,
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
from functools import lru_cache, partial
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ._rng import Generator
from .minilang import MAX_DEPTH

EMPTY_NAME = "EMPTY"  # every generated database carries an empty relation
STRING_POOL = ("oak", "elm", "fir", "yew")


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
        if len(set(self.schema)) != len(self.schema):
            raise SchemaMismatch(f"repeated column name in {self.schema}")
        for row in self.rows:
            if len(row) != len(self.schema):
                raise SchemaMismatch(f"row arity {len(row)} != schema arity {len(self.schema)}")

    @classmethod
    def _trusted(cls, schema: Tuple[str, ...], counts: Mapping[Tuple, int]) -> "Relation":
        """Relation(schema, counts) unchecked, for relations built here from
        valid ones; skips Counter.__init__, costly next to a few-row bag."""
        rows = Counter.__new__(Counter)
        dict.update(rows, counts)
        rel = object.__new__(cls)
        rel.__dict__.update(schema=schema, rows=rows)
        return rel

    @property
    def size(self) -> int:
        return sum(self.rows.values())

    def reordered(self, new_schema: Sequence[str]) -> "Relation":
        if set(new_schema) != set(self.schema) or len(new_schema) != len(self.schema):
            raise SchemaMismatch(f"cannot reorder {self.schema} as {tuple(new_schema)}")
        # a permutation of distinct columns maps distinct rows to distinct rows
        get = _row_getter([self.schema.index(a) for a in new_schema])
        return Relation._trusted(tuple(new_schema), {get(row): n for row, n in self.rows.items()})


def _row_getter(index: Sequence[int]):
    """The function from a row to the tuple of its values at `index`."""
    if len(index) == 1:
        return lambda row, i=index[0]: (row[i],)
    return itemgetter(*index) if index else lambda row: ()


def bag_equal(left: Relation, right: Relation, modulo_column_order: bool = False) -> bool:
    """Same schema and same bag; modulo column order, the right side is first
    reordered into the left's columns when both hold the same column names."""
    if modulo_column_order and left.schema != right.schema:
        if set(left.schema) != set(right.schema):
            return False
        right = right.reordered(left.schema)
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


class _Rowless:
    """db's relations with their rows dropped, each made when a plan looks
    it up."""

    __slots__ = ("db",)

    def __init__(self, db: Mapping[str, Relation]):
        self.db = db

    def __contains__(self, name: str) -> bool:
        return name in self.db

    def __getitem__(self, name: str) -> Relation:
        return Relation._trusted(self.db[name].schema, {})


def schema_of(q: QueryExpr, db: Mapping[str, Relation]) -> Tuple[str, ...]:
    """The schema of `eval_query(q, db)`, or the schema error it raises: q
    evaluated over db's relations with their rows dropped."""
    return eval_query(q, _Rowless(db)).schema


# ---------------------------------------------------------------------------
# Evaluation: one function per plan class, found through `_EVAL`


def _base(ev: "Evaluator", q: Base, db) -> Relation:
    if q.name not in db:
        raise UnknownRelation(q.name)
    return db[q.name]


def _select(ev: "Evaluator", q: Select, db) -> Relation:
    child = ev.eval(q.child, db)
    holds, schema = q.pred.holds, child.schema
    return Relation._trusted(schema, {r: n for r, n in child.rows.items() if holds(schema, r)})


def _project(ev: "Evaluator", q: Project, db) -> Relation:
    child = ev.eval(q.child, db)
    attrs = tuple(q.attrs)
    if not set(attrs) <= set(child.schema) or len(set(attrs)) != len(attrs):
        raise SchemaMismatch(f"cannot project {child.schema} onto {attrs}")
    get = _row_getter([child.schema.index(a) for a in attrs])
    rows = Counter()
    for row, count in child.rows.items():
        rows[get(row)] += count
    return Relation._trusted(attrs, rows)


@lru_cache(maxsize=256)
def _join_plan(left: Tuple[str, ...], right: Tuple[str, ...]):
    """(output schema, left key, right key, right extras) of the natural join
    of two schemas; each getter maps a row to a tuple."""
    shared = [a for a in left if a in right]
    extra = [i for i, a in enumerate(right) if a not in left]
    keys = [_row_getter([side.index(a) for a in shared]) for side in (left, right)]
    return left + tuple(right[i] for i in extra), *keys, _row_getter(extra)


def _join(ev: "Evaluator", q: Join, db) -> Relation:
    left, right = ev.eval(q.left, db), ev.eval(q.right, db)
    schema, left_key, right_key, extra = _join_plan(left.schema, right.schema)
    by_key: Dict[Tuple, List[Tuple[Tuple, int]]] = {}
    for row, count in right.rows.items():
        by_key.setdefault(right_key(row), []).append((extra(row), count))
    if ev.join_mode == "left-semi":
        # biased: emit the left row once per multiplicity iff matched
        rows = {row: n for row, n in left.rows.items() if left_key(row) in by_key}
        return Relation._trusted(left.schema, rows)
    # a right row is its key plus its extras, so each output row has one source pair
    rows = {
        lrow + rextra: lcount * rcount
        for lrow, lcount in left.rows.items()
        for rextra, rcount in by_key.get(left_key(lrow), ())
    }
    return Relation._trusted(schema, rows)


def _union(ev: "Evaluator", q: UnionAll, db) -> Relation:
    left, right = ev.eval(q.left, db), ev.eval(q.right, db)
    if left.schema != right.schema:
        raise SchemaMismatch(f"union schemas differ: {left.schema} vs {right.schema}")
    return Relation._trusted(left.schema, left.rows + right.rows)


def _distinct(ev: "Evaluator", q: Distinct, db) -> Relation:
    child = ev.eval(q.child, db)
    return Relation._trusted(child.schema, dict.fromkeys(child.rows, 1))


_EVAL = {
    Base: _base, Select: _select, Project: _project, Join: _join, UnionAll: _union, Distinct: _distinct
}


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
        evaluate = _EVAL.get(type(q))
        if evaluate is None:
            raise TypeError(f"not a query node: {q!r}")
        return evaluate(self, q, db)


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
            args.append(rewrite_once(value, rules, db) if type(value) in _EVAL else value)
        expr = cls(*args)
    for rule in rules:
        out = apply_rule(rule, expr, db)
        if out is not None:
            return out
    return expr


def bundled_rules() -> Tuple[RewriteRule, ...]:
    from . import zoo

    # read on every call so a NOETHER_FIXTURES swap takes effect; rules come parsed
    algebra = zoo.load_algebra("relational")
    return tuple(decl.rule for decl in algebra.semiring_rules)


# ---------------------------------------------------------------------------
# Database generation: R(a,b), S(b,c), T(c,d); at most 4 rows each;
# values are ints 0..9 (0..4 on join columns b) and three-letter strings.


def gen_database(seed: int) -> Dict[str, Relation]:
    rng = Generator(seed)

    def rows(maker, count):
        bag = Counter()
        for _ in range(count):
            bag[maker()] += 1
        return bag

    def s(pool=STRING_POOL):
        return pool[rng.integers(0, len(pool))]

    r = Relation(("a", "b"), rows(lambda: (rng.integers(0, 10), rng.integers(0, 5)), rng.integers(1, 5)))
    s_rel = Relation(("b", "c"), rows(lambda: (rng.integers(0, 5), s()), rng.integers(1, 5)))
    t = Relation(("c", "d"), rows(lambda: (s(), rng.integers(0, 10)), rng.integers(1, 5)))
    return {"R": r, "S": s_rel, "T": t, EMPTY_NAME: Relation(("e",), Counter())}


def _random_predicate(rng: Generator, over: Sequence[str]) -> Predicate:
    attr = over[rng.integers(0, len(over))]
    if attr == "c":
        return Predicate("eq", "c", STRING_POOL[rng.integers(0, len(STRING_POOL))])
    op = ("eq", "le", "lt")[rng.integers(0, 3)]
    bound = rng.integers(0, 5 if attr == "b" else 10)
    return Predicate(op, attr, bound)


# ---------------------------------------------------------------------------
# The four rewrite MRs


@dataclass
class RelTrial:
    mr: str
    passed: bool
    detail: str = ""


def _safe_bag_equal(evaluator, q1, q2, db) -> Tuple[bool, str]:
    """Whether two plans give the same bag on `db`, modulo column order."""
    try:
        left = evaluator.eval(q1, db)
        right = evaluator.eval(q2, db)
    except (SchemaMismatch, UnknownRelation) as exc:
        return False, f"evaluation error: {exc}"
    if bag_equal(left, right, modulo_column_order=True):
        return True, ""
    return False, f"bags differ: {left.schema}:{left.size} vs {right.schema}:{right.size}"


_R, _S, _T = Base("R"), Base("S"), Base("T")


def _plans_agree(q1, q2, db, rng, rules, evaluator) -> Tuple[bool, str]:
    return _safe_bag_equal(evaluator, q1, q2, db)


def _select_push(db, rng, rules, evaluator) -> Tuple[bool, str]:
    pred = _random_predicate(rng, ("a", "b", "c"))
    q = Select(pred, Join(_R, _S))
    ok, detail = _safe_bag_equal(evaluator, q, evaluator.optimize(q, db), db)
    return ok, detail + (f" [pred on {pred.attr}]" if not ok else "")


def _distinct_idem(db, rng, rules, evaluator) -> Tuple[bool, str]:
    pred = _random_predicate(rng, ("b", "c"))
    once = Select(pred, _S)
    twice = Select(pred, once)
    plan_ok = rewrite_once(twice, rules, db) == once
    sem_ok, detail = _safe_bag_equal(evaluator, twice, once, db)
    dd_ok, dd_detail = _safe_bag_equal(evaluator, Distinct(Distinct(_S)), Distinct(_S), db)
    if not plan_ok:
        detail = "plan trees differ after one rewrite pass"
    return plan_ok and sem_ok and dd_ok, detail or dd_detail


# The rewrite MRs in report order: each maps (db, rng, rules, evaluator) to
# (passed, detail) and draws from rng in its own fixed order.
_REL_MRS = {
    "rho_join-comm": partial(_plans_agree, Join(_R, _S), Join(_S, _R)),
    "rho_select-push": _select_push,
    "rho_distinct-idem": _distinct_idem,
    "rho_plan-equiv": partial(_plans_agree, Join(Join(_R, _S), _T), Join(_R, Join(_S, _T))),
}
REL_MR_NAMES = tuple(_REL_MRS)


def run_rel_trial(
    mr: str,
    db: Mapping[str, Relation],
    rng: Generator,
    rules: Sequence[RewriteRule],
    evaluator: Evaluator = CORRECT,
) -> RelTrial:
    """One trial of one rewrite MR; callers load `rules` once per run."""
    trial = _REL_MRS.get(mr)
    if trial is None:
        raise ValueError(f"unknown relational MR {mr!r}")
    return RelTrial(mr, *trial(db, rng, rules, evaluator))


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
        rng = Generator([db_seed, k])
        for mr in REL_MR_NAMES:
            outcome = run_rel_trial(mr, db, rng, rules, evaluator)
            counts[mr][0 if outcome.passed else 1] += 1
    return {mr: (p, f) for mr, (p, f) in counts.items()}

