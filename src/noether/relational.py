"""Bag-semantics relational mini-evaluator and its rewrite-equality MRs.

Relations are multisets of tuples over distinct named columns (NULL-free;
values are small ints and three-letter strings).  Query plans are tiny trees
of select, natural join and distinct over base relations, the heads the
rewrite MRs build.  The rewrite rules come from the bundled query-plan
algebra in a prefix pattern notation, e.g. `select(p,join(R,S)) ->
join(select(p,R),S)` guarded by attribute containment; a pattern is a plan
whose leaves may be variables (`Var`), and each leaf is a predicate or a
plan.
`rho_select-push` fires the algebra's own rules at the plan root.  Two
deliberately broken evaluation modes exist so the rewrite MRs have something
to catch: a join evaluated as a left-biased semi-join, and rules fired
without checking their guards, so the pushdown ignores attribute containment.
`run_rel_modes` runs the four MRs under several evaluators over one draw of
the seeded databases; `run_rel_mrs` is its one-evaluator case.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache, partial
from operator import itemgetter
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ._record import field, fields, record
from ._rng import Generator

EMPTY_NAME = "EMPTY"  # every generated database carries an empty relation
STRING_POOL = ("oak", "elm", "fir", "yew")


class UnknownRelation(KeyError):
    pass


class SchemaMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Relations

_set = object.__setattr__


class _Rows(Counter):
    """A read-only Counter that hashes, so the frozen relation holding it
    does; made from a mapping of positive counts by `dict.__init__` in C."""

    __slots__ = ()
    __init__ = dict.__init__

    def __hash__(self):
        return hash(frozenset(self.items()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("a relation's bag of rows is read-only")

    __setitem__ = __delitem__ = __iadd__ = __isub__ = __ior__ = __iand__ = _read_only
    clear = pop = popitem = setdefault = subtract = update = _read_only


@record
class Relation:
    """A bag of rows over `schema`: `rows` maps each row to its multiplicity,
    a positive count; the constructor drops zero counts and rejects negative
    ones, so two relations hold the same bag exactly when their `rows` are
    equal as dicts.  `rows` is read-only, so a relation hashes."""

    schema: Tuple[str, ...]
    rows: Counter = field(default_factory=Counter)

    def __post_init__(self):
        schema = tuple(self.schema)
        if len(set(schema)) != len(schema):
            raise SchemaMismatch(f"repeated column name in {schema}")
        rows = Counter(self.rows)
        for row, n in rows.items():
            if len(row) != len(schema):
                raise SchemaMismatch(f"row arity {len(row)} != schema arity {len(schema)}")
            if n < 0:
                raise ValueError(f"negative multiplicity {n} of row {row!r}")
        _set(self, "schema", schema)
        _set(self, "rows", _Rows(+rows))  # unary plus drops the zero counts

    @classmethod
    def _trusted(cls, schema: Tuple[str, ...], counts: Mapping[Tuple, int]) -> "Relation":
        """Relation(schema, counts) unchecked, for relations built here with
        valid rows and positive counts; skips the constructor's checks,
        costly next to a few-row bag."""
        rows = _Rows.__new__(_Rows)
        dict.update(rows, counts)
        rel = object.__new__(cls)
        _set(rel, "schema", schema)
        _set(rel, "rows", rows)
        return rel

    def reordered(self, new_schema: Sequence[str]) -> "Relation":
        if set(new_schema) != set(self.schema) or len(new_schema) != len(self.schema):
            raise SchemaMismatch(f"cannot reorder {self.schema} as {tuple(new_schema)}")
        # a permutation of distinct columns maps distinct rows to distinct rows
        get = _row_getter([self.schema.index(a) for a in new_schema])
        return Relation._trusted(tuple(new_schema), {get(row): n for row, n in self.rows.items()})


def _key_getter(index: Sequence[int]):
    """The function from a row to its join key on the columns at `index`:
    the value of the one column, the tuple of several, or () for none."""
    return itemgetter(*index) if index else lambda row: ()


def _row_getter(index: Sequence[int]):
    """The function from a row to the tuple of its values at `index`."""
    if len(index) == 1:
        return lambda row, i=index[0]: (row[i],)
    return _key_getter(index)


def bag_equal(left: Relation, right: Relation) -> bool:
    """Same column names and same bag, modulo column order: the right side is
    first reordered into the left's columns.  Counts are positive, so the
    bags are equal exactly when the dicts are (`dict.__eq__` runs in C;
    `Counter.__eq__` is a Python-level loop)."""
    if left.schema != right.schema:
        if set(left.schema) != set(right.schema):
            return False
        right = right.reordered(left.schema)
    return dict.__eq__(left.rows, right.rows)


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


@lru_cache(maxsize=256)
def _join_plan(left: Tuple[str, ...], right: Tuple[str, ...]):
    """(output schema, left key, right key, right extras) of the natural join
    of two schemas; the extras getter maps a row to a tuple."""
    shared = [a for a in left if a in right]
    extra = [i for i, a in enumerate(right) if a not in left]
    keys = [_key_getter([side.index(a) for a in shared]) for side in (left, right)]
    return left + tuple(right[i] for i in extra), *keys, _row_getter(extra)


def _join(ev: "Evaluator", q: Join, db) -> Relation:
    left, right = ev.eval(q.left, db), ev.eval(q.right, db)
    schema, left_key, right_key, extra = _join_plan(left.schema, right.schema)
    by_key: Dict[object, List[Tuple[Tuple, int]]] = {}
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


def _distinct(ev: "Evaluator", q: Distinct, db) -> Relation:
    child = ev.eval(q.child, db)
    return Relation._trusted(child.schema, dict.fromkeys(child.rows, 1))


_EVAL = {Base: _base, Select: _select, Join: _join, Distinct: _distinct}


@record
class Evaluator:
    """Evaluation pipeline under test.

    join_mode "left-semi" keeps only left rows with a match (a classic join
    bug); pushdown_guard=False fires rewrite rules without checking their
    guards, so the pushdown moves a predicate into the left child of a join
    even when it reads the right child's columns.
    """

    join_mode: str = "natural"  # natural | left-semi
    pushdown_guard: bool = True

    def optimize(self, q: QueryExpr, rules: Sequence[RewriteRule], db: Mapping[str, Relation]) -> QueryExpr:
        """q rewritten at its root by the first of `rules` that fires, or q itself."""
        for rule in rules:
            bindings: Dict[str, object] = {}
            if _match(rule.lhs, q, bindings) and (
                not self.pushdown_guard or _guard_holds(rule.guard, bindings, db)
            ):
                return _instantiate(rule.rhs, bindings)
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

    out = parse(1)
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


def _match(pat, expr, bindings: Dict[str, object]) -> bool:
    cls = type(pat)
    if cls is Var:
        return bindings.setdefault(pat.name, expr) == expr
    if cls not in _FIELDS:  # a literal leaf
        return pat == expr
    if type(expr) is not cls:
        return False
    for name in _FIELDS[cls]:
        if not _match(getattr(pat, name), getattr(expr, name), bindings):
            return False
    return True


def _instantiate(pat, bindings: Mapping[str, object]):
    cls = type(pat)
    if cls is Var:
        return bindings[pat.name]
    if cls not in _FIELDS:
        return pat
    return cls(*[_instantiate(getattr(pat, name), bindings) for name in _FIELDS[cls]])


def _guard_holds(guard: Guard, bindings: Mapping[str, object], db: Mapping[str, Relation]) -> bool:
    if not guard.pred_var:
        return True
    pred = bindings[guard.pred_var]
    rel_expr = bindings[guard.rel_var]
    return pred.attrs() <= set(schema_of(rel_expr, db))


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
    return CORRECT.optimize(expr, rules, db)


def bundled_rules() -> Tuple[RewriteRule, ...]:
    from . import zoo

    # read on every call so a NOETHER_FIXTURES swap takes effect; rules come parsed
    return zoo.load_algebra("relational").semiring_rules


# ---------------------------------------------------------------------------
# Database generation: R(a,b), S(b,c), T(c,d); at most 4 rows each;
# values are ints 0..9 (0..4 on join columns b) and three-letter strings.

# name -> (schema, the values each of its two columns draws from)
_GENERATED = {
    "R": (("a", "b"), range(10), range(5)),
    "S": (("b", "c"), range(5), STRING_POOL),
    "T": (("c", "d"), STRING_POOL, range(10)),
}


def gen_database(seed: int) -> Dict[str, Relation]:
    """Each generated relation draws its row count in 1..4, then each row's
    first and second value, uniformly from its columns' pools."""
    draw = Generator(seed).integers
    db = {}
    for name, (schema, first, second) in _GENERATED.items():
        bag: Dict[Tuple, int] = {}
        n_first, n_second = len(first), len(second)
        for _ in range(draw(1, 5)):
            row = (first[draw(0, n_first)], second[draw(0, n_second)])
            bag[row] = bag.get(row, 0) + 1
        db[name] = Relation._trusted(schema, bag)
    db[EMPTY_NAME] = Relation._trusted(("e",), {})
    return db


def _random_predicate(rng: Generator, over: Sequence[str]) -> Predicate:
    attr = over[rng.integers(0, len(over))]
    if attr == "c":
        return Predicate("eq", "c", STRING_POOL[rng.integers(0, len(STRING_POOL))])
    op = ("eq", "le", "lt")[rng.integers(0, 3)]
    bound = rng.integers(0, 5 if attr == "b" else 10)
    return Predicate(op, attr, bound)


# ---------------------------------------------------------------------------
# The four rewrite MRs


@record
class RelTrial:
    passed: bool


def _same_bag(evaluator, q1, q2, db) -> bool:
    """Whether two plans give the same bag on `db`, modulo column order."""
    try:
        left = evaluator.eval(q1, db)
        right = evaluator.eval(q2, db)
    except (SchemaMismatch, UnknownRelation):
        return False
    return bag_equal(left, right)


_R, _S, _T = Base("R"), Base("S"), Base("T")
_DISTINCT_S = Distinct(_S)
_DISTINCT_TWICE_S = Distinct(_DISTINCT_S)


def _plans_agree(q1, q2, db, rng, rules, evaluator) -> bool:
    return _same_bag(evaluator, q1, q2, db)


def _select_push(db, rng, rules, evaluator) -> bool:
    q = Select(_random_predicate(rng, ("a", "b", "c")), Join(_R, _S))
    return _same_bag(evaluator, q, evaluator.optimize(q, rules, db), db)


def _distinct_idem(db, rng, rules, evaluator) -> bool:
    pred = _random_predicate(rng, ("b", "c"))
    once = Select(pred, _S)
    twice = Select(pred, once)
    return (
        rewrite_once(twice, rules, db) == once
        and _same_bag(evaluator, twice, once, db)
        and _same_bag(evaluator, _DISTINCT_TWICE_S, _DISTINCT_S, db)
    )


# The rewrite MRs in report order: each maps (db, rng, rules, evaluator) to
# whether the trial passed and draws from rng in its own fixed order.
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
    return RelTrial(trial(db, rng, rules, evaluator))


def run_rel_modes(
    db_seed: int, trials: int, evaluators: Sequence[Evaluator]
) -> List[Dict[str, Tuple[int, int]]]:
    """Per-MR (passes, fails) over `trials` seeded databases for each of
    `evaluators`, in their order: `[run_rel_mrs(db_seed, trials, e) for e
    in evaluators]`, with each database drawn once for all of them.

    Database k is `gen_database(db_seed + k)`; each evaluator runs the MRs
    on it with a fresh `Generator([db_seed, k])`, so every evaluator sees
    the draws a run of its own would.  Relations are read-only, so the
    evaluators can share the database.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    runs = [(evaluator, {mr: [0, 0] for mr in REL_MR_NAMES}) for evaluator in evaluators]
    rules = bundled_rules()
    for k in range(trials):
        db = gen_database(db_seed + k)
        for evaluator, counts in runs:
            rng = Generator([db_seed, k])
            for mr in REL_MR_NAMES:
                outcome = run_rel_trial(mr, db, rng, rules, evaluator)
                counts[mr][0 if outcome.passed else 1] += 1
    return [{mr: (p, f) for mr, (p, f) in counts.items()} for _, counts in runs]


def run_rel_mrs(
    db_seed: int, trials: int, evaluator: Evaluator = CORRECT
) -> Dict[str, Tuple[int, int]]:
    """Per-MR (passes, fails) over `trials` seeded databases."""
    return run_rel_modes(db_seed, trials, (evaluator,))[0]
