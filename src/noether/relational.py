"""Bag-semantics relational mini-evaluator and its rewrite-equality MRs.

Relations are multisets of tuples over distinct named columns (NULL-free;
values are small ints and three-letter strings).  The query plans and the
rewrite rules it evaluates are those of `plans`; the rules come from the
bundled query-plan algebra, and `rho_select-push` fires the algebra's own
rules at the plan root.  Two deliberately broken evaluation modes exist so
the rewrite MRs have something to catch: a join evaluated as a left-biased
semi-join, and rules fired without checking their guards, so the pushdown
ignores attribute containment; `REL_MODES` names them for `rel --mutant`.
A plan evaluates to a `(schema, rows)` pair, rows a dict of positive
counts; only `Evaluator.eval` and `eval_query` wrap the pair in a
`Relation`, and the trials compare the pairs themselves.
`run_rel_modes` runs the four MRs under several evaluators over one draw of
the seeded databases, firing the rules once per distinct plan of the run;
`run_rel_mrs` is its one-evaluator case.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import field, record
from ._rng import Generator
from .plans import (
    _FIELDS,
    EMPTY_NAME,
    Base,
    Distinct,
    Join,
    Predicate,
    SchemaMismatch,
    Select,
    UnknownRelation,
    Var,
)

if TYPE_CHECKING:
    from .plans import Guard, QueryExpr, RewriteRule

STRING_POOL = ("oak", "elm", "fir", "yew")


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
    a positive int; the constructor drops zero counts and rejects a row
    that is not a tuple of the schema's arity, negative counts and any
    count that is not an int, so two relations hold the same bag exactly
    when their `rows` are equal as dicts.  `rows` is read-only, so a
    relation hashes.  A relation unpacks as its `(schema, rows)` pair,
    the form plans evaluate to."""

    schema: Tuple[str, ...]
    rows: Counter = field(default_factory=Counter)

    def __post_init__(self):
        schema = tuple(self.schema)
        if len(set(schema)) != len(schema):
            raise SchemaMismatch(f"repeated column name in {schema}")
        rows = Counter(self.rows)
        for row, n in rows.items():
            if not isinstance(row, tuple):
                raise SchemaMismatch(f"row {row!r} is not a tuple")
            if len(row) != len(schema):
                raise SchemaMismatch(f"row arity {len(row)} != schema arity {len(schema)}")
            if type(n) is not int:
                raise ValueError(f"multiplicity {n!r} of row {row!r} is not an int")
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

    def __iter__(self):
        return iter((self.schema, self.rows))


def _key_getter(index: Sequence[int]):
    """The function from a row to its join key on the columns at `index`:
    the value of the one column, the tuple of several, or () for none."""
    return itemgetter(*index) if index else lambda row: ()


def _row_getter(index: Sequence[int]):
    """The function from a row to the tuple of its values at `index`."""
    if len(index) == 1:
        return lambda row, i=index[0]: (row[i],)
    return _key_getter(index)


@lru_cache(maxsize=256)
def _reorder(old: Tuple[str, ...], new: Tuple[str, ...]):
    """The function from a row over the columns `old` to the same row over
    `new`, or None when `new` is not a permutation of `old`."""
    if len(new) != len(old) or set(new) != set(old):
        return None
    # a permutation of distinct columns maps distinct rows to distinct rows
    return _row_getter([old.index(a) for a in new])


def bag_equal(left, right) -> bool:
    """Same column names and same bag, modulo column order: the right side's
    rows are first put in the left's column order.  Each side is a relation
    or the `(schema, rows)` pair a plan evaluates to.  Counts are positive,
    so the bags are equal exactly when the dicts are (`dict.__eq__` runs in
    C; `Counter.__eq__` is a Python-level loop)."""
    (left_schema, left_rows), (right_schema, right_rows) = left, right
    if left_schema != right_schema:
        get = _reorder(right_schema, left_schema)
        if get is None:
            return False
        right_rows = {get(row): n for row, n in right_rows.items()}
    return dict.__eq__(left_rows, right_rows)


def schema_of(q: QueryExpr, db: Mapping[str, Relation]) -> Tuple[str, ...]:
    """The schema of `eval_query(q, db)`, or the schema error it raises: q
    evaluated over an empty copy of each of db's relations, made on each
    call; a run's memo of rewrites keeps the calls few."""
    return eval_query(q, {name: Relation._trusted(rel.schema, {}) for name, rel in db.items()}).schema


# ---------------------------------------------------------------------------
# Evaluation: one function per plan class, found through `_EVAL`.  Each maps
# a plan to its (schema, rows) pair, rows a dict of positive counts that the
# caller must not change.

_Bag = Tuple[Tuple[str, ...], Mapping[Tuple, int]]


def _eval(ev: "Evaluator", q: QueryExpr, db) -> _Bag:
    evaluate = _EVAL.get(type(q))
    if evaluate is None:
        raise TypeError(f"not a query node: {q!r}")
    return evaluate(ev, q, db)


def _base(ev: "Evaluator", q: Base, db) -> _Bag:
    if q.name not in db:
        raise UnknownRelation(q.name)
    rel = db[q.name]
    return rel.schema, rel.rows


def _select(ev: "Evaluator", q: Select, db) -> _Bag:
    schema, rows = _eval(ev, q.child, db)
    holds = q.pred.holds
    return schema, {r: n for r, n in rows.items() if holds(schema, r)}


@lru_cache(maxsize=256)
def _join_plan(left: Tuple[str, ...], right: Tuple[str, ...]):
    """(output schema, left key, right key, right extras) of the natural join
    of two schemas; the extras getter maps a row to a tuple."""
    shared = [a for a in left if a in right]
    extra = [i for i, a in enumerate(right) if a not in left]
    keys = [_key_getter([side.index(a) for a in shared]) for side in (left, right)]
    return left + tuple(right[i] for i in extra), *keys, _row_getter(extra)


def _join(ev: "Evaluator", q: Join, db) -> _Bag:
    (left_schema, left_rows), (right_schema, right_rows) = _eval(ev, q.left, db), _eval(ev, q.right, db)
    schema, left_key, right_key, extra = _join_plan(left_schema, right_schema)
    by_key: Dict[object, List[Tuple[Tuple, int]]] = {}
    for row, count in right_rows.items():
        by_key.setdefault(right_key(row), []).append((extra(row), count))
    if ev.join_mode == "left-semi":
        # biased: emit the left row once per multiplicity iff matched
        return left_schema, {row: n for row, n in left_rows.items() if left_key(row) in by_key}
    # a right row is its key plus its extras, so each output row has one source pair
    rows = {
        lrow + rextra: lcount * rcount
        for lrow, lcount in left_rows.items()
        for rextra, rcount in by_key.get(left_key(lrow), ())
    }
    return schema, rows


def _distinct(ev: "Evaluator", q: Distinct, db) -> _Bag:
    schema, rows = _eval(ev, q.child, db)
    return schema, dict.fromkeys(rows, 1)


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
        return Relation._trusted(*_eval(self, q, db))


CORRECT = Evaluator()

# `rel --mutant` modes: the evaluator each names and the rewrite MR that
# `reproduce` requires to catch it (None for the correct evaluator)
REL_MODES: Dict[str, Tuple[Evaluator, Optional[str]]] = {
    "correct": (CORRECT, None),
    "biased-join": (Evaluator(join_mode="left-semi"), "rho_join-comm"),
    "guardless-pushdown": (Evaluator(pushdown_guard=False), "rho_select-push"),
}


def eval_query(q: QueryExpr, db: Mapping[str, Relation]) -> Relation:
    return CORRECT.eval(q, db)


# ---------------------------------------------------------------------------
# Firing rewrite rules: a pattern matches a plan and binds its variables


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
        left = _eval(evaluator, q1, db)
        right = _eval(evaluator, q2, db)
    except (SchemaMismatch, UnknownRelation):
        return False
    return bag_equal(left, right)


_R, _S, _T = Base("R"), Base("S"), Base("T")
_R_JOIN_S = Join(_R, _S)
_DISTINCT_S = Distinct(_S)
_DISTINCT_TWICE_S = Distinct(_DISTINCT_S)

# A trial's `memo` maps a plan to what the rules made of it earlier in the
# run.  A run loads its rules once, and every database it draws has
# `gen_database`'s fixed schemas, the only part of a database a guard reads
# (`schema_of`), so a plan rewrites the same way on each of them.  The memo
# must not outlive the run: the next run may load other rules.  The
# evaluators of a run share it, so `_select_push` keys on whether the
# evaluator checks guards; `rewrite_once` always does.


def _plans_agree(q1, q2, db, rng, rules, evaluator, memo) -> bool:
    return _same_bag(evaluator, q1, q2, db)


def _select_push(db, rng, rules, evaluator, memo) -> bool:
    q = Select(_random_predicate(rng, ("a", "b", "c")), _R_JOIN_S)
    key = (q, evaluator.pushdown_guard)
    pushed = memo.get(key)
    if pushed is None:
        pushed = memo[key] = evaluator.optimize(q, rules, db)
    return _same_bag(evaluator, q, pushed, db)


def _distinct_idem(db, rng, rules, evaluator, memo) -> bool:
    pred = _random_predicate(rng, ("b", "c"))
    once = Select(pred, _S)
    twice = Select(pred, once)
    collapses = memo.get(twice)
    if collapses is None:
        collapses = memo[twice] = rewrite_once(twice, rules, db) == once
    return (
        collapses
        and _same_bag(evaluator, twice, once, db)
        and _same_bag(evaluator, _DISTINCT_TWICE_S, _DISTINCT_S, db)
    )


# The rewrite MRs in report order: each maps (db, rng, rules, evaluator,
# memo) to whether the trial passed and draws from rng in its own fixed order.
_REL_MRS = {
    "rho_join-comm": partial(_plans_agree, _R_JOIN_S, Join(_S, _R)),
    "rho_select-push": _select_push,
    "rho_distinct-idem": _distinct_idem,
    "rho_plan-equiv": partial(_plans_agree, Join(_R_JOIN_S, _T), Join(_R, Join(_S, _T))),
}
REL_MR_NAMES = tuple(_REL_MRS)


def run_rel_trial(
    mr: str,
    db: Mapping[str, Relation],
    rng: Generator,
    rules: Sequence[RewriteRule],
    evaluator: Evaluator,
    memo: Dict,
) -> RelTrial:
    """One trial of one rewrite MR under `evaluator`; callers load `rules`
    once per run and pass all of a run's trials one `memo` of the rewrites
    fired so far, which a trial reads and fills."""
    trial = _REL_MRS.get(mr)
    if trial is None:
        raise ValueError(f"unknown relational MR {mr!r}")
    return RelTrial(trial(db, rng, rules, evaluator, memo))


def run_rel_modes(
    db_seed: int, trials: int, evaluators: Sequence[Evaluator]
) -> List[Dict[str, Tuple[int, int]]]:
    """Per-MR (passes, fails) over `trials` seeded databases for each of
    `evaluators`, in their order: `[run_rel_mrs(db_seed, trials, e) for e
    in evaluators]`, with each database drawn once for all of them.

    Database k is `gen_database(db_seed + k)`; each evaluator runs the MRs
    on it with a fresh `Generator([db_seed, k])`, so every evaluator sees
    the draws a run of its own would.  Relations are read-only, so the
    evaluators can share the database, and share one memo of the rewrites.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    runs = [(evaluator, {mr: [0, 0] for mr in REL_MR_NAMES}) for evaluator in evaluators]
    rules = bundled_rules()
    memo: Dict = {}
    for k in range(trials):
        db = gen_database(db_seed + k)
        for evaluator, counts in runs:
            rng = Generator([db_seed, k])
            for mr in REL_MR_NAMES:
                outcome = run_rel_trial(mr, db, rng, rules, evaluator, memo)
                counts[mr][0 if outcome.passed else 1] += 1
    return [{mr: (p, f) for mr, (p, f) in counts.items()} for _, counts in runs]


def run_rel_mrs(
    db_seed: int, trials: int, evaluator: Evaluator = CORRECT
) -> Dict[str, Tuple[int, int]]:
    """Per-MR (passes, fails) over `trials` seeded databases."""
    return run_rel_modes(db_seed, trials, (evaluator,))[0]
