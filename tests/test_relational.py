"""Relational mini-evaluator tests: bag semantics, rewrites, MR trials."""

import copy
import gc
import pickle
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noether import cli, plans, relational
from noether._rng import Generator
from noether.plans import (
    EMPTY_NAME,
    MAX_PATTERN_DEPTH,
    TRUE,
    Base,
    Distinct,
    Join,
    Predicate,
    RewriteRule,
    SchemaMismatch,
    Select,
    UnknownRelation,
    Var,
    parse_guard,
    parse_pattern,
    rule_to_text,
)
from noether.relational import (
    CORRECT,
    REL_MODES,
    REL_MR_NAMES,
    STRING_POOL,
    Evaluator,
    Relation,
    bag_equal,
    bundled_rules,
    eval_query,
    gen_database,
    rewrite_once,
    run_rel_modes,
    run_rel_mrs,
    run_rel_trial,
    schema_of,
)
from noether.zoo import fixture_text, load_algebra

SEED = 20260816

R = Relation(("a", "b"), Counter({(1, 2): 2, (3, 2): 1}))
S = Relation(("b", "c"), Counter({(2, "oak"): 3, (4, "elm"): 1}))
DB = {"R": R, "S": S, EMPTY_NAME: Relation(("e",), Counter())}


def check_rules_on_db(db, seed=0):
    """Violations of `eval(lhs) == eval(rhs)` for every bundled rule on db.

    Each rule's lhs is instantiated with concrete bindings drawn over the
    database's base relations and a sampled predicate, then rewritten at
    its root by the correct evaluator, so the guard is honored.
    """
    rng = Generator(seed)
    violations = []
    base_names = [n for n in sorted(db) if n != EMPTY_NAME]
    for rule in bundled_rules():
        for left_name in base_names:
            for right_name in base_names:
                bindings = {
                    "R": Base(left_name),
                    "S": Base(right_name),
                    "p": relational._random_predicate(rng, schema_of(Base(left_name), db)),
                }
                lhs = relational._instantiate(rule.lhs, bindings)
                rhs = CORRECT.optimize(lhs, [rule], db)
                if rhs == lhs:  # the guard does not hold
                    continue
                try:
                    left = CORRECT.eval(lhs, db)
                    right = CORRECT.eval(rhs, db)
                except (SchemaMismatch, UnknownRelation) as exc:
                    violations.append(f"{rule.name} on ({left_name},{right_name}): {exc}")
                    continue
                # identities like R join EMPTY = EMPTY change the schema but
                # not the (empty) bag; emptiness on both sides counts as equal
                both_empty = not left.rows and not right.rows
                if not both_empty and not bag_equal(left, right):
                    violations.append(
                        f"{rule.name} on ({left_name},{right_name}): "
                        f"bags differ {left.schema}:{dict(left.rows)} vs {right.schema}:{dict(right.rows)}"
                    )
    return violations


def outcome(compute):
    """compute()'s value, or the type of the exception it raised."""
    try:
        return compute()
    except Exception as exc:  # the differential tests compare error types
        return type(exc)


def reordered(rel, new_schema):
    """`rel` with its columns in the order `new_schema`, built through the
    validating constructor: the reference for `bag_equal`'s reordering."""
    index = [rel.schema.index(a) for a in new_schema]
    return Relation(tuple(new_schema), Counter({tuple(row[i] for i in index): n for row, n in rel.rows.items()}))


class TestRelationBasics:
    def test_row_arity_checked(self):
        with pytest.raises(SchemaMismatch):
            Relation(("a",), Counter({(1, 2): 1}))

    @pytest.mark.parametrize(
        "schema, row", [(("a",), "x"), (("a", "b"), "ab"), (("a",), 1)]
    )
    def test_rows_are_tuples(self, schema, row):
        # a string of the schema's length was kept as a row; an int raised a
        # bare TypeError from len()
        with pytest.raises(SchemaMismatch, match=rf"^row {row!r} is not a tuple$"):
            Relation(schema, {row: 1})

    def test_repeated_column_name_rejected(self):
        # a sorted reorder maps both (1, 2) and (1, 3) over ("a", "a") to (1, 1)
        with pytest.raises(SchemaMismatch):
            Relation(("a", "a"), Counter({(1, 2): 1}))

    def test_zero_multiplicities_are_dropped(self):
        zero = Relation(("a",), Counter({(1,): 0, (2,): 1}))
        assert zero == Relation(("a",), Counter({(2,): 1}))
        assert isinstance(zero.rows, Counter) and (1,) not in zero.rows
        with pytest.raises(TypeError):
            zero.rows[(1,)] = 1
        # a dropped row stays dropped under distinct
        db = {"Z": Relation(("a",), Counter({(1,): 0})), "E": Relation(("a",), Counter())}
        assert bag_equal(eval_query(Distinct(Base("Z")), db), eval_query(Distinct(Base("E")), db))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            Relation(("a",), Counter({(1,): -1}))

    @pytest.mark.parametrize("count", (1.5, float("nan"), "x", True, False, None, 2.0))
    def test_multiplicities_are_ints(self, count):
        # a float would be kept, NaN dropped by the unary plus and a string
        # would fail the sign check with a bare TypeError; a bool is no count
        with pytest.raises(ValueError, match=r"^multiplicity .+ of row \(1,\) is not an int$"):
            Relation(("a",), {(1,): count, (2,): 1})
        assert Relation(("a",), {(1,): 3, (2,): 0}).rows == {(1,): 3}

    def test_reordered_permutes_columns(self):
        # bag_equal puts the right side's rows in the left's column order by
        # one permutation per schema pair, made once
        get = relational._reorder(("a", "b"), ("b", "a"))
        assert {get(row): n for row, n in R.rows.items()} == Counter({(2, 1): 2, (2, 3): 1})
        assert relational._reorder(("a", "b"), ("b", "a")) is get
        assert relational._reorder(("a", "b"), ("a", "z")) is None
        assert relational._reorder(("a", "b"), ("a",)) is None
        flipped = (("b", "a"), {(2, 1): 2, (2, 3): 1})
        assert bag_equal(R, flipped) and bag_equal(flipped, R)
        assert reordered(R, ("b", "a")) == Relation(*flipped)

    def test_rows_refuse_every_write(self):
        a, b = Relation(("a",), Counter({(1,): 2})), Relation(("a",), Counter({(1,): 2}))
        rows = b.rows
        writes = (
            # a zero count would break `bag_equal`, a negative one the bag
            lambda: rows.__setitem__((2,), 0),
            lambda: rows.__setitem__((3,), -1),
            lambda: rows.__delitem__((1,)),
            lambda: rows.update({(2,): 1}),
            lambda: rows.subtract({(1,): 1}),
            lambda: rows.pop((1,)),
            lambda: rows.popitem(),
            lambda: rows.setdefault((2,), 1),
            lambda: rows.clear(),
            lambda: rows.__iadd__(Counter({(2,): 1})),
            lambda: rows.__isub__(Counter({(1,): 1})),
            lambda: rows.__ior__(Counter({(2,): 1})),
            lambda: rows.__iand__(Counter()),
        )
        for write in writes:
            with pytest.raises(TypeError, match="read-only"):
                write()
        assert bag_equal(a, b) and rows == Counter({(1,): 2})
        # bag arithmetic still gives new, writable counters
        assert rows + Counter({(1,): 1}) == Counter({(1,): 3})
        assert rows.copy() == rows

    def test_relations_hash(self):
        a, b = Relation(("a",), Counter({(1,): 2, (2,): 1})), Relation(("a",), Counter({(2,): 1, (1,): 2}))
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
        flipped = reordered(R, ("b", "a"))
        assert hash(reordered(flipped, ("a", "b"))) == hash(R)
        assert len({rel for seed in range(20) for rel in gen_database(seed).values()}) > 1

    def test_bag_equal_modulo_column_order(self):
        flipped = reordered(R, ("b", "a"))
        assert bag_equal(R, flipped)
        other = Relation(("a", "c"), Counter({(1, 2): 2, (3, 2): 1}))
        assert not bag_equal(R, other)

    def test_predicates(self):
        assert TRUE.holds(("a",), (9,))
        assert Predicate("eq", "c", "oak").holds(("b", "c"), (1, "oak"))
        assert Predicate("le", "a", 3).holds(("a",), (3,))
        assert not Predicate("lt", "a", 3).holds(("a",), (3,))
        with pytest.raises(SchemaMismatch):
            Predicate("eq", "z", 0).holds(("a",), (1,))
        with pytest.raises(SchemaMismatch):
            Predicate("le", "c", "oak").holds(("c",), ("elm",))


class TestEvaluator:
    def test_select_preserves_duplicates(self):
        got = eval_query(Select(Predicate("eq", "b", 2), Base("R")), DB)
        assert got.rows == Counter({(1, 2): 2, (3, 2): 1})

    def test_select_true_is_identity(self):
        assert bag_equal(eval_query(Select(TRUE, Base("R")), DB), R)

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            eval_query(Base("Q"), DB)
        assert issubclass(UnknownRelation, KeyError)

    def test_natural_join_multiplies_multiplicities(self):
        got = eval_query(Join(Base("R"), Base("S")), DB)
        assert got.schema == ("a", "b", "c")
        assert got.rows == Counter({(1, 2, "oak"): 6, (3, 2, "oak"): 3})

    def test_join_with_empty_is_empty(self):
        got = eval_query(Join(Base("R"), Base(EMPTY_NAME)), DB)
        assert not got.rows
        assert got.schema == ("a", "b", "e")  # disjoint schemas cross

    def test_distinct_collapses_and_is_idempotent(self):
        once = eval_query(Distinct(Base("R")), DB)
        assert once.rows == Counter({(1, 2): 1, (3, 2): 1})
        twice = eval_query(Distinct(Distinct(Base("R"))), DB)
        assert bag_equal(once, twice)

    def test_schema_of_matches_eval(self):
        for q in (
            Base("R"),
            Select(TRUE, Base("S")),
            Join(Base("R"), Base("S")),
            Distinct(Base("S")),
            Base("Q"),
            Join(Base("R"), Distinct(Base("Q"))),
        ):
            assert outcome(lambda: schema_of(q, DB)) == outcome(lambda: eval_query(q, DB).schema)

    def test_left_semi_join_differs(self):
        biased = Evaluator(join_mode="left-semi")
        got = biased.eval(Join(Base("R"), Base("S")), DB)
        assert got.schema == ("a", "b")  # drops the right extras
        assert got.rows == Counter({(1, 2): 2, (3, 2): 1})


def reference_eval(ev, q, db):
    """The evaluator as an isinstance chain that builds every relation through
    the validating constructor: the reference for the dispatch table."""
    if isinstance(q, Base):
        if q.name not in db:
            raise UnknownRelation(q.name)
        return db[q.name]
    if isinstance(q, Select):
        child = reference_eval(ev, q.child, db)
        rows = Counter()
        for row, count in child.rows.items():
            if q.pred.holds(child.schema, row):
                rows[row] += count
        return Relation(child.schema, rows)
    if isinstance(q, Join):
        left, right = reference_eval(ev, q.left, db), reference_eval(ev, q.right, db)
        shared = [a for a in left.schema if a in right.schema]
        left_idx = [left.schema.index(a) for a in shared]
        right_idx = [right.schema.index(a) for a in shared]
        extra = [i for i, a in enumerate(right.schema) if a not in left.schema]
        by_key = {}
        for row, count in right.rows.items():
            by_key.setdefault(tuple(row[i] for i in right_idx), []).append((row, count))
        rows = Counter()
        if ev.join_mode == "left-semi":
            for row, count in left.rows.items():
                if tuple(row[i] for i in left_idx) in by_key:
                    rows[row] += count
            return Relation(left.schema, rows)
        for lrow, lcount in left.rows.items():
            for rrow, rcount in by_key.get(tuple(lrow[i] for i in left_idx), ()):
                rows[lrow + tuple(rrow[i] for i in extra)] += lcount * rcount
        return Relation(left.schema + tuple(right.schema[i] for i in extra), rows)
    if isinstance(q, Distinct):
        child = reference_eval(ev, q.child, db)
        return Relation(child.schema, Counter(dict.fromkeys(child.rows, 1)))
    raise TypeError(f"not a query node: {q!r}")


ATTRS = ("a", "b", "c", "d", "e", "z")
PREDICATES = st.one_of(
    st.just(TRUE),
    st.builds(
        Predicate,
        st.sampled_from(("eq", "le", "lt")),
        st.sampled_from(ATTRS),
        st.one_of(st.integers(0, 9), st.sampled_from(STRING_POOL)),
    ),
)


def plan_trees(heads):
    """Plans with at most `heads` nested plan heads over named relations."""
    bases = st.sampled_from(("R", "S", "T", EMPTY_NAME, "Q")).map(Base)
    if heads == 0:
        return bases
    sub = plan_trees(heads - 1)
    return st.one_of(
        bases,
        st.builds(Select, PREDICATES, sub),
        st.builds(Join, sub, sub),
        st.builds(Distinct, sub),
    )


def sorted_bag_equal(left, right):
    """bag_equal modulo column order as both sides reordered into sorted order."""
    if set(left.schema) != set(right.schema):
        return False
    order = tuple(sorted(left.schema))
    return reordered(left, order).rows == reordered(right, order).rows


# an empty database and a one-row one; neither has T
EDGE_DBS = (
    {
        "R": Relation(("a", "b"), Counter()),
        "S": Relation(("b", "c"), Counter()),
        EMPTY_NAME: Relation(("e",), Counter()),
    },
    {
        "R": Relation(("a", "b"), Counter({(0, 0): 1})),
        "S": Relation(("b", "c"), Counter({(0, "oak"): 1})),
        EMPTY_NAME: Relation(("e",), Counter()),
    },
)


def swapped(q):
    """q with the operands of every join swapped: under the natural join,
    the same bag over permuted columns."""
    cls = type(q)
    if cls is Join:
        return Join(swapped(q.right), swapped(q.left))
    if cls is Select:
        return Select(q.pred, swapped(q.child))
    if cls is Distinct:
        return Distinct(swapped(q.child))
    return q


# bags over ("a", "c") with zero counts, which the constructor drops
BAGS = st.dictionaries(st.tuples(st.integers(0, 2), st.sampled_from("xy")), st.integers(0, 3), max_size=4)


class TestFastPathDifferential:
    @settings(max_examples=300, deadline=None)
    @given(plan=plan_trees(4), seed=st.integers(0, 2**32))
    # joins on no shared column, on one (a scalar key) and on two (a tuple key)
    @example(plan=Join(Base("R"), Base("T")), seed=1)
    @example(plan=Join(Base("R"), Base("S")), seed=1)
    @example(plan=Join(Base("R"), Base("R")), seed=1)
    def test_evaluators_match_the_reference(self, plan, seed):
        db = gen_database(seed)
        trusted = Relation.__dict__["_trusted"].__func__
        built = []

        def recording(cls, schema, counts):
            built.append(trusted(cls, schema, counts))
            return built[-1]

        for evaluator, _ in REL_MODES.values():
            with mock.patch.object(Relation, "_trusted", classmethod(recording)):
                got = outcome(lambda: evaluator.eval(plan, db))
            assert got == outcome(lambda: reference_eval(evaluator, plan, db))
        for rel in built:
            assert type(rel.schema) is tuple and isinstance(rel.rows, Counter)
            with pytest.raises(TypeError):
                rel.rows[()] = 1
            assert Relation(rel.schema, rel.rows) == rel
        # schema_of checks what eval checks short of the rows' values
        shape = outcome(lambda: schema_of(plan, db))
        result = outcome(lambda: CORRECT.eval(plan, db))
        if isinstance(result, Relation):
            assert shape == result.schema
        if isinstance(shape, type):
            assert isinstance(result, type)

    @settings(max_examples=300, deadline=None)
    @given(
        plan=plan_trees(4),
        other=plan_trees(4),
        kind=st.sampled_from(("itself", "swapped", "other")),
        db_index=st.sampled_from((None, 0, 1)),
        seed=st.integers(0, 2**32),
    )
    # permuted schemas, a predicate on a missing column, an unknown relation
    @example(plan=Join(Base("R"), Base("S")), other=Base("R"), kind="swapped", db_index=None, seed=1)
    @example(plan=Select(Predicate("eq", "z", 0), Base("S")), other=Base("S"), kind="other", db_index=None, seed=1)
    @example(plan=Join(Base("R"), Base("T")), other=Base("R"), kind="swapped", db_index=1, seed=1)
    def test_same_bag_is_bag_equal_of_the_relations(self, plan, other, kind, db_index, seed):
        # the trials compare (schema, rows) pairs; the verdict is bag_equal's
        # on the relations Evaluator.eval returns, False where either raises
        db = gen_database(seed) if db_index is None else EDGE_DBS[db_index]
        other = {"itself": plan, "swapped": swapped(plan), "other": other}[kind]
        for evaluator, _ in REL_MODES.values():
            want = outcome(lambda: bag_equal(evaluator.eval(plan, db), evaluator.eval(other, db)))
            if want in (SchemaMismatch, UnknownRelation):
                want = False
            assert relational._same_bag(evaluator, plan, other, db) is want

    @settings(max_examples=300, deadline=None)
    @given(left=BAGS, right=BAGS)
    def test_bag_equal_agrees_with_counter_equality(self, left, right):
        schema = ("a", "c")
        got = bag_equal(Relation(schema, Counter(left)), Relation(schema, Counter(right)))
        assert got == (Counter(left) == Counter(right))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_sided_reorder_matches_sorted_reorder(self, data):
        def columns():
            return tuple(data.draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3)))

        def relation(cols):
            row = st.tuples(*[st.integers(0, 2)] * len(cols))
            return Relation(cols, Counter(data.draw(st.dictionaries(row, st.integers(1, 2), max_size=3))))

        left = relation(columns())
        perm = tuple(data.draw(st.permutations(left.schema)))
        kind = data.draw(st.sampled_from(("permuted", "same columns", "any columns")))
        if kind == "permuted":
            right = reordered(left, perm)
        else:
            right = relation(perm if kind == "same columns" else columns())
        assert bag_equal(left, right) == sorted_bag_equal(left, right)


class TestOptimizer:
    def test_guarded_pushdown_fires_when_contained(self):
        q = Select(Predicate("eq", "a", 1), Join(Base("R"), Base("S")))
        pushed = CORRECT.optimize(q, bundled_rules(), DB)
        assert pushed == Join(Select(Predicate("eq", "a", 1), Base("R")), Base("S"))
        assert bag_equal(eval_query(q, DB), eval_query(pushed, DB))

    def test_guarded_pushdown_refuses_cross_references(self):
        q = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        assert CORRECT.optimize(q, bundled_rules(), DB) is q

    def test_guardless_pushdown_breaks_schemas(self):
        q = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        wrong = Evaluator(pushdown_guard=False).optimize(q, bundled_rules(), DB)
        assert wrong != q
        with pytest.raises(SchemaMismatch):
            eval_query(wrong, DB)

    def test_only_the_given_rules_fire(self):
        q = Select(Predicate("eq", "a", 1), Join(Base("R"), Base("S")))
        rules = {r.name: r for r in bundled_rules()}
        for evaluator in (CORRECT, Evaluator(pushdown_guard=False)):
            assert evaluator.optimize(q, (), DB) is q
            assert evaluator.optimize(q, [rules["select_idem"], rules["join_empty"]], DB) is q

    def test_the_first_rule_that_fires_wins(self):
        swap = RewriteRule("swap", parse_pattern("join(R,S)"), parse_pattern("join(S,R)"), parse_guard(""))
        rules = {r.name: r for r in bundled_rules()}
        q = Join(Base("R"), Base(EMPTY_NAME))
        assert CORRECT.optimize(q, [swap, rules["join_empty"]], DB) == Join(Base(EMPTY_NAME), Base("R"))
        assert CORRECT.optimize(q, [rules["join_empty"], swap], DB) == Base(EMPTY_NAME)

    def test_select_push_fires_the_rules_it_is_given(self):
        # without its guard the bundled pushdown breaks the correct evaluator's
        # plans whose predicate reads S's column
        pushdown = bundled_rules()[0]
        guardless = RewriteRule(pushdown.name, pushdown.lhs, pushdown.rhs, parse_guard("none"))
        outcomes = [
            run_rel_trial("rho_select-push", gen_database(SEED + k), Generator([SEED, k]), [guardless]).passed
            for k in range(50)
        ]
        assert not all(outcomes) and any(outcomes)


class TestRewriteRules:
    def test_bundle_roster(self):
        assert [r.name for r in bundled_rules()] == [
            "pushdown",
            "select_idem",
            "select_true",
            "join_empty",
        ]

    def test_bundled_rules_reuse_the_parsed_rules(self, monkeypatch):
        # reading the .alg parses each lhs and rhs once; the rules come from
        # that parse, not from a second one
        fields = [text for rule in bundled_rules() for text in rule_to_text(rule).split()[1:3]]
        fields = [text.split("=", 1)[1] for text in fields]
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_pattern(text)

        monkeypatch.setattr(plans, "parse_pattern", counting_parse)
        rules = bundled_rules()
        assert len(rules) == 4 and all(isinstance(r, RewriteRule) for r in rules)
        assert len(parsed) == 8 and sorted(parsed) == sorted(fields)

    def test_parsed_rule_travels_with_its_declaration(self):
        # the algebra holds the parsed rules; each equals the rule built from
        # its `.alg` line by hand, and prints back as that line
        lines = [
            line.split(None, 1)[1]
            for line in fixture_text("relational.alg").splitlines()
            if line.startswith("rewrite ")
        ]
        assert bundled_rules() == load_algebra("relational").semiring_rules
        for rule, line in zip(bundled_rules(), lines, strict=True):
            name, lhs, rhs, guard = [word.split("=", 1)[-1] for word in line.split(None, 3)]
            by_hand = RewriteRule(name, parse_pattern(lhs), parse_pattern(rhs), parse_guard(guard))
            assert rule == by_hand
            assert rule_to_text(rule) == line

    def test_pattern_parse_shapes(self):
        pat = parse_pattern("select(p, join(R, S))")
        assert pat == Select(Var("p"), Join(Var("R"), Var("S")))
        assert parse_pattern("empty") == Base(EMPTY_NAME)
        assert parse_pattern("true") is TRUE
        assert parse_pattern("join(R1,S)").left == Var("R1")
        assert parse_pattern("distinct(select(true,join(R,empty)))") == Distinct(
            Select(TRUE, Join(Var("R"), Base(EMPTY_NAME)))
        )
        with pytest.raises(ValueError):
            parse_pattern("select(p, join(R, S)) extra")

    def test_a_parse_leaves_no_garbage_cycle(self):
        # the nested parser refers to itself; each parse must end that cycle
        gc.collect()
        gc.disable()
        try:
            parse_pattern("distinct(select(p,join(R,empty)))")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unbound_variables_are_a_value_error(self):
        lhs = parse_pattern("select(p,R)")
        with pytest.raises(ValueError, match="uses Q, which lhs does not bind"):
            RewriteRule("r", lhs, parse_pattern("select(p,Q)"), parse_guard("none"))
        with pytest.raises(ValueError, match="uses S, which lhs does not bind"):
            RewriteRule("r", lhs, lhs, parse_guard("attrs(p) subset attrs(S)"))

    def test_p_stands_only_for_a_predicate(self):
        def swap(var):
            lhs, rhs = parse_pattern(f"join({var},S)"), parse_pattern(f"join(S,{var})")
            return RewriteRule("swap", lhs, rhs, parse_guard("none"))

        with pytest.raises(ValueError, match="^p stands for both a predicate and a plan$"):
            swap("p")
        q = Join(Base("R"), Base("S"))
        assert CORRECT.optimize(q, [swap("X")], DB) == Join(Base("S"), Base("R"))

    def test_a_repeated_variable_matches_equal_parts_only(self):
        idem = {r.name: r for r in bundled_rules()}["select_idem"]
        same, other = Predicate("eq", "b", 2), Predicate("eq", "b", 3)
        assert CORRECT.optimize(Select(same, Select(same, Base("S"))), [idem], DB) == Select(same, Base("S"))
        q = Select(other, Select(same, Base("S")))
        assert CORRECT.optimize(q, [idem], DB) is q

    @pytest.mark.parametrize(
        "text",
        (
            "",
            "join(R",
            "join(R,",
            "join(",
            "join(,R)",
            "(",
            "join(R S)",
            "join(R$,S)",
            "selct(p,R)",
            "join(R)",
            "distinct(R,S)",
            pytest.param("join(" * 2000 + "R" + ",S)" * 2000, id="2000-deep"),
        ),
    )
    def test_truncated_or_misplaced_input_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="bad pattern"):
            parse_pattern(text)

    def test_heads_nest_at_most_max_pattern_depth(self):
        def nested(depth):
            return "distinct(" * depth + "R" + ")" * depth

        plan = parse_pattern(nested(MAX_PATTERN_DEPTH))
        for _ in range(MAX_PATTERN_DEPTH):
            plan = plan.child
        assert plan == Var("R")
        with pytest.raises(ValueError, match=f"nesting deeper than {MAX_PATTERN_DEPTH} levels"):
            parse_pattern(nested(MAX_PATTERN_DEPTH + 1))

    def test_select_idempotence_rewrite(self):
        rules = bundled_rules()
        pred = Predicate("eq", "b", 2)
        twice = Select(pred, Select(pred, Base("S")))
        assert rewrite_once(twice, rules, DB) == Select(pred, Base("S"))

    def test_select_true_rewrite(self):
        rules = bundled_rules()
        assert rewrite_once(Select(TRUE, Base("R")), rules, DB) == Base("R")

    def test_join_empty_rewrite(self):
        rules = bundled_rules()
        got = rewrite_once(Join(Base("R"), Base(EMPTY_NAME)), rules, DB)
        assert got == Base(EMPTY_NAME)

    def test_rules_fire_below_the_root(self):
        idem = {r.name: r for r in bundled_rules()}["select_idem"]
        pred = Predicate("eq", "b", 2)
        plan = Distinct(Select(pred, Select(pred, Base("R"))))
        assert CORRECT.optimize(plan, [idem], DB) is plan
        assert rewrite_once(plan, [idem], DB) == Distinct(Select(pred, Base("R")))

    def test_pushdown_guard_respected_by_rule(self):
        pushdown = [{r.name: r for r in bundled_rules()}["pushdown"]]
        ok = Select(Predicate("eq", "a", 1), Join(Base("R"), Base("S")))
        fired = CORRECT.optimize(ok, pushdown, DB)
        assert fired == Join(Select(Predicate("eq", "a", 1), Base("R")), Base("S"))
        crossing = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        assert CORRECT.optimize(crossing, pushdown, DB) is crossing
        assert rewrite_once(crossing, pushdown, DB) == crossing

    @pytest.mark.parametrize("seed", range(8))
    def test_rules_hold_on_generated_databases(self, seed):
        assert check_rules_on_db(gen_database(seed), seed) == []

    def test_rules_hold_on_tiny_edge_databases(self):
        for db in EDGE_DBS:
            assert check_rules_on_db(db) == []


def reference_gen_database(seed):
    """gen_database as closures that draw each row into a Counter, passed
    through the validating constructor: the reference for the direct draw."""
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


class TestGeneratedDatabases:
    def test_matches_the_reference_draw(self):
        for seed in range(200):
            got, want = gen_database(seed), reference_gen_database(seed)
            assert list(got) == list(want)
            for name, rel in got.items():
                assert rel.schema == want[name].schema and rel.rows == want[name].rows
                assert isinstance(rel.rows, Counter)
                with pytest.raises(TypeError):
                    rel.rows[()] = 1
                assert Relation(rel.schema, rel.rows) == rel

    def test_shape(self):
        db = gen_database(3)
        assert set(db) == {"R", "S", "T", EMPTY_NAME}
        assert db["R"].schema == ("a", "b")
        assert db["S"].schema == ("b", "c")
        assert db["T"].schema == ("c", "d")
        assert not db[EMPTY_NAME].rows
        for name in ("R", "S", "T"):
            assert 1 <= sum(db[name].rows.values()) <= 4

    def test_deterministic(self):
        assert gen_database(9) == gen_database(9)
        assert gen_database(9) != gen_database(10)


# frozen per-MR (passes, fails) tables over 100 trials at the pinned seed
CLEAN_TABLE = {mr: (100, 0) for mr in REL_MR_NAMES}
BIASED_TABLE = {
    "rho_join-comm": (0, 100),
    "rho_select-push": (74, 26),
    "rho_distinct-idem": (100, 0),
    "rho_plan-equiv": (65, 35),
}
GUARDLESS_TABLE = {
    "rho_join-comm": (100, 0),
    "rho_select-push": (65, 35),
    "rho_distinct-idem": (100, 0),
    "rho_plan-equiv": (100, 0),
}


class TestTrials:
    def test_clean_evaluator_passes_everything(self):
        assert run_rel_mrs(SEED, 100) == CLEAN_TABLE

    def test_biased_join_caught_every_trial_by_commutativity(self):
        got = run_rel_mrs(SEED, 100, Evaluator(join_mode="left-semi"))
        assert got == BIASED_TABLE
        assert got["rho_join-comm"][1] == 100  # the targeted relation

    def test_guardless_pushdown_caught_by_the_push_relation(self):
        got = run_rel_mrs(SEED, 100, Evaluator(pushdown_guard=False))
        assert got == GUARDLESS_TABLE
        assert got["rho_select-push"][1] > 0

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            run_rel_mrs(SEED, 0)
        with pytest.raises(ValueError):
            run_rel_trial("rho_bogus", gen_database(0), Generator(0), ())

    def test_deterministic(self):
        assert run_rel_mrs(SEED, 25) == run_rel_mrs(SEED, 25)


def reference_run_rel_mrs(db_seed, trials, evaluator):
    """One evaluator's run drawing its own databases: the loop that
    `run_rel_modes` shares across evaluators."""
    counts = {mr: [0, 0] for mr in REL_MR_NAMES}
    rules = bundled_rules()
    for k in range(trials):
        db, rng = gen_database(db_seed + k), Generator([db_seed, k])
        for mr in REL_MR_NAMES:
            counts[mr][0 if run_rel_trial(mr, db, rng, rules, evaluator).passed else 1] += 1
    return {mr: tuple(pf) for mr, pf in counts.items()}


class TestSharedDatabases:
    """`run_rel_modes` draws each database once for all its evaluators."""

    @pytest.mark.parametrize("seed", (0, 3, 11, SEED))
    @pytest.mark.parametrize("trials", (1, 25, 100))
    def test_matches_one_run_per_evaluator(self, seed, trials):
        biased = REL_MODES["biased-join"][0]
        evaluators = (CORRECT, biased, REL_MODES["guardless-pushdown"][0], biased)
        got = run_rel_modes(seed, trials, evaluators)
        assert got == [run_rel_mrs(seed, trials, e) for e in evaluators]
        assert got == [reference_run_rel_mrs(seed, trials, e) for e in evaluators]

    def test_reproduce_draws_each_database_once(self, monkeypatch, tmp_path):
        calls = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("gen_database", "bundled_rules"):
            monkeypatch.setattr(relational, name, counted(getattr(relational, name)))
        assert cli.main(["reproduce", "--format", "machine", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert calls == {"gen_database": 100, "bundled_rules": 1}


class TestRewritesFireOncePerRun:
    """A run fires each rewrite once per distinct plan, and forgets what it
    fired when it ends."""

    def test_a_fixture_swap_between_runs_takes_effect(self, monkeypatch, tmp_path):
        text = fixture_text("relational.alg")
        assert "rewrite pushdown " in text
        kept = [line for line in text.splitlines() if not line.startswith("rewrite pushdown ")]
        (tmp_path / "relational.alg").write_text("\n".join(kept) + "\n", encoding="utf-8")
        guardless = Evaluator(pushdown_guard=False)
        assert run_rel_mrs(SEED, 100, guardless) == GUARDLESS_TABLE
        monkeypatch.setenv("NOETHER_FIXTURES", str(tmp_path))
        # with no pushdown rule the guardless evaluator has nothing to misfire
        assert run_rel_mrs(SEED, 100, guardless)["rho_select-push"] == (100, 0)
        monkeypatch.delenv("NOETHER_FIXTURES")
        assert run_rel_mrs(SEED, 100, guardless) == GUARDLESS_TABLE

    def test_each_run_fires_its_own_rewrites(self, monkeypatch):
        calls, drawn = Counter(), set()

        def counted(name, fn):
            depth = [0]  # rewrite_once calls itself through the module name

            def wrapper(*args, **kwargs):
                if not depth[0]:
                    calls[name] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        def recording(rng, over):
            pred = draw(rng, over)
            if over == ("b", "c"):  # rho_distinct-idem's draw
                drawn.add(pred)
            return pred

        draw = relational._random_predicate
        monkeypatch.setattr(relational, "_random_predicate", recording)
        monkeypatch.setattr(relational, "rewrite_once", counted("rewrite_once", rewrite_once))
        for name in ("optimize", "eval"):
            monkeypatch.setattr(Evaluator, name, counted(name, getattr(Evaluator, name)))
        for _ in range(2):
            calls.clear()
            drawn.clear()
            assert run_rel_mrs(SEED, 100) == CLEAN_TABLE
            assert set(calls) == {"rewrite_once", "optimize", "eval"} and min(calls.values()) >= 1
            assert calls["rewrite_once"] <= len(drawn) < 100
        # a trial given no memo fires the rules itself, every time
        calls.clear()
        for _ in range(2):
            run_rel_trial("rho_distinct-idem", gen_database(SEED), Generator([SEED, 0]), bundled_rules())
        assert calls["rewrite_once"] == 2


class TestPlanSyntaxIsShared:
    """`relational` evaluates the plans of `plans`: it finds a node's
    evaluator and matches a pattern by `type(node) is cls`, so each plan
    class it reads must be the very class the rules are parsed into."""

    @pytest.mark.parametrize(
        "name",
        ("Base", "Select", "Join", "Distinct", "Predicate", "Var", "SchemaMismatch", "UnknownRelation", "_FIELDS"),
    )
    def test_relational_reads_the_plan_syntax(self, name):
        assert getattr(relational, name) is getattr(plans, name)

    def test_every_plan_class_has_an_evaluator(self):
        assert set(relational._EVAL) == {Base, *plans._HEADS.values()}

    def test_cli_mode_names_are_the_mode_table(self):
        assert cli.REL_MODE_NAMES == tuple(REL_MODES)
