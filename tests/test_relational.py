"""Relational mini-evaluator tests: bag semantics, rewrites, MR trials."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether import relational
from noether._rng import Generator
from noether.algebra import RewriteDecl
from noether.cli import REL_MODES
from noether.relational import (
    CORRECT,
    EMPTY_NAME,
    REL_MR_NAMES,
    STRING_POOL,
    Base,
    Distinct,
    Evaluator,
    Join,
    Predicate,
    Project,
    Relation,
    RewriteRule,
    Select,
    SchemaMismatch,
    TRUE,
    UnionAll,
    UnknownRelation,
    apply_rule,
    bag_equal,
    bundled_rules,
    eval_query,
    gen_database,
    parse_guard,
    parse_pattern,
    rewrite_once,
    run_rel_mrs,
    run_rel_trial,
    schema_of,
)
from noether.zoo import load_algebra

SEED = 20260816

R = Relation(("a", "b"), Counter({(1, 2): 2, (3, 2): 1}))
S = Relation(("b", "c"), Counter({(2, "oak"): 3, (4, "elm"): 1}))
DB = {"R": R, "S": S, EMPTY_NAME: Relation(("e",), Counter())}


def check_rules_on_db(db, seed=0):
    """Violations of `eval(lhs) == eval(rhs)` for every bundled rule on db.

    Each rule's lhs is instantiated with concrete bindings drawn over the
    database's base relations and a sampled predicate, then rewritten by
    `apply_rule`, so the guard is honored.
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


def outcome(compute):
    """compute()'s value, or the type of the exception it raised."""
    try:
        return compute()
    except Exception as exc:  # the differential tests compare error types
        return type(exc)


class TestRelationBasics:
    def test_row_arity_checked(self):
        with pytest.raises(SchemaMismatch):
            Relation(("a",), Counter({(1, 2): 1}))

    def test_repeated_column_name_rejected(self):
        # a sorted reorder maps both (1, 2) and (1, 3) over ("a", "a") to (1, 1)
        with pytest.raises(SchemaMismatch):
            Relation(("a", "a"), Counter({(1, 2): 1}))

    def test_size_counts_multiplicity(self):
        assert R.size == 3

    def test_reordered_permutes_columns(self):
        flipped = R.reordered(("b", "a"))
        assert flipped.schema == ("b", "a")
        assert flipped.rows == Counter({(2, 1): 2, (2, 3): 1})
        with pytest.raises(SchemaMismatch):
            R.reordered(("a", "z"))

    def test_bag_equal_modulo_column_order(self):
        flipped = R.reordered(("b", "a"))
        assert not bag_equal(R, flipped)
        assert bag_equal(R, flipped, modulo_column_order=True)
        other = Relation(("a", "c"), Counter({(1, 2): 2, (3, 2): 1}))
        assert not bag_equal(R, other, modulo_column_order=True)

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

    def test_project_keeps_multiplicity(self):
        got = eval_query(Project(("b",), Base("R")), DB)
        assert got.schema == ("b",)
        assert got.rows == Counter({(2,): 3})

    def test_project_absent_attribute(self):
        with pytest.raises(SchemaMismatch):
            eval_query(Project(("z",), Base("R")), DB)

    def test_project_repeated_attribute(self):
        with pytest.raises(SchemaMismatch):
            eval_query(Project(("a", "a"), Base("R")), DB)

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
        assert got.size == 0
        assert got.schema == ("a", "b", "e")  # disjoint schemas cross

    def test_project_over_empty(self):
        got = eval_query(Project(("e",), Base(EMPTY_NAME)), DB)
        assert got.size == 0 and got.schema == ("e",)

    def test_union_all_adds_bags(self):
        got = eval_query(UnionAll(Base("R"), Base("R")), DB)
        assert got.rows == Counter({(1, 2): 4, (3, 2): 2})
        with pytest.raises(SchemaMismatch):
            eval_query(UnionAll(Base("R"), Base("S")), DB)

    def test_distinct_collapses_and_is_idempotent(self):
        once = eval_query(Distinct(Base("R")), DB)
        assert once.rows == Counter({(1, 2): 1, (3, 2): 1})
        twice = eval_query(Distinct(Distinct(Base("R"))), DB)
        assert bag_equal(once, twice)

    def test_schema_of_matches_eval(self):
        for q in (
            Base("R"),
            Select(TRUE, Base("S")),
            Project(("a",), Base("R")),
            Join(Base("R"), Base("S")),
            Distinct(Base("S")),
            UnionAll(Base("R"), Base("R")),
            Base("Q"),
            Project(("z",), Base("R")),
            Project(("a", "a"), Base("R")),
            UnionAll(Base("R"), Base("S")),
            Join(Base("R"), Project(("z",), Base("S"))),
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
    if isinstance(q, Project):
        child = reference_eval(ev, q.child, db)
        missing = [a for a in q.attrs if a not in child.schema]
        if missing:
            raise SchemaMismatch(f"projection of absent attributes {missing}")
        index = [child.schema.index(a) for a in q.attrs]
        rows = Counter()
        for row, count in child.rows.items():
            rows[tuple(row[i] for i in index)] += count
        return Relation(tuple(q.attrs), rows)
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
    if isinstance(q, UnionAll):
        left, right = reference_eval(ev, q.left, db), reference_eval(ev, q.right, db)
        if left.schema != right.schema:
            raise SchemaMismatch(f"union schemas differ: {left.schema} vs {right.schema}")
        return Relation(left.schema, left.rows + right.rows)
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


def plans(heads):
    """Plans with at most `heads` nested plan heads over named relations."""
    bases = st.sampled_from(("R", "S", "T", EMPTY_NAME, "Q")).map(Base)
    if heads == 0:
        return bases
    sub = plans(heads - 1)
    return st.one_of(
        bases,
        st.builds(Select, PREDICATES, sub),
        st.builds(Project, st.lists(st.sampled_from(ATTRS), max_size=3).map(tuple), sub),
        st.builds(Join, sub, sub),
        st.builds(UnionAll, sub, sub),
        st.builds(Distinct, sub),
    )


def sorted_bag_equal(left, right):
    """bag_equal modulo column order as both sides reordered into sorted order."""
    if set(left.schema) != set(right.schema):
        return False
    order = tuple(sorted(left.schema))
    return left.reordered(order).rows == right.reordered(order).rows


class TestFastPathDifferential:
    @settings(max_examples=300, deadline=None)
    @given(plan=plans(4), seed=st.integers(0, 2**32))
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
            assert type(rel.schema) is tuple and type(rel.rows) is Counter
            assert Relation(rel.schema, rel.rows) == rel
        # schema_of checks what eval checks short of the rows' values
        shape = outcome(lambda: schema_of(plan, db))
        result = outcome(lambda: CORRECT.eval(plan, db))
        if isinstance(result, Relation):
            assert shape == result.schema
        if isinstance(shape, type):
            assert isinstance(result, type)

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
            right = left.reordered(perm)
        else:
            right = relation(perm if kind == "same columns" else columns())
        assert bag_equal(left, right, modulo_column_order=True) == sorted_bag_equal(left, right)


class TestOptimizer:
    def test_guarded_pushdown_fires_when_contained(self):
        q = Select(Predicate("eq", "a", 1), Join(Base("R"), Base("S")))
        pushed = CORRECT.optimize(q, DB)
        assert pushed == Join(Select(Predicate("eq", "a", 1), Base("R")), Base("S"))
        assert bag_equal(eval_query(q, DB), eval_query(pushed, DB))

    def test_guarded_pushdown_refuses_cross_references(self):
        q = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        assert CORRECT.optimize(q, DB) == q

    def test_guardless_pushdown_breaks_schemas(self):
        q = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        wrong = Evaluator(pushdown_guard=False).optimize(q, DB)
        assert wrong != q
        with pytest.raises(SchemaMismatch):
            eval_query(wrong, DB)


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
        fields = [text for d in load_algebra("relational").semiring_rules for text in (d.lhs, d.rhs)]
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_pattern(text)

        monkeypatch.setattr(relational, "parse_pattern", counting_parse)
        rules = bundled_rules()
        assert len(rules) == 4 and all(isinstance(r, relational.RewriteRule) for r in rules)
        assert len(parsed) == 8 and sorted(parsed) == sorted(fields)

    def test_parsed_rule_travels_with_its_declaration(self):
        for rule, decl in zip(bundled_rules(), load_algebra("relational").semiring_rules):
            by_hand = RewriteDecl(decl.name, decl.lhs, decl.rhs, decl.guard)
            parsed = RewriteRule(
                decl.name, parse_pattern(decl.lhs), parse_pattern(decl.rhs), parse_guard(decl.guard)
            )
            assert decl.rule == rule == parsed
            assert decl == by_hand  # the carried rule takes no part in equality

    def test_pattern_parse_shapes(self):
        pat = parse_pattern("select(p, join(R, S))")
        assert pat.head == "select"
        assert pat.children[0].head == "predvar"
        assert pat.children[1].head == "join"
        assert pat.children[1].children[1].name == "S"
        assert parse_pattern("empty").head == "empty"
        assert parse_pattern("true").head == "true"
        assert parse_pattern("join(R1,S)").children[0].name == "R1"
        with pytest.raises(ValueError):
            parse_pattern("select(p, join(R, S)) extra")

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

    def test_project_rules_fire_below_the_root(self):
        rule = RewriteRule(
            "project_idem",
            parse_pattern("project(A,project(A,R))"),
            parse_pattern("project(A,R)"),
            parse_guard(""),
        )
        attrs = ("a",)
        plan = Distinct(Project(attrs, Project(attrs, Base("R"))))
        assert rewrite_once(plan, [rule], DB) == Distinct(Project(attrs, Base("R")))

    def test_pushdown_guard_respected_by_rule(self):
        rules = {r.name: r for r in bundled_rules()}
        ok = Select(Predicate("eq", "a", 1), Join(Base("R"), Base("S")))
        fired = apply_rule(rules["pushdown"], ok, DB)
        assert fired == Join(Select(Predicate("eq", "a", 1), Base("R")), Base("S"))
        crossing = Select(Predicate("eq", "c", "oak"), Join(Base("R"), Base("S")))
        assert apply_rule(rules["pushdown"], crossing, DB) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_rules_hold_on_generated_databases(self, seed):
        assert check_rules_on_db(gen_database(seed), seed) == []

    def test_rules_hold_on_tiny_edge_databases(self):
        empty_db = {
            "R": Relation(("a", "b"), Counter()),
            "S": Relation(("b", "c"), Counter()),
            EMPTY_NAME: Relation(("e",), Counter()),
        }
        assert check_rules_on_db(empty_db) == []
        singleton = {
            "R": Relation(("a", "b"), Counter({(0, 0): 1})),
            "S": Relation(("b", "c"), Counter({(0, "oak"): 1})),
            EMPTY_NAME: Relation(("e",), Counter()),
        }
        assert check_rules_on_db(singleton) == []


class TestGeneratedDatabases:
    def test_shape(self):
        db = gen_database(3)
        assert set(db) == {"R", "S", "T", EMPTY_NAME}
        assert db["R"].schema == ("a", "b")
        assert db["S"].schema == ("b", "c")
        assert db["T"].schema == ("c", "d")
        assert db[EMPTY_NAME].size == 0
        for name in ("R", "S", "T"):
            assert 1 <= db[name].size <= 4

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
