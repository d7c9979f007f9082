"""Relational mini-evaluator tests: bag semantics, rewrites, MR trials."""

from collections import Counter

import pytest

from noether.algebra import RewriteDecl
from noether.relational import (
    CORRECT,
    EMPTY_NAME,
    REL_MR_NAMES,
    Base,
    Distinct,
    Evaluator,
    Join,
    Predicate,
    Project,
    Relation,
    Select,
    SchemaMismatch,
    TRUE,
    UnionAll,
    UnknownRelation,
    apply_rule,
    bag_equal,
    bundled_rules,
    check_rules_on_db,
    compile_rule,
    eval_query,
    gen_database,
    parse_pattern,
    rewrite_once,
    run_rel_mrs,
    run_rel_trial,
    schema_of,
)

SEED = 20260816

R = Relation(("a", "b"), Counter({(1, 2): 2, (3, 2): 1}))
S = Relation(("b", "c"), Counter({(2, "oak"): 3, (4, "elm"): 1}))
DB = {"R": R, "S": S, EMPTY_NAME: Relation(("e",), Counter())}


class TestRelationBasics:
    def test_row_arity_checked(self):
        with pytest.raises(SchemaMismatch):
            Relation(("a",), Counter({(1, 2): 1}))

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
        ):
            assert schema_of(q, DB) == eval_query(q, DB).schema

    def test_left_semi_join_differs(self):
        biased = Evaluator(join_mode="left-semi")
        got = biased.eval(Join(Base("R"), Base("S")), DB)
        assert got.schema == ("a", "b")  # drops the right extras
        assert got.rows == Counter({(1, 2): 2, (3, 2): 1})


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
        rule = compile_rule(RewriteDecl("project_idem", "project(A,project(A,R))", "project(A,R)"))
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
        import numpy as np

        with pytest.raises(ValueError):
            run_rel_trial("rho_bogus", gen_database(0), np.random.default_rng(0), ())

    def test_deterministic(self):
        assert run_rel_mrs(SEED, 25) == run_rel_mrs(SEED, 25)
