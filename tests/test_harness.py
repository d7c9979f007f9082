"""Harness tests: tuple generation, kill experiments, coverage, verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether._record import replace
from noether.algebra import BlockKind, CANONICAL_ORDER, OperatorAlgebra
from noether.harness import (
    DEFAULT_BUDGET,
    DEFAULT_TOLERANCE,
    EmptyMetaPatternSet,
    KillSummary,
    OrderMR,
    ScalingMR,
    SymmetryMR,
    build_standard_mrs,
    check_mr,
    concordance_check,
    coverage,
    falsification_verdict,
    generate_tuples,
    mutant_id,
    run_blindness_experiment,
    run_kill_experiment,
    scaling_mr_name,
)
from noether.minilang import compile_program
from noether.mutate import MutatorCategory, mutate
from noether.reachability import check_reachability
from noether.specfile import HEADER, parse_sut_file
from noether.zoo import (
    SCALING_BUDGET,
    SUT_G_ACTIONS,
    SUT_ORDER_SPECS,
    load_algebra,
    load_descriptor,
    load_mutator_config,
    load_zoo,
    scaling_sample,
)

ZOO = load_zoo()
SEED = 20260816


def sut_from(text):
    return parse_sut_file(f"{HEADER}\n{text}")[0]


def standard_mr(name):
    mrs = [mr for mr in build_standard_mrs(ZOO) if mr.name == name]
    assert len(mrs) == 1, name
    return mrs[0]


# --- tuple generation -----------------------------------------------------------


class TestGenerateTuples:
    def test_deterministic_per_seed_and_name(self):
        mr = standard_mr("midpoint:G:negate-all")
        assert generate_tuples(mr, 7) == generate_tuples(mr, 7)
        assert generate_tuples(mr, 7) != generate_tuples(mr, 8)

    def test_scaling_tuples_are_name_independent_and_shared_with_the_tagger(self):
        mr = standard_mr("midpoint:L_scale")
        renamed = replace(mr, name="anything-else")
        assert generate_tuples(mr, SEED) == generate_tuples(renamed, SEED)
        pairs = scaling_sample(ZOO["midpoint"], SEED, mr.sample_budget)
        got = generate_tuples(mr, SEED)
        assert [(g.members[0], g.scale) for g in got] == pairs
        for g in got:
            assert g.members[1] == tuple(g.scale * a for a in g.members[0])

    def test_flip_actions_sample_away_from_fixed_points(self):
        mr = standard_mr("signum:G:sign-flip")
        for group in generate_tuples(mr, SEED):
            assert group.members[0][0] != 0.0

    def test_shift_offsets_are_never_zero(self):
        mr = standard_mr("isSequence:G:shift-all")
        for group in generate_tuples(mr, SEED):
            base, moved = group.members
            offset = moved[0] - base[0]
            assert offset != 0.0
            assert all(m - b == offset for b, m in zip(base, moved))

    def test_order_tuples_bump_one_coordinate_upward(self):
        mr = standard_mr("clamp:O_le")
        coord = SUT_ORDER_SPECS["clamp"].coordinate
        for group in generate_tuples(mr, SEED):
            lo, hi = group.members
            assert hi[coord] > lo[coord]
            assert lo[1] <= lo[2]  # the declared cone
            others = [i for i in range(len(lo)) if i != coord]
            assert all(lo[i] == hi[i] for i in others)

    def test_scaling_mr_rejects_a_subject_without_homogeneity(self):
        no_hyp = sut_from("sut f(x) blocks=L_star\nreturn x")
        with pytest.raises(ValueError, match="homogeneity"):
            ScalingMR("q", no_hyp)
        with pytest.raises(ValueError, match="homogeneity"):
            replace(standard_mr("midpoint:L_scale"), decl=no_hyp)

    def test_bindings_are_required_at_construction(self):
        decl = ZOO["midpoint"]
        with pytest.raises(TypeError):
            SymmetryMR("q", decl)  # no action
        with pytest.raises(TypeError):
            OrderMR("q", decl)  # no order spec
        with pytest.raises(TypeError):
            ScalingMR("q")  # no subject

    def test_validation(self):
        # the budget is the type's, not the caller's
        with pytest.raises(TypeError):
            SymmetryMR("q", ZOO["midpoint"], SUT_G_ACTIONS["midpoint"][0], sample_budget=-1)
        with pytest.raises(TypeError, match="ScalingMR has no field sample_budget"):
            replace(standard_mr("midpoint:L_scale"), sample_budget=20)
        assert SymmetryMR.sample_budget == OrderMR.sample_budget == DEFAULT_BUDGET

    def test_each_type_declares_its_block(self):
        assert standard_mr("midpoint:G:negate-all").block is BlockKind.G
        assert standard_mr("midpoint:O_le").block is BlockKind.O_LE
        assert standard_mr("midpoint:L_scale").block is BlockKind.L_STAR


# --- assertion checking ----------------------------------------------------------


class TestCheckMr:
    def test_standard_suite_is_green_on_unmutated_subjects(self):
        mrs = build_standard_mrs(ZOO)
        assert len(mrs) == 23
        for mr in mrs:
            fn = compile_program(mr.decl.program)
            assert check_mr(mr, fn, generate_tuples(mr, SEED)).passed, mr.name

    def test_standard_suite_composition(self):
        names = {mr.name for mr in build_standard_mrs(ZOO)}
        for sut, actions in SUT_G_ACTIONS.items():
            for action in actions:
                assert f"{sut}:G:{action.name}" in names
        for sut in SUT_ORDER_SPECS:
            assert f"{sut}:O_le" in names
        assert {n for n in names if n.endswith(":L_scale")} == {
            "midpoint:L_scale",
            "clamp:L_scale",
            "signum:L_scale",
            "gcdSig:L_scale",
            "lcmSig:L_scale",
            "hypotSig:L_scale",
        }
        assert "gcdSig:O_le" not in names  # no executable order encoding

    def test_scaling_budget_is_the_shared_one(self):
        mr = standard_mr("gcdSig:L_scale")
        assert mr.sample_budget == ScalingMR.sample_budget == SCALING_BUDGET

    def test_constant_output_fails_the_scaling_relation(self):
        decl = sut_from(
            "sut flat(x) blocks=L_star homogeneity=positive-scale-invariant\nreturn 3"
        )
        mr = ScalingMR("flat:L_scale", decl)
        verdict = check_mr(mr, compile_program(decl.program), generate_tuples(mr, SEED))
        assert not verdict.passed
        assert "fixed output" in verdict.failure

    def test_domain_errors_fail_the_relation(self):
        decl = sut_from("sut root(x) blocks=G\nreturn sqrt(x)")
        mr = SymmetryMR("root:G:flip", decl, SUT_G_ACTIONS["signum"][0])
        verdict = check_mr(mr, compile_program(decl.program), generate_tuples(mr, SEED))
        assert not verdict.passed
        assert "domain error" in verdict.failure

    def test_order_violation_detected(self):
        decl = sut_from("sut down(x) blocks=O_le\nreturn 0 - x")
        mr = OrderMR("down:O_le", decl, SUT_ORDER_SPECS["midpoint"])
        assert not check_mr(mr, compile_program(decl.program), generate_tuples(mr, SEED)).passed


# --- kill experiment --------------------------------------------------------------


class TestKillExperiment:
    def test_red_baselines_are_excluded_not_fatal(self):
        decl = sut_from(
            "sut flat(x) blocks=L_star homogeneity=positive-scale-invariant\nreturn 3"
        )
        red = ScalingMR("flat:L_scale", decl)
        mrs = [standard_mr("midpoint:G:negate-all"), red]
        matrix = run_kill_experiment(mrs, mutate(ZOO["midpoint"], seed=SEED), SEED)
        assert matrix.mr_names == ("midpoint:G:negate-all",)
        assert len(matrix.excluded) == 1
        assert matrix.excluded[0][:2] == ("flat:L_scale", "flat")

    def test_cross_subject_pairs_are_absent(self):
        mrs = [standard_mr("signum:L_scale")]
        mutants = mutate(ZOO["midpoint"], seed=SEED)
        matrix = run_kill_experiment(mrs, mutants, SEED)
        assert matrix.mr_names == ("signum:L_scale",)
        assert matrix.cells == {}

    def test_matrix_bookkeeping(self):
        mrs = {mr.name: mr for mr in build_standard_mrs(ZOO) if mr.sut_name == "midpoint"}
        mutants = {mutant_id(m): m for m in mutate(ZOO["midpoint"], seed=SEED)}
        matrix = run_kill_experiment(list(mrs.values()), list(mutants.values()), SEED)
        assert matrix.cells
        for (name, mid), witness in matrix.cells.items():
            # each witness is the failure text a rerun of the check reproduces
            fn = compile_program(mutants[mid].decl.program)
            groups = generate_tuples(mrs[name], SEED)
            assert witness and check_mr(mrs[name], fn, groups).failure == witness


# --- coverage ----------------------------------------------------------------------


class TestCoverage:
    @pytest.mark.parametrize(
        "refs,expected",
        [
            (
                ("rho_rot", "rho_mono", "rho_adj", "rho_train_rev", "rho_train"),
                Fraction(1),
            ),
            (("rho_rot", "rho_train"), Fraction(2, 5)),
            (("rho_train",), Fraction(1, 5)),
        ],
    )
    def test_descriptor_set_goldens(self, refs, expected):
        algebra = load_algebra("equivariant")
        blocks = [
            check_reachability(load_descriptor(r), algebra).assigned_block for r in refs
        ]
        assert coverage(blocks, algebra) == expected

    def test_accepts_mixed_block_carriers(self):
        # an MR's block and a bare block count once between them
        algebra = load_algebra("equivariant")
        mr = standard_mr("midpoint:G:negate-all")
        assert coverage([mr.block], algebra) == Fraction(1, 5)
        assert coverage([mr.block, BlockKind.G], algebra) == Fraction(1, 5)

    def test_empty_pattern_set_rejected(self):
        void = OperatorAlgebra(name="void", operators=(), generators=())
        with pytest.raises(EmptyMetaPatternSet):
            coverage([BlockKind.G], void)

    @given(
        st.frozensets(st.sampled_from(tuple(CANONICAL_ORDER)), max_size=8),
        st.sampled_from(tuple(CANONICAL_ORDER)),
    )
    @settings(max_examples=100)
    def test_monotone_in_the_mr_set(self, blocks, extra):
        algebra = load_algebra("boltzmann")
        base = coverage(blocks, algebra)
        more = coverage(set(blocks) | {extra}, algebra)
        assert more >= base
        assert Fraction(0) <= base <= Fraction(1)


# --- falsification verdict -----------------------------------------------------------


def summary(sut, kills, mutants, rescued=True):
    return KillSummary(sut=sut, kills=kills, mutants=mutants, all_killed_breaking=rescued)


class TestFalsificationVerdict:
    def test_no_outliers_passes(self):
        assert falsification_verdict([summary("a", 1, 10), summary("b", 2, 10)]) == "pass"

    def test_single_unrescued_outlier_passes(self):
        got = falsification_verdict(
            [summary("a", 5, 10, rescued=False), summary("b", 0, 10)]
        )
        assert got == "pass"

    def test_two_unrescued_outliers_falsify(self):
        got = falsification_verdict(
            [summary("a", 5, 10, rescued=False), summary("b", 4, 10, rescued=False)]
        )
        assert got == "falsified"

    def test_rescue_clause_saves_outliers(self):
        got = falsification_verdict(
            [summary("a", 9, 10), summary("b", 10, 10), summary("c", 8, 10)]
        )
        assert got == "pass"

    def test_boundary_rate_counts_as_outlier(self):
        got = falsification_verdict(
            [summary("a", 1, 3, rescued=False), summary("b", 1, 3, rescued=False)]
        )
        assert got == "falsified"

    def test_empty_subjects_are_not_outliers(self):
        assert falsification_verdict([summary("a", 0, 0, rescued=False)]) == "pass"


# --- the full blindness experiment ----------------------------------------------------


FROZEN_SUMMARIES = {
    "clamp": (1, 4),
    "gcdSig": (22, 32),
    "hypotSig": (5, 5),
    "lcmSig": (27, 37),
    "midpoint": (1, 3),
    "signum": (3, 7),
}


@pytest.fixture(scope="module")
def blindness_report():
    return run_blindness_experiment()


class TestBlindness:
    def test_frozen_summaries(self, blindness_report):
        got = {
            name: (s.kills, s.mutants) for name, s in blindness_report.summaries.items()
        }
        assert got == FROZEN_SUMMARIES

    def test_verdict_and_rescues(self, blindness_report):
        assert blindness_report.verdict == "pass"
        assert blindness_report.preserving_kills == ()
        assert all(
            s.all_killed_breaking for s in blindness_report.summaries.values()
        )

    def test_no_baseline_exclusions(self, blindness_report):
        assert blindness_report.matrix.excluded == ()

    def test_kill_matrix_holds_only_witnessed_kills(self, blindness_report):
        cells = blindness_report.matrix.cells
        assert len(cells) == 66
        assert all(isinstance(w, str) and w for w in cells.values())

    def test_scaling_blindness_is_exhaustive(self, blindness_report):
        """No rule-preserving mutant is ever killed by its scaling relation."""
        checked = 0
        for sut, mutants in blindness_report.mutants_by_sut.items():
            mr = scaling_mr_name(sut)
            for m in mutants:
                if m.homogeneity_effect == "preserving":
                    checked += 1
                    assert (mr, mutant_id(m)) not in blindness_report.matrix.cells, mutant_id(m)
        assert checked == 29  # every preserving-tagged mutant in the roster

    def test_concordance_clean(self, blindness_report):
        assert blindness_report.concordance_ok
        assert blindness_report.concordance_violations == ()

    def test_tampered_matrix_breaks_concordance(self):
        cfg = load_mutator_config()
        tampered = replace(
            cfg, matrix_patches={("MATH", BlockKind.L_STAR): "breaks"}
        )
        report = run_blindness_experiment(cfg=tampered)
        assert not report.concordance_ok
        assert any("midpoint/MATH" in v for v in report.concordance_violations)

    def test_concordance_breaks_cell_rejects_preserving_mutants(self, blindness_report):
        # hand the checker a fake active matrix claiming guard negation
        # breaks scaling; gcd's rule-preserving survivors must trip it
        cells = {("NEGATE_CONDITIONALS", b): "breaks" for b in CANONICAL_ORDER}
        decls = {s: ZOO[s] for s in blindness_report.mutants_by_sut}
        ok, violations = concordance_check(blindness_report.mutants_by_sut, set(), cells, decls)
        assert not ok
        assert any("gcdSig/NEGATE_CONDITIONALS" in v for v in violations)

    def test_concordance_preserves_cell_rejects_killed_preserving_mutants(self, blindness_report):
        # claim gcd's rule-preserving guard negations were killed: under the
        # bundled preserves-cell each claimed kill is a violation, and only those
        by_sut = blindness_report.mutants_by_sut
        preserving = [
            mutant_id(m)
            for m in by_sut["gcdSig"]
            if m.category is MutatorCategory.NEGATE_CONDITIONALS
            and m.homogeneity_effect == "preserving"
        ]
        assert preserving
        cells = {("NEGATE_CONDITIONALS", BlockKind.L_STAR): "preserves"}
        decls = {s: ZOO[s] for s in by_sut}
        ok, violations = concordance_check(by_sut, set(preserving), cells, decls)
        assert not ok
        assert violations == tuple(f"{mid}: killed despite a preserves-cell" for mid in preserving)
        assert concordance_check(by_sut, set(), cells, decls) == (True, ())
