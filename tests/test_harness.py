"""Harness tests: tuple generation, kill experiments, coverage, verdicts."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether import minilang
from noether._record import fields, replace
from noether.algebra import BlockKind, CANONICAL_ORDER, OperatorAlgebra
from noether.harness import (
    DEFAULT_BUDGET,
    DEFAULT_TOLERANCE,
    EmptyMetaPatternSet,
    KillSummary,
    MRCheck,
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
from noether.minilang import DomainError, compile_program
from noether.mutate import _Subject, _rebuild, mutate
from noether.reachability import check_reachability
from noether.specfile import HEADER, SpecSemanticError, parse_sut_file
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
from test_minilang import reference_eval
from test_mutate import program_of

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
        for base, scaled, lam in generate_tuples(mr, SEED):
            assert scaled == tuple(lam * a for a in base)
        scaling_mrs = [mr for mr in build_standard_mrs(ZOO) if isinstance(mr, ScalingMR)]
        assert {mr.sut_name for mr in scaling_mrs} == {
            name for name, decl in ZOO.items() if decl.homogeneity != "none"
        }
        for mr in scaling_mrs:
            groups = generate_tuples(mr, SEED)
            tagged = _Subject(mr.decl, SEED).scaling_points
            # the tagger's points: every base, then every scaled point
            assert tagged == [g[0] for g in groups] + [g[1] for g in groups]

    def test_flip_actions_sample_away_from_fixed_points(self):
        mr = standard_mr("signum:G:sign-flip")
        for group in generate_tuples(mr, SEED):
            assert group[0][0] != 0.0

    def test_shift_offsets_are_never_zero(self):
        mr = standard_mr("isSequence:G:shift-all")
        for group in generate_tuples(mr, SEED):
            base, moved, _ = group
            offset = moved[0] - base[0]
            assert offset != 0.0
            assert all(m - b == offset for b, m in zip(base, moved))

    def test_order_tuples_bump_one_coordinate_upward(self):
        mr = standard_mr("clamp:O_le")
        coord = SUT_ORDER_SPECS["clamp"].coordinate
        for group in generate_tuples(mr, SEED):
            lo, hi, _ = group
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
        assert len(generate_tuples(standard_mr("midpoint:G:negate-all"), SEED)) == DEFAULT_BUDGET
        assert len(generate_tuples(standard_mr("midpoint:O_le"), SEED)) == DEFAULT_BUDGET

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
        groups = mr.tuples(SEED)
        assert len(groups) == SCALING_BUDGET
        assert groups == scaling_sample(ZOO["gcdSig"], SEED)

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


# --- the pair check against the sequence check it replaced -------------------------


def sequence_bound(values):
    return DEFAULT_TOLERANCE * max(1.0, *(abs(v) for v in values))


def sequence_violation(mr, group, values):
    """Each MR kind's assertion as it read a group's outputs as a sequence."""
    if isinstance(mr, SymmetryMR):
        expected, got = values
        if mr.action.output == "negate":
            expected = -expected
        gap = got - expected
        ok = abs(gap) <= sequence_bound(values)
        return "" if ok else f"equivariance gap {gap!r} at {group[:2]}"
    if isinstance(mr, OrderMR):
        lo, hi = values
        ok = lo <= hi + sequence_bound(values)
        return "" if ok else f"order violated: {lo!r} > {hi!r} at {group[:2]}"
    f0, f1 = values
    invariant = mr.decl.homogeneity == "positive-scale-invariant"
    gap = f1 - (f0 if invariant else group[2] * f0)
    ok = abs(gap) <= sequence_bound(values)
    return "" if ok else f"scaling gap {gap!r} at {group[:2]}"


def sequence_check_mr(mr, fn, groups):
    """The check as a loop over each group's two argument tuples."""
    outputs = []
    for group in groups:
        try:
            values = [fn(*args) for args in group[:2]]
        except DomainError as exc:
            return MRCheck(False, f"domain error on {group[:2]}: {exc}")
        failure = sequence_violation(mr, group, values)
        if failure:
            return MRCheck(False, failure)
        outputs.extend(values)
    failure = mr.sample_violation(outputs)
    return MRCheck(not failure, failure)


# every MR kind and output rule: flip/negate, flip/same, shift, order, and
# scaling of degree 1 and scale invariance
PAIR_MRS = (
    standard_mr("midpoint:G:negate-all"),
    standard_mr("gcdSig:G:flip-first"),
    standard_mr("isSequence:G:shift-all"),
    standard_mr("clamp:O_le"),
    standard_mr("hypotSig:L_scale"),
    standard_mr("signum:L_scale"),
)
EDGE_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.0, -1.0)),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestPairCheck:
    @given(
        st.sampled_from(PAIR_MRS),
        st.integers(0, SCALING_BUDGET - 1),
        EDGE_FLOATS,
        EDGE_FLOATS,
    )
    @settings(max_examples=600, deadline=None)
    def test_violation_matches_the_sequence_formula(self, mr, k, f0, f1):
        groups = generate_tuples(mr, SEED)
        group = groups[k % len(groups)]
        failure = mr.violation(group[2], f0, f1)
        # check_mr appends the pair to the violation
        witness = failure and f"{failure} at {group[:2]}"
        assert witness == sequence_violation(mr, group, [f0, f1])

    def test_check_mr_matches_the_sequence_loop_on_every_bundled_mr(self):
        mutants = {name: mutate(decl, seed=SEED) for name, decl in ZOO.items()}
        outcomes = set()
        for mr in build_standard_mrs(ZOO):
            groups = generate_tuples(mr, SEED)
            for fn in [mr.decl.fn] + [m.fn for m in mutants[mr.sut_name]]:
                verdict = check_mr(mr, fn, groups)
                assert verdict == sequence_check_mr(mr, fn, groups), mr.name
                outcomes.add(verdict.failure.split(" ")[0])
        # passes and every kind of failure witness are compared
        assert outcomes == {"", "equivariance", "order", "scaling", "fixed", "domain"}

    def test_domain_error_witness_matches_the_sequence_loop(self):
        # both members of every group fail, each with its own message, so
        # the witness shows which member runs first
        decl = sut_from("sut both(x) blocks=G\nreturn 0 < x ? sqrt(0 - x) : 1 / 0")
        mr = SymmetryMR("both:G:flip", decl, SUT_G_ACTIONS["signum"][0])
        groups = generate_tuples(mr, SEED)
        verdict = check_mr(mr, decl.fn, groups)
        first = groups[0][0][0]
        cause = "sqrt of a negative number" if first > 0 else "division by zero"
        assert verdict.failure == f"domain error on {groups[0][:2]}: {cause}"
        assert verdict == sequence_check_mr(mr, decl.fn, groups)

    def test_every_group_is_a_pair(self):
        # a pair of argument tuples, and a lambda exactly for the scaling rule
        for mr in build_standard_mrs(ZOO):
            scaling = isinstance(mr, ScalingMR)
            for seed in (SEED, 7):
                groups = generate_tuples(mr, seed)
                assert all(len(g) == 3 and (g[2] is not None) == scaling for g in groups), mr.name


# --- kill experiment --------------------------------------------------------------


class TestKillExperiment:
    def test_red_baselines_are_excluded_not_fatal(self):
        decl = sut_from(
            "sut flat(x) blocks=L_star homogeneity=positive-scale-invariant\nreturn 3"
        )
        red = ScalingMR("flat:L_scale", decl)
        mrs = [standard_mr("midpoint:G:negate-all"), red]
        matrix = run_kill_experiment(mrs, {"midpoint": mutate(ZOO["midpoint"], seed=SEED)}, SEED)
        assert matrix.mr_names == ("midpoint:G:negate-all",)
        assert len(matrix.excluded) == 1
        assert matrix.excluded[0][:2] == ("flat:L_scale", "flat")

    def test_cross_subject_pairs_are_absent(self):
        mrs = [standard_mr("signum:L_scale")]
        mutants = mutate(ZOO["midpoint"], seed=SEED)
        matrix = run_kill_experiment(mrs, {"midpoint": mutants}, SEED)
        assert matrix.mr_names == ("signum:L_scale",)
        assert matrix.cells == {}

    def test_matrix_bookkeeping(self):
        mrs = {mr.name: mr for mr in build_standard_mrs(ZOO) if mr.sut_name == "midpoint"}
        mutants = {mutant_id(m): m for m in mutate(ZOO["midpoint"], seed=SEED)}
        matrix = run_kill_experiment(list(mrs.values()), {"midpoint": list(mutants.values())}, SEED)
        assert matrix.cells
        for (name, mid), witness in matrix.cells.items():
            # each witness is the failure text a rerun of the check reproduces
            fn = compile_program(program_of(mutants[mid]))
            groups = generate_tuples(mrs[name], SEED)
            assert witness and check_mr(mrs[name], fn, groups).failure == witness

    def test_each_subject_compiles_once_per_experiment(self, monkeypatch):
        # the tagger and the baseline checks share `decl.fn`; mutants are
        # compiled together by `compile_variants`
        compiled = []
        real_compile = minilang.compile_program

        def counting_compile(prog):
            compiled.append(prog.name)
            return real_compile(prog)

        monkeypatch.setattr(minilang, "compile_program", counting_compile)
        run_blindness_experiment(load_mutator_config())
        assert len(compiled) == 6
        assert sorted(compiled) == sorted(load_mutator_config().suts)


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

    def test_integer_rule_is_the_exact_one_third_rule(self):
        # two unrescued copies of one subject falsify exactly when it is an
        # outlier by the rational rule
        for mutants in range(61):
            for kills in range(mutants + 1):
                outlier = bool(mutants) and Fraction(kills, mutants) >= Fraction(1, 3)
                pair = [summary("a", kills, mutants, rescued=False), summary("b", kills, mutants, rescued=False)]
                assert falsification_verdict(pair) == ("falsified" if outlier else "pass"), (kills, mutants)


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
    return run_blindness_experiment(load_mutator_config())


# the one-statement subjects of the shallow kill experiment
SHALLOW_SUTS = ("caddSig", "clamp", "exactLog2", "hypotSig", "isSequence", "midpoint", "powerSig", "signum")

# sha256 of the sorted (mr, mutant id, witness) cells at seed 20260816; no
# report prints a witness, so these pin the failure texts
WITNESS_DIGESTS = {
    "bundled": (66, "3e074f04edbadc51cefe4afa153277159d0b519736b4974d200cd50a5ceee92e"),
    "shallow": (32, "9d88b266834d745a6907068a2cff0754c62097c92dba1e9104a500dfdf0ed7b9"),
}


def witness_digest(report):
    cells = sorted((mr, mid, witness) for (mr, mid), witness in report.matrix.cells.items())
    return len(cells), hashlib.sha256(repr(cells).encode()).hexdigest()


class TestKillWitnesses:
    def test_bundled_config(self, blindness_report):
        assert load_mutator_config().seed == SEED
        assert witness_digest(blindness_report) == WITNESS_DIGESTS["bundled"]

    def test_shallow_subjects(self):
        cfg = replace(load_mutator_config(), seed=SEED, suts=SHALLOW_SUTS)
        assert witness_digest(run_blindness_experiment(cfg)) == WITNESS_DIGESTS["shallow"]


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

    @pytest.mark.parametrize(
        "override,message",
        (
            (("nosuch", "MATH", BlockKind.O_LE), "override: not in the zoo: nosuch"),
            (("clamp", "MATH", BlockKind.G), "override: (MATH, G) is breaks, not case-dependent"),
            (("clamp", "MATH", BlockKind.L_STAR), "override: (MATH, L_star) is preserves, not case-dependent"),
            (("powerSig", "MATH", BlockKind.O_LE), "override: not among the suts: powerSig"),
        ),
        ids=("no-such-subject", "breaks-cell", "preserves-cell", "subject-left-out"),
    )
    def test_overrides_that_never_apply_are_rejected(self, override, message):
        # the compatibility matrix reads an override only for a case-dependent
        # cell of a subject the run mutates
        cfg = replace(load_mutator_config(), overrides={override: "preserves"})
        with pytest.raises(SpecSemanticError) as exc:
            run_blindness_experiment(cfg=cfg)
        assert str(exc.value) == message

    # seeds from a formula, not chosen by outcome; the preserving-tag count
    # is not asserted, since the tagger's rules may vary it with the seed
    @pytest.mark.parametrize("seed", [1000 + 37 * i for i in range(10)])
    def test_science_gates_hold_at_other_seeds(self, seed):
        cfg = replace(load_mutator_config(), seed=seed)
        report = run_blindness_experiment(cfg=cfg)
        assert report.preserving_kills == ()
        assert report.concordance_ok
        assert sum(len(ms) for ms in report.mutants_by_sut.values()) == 88
        patches = {**cfg.matrix_patches, ("MATH", BlockKind.L_STAR): "breaks"}
        assert not run_blindness_experiment(cfg=replace(cfg, matrix_patches=patches)).concordance_ok

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
            if m.category == "NEGATE_CONDITIONALS"
            and m.homogeneity_effect == "preserving"
        ]
        assert preserving
        cells = {("NEGATE_CONDITIONALS", BlockKind.L_STAR): "preserves"}
        decls = {s: ZOO[s] for s in by_sut}
        ok, violations = concordance_check(by_sut, set(preserving), cells, decls)
        assert not ok
        assert violations == tuple(f"{mid}: killed despite a preserves-cell" for mid in preserving)
        assert concordance_check(by_sut, set(), cells, decls) == (True, ())


# --- the whole run against an independent interpreter ----------------------------------


def interpreted(prog):
    """`prog` run by test_minilang's tree-walking interpreter, not compiled."""

    def run_reference(*args):
        env = dict(zip(prog.params, map(float, args)))
        for assign in prog.assigns:
            env[assign.name] = reference_eval(assign.expr, env)
        return reference_eval(prog.result, env)

    return run_reference


def interpreted_variants(prog, variants):
    return [interpreted(_rebuild(prog, k, expr)) for k, expr in variants]


class TestEndToEndOracle:
    def test_interpreted_run_gives_the_shipped_report(self, monkeypatch):
        """The bundled blindness run at seed 7, with every subject and mutant
        run by the reference interpreter instead of generated code, gives the
        shipped report field for field: summaries, verdict, kills and their
        witnesses, concordance, exclusions and every mutant (its id, tag and
        strata are what `Mutant` equality compares).  It checks what no unit test assembles: which function each
        mutant carries, `SutDecl.fn` caching, the shared scaling sample and
        the early-exit filter.

        It catches a nearest-rounding remainder and a mutant schema that
        selects the wrong statement.  It does not catch a truncated
        (`math.fmod`) remainder at this seed: only candidates the filter
        drops give `%` a negative operand, so the minilang unit tests stay
        the guard for the sign of `%`.
        """
        cfg = replace(load_mutator_config(), seed=7)
        assert {"gcdSig", "lcmSig"} <= set(cfg.suts)  # the deep bodies that use `%`
        shipped = run_blindness_experiment(cfg)
        monkeypatch.setattr(minilang, "compile_program", interpreted)
        monkeypatch.setattr(minilang, "compile_variants", interpreted_variants)
        oracle = run_blindness_experiment(cfg)
        assert all(
            m.fn.__name__ == "run_reference" for ms in oracle.mutants_by_sut.values() for m in ms
        )
        assert shipped.matrix.cells
        for f in fields(shipped):
            assert getattr(oracle, f.name) == getattr(shipped, f.name), f.name
