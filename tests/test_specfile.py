"""Document-format tests: fixture round-trips, rejection paths, fuzz totality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.algebra import ActsOn, BlockKind, Regime
from noether.specfile import (
    HEADER,
    SpecSemanticError,
    SpecSyntaxError,
    algebra_to_text,
    descriptor_to_text,
    mutator_config_to_text,
    parse_algebra,
    parse_mr_descriptor,
    parse_mutator_config,
    parse_sut_file,
    sut_file_to_text,
)
from noether.zoo import BUNDLED_ALGEBRAS, fixture_text

MR_FIXTURES = (
    "rho_rot.mr",
    "rho_mono.mr",
    "rho_adj.mr",
    "rho_train_rev.mr",
    "rho_train.mr",
    "rho_nonadd.mr",
    "rho_mtc_bor.mr",
    "rho_join_comm.mr",
    "only_o1.mr",
    "only_o2.mr",
    "only_o3.mr",
    "only_o4.mr",
    "only_o5.mr",
)


class TestRoundTrips:
    @pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
    def test_algebra(self, name):
        alg = parse_algebra(fixture_text(f"{name}.alg"))
        assert parse_algebra(algebra_to_text(alg)) == alg

    @pytest.mark.parametrize("filename", MR_FIXTURES)
    def test_descriptor(self, filename):
        mr = parse_mr_descriptor(fixture_text(filename))
        assert parse_mr_descriptor(descriptor_to_text(mr)) == mr

    def test_sut_file(self):
        decls = parse_sut_file(fixture_text("zoo.sut"))
        assert parse_sut_file(sut_file_to_text(decls)) == decls
        assert len(decls) >= 6

    def test_sut_file_with_infinite_and_negative_zero_constants(self):
        text = f"{HEADER}\nsut t(x) blocks=O_le homogeneity=none\nreturn x < 1e999 ? -0 : -1e999\n"
        assert sut_file_to_text(parse_sut_file(text)) == text

    def test_mutator_config(self):
        cfg = parse_mutator_config(fixture_text("blindness.cfg"))
        assert parse_mutator_config(mutator_config_to_text(cfg)) == cfg


class TestAlgebraParsing:
    def test_fields(self):
        alg = parse_algebra(
            f"""{HEADER}
# comment survives nowhere
algebra tiny

operator spin acts=input blocks=G,T_rev regime=finite size=4 cost=3
operator gauge acts=param blocks=O_le
generators spin,gauge
"""
        )
        assert alg.name == "tiny"
        spin, gauge = alg.operators
        assert spin.acts_on is ActsOn.INPUT
        assert spin.block_tags == frozenset({BlockKind.G, BlockKind.T_REV})
        assert spin.regime is Regime.FINITE
        assert spin.group_order_or_dim == 4
        assert spin.cost_hint == 3
        assert gauge.regime is Regime.NONE
        assert gauge.cost_hint == 1

    def test_missing_header(self):
        with pytest.raises(SpecSyntaxError):
            parse_algebra("algebra tiny\n")
        with pytest.raises(SpecSyntaxError):
            parse_algebra("")

    def test_unknown_block_tag(self):
        with pytest.raises(SpecSemanticError):
            parse_algebra(f"{HEADER}\nalgebra t\noperator a acts=input blocks=Z9\n")

    def test_duplicate_attribute(self):
        with pytest.raises(SpecSemanticError):
            parse_algebra(
                f"{HEADER}\nalgebra t\noperator a acts=input acts=output blocks=G regime=finite size=2\n"
            )

    def test_bad_integer(self):
        with pytest.raises(SpecSyntaxError):
            parse_algebra(
                f"{HEADER}\nalgebra t\noperator a acts=input blocks=G regime=finite size=two\n"
            )

    def test_semantic_validation_surfaces(self):
        # G tag without a regime is an algebra-level invariant violation
        with pytest.raises(SpecSemanticError):
            parse_algebra(f"{HEADER}\nalgebra t\noperator a acts=input blocks=G\n")


    @pytest.mark.parametrize(
        "rule,col",
        (
            ("lhs=join(R rhs=R guard=none", 15),
            ("lhs=R rhs=join(R,) guard=none", 21),
            ("lhs=R rhs=R guard=bogus", 29),
            ("lhs=" + "join(" * 2000 + "R" + ",S)" * 2000 + " rhs=R guard=none", 15),
            ("lhs=selct(p,R) rhs=R guard=none", 15),
            ("lhs=join(R) rhs=R guard=none", 15),
            ("lhs=distinct(R) rhs=distinct(R,R) guard=none", 31),
        ),
        ids=(
            "truncated-lhs",
            "empty-rhs-argument",
            "unknown-guard",
            "2000-deep-lhs",
            "unknown-head",
            "join-arity",
            "distinct-arity",
        ),
    )
    def test_bad_rewrite_rules_rejected_at_parse_time(self, rule, col):
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=B_rel\ngenerators a\n"
        assert parse_algebra(f"{text}rewrite r lhs=join(R,S) rhs=join(S,R) guard=none\n")
        with pytest.raises(SpecSyntaxError, match=f"line 5, column {col}:"):
            parse_algebra(f"{text}rewrite r {rule}\n")

    @pytest.mark.parametrize(
        "rule",
        (
            "lhs=select(p,R) rhs=select(p,Q) guard=none",
            "lhs=join(R,S) rhs=join(S,R) guard=attrs(p) subset attrs(R)",
        ),
        ids=("unbound-rhs-variable", "unbound-guard-variable"),
    )
    def test_rule_variables_must_be_bound_by_lhs(self, rule):
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=B_rel\ngenerators a\n"
        with pytest.raises(SpecSemanticError, match="lhs does not bind"):
            parse_algebra(f"{text}rewrite r {rule}\n")


class TestDescriptorParsing:
    def test_defaults_fill_in(self):
        mr = parse_mr_descriptor(f"{HEADER}\nmr rho_x\n")
        assert mr.output_domain == "program-output"
        assert mr.relation_form == "equivariance"
        assert mr.difference_order == 1
        assert mr.parameter_directions == 1
        assert mr.adjoint_indexing == "fixed"
        assert mr.tolerance == 1e-9
        assert mr.unit == "absolute"

    def test_mixed_difference_needs_second_order(self):
        with pytest.raises(SpecSemanticError):
            parse_mr_descriptor(f"{HEADER}\nmr rho_x\nform=mixed-difference diff_order=1\n")
        mr = parse_mr_descriptor(f"{HEADER}\nmr rho_x\nform=mixed-difference diff_order=2\n")
        assert mr.difference_order == 2

    @pytest.mark.parametrize("value", ("0", "-1e-9", "nan"))
    def test_tolerance_must_be_positive(self, value):
        with pytest.raises(SpecSemanticError):
            parse_mr_descriptor(f"{HEADER}\nmr rho_x\ntolerance={value}\n")

    def test_duplicate_field(self):
        with pytest.raises(SpecSemanticError):
            parse_mr_descriptor(f"{HEADER}\nmr rho_x\ndiff_order=1\ndiff_order=2\n")

    def test_missing_declaration(self):
        with pytest.raises(SpecSyntaxError):
            parse_mr_descriptor(f"{HEADER}\ndiff_order=2\n")


class TestSutParsing:
    def test_bodies_type_check(self):
        # expression-language errors surface as document errors, not raw ones
        text = f"{HEADER}\nsut f(a, b) blocks=G homogeneity=degree-1\nreturn a + q\n"
        with pytest.raises(SpecSemanticError, match="undefined variable"):
            parse_sut_file(text)
        with pytest.raises(SpecSyntaxError):
            parse_sut_file(f"{HEADER}\nsut f(a) blocks=G homogeneity=degree-1\nreturn a +\n")

    def test_homogeneity_vocabulary(self):
        with pytest.raises(SpecSemanticError, match="homogeneity"):
            parse_sut_file(f"{HEADER}\nsut f(a) blocks=G homogeneity=cubic\nreturn a\n")

    @pytest.mark.parametrize(
        "body",
        (
            "(" * 3000 + "x" + ")" * 3000,
            "-" * 3000 + "x",
            " + ".join(["x"] * 1500),
            " % ".join(["x"] * 250),
        ),
        ids=("3000-parentheses", "3000-minus-signs", "1500-term-sum", "250-term-remainder"),
    )
    def test_too_deep_bodies_are_syntax_errors(self, body):
        with pytest.raises(SpecSyntaxError, match="line 3"):
            parse_sut_file(f"{HEADER}\nsut f(x) blocks=G homogeneity=none\nreturn {body}\n")

    def test_non_sut_leading_line(self):
        with pytest.raises(SpecSyntaxError):
            parse_sut_file(f"{HEADER}\nreturn 1\n")


class TestMutatorParsing:
    def test_unknown_category(self):
        with pytest.raises(SpecSemanticError):
            parse_mutator_config(f"{HEADER}\nmutators FROBNICATE\n")

    def test_effect_vocabulary(self):
        with pytest.raises(SpecSemanticError):
            parse_mutator_config(f"{HEADER}\nmatrix MATH G=sometimes\n")
        cfg = parse_mutator_config(f"{HEADER}\nmatrix MATH G=breaks\n")
        assert cfg.matrix_patches == {("MATH", BlockKind.G): "breaks"}

    def test_override_cell(self):
        cfg = parse_mutator_config(f"{HEADER}\noverride clamp MATH L_star=preserves\n")
        assert cfg.overrides == {("clamp", "MATH", BlockKind.L_STAR): "preserves"}

    def test_duplicate_seed(self):
        with pytest.raises(SpecSemanticError):
            parse_mutator_config(f"{HEADER}\nseed 1\nseed 2\n")


def parse_with_every_parser(text):
    for parse in (parse_algebra, parse_mr_descriptor, parse_sut_file, parse_mutator_config):
        try:
            parse(text)
        except (SpecSyntaxError, SpecSemanticError):
            pass


class TestTotality:
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    @settings(max_examples=300)
    def test_random_bodies_never_crash(self, body):
        parse_with_every_parser(f"{HEADER}\n{body}")

    @given(
        st.lists(
            st.sampled_from(
                [
                    "algebra t",
                    "operator a acts=input blocks=G regime=finite size=2",
                    "operator a acts=output blocks=O_le",
                    "generators a",
                    "rewrite r lhs=join(R,S) rhs=join(S,R)",
                    "label G=m_x",
                    "mr rho",
                    "diff_order=2",
                    "sut f(a) blocks=G homogeneity=none",
                    "return a",
                    "seed 3",
                    "# noise",
                    "",
                ]
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300)
    def test_shuffled_declarations_never_crash(self, lines):
        parse_with_every_parser(HEADER + "\n" + "\n".join(lines) + "\n")
