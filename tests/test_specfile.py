"""Document-format tests: fixture round-trips, rejection paths, fuzz totality."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.algebra import ActsOn, BlockKind, Regime
from noether.specfile import (
    _OPERATOR_KEYS,
    HEADER,
    SpecSemanticError,
    SpecSyntaxError,
    _parse_attrs,
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


OPERATOR_F = "operator f acts=input blocks=O_le"
PUSHDOWN = "lhs=select(p,join(R,S)) rhs=join(select(p,R),S)"


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

    @pytest.mark.parametrize("assignment", ("sut=x+1", "sut = x + 1"))
    def test_sut_file_with_a_variable_named_sut(self, assignment):
        text = f"{HEADER}\nsut f(x) blocks=G homogeneity=none\n{assignment}\nreturn sut\n"
        decls = parse_sut_file(text)
        assert [d.name for d in decls] == ["f"]
        assert parse_sut_file(sut_file_to_text(decls)) == decls

    def test_rewrite_lines_print_as_written(self):
        text = fixture_text("relational.alg")
        printed = algebra_to_text(parse_algebra(text)).splitlines()
        written = [line for line in text.splitlines() if line.startswith("rewrite ")]
        assert len(written) == 4
        assert [line for line in printed if line.startswith("rewrite ")] == written

    def test_mutator_config(self):
        cfg = parse_mutator_config(fixture_text("blindness.cfg"))
        assert parse_mutator_config(mutator_config_to_text(cfg)) == cfg

    @given(
        st.lists(st.sampled_from(("G", "O_le", "T_rev", "E_star")), min_size=1, max_size=3, unique=True),
        st.sampled_from(("", " regime=finite", " regime=lie", " regime=trunc")),
        st.sampled_from(("", " size=0", " size=7")),
        st.sampled_from(("", " cost=1", " cost=3")),
    )
    @settings(max_examples=100)
    def test_every_accepted_operator_prints_back(self, tags, regime, size, cost):
        """An operator line parses to an operator that prints to itself, or it
        is rejected; no attribute is accepted and then lost by the printer."""
        line = f"operator f acts=both blocks={','.join(tags)}{regime}{size}{cost}"
        text = f"{HEADER}\nalgebra t\n{line}\ngenerators f\n"
        try:
            alg = parse_algebra(text)
        except (SpecSyntaxError, SpecSemanticError):
            return
        assert parse_algebra(algebra_to_text(alg)) == alg


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

    @pytest.mark.parametrize(
        "parse,line,col,what,found",
        (
            (parse_algebra, "algebra a extra words", 11, "algebra", "extra"),
            (parse_algebra, "  algebra a  b", 14, "algebra", "b"),
            (parse_mr_descriptor, "mr rho_x junk", 10, "MR", "junk"),
        ),
        ids=("algebra", "indented-algebra", "mr"),
    )
    def test_name_line_holds_one_word(self, parse, line, col, what, found):
        with pytest.raises(SpecSyntaxError) as exc:
            parse(f"{HEADER}\n{line}\n")
        expected = f"end of line after the {what} name, found {found!r}"
        assert str(exc.value) == f"line 2, column {col}: expected {expected}"

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
        "labels",
        (
            ("label L_star=m_mono",),
            ("label G=m_x", "label T_rev=m_x"),
            ("label O_le=m_rel",),
        ),
        ids=("override-meets-default", "two-overrides", "override-meets-unpopulated-default"),
    )
    def test_metapattern_labels_must_be_distinct(self, labels):
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=O_le,L_star\ngenerators a\n"
        with pytest.raises(SpecSemanticError, match="duplicate MetaPattern labels"):
            parse_algebra(text + "\n".join(labels) + "\n")
        swapped = parse_algebra(text + "label O_le=m_conv\nlabel L_star=m_mono\n")
        assert swapped.label_overrides == {BlockKind.O_LE: "m_conv", BlockKind.L_STAR: "m_mono"}


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
            ("lhs=project(A,R) rhs=R guard=none", 15),
            ("lhs=union(R,S) rhs=R guard=none", 15),
        ),
        ids=(
            "truncated-lhs",
            "empty-rhs-argument",
            "unknown-guard",
            "2000-deep-lhs",
            "unknown-head",
            "join-arity",
            "distinct-arity",
            "project-head",
            "union-head",
        ),
    )
    def test_bad_rewrite_rules_rejected_at_parse_time(self, rule, col):
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=B_rel\ngenerators a\n"
        assert parse_algebra(f"{text}rewrite r lhs=join(R,S) rhs=join(S,R) guard=none\n")
        with pytest.raises(SpecSyntaxError, match=f"line 5, column {col}:"):
            parse_algebra(f"{text}rewrite r {rule}\n")

    @pytest.mark.parametrize(
        "guard",
        ("attrs(1p) subset attrs(R)", "attrs(é) subset attrs(R)", "attrs(p) subset attrs(2R)"),
        ids=("digit-first-predicate", "non-ascii-predicate", "digit-first-plan"),
    )
    def test_guard_variables_are_pattern_names(self, guard):
        # a guard reads its variables as pattern names, so a variable that is
        # not one is a syntax error at the guard's column, not an unbound name
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=B_rel\ngenerators a\n"
        rule = f"rewrite r {PUSHDOWN} guard={guard}"
        col = len(rule) - len(guard) + 1
        with pytest.raises(SpecSyntaxError, match=f"^line 5, column {col}: expected a rewrite guard, found"):
            parse_algebra(f"{text}{rule}\n")

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

    @pytest.mark.parametrize(
        "rule,message",
        (
            (f"{PUSHDOWN} guard=attrs(R) subset attrs(S)", "R stands for both a plan and a predicate"),
            (f"{PUSHDOWN} guard=attrs(p) subset attrs(p)", "p stands for both a predicate and a plan"),
            ("lhs=select(p,R) rhs=join(p,R) guard=none", "p stands for both a predicate and a plan"),
            ("lhs=select(q,join(p,R)) rhs=R guard=none", "p stands for both a predicate and a plan"),
            ("lhs=select(p,R) rhs=join(true,R) guard=none", "true stands for both a predicate and a plan"),
            ("lhs=R rhs=select(empty,R) guard=none", "empty stands for both a plan and a predicate"),
        ),
        ids=(
            "guard-on-two-plans",
            "guard-on-two-predicates",
            "predicate-as-plan",
            "p-as-plan-in-lhs",
            "true-as-plan",
            "empty-as-predicate",
        ),
    )
    def test_rule_leaves_keep_their_kind(self, rule, message):
        # a rule that fires must build a plan the evaluator can run and a
        # guard it can check
        text = f"{HEADER}\nalgebra t\noperator a acts=input blocks=B_rel\ngenerators a\n"
        with pytest.raises(SpecSemanticError, match=f"^r: {message}$"):
            parse_algebra(f"{text}rewrite r {rule}\n")


class TestSemanticErrorSubjects:
    """A semantic error names its subject once: the parser names it, the
    model's ValueError gives the reason alone."""

    @pytest.mark.parametrize(
        "parse,body,message",
        (
            (
                parse_algebra,
                f"algebra a\n{OPERATOR_F}\n{OPERATOR_F}\ngenerators f",
                "a: duplicate operator names ['f']",
            ),
            (parse_algebra, f"algebra a\n{OPERATOR_F}\ngenerators f,f", "a: duplicate generator names ['f']"),
            (parse_algebra, f"algebra a\n{OPERATOR_F} cost=0\ngenerators f", "f: cost_hint must be >= 1"),
            (parse_algebra, f"algebra a\n{OPERATOR_F}\ngenerators g", "a: generator 'g' not declared"),
            (parse_mr_descriptor, "mr rho_x\noutput=bogus", "rho_x: bad output domain 'bogus'"),
            (parse_mr_descriptor, "mr rho_x\ndiff_order=0", "rho_x: difference order must be >= 1"),
            (
                parse_mr_descriptor,
                "mr rho_x\nform=mixed-difference diff_order=1",
                "rho_x: mixed-difference form needs diff_order >= 2",
            ),
            (parse_sut_file, "sut f(x) blocks=G\nt = x", "f: last body line must be a return"),
            (parse_sut_file, "sut f(x, x) blocks=G\nreturn x", "f: duplicate parameter names"),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=\ngenerators f",
                "f: unknown block tag '' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=O_le,,G\ngenerators f",
                "f: unknown block tag '' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=O_le,Q\ngenerators f",
                "f: unknown block tag 'Q' on line 3",
            ),
            (
                parse_algebra,
                f"algebra a\n{OPERATOR_F}\ngenerators f\nlabel =x",
                "label: unknown block tag '' on line 5",
            ),
            (parse_mutator_config, "seed 1\nmatrix MATH =breaks", "MATH: unknown block tag '' on line 3"),
            (
                parse_algebra,
                "algebra a\noperator f acts=sideways blocks=O_le\ngenerators f",
                "f: unknown acts 'sideways' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=a=b blocks=O_le\ngenerators f",
                "f: unknown acts 'a=b' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=G regime=none size=2\ngenerators f",
                "f: unknown regime 'none' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=G regime=NONE size=2\ngenerators f",
                "f: unknown regime 'NONE' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=G regime= size=2\ngenerators f",
                "f: unknown regime '' on line 3",
            ),
            (
                parse_algebra,
                f"algebra a\n{OPERATOR_F} size=5\ngenerators f",
                "f: size is only allowed together with a regime (size=5)",
            ),
            (parse_sut_file, "sut f(x) blocks=\nreturn x", "f: unknown block tag '' on line 2"),
            (
                parse_algebra,
                "algebra a\noperator f acts=input acts=output blocks=O_le\ngenerators f",
                "f: duplicate attribute 'acts' on line 3",
            ),
            (parse_sut_file, "sut f(x) blocks=G blocks=G\nreturn x", "f: duplicate attribute 'blocks' on line 2"),
            (parse_mr_descriptor, "mr m\nunit=a unit=b", "m: duplicate attribute 'unit' on line 3"),
            (parse_mr_descriptor, "mr m\nunit=a\nunit=b", "m: duplicate attribute 'unit' on line 4"),
            (
                parse_sut_file,
                "sut f(x) blocks=G\nreturn x\nsut g(x) blocks=G\nreturn x\nsut f(y) blocks=G\nreturn y",
                "f: duplicate sut name on line 6",
            ),
        ),
        ids=(
            "duplicate-operator",
            "duplicate-generator",
            "zero-cost",
            "undeclared-generator",
            "bad-output-domain",
            "zero-difference-order",
            "first-order-mixed-difference",
            "no-return",
            "duplicate-parameter",
            "operator-empty-blocks",
            "operator-empty-block-in-list",
            "operator-unknown-block",
            "label-empty-block",
            "matrix-empty-block",
            "unknown-acts",
            "acts-with-equals",
            "regime-none",
            "regime-NONE",
            "regime-empty",
            "size-without-regime",
            "sut-empty-blocks",
            "duplicate-operator-attribute",
            "duplicate-sut-attribute",
            "duplicate-mr-attribute",
            "duplicate-mr-field",
            "duplicate-sut-name",
        ),
    )
    def test_subject_named_once(self, parse, body, message):
        with pytest.raises(SpecSemanticError) as exc:
            parse(f"{HEADER}\n{body}\n")
        assert str(exc.value) == message


class TestExactMessages:
    """The rules every document shares, and each document's choice and
    duplicate checks, pinned to their exact text."""

    @pytest.mark.parametrize(
        "parse,body,kind,message",
        (
            (parse_algebra, "algebra a\nalgebra b", SpecSemanticError, "algebra: second algebra line at 3"),
            (
                parse_algebra,
                f"algebra a\n{OPERATOR_F}\ngenerators f\ngenerators f",
                SpecSemanticError,
                "generators: second generators line at 5",
            ),
            (parse_mr_descriptor, "mr a\nmr b", SpecSemanticError, "mr: second mr line at 3"),
            (
                parse_mutator_config,
                "mutators MATH\nmutators MATH",
                SpecSemanticError,
                "mutators: second mutators line at 3",
            ),
            (parse_mutator_config, "seed 1\nseed 2", SpecSemanticError, "seed: second seed line at 3"),
            (parse_mutator_config, "suts a\nsuts b", SpecSemanticError, "suts: second suts line at 3"),
            (
                parse_algebra,
                "algebra a\nfrob x",
                SpecSyntaxError,
                "line 3, column 1: expected algebra, operator, generators, rewrite or label, found 'frob'",
            ),
            (
                parse_mutator_config,
                "frob x",
                SpecSyntaxError,
                "line 2, column 1: expected mutators, seed, suts, matrix or override, found 'frob'",
            ),
            (
                parse_algebra,
                OPERATOR_F,
                SpecSyntaxError,
                "line 3, column 1: expected an algebra declaration, found 'end of document'",
            ),
            (
                parse_mr_descriptor,
                "",
                SpecSyntaxError,
                "line 3, column 1: expected an mr declaration, found 'end of document'",
            ),
            (
                parse_sut_file,
                "",
                SpecSyntaxError,
                "line 3, column 1: expected a sut declaration, found 'end of document'",
            ),
            (
                parse_mr_descriptor,
                "diff_order=2\nmr m",
                SpecSyntaxError,
                "line 2, column 1: expected an mr declaration, found 'diff_order=2'",
            ),
            (
                parse_sut_file,
                "return 1",
                SpecSyntaxError,
                "line 2, column 1: expected a sut declaration, found 'return'",
            ),
            (
                parse_mr_descriptor,
                "mr m\njunk words",
                SpecSyntaxError,
                "line 3, column 1: expected key=value attribute, found 'junk'",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=sideways blocks=O_le",
                SpecSemanticError,
                "f: unknown acts 'sideways' on line 3",
            ),
            (
                parse_algebra,
                "algebra a\noperator f acts=input blocks=G regime=x size=2",
                SpecSemanticError,
                "f: unknown regime 'x' on line 3",
            ),
            (
                parse_sut_file,
                "sut f(x) blocks=G homogeneity=cubic\nreturn x",
                SpecSemanticError,
                "f: unknown homogeneity 'cubic' on line 2",
            ),
            (
                parse_sut_file,
                "sut f(x) blocks=G domain=complex\nreturn x",
                SpecSemanticError,
                "f: unknown domain 'complex' on line 2",
            ),
            (
                parse_mutator_config,
                "matrix MATH G=sometimes",
                SpecSemanticError,
                "MATH: unknown effect 'sometimes' on line 2",
            ),
            (
                parse_mutator_config,
                "override clamp MATH G=sometimes",
                SpecSemanticError,
                "MATH: unknown effect 'sometimes' on line 2",
            ),
            (
                parse_mutator_config,
                "mutators MATH,FROB",
                SpecSemanticError,
                "mutators: unknown mutator category 'FROB' on line 2",
            ),
            (
                parse_mutator_config,
                "matrix FROB G=breaks",
                SpecSemanticError,
                "matrix: unknown mutator category 'FROB' on line 2",
            ),
            (
                parse_algebra,
                f"algebra a\n{OPERATOR_F}\nlabel G=x\nlabel G=y",
                SpecSemanticError,
                "G: duplicate label override at line 5",
            ),
            (
                parse_mutator_config,
                "matrix MATH G=breaks\nmatrix MATH G=preserves",
                SpecSemanticError,
                "MATH: duplicate matrix cell at line 3",
            ),
            (
                parse_mutator_config,
                "override clamp MATH G=breaks\noverride clamp MATH G=preserves",
                SpecSemanticError,
                "MATH: duplicate override cell at line 3",
            ),
        ),
        ids=(
            "second-algebra",
            "second-generators",
            "second-mr",
            "second-mutators",
            "second-seed",
            "second-suts",
            "algebra-unknown-keyword",
            "config-unknown-keyword",
            "algebra-end-of-document",
            "mr-end-of-document",
            "sut-end-of-document",
            "mr-field-before-mr",
            "sut-body-before-sut",
            "mr-field-without-equals",
            "unknown-acts",
            "unknown-regime",
            "unknown-homogeneity",
            "unknown-domain",
            "unknown-matrix-effect",
            "unknown-override-effect",
            "unknown-mutators-category",
            "unknown-matrix-category",
            "duplicate-label",
            "duplicate-matrix-cell",
            "duplicate-override-cell",
        ),
    )
    def test_message(self, parse, body, kind, message):
        with pytest.raises((SpecSyntaxError, SpecSemanticError)) as exc:
            parse(f"{HEADER}\n{body}\n")
        assert type(exc.value) is kind
        assert str(exc.value) == message


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


# the breaks `str.splitlines` makes that `open` does not
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineBreaks:
    """A document's lines end at "\\n", "\\r\\n" or "\\r" only, as `open` reads them."""

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS, ids=lambda sep: f"U+{ord(sep):04X}")
    def test_a_comment_keeps_its_line(self, sep):
        lines = [HEADER, "algebra t", f"# a comment {sep} here", OPERATOR_F, "generators f"]
        assert parse_algebra("\n".join(lines)) == parse_algebra("\n".join(lines[:2] + lines[3:]))
        with pytest.raises(SpecSyntaxError) as info:
            parse_algebra("\n".join(lines[:4] + ["bogus"]))
        assert (info.value.line, info.value.col) == (5, 1)

    def test_a_form_feed_is_whitespace_in_a_body_line(self):
        head = f"{HEADER}\nsut f(x) blocks=G homogeneity=none\n"
        (decl,) = parse_sut_file(head + "t = x\x0c+ 1\nreturn t\n")
        (plain,) = parse_sut_file(head + "t = x + 1\nreturn t\n")
        assert decl.program == plain.program

    @pytest.mark.parametrize("newline", ("\r\n", "\r"), ids=("crlf", "cr"))
    def test_crlf_and_cr_documents_read_as_with_lf(self, newline):
        for text in (fixture_text("sort.alg"), f"{HEADER}\nalgebra t\n\n{OPERATOR_F}\ngenerators f\n"):
            assert parse_algebra(text.replace("\n", newline)) == parse_algebra(text)
        # a missing head line is an error at the line after the last, with or
        # without a final line break
        for text in (f"{HEADER}\n# only a comment\n", f"{HEADER}\n# only a comment", f"{HEADER}\n\n\n"):
            lines = {}
            for sep in ("\n", newline):
                with pytest.raises(SpecSyntaxError) as info:
                    parse_algebra(text.replace("\n", sep))
                lines[sep] = info.value.line
            assert lines[newline] == lines["\n"] == text.count("\n") + 1 + (not text.endswith("\n"))


class TestMutatorParsing:
    def test_unknown_category(self):
        with pytest.raises(SpecSemanticError):
            parse_mutator_config(f"{HEADER}\nmutators FROBNICATE\n")

    @pytest.mark.parametrize("line", ("mutators", "mutators ,"))
    def test_empty_category_list(self, line):
        with pytest.raises(SpecSemanticError, match="no mutator category on line 2"):
            parse_mutator_config(f"{HEADER}\n{line}\n")

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

    @pytest.mark.parametrize("line", ("suts", "suts ,"))
    def test_empty_sut_list(self, line):
        # an empty list would otherwise mean every subject
        with pytest.raises(SpecSemanticError, match="^suts: no subject on line 2$"):
            parse_mutator_config(f"{HEADER}\n{line}\n")

    def test_duplicate_suts(self):
        with pytest.raises(SpecSemanticError, match="second suts line at 3"):
            parse_mutator_config(f"{HEADER}\nsuts clamp\nsuts midpoint\n")

    def test_negative_seed(self):
        with pytest.raises(SpecSemanticError, match="line 2"):
            parse_mutator_config(f"{HEADER}\nseed -5\n")


class TestErrorColumns:
    """A syntax error points at its own word, not at the first equal text on the line."""

    @pytest.mark.parametrize(
        "parse,prefix,line,col",
        (
            (parse_algebra, "algebra t", "operator op1 op", 14),
            (parse_algebra, "algebra t", "operator gen acts=input blocks=G regime=finite size=2 cost=ge", 60),
            (parse_algebra, "algebra t", "operator gen acts=input blocks=G regime=finite size=", 53),
            (parse_algebra, "algebra t", "operator acts acts=input blocks=G acts", 35),
            (parse_mr_descriptor, "mr rho_x", "tolerance=1e-9 directions=1e", 27),
            (parse_mr_descriptor, "mr rho_x", "unit=absolute diff_order=", 26),
            (parse_sut_file, "", "sut f(a1x, 1x) blocks=G", 12),
            (parse_sut_file, "", "sut f(blocks) blocks=G blocks", 24),
            (parse_mutator_config, "", "matrix MATH MATH", 13),
            (parse_mutator_config, "", "override MATH MATH MATH", 20),
            (parse_mutator_config, "", "seed s", 6),
            (parse_mutator_config, "", "seed", 5),
            (parse_algebra, "algebra t", "   operator op1 op", 17),
            (parse_sut_file, "", "  bogus line", 3),
            (parse_sut_file, "sut f(x) blocks=G", "    y = x + )", 13),
            (parse_sut_file, "sut f(x) blocks=G", "  return x + )", 14),
            (parse_sut_file, "", "sut my f/x(x) blocks=G", 5),
            (parse_sut_file, "", "  sut a-b(x) blocks=G", 7),
            (parse_sut_file, "", "sut (x) blocks=G", 5),
        ),
        ids=(
            "attribute-inside-keyword",
            "value-inside-earlier-word",
            "empty-size",
            "attribute-equal-to-operator-name",
            "mr-value-inside-earlier-value",
            "empty-mr-value",
            "parameter-inside-earlier-parameter",
            "attribute-equal-to-parameter",
            "matrix-cell-equal-to-category",
            "override-cell-equal-to-sut",
            "seed-inside-keyword",
            "empty-seed",
            "indented-attribute",
            "indented-keyword",
            "indented-body-line",
            "indented-return-line",
            "sut-name-with-space-and-slash",
            "indented-sut-name-with-dash",
            "missing-sut-name",
        ),
    )
    def test_column_of_the_offending_word(self, parse, prefix, line, col):
        head = [HEADER, prefix] if prefix else [HEADER]
        body = ["return 1"] if parse is parse_sut_file else []
        with pytest.raises(SpecSyntaxError) as info:
            parse("\n".join(head + [line] + body) + "\n")
        assert (info.value.line, info.value.col) == (len(head) + 1, col)

    @pytest.mark.parametrize(
        "word,message",
        (
            ("=x", "line 3, column 12: expected one of acts, blocks, regime, size, cost"),
            ("cost=", "line 3, column 17: expected integer for cost"),
            ("size=x=1", "line 3, column 17: expected integer for size, found 'x=1'"),
        ),
        ids=("empty-key", "empty-integer", "equals-in-integer"),
    )
    def test_attribute_errors(self, word, message):
        line = f"operator f {word}"
        with pytest.raises(SpecSyntaxError) as exc:
            _parse_attrs("f", 3, line, [word], _OPERATOR_KEYS)
        assert str(exc.value) == message


def _noether_modules_after(code: str) -> set:
    """The noether modules a fresh interpreter holds after running `code`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'noether'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout.strip()))


class TestImportsFollowUse:
    """Reading a document loads the evaluators only where it needs them."""

    def test_algebras_and_descriptors_load_neither_evaluator(self):
        loaded = _noether_modules_after(
            "from noether import zoo\n"
            "for name in zoo.BUNDLED_ALGEBRAS:\n"
            "    if name != 'relational': zoo.load_algebra(name)\n"
            f"for name in {[f[:-3] for f in MR_FIXTURES]!r}: zoo.load_descriptor(name)\n"
        )
        assert "noether.reachability" in loaded
        assert not loaded & {"noether.minilang", "noether.plans", "noether.relational"}

    def test_rewrite_lines_load_the_relational_parser(self):
        loaded = _noether_modules_after("from noether import zoo; zoo.load_algebra('relational')")
        assert "noether.plans" in loaded
        assert not loaded & {"noether.minilang", "noether.relational"}

    def test_subjects_and_config_load_no_relational_or_reachability(self):
        loaded = _noether_modules_after("from noether import zoo; zoo.load_zoo(); zoo.load_mutator_config()")
        assert "noether.minilang" in loaded
        assert not loaded & {"noether.relational", "noether.reachability"}

    def test_rewrite_rules_are_checked_without_the_spec_parser(self):
        # an unbound variable is the rule's own ValueError; only the `.alg`
        # parser turns it into a SpecSemanticError
        loaded = _noether_modules_after(
            "from noether.plans import RewriteRule, parse_guard, parse_pattern as pat\n"
            "try:\n"
            "    RewriteRule('r', pat('select(p,R)'), pat('select(p,Q)'), parse_guard('none'))\n"
            "except ValueError as exc:\n"
            "    assert 'Q, which lhs does not bind' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('an unbound rhs variable was accepted')\n"
        )
        assert "noether.plans" in loaded
        assert not loaded & {"noether.relational", "noether.specfile"}

    def test_cli_import_loads_every_module(self):
        # the benchmark tracer patches every module after `import noether.cli`
        package = Path(__file__).resolve().parents[1] / "src" / "noether"
        modules = {"noether"} | {f"noether.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
        assert len(modules) == 16
        assert _noether_modules_after("import noether.cli") == modules


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
