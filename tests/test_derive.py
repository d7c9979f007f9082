"""Derivation pipeline tests: goldens, uniqueness laws, cost accounting."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noether import algebra as algebra_module
from noether import zoo
from noether._record import FrozenInstanceError
from noether.algebra import (
    ActsOn,
    BlockKind,
    CANONICAL_ORDER,
    Operator,
    OperatorAlgebra,
    Regime,
    UnassignedOperator,
    decompose,
)
from noether.derive import (
    BlockInvariant,
    CostCounter,
    construct_mp,
    extract_invariants,
    quotient_fee,
    synthetic_algebra,
    theorem2_bound,
    translate,
)
from noether.harness import coverage
from noether.reachability import check_reachability
from noether.specfile import algebra_to_text, parse_algebra
from noether.zoo import load_algebra, load_descriptor

FIXTURES = Path(zoo.__file__).with_name("fixtures")
BUNDLED_ALGEBRAS = sorted(p.stem for p in FIXTURES.glob("*.alg"))
BUNDLED_DESCRIPTORS = sorted(p.stem for p in FIXTURES.glob("*.mr"))

# label -> block tag, frozen per bundled algebra
PATTERN_GOLDENS = {
    "boltzmann": {
        "m_inv": "G",
        "m_mono": "O_le",
        "m_adj": "T_star",
        "m_rev": "T_rev",
        "m_conv": "L_star",
        "m_dyn": "D_star",
        "m_cmp": "E_star",
    },
    "equivariant": {
        "m_inv": "G",
        "m_mono": "O_le",
        "m_adj": "T_star",
        "m_rev": "T_rev",
        "m_conv": "L_star",
    },
    "sort": {"m_inv": "G", "m_mono": "O_le"},
    "relational": {
        "m_rel_inv": "G",
        "m_rel_mono": "O_le",
        "m_rel_cmp": "E_star",
        "m_rel": "B_rel",
    },
    "ffn": {"m_stab": "L_star"},
    "pwr": {
        "m_inv": "G",
        "m_mono": "O_le",
        "m_adj": "T_star",
        "m_conv": "L_star",
        "m_dyn": "D_star",
        "m_cmp": "E_star",
    },
}


def label_map(patterns):
    return {p.label: p.block.tag for p in patterns}


# --- random algebras ---------------------------------------------------------

_NON_REWRITE = [b for b in CANONICAL_ORDER if b is not BlockKind.B_REL]
_GROUP_REGIMES = (Regime.FINITE, Regime.LIE, Regime.TRUNCATED)


@st.composite
def random_algebras(draw):
    n = draw(st.integers(1, 12))
    ops = []
    for i in range(n):
        tags = draw(
            st.frozensets(st.sampled_from(_NON_REWRITE), min_size=1, max_size=3)
        )
        group = BlockKind.G in tags
        ops.append(
            Operator(
                name=f"op{i}",
                acts_on=draw(st.sampled_from(tuple(ActsOn))),
                block_tags=tags,
                regime=draw(st.sampled_from(_GROUP_REGIMES)) if group else Regime.NONE,
                group_order_or_dim=draw(st.integers(2, 30)) if group else None,
                cost_hint=draw(st.integers(1, 4)),
            )
        )
    return OperatorAlgebra(
        name="rand", operators=tuple(ops), generators=tuple(o.name for o in ops)
    )


# --- goldens ------------------------------------------------------------------


class TestGoldens:
    @pytest.mark.parametrize("name,expected", sorted(PATTERN_GOLDENS.items()))
    def test_bundled_algebra_patterns(self, name, expected):
        patterns = construct_mp(load_algebra(name))
        assert label_map(patterns) == expected
        assert len(patterns) == len(expected)

    def test_patterns_come_in_canonical_order(self):
        patterns = construct_mp(load_algebra("boltzmann"))
        blocks = [p.block for p in patterns]
        assert blocks == sorted(blocks, key=lambda b: -b.priority)

    def test_removing_the_reversal_operator_drops_exactly_one_pattern(self):
        alg = load_algebra("boltzmann")
        keep = tuple(
            op for op in alg.operators if BlockKind.T_REV not in op.block_tags
        )
        assert len(keep) == len(alg.operators) - 1  # exactly one reversal operator
        smaller = OperatorAlgebra(
            name=alg.name,
            operators=keep,
            generators=tuple(op.name for op in keep),
            semiring_rules=alg.semiring_rules,
            label_overrides=alg.label_overrides,
        )
        expected = dict(PATTERN_GOLDENS["boltzmann"])
        expected.pop("m_rev")
        assert label_map(construct_mp(smaller)) == expected


# --- structural laws ----------------------------------------------------------


class TestConstruction:
    @given(random_algebras())
    @settings(max_examples=150, deadline=None)
    def test_one_pattern_per_populated_block(self, alg):
        patterns = construct_mp(alg)
        populated = {b for op in alg.operators for b in op.block_tags}
        assert {p.block for p in patterns} == populated
        assert len(patterns) == len(populated)

    @given(random_algebras())
    @settings(max_examples=150, deadline=None)
    def test_each_invariant_lives_in_exactly_one_pattern(self, alg):
        patterns = construct_mp(alg)
        for p in patterns:
            for inv in p.members:
                owners = [q for q in patterns if inv in q.members]
                assert owners == [p]
                assert inv.block is p.block

    @given(random_algebras())
    @settings(max_examples=150, deadline=None)
    def test_member_counts_match_tagging(self, alg):
        patterns = construct_mp(alg)
        by_block = {p.block: p for p in patterns}
        for block, p in by_block.items():
            tagged = [op for op in alg.operators if block in op.block_tags]
            assert len(p.members) == len(tagged)
            assert {next(iter(inv.phi)) for inv in p.members} == {
                op.name for op in tagged
            }

    @given(random_algebras())
    @settings(max_examples=100, deadline=None)
    def test_default_labels_without_overrides(self, alg):
        for p in construct_mp(alg):
            assert p.label == p.block.default_label

    def test_untagged_operator_rejected(self):
        alg = OperatorAlgebra(
            name="bad",
            operators=(
                Operator("a", ActsOn.INPUT, frozenset({BlockKind.O_LE})),
                Operator("b", ActsOn.INPUT, frozenset()),
            ),
            generators=("a", "b"),
        )
        with pytest.raises(UnassignedOperator):
            construct_mp(alg)


# one operator in three blocks, one in two, one in one
_MULTI_TAGGED = OperatorAlgebra(
    name="multi",
    operators=(
        Operator(
            "g", ActsOn.INPUT, frozenset({BlockKind.G, BlockKind.O_LE, BlockKind.L_STAR}),
            regime=Regime.FINITE, group_order_or_dim=2,
        ),
        Operator("rev", ActsOn.BOTH, frozenset({BlockKind.T_REV, BlockKind.O_LE})),
        Operator("dyn", ActsOn.OUTPUT, frozenset({BlockKind.D_STAR})),
    ),
    generators=("g", "rev", "dyn"),
)


class TestPopulatedBlocks:
    """`decompose` alone decides which blocks are populated; these pin it
    to the all-kinds scan and the built MetaPatterns it replaced."""

    @given(random_algebras())
    @example(_MULTI_TAGGED)
    @settings(max_examples=150, deadline=None)
    def test_decompose_matches_an_all_kinds_scan(self, alg):
        scan = {
            kind: tuple(op.name for op in alg.operators if kind in op.block_tags)
            for kind in CANONICAL_ORDER
        }
        per_block = decompose(alg).per_block
        assert per_block == scan
        assert tuple(per_block) == CANONICAL_ORDER

    @given(random_algebras(), st.sets(st.sampled_from(CANONICAL_ORDER)))
    @example(_MULTI_TAGGED, {BlockKind.O_LE, BlockKind.E_STAR})
    @settings(max_examples=150, deadline=None)
    def test_coverage_counts_the_built_patterns(self, alg, hit):
        patterns = construct_mp(alg)
        covered = sum(1 for p in patterns if p.block in hit)
        assert coverage(hit, alg) == Fraction(covered, len(patterns))


class TestStoredDecomposition:
    """Each algebra is decomposed once; every reader shares the result."""

    def test_one_decomposition_per_algebra(self, monkeypatch):
        calls = []
        real = algebra_module.decompose

        def counting(alg):
            calls.append(alg.name)
            return real(alg)

        monkeypatch.setattr(algebra_module, "decompose", counting)
        descriptors = [load_descriptor(name) for name in BUNDLED_DESCRIPTORS]
        assert len(BUNDLED_ALGEBRAS) == 6
        for name in BUNDLED_ALGEBRAS:
            alg = load_algebra(name)
            before = (repr(alg), algebra_to_text(alg))
            calls.clear()
            patterns = construct_mp(alg)
            coverage([p.block for p in patterns], alg)
            for descriptor in descriptors:
                check_reachability(descriptor, alg)
            assert calls == [alg.name]
            assert (repr(alg), algebra_to_text(alg)) == before
            assert parse_algebra(algebra_to_text(alg)) == alg

    def test_algebra_is_frozen(self):
        alg = load_algebra("sort")
        with pytest.raises(FrozenInstanceError):
            alg.name = "other"
        with pytest.raises(FrozenInstanceError):
            alg.operators = ()

    def test_untagged_operator_raises_on_every_use(self):
        alg = OperatorAlgebra(
            name="bad",
            operators=(Operator("b", ActsOn.INPUT, frozenset()),),
            generators=("b",),
        )
        for _ in range(2):
            with pytest.raises(UnassignedOperator):
                alg.blocks


class TestTemplates:
    @given(random_algebras())
    @settings(max_examples=150, deadline=None)
    def test_patterns_keep_their_translated_templates(self, alg):
        extracted = extract_invariants(decompose(alg), alg)
        for p in construct_mp(alg):
            assert p.templates == tuple(translate(inv) for inv in extracted[p.block])
            names = [next(iter(t.provenance.phi)) for t in p.templates]
            assert names == [op.name for op in alg.operators if p.block in op.block_tags]
            assert p.members == frozenset(t.provenance for t in p.templates)


class TestTranslate:
    @given(random_algebras())
    @settings(max_examples=100, deadline=None)
    def test_translate_is_deterministic_and_traceable(self, alg):
        extracted = extract_invariants(decompose(alg), alg)
        for block, invariants in extracted.items():
            for inv in invariants:
                t1, t2 = translate(inv), translate(inv)
                assert t1 == t2
                assert t1.block is block
                assert t1.provenance == inv

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            BlockInvariant(BlockKind.G, frozenset())


# --- cost accounting ----------------------------------------------------------


def expected_cost(alg):
    """Recompute the meter's charges from the declared fee schedule."""
    extract = sum(op.cost_hint * len(op.block_tags) for op in alg.operators)
    per_block = {}
    for op in alg.operators:
        for b in op.block_tags:
            per_block[b] = per_block.get(b, 0) + 1
    translate_fee = sum(per_block.values())
    quotient = sum(
        math.ceil(math.log2(i + 2)) for n in per_block.values() for i in range(n)
    )
    aggregate = len(per_block)
    return extract + translate_fee + quotient + aggregate


class TestCost:
    @given(random_algebras())
    @settings(max_examples=100, deadline=None)
    def test_counter_matches_fee_schedule(self, alg):
        counter = CostCounter()
        construct_mp(alg, counter)
        assert counter.total == expected_cost(alg)

    @pytest.mark.parametrize("n,measured", [(10, 40), (100, 530), (1000, 8278)])
    def test_synthetic_totals_stay_under_ceiling(self, n, measured):
        counter = CostCounter()
        construct_mp(synthetic_algebra(n), counter)
        assert counter.total == measured  # frozen; drift means the meter changed
        assert counter.total <= theorem2_bound(n)

    def test_quotient_fee_is_the_log_sum(self):
        # the meter's integer fee against the log2 schedule `expected_cost` reads
        log_sum = bit_sum = 0
        for n in range(2**16 + 1):
            assert quotient_fee(n) == log_sum == bit_sum
            log_sum += math.ceil(math.log2(n + 2))
            bit_sum += (n + 1).bit_length()

    def test_ceiling_formula(self):
        assert theorem2_bound(10) == pytest.approx(1.5 * 10 * math.log2(11))
        assert theorem2_bound(10, max_cost_hint=2) == pytest.approx(
            2 * 1.5 * 10 * math.log2(11)
        )

    def test_synthetic_algebra_shape(self):
        alg = synthetic_algebra(14)
        assert len(alg.operators) == 14
        tagged = {b for op in alg.operators for b in op.block_tags}
        assert BlockKind.B_REL not in tagged
        assert len(tagged) == 7
        for op in alg.operators:
            if BlockKind.G in op.block_tags:
                assert op.regime is Regime.FINITE and op.group_order_or_dim == 2
        with pytest.raises(ValueError):
            synthetic_algebra(0)
