"""Algebra data model: block order, decomposition, validation."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noether.algebra import (
    _TAG_TO_KIND,
    CANONICAL_ORDER,
    DESCRIPTOR_ONLY_FORMS,
    RELATION_FORMS,
    ActsOn,
    BlockKind,
    EmptyInput,
    Operator,
    OperatorAlgebra,
    Regime,
    UnassignedOperator,
    canonical_max,
    decompose,
)
from noether.plans import RewriteRule, parse_guard, parse_pattern
from noether.zoo import BUNDLED_ALGEBRAS, load_algebra

BLOCKS = list(BlockKind)


def op(name, *blocks, regime=Regime.NONE, size=None, acts=ActsOn.INPUT, cost=1):
    return Operator(
        name=name,
        acts_on=acts,
        block_tags=frozenset(blocks),
        regime=regime,
        group_order_or_dim=size,
        cost_hint=cost,
    )


class TestBlockOrder:
    def test_canonical_order_matches_spec_sequence(self):
        assert [b.tag for b in CANONICAL_ORDER] == [
            "G", "O_le", "T_star", "T_rev", "L_star", "D_star", "E_star", "B_rel",
        ]

    def test_strict_total_order(self):
        for i, a in enumerate(CANONICAL_ORDER):
            for b in CANONICAL_ORDER[i + 1:]:
                assert b < a and not a < b

    @given(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=12))
    def test_canonical_max_is_max_under_priority(self, blocks):
        got = canonical_max(blocks)
        assert got in blocks
        assert all(got.priority >= b.priority for b in blocks)

    @given(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=8))
    def test_canonical_max_insensitive_to_order_and_duplicates(self, blocks):
        assert canonical_max(blocks) == canonical_max(list(reversed(blocks)) + blocks)

    def test_canonical_max_empty_rejected(self):
        with pytest.raises(EmptyInput):
            canonical_max([])

    def test_tag_round_trip(self):
        for b in BLOCKS:
            assert _TAG_TO_KIND[b.tag] is b


class TestOperatorValidation:
    def test_group_block_requires_regime_and_size(self):
        with pytest.raises(ValueError):
            op("g", BlockKind.G)  # tagged G but regime NONE
        with pytest.raises(ValueError):
            Operator(
                name="g",
                acts_on=ActsOn.INPUT,
                block_tags=frozenset({BlockKind.G}),
                regime=Regime.FINITE,
                group_order_or_dim=None,
            )
        assert op("g", BlockKind.G, regime=Regime.FINITE, size=4).group_order_or_dim == 4

    def test_regime_without_group_block_rejected(self):
        with pytest.raises(ValueError):
            op("m", BlockKind.O_LE, regime=Regime.LIE, size=3)

    def test_cost_hint_must_be_positive(self):
        with pytest.raises(ValueError):
            op("m", BlockKind.O_LE, cost=0)

    @pytest.mark.parametrize("size", (0, 5))
    def test_size_without_regime_rejected(self, size):
        # the printed form writes a size only beside a regime, so it would be lost
        with pytest.raises(ValueError, match=rf"^size is only allowed together with a regime \(size={size}\)$"):
            op("m", BlockKind.O_LE, size=size)

    @pytest.mark.parametrize("tags", ({"G"}, {BlockKind.O_LE, "G"}))
    def test_bad_block_tag_named(self, tags):
        with pytest.raises(ValueError, match=r"^bad block tag 'G'$"):
            Operator(name="m", acts_on=ActsOn.INPUT, block_tags=tags)


class TestAlgebraValidation:
    def test_duplicate_operator_names_rejected(self):
        a = op("x", BlockKind.O_LE)
        with pytest.raises(ValueError):
            OperatorAlgebra(name="bad", operators=(a, a), generators=("x",))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            OperatorAlgebra(name="bad", operators=(op("x", BlockKind.O_LE),), generators=("y",))

    def test_rewrite_block_requires_rules_and_vice_versa(self):
        rel = op("w", BlockKind.B_REL)
        with pytest.raises(ValueError):
            OperatorAlgebra(name="bad", operators=(rel,), generators=("w",))
        rule = RewriteRule("r", parse_pattern("select(true,R)"), parse_pattern("R"), parse_guard("none"))
        with pytest.raises(ValueError):
            OperatorAlgebra(
                name="bad",
                operators=(op("x", BlockKind.O_LE),),
                generators=("x",),
                semiring_rules=(rule,),
            )
        ok = OperatorAlgebra(
            name="ok", operators=(rel,), generators=("w",), semiring_rules=(rule,)
        )
        assert ok.semiring_rules == (rule,)


class TestImmutability:
    @pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
    def test_bundled_algebras_hash(self, name):
        alg, again = load_algebra(name), load_algebra(name)
        assert hash(alg) == hash(again)
        assert {alg: name}[again] == name

    def test_label_map_cannot_be_edited_in_place(self):
        alg = load_algebra("relational")
        labels = dict(alg.label_overrides)
        edits = (
            lambda m: m.__setitem__(BlockKind.G, "edited"),
            lambda m: m.__delitem__(BlockKind.G),
            lambda m: m.__ior__({BlockKind.G: "edited"}),
            lambda m: m.update({BlockKind.G: "edited"}),
            lambda m: m.setdefault(BlockKind.T_STAR, "edited"),
            lambda m: m.pop(BlockKind.G),
            lambda m: m.popitem(),
            lambda m: m.clear(),
        )
        for edit in edits:
            with pytest.raises(TypeError):
                edit(alg.label_overrides)
        assert alg.label_overrides == labels
        assert repr(alg.label_overrides) == repr(labels)
        assert copy.deepcopy(alg) == pickle.loads(pickle.dumps(alg)) == alg

    def test_label_map_is_copied_from_the_caller(self):
        labels = {BlockKind.O_LE: "m_mine"}
        alg = OperatorAlgebra(
            name="a", operators=(op("x", BlockKind.O_LE),), generators=("x",), label_overrides=labels
        )
        labels[BlockKind.O_LE] = "m_changed"
        assert alg.label_overrides == {BlockKind.O_LE: "m_mine"}


class TestDecomposition:
    def test_every_tagged_block_is_populated(self):
        algebra = OperatorAlgebra(
            name="two",
            operators=(
                op("g", BlockKind.G, BlockKind.L_STAR, regime=Regime.FINITE, size=2),
                op("m", BlockKind.O_LE),
            ),
            generators=("g", "m"),
        )
        decomp = decompose(algebra)
        assert set(decomp.nonempty_blocks()) == {BlockKind.G, BlockKind.O_LE, BlockKind.L_STAR}
        assert decomp.operators_in(BlockKind.G) == ("g",)
        assert decomp.operators_in(BlockKind.T_REV) == ()

    def test_untagged_operator_rejected(self):
        bare = Operator(name="idle", acts_on=ActsOn.INPUT, block_tags=frozenset())
        algebra = OperatorAlgebra(name="one", operators=(bare,), generators=("idle",))
        with pytest.raises(UnassignedOperator):
            decompose(algebra)

    def test_relation_form_map_is_total_and_injective(self):
        forms = [b.relation_form for b in BLOCKS]
        assert len(set(forms)) == len(BLOCKS)
        assert set(forms) == set(RELATION_FORMS) - set(DESCRIPTOR_ONLY_FORMS)
