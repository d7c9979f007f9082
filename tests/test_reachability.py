"""Reachability tests: fixture verdicts, obstruction logic, admission."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.algebra import BlockKind
from noether.reachability import (
    MRDescriptor,
    Obstruction,
    check_reachability,
    structural_obstructions,
)
from noether.zoo import load_algebra, load_descriptor

VERDICT_GOLDENS = (
    ("rho_nonadd", "boltzmann", ("O1", "O2", "O3"), None),
    ("rho_mtc_bor", "boltzmann", ("O1", "O4", "O5"), None),
    ("rho_rot", "equivariant", (), "G"),
    ("rho_adj", "equivariant", (), "T_star"),
    ("rho_train_rev", "equivariant", (), "T_rev"),
    ("rho_join_comm", "relational", (), "G"),
)


class TestFixtureVerdicts:
    @pytest.mark.parametrize("mr_name,alg_name,tags,block", VERDICT_GOLDENS)
    def test_bundled_descriptors(self, mr_name, alg_name, tags, block):
        verdict = check_reachability(load_descriptor(mr_name), load_algebra(alg_name))
        assert verdict.obstruction_tags() == tags
        assert verdict.reachable is (block is not None)
        if block is None:
            assert verdict.assigned_block is None
        else:
            assert verdict.assigned_block.tag == block

    @pytest.mark.parametrize(
        "fixture,tag",
        [(f"only_o{i}", f"O{i}") for i in range(1, 6)],
    )
    def test_single_obstruction_controls(self, fixture, tag):
        mr = load_descriptor(fixture)
        verdict = check_reachability(mr, load_algebra("boltzmann"))
        assert verdict.obstruction_tags() == (tag,)
        assert not verdict.reachable and verdict.assigned_block is None


class TestObstructionLogic:
    def test_each_feature_maps_to_its_obstruction(self):
        assert structural_obstructions(
            MRDescriptor("x", output_domain="operator-spectrum")
        ) == frozenset({Obstruction.O1})
        assert structural_obstructions(
            MRDescriptor("x", relation_form="homomorphism-failure")
        ) == frozenset({Obstruction.O2})
        assert structural_obstructions(
            MRDescriptor("x", adjoint_indexing="configuration-indexed")
        ) == frozenset({Obstruction.O3})
        assert structural_obstructions(
            MRDescriptor("x", difference_order=2)
        ) == frozenset({Obstruction.O4})
        assert structural_obstructions(
            MRDescriptor("x", parameter_directions=3)
        ) == frozenset({Obstruction.O5})
        assert structural_obstructions(MRDescriptor("x")) == frozenset()

    @given(
        st.sampled_from(("program-output", "operator-spectrum")),
        st.sampled_from(
            (
                "equivariance",
                "monotonicity",
                "involution",
                "homomorphism-failure",
                "mixed-difference",
            )
        ),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(("fixed", "configuration-indexed")),
    )
    @settings(max_examples=300)
    def test_obstruction_set_is_pointwise(self, out, form, diff, dirs, adj):
        if form == "mixed-difference" and diff < 2:
            diff = 2  # the parser enforces this pairing; keep descriptors legal
        mr = MRDescriptor(
            "x",
            output_domain=out,
            relation_form=form,
            difference_order=diff,
            parameter_directions=dirs,
            adjoint_indexing=adj,
        )
        got = structural_obstructions(mr)
        assert (Obstruction.O1 in got) == (out == "operator-spectrum")
        assert (Obstruction.O2 in got) == (form == "homomorphism-failure")
        assert (Obstruction.O3 in got) == (adj == "configuration-indexed")
        assert (Obstruction.O4 in got) == (diff >= 2)
        assert (Obstruction.O5 in got) == (dirs >= 2)
        verdict = check_reachability(mr, load_algebra("boltzmann"))
        if got:
            assert not verdict.reachable
            assert verdict.obstructions == got

    def test_descriptor_field_validation(self):
        with pytest.raises(ValueError):
            MRDescriptor("x", output_domain="wavefunction")
        with pytest.raises(ValueError):
            MRDescriptor("x", relation_form="telepathy")
        with pytest.raises(ValueError):
            MRDescriptor("x", difference_order=0)
        with pytest.raises(ValueError):
            MRDescriptor("x", parameter_directions=0)
        with pytest.raises(ValueError):
            MRDescriptor("x", adjoint_indexing="sometimes")
        with pytest.raises(ValueError):
            MRDescriptor("x", tolerance=0.0)


class TestAdmission:
    def test_unobstructed_form_with_no_certifying_block_is_rejected_cleanly(self):
        # sort populates only G and O_le; an involution form has no home there
        verdict = check_reachability(
            MRDescriptor("x", relation_form="involution"), load_algebra("sort")
        )
        assert not verdict.reachable
        assert verdict.obstructions == frozenset()
        assert verdict.assigned_block is None

    def test_assignment_picks_highest_certifying_block(self):
        # equivariance is certified only by the group block
        verdict = check_reachability(MRDescriptor("x"), load_algebra("equivariant"))
        assert verdict.reachable and verdict.assigned_block is BlockKind.G
