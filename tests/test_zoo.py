"""Subject-zoo tests: oracles for every subject, samplers, SGD."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether._rng import Generator
from noether.minilang import compile_program
from noether.specfile import HEADER, parse_sut_file
from noether.zoo import (
    LAMBDA_SAMPLES,
    SCALING_BUDGET,
    SUT_G_ACTIONS,
    SUT_ORDER_SPECS,
    GAction,
    check_homogeneity,
    default_sgd_fixture,
    load_zoo,
    sample_args,
    scaling_sample,
    sgd_roundtrip_residual,
    SgdTrajectory,
    small_int_grid,
)

ZOO = load_zoo()
FN = {name: compile_program(decl.program) for name, decl in ZOO.items()}

SUBJECT_NAMES = {
    "midpoint",
    "exactLog2",
    "isSequence",
    "clamp",
    "signum",
    "caddSig",
    "gcdSig",
    "lcmSig",
    "hypotSig",
    "powerSig",
}


# --- subject oracles ----------------------------------------------------------


class TestSubjectOracles:
    def test_roster(self):
        assert set(ZOO) == SUBJECT_NAMES

    @given(st.integers(-80, 80), st.integers(-80, 80))
    def test_gcd_matches_stdlib(self, a, b):
        assert FN["gcdSig"](float(a), float(b)) == float(math.gcd(a, b))

    @given(st.integers(-60, 60), st.integers(-60, 60))
    def test_lcm_matches_stdlib(self, a, b):
        assert FN["lcmSig"](float(a), float(b)) == float(math.lcm(a, b))

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_hypot_matches_stdlib(self, x, y):
        assert FN["hypotSig"](x, y) == pytest.approx(math.hypot(x, y), abs=1e-9)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_midpoint(self, a, b):
        assert FN["midpoint"](a, b) == (a + b) / 2

    @given(st.integers(-5, 40))
    def test_exact_log2_is_clipped_floor_log(self, x):
        expected = 0 if x < 2 else min(5, x.bit_length() - 1)
        assert FN["exactLog2"](float(x)) == float(expected)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20))
    def test_clamp(self, x, lo, hi):
        got = FN["clamp"](x, lo, hi)
        # declared contract only constrains the valid cone lo <= hi
        if lo <= hi:
            assert got == min(max(x, lo), hi)

    @given(st.floats(-30, 30))
    def test_signum(self, x):
        assert FN["signum"](x) == float((x > 0) - (x < 0))

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
    def test_is_sequence(self, a, b, c):
        got = FN["isSequence"](float(a), float(b), float(c))
        assert got == float(a <= b <= c)

    @given(st.floats(-40, 40), st.floats(-40, 40), st.floats(-40, 40), st.floats(-40, 40))
    def test_cadd_is_capped_sum_modulus(self, ar, ai, br, bi):
        expected = min(abs(complex(ar, ai) + complex(br, bi)), 1e6)
        assert FN["caddSig"](ar, ai, br, bi) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(-20, 20), st.integers(1, 5))
    def test_power_sig(self, x, n):
        expected = float(x**3) if n == 3 else float(x)
        assert FN["powerSig"](float(x), float(n)) == expected


# --- executable symmetry metadata ----------------------------------------------


class TestActionTables:
    def test_every_action_names_a_real_subject_and_position(self):
        for sut, actions in SUT_G_ACTIONS.items():
            arity = len(ZOO[sut].params)
            for action in actions:
                assert all(0 <= i < arity for i in action.flips)

    def test_order_specs_point_at_real_coordinates(self):
        for sut, spec in SUT_ORDER_SPECS.items():
            assert 0 <= spec.coordinate < len(ZOO[sut].params)

    def test_gcd_declares_order_block_without_executable_encoding(self):
        from noether.algebra import BlockKind

        assert BlockKind.O_LE in ZOO["gcdSig"].blocks
        assert "gcdSig" not in SUT_ORDER_SPECS

    def test_apply_semantics(self):
        flip = GAction("f", flips=(1,))
        assert flip.apply((3.0, 4.0)) == (3.0, -4.0)
        shift = GAction("s", shift=True)
        assert shift.apply((1.0, 2.0), offset=0.5) == (1.5, 2.5)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    def test_declared_relations_hold_on_the_reference_subjects(self, x, y):
        # negate-all on midpoint negates the output
        act = SUT_G_ACTIONS["midpoint"][0]
        assert FN["midpoint"](*act.apply((x, y))) == -FN["midpoint"](x, y)
        # conjugation preserves the modulus
        cadd = SUT_G_ACTIONS["caddSig"][0]
        assert FN["caddSig"](*cadd.apply((x, y, y, x))) == pytest.approx(
            FN["caddSig"](x, y, y, x), abs=1e-9
        )


# --- samplers -------------------------------------------------------------------


class TestSamplers:
    def test_sample_args_deterministic(self):
        decl = ZOO["clamp"]
        a = sample_args(decl, Generator(5))
        b = sample_args(decl, Generator(5))
        assert a == b

    @given(st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_cones(self, seed):
        rng = Generator(seed)
        nn = sample_args(ZOO["caddSig"], rng, cone="nonneg")
        assert all(v >= 0 for v in nn)
        lh = sample_args(ZOO["clamp"], Generator(seed), cone="lo-le-hi")
        assert lh[1] <= lh[2]
        nz = sample_args(ZOO["gcdSig"], Generator(seed), nonzero=True)
        assert all(v != 0 for v in nz)

    def test_integer_domain_draws_integers(self):
        rng = Generator(0)
        for _ in range(50):
            args = sample_args(ZOO["gcdSig"], rng)
            assert all(v == int(v) for v in args)

    def test_scaling_points_are_bases_then_scaled(self):
        decl = ZOO["midpoint"]
        sample = scaling_sample(decl, 11)
        assert len(sample) == SCALING_BUDGET
        for k, (base, scaled, lam) in enumerate(sample):
            assert len(base) == len(decl.params)
            assert scaled == tuple(lam * a for a in base)
            assert lam == LAMBDA_SAMPLES[k % len(LAMBDA_SAMPLES)]

    def test_scaling_sample_deterministic_in_seed(self):
        decl = ZOO["hypotSig"]
        assert scaling_sample(decl, 3)[:20] == scaling_sample(decl, 3)[:20]
        assert scaling_sample(decl, 3)[:20] != scaling_sample(decl, 4)[:20]

    def test_small_int_grid_sizes(self):
        assert len(small_int_grid(1)) == 17
        assert len(small_int_grid(2)) == 13**2
        assert len(small_int_grid(3)) == 7**3
        assert len(small_int_grid(4)) == 5**4
        assert all(len(p) == 3 for p in small_int_grid(3))


# --- homogeneity ------------------------------------------------------------------


DEGREE_ONE = ("midpoint", "clamp", "gcdSig", "lcmSig", "hypotSig")


def first_points(decl, k):
    """The bases, then the scaled points, of the pinned-seed scaling
    sample's first k draws: exactly the points of a k-draw sample."""
    sample = scaling_sample(decl, 20260816)[:k]
    return [base for base, _, _ in sample] + [scaled for _, scaled, _ in sample]


class TestHomogeneity:
    @pytest.mark.parametrize("name", DEGREE_ONE)
    def test_degree_one_subjects_pass(self, name):
        decl = ZOO[name]
        assert check_homogeneity(decl, LAMBDA_SAMPLES, first_points(decl, 40), 1e-6)

    def test_scale_invariant_subject_passes(self):
        decl = ZOO["signum"]
        assert check_homogeneity(decl, LAMBDA_SAMPLES, first_points(decl, 40), 0.0)

    def test_affine_offset_fails_degree_one(self):
        text = f"{HEADER}\nsut off(x) blocks=L_star homogeneity=degree-1\nreturn x + 1\n"
        decl = parse_sut_file(text)[0]
        assert not check_homogeneity(decl, (2.0,), [(3.0,)], 1e-6)

    def test_undeclared_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            check_homogeneity(ZOO["exactLog2"], LAMBDA_SAMPLES, [(2.0,)], 1e-6)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            check_homogeneity(ZOO["midpoint"], (0.0,), [(1.0, 2.0)], 1e-6)

    def test_budget_constant(self):
        assert SCALING_BUDGET == 100


# --- SGD round trip ------------------------------------------------------------


class TestSgdRoundTrip:
    def test_error_order_ratio_near_four(self):
        r1 = sgd_roundtrip_residual(*default_sgd_fixture(eta=1e-3))
        r2 = sgd_roundtrip_residual(*default_sgd_fixture(eta=5e-4))
        ratio = r1 / r2
        assert ratio == pytest.approx(3.9834, abs=1e-3)  # frozen
        assert 3.0 <= ratio <= 5.0

    def test_zero_step_size_has_zero_residual(self):
        assert sgd_roundtrip_residual(*default_sgd_fixture(eta=0.0)) == 0.0

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            SgdTrajectory(theta0=(0.0,), eta=-0.1, batch_order=(0,))
        with pytest.raises(ValueError):
            SgdTrajectory(theta0=(0.0,), eta=0.1, batch_order=())

