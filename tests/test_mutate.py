"""Mutation-engine tests: matrix rows, strata, tagging, survivor censuses."""

import builtins
import hashlib
import math
from collections import Counter
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether import cli, minilang
from noether._record import replace
from noether.algebra import BlockKind
from noether.harness import ScalingMR, check_mr, generate_tuples
from noether.minilang import Const, DomainError, Op, Var, compile_program
from noether.mutate import (
    BREAKS,
    BUNDLED_OVERRIDES,
    CASE,
    CompatibilityMatrix,
    DEFAULT_CELLS,
    DEFAULT_MATRIX,
    MissingOverride,
    Mutant,
    MutatorCategory,
    PRESERVES,
    _DOMAIN_ERROR,
    _POLY,
    _Subject,
    _candidates,
    _rebuild,
    _statement_exprs,
    classify,
    homogeneity_effect_of,
    is_trivially_equivalent,
    mutant_id,
    mutate,
    syntactic_degree,
)
from noether.specfile import HEADER, MutatorConfig, parse_sut_file, sut_file_to_text
from noether.zoo import (
    LAMBDA_SAMPLES,
    check_homogeneity,
    load_mutator_config,
    load_zoo,
    scaling_sample,
    small_int_grid,
)

ZOO = load_zoo()
SEED = 20260816


def subject(decl):
    return _Subject(decl, SEED)


def candidate_stmt(m, decl=None):
    """The mutant's replaced statement, found again through `_candidates`
    from its subject (the zoo's by default) and its site."""
    decl = decl or ZOO[m.base]
    (stmt,) = [s for _, k, path, s in _candidates(decl, [m.category]) if (k, path) == m.site]
    return stmt


def program_of(m, decl=None):
    """The mutant's program, rebuilt on its own from its subject and site."""
    return _rebuild((decl or ZOO[m.base]).program, m.site[0], candidate_stmt(m, decl))


def replacement(m, decl=None):
    """The node at the mutant's site in its own program."""
    return dict(minilang.walk(candidate_stmt(m, decl)))[m.site[1]]


_COLUMNS = (
    BlockKind.G,
    BlockKind.O_LE,
    BlockKind.T_STAR,
    BlockKind.T_REV,
    BlockKind.L_STAR,
    BlockKind.D_STAR,
    BlockKind.E_STAR,
    BlockKind.B_REL,
)

# independently re-encoded compatibility rows (o=preserves x=breaks ~=case)
EXPECTED_ROWS = {
    "CONDITIONALS_BOUNDARY": "oxooo~oo",
    "INCREMENTS": "xxxxx~oo",
    "INVERT_NEGS": "~x~x~~oo",
    "MATH": "x~xxox~o",
    "NEGATE_CONDITIONALS": "xx~x~x~x",
    "RETURN_VALS": "ooxxoo~o",
    "CALL_REMOVAL": "ooooox~o",
}
_DECODE = {"o": PRESERVES, "x": BREAKS, "~": CASE}


class TestMatrix:
    def test_default_cells_match_declared_rows(self):
        assert len(DEFAULT_CELLS) == 7 * 8
        for cat, row in EXPECTED_ROWS.items():
            for block, char in zip(_COLUMNS, row):
                assert DEFAULT_CELLS[(cat, block)] == _DECODE[char], (cat, block)

    def test_overrides_only_resolve_case_cells(self):
        for (sut, cat, block), effect in BUNDLED_OVERRIDES.items():
            assert DEFAULT_CELLS[(cat, block)] == CASE, (sut, cat, block)
            assert effect in (PRESERVES, BREAKS)

    def test_effect_resolution(self):
        m = DEFAULT_MATRIX
        assert m.effect("anything", "MATH", BlockKind.G) == BREAKS
        assert m.effect("midpoint", "MATH", BlockKind.O_LE) == PRESERVES
        assert m.effect("caddSig", "MATH", BlockKind.O_LE) == BREAKS

    def test_with_config_layers_patches_and_overrides(self):
        cfg = MutatorConfig(
            matrix_patches={("MATH", BlockKind.L_STAR): BREAKS},
            overrides={("midpoint", "MATH", BlockKind.O_LE): BREAKS},
        )
        patched = DEFAULT_MATRIX.with_config(cfg)
        assert patched.cells[("MATH", BlockKind.L_STAR)] == BREAKS
        assert patched.effect("midpoint", "MATH", BlockKind.O_LE) == BREAKS
        # the original is untouched
        assert DEFAULT_MATRIX.cells[("MATH", BlockKind.L_STAR)] == PRESERVES

    def test_cell_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            CompatibilityMatrix(cells={("MATH", BlockKind.G): "sometimes"})
        with pytest.raises(ValueError):
            CompatibilityMatrix(overrides={("s", "MATH", BlockKind.G): CASE})


class TestClassify:
    def test_missing_override_raises(self):
        with pytest.raises(MissingOverride):
            classify("nobody", "MATH", DEFAULT_MATRIX, frozenset({BlockKind.O_LE}))
        with pytest.raises(MissingOverride):
            DEFAULT_MATRIX.effect("nobody", "MATH", BlockKind.O_LE)

    def test_missing_override_names_the_first_block_in_canonical_order(self):
        # INVERT_NEGS is case-dependent on both G and L_star; which cell is
        # reported must not depend on how the set iterates
        for blocks in (
            frozenset({BlockKind.G, BlockKind.L_STAR}),
            frozenset({BlockKind.L_STAR, BlockKind.O_LE, BlockKind.G}),
        ):
            with pytest.raises(MissingOverride, match=r"\(INVERT_NEGS, G\)") as exc:
                classify("nobody", "INVERT_NEGS", DEFAULT_MATRIX, blocks)
            assert exc.value.block is BlockKind.G

    def test_unpopulated_case_cells_never_consulted(self):
        broken = classify("nobody", "MATH", DEFAULT_MATRIX, frozenset({BlockKind.G}))
        assert broken == frozenset({BlockKind.G})

    def test_strata_follow_the_broken_blocks(self):
        probe = Mutant(
            base="x",
            category=MutatorCategory.MATH,
            site=(0, ()),
            broken_blocks=frozenset(),
            homogeneity_effect="breaking",
            fn=compile_program(ZOO["midpoint"].program),
        )
        assert probe.strata == "D2"
        assert replace(probe, broken_blocks=frozenset({BlockKind.G})).strata == "D1"


# survivor census at the pinned seed: (total, D1, preserving, per-category)
CENSUS = {
    "midpoint": (3, 2, 2, {"MATH": 2, "RETURN_VALS": 1}),
    "clamp": (4, 3, 3, {"NEGATE_CONDITIONALS": 2, "CONDITIONALS_BOUNDARY": 1, "RETURN_VALS": 1}),
    "signum": (
        7,
        6,
        4,
        {"CONDITIONALS_BOUNDARY": 2, "INCREMENTS": 2, "NEGATE_CONDITIONALS": 2, "RETURN_VALS": 1},
    ),
    "gcdSig": (
        32,
        30,
        10,
        {"NEGATE_CONDITIONALS": 15, "INCREMENTS": 12, "MATH": 3, "RETURN_VALS": 1, "CALL_REMOVAL": 1},
    ),
    "lcmSig": (
        37,
        34,
        10,
        {"NEGATE_CONDITIONALS": 16, "INCREMENTS": 13, "MATH": 5, "CALL_REMOVAL": 2, "RETURN_VALS": 1},
    ),
    "hypotSig": (5, 3, 0, {"MATH": 3, "RETURN_VALS": 1, "CALL_REMOVAL": 1}),
}


# First 16 hex digits of the SHA-256 of `mutate <subject> --format machine
# --seed <seed>`, one row per mutant: id, category, strata, effect and broken
# blocks.  Recorded before the expression tree became Const | Var | Op.
CENSUS_DIGESTS = {
    (0, "midpoint"): "302534b65ba3e398",
    (0, "exactLog2"): "a598fe4a02878eba",
    (0, "isSequence"): "ba1693908c11965e",
    (0, "clamp"): "f2366880d6bb4f91",
    (0, "signum"): "92f8a71872ce279f",
    (0, "caddSig"): "6751eb2a5f1ae2c2",
    (0, "gcdSig"): "1c288317c97fa1d1",
    (0, "lcmSig"): "94654d9523658286",
    (0, "hypotSig"): "ba37e657c9c3c89d",
    (0, "powerSig"): "c64fa80551568f10",
    (SEED, "midpoint"): "2eb2170197784ad8",
    (SEED, "exactLog2"): "4fdfb813f9ee8a27",
    (SEED, "isSequence"): "5a4da8b2da8bcf7a",
    (SEED, "clamp"): "4920b61bcad24cf1",
    (SEED, "signum"): "095cea8c8f86ed9a",
    (SEED, "caddSig"): "3214b438828d4ab9",
    (SEED, "gcdSig"): "10cb8a27e82b96be",
    (SEED, "lcmSig"): "43a807ed1d103c80",
    (SEED, "hypotSig"): "6b797c0ad1f2cc29",
    (SEED, "powerSig"): "1c340848db8a7301",
}
# the same digest of `sut_file_to_text` over the bundled zoo, in file order
ZOO_TEXT_DIGEST = "e9d78b1c1ec85a57"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestCensusRows:
    @pytest.mark.parametrize("seed,name", sorted(CENSUS_DIGESTS, key=str))
    def test_machine_rows_are_pinned(self, seed, name, capsys):
        assert cli.main(["mutate", name, "--format", "machine", "--seed", str(seed)]) == 0
        assert _digest(capsys.readouterr().out) == CENSUS_DIGESTS[seed, name]

    def test_zoo_prints_as_pinned(self):
        assert _digest(sut_file_to_text(list(ZOO.values()))) == ZOO_TEXT_DIGEST


class TestMutantCensus:
    @pytest.mark.parametrize("name,expected", sorted(CENSUS.items()))
    def test_frozen_counts(self, name, expected):
        total, d1, preserving, by_cat = expected
        mutants = mutate(ZOO[name], seed=SEED)
        assert len(mutants) == total
        assert sum(m.strata == "D1" for m in mutants) == d1
        assert sum(m.homogeneity_effect == "preserving" for m in mutants) == preserving
        assert Counter(m.category.name for m in mutants) == by_cat

    def test_deterministic(self):
        assert mutate(ZOO["gcdSig"], seed=SEED) == mutate(ZOO["gcdSig"], seed=SEED)

    def test_sites_do_not_depend_on_the_tagging_seed(self):
        a = mutate(ZOO["signum"], seed=1)
        b = mutate(ZOO["signum"], seed=2)
        assert [(m.category, m.site) for m in a] == [(m.category, m.site) for m in b]

    def test_category_filter(self):
        only = mutate(ZOO["midpoint"], categories=[MutatorCategory.RETURN_VALS], seed=SEED)
        assert len(only) == 1
        (m,) = only
        assert m.category is MutatorCategory.RETURN_VALS
        assert replacement(m) == Const(0.0)
        assert m.site == (len(ZOO["midpoint"].program.assigns), ())

    def test_describe_format(self):
        (m,) = mutate(ZOO["midpoint"], categories=[MutatorCategory.RETURN_VALS], seed=SEED)
        assert mutant_id(m) == "midpoint/RETURN_VALS@0:root"


class TestSurvivorSoundness:
    @pytest.mark.parametrize("name", sorted(CENSUS))
    def test_every_survivor_differs_on_the_filter_grid(self, name):
        decl = ZOO[name]
        grid = small_int_grid(len(decl.params))
        base_fn = compile_program(decl.program)

        def outcomes(fn):
            out = []
            for p in grid:
                try:
                    out.append(fn(*p))
                except DomainError:
                    out.append("domain-error")
            return out

        base_out = outcomes(base_fn)
        for m in mutate(ZOO[name], seed=SEED):
            fn = compile_program(program_of(m))
            fresh = outcomes(fn)
            assert fresh != base_out, mutant_id(m)
            # the stored function is the mutant's own program, compiled
            assert list(map(repr, outcomes(m.fn))) == list(map(repr, fresh)), mutant_id(m)
            assert not is_trivially_equivalent(subject(decl), m.site[0], candidate_stmt(m), fn)

    @pytest.mark.parametrize("name", ("midpoint", "clamp", "gcdSig", "lcmSig", "signum"))
    def test_preserving_tags_are_certified(self, name):
        """Rule-tagged preservers really satisfy the scaling hypothesis."""
        base = ZOO[name]
        sample = scaling_sample(base, SEED)[:40]
        points = [b for b, _, _ in sample] + [scaled for _, scaled, _ in sample]
        for m in mutate(base, seed=SEED):
            if m.homogeneity_effect != "preserving":
                continue
            mutant = replace(base, program=program_of(m))
            assert check_homogeneity(mutant, LAMBDA_SAMPLES, points, 1e-6), mutant_id(m)

    def test_no_hypothesis_means_breaking(self):
        # exactLog2 declares homogeneity=none: nothing can be tagged preserving
        for m in mutate(ZOO["exactLog2"], seed=SEED):
            assert m.homogeneity_effect == "breaking"


class TestSiteRules:
    def _single(self, body, params=("x",), categories=None):
        """The subject `tiny` with `body`, and its mutants."""
        text = f"{HEADER}\nsut tiny({', '.join(params)}) blocks=O_le\n{body}\n"
        decl = parse_sut_file(text)[0]
        return decl, mutate(decl, categories=categories, seed=SEED)

    def test_increments_touch_only_comparison_thresholds(self):
        decl, mutants = self._single(
            "return x < 3 ? 0 : x + 2", categories=[MutatorCategory.INCREMENTS]
        )
        assert len(mutants) == 1  # the 3, not the 0 branch constant or the +2
        (m,) = mutants
        assert replacement(m, decl) == Const(4.0)

    def test_boundary_flips_strict_to_nonstrict(self):
        decl, mutants = self._single(
            "return x < 3 ? 0 : 1", categories=[MutatorCategory.CONDITIONALS_BOUNDARY]
        )
        (m,) = mutants
        assert replacement(m, decl) == Op("<=", (Var("x"), Const(3.0)))

    def test_call_removal_pins_to_one(self):
        decl, mutants = self._single(
            "return sqrt(x * x)", categories=[MutatorCategory.CALL_REMOVAL]
        )
        (m,) = mutants
        assert replacement(m, decl) == Const(1.0)
        assert ZOO["hypotSig"].program.result.op == "sqrt"  # the zoo exercises the same site rule

    def test_equivalent_candidates_are_filtered(self):
        _, mutants = self._single(
            "return x + 0", categories=[MutatorCategory.MATH]
        )
        # x + 0 -> x - 0: the folded trees differ, but the two agree at every
        # grid point, so the grid route drops the candidate
        assert mutants == ()

    def test_fold_equal_candidates_are_dropped_without_a_call(self, monkeypatch):
        # abs(1) -> 1 gives x + 1, the very tree the base folds to: only the
        # fold route can drop it before its function runs on the grid
        calls = []
        real_variants = minilang.compile_variants

        def counted(fn):
            def run(*args):
                calls.append(args)
                return fn(*args)

            return run

        monkeypatch.setattr(
            minilang, "compile_variants", lambda prog, variants: list(map(counted, real_variants(prog, variants)))
        )
        _, mutants = self._single("return x + abs(1)", categories=[MutatorCategory.CALL_REMOVAL])
        assert mutants == ()
        assert calls == []

    @pytest.mark.parametrize("threshold", ("1e999", "-1e999"))
    def test_infinite_thresholds_are_not_increment_sites(self, threshold):
        text = f"{HEADER}\nsut t(x) blocks=O_le\nreturn x < {threshold} ? 1 : 0\n"
        decl = parse_sut_file(text)[0]
        assert {c[0] for c in _candidates(decl, tuple(MutatorCategory))} == {
            MutatorCategory.CONDITIONALS_BOUNDARY,
            MutatorCategory.NEGATE_CONDITIONALS,
            MutatorCategory.RETURN_VALS,
        }
        assert isinstance(mutate(decl, seed=SEED), tuple)


# sha256 (first 16 hex digits) of the Python source `minilang._compile`
# generates for each bundled subject: its program alone, then the schema of
# its candidates under the bundled config's mutator categories
GENERATED_SOURCE_DIGESTS = {
    "midpoint": ("a0b53ed1a39fc184", "1d454437c266da22"),
    "exactLog2": ("022570cce33468c0", "fed0aca41a1fe40d"),
    "isSequence": ("596c86d4e44b9bde", "a01cf5dea85a81c6"),
    "clamp": ("10102e48cea99351", "96acf2f51fc51c0d"),
    "signum": ("1b2e25f2e8e06ba7", "aae4ad2c127e5849"),
    "caddSig": ("1ac2e61b75ff7f6a", "5369f719eb67b99d"),
    "gcdSig": ("1fc1cb024f898653", "b79d824ac0c5b2ec"),
    "lcmSig": ("2061a8c1133e4c4e", "7728188b56f80a69"),
    "hypotSig": ("7e448d9a2851f9f7", "fb95129f66ef6be4"),
    "powerSig": ("2a48ed53e38db97f", "2fc8d7f58478d134"),
}


class TestGeneratedSource:
    def test_every_bundled_subject_is_pinned(self):
        assert sorted(GENERATED_SOURCE_DIGESTS) == sorted(ZOO)

    @pytest.mark.parametrize("name", sorted(GENERATED_SOURCE_DIGESTS))
    def test_generated_source_is_pinned(self, name, monkeypatch):
        sources = []
        real_compile = builtins.compile

        def recording_compile(source, *args, **kwargs):
            sources.append(source)
            return real_compile(source, *args, **kwargs)

        decl = ZOO[name]
        categories = [MutatorCategory[c] for c in load_mutator_config().categories]
        variants = [(k, stmt) for _, k, _, stmt in _candidates(decl, categories)]
        monkeypatch.setattr(builtins, "compile", recording_compile)
        compile_program(decl.program)
        minilang.compile_variants(decl.program, variants)
        monkeypatch.undo()
        assert tuple(map(_digest, sources)) == GENERATED_SOURCE_DIGESTS[name]


class TestSchemaCost:
    """Each subject compiles its candidates once and folds each statement once."""

    def test_gcd_compiles_twice_and_folds_each_statement_once(self, monkeypatch):
        compiles = []
        real_compile = builtins.compile

        def counting_compile(*args, **kwargs):
            compiles.append(args[1])
            return real_compile(*args, **kwargs)

        folds = []
        depth = [0]
        real_fold = minilang.fold_constants

        def counting_fold(node):
            if not depth[0]:
                folds.append(node)
            depth[0] += 1
            try:
                return real_fold(node)
            finally:
                depth[0] -= 1

        decl = load_zoo()["gcdSig"]  # fresh: `ZOO`'s may already hold its compiled `fn`
        monkeypatch.setattr(builtins, "compile", counting_compile)
        monkeypatch.setattr(minilang, "fold_constants", counting_fold)
        mutants = mutate(decl, seed=SEED)
        monkeypatch.undo()
        # the subject on its own, then the schema of all its candidates
        assert compiles == ["<minilang gcdSig>", "<minilang gcdSig>"]
        assert len(_statement_exprs(ZOO["gcdSig"].program)) == 27
        assert len(_candidates(ZOO["gcdSig"], tuple(MutatorCategory))) == 70
        assert len(folds) == 27 + 70
        assert len(mutants) == CENSUS["gcdSig"][0]

    # the bundled config's subjects, then the one-statement subjects of the shallow kill run
    @pytest.mark.parametrize(
        "suts,counts",
        (
            (None, (165, 88)),
            (("caddSig", "clamp", "exactLog2", "hypotSig", "isSequence", "midpoint", "powerSig", "signum"), (56, 50)),
        ),
        ids=("bundled", "shallow"),
    )
    def test_only_survivors_are_rebuilt(self, suts, counts, monkeypatch):
        cfg = load_mutator_config()
        categories = [MutatorCategory[c] for c in cfg.categories]
        rebuilt = []
        real_rebuild = _rebuild
        monkeypatch.setattr("noether.mutate._rebuild", lambda *args: rebuilt.append(args) or real_rebuild(*args))
        candidates = survivors = 0
        for name in suts or cfg.suts:
            candidates += len(_candidates(ZOO[name], categories))
            survivors += len(mutate(ZOO[name], categories, seed=cfg.seed))
        assert (candidates, len(rebuilt)) == counts
        assert survivors == len(rebuilt)

    def test_blindness_roster_filter_and_tag_counts(self):
        cfg = load_mutator_config()
        categories = [MutatorCategory[c] for c in cfg.categories]
        candidates = survivors = preserving = 0
        for name in cfg.suts:
            candidates += len(_candidates(ZOO[name], categories))
            mutants = mutate(ZOO[name], categories, seed=cfg.seed)
            survivors += len(mutants)
            preserving += sum(m.homogeneity_effect == "preserving" for m in mutants)
        assert (candidates - survivors, survivors, preserving) == (77, 88, 29)


class TestNonFiniteOutputs:
    # x * 1e308 * 10 overflows to inf unless |x| < 0.18, so this body is NaN
    # almost everywhere and 0 near zero
    NAN_BODY = "return x * 1e308 * 10 - x * 1e308 * 10"

    @staticmethod
    def _decl(body):
        return parse_sut_file(f"{HEADER}\nsut n(x) blocks=L_star homogeneity=degree-1\n{body}\n")[0]

    def _same(self, base_body, body):
        """Whether the filter drops the one-statement `body` as the base's."""
        other = self._decl(body)
        return is_trivially_equivalent(subject(self._decl(base_body)), 0, other.program.result, other.fn)

    def test_nan_outcomes_count_as_equal_on_the_grid(self):
        assert self._same(self.NAN_BODY, self.NAN_BODY + " + 0")
        assert not self._same(self.NAN_BODY, "return x - x")

    @pytest.mark.parametrize("body", (NAN_BODY, "return x * 1e308 * 10"))
    def test_non_finite_mutants_are_tagged_breaking(self, body):
        # both pass the degree-1 certificate, and the scaling relation kills
        # both: a preserving tag would be a preserving kill
        base, mutant = self._decl("return x"), self._decl(body)
        assert syntactic_degree(mutant.program) == 1
        assert homogeneity_effect_of(subject(base), mutant.program, mutant.fn) == "breaking"
        scaling = ScalingMR("n:L_scale", base)
        groups = generate_tuples(scaling, SEED)
        assert not check_mr(scaling, compile_program(mutant.program), groups).passed


def full_grid_same(base, fn):
    """The filter's grid route as a full-grid comparison: every outcome of
    the base and of `fn`, then pointwise equal, both NaN, or both DomainError."""

    def outcomes(fn):
        out = []
        for point in base.grid:
            try:
                out.append(fn(*point))
            except DomainError:
                out.append("domain-error")
        return out

    left, right = outcomes(base.fn), outcomes(fn)
    return all(a == b or (a != a and b != b) for a, b in zip(left, right))


def domain_error_below_zero(value):
    def fn(x):
        if x < 0:
            raise DomainError("negative")
        return value

    return fn


def grid_only(decl):
    """The subject of `decl` with folded statements no statement folds to,
    so only the grid can match."""
    base = subject(decl)
    base.folded = (UNFOLDABLE,) * len(base.folded)
    return base


UNFOLDABLE = Var("unfoldable")  # a statement that folds to no subject's statement


class TestEarlyExitFilter:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_agrees_with_the_full_grid_on_every_candidate(self, name):
        decl = ZOO[name]
        base, unfoldable = subject(decl), grid_only(decl)
        candidates = _candidates(decl, tuple(MutatorCategory))
        assert candidates
        for _, k, _, stmt in candidates:
            program = _rebuild(decl.program, k, stmt)
            fn = compile_program(program)
            # the fold route must agree with comparing every folded statement
            folded = tuple(minilang.fold_constants(e) for e in _statement_exprs(program))
            full = base.folded == folded or full_grid_same(base, fn)
            assert is_trivially_equivalent(base, k, stmt, fn) == full
            assert is_trivially_equivalent(unfoldable, k, stmt, fn) == full_grid_same(base, fn)

    @staticmethod
    def _base(base_fn):
        """A one-statement subject whose function is `base_fn`."""
        base = subject(parse_sut_file(f"{HEADER}\nsut h(x) blocks=O_le\nreturn x\n")[0])
        base.fn = base_fn
        return base

    @pytest.mark.parametrize(
        "base_fn,mutant_fn,same",
        (
            (lambda x: math.nan, lambda x: math.nan, True),
            (lambda x: 0.0, lambda x: -0.0, True),
            (lambda x: x, lambda x: math.nan if x == 8 else x, False),
            (lambda x: math.nan if x == -8 else x, lambda x: x, False),
            (domain_error_below_zero(1.0), domain_error_below_zero(1.0), True),
            (domain_error_below_zero(1.0), lambda x: math.nan if x < 0 else 1.0, False),
            (lambda x: 1.0, domain_error_below_zero(1.0), False),
            (domain_error_below_zero(0.0), domain_error_below_zero(-0.0), True),
        ),
        ids=(
            "nan-everywhere",
            "signed-zero",
            "nan-at-the-last-point",
            "nan-at-the-first-point",
            "same-domain-errors",
            "domain-error-against-nan",
            "value-against-domain-error",
            "domain-errors-and-signed-zero",
        ),
    )
    def test_hand_built_outcomes(self, base_fn, mutant_fn, same):
        base = self._base(base_fn)
        assert full_grid_same(base, mutant_fn) is same
        assert is_trivially_equivalent(base, 0, UNFOLDABLE, mutant_fn) is same

    def test_fold_route_decides_without_a_call(self):
        decl = parse_sut_file(f"{HEADER}\nsut h(x) blocks=O_le\nreturn x + abs(1)\n")[0]
        ((_, k, _, stmt),) = _candidates(decl, [MutatorCategory.CALL_REMOVAL])

        def never_called(*args):
            raise AssertionError(f"called at {args}")

        assert is_trivially_equivalent(subject(decl), k, stmt, never_called)

    def test_stops_at_the_first_differing_point(self):
        calls = []

        def mutant_fn(x):
            calls.append(x)
            return x + 1.0

        base = self._base(lambda x: x)
        assert not is_trivially_equivalent(base, 0, UNFOLDABLE, mutant_fn)
        assert calls == [base.grid[0][0]]


class TestDegreeCertificate:
    def test_linear_bodies_certify_degree_one(self):
        decl = ZOO["midpoint"]
        assert syntactic_degree(decl.program) == 1

    def test_signum_body_certifies_degree_zero(self):
        assert syntactic_degree(ZOO["signum"].program) == 0

    def test_mixed_degrees_fail(self):
        text = f"{HEADER}\nsut q(x) blocks=O_le\nreturn x * x + x\n"
        decl = parse_sut_file(text)[0]
        assert syntactic_degree(decl.program) is None


class TestPackageSurface:
    def test_package_attribute_is_the_module(self):
        import noether
        import noether.mutate as mutate_module

        assert isinstance(noether.mutate, ModuleType)
        assert noether.mutate is mutate_module
        assert noether.mutate.mutate is mutate


# A random certified degree-1 subject whose scaling MR is green at SEED, yet
# whose lambda = 7 scaling MR kills two of its preserving-tagged mutants
# (CONDITIONALS_BOUNDARY@2:0 and NEGATE_CONDITIONALS@3:root): scaling by 7
# rounds in binary floating point.
R88 = f"""{HEADER}
sut r88(x, y) blocks=L_star homogeneity=degree-1
t0 = y
t1 = abs(((t0 - t0) - max(t0, x)))
t2 = (t0 < ((y - t1) + x) ? ((t0 < x ? t1 : y) - max(x, t1)) : t1)
return ((sqrt(t2 * t2 + x * x) % t2) < sqrt((t1 - t0) * (t1 - t0) + t2 * t2) ? t0 : t2)
"""


class TestCertificateExactness:
    def test_preserving_mutants_commute_with_power_of_two_scaling(self):
        """The degree certificate is exact for power-of-two lambda: every
        operation of the language commutes with it bit for bit."""
        decl = parse_sut_file(R88)[0]
        matrix = CompatibilityMatrix(
            overrides={("r88", "NEGATE_CONDITIONALS", BlockKind.L_STAR): PRESERVES}
        )
        preserving = [
            m for m in mutate(decl, seed=SEED, matrix=matrix) if m.homogeneity_effect == "preserving"
        ]
        assert len(preserving) == 5
        bases = [base for base, _, _ in scaling_sample(decl, SEED)]
        for m in preserving:
            for lam in (0.5, 2.0, 4.0):
                for base in bases:
                    scaled = m.fn(*(lam * a for a in base))
                    assert scaled.hex() == (lam * m.fn(*base)).hex(), (m.site, lam, base)


# Random degree-1 bodies over x, y from + - % min max abs sqrt ?:, each
# operand of degree 1 by construction, so the base is always certified.
@st.composite
def degree_one_expr(draw, names, depth):
    if depth == 0:
        return draw(st.sampled_from(names))
    shape = draw(st.sampled_from(("var", "+", "-", "%", "min", "max", "abs", "sqrt", "?:")))
    if shape == "var":
        return draw(st.sampled_from(names))
    a, b = (draw(degree_one_expr(names, depth - 1)) for _ in range(2))
    if shape in ("+", "-", "%"):
        return f"({a} {shape} {b})"
    if shape in ("min", "max"):
        return f"{shape}({a}, {b})"
    if shape == "abs":
        return f"abs({a})"
    if shape == "sqrt":
        return f"sqrt({a} * {a} + {b} * {b})"
    c, d = (draw(degree_one_expr(names, depth - 1)) for _ in range(2))
    return f"({a} {draw(st.sampled_from(('<', '<=')))} {b} ? {c} : {d})"


@st.composite
def degree_one_subject(draw):
    names, lines = ["x", "y"], []
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"t{k} = {draw(degree_one_expr(tuple(names), 2))}")
        names.append(f"t{k}")
    lines.append(f"return {draw(degree_one_expr(tuple(names), 3))}")
    head = "sut p(x, y) blocks=L_star homogeneity=degree-1"
    return parse_sut_file("\n".join([HEADER, head, *lines]) + "\n")[0]


class TestCertificateProperty:
    @given(degree_one_subject())
    @settings(max_examples=60, deadline=None)
    def test_preserving_mutants_commute_with_power_of_two_scaling(self, decl):
        """On any certified degree-1 subject, every preserving-tagged mutant
        satisfies f(lam.x) = lam.f(x) bit for bit at power-of-two lam."""
        assert syntactic_degree(decl.program) == 1
        overrides = {
            (decl.name, cat, block): PRESERVES
            for (cat, block), effect in DEFAULT_CELLS.items()
            if block is BlockKind.L_STAR and effect == CASE
        }
        mutants = mutate(decl, seed=SEED, matrix=CompatibilityMatrix(overrides=overrides))
        points = []
        for point in subject(decl).scaling_points:
            try:
                decl.fn(*point)
            except DomainError:
                continue
            points.append(point)
        for m in mutants:
            if m.homogeneity_effect != "preserving":
                continue
            for point in points:
                value = m.fn(*point)
                for lam in (0.5, 2.0, 4.0):
                    scaled = m.fn(*(lam * a for a in point))
                    assert repr(scaled) == repr(lam * value), (mutant_id(m), lam, point)


def sample_first_tag(base, program, fn):
    """The tagging decision list in its former order: the scaling sample
    (rules 2 and 3) is run before the degree certificate (rule 4) is asked."""
    homogeneity = base.decl.homogeneity
    if homogeneity == "none":
        return "breaking"
    base_vals, mut_vals = [], []
    for point, b in zip(base.scaling_points, base.scaling_outcomes):
        if b is _DOMAIN_ERROR:
            continue
        try:
            m = fn(*point)
        except DomainError:
            return "breaking"
        if not math.isfinite(m) and math.isfinite(b):
            return "breaking"
        base_vals.append(b)
        mut_vals.append(m)
    if len(set(mut_vals)) == 1 and len(set(base_vals)) > 1:
        return "breaking"
    target = 1 if homogeneity == "degree-1" else 0
    degree = syntactic_degree(program)
    if degree is _POLY or degree == target:
        return "preserving"
    return "breaking"


class TestCertificateFirst:
    """The tagger asks the degree certificate before it runs the scaling
    sample; the tags are those of the sample-first order."""

    @staticmethod
    def _compare(decl, mutants, seed):
        base = _Subject(decl, seed)
        outcomes = set()
        for m in mutants:
            program = program_of(m, decl)
            want = sample_first_tag(base, program, m.fn)
            assert homogeneity_effect_of(base, program, m.fn) == want == m.homogeneity_effect, mutant_id(m)
            outcomes.add((syntactic_degree(program) is not None, want))
        return outcomes

    def test_bundled_subjects_tag_as_sample_first(self):
        outcomes = set()
        for seed in range(10):
            for decl in ZOO.values():
                outcomes |= self._compare(decl, mutate(decl, seed=seed), seed)
        # certified and uncertified mutants both occur, with both tags
        assert {(True, "preserving"), (True, "breaking"), (False, "breaking")} <= outcomes

    @given(degree_one_subject())
    @settings(max_examples=40, deadline=None)
    def test_random_subjects_tag_as_sample_first(self, decl):
        overrides = {
            (decl.name, cat, block): PRESERVES
            for (cat, block), effect in DEFAULT_CELLS.items()
            if block is BlockKind.L_STAR and effect == CASE
        }
        mutants = mutate(decl, seed=SEED, matrix=CompatibilityMatrix(overrides=overrides))
        self._compare(decl, mutants, SEED)

    @staticmethod
    def _counted(body):
        base = subject(parse_sut_file(f"{HEADER}\nsut q(x) blocks=L_star homogeneity=degree-1\nreturn x\n")[0])
        decl = parse_sut_file(f"{HEADER}\nsut q(x) blocks=L_star homogeneity=degree-1\n{body}\n")[0]
        calls = []

        def fn(*args):
            calls.append(args)
            return decl.fn(*args)

        return homogeneity_effect_of(base, decl.program, fn), calls, base

    def test_uncertified_mutant_is_never_called(self):
        tag, calls, _ = self._counted("return x * x")
        assert tag == "breaking"
        assert calls == []

    def test_certified_mutant_runs_the_whole_sample(self):
        tag, calls, base = self._counted("return x + x")
        assert tag == "preserving"
        assert calls == base.scaling_points
