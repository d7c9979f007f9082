"""Acceptance gate: eleven headline checks, one verdict line per check.

Each test prints a single `[A-nn] name: PASS/FAIL` line and then asserts,
so `pytest -v` shows one row per check and a failure carries its detail.
Expected values are pinned here independently of the CLI's own tables.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from noether import harness, relational, stats, zoo
from noether.algebra import (
    ActsOn,
    BlockKind,
    CANONICAL_ORDER,
    Operator,
    OperatorAlgebra,
    Regime,
    canonical_max,
    decompose,
)
from noether.derive import (
    CostCounter,
    construct_mp,
    extract_invariants,
    synthetic_algebra,
    theorem2_bound,
    translate,
)
from noether.harness import mutant_id, scaling_mr_name
from noether.reachability import check_reachability

SEED = 20260816


def check(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[A-{num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"A-{num:02d} {name} failed{suffix}"


@pytest.fixture(scope="module")
def blind():
    t0 = time.perf_counter()
    report = harness.run_blindness_experiment(zoo.load_mutator_config())
    return report, time.perf_counter() - t0


EXPECTED_PATTERNS = {
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
}


def test_a01_pattern_census():
    t0 = time.perf_counter()
    mismatches = []
    for name, expected in EXPECTED_PATTERNS.items():
        got = {p.label: p.block.tag for p in construct_mp(zoo.load_algebra(name))}
        if got != expected:
            mismatches.append(f"{name}: {sorted(got)}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    check(
        1,
        "bundled-algebra pattern census (7/5/2/4/1)",
        ok,
        "; ".join(mismatches) or f"{elapsed * 1000:.0f}ms",
    )


REACHABILITY_GOLDENS = (
    ("rho_nonadd", "boltzmann", ("O1", "O2", "O3"), None),
    ("rho_mtc_bor", "boltzmann", ("O1", "O4", "O5"), None),
    ("rho_rot", "equivariant", (), "G"),
    ("rho_adj", "equivariant", (), "T_star"),
    ("rho_train_rev", "equivariant", (), "T_rev"),
    ("rho_join_comm", "relational", (), "G"),
)


def test_a02_reachability_verdicts():
    bad = []
    for ref, algebra, tags, block in REACHABILITY_GOLDENS:
        v = check_reachability(zoo.load_descriptor(ref), zoo.load_algebra(algebra))
        got_block = v.assigned_block.tag if v.assigned_block else None
        if v.obstruction_tags() != tags or got_block != block:
            bad.append(f"{ref}: {v.obstruction_tags()}/{got_block}")
    check(2, "descriptor reachability verdicts", not bad, "; ".join(bad) or "6 goldens")


def test_a03_single_obstruction_controls():
    bad = []
    for i in range(1, 6):
        v = check_reachability(zoo.load_descriptor(f"only_o{i}"), zoo.load_algebra("boltzmann"))
        if v.obstruction_tags() != (f"O{i}",):
            bad.append(f"only_o{i}: {v.obstruction_tags()}")
    check(3, "single-obstruction controls", not bad, "; ".join(bad) or "O1..O5 isolated")


def _random_algebra(rng, index):
    pool = [b for b in CANONICAL_ORDER if b is not BlockKind.B_REL]
    ops = []
    for i in range(rng.randint(1, 10)):
        tags = frozenset(rng.sample(pool, rng.randint(1, 3)))
        group = BlockKind.G in tags
        ops.append(
            Operator(
                name=f"op{i}",
                acts_on=rng.choice(tuple(ActsOn)),
                block_tags=tags,
                regime=rng.choice((Regime.FINITE, Regime.LIE, Regime.TRUNCATED))
                if group
                else Regime.NONE,
                group_order_or_dim=rng.randint(2, 20) if group else None,
                cost_hint=rng.randint(1, 3),
            )
        )
    return OperatorAlgebra(f"rand{index}", tuple(ops), tuple(o.name for o in ops))


def test_a04_template_ownership_and_block_order():
    rng = random.Random(SEED)
    checked = 0
    ownership_violations = 0
    round_no = 0
    while checked < 1000:
        alg = _random_algebra(rng, round_no)
        round_no += 1
        patterns = construct_mp(alg)
        invariants = extract_invariants(decompose(alg), alg)
        for block_invs in invariants.values():
            for inv in block_invs:
                if checked >= 1000:
                    break
                tpl = translate(inv)
                owners = [
                    p
                    for p in patterns
                    if p.block is tpl.block and tpl.provenance in p.members
                ]
                ownership_violations += len(owners) != 1
                checked += 1
    order_violations = 0
    for hi, lo in itertools.combinations(CANONICAL_ORDER, 2):
        laws = (
            hi > lo,
            not (lo > hi),
            lo < hi,
            canonical_max([hi, lo]) is hi,
            canonical_max([lo, hi]) is hi,
            max(hi, lo) is hi,
        )
        order_violations += not all(laws)
    ok = checked == 1000 and ownership_violations == 0 and order_violations == 0
    check(
        4,
        "randomized template ownership + block order laws",
        ok,
        f"{checked} templates, {ownership_violations} ownership / "
        f"{order_violations} order violations over 28 pairs",
    )


FROZEN_KILLS = {
    "clamp": (1, 4),
    "gcdSig": (22, 32),
    "hypotSig": (5, 5),
    "lcmSig": (27, 37),
    "midpoint": (1, 3),
    "signum": (3, 7),
}


def test_a05_scaling_blindness(blind):
    report, elapsed = blind
    cells = report.matrix.cells
    preserving_killed = []
    for sut, mutants in report.mutants_by_sut.items():
        for m in mutants:
            if m.homogeneity_effect == "preserving" and cells.get(
                (scaling_mr_name(sut), mutant_id(m)), False
            ):
                preserving_killed.append(mutant_id(m))
    hypot = {m.category: m for m in report.mutants_by_sut["hypotSig"]}
    return_zero = hypot["RETURN_VALS"]
    sqrt_gone = hypot["CALL_REMOVAL"]
    probes_ok = all(
        m.homogeneity_effect == "breaking"
        and cells[(scaling_mr_name("hypotSig"), mutant_id(m))]
        for m in (return_zero, sqrt_gone)
    )
    kills = {s.sut: (s.kills, s.mutants) for s in report.summaries.values()}
    ok = (
        not preserving_killed
        and probes_ok
        and report.verdict == "pass"
        and kills == FROZEN_KILLS
        and elapsed < 30.0
    )
    check(
        5,
        "scaling MRs never kill scale-preserving mutants",
        ok,
        f"verdict {report.verdict}, {sum(k for k, _ in kills.values())} kills, "
        f"{len(preserving_killed)} preserving killed, {elapsed:.1f}s",
    )


def test_a06_coverage_fractions():
    algebra = zoo.load_algebra("equivariant")
    sets = (
        (("rho_rot", "rho_mono", "rho_adj", "rho_train_rev", "rho_train"), Fraction(1)),
        (("rho_rot", "rho_train"), Fraction(2, 5)),
        (("rho_train",), Fraction(1, 5)),
    )
    got = []
    for refs, _ in sets:
        blocks = [
            check_reachability(zoo.load_descriptor(r), algebra).assigned_block for r in refs
        ]
        got.append(harness.coverage(blocks, algebra))
    ok = got == [expected for _, expected in sets]
    check(6, "MetaPattern coverage fractions (1, 2/5, 1/5)", ok, f"got {got}")


def test_a07_stats_goldens():
    goldens = (
        ("wilson(7,20)", stats.wilson_interval(7, 20), (0.1812, 0.5671), 5e-3),
        ("wilson(26,52)", stats.wilson_interval(26, 52), (0.36886, 0.63114), 1e-3),
        ("wilson(0,5)", stats.wilson_interval(0, 5), (0.0, 0.4345), 1e-3),
        ("mcnemar(15,4)", (stats.mcnemar_exact(15, 4),), (0.019211,), 1e-3),
        ("mcnemar(18,4)", (stats.mcnemar_exact(18, 4),), (0.004344,), 5e-4),
        ("mcnemar(2,0)", (stats.mcnemar_exact(2, 0),), (0.5,), 0.0),
        ("fisher(7,13,0,20)", (stats.fisher_exact_2x2(7, 13, 0, 20),), (0.008316,), 1e-3),
        ("fisher(2,3,0,5)", (stats.fisher_exact_2x2(2, 3, 0, 5),), (0.444444,), 1e-3),
    )
    bad = [
        name
        for name, got, expected, tol in goldens
        if any(abs(g - e) > tol for g, e in zip(got, expected))
    ]
    rows = [
        line.split("\t")
        for line in zoo.fixture_text("fleiss_audit.tsv").splitlines()
        if line.strip()
    ]
    kappa = stats.fleiss_kappa(rows)
    if abs(kappa - 0.856954) > 1e-3:
        bad.append(f"fleiss={kappa:.6f}")
    check(7, "interval/exact-test goldens at pinned tolerances", not bad, "; ".join(bad) or "9 values")


def test_a08_relational_rewrite_mrs():
    t0 = time.perf_counter()
    clean = relational.run_rel_mrs(SEED, 100)
    biased = relational.run_rel_mrs(SEED, 100, relational.Evaluator(join_mode="left-semi"))
    guardless = relational.run_rel_mrs(SEED, 100, relational.Evaluator(pushdown_guard=False))
    elapsed = time.perf_counter() - t0
    ok = (
        all(counts == (100, 0) for counts in clean.values())
        and biased["rho_join-comm"][1] > 0
        and guardless["rho_select-push"][1] > 0
        and elapsed < 10.0
    )
    check(
        8,
        "relational rewrite MRs (clean green, both mutants caught)",
        ok,
        f"biased join-comm fails {biased['rho_join-comm'][1]}/100, "
        f"guardless select-push fails {guardless['rho_select-push'][1]}/100, {elapsed:.1f}s",
    )


def test_a09_sgd_reversal_order():
    traj, loss = zoo.default_sgd_fixture(1e-3)
    half, _ = zoo.default_sgd_fixture(5e-4)
    frozen, _ = zoo.default_sgd_fixture(0.0)
    r_full = zoo.sgd_roundtrip_residual(traj, loss)
    r_half = zoo.sgd_roundtrip_residual(half, loss)
    r_zero = zoo.sgd_roundtrip_residual(frozen, loss)
    ratio = r_full / r_half
    ok = 3.0 <= ratio <= 5.0 and r_zero == 0.0
    check(9, "SGD reversal residual is second order", ok, f"ratio {ratio:.4f}, zero-step {r_zero}")


def test_a10_cost_bound():
    details = []
    ok = True
    for n in (10, 100, 1000):
        counter = CostCounter()
        construct_mp(synthetic_algebra(n), counter)
        bound = theorem2_bound(n)
        assert bound == pytest.approx(1.5 * n * math.log2(n + 1))
        details.append(f"n={n}: {counter.total}<={bound:.0f}")
        ok = ok and counter.total <= bound
    check(10, "derivation cost within 1.5*n*log2(n+1)", ok, ", ".join(details))


def test_a11_sign_flip_blindness_on_gcd_lcm(blind):
    report, _ = blind
    cells = report.matrix.cells
    flip_mrs = [
        f"{sut}:G:{action}"
        for sut in ("gcdSig", "lcmSig")
        for action in ("flip-first", "flip-second")
    ]
    assert all(name in report.matrix.mr_names for name in flip_mrs)
    flip_kills = [
        (mr, mid) for (mr, mid), hit in cells.items() if hit and mr in flip_mrs
    ]
    scaling_kills = {}
    stray_kills = []
    for sut in ("gcdSig", "lcmSig"):
        ids = {mutant_id(m) for m in report.mutants_by_sut[sut]}
        for (mr, mid), hit in cells.items():
            if not hit or mid not in ids:
                continue
            if mr == scaling_mr_name(sut):
                scaling_kills[sut] = scaling_kills.get(sut, 0) + 1
            else:
                stray_kills.append((mr, mid))
    ok = (
        not flip_kills
        and not stray_kills
        and scaling_kills == {"gcdSig": 22, "lcmSig": 27}
    )
    check(
        11,
        "gcd/lcm sign-flip MRs are blind; scaling MRs do the killing",
        ok,
        f"{len(flip_kills)} flip kills, scaling kills {scaling_kills}",
    )
