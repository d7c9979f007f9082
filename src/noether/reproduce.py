"""The `reproduce` command: the full desk-scale suite with its goldens.

`run` makes every check of the suite (derivations, reachability, the
blindness experiment, the relational MRs, statistics, coverage, the SGD
round trip and the cost bound) and writes one report with the per-subject
kills, a row per check and a summary.  The CLI loads this module only when
`reproduce` runs.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Tuple

from . import harness, reachability, relational, stats, zoo
from ._record import replace
from .algebra import BlockKind
from .cli import _block_tag, _emit, _kills_section, _mutator_config, _tsv_rows
from .derive import CostCounter, construct_mp, synthetic_algebra, theorem2_bound
from .specfile import BREAKS

EXPECTED_PATTERNS: Dict[str, Dict[str, str]] = {
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
    "relational": {"m_rel_inv": "G", "m_rel_mono": "O_le", "m_rel_cmp": "E_star", "m_rel": "B_rel"},
    "ffn": {"m_stab": "L_star"},
}

REACHABILITY_GOLDENS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    # (descriptor fixture, algebra fixture, obstruction tags, assigned block tag or "-")
    ("rho_nonadd", "boltzmann", ("O1", "O2", "O3"), "-"),
    ("rho_mtc_bor", "boltzmann", ("O1", "O4", "O5"), "-"),
    ("rho_rot", "equivariant", (), "G"),
    ("rho_adj", "equivariant", (), "T_star"),
    ("rho_train_rev", "equivariant", (), "T_rev"),
    ("rho_join_comm", "relational", (), "G"),
)

SINGLE_OBSTRUCTION_FIXTURES: Tuple[Tuple[str, str], ...] = (
    ("only_o1", "O1"),
    ("only_o2", "O2"),
    ("only_o3", "O3"),
    ("only_o4", "O4"),
    ("only_o5", "O5"),
)

# (set, descriptors, the coverage fraction as it prints)
COVERAGE_SETS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("Set-N", ("rho_rot", "rho_mono", "rho_adj", "rho_train_rev", "rho_train"), "1"),
    ("Set-L", ("rho_rot", "rho_train"), "2/5"),
    ("Set-B", ("rho_train",), "1/5"),
)

STATS_GOLDENS = (
    ("wilson(7,20)", lambda: stats.wilson_interval(7, 20), (0.1812, 0.5671), 5e-3),
    ("wilson(26,52)", lambda: stats.wilson_interval(26, 52), (0.36886, 0.63114), 1e-3),
    ("wilson(0,5)", lambda: stats.wilson_interval(0, 5), (0.0, 0.4345), 1e-3),
    ("mcnemar(15,4)", lambda: (stats.mcnemar_exact(15, 4),), (0.019211,), 1e-3),
    ("mcnemar(18,4)", lambda: (stats.mcnemar_exact(18, 4),), (0.004344,), 5e-4),
    ("mcnemar(2,0)", lambda: (stats.mcnemar_exact(2, 0),), (0.5,), 1e-12),
    ("fisher(7,13,0,20)", lambda: (stats.fisher_exact_2x2(7, 13, 0, 20),), (0.008316,), 1e-3),
    ("fisher(2,3,0,5)", lambda: (stats.fisher_exact_2x2(2, 3, 0, 5),), (0.444444,), 1e-3),
)


Check = Tuple[str, bool, str]  # (check name, ok, detail): one row of the checks


def _check_derivations() -> Iterator[Check]:
    for name, expected in EXPECTED_PATTERNS.items():
        patterns = construct_mp(zoo.load_algebra(name))
        got = {p.label: p.block.tag for p in patterns}
        ok = got == expected
        yield f"derive:{name}", ok, f"{len(patterns)} patterns" if ok else f"got {sorted(got)}"


def _check_reachability() -> Iterator[Check]:
    check = reachability.check_reachability
    for ref, algebra_name, tags, block in REACHABILITY_GOLDENS:
        verdict = check(zoo.load_descriptor(ref), zoo.load_algebra(algebra_name))
        got_tags, got_block = verdict.obstruction_tags(), _block_tag(verdict.assigned_block)
        ok = (got_tags, got_block) == (tags, block)
        yield f"reachability:{ref}", ok, ",".join(got_tags) or got_block
    for ref, tag in SINGLE_OBSTRUCTION_FIXTURES:
        verdict = check(zoo.load_descriptor(ref), zoo.load_algebra("boltzmann"))
        got_tags = verdict.obstruction_tags()
        yield f"obstruction:{ref}", got_tags == (tag,), ",".join(got_tags)


def _check_blindness(result: harness.BlindnessReport) -> Iterator[Check]:
    kills, excluded = len(result.preserving_kills), len(result.matrix.excluded)
    yield "blindness:preserving-kills", not kills, f"{kills} rule-preserving mutants scaling-killed"
    yield "blindness:verdict", result.verdict == "pass", result.verdict
    violations = "; ".join(result.concordance_violations) or "clean"
    yield "blindness:concordance", result.concordance_ok, violations
    yield "blindness:baselines-green", not excluded, f"{excluded} excluded"


def _check_relational(seed: int) -> Iterator[Check]:
    modes = relational.REL_MODES
    # one draw of the 100 databases serves all three modes
    runs = relational.run_rel_modes(seed, 100, [evaluator for evaluator, _ in modes.values()])
    for (mode, (_, target)), counts in zip(modes.items(), runs):
        if target is None:
            detail = "; ".join(f"{mr} {p}/{p + f}" for mr, (p, f) in counts.items())
            yield "relational:clean", all(f == 0 for _, f in counts.values()), detail
        else:
            fails = counts[target][1]
            yield f"relational:{mode}-detected", fails > 0, f"{target} fails {fails}/100"


def _check_stats() -> Iterator[Check]:
    for name, fn, expected, tol in STATS_GOLDENS:
        got = fn()
        ok = all(abs(g - e) <= tol for g, e in zip(got, expected))
        yield f"stats:{name}", ok, ",".join(f"{g:.6f}" for g in got)
    kappa = stats.fleiss_kappa(_tsv_rows(zoo.fixture_text("fleiss_audit.tsv")))
    yield "stats:fleiss-audit", abs(kappa - 0.857) <= 1e-3, f"{kappa:.6f}"


def _check_coverage() -> Iterator[Check]:
    algebra = zoo.load_algebra("equivariant")
    check = reachability.check_reachability
    for set_name, refs, expected in COVERAGE_SETS:
        blocks = [check(zoo.load_descriptor(r), algebra).assigned_block for r in refs]
        score = harness.coverage(blocks, algebra)
        yield f"coverage:{set_name}", str(score) == expected, f"{score} (expected {expected})"


def _check_sgd() -> Iterator[Check]:
    eta = 1e-3
    r_full = zoo.sgd_roundtrip_residual(eta)
    r_half = zoo.sgd_roundtrip_residual(eta / 2)
    r_zero = zoo.sgd_roundtrip_residual(0.0)
    ratio = r_full / r_half if r_half else float("inf")
    ok = 3.0 <= ratio <= 5.0 and r_zero == 0.0
    yield "sgd:order", ok, f"ratio {ratio:.4f}, zero-step residual {r_zero}"


def _check_cost() -> Iterator[Check]:
    ok = True
    details = []
    for n in (10, 100, 1000):
        counter = CostCounter()
        construct_mp(synthetic_algebra(n), counter)
        bound = theorem2_bound(n)
        details.append(f"n={n}: {counter.total} <= {bound:.1f}")
        ok = ok and counter.total <= bound
    yield "cost:bound", ok, "; ".join(details)


def run(args) -> int:
    """The `reproduce` command: exit 0 when every check is green, else 1."""
    cfg = _mutator_config(args)
    if args.tamper:
        patches = {**cfg.matrix_patches, ("MATH", BlockKind.L_STAR): BREAKS}
        cfg = replace(cfg, matrix_patches=patches)
    # A-10 runs before the blindness run and its row stays last.  VmHWM marks
    # after each stage read A-10 at about 0.1 MB over the loaded config and
    # the blindness run, which compiles `minilang`, `mutate` and `harness`,
    # at about 1 MB more, so the blindness run sets the peak; run after it,
    # A-10 did not measure a lower peak at every checkout path length
    cost = list(_check_cost())
    result = harness.run_blindness_experiment(cfg)
    checks = [
        {"check": name, "ok": ok, "detail": detail}
        for name, ok, detail in itertools.chain(
            _check_derivations(),
            _check_reachability(),
            _check_blindness(result),
            _check_relational(cfg.seed),
            _check_stats(),
            _check_coverage(),
            _check_sgd(),
            cost,
        )
    ]
    failed = sum(not c["ok"] for c in checks)
    summary = {"checks": len(checks), "failed": failed, "status": "red" if failed else "green"}
    _emit(args, cfg.seed, {**_kills_section(result), "checks": checks, "summary": [summary]})
    return 1 if failed else 0
