"""Command-line front end.

Subcommands: derive, check-mr, coverage, mutate, kill, rel, stats, and the
one-shot reproduce driver that runs the whole desk-scale suite.  Exit codes
are a stable contract: 0 success, 1 a check failed, 2 usage or I/O trouble.
Machine output is line-delimited JSON with an explicit schema version; keys
are sorted so identical inputs give bit-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import harness, relational, stats, zoo
from .algebra import BlockKind, OperatorAlgebra
from .derive import CostCounter, construct_mp, theorem2_bound
from .mutate import MutatorCategory, mutant_id, mutate
from .reachability import check_reachability
from .specfile import (
    MutatorConfig,
    SpecSemanticError,
    SpecSyntaxError,
    parse_algebra,
    parse_mr_descriptor,
)

REPORT_VERSION = 1
DEFAULT_SEED = 20260816

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

REACHABILITY_GOLDENS: Tuple[Tuple[str, str, Tuple[str, ...], Optional[str]], ...] = (
    # (descriptor fixture, algebra fixture, obstruction tags, assigned block tag)
    ("rho_nonadd", "boltzmann", ("O1", "O2", "O3"), None),
    ("rho_mtc_bor", "boltzmann", ("O1", "O4", "O5"), None),
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

COVERAGE_SETS: Tuple[Tuple[str, Tuple[str, ...], Fraction], ...] = (
    ("Set-N", ("rho_rot", "rho_mono", "rho_adj", "rho_train_rev", "rho_train"), Fraction(1)),
    ("Set-L", ("rho_rot", "rho_train"), Fraction(2, 5)),
    ("Set-B", ("rho_train",), Fraction(1, 5)),
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


@dataclass
class Report:
    command: str
    seed: Optional[int]
    sections: List[Tuple[str, List[Dict[str, object]]]]

    def add(self, title: str, rows: List[Dict[str, object]]) -> None:
        self.sections.append((title, rows))

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            lines = [
                json.dumps(
                    {"command": self.command, "report_version": REPORT_VERSION, "seed": self.seed},
                    sort_keys=True,
                )
            ]
            for title, rows in self.sections:
                for row in rows:
                    lines.append(json.dumps({"section": title, **row}, sort_keys=True))
            return "\n".join(lines) + "\n"
        out: List[str] = []
        for title, rows in self.sections:
            out.append(f"== {title} ==")
            if not rows:
                out.append("  (empty)")
                continue
            keys = list(rows[0].keys())
            widths = {
                k: max(len(k), *(len(_cell(r.get(k))) for r in rows)) for k in keys
            }
            out.append("  " + "  ".join(k.ljust(widths[k]) for k in keys))
            for row in rows:
                out.append("  " + "  ".join(_cell(row.get(k)).ljust(widths[k]) for k in keys))
            out.append("")
        return "\n".join(out).rstrip("\n") + "\n"


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(report: Report, args) -> None:
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_algebra(ref: str) -> OperatorAlgebra:
    if ref.endswith(".alg") or os.sep in ref:
        with open(ref, "r", encoding="utf-8") as fh:
            return parse_algebra(fh.read())
    return zoo.load_algebra(ref)


def _load_descriptor(ref: str):
    if ref.endswith(".mr") or os.sep in ref:
        with open(ref, "r", encoding="utf-8") as fh:
            return parse_mr_descriptor(fh.read())
    return zoo.load_descriptor(ref)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns the process exit code.


def cmd_derive(args) -> int:
    algebra = _load_algebra(args.algebra)
    counter = CostCounter()
    patterns = construct_mp(algebra, counter)
    report = Report("derive", args.seed, [])
    report.add(
        f"MetaPatterns for {algebra.name}",
        [
            {"label": p.label, "block": p.block.tag, "invariants": len(p.members)}
            for p in patterns
        ],
    )
    report.add("cost", [{"total_units": counter.total}])
    _emit(report, args)
    return 0


def cmd_check_mr(args) -> int:
    descriptor = _load_descriptor(args.descriptor)
    algebra = _load_algebra(args.algebra)
    verdict = check_reachability(descriptor, algebra)
    report = Report("check-mr", args.seed, [])
    report.add(
        "reachability",
        [
            {
                "descriptor": descriptor.name,
                "reachable": verdict.reachable,
                "obstructions": ",".join(verdict.obstruction_tags()) or "-",
                "assigned_block": verdict.assigned_block.tag if verdict.assigned_block else "-",
            }
        ],
    )
    _emit(report, args)
    return 0


def cmd_coverage(args) -> int:
    algebra = _load_algebra(args.algebra)
    blocks = []
    rows = []
    for ref in args.mr:
        descriptor = _load_descriptor(ref)
        verdict = check_reachability(descriptor, algebra)
        if not verdict.reachable:
            print(f"coverage: {descriptor.name} is not derivable on {algebra.name}", file=sys.stderr)
            return 1
        blocks.append(verdict.assigned_block)
        rows.append({"descriptor": descriptor.name, "block": verdict.assigned_block.tag})
    score = harness.coverage(blocks, algebra)
    report = Report("coverage", args.seed, [])
    report.add("members", rows)
    report.add("coverage", [{"fraction": str(score), "value": float(score)}])
    _emit(report, args)
    return 0


def cmd_mutate(args) -> int:
    decls = zoo.load_zoo()
    if args.sut not in decls:
        print(f"mutate: unknown sut {args.sut!r}", file=sys.stderr)
        return 2
    try:
        categories = (
            [MutatorCategory[c] for c in args.categories.split(",")] if args.categories else None
        )
    except KeyError as exc:
        print(f"mutate: unknown mutator category {exc}", file=sys.stderr)
        return 2
    seed = 0 if args.seed is None else args.seed
    mutants = mutate(decls[args.sut], categories, seed=seed)
    report = Report("mutate", seed, [])
    report.add(
        f"mutants of {args.sut}",
        [
            {
                "id": mutant_id(m),
                "category": m.category.name,
                "strata": m.strata,
                "effect": m.homogeneity_effect,
                "broken": ",".join(sorted(b.tag for b in m.broken_blocks)) or "-",
            }
            for m in mutants
        ],
    )
    _emit(report, args)
    return 0


def _blindness_rows(result: harness.BlindnessReport) -> List[Dict[str, object]]:
    return [
        {
            "sut": s.sut,
            "scaling_kills": s.kills,
            "mutants": s.mutants,
            "all_killed_breaking": s.all_killed_breaking,
        }
        for s in result.summaries.values()
    ]


def _mutator_config(args) -> MutatorConfig:
    """The --config mutator config (the bundled one by default), with --seed
    overriding its seed; reports record the resulting cfg.seed."""
    cfg = zoo.load_mutator_config(args.config) if args.config else zoo.load_mutator_config()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_kill(args) -> int:
    cfg = _mutator_config(args)
    result = harness.run_blindness_experiment(cfg)
    report = Report("kill", cfg.seed, [])
    report.add("scaling kills per subject", _blindness_rows(result))
    report.add(
        "verdict",
        [
            {
                "falsification": result.verdict,
                "preserving_kills": len(result.preserving_kills),
                "concordance": result.concordance_ok,
                "excluded_mrs": len(result.matrix.excluded),
            }
        ],
    )
    _emit(report, args)
    ok = result.verdict == "pass" and not result.preserving_kills and result.concordance_ok
    return 0 if ok else 1


def cmd_rel(args) -> int:
    evaluator = relational.CORRECT
    if args.mutant == "biased-join":
        evaluator = relational.Evaluator(join_mode="left-semi")
    elif args.mutant == "guardless-pushdown":
        evaluator = relational.Evaluator(pushdown_guard=False)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    try:
        counts = relational.run_rel_mrs(seed, args.trials, evaluator)
    except ValueError as exc:
        print(f"rel: {exc}", file=sys.stderr)
        return 2
    report = Report("rel", seed, [])
    report.add(
        "rewrite MRs",
        [{"mr": mr, "passes": p, "fails": f} for mr, (p, f) in counts.items()],
    )
    _emit(report, args)
    return 0 if all(f == 0 for _, f in counts.values()) else 1


def cmd_stats(args) -> int:
    report = Report("stats", args.seed, [])
    try:
        if args.test == "wilson":
            lo, hi = stats.wilson_interval(args.values[0], args.values[1], args.confidence)
            report.add("wilson", [{"lo": lo, "hi": hi}])
        elif args.test == "mcnemar":
            report.add("mcnemar", [{"p": stats.mcnemar_exact(args.values[0], args.values[1])}])
        elif args.test == "fisher":
            a, b, c, d = args.values
            report.add("fisher", [{"p": stats.fisher_exact_2x2(a, b, c, d)}])
        elif args.test == "fleiss":
            path = args.matrix or "fleiss_audit.tsv"
            text = (
                open(path, "r", encoding="utf-8").read()
                if os.sep in path or os.path.exists(path)
                else zoo.fixture_text(path)
            )
            rows = [line.split("\t") for line in text.splitlines() if line.strip()]
            report.add("fleiss", [{"kappa": stats.fleiss_kappa(rows)}])
    except (ValueError, stats.DegenerateCategories) as exc:
        print(f"stats {args.test}: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# reproduce: the full desk-scale suite


def _check_derivations(checks: List[Dict[str, object]]) -> None:
    for name, expected in EXPECTED_PATTERNS.items():
        patterns = construct_mp(zoo.load_algebra(name))
        got = {p.label: p.block.tag for p in patterns}
        ok = got == expected
        checks.append(
            {
                "check": f"derive:{name}",
                "ok": ok,
                "detail": f"{len(patterns)} patterns" if ok else f"got {sorted(got)}",
            }
        )


def _check_reachability(checks: List[Dict[str, object]]) -> None:
    for ref, algebra_name, tags, block in REACHABILITY_GOLDENS:
        verdict = check_reachability(_load_descriptor(ref), _load_algebra(algebra_name))
        ok = verdict.obstruction_tags() == tags and (
            (verdict.assigned_block.tag if verdict.assigned_block else None) == block
        )
        checks.append(
            {
                "check": f"reachability:{ref}",
                "ok": ok,
                "detail": ",".join(verdict.obstruction_tags()) or (verdict.assigned_block.tag if verdict.assigned_block else "-"),
            }
        )
    for ref, tag in SINGLE_OBSTRUCTION_FIXTURES:
        verdict = check_reachability(_load_descriptor(ref), _load_algebra("boltzmann"))
        ok = verdict.obstruction_tags() == (tag,)
        checks.append(
            {"check": f"obstruction:{ref}", "ok": ok, "detail": ",".join(verdict.obstruction_tags())}
        )


def _check_blindness(checks: List[Dict[str, object]], cfg: MutatorConfig) -> harness.BlindnessReport:
    result = harness.run_blindness_experiment(cfg)
    checks.append(
        {
            "check": "blindness:preserving-kills",
            "ok": not result.preserving_kills,
            "detail": f"{len(result.preserving_kills)} rule-preserving mutants scaling-killed",
        }
    )
    checks.append(
        {
            "check": "blindness:verdict",
            "ok": result.verdict == "pass",
            "detail": result.verdict,
        }
    )
    checks.append(
        {
            "check": "blindness:concordance",
            "ok": result.concordance_ok,
            "detail": "; ".join(result.concordance_violations) or "clean",
        }
    )
    checks.append(
        {
            "check": "blindness:baselines-green",
            "ok": not result.matrix.excluded,
            "detail": f"{len(result.matrix.excluded)} excluded",
        }
    )
    return result


def _check_relational(checks: List[Dict[str, object]], seed: int) -> None:
    clean = relational.run_rel_mrs(seed, 100)
    ok = all(f == 0 for _, f in clean.values())
    checks.append(
        {
            "check": "relational:clean",
            "ok": ok,
            "detail": "; ".join(f"{mr} {p}/{p + f}" for mr, (p, f) in clean.items()),
        }
    )
    biased = relational.run_rel_mrs(seed, 100, relational.Evaluator(join_mode="left-semi"))
    checks.append(
        {
            "check": "relational:biased-join-detected",
            "ok": biased["rho_join-comm"][1] > 0,
            "detail": f"rho_join-comm fails {biased['rho_join-comm'][1]}/100",
        }
    )
    guardless = relational.run_rel_mrs(seed, 100, relational.Evaluator(pushdown_guard=False))
    checks.append(
        {
            "check": "relational:guardless-pushdown-detected",
            "ok": guardless["rho_select-push"][1] > 0,
            "detail": f"rho_select-push fails {guardless['rho_select-push'][1]}/100",
        }
    )


def _check_stats(checks: List[Dict[str, object]]) -> None:
    for name, fn, expected, tol in STATS_GOLDENS:
        got = fn()
        ok = all(abs(g - e) <= tol for g, e in zip(got, expected))
        checks.append(
            {
                "check": f"stats:{name}",
                "ok": ok,
                "detail": ",".join(f"{g:.6f}" for g in got),
            }
        )
    rows = [
        line.split("\t")
        for line in zoo.fixture_text("fleiss_audit.tsv").splitlines()
        if line.strip()
    ]
    kappa = stats.fleiss_kappa(rows)
    checks.append(
        {"check": "stats:fleiss-audit", "ok": abs(kappa - 0.857) <= 1e-3, "detail": f"{kappa:.6f}"}
    )


def _check_coverage(checks: List[Dict[str, object]]) -> None:
    algebra = zoo.load_algebra("equivariant")
    for set_name, refs, expected in COVERAGE_SETS:
        blocks = []
        for ref in refs:
            verdict = check_reachability(zoo.load_descriptor(ref), algebra)
            blocks.append(verdict.assigned_block)
        score = harness.coverage(blocks, algebra)
        checks.append(
            {
                "check": f"coverage:{set_name}",
                "ok": score == expected,
                "detail": f"{score} (expected {expected})",
            }
        )


def _check_sgd(checks: List[Dict[str, object]]) -> None:
    eta = 1e-3
    traj, loss = zoo.default_sgd_fixture(eta)
    half, _ = zoo.default_sgd_fixture(eta / 2)
    frozen, _ = zoo.default_sgd_fixture(0.0)
    r_full = zoo.sgd_roundtrip_residual(traj, loss)
    r_half = zoo.sgd_roundtrip_residual(half, loss)
    r_zero = zoo.sgd_roundtrip_residual(frozen, loss)
    ratio = r_full / r_half if r_half else float("inf")
    checks.append(
        {
            "check": "sgd:order",
            "ok": 3.0 <= ratio <= 5.0 and r_zero == 0.0,
            "detail": f"ratio {ratio:.4f}, zero-step residual {r_zero}",
        }
    )


def _check_cost(checks: List[Dict[str, object]]) -> None:
    from .derive import synthetic_algebra

    ok = True
    details = []
    for n in (10, 100, 1000):
        counter = CostCounter()
        construct_mp(synthetic_algebra(n), counter)
        bound = theorem2_bound(n)
        details.append(f"n={n}: {counter.total} <= {bound:.1f}")
        ok = ok and counter.total <= bound
    checks.append({"check": "cost:bound", "ok": ok, "detail": "; ".join(details)})


def cmd_reproduce(args) -> int:
    cfg = _mutator_config(args)
    if args.tamper:
        patches = {**cfg.matrix_patches, ("MATH", BlockKind.L_STAR): "breaks"}
        cfg = replace(cfg, matrix_patches=patches)
    checks: List[Dict[str, object]] = []
    _check_derivations(checks)
    _check_reachability(checks)
    result = _check_blindness(checks, cfg)
    _check_relational(checks, cfg.seed)
    _check_stats(checks)
    _check_coverage(checks)
    _check_sgd(checks)
    _check_cost(checks)
    report = Report("reproduce", cfg.seed, [])
    report.add("scaling kills per subject", _blindness_rows(result))
    report.add("checks", checks)
    failed = [c for c in checks if not c["ok"]]
    report.add(
        "summary",
        [{"checks": len(checks), "failed": len(failed), "status": "green" if not failed else "red"}],
    )
    _emit(report, args)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noether", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("derive", help="MetaPattern set for an operator algebra")
    p.add_argument("algebra", help="bundled algebra name or .alg path")
    common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("check-mr", help="Translate-reachability of an MR descriptor")
    p.add_argument("descriptor", help="bundled descriptor name or .mr path")
    p.add_argument("--algebra", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_mr)

    p = sub.add_parser("coverage", help="MetaPattern coverage of an MR set")
    p.add_argument("--algebra", required=True)
    p.add_argument("--mr", action="append", required=True)
    common(p)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("mutate", help="enumerate mutants of a bundled subject")
    p.add_argument("sut")
    p.add_argument("--categories", default=None, help="comma-separated category names")
    common(p)
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("kill", help="run the scaling-blindness kill experiment")
    p.add_argument("--config", default=None, help="mutator config fixture name")
    common(p)
    p.set_defaults(fn=cmd_kill)

    p = sub.add_parser("rel", help="run the relational rewrite MRs")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--mutant",
        choices=("correct", "biased-join", "guardless-pushdown"),
        default="correct",
    )
    common(p)
    p.set_defaults(fn=cmd_rel)

    p = sub.add_parser("stats", help="exact small-sample statistics")
    p.add_argument("test", choices=("wilson", "mcnemar", "fisher", "fleiss"))
    p.add_argument("values", type=int, nargs="*")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--matrix", default=None, help="label matrix path (fleiss)")
    common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("reproduce", help="full desk-scale suite with verdicts")
    p.add_argument("--config", default=None)
    p.add_argument("--tamper", action="store_true", help="negative control: break a matrix cell")
    common(p)
    p.set_defaults(fn=cmd_reproduce)

    return parser


_ARG_COUNTS = {"wilson": 2, "mcnemar": 2, "fisher": 4, "fleiss": 0}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"{args.command}: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return 2
    if args.command == "stats" and len(args.values) != _ARG_COUNTS[args.test]:
        print(
            f"stats {args.test}: expected {_ARG_COUNTS[args.test]} integers, got {len(args.values)}",
            file=sys.stderr,
        )
        return 2
    try:
        return args.fn(args)
    except (zoo.FixtureMissing, FileNotFoundError) as exc:
        print(f"noether: missing fixture or file: {exc}", file=sys.stderr)
        return 2
    except (SpecSyntaxError, SpecSemanticError) as exc:
        print(f"noether: spec file rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"noether: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
