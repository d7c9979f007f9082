"""Command-line front end.

Subcommands: derive, check-mr, coverage, mutate, kill, rel, stats, and the
one-shot reproduce driver that runs the whole desk-scale suite.  Exit codes
are a stable contract: 0 success, 1 a check failed, 2 usage or I/O trouble.
Machine output is line-delimited JSON with an explicit schema version; keys
are sorted so identical inputs give bit-identical documents.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# What `derive` needs; the other nine modules are registered by `_lazy` below.
# `plans` is one of them, though an algebra's rewrite lines need it: with no
# bytecode cache every process compiles what it imports from source, and
# compiled here, first, `plans` left the `kill` and `rel` peak resident set
# 0.08-0.15 MB higher at each of five checkout path lengths, and the `derive`
# and `reproduce` peaks lower at two of them at most (measured, CHANGES.md).
from . import zoo
from ._record import replace
from .algebra import BlockKind
from .derive import CostCounter, construct_mp
from .specfile import (
    MutatorConfig,
    SpecSemanticError,
    SpecSyntaxError,
    parse_algebra,
    parse_mr_descriptor,
    parse_mutator_config,
)


def _lazy(name: str):
    """The submodule `noether.<name>`, in sys.modules and bound on the package
    at once, but compiled and run only on its first attribute access: so a
    command loads only the modules it runs, while `import noether.cli` still
    registers every module (the benchmark tracer patches them all)."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


_lazy("_rng")  # the sampler of `mutate`, `kill`, `rel` and `reproduce`
_lazy("minilang")  # run by `mutate` and `harness`; registered for the tracer
mutate = _lazy("mutate")
harness = _lazy("harness")
_lazy("plans")  # the rewrite-rule syntax: read by `specfile` and `relational`
reachability = _lazy("reachability")
relational = _lazy("relational")
stats = _lazy("stats")
reproduce = _lazy("reproduce")

REPORT_VERSION = 1
DEFAULT_SEED = 20260816

# `rel --mutant` choices: the keys of `relational.REL_MODES`, spelled out so
# that parsing a command line builds no evaluator
REL_MODE_NAMES = ("correct", "biased-join", "guardless-pushdown")


Rows = List[Dict[str, object]]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render(command: str, seed: Optional[int], sections: Dict[str, Rows], fmt: str) -> str:
    """One report: JSON Lines under a header (machine) or padded tables (human)."""
    if fmt == "machine":
        header = {"command": command, "report_version": REPORT_VERSION, "seed": seed}
        lines = [json.dumps(header, sort_keys=True)]
        for title, rows in sections.items():
            lines += [json.dumps({"section": title, **row}, sort_keys=True) for row in rows]
        return "\n".join(lines) + "\n"
    out: List[str] = []
    for title, rows in sections.items():
        out.append(f"== {title} ==")
        if not rows:
            out.append("  (empty)")
            continue
        keys = list(rows[0])
        table = [keys] + [[_cell(row.get(k)) for k in keys] for row in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(keys))]
        out += ["  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in table]
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def _emit(args, seed: Optional[int], sections: Dict[str, Rows]) -> None:
    """Write the report of `args.command` to --out, or else to stdout."""
    text = _render(args.command, seed, sections, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # a plain OSError: `main` reports it as is, not as a missing input
            raise OSError(f"cannot write report to {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _load(ref: str, ext: str, parse: Callable[[str], object]):
    """Parse the document `ref` names: the file `ref` when it ends in `ext`
    or contains a path separator, else the fixture `ref + ext`."""
    if ref.endswith(ext) or os.sep in ref:
        return parse(zoo.read_text(ref))
    return parse(zoo.fixture_text(ref + ext))


def _tsv_rows(text: str) -> List[List[str]]:
    """A label matrix: one tab-separated row per nonblank line."""
    return [line.split("\t") for line in text.splitlines() if line.strip()]


def _block_tag(block: Optional[BlockKind]) -> str:
    return block.tag if block else "-"


# test -> (number of integer arguments, the report row it computes)
STATS_TESTS: Dict[str, Tuple[int, Callable[..., Dict[str, object]]]] = {
    "wilson": (
        2,
        lambda args: dict(zip(("lo", "hi"), stats.wilson_interval(*args.values, args.confidence))),
    ),
    "mcnemar": (2, lambda args: {"p": stats.mcnemar_exact(*args.values)}),
    "fisher": (4, lambda args: {"p": stats.fisher_exact_2x2(*args.values)}),
    "fleiss": (
        0,
        lambda args: {"kappa": stats.fleiss_kappa(_load(args.matrix, ".tsv", _tsv_rows))},
    ),
}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns the process exit code.


def cmd_derive(args) -> int:
    algebra = _load(args.algebra, ".alg", parse_algebra)
    counter = CostCounter()
    patterns = construct_mp(algebra, counter)
    rows = [
        {"label": p.label, "block": p.block.tag, "invariants": len(p.operators)} for p in patterns
    ]
    cost = [{"total_units": counter.total}]
    _emit(args, None, {f"MetaPatterns for {algebra.name}": rows, "cost": cost})
    return 0


def cmd_check_mr(args) -> int:
    descriptor = _load(args.descriptor, ".mr", parse_mr_descriptor)
    algebra = _load(args.algebra, ".alg", parse_algebra)
    verdict = reachability.check_reachability(descriptor, algebra)
    row = {
        "descriptor": descriptor.name,
        "reachable": verdict.reachable,
        "obstructions": ",".join(verdict.obstruction_tags()) or "-",
        "assigned_block": _block_tag(verdict.assigned_block),
    }
    _emit(args, None, {"reachability": [row]})
    return 0


def cmd_coverage(args) -> int:
    algebra = _load(args.algebra, ".alg", parse_algebra)
    blocks = []
    rows = []
    for ref in args.mr:
        descriptor = _load(ref, ".mr", parse_mr_descriptor)
        verdict = reachability.check_reachability(descriptor, algebra)
        if not verdict.reachable:
            print(f"coverage: {descriptor.name} is not derivable on {algebra.name}", file=sys.stderr)
            return 1
        blocks.append(verdict.assigned_block)
        rows.append({"descriptor": descriptor.name, "block": verdict.assigned_block.tag})
    score = harness.coverage(blocks, algebra)
    fraction = {"fraction": str(score), "value": float(score)}
    _emit(args, None, {"members": rows, "coverage": [fraction]})
    return 0


def cmd_mutate(args) -> int:
    decls = zoo.load_zoo()
    if args.sut not in decls:
        print(f"mutate: unknown sut {args.sut!r}", file=sys.stderr)
        return 2
    categories = None if args.categories is None else args.categories.split(",")
    seed = 0 if args.seed is None else args.seed
    try:
        mutants = mutate.mutate(decls[args.sut], categories, seed=seed)
    except KeyError as exc:
        print(f"mutate: unknown mutator category {exc}", file=sys.stderr)
        return 2
    rows = [
        {
            "id": mutate.mutant_id(m),
            "category": m.category,
            "strata": m.strata,
            "effect": m.homogeneity_effect,
            "broken": ",".join(sorted(b.tag for b in m.broken_blocks)) or "-",
        }
        for m in mutants
    ]
    _emit(args, seed, {f"mutants of {args.sut}": rows})
    return 0


def _kills_section(result: harness.BlindnessReport) -> Dict[str, Rows]:
    rows = [
        {
            "sut": s.sut,
            "scaling_kills": s.kills,
            "mutants": s.mutants,
            "all_killed_breaking": s.all_killed_breaking,
        }
        for s in result.summaries.values()
    ]
    return {"scaling kills per subject": rows}


def _mutator_config(args) -> MutatorConfig:
    """The --config mutator config (the bundled one by default), with --seed
    overriding its seed; reports record the resulting cfg.seed."""
    cfg = _load(args.config or "blindness", ".cfg", parse_mutator_config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_kill(args) -> int:
    cfg = _mutator_config(args)
    result = harness.run_blindness_experiment(cfg)
    verdict = {
        "falsification": result.verdict,
        "preserving_kills": len(result.preserving_kills),
        "concordance": result.concordance_ok,
        "excluded_mrs": len(result.matrix.excluded),
    }
    _emit(args, cfg.seed, {**_kills_section(result), "verdict": [verdict]})
    ok = result.verdict == "pass" and not result.preserving_kills and result.concordance_ok
    return 0 if ok else 1


def cmd_rel(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    try:
        counts = relational.run_rel_mrs(seed, args.trials, relational.REL_MODES[args.mutant][0])
    except ValueError as exc:
        print(f"rel: {exc}", file=sys.stderr)
        return 2
    rows = [{"mr": mr, "passes": p, "fails": f} for mr, (p, f) in counts.items()]
    _emit(args, seed, {"rewrite MRs": rows})
    return 0 if all(f == 0 for _, f in counts.values()) else 1


def cmd_stats(args) -> int:
    arity, row_of = STATS_TESTS[args.test]
    try:
        if len(args.values) != arity:
            raise ValueError(f"expected {arity} integers, got {len(args.values)}")
        row = row_of(args)
    except (ValueError, stats.DegenerateCategories) as exc:
        print(f"stats {args.test}: {exc}", file=sys.stderr)
        return 2
    _emit(args, None, {args.test: [row]})
    return 0


def cmd_reproduce(args) -> int:
    # the suite lives in `reproduce`, which only this command compiles
    return reproduce.run(args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noether", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--format", choices=("human", "machine"), default="human")
        if seeded:
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
    common(p, seeded=True)
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("kill", help="run the scaling-blindness kill experiment")
    p.add_argument("--config", default=None, help="bundled mutator config name or .cfg path")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_kill)

    p = sub.add_parser("rel", help="run the relational rewrite MRs")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mutant", choices=REL_MODE_NAMES, default="correct")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_rel)

    p = sub.add_parser("stats", help="exact small-sample statistics")
    p.add_argument("test", choices=tuple(STATS_TESTS))
    p.add_argument("values", type=int, nargs="*")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument(
        "--matrix", default="fleiss_audit", help="bundled label matrix name or .tsv path (fleiss)"
    )
    common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("reproduce", help="full desk-scale suite with verdicts")
    p.add_argument("--config", default=None)
    p.add_argument("--tamper", action="store_true", help="negative control: break a matrix cell")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        print(f"{args.command}: --seed must be nonnegative, got {seed}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except zoo.UndecodableInput as exc:
        print(f"noether: undecodable input: {exc}", file=sys.stderr)
        return 2
    except (zoo.FixtureMissing, FileNotFoundError) as exc:
        print(f"noether: missing fixture or file: {exc}", file=sys.stderr)
        return 2
    except (SpecSyntaxError, SpecSemanticError) as exc:
        print(f"noether: spec file rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"noether: {exc}", file=sys.stderr)
        return 2
    except mutate.MissingOverride as exc:  # last: testing it loads `mutate`
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
