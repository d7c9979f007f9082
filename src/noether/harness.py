"""Executable MR instantiation, kill experiments, coverage, verdicts.

Templates become executable checks by binding concrete subjects: a symmetry
MR binds a group action, an order MR binds a monotone coordinate and its
sampling cone, a scaling MR binds the subject's homogeneity declaration.
Each of the three types owns its block's tuple rule and assertion.
Kill experiments are two-pass: an MR that is not green on its unmutated
subject is excluded (with a report entry) and can never contribute kills.
"""

from __future__ import annotations

import sys
import zlib
from typing import TYPE_CHECKING, AbstractSet, ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import zoo
from ._record import field, record
from ._rng import Generator
from .algebra import BlockKind, OperatorAlgebra
from .minilang import DomainError
from .mutate import CASE, DEFAULT_MATRIX, Mutant, mutant_id
from .mutate import mutate as derive_mutants
from .specfile import BREAKS, PRESERVES, SpecSemanticError, SutDecl

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_TOLERANCE = 100 * sys.float_info.epsilon
DEFAULT_BUDGET = 64


class EmptyMetaPatternSet(Exception):
    pass


# one assertion unit: (x, y, lambda), the two argument tuples whose outputs
# the relation compares and the scaling rule's lambda (None for the others)
Group = Tuple[Tuple[float, ...], Tuple[float, ...], Optional[float]]


@record
class ExecutableMR:
    """An MR bound to one subject; subclasses fix the block's rules."""

    block: ClassVar[BlockKind]

    name: str
    decl: SutDecl

    @property
    def sut_name(self) -> str:
        return self.decl.name

    def tuples(self, seed: int) -> List[Group]:
        """Canonical tuple groups for the block's rule; deterministic."""
        raise NotImplementedError

    def violation(self, lam: Optional[float], f0: float, f1: float) -> str:
        """Why the outputs `f0`, `f1` of a group's two executions break the
        relation, empty if they hold; the scaling rule also reads the
        group's `lam`.  `check_mr` appends the pair."""
        raise NotImplementedError

    def sample_violation(self, outputs: Sequence[float]) -> str:
        """Why the whole sample's outputs break the relation; empty if not."""
        return ""

    def _bound(self, first: float, second: float) -> float:
        # at least DEFAULT_TOLERANCE > 0, so the checks accept a zero gap,
        # which only two finite outputs give, without computing it
        return DEFAULT_TOLERANCE * max(1.0, abs(first), abs(second))

    def _rng(self, seed: int) -> Generator:
        return Generator([seed, zlib.crc32(self.name.encode())])


@record
class SymmetryMR(ExecutableMR):
    """f(g.x) = f(x), or -f(x) for an output-negating action."""

    block: ClassVar[BlockKind] = BlockKind.G
    action: zoo.GAction

    def tuples(self, seed: int) -> List[Group]:
        rng = self._rng(seed)
        decl, action = self.decl, self.action
        groups = []
        for _ in range(DEFAULT_BUDGET):
            # sample away from the action's fixed points: a fixed point
            # satisfies any equivariance vacuously, and some mutants are
            # only well-defined off it
            base = zoo.sample_args(decl, rng, nonzero=bool(action.flips))
            offset = 0.0
            if action.shift:
                draw = rng.integers(-30, 31) if decl.domain == "int" else rng.uniform(-5.0, 5.0)
                offset = float(draw) or 1.0
            groups.append((base, action.apply(base, offset), None))
        return groups

    def violation(self, lam: Optional[float], f0: float, f1: float) -> str:
        expected = -f0 if self.action.output == "negate" else f0
        gap = f1 - expected
        ok = gap == 0.0 or abs(gap) <= self._bound(f0, f1)
        return "" if ok else f"equivariance gap {gap!r}"


@record
class OrderMR(ExecutableMR):
    """f is nondecreasing in one coordinate inside the sampling cone."""

    block: ClassVar[BlockKind] = BlockKind.O_LE
    order: zoo.OrderSpec

    def tuples(self, seed: int) -> List[Group]:
        rng = self._rng(seed)
        decl, coord = self.decl, self.order.coordinate
        groups = []
        for _ in range(DEFAULT_BUDGET):
            base = list(zoo.sample_args(decl, rng, cone=self.order.cone))
            bumped = list(base)
            delta = rng.integers(1, 11) if decl.domain == "int" else rng.uniform(0.1, 5.0)
            bumped[coord] = base[coord] + float(delta)
            groups.append((tuple(base), tuple(bumped), None))
        return groups

    def violation(self, lam: Optional[float], f0: float, f1: float) -> str:
        ok = f0 <= f1 + self._bound(f0, f1)
        return "" if ok else f"order violated: {f0!r} > {f1!r}"


@record
class ScalingMR(ExecutableMR):
    """f(lam.x) = lam.f(x) (degree 1) or f(x) (scale invariant)."""

    block: ClassVar[BlockKind] = BlockKind.L_STAR

    def __post_init__(self):
        if self.decl.homogeneity == "none":
            raise ValueError(f"{self.name}: scaling MR needs a homogeneity declaration")

    def tuples(self, seed: int) -> List[Group]:
        return zoo.scaling_sample(self.decl, seed)

    def violation(self, lam: Optional[float], f0: float, f1: float) -> str:
        invariant = self.decl.homogeneity == "positive-scale-invariant"
        gap = f1 - (f0 if invariant else lam * f0)
        ok = gap == 0.0 or abs(gap) <= self._bound(f0, f1)
        return "" if ok else f"scaling gap {gap!r}"

    def sample_violation(self, outputs: Sequence[float]) -> str:
        # a flat output on generically varied inputs satisfies the scaling
        # identity degenerately; the relation treats it as a failure
        flat = outputs and len(set(outputs)) == 1
        return f"fixed output {outputs[0]!r} across the whole sample" if flat else ""


def generate_tuples(mr: ExecutableMR, seed: int) -> List[Group]:
    """Canonical tuple groups for the MR's block rule; deterministic."""
    return mr.tuples(seed)


@record
class MRCheck:
    passed: bool
    failure: str = ""


def check_mr(mr: ExecutableMR, fn, groups: Sequence[Group]) -> MRCheck:
    """Evaluate the MR's assertion on a compiled subject over its tuple groups,
    each an `(x, y, lambda)` triple whose pair of executions `fn(*x)`,
    `fn(*y)` the relation compares; the first failure names its pair."""
    outputs: List[float] = []
    for first, second, lam in groups:
        try:
            f0 = fn(*first)
            f1 = fn(*second)
        except DomainError as exc:
            return MRCheck(False, f"domain error on {(first, second)}: {exc}")
        failure = mr.violation(lam, f0, f1)
        if failure:
            return MRCheck(False, f"{failure} at {(first, second)}")
        outputs += f0, f1
    failure = mr.sample_violation(outputs)
    return MRCheck(not failure, failure)


def build_standard_mrs(decls: Mapping[str, SutDecl]) -> List[ExecutableMR]:
    """The executable relations each subject's declared blocks support."""
    mrs: List[ExecutableMR] = []
    for name in sorted(decls):
        decl = decls[name]
        if BlockKind.G in decl.blocks:
            for action in zoo.SUT_G_ACTIONS.get(name, ()):
                mrs.append(SymmetryMR(f"{name}:G:{action.name}", decl, action))
        if BlockKind.O_LE in decl.blocks and name in zoo.SUT_ORDER_SPECS:
            mrs.append(OrderMR(f"{name}:O_le", decl, zoo.SUT_ORDER_SPECS[name]))
        if BlockKind.L_STAR in decl.blocks and decl.homogeneity != "none":
            mrs.append(ScalingMR(scaling_mr_name(name), decl))
    return mrs


# ---------------------------------------------------------------------------
# Kill experiment


@record
class KillMatrix:
    mr_names: Tuple[str, ...]
    cells: Dict[Tuple[str, str], str]  # kills only: (mr, mutant) -> witness
    excluded: Tuple[Tuple[str, str, str], ...] = ()  # (mr, sut, reason)


def run_kill_experiment(
    mrs: Sequence[ExecutableMR], mutants_by_sut: Mapping[str, Sequence[Mutant]], seed: int
) -> KillMatrix:
    """Kill matrix built one subject at a time: baseline-red MRs are excluded.

    Only an MR's own subject's mutants, `mutants_by_sut[sut]`, are checked
    against it, on the tuple groups drawn for its baseline check; those
    groups are dropped once the subject is done.  Each kill is stored with
    the failure text that witnesses it.
    """
    mrs_by_sut: Dict[str, List[ExecutableMR]] = {}
    for mr in mrs:
        mrs_by_sut.setdefault(mr.sut_name, []).append(mr)
    failures: Dict[int, str] = {}  # id(mr) -> its baseline failure
    cells: Dict[Tuple[str, str], str] = {}
    for sut, sut_mrs in mrs_by_sut.items():
        green: List[Tuple[ExecutableMR, List[Group]]] = []
        for mr in sut_mrs:
            groups = generate_tuples(mr, seed)
            verdict = check_mr(mr, mr.decl.fn, groups)
            if verdict.passed:
                green.append((mr, groups))
            else:
                failures[id(mr)] = verdict.failure
        for mutant in mutants_by_sut.get(sut, ()):
            mid = mutant_id(mutant)
            for mr, groups in green:
                verdict = check_mr(mr, mutant.fn, groups)
                if not verdict.passed:
                    cells[(mr.name, mid)] = verdict.failure
    return KillMatrix(
        mr_names=tuple(mr.name for mr in mrs if id(mr) not in failures),
        cells=cells,
        excluded=tuple((mr.name, mr.sut_name, failures[id(mr)]) for mr in mrs if id(mr) in failures),
    )


# ---------------------------------------------------------------------------
# Coverage


def coverage(blocks: Iterable[BlockKind], algebra: OperatorAlgebra) -> Fraction:
    """Fraction of the algebra's MetaPatterns hit by one of the MRs' blocks.

    Each populated block contributes exactly one MetaPattern, so the
    patterns are counted by their blocks without being built.
    """
    from fractions import Fraction  # here: it loads `decimal`, which `kill` never needs

    populated = algebra.blocks.nonempty_blocks()
    if not populated:
        raise EmptyMetaPatternSet(f"algebra {algebra.name} derives no MetaPatterns")
    hit = set(blocks)
    return Fraction(sum(1 for block in populated if block in hit), len(populated))


# ---------------------------------------------------------------------------
# Falsification verdict and the scaling-blindness experiment


@record
class KillSummary:
    sut: str
    kills: int
    mutants: int
    all_killed_breaking: bool = True


def falsification_verdict(summaries: Iterable[KillSummary]) -> str:
    """pass/falsified per the one-third outlier rule with the rescue clause:
    a subject is an outlier when at least a third of its mutants are killed,
    decided exactly in integers."""
    outliers = [s for s in summaries if s.mutants and 3 * s.kills >= s.mutants]
    unrescued = [s for s in outliers if not s.all_killed_breaking]
    return "falsified" if len(unrescued) > 1 else "pass"


@record
class BlindnessReport:
    summaries: Dict[str, KillSummary]
    verdict: str
    preserving_kills: Tuple[str, ...]  # mutant ids; must be empty
    concordance_ok: bool
    concordance_violations: Tuple[str, ...]
    matrix: KillMatrix
    mutants_by_sut: Dict[str, Tuple[Mutant, ...]] = field(default_factory=dict)


def scaling_mr_name(sut: str) -> str:
    return f"{sut}:L_scale"


def concordance_check(
    mutants_by_sut: Mapping[str, Sequence[Mutant]],
    scaling_kills: AbstractSet[str],
    active_cells: Mapping[Tuple[str, BlockKind], str],
    decls: Mapping[str, SutDecl],
) -> Tuple[bool, Tuple[str, ...]]:
    """Kill/tag concordance against the active compatibility matrix.

    Scope: degree-1 subjects.  A category whose scaling-block cell claims
    `preserves` must not have any rule-preserving mutant killed by the
    scaling relation; one that claims `breaks` must not have rule-preserving
    mutants on these subjects at all.  Case-dependent cells are exempt.
    `scaling_kills` holds the ids of mutants their subject's scaling MR killed.
    """
    violations: List[str] = []
    scope = [s for s, d in decls.items() if d.homogeneity == "degree-1" and s in mutants_by_sut]
    for category in sorted({c for (c, _b) in active_cells}):
        cell = active_cells[(category, BlockKind.L_STAR)]
        for sut in scope:
            for m in mutants_by_sut[sut]:
                if m.category != category or m.homogeneity_effect != "preserving":
                    continue
                if cell == BREAKS:
                    violations.append(f"{mutant_id(m)}: rule-preserving under a breaks-cell")
                elif cell == PRESERVES and mutant_id(m) in scaling_kills:
                    violations.append(f"{mutant_id(m)}: killed despite a preserves-cell")
    return (not violations, tuple(violations))


def _check_overrides(cfg, decls, matrix) -> None:
    """An override the matrix would never read is an error: the matrix reads
    one only for a case-dependent cell of a subject the run mutates."""
    for sut, cat, block in cfg.overrides:
        if sut not in decls:
            raise SpecSemanticError("override", f"not in the zoo: {sut}")
        if cfg.suts and sut not in cfg.suts:
            raise SpecSemanticError("override", f"not among the suts: {sut}")
        effect = matrix.cells[(cat, block)]
        if effect != CASE:
            raise SpecSemanticError("override", f"({cat}, {block.tag}) is {effect}, not case-dependent")


def run_blindness_experiment(cfg=None) -> BlindnessReport:
    """The full rule-blind scaling kill experiment on the configured suts."""
    if cfg is None:
        cfg = zoo.load_mutator_config()
    decls = zoo.load_zoo()
    unknown = [name for name in cfg.suts if name not in decls]
    if unknown:
        raise SpecSemanticError("suts", f"not in the zoo: {', '.join(unknown)}")
    active_matrix = DEFAULT_MATRIX.with_config(cfg)
    _check_overrides(cfg, decls, active_matrix)
    chosen = {name: decls[name] for name in cfg.suts} if cfg.suts else dict(decls)
    mutants_by_sut = {
        name: derive_mutants(chosen[name], cfg.categories, seed=cfg.seed, matrix=active_matrix)
        for name in sorted(chosen)
    }
    kill_matrix = run_kill_experiment(build_standard_mrs(chosen), mutants_by_sut, seed=cfg.seed)
    summaries: Dict[str, KillSummary] = {}
    preserving_kills: List[str] = []
    scaling_kills = set()  # ids of mutants their own subject's scaling MR killed
    for name, mutants in mutants_by_sut.items():
        mr_name = scaling_mr_name(name)
        killed = [m for m in mutants if (mr_name, mutant_id(m)) in kill_matrix.cells]
        kept = [mutant_id(m) for m in killed if m.homogeneity_effect != "breaking"]
        summaries[name] = KillSummary(name, len(killed), len(mutants), all_killed_breaking=not kept)
        preserving_kills.extend(kept)
        scaling_kills.update(map(mutant_id, killed))
    ok, violations = concordance_check(mutants_by_sut, scaling_kills, active_matrix.cells, chosen)
    return BlindnessReport(
        summaries=summaries,
        verdict=falsification_verdict(summaries.values()),
        preserving_kills=tuple(preserving_kills),
        concordance_ok=ok,
        concordance_violations=violations,
        matrix=kill_matrix,
        mutants_by_sut=mutants_by_sut,
    )
