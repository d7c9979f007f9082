"""Mutation engine over the mini-language.

Seven mutator categories generate one mutant per applicable (site,
category) pair.  Each surviving mutant is classified D1/D2 against the
category-by-block compatibility matrix (with per-subject overrides for
case-dependent cells) and tagged homogeneity-preserving or -breaking by
rule, never by running the kill experiment.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import minilang, zoo
from ._record import field, record, replace
from .algebra import CANONICAL_ORDER, BlockKind
from .minilang import BUILTIN_ARITY, COMPARISONS, Assign, Const, DomainError, Expr, Op, Program, Var
from .specfile import MUTATOR_CATEGORY_NAMES, MutatorConfig, SutDecl


MutatorCategory = enum.Enum(
    "MutatorCategory", [(name, name) for name in MUTATOR_CATEGORY_NAMES], module=__name__
)

PRESERVES = "preserves"
BREAKS = "breaks"
CASE = "case-dependent"

_MATH_SWAP = {"+": "-", "-": "+", "*": "/", "/": "*", "%": "*"}
_BOUNDARY_FLIP = {"<": "<=", "<=": "<"}


class MissingOverride(Exception):
    """A populated case-dependent matrix cell with no per-SUT override."""

    def __init__(self, sut: str, category: str, block: BlockKind):
        super().__init__(
            f"case-dependent cell ({category}, {block.tag}) is populated for "
            f"{sut!r} and has no override"
        )
        self.sut = sut
        self.category = category
        self.block = block


def _row(cats: str) -> Tuple[str, ...]:
    decode = {"o": PRESERVES, "x": BREAKS, "~": CASE}
    return tuple(decode[c] for c in cats)


# columns in CANONICAL_ORDER: G, O_le, T_star, T_rev, L_star, D_star, E_star, B_rel
_DEFAULT_ROWS: Mapping[str, Tuple[str, ...]] = {
    "CONDITIONALS_BOUNDARY": _row("oxooo~oo"),
    "INCREMENTS": _row("xxxxx~oo"),
    "INVERT_NEGS": _row("~x~x~~oo"),
    "MATH": _row("x~xxox~o"),
    "NEGATE_CONDITIONALS": _row("xx~x~x~x"),
    "RETURN_VALS": _row("ooxxoo~o"),
    "CALL_REMOVAL": _row("ooooox~o"),
}

DEFAULT_CELLS: Mapping[Tuple[str, BlockKind], str] = {
    (cat, block): effect
    for cat, row in _DEFAULT_ROWS.items()
    for block, effect in zip(CANONICAL_ORDER, row)
}

# Overrides for every case-dependent cell a bundled subject actually
# populates with at least one mutation site.  Each records an argued fact
# about the subject body, not a tuning knob.
BUNDLED_OVERRIDES: Mapping[Tuple[str, str, BlockKind], str] = {
    ("midpoint", "MATH", BlockKind.O_LE): PRESERVES,
    ("powerSig", "MATH", BlockKind.O_LE): PRESERVES,
    ("caddSig", "MATH", BlockKind.O_LE): BREAKS,
    ("gcdSig", "MATH", BlockKind.O_LE): BREAKS,
    ("gcdSig", "INVERT_NEGS", BlockKind.G): PRESERVES,
    ("gcdSig", "INVERT_NEGS", BlockKind.L_STAR): PRESERVES,
    ("lcmSig", "INVERT_NEGS", BlockKind.G): PRESERVES,
    ("lcmSig", "INVERT_NEGS", BlockKind.L_STAR): PRESERVES,
    ("gcdSig", "NEGATE_CONDITIONALS", BlockKind.L_STAR): PRESERVES,
    ("lcmSig", "NEGATE_CONDITIONALS", BlockKind.L_STAR): PRESERVES,
    ("clamp", "NEGATE_CONDITIONALS", BlockKind.L_STAR): PRESERVES,
    ("signum", "NEGATE_CONDITIONALS", BlockKind.L_STAR): PRESERVES,
}


@record
class CompatibilityMatrix:
    cells: Mapping[Tuple[str, BlockKind], str] = field(default_factory=lambda: dict(DEFAULT_CELLS))
    overrides: Mapping[Tuple[str, str, BlockKind], str] = field(
        default_factory=lambda: dict(BUNDLED_OVERRIDES)
    )

    def __post_init__(self):
        for (cat, block), effect in self.cells.items():
            if cat not in MUTATOR_CATEGORY_NAMES or not isinstance(block, BlockKind):
                raise ValueError(f"bad matrix cell key ({cat!r}, {block!r})")
            if effect not in (PRESERVES, BREAKS, CASE):
                raise ValueError(f"bad matrix effect {effect!r}")
        for key, effect in self.overrides.items():
            if effect not in (PRESERVES, BREAKS):
                raise ValueError(f"override {key} must resolve to preserves/breaks")

    def effect(self, sut: str, category: str, block: BlockKind) -> str:
        """preserves/breaks; a case-dependent cell needs the sut's override."""
        cell = self.cells[(category, block)]
        if cell != CASE:
            return cell
        override = self.overrides.get((sut, category, block))
        if override is None:
            raise MissingOverride(sut, category, block)
        return override

    def with_config(self, cfg: MutatorConfig) -> "CompatibilityMatrix":
        cells = dict(self.cells)
        for (cat, block), effect in cfg.matrix_patches.items():
            cells[(cat, block)] = effect
        overrides = dict(self.overrides)
        for (sut, cat, block), effect in cfg.overrides.items():
            overrides[(sut, cat, block)] = effect
        return CompatibilityMatrix(cells=cells, overrides=overrides)


DEFAULT_MATRIX = CompatibilityMatrix()


@record
class Mutant:
    base: str
    category: MutatorCategory
    site: Tuple[int, Tuple[int, ...]]  # (statement index, path within it)
    broken_blocks: FrozenSet[BlockKind]
    homogeneity_effect: str  # preserving | breaking
    decl: SutDecl = field(compare=False)
    fn: Callable[..., float] = field(compare=False)  # decl.program, compiled

    @property
    def strata(self) -> str:
        """D1 exactly when some populated block breaks, else D2."""
        return "D1" if self.broken_blocks else "D2"


def mutant_id(mutant: Mutant) -> str:
    """Stable id `base/CATEGORY@stmt:path`; the path is `root` when empty."""
    stmt, path = mutant.site
    suffix = ".".join(map(str, path)) or "root"
    return f"{mutant.base}/{mutant.category.name}@{stmt}:{suffix}"


# ---------------------------------------------------------------------------
# Site enumeration


def _statement_exprs(program: Program) -> List[Expr]:
    return [a.expr for a in program.assigns] + [program.result]


def _rebuild(decl: SutDecl, stmt_index: int, new_expr: Expr) -> SutDecl:
    assigns = list(decl.program.assigns)
    result = decl.program.result
    if stmt_index < len(assigns):
        assigns[stmt_index] = Assign(assigns[stmt_index].name, new_expr)
    else:
        result = new_expr
    program = Program(decl.program.name, decl.program.params, tuple(assigns), result)
    return replace(decl, program=program)


def _is_integral_const(node: Expr) -> bool:
    return isinstance(node, Const) and float(node.value).is_integer()


def _sites(category: MutatorCategory, node: Expr) -> List[Tuple[Tuple[int, ...], Expr]]:
    """(path below `node`, replacement) for each site `category` finds at `node`."""
    if not isinstance(node, Op):
        return []
    op, args = node.op, node.args
    if category is MutatorCategory.CONDITIONALS_BOUNDARY and op in _BOUNDARY_FLIP:
        return [((), Op(_BOUNDARY_FLIP[op], args))]
    if category is MutatorCategory.INCREMENTS and op in COMPARISONS:
        # only comparison-threshold constants are increment sites
        return [((i,), Const(float(a.value) + 1.0)) for i, a in enumerate(args) if _is_integral_const(a)]
    if category is MutatorCategory.INVERT_NEGS and op == "neg":
        return [((), args[0])]
    if category is MutatorCategory.MATH and op in _MATH_SWAP:
        return [((), Op(_MATH_SWAP[op], args))]
    if category is MutatorCategory.NEGATE_CONDITIONALS and op == "?:":
        test, then, other = args
        return [((), Op(op, (test, other, then)))]
    if category is MutatorCategory.CALL_REMOVAL and op in BUILTIN_ARITY:
        return [((), Const(1.0))]
    return []


def _candidates(
    decl: SutDecl, categories: Sequence[MutatorCategory]
) -> List[Tuple[MutatorCategory, int, Tuple[int, ...], Expr]]:
    """(category, stmt, path, replacement) in deterministic order."""
    out = []
    exprs = _statement_exprs(decl.program)
    for category in categories:
        if category is MutatorCategory.RETURN_VALS:
            out.append((category, len(exprs) - 1, (), Const(0.0)))
            continue
        for stmt_index, root in enumerate(exprs):
            for path, node in minilang.walk(root):
                out.extend((category, stmt_index, path + sub, new) for sub, new in _sites(category, node))
    return out


# ---------------------------------------------------------------------------
# One program's facts, shared by the filter, the tagger and the kill harness


_DOMAIN_ERROR = object()  # the outcome of an evaluation that raised DomainError


def _outcomes(fn: Callable[..., float], points: Sequence[Tuple[float, ...]]) -> List[object]:
    out: List[object] = []
    for point in points:
        try:
            out.append(fn(*point))
        except DomainError:
            out.append(_DOMAIN_ERROR)
    return out


class _Subject:
    """A subject or candidate program with what the stages read of it.

    `mutate` makes one for its subject, shared by every candidate, and one
    per candidate; each arrives with its folded statements and compiled
    function.  The sample facts are computed on first use, so a subject's
    own evaluations fall inside the stage that first needs them.
    """

    def __init__(
        self, decl: SutDecl, seed: int, folded: Tuple[Expr, ...], fn: Callable[..., float]
    ):
        self.decl = decl
        self.seed = seed
        self.folded = folded
        self.fn = fn

    @classmethod
    def of(cls, decl: SutDecl, seed: int) -> "_Subject":
        """Fold every statement of `decl` and compile it on its own."""
        folded = tuple(minilang.fold_constants(e) for e in _statement_exprs(decl.program))
        return cls(decl, seed, folded, minilang.compile_program(decl.program))

    @cached_property
    def grid(self) -> List[Tuple[float, ...]]:
        return zoo.small_int_grid(len(self.decl.params))

    @cached_property
    def grid_outcomes(self) -> List[object]:
        return _outcomes(self.fn, self.grid)

    @cached_property
    def scaling_points(self) -> List[Tuple[float, ...]]:
        return zoo.scaling_points(self.decl, self.seed, zoo.SCALING_BUDGET)

    @cached_property
    def scaling_outcomes(self) -> List[object]:
        return _outcomes(self.fn, self.scaling_points)


# ---------------------------------------------------------------------------
# Trivial-equivalence filter: two independent routes, either may discard


def is_trivially_equivalent(base: _Subject, mutant: _Subject) -> bool:
    """Equal after constant folding, or the same outcome at every point of
    the base's grid: equal values, two NaNs, or two DomainErrors.  The grid
    stops at the first point where the outcomes differ."""
    if base.folded == mutant.folded:
        return True
    fn = mutant.fn
    for point, b in zip(base.grid, base.grid_outcomes):
        try:
            m = fn(*point)
        except DomainError:
            m = _DOMAIN_ERROR
        if not (m == b or (m != m and b != b)):
            return False
    return True


# ---------------------------------------------------------------------------
# Homogeneity tagging: a four-rule decision list (equivalence is handled
# before tagging).  Order matters: degenerate collapses must be caught
# before the syntactic certificate, which the zero function passes.


class _CertFail(Exception):
    pass


_POLY = object()  # degree of the literal 0: unifies with anything


def _unify(d1, d2):
    if d1 is _POLY:
        return d2
    if d2 is _POLY:
        return d1
    if d1 != d2:
        raise _CertFail()
    return d1


def _expr_degree(expr: Expr, env: Dict[str, object]):
    if isinstance(expr, Const):
        return _POLY if float(expr.value) == 0.0 else 0
    if isinstance(expr, Var):
        return env[expr.name]
    op, args = expr.op, expr.args
    if op == "?:":
        if _expr_degree(args[0], env) != "bool":
            raise _CertFail()
        return _unify(_expr_degree(args[1], env), _expr_degree(args[2], env))
    degrees = [_expr_degree(a, env) for a in args]
    if op in ("neg", "abs"):
        return degrees[0]
    if op == "sqrt":
        d = degrees[0]
        if d is _POLY:
            return _POLY
        if d % 2:
            raise _CertFail()
        return d // 2
    if op == "*":
        dl, dr = degrees
        return _POLY if dl is _POLY or dr is _POLY else dl + dr
    if op == "/":
        dl, dr = degrees
        if dl is _POLY:
            return _POLY
        if dr is _POLY:
            raise _CertFail()  # division by a syntactic zero
        return dl - dr
    # + - and floored % are scale-equivariant at equal operand degree, and
    # min/max are monotone for lam > 0; comparisons are scale-stable only
    # between same-degree operands
    degree = _unify(*degrees)
    return "bool" if op in COMPARISONS else degree


def syntactic_degree(program: Program) -> Optional[object]:
    """Program output degree when every input has degree 1, else None."""
    env: Dict[str, object] = {p: 1 for p in program.params}
    try:
        for assign in program.assigns:
            degree = _expr_degree(assign.expr, env)
            if degree == "bool":
                return None
            env[assign.name] = degree
        degree = _expr_degree(program.result, env)
    except _CertFail:
        return None
    return None if degree == "bool" else degree


def homogeneity_effect_of(base: _Subject, mutant: _Subject) -> str:
    """preserving/breaking by rule, on the base's seeded scaling sample."""
    homogeneity = base.decl.homogeneity
    if homogeneity == "none":
        # no hypothesis to preserve; refuse to certify preservation
        return "breaking"
    base_vals: List[float] = []
    mut_vals: List[float] = []
    for point, b in zip(base.scaling_points, base.scaling_outcomes):
        if b is _DOMAIN_ERROR:
            continue  # outside the baseline's domain: not evidence
        try:
            m = mutant.fn(*point)
        except DomainError:
            return "breaking"  # rule 2: domain shrank
        if not math.isfinite(m) and math.isfinite(b):
            return "breaking"  # rule 2: left the finite range (inf, NaN)
        base_vals.append(b)
        mut_vals.append(m)
    if len(set(mut_vals)) == 1 and len(set(base_vals)) > 1:
        return "breaking"  # rule 3: collapsed to a constant
    target = 1 if homogeneity == "degree-1" else 0
    degree = syntactic_degree(mutant.decl.program)
    if degree is _POLY or degree == target:
        return "preserving"  # rule 4: certificate
    return "breaking"


# ---------------------------------------------------------------------------
# Classification and the public entry point


def classify(
    sut: str, category: str, matrix: CompatibilityMatrix, blocks: FrozenSet[BlockKind]
) -> FrozenSet[BlockKind]:
    """The populated blocks a category's mutants break on this subject.

    Blocks are visited in canonical order, so a MissingOverride names the
    same block in every process.
    """
    return frozenset(
        b for b in CANONICAL_ORDER if b in blocks and matrix.effect(sut, category, b) == BREAKS
    )


def mutate(
    decl: SutDecl,
    categories: Optional[Iterable[MutatorCategory]] = None,
    seed: int = 0,
    matrix: Optional[CompatibilityMatrix] = None,
) -> Tuple[Mutant, ...]:
    """All surviving mutants, fully classified and tagged.

    Deterministic for a fixed seed: sites are enumerated in (category,
    statement, preorder-path) order and the seed fixes the tagging sample.
    """
    if categories is None:
        cats: Sequence[MutatorCategory] = tuple(MutatorCategory)
    else:
        wanted = set(categories)
        cats = tuple(c for c in MutatorCategory if c in wanted)
    if matrix is None:
        matrix = DEFAULT_MATRIX
    candidates = _candidates(decl, cats)
    if not candidates:
        return ()
    base = _Subject.of(decl, seed)
    exprs = _statement_exprs(decl.program)
    variants = [(k, minilang.replace_at(exprs[k], path, new)) for _, k, path, new in candidates]
    fns = minilang.compile_variants(decl.program, variants)
    out: List[Mutant] = []
    for (category, _, path, _), (stmt_index, stmt), fn in zip(candidates, variants, fns):
        folded = list(base.folded)
        folded[stmt_index] = minilang.fold_constants(stmt)
        mutated = _Subject(_rebuild(decl, stmt_index, stmt), seed, tuple(folded), fn)
        if is_trivially_equivalent(base, mutated):
            continue
        out.append(
            Mutant(
                base=decl.name,
                category=category,
                site=(stmt_index, path),
                broken_blocks=classify(decl.name, category.name, matrix, decl.blocks),
                homogeneity_effect=homogeneity_effect_of(base, mutated),
                decl=mutated.decl,
                fn=mutated.fn,
            )
        )
    return tuple(out)
