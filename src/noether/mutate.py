"""Mutation engine over the mini-language.

Seven mutator categories generate one candidate per applicable (site,
category) pair: the subject with one statement replaced.  A candidate the
trivial-equivalence filter keeps is rebuilt into its program, classified
D1/D2 against the category-by-block compatibility matrix (with per-subject
overrides for case-dependent cells) and tagged homogeneity-preserving or
-breaking by rule, never by running the kill experiment.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import minilang, zoo
from ._record import field, record
from .algebra import CANONICAL_ORDER, BlockKind
from .minilang import BUILTIN_ARITY, COMPARISONS, Assign, Const, DomainError, Expr, Op, Program, Var
from .specfile import BREAKS, MUTATOR_CATEGORY_NAMES, PRESERVES, MutatorConfig, SutDecl

CASE = "case-dependent"  # a default-matrix cell only; a `.cfg` file cannot write it

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
    category: str  # one of specfile.MUTATOR_CATEGORY_NAMES
    site: Tuple[int, Tuple[int, ...]]  # (statement index, path within it)
    broken_blocks: FrozenSet[BlockKind]
    homogeneity_effect: str  # preserving | breaking
    fn: Callable[..., float] = field(compare=False)  # the mutant's program, compiled

    @property
    def strata(self) -> str:
        """D1 exactly when some populated block breaks, else D2."""
        return "D1" if self.broken_blocks else "D2"


def mutant_id(mutant: Mutant) -> str:
    """Stable id `base/CATEGORY@stmt:path`; the path is `root` when empty."""
    stmt, path = mutant.site
    suffix = ".".join(map(str, path)) or "root"
    return f"{mutant.base}/{mutant.category}@{stmt}:{suffix}"


# ---------------------------------------------------------------------------
# Site enumeration


def _statement_exprs(program: Program) -> List[Expr]:
    return [a.expr for a in program.assigns] + [program.result]


def _rebuild(program: Program, stmt_index: int, stmt: Expr) -> Program:
    """`program` with statement `stmt_index` replaced by `stmt`."""
    assigns = list(program.assigns)
    result = program.result
    if stmt_index < len(assigns):
        assigns[stmt_index] = Assign(assigns[stmt_index].name, stmt)
    else:
        result = stmt
    return Program(program.name, program.params, tuple(assigns), result)


def _is_integral_const(node: Expr) -> bool:
    return isinstance(node, Const) and float(node.value).is_integer()


def _sites(category: str, node: Expr) -> List[Tuple[Tuple[int, ...], Expr]]:
    """(path below `node`, replacement) for each site `category` finds at `node`."""
    if not isinstance(node, Op):
        return []
    op, args = node.op, node.args
    if category == "CONDITIONALS_BOUNDARY" and op in _BOUNDARY_FLIP:
        return [((), Op(_BOUNDARY_FLIP[op], args))]
    if category == "INCREMENTS" and op in COMPARISONS:
        # only comparison-threshold constants are increment sites
        return [((i,), Const(float(a.value) + 1.0)) for i, a in enumerate(args) if _is_integral_const(a)]
    if category == "INVERT_NEGS" and op == "neg":
        return [((), args[0])]
    if category == "MATH" and op in _MATH_SWAP:
        return [((), Op(_MATH_SWAP[op], args))]
    if category == "NEGATE_CONDITIONALS" and op == "?:":
        test, then, other = args
        return [((), Op(op, (test, other, then)))]
    if category == "CALL_REMOVAL" and op in BUILTIN_ARITY:
        return [((), Const(1.0))]
    return []


def _candidates(
    decl: SutDecl, categories: Sequence[str]
) -> List[Tuple[str, int, Tuple[int, ...], Expr]]:
    """(category, stmt, path, replaced statement) in deterministic order."""
    out = []
    exprs = _statement_exprs(decl.program)
    for category in categories:
        if category == "RETURN_VALS":
            out.append((category, len(exprs) - 1, (), Const(0.0)))
            continue
        for stmt_index, root in enumerate(exprs):
            for path, node in minilang.walk(root):
                for sub, new in _sites(category, node):
                    site = path + sub
                    out.append((category, stmt_index, site, minilang.replace_at(root, site, new)))
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
    """The subject with what the filter and the tagger read of it.

    `mutate` makes one per subject, shared by all its candidates: it folds
    every statement and takes the compiled `decl.fn` at once.  The sample
    facts are computed on first use, so the subject's own evaluations fall
    inside the stage that first needs them.
    """

    def __init__(self, decl: SutDecl, seed: int):
        self.decl = decl
        self.seed = seed
        self.folded = tuple(minilang.fold_constants(e) for e in _statement_exprs(decl.program))
        self.fn = decl.fn

    @cached_property
    def grid(self) -> List[Tuple[float, ...]]:
        return zoo.small_int_grid(len(self.decl.params))

    @cached_property
    def grid_outcomes(self) -> List[object]:
        return _outcomes(self.fn, self.grid)

    @cached_property
    def scaling_points(self) -> List[Tuple[float, ...]]:
        """Bases, then scaled points, of the scaling MR's sample: a mutant
        erring or degenerating anywhere the relation looks is tagged
        breaking, so rule-blind kills stay in the breaking stratum."""
        sample = zoo.scaling_sample(self.decl, self.seed)
        return [base for base, _, _ in sample] + [scaled for _, scaled, _ in sample]

    @cached_property
    def scaling_outcomes(self) -> List[object]:
        return _outcomes(self.fn, self.scaling_points)


# ---------------------------------------------------------------------------
# Trivial-equivalence filter: two independent routes, either may discard


def is_trivially_equivalent(base: _Subject, k: int, stmt: Expr, fn: Callable[..., float]) -> bool:
    """Statement `k` replaced by `stmt` (compiled as `fn`) is the base if
    `stmt` folds to the base's statement `k`, or if `fn` has the base's
    outcome at every grid point: equal values, two NaNs, or two
    DomainErrors.  The grid stops at the first point where they differ."""
    if minilang.fold_constants(stmt) == base.folded[k]:
        return True
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
# before tagging).  The static rules come first: no hypothesis (rule 1) or
# no syntactic degree certificate (rule 4) is "breaking" with no evaluation.
# Only a certified mutant is run on the scaling sample, where a shrunk
# domain, a non-finite output (rule 2) or a collapse to a constant (rule 3)
# still overrides the certificate, which the zero function passes.  Every
# rule but the certificate can only say "breaking", so the tag, "certified
# and no sample rule fires", does not depend on the order they are asked in.


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


def homogeneity_effect_of(base: _Subject, program: Program, fn: Callable[..., float]) -> str:
    """preserving/breaking for the mutant `program`, compiled as `fn`, by
    rule, on the base's seeded scaling sample.

    The degree certificate is asked before the sample: a mutant without
    one is breaking and `fn` is never called.  A certified mutant
    is preserving unless the sample shows it leaving the base's domain or
    finite range, or collapsing to a constant while the base varies.
    """
    homogeneity = base.decl.homogeneity
    if homogeneity == "none":
        # no hypothesis to preserve; refuse to certify preservation
        return "breaking"
    target = 1 if homogeneity == "degree-1" else 0
    degree = syntactic_degree(program)
    if degree is not _POLY and degree != target:
        return "breaking"  # rule 4: no certificate
    base_vals: List[float] = []
    mut_vals: List[float] = []
    for point, b in zip(base.scaling_points, base.scaling_outcomes):
        if b is _DOMAIN_ERROR:
            continue  # outside the baseline's domain: not evidence
        try:
            m = fn(*point)
        except DomainError:
            return "breaking"  # rule 2: domain shrank
        if not math.isfinite(m) and math.isfinite(b):
            return "breaking"  # rule 2: left the finite range (inf, NaN)
        base_vals.append(b)
        mut_vals.append(m)
    if len(set(mut_vals)) == 1 and len(set(base_vals)) > 1:
        return "breaking"  # rule 3: collapsed to a constant
    return "preserving"


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
    categories: Optional[Iterable[str]] = None,
    seed: int = 0,
    matrix: Optional[CompatibilityMatrix] = None,
) -> Tuple[Mutant, ...]:
    """All surviving mutants, fully classified and tagged.

    `categories` are names from MUTATOR_CATEGORY_NAMES, all of them by
    default; the first unknown one raises KeyError before any work.
    Deterministic for a fixed seed: sites are enumerated in (canonical
    category, statement, preorder-path) order and the seed fixes the
    tagging sample.
    """
    cats = MUTATOR_CATEGORY_NAMES
    if categories is not None:
        wanted = tuple(categories)
        for name in wanted:
            if name not in MUTATOR_CATEGORY_NAMES:
                raise KeyError(name)
        cats = tuple(c for c in MUTATOR_CATEGORY_NAMES if c in wanted)
    if matrix is None:
        matrix = DEFAULT_MATRIX
    candidates = _candidates(decl, cats)
    if not candidates:
        return ()
    base = _Subject(decl, seed)
    fns = minilang.compile_variants(decl.program, [(k, stmt) for _, k, _, stmt in candidates])
    out: List[Mutant] = []
    for (category, k, path, stmt), fn in zip(candidates, fns):
        if is_trivially_equivalent(base, k, stmt, fn):
            continue
        out.append(
            Mutant(
                base=decl.name,
                category=category,
                site=(k, path),
                broken_blocks=classify(decl.name, category, matrix, decl.blocks),
                homogeneity_effect=homogeneity_effect_of(base, _rebuild(decl.program, k, stmt), fn),
                fn=fn,
            )
        )
    return tuple(out)
