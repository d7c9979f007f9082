"""Operator-algebra data model.

An operator algebra is a named set of operators, each tagged with one or
more of eight block kinds (symmetry group, order/monotonicity, self-adjoint
pairing, reversal involution, parametric limit, qualitative dynamics,
method comparison, rewrite equality).  Decomposing an algebra along the
blocks is the first step of the derivation pipeline; the canonical block
order resolves multi-block ambiguity everywhere downstream.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple


class AlgebraError(Exception):
    """Base class for algebra-model violations."""


class UnassignedOperator(AlgebraError):
    """An operator relevant to MR derivation carries no block tag."""

    def __init__(self, name: str):
        super().__init__(f"operator {name!r} has no block tags")
        self.name = name


class EmptyInput(AlgebraError):
    """canonical_max / assign_block called with nothing to choose from."""


@functools.total_ordering
class BlockKind(enum.Enum):
    """The eight block kinds, ordered by canonical priority (G highest).

    The enum value is the ASCII tag used in algebra files.  Comparisons
    implement the strict total order G > O_LE > T_STAR > T_REV > L_STAR >
    D_STAR > E_STAR > B_REL.
    """

    G = "G"            # symmetry-group block: group actions and equivariance
    O_LE = "O_le"      # order block: monotone parameter dependence
    T_STAR = "T_star"  # self-adjoint block: pairing/duality operators
    T_REV = "T_rev"    # reversal block: involutions (time reversal etc.)
    L_STAR = "L_star"  # limit block: parametric refinement/scaling families
    D_STAR = "D_star"  # dynamics block: qualitative trajectory features
    E_STAR = "E_star"  # method block: error-ordered method comparison
    B_REL = "B_rel"    # rewrite block: identity-preserving rewrite equality

    @property
    def tag(self) -> str:
        return self.value

    @property
    def priority(self) -> int:
        """Rank under the canonical order; larger wins."""
        return _PRIORITY[self]

    def __lt__(self, other: object):
        if not isinstance(other, BlockKind):
            return NotImplemented
        return self.priority < other.priority


# Canonical order, highest priority first: the order BlockKind declares.
CANONICAL_ORDER: Tuple[BlockKind, ...] = tuple(BlockKind)

_PRIORITY = {kind: len(CANONICAL_ORDER) - i for i, kind in enumerate(CANONICAL_ORDER)}

_TAG_TO_KIND = {kind.value: kind for kind in BlockKind}

# Each block certifies exactly one relation form.
BLOCK_RELATION_FORM: Mapping[BlockKind, str] = {
    BlockKind.G: "equivariance",
    BlockKind.O_LE: "monotonicity",
    BlockKind.T_STAR: "self-adjoint-pairing",
    BlockKind.T_REV: "involution",
    BlockKind.L_STAR: "convergence-rate",
    BlockKind.D_STAR: "qualitative-feature",
    BlockKind.E_STAR: "method-order",
    BlockKind.B_REL: "rewrite-equality",
}

# Descriptor-only vocabulary: legal in MR descriptors, certified by no block.
DESCRIPTOR_ONLY_FORMS: Tuple[str, ...] = ("homomorphism-failure", "mixed-difference")

RELATION_FORMS: Tuple[str, ...] = tuple(BLOCK_RELATION_FORM.values()) + DESCRIPTOR_ONLY_FORMS


def block_from_tag(tag: str) -> BlockKind:
    """Look up a block kind by its file tag; raises KeyError on unknown tags."""
    return _TAG_TO_KIND[tag]


class ActsOn(enum.Enum):
    """Which space an operator acts on."""

    INPUT = "input"
    OUTPUT = "output"
    BOTH = "both"
    PARAM = "param"


class Regime(enum.Enum):
    """Symmetry regime of a group-block operator.

    finite: finite group, size = |group|
    lie: Lie group, size = algebra dimension
    trunc: infinite discrete group truncated at size = K
    none: not a group-block operator
    """

    FINITE = "finite"
    LIE = "lie"
    TRUNCATED = "trunc"
    NONE = "none"


@dataclass(frozen=True)
class Operator:
    """One named operator with its block tags and extraction-cost hint."""

    name: str
    acts_on: ActsOn
    block_tags: frozenset
    regime: Regime = Regime.NONE
    group_order_or_dim: Optional[int] = None
    cost_hint: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("operator name must be nonempty")
        tags = frozenset(self.block_tags)
        object.__setattr__(self, "block_tags", tags)
        for t in tags:
            if not isinstance(t, BlockKind):
                raise ValueError(f"operator {self.name!r}: bad block tag {t!r}")
        has_group = BlockKind.G in tags
        has_regime = self.regime is not Regime.NONE
        if has_group != has_regime:
            raise ValueError(
                f"operator {self.name!r}: regime must be given exactly when "
                f"the G block is tagged (regime={self.regime.value})"
            )
        if has_regime:
            if self.group_order_or_dim is None or self.group_order_or_dim < 0:
                raise ValueError(
                    f"operator {self.name!r}: group-block operators need a "
                    f"nonnegative size (|group|, Lie dimension, or truncation)"
                )
        if self.cost_hint < 1:
            raise ValueError(f"operator {self.name!r}: cost_hint must be >= 1")


@dataclass(frozen=True)
class RewriteDecl:
    """One identity-preserving rewrite rule, patterns kept as opaque text.

    The relational evaluator interprets lhs/rhs in its tiny prefix notation;
    the algebra layer only carries them.
    """

    name: str
    lhs: str
    rhs: str
    guard: str = ""


@dataclass
class OperatorAlgebra:
    """A named operator set with a generating subset.

    semiring_rules holds the rewrite rules attached to the rewrite block and
    must be nonempty exactly when some operator is tagged B_rel.
    label_overrides maps block kinds to custom MetaPattern labels for this
    algebra (the default block->label map applies otherwise).
    """

    name: str
    operators: Tuple[Operator, ...]
    generators: Tuple[str, ...]
    semiring_rules: Tuple[RewriteDecl, ...] = ()
    label_overrides: Mapping[BlockKind, str] = field(default_factory=dict)

    def __post_init__(self):
        self.operators = tuple(self.operators)
        self.generators = tuple(self.generators)
        self.semiring_rules = tuple(self.semiring_rules)
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"algebra {self.name!r}: duplicate operator names {dupes}")
        name_set = set(names)
        for g in self.generators:
            if g not in name_set:
                raise ValueError(f"algebra {self.name!r}: generator {g!r} not declared")
        if self.operators and not self.generators:
            raise ValueError(f"algebra {self.name!r}: generators must be nonempty")
        has_rewrite_block = any(BlockKind.B_REL in op.block_tags for op in self.operators)
        if has_rewrite_block and not self.semiring_rules:
            raise ValueError(
                f"algebra {self.name!r}: a B_rel-tagged operator requires semiring rules"
            )
        if self.semiring_rules and not has_rewrite_block:
            raise ValueError(
                f"algebra {self.name!r}: semiring rules given but no operator is B_rel-tagged"
            )

    def operator(self, name: str) -> Operator:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)

    def generator_operators(self) -> Tuple[Operator, ...]:
        by_name = {op.name: op for op in self.operators}
        return tuple(by_name[g] for g in self.generators)


@dataclass
class BlockDecomposition:
    """Operators grouped by block tag, built only by `decompose`.

    The mapping is a cover, not a partition: a multi-tagged operator appears
    under each of its blocks.  All eight blocks are keys, in canonical order.
    """

    per_block: Mapping[BlockKind, Tuple[str, ...]]

    def operators_in(self, kind: BlockKind) -> Tuple[str, ...]:
        return self.per_block[kind]

    def nonempty_blocks(self) -> Tuple[BlockKind, ...]:
        """The populated blocks, in canonical order: one MetaPattern each."""
        return tuple(kind for kind, names in self.per_block.items() if names)


def decompose(algebra: OperatorAlgebra) -> BlockDecomposition:
    """Group the algebra's operators by block tag.

    Each operator is filed under its own tags, so within a block operators
    keep their declaration order.  A zero-operator algebra decomposes to
    all-empty blocks without error; an operator with no tags raises
    UnassignedOperator instead of being silently dropped.
    """
    buckets: dict = {kind: [] for kind in CANONICAL_ORDER}
    for op in algebra.operators:
        if not op.block_tags:
            raise UnassignedOperator(op.name)
        for kind in op.block_tags:
            buckets[kind].append(op.name)
    return BlockDecomposition({kind: tuple(names) for kind, names in buckets.items()})


def canonical_max(blocks: Iterable[BlockKind]) -> BlockKind:
    """The unique highest-priority block among those given."""
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("canonical_max needs at least one block kind")
    return max(blocks, key=lambda k: k.priority)


def canonical_sorted(blocks: Iterable[BlockKind]) -> Tuple[BlockKind, ...]:
    """Blocks in canonical order (highest priority first)."""
    return tuple(sorted(blocks, key=lambda k: -k.priority))
