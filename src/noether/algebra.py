"""Operator-algebra data model.

An operator algebra is a named set of operators, each tagged with one or
more of eight block kinds (symmetry group, order/monotonicity, self-adjoint
pairing, reversal involution, parametric limit, qualitative dynamics,
method comparison, rewrite equality).  Decomposing an algebra along the
blocks is the first step of the derivation pipeline; the canonical block
order resolves multi-block ambiguity everywhere downstream.  A model that
fails validation raises ValueError with the reason alone; `specfile` names
the algebra or operator when it reports one.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Tuple

from ._record import field, record

if TYPE_CHECKING:
    from .plans import RewriteRule


class UnassignedOperator(Exception):
    """An operator relevant to MR derivation carries no block tag."""

    def __init__(self, name: str):
        super().__init__(f"operator {name!r} has no block tags")
        self.name = name


class EmptyInput(Exception):
    """canonical_max called with nothing to choose from."""


@functools.total_ordering
class BlockKind(enum.Enum):
    """The eight block kinds, ordered by canonical priority (G highest).

    Each member carries its own facts, written once in its row: the ASCII
    tag used in algebra files, the one relation form the block certifies,
    and its default MetaPattern label.
    Comparisons implement the strict total order G > O_LE > T_STAR > T_REV
    > L_STAR > D_STAR > E_STAR > B_REL, the declaration order.
    """

    G = ("G", "equivariance", "m_inv")
    O_LE = ("O_le", "monotonicity", "m_mono")
    T_STAR = ("T_star", "self-adjoint-pairing", "m_adj")
    T_REV = ("T_rev", "involution", "m_rev")
    L_STAR = ("L_star", "convergence-rate", "m_conv")
    D_STAR = ("D_star", "qualitative-feature", "m_dyn")
    E_STAR = ("E_star", "method-order", "m_cmp")
    B_REL = ("B_rel", "rewrite-equality", "m_rel")

    def __init__(self, tag: str, relation_form: str, default_label: str):
        self.tag = tag
        self.relation_form = relation_form
        self.default_label = default_label
        # rank under the canonical order, larger wins: minus the number of
        # members declared before this one
        self.priority = -len(type(self).__members__)

    # members are singletons, so identity hashing agrees with equality
    __hash__ = object.__hash__

    def __lt__(self, other: object):
        if not isinstance(other, BlockKind):
            return NotImplemented
        return self.priority < other.priority


# Canonical order, highest priority first: the order BlockKind declares.
CANONICAL_ORDER: Tuple[BlockKind, ...] = tuple(BlockKind)

_TAG_TO_KIND = {kind.tag: kind for kind in BlockKind}
_KINDS = frozenset(BlockKind)

# Descriptor-only vocabulary: legal in MR descriptors, certified by no block.
DESCRIPTOR_ONLY_FORMS: Tuple[str, ...] = ("homomorphism-failure", "mixed-difference")

RELATION_FORMS: Tuple[str, ...] = (
    tuple(kind.relation_form for kind in BlockKind) + DESCRIPTOR_ONLY_FORMS
)


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


# The members read once per operator, bound as module globals: on CPython 3.11
# reading `Regime.NONE` through its class takes about 100 ns, a global 8 ns.
_G = BlockKind.G
_B_REL = BlockKind.B_REL
_NO_REGIME = Regime.NONE


@record
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
        if not tags <= _KINDS:
            bad = next(t for t in tags if t not in _KINDS)
            raise ValueError(f"bad block tag {bad!r}")
        has_group = _G in tags
        has_regime = self.regime is not _NO_REGIME
        if has_group != has_regime:
            raise ValueError(
                "regime must be given exactly when the G block is tagged "
                f"(regime={self.regime.value})"
            )
        if has_regime:
            if self.group_order_or_dim is None or self.group_order_or_dim < 0:
                raise ValueError(
                    "group-block operators need a nonnegative size "
                    "(|group|, Lie dimension, or truncation)"
                )
        elif self.group_order_or_dim is not None:
            # the printer writes a size only beside a regime
            raise ValueError(f"size is only allowed together with a regime (size={self.group_order_or_dim})")
        if self.cost_hint < 1:
            raise ValueError("cost_hint must be >= 1")


def _repeated(items: Iterable[str]) -> list:
    """The items that occur more than once, sorted; one pass, where
    `items.count` per item would compare every pair."""
    return sorted(item for item, count in Counter(items).items() if count > 1)


class _LabelMap(dict):
    """A read-only dict that hashes, so the frozen algebra holding it does;
    it prints and compares as a plain dict."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("an algebra's label map is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@record
class OperatorAlgebra:
    """A named operator set with a generating subset.

    semiring_rules holds the rewrite rules attached to the rewrite block,
    each a `plans.RewriteRule` as parsed, and must be nonempty exactly
    when some operator is tagged B_rel; the `relational` evaluator's
    `rho_select-push` fires them at the plan root.
    label_overrides maps block kinds to custom MetaPattern labels for this
    algebra (each block's default label applies otherwise); the eight
    effective labels must be distinct, so a label names one MetaPattern.
    """

    name: str
    operators: Tuple[Operator, ...]
    generators: Tuple[str, ...]
    semiring_rules: Tuple[RewriteRule, ...] = ()
    label_overrides: Mapping[BlockKind, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "semiring_rules", tuple(self.semiring_rules))
        object.__setattr__(self, "label_overrides", _LabelMap(self.label_overrides))
        names = [op.name for op in self.operators]
        name_set = set(names)
        if len(name_set) != len(names):
            raise ValueError(f"duplicate operator names {_repeated(names)}")
        labels = [self.label_overrides.get(kind, kind.default_label) for kind in BlockKind]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate MetaPattern labels {_repeated(labels)}")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"duplicate generator names {_repeated(self.generators)}")
        for g in self.generators:
            if g not in name_set:
                raise ValueError(f"generator {g!r} not declared")
        if self.operators and not self.generators:
            raise ValueError("generators must be nonempty")
        has_rewrite_block = any(_B_REL in op.block_tags for op in self.operators)
        if has_rewrite_block and not self.semiring_rules:
            raise ValueError("a B_rel-tagged operator requires semiring rules")
        if self.semiring_rules and not has_rewrite_block:
            raise ValueError("semiring rules given but no operator is B_rel-tagged")

    @functools.cached_property
    def blocks(self) -> BlockDecomposition:
        """The algebra's block decomposition, computed by `decompose` on first use.

        Not a field: equality, repr and the printed form ignore it.
        """
        return decompose(self)


@record
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
    `OperatorAlgebra.blocks` calls this once per algebra and keeps the result.
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
