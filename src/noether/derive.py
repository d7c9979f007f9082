"""MetaPattern derivation.

Pipeline: read the algebra's block decomposition, extract one invariant
per (operator, block) pair, translate each invariant into an executable MR
template via the block's canonical tuple rule, and aggregate one
MetaPattern per nonempty block that keeps its templates.

An instrumented cost counter makes the advertised near-linear complexity
checkable: extraction charges each operator's cost hint once per tagged
block, translation charges one unit per invariant, the quotient charges a
log-sized insertion fee, and aggregation charges one unit per block.  The
quotient under structural equality is only that fee: each invariant names
one operator and names are unique, so no two invariants of a block merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .algebra import (
    ActsOn,
    BlockDecomposition,
    BlockKind,
    CANONICAL_ORDER,
    Operator,
    OperatorAlgebra,
    Regime,
)

# the group block samples its orbit up to this cap
_ORBIT_CAP = 8


class CostCounter:
    """Abstract cost-unit meter for the derivation pipeline."""

    def __init__(self):
        self.total = 0
        self.by_step: Dict[str, int] = {}

    def charge(self, units: int, step: str) -> None:
        self.total += units
        self.by_step[step] = self.by_step.get(step, 0) + units


@dataclass(frozen=True)
class BlockInvariant:
    """A (block, operator-set, arity) certificate; the block fixes its
    relation form."""

    block: BlockKind
    phi: FrozenSet[str]
    arity: int

    def __post_init__(self):
        if not self.phi:
            raise ValueError("invariant needs at least one operator")
        if self.arity < 1:
            raise ValueError("arity must be positive")


@dataclass(frozen=True)
class MRTemplate:
    """Executable-MR recipe: its tuple rule and relation form are fixed by
    the block of the invariant it was translated from."""

    provenance: BlockInvariant

    @property
    def block(self) -> BlockKind:
        return self.provenance.block

    @property
    def tuple_rule(self) -> str:
        return self.block.tuple_rule


@dataclass(frozen=True)
class MetaPattern:
    """One populated block's MR templates, one per tagged operator in
    declaration order."""

    block: BlockKind
    label: str
    templates: Tuple[MRTemplate, ...]

    def __post_init__(self):
        if not self.templates:
            raise ValueError(f"MetaPattern {self.label} must have templates")

    @property
    def members(self) -> FrozenSet[BlockInvariant]:
        """The invariants the templates were translated from."""
        return frozenset(tpl.provenance for tpl in self.templates)


def _arity_for(block: BlockKind, op: Operator) -> int:
    if block.fixed_arity is not None:
        return block.fixed_arity
    size = op.group_order_or_dim or 0
    if op.regime is Regime.FINITE and size >= 2:
        return min(size, _ORBIT_CAP)
    return 4  # sampled orbit for Lie / truncated / degenerate groups


def extract_invariants(
    decomposition: BlockDecomposition,
    algebra: OperatorAlgebra,
    counter: Optional[CostCounter] = None,
) -> Dict[BlockKind, Tuple[BlockInvariant, ...]]:
    """Step 1: one invariant per (operator, tagged block) pair.

    One tuple per populated block, in canonical block order; within a block
    the invariants follow operator declaration order, and empty blocks are
    absent.  Extraction is schema-driven; each operator pays its declared
    cost hint per tagged block.
    """
    out: Dict[BlockKind, Tuple[BlockInvariant, ...]] = {}
    by_name = {op.name: op for op in algebra.operators}
    for block in decomposition.nonempty_blocks():
        invariants: List[BlockInvariant] = []
        for op_name in decomposition.operators_in(block):
            op = by_name[op_name]
            if counter is not None:
                counter.charge(op.cost_hint, "extract")
            invariants.append(
                BlockInvariant(
                    block=block,
                    phi=frozenset({op.name}),
                    arity=_arity_for(block, op),
                )
            )
        out[block] = tuple(invariants)
    return out


def translate(invariant: BlockInvariant, counter: Optional[CostCounter] = None) -> MRTemplate:
    """Step 2: invariant -> executable template, tuple rule fixed by block.

    Structurally equal invariants translate to equal templates because the
    invariant itself is the template's provenance (phi is a frozen set, so
    operator orderings cannot distinguish equivalent inputs).
    """
    if counter is not None:
        counter.charge(1, "translate")
    return MRTemplate(provenance=invariant)


def construct_mp(
    algebra: OperatorAlgebra, counter: Optional[CostCounter] = None
) -> Tuple[MetaPattern, ...]:
    """Steps 1-4: the full MetaPattern set, in canonical block order."""
    extracted = extract_invariants(algebra.blocks, algebra, counter)
    patterns: List[MetaPattern] = []
    for block, invariants in extracted.items():
        templates = tuple(translate(inv, counter) for inv in invariants)
        if counter is not None:
            # the quotient's log-sized insertion fee; it has nothing to merge
            fee = sum(math.ceil(math.log2(i + 2)) for i in range(len(invariants)))
            counter.charge(fee, "quotient")
            counter.charge(1, "aggregate")
        label = algebra.label_overrides.get(block, block.default_label)
        patterns.append(MetaPattern(block=block, label=label, templates=templates))
    return tuple(patterns)


def theorem2_bound(n: int, max_cost_hint: int = 1) -> float:
    """The advertised cost ceiling for n generators: 1.5 n h log2(n + 1)."""
    return 1.5 * n * max_cost_hint * math.log2(n + 1)


def synthetic_algebra(n: int) -> OperatorAlgebra:
    """n unit-cost generators cycled over the seven non-rewrite blocks.

    The rewrite block is skipped because it would demand semiring rules,
    which have no synthetic analogue; the cost-ceiling smoke check only
    needs generator volume.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    blocks = [b for b in CANONICAL_ORDER if b is not BlockKind.B_REL]
    operators = []
    for i in range(n):
        block = blocks[i % len(blocks)]
        group = block is BlockKind.G
        operators.append(
            Operator(
                name=f"gen{i:04d}",
                acts_on=ActsOn.INPUT,
                block_tags=frozenset({block}),
                regime=Regime.FINITE if group else Regime.NONE,
                group_order_or_dim=2 if group else None,
            )
        )
    return OperatorAlgebra(
        name=f"synthetic-{n}",
        operators=tuple(operators),
        generators=tuple(op.name for op in operators),
    )
