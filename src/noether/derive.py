"""MetaPattern derivation.

Pipeline: read the algebra's block decomposition and aggregate one
MetaPattern per nonempty block that keeps the decomposition's own tuple of
the block's operator names.  A pattern builds its invariants (one per name)
and translates them into MR templates when they are read, and stores
neither; a template records the invariant it came from, whose block fixes
its relation form.  The harness's MR classes build and check its tuples.
`extract_invariants` builds the same invariants eagerly, block by block.

An instrumented cost counter makes the advertised near-linear complexity
checkable: extraction charges each operator's cost hint once per tagged
block, translation charges one unit per invariant, the quotient charges a
log-sized insertion fee, and aggregation charges one unit per block.  The
quotient under structural equality is only that fee: each invariant names
one operator and names are unique, so no two invariants of a block merge.
`construct_mp` charges a block's units in two sums, whether or not its
invariants are ever built; the totals are those of one charge per operator
and per invariant.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from ._record import record
from .algebra import (
    ActsOn,
    BlockDecomposition,
    BlockKind,
    CANONICAL_ORDER,
    Operator,
    OperatorAlgebra,
    Regime,
)


class CostCounter:
    """Abstract cost-unit meter for the derivation pipeline."""

    def __init__(self):
        self.total = 0

    def charge(self, units: int) -> None:
        self.total += units


@record
class BlockInvariant:
    """A (block, operator-set) certificate; the block fixes its relation
    form."""

    block: BlockKind
    phi: FrozenSet[str]

    def __post_init__(self):
        if not self.phi:
            raise ValueError("invariant needs at least one operator")


@record
class MRTemplate:
    """MR recipe: its relation form is fixed by the block of the invariant
    it was translated from."""

    provenance: BlockInvariant

    @property
    def block(self) -> BlockKind:
        return self.provenance.block


@record
class MetaPattern:
    """One populated block's operator names, in declaration order: the
    block decomposition's own tuple.  It builds one invariant per name, and
    translates them into its MR templates, on read."""

    block: BlockKind
    label: str
    operators: Tuple[str, ...]

    def __post_init__(self):
        if not self.operators:
            raise ValueError(f"MetaPattern {self.label} must have templates")

    @property
    def invariants(self) -> Tuple[BlockInvariant, ...]:
        """Step 1, run on read: one invariant per operator, in order."""
        block = self.block
        return tuple([BlockInvariant(block, frozenset((name,))) for name in self.operators])

    @property
    def templates(self) -> Tuple[MRTemplate, ...]:
        """Step 2, run on read: one template per invariant, in order."""
        return tuple(map(translate, self.invariants))

    @property
    def members(self) -> FrozenSet[BlockInvariant]:
        """The invariants the templates were translated from."""
        return frozenset(tpl.provenance for tpl in self.templates)


def extract_invariants(
    decomposition: BlockDecomposition, algebra: OperatorAlgebra
) -> Dict[BlockKind, Tuple[BlockInvariant, ...]]:
    """Step 1, all at once: one invariant per (operator, tagged block) pair.

    One tuple per populated block, equal to its pattern's `invariants`, in
    canonical block order; within a block the invariants follow operator
    declaration order, and empty blocks are absent.  Extraction is
    schema-driven.  An operator's invariants share one `phi`.
    """
    out: Dict[BlockKind, Tuple[BlockInvariant, ...]] = {}
    phi = {op.name: frozenset((op.name,)) for op in algebra.operators}
    for block in decomposition.nonempty_blocks():
        names = decomposition.operators_in(block)
        out[block] = tuple([BlockInvariant(block, phi[name]) for name in names])
    return out


def translate(invariant: BlockInvariant) -> MRTemplate:
    """Step 2: invariant -> template, which keeps the invariant as provenance;
    `MetaPattern.templates` runs it on read.

    Structurally equal invariants translate to equal templates because the
    invariant itself is the template's provenance (phi is a frozen set, so
    operator orderings cannot distinguish equivalent inputs).
    `construct_mp` charges its unit when it builds the pattern, so the meter
    does not depend on whether templates are read.
    """
    return MRTemplate(invariant)


def quotient_fee(n: int) -> int:
    """The quotient's insertion fee for n invariants: the sum of
    ceil(log2(i + 2)) for i < n, which is the sum of m.bit_length() for
    1 <= m <= n, in closed form."""
    width = n.bit_length()
    return width * (n + 1) - (1 << width) + 1


def construct_mp(
    algebra: OperatorAlgebra, counter: Optional[CostCounter] = None
) -> Tuple[MetaPattern, ...]:
    """Steps 1-4: the full MetaPattern set, in canonical block order.

    Each pattern keeps its block's names from `algebra.blocks` uncopied; the
    counter is charged what extracting, translating, quotienting and
    aggregating them costs, though none of it is built here.
    """
    blocks = algebra.blocks
    if counter is not None:
        cost_hint = {op.name: op.cost_hint for op in algebra.operators}
    patterns: List[MetaPattern] = []
    for block in blocks.nonempty_blocks():
        names = blocks.operators_in(block)
        if counter is not None:
            # the extraction's cost hints; then one unit per translation, the
            # quotient's fee (it has nothing to merge) and one unit for the
            # aggregation
            n = len(names)
            counter.charge(sum(map(cost_hint.__getitem__, names)))
            counter.charge(n + quotient_fee(n) + 1)
        label = algebra.label_overrides.get(block, block.default_label)
        patterns.append(MetaPattern(block, label, names))
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
    # one tag set per block, shared by the operators it tags
    tag_sets = {block: frozenset((block,)) for block in blocks}
    operators = []
    for i in range(n):
        block = blocks[i % len(blocks)]
        group = block is BlockKind.G
        operators.append(
            Operator(
                name=f"gen{i:04d}",
                acts_on=ActsOn.INPUT,
                block_tags=tag_sets[block],
                regime=Regime.FINITE if group else Regime.NONE,
                group_order_or_dim=2 if group else None,
            )
        )
    return OperatorAlgebra(
        name=f"synthetic-{n}",
        operators=tuple(operators),
        generators=tuple(op.name for op in operators),
    )
