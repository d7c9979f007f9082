"""MetaPattern derivation.

Pipeline: decompose the algebra into blocks, extract one invariant per
(operator, block) pair, translate each invariant into an executable MR
template via the block's canonical tuple rule, quotient structurally equal
invariants, and aggregate one MetaPattern per nonempty block.

An instrumented cost counter makes the advertised near-linear complexity
checkable: extraction charges each operator's cost hint once per tagged
block, translation charges one unit per invariant, the quotient charges a
log-sized insertion fee, and aggregation charges one unit per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .algebra import (
    BLOCK_RELATION_FORM,
    ActsOn,
    BlockDecomposition,
    BlockKind,
    CANONICAL_ORDER,
    EmptyInput,
    Operator,
    OperatorAlgebra,
    Regime,
    canonical_max,
    decompose,
)

# block -> canonical tuple-generation rule (a bijection)
BLOCK_TUPLE_RULE: Mapping[BlockKind, str] = {
    BlockKind.G: "group-orbit",
    BlockKind.O_LE: "order-pair",
    BlockKind.T_STAR: "inner-product-pair",
    BlockKind.T_REV: "involution-pair",
    BlockKind.L_STAR: "parametric-sequence",
    BlockKind.D_STAR: "trajectory",
    BlockKind.E_STAR: "method-pair",
    BlockKind.B_REL: "rewrite-pair",
}

DEFAULT_LABELS: Mapping[BlockKind, str] = {
    BlockKind.G: "m_inv",
    BlockKind.O_LE: "m_mono",
    BlockKind.T_STAR: "m_adj",
    BlockKind.T_REV: "m_rev",
    BlockKind.L_STAR: "m_conv",
    BlockKind.D_STAR: "m_dyn",
    BlockKind.E_STAR: "m_cmp",
    BlockKind.B_REL: "m_rel",
}

# fixed tuple arities; the group block samples its orbit up to this cap
_ORBIT_CAP = 8
_FIXED_ARITY: Mapping[BlockKind, int] = {
    BlockKind.O_LE: 2,
    BlockKind.T_STAR: 2,
    BlockKind.T_REV: 2,
    BlockKind.L_STAR: 3,
    BlockKind.D_STAR: 3,
    BlockKind.E_STAR: 2,
    BlockKind.B_REL: 2,
}


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
    """A (block, operator-set, relation-form, arity) certificate."""

    block: BlockKind
    phi: FrozenSet[str]
    pi_template: str
    arity: int

    def __post_init__(self):
        if not self.phi:
            raise ValueError("invariant needs at least one operator")
        if self.pi_template != BLOCK_RELATION_FORM[self.block]:
            raise ValueError(
                f"form {self.pi_template!r} is not admissible for block {self.block.tag}"
            )
        if self.arity < 1:
            raise ValueError("arity must be positive")


@dataclass(frozen=True)
class MRTemplate:
    """Executable-MR recipe: tuple rule plus assertion shape.

    tolerance is a slot: None until a harness binds a concrete budget.
    """

    block: BlockKind
    tuple_rule: str
    assertion_form: str
    provenance: BlockInvariant
    tolerance: Optional[float] = None

    def __post_init__(self):
        if self.tuple_rule != BLOCK_TUPLE_RULE[self.block]:
            raise ValueError(
                f"tuple rule {self.tuple_rule!r} is not the canonical rule "
                f"for block {self.block.tag}"
            )


@dataclass(frozen=True)
class MetaPattern:
    block: BlockKind
    label: str
    members: FrozenSet[BlockInvariant]

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"MetaPattern {self.label} must have members")
        for inv in self.members:
            if inv.block is not self.block:
                raise ValueError(f"member block {inv.block.tag} != pattern block {self.block.tag}")


def _arity_for(block: BlockKind, op: Operator) -> int:
    if block is BlockKind.G:
        size = op.group_order_or_dim or 0
        if op.regime is Regime.FINITE and size >= 2:
            return min(size, _ORBIT_CAP)
        return 4  # sampled orbit for Lie / truncated / degenerate groups
    return _FIXED_ARITY[block]


def extract_invariants(
    decomposition: BlockDecomposition,
    algebra: OperatorAlgebra,
    counter: Optional[CostCounter] = None,
) -> Dict[BlockKind, Set[BlockInvariant]]:
    """Step 1: one invariant per (operator, tagged block) pair.

    Empty blocks yield empty sets (no error).  Extraction is schema-driven;
    each operator pays its declared cost hint per tagged block.
    """
    out: Dict[BlockKind, Set[BlockInvariant]] = {}
    by_name = {op.name: op for op in algebra.operators}
    for block in CANONICAL_ORDER:
        invariants: Set[BlockInvariant] = set()
        for op_name in decomposition.operators_in(block):
            op = by_name[op_name]
            if counter is not None:
                counter.charge(op.cost_hint, "extract")
            invariants.add(
                BlockInvariant(
                    block=block,
                    phi=frozenset({op.name}),
                    pi_template=BLOCK_RELATION_FORM[block],
                    arity=_arity_for(block, op),
                )
            )
        if invariants:
            out[block] = invariants
    return out


def translate(invariant: BlockInvariant, counter: Optional[CostCounter] = None) -> MRTemplate:
    """Step 2: invariant -> executable template, tuple rule fixed by block.

    Structurally equal invariants translate to equal templates because the
    invariant itself is the template's provenance (phi is a frozen set, so
    operator orderings cannot distinguish equivalent inputs).
    """
    if counter is not None:
        counter.charge(1, "translate")
    return MRTemplate(
        block=invariant.block,
        tuple_rule=BLOCK_TUPLE_RULE[invariant.block],
        assertion_form=invariant.pi_template,
        provenance=invariant,
    )


def construct_mp(
    algebra: OperatorAlgebra, counter: Optional[CostCounter] = None
) -> Tuple[MetaPattern, ...]:
    """Steps 1-4: the full MetaPattern set, in canonical block order."""
    decomposition = decompose(algebra)
    extracted = extract_invariants(decomposition, algebra, counter)
    patterns: List[MetaPattern] = []
    for block in CANONICAL_ORDER:
        invariants = extracted.get(block)
        if not invariants:
            continue
        # quotient under structural equality: set insertion with a
        # log-sized fee per element, mirroring an ordered-set build
        members: Set[BlockInvariant] = set()
        for i, inv in enumerate(sorted(invariants, key=lambda v: sorted(v.phi))):
            translate(inv, counter)
            if counter is not None:
                counter.charge(math.ceil(math.log2(i + 2)), "quotient")
            members.add(inv)
        if counter is not None:
            counter.charge(1, "aggregate")
        label = algebra.label_overrides.get(block, DEFAULT_LABELS[block])
        patterns.append(MetaPattern(block=block, label=label, members=frozenset(members)))
    return tuple(patterns)


def assign_block(derivations: Iterable[Tuple[BlockKind, BlockInvariant]]) -> BlockKind:
    """Unique canonical block for a multi-block-derivable MR."""
    blocks = [block for block, _ in derivations]
    if not blocks:
        raise EmptyInput("assign_block needs at least one derivation")
    return canonical_max(blocks)


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
