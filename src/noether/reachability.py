"""Structural reachability of MR descriptors.

An MR descriptor is a structural fingerprint of a metamorphic relation:
where its output lives, what relation form it asserts, how many difference
orders and parameter directions it involves, and how its adjoint (if any)
is indexed.  Five independent structural features obstruct derivation:

  O1  output lives in an operator spectrum, not program output
  O2  the relation asserts a homomorphism *failure*
  O3  the adjoint pairing is indexed by the configuration
  O4  the relation involves second- or higher-order differences
  O5  the relation varies two or more parameter directions at once

A descriptor with no obstruction is derivable precisely when some nonempty
block of the target algebra certifies its relation form.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Tuple

from ._record import field, record
from .algebra import (
    BlockKind,
    OperatorAlgebra,
    RELATION_FORMS,
    canonical_max,
)


class Obstruction(enum.Enum):
    O1 = "O1"  # operator-spectrum output
    O2 = "O2"  # homomorphism-failure form
    O3 = "O3"  # configuration-indexed adjoint
    O4 = "O4"  # difference order >= 2
    O5 = "O5"  # >= 2 parameter directions

    def __str__(self) -> str:
        return self.value


@record
class MRDescriptor:
    """Structural fingerprint of one MR; a ValueError on bad fields gives
    the reason alone, and `specfile` names the MR when it reports one."""

    name: str
    output_domain: str = "program-output"
    relation_form: str = "equivariance"
    difference_order: int = 1
    parameter_directions: int = 1
    adjoint_indexing: str = "fixed"
    tolerance: float = 1e-9
    unit: str = "absolute"

    def __post_init__(self):
        if self.output_domain not in ("program-output", "operator-spectrum"):
            raise ValueError(f"bad output domain {self.output_domain!r}")
        if self.relation_form not in RELATION_FORMS:
            raise ValueError(f"bad relation form {self.relation_form!r}")
        if self.difference_order < 1:
            raise ValueError("difference order must be >= 1")
        if self.parameter_directions < 1:
            raise ValueError("parameter directions must be >= 1")
        if self.adjoint_indexing not in ("fixed", "configuration-indexed"):
            raise ValueError(f"bad adjoint indexing {self.adjoint_indexing!r}")
        if not 0 < self.tolerance < math.inf:  # also rejects NaN
            raise ValueError("tolerance must be finite and positive")
        if self.relation_form == "mixed-difference" and self.difference_order < 2:
            raise ValueError("mixed-difference form needs diff_order >= 2")


@record
class ReachabilityVerdict:
    reachable: bool
    assigned_block: Optional[BlockKind]
    obstructions: frozenset = field(default_factory=frozenset)

    def obstruction_tags(self) -> Tuple[str, ...]:
        return tuple(sorted(o.value for o in self.obstructions))


def structural_obstructions(mr: MRDescriptor) -> frozenset:
    """The obstruction set, read off the descriptor fields alone."""
    found = set()
    if mr.output_domain == "operator-spectrum":
        found.add(Obstruction.O1)
    if mr.relation_form == "homomorphism-failure":
        found.add(Obstruction.O2)
    if mr.adjoint_indexing == "configuration-indexed":
        found.add(Obstruction.O3)
    if mr.difference_order >= 2:
        found.add(Obstruction.O4)
    if mr.parameter_directions >= 2:
        found.add(Obstruction.O5)
    return frozenset(found)


def _admitting_blocks(mr: MRDescriptor, algebra: OperatorAlgebra) -> Tuple[BlockKind, ...]:
    return tuple(
        kind for kind in algebra.blocks.nonempty_blocks() if kind.relation_form == mr.relation_form
    )


def check_reachability(mr: MRDescriptor, algebra: OperatorAlgebra) -> ReachabilityVerdict:
    """Decide derivability of the descriptor against the algebra.

    Obstructions are intrinsic to the descriptor; the algebra only decides
    whether some nonempty block certifies the relation form.  An
    obstruction-free descriptor whose form no nonempty block certifies is
    rejected with an empty obstruction set (an admission failure, not a
    structural one).
    """
    obstructions = structural_obstructions(mr)
    if obstructions:
        return ReachabilityVerdict(False, None, obstructions)
    admitting = _admitting_blocks(mr, algebra)
    if not admitting:
        return ReachabilityVerdict(False, None, frozenset())
    return ReachabilityVerdict(True, canonical_max(admitting), frozenset())
