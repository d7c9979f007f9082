"""Built-in subjects and desk-scale numeric fixtures.

Ten mini-language programs with declared block hypotheses form the kill
substrate; this module also carries their executable symmetry/order
metadata, the shared seeded samplers (the mutation tagger and the kill
harness must see the same points) and a toy SGD round-trip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import minilang
from .algebra import OperatorAlgebra
from .reachability import MRDescriptor
from .specfile import (
    MutatorConfig,
    SutDecl,
    parse_algebra,
    parse_mr_descriptor,
    parse_mutator_config,
    parse_sut_file,
)

BUNDLED_ALGEBRAS = ("boltzmann", "equivariant", "sort", "relational", "ffn", "pwr")

# positive scale factors for the scaling relation; exactly representable so
# integer-subject arithmetic stays exact
LAMBDA_SAMPLES: Tuple[float, ...] = (0.5, 2.0, 7.0)

# scaling relation draws this many (base, lambda) pairs -> 200 evaluation
# points, the fixed seeded sample the homogeneity tagger shares
SCALING_BUDGET = 100

_INT_RANGE = 60  # unrolled Euclid depth 12 is safe well past this magnitude


class FixtureMissing(FileNotFoundError):
    """A named bundled/override fixture could not be found."""


def fixture_text(filename: str) -> str:
    """Load a fixture by name.

    NOETHER_FIXTURES, when set, replaces the bundled directory outright:
    a name missing there is an error, not a fallback, so experiments can
    never silently mix override and bundled inputs.
    """
    override_dir = os.environ.get("NOETHER_FIXTURES")
    if override_dir:
        candidate = os.path.join(override_dir, filename)
        if os.path.isfile(candidate):
            with open(candidate, "r", encoding="utf-8") as fh:
                return fh.read()
        raise FixtureMissing(f"fixture {filename!r} not in NOETHER_FIXTURES={override_dir!r}")
    node = resources.files(__package__) / "fixtures" / filename
    try:
        return node.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise FixtureMissing(f"fixture {filename!r} is not bundled")


def load_algebra(name: str) -> OperatorAlgebra:
    return parse_algebra(fixture_text(name + ".alg"))


def load_descriptor(name: str) -> MRDescriptor:
    return parse_mr_descriptor(fixture_text(name + ".mr"))


def load_mutator_config(name: str = "blindness") -> MutatorConfig:
    return parse_mutator_config(fixture_text(name + ".cfg"))


# ---------------------------------------------------------------------------
# Subjects


def load_zoo() -> Dict[str, SutDecl]:
    return {d.name: d for d in parse_sut_file(fixture_text("zoo.sut"))}


# ---------------------------------------------------------------------------
# Executable symmetry and order metadata
#
# The .sut grammar declares which blocks a subject hypothesizes; the tables
# below say what the executable relation concretely does.  Flip actions list
# negated argument positions; shift actions add one common offset to all
# arguments.  Output "same" is invariance, "negate" equivariance under
# output negation.


@dataclass(frozen=True)
class GAction:
    name: str
    flips: Tuple[int, ...] = ()
    shift: bool = False
    output: str = "same"  # same | negate

    def apply(self, args: Sequence[float], offset: float = 0.0) -> Tuple[float, ...]:
        if self.shift:
            return tuple(a + offset for a in args)
        return tuple(-a if i in self.flips else a for i, a in enumerate(args))


@dataclass(frozen=True)
class OrderSpec:
    """Monotone (nondecreasing) coordinate plus its sampling cone."""

    coordinate: int
    cone: str = "any"  # any | nonneg | lo-le-hi


SUT_G_ACTIONS: Mapping[str, Tuple[GAction, ...]] = {
    "midpoint": (GAction("negate-all", flips=(0, 1), output="negate"),),
    "isSequence": (GAction("shift-all", shift=True),),
    "signum": (GAction("sign-flip", flips=(0,), output="negate"),),
    "caddSig": (GAction("conjugate", flips=(1, 3)),),
    "gcdSig": (GAction("flip-first", flips=(0,)), GAction("flip-second", flips=(1,))),
    "lcmSig": (GAction("flip-first", flips=(0,)), GAction("flip-second", flips=(1,))),
    "hypotSig": (GAction("flip-first", flips=(0,)), GAction("flip-second", flips=(1,))),
}

# gcdSig declares the order block for its divisibility ordering, which has
# no executable two-point encoding here; it gets no entry on purpose.
SUT_ORDER_SPECS: Mapping[str, OrderSpec] = {
    "midpoint": OrderSpec(0),
    "exactLog2": OrderSpec(0),
    "isSequence": OrderSpec(2),
    "clamp": OrderSpec(0, cone="lo-le-hi"),
    "signum": OrderSpec(0),
    "caddSig": OrderSpec(0, cone="nonneg"),
    "powerSig": OrderSpec(0),
}


# ---------------------------------------------------------------------------
# Shared samplers.  The homogeneity tagger and the kill harness must judge
# mutants on the same evaluation points, so both draw from here.


def _draw_value(rng: np.random.Generator, domain: str, nonzero: bool) -> float:
    if domain == "int":
        if nonzero:
            magnitude = int(rng.integers(1, _INT_RANGE + 1))
            return float(magnitude if rng.integers(0, 2) else -magnitude)
        return float(rng.integers(-_INT_RANGE, _INT_RANGE + 1))
    if nonzero:
        magnitude = float(rng.uniform(0.5, 10.0))
        return magnitude if rng.integers(0, 2) else -magnitude
    return float(rng.uniform(-10.0, 10.0))


def sample_args(
    decl: SutDecl, rng: np.random.Generator, *, nonzero: bool = False, cone: str = "any"
) -> Tuple[float, ...]:
    args = [_draw_value(rng, decl.domain, nonzero) for _ in decl.params]
    if cone == "nonneg":
        args = [abs(a) % 10.0 if decl.domain != "int" else float(abs(int(a)) % 11) for a in args]
    elif cone == "lo-le-hi" and len(args) >= 3:
        lo, hi = sorted((args[1], args[2]))
        args[1], args[2] = lo, hi
    return tuple(args)


def scaling_sample(decl: SutDecl, seed: int, budget: int) -> List[Tuple[Tuple[float, ...], float]]:
    """(base args, lambda) pairs for the scaling relation."""
    rng = np.random.default_rng(seed ^ 0x5CA1E)
    out = []
    for k in range(budget):
        base = sample_args(decl, rng, nonzero=False)
        out.append((base, LAMBDA_SAMPLES[k % len(LAMBDA_SAMPLES)]))
    return out


def scaling_points(decl: SutDecl, seed: int, budget: int) -> List[Tuple[float, ...]]:
    """Every argument tuple the scaling relation will evaluate.

    This flat list (bases followed by scaled bases) is the tagging sample:
    a mutant erring or degenerating anywhere the scaling relation can look
    is tagged breaking, which keeps rule-blind kills inside the breaking
    stratum by construction.
    """
    pairs = scaling_sample(decl, seed, budget)
    points = [base for base, _ in pairs]
    points.extend(tuple(lam * a for a in base) for base, lam in pairs)
    return points


def small_int_grid(arity: int) -> List[Tuple[float, ...]]:
    """Exhaustive small-integer grid used by the equivalence filter."""
    span = {1: 8, 2: 6, 3: 3, 4: 2}.get(arity, 2)
    values = [float(v) for v in range(-span, span + 1)]
    grid: List[Tuple[float, ...]] = [()]
    for _ in range(arity):
        grid = [g + (v,) for g in grid for v in values]
    return grid


# ---------------------------------------------------------------------------
# Homogeneity checking


def check_homogeneity(
    decl: SutDecl,
    lambda_samples: Sequence[float],
    points: Sequence[Tuple[float, ...]],
    tau: float,
) -> bool:
    """Two-point scaling identity over a sample grid.

    Degree-1 subjects must satisfy f(lam*x) = lam*f(x); scale-invariant
    subjects must satisfy f(lam*x) = f(x).  Both to absolute tolerance tau,
    for every (lambda, point) combination.
    """
    if decl.homogeneity == "none":
        raise ValueError(f"{decl.name} declares no homogeneity hypothesis")
    invariant = decl.homogeneity == "positive-scale-invariant"
    fn = minilang.compile_program(decl.program)
    for lam in lambda_samples:
        if lam <= 0:
            raise ValueError("scale factors must be positive")
        for point in points:
            scaled = tuple(lam * a for a in point)
            lhs = fn(*scaled)
            rhs = fn(*point) if invariant else lam * fn(*point)
            if not abs(lhs - rhs) <= tau:
                return False
    return True


# ---------------------------------------------------------------------------
# Toy SGD round-trip


@dataclass(frozen=True)
class SgdTrajectory:
    theta0: Tuple[float, ...]
    eta: float
    steps: int
    batch_order: Tuple[int, ...]

    def __post_init__(self):
        # eta=0 is the documented no-motion case, so nonnegative not positive
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if len(self.batch_order) != self.steps:
            raise ValueError("batch_order length must equal steps")


@dataclass(frozen=True)
class QuadraticLoss:
    """Per-batch affine gradients grad_i(theta) = A_i (theta - c_i) + b_i.

    b_i defaults to zero (pure quadratic); a linear loss is A_i = 0 with a
    constant gradient b_i.
    """

    matrices: Tuple[np.ndarray, ...]
    centers: Tuple[np.ndarray, ...]
    linear_terms: Optional[Tuple[np.ndarray, ...]] = None

    def gradient(self, batch: int, theta: np.ndarray) -> np.ndarray:
        g = self.matrices[batch] @ (theta - self.centers[batch])
        if self.linear_terms is not None:
            g = g + self.linear_terms[batch]
        return g


def sgd_roundtrip_residual(traj: SgdTrajectory, loss: QuadraticLoss) -> float:
    """l2 gap between forward-only and forward/inverse/forward endpoints.

    The inverse leg is the gradient-ascent approximation of each step's
    inverse, applied in reversed batch order; its per-step error is
    O(eta^2), which the order-check property pins to a ratio near 4 when
    eta is halved.
    """
    theta = np.asarray(traj.theta0, dtype=float)
    forward_end = theta
    for i in traj.batch_order:
        forward_end = forward_end - traj.eta * loss.gradient(i, forward_end)
    back = forward_end
    for i in reversed(traj.batch_order):
        back = back + traj.eta * loss.gradient(i, back)
    replay = back
    for i in traj.batch_order:
        replay = replay - traj.eta * loss.gradient(i, replay)
    return float(np.linalg.norm(forward_end - replay))


def default_sgd_fixture(eta: float = 1e-3) -> Tuple[SgdTrajectory, QuadraticLoss]:
    """The bundled low-D quadratic used by the order-check property: ten
    steps alternating over its two batches."""
    matrices = (
        np.array([[1.2, 0.3], [0.3, 0.9]]),
        np.array([[0.7, 0.0], [0.0, 1.5]]),
    )
    centers = (np.array([1.0, -2.0]), np.array([-0.5, 0.75]))
    loss = QuadraticLoss(matrices=matrices, centers=centers)
    order = tuple(i % 2 for i in range(10))
    traj = SgdTrajectory(theta0=(3.0, -1.0), eta=eta, steps=len(order), batch_order=order)
    return traj, loss

