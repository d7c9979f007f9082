"""Built-in subjects and desk-scale numeric fixtures.

Ten mini-language programs with declared block hypotheses form the kill
substrate; this module also carries their executable symmetry/order
metadata, the shared seeded samplers (the mutation tagger and the kill
harness must see the same points) and a toy SGD round-trip.
"""

from __future__ import annotations

import math
import os
from operator import mul, sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

from ._record import record
from .algebra import OperatorAlgebra
from .specfile import (
    MutatorConfig,
    SutDecl,
    parse_algebra,
    parse_mr_descriptor,
    parse_mutator_config,
    parse_sut_file,
)

if TYPE_CHECKING:
    from ._rng import Generator
    from .reachability import MRDescriptor

BUNDLED_ALGEBRAS = ("boltzmann", "equivariant", "sort", "relational", "ffn", "pwr")

# positive scale factors for the scaling relation; exactly representable so
# integer-subject arithmetic stays exact
LAMBDA_SAMPLES: Tuple[float, ...] = (0.5, 2.0, 7.0)

# the scaling sample draws this many (base, lambda) pairs -> 200 evaluation
# points, which the scaling MR and the homogeneity tagger share
SCALING_BUDGET = 100

_INT_RANGE = 60  # unrolled Euclid depth 12 is safe well past this magnitude


# read from the package directory, so a zipped install is not supported
_BUNDLED = os.path.join(os.path.dirname(__file__), "fixtures")


class FixtureMissing(FileNotFoundError):
    """A named bundled/override fixture could not be found."""


class UndecodableInput(Exception):
    """A document that is not UTF-8; the message names its path."""


def read_text(path) -> str:
    """The UTF-8 text of the file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UndecodableInput(f"{path}: {exc}") from None


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
            return read_text(candidate)
        raise FixtureMissing(f"fixture {filename!r} not in NOETHER_FIXTURES={override_dir!r}")
    try:
        return read_text(os.path.join(_BUNDLED, filename))
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


@record
class GAction:
    name: str
    flips: Tuple[int, ...] = ()
    shift: bool = False
    output: str = "same"  # same | negate

    def apply(self, args: Sequence[float], offset: float = 0.0) -> Tuple[float, ...]:
        if self.shift:
            return tuple(a + offset for a in args)
        return tuple(-a if i in self.flips else a for i, a in enumerate(args))


@record
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


def _draw_value(rng: Generator, domain: str, nonzero: bool) -> float:
    if domain == "int":
        if nonzero:
            magnitude = rng.integers(1, _INT_RANGE + 1)
            return float(magnitude if rng.integers(0, 2) else -magnitude)
        return float(rng.integers(-_INT_RANGE, _INT_RANGE + 1))
    if nonzero:
        magnitude = rng.uniform(0.5, 10.0)
        return magnitude if rng.integers(0, 2) else -magnitude
    return rng.uniform(-10.0, 10.0)


def sample_args(
    decl: SutDecl, rng: Generator, *, nonzero: bool = False, cone: str = "any"
) -> Tuple[float, ...]:
    args = [_draw_value(rng, decl.domain, nonzero) for _ in decl.params]
    if cone == "nonneg":
        args = [abs(a) % 10.0 if decl.domain != "int" else float(abs(int(a)) % 11) for a in args]
    elif cone == "lo-le-hi" and len(args) >= 3:
        lo, hi = sorted((args[1], args[2]))
        args[1], args[2] = lo, hi
    return tuple(args)


def scaling_sample(decl: SutDecl, seed: int) -> List[Tuple[Tuple[float, ...], Tuple[float, ...], float]]:
    """(base args, scaled args, lambda) triples: the one scaling sample,
    which the scaling MR asserts on and the homogeneity tagger judges on."""
    from ._rng import Generator  # here, so reading specs and deriving load no sampler

    rng = Generator(seed ^ 0x5CA1E)
    out = []
    for k in range(SCALING_BUDGET):
        base = sample_args(decl, rng, nonzero=False)
        lam = LAMBDA_SAMPLES[k % len(LAMBDA_SAMPLES)]
        out.append((base, tuple(lam * a for a in base), lam))
    return out


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
    for every (lambda, point) combination.  Test oracle: it checks every
    pair independently of `harness.ScalingMR`, and the zoo tests and
    mutate's certified-preserver test compare against it.
    """
    if decl.homogeneity == "none":
        raise ValueError(f"{decl.name} declares no homogeneity hypothesis")
    invariant = decl.homogeneity == "positive-scale-invariant"
    fn = decl.fn
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
# Toy SGD round-trip on the bundled low-D quadratic: per-batch gradients
# grad_i(theta) = A_i (theta - c_i), ten steps alternating over two batches.
# Vectors are float tuples and each A_i is a tuple of rows.

_SGD_MATRICES = (((1.2, 0.3), (0.3, 0.9)), ((0.7, 0.0), (0.0, 1.5)))
_SGD_CENTERS = ((1.0, -2.0), (-0.5, 0.75))
_SGD_THETA0 = (3.0, -1.0)
_SGD_ORDER = tuple(i % 2 for i in range(10))


def _sgd_leg(theta: Tuple[float, ...], batches: Iterable[int], step: float) -> Tuple[float, ...]:
    """theta after one step of size `step` along each batch's gradient."""
    for i in batches:
        offset = [t - c for t, c in zip(theta, _SGD_CENTERS[i])]
        gradient = [sum(map(mul, row, offset)) for row in _SGD_MATRICES[i]]
        theta = tuple(t + step * g for t, g in zip(theta, gradient))
    return theta


def sgd_roundtrip_residual(eta: float) -> float:
    """l2 gap between the forward-only and the forward/inverse/forward
    endpoints of the bundled quadratic's SGD run with step size `eta`.

    The inverse leg is the gradient-ascent approximation of each step's
    inverse, applied in reversed batch order; its per-step error is
    O(eta^2), which the order-check property pins to a ratio near 4 when
    eta is halved.  eta=0 is the documented no-motion case, so eta must be
    nonnegative, not positive.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    forward_end = _sgd_leg(_SGD_THETA0, _SGD_ORDER, -eta)
    back = _sgd_leg(forward_end, reversed(_SGD_ORDER), eta)
    replay = _sgd_leg(back, _SGD_ORDER, -eta)
    return math.sqrt(sum(d * d for d in map(sub, forward_end, replay)))
