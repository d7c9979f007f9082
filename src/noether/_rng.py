"""The seeded random stream behind every sampler: NumPy's ``default_rng``,
bit for bit, for the draws this package makes.

``Generator(seed)`` yields what NumPy's ``default_rng(seed)`` yields for
an int seed or a (nested) list of int seeds, and ``generators(seeds)``
yields ``Generator(seed)`` for each seed in turn:

* ``SeedSequence`` entropy mixing into a four-word pool, then eight state
  words (a 128-bit LCG state and increment);
* PCG64: the 128-bit LCG stepped before each output, XSL-RR output
  (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation", HMC-CS-2014-0905);
* ``integers(low, high)``: Lemire's multiply-and-reject on 32-bit draws
  (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
  2019); the two halves of one 64-bit output feed two draws, low half first;
* ``uniform(low, high)``: ``low + (high - low) * u``, u the top 53 bits of a
  whole 64-bit output.

Seeds are mixed in lanes, SIMD within a register (Lamport, "Multiple Byte
Processing with Full-Word Instructions", CACM 1975).  Each step of the mix
XORs a 32-bit value with a constant or multiplies it by one, and the
constants are the same for every seed.  So one Python int holds the values
of many seeds, one in the low 32 bits of each 128-bit lane, and one int
operation takes the step for all of them.  It is exact because:

* a constant is XORed in repeated in every lane;
* every multiplier is below 2**32, so a product stays below 2**64, and a
  mix ``L*x + R*h`` below 2**65: inside its lane;
* SeedSequence's mix ``L*x - R*h`` is taken as ``L*x + ((-R) mod 2**32)*h``,
  the same mod 2**32, so no lane borrows from its neighbour;
* each step ends by masking every lane to its low 32 bits, which drops
  what a product carried past them and what ``h >> 16`` shifted in from the
  next lane.

``Generator(seed)`` is the one-lane case; ``generators`` mixes up to 32
seeds at a time and holds only those.  Entropy past four words is mixed in
one word at a time, so only seeds with the same number of words past four
share a mix: ``generators`` groups each 32 by that number.

The test suite checks the stream against NumPy itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_LANES = 32  # the most seeds `generators` mixes at once
_MIX_L, _NEG_MIX_R = 0xCA01F9DD, -0x4973F715 & _M32


def _chain(init: int, mult: int, n: int) -> list:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


def _words(seed) -> list:
    """NumPy's seed coercion: each non-negative int as its uint32 words,
    least significant first (0 is one word); a list or tuple, its items'
    words in order."""
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed & _M32]
        seed >>= 32
        while seed:
            words.append(seed & _M32)
            seed >>= 32
        return words
    if isinstance(seed, (list, tuple)):
        words = []
        for item in seed:
            words += _words(item)
        return words
    raise TypeError(f"seed must be an int or a list of ints, not {type(seed).__name__}")


def _entropy(seed) -> tuple:
    """`seed`'s words as (the first _POOL of them as one int, the rest)."""
    words = _words(seed)
    first = 0
    for word in reversed(words[:_POOL]):
        first = first << 32 | word
    return first, words[_POOL:]


def _pack(values) -> int:
    """One int holding each of `values`, all below 2**128, in its own
    128-bit lane, the first in the lowest."""
    packed = shift = 0
    for value in values:
        packed |= value << shift
        shift += 128
    return packed


# generate_state: eight output words from the pool's cycle, each hashed the
# way the pool's are, with its own chain of constants
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 8)
_OUT = tuple((i % _POOL, _HASH_B[i], _HASH_B[i + 1]) for i in range(8))


@lru_cache(maxsize=8)
def _schedule(extra: int) -> tuple:
    """SeedSequence's hashmixes for entropy `extra` words longer than the
    pool, each as (source, [destination,] XOR constant, multiplier): those
    that fill the pool, then those that mix it."""
    # The hash constants evolve independently of the seed: the k-th hashmix
    # XORs a[k] into the value, then multiplies by a[k + 1].  The first _POOL
    # hash the entropy into the pool; each mix then hashes a source word and
    # folds it into a destination, first pool word into pool word, then each
    # entropy word past the pool's length into every pool word.
    a = _chain(0x43B0D7E5, 0x931E8875, _POOL * (_POOL + extra))
    pairs = [(src, dst) for src in range(_POOL + extra) for dst in range(_POOL) if src != dst]
    return (
        tuple((k, a[k], a[k + 1]) for k in range(_POOL)),
        tuple((src, dst, a[k], a[k + 1]) for k, (src, dst) in enumerate(pairs, _POOL)),
    )


def _mix(entropies: list) -> list:
    """The PCG64 (state, increment) of each of `entropies`, as `_entropy`
    gives them, all with the same number of words past the pool's length,
    mixed together one per lane."""
    extra = len(entropies[0][1])
    fill, mixes = _schedule(extra)
    # a constant times `ones` is that constant in every lane
    ones = _pack([1] * len(entropies))
    mask = _M32 * ones
    first = _pack(low for low, _ in entropies)
    # the entropy words past the pool's length follow it, read, never written
    pool = [first >> 32 * k & mask for k in range(_POOL)]
    pool += [_pack(rest[j] for _, rest in entropies) for j in range(extra)]
    for k, x, m in fill:
        h = (pool[k] ^ x * ones) * m & mask
        pool[k] = (h ^ h >> 16) & mask
    mix_l, mix_r = _MIX_L, _NEG_MIX_R
    for src, dst, x, m in mixes:
        h = (pool[src] ^ x * ones) * m & mask
        h = (h ^ h >> 16) & mask
        r = (mix_l * pool[dst] + mix_r * h) & mask
        pool[dst] = (r ^ r >> 16) & mask
    w = []
    for src, x, m in _OUT:
        h = (pool[src] ^ x * ones) * m & mask
        w.append((h ^ h >> 16) & mask)
    # the words read as four little-endian uint64s: state hi, lo, inc hi, lo
    init_state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    init_seq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    seeded = []
    for shift in range(0, 128 * len(entropies), 128):
        # PCG's srandom: the state starts at one step from zero, adds the
        # initial state, and steps once more
        inc = (init_seq >> shift << 1 | 1) & _M128
        seeded.append((((inc + (init_state >> shift & _M128)) * _PCG_MULT + inc) & _M128, inc))
    return seeded


class Generator:
    """NumPy's ``default_rng(seed)`` stream: ``integers`` and ``uniform``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed):
        ((self._state, self._inc),) = _mix([_entropy(seed)])
        self._half = None  # the unused high half of the last 64-bit output

    def copy(self) -> Generator:
        """A generator that goes on from this one's state with the same
        draws, and draws independently of it."""
        return _resumed(self._state, self._inc, self._half)

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        out = (state >> 64 ^ state) & _M64
        return (out >> rot | out << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        out = self._next64()
        self._half = out >> 32
        return out & _M32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high); a span of one draws nothing."""
        span = high - low
        if span < 1:
            raise ValueError("low >= high")
        if span == 1:
            return low
        if span > _M32:
            raise ValueError("integers supports spans below 2**32")
        # the first draw inline: the pending high half, or the low half of a
        # fresh 64-bit output
        half = self._half
        if half is None:
            out = self._next64()
            self._half = out >> 32
            m = (out & _M32) * span
        else:
            self._half = None
            m = half * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """A uniform float in [low, high)."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)


def _resumed(state: int, inc: int, half) -> Generator:
    rng = Generator.__new__(Generator)
    rng._state, rng._inc, rng._half = state, inc, half
    return rng


def generators(seeds: Iterable) -> Iterator[Generator]:
    """``Generator(seed)`` for each of `seeds` in turn, mixing up to
    _LANES seeds at once and holding only those; seeds with the same number
    of words past the pool's length share a mix."""
    seeds = iter(seeds)
    while chunk := [_entropy(seed) for seed in islice(seeds, _LANES)]:
        seeded = {}
        for extra in {len(rest) for _, rest in chunk}:
            group = [i for i, (_, rest) in enumerate(chunk) if len(rest) == extra]
            seeded.update(zip(group, _mix([chunk[i] for i in group])))
        for i in range(len(chunk)):
            yield _resumed(*seeded[i], None)
