"""The seeded random stream behind every sampler: NumPy's ``default_rng``,
bit for bit, for the draws this package makes.

``Generator(seed)`` yields what NumPy's ``default_rng(seed)`` yields for
an int seed or a (nested) list of int seeds:

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

The test suite checks the stream against NumPy itself.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT_A, _MULT_B = 0x931E8875, 0x58F38DED


def _chain(init: int, mult: int, n: int) -> list:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# SeedSequence's hash constants evolve independently of the seed: its k-th
# hashmix XORs _HASH_A[k] into the value, then multiplies by _HASH_A[k + 1].
# The first _POOL calls fill the pool and the next _POOL * (_POOL - 1)
# cross-mix it; entropy beyond _POOL words continues the chain from
# _HASH_A[-1].
_HASH_A = _chain(0x43B0D7E5, _MULT_A, _POOL * _POOL)
_CROSS = tuple(
    (src, dst, _HASH_A[k], _HASH_A[k + 1])
    for k, (src, dst) in enumerate(
        ((s, d) for s in range(_POOL) for d in range(_POOL) if s != d), start=_POOL
    )
)
# generate_state: eight output words, the same way from the pool's cycle
_HASH_B = _chain(0x8B51F9DD, _MULT_B, 8)
_OUT = tuple((i % _POOL, _HASH_B[i], _HASH_B[i + 1]) for i in range(8))


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
        return [w for item in seed for w in _words(item)]
    raise TypeError(f"seed must be an int or a list of ints, not {type(seed).__name__}")


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy over a zeroed four-word pool."""
    a = _HASH_A
    pool = []
    for i in range(_POOL):
        h = ((entropy[i] if i < len(entropy) else 0) ^ a[i]) * a[i + 1] & _M32
        pool.append(h ^ h >> 16)
    for src, dst, x, m in _CROSS:
        h = (pool[src] ^ x) * m & _M32
        r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & _M32
        pool[dst] = r ^ r >> 16
    x = a[-1]
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            m = x * _MULT_A & _M32
            h = (word ^ x) * m & _M32
            r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & _M32
            pool[dst] = r ^ r >> 16
            x = m
    return pool


class Generator:
    """NumPy's ``default_rng(seed)`` stream: ``integers`` and ``uniform``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed):
        pool = _pool(_words(seed))
        w = []
        for src, x, m in _OUT:
            h = (pool[src] ^ x) * m & _M32
            w.append(h ^ h >> 16)
        # the words read as four little-endian uint64s: state hi, lo, inc hi, lo
        init_state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        init_seq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        # PCG's srandom: the state starts at one step from zero, adds the
        # initial state, and steps once more
        self._inc = (init_seq << 1 | 1) & _M128
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the unused high half of the last 64-bit output

    def copy(self) -> Generator:
        """A generator that goes on from this one's state with the same
        draws, and draws independently of it."""
        twin = Generator.__new__(Generator)
        twin._state, twin._inc, twin._half = self._state, self._inc, self._half
        return twin

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
