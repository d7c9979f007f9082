"""The package's random stream against NumPy's ``default_rng``.

NumPy appears here only as the oracle the stream must match draw for draw;
the library itself never imports it.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether._rng import Generator

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 1, 2**130 + 3]),
    st.integers(0, 2**200),
    st.lists(st.integers(0, 2**70), max_size=12),
)
NONNEG = st.lists(st.integers(0, 2**40), max_size=3)
# (low, span); a span of one draws nothing, and 2**31 + 1 rejects about
# half of all draws
BOUNDS = st.tuples(
    st.integers(-(2**31), 2**31),
    st.one_of(st.sampled_from([1, 2, 3, 10, 121, 2**31 + 1, 2**32 - 1]), st.integers(1, 2**32 - 1)),
)
# (low, high - low)
UNIFORM = st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
DRAWS = st.lists(
    st.one_of(st.tuples(st.just("integers"), BOUNDS), st.tuples(st.just("uniform"), UNIFORM)), max_size=40
)


def both(seed):
    return np.random.default_rng(seed), Generator(seed)


def assert_same_draws(seed, draws):
    oracle, ours = both(seed)
    for method, (low, extent) in draws:
        high = low + extent
        want = getattr(oracle, method)(low, high)
        got = getattr(ours, method)(low, high)
        assert type(got) is (int if method == "integers" else float)
        assert got == want, (seed, method, low, high)


class TestAgainstNumpy:
    @given(SEEDS, DRAWS)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_draws_match(self, seed, draws):
        # integers take 32-bit halves and uniform whole 64-bit outputs, so
        # interleaving exercises the pending high half
        assert_same_draws(seed, draws)

    @given(st.integers(0, 2**64), st.text(max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_harness_seed_form_matches(self, seed, name):
        # ExecutableMR._rng seeds with [seed, crc32(name)]
        draws = [("integers", (-30, 61)), ("uniform", (-5.0, 10.0)), ("integers", (1, 10))] * 4
        assert_same_draws([seed, zlib.crc32(name.encode())], draws)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 7, [0], [20260816, 3], [[1, 2], 3]])
    def test_span_of_one_draws_nothing(self, seed):
        oracle, ours = both(seed)
        for _ in range(3):
            assert ours.integers(7, 8) == oracle.integers(7, 8) == 7
        assert ours.integers(0, 1000) == oracle.integers(0, 1000)
        assert ours.uniform(0.0, 1.0) == oracle.uniform(0.0, 1.0)

    @given(
        st.one_of(
            st.integers(max_value=-1),
            st.tuples(NONNEG, st.integers(max_value=-1), NONNEG).map(lambda t: [*t[0], t[1], *t[2]]),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_negative_seeds_raise_value_error(self, seed):
        with pytest.raises(ValueError):
            np.random.default_rng(seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            Generator(seed)

    @pytest.mark.parametrize("seed", [1.5, "7", None, {1, 2}])
    def test_non_integer_seeds_rejected(self, seed):
        with pytest.raises(TypeError):
            Generator(seed)

    def test_empty_or_wide_ranges_rejected(self):
        rng = Generator(0)
        for low, high in ((3, 3), (4, 2), (0, 2**32)):
            with pytest.raises(ValueError):
                rng.integers(low, high)


def test_import_loads_no_numpy():
    """`import noether.cli` in a fresh interpreter leaves NumPy unloaded, and
    `dataclasses` with the `inspect` machinery it pulls in."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    unwanted = ("numpy", "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, noether.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {unwanted!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
