"""Property tests: ``LruCache.access`` and ``LruCache.simulate`` agree.

The batched replay (``simulate``), on the compiled kernel and on the
Python fallback alike, must produce miss masks that are
bit-identical to the stepwise reference (``access``) no matter how the
stream is chunked, how the two entry points are interleaved on one
stateful cache instance, or how skewed the address distribution is.
The timing model depends on this equivalence: the machine simulator
replays caches in per-node chunks whose boundaries depend on the
distribution, and the golden-value suite pins the resulting numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, LruCache


def geometry(sets: int, ways: int) -> CacheConfig:
    return CacheConfig(total_bytes=64 * sets * ways, line_bytes=64, ways=ways)


def reference_mask(cache: LruCache, lines) -> np.ndarray:
    """Stepwise miss mask via ``access`` (mutates ``cache``)."""
    return np.array([not cache.access(line) for line in lines], dtype=bool)


# Streams mix uniform lines with a hot cluster so both capacity misses
# and long hit runs (the consecutive-duplicate fast path) occur.
line_values = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=6),
)
streams = st.lists(line_values, min_size=0, max_size=400)
geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]), st.integers(min_value=1, max_value=4)
)


def _equivalence_checks():
    """The equivalence properties, built afresh for each backend class.

    Hypothesis ties each wrapped test function to one test class, so
    every backend needs its own copy of the functions.
    """

    class EquivalenceChecks:
        @settings(max_examples=60, deadline=None)
        @given(stream=streams, geo=geometries, data=st.data())
        def test_randomly_chunked_simulate_matches_access(self, stream, geo, data):
            """Any chunking of ``simulate`` equals one ``access`` walk."""
            stream = np.asarray(stream, dtype=np.int64)
            config = geometry(*geo)
            expected = reference_mask(LruCache(config), stream)

            chunked = LruCache(config)
            masks = []
            start = 0
            while start < len(stream):
                width = data.draw(
                    st.integers(min_value=1, max_value=len(stream) - start),
                    label="chunk_width",
                )
                masks.append(chunked.simulate(stream[start:start + width]))
                start += width
            got = (
                np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
            )
            assert got.dtype == np.bool_
            assert (got == expected).all()

        @settings(max_examples=60, deadline=None)
        @given(stream=streams, geo=geometries, data=st.data())
        def test_interleaved_access_and_simulate_share_state(self, stream, geo, data):
            """Mixing the two entry points on ONE cache stays bit-identical.

            This is the stateful-across-calls guarantee: ``simulate`` must
            leave the recency stacks exactly where ``access`` would have,
            and vice versa, even across empty chunks.
            """
            stream = np.asarray(stream, dtype=np.int64)
            config = geometry(*geo)
            expected = reference_mask(LruCache(config), stream)

            mixed = LruCache(config)
            got = np.zeros(len(stream), dtype=bool)
            start = 0
            while start < len(stream):
                width = data.draw(
                    st.integers(min_value=0, max_value=len(stream) - start),
                    label="chunk_width",
                )
                use_access = data.draw(st.booleans(), label="use_access")
                piece = stream[start:start + width]
                if use_access:
                    got[start:start + width] = reference_mask(mixed, piece)
                else:
                    got[start:start + width] = mixed.simulate(piece)
                if width == 0:
                    # An empty simulate call must not disturb state.
                    mixed.simulate(np.zeros(0, dtype=np.int64))
                    width = data.draw(st.integers(min_value=1, max_value=4))
                    width = min(width, len(stream) - start)
                    got[start:start + width] = mixed.simulate(
                        stream[start:start + width]
                    )
                start += width
            assert (got == expected).all()

        @settings(max_examples=40, deadline=None)
        @given(
            geo=geometries,
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            length=st.integers(min_value=1, max_value=600),
        )
        def test_zipf_like_streams_agree(self, geo, seed, length):
            """Skewed (texture-locality-shaped) streams, chunked in thirds."""
            rng = np.random.default_rng(seed)
            # Square a uniform draw to bias toward low line ids — a crude
            # stand-in for texture working sets with a hot mip level.
            stream = (rng.random(length) ** 2 * 64).astype(np.int64)
            config = geometry(*geo)
            expected = reference_mask(LruCache(config), stream)

            chunked = LruCache(config)
            cuts = sorted(rng.integers(0, length + 1, size=2))
            parts = np.split(stream, cuts)
            got = np.concatenate([chunked.simulate(part) for part in parts])
            assert (got == expected).all()
            # Both walks must also leave identical *future* behaviour.
            probe = np.arange(16, dtype=np.int64)
            fresh_reference = LruCache(config)
            reference_mask(fresh_reference, stream)
            assert (
                chunked.simulate(probe) == reference_mask(fresh_reference, probe)
            ).all()

    return EquivalenceChecks


class TestAccessSimulateEquivalence(_equivalence_checks()):
    """The properties on the default backend (the compiled kernel when built)."""


@pytest.mark.usefixtures("python_kernels")
class TestAccessSimulateEquivalencePythonBackend(_equivalence_checks()):
    """The same properties on the Python fallback replay."""
