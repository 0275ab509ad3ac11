"""Property tests for the hash kernel and the bit kernels (DESIGN.md §7).

The contract under test is *bit-identity*: the kernels must agree
exactly — not approximately — with one-image-at-a-time references
written out here.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import fft as scipy_fft

from repro.vision import (
    hamming_distance,
    hamming_matrix,
    hash_batch,
    pack_bits_rows,
    popcount,
    prepare_thumbnails,
    robust_hash,
)
from repro.vision.batch import _block_mean_resize


def _reference_hash(pixels) -> int:
    """The DCT hash of one raster, written as a plain scalar pipeline.

    Grayscale → 32×32 block-mean resize → 2-D DCT → 8×8 low-frequency
    block with the DC term replaced by coefficient (8, 8) → median
    threshold → MSB-first pack.  ``hash_batch`` and ``robust_hash`` are
    held bit-identical to it.
    """
    gray = np.asarray(pixels, dtype=np.float64)
    if gray.ndim == 3:
        gray = gray.mean(axis=2)
    spectrum = scipy_fft.dctn(_block_mean_resize(gray, 32), norm="ortho")
    block = spectrum[:8, :8].copy().ravel()
    block[0] = spectrum[8, 8]  # drop the DC term (pure brightness)
    return int("".join("1" if bit else "0" for bit in block > np.median(block)), 2)


# ---------------------------------------------------------------------------
# Raster strategies: small random images, uniform and mixed shapes.
# ---------------------------------------------------------------------------

def _raster(seed: int, height: int, width: int, channels: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (height, width) if channels == 0 else (height, width, channels)
    return rng.uniform(0.0, 255.0, size=shape)


raster_params = st.tuples(
    st.integers(0, 2**31 - 1),       # seed
    st.integers(1, 48),              # height
    st.integers(1, 48),              # width
    st.sampled_from([0, 1, 3, 4]),   # channels (0 = grayscale 2-D)
)


class TestHashBatchBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(raster_params, min_size=0, max_size=6))
    def test_mixed_shapes_match_scalar(self, params):
        rasters = [_raster(*p) for p in params]
        batched = hash_batch(rasters)
        assert batched.dtype == np.uint64
        expected = [_reference_hash(r) for r in rasters]
        assert [int(h) for h in batched] == expected
        assert [robust_hash(r) for r in rasters] == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0, 1, 3]),
        st.integers(1, 8),
    )
    def test_uniform_stack_matches_scalar(self, seed, h, w, c, n):
        # Same-shape rasters exercise the vectorised stacked path.
        rasters = [_raster(seed + i, h, w, c) for i in range(n)]
        assert hash_batch(rasters).tolist() == [_reference_hash(r) for r in rasters]

    def test_chunked_uniform_stack(self):
        # More rasters than _STACK_CHUNK so the chunk loop runs twice.
        rasters = [_raster(i, 16, 16, 3) for i in range(130)]
        assert hash_batch(rasters).tolist() == [_reference_hash(r) for r in rasters]

    def test_empty_batch(self):
        out = hash_batch([])
        assert out.shape == (0,) and out.dtype == np.uint64
        assert prepare_thumbnails([]).shape == (0, 32, 32)

    def test_thumbnails_match_scalar_resize(self):
        rasters = [_raster(i, 33, 47, 3) for i in range(5)]
        thumbs = prepare_thumbnails(rasters)
        for raster, thumb in zip(rasters, thumbs):
            expected = _block_mean_resize(raster.mean(axis=2), 32)
            np.testing.assert_array_equal(thumb, expected)


class TestPopcount:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_scalar_matches_bin_count(self, value):
        assert int(popcount(value)) == bin(value).count("1")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_array_matches_bin_count(self, values):
        words = np.array(values, dtype=np.uint64)
        out = popcount(words)
        assert out.dtype == np.int64
        assert out.tolist() == [bin(v).count("1") for v in values]

    def test_preserves_shape(self):
        words = np.zeros((3, 4), dtype=np.uint64)
        assert popcount(words).shape == (3, 4)


class TestPackBits:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.booleans(), min_size=64, max_size=64),
                    min_size=1, max_size=8))
    def test_msb_first_pack(self, rows):
        bits = np.array(rows, dtype=bool)
        packed = pack_bits_rows(bits)
        for row, value in zip(rows, packed):
            expected = 0
            for bit in row:  # MSB first
                expected = (expected << 1) | int(bit)
            assert int(value) == expected

    def test_roundtrip_with_popcount(self):
        rng = np.random.default_rng(1)
        bits = rng.random((16, 64)) > 0.5
        assert popcount(pack_bits_rows(bits)).tolist() == bits.sum(axis=1).tolist()


class TestHammingMatrix:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
    )
    def test_matches_scalar_hamming(self, queries, corpus):
        q = np.array(queries, dtype=np.uint64)
        c = np.array(corpus, dtype=np.uint64)
        matrix = hamming_matrix(q, c)
        assert matrix.shape == (len(queries), len(corpus))
        for i, a in enumerate(queries):
            for j, b in enumerate(corpus):
                assert int(matrix[i, j]) == hamming_distance(a, b)


class TestBlockMeanResizeRegression:
    def test_extreme_aspect_ratio_averages_long_axis(self):
        """The 4×1000 raster must area-average the 1000-pixel axis.

        The seed implementation fell back to nearest-neighbour on *both*
        axes whenever *either* was shorter than the target grid, so a
        4×1000 image sampled 32 single columns instead of averaging
        31¼-pixel blocks.  Each axis now decides independently.
        """
        raster = np.zeros((4, 1000))
        raster[:, 500:] = 100.0  # step function along the long axis
        small = _block_mean_resize(raster, 32)
        assert small.shape == (32, 32)
        # Block 16 spans columns 500..531¼ — pure 100s; block 15 spans
        # 468¾..500 — pure 0s.  The average must see the step exactly.
        assert np.all(small[:, :16] == 0.0)
        assert np.all(small[:, 16:] == 100.0)
        # Transposed raster: same behaviour on axis 0.
        small_t = _block_mean_resize(raster.T, 32)
        assert np.all(small_t[:16, :] == 0.0)
        assert np.all(small_t[16:, :] == 100.0)

    def test_uneven_blocks_are_mean_weighted(self):
        # 3 → 2 resize bins at integer edges [0, 1, 3]:
        # block 0 = v0, block 1 = (v1 + v2) / 2.
        row = np.array([[0.0, 6.0, 12.0]])
        out = _block_mean_resize(np.repeat(row, 3, axis=0), 2)
        np.testing.assert_allclose(out[0], [0.0, 9.0])

    def test_short_axis_uses_nearest_neighbour(self):
        raster = np.arange(4.0)[:, None] * np.ones((1, 64))
        small = _block_mean_resize(raster, 32)
        # Axis 0 (4 < 32) is index-sampled; values stay exact row values.
        assert set(np.unique(small)) <= {0.0, 1.0, 2.0, 3.0}

    @settings(max_examples=20, deadline=None)
    @given(raster_params)
    def test_hash_finite_on_any_shape(self, params):
        value = robust_hash(_raster(*params))
        assert 0 <= value < 2**64
