"""Unit and property tests for block-delta compressed columns."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage.column import BLOCK_SIZE, CompressedColumn

int_arrays = st.lists(st.integers(-2**40, 2**40), min_size=0, max_size=600).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestCompressedColumn:
    def test_roundtrip_simple(self):
        values = np.arange(1000, dtype=np.int64) * 3 - 500
        col = CompressedColumn(values)
        assert np.array_equal(col.decode(), values)

    def test_block_size_is_128(self):
        assert BLOCK_SIZE == 128

    def test_random_access(self):
        values = np.array([5, -3, 1000, 7], dtype=np.int64)
        col = CompressedColumn(values)
        assert col[0] == 5
        assert col[1] == -3
        assert col[-1] == 7

    def test_index_out_of_range(self):
        col = CompressedColumn(np.arange(10))
        with pytest.raises(IndexError):
            col[10]

    def test_slice_access(self):
        values = np.arange(300, dtype=np.int64)
        col = CompressedColumn(values)
        assert np.array_equal(col.slice(100, 200), values[100:200])
        assert np.array_equal(col[50:150], values[50:150])

    def test_slice_clamps(self):
        col = CompressedColumn(np.arange(10))
        assert np.array_equal(col.slice(-5, 100), np.arange(10))
        assert col.slice(8, 3).size == 0

    def test_step_slice_rejected(self):
        col = CompressedColumn(np.arange(10))
        with pytest.raises(ValueError):
            col[::2]

    def test_take(self):
        values = np.arange(0, 5000, 7, dtype=np.int64)
        col = CompressedColumn(values)
        idx = np.array([0, 100, 700, 713])
        assert np.array_equal(col.take(idx), values[idx])

    @pytest.mark.parametrize(
        "width,span",
        [(np.uint8, 200), (np.uint16, 60_000), (np.uint32, 2**31), (np.uint64, 2**40)],
    )
    def test_take_matches_decode_for_every_delta_width(self, width, span):
        rng = np.random.default_rng(span % 997)
        values = rng.integers(0, span, size=1000, dtype=np.int64)
        values[0], values[1] = 0, span  # pin the block's widest delta
        if width is np.uint64:
            # Blocks at both ends of the int64 range: int64 + uint64 would
            # promote to float64 and round these values.
            big = np.iinfo(np.int64)
            values[:128] += big.min
            values[-100:] = big.max - values[-100:]
        col = CompressedColumn(values)
        assert col._deltas.dtype == width
        idx = rng.integers(0, values.size, size=3000)
        got = col.take(idx)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, col.decode()[idx])
        np.testing.assert_array_equal(got, values[idx])

    def test_empty_column(self):
        col = CompressedColumn(np.array([], dtype=np.int64))
        assert len(col) == 0
        assert col.decode().size == 0
        assert col.size_bytes() == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            CompressedColumn(np.zeros((2, 2)))

    def test_compresses_low_variance_data(self):
        # Values within a block differ by < 256, so deltas fit in uint8:
        # 1 byte/value + 8 bytes per 128-value block minimum.
        values = (np.arange(128 * 100) % 200).astype(np.int64) + 10**15
        col = CompressedColumn(values)
        assert col.compression_ratio() > 0.8

    def test_no_compression_for_wild_data(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-2**62, 2**62, size=1000)
        col = CompressedColumn(values)
        # Deltas need uint64: no savings, slight overhead from minima.
        assert col.compression_ratio() <= 0.0

    def test_paperlike_compression(self):
        # Sorted timestamp-like data compresses heavily, in the spirit of
        # the paper's reported 77% dataset compression.
        values = np.sort(np.random.default_rng(1).integers(0, 10**6, size=20000))
        col = CompressedColumn(values)
        assert col.compression_ratio() > 0.7

    @given(int_arrays)
    def test_roundtrip_property(self, values):
        col = CompressedColumn(values)
        assert np.array_equal(col.decode(), values)
        assert len(col) == values.size

    @given(int_arrays, st.integers(0, 600), st.integers(0, 600))
    def test_slice_property(self, values, a, b):
        col = CompressedColumn(values)
        start, stop = min(a, b), max(a, b)
        assert np.array_equal(col.slice(start, stop), values[start:stop])
