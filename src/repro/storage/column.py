"""Block-delta compressed columns.

Paper Section 7.1: "in each column, the data is divided into consecutive
blocks of 128 values, and each value is encoded as the delta to the minimum
value in its block. Our encoding scheme allows constant-time element access."

A :class:`CompressedColumn` stores one int64 block-minimum per 128-value
block plus a delta array in the narrowest unsigned dtype that holds the
largest delta. Random access is ``mins[i >> 7] + deltas[i]``; slice access
is fully vectorized.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128
_BLOCK_SHIFT = BLOCK_SIZE.bit_length() - 1  # i >> _BLOCK_SHIFT == i // BLOCK_SIZE

_DELTA_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


class CompressedColumn:
    """An immutable int64 column with block-delta compression."""

    __slots__ = ("_mins", "_deltas", "n")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("a column must be 1-D")
        values = values.astype(np.int64, copy=False)
        self.n = int(values.size)
        if self.n == 0:
            self._mins = np.empty(0, dtype=np.int64)
            self._deltas = np.empty(0, dtype=np.uint8)
            return
        num_blocks = (self.n + BLOCK_SIZE - 1) // BLOCK_SIZE
        # Pad to a whole number of blocks for a clean reshape, then compute
        # per-block minima. Padding repeats the final value so it never
        # perturbs a block minimum.
        padded_len = num_blocks * BLOCK_SIZE
        padded = np.empty(padded_len, dtype=np.int64)
        padded[: self.n] = values
        padded[self.n :] = values[-1]
        blocks = padded.reshape(num_blocks, BLOCK_SIZE)
        self._mins = blocks.min(axis=1)
        deltas64 = (blocks - self._mins[:, None]).reshape(-1)[: self.n]
        max_delta = int(deltas64.max()) if self.n else 0
        for dtype in _DELTA_DTYPES:
            if max_delta <= np.iinfo(dtype).max:
                self._deltas = deltas64.astype(dtype)
                break

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n)
            if step != 1:
                raise ValueError("compressed columns support unit-step slices only")
            return self.slice(start, stop)
        index = int(key)
        if index < 0:
            index += self.n
        if not 0 <= index < self.n:
            raise IndexError("column index out of range")
        return int(self._mins[index // BLOCK_SIZE]) + int(self._deltas[index])

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode values[start:stop] into a fresh int64 array."""
        start = max(0, int(start))
        stop = min(self.n, int(stop))
        if stop <= start:
            return np.empty(0, dtype=np.int64)
        first_block = start // BLOCK_SIZE
        last_block = (stop - 1) // BLOCK_SIZE
        if first_block == last_block:
            # Common case for per-cell scans: one block minimum.
            return self._deltas[start:stop].astype(np.int64) + self._mins[first_block]
        expanded = np.repeat(self._mins[first_block : last_block + 1], BLOCK_SIZE)
        offset = start - first_block * BLOCK_SIZE
        out = expanded[offset : offset + (stop - start)]
        out += self._deltas[start:stop].astype(np.int64)
        return out

    def decode(self) -> np.ndarray:
        """Decode the entire column."""
        return self.slice(0, self.n)

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Decode values at arbitrary positions (gather)."""
        indices = np.asarray(indices, dtype=np.int64)
        deltas = self._deltas[indices]
        if deltas.dtype == np.uint64:
            # int64 + uint64 promotes to float64; narrower deltas widen to
            # int64 inside the add without a separate copy.
            deltas = deltas.astype(np.int64)
        return self._mins[indices >> _BLOCK_SHIFT] + deltas

    # ------------------------------------------------------------------- size
    def size_bytes(self) -> int:
        """Compressed footprint: block minima plus delta array."""
        return int(self._mins.nbytes + self._deltas.nbytes)

    def uncompressed_bytes(self) -> int:
        """Footprint of the equivalent raw int64 array."""
        return self.n * 8

    def compression_ratio(self) -> float:
        """Fraction of space saved vs. raw int64 (0 = none, 0.77 = paper's)."""
        if self.n == 0:
            return 0.0
        return 1.0 - self.size_bytes() / self.uncompressed_bytes()
