"""Bit-packed outcome cache, the artifact types, and every binary format.

The cache records, for m models and n samples, whether model i got sample j
right.  Rows are packed 8 columns per byte (column j sits at bit j % 8 of
byte j // 8, least-significant bit first); padding bits past column n are
always zero.  An optional float32 matrix carries per-cell confidences.
This module alone reads or writes the packed bits, knows a binary format
(the LLBC cache, LLPM permutation and LLSM totals), reads the input files
and encodes the JSON and CSV artifacts, whose fields their makers set: the
prediction record's in search.py, the error report's and curve CSV's in
metrics.py, and ``simulate``'s ``baseline.csv`` and ``summary.json`` and
``insert-sample``'s record in cli.py.  It also holds the one rule for what
an outcome row is (``_outcomes``).
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import itertools
import json
import mmap
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_CACHE_MAGIC = b"LLBC"
_CACHE_VERSION = 1
_FLAG_CONFIDENCE = 1 << 0
_HEADER = struct.Struct("<4sIQQQ")  # magic, version, m, n, flags

_PERM_MAGIC = b"LLPM"
_SUMS_MAGIC = b"LLSM"
_IO_VERSION = 1
_IO_HEADER = struct.Struct("<4sIQ")  # magic, version, length

_INT32_MAX = np.iinfo(np.int32).max

# numbers each ``_replacing_writer``'s temporary file, so two writes of one
# target, even on one thread, never share one
_TMP_NUMBERS = itertools.count()

# held while ``nearest_row`` fetches or builds a cache's transposed copy, so
# threads sharing one cache build it once, not once each
_BYTE_COLUMNS_LOCK = threading.Lock()

# bytes of a band of rows grown at once by ``_grown_chunks``: for the grown
# cache, or to whole words for ``row_sums``
_CHUNK_BYTES = 1 << 20
# packed bytes per ``column_sums`` tile: its bit planes and carries stay in L2
_TILE_BYTES = 1 << 16
# bytes of a band of rows that every other pass reads in place (``_bands``):
# 32 rows of 1.7M samples
_BAND_BYTES = 1 << 23
# plane bytes ``column_sums`` unpacks at once, and the widest rows it lays
# side by side: 120 KiB unpacked stays under glibc's default 128 KiB mmap
# threshold, so each unpacked plane reuses heap memory instead of faulting
# in fresh pages
_SLICE_BYTES = 15 << 10
# items ``_write_blocks`` converts and bytes ``_read_outcomes`` reads at once
_WRITE_CHUNK = 1 << 16
# ``_read_outcomes``' class of each byte: 0 separator, 1 digit, 2 anything else
_OUTCOME_BYTE = np.full(256, 2, np.uint8)
_OUTCOME_BYTE[np.frombuffer(b" \t\n\v\f\r,", np.uint8)] = 0
_OUTCOME_BYTE[np.frombuffer(b"01", np.uint8)] = 1


class FormatError(ValueError):
    """A persisted artifact violates its binary format."""


def _row_bytes(num_samples: int) -> int:
    return (num_samples + 7) // 8


def _pad_mask(num_samples: int) -> int:
    # bits of the last row byte that fall past column n
    return (0xFF << (num_samples % 8)) & 0xFF if num_samples % 8 else 0


def _byte_tables() -> tuple[np.ndarray, np.ndarray]:
    # each bit of a byte is a +1 (one) or -1 (zero) step of a running score;
    # per byte value: how far the score falls from its peak to the byte's
    # end, and the first bit at which the peak is reached
    steps = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    ).astype(np.int8) * 2 - 1
    running = np.cumsum(steps, axis=1, dtype=np.int8)
    fall = running.max(axis=1) - running[:, -1]
    return fall.astype(np.uint8), running.argmax(axis=1).astype(np.uint8)


_BYTE_FALL, _BYTE_PEAK_BIT = _byte_tables()


def _outcomes(
    values: np.ndarray, length: int | None = None, name: str = "outcomes"
) -> np.ndarray:
    """The one rule for every outcome row, column and answer list: 1-D bool.

    A bool array is returned as is; other values must each be 0 or 1.
    """
    row = np.asarray(values)
    if row.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if length is not None and row.size != length:
        raise ValueError(f"{name} length {row.size} does not match {length}")
    if row.dtype != bool:
        if not ((row == 0) | (row == 1)).all():
            raise ValueError(f"{name} entries must be 0 or 1")
        row = row.astype(bool)
    return row


def pack_outcomes(outcomes: np.ndarray) -> np.ndarray:
    """A bool row as n/8 bytes, bit j at bit j % 8 of byte j // 8; padding zero."""
    return np.packbits(outcomes, bitorder="little")


def prefix_ones(packed: np.ndarray, k: int) -> int:
    """Ones among the first k bits of a ``pack_outcomes`` row.

    Popcounts whole 64-bit lanes, then the at most 8 bytes left as one int.
    """
    lanes = k // 64
    ones = int(np.bitwise_count(packed[: 8 * lanes].view(np.uint64)).sum())
    tail = int.from_bytes(packed[8 * lanes : (k + 7) // 8].tobytes(), "little")
    return ones + (tail & ((1 << (k % 64)) - 1)).bit_count()


def best_packed_prefix(packed: np.ndarray) -> int:
    """Length of the prefix maximizing (ones - zeros); 0 unless that is positive.

    Scans n/8 packed bytes instead of n outcomes: the score after each byte
    is a cumsum of its net (2 * popcount - 8), and the best score inside a
    byte is that plus the byte's ``_BYTE_FALL``.  ``argmax`` keeps the first
    best byte and ``_BYTE_PEAK_BIT`` the first peak inside it, so ties go to
    the shortest prefix.  Padding bits are -1 steps and never hold a peak.
    """
    if packed.size == 0:
        return 0
    fall = _BYTE_FALL.take(packed)
    dtype = np.int32 if 8 * packed.size <= _INT32_MAX else np.int64
    score = np.bitwise_count(packed).astype(dtype)
    score *= 2
    score -= 8
    np.cumsum(score, out=score)
    score += fall
    j = int(np.argmax(score))
    if score[j] <= 0:
        return 0
    return 8 * j + int(_BYTE_PEAK_BIT[packed[j]]) + 1


def _csa(
    acc: np.ndarray, x: np.ndarray, y: np.ndarray, carry: np.ndarray, tmp: np.ndarray
) -> None:
    """Carry-save add of packed bits: acc + x + y = acc' + 2 * carry.

    Five in-place passes; ``carry`` may be ``x``, never ``acc``, ``y`` or ``tmp``.
    ``_add_16`` is fifteen of these.
    """
    np.bitwise_xor(acc, x, out=tmp)
    np.bitwise_and(acc, x, out=carry)
    np.bitwise_xor(tmp, y, out=acc)
    np.bitwise_and(tmp, y, out=tmp)
    np.bitwise_or(carry, tmp, out=carry)


def _ripple(planes: np.ndarray, carry: np.ndarray, spares: np.ndarray) -> None:
    """Add the packed row ``carry`` into the counter whose bit planes are
    ``planes``.  The carry moves through the two ``spares`` in turn, so the
    row itself is only read; the top plane takes no carry out, as the
    count fits."""
    for i, plane in enumerate(planes[:-1]):
        spare = spares[i % 2]
        np.bitwise_and(plane, carry, out=spare)
        np.bitwise_xor(plane, carry, out=plane)
        carry = spare
    np.bitwise_xor(planes[-1], carry, out=planes[-1])


def _add_16(planes: np.ndarray, rows: np.ndarray, scratch: np.ndarray) -> None:
    """Add 16 packed ``rows`` into the counter whose bit planes are
    ``planes``: one Harley-Seal step (Muła, Kurz & Lemire, arXiv 1611.07612).

    Fifteen carry-save adds fold the rows into planes 0-3, and their one
    carry of weight 16 ripples into planes 4 and up, so no carry outlives
    the step.  ``scratch`` is five rows: the carries pass through the first
    four, and the fifth is each add's temporary.
    """
    p0, p1, p2, p3 = planes[:4]
    a, b, c, d, t = scratch
    _csa(p0, rows[0], rows[1], a, t)
    _csa(p0, rows[2], rows[3], b, t)
    _csa(p1, a, b, a, t)  # a: weight 4, rows 0-3
    _csa(p0, rows[4], rows[5], b, t)
    _csa(p0, rows[6], rows[7], c, t)
    _csa(p1, b, c, b, t)
    _csa(p2, a, b, a, t)  # a: weight 8, rows 0-7
    _csa(p0, rows[8], rows[9], b, t)
    _csa(p0, rows[10], rows[11], c, t)
    _csa(p1, b, c, b, t)
    _csa(p0, rows[12], rows[13], c, t)
    _csa(p0, rows[14], rows[15], d, t)
    _csa(p1, c, d, c, t)
    _csa(p2, b, c, b, t)  # b: weight 8, rows 8-15
    _csa(p3, a, b, a, t)  # a: weight 16
    _ripple(planes[4:], a, scratch[1:3])


def _release(rows: np.ndarray) -> None:
    """Drop the pages of contiguous ``rows``, if they are a view of a
    read-only ``mmap``, from this process's resident set once read.  The
    file's pages stay in the page cache, and a later read maps them again.
    Any other array is left alone: a copy-on-write map would lose its
    writes."""
    base = rows
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):  # as ``np.frombuffer`` wraps its buffer
        base = base.obj
    if not isinstance(base, mmap.mmap) or rows.size == 0:
        return
    whole = np.frombuffer(base, np.uint8)
    if whole.flags.writeable:
        return
    start = rows.ctypes.data - whole.ctypes.data
    first = start - start % mmap.PAGESIZE
    base.madvise(mmap.MADV_DONTNEED, first, start + rows.nbytes - first)


def _bands(
    rows: np.ndarray, nbytes: int, least: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, band) for each band of the 2-D ``rows``: the largest
    power of two of rows within ``nbytes``, or 1, but at least ``least``.
    Each band is released (``_release``) once the caller moves on, also
    when it stops early, so a mapped cache is never resident whole.  Every
    pass that reads a cache's rows walks them here."""
    row_bytes = max(1, rows.itemsize * rows.shape[1])
    step = max(least, 1 << max(0, (nbytes // row_bytes).bit_length() - 1))
    for lo in range(0, len(rows), step):
        band = rows[lo : lo + step]
        try:
            yield lo, band
        finally:
            _release(band)


def _check_unit_range(conf: np.ndarray) -> None:
    if conf.size and not (conf.min() >= 0.0 and conf.max() <= 1.0):  # NaN too
        raise ValueError("confidence values must lie in [0, 1]")


def _unpacked_lanes(plane: np.ndarray) -> np.ndarray:
    """A plane's bits as 0/1 bytes, viewed as uint64 lanes of 8 columns."""
    return np.unpackbits(plane, axis=-1, bitorder="little").view(np.uint64)


@dataclass(frozen=True, eq=False)
class AccuracyCache:
    """Immutable m*n boolean outcome matrix, packed row-major; arrays needing
    no conversion are read-only views sharing the caller's buffers."""

    num_models: int
    num_samples: int
    bits: np.ndarray
    confidence: np.ndarray | None = None
    # bits.T, contiguous, built by the first ``nearest_row`` call under
    # ``_BYTE_COLUMNS_LOCK``: ``functools.cached_property`` takes no lock from
    # Python 3.12, so threads sharing a cache would each build one
    _byte_columns: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        m, n = self.num_models, self.num_samples
        if m < 0 or n < 0:
            raise ValueError("cache dimensions must be non-negative")
        bits = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8)).view()
        if bits.shape != (m, _row_bytes(n)):
            raise ValueError(
                f"bits shape {bits.shape} does not match {m}x{n} cache"
            )
        mask = _pad_mask(n)
        if mask:  # a band at a time: a byte per row can map every page of a file
            for _, band in _bands(bits, _BAND_BYTES):
                if np.any(band[:, -1] & mask):
                    raise ValueError("nonzero padding bits past the last column")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        if self.confidence is not None:
            conf = np.ascontiguousarray(
                np.asarray(self.confidence, dtype=np.float32)
            ).view()
            if conf.shape != (m, n):
                raise ValueError(
                    f"confidence shape {conf.shape} does not match {m}x{n} cache"
                )
            for _, band in _bands(conf, _BAND_BYTES):  # as above
                _check_unit_range(band)
            conf.flags.writeable = False
            object.__setattr__(self, "confidence", conf)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, confidence: np.ndarray | None = None
    ) -> "AccuracyCache":
        """Pack a 2-D matrix of 0/1 rows one row at a time, so a matrix of
        numbers is never converted to bool whole."""
        dense = np.asarray(matrix)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-dimensional")
        m, n = dense.shape
        bits = np.empty((m, _row_bytes(n)), dtype=np.uint8)
        for i, row in enumerate(dense):
            bits[i] = pack_outcomes(_outcomes(row, name="row"))
        return cls(m, n, bits, confidence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccuracyCache):
            return NotImplemented
        if (self.num_models, self.num_samples) != (
            other.num_models,
            other.num_samples,
        ):
            return False
        if (self.confidence is None) != (other.confidence is None):
            return False
        pairs = [(self.bits, other.bits)]
        if self.confidence is not None:
            pairs.append((self.confidence, other.confidence))
        for mine, theirs in pairs:
            # equal shapes, so equal bands, read side by side
            bands = zip(_bands(mine, _BAND_BYTES), _bands(theirs, _BAND_BYTES))
            if not all(np.array_equal(a, b) for (_, a), (_, b) in bands):
                return False
        return True

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """Unpacked boolean outcomes of model i across all samples."""
        return np.unpackbits(
            self.bits[i], count=self.num_samples, bitorder="little"
        ).view(np.bool_)

    def nearest_row(self, cols: np.ndarray, values: np.ndarray) -> int:
        """Model disagreeing least with ``values`` at the distinct ``cols``.

        Ties go to the lowest index.  Only the packed bytes holding a wanted
        column are read, as rows of the byte columns: a one-time transposed
        copy of the bits, its m columns zero-padded to a multiple of 8.
        Each gathered row's byte counts (at most 8) are then 64-bit words of
        8 models' counts, and adding the rows' second half onto their first
        four times leaves about A/16 rows whose byte lanes hold at most
        16 * 8 = 128: no lane wraps.  (A fifth fold could reach 256.)
        """
        cols = np.atleast_1d(cols)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_samples):
            raise IndexError(f"column index out of range [0, {self.num_samples})")
        values = _outcomes(values, cols.size, "values")
        held = np.zeros(self.num_samples, dtype=bool)
        wanted = np.zeros(self.num_samples, dtype=bool)
        held[cols] = True
        wanted[cols] = values
        mask = np.packbits(held, bitorder="little")
        at = np.flatnonzero(mask)
        with _BYTE_COLUMNS_LOCK:
            columns = self._byte_columns
            if columns is None:
                m = self.num_models
                columns = np.zeros((self.bits.shape[1], -(-m // 8) * 8), np.uint8)
                columns[:, :m] = self.bits.T
                object.__setattr__(self, "_byte_columns", columns)
        diff = columns.take(at, axis=0)
        diff ^= np.packbits(wanted, bitorder="little")[at, None]
        diff &= mask[at, None]
        words = np.bitwise_count(diff, out=diff).view(np.uint64)
        rows = at.size
        for _ in range(4):
            half = rows // 2
            words[:half] += words[rows - half : rows]
            rows -= half
        # an int32 sum is about twice as fast as numpy's default uint64 one
        dtype = np.int32 if 8 * at.size <= _INT32_MAX else np.int64
        counts = diff[:rows].sum(axis=0, dtype=dtype)
        return int(np.argmin(counts[: self.num_models]))

    def first_models(self, k: int) -> "AccuracyCache":
        """The cache of models 0..k-1, sharing this cache's memory."""
        if not 0 <= k <= self.num_models:
            raise ValueError(f"{k} models outside [0, {self.num_models}]")
        conf = None if self.confidence is None else self.confidence[:k]
        return AccuracyCache(k, self.num_samples, self.bits[:k], conf)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(
            self.bits, axis=1, count=self.num_samples, bitorder="little"
        ).view(np.bool_)

    def column_sums(self) -> np.ndarray:
        """Per-column popcounts.

        Bit-sliced: the counts live in packed bit planes covering every
        column, one per bit of the row count, and rows are added as packed
        bytes, never unpacked, 16 at a time by one Harley-Seal step
        (``_add_16``); the rows past the last whole 16 are rippled in one
        at a time (``_ripple``).  Rows are read in bands of at least 16
        (``_bands``), and a band is added one ``_TILE_BYTES`` tile of
        columns at a time, so that tile's planes and five scratch rows stay
        in L2 while the band's rows pass.  Each plane is unpacked once,
        ``_SLICE_BYTES`` at a time.  Rows shorter than ``_SLICE_BYTES`` are
        first laid k side by side (k the largest divisor of m that fits), so
        each bitwise pass covers more bytes; the k partial counts are summed
        when unpacked.
        The length-n result is the only large array.
        """
        m, n = self.num_models, self.num_samples
        dtype = np.int32 if m <= _INT32_MAX else np.int64
        sums = np.zeros(n, dtype=dtype)
        if m == 0 or n == 0:
            return sums
        rb = _row_bytes(n)
        k = max(1, min(m, _SLICE_BYTES // rb))
        while m % k:
            k -= 1
        rows = self.bits.reshape(m // k, k * rb)  # contiguous: a view
        width = rows.shape[1]
        depth = (m // k).bit_length()
        fold_dtype = np.min_scalar_type(m)
        planes = np.zeros((depth, width), np.uint8)
        scratch = np.empty((5, min(width, _TILE_BYTES)), np.uint8)
        for _, band in _bands(rows, _BAND_BYTES, least=16):
            whole = len(band) - len(band) % 16
            for lo in range(0, width, _TILE_BYTES):
                cols = slice(lo, lo + _TILE_BYTES)
                tile, tile_planes = band[:, cols], planes[:, cols]
                bufs = scratch[:, : tile.shape[1]]
                for g in range(0, whole, 16):
                    _add_16(tile_planes, tile[g : g + 16], bufs)
                for row in tile[whole:]:
                    _ripple(tile_planes, row, bufs[:2])
        for s in range(0, width, _SLICE_BYTES):
            block = planes[:, s : s + _SLICE_BYTES].reshape(depth, k, -1)
            c0 = 8 * s
            c1 = min(n, c0 + 8 * block.shape[-1])
            out = sums[c0:c1]
            for g in reversed(range(0, depth, 8)):
                # Horner's rule over eight planes at a time on 0/1 bytes,
                # eight per uint64 lane, so doubling never carries from
                # one column into the next
                group = block[g : g + 8]
                count = _unpacked_lanes(group[-1])
                for plane in group[-2::-1]:
                    count += count
                    count |= _unpacked_lanes(plane)
                count = count.view(np.uint8)[:, : c1 - c0]
                count = count[0] if k == 1 else np.add.reduce(count, dtype=fold_dtype)
                if g + 8 < depth:  # and over the groups, in place
                    out <<= 8
                    out += count
                else:
                    out[...] = count
        return sums

    def confidence_sums(self) -> np.ndarray:
        """Per-column totals of the confidences (float64).

        Each row is added into the totals in turn, the order of one
        ``sum(axis=0)`` over the matrix, so the totals are its bits.  Rows
        are read a band at a time (``_bands``): the block is never resident
        whole.
        """
        conf = self.confidence
        if conf is None:
            raise ValueError("cache has no confidence matrix")
        sums = np.zeros(self.num_samples, dtype=np.float64)
        for _, band in _bands(conf, _BAND_BYTES):
            for row in band:
                sums += row
        return sums

    def row_sums(self) -> np.ndarray:
        """Per-row popcounts (int64).

        The rows are grown to whole uint64 words, zero past each row's
        bytes, a chunk of at most ``_CHUNK_BYTES`` at a time
        (``_grown_chunks``), and popcounted a word at a time: no m x n
        matrix is ever built.
        """
        m, rb = self.bits.shape
        # an int32 sum is about twice as fast as numpy's default uint64 one
        dtype = np.int32 if self.num_samples <= _INT32_MAX else np.int64
        sums = np.empty(m, dtype=np.int64)
        lo = 0
        for chunk in _grown_chunks(self.bits, -(-rb // 8) * 8):
            words = np.bitwise_count(chunk.view(np.uint64))
            sums[lo : lo + len(chunk)] = words.sum(axis=1, dtype=dtype)
            lo += len(chunk)
        return sums


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on item indices; ``order[r]`` is the item placed at rank r.
    An int32/int64 ``order`` is a read-only view sharing the caller's buffer."""

    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.ascontiguousarray(np.asarray(self.order)).view()
        if order.ndim != 1:
            raise ValueError("permutation order must be 1-dimensional")
        if not (order.dtype == np.int32 or order.dtype == np.int64):
            if order.size and not np.issubdtype(order.dtype, np.integer):
                raise ValueError("permutation order must be integral")
            order = order.astype(np.int64)
        length = order.size
        if length:
            if int(order.min()) < 0 or int(order.max()) >= length:
                raise ValueError("permutation indices out of range")
            seen = np.zeros(length, dtype=np.uint8)
            seen[order] = 1
            if int(seen.sum()) != length:
                raise ValueError("permutation indices are not distinct")
        order.flags.writeable = False
        object.__setattr__(self, "order", order)

    @classmethod
    def _built(cls, order: np.ndarray) -> Permutation:
        """A permutation of the 1-D int32/int64 ``order`` that a ranking has
        just built, a bijection by construction: frozen without the O(n)
        checks.  Every other order, a loaded one included, goes through
        ``Permutation(order)``."""
        perm = object.__new__(cls)
        order = order.view()
        order.flags.writeable = False
        object.__setattr__(perm, "order", order)
        return perm

    def __len__(self) -> int:
        return self.order.size


@dataclass(frozen=True)
class ThresholdVector:
    """Monotone binary prediction [1]*k + [0]*(length-k), stored as k."""

    length: int
    k: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.k <= self.length:
            raise ValueError(f"threshold {self.k} outside [0, {self.length}]")


class SortMethod(str, Enum):
    SUM = "sum"
    CONFIDENCE_SUM = "conf"


@dataclass(frozen=True, eq=False)
class SortResult:
    """A column permutation plus the per-column totals in rank order;
    contiguous ``sums`` are a read-only view sharing the caller's buffer."""

    permutation: Permutation
    sums: np.ndarray
    method: SortMethod

    def __post_init__(self) -> None:
        sums = np.ascontiguousarray(np.asarray(self.sums)).view()
        if sums.shape != (len(self.permutation),):
            raise ValueError("sums length does not match permutation")
        sums.flags.writeable = False
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "method", SortMethod(self.method))

    @property
    def num_samples(self) -> int:
        return len(self.permutation)


# -- persistence -----------------------------------------------------------


def _home(path: Path, shown: str) -> Path:
    """The nearest existing directory above ``path``; or one error, naming
    ``path`` as ``shown`` if it is a directory itself (``/``, ``.`` and ``""``
    among them), or else the regular file in the way."""
    if path.resolve().is_dir():
        raise IsADirectoryError(f"{shown} is a directory; give a file path")
    found = next(p for p in path.parents if p.exists())
    if not found.is_dir():
        raise NotADirectoryError(f"{found} is not a directory")
    return found


def _check_targets(targets: list[tuple], inputs: list[tuple]) -> None:
    """The one rule for a command's (flag, path) targets, checked before it
    reads any input: no target is a directory, each parent is one or can be
    made (``_home``), and none is, holds or lies inside an input or an
    earlier target.  Pairs whose path is None are skipped; a target named
    ``"<flag>'s <file>"`` is one that ``<flag>`` implies.  Makes nothing."""
    seen = {Path(path).resolve(): (name, path) for name, path in inputs if path is not None}
    for name, path in targets:
        if path is None:
            continue
        _home(Path(path), f"{name} {path}")
        resolved = Path(path).resolve()
        for known, (other, given) in seen.items():
            if known == resolved:
                own = other.removeprefix(f"{name}'s ")
                what = f"its own {own}" if own != other else f"the {other} file"
                raise ValueError(f"{name} {path} is {what}; give it another path")
            if known in resolved.parents or resolved in known.parents:
                raise ValueError(f"{name} {path} and {other} {given} would nest, "
                                 "one inside the other; give them separate paths")
        seen[resolved] = name, path


@contextlib.contextmanager
def _replacing_writer(path: str | Path, size: int):
    """Handle on a temporary file that replaces ``path`` only once exactly
    ``size`` bytes are written to it, so a failed or short write keeps the
    old file and mapped readers never see it shrink.

    The temporary file goes in the target's nearest existing directory
    (``_home``, so a target that is a directory, or a blocked parent, fails
    there, naming it), and the missing parents are made only once the file
    is whole, just before the rename: a write that fails, or is abandoned,
    removes the temporary file and has made nothing else.  Its ``size``
    bytes are reserved before the first write (``os.posix_fallocate``,
    where there is one): the file system allocates its blocks at once, not
    a page at a time, and a full disk fails before any data is written.  A
    file system that cannot reserve space is written as is.
    """
    path = Path(path)
    tmp = _home(path, str(path)) / f".{path.name}.{os.getpid()}.{next(_TMP_NUMBERS)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if size and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fh.fileno(), 0, size)
                except OSError as exc:
                    if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
                        raise
            yield fh
            if fh.tell() != size:
                raise RuntimeError(f"{fh.tell()} bytes written to {path}, expected {size}")
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_parts(fh, header: bytes, blocks: Iterable[tuple]) -> None:
    """``header`` (all of a text artifact), then each ``(values, dtype)``
    block's items in C order, stored as ``dtype``; ``values`` is an array or
    an iterable of array chunks.  An array or chunk already of that dtype
    goes out from its own buffer in one call; others are converted
    ``_WRITE_CHUNK`` items at a time: no full-length converted copy."""
    fh.write(header)
    for values, dtype in blocks:
        for part in (values,) if isinstance(values, np.ndarray) else values:
            if part.dtype == dtype:  # the array's own buffer: no bytes copy
                fh.write(np.ascontiguousarray(part).data)
            else:
                flat = np.ravel(part)
                for lo in range(0, flat.size, _WRITE_CHUNK):
                    fh.write(flat[lo : lo + _WRITE_CHUNK].astype(dtype).data)


def _write_blocks(path: str | Path, size: int, header: bytes, *blocks: tuple) -> None:
    """``_write_parts`` into ``path`` through a ``_replacing_writer``.
    ``size`` is the file's length by its format's rule (``_cache_size``,
    ``_array_size``), which the writer reserves and then checks."""
    with _replacing_writer(path, size) as fh:
        _write_parts(fh, header, blocks)


def _write_rows(path: str | Path, rows: Iterable[Sequence]) -> None:
    """CSV rows (CR LF line ends), written in one piece."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    data = text.getvalue().encode()
    _write_blocks(path, len(data), data)


def _write_json(path: str | Path, payload: dict) -> None:
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    _write_blocks(path, len(data), data)


def _read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _read_outcomes(path: str | Path, length: int, name: str) -> np.ndarray:
    """``length`` 0/1 tokens separated by commas and/or whitespace.

    Lone ``0``/``1`` bytes between ASCII separators are read as bytes, a
    chunk at a time, and each chunk's digits are compared straight into one
    row of (size + 1) // 2 outcomes, as no two digits touch; any other
    file, and so every error, goes through ``_read_tokens``.
    """
    data = np.frombuffer(Path(path).read_bytes(), np.uint8)
    row = np.empty((data.size + 1) // 2, bool)
    count = 0
    for lo in range(0, data.size, _WRITE_CHUNK):
        # one byte past the chunk, to see a token run across its edge
        kind = _OUTCOME_BYTE.take(data[lo : lo + _WRITE_CHUNK + 1])
        if kind.max() > 1 or (kind[1:] & kind[:-1]).any():
            return _read_tokens(path, length, name)
        digits = data[lo : lo + _WRITE_CHUNK][kind[:_WRITE_CHUNK].view(bool)]
        np.equal(digits, ord("1"), out=row[count : count + digits.size])
        count += digits.size
    return _outcomes(row[:count], length, name)


def _read_tokens(path: str | Path, length: int, name: str) -> np.ndarray:
    tokens = Path(path).read_text().replace(",", " ").split()
    for t, tok in enumerate(tokens):
        if tok not in ("0", "1"):
            raise ValueError(f"{path}: token {t + 1} is {tok!r}, expected 0 or 1")
    return _outcomes([tok == "1" for tok in tokens], length, name)


def _unpack_header(
    data: bytes, magic: bytes, header: struct.Struct, version: int
) -> tuple:
    """Header fields after magic and version, checking both."""
    if len(data) < 4:
        raise FormatError("truncated file: missing magic")
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) < header.size:
        raise FormatError("truncated file: incomplete header")
    _, found, *fields = header.unpack_from(data)
    if found != version:
        raise FormatError(f"unsupported version {found}")
    return tuple(fields)


def _check_size(size: int, expected: int, payload: str) -> None:
    if size < expected:
        raise FormatError(f"truncated file: {size} bytes, expected {expected}")
    if size > expected:
        raise FormatError(f"trailing bytes after {payload}")


def _cache_size(m: int, n: int, flags: int) -> int:
    """Length of an LLBC file: the header, m rows of ceil(n/8) bytes, then
    m * n float32 confidences if ``flags`` holds ``_FLAG_CONFIDENCE``."""
    conf = 4 * m * n if flags & _FLAG_CONFIDENCE else 0
    return _HEADER.size + m * _row_bytes(n) + conf


def _cache_header(cache: AccuracyCache, num_samples: int) -> tuple[bytes, int]:
    """The LLBC header of ``cache``'s models at ``num_samples`` samples, and
    the file's length."""
    m = cache.num_models
    flags = _FLAG_CONFIDENCE if cache.confidence is not None else 0
    header = _HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, m, num_samples, flags)
    return header, _cache_size(m, num_samples, flags)


def save_cache(cache: AccuracyCache, path: str | Path) -> None:
    """Write the cache in the LLBC binary format (little-endian), a band of
    rows at a time (``_bands``)."""
    arrays = [(cache.bits, "u1")]
    if cache.confidence is not None:
        arrays.append((cache.confidence, "<f4"))
    blocks = [((band for _, band in _bands(a, _BAND_BYTES)), t) for a, t in arrays]
    header, size = _cache_header(cache, cache.num_samples)
    _write_blocks(path, size, header, *blocks)


def _grown_chunks(
    block: np.ndarray, width: int, stop: threading.Event | None = None
) -> Iterable[np.ndarray]:
    """The rows of ``block`` widened to ``width`` items, the new ones zero,
    as one reused buffer of at most ``_CHUNK_BYTES``, or one row, refilled
    for each band of rows (``_bands``); none once ``stop``, if given, is
    set."""
    buf = np.empty((0, width), dtype=block.dtype)
    old = block.shape[1]
    # bands of rows whose copies, grown to ``width`` items, fit in _CHUNK_BYTES
    for _, rows in _bands(block, _CHUNK_BYTES * old // max(1, width)):
        if stop is not None and stop.is_set():
            return
        if len(buf) < len(rows):  # the first band, the largest
            buf = np.empty((len(rows), width), dtype=block.dtype)
        out = buf[: len(rows)]
        out[:, :old] = rows
        out[:, old:] = 0
        yield out


def _new_column(
    cache: AccuracyCache, col: np.ndarray, confidence_col: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``cache``'s next sample checked: its bool outcomes, and its float32
    confidences if and only if ``cache`` stores confidences."""
    m = cache.num_models
    col = _outcomes(col, m, "column")
    if cache.confidence is None:
        if confidence_col is not None:
            raise ValueError("cache stores no confidences; confidence_col not allowed")
        return col, None
    if confidence_col is None:
        raise ValueError("cache stores confidences; confidence_col required")
    confidence_col = np.asarray(confidence_col, dtype=np.float32)
    if confidence_col.shape != (m,):
        raise ValueError(
            f"confidence_col shape {confidence_col.shape} does not match {m} models"
        )
    _check_unit_range(confidence_col)
    return col, confidence_col


def _pwrite_column(fd: int, start: int, stride: int, items: np.ndarray) -> None:
    """Item i of ``items`` to byte ``start + i * stride`` of the open ``fd``."""
    data, size = items.tobytes(), items.itemsize
    for i in range(items.size):
        os.pwrite(fd, data[i * size : (i + 1) * size], start + i * stride)


@contextlib.contextmanager
def _appending_writer(cache: AccuracyCache, path: str | Path):
    """Write ``cache`` with one more sample to ``path`` while the caller
    works out that sample, and yield ``put(col, confidence_col=None)``,
    which sets it.

    Entering is ``_replacing_writer``'s: the parents are checked and the
    whole file is reserved, so a blocked target or a full disk fails
    here.  Then a one-worker executor writes the header, the grown rows
    and any grown confidences (``_grown_chunks``) with the one write
    loop, ``_write_parts``, the new column zero.  ``put`` checks the
    column, waits for that write, raising what it raised, and writes the
    column into the temporary file an item per row (``os.pwrite``; a
    shared map would make the file's pages resident) by the one rule for
    a new column: bit ``n % 8`` of byte ``n // 8`` of each row, and item
    ``n`` of each confidence row.  The file replaces ``path`` only after
    ``put``.  If the body fails first, the rows stop between chunks, the
    worker is joined, and the temporary file is removed.  ``path`` may be
    the file ``cache`` was loaded from.
    """
    m, n = cache.num_models, cache.num_samples
    header, size = _cache_header(cache, n + 1)
    rb = _row_bytes(n + 1)
    stop, done = threading.Event(), []
    blocks = [(_grown_chunks(cache.bits, rb, stop), "u1")]
    if cache.confidence is not None:
        blocks.append((_grown_chunks(cache.confidence, n + 1, stop), "<f4"))
    with (_replacing_writer(path, size) as fh,
          ThreadPoolExecutor(1, thread_name_prefix="lleval-append-out") as pool):
        written = pool.submit(_write_parts, fh, header, blocks)

        def put(col: np.ndarray, confidence_col: np.ndarray | None = None) -> None:
            col, confidence_col = _new_column(cache, col, confidence_col)
            written.result()
            fh.flush()  # bytes still buffered would land over the column
            # byte n // 8 of each grown row: the input's last byte, or a new one
            tail = np.zeros(m, np.uint8)
            if n % 8:
                for lo, band in _bands(cache.bits, _BAND_BYTES):
                    tail[lo : lo + len(band)] = band[:, -1]
            tail |= col.view(np.uint8) << (n % 8)
            _pwrite_column(fh.fileno(), _HEADER.size + n // 8, rb, tail)
            if confidence_col is not None:
                start = _HEADER.size + m * rb + 4 * n
                _pwrite_column(fh.fileno(), start, 4 * (n + 1), confidence_col.astype("<f4"))
            done.append(True)

        try:
            yield put
        finally:
            stop.set()
        if not done:
            raise RuntimeError(f"no new column was put into {path}")


def save_appended_cache(
    cache: AccuracyCache,
    path: str | Path,
    col: np.ndarray,
    confidence_col: np.ndarray | None = None,
) -> None:
    """Write ``cache`` with one more sample, the outcomes ``col`` and, if
    ``cache`` stores confidences, ``confidence_col``, as LLBC without
    building it: the grown rows, then the grown confidences, are made from
    ``cache``'s own (possibly mapped) arrays a bounded chunk at a time, and
    existing columns are untouched (``_appending_writer``).  ``path`` may
    be the file ``cache`` was loaded from."""
    with _appending_writer(cache, path) as put:
        put(col, confidence_col)


def load_cache(path: str | Path) -> AccuracyCache:
    """Map an LLBC file read-only, verifying magic, version, size and padding.

    The bits and confidences are read-only views of one ``mmap`` of the
    file, which their base chain keeps alive, so ``_release`` can find it.
    """
    with open(path, "rb") as fh:  # the size, header and map of one file
        head = fh.read(_HEADER.size)
        m, n, flags = _unpack_header(head, _CACHE_MAGIC, _HEADER, _CACHE_VERSION)
        if flags & ~_FLAG_CONFIDENCE:
            raise FormatError(f"unsupported flags {flags:#x}")
        size = os.fstat(fh.fileno()).st_size
        _check_size(size, _cache_size(m, n, flags), "cache payload")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    rb = _row_bytes(n)
    bits_len = m * rb
    try:
        bits = np.frombuffer(mapped, "u1", bits_len, _HEADER.size).reshape(m, rb)
        confidence = None
        if flags & _FLAG_CONFIDENCE:
            confidence = np.frombuffer(
                mapped, "<f4", m * n, _HEADER.size + bits_len
            ).reshape(m, n)
        return AccuracyCache(m, n, bits, confidence)  # checks padding and [0, 1]
    except ValueError as exc:  # also an empty block too wide for any array
        raise FormatError(str(exc)) from None


def _array_size(length: int, dtype: str) -> int:
    """Length of an LLPM or LLSM file: the header, then ``length`` items."""
    return _IO_HEADER.size + length * np.dtype(dtype).itemsize


def _write_array_file(
    path: str | Path, magic: bytes, values: np.ndarray, dtype: str
) -> None:
    header = _IO_HEADER.pack(magic, _IO_VERSION, values.size)
    _write_blocks(path, _array_size(values.size, dtype), header, (values, dtype))


def save_permutation(perm: Permutation, path: str | Path) -> None:
    # never negative, so its int64 bytes are the stored uint64 ones
    _write_array_file(path, _PERM_MAGIC, perm.order, "<i8")


def load_permutation(path: str | Path) -> Permutation:
    # an index >= 2**63 views as negative and fails the range check
    order = _read_array_file(path, _PERM_MAGIC, "<u8").view("<i8")
    try:
        return Permutation(order)
    except ValueError as exc:  # a payload that is no permutation
        raise FormatError(str(exc)) from None


def save_sums(sums: np.ndarray, path: str | Path) -> None:
    _write_array_file(path, _SUMS_MAGIC, np.asarray(sums), "<f8")


def load_sums(path: str | Path) -> np.ndarray:
    return _read_array_file(path, _SUMS_MAGIC, "<f8")


def _read_array_file(path: str | Path, magic: bytes, dtype: str) -> np.ndarray:
    """The checked payload, read from the open file into its one array."""
    with open(path, "rb") as fh:
        head = fh.read(_IO_HEADER.size)
        (length,) = _unpack_header(head, magic, _IO_HEADER, _IO_VERSION)
        _check_size(os.fstat(fh.fileno()).st_size, _array_size(length, dtype), "payload")
        return np.fromfile(fh, dtype=dtype, count=length)


def _csv_lines(fh: Iterable[str]) -> Iterable[tuple[int, str]]:
    """(line number, line) of each non-blank line, ``str.splitlines`` style,
    read from the open text file a physical line at a time."""
    lineno = 0
    for physical in fh:
        for line in physical.splitlines():
            lineno += 1
            if line.strip():
                yield lineno, line


def import_csv(path: str | Path, has_confidence: bool = False) -> AccuracyCache:
    """Build a cache from a CSV of 0/1 entries (or [0,1] reals).

    With ``has_confidence`` every value v in [0, 1] is kept as confidence and
    binarized as v >= 0.5; otherwise entries must be exactly 0 or 1.  Reads
    the file twice, a line at a time: once for the row count and width, then
    parsing each row into the preallocated bits and confidences.
    """
    rule = "outside [0, 1]" if has_confidence else "is not 0 or 1"
    with open(path) as fh:
        m, width = 0, 0
        for _, line in _csv_lines(fh):
            if not m:
                width = line.count(",") + 1
            m += 1
        bits = np.empty((m, _row_bytes(width)), np.uint8)
        confidence = np.empty((m, width), np.float32) if has_confidence else None
        fh.seek(0)
        for i, (lineno, line) in enumerate(_csv_lines(fh)):
            tokens = line.split(",")
            try:
                values = np.array(tokens, dtype=np.float64)  # float()'s grammar
            except ValueError:  # find the bad column only on this path
                for colno, tok in enumerate(tokens, start=1):
                    try:
                        float(tok)
                    except ValueError:
                        raise ValueError(
                            f"row {lineno}, column {colno}: not a number: {tok.strip()!r}"
                        ) from None
                raise
            if values.size != width:
                raise ValueError(
                    f"row {lineno}: ragged row, expected {width} values, got {values.size}"
                )
            bad = (~((values >= 0.0) & (values <= 1.0)) if has_confidence  # NaN is bad
                   else (values != 0.0) & (values != 1.0))
            if bad.any():
                colno = int(bad.argmax()) + 1
                v = float(values[colno - 1])
                raise ValueError(f"row {lineno}, column {colno}: value {v} {rule}")
            if has_confidence:
                confidence[i] = values
            # float64: 0.49999999 rounds to 0.5 in float32
            bits[i] = pack_outcomes(values >= 0.5)
    return AccuracyCache(m, width, bits, confidence)
