"""Bit-packed outcome cache, the artifact types, and every on-disk format.

The cache records, for m models and n samples, whether model i got sample j
right.  Rows are packed 8 columns per byte (column j sits at bit j % 8 of
byte j // 8, least-significant bit first); padding bits past column n are
always zero.  An optional float32 matrix carries per-cell confidences.
This module is the only one that reads or writes the packed bits, and the
only one that knows a file format: the LLBC cache, the LLPM permutation,
the LLSM totals, the JSON and CSV text artifacts and the input files.  It
also holds the one rule for what an outcome row is (``_outcomes``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

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

# packed bytes popcounted at once by ``row_sums``: bounds that scratch
_POPCOUNT_CHUNK_BYTES = 1 << 22
# packed bytes per ``column_sums`` tile: its bit planes and carries stay in L2
_TILE_BYTES = 1 << 16
# plane bytes ``column_sums`` unpacks at once, and the widest rows it lays
# side by side: 120 KiB unpacked stays under glibc's default 128 KiB mmap
# threshold, so each unpacked plane reuses heap memory instead of faulting
# in fresh pages
_SLICE_BYTES = 15 << 10
_WRITE_CHUNK = 1 << 16  # items converted at once by ``_write_converted``


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
    """
    np.bitwise_xor(acc, x, out=tmp)
    np.bitwise_and(acc, x, out=carry)
    np.bitwise_xor(tmp, y, out=acc)
    np.bitwise_and(tmp, y, out=tmp)
    np.bitwise_or(carry, tmp, out=carry)


def _add_tree(
    planes: np.ndarray, rows: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Add 2**d rows (d >= 1) into ``planes[:d]``; their weight-2**d carry
    goes to ``out``.  Uses ``scratch[:d]``."""
    d = len(rows).bit_length() - 1
    if d == 1:
        x, y = rows
    else:
        half = len(rows) // 2
        _add_tree(planes, rows[:half], out, scratch)
        _add_tree(planes, rows[half:], scratch[d - 1], scratch)
        x, y = out, scratch[d - 1]
    _csa(planes[d - 1], x, y, out, scratch[0])


def _ripple(planes: np.ndarray, carry: np.ndarray, spares: tuple) -> None:
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


def _add_rows(
    planes: np.ndarray, rows: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Add packed ``rows`` into zeroed bit planes, one carry-save tree per
    binary digit of their number, so a remainder never ripples row by row.

    Module-level functions, not closures: a recursive closure is a reference
    cycle that would keep the mapped cache alive until the next collection.
    """
    first = 0
    for d in reversed(range(len(planes))):
        if len(rows) >> d & 1:
            group = rows[first : first + (1 << d)]
            first += 1 << d
            if d:
                _add_tree(planes, group, out, scratch)
            carry = out if d else group[0]
            _ripple(planes[d:], carry, (scratch[0], out))


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
    # bits.T, contiguous, from the first ``nearest_row`` call: a plain lazy field,
    # as the pre-3.12 lock of ``functools.cached_property`` would serialise
    # ``simulate``'s threads; threads racing on it build equal arrays
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
        if mask and m and np.any(bits[:, -1] & mask):
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
            if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
                raise ValueError("confidence values must lie in [0, 1]")
            conf.flags.writeable = False
            object.__setattr__(self, "confidence", conf)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        num_samples: int,
        rows: Iterable[np.ndarray],
        confidence: np.ndarray | None = None,
    ) -> "AccuracyCache":
        """Pack 0/1 rows of length ``num_samples``, reading one row at a time."""
        packed = [
            np.packbits(_outcomes(row, num_samples, "row"), bitorder="little")
            for row in rows
        ]
        rb = _row_bytes(num_samples)
        bits = np.array(packed, dtype=np.uint8).reshape(len(packed), rb)
        return cls(len(packed), num_samples, bits, confidence)

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, confidence: np.ndarray | None = None
    ) -> "AccuracyCache":
        dense = np.asarray(matrix)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-dimensional")
        return cls.from_rows(dense.shape[1], dense, confidence)

    @property
    def has_confidence(self) -> bool:
        return self.confidence is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccuracyCache):
            return NotImplemented
        if (self.num_models, self.num_samples) != (
            other.num_models,
            other.num_samples,
        ):
            return False
        if not np.array_equal(self.bits, other.bits):
            return False
        if (self.confidence is None) != (other.confidence is None):
            return False
        return self.confidence is None or np.array_equal(
            self.confidence, other.confidence
        )

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """Unpacked boolean outcomes of model i across all samples."""
        return np.unpackbits(
            self.bits[i], count=self.num_samples, bitorder="little"
        ).view(np.bool_)

    def _checked_columns(self, cols: np.ndarray) -> np.ndarray:
        cols = np.atleast_1d(cols)  # a 0-d index would slice a read-only view
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_samples):
            raise IndexError(f"column index out of range [0, {self.num_samples})")
        return cols

    def bits_at(self, cols: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Boolean (models, len(cols)) block of every model, or of ``rows``."""
        cols = self._checked_columns(cols)
        if rows is None:  # a plain slice; np.ix_ over every row is ~7x slower
            block = self.bits[:, cols // 8]
        else:
            block = self.bits[np.ix_(rows, cols // 8)]
        # in place on the gathered copy: one block-sized array at a time
        block >>= (cols % 8).astype(np.uint8)
        block &= 1
        return block.view(np.bool_)

    def nearest_row(self, cols: np.ndarray, values: np.ndarray) -> int:
        """Model disagreeing least with ``values`` at the distinct ``cols``.

        Ties go to the lowest index.  Only the packed bytes holding a wanted
        column are read, as m-byte rows of the byte columns: a one-time
        m * n / 8 byte transposed copy of the bits.
        """
        cols = self._checked_columns(cols)
        values = _outcomes(values, cols.size, "values")
        held = np.zeros(self.num_samples, dtype=bool)
        wanted = np.zeros(self.num_samples, dtype=bool)
        held[cols] = True
        wanted[cols] = values
        mask = np.packbits(held, bitorder="little")
        at = np.flatnonzero(mask)
        columns = self._byte_columns
        if columns is None:
            columns = np.ascontiguousarray(self.bits.T)
            object.__setattr__(self, "_byte_columns", columns)
        diff = columns.take(at, axis=0)
        diff ^= np.packbits(wanted, bitorder="little")[at, None]
        diff &= mask[at, None]
        # an int32 sum is about twice as fast as numpy's default uint64 one
        dtype = np.int32 if 8 * at.size <= _INT32_MAX else np.int64
        counts = np.bitwise_count(diff, out=diff).sum(axis=0, dtype=dtype)
        return int(np.argmin(counts))

    def column(self, j: int) -> np.ndarray:
        """Boolean outcomes of every model on sample j."""
        return self.bits_at([j])[:, 0]

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

        Bit-sliced: per tile of ``_TILE_BYTES`` packed columns, the counts
        live in packed bit planes, one per bit of the row count, and rows
        are added as packed bytes by carry-save adder trees (``_add_rows``),
        never unpacked.  Each plane is unpacked once per tile,
        ``_SLICE_BYTES`` at a time.  Rows shorter than ``_SLICE_BYTES`` are
        first laid k side by side (k the largest divisor of m that fits), so
        each bitwise pass covers more bytes; the k partial counts are summed
        when unpacked.  The length-n result is the only large array.
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
        depth = (m // k).bit_length()
        fold_dtype = np.min_scalar_type(m)
        # planes, then the carry and the tree's scratch
        stack = np.empty((2 * depth + 1, min(rows.shape[1], _TILE_BYTES)), np.uint8)
        for lo in range(0, rb, _TILE_BYTES):
            tile = rows[:, lo : lo + _TILE_BYTES]
            bufs = stack[:, : tile.shape[1]]
            planes = bufs[:depth]
            planes.fill(0)
            _add_rows(planes, tile, bufs[depth], bufs[depth + 1 :])
            for s in range(0, tile.shape[1], _SLICE_BYTES):
                block = planes[:, s : s + _SLICE_BYTES].reshape(depth, k, -1)
                c0 = 8 * (lo + s)
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

    def row_sums(self) -> np.ndarray:
        """Per-row popcounts (int64).

        Counts packed rows in chunks, so no m x n matrix is ever built.
        """
        bits = self.bits
        step = max(1, _POPCOUNT_CHUNK_BYTES // max(1, bits.shape[1]))
        sums = np.empty(self.num_models, dtype=np.int64)
        for lo in range(0, self.num_models, step):
            hi = lo + step
            np.bitwise_count(bits[lo:hi]).sum(axis=1, dtype=np.int64, out=sums[lo:hi])
        return sums

    # -- growth ------------------------------------------------------------

    def append_row(
        self, row: np.ndarray, confidence_row: np.ndarray | None = None
    ) -> "AccuracyCache":
        """New cache with one more model; existing rows are untouched."""
        bits = np.vstack([self.bits, AccuracyCache.from_rows(self.num_samples, [row]).bits])
        conf = None
        if self.confidence is not None:
            if confidence_row is None:
                raise ValueError("cache stores confidences; confidence_row required")
            conf = np.vstack(
                [self.confidence, np.asarray(confidence_row, dtype=np.float32)[None, :]]
            )
        elif confidence_row is not None:
            raise ValueError("cache stores no confidences; confidence_row not allowed")
        return AccuracyCache(self.num_models + 1, self.num_samples, bits, conf)

    def append_column(
        self, col: np.ndarray, confidence_col: np.ndarray | None = None
    ) -> "AccuracyCache":
        """New cache with one more sample; existing columns are untouched."""
        col = _outcomes(col, self.num_models, "column")
        m, n = self.num_models, self.num_samples
        bits = np.zeros((m, _row_bytes(n + 1)), dtype=np.uint8)
        bits[:, : _row_bytes(n)] = self.bits
        bits[:, n // 8] |= col.view(np.uint8) << (n % 8)
        conf = None
        if self.confidence is not None:
            if confidence_col is None:
                raise ValueError("cache stores confidences; confidence_col required")
            conf = np.hstack(
                [self.confidence, np.asarray(confidence_col, dtype=np.float32)[:, None]]
            )
        elif confidence_col is not None:
            raise ValueError("cache stores no confidences; confidence_col not allowed")
        return AccuracyCache(m, n + 1, bits, conf)


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

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Reorder ``values`` from original coordinates into rank order."""
        values = np.asarray(values)
        if values.shape[0] != self.order.size:
            raise ValueError("length mismatch with permutation")
        return values[self.order]


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

    def materialize(self) -> np.ndarray:
        vec = np.zeros(self.length, dtype=bool)
        vec[: self.k] = True
        return vec


class SortMethod(str, Enum):
    SUM = "sum"
    CONFIDENCE_SUM = "conf"
    RECURSIVE_SUM = "recursive"


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


@contextlib.contextmanager
def _replacing_writer(path: str | Path):
    """Handle on a temporary file that replaces ``path`` only on success, so
    a failed write keeps the old file and mapped readers never see it shrink.

    Creates the missing parent directories of ``path`` first, so a parent
    that is not a directory fails there, naming it, and not at the hidden
    temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_blocks(path: str | Path, header: bytes, *blocks: np.ndarray) -> None:
    """``header`` (all of a text artifact), then each array's raw bytes."""
    with _replacing_writer(path) as fh:
        fh.write(header)
        for block in blocks:  # the array's own buffer: no bytes copy
            fh.write(np.ascontiguousarray(block).data)


def _write_rows(path: str | Path, rows: Iterable[Sequence]) -> None:
    """CSV rows (CR LF line ends), written in one piece."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_blocks(path, text.getvalue().encode())


def _write_json(path: str | Path, payload: dict) -> None:
    _write_blocks(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _read_outcomes(path: str | Path, length: int, name: str) -> np.ndarray:
    """``length`` 0/1 tokens separated by commas and/or whitespace."""
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


def save_cache(cache: AccuracyCache, path: str | Path) -> None:
    """Write the cache in the LLBC binary format (little-endian)."""
    m, n = cache.num_models, cache.num_samples
    flags = _FLAG_CONFIDENCE if cache.confidence is not None else 0
    header = _HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, m, n, flags)
    conf = [] if cache.confidence is None else [cache.confidence.astype("<f4", copy=False)]
    _write_blocks(path, header, cache.bits, *conf)


def _map_block(path: str | Path, dtype: str, shape: tuple, offset: int) -> np.ndarray:
    """Read-only memory map of one payload block (numpy cannot map 0 bytes)."""
    if shape[0] * shape[1] == 0:
        return np.zeros(shape, dtype=dtype)
    block = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
    return block.view(np.ndarray)


def load_cache(path: str | Path) -> AccuracyCache:
    """Map an LLBC file read-only, verifying magic, version, size and padding."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    m, n, flags = _unpack_header(head, _CACHE_MAGIC, _HEADER, _CACHE_VERSION)
    if flags & ~_FLAG_CONFIDENCE:
        raise FormatError(f"unsupported flags {flags:#x}")
    rb = _row_bytes(n)
    bits_len = m * rb
    conf_len = m * n * 4 if flags & _FLAG_CONFIDENCE else 0
    _check_size(size, _HEADER.size + bits_len + conf_len, "cache payload")
    bits = _map_block(path, "u1", (m, rb), _HEADER.size)
    mask = _pad_mask(n)
    if mask and m and np.any(bits[:, -1] & mask):
        raise FormatError("nonzero padding bits in stored rows")
    confidence = None
    if flags & _FLAG_CONFIDENCE:
        confidence = _map_block(path, "<f4", (m, n), _HEADER.size + bits_len)
    return AccuracyCache(m, n, bits, confidence)


def _write_converted(
    path: str | Path, header: bytes, values: np.ndarray, dtype: str
) -> None:
    """``header``, then ``values`` as ``dtype`` a chunk at a time: no
    full-length converted copy."""
    with _replacing_writer(path) as fh:
        fh.write(header)
        for lo in range(0, values.size, _WRITE_CHUNK):
            fh.write(values[lo : lo + _WRITE_CHUNK].astype(dtype, copy=False).data)


def save_permutation(perm: Permutation, path: str | Path) -> None:
    header = _IO_HEADER.pack(_PERM_MAGIC, _IO_VERSION, len(perm))
    # never negative, so its int64 bytes are the stored uint64 ones
    _write_converted(path, header, perm.order, "<i8")


def load_permutation(path: str | Path) -> Permutation:
    payload = _read_array_file(path, _PERM_MAGIC, "<u8")
    return Permutation(payload.astype(np.int64))


def save_sums(sums: np.ndarray, path: str | Path) -> None:
    sums = np.ravel(sums)
    header = _IO_HEADER.pack(_SUMS_MAGIC, _IO_VERSION, sums.size)
    _write_converted(path, header, sums, "<f8")


def load_sums(path: str | Path) -> np.ndarray:
    return _read_array_file(path, _SUMS_MAGIC, "<f8").copy()


def _read_array_file(path: str | Path, magic: bytes, dtype: str) -> np.ndarray:
    data = Path(path).read_bytes()
    (length,) = _unpack_header(data, magic, _IO_HEADER, _IO_VERSION)
    expected = _IO_HEADER.size + length * np.dtype(dtype).itemsize
    _check_size(len(data), expected, "payload")
    return np.frombuffer(data, dtype=dtype, count=length, offset=_IO_HEADER.size)


def import_csv(path: str | Path, has_confidence: bool = False) -> AccuracyCache:
    """Build a cache from a CSV of 0/1 entries (or [0,1] reals).

    With ``has_confidence`` every value v in [0, 1] is kept as confidence and
    binarized as v >= 0.5; otherwise entries must be exactly 0 or 1.
    """
    text = Path(path).read_text()
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    width = len(lines[0][1].split(",")) if lines else 0
    confidence = np.empty((len(lines), width), np.float32) if has_confidence else None
    rule = "outside [0, 1]" if has_confidence else "is not 0 or 1"

    def rows():
        for i, (lineno, line) in enumerate(lines):
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
            yield values >= 0.5  # float64: 0.49999999 rounds to 0.5 in float32

    return AccuracyCache.from_rows(width, rows(), confidence)
