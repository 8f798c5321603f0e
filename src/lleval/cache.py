"""Bit-packed outcome cache and its on-disk formats.

The cache records, for m models and n samples, whether model i got sample j
right.  Rows are packed 8 columns per byte (column j sits at bit j % 8 of
byte j // 8, least-significant bit first); padding bits past column n are
always zero.  An optional float32 matrix carries per-cell confidences.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_CACHE_MAGIC = b"LLBC"
_CACHE_VERSION = 1
_FLAG_CONFIDENCE = 1 << 0
_HEADER = struct.Struct("<4sIQQQ")  # magic, version, m, n, flags

_INT32_MAX = np.iinfo(np.int32).max


class FormatError(ValueError):
    """A persisted artifact violates its binary format."""


def _row_bytes(num_samples: int) -> int:
    return (num_samples + 7) // 8


def _pad_mask(num_samples: int) -> int:
    # bits of the last row byte that fall past column n
    return (0xFF << (num_samples % 8)) & 0xFF if num_samples % 8 else 0


@dataclass(frozen=True, eq=False)
class AccuracyCache:
    """Immutable m*n boolean outcome matrix, packed row-major."""

    num_models: int
    num_samples: int
    bits: np.ndarray
    confidence: np.ndarray | None = None

    def __post_init__(self) -> None:
        m, n = self.num_models, self.num_samples
        if m < 0 or n < 0:
            raise ValueError("cache dimensions must be non-negative")
        bits = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8))
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
            )
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
    def from_dense(
        cls, matrix: np.ndarray, confidence: np.ndarray | None = None
    ) -> "AccuracyCache":
        dense = np.asarray(matrix)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-dimensional")
        if dense.dtype != bool:
            vals = np.unique(dense)
            if vals.size and not np.isin(vals, (0, 1)).all():
                raise ValueError("dense matrix entries must be 0 or 1")
            dense = dense.astype(bool)
        m, n = dense.shape
        bits = np.packbits(dense.astype(np.uint8), axis=1, bitorder="little")
        return cls(m, n, bits, confidence)

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

    def column(self, j: int) -> np.ndarray:
        """Boolean outcomes of every model on sample j."""
        if not 0 <= j < self.num_samples:
            raise IndexError(f"column {j} out of range")
        return ((self.bits[:, j // 8] >> (j % 8)) & 1).view(np.bool_)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(
            self.bits, axis=1, count=self.num_samples, bitorder="little"
        ).view(np.bool_)

    def column_sums(self, use_confidence: bool = False) -> np.ndarray:
        """Per-column totals: popcounts, or confidence sums when requested.

        The binary path accumulates one row at a time so the only persistent
        scratch is the length-n accumulator.
        """
        if use_confidence:
            if self.confidence is None:
                raise ValueError("cache has no confidence matrix")
            return self.confidence.sum(axis=0, dtype=np.float64)
        dtype = np.int32 if self.num_models <= _INT32_MAX else np.int64
        sums = np.zeros(self.num_samples, dtype=dtype)
        for i in range(self.num_models):
            row = np.unpackbits(
                self.bits[i], count=self.num_samples, bitorder="little"
            )
            np.add(sums, row, out=sums)
        return sums

    # -- growth ------------------------------------------------------------

    def append_row(
        self, row: np.ndarray, confidence_row: np.ndarray | None = None
    ) -> "AccuracyCache":
        """New cache with one more model; existing rows are untouched."""
        row = np.asarray(row)
        if row.shape != (self.num_samples,):
            raise ValueError(
                f"row length {row.shape} does not match {self.num_samples} samples"
            )
        packed = np.packbits(
            row.astype(bool).astype(np.uint8), bitorder="little"
        )
        bits = np.vstack([self.bits, packed[None, :]]) if self.num_models else packed[None, :]
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
        col = np.asarray(col)
        if col.shape != (self.num_models,):
            raise ValueError(
                f"column length {col.shape} does not match {self.num_models} models"
            )
        m, n = self.num_models, self.num_samples
        new_rb = _row_bytes(n + 1)
        bits = np.zeros((m, new_rb), dtype=np.uint8)
        bits[:, : _row_bytes(n)] = self.bits
        bits[:, n // 8] |= col.astype(bool).astype(np.uint8) << (n % 8)
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
    """Bijection on item indices; ``order[r]`` is the item placed at rank r."""

    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.ascontiguousarray(np.asarray(self.order))
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


# -- persistence -----------------------------------------------------------


@contextlib.contextmanager
def _replacing_writer(path: str | Path):
    """Handle on a temporary file that replaces ``path`` only on success, so
    a failed write keeps the old file and mapped readers never see it shrink."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path: str | Path, rows: Iterable[Sequence]) -> None:
    """CSV rows (CR LF line ends) written in one piece by ``_replacing_writer``."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    with _replacing_writer(path) as fh:
        fh.write(text.getvalue().encode())


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
    with _replacing_writer(path) as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, m, n, flags))
        fh.write(cache.bits.tobytes())
        if cache.confidence is not None:
            fh.write(cache.confidence.astype("<f4").tobytes())


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


def import_csv(path: str | Path, has_confidence: bool = False) -> AccuracyCache:
    """Build a cache from a CSV of 0/1 entries (or [0,1] reals).

    With ``has_confidence`` every value v in [0, 1] is kept as confidence and
    binarized as v >= 0.5; otherwise entries must be exactly 0 or 1.
    """
    text = Path(path).read_text()
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        values = []
        for colno, tok in enumerate(tokens, start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"row {lineno}, column {colno}: not a number: {tok.strip()!r}"
                ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"row {lineno}: ragged row, expected {width} values, got {len(values)}"
            )
        for colno, v in enumerate(values, start=1):
            if has_confidence:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"row {lineno}, column {colno}: value {v} outside [0, 1]"
                    )
            elif v not in (0.0, 1.0):
                raise ValueError(
                    f"row {lineno}, column {colno}: value {v} is not 0 or 1"
                )
        rows.append(values)
    if not rows:
        return AccuracyCache.from_dense(np.zeros((0, 0), dtype=bool))
    matrix = np.array(rows, dtype=np.float64)
    if has_confidence:
        return AccuracyCache.from_dense(matrix >= 0.5, matrix.astype(np.float32))
    return AccuracyCache.from_dense(matrix.astype(bool))
