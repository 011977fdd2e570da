"""Bit-exact storage of named parameter tensors.

File format (".cwts", all integers unsigned 32-bit little-endian):

    magic "CWTS" | version (=1) | entry count
    per entry: name length | name bytes (ASCII) | rank | extents... | payload
    trailer: CRC32 of every preceding byte

Tensor payloads are raw float32 little-endian values, row major. The
reserved entry name ``__meta__`` carries archive metadata instead of a
tensor: its payload is UTF-8 ``key=value`` lines, one per line, with rank 1
and a single extent equal to the byte length. No two entries share a name.

Fixture initialization uses a fixed 64-bit linear congruential generator so
identical archives can be reproduced anywhere:

    state starts at seed; per draw: state = (state * 6364136223846793005
                                             + 1442695040888963407) mod 2^64
    value = ((state >> 11) / 2^53) * 0.2 - 0.1, stored as float32
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"CWTS"
VERSION = 1
META_ENTRY = "__meta__"

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_U64 = (1 << 64) - 1


class ArchiveError(Exception):
    """A weight archive cannot be saved or loaded; the message says why."""


def _check_name(name: str):
    if not name:
        raise ArchiveError("tensor names must be non-empty")
    if not name.isascii():
        raise ArchiveError(f"tensor name {name!r} is not ASCII")


class WeightArchive:
    """Ordered map of parameter name -> float32 tensor, plus metadata."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None,
                 metadata: dict[str, str] | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        self.metadata: dict[str, str] = dict(metadata or {})
        for name, tensor in (tensors or {}).items():
            self.put(name, tensor)

    def put(self, name: str, tensor: np.ndarray):
        _check_name(name)
        if name == META_ENTRY:
            raise ArchiveError(f"{META_ENTRY!r} is reserved for metadata")
        if name in self._tensors:
            raise ArchiveError(f"duplicate tensor name {name!r}")
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        if arr.size == 0:
            raise ArchiveError(f"tensor {name!r} is empty")
        self._tensors[name] = arr

    def get(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightArchive):
            return NotImplemented
        if self.metadata != other.metadata:
            return False
        if self.names() != other.names():
            return False
        return all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self._tensors.values(), other._tensors.values()))


def _parse_metadata(text: str) -> dict[str, str]:
    return dict(line.partition("=")[::2] for line in text.splitlines())


def _pack_entry(name: str, rank: int, extents: tuple[int, ...],
                payload: bytes) -> bytes:
    encoded = name.encode("ascii")
    head = struct.pack("<I", len(encoded)) + encoded
    head += struct.pack("<I", rank) + struct.pack(f"<{rank}I", *extents)
    return head + payload


def save(archive: WeightArchive, path: str | Path) -> None:
    """Write the archive; the trailing CRC32 covers every preceding byte.

    Raises ArchiveError, before writing, for metadata that would not load
    back as written: a key holding ``=``, or a line break anywhere."""
    lines = "".join(f"{k}={v}\n" for k, v in archive.metadata.items())
    if _parse_metadata(lines) != archive.metadata:
        raise ArchiveError(
            f"metadata {archive.metadata!r} would not load back: keys may not "
            "hold '=', and neither keys nor values a line break")
    entries = []
    if archive.metadata:
        payload = lines.encode("utf-8")
        entries.append(_pack_entry(META_ENTRY, 1, (len(payload),), payload))
    for name in archive.names():
        tensor = archive.get(name)
        entries.append(_pack_entry(name, tensor.ndim, tensor.shape,
                                   tensor.astype("<f4").tobytes()))
    body = MAGIC + struct.pack("<II", VERSION, len(entries)) + b"".join(entries)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load(path: str | Path) -> WeightArchive:
    """Read an archive, validating magic, version and checksum first.

    Entries are read through one view of the file bytes; only the tensors
    are copied out, so they are writable and own their memory.
    """
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC):
        raise ArchiveError(f"file is only {len(data)} bytes")
    if data[:len(MAGIC)] != MAGIC:
        raise ArchiveError(f"bad magic {data[:len(MAGIC)]!r}")
    if len(data) < 12:
        raise ArchiveError(f"file is only {len(data)} bytes")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        raise ArchiveError(f"unsupported version {version}")
    body = memoryview(data)[:-4]
    stored = struct.unpack_from("<I", data, len(body))[0]
    actual = zlib.crc32(body)
    if stored != actual:
        raise ArchiveError(
            f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")

    pos = 8

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise ArchiveError(
                f"archive ends at byte {len(body)}, needed {pos + n}")
        pos += n
        return body[pos - n:pos]

    def u32s(count: int) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}I", take(4 * count))

    def text(n: int, encoding: str, what: str) -> str:
        try:
            return str(take(n), encoding)
        except UnicodeDecodeError:
            raise ArchiveError(f"{what} is not {encoding}") from None

    tensors: dict[str, np.ndarray] = {}
    metadata: dict[str, str] = {}
    names: set[str] = set()
    for _ in range(u32s(1)[0]):
        length = u32s(1)[0]
        name = text(length, "ascii", f"entry name at byte {pos}")
        if name in names:
            raise ArchiveError(f"duplicate entry name {name!r}")
        names.add(name)
        rank = u32s(1)[0]
        extents = u32s(rank)
        if name == META_ENTRY:
            if rank != 1:
                raise ArchiveError(f"{META_ENTRY!r} must have rank 1, got {rank}")
            metadata = _parse_metadata(text(extents[0], "utf-8", META_ENTRY))
            continue
        payload = take(4 * math.prod(extents))
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(extents).copy()
    if pos != len(body):
        raise ArchiveError(
            f"{len(body) - pos} trailing bytes after last entry")
    return WeightArchive(tensors, metadata)


def _lcg_uniform(seed: int, count: int) -> np.ndarray:
    """`count` draws in [-0.1, 0.1) as float32, from the recurrence's closed
    form state_i = A^i * seed + C * (A^0 + ... + A^(i-1)) mod 2^64, which
    uint64 products and sums give exactly: they wrap mod 2^64."""
    powers = np.full(count + 1, LCG_MULTIPLIER, dtype=np.uint64)
    powers[0] = 1
    powers = np.multiply.accumulate(powers)  # A^0 .. A^count
    states = (powers[1:] * np.uint64(seed & _U64)
              + np.uint64(LCG_INCREMENT) * np.add.accumulate(powers[:-1]))
    uniform = (states >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return (uniform * 0.2 - 0.1).astype(np.float32)


def random_init(spec: list[tuple[str, tuple[int, ...]]], seed: int,
                metadata: dict[str, str] | None = None) -> WeightArchive:
    """Archive of uniform [-0.1, 0.1) tensors from the documented generator.

    Values are drawn in spec order, filling each tensor row-major, so the
    result is a pure function of (spec, seed).
    """
    total = sum(int(np.prod(shape)) for _, shape in spec)
    draws = _lcg_uniform(seed, total)
    meta = {"initializer": "lcg64", "seed": str(seed)}
    meta.update(metadata or {})
    archive = WeightArchive(metadata=meta)
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape))
        archive.put(name, draws[offset:offset + size].reshape(shape))
        offset += size
    return archive
