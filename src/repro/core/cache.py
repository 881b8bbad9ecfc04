"""The content-addressed cache of trained models and compression sweeps.

Training seven models on six datasets dominates the cost of regenerating
the paper's tables; caching trained models on disk makes each bench
incremental.  Keys are human-readable strings hashed into file names;
values must be picklable.  A key may also own an append-only journal of
checksummed records beside its entry (stream sessions log each push
there between full snapshots).

:class:`DiskCache` is what the task-graph scheduler and
:class:`~repro.api.service.ApiService` read and write through
(``contains`` / ``get`` / ``put`` / ``remove``): content-addressed files,
the result-coordination medium of the queue execution backend, plus a
memory layer of the values this process ``put``.  That layer is an
:class:`~repro.memo.LRU` bounded at :data:`MEMORY_BYTES`, each value
charged the bytes of its disk entry, so a long-running daemon stays flat
in memory.  A disk hit comes back as memory-mapped views and is not kept:
each mapping holds an open file descriptor.  ``DiskCache(None)`` keeps
the memory layer only, unbounded because it holds the only copy, for
cacheless runs and tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pickle
import struct
import zlib
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.compression.base import CompressionResult
from repro.core.results import ScenarioRecord
from repro.datasets.timeseries import TimeSeries
from repro.memo import LRU
from repro.obs.metrics import inc as _metric_inc

#: sentinel distinguishing "no cached value" from a cached ``None``
MISSING = object()

#: exceptions a corrupt or stale entry raises on load.  A wrong magic, an
#: unknown version or tag, or a truncated file raise ``ValueError``; an
#: unknown dataclass name ``KeyError``, stale dataclass fields or an unknown
#: dtype ``TypeError``.  A garbage pickled column (a trained model) raises
#: ``UnpicklingError``/``EOFError``/``ValueError``/``IndexError``, a stale
#: one ``AttributeError``/``ImportError``/``KeyError`` (renamed classes,
#: removed modules).
CORRUPT_ENTRY_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ValueError,
    IndexError,
    ImportError,
    KeyError,
    TypeError,
)


# -- columnar on-disk format --------------------------------------------------
#
# Cache entries are written as a self-describing columnar container instead
# of one opaque pickle, so array payloads can be served as zero-copy views
# over a memory mapping:
#
#   magic "RPROCOL1" (8)  |  header length, uint64 LE (8)
#   JSON header: {"version", "tree", "columns": [[offset, nbytes], ...]}
#   zero padding to a 64-byte boundary
#   column 0 bytes | pad to 64 | column 1 bytes | pad to 64 | ...
#
# The header's "tree" mirrors the value's structure; leaves are JSON
# scalars or tagged references into the column table: "a" (ndarray with
# dtype/shape), "b" (bytes), "p" (pickle fallback for anything the format
# does not model, e.g. trained forecasters).  Containers ("l"/"t"/"d") and
# registered dataclasses ("o": TimeSeries, CompressionResult, ...) nest.
# Column offsets are relative to the 64-byte-aligned data start, and every
# column begins on a 64-byte boundary, so an ndarray leaf is materialized
# as ``mapping[begin:end].view(dtype).reshape(shape)`` — a view into the
# OS page cache, no deserialization copy and no pickle on the read path.
#
# Versioning and recovery: an unknown magic (a file this format did not
# write, such as a planted pickle) and any structural inconsistency —
# unknown header version or tag, out-of-bounds column, truncated file —
# raise one of ``CORRUPT_ENTRY_ERRORS``, which :meth:`DiskCache.get`
# converts into delete-and-recompute.  No pickle is read from a file this
# format did not write.

_MAGIC = b"RPROCOL1"
_FORMAT_VERSION = 1
_ALIGNMENT = 64

#: dataclasses encoded field-by-field so their array payloads stay columnar
_ADAPTED = {cls.__name__: cls
            for cls in (TimeSeries, CompressionResult, ScenarioRecord)}


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


#: leaf types a flat list or tuple encodes as ``{"s": v}`` nodes in one pass
#: (exact types: a numpy scalar subclasses float but pickles instead)
_PLAIN_SCALARS = frozenset({type(None), bool, int, float, str})


def _encode(value: Any, columns: list[bytes]) -> Any:
    """Build the header tree for ``value``, appending binary columns."""
    if isinstance(value, np.generic):
        # numpy scalars round-trip through pickle so they come back with
        # their exact type, not coerced to a python float/int
        columns.append(pickle.dumps(value))
        return {"p": len(columns) - 1}
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"s": value}
    if isinstance(value, np.ndarray) and not (value.dtype.hasobject
                                              or value.dtype.names):
        data = np.ascontiguousarray(value)
        columns.append(data.tobytes())
        return {"a": [len(columns) - 1, data.dtype.str, list(data.shape)]}
    if isinstance(value, (bytes, bytearray)):
        columns.append(bytes(value))
        return {"b": len(columns) - 1}
    if isinstance(value, (list, tuple)):
        tag = "l" if isinstance(value, list) else "t"
        if _PLAIN_SCALARS.issuperset(map(type, value)):
            return {tag: [{"s": item} for item in value]}
        return {tag: [_encode(item, columns) for item in value]}
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return {"d": {k: _encode(v, columns) for k, v in value.items()}}
    cls = _ADAPTED.get(type(value).__name__)
    if cls is not None and type(value) is cls:
        return {"o": [type(value).__name__,
                      {f.name: _encode(getattr(value, f.name), columns)
                       for f in dataclasses.fields(cls)}]}
    columns.append(pickle.dumps(value))
    return {"p": len(columns) - 1}


def _dump_columnar(value: Any) -> bytes:
    """Serialize ``value`` into the columnar container format."""
    columns: list[bytes] = []
    tree = _encode(value, columns)
    offsets = []
    cursor = 0
    for column in columns:
        offsets.append([cursor, len(column)])
        cursor = _align(cursor + len(column))
    header = json.dumps({"version": _FORMAT_VERSION, "tree": tree,
                         "columns": offsets}).encode()
    data_start = _align(len(_MAGIC) + 8 + len(header))
    blob = bytearray(data_start + (offsets[-1][0] + offsets[-1][1]
                                   if offsets else 0))
    blob[:8] = _MAGIC
    blob[8:16] = struct.pack("<Q", len(header))
    blob[16:16 + len(header)] = header
    for (offset, _), column in zip(offsets, columns):
        blob[data_start + offset:data_start + offset + len(column)] = column
    return bytes(blob)


def _decode(node: Any, column: Callable[[int], np.ndarray]) -> Any:
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"malformed cache entry node: {node!r}")
    (tag, body), = node.items()
    if tag == "s":
        return body
    if tag == "a":
        index, dtype, shape = body
        return column(index).view(np.dtype(dtype)).reshape(shape)
    if tag == "b":
        return column(body).tobytes()
    if tag == "l":
        return [_decode(item, column) for item in body]
    if tag == "t":
        return tuple(_decode(item, column) for item in body)
    if tag == "d":
        return {key: _decode(item, column) for key, item in body.items()}
    if tag == "o":
        name, fields = body
        cls = _ADAPTED[name]  # KeyError -> corrupt/stale entry
        return cls(**{key: _decode(item, column) for key, item in fields.items()})
    if tag == "p":
        return pickle.loads(column(body).tobytes())
    raise ValueError(f"unknown cache entry tag {tag!r}")


def _load_columnar(path: str) -> tuple[Any, int]:
    """Read a columnar entry; returns ``(value, bytes_read)``.

    Array leaves in the returned value are views into a read-only
    ``np.memmap`` of the file (kept alive through each view's ``.base``
    chain), so no column is copied or unpickled on this path.
    """
    mapping = np.memmap(path, dtype=np.uint8, mode="r")
    if mapping.size < 16 or mapping[:8].tobytes() != _MAGIC:
        raise ValueError(f"not a columnar cache entry: {path}")
    (header_length,) = struct.unpack("<Q", mapping[8:16].tobytes())
    if 16 + header_length > mapping.size:
        raise ValueError(f"truncated cache entry header: {path}")
    header = json.loads(mapping[16:16 + header_length].tobytes().decode())
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported cache format version {header.get('version')!r}")
    data_start = _align(16 + header_length)
    table = header["columns"]

    def column(index: int) -> np.ndarray:
        offset, nbytes = table[index]
        begin = data_start + offset
        if begin + nbytes > mapping.size:
            raise ValueError(f"truncated cache entry column: {path}")
        return mapping[begin:begin + nbytes]

    return _decode(header["tree"], column), int(mapping.size)


# -- journals -----------------------------------------------------------------
#
# A key's journal is a file of framed records beside its entry:
#
#   payload length, uint32 LE (4) | CRC32 of the payload, uint32 LE (4) |
#   CRC32 of the 8 bytes before it, uint32 LE (4)
#   payload bytes
#
# Records are only ever appended.  A crash mid-append leaves a short final
# record, which a reader drops (and cuts from the file).  The head's own
# checksum tells that apart from damage: a flipped length that points past
# the end of the file fails it, so a damaged middle record is refused
# instead of being read as a torn tail that would cut every whole record
# after it.  A whole record whose payload checksum fails is damage too.
# A journal written with the earlier 8-byte frame fails the head check and
# is refused the same way, so its session is discarded, not misread.

#: the frame before each journal record's payload: length, payload CRC32,
#: CRC32 of those two fields
JOURNAL_FRAME = struct.Struct("<III")
_JOURNAL_HEAD = struct.Struct("<II")


class CorruptJournal(ValueError):
    """A journal that cannot be replayed as written: a record head or
    payload whose checksum fails, or records that do not continue each
    other."""


#: bytes of the values a directory-backed :class:`DiskCache` keeps in
#: memory, each charged the size of its disk entry; beyond it the least
#: recently used are dropped from memory (their files stay)
MEMORY_BYTES = 64 * 2**20


class DiskCache:
    """A key -> columnar file cache with a bounded memory layer.

    Entries are stored in the zero-copy columnar format above; array
    payloads come back as memory-mapped views.  A file whose magic does
    not match is a corrupt entry.  Journals (:meth:`append`,
    :meth:`journal`) live on disk only.
    """

    def __init__(self, directory: str | None) -> None:
        self.directory = directory
        # a memory-only cache holds the only copy of each value, so it
        # never drops one; read at construction so tests can shrink it
        self._memory = LRU(MEMORY_BYTES if directory is not None
                           else math.inf)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: str, suffix: str = ".pkl") -> str:
        digest = hashlib.sha1(key.encode()).hexdigest()[:24]
        return os.path.join(self.directory, f"{digest}{suffix}")

    def contains(self, key: str) -> bool:
        """Whether an entry exists in memory or on disk (no deserialization).

        A positive answer is a fast existence probe, not a guarantee that
        the disk entry is readable: :meth:`get` may still report a miss for
        a corrupt file, so callers must be prepared to recompute.
        """
        if key in self._memory:
            return True
        return self.directory is not None and os.path.exists(self._path(key))

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for ``key``, or ``default`` on a miss.

        A memory-layer hit returns before any filesystem access — no path
        construction, no stat, no open — and marks the key recently used.
        Disk hits are read through the columnar zero-copy path, counted in
        ``cache.bytes_read`` and not kept in memory; corrupt entries are
        deleted and reported as misses.
        """
        value = self._memory.get(key, MISSING)
        if value is not MISSING:
            _metric_inc("cache.hit_memory")
            return value
        if self.directory is not None:
            path = self._path(key)
            try:
                value, bytes_read = _load_columnar(path)
            except CORRUPT_ENTRY_ERRORS:
                # stale or corrupt entry: drop it and recompute; another
                # process may have removed the file first
                _metric_inc("cache.corrupt")
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            except FileNotFoundError:
                pass  # no entry, or removed by another process
            else:
                _metric_inc("cache.hit_disk")
                _metric_inc("cache.bytes_read", bytes_read)
                return value
        _metric_inc("cache.miss")
        return default

    def put(self, key: str, value: Any) -> int:
        """Store ``value`` under ``key`` in memory and (atomically) on disk.

        Returns the bytes written to disk (0 for a memory-only cache),
        which is also what the value costs the memory layer.
        The temporary file is pid-suffixed so two processes sharing one
        cache directory cannot clobber each other's half-written entry,
        and it is removed if serialization fails partway — a failed ``put``
        never leaves a stray ``.tmp``, a torn final file, or a phantom
        in-memory entry behind.
        """
        written = 0
        if self.directory is not None:
            temporary = f"{self._path(key)}.{os.getpid()}.tmp"
            try:
                blob = _dump_columnar(value)
                with open(temporary, "wb") as handle:
                    handle.write(blob)
            except BaseException:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(temporary)
                raise
            os.replace(temporary, self._path(key))
            written = len(blob)
        self._memory.put(key, value, written)
        _metric_inc("cache.put")
        return written

    def append(self, key: str, payload: bytes) -> int:
        """Append one framed record to ``key``'s journal; returns the
        bytes written (frame included).  Needs a cache directory."""
        head = _JOURNAL_HEAD.pack(len(payload), zlib.crc32(payload))
        frame = head + struct.pack("<I", zlib.crc32(head))
        with open(self._path(key, ".journal"), "ab") as handle:
            handle.write(frame + payload)
        return JOURNAL_FRAME.size + len(payload)

    def journal(self, key: str) -> tuple[list[bytes], int]:
        """The payloads of ``key``'s journal, oldest first, and the bytes
        they take on disk; ``([], 0)`` when there is none.

        A short final record (a torn append: an incomplete head, or a
        sound head whose payload runs past the end) is dropped, and the
        file is cut back to the last whole record so the next append
        continues a well-formed journal.  A head or a whole record whose
        checksum fails raises :class:`CorruptJournal` and leaves the file
        as it is.
        """
        if self.directory is None:
            return [], 0
        path = self._path(key, ".journal")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], 0
        payloads = []
        offset = 0
        while offset + JOURNAL_FRAME.size <= len(data):
            length, checksum, head_checksum = JOURNAL_FRAME.unpack_from(
                data, offset)
            if zlib.crc32(data[offset:offset + _JOURNAL_HEAD.size]) != \
                    head_checksum:
                raise CorruptJournal(
                    f"journal record head at byte {offset} of {path} fails "
                    "its checksum")
            start = offset + JOURNAL_FRAME.size
            if start + length > len(data):
                break
            payload = data[start:start + length]
            if zlib.crc32(payload) != checksum:
                raise CorruptJournal(
                    f"journal record at byte {offset} of {path} fails its "
                    "checksum")
            payloads.append(payload)
            offset = start + length
        if offset < len(data):
            os.truncate(path, offset)
            _metric_inc("cache.journal_torn")
        return payloads, offset

    def remove_journal(self, key: str) -> None:
        """Delete ``key``'s journal (its records are in a newer entry)."""
        if self.directory is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(key, ".journal"))

    def remove(self, key: str) -> None:
        """Drop ``key`` from memory AND disk, journal included; a no-op
        on a miss.

        Most cache entries are content-addressed and immutable, so they
        never need removal — but stream-session snapshots are mutable
        state keyed by session id, and a discarded or expired session
        must not be restorable from a stale snapshot.  Removal is
        race-safe: another process deleting the same file first is fine.
        """
        self._memory.pop(key)
        if self.directory is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(key))
            self.remove_journal(key)
        _metric_inc("cache.remove")
