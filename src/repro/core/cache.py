"""Caches for trained models and compression sweeps, and their contract.

Training seven models on six datasets dominates the cost of regenerating
the paper's tables; caching trained models on disk makes each bench
incremental.  Keys are human-readable strings hashed into file names;
values must be picklable.

The :class:`Cache` protocol formalizes what the task-graph scheduler and
:class:`~repro.api.service.ApiService` actually require — the primitive
``contains`` / ``get`` / ``put`` triple, no ``compute`` closure — with
one implementation, :class:`DiskCache`: content-addressed files plus an
in-memory layer, the result-coordination medium of the queue execution
backend.  ``DiskCache(None)`` keeps the in-memory layer only, for
cacheless runs and tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import struct
from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.obs.metrics import inc as _metric_inc

#: sentinel distinguishing "no cached value" from a cached ``None``
MISSING = object()

#: exceptions a truncated or garbage pickle may raise on load.  Beyond the
#: obvious ``UnpicklingError``/``EOFError``, corrupt payloads surface as
#: ``ValueError``/``IndexError`` (mangled opcodes or frames), stale entries
#: from older code as ``AttributeError``/``ImportError``/``KeyError``
#: (renamed classes, removed modules, unknown extension codes).
CORRUPT_ENTRY_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ValueError,
    IndexError,
    ImportError,
    KeyError,
)


@runtime_checkable
class Cache(Protocol):
    """What the scheduler needs from a cache: probe, load, store.

    ``contains`` must be cheap (an existence check, not a load) and may
    answer ``True`` for an entry ``get`` later fails to read — callers
    recompute on that path.  ``get`` takes a caller-supplied default so a
    cached ``None`` is distinguishable from a miss.  ``put`` must be safe
    to call twice with the same key (keys are content hashes, so the
    bytes agree).
    """

    def contains(self, key: str) -> bool: ...

    def get(self, key: str, default: Any = None) -> Any: ...

    def put(self, key: str, value: Any) -> None: ...


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
# Versioning and recovery: readers reject an unknown magic by falling back
# to :func:`pickle.load` (pre-columnar entries keep working), and any
# structural inconsistency in a columnar entry — unknown header version or
# tag, out-of-bounds column, truncated file — raises one of
# ``CORRUPT_ENTRY_ERRORS``, which :meth:`DiskCache.get` already converts
# into delete-and-recompute.

_MAGIC = b"RPROCOL1"
_FORMAT_VERSION = 1
_ALIGNMENT = 64

#: dataclasses encoded field-by-field so their array payloads stay columnar
_ADAPTED_TYPES: dict[str, type] | None = None


def _adapters() -> dict[str, type]:
    """Name -> class for the dataclasses the format encodes structurally.

    Imported lazily: the record types live above this module in the import
    graph (they pull in compressors and metrics), so importing them at
    module load would be a cycle.
    """
    global _ADAPTED_TYPES
    if _ADAPTED_TYPES is None:
        from repro.compression.base import CompressionResult
        from repro.core.results import ScenarioRecord
        from repro.datasets.timeseries import TimeSeries
        _ADAPTED_TYPES = {
            "TimeSeries": TimeSeries,
            "CompressionResult": CompressionResult,
            "ScenarioRecord": ScenarioRecord,
        }
    return _ADAPTED_TYPES


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
    cls = _adapters().get(type(value).__name__)
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
        cls = _adapters()[name]  # KeyError -> corrupt/stale entry
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


class DiskCache:
    """A key -> columnar file cache with an in-memory layer.

    Entries are stored in the zero-copy columnar format above; array
    payloads come back as memory-mapped views.  Files that predate the
    format (or whose magic does not match) fall back to ``pickle.load``.
    """

    def __init__(self, directory: str | None) -> None:
        self.directory = directory
        self._memory: dict[str, Any] = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        digest = hashlib.sha1(key.encode()).hexdigest()[:24]
        return os.path.join(self.directory, f"{digest}.pkl")

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
        construction, no stat, no open.  Disk hits are read through the
        columnar zero-copy path (legacy entries through pickle) and the
        bytes consumed are counted in ``cache.bytes_read``; corrupt
        entries are deleted and reported as misses.
        """
        if key in self._memory:
            _metric_inc("cache.hit_memory")
            return self._memory[key]
        if self.directory is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    value, bytes_read = self._load(path)
                except CORRUPT_ENTRY_ERRORS:
                    # stale or corrupt entry: drop it and recompute; another
                    # process may have removed the file first
                    _metric_inc("cache.corrupt")
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(path)
                except FileNotFoundError:
                    pass  # removed between the existence check and the open
                else:
                    _metric_inc("cache.hit_disk")
                    _metric_inc("cache.bytes_read", bytes_read)
                    self._memory[key] = value
                    return value
        _metric_inc("cache.miss")
        return default

    @staticmethod
    def _load(path: str) -> tuple[Any, int]:
        """Load one disk entry, columnar when the magic matches."""
        with open(path, "rb") as handle:
            if handle.read(len(_MAGIC)) == _MAGIC:
                return _load_columnar(path)
            # legacy (pre-columnar) pickle entry
            handle.seek(0)
            value = pickle.load(handle)
            return value, handle.tell()

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in memory and (atomically) on disk.

        The temporary file is pid-suffixed so two processes sharing one
        cache directory cannot clobber each other's half-written entry,
        and it is removed if serialization fails partway — a failed ``put``
        never leaves a stray ``.tmp``, a torn final file, or a phantom
        in-memory entry behind.
        """
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
        self._memory[key] = value
        _metric_inc("cache.put")

    def remove(self, key: str) -> None:
        """Drop ``key`` from memory AND disk; a no-op on a miss.

        Most cache entries are content-addressed and immutable, so they
        never need removal — but stream-session snapshots are mutable
        state keyed by session id, and a discarded or expired session
        must not be restorable from a stale snapshot.  Removal is
        race-safe: another process deleting the same file first is fine.
        """
        self._memory.pop(key, None)
        if self.directory is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(key))
        _metric_inc("cache.remove")

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        value = self.get(key, MISSING)
        if value is MISSING:
            value = compute()
            self.put(key, value)
        return value

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        self._memory.clear()
