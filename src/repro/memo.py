"""A small memo keyed by an array's content, and the locked LRU under it.

The grid recomputes the same value from identical arrays: two codecs that
decode a split to the same series, or every Arima cell of a dataset asking
for the Fourier design of the same ticks.  A key built from the array's
bytes, rather than from the names of the cells that produced it, can
never return a value computed from other input.

:class:`LRU` is the one least-recently-used table in the package: the
memo charges each value 1, and :class:`~repro.core.cache.DiskCache`'s
memory layer charges each value the bytes of its disk entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

import numpy as np

#: sentinel distinguishing "not stored" from a stored ``None``
_MISSING = object()


class LRU:
    """Values whose weights total at most ``capacity``.

    Each value is charged a weight when stored.  Once the total passes
    ``capacity``, the least recently used values are dropped; a hit
    moves its key to the recent end.  A lock guards the table, so
    handler, batcher and pool threads may share one.
    """

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: total weight of the stored values
        self.weight = 0
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = \
            OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value stored under ``key``, or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, weight: float = 1) -> None:
        """Store ``value`` under ``key``, then drop the least recently
        used values (``value`` itself, if it alone is too heavy) until
        the total weight fits."""
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.weight -= previous[1]
            self._entries[key] = (value, weight)
            self.weight += weight
            while self.weight > self.capacity:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.weight -= dropped

    def pop(self, key: Hashable) -> None:
        """Drop ``key``; a no-op when it is not stored."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.weight -= entry[1]


class ContentMemo:
    """At most ``size`` values, keyed by an array's bytes plus parameters.

    The least recently used value is dropped first.  The value is
    computed outside the :class:`LRU`'s lock.  Callers share the stored
    value, so it must not be mutated (mark arrays read-only in
    ``compute``).
    """

    def __init__(self, size: int) -> None:
        self._values = LRU(size)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, array: np.ndarray, params: Hashable,
            compute: Callable[[np.ndarray], Any]) -> Any:
        """The memoized ``compute(array)`` for ``array``'s content and
        ``params``, computing it on a miss."""
        array = np.ascontiguousarray(array, dtype=np.float64)
        key = (hashlib.blake2b(array.data, digest_size=16).digest(),
               array.shape, params)
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            value = compute(array)
            self._values.put(key, value)
        return value
