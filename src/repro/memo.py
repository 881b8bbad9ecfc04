"""A small memo keyed by an array's content.

The grid recomputes the same value from identical arrays: two codecs that
decode a split to the same series, or every Arima cell of a dataset asking
for the Fourier design of the same ticks.  A key built from the array's
bytes, rather than from the names of the cells that produced it, can
never return a value computed from other input.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

import numpy as np


class ContentMemo:
    """At most ``size`` values, keyed by an array's bytes plus parameters.

    The least recently used value is dropped first.  A lock guards the
    table, so batcher and pool threads may share one memo; the value is
    computed outside the lock.  Callers share the stored value, so it
    must not be mutated (mark arrays read-only in ``compute``).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"memo size must be positive, got {size}")
        self.size = size
        self._values: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, array: np.ndarray, params: Hashable,
            compute: Callable[[np.ndarray], Any]) -> Any:
        """The memoized ``compute(array)`` for ``array``'s content and
        ``params``, computing it on a miss."""
        array = np.ascontiguousarray(array, dtype=np.float64)
        key = (hashlib.blake2b(array.data, digest_size=16).digest(),
               array.shape, params)
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
        value = compute(array)
        with self._lock:
            self._values[key] = value
            while len(self._values) > self.size:
                self._values.popitem(last=False)
        return value
