"""Thread-safety primitives shared across layers.

A leaf module (stdlib only) so that the engine's group-code cache, the
shard workers and the warehouse front can all use the same
:class:`LRUCache` and :class:`RWLock` without importing each other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict

__all__ = ["LRUCache", "RWLock"]


class RWLock:
    """Reader-writer lock, writer-preferring.

    Many readers may hold the lock at once; a writer waits for them to
    drain and blocks new readers while waiting (no writer starvation).
    Not re-entrant: a reader that re-acquires while a writer waits
    deadlocks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class LRUCache:
    """Small thread-safe LRU map (``None`` is not a storable value:
    :meth:`get` returns it for a miss)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._entries[key] = value  # move to MRU end
            self.hits += 1
            return value

    def put(self, key, value) -> int:
        """Store ``value`` as most recent; returns how many entries
        the size bound evicted."""
        if self.capacity == 0:
            return 0
        evicted = 0
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def remove_if(self, predicate: Callable[[object], bool]) -> None:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            for key in [k for k in self._entries if predicate(k)]:
                del self._entries[key]

    def counters(self) -> Dict[str, int]:
        """Atomic ``{size, capacity, hits, misses}`` snapshot.

        ``hits``/``misses``/size are mutated together under the cache
        lock; reading them as separate attribute accesses (as `/stats`
        once did) can observe a torn view mid-lookup during a version
        hot-swap. Always report them via this method.
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
