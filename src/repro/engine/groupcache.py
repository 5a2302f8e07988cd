"""Per-version group-code cache.

Sample versions are immutable: once a :class:`~repro.engine.table.Table`
is published under ``(sample_name, version)``, its rows never change, so
the :class:`~repro.engine.groupby.GroupKeys` computed for any group-by
column tuple can be reused verbatim by every later query of the same
shape — the same idiom as the shape-keyed plan cache in
``aqp/session.py``, one layer down.

The cache is process-wide and keyed by a *cache token*
``(scope, sample_name, version)`` plus the group-by column tuple. The
scope disambiguates services that share one process but serve different
row sets under the same sample name and version — in-process shard
workers each see only their shard's slice, so each worker's
:class:`~repro.warehouse.service.WarehouseService` stamps tables with
its own scope (``shard-NN``). Tables without a token (base tables,
join outputs and other derived tables) bypass the cache entirely:
derived tables are new objects whose token defaults to ``None``, which
makes staleness impossible by construction.

A WHERE does not derive a table: the aggregate operators and the shard
partials keep the unfiltered, token-stamped table, take its full-table
codes from this cache and select rows by index
(:func:`repro.engine.groupby.selected_group_keys`), so filtered
queries over a sample version are served from here as well.

Invalidation is belt and braces: the version inside the token already
isolates hot-swapped samples (a new version is a new key; old entries
age out of the LRU bound), and ``AQPSession.clear_plan_cache()`` —
called on every table/sample registration — additionally clears the
whole cache.

Lookups and stores are counted in
``repro_groupcode_cache_total{result=hit|miss|evict}``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..concurrency import LRUCache
from ..obs import default_registry

__all__ = ["GroupCodeCache", "default_group_code_cache"]

_CACHE_COUNTER = default_registry().counter(
    "repro_groupcode_cache_total",
    "Group-code cache lookups and evictions by result",
    ["result"],
)


class GroupCodeCache:
    """Bounded, thread-safe LRU of ``GroupKeys`` per immutable version.

    Keys are ``(token, by)`` where ``token`` identifies one immutable
    table incarnation and ``by`` is the group-by column tuple. Values
    are shared, never copied — ``GroupKeys`` consumers treat the arrays
    as read-only (the engine never mutates gids/representatives).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lru = LRUCache(capacity)

    def get(self, token: Tuple, by: Tuple[str, ...]):
        entry = self._lru.get((token, tuple(by)))
        _CACHE_COUNTER.inc(result="miss" if entry is None else "hit")
        return entry

    def put(self, token: Tuple, by: Tuple[str, ...], keys) -> None:
        for _ in range(self._lru.put((token, tuple(by)), keys)):
            _CACHE_COUNTER.inc(result="evict")

    def invalidate(self, sample_name: Optional[str] = None) -> None:
        """Drop entries for one sample name (any scope/version), or all."""
        if sample_name is None:
            self._lru.clear()
        else:
            self._lru.remove_if(
                lambda key: len(key[0]) >= 2 and key[0][1] == sample_name
            )

    def counters(self) -> dict:
        return {**self._lru.counters(), "evictions": self._lru.evictions}

    def __len__(self) -> int:
        return len(self._lru)


_DEFAULT = GroupCodeCache()


def default_group_code_cache() -> GroupCodeCache:
    """The process-wide cache consulted by ``compute_group_keys``."""
    return _DEFAULT
