"""Constructor shim for the sharded topology.

There is one warehouse front,
:class:`~repro.warehouse.service.WarehouseService`; this class only
starts it over a
:class:`~repro.warehouse.scatter.ScatterGatherTopology`. Deployments
with ``--shards 1`` should not construct it at all — the CLI routes
them to the plain ``WarehouseService`` so the single-store layout stays
byte-identical to previous releases.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..engine.table import Table
from .scatter import ScatterGatherTopology
from .service import WarehouseService

__all__ = ["ShardedWarehouseService"]


class ShardedWarehouseService(WarehouseService):
    """A :class:`WarehouseService` whose samples live on N shard
    workers; see :class:`ScatterGatherTopology` for the arguments.
    Close it (or use it as a context manager) to stop the workers."""

    def __init__(
        self,
        store,
        tables: Optional[Mapping[str, Table]] = None,
        shards: Optional[int] = None,
        backend=None,
        cache_size: int = 128,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        workers: str = "process",
    ) -> None:
        topology = ScatterGatherTopology(
            store,
            shards=shards,
            backend=backend,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
            workers=workers,
        )
        self.clients = topology.clients
        self.num_shards = topology.num_shards
        self._start(topology, tables, cache_size)
