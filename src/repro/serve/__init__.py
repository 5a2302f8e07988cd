"""Async serving layer: network front + background maintenance.

This package puts the warehouse on the wire without any new
dependencies:

* :class:`~repro.serve.service.AsyncWarehouseService` — asyncio wrapper
  over the thread-safe :class:`~repro.warehouse.service.WarehouseService`
  with a bounded worker pool, back-pressure, queue timeouts, and
  graceful draining;
* :class:`~repro.serve.http.WarehouseHTTPServer` — HTTP/1.1 on stdlib
  asyncio streams (``POST /query``, ``GET /samples``, ``GET /stats``,
  ``GET /healthz``); every ``/query`` response embeds an accuracy
  contract and honors ``max_cv`` / ``max_staleness`` constraints;
* :class:`~repro.serve.daemon.MaintenanceDaemon` — async task that
  watches a directory of dropped batch files and drives streaming
  refreshes (with full-rebuild escalation) that hot-swap versions in
  the live service;
* :mod:`~repro.serve.worker` — shard worker processes for the sharded
  scatter-gather warehouse: each owns one ``shard-NN/`` sub-store
  behind its own :class:`~repro.warehouse.service.WarehouseService`
  and answers partial-aggregate / refresh requests from the front's
  :class:`~repro.warehouse.scatter.ScatterGatherTopology`.

See ``docs/ARCHITECTURE.md`` for where this layer sits and
``docs/API.md`` for the HTTP surface.
"""

from .daemon import BatchOutcome, MaintenanceDaemon
from .http import HTTPConnection, WarehouseHTTPServer, request
from .metrics_http import MetricsListener
from .service import AsyncWarehouseService, ServiceClosed, ServiceOverloaded
from .worker import (
    InProcessShardClient,
    ProcessShardClient,
    ShardServer,
    ShardWorkerError,
    worker_main,
)

__all__ = [
    "AsyncWarehouseService",
    "ServiceClosed",
    "ServiceOverloaded",
    "WarehouseHTTPServer",
    "HTTPConnection",
    "request",
    "MaintenanceDaemon",
    "BatchOutcome",
    "MetricsListener",
    "ShardServer",
    "ShardWorkerError",
    "ProcessShardClient",
    "InProcessShardClient",
    "worker_main",
]
