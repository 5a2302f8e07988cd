"""Warehouse test fixtures.

``REPRO_TEST_BACKEND`` selects the storage backend the store fixtures
write with (default ``npz``). CI runs the suite once per backend; the
parquet leg installs pyarrow so the real Arrow path is exercised (on
machines without pyarrow the backend's npz fallback is what gets
tested, which is itself a supported configuration).
"""

import os

import pytest


@pytest.fixture()
def store_backend():
    return os.environ.get("REPRO_TEST_BACKEND", "npz")


@pytest.fixture(params=["plain", "sharded-inprocess"])
def open_service(request, store_backend):
    """Factory ``open_service(root, tables=None, **kwargs)`` for a
    warehouse front over the parametrized topology.

    Everything the front promises independently of where sample rows
    live — caching, contracts, orphan adoption, retention — is asserted
    once and run over both. ``open_service.topology`` names the current
    one for the few assertions that are topology-specific. Fronts are
    closed at teardown.
    """
    from repro.warehouse import ShardedWarehouseService, WarehouseService

    opened = []

    def factory(root, tables=None, **kwargs):
        if request.param == "plain":
            service = WarehouseService(
                root, tables, backend=store_backend, **kwargs
            )
        else:
            service = ShardedWarehouseService(
                root, tables, shards=2, backend=store_backend,
                workers="inprocess", **kwargs
            )
        opened.append(service)
        return service

    factory.topology = request.param
    yield factory
    for service in opened:
        service.close()
