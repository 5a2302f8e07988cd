"""Shard worker: one process, one shard, one ``WarehouseService``.

A sharded warehouse is a front plus N workers. Each worker owns
exactly one ``shard-NN/`` sub-store of a
:class:`~repro.warehouse.sharding.ShardedSampleStore` and wraps it in
a perfectly ordinary :class:`~repro.warehouse.service.WarehouseService`
— the same hot-swap, locking and maintenance machinery the unsharded
deployment uses, applied to the shard's slice of every sample. On top
of that service sits a tiny request loop (:class:`ShardServer`) that
answers the scatter-gather protocol:

``partials``
    Parse + :func:`~repro.warehouse.partials.decompose` the shipped
    SQL locally, snapshot the named sample under the service's read
    lock, and return per-group ``(count, total, total_sq)`` moment
    blocks (:func:`~repro.warehouse.partials.compute_partials`). The
    worker never finalizes — aggregation finishes at the front, on the
    merged moments.
``refresh``
    Fold a pre-partitioned batch (only rows whose strata this shard
    owns) into the shard's stored sample via the streaming maintainer,
    then hot-swap the new version live. Escalation to a full rebuild
    is *not* done here — a shard sees only its strata, so rebuild
    decisions belong to the front, which commits rebuilt pieces to the
    shard stores and asks for a ``reload``.
``reload`` / ``drop``
    Swap in the store's current version of samples the front committed
    out-of-band (builds, central rebuilds); stop serving a sample the
    front deleted (window retention).
``sample_meta`` / ``stats`` / ``ping``
    Metadata for the front's merged routing view, per-shard store
    accounting, and liveness.

Workers register an empty placeholder for each sample's base-table
name: a shard intentionally has no base rows (exact execution happens
at the front, which holds the real tables), but the service requires a
registered table before it serves a sample.

Process plumbing: :func:`worker_main` is the child entry point
(``multiprocessing`` "spawn" context — no inherited locks/fds), fed by
a duplex :class:`~multiprocessing.connection.Connection`;
:class:`ProcessShardClient` is the front's per-shard handle, safe for
one request at a time (the front serializes per shard and fans out
*across* shards). :class:`InProcessShardClient` runs the same
``ShardServer`` without a process boundary — the protocol stays
byte-identical, which is what the equivalence property tests exercise.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from pathlib import Path
from threading import Lock
from typing import Dict, Optional

from ..concurrency import LRUCache
from ..engine.sql.parser import parse_query
from ..engine.table import Table
from ..obs import default_registry, default_tracer
from ..warehouse.partials import compute_partials, decompose
from ..warehouse.service import WarehouseService
from ..warehouse.sharding import ShardedSampleStore
from ..warehouse.store import SampleStore

__all__ = [
    "InProcessShardClient",
    "ProcessShardClient",
    "ShardServer",
    "ShardWorkerError",
    "worker_main",
]

_WORKER_OPS = default_registry().counter(
    "repro_worker_ops_total",
    "Shard-worker protocol requests handled, by op",
    ["op"],
)
_DECOMPOSE_CACHE = default_registry().counter(
    "repro_worker_decompose_cache_total",
    "Worker-side SQL decomposition cache lookups by result",
    ["result"],
)

#: Decomposition-cache capacity: mirrors the front's shape cache in
#: spirit, sized for the distinct-SQL working set of a dashboard.
_DECOMPOSE_CACHE_SIZE = 128


class ShardWorkerError(Exception):
    """A shard worker reported a failure for one request.

    Carries the remote exception type name and traceback text so the
    front can log shard-side failures without unpickling arbitrary
    exception objects.
    """

    def __init__(self, message: str, remote_type: str = "",
                 remote_traceback: str = ""):
        super().__init__(message)
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


class ShardServer:
    """Request handler around one shard's :class:`WarehouseService`.

    ``store_root`` is the *sharded* store root; the server opens the
    ``shard-NN/`` sub-store for ``shard_index`` (each sub-store keeps
    its own manifest/lock protocol, so concurrent workers never step on
    each other). All handlers return plain picklable values.
    """

    def __init__(self, store_root, shard_index: int,
                 backend=None, cv_degradation_threshold: float = 1.5,
                 keep_versions: int = 4) -> None:
        self.shard_index = int(shard_index)
        root = Path(store_root)
        shard_root = (
            ShardedSampleStore(root).shard_root(self.shard_index)
            if ShardedSampleStore.is_sharded_root(root)
            else root
        )
        self.service = WarehouseService(
            SampleStore(shard_root, backend=backend),
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
            # Workers cache group codes per shard piece: the scope keeps
            # in-process workers — which share one process-wide cache —
            # from colliding on identical (sample, version) keys whose
            # rows differ per shard.
            cache_scope=f"shard-{self.shard_index:02d}",
        )
        self._tables: Dict[str, str] = {}  # served sample -> base table
        # SQL text -> (decomposed-or-None,): workers see the same few
        # query shapes over and over, so skip re-parse + re-decompose.
        # SQL-keyed and parse-pure, so no invalidation on hot-swaps.
        self._decompose_cache = LRUCache(_DECOMPOSE_CACHE_SIZE)
        for name in self.service.store.names():
            try:
                self._adopt(name)
            except KeyError:
                continue

    # ------------------------------------------------------------------
    # adoption
    # ------------------------------------------------------------------
    def _adopt(self, name: str, version: Optional[str] = None) -> bool:
        """Serve a stored version of ``name`` (current by default).

        The shard holds no base rows by design, so each sample's base
        table is registered as an empty placeholder — enough for the
        service to adopt the sample and for ``partials`` to snapshot
        it; exact execution never happens on a worker.

        With the mmap backend adoption is O(metadata) per sample: the
        tables come back lazy, ``sample_meta`` ships allocations
        without touching rows, and a ``partials`` call materializes
        only the columns its query needs (see
        :func:`repro.warehouse.partials.compute_partials`) as shared
        page-cache mappings — N workers on one host keep one physical
        copy of the hot columns instead of N private ones.
        """
        stored = self.service.store.get(name, version)
        table_name = stored.table_name or ""
        if table_name and table_name not in self._tables.values():
            self.service.register_table(table_name, Table({}))
        live = self.service.publish_stored(name, stored)
        if live:
            self._tables[name] = table_name
        return live

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def handle(self, op: str, payload: Optional[Dict] = None) -> Dict:
        payload = payload or {}
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ShardWorkerError(f"unknown shard op {op!r}")
        _WORKER_OPS.inc(op=op)
        return handler(**payload)

    def _op_ping(self) -> Dict:
        return {
            "ok": True,
            "shard": self.shard_index,
            "pid": os.getpid(),
            "epoch": self.service.epoch,
        }

    def _op_sample_meta(self, names=None) -> Dict:
        """Everything the front needs to build its merged routing view
        of the served samples (all of them, or just ``names``):
        allocation (keys, populations, sizes, per-column moments —
        exact, never split across shards), served version and lineage,
        plus each sample's base-table name under ``tables``."""
        samples = {}
        for name in self.service.samples() if names is None else names:
            if name not in self._tables:
                continue
            sample, version, lineage = self.service.snapshot_sample(name)
            samples[name] = {
                "allocation": sample.allocation,
                "version": version,
                "lineage": lineage,
                # Window members carry their tumbling-window tag so the
                # front can rebuild its family registry and register
                # time-aware stand-ins.
                "window": lineage.get("window"),
                "method": sample.method,
                "rows": sample.num_rows,
                "source_rows": sample.source_rows,
                "budget": sample.budget,
            }
        return {
            "shard": self.shard_index,
            "samples": samples,
            "tables": {name: self._tables[name] for name in samples},
        }

    def _op_partials(
        self, sql: str, name: str, trace_id: Optional[str] = None
    ) -> Dict:
        """Per-group partial moments of ``sql`` over sample ``name``.

        The worker re-decomposes the SQL itself (the front already
        proved it decomposable before fanning out) so the wire carries
        only strings — no pickled expression trees to keep in sync; an
        LRU keyed by the SQL text skips the re-parse on repeats.
        ``trace_id`` (shipped in the payload by a tracing front) makes
        the worker record its span against the front's trace and return
        it in the response for grafting.
        """
        span = default_tracer().remote_span(
            trace_id, "shard.partials", shard=self.shard_index, sample=name
        )
        try:
            hit = self._decompose_cache.get(sql)
            if hit is not None:
                dq = hit[0]  # sentinel tuple: None is a valid cached value
                _DECOMPOSE_CACHE.inc(result="hit")
                span.set_tag("decompose_cache", "hit")
            else:
                dq = decompose(parse_query(sql))
                self._decompose_cache.put(sql, (dq,))
                _DECOMPOSE_CACHE.inc(result="miss")
                span.set_tag("decompose_cache", "miss")
            if dq is None:
                raise ShardWorkerError(
                    f"query is not decomposable on shard "
                    f"{self.shard_index}: {sql!r}"
                )
            sample, version, _ = self.service.snapshot_sample(name)
            if sample is None:
                raise ShardWorkerError(
                    f"sample {name!r} is not live on shard "
                    f"{self.shard_index}"
                )
            part = compute_partials(sample, dq)
            part.sample_version = version
        finally:
            span.finish()
        response = {"partials": part}
        if trace_id is not None:
            response["spans"] = [span.to_dict()]
        return response

    def _op_refresh(self, name: str, batch: Table, seed: int = 0,
                    columns=None) -> Dict:
        """Incremental refresh of this shard's slice with its
        pre-partitioned rows, then hot-swap. No ``full_table`` — a
        shard cannot rebuild from strata it does not own, so the
        report's ``needs_rebuild`` flag travels back to the front,
        which owns escalation."""
        report = self.service.maintainer.refresh(
            name, batch, seed=seed, columns=columns
        )
        self._adopt(name, report.version)
        return {"report": report}

    def _op_reload(self, names) -> Dict:
        """Re-read the store's current version of each sample (written
        out-of-band by the front) and swap it live."""
        return {"live": {name: self._adopt(name) for name in names}}

    def _op_drop(self, name: str) -> Dict:
        """Stop serving a sample the front deleted from the store."""
        self._tables.pop(name, None)
        self.service.drop_sample(name)
        return {"ok": True}

    def _op_stats(self) -> Dict:
        stats = self.service.stats()
        stats["shard"] = self.shard_index
        stats["worker"] = {
            "pid": os.getpid(),
            "ops": _WORKER_OPS.snapshot(),
            "decompose_cache": self._decompose_cache.counters(),
        }
        return {"stats": stats}

    def _op_shutdown(self) -> Dict:
        return {"ok": True, "shutdown": True}


def worker_main(conn, store_root: str, shard_index: int,
                backend: Optional[str] = None,
                cv_degradation_threshold: float = 1.5,
                keep_versions: int = 4) -> None:
    """Child-process entry point: serve requests until ``shutdown``.

    Every request is ``(op, payload)``; every response is a dict, with
    failures wrapped as ``{"error": ..., "error_type": ...,
    "traceback": ...}`` so one bad query never kills the worker. EOF on
    the pipe (front died) is a clean exit.
    """
    from ..warehouse.backends import resolve_backend

    try:
        server = ShardServer(
            store_root, shard_index,
            backend=resolve_backend(backend) if backend else None,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
        )
    except Exception as exc:  # startup failure: report, then exit
        try:
            conn.send({
                "error": f"shard {shard_index} failed to start: {exc}",
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            })
        finally:
            conn.close()
        return
    conn.send({"ok": True, "shard": shard_index, "pid": os.getpid()})
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            response = server.handle(op, payload)
        except Exception as exc:
            response = {
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            }
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
        if op == "shutdown":
            break
    conn.close()


class ProcessShardClient:
    """Front-side handle to one worker process.

    Spawn-context child (no inherited locks), duplex pipe, one
    in-flight request per shard (guarded by a lock — the front
    parallelizes *across* shards, and each worker is single-threaded
    anyway). The constructor blocks until the worker reports ready, so
    a mis-configured shard fails fast instead of on first query.
    """

    def __init__(self, store_root, shard_index: int,
                 backend: Optional[str] = None,
                 cv_degradation_threshold: float = 1.5,
                 keep_versions: int = 4,
                 start_timeout: float = 60.0) -> None:
        self.shard_index = int(shard_index)
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=worker_main,
            args=(child, str(store_root), self.shard_index, backend,
                  cv_degradation_threshold, keep_versions),
            daemon=True,
            name=f"shard-worker-{self.shard_index:02d}",
        )
        self._proc.start()
        child.close()
        self._lock = Lock()
        self._closed = False
        if not self._conn.poll(start_timeout):
            self.close()
            raise ShardWorkerError(
                f"shard {self.shard_index} worker did not start within "
                f"{start_timeout:.0f}s"
            )
        hello = self._conn.recv()
        if "error" in hello:
            self.close()
            raise ShardWorkerError(
                hello["error"],
                remote_type=hello.get("error_type", ""),
                remote_traceback=hello.get("traceback", ""),
            )
        self.pid = hello.get("pid")

    def request(self, op: str, **payload) -> Dict:
        with self._lock:
            if self._closed:
                raise ShardWorkerError(
                    f"shard {self.shard_index} client is closed"
                )
            self._conn.send((op, payload))
            try:
                response = self._conn.recv()
            except (EOFError, OSError) as exc:
                self._closed = True
                raise ShardWorkerError(
                    f"shard {self.shard_index} worker died mid-request"
                ) from exc
        if "error" in response:
            raise ShardWorkerError(
                f"shard {self.shard_index}: {response['error']}",
                remote_type=response.get("error_type", ""),
                remote_traceback=response.get("traceback", ""),
            )
        return response

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send(("shutdown", {}))
                if self._conn.poll(timeout):
                    self._conn.recv()
            except (BrokenPipeError, OSError):
                pass
            finally:
                self._conn.close()
        self._proc.join(timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout)

    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.is_alive()


class InProcessShardClient:
    """Same protocol, no process boundary.

    Used by tests (hypothesis runs hundreds of examples — process
    spawns would dominate) and by single-process deployments that still
    want the sharded layout. Errors are wrapped into
    :class:`ShardWorkerError` exactly like the remote path, so callers
    cannot tell the difference.
    """

    def __init__(self, store_root, shard_index: int,
                 backend=None, cv_degradation_threshold: float = 1.5,
                 keep_versions: int = 4) -> None:
        self.shard_index = int(shard_index)
        self.server = ShardServer(
            store_root, shard_index, backend=backend,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
        )
        self.pid = os.getpid()

    def request(self, op: str, **payload) -> Dict:
        try:
            return self.server.handle(op, payload)
        except ShardWorkerError:
            raise
        except Exception as exc:
            raise ShardWorkerError(
                f"shard {self.shard_index}: {exc}",
                remote_type=type(exc).__name__,
                remote_traceback=traceback.format_exc(),
            ) from exc

    def close(self, timeout: float = 0.0) -> None:
        pass

    @property
    def alive(self) -> bool:
        return True
