"""The topology seam under the warehouse front.

:class:`~repro.warehouse.service.WarehouseService` owns everything a
query or a maintenance round *means* — routing, contracts, the answer
cache, windowed families, locking. A topology answers only **where
sample rows live**. Two implementations share one small surface:

* :class:`LocalTopology` (this module): one
  :class:`~repro.warehouse.store.SampleStore`; rows are loaded into the
  front's own :class:`~repro.aqp.session.AQPSession` and a routed query
  is ``AQPSession.query`` (plan cache, physical operators, approximate
  MEDIAN/HAVING).
* :class:`~repro.warehouse.scatter.ScatterGatherTopology`: N
  ``shard-NN/`` sub-stores behind shard workers; the session holds
  metadata stand-ins and a routed query scatters per-shard partials.

The surface (duck-typed; both classes implement exactly this):

``store`` / ``maintainer``
    Where builds are committed; ``SampleMaintainer.build`` /
    ``build_windowed`` work on either store.
``live(names=None, reload=False) -> {name: LiveSample}``
    The per-sample view the front routes and contracts on. ``names=None``
    reports every stored sample, skipping unreadable ones; explicit
    names raise :class:`KeyError` when missing. ``reload=True`` first
    makes the store's current version live wherever rows are served
    (after a build wrote it out-of-band).
``ingest(name, batch, full_table, seed, columns) -> RefreshReport``
    Fold a batch into the stored sample, escalating to a rebuild from
    ``full_table`` when drift demands it.
``query(session, live, sql, mode, max_cv) -> (AQPResult, version)``
    Run one query; ``version`` names the sample version(s) whose rows
    produced an approximate answer (``None`` for exact answers).
``merge_slide(members, factors) -> StratifiedSample``
    The sliding-window sample (or stand-in) over window members.
``delete(name)``
    Remove a sample from the store and from wherever it is served.
``stats(live, session)`` / ``health()`` / ``summary_extra``
    Topology-specific blocks of ``/stats``, ``/healthz``, ``/samples``.
``close()``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.sample import StratifiedSample
from .maintenance import RefreshReport, SampleMaintainer
from .store import SampleStore, StoredSample
from .windows import merge_window_samples

__all__ = ["LiveSample", "LocalTopology"]


@dataclass
class LiveSample:
    """What the front knows about one served sample."""

    #: The sample registered with the routing session: real rows on the
    #: local topology, the merged allocation over an empty table on the
    #: scatter-gather one.
    sample: StratifiedSample
    table_name: Optional[str]
    version: str
    lineage: Dict
    #: ``{column, width, start, end}`` for a window member,
    #: ``{column, start, end}`` for a slide, ``None`` otherwise.
    window: Optional[Dict] = None
    rows: int = 0  # sample rows across every piece
    #: Versions behind ``version``: one per shard piece, or one per
    #: member for a slide. Empty on the local topology.
    versions: Tuple[str, ...] = ()
    #: For a slide: ``(member name, decay factor)`` per merged window.
    parts: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_stored(cls, stored: StoredSample) -> "LiveSample":
        return cls(
            sample=stored.sample,
            table_name=stored.table_name,
            version=stored.version,
            lineage=dict(stored.lineage),
            window=getattr(stored, "window", None),
            rows=stored.sample.num_rows,
        )


class LocalTopology:
    """Sample rows live in this process, in one :class:`SampleStore`.

    With the mmap backend ``live`` is O(metadata): sample tables come
    back lazy and no column bytes are read until a query touches them,
    so warm start and the daemon's version hot-swap cost
    parse-the-sidecar per sample regardless of row counts.
    """

    summary_extra: Dict = {}

    def __init__(
        self,
        store,
        backend=None,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
    ) -> None:
        self.store = (
            store
            if isinstance(store, SampleStore)
            else SampleStore(store, backend=backend)
        )
        self.maintainer = SampleMaintainer(
            self.store,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
        )

    def live(
        self, names: Optional[Sequence[str]] = None, reload: bool = False
    ) -> Dict[str, LiveSample]:
        out = {}
        for name in self.store.names() if names is None else names:
            try:
                out[name] = LiveSample.from_stored(self.store.get(name))
            except KeyError:
                # No readable version (e.g. memory-backend blobs from
                # another process): the store keeps it for whoever can.
                if names is not None:
                    raise
        return out

    def ingest(
        self, name, batch, full_table=None, seed=0, columns=None
    ) -> RefreshReport:
        return self.maintainer.refresh(
            name, batch, full_table=full_table, seed=seed, columns=columns
        )

    def query(self, session, live, sql, mode, max_cv):
        result = session.query(sql, mode=mode, max_cv=max_cv)
        name = result.route.sample_name
        return result, live[name].version if name in live else None

    def merge_slide(
        self, members: Sequence[LiveSample], factors: Optional[List[float]]
    ) -> StratifiedSample:
        return merge_window_samples(
            [m.sample for m in members], factors=factors
        )

    def delete(self, name: str) -> None:
        self.store.delete(name)

    def stats(self, live: Dict[str, LiveSample], session) -> Dict:
        entries = self.store.stats()
        return {
            "store": {
                "root": str(self.store.root),
                "backend": getattr(self.store.backend, "name", "npz"),
                "manifest": self.store.manifest_position(),
            },
            "plan_cache": {
                "hits": session.plan_cache_hits,
                "misses": session.plan_cache_misses,
            },
            "samples": {
                e.name: {
                    "version": e.current_version,
                    "served_version": (
                        live[e.name].version if e.name in live else None
                    ),
                    "versions": e.num_versions,
                    "rows": e.rows,
                    "strata": e.strata,
                    "by": list(e.by),
                    "columns": dict(e.columns),
                    "method": e.method,
                    "backend": e.backend,
                    "bytes": e.bytes_on_disk,
                    "staleness": e.lineage.get("staleness", 0.0),
                    "needs_rebuild": e.lineage.get("needs_rebuild", False),
                }
                for e in entries
            },
        }

    def health(self) -> Dict:
        return {}

    def close(self) -> None:
        pass
