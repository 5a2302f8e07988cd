"""Sample warehouse: persistent versioned samples, incremental
maintenance, workload-driven advising, and a concurrent serving layer.

The warehouse turns the in-memory sampling machinery into a long-lived
system: samples are built once (two-pass CVOPT), persisted with their
statistics behind a pluggable storage backend (npz / parquet / memory)
with cross-process write coordination (fsync'd manifest log + advisory
lock files), kept fresh in one pass per appended batch (streaming
CVOPT warm-start with shrink-only re-balance and a full-rebuild
escalation rule), and served to concurrent readers through the AQP
router behind a read-write lock and an answer cache — by one front
(:class:`WarehouseService`) over either topology: sample rows in this
process, or stratum-hash sharded over N workers
(:class:`ShardedWarehouseService`).
"""

from .advisor import AdvisorPlan, Candidate, Recommendation, advise
from .backends import (
    BACKENDS,
    MemoryBackend,
    NpzBackend,
    ParquetArrowBackend,
    StorageBackend,
    available_backends,
    backend_for_format,
    resolve_backend,
)
from .contracts import (
    AccuracyContract,
    AccuracyContractViolation,
    ContractedResult,
)
from .coordination import FileLock, LockTimeout, ManifestLog, ManifestRecord
from .maintenance import (
    BuildReport,
    RefreshReport,
    SampleMaintainer,
    StalenessInfo,
    WindowedBuildReport,
    allocation_drift,
    allocation_drift_by_column,
    staleness_from_lineage,
    tracked_columns_from_lineage,
)
from .partials import (
    DecomposedQuery,
    ShardPartials,
    compute_partials,
    decompose,
    finalize_partials,
    merge_partials,
)
from ..concurrency import LRUCache, RWLock
from .service import WarehouseService, WindowedRefreshReport
from .sharded_service import ShardedWarehouseService
from .sharding import (
    SHARD_SCHEME,
    ShardedSampleStore,
    merge_shard_allocations,
    partition_table,
    shard_of_key,
    split_sample,
)
from .store import SampleStore, StoredSample, StoreEntryStats
from .windows import (
    SLIDE_SUFFIX,
    covering_window_starts,
    format_window,
    merge_window_allocations,
    merge_window_samples,
    parse_window,
    partition_by_window,
    window_decay_factors,
    window_sample_name,
    window_start,
)

__all__ = [
    "SampleStore",
    "StoredSample",
    "StoreEntryStats",
    "StorageBackend",
    "NpzBackend",
    "ParquetArrowBackend",
    "MemoryBackend",
    "BACKENDS",
    "resolve_backend",
    "backend_for_format",
    "available_backends",
    "FileLock",
    "LockTimeout",
    "ManifestLog",
    "ManifestRecord",
    "SampleMaintainer",
    "BuildReport",
    "RefreshReport",
    "StalenessInfo",
    "allocation_drift",
    "allocation_drift_by_column",
    "staleness_from_lineage",
    "tracked_columns_from_lineage",
    "advise",
    "AdvisorPlan",
    "Candidate",
    "Recommendation",
    "WarehouseService",
    "RWLock",
    "LRUCache",
    "AccuracyContract",
    "AccuracyContractViolation",
    "ContractedResult",
    "SHARD_SCHEME",
    "ShardedSampleStore",
    "ShardedWarehouseService",
    "shard_of_key",
    "split_sample",
    "merge_shard_allocations",
    "partition_table",
    "DecomposedQuery",
    "ShardPartials",
    "decompose",
    "compute_partials",
    "merge_partials",
    "finalize_partials",
    "SLIDE_SUFFIX",
    "WindowedBuildReport",
    "WindowedRefreshReport",
    "window_start",
    "window_sample_name",
    "parse_window",
    "format_window",
    "partition_by_window",
    "covering_window_starts",
    "window_decay_factors",
    "merge_window_allocations",
    "merge_window_samples",
]
