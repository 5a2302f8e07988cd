"""One server lifetime: build a fresh store with the CLI, spawn the
served program, drive the workload's windows against it, read its
counters, stop it.

Load is a closed loop from this one process. A latency window uses one
connection, from the server's own core (see ``harness.on_cpu``); a
throughput window uses two, from the other core, so the server's core
is all the server's. Windows are count-based, so the request sequence
of a window is the same in every run of a seed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import harness
import workloads
from harness import Connection, ServerProcess, encode_request

#: Keys every 200 from ``POST /query`` must carry in its contract.
CONTRACT_KEYS = tuple(
    f'"{key}"'.encode()
    for key in (
        "executed", "sample_name", "sample_version", "predicted_cv",
        "max_group_cv", "staleness", "fallback_exact", "satisfied",
    )
)
# Whitespace-tolerant, so a server that encodes its JSON more compactly
# still passes.
_APPROXIMATE = re.compile(rb'"executed":\s*"approximate"')
_EXACT = re.compile(rb'"executed":\s*"exact"')
_PLAN_CACHED = re.compile(rb'"plan_cached":\s*true')

#: Every n-th ad-hoc answer is kept and compared with the oracle.
ORACLE_EVERY = 25

#: Rounds of windows a lifetime runs at least, whatever its budget.
MIN_ROUNDS = 2

#: Dashboard requests timed on the quiet server before any ingest.
QUIET_REQUESTS = 400


class Ops:
    """Operations attempted and failed by a run; a failed request is
    missing from every latency figure and fails the correctness gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class Cycle:
    """One batch: dropped into the watch directory until it shows up
    under ``processed/``, with the queries that ran meanwhile."""

    seconds: float
    connections: int
    latencies_ms: List[float]  # connection A's queries begun in the cycle
    completions: int  # all connections
    cpu_ms: float
    ctx_switches: int


@dataclass
class LifetimeResult:
    build_seed: int
    setup_s: float = 0.0
    cold_ms: float = 0.0
    latency_windows: List[List[float]] = field(default_factory=list)
    cpu_ms_per_query: List[float] = field(default_factory=list)
    ctx_per_query: List[float] = field(default_factory=list)
    qps: List[float] = field(default_factory=list)
    exact_ms: List[float] = field(default_factory=list)
    cycles: List[Cycle] = field(default_factory=list)
    quiet_p50_ms: float = 0.0  # lifecycle: warm reads before any ingest
    dashboard_before: Dict[str, Dict] = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    store_bytes_per_row: float = 0.0
    dashboard: Dict[str, Dict] = field(default_factory=dict)
    dashboard_exact: Dict[str, Dict] = field(default_factory=dict)
    sampled: List[Tuple[str, Dict]] = field(default_factory=list)
    exact_sampled: List[Tuple[str, Dict]] = field(default_factory=list)
    stats_before: Dict = field(default_factory=dict)
    stats_after: Dict = field(default_factory=dict)
    samples_after: List[Dict] = field(default_factory=list)
    shard_fallbacks: float = 0.0
    responses: int = 0
    response_bytes: int = 0
    plan_cached: int = 0
    measured_wall_s: float = 0.0
    client_cpu_s: float = 0.0
    canary_ms: List[float] = field(default_factory=list)
    failed_dir_entries: int = 0


def _query_wire(sql: str, mode: Optional[str] = None) -> bytes:
    body = {"sql": sql}
    if mode is not None:
        body["mode"] = mode
    return encode_request("POST", "/query", body)


class Lifetime:
    """Drives one server process from build to stop."""

    def __init__(
        self,
        workload: workloads.Workload,
        scale: workloads.Scale,
        fixture: workloads.Fixture,
        workdir: pathlib.Path,
        index: int,
        seed: int,
        build_seed: int,
        ops: Ops,
    ) -> None:
        self.workload = workload
        self.scale = scale
        self.fixture = fixture
        self.seed = seed
        self.ops = ops
        self.root = workdir / f"root-{index}"
        self.watch = workdir / f"watch-{index}"
        self.stage = workdir / f"stage-{index}"
        self.result = LifetimeResult(build_seed=build_seed)
        self._cursor = 0  # next request index of the lifetime's sequence
        self._first_sql = workloads.traffic_sql(workload, seed, 0, 1)[0]

    # ------------------------------------------------------------------
    # set-up and tear-down
    # ------------------------------------------------------------------
    def build(self) -> float:
        """``warehouse build`` into a fresh root; returns its seconds."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.ops.attempt()
        return harness.run_cli(
            workloads.build_args(
                self.workload, str(self.root), str(self.fixture.base),
                self.scale, self.result.build_seed,
            ),
            cwd=harness.REPO_ROOT,
        )

    def spawn(self) -> Tuple[ServerProcess, Connection, float]:
        """Spawn the server and get the first answer; returns the
        server, the connection that asked, and spawn-to-answer ms."""
        for directory in (self.watch, self.stage):
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
        self.ops.attempt()
        with contextlib.ExitStack() as undo:
            server = undo.enter_context(ServerProcess(
                workloads.serve_args(
                    self.workload, str(self.root), str(self.fixture.base),
                    str(self.watch),
                ),
                cwd=harness.REPO_ROOT,
            ))
            conn = undo.enter_context(Connection(server.port))
            self._checked(conn, self._first_sql)
            cold_ms = (time.perf_counter() - server.spawned_at) * 1000.0
            undo.pop_all()  # both stay open: the caller closes them
        return server, conn, cold_ms

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _accept(self, status: int, body: bytes, exact: bool = False) -> bool:
        """A good answer: 200, the contract keys, and the path the
        workload means to take (a silent exact fallback is a failure)."""
        if status != 200:
            self.ops.fail(f"status {status}: {body[:200]!r}")
            return False
        if not all(key in body for key in CONTRACT_KEYS):
            self.ops.fail("200 without the contract keys")
            return False
        if not (_EXACT if exact else _APPROXIMATE).search(body):
            self.ops.fail("answer took the wrong path: " + (
                "approximate" if exact else "exact") + " execution")
            return False
        return True

    def _checked(self, conn: Connection, sql: str,
                 mode: Optional[str] = None) -> Optional[Dict]:
        """One untimed request; the decoded payload, or None if bad."""
        self.ops.attempt()
        status, body = conn.exchange(_query_wire(sql, mode))
        if not self._accept(status, body, exact=mode == "exact"):
            return None
        return json.loads(body)

    def _thread(self, body, *args) -> threading.Thread:
        """A client thread whose socket errors and timeouts count as
        failed operations instead of dying unseen."""
        def guarded() -> None:
            try:
                body(*args)
            except (OSError, AttributeError, ValueError) as exc:
                self.ops.fail(f"client thread: {type(exc).__name__}: {exc}")

        return threading.Thread(target=guarded)

    def _next_requests(self, count: int) -> Tuple[List[str], List[bytes]]:
        sqls = workloads.traffic_sql(
            self.workload, self.seed, self._cursor, count
        )
        self._cursor += count
        return sqls, [_query_wire(sql) for sql in sqls]

    def _timed(self, conn: Connection, wires: Sequence[bytes],
               sqls: Optional[Sequence[str]] = None) -> List[float]:
        """Closed loop over ``wires``; returns the latencies (ms) of
        the good answers. With ``sqls`` every :data:`ORACLE_EVERY`-th
        ad-hoc answer is kept for the oracle."""
        result = self.result
        latencies: List[float] = []
        keep = sqls is not None and self.workload.traffic == "adhoc"
        self.ops.attempt(len(wires))
        for position, wire in enumerate(wires):
            started = time.perf_counter()
            status, body = conn.exchange(wire)
            elapsed = time.perf_counter() - started
            if not self._accept(status, body):
                continue
            latencies.append(elapsed * 1000.0)
            result.responses += 1
            result.response_bytes += len(body)
            result.plan_cached += _PLAN_CACHED.search(body) is not None
            if keep and position % ORACLE_EVERY == 0:
                result.sampled.append((sqls[position], json.loads(body)))
        return latencies

    # ------------------------------------------------------------------
    # windows of the read workloads
    # ------------------------------------------------------------------
    def latency_window(self, conn: Connection, pids: Sequence[int],
                       count: int) -> None:
        sqls, wires = self._next_requests(count)
        with harness.on_cpu(harness.SERVER_CPU):
            cpu = harness.cpu_seconds(pids)
            switches = harness.context_switches(pids)
            latencies = self._timed(conn, wires, sqls)
            cpu = harness.cpu_seconds(pids) - cpu
            switches = harness.context_switches(pids) - switches
        if latencies:
            self.result.latency_windows.append(latencies)
            self.result.cpu_ms_per_query.append(cpu * 1000.0 / len(latencies))
            self.result.ctx_per_query.append(switches / len(latencies))

    def throughput_window(self, conns: Sequence[Connection],
                          per_connection: int) -> None:
        batches = [self._next_requests(per_connection)[1] for _ in conns]
        done: List[int] = [0] * len(conns)
        barrier = threading.Barrier(len(conns) + 1)

        def client(slot: int) -> None:
            barrier.wait()
            done[slot] = len(self._timed(conns[slot], batches[slot]))

        threads = [self._thread(client, slot) for slot in range(len(conns))]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(harness.PHASE_TIMEOUT_S)
            if thread.is_alive():
                raise harness.PhaseTimeout("throughput window")
        elapsed = time.perf_counter() - started
        if sum(done):
            self.result.qps.append(sum(done) / elapsed)

    def read_windows(self, server: ServerProcess, conn: Connection,
                     budget_s: float) -> None:
        """Rounds of one latency window (1 connection) and one
        throughput window (2 connections) until the budget is spent."""
        pids = server.pids()
        per_latency, per_connection = workloads.window_sizes(
            self.workload, self.scale
        )
        with Connection(server.port) as second:
            started = time.perf_counter()
            rounds, last = 0, 0.0
            while True:
                round_started = time.perf_counter()
                self.latency_window(conn, pids, per_latency)
                self.throughput_window((conn, second), per_connection)
                rounds += 1
                now = time.perf_counter()
                last = now - round_started
                if rounds >= MIN_ROUNDS and (
                    now - started + 0.5 * last >= budget_s
                ):
                    break

    # ------------------------------------------------------------------
    # the ingest phase of ``lifecycle``
    # ------------------------------------------------------------------
    def ingest_cycles(self, server: ServerProcess, conn: Connection) -> None:
        """Drop the batches one at a time (the next when the previous
        one shows up in ``processed/``) while the dashboard cycle runs:
        on one connection in even cycles, on two in odd cycles."""
        pids = server.pids()
        wires = [_query_wire(sql) for sql in workloads.DASHBOARD]
        staged = []
        for path in self.fixture.batches:
            copy = self.stage / path.name
            shutil.copyfile(path, copy)
            staged.append(copy)

        stop = threading.Event()
        second_on = threading.Event()
        log_a: List[Tuple[float, float]] = []  # (started, latency ms)
        ends_b: List[float] = []

        def reader_a() -> None:
            i, was_two = 0, None
            while not stop.is_set():
                two = second_on.is_set()
                if two is not was_two:
                    # One connection: from the server's core, like a
                    # latency window. Two: both from the client's core.
                    was_two = two
                    os.sched_setaffinity(0, {
                        harness.CLIENT_CPU if two else harness.SERVER_CPU
                    })
                self.ops.attempt()
                started = time.perf_counter()
                status, body = conn.exchange(wires[i % len(wires)])
                elapsed = time.perf_counter() - started
                if self._accept(status, body):
                    log_a.append((started, elapsed * 1000.0))
                i += 1

        def reader_b(second: Connection) -> None:
            i = 3  # out of phase with connection A
            while not stop.is_set():
                if not second_on.wait(0.01):
                    continue
                self.ops.attempt()
                status, body = second.exchange(wires[i % len(wires)])
                if self._accept(status, body):
                    ends_b.append(time.perf_counter())
                i += 1

        with Connection(server.port) as second:
            threads = [
                self._thread(reader_a), self._thread(reader_b, second),
            ]
            for thread in threads:
                thread.start()
            try:
                marks = []
                for number, copy in enumerate(staged):
                    two = number % 2 == 1
                    (second_on.set if two else second_on.clear)()
                    cpu = harness.cpu_seconds(pids)
                    switches = harness.context_switches(pids)
                    dropped = time.perf_counter()
                    seconds = self._drop_and_wait(copy)
                    marks.append((
                        dropped, dropped + seconds, 2 if two else 1,
                        (harness.cpu_seconds(pids) - cpu) * 1000.0,
                        harness.context_switches(pids) - switches,
                    ))
            finally:
                stop.set()
                second_on.set()
                for thread in threads:
                    thread.join(harness.PHASE_TIMEOUT_S)
        for begin, end, connections, cpu_ms, switches in marks:
            mine = [ms for at, ms in log_a if begin <= at < end]
            others = sum(1 for at in ends_b if begin <= at < end)
            self.result.cycles.append(Cycle(
                seconds=end - begin, connections=connections,
                latencies_ms=mine, completions=len(mine) + others,
                cpu_ms=cpu_ms, ctx_switches=switches,
            ))

    def _drop_and_wait(self, staged: pathlib.Path) -> float:
        """``os.replace`` one batch into the watch directory and wait
        for the daemon to move it to ``processed/``; returns seconds."""
        self.ops.attempt()
        landed = self.watch / "processed" / staged.name
        failed = self.watch / "failed" / staged.name
        started = time.perf_counter()
        os.replace(staged, self.watch / staged.name)
        deadline = started + harness.PHASE_TIMEOUT_S
        while not landed.exists():
            if failed.exists():
                self.ops.fail(f"batch {staged.name} was quarantined")
                break
            if time.perf_counter() > deadline:
                self.ops.fail(f"batch {staged.name} timed out")
                raise harness.PhaseTimeout(f"ingest of {staged.name}")
            time.sleep(0.002)
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # the whole lifetime
    # ------------------------------------------------------------------
    def run(self, budget_s: float,
            want_exact_dashboard: bool) -> LifetimeResult:
        result = self.result
        result.canary_ms.append(harness.canary_ms())
        build_s = self.build()
        server, conn, result.cold_ms = self.spawn()
        with server, conn:
            result.setup_s = build_s + result.cold_ms / 1000.0
            # Warm-up: plan cache, group-code cache, page cache, the
            # default executor's first thread; then freeze the client's
            # heap so its collector stays out of the windows.
            self._timed(conn, self._next_requests(self.scale.warmup)[1])
            gc.collect()
            gc.freeze()
            try:
                _, result.stats_before = conn.json("GET", "/stats")
                wall = time.perf_counter()
                client_cpu = time.process_time()
                if self.workload.ingest:
                    with harness.on_cpu(harness.SERVER_CPU):
                        quiet = self._timed(
                            conn, self._next_requests(QUIET_REQUESTS)[1])
                    if quiet:
                        result.quiet_p50_ms = sorted(quiet)[len(quiet) // 2]
                    for sql in workloads.DASHBOARD:
                        answer = self._checked(conn, sql)
                        if answer is not None:
                            result.dashboard_before[sql] = answer
                    self.ingest_cycles(server, conn)
                else:
                    self.read_windows(server, conn, budget_s)
                result.client_cpu_s = time.process_time() - client_cpu
                result.measured_wall_s = time.perf_counter() - wall
                _, result.stats_after = conn.json("GET", "/stats")
            finally:
                gc.unfreeze()
            self._after_windows(server, conn, want_exact_dashboard)
            # While the server still idles: stopping it hands its memory
            # back to the host, which keeps a kernel worker busy for a
            # while and is no sign that the windows were disturbed.
            result.canary_ms.append(harness.canary_ms())
        return result

    def _after_windows(self, server: ServerProcess, conn: Connection,
                       want_exact_dashboard: bool) -> None:
        result = self.result
        # The peak of set-up, warm-up and windows: read before the exact
        # questions, whose megabyte temporaries land in the allocator
        # differently from run to run.
        result.peak_rss_mib = harness.peak_rss_mib(server.pids())
        with harness.on_cpu(harness.SERVER_CPU):
            for i in range(self.scale.exact_queries):
                sql = workloads.exact_sql(self.seed, self._cursor + i)
                self.ops.attempt()
                wire = _query_wire(sql, "exact")
                started = time.perf_counter()
                status, body = conn.exchange(wire)
                elapsed = time.perf_counter() - started
                if self._accept(status, body, exact=True):
                    result.exact_ms.append(elapsed * 1000.0)
                    if i < 2:
                        result.exact_sampled.append((sql, json.loads(body)))
        for sql in workloads.DASHBOARD:
            answer = self._checked(conn, sql)
            if answer is not None:
                result.dashboard[sql] = answer
            if want_exact_dashboard:
                answer = self._checked(conn, sql, mode="exact")
                if answer is not None:
                    result.dashboard_exact[sql] = answer
        _, samples = conn.json("GET", "/samples")
        result.samples_after = samples.get("samples", [])
        _, metrics_text = conn.json("GET", "/metrics")
        result.shard_fallbacks = sum(
            float(line.rsplit(" ", 1)[1])
            for line in str(metrics_text).splitlines()
            if line.startswith("repro_shard_fallback_total")
        )
        sample_rows = sum(
            s["rows"] for s in result.samples_after
            if s["name"] == workloads.SAMPLE
        )
        if sample_rows:
            result.store_bytes_per_row = (
                harness.tree_bytes(self.root) / sample_rows
            )
        failed = self.watch / "failed"
        if failed.is_dir():
            result.failed_dir_entries = len(list(failed.iterdir()))


def cold_spawn(lifetime: Lifetime) -> float:
    """Spawn a server on the lifetime's finished store, take the first
    answer, stop it; returns spawn-to-answer ms."""
    server, conn, cold_ms = lifetime.spawn()
    conn.close()
    server.stop()
    return cold_ms
