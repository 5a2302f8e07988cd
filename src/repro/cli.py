"""Command-line interface.

Subcommands::

    repro-cvopt generate --dataset openaq --rows 200000 --out openaq.npz
    repro-cvopt sample   --table openaq.npz --query "SELECT ..." \
                         --rate 0.01 --method cvopt --out sample
    repro-cvopt query    --table openaq.npz --sql "SELECT ..." [--explain]
    repro-cvopt aqp      --table openaq.npz --sql "SELECT ..." --rate 0.01
    repro-cvopt experiment --dataset openaq --query AQ3 --rate 0.01
    repro-cvopt warehouse build   --root wh --table openaq.npz --name s \
                                  --group-by country,parameter \
                                  --columns value,latitude --budget 2000
    repro-cvopt warehouse refresh --root wh --name s --batch more.npz
    repro-cvopt warehouse advise  --root wh --table openaq.npz \
                                  --workload queries.log --storage-budget 5000
    repro-cvopt warehouse serve   --root wh --table openaq.npz --sql "..."
    repro-cvopt warehouse serve   --root wh --table openaq.npz --http \
                                  --port 8080 --watch incoming/
    repro-cvopt warehouse daemon  --root wh --table openaq.npz \
                                  --watch incoming/
    repro-cvopt warehouse stats   --root wh

``warehouse build/refresh/serve/daemon`` additionally accept
``--backend {npz,parquet,memory,mmap}`` to pick the physical rows format of
new versions (reads auto-detect per version; see docs/STORAGE.md).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .aqp.runner import QueryTask, run_experiment
from .baselines import make_samplers
from .core.cvopt import CVOptSampler
from .core.cvopt_inf import CVOptInfSampler
from .core.spec import specs_from_sql
from .datasets import generate_bikes, generate_openaq
from .engine.sql.executor import execute_sql
from .engine.table import Table
from .queries import PAPER_QUERIES, get_query

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cvopt",
        description="CVOPT: random sampling for group-by queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", choices=["openaq", "bikes"], required=True)
    gen.add_argument("--rows", type=int, default=200_000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)

    samp = sub.add_parser("sample", help="build a stratified sample")
    samp.add_argument("--table", required=True, help="npz table path")
    samp.add_argument("--query", required=True, help="SQL to optimize for")
    samp.add_argument("--rate", type=float, default=0.01)
    samp.add_argument(
        "--method",
        choices=["cvopt", "cvopt-inf", "uniform", "cs", "rl", "sample-seek"],
        default="cvopt",
    )
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--out", required=True, help="output path stem")

    query = sub.add_parser("query", help="run SQL on a table exactly")
    query.add_argument("--table", required=True)
    query.add_argument("--name", default=None, help="table name in the SQL")
    query.add_argument("--sql", required=True)
    query.add_argument("--limit", type=int, default=20)
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the logical plan instead of executing",
    )

    aqp = sub.add_parser(
        "aqp", help="answer SQL approximately through an AQP session"
    )
    aqp.add_argument("--table", required=True, help="npz table path")
    aqp.add_argument("--name", default=None, help="table name in the SQL")
    aqp.add_argument("--sql", required=True)
    aqp.add_argument(
        "--optimize-for",
        default=None,
        help="SQL the sample is built for (default: the query itself)",
    )
    aqp.add_argument("--rate", type=float, default=0.01)
    aqp.add_argument("--seed", type=int, default=0)
    aqp.add_argument("--limit", type=int, default=20)

    exp = sub.add_parser(
        "experiment", help="compare methods on a paper query"
    )
    exp.add_argument("--dataset", choices=["openaq", "bikes"], required=True)
    exp.add_argument(
        "--query", required=True, help=f"one of {', '.join(PAPER_QUERIES)}"
    )
    exp.add_argument("--rows", type=int, default=100_000)
    exp.add_argument("--rate", type=float, default=0.01)
    exp.add_argument("--repetitions", type=int, default=3)
    exp.add_argument("--seed", type=int, default=0)

    wh = sub.add_parser(
        "warehouse", help="persistent sample warehouse operations"
    )
    whsub = wh.add_subparsers(dest="wh_command", required=True)

    whb = whsub.add_parser("build", help="two-pass build into the store")
    whb.add_argument("--root", required=True, help="store directory")
    whb.add_argument(
        "--backend", choices=["npz", "parquet", "memory", "mmap"], default="npz",
        help="rows storage backend (default npz; parquet needs pyarrow, "
        "falls back to npz; mmap = zero-copy lazy columns)",
    )
    whb.add_argument("--table", required=True, help="npz base-table path")
    whb.add_argument("--name", required=True, help="sample name")
    whb.add_argument("--table-name", default=None, help="SQL table name")
    whb.add_argument(
        "--group-by", required=True, help="comma-separated stratification"
    )
    columns = whb.add_mutually_exclusive_group(required=True)
    columns.add_argument(
        "--columns",
        help="comma-separated value columns to track (first = primary); "
        "per-stratum moments of every tracked column are persisted and "
        "kept exact by refreshes",
    )
    columns.add_argument(
        "--value", help="legacy alias of --columns"
    )
    group = whb.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=int, help="sample rows")
    group.add_argument("--rate", type=float, help="sampling rate (0, 1]")
    whb.add_argument("--seed", type=int, default=0)
    whb.add_argument(
        "--shards", type=int, default=None,
        help="stratum-hash shard count for a new store (default: "
        "auto-detect from the store; 1 = the plain single-store layout)",
    )
    whb.add_argument(
        "--window", default=None,
        help="tumbling-window width (e.g. 1h, 30m, 86400 seconds): "
        "partitions rows by --ts-column and persists one windowed "
        "member per window instead of a single sample",
    )
    whb.add_argument(
        "--ts-column", default=None,
        help="integer timestamp column that assigns rows to windows "
        "(required with --window)",
    )
    whb.add_argument(
        "--decay", type=float, default=None,
        help="per-window exponential decay factor in (0, 1] applied "
        "when merging windows into a sliding answer (serving-time "
        "parameter, not persisted)",
    )
    whb.add_argument(
        "--retention", type=int, default=None,
        help="keep only the newest N windows, deleting older members "
        "at build time",
    )

    whr = whsub.add_parser(
        "refresh", help="fold an appended batch into a stored sample"
    )
    whr.add_argument("--root", required=True)
    whr.add_argument(
        "--backend", choices=["npz", "parquet", "memory", "mmap"], default="npz",
        help="rows storage backend (default npz; parquet needs pyarrow, "
        "falls back to npz; mmap = zero-copy lazy columns)",
    )
    whr.add_argument("--name", required=True)
    whr.add_argument("--batch", required=True, help="npz batch path")
    whr.add_argument(
        "--full-table",
        default=None,
        help="npz of the complete data; enables full-rebuild escalation",
    )
    whr.add_argument(
        "--columns", default=None,
        help="comma-separated override of the tracked value columns "
        "(default: the columns recorded at build time)",
    )
    whr.add_argument("--seed", type=int, default=0)
    whr.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: auto-detect from the store)",
    )

    wha = whsub.add_parser(
        "advise", help="recommend samples for a query-log workload"
    )
    wha.add_argument("--root", default=None, help="store (for --materialize)")
    wha.add_argument("--table", required=True, help="npz base-table path")
    wha.add_argument("--table-name", default=None)
    wha_src = wha.add_mutually_exclusive_group(required=True)
    wha_src.add_argument(
        "--workload",
        help="query log: one SQL statement or JSON object per line",
    )
    wha_src.add_argument(
        "--query-log",
        help="structured JSONL query log written by 'warehouse serve "
        "--query-log' (rotated siblings are read too)",
    )
    wha.add_argument("--storage-budget", type=int, required=True)
    wha.add_argument("--target-cv", type=float, default=0.05)
    wha.add_argument(
        "--materialize", action="store_true",
        help="build the recommended samples into --root",
    )
    wha.add_argument("--seed", type=int, default=0)

    whs = whsub.add_parser(
        "serve", help="answer SQL through the warehouse service "
        "(one-shot with --sql, or an HTTP server with --http)"
    )
    whs.add_argument("--root", required=True)
    whs.add_argument(
        "--backend", choices=["npz", "parquet", "memory", "mmap"], default="npz",
        help="rows storage backend (default npz; parquet needs pyarrow, "
        "falls back to npz; mmap = zero-copy lazy columns)",
    )
    whs.add_argument("--table", required=True, help="npz base-table path")
    whs.add_argument("--table-name", default=None)
    whs.add_argument("--sql", default=None, action="append",
                     help="repeatable; each SQL is answered in order")
    whs.add_argument(
        "--mode", choices=["auto", "approx", "exact"], default="auto"
    )
    whs.add_argument("--limit", type=int, default=20)
    whs.add_argument(
        "--max-cv", type=float, default=None,
        help="reject/fall back when the predicted per-group CV exceeds this",
    )
    whs.add_argument(
        "--max-staleness", type=float, default=None,
        help="reject/fall back when the served sample is staler than this",
    )
    whs.add_argument(
        "--on-violation", choices=["fallback", "reject"],
        default="fallback",
        help="what a violated accuracy constraint does (default: exact "
        "fallback)",
    )
    whs.add_argument(
        "--http", action="store_true",
        help="start an HTTP server instead of answering --sql once",
    )
    whs.add_argument("--host", default="127.0.0.1")
    whs.add_argument("--port", type=int, default=8080,
                     help="0 picks an ephemeral port")
    whs.add_argument("--max-concurrency", type=int, default=8)
    whs.add_argument("--max-pending", type=int, default=64)
    whs.add_argument("--queue-timeout", type=float, default=30.0)
    whs.add_argument(
        "--watch", default=None,
        help="with --http: also run the maintenance daemon on this "
        "directory",
    )
    whs.add_argument(
        "--default-sample", default=None,
        help="daemon target for batch files without a '<sample>__' prefix",
    )
    whs.add_argument("--daemon-interval", type=float, default=1.0)
    whs.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: auto-detect from the store)",
    )
    whs.add_argument(
        "--shard-workers", choices=["process", "inprocess"],
        default="process",
        help="run shard workers as separate OS processes (default) or "
        "in-process (single-core hosts, memory backend)",
    )
    whs.add_argument(
        "--query-log", default=None,
        help="with --http: append one JSONL record per query here "
        "(size-rotated; feeds 'warehouse advise --query-log')",
    )
    whs.add_argument(
        "--metrics", action="store_true", default=True,
        help="record metrics for GET /metrics (default on)",
    )
    whs.add_argument(
        "--no-metrics", dest="metrics", action="store_false",
        help="disable metrics collection (instrumentation becomes no-ops)",
    )

    whd = whsub.add_parser(
        "daemon",
        help="watch a directory; refresh stored samples from dropped "
        "batch files",
    )
    whd.add_argument("--root", required=True, help="store directory")
    whd.add_argument(
        "--backend", choices=["npz", "parquet", "memory", "mmap"], default="npz",
        help="rows storage backend (default npz; parquet needs pyarrow, "
        "falls back to npz; mmap = zero-copy lazy columns)",
    )
    whd.add_argument(
        "--table", action="append", default=[],
        help="npz base-table path (repeatable; enables exact fallback "
        "and rebuild escalation)",
    )
    whd.add_argument(
        "--table-name", action="append", default=[],
        help="SQL table name for the matching --table (positional pairing)",
    )
    whd.add_argument("--watch", required=True, help="incoming batch dir")
    whd.add_argument(
        "--sample", default=None,
        help="default sample for batch files without a '<sample>__' prefix",
    )
    whd.add_argument("--interval", type=float, default=1.0)
    whd.add_argument(
        "--once", action="store_true",
        help="ingest the current backlog and exit",
    )
    whd.add_argument(
        "--max-retries", type=int, default=None,
        help="re-attempts (with capped exponential backoff) before a "
        "failed batch is quarantined (default 3; --once implies 0 — a "
        "single-shot run cannot wait out a backoff)",
    )
    whd.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve this process's metrics (repro_daemon_*) on "
        "GET /metrics at 127.0.0.1:PORT (0 picks a free port); "
        "default: no listener",
    )
    whd.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: auto-detect from the store)",
    )
    whd.add_argument(
        "--shard-workers", choices=["process", "inprocess"],
        default="process",
        help="run shard workers as separate OS processes (default) or "
        "in-process (single-core hosts, memory backend)",
    )

    wht = whsub.add_parser("stats", help="store + serving accounting")
    wht.add_argument("--root", required=True)
    return parser


def _cmd_generate(args) -> int:
    if args.dataset == "openaq":
        table = generate_openaq(num_rows=args.rows, seed=args.seed)
    else:
        table = generate_bikes(num_rows=args.rows, seed=args.seed)
    table.save(args.out)
    print(f"wrote {table.num_rows} rows ({args.dataset}) to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    table = Table.load(args.table)
    specs, derived = specs_from_sql(args.query)
    if args.method == "cvopt":
        sampler = CVOptSampler(specs, derived=derived)
    elif args.method == "cvopt-inf":
        sampler = CVOptInfSampler(specs, derived=derived)
    else:
        lineup = make_samplers(specs, derived)
        chosen = {
            "uniform": "Uniform",
            "cs": "CS",
            "rl": "RL",
            "sample-seek": "Sample+Seek",
        }[args.method]
        sampler = lineup[chosen]
    sample = sampler.sample_rate(table, args.rate, seed=args.seed)
    sample.save(args.out)
    print(
        f"{sample.method}: {sample.num_rows} rows over "
        f"{sample.allocation.num_strata} strata -> {args.out}.rows.npz"
    )
    return 0


def _cmd_query(args) -> int:
    table = Table.load(args.table)
    name = args.name or table.name or "T"
    if args.explain:
        from .engine.sql.parser import parse_query
        from .engine.sql.planner import format_plan, lower_query

        print(format_plan(lower_query(parse_query(args.sql))))
        return 0
    result = execute_sql(args.sql, {name: table})
    _print_table(result, args.limit)
    return 0


def _cmd_aqp(args) -> int:
    from .aqp.session import AQPSession

    table = Table.load(args.table)
    name = args.name or table.name or "T"
    session = AQPSession({name: table})
    optimize_for = args.optimize_for or args.sql
    try:
        sample = session.build_sample(
            "cli", name, optimize_for, rate=args.rate, seed=args.seed
        )
    except ValueError as exc:
        print(f"cannot build a sample for this query: {exc}", file=sys.stderr)
        return 2
    print(
        f"built {sample.method} sample: {sample.num_rows} rows over "
        f"{sample.allocation.num_strata} strata "
        f"(rate {sample.sampling_rate:.2%})"
    )
    result = session.query(args.sql)
    route = result.route
    if route.approximate:
        print(f"routed to sample {route.sample_name!r}: {route.reason}")
    else:
        print(f"exact execution: {route.reason}")
    _print_table(result.table, args.limit)
    return 0


def _cmd_experiment(args) -> int:
    paper_query = get_query(args.query)
    if paper_query.dataset != args.dataset:
        print(
            f"query {args.query} belongs to dataset {paper_query.dataset}",
            file=sys.stderr,
        )
        return 2
    if args.dataset == "openaq":
        table = generate_openaq(num_rows=args.rows)
    else:
        table = generate_bikes(num_rows=args.rows)
    specs, derived = specs_from_sql(paper_query.sql)
    samplers = make_samplers(specs, derived)
    task = QueryTask(
        name=paper_query.name,
        sql=paper_query.sql,
        table_name=paper_query.table_name,
    )
    result = run_experiment(
        table,
        [task],
        samplers,
        rate=args.rate,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    print(f"{paper_query.name} ({paper_query.kind}), rate={args.rate:.2%}")
    print(result.table(metric="mean_error"))
    print()
    print(result.table(metric="max_error"))
    return 0


def _cmd_warehouse(args) -> int:
    handlers = {
        "build": _cmd_warehouse_build,
        "refresh": _cmd_warehouse_refresh,
        "advise": _cmd_warehouse_advise,
        "serve": _cmd_warehouse_serve,
        "daemon": _cmd_warehouse_daemon,
        "stats": _cmd_warehouse_stats,
    }
    return handlers[args.wh_command](args)


def _resolve_shards(root, requested) -> int:
    """Effective shard count: the store's recorded topology wins; a
    conflicting explicit request is an error; a fresh store defaults to
    unsharded."""
    from .warehouse import ShardedSampleStore

    recorded = ShardedSampleStore.shard_count(root)
    if recorded is not None:
        if requested is not None and int(requested) != recorded:
            raise SystemExit(
                f"store {root} is sharded {recorded} ways; "
                f"requested --shards {requested}"
            )
        return recorded
    return int(requested) if requested else 1


def _open_service(args, tables, workers: str = "inprocess"):
    """The warehouse front over the topology ``--shards`` (or the
    store's recorded layout) selects; one shard is the plain
    single-store layout. Close it (context manager) to stop workers."""
    from .warehouse import ShardedWarehouseService, WarehouseService

    shards = _resolve_shards(args.root, args.shards)
    if shards > 1:
        return ShardedWarehouseService(
            args.root, tables, shards=shards, backend=args.backend,
            workers=workers,
        )
    return WarehouseService(args.root, tables, backend=args.backend)


def _across_shards(service) -> str:
    shards = getattr(service, "num_shards", None)  # plain fronts: none
    return f" across {shards} shards" if shards else ""


def _cmd_warehouse_build(args) -> int:
    from .warehouse import format_window, parse_window

    table = Table.load(args.table)
    table_name = args.table_name or table.name or "T"
    budget = args.budget
    if budget is None:
        if not 0 < args.rate <= 1:
            print("--rate must be in (0, 1]", file=sys.stderr)
            return 2
        budget = max(1, int(round(table.num_rows * args.rate)))
    elif budget <= 0:
        print("--budget must be positive", file=sys.stderr)
        return 2
    raw_columns = args.columns or args.value or ""
    value_columns = [c for c in raw_columns.split(",") if c]
    if not value_columns:
        print("--columns must name at least one column", file=sys.stderr)
        return 2
    group_by = [c for c in args.group_by.split(",") if c]
    if args.window is None:
        if (
            args.ts_column
            or args.decay is not None
            or args.retention is not None
        ):
            print(
                "--ts-column/--decay/--retention only apply with --window",
                file=sys.stderr,
            )
            return 2
        # One-shot process: commit to the store, nothing to swap live.
        with _open_service(args, {}) as service:
            report = service.maintainer.build(
                args.name, table, group_by=group_by,
                value_columns=value_columns, budget=budget,
                table_name=table_name, seed=args.seed,
            )
            suffix = _across_shards(service)
        print(
            f"built {args.name} {report.version}: {report.rows} rows over "
            f"{report.strata} strata (budget {report.budget}, "
            f"source {report.source_rows} rows, tracking "
            f"{','.join(report.columns)}) -> {args.root}{suffix}"
        )
        return 0
    if not args.ts_column:
        print("--window requires --ts-column", file=sys.stderr)
        return 2
    try:
        width = parse_window(args.window)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with _open_service(args, {table_name: table}) as service:
        report = service.build_windowed(
            args.name, table_name, group_by=group_by,
            value_columns=value_columns, budget=budget,
            ts_column=args.ts_column, window=width,
            decay=args.decay, retention=args.retention,
            seed=args.seed,
        )
        suffix = _across_shards(service)
    source_rows = sum(w.source_rows for w in report.windows)
    per_window = report.windows[0].budget if report.windows else 0
    print(
        f"built {args.name} windowed by {args.ts_column} "
        f"({format_window(width)}): {len(report.windows)} windows "
        f"starting at {report.starts}, {report.rows} sample rows total "
        f"(budget {per_window}/window, source {source_rows} rows) "
        f"-> {args.root}{suffix}"
    )
    return 0


def _cmd_warehouse_refresh(args) -> int:
    batch = Table.load(args.batch)
    full_table = Table.load(args.full_table) if args.full_table else None
    columns = (
        [c for c in args.columns.split(",") if c] if args.columns else None
    )
    # A maintenance-only process: no base table is registered, so the
    # complete data (when given) rides along for rebuild escalation.
    with _open_service(args, {}) as service:
        report = service.refresh(
            args.name, batch, seed=args.seed, columns=columns,
            full_table=full_table,
        )
    if report.action == "windowed":
        def _starts(starts):
            return ",".join(str(s) for s in starts) if starts else "-"

        print(
            f"windowed refresh of {args.name} -> {report.version}: "
            f"+{report.rows_ingested} rows; "
            f"opened [{_starts(report.opened)}], "
            f"refreshed [{_starts(report.refreshed)}], "
            f"expired [{_starts(report.expired)}], "
            f"{report.frozen_rows} late rows frozen out of closed windows"
        )
        return 0
    per_column = ", ".join(
        f"{c}={d:.3f}" for c, d in report.drift_by_column.items()
    )
    print(
        f"{report.action} refresh of {args.name} -> {report.version}: "
        f"+{report.rows_ingested} rows (population {report.source_rows}), "
        f"{report.sample_rows} sampled, staleness {report.staleness:.2%}, "
        f"drift {report.drift:.3f}"
        + (f" ({per_column})" if per_column else "")
        + (", NEEDS REBUILD" if report.needs_rebuild else "")
    )
    return 0


def _cmd_warehouse_advise(args) -> int:
    from .warehouse import SampleMaintainer, SampleStore, advise
    from .workload import Workload

    table = Table.load(args.table)
    if args.query_log:
        workload = Workload.from_query_log(args.query_log)
    else:
        workload = Workload.from_log(args.workload)
    if not workload.queries:
        print("workload log contains no queries", file=sys.stderr)
        return 2
    plan = advise(
        workload, table, args.storage_budget, target_cv=args.target_cv
    )
    print(plan.summary())
    if args.materialize:
        if not args.root:
            print("--materialize requires --root", file=sys.stderr)
            return 2
        maintainer = SampleMaintainer(SampleStore(args.root))
        table_name = args.table_name or table.name or "T"
        built = plan.materialize(
            maintainer, table, table_name=table_name, seed=args.seed
        )
        print(f"materialized: {', '.join(built) or '-'}")
    return 0


def _cmd_warehouse_serve(args) -> int:
    from .warehouse import AccuracyContractViolation

    table = Table.load(args.table)
    table_name = args.table_name or table.name or "T"
    service = _open_service(
        args, {table_name: table}, workers=args.shard_workers
    )
    if args.http:
        return _serve_http(args, service)
    if not args.sql:
        print("provide --sql (one-shot) or --http (server)", file=sys.stderr)
        return 2
    for sql in args.sql:
        try:
            answer = service.query_with_contract(
                sql,
                mode=args.mode,
                max_cv=args.max_cv,
                max_staleness=args.max_staleness,
                on_violation=args.on_violation,
            )
        except AccuracyContractViolation as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 4
        contract = answer.contract
        if contract.executed == "approximate":
            print(
                f"routed to {contract.sample_name!r} "
                f"({contract.sample_version}): {contract.reason}"
            )
            print(
                f"contract: predicted CV {contract.predicted_cv:.4f} "
                f"(max group {contract.max_group_cv:.4f}), "
                f"staleness {contract.staleness:.2%}, "
                f"drift {contract.drift:.3f}"
            )
        else:
            print(f"exact execution: {contract.reason}")
        _print_table(answer.table, args.limit)
    return 0


def _serve_http(args, service) -> int:
    """Run the asyncio/HTTP front (and optionally the daemon) until
    interrupted."""
    import asyncio

    from .obs import QueryLog, default_registry
    from .serve import (
        AsyncWarehouseService,
        MaintenanceDaemon,
        WarehouseHTTPServer,
    )

    default_registry().set_enabled(getattr(args, "metrics", True))

    async def amain() -> int:
        async_service = AsyncWarehouseService(
            service,
            max_concurrency=args.max_concurrency,
            max_pending=args.max_pending,
            queue_timeout=args.queue_timeout,
        )
        query_log = None
        if getattr(args, "query_log", None):
            query_log = QueryLog(args.query_log)
            print(f"query log: {args.query_log}")
        server = WarehouseHTTPServer(
            async_service, host=args.host, port=args.port,
            query_log=query_log,
        )
        await server.start()
        daemon = None
        if args.watch:
            daemon = MaintenanceDaemon(
                async_service,
                args.watch,
                sample=args.default_sample,
                poll_interval=args.daemon_interval,
            )
            server.daemon = daemon
            daemon.start()
            print(f"maintenance daemon watching {args.watch}")
        print(
            f"serving on http://{args.host}:{server.port} "
            "(POST /query, GET /samples, GET /stats, GET /healthz, "
            "GET /metrics, GET /debug/traces)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            if daemon is not None:
                await daemon.stop()
            await server.stop()
            if query_log is not None:
                query_log.close()
        return 0

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:
        return 0


def _cmd_warehouse_daemon(args) -> int:
    import asyncio

    from .serve import MaintenanceDaemon

    tables = {}
    names = list(args.table_name)
    for i, path in enumerate(args.table):
        loaded = Table.load(path)
        name = names[i] if i < len(names) else (loaded.name or f"T{i}")
        tables[name] = loaded
    service = _open_service(args, tables, workers=args.shard_workers)
    max_retries = args.max_retries
    if max_retries is None:
        max_retries = 0 if args.once else 3
    daemon = MaintenanceDaemon(
        service,
        args.watch,
        sample=args.sample,
        poll_interval=args.interval,
        require_stable=not args.once,
        max_retries=max_retries,
    )
    listener = None
    if args.metrics_port is not None:
        from .serve import MetricsListener

        listener = MetricsListener(port=args.metrics_port).start()
        print(f"metrics at {listener.url}", flush=True)

    async def amain() -> int:
        if args.once:
            for outcome in await daemon.poll():
                _print_outcome(outcome)
            return 1 if daemon.batches_failed else 0
        daemon.start()
        print(
            f"daemon watching {args.watch} for *.npz batches "
            "(Ctrl-C to stop)",
            flush=True,
        )
        printed = 0
        try:
            while True:
                await asyncio.sleep(min(args.interval, 1.0))
                outcomes = list(daemon.outcomes)
                for outcome in outcomes[printed:]:
                    _print_outcome(outcome)
                printed = len(outcomes)
        finally:
            await daemon.stop()

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:
        return 0
    finally:
        if listener is not None:
            listener.close()


def _print_outcome(outcome) -> None:
    if outcome.ok:
        print(
            f"applied {outcome.file} -> {outcome.sample} "
            f"{outcome.version} ({outcome.action}, +{outcome.rows} rows, "
            f"{outcome.elapsed_seconds:.2f}s)"
        )
    else:
        print(f"FAILED {outcome.file}: {outcome.error}", file=sys.stderr)


def _cmd_warehouse_stats(args) -> int:
    from .warehouse import SHARD_SCHEME, SampleStore, ShardedSampleStore

    if ShardedSampleStore.is_sharded_root(args.root):
        store = ShardedSampleStore(args.root)
        print(
            f"sharded store: {store.num_shards} shards "
            f"(scheme {SHARD_SCHEME})"
        )
        empty = True
        for index, entries in enumerate(store.stats()):
            print(f"-- shard {index:02d} --")
            if not entries:
                print("(empty)")
                continue
            empty = False
            _print_store_entries(entries)
        if empty:
            print("store is empty")
        return 0
    entries = SampleStore(args.root).stats()
    if not entries:
        print("store is empty")
        return 0
    _print_store_entries(entries)
    return 0


def _print_store_entries(entries) -> None:
    print(
        "name\tversion\tversions\trows\tstrata\tby\tcolumns\tmethod\t"
        "backend\tbytes\tstale"
    )
    for e in entries:
        tracked = list(e.columns.get("tracked") or [])
        primary = e.columns.get("primary")
        shown = [
            (c + "*" if c == primary and len(tracked) > 1 else c)
            for c in tracked
        ]
        print(
            f"{e.name}\t{e.current_version}\t{e.num_versions}\t{e.rows}\t"
            f"{e.strata}\t{','.join(e.by)}\t{','.join(shown) or '-'}\t"
            f"{e.method}\t{e.backend}\t"
            f"{e.bytes_on_disk}\t{e.lineage.get('staleness', 0.0):.2%}"
        )
        for column, summary in (e.columns.get("stats") or {}).items():
            mean_cv = summary.get("mean_data_cv")
            max_cv = summary.get("max_data_cv")
            print(
                f"  column {column}: strata "
                f"{summary.get('populated_strata', 0)}/"
                f"{summary.get('strata', 0)}, data CV mean "
                + (f"{mean_cv:.3f}" if mean_cv is not None else "-")
                + ", max "
                + (f"{max_cv:.3f}" if max_cv is not None else "-")
            )


def _print_table(table: Table, limit: int) -> None:
    names = table.column_names
    print("\t".join(names))
    decoded = {n: table.column(n).decode() for n in names}
    for i in range(min(limit, table.num_rows)):
        row = []
        for n in names:
            value = decoded[n][i]
            if isinstance(value, (float, np.floating)):
                row.append(f"{value:.6g}")
            else:
                row.append(str(value))
        print("\t".join(row))
    if table.num_rows > limit:
        print(f"... ({table.num_rows - limit} more rows)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "sample": _cmd_sample,
        "query": _cmd_query,
        "aqp": _cmd_aqp,
        "experiment": _cmd_experiment,
        "warehouse": _cmd_warehouse,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
