"""Command-line interface for the library.

The CLI exposes the flows a downstream user most commonly wants without
writing Python:

* ``repro partition <taskgraph.json>`` — temporally partition a task graph
  (ILP or a heuristic) on a named or custom system and print the result;
* ``repro partition-batch <taskgraph.json> ...`` — solve a whole batch of
  partitioning problems through the caching/parallel engine, optionally
  sweeping the reconfiguration time, with table/JSON/CSV output;
* ``repro flow`` — run the complete Figure-2 flow (partition, loop fission,
  memory map, host code) on a task-graph file or a registered workload
  (``--workload jpeg_dct``), or a whole batch of workload flows through the
  flow engine (``--workload all --batch``);
* ``repro workloads list`` / ``repro workloads show <name>`` — browse the
  workload catalog;
* ``repro explore`` — search the (workload, system, CT, partitioner,
  sequencing) design space for Pareto-optimal designs with a chosen
  strategy, budget and objectives, against a resumable run store;
* ``repro verify`` — differentially verify the whole flow on seeded random
  scenarios: ILP vs. list partitioner, analytic timing vs. the event
  simulator, warm vs. cold caches, memory-map legality — with failing
  scenarios shrunk to minimal counterexamples;
* ``repro serve`` — run the long-lived design-flow daemon: an async
  HTTP/JSON API with a bounded deduplicating job queue and N flow-engine
  workers over the shared caches;
* ``repro submit`` / ``repro job`` — client commands against a running
  daemon (submit flow jobs, watch/wait/cancel them, fetch results);
* ``repro cache stats`` / ``clear`` / ``prune`` — inspect and manage the
  shared disk caches (partition outcomes plus per-stage flow artifacts);
* ``repro frontier`` — the JPEG-DCT Pareto frontier vs. the paper's own
  design point;
* ``repro table1`` / ``repro table2`` — regenerate the paper's tables;
* ``repro case-study`` — print the full case-study summary (partitioning,
  fission analysis, headline comparisons);
* ``repro systems`` — list the named system presets.

Run ``python -m repro.cli --help`` (or ``repro --help`` once installed with
entry points) for details.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import replace as dataclasses_replace
from typing import List, Optional

from .arch import SYSTEM_PRESETS, generic_system, system_by_name
from .errors import ReproError
from .experiments import (
    build_case_study,
    format_reproduction_report,
    reproduce_table1,
    reproduce_table2,
    reproduction_report,
)
from .experiments.table2 import xc6000_conjecture
from .fission import SequencingStrategy, compare_static_vs_rtr
from .jpeg import build_dct_task_graph, static_design_delay
from .partition import (
    PARTITIONER_CHOICES,
    IlpPartitionerReport,
    MultilevelReport,
    PartitionProblem,
    PortfolioReport,
    SolverSpec,
    assert_valid,
    compute_metrics,
    make_partitioner,
)
from .runtime import EngineConfig, PartitionEngine, ct_sweep_jobs
from .synth import DesignFlow, FlowEngine, FlowOptions, workload_flow_jobs
from .taskgraph import load as load_taskgraph
from .units import format_time

#: Default target-system preset applied when none is chosen explicitly.
DEFAULT_SYSTEM = "paper-xc4044"


def _version() -> str:
    """The installed distribution version (source-tree fallback)."""
    try:
        from importlib.metadata import version

        return version("repro-rtr-partitioning")
    except Exception:  # noqa: BLE001 - metadata is best-effort
        from . import __version__

        return __version__


def _make_system(args: argparse.Namespace):
    """Build the target system from --system / --clbs / --memory / --ct."""
    chosen = args.system or DEFAULT_SYSTEM
    if chosen != "custom":
        system = system_by_name(chosen)
        if args.ct is not None:
            system = system.with_reconfiguration_time(args.ct / 1000.0)
        return system
    return generic_system(
        clb_capacity=args.clbs,
        memory_words=args.memory,
        reconfiguration_time=(args.ct if args.ct is not None else 10.0) / 1000.0,
    )


def _parse_ct_sweep(text: str) -> Optional[List[float]]:
    """Parse a comma-separated millisecond list into seconds (None if empty)."""
    if not text:
        return None
    try:
        return [float(value) / 1000.0 for value in text.split(",")]
    except ValueError:
        raise ReproError(
            f"--ct-sweep expects comma-separated milliseconds, got {text!r}"
        )


def _load_graph(path: Optional[str]):
    """Load a task graph from JSON, or default to the case-study DCT graph."""
    if path is None or path == "dct":
        return build_dct_task_graph()
    try:
        return load_taskgraph(path)
    except OSError as error:
        raise ReproError(f"cannot read task graph {path!r}: {error}") from error


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------

def cmd_systems(args: argparse.Namespace) -> int:
    print("Available system presets:")
    for name in sorted(SYSTEM_PRESETS):
        system = system_by_name(name)
        print(f"  {name:<14} {system.fpga.describe()}")
    print("  custom         use --clbs/--memory/--ct to define an ad-hoc system")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    graph = _load_graph(args.taskgraph)
    system = _make_system(args)
    problem = PartitionProblem.from_system(graph, system)
    partitioner = make_partitioner(SolverSpec(partitioner=args.partitioner))
    result = partitioner.partition(problem)
    assert_valid(problem, result)
    print(result.describe())
    metrics = compute_metrics(result, problem.resource_capacity)
    print(f"mean utilisation: {metrics.mean_utilisation * 100:.0f}%  "
          f"max boundary transfer: {metrics.max_boundary_words} words")
    report = getattr(partitioner, "last_report", None)
    if isinstance(report, IlpPartitionerReport):
        print(f"ILP: {report.model_variables} variables, {report.model_constraints} "
              f"constraints, solved in {report.solve_time:.2f} s "
              f"(bounds tried: {report.attempted_bounds}, "
              f"delay bound {report.delay_bound * 1e9:.0f} ns)")
    elif isinstance(report, PortfolioReport):
        print(f"portfolio: winner={report.winner} certified={report.certified} "
              f"lower bound {report.lower_bound * 1e6:.2f} us "
              f"({report.total_time:.2f} s)")
    elif isinstance(report, MultilevelReport):
        levels = "->".join(str(count) for count in report.level_sizes)
        print(f"multilevel: inner={report.inner} levels {levels} "
              f"refine moves={report.refinement_moves} "
              f"(coarsen {report.coarsen_time:.2f} s, "
              f"inner {report.inner_time:.2f} s, "
              f"refine {report.refine_time:.2f} s)")
        if report.stalled:
            print(f"multilevel: coarsening stalled at {report.coarse_tasks} tasks, "
                  f"above the {partitioner.max_coarse_tasks}-task target (no safe "
                  "merge fits the cluster cap)")
    return 0


#: Table columns of ``repro partition-batch`` rows.
BATCH_COLUMNS = [
    "tag", "status", "source", "partitioner", "backend",
    "partitions", "total_latency_s", "solve_time_s", "error",
]

#: Table columns of ``repro flow --batch`` rows.
FLOW_COLUMNS = [
    "tag", "workload", "status", "partition_source", "partitions",
    "k", "block_delay_ns", "total_latency_s", "error",
]


def _write_rows(
    rows: List[dict],
    fmt: str,
    output: Optional[str],
    title: str,
    columns: Optional[List[str]] = None,
    empty: Optional[str] = None,
) -> None:
    """Write *rows* as an aligned table, JSON, or CSV to *output* (or stdout).

    JSON and CSV carry every key of the rows.  The table shows *columns*
    (default: the first row's keys) under *title*; with no rows it prints
    *empty* when given.
    """
    with (
        open(output, "w", encoding="utf-8", newline="")
        if output
        else contextlib.nullcontext(sys.stdout)
    ) as stream:
        if fmt == "json":
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        elif fmt == "csv":
            if rows:
                writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
        elif not rows and empty is not None:
            stream.write(f"{empty}\n")
        else:
            from .experiments.report import format_table

            stream.write(format_table(rows, columns=columns, title=title))
            stream.write("\n")


def cmd_partition_batch(args: argparse.Namespace) -> int:
    system = _make_system(args)
    engine = PartitionEngine(EngineConfig(
        workers=args.workers,
        partitioner=args.partitioner,
        time_limit=args.time_limit,
        job_timeout=args.job_timeout,
        cache_dir=args.cache_dir,
    ))
    ct_values = _parse_ct_sweep(args.ct_sweep) or [system.reconfiguration_time]
    jobs = []
    for path in (args.taskgraphs or ["dct"]):
        graph = _load_graph(path)
        jobs.extend(ct_sweep_jobs(engine, graph, system, ct_values))
    jobs = jobs * max(args.repeat, 1)
    batch = engine.solve_batch(jobs)

    _write_rows(batch.rows(), args.format, args.output,
                "Batched temporal partitioning", columns=BATCH_COLUMNS)
    print(batch.describe(), file=sys.stderr)
    stats = engine.stats.snapshot()
    print(
        f"cache: {stats['cache_memory_hits']} memory hits, "
        f"{stats['cache_disk_hits']} disk hits, {stats['cache_misses']} misses; "
        f"{stats['deduped']} deduped in batch",
        file=sys.stderr,
    )
    return 0 if batch.ok else 1


def cmd_workloads_list(args: argparse.Namespace) -> int:
    from .workloads import catalog_errors, iter_workloads

    # Optional-dependency failures must not break catalog browsing: the
    # package records import-time library failures instead of raising.
    for message in catalog_errors():
        print(f"note: part of the catalog is unavailable ({message})")
    registered = list(iter_workloads())
    if not registered:
        print("No workloads registered"
              + (" — install the missing dependencies above to enable the "
                 "builtin catalog." if catalog_errors() else "."))
        return 0
    print("Registered workloads:")
    for workload in registered:
        task_count = workload.default_params.get("task_count")
        if "huge" in workload.tags and isinstance(task_count, int):
            # A huge tier takes seconds to build; its size is a parameter.
            stats = f"{task_count:>3} tasks, built on demand"
        else:
            try:
                graph = workload.build_graph()
                stats = f"{len(graph):>3} tasks, {graph.edge_count():>3} edges"
            except Exception as error:  # noqa: BLE001 - keep listing the rest
                stats = f"unavailable ({type(error).__name__}: {error})"
        variants = len(workload.variants())
        suffix = f"  [{variants} variants]" if variants > 1 else ""
        print(f"  {workload.name:<16} {stats:<22} {workload.description}{suffix}")
    return 0


def cmd_workloads_show(args: argparse.Namespace) -> int:
    from .workloads import get_workload

    workload = get_workload(args.name)
    print(workload.describe())
    graph = workload.build_graph()
    print(f"  graph: {len(graph)} tasks, {graph.edge_count()} edges, "
          f"env I/O {graph.total_env_input_words()}/{graph.total_env_output_words()} words")
    print(f"  system: {workload.default_system().describe()}")
    if len(workload.variants()) > 1:
        print("  variants:")
        for variant in workload.variants():
            print(f"    {variant.name}")
    return 0


def _flow_batch(args: argparse.Namespace) -> int:
    """``repro flow --batch``: workload flows through the flow engine."""
    if not args.workload:
        print("error: --batch requires --workload (a name, or 'all')", file=sys.stderr)
        return 2
    from .workloads import workload_names

    names = (
        workload_names(exclude_tags=("huge",))
        if args.workload == "all"
        else [args.workload]
    )
    flow_engine = FlowEngine(
        config=EngineConfig(workers=args.workers, cache_dir=args.cache_dir)
    )
    ct_values = _parse_ct_sweep(args.ct_sweep)
    if ct_values is None and args.ct is not None:
        ct_values = [args.ct / 1000.0]
    jobs = workload_flow_jobs(
        names=names,
        ct_values=ct_values,
        system=_make_system(args) if args.system is not None else None,
        variants=args.variants,
        partitioner=args.partitioner,
    )
    if args.round_blocks:
        for job in jobs:
            job.options = dataclasses_replace(job.options, round_memory_blocks=True)
    if not jobs:
        print("no flow jobs to run (is the workload catalog empty?)", file=sys.stderr)
        return 0
    batch = flow_engine.run_batch(jobs)
    _write_rows(batch.rows(), args.format, args.output, "Batched design flows",
                columns=FLOW_COLUMNS)
    print(batch.describe(), file=sys.stderr)
    stage_seconds = batch.stage_seconds_total()
    if stage_seconds:
        slowest = ", ".join(
            f"{stage} {seconds:.3f}s"
            for stage, seconds in sorted(
                stage_seconds.items(), key=lambda item: -item[1]
            )
        )
        print(f"stage wall-time totals: {slowest}", file=sys.stderr)
    # (per-stage cache hits are already part of batch.describe() above)
    stats = flow_engine.stats.snapshot()
    print(
        f"partition cache: {stats['cache_memory_hits']} memory hits, "
        f"{stats['cache_disk_hits']} disk hits, {stats['cache_misses']} misses; "
        f"{stats['deduped']} deduped in batch",
        file=sys.stderr,
    )
    return 0 if batch.ok else 1


def _flow_single_rows(args: argparse.Namespace, graph, system, options,
                      workload: str) -> int:
    """``repro flow --format json|csv`` without ``--batch``.

    The single-job path shares the batch path's serialisation exactly: one
    flow job through the flow engine, rows out of
    :meth:`~repro.synth.flow_engine.FlowReport.row` — so the service
    client, the batch CLI and the one-shot CLI emit identical shapes.
    """
    from .synth.flow_engine import FlowJob

    engine = FlowEngine(config=EngineConfig(workers=0))
    batch = engine.run_batch([
        FlowJob(graph=graph, system=system, options=options,
                tag=graph.name, workload=workload)
    ])
    _write_rows(batch.rows(), args.format, args.output, "Batched design flows",
                columns=FLOW_COLUMNS)
    print(batch.describe(failures_only=True), file=sys.stderr)
    return 0 if batch.ok else 1


def cmd_flow(args: argparse.Namespace) -> int:
    if args.workload and args.taskgraph != "dct":
        print("error: pass either a task-graph file or --workload, not both",
              file=sys.stderr)
        return 2
    if args.batch:
        return _flow_batch(args)
    if args.workload:
        from .workloads import get_workload

        workload = get_workload(args.workload)
        graph = workload.build_graph()
        options = workload.flow_options()
        if args.partitioner is not None:
            options = dataclasses_replace(options, partitioner=args.partitioner)
        if args.round_blocks:
            options = dataclasses_replace(options, round_memory_blocks=True)
        if args.system is None:
            system = workload.default_system()
            if args.ct is not None:
                system = system.with_reconfiguration_time(args.ct / 1000.0)
        else:
            system = _make_system(args)
    else:
        graph = _load_graph(args.taskgraph)
        system = _make_system(args)
        options = FlowOptions(
            partitioner=args.partitioner or "ilp",
            round_memory_blocks=args.round_blocks,
        )
    if args.format != "table":
        return _flow_single_rows(args, graph, system, options, args.workload or "")
    design = DesignFlow(system, options).build(graph)
    print(design.describe())
    print()
    print(design.memory_map.describe())
    print()
    strategy = SequencingStrategy(args.strategy)
    print(f"--- host sequencing code ({strategy.value.upper()}) ---")
    print(design.host_code_for(strategy))
    if args.blocks:
        static_spec = None
        if args.static_block_delay_ns:
            from .fission import static_timing_spec

            static_spec = static_timing_spec(
                args.static_block_delay_ns * 1e-9,
                graph.total_env_input_words(),
                graph.total_env_output_words(),
            )
        if static_spec is not None:
            comparison = compare_static_vs_rtr(
                strategy, static_spec, design.timing_spec, args.blocks, system
            )
            verdict = "RTR wins" if comparison.rtr_wins else "static wins"
            print(f"{args.blocks} computations: static {comparison.static.total:.3f} s, "
                  f"RTR {comparison.rtr.total:.3f} s ({comparison.improvement * 100:+.1f}%, {verdict})")
    return 0


def _parse_csv_list(text: str, what: str) -> List[str]:
    """Split a comma-separated option value, rejecting empty items."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ReproError(f"--{what} expects a non-empty comma-separated list")
    return items


def _explore_space_and_config(
    args: argparse.Namespace, workers: int = 0, cache_dir: Optional[str] = None
):
    """Build the (space, config) pair an exploration invocation names."""
    from .explore import ExploreConfig, SearchSpace, resolve_objectives
    from .workloads import workload_names

    # Resolved once, before a run store is even created: fail fast.
    objectives = tuple(_parse_csv_list(args.objectives, "objectives"))
    resolve_objectives(objectives)

    names = (
        workload_names(exclude_tags=("huge",))
        if args.workload == "all"
        else [args.workload]
    )
    ct_values = _parse_ct_sweep(args.ct_sweep)
    space = SearchSpace.for_workloads(
        names,
        variants=args.variants,
        systems=tuple(_parse_csv_list(args.systems, "systems")),
        ct_values=tuple(ct_values) if ct_values else (None,),
        partitioners=tuple(_parse_csv_list(args.partitioners, "partitioners")),
        sequencings=tuple(_parse_csv_list(args.sequencing, "sequencing")),
    )
    config = ExploreConfig(
        strategy=args.strategy,
        budget=args.budget,
        batch_size=args.batch_size,
        seed=args.seed,
        objectives=objectives,
        eval_blocks=args.eval_blocks,
        workers=workers,
        cache_dir=cache_dir,
    )
    return space, config


def _refuse_existing_stores(args: argparse.Namespace, paths, what: str) -> None:
    """Refuse to overwrite a non-empty store unless --resume or --fresh says so."""
    for path in paths:
        if path.exists() and path.stat().st_size and not args.resume and not args.fresh:
            raise ReproError(
                f"{what} {path} already exists; pass --resume to continue "
                "it or --fresh to overwrite it"
            )


def cmd_explore(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .explore import (
        Explorer,
        ShardSpec,
        default_store_path,
        open_run_store,
        shard_store_path,
        shard_store_paths,
    )

    if args.scheduler:
        return _explore_scheduled_worker(args)

    space, config = _explore_space_and_config(
        args, workers=args.workers, cache_dir=args.cache_dir
    )
    if args.resume and args.fresh:
        raise ReproError("pass either --resume or --fresh, not both")
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if args.shard_index is not None and not 0 <= args.shard_index < args.shards:
        raise ReproError(
            f"--shard-index {args.shard_index} outside 0..{args.shards - 1} "
            f"(--shards {args.shards})"
        )

    store_base = Path(args.store or default_store_path(space))
    if args.shards > 1 and args.shard_index is None:
        return _explore_sharded(args, space, config, store_base)

    if args.shard_index is not None:
        shard = ShardSpec(args.shard_index, args.shards)
        store_path = shard_store_path(store_base, args.shard_index, args.shards)
    else:
        shard = None
        store_path = store_base
    _refuse_existing_stores(args, [store_path], "run store")
    with open_run_store(store_path, space, config, resume=args.resume) as store:
        explorer = Explorer(space, config=config, store=store, shard=shard)
        result = explorer.run()

    if shard is not None:
        print(shard.describe(), file=sys.stderr)
        print(
            "merge the shard stores with: repro frontier "
            + " ".join(
                f"--store {path}"
                for path in shard_store_paths(store_base, args.shards)
            ),
            file=sys.stderr,
        )
    _write_rows(result.front.rows(), args.format, args.output, "Pareto front",
                empty="(empty Pareto front)")
    print(space.describe(), file=sys.stderr)
    print(result.describe(), file=sys.stderr)
    print(
        f"flow jobs evaluated: {result.flow_evaluated} "
        f"(run store: {store_path}; {result.store_hits} store hits)",
        file=sys.stderr,
    )
    print(explorer.flow_engine.pipeline.describe_stats(), file=sys.stderr)
    stats = result.engine_stats
    print(
        f"partition cache: {stats.get('cache_memory_hits', 0)} memory hits, "
        f"{stats.get('cache_disk_hits', 0)} disk hits, "
        f"{stats.get('cache_misses', 0)} misses; "
        f"{stats.get('deduped', 0)} deduped; solve memo: "
        f"milp {stats.get('memo_milp_hits', 0)} hits, "
        f"{stats.get('memo_milp_misses', 0)} misses, "
        f"anneal {stats.get('memo_anneal_hits', 0)} hits, "
        f"{stats.get('memo_anneal_misses', 0)} misses",
        file=sys.stderr,
    )
    return 0 if len(result.front) else 1


def _explore_sharded(args: argparse.Namespace, space, config, store_base) -> int:
    """``repro explore --shards N``: N parallel shard workers plus the merge."""
    from .explore import run_sharded, shard_store_paths

    paths = shard_store_paths(store_base, args.shards)
    _refuse_existing_stores(args, paths, "shard store")
    result = run_sharded(space, config, args.shards, store_base, resume=args.resume)
    _write_rows(result.front.rows(), args.format, args.output, "Pareto front",
                empty="(empty Pareto front)")
    print(space.describe(), file=sys.stderr)
    for index, (shard, path) in enumerate(zip(result.shards, paths)):
        print(
            f"  shard {index + 1}/{args.shards}: {shard.on_shard} "
            f"evaluated ({shard.flow_evaluated} flow, {shard.store_hits} store "
            f"hits, {shard.failures} failed, {shard.off_shard} off-shard) in "
            f"{shard.wall_time:.2f} s -> {path}",
            file=sys.stderr,
        )
    print(result.merge.describe(), file=sys.stderr)
    print(result.describe(), file=sys.stderr)
    return 0 if len(result.front) else 1


def _explore_scheduled_worker(args: argparse.Namespace) -> int:
    """``repro explore --scheduler URL``: pull ranges until the run is done."""
    from .explore import run_scheduled_worker

    result = run_scheduled_worker(
        args.scheduler,
        worker_id=args.worker_id,
        cache_dir=args.cache_dir,
        shared_store=args.shared_store,
        max_ranges=args.max_ranges,
    )
    print(result.describe(), file=sys.stderr)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from .explore import (
        ExplorationPlan,
        default_store_path,
        merge_stores,
    )
    from .serve import FlowServer, ServeConfig

    space, config = _explore_space_and_config(args)
    plan = ExplorationPlan.from_config(space, config, range_count=args.ranges)
    store_base = Path(args.store or default_store_path(space))
    server = FlowServer(ServeConfig(
        host=args.host, port=args.port, workers=args.flow_workers
    ))
    state = server.attach_schedule(
        plan, store_base, lease_timeout=args.lease_timeout
    )

    async def main() -> bool:
        await server.start()
        host, port = server.address
        print(
            f"repro schedule: listening on http://{host}:{port} — "
            f"{plan.describe()} (lease timeout {args.lease_timeout:g} s); "
            f"point workers at it with: repro explore --scheduler "
            f"http://{host}:{port}",
            file=sys.stderr, flush=True,
        )
        serve_task = asyncio.ensure_future(server.serve_forever())
        done_task = asyncio.ensure_future(state.done.wait())
        await asyncio.wait(
            (serve_task, done_task),
            timeout=args.timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        finished = state.done.is_set()
        for task in (serve_task, done_task):
            task.cancel()
        await server.shutdown()
        return finished

    try:
        finished = asyncio.run(main())
    except KeyboardInterrupt:
        finished = state.done.is_set()
    if not finished:
        raise ReproError(
            "the schedule did not complete "
            f"({state.scheduler.describe()}); the shard stores that did "
            "arrive are still merge-able with 'repro frontier --store ...'"
        )
    paths = [
        state.scheduler.store_paths()[index]
        for index in range(plan.range_count)
    ]
    merged = merge_stores(paths, objectives=config.objectives)
    _write_rows(merged.front.rows(), args.format, args.output, "Pareto front",
                empty="(empty Pareto front)")
    print(space.describe(), file=sys.stderr)
    print(state.scheduler.describe(), file=sys.stderr)
    print(merged.describe(), file=sys.stderr)
    return 0 if len(merged.front) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import FAMILIES, Verifier, VerifyConfig

    families = (
        tuple(_parse_csv_list(args.families, "families"))
        if args.families
        else FAMILIES
    )
    config = VerifyConfig(
        scenarios=args.scenarios,
        seed=args.seed,
        families=families,
        workers=args.workers,
        blocks=args.blocks,
        store_path=args.store,
        cache_dir=args.cache_dir,
        shrink=not args.no_shrink,
    )
    report = Verifier(config).run()

    _write_rows(report.rows(), args.format, args.output,
                "Differential verification", empty="(no scenarios verified)")
    print(report.describe(), file=sys.stderr)
    if args.store:
        print(f"verdicts recorded to {args.store}", file=sys.stderr)
    for record in report.failures():
        print(f"counterexample: {record.scenario.describe()}", file=sys.stderr)
        if record.shrunk:
            print(
                f"  shrunk to {record.shrunk['task_count']} task(s) "
                f"(oracles: {', '.join(record.shrunk['oracles'])})",
                file=sys.stderr,
            )
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime import default_cache_dir
    from .serve import FlowServer, ServeConfig

    cache_dir = args.cache_dir
    if cache_dir is None and not args.private_cache:
        cache_dir = str(default_cache_dir())
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
    )

    async def main() -> None:
        server = FlowServer(config)
        await server.start()
        host, port = server.address
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"({config.workers} worker(s), queue depth {config.queue_depth}, "
            f"cache {server.cache_dir})",
            flush=True,
        )
        await server.serve_forever()
        print("repro serve: drained, exiting", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # signal handler already drained; a second ^C lands here
    return 0


def _submit_specs(args: argparse.Namespace):
    """Build the (repeated) JobSpec a ``repro submit`` invocation names."""
    from .serve import JobSpec

    if args.params:
        try:
            params = json.loads(args.params)
        except ValueError as error:
            raise ReproError(f"--params must be a JSON object: {error}")
        if not isinstance(params, dict):
            raise ReproError("--params must be a JSON object")
    else:
        params = {}
    spec = JobSpec(
        workload=args.workload,
        params=params,
        system=args.system,
        ct_ms=args.ct,
        partitioner=args.partitioner,
        seed=args.seed,
        priority=args.priority,
        tag=args.tag,
    )
    return [spec] * max(args.count, 1)


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve import FlowServiceClient

    client = FlowServiceClient(args.url)
    acks = client.submit_many(_submit_specs(args))
    failures = 0
    for ack in acks:
        if "error" in ack:
            detail = ack["error"]
            print(f"rejected: [{detail.get('code')}] {detail.get('message')}",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"{ack['job_id']}  {ack['disposition']}  key={ack['key'][:12]}")
    if not args.wait:
        return 1 if failures else 0
    rows = []
    for ack in acks:
        if "error" in ack:
            continue
        client.wait(ack["job_id"], timeout=args.timeout)
        result = client.result(ack["job_id"])
        row = {"job_id": ack["job_id"], "state": result["state"]}
        row.update(result.get("result") or {})
        if result["state"] == "failed":
            row["error"] = result.get("error", "")
            failures += 1
        rows.append(row)
    if rows:
        _write_rows(rows, args.format, None, "Submitted jobs", empty="(no jobs)")
    return 1 if failures else 0


def cmd_job(args: argparse.Namespace) -> int:
    from .serve import FlowServiceClient

    client = FlowServiceClient(args.url)
    if args.cancel:
        view = client.cancel(args.job_id)
    elif args.wait:
        view = client.wait(args.job_id, timeout=args.timeout)
    else:
        view = client.status(args.job_id)
    if args.result:
        view = client.result(args.job_id)  # 409 -> structured error exit
    json.dump(view, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if view.get("state") == "failed":
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .runtime import (
        clear_cache_dir,
        default_cache_dir,
        prune_cache_dir,
        scan_cache_dir,
    )

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    if args.cache_command == "stats":
        areas = scan_cache_dir(root)
        print(f"cache root: {root}" + ("" if root.is_dir() else " (missing)"))
        total_entries = 0
        total_bytes = 0
        for area in areas:
            total_entries += area.entries
            total_bytes += area.bytes
            print(f"  {area.name:<22} {area.entries:>7} entries  "
                  f"{area.bytes / 1024:>10.1f} KiB")
        print(f"  {'total':<22} {total_entries:>7} entries  "
              f"{total_bytes / 1024:>10.1f} KiB")
        return 0
    if args.cache_command == "clear":
        removed = clear_cache_dir(root)
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} "
              f"under {root}")
        return 0
    # prune
    if args.max_entries < 0:
        raise ReproError("--max-entries must be non-negative")
    removed = prune_cache_dir(root, args.max_entries)
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} under {root} "
          f"(each area kept to {args.max_entries} newest entries)")
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    if args.store:
        # Merge any number of run stores (shard stores of one run, or
        # several independent runs over one evaluation context) through the
        # Pareto fold and print the union frontier.
        from .explore import merge_stores, resolve_objectives

        objectives = tuple(_parse_csv_list(args.objectives, "objectives"))
        resolve_objectives(objectives)
        result = merge_stores(args.store, objectives=objectives)
        _write_rows(result.front.rows(), args.format, args.output,
                    "Pareto front", empty="(empty Pareto front)")
        print(result.describe(), file=sys.stderr)
        return 0 if len(result.front) else 1

    from .experiments.frontier import format_frontier_table, jpeg_dct_frontier

    report = jpeg_dct_frontier()
    print(format_frontier_table(report))
    print()
    print(report.describe())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    study = build_case_study(use_ilp=not args.no_ilp)
    result = reproduce_table1(study)
    print(result.formatted())
    print(f"\nFDH ever beats the static design: {result.fdh_ever_improves} (paper: never)")
    print(f"Reconfiguration-absorption point: {result.breakeven_blocks} blocks/run "
          "(paper: ~42,553)")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    study = build_case_study(use_ilp=not args.no_ilp)
    result = reproduce_table2(study)
    print(result.formatted())
    print(f"\nIDH improvement at 245,760 blocks: {result.improvement_at_largest * 100:.1f}% "
          "(paper: 42%)")
    print(f"XC6000 conjecture (CT = 500 us): {result.xc6000_improvement * 100:.1f}% (paper: 47%)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = reproduction_report(use_ilp=not args.no_ilp)
    print(format_reproduction_report(report))
    return 0 if report.all_ok else 1


def cmd_case_study(args: argparse.Namespace) -> int:
    study = build_case_study(use_ilp=not args.no_ilp)
    print(study.system.describe())
    print()
    print(study.partitioning.describe())
    print(study.fission.describe())
    print()
    gap = static_design_delay() - study.rtr_spec.block_delay
    print(f"Per-block latency: static {format_time(static_design_delay())}, "
          f"RTR {format_time(study.rtr_spec.block_delay)} (gap {format_time(gap)})")
    for strategy in SequencingStrategy:
        comparison = compare_static_vs_rtr(
            strategy, study.static_spec, study.rtr_spec, 245_760, study.system
        )
        verdict = "RTR wins" if comparison.rtr_wins else "static wins"
        print(f"  {strategy.value.upper()}: improvement {comparison.improvement * 100:+.1f}% ({verdict})")
    print(f"  XC6000 conjecture: {xc6000_conjecture(study) * 100:.1f}%")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_system_arguments(
    parser: argparse.ArgumentParser, default: Optional[str] = DEFAULT_SYSTEM
) -> None:
    parser.add_argument(
        "--system", default=default,
        choices=sorted(SYSTEM_PRESETS) + ["custom"],
        help="target system preset (default: the paper's XC4044 board, or the "
             "workload's own system when --workload is given)",
    )
    parser.add_argument("--clbs", type=int, default=1000,
                        help="CLB capacity for --system custom")
    parser.add_argument("--memory", type=int, default=32768,
                        help="on-board memory in words for --system custom")
    parser.add_argument("--ct", type=float, default=None,
                        help="reconfiguration time in milliseconds (overrides the preset)")


def _add_exploration_arguments(
    parser: argparse.ArgumentParser, strategies: List[str]
) -> None:
    """The space, strategy and output arguments of ``explore`` and ``schedule``."""
    from .explore import objective_names

    parser.add_argument("--workload", default="jpeg_dct",
                        help="registered workload name, or 'all' (default: jpeg_dct)")
    parser.add_argument("--variants", action="store_true",
                        help="expand each workload's deterministic parameter sweep")
    parser.add_argument("--strategy", default="grid", choices=strategies,
                        help="search strategy (default: grid)")
    parser.add_argument("--budget", type=int, default=64,
                        help="maximum design points to visit (default: 64)")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="points proposed/evaluated per round (default: 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed; same seed + budget = identical trajectory")
    parser.add_argument("--objectives", default="latency,throughput",
                        help="comma-separated objectives (known: "
                             f"{','.join(objective_names())})")
    parser.add_argument("--eval-blocks", type=int, default=16384,
                        help="loop iterations the overhead/throughput objectives "
                             "are evaluated at (default: 16384)")
    parser.add_argument("--systems", default="workload-default",
                        help="comma-separated system presets to sweep "
                             "('workload-default' = each workload's own board)")
    parser.add_argument("--ct-sweep", default="1,5,10,50,100",
                        help="comma-separated reconfiguration times in "
                             "milliseconds (default: 1,5,10,50,100)")
    parser.add_argument("--partitioners", default="ilp,list,level",
                        help="comma-separated partitioners to sweep")
    parser.add_argument("--sequencing", default="fdh,idh",
                        help="comma-separated sequencing strategies to sweep")
    parser.add_argument("--store", default=None,
                        help="run-store JSONL path; shard stores land next to "
                             "it (default: .repro-explore/run-<space>.jsonl)")
    parser.add_argument("--format", default="table", choices=["table", "json", "csv"])
    parser.add_argument("--output", default=None,
                        help="write the Pareto front to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal partitioning and loop fission for RTR FPGA synthesis "
                    "(DAC 1999 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    systems = subparsers.add_parser("systems", help="list the named system presets")
    systems.set_defaults(handler=cmd_systems)

    workloads = subparsers.add_parser(
        "workloads", help="browse the registered workload catalog"
    )
    workloads_sub = workloads.add_subparsers(dest="workloads_command", required=True)
    workloads_list = workloads_sub.add_parser("list", help="list registered workloads")
    workloads_list.set_defaults(handler=cmd_workloads_list)
    workloads_show = workloads_sub.add_parser(
        "show", help="show one workload in detail"
    )
    workloads_show.add_argument("name", help="registered workload name")
    workloads_show.set_defaults(handler=cmd_workloads_show)

    partition = subparsers.add_parser("partition", help="temporally partition a task graph")
    partition.add_argument("taskgraph", nargs="?", default="dct",
                           help="task-graph JSON file, or 'dct' for the case study (default)")
    partition.add_argument("--partitioner", default="ilp", choices=PARTITIONER_CHOICES)
    _add_system_arguments(partition)
    partition.set_defaults(handler=cmd_partition)

    batch = subparsers.add_parser(
        "partition-batch",
        help="solve a batch of partitioning problems through the parallel engine",
    )
    batch.add_argument("taskgraphs", nargs="*", default=None, metavar="taskgraph",
                       help="task-graph JSON files, or 'dct' for the case study (default)")
    batch.add_argument("--partitioner", default="ilp", choices=PARTITIONER_CHOICES)
    batch.add_argument("--workers", type=int, default=0,
                       help="worker processes for cache misses (0/1 = in-process)")
    batch.add_argument("--ct-sweep", default="",
                       help="comma-separated reconfiguration times in milliseconds; "
                            "each graph is solved once per value")
    batch.add_argument("--repeat", type=int, default=1,
                       help="submit the job list this many times (cache/dedup demo)")
    batch.add_argument("--time-limit", type=float, default=None,
                       help="per-solve time limit in seconds (passed to the solver)")
    batch.add_argument("--job-timeout", type=float, default=None,
                       help="wall-clock limit in seconds for the batch's pool phase "
                            "(requires --workers >= 2)")
    batch.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache")
    batch.add_argument("--format", default="table", choices=["table", "json", "csv"])
    batch.add_argument("--output", default=None,
                       help="write the rows to this file instead of stdout")
    _add_system_arguments(batch)
    batch.set_defaults(handler=cmd_partition_batch)

    flow = subparsers.add_parser(
        "flow", help="run the complete design flow (file, workload, or batch)"
    )
    flow.add_argument("taskgraph", nargs="?", default="dct")
    flow.add_argument("--workload", default=None,
                      help="run a registered workload instead of a task-graph file "
                           "('all' with --batch runs the whole catalog)")
    flow.add_argument("--batch", action="store_true",
                      help="run workload flows as a batch through the flow engine")
    flow.add_argument("--variants", action="store_true",
                      help="with --batch: expand each workload's parameter sweep")
    flow.add_argument("--workers", type=int, default=0,
                      help="with --batch: worker processes for partition-stage misses")
    flow.add_argument("--ct-sweep", default="",
                      help="with --batch: comma-separated reconfiguration times (ms)")
    flow.add_argument("--cache-dir", default=None,
                      help="with --batch: directory for the on-disk result cache")
    flow.add_argument("--format", default="table", choices=["table", "json", "csv"],
                      help="with --batch: output format")
    flow.add_argument("--output", default=None,
                      help="with --batch: write the rows to this file instead of stdout")
    flow.add_argument("--partitioner", default=None, choices=PARTITIONER_CHOICES,
                      help="partitioner override (default: the workload's own choice, "
                           "or ilp for task-graph files)")
    flow.add_argument("--strategy", default="idh", choices=["fdh", "idh"])
    flow.add_argument("--round-blocks", action="store_true",
                      help="round memory blocks to powers of two (concatenation addressing)")
    flow.add_argument("--blocks", type=int, default=0,
                      help="workload size for a static-vs-RTR comparison")
    flow.add_argument("--static-block-delay-ns", type=float, default=0.0,
                      help="per-computation delay of the static baseline, in ns")
    _add_system_arguments(flow, default=None)
    flow.set_defaults(handler=cmd_flow)

    from .explore import shardable_strategy_names, strategy_names

    explore = subparsers.add_parser(
        "explore",
        help="search the (workload, system, CT, partitioner, sequencing) design "
             "space for Pareto-optimal designs",
    )
    _add_exploration_arguments(explore, strategy_names())
    explore.add_argument("--resume", action="store_true",
                         help="resume from the run store: completed points are "
                              "served without re-running their flows")
    explore.add_argument("--fresh", action="store_true",
                         help="deliberately overwrite an existing run store "
                              "(without --resume or --fresh an existing store "
                              "is refused, never silently truncated)")
    explore.add_argument("--workers", type=int, default=0,
                         help="worker processes for partition-stage misses "
                              "(ignored with --shards: the shard processes "
                              "are the parallelism)")
    explore.add_argument("--cache-dir", default=None,
                         help="directory for the on-disk partition result cache")
    explore.add_argument("--shards", type=int, default=1,
                         help="split the run into N fingerprint-range shard "
                              "workers (parallel processes over the shared "
                              "cache), each with its own "
                              "<store>.shard-<i>-of-<N>.jsonl store, then "
                              "merge their frontiers (default: 1 = unsharded)")
    explore.add_argument("--shard-index", type=int, default=None,
                         help="with --shards N: run ONLY shard i of N in this "
                              "process (for spreading shards across machines); "
                              "merge afterwards with 'repro frontier --store "
                              "...' over the shard stores")
    explore.add_argument("--scheduler", default=None, metavar="URL",
                         help="pull-worker mode: fetch the plan from a "
                              "'repro schedule' daemon at URL and lease "
                              "fingerprint ranges until the whole run is "
                              "done (the space/strategy arguments above are "
                              "ignored — the daemon's plan wins)")
    explore.add_argument("--worker-id", default=None,
                         help="with --scheduler: worker identity shown in "
                              "the scheduler's accounting "
                              "(default: <hostname>-<pid>)")
    explore.add_argument("--shared-store", default=None, metavar="BASE",
                         help="with --scheduler: write shard stores under "
                              "this store base on a filesystem the daemon "
                              "shares, and register paths instead of "
                              "streaming store bytes back")
    explore.add_argument("--max-ranges", type=int, default=None,
                         help="with --scheduler: stop after completing N "
                              "ranges (default: run until the schedule is "
                              "done)")
    explore.set_defaults(handler=cmd_explore)

    schedule = subparsers.add_parser(
        "schedule",
        help="run a work-stealing shard scheduler daemon: cut the design "
             "space into M fingerprint ranges, lease them to 'repro explore "
             "--scheduler' workers with timeouts/re-issue/stealing, then "
             "Pareto-merge the returned shard stores (byte-identical to the "
             "unsharded run)",
    )
    _add_exploration_arguments(schedule, shardable_strategy_names())
    schedule.add_argument("--ranges", type=int, default=16,
                          help="fine partition size M — make it several "
                               "times the worker count so stealing has "
                               "slack (default: 16)")
    schedule.add_argument("--lease-timeout", type=float, default=30.0,
                          help="seconds before an unrenewed lease is "
                               "reclaimed and its range re-issued "
                               "(default: 30)")
    schedule.add_argument("--host", default="127.0.0.1",
                          help="interface to bind (default: 127.0.0.1)")
    schedule.add_argument("--port", type=int, default=8788,
                          help="port to bind; 0 picks a free port "
                               "(default: 8788)")
    schedule.add_argument("--flow-workers", type=int, default=0,
                          help="flow-engine workers for ordinary job "
                               "submissions on the same daemon (default: 0 "
                               "= scheduler-only)")
    schedule.add_argument("--timeout", type=float, default=None,
                          help="give up if the schedule has not completed "
                               "after this many seconds (default: wait "
                               "forever)")
    schedule.set_defaults(handler=cmd_schedule)

    verify = subparsers.add_parser(
        "verify",
        help="differentially verify the flow on seeded random scenarios "
             "(ILP vs. list, analytic timing vs. simulator, warm vs. cold, "
             "memory legality)",
    )
    verify.add_argument("--scenarios", type=int, default=50,
                        help="seeded scenarios to generate and verify (default: 50)")
    verify.add_argument("--seed", type=int, default=0,
                        help="base seed; the same seed reproduces the same "
                             "scenarios and the same verdict store byte-for-byte")
    verify.add_argument("--families", default="",
                        help="comma-separated scenario families "
                             "(default: layered,fanout,chain,diamond,degenerate)")
    verify.add_argument("--workers", type=int, default=0,
                        help="worker processes for partition-stage misses")
    verify.add_argument("--blocks", type=int, default=257,
                        help="loop iterations the timing oracle compares the "
                             "analytic models and the simulator at (default: 257)")
    verify.add_argument("--store", default=None,
                        help="write the verdict JSONL to this path")
    verify.add_argument("--cache-dir", default=None,
                        help="shared cache root for the warm/cold runs "
                             "(default: a private temporary directory)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="do not shrink failing scenarios to smaller "
                             "node counts")
    verify.add_argument("--format", default="table", choices=["table", "json", "csv"])
    verify.add_argument("--output", default=None,
                        help="write the rows to this file instead of stdout")
    verify.set_defaults(handler=cmd_verify)

    serve = subparsers.add_parser(
        "serve",
        help="run the design-flow service daemon (async HTTP/JSON API with a "
             "deduplicating job queue and N flow-engine workers)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="port to bind; 0 picks a free port (default: 8787)")
    serve.add_argument("--workers", type=int, default=2,
                       help="flow-engine workers draining the queue (default: 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="queued jobs accepted before 429 back-pressure "
                            "(default: 64)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared cache root for partition outcomes and stage "
                            "artifacts (default: .repro-cache / $REPRO_CACHE_DIR)")
    serve.add_argument("--private-cache", action="store_true",
                       help="use a private temporary cache that dies with the "
                            "daemon instead of the shared root")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
    serve.set_defaults(handler=cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit flow jobs to a running design-flow daemon"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8787",
                        help="daemon base URL (default: http://127.0.0.1:8787)")
    submit.add_argument("--workload", required=True,
                        help="registered workload name")
    submit.add_argument("--params", default="",
                        help="workload parameters as a JSON object")
    submit.add_argument("--system", default=None,
                        help="target system preset (default: the workload's own)")
    submit.add_argument("--ct", type=float, default=None,
                        help="reconfiguration time in milliseconds")
    submit.add_argument("--partitioner", default=None, choices=PARTITIONER_CHOICES,
                        help="partitioner override")
    submit.add_argument("--seed", type=int, default=0,
                        help="seed for the stochastic partitioners")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (higher runs earlier)")
    submit.add_argument("--tag", default="", help="display tag")
    submit.add_argument("--count", type=int, default=1,
                        help="submit N identical copies (they coalesce onto "
                             "one solve)")
    submit.add_argument("--wait", action="store_true",
                        help="wait for completion and print the result rows")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="with --wait: seconds to wait per job")
    submit.add_argument("--format", default="table", choices=["table", "json", "csv"])
    submit.set_defaults(handler=cmd_submit)

    job = subparsers.add_parser(
        "job", help="inspect, wait on, or cancel a daemon job"
    )
    job.add_argument("job_id", help="job id returned by 'repro submit'")
    job.add_argument("--url", default="http://127.0.0.1:8787",
                     help="daemon base URL (default: http://127.0.0.1:8787)")
    job.add_argument("--wait", action="store_true",
                     help="long-poll until the job is terminal")
    job.add_argument("--result", action="store_true",
                     help="fetch the deterministic result payload")
    job.add_argument("--cancel", action="store_true",
                     help="cancel the job if it is still queued")
    job.add_argument("--timeout", type=float, default=300.0,
                     help="with --wait: seconds to wait")
    job.set_defaults(handler=cmd_job)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and manage the shared disk caches (partition outcomes "
             "plus per-stage flow artifacts)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts and sizes per cache area"
    )
    cache_clear = cache_sub.add_parser("clear", help="remove every cached entry")
    cache_prune = cache_sub.add_parser(
        "prune", help="drop oldest entries beyond a per-area bound"
    )
    cache_prune.add_argument(
        "--max-entries", type=int, required=True,
        help="entries to keep per cache area (oldest-mtime pruned first)",
    )
    for sub in (cache_stats, cache_clear, cache_prune):
        sub.add_argument(
            "--cache-dir", default=None,
            help="cache root (default: .repro-cache, or $REPRO_CACHE_DIR)",
        )
        sub.set_defaults(handler=cmd_cache)

    frontier = subparsers.add_parser(
        "frontier",
        help="JPEG-DCT Pareto frontier vs. the paper's chosen design point, "
             "or (with --store) the merged union frontier of any number of "
             "exploration run stores",
    )
    frontier.add_argument("--store", action="append", default=[],
                          help="exploration run store(s) to merge through the "
                               "Pareto fold; repeat for shard stores "
                               "(default: the built-in paper frontier report)")
    frontier.add_argument("--objectives", default="latency,throughput",
                          help="with --store: comma-separated objectives the "
                               "merged front is computed over")
    frontier.add_argument("--format", default="table",
                          choices=["table", "json", "csv"],
                          help="with --store: output format")
    frontier.add_argument("--output", default=None,
                          help="with --store: write the front to this file "
                               "instead of stdout")
    frontier.set_defaults(handler=cmd_frontier)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (FDH)")
    table1.add_argument("--no-ilp", action="store_true",
                        help="use the paper's reference assignment instead of solving the ILP")
    table1.set_defaults(handler=cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2 (IDH)")
    table2.add_argument("--no-ilp", action="store_true")
    table2.set_defaults(handler=cmd_table2)

    case_study = subparsers.add_parser("case-study", help="print the full case-study summary")
    case_study.add_argument("--no-ilp", action="store_true")
    case_study.set_defaults(handler=cmd_case_study)

    report = subparsers.add_parser(
        "report", help="compare every paper claim against the reproduction"
    )
    report.add_argument("--no-ilp", action="store_true")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
