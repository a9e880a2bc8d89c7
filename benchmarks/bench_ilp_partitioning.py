"""E3 — ILP temporal partitioning: the DCT case study and solver hot path.

Five measurements:

* the complete scipy-backed partitioner run on the 32-task DCT graph
  (preprocessing lower bound, model build, MILP solve, extraction), with the
  paper's reported result asserted (3 partitions, 8,440 ns);
* the same instance through the library's own branch-and-bound backend;
* the scipy-backed run on the HLS-estimated DCT (every task re-costed by
  the estimator; N = 6), the instance whose proof of optimality the
  delay-bound row cut from 25-33 s to ~1 s on a 2-vCPU container, with
  its objective asserted;
* the accelerated built-in solver stack (portfolio: heuristic ladder +
  optimality certificate + warm-started, symmetry-broken, cardinality-cut
  branch-and-bound) against the reference configuration (plain
  formulation, cold start, resource-sum bound only) over the whole builtin
  workload set, with objectives asserted identical and the cold-solve
  speedup recorded.  The plain formulation includes the always-on
  ``sum_p d_p >= delay_lower_bound`` row, which no option removes, so the
  reference is no longer the exact pre-acceleration stack;
* the seeded annealer alone over the same workload set (seed 0, 2000
  moves each, median of 3 repeats), which times its incremental move
  checks and one-pass scoring.

Run standalone (``python benchmarks/bench_ilp_partitioning.py [--smoke]``)
or under pytest.  Environment knobs:

* ``REPRO_BENCH_STRICT=0`` — skip the hard >= 3x speedup assertion (CI
  smoke runners gate against committed baselines via
  ``benchmarks/check_regression.py`` instead);
* ``REPRO_BENCH_JSON_DIR`` — where ``BENCH_ilp_partitioning.json`` lands.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import pytest
from bench_utils import benchmark_seconds, record

from repro.jpeg import build_dct_task_graph
from repro.partition import (
    AnnealTemporalPartitioner,
    FormulationOptions,
    IlpTemporalPartitioner,
    PartitionProblem,
    PortfolioPartitioner,
    assert_valid,
)
from repro.synth import DesignFlow
from repro.taskgraph import partition_lower_bound
from repro.units import ns
from repro.workloads import get_workload

#: The builtin (non-verify) workload set the acceleration is measured on.
BUILTIN_WORKLOADS = (
    "fir_filterbank",
    "jpeg_dct",
    "matmul_pipeline",
    "random_layered",
    "wavelet_pyramid",
)


def test_ilp_partitioning_dct(benchmark, dct_problem, dct_graph):
    def run():
        return IlpTemporalPartitioner().partition(dct_problem)

    result = benchmark(run)
    assert_valid(dct_problem, result)

    print()
    print(result.describe())

    assert result.partition_count == 3
    assert sorted(info.task_count for info in result.partitions) == [8, 8, 16]
    first_partition_types = {
        dct_graph.task(name).task_type for name in result.tasks_in_partition(1)
    }
    assert first_partition_types == {"T1"}
    assert abs(result.computation_latency - ns(8440)) < 1e-12

    record(
        "ilp_partitioning",
        scipy_mean_seconds=benchmark_seconds(benchmark),
        partitions=result.partition_count,
        computation_latency_ns=result.computation_latency * 1e9,
        solve_time_seconds=result.solve_time,
    )


def test_ilp_partitioning_branch_and_bound_backend(benchmark, dct_problem):
    """The library's own branch-and-bound reaches the same optimum (slower)."""

    def run():
        return IlpTemporalPartitioner(backend="branch-and-bound").partition(dct_problem)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.partition_count == 3
    assert abs(result.computation_latency - ns(8440)) < 1e-12

    record(
        "ilp_partitioning",
        branch_and_bound_seconds=benchmark_seconds(benchmark),
        branch_and_bound_solve_seconds=result.solve_time,
    )


@pytest.fixture(scope="module")
def estimated_dct_problem(paper_system):
    """The case-study DCT with every task re-costed by the HLS estimator."""
    import scipy.optimize  # noqa: F401  (keep the import out of the timed solve)

    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    estimated = DesignFlow(paper_system).estimate(graph)
    return PartitionProblem.from_system(estimated, paper_system)


def test_ilp_partitioning_estimated_dct(benchmark, estimated_dct_problem):
    """The HLS-estimated DCT at N = 6: the optimum is 6 * CT + 2106 ns."""

    def run():
        return IlpTemporalPartitioner().partition(estimated_dct_problem)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_valid(estimated_dct_problem, result)
    assert result.partition_count == 6
    assert abs(result.total_latency - 0.600002106) < 1e-15

    record(
        "ilp_partitioning",
        estimated_dct_scipy_seconds=benchmark_seconds(benchmark),
        estimated_dct_solve_seconds=result.solve_time,
    )


def _builtin_problems():
    problems = []
    for name in BUILTIN_WORKLOADS:
        workload = get_workload(name)
        graph = workload.build_graph()
        system = workload.default_system()
        estimated = DesignFlow(system, workload.flow_options()).estimate(graph)
        problems.append((name, PartitionProblem.from_system(estimated, system)))
    return problems


class _PreAccelerationProblem(PartitionProblem):
    """A problem view with the pre-acceleration preprocessing bound.

    The relax-N loop now starts from ``max(resource-sum, cardinality)``;
    before the hot-path work only the resource-sum bound existed, so the
    reference stack must pay for the infeasibility proofs the cardinality
    bound now skips.  Restoring the old bound here keeps the comparison an
    honest before/after of the whole solver stack.
    """

    def minimum_partitions(self) -> int:
        return partition_lower_bound(self.graph, self.resource_capacity)


def _reference_partitioner():
    """The reference built-in configuration.

    Plain formulation (no symmetry breaking, no cardinality cuts), no
    heuristic incumbent — each bound is solved cold, as the solver ran
    before the hot-path work except for the always-on delay-bound row.
    """
    return IlpTemporalPartitioner(
        backend="branch-and-bound",
        options=FormulationOptions(),
        warm_start=False,
    )


def test_accelerated_stack_vs_reference():
    """Cold-solve the builtin set with both stacks; identical objectives."""
    problems = _builtin_problems()

    start = time.perf_counter()
    reference_results = {}
    for name, problem in problems:
        pre_pr = _PreAccelerationProblem(
            graph=problem.graph,
            resource_capacity=problem.resource_capacity,
            memory_words=problem.memory_words,
            reconfiguration_time=problem.reconfiguration_time,
            max_partitions=problem.max_partitions,
        )
        reference_results[name] = _reference_partitioner().partition(pre_pr)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    accel_results = {}
    accel_methods = {}
    for name, problem in problems:
        portfolio = PortfolioPartitioner(ilp_backend="branch-and-bound")
        accel_results[name] = portfolio.partition(problem)
        accel_methods[name] = accel_results[name].method
    accel_seconds = time.perf_counter() - start

    print()
    print(f"cold solve of {len(problems)} builtin workloads:")
    print(f"  reference stack:   {reference_seconds:8.2f} s")
    print(f"  accelerated stack: {accel_seconds:8.2f} s   "
          f"({reference_seconds / accel_seconds:4.2f}x)")

    objective_diffs = {}
    for name, problem in problems:
        reference = reference_results[name]
        accelerated = accel_results[name]
        assert_valid(problem, accelerated)
        assert accelerated.partition_count == reference.partition_count, name
        objective_diffs[name] = abs(
            accelerated.total_latency - reference.total_latency
        )
        assert objective_diffs[name] == 0.0, (
            f"{name}: accelerated objective {accelerated.total_latency!r} != "
            f"reference {reference.total_latency!r}"
        )
        # Same problem, same code path -> byte-identical assignment.
        rerun = PortfolioPartitioner(ilp_backend="branch-and-bound").partition(problem)
        assert rerun.assignment == accelerated.assignment, name
        assert rerun.method == accelerated.method, name
        print(f"  {name:16s} latency {accelerated.total_latency * 1e3:9.4f} ms  "
              f"{accel_methods[name]}")

    speedup = reference_seconds / accel_seconds if accel_seconds else 0.0
    record(
        "ilp_partitioning",
        builtin_workloads=list(BUILTIN_WORKLOADS),
        reference_total_seconds=reference_seconds,
        accel_total_seconds=accel_seconds,
        accel_speedup_vs_reference=speedup,
        accel_jobs_per_sec=(
            len(problems) / accel_seconds if accel_seconds else 0.0
        ),
        accel_methods=accel_methods,
        max_objective_diff=max(objective_diffs.values()),
    )

    if os.environ.get("REPRO_BENCH_STRICT", "1") != "0":
        assert speedup >= 3.0, (
            f"accelerated stack is only {speedup:.2f}x faster than the "
            "reference configuration; the hot-path acceptance floor is 3x"
        )


def test_anneal_over_builtin_workloads():
    """The annealer over the builtin set: 5 x 2000 proposed moves per repeat."""
    problems = _builtin_problems()
    repeats = []
    for _ in range(3):
        start = time.perf_counter()
        for _, problem in problems:
            result = AnnealTemporalPartitioner(seed=0, iterations=2000).partition(problem)
            assert_valid(problem, result)
        repeats.append(time.perf_counter() - start)
    anneal_seconds = statistics.median(repeats)
    print()
    print(f"annealer over {len(problems)} builtin workloads: {anneal_seconds:.3f} s")
    record("ilp_partitioning", anneal_seconds=anneal_seconds)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="no strict speedup assertion (CI gates against "
                             "committed baselines instead)")
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ.setdefault("REPRO_BENCH_STRICT", "0")
    import pytest

    return pytest.main([__file__, "-x", "-q", "-s"])


if __name__ == "__main__":
    sys.exit(main())
