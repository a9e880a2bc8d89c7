"""E3 — ILP temporal partitioning: the DCT case study and solver hot path.

Five measurements:

* the complete partitioner run on the 32-task DCT graph (preprocessing
  lower bound, model build, HiGHS solve, extraction), with the paper's
  reported result asserted (3 partitions, 8,440 ns);
* the same run on the HLS-estimated DCT (every task re-costed by the
  estimator; N = 6), the instance whose proof of optimality the
  delay-bound row cut from 25-33 s to ~1 s on a 2-vCPU container, with
  its objective asserted;
* the model build alone for that instance (median of 5
  ``TemporalPartitioningFormulation`` builds), which times the direct
  writing of HiGHS's matrices;
* the portfolio (heuristic ladder + optimality certificate + exact ILP)
  over the whole builtin workload set, cold, with every objective asserted
  equal to the plain ILP's and reruns asserted byte-identical; it records
  the portfolio's throughput;
* the seeded annealer alone over the same workload set (seed 0, 2000
  moves each, median of 3 repeats), which times its incremental move
  checks and one-pass scoring.

Run standalone (``python benchmarks/bench_ilp_partitioning.py [--smoke]``)
or under pytest.  ``REPRO_BENCH_JSON_DIR`` sets where
``BENCH_ilp_partitioning.json`` lands; CI gates it against the committed
baseline with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import statistics
import sys
import time

import pytest
from bench_utils import benchmark_seconds, record

from repro.jpeg import build_dct_task_graph
from repro.partition import (
    AnnealTemporalPartitioner,
    IlpTemporalPartitioner,
    PartitionProblem,
    PortfolioPartitioner,
    TemporalPartitioningFormulation,
    assert_valid,
)
from repro.synth import DesignFlow
from repro.units import ns
from repro.workloads import get_workload

#: The builtin (non-verify) workload set the portfolio is measured on.
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


def test_formulation_build_estimated_dct(estimated_dct_problem):
    """The model build alone for the HLS-estimated DCT at N = 6."""
    repeats = []
    for _ in range(5):
        start = time.perf_counter()
        form = TemporalPartitioningFormulation(estimated_dct_problem, 6).form
        repeats.append(time.perf_counter() - start)
    assert (form.num_variables, form.num_constraints) == (518, 1068)
    formulation_seconds = statistics.median(repeats)
    print()
    print(f"model build, estimated DCT at N = 6: {formulation_seconds * 1e3:.2f} ms")
    record("ilp_partitioning", formulation_seconds=formulation_seconds)


def _builtin_problems():
    problems = []
    for name in BUILTIN_WORKLOADS:
        workload = get_workload(name)
        graph = workload.build_graph()
        system = workload.default_system()
        estimated = DesignFlow(system, workload.flow_options()).estimate(graph)
        problems.append((name, PartitionProblem.from_system(estimated, system)))
    return problems


def test_portfolio_over_builtin_workloads():
    """Cold-solve the builtin set with the portfolio; objectives equal the ILP's."""
    problems = _builtin_problems()
    exact = {
        name: IlpTemporalPartitioner().partition(problem) for name, problem in problems
    }

    start = time.perf_counter()
    results = {name: PortfolioPartitioner().partition(problem) for name, problem in problems}
    portfolio_seconds = time.perf_counter() - start

    print()
    print(f"portfolio over {len(problems)} builtin workloads: {portfolio_seconds:.3f} s")
    objective_diffs = {}
    methods = {}
    for name, problem in problems:
        result = results[name]
        assert_valid(problem, result)
        assert result.partition_count == exact[name].partition_count, name
        objective_diffs[name] = abs(result.total_latency - exact[name].total_latency)
        assert objective_diffs[name] == 0.0, (
            f"{name}: portfolio objective {result.total_latency!r} != "
            f"ILP {exact[name].total_latency!r}"
        )
        # Same problem, same code path -> byte-identical assignment.
        rerun = PortfolioPartitioner().partition(problem)
        assert rerun.assignment == result.assignment, name
        assert rerun.method == result.method, name
        methods[name] = result.method
        print(f"  {name:16s} latency {result.total_latency * 1e3:9.4f} ms  {result.method}")

    record(
        "ilp_partitioning",
        builtin_workloads=list(BUILTIN_WORKLOADS),
        accel_total_seconds=portfolio_seconds,
        accel_jobs_per_sec=len(problems) / portfolio_seconds if portfolio_seconds else 0.0,
        accel_methods=methods,
        max_objective_diff=max(objective_diffs.values()),
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
                        help="the CI invocation; the run is the same")
    parser.parse_args(argv)
    import pytest

    return pytest.main([__file__, "-x", "-q", "-s"])


if __name__ == "__main__":
    sys.exit(main())
