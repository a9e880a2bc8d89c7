"""Substrate performance benchmarks: estimator, simulator, codec, ILP layer.

These are not paper experiments; they track the performance of the library's
own building blocks so that regressions in the substrates (which every
experiment runs through) are visible.
"""

from __future__ import annotations

import numpy as np
from bench_utils import benchmark_seconds, record

from repro.arch import xc4044
from repro.dfg import vector_product_dfg
from repro.fission import SequencingStrategy
from repro.hls import TaskEstimator
from repro.ilp import MatrixForm, solve_milp_scipy
from repro.jpeg import JpegLikeCodec, build_dct_task_graph, synthetic_image
from repro.simulate import RtrExecutionSimulator, StaticExecutionSimulator
from repro.taskgraph import random_dsp_task_graph
from repro.units import ns


def test_hls_estimator_throughput(benchmark):
    """Estimate a 4-element vector product datapath (the T2 task shape)."""
    estimator = TaskEstimator(xc4044(), max_clock_period=ns(100))
    dfg = vector_product_dfg(4, input_width=16, coefficient_width=17, name="T2")
    estimate = benchmark(lambda: estimator.estimate_dfg(dfg, env_io_words=5))
    assert estimate.clbs > 0
    record("substrates", hls_estimate_seconds=benchmark_seconds(benchmark))


def test_rtr_simulator_largest_workload(benchmark, case_study):
    """Simulate the full 245,760-block IDH run event by event."""
    simulator = RtrExecutionSimulator(case_study.system)
    result = benchmark(
        lambda: simulator.simulate(case_study.rtr_spec, SequencingStrategy.IDH, 245_760)
    )
    assert result.runs == 120
    record("substrates", rtr_simulation_seconds=benchmark_seconds(benchmark))


def test_static_simulator_largest_workload(benchmark, case_study):
    simulator = StaticExecutionSimulator(case_study.system)
    result = benchmark(lambda: simulator.simulate(case_study.static_spec, 245_760))
    assert result.invocations == 245_760


def test_jpeg_codec_encode(benchmark):
    """Encode a 128x128 synthetic image with 4x4 blocks (1024 blocks)."""
    codec = JpegLikeCodec(block_size=4, quality=75)
    image = synthetic_image(128, 128, seed=0)
    encoded = benchmark(lambda: codec.encode(image))
    assert encoded.block_count == 1024
    record("substrates", jpeg_encode_seconds=benchmark_seconds(benchmark))


def test_jpeg_codec_roundtrip(benchmark):
    codec = JpegLikeCodec(block_size=8, quality=75)
    image = synthetic_image(64, 64, seed=1)
    psnr = benchmark(lambda: codec.roundtrip_psnr(image))
    assert psnr > 25.0


def test_dct_task_graph_build(benchmark):
    graph = benchmark(lambda: build_dct_task_graph(attach_dfgs=True))
    assert len(graph) == 32


def test_random_task_graph_generation(benchmark):
    graph = benchmark(lambda: random_dsp_task_graph(task_count=200, seed=9))
    assert len(graph) == 200


def test_milp_solver_medium_instance(benchmark):
    """A 60-binary-variable assignment-style MILP (larger than the DCT model's core)."""

    def build_and_solve():
        items = 20
        bins = 3
        load = items * bins  # columns: y[i,b] item-major, then the load
        rows = []  # (columns, coefficients, lower, upper)
        for i in range(items):
            rows.append(([i * bins + b for b in range(bins)], [1.0] * bins, 1.0, 1.0))
        for b in range(bins):
            rows.append((
                [i * bins + b for i in range(items)],
                [i % 7 + 1.0 for i in range(items)],
                -np.inf,
                30.0,
            ))
        for b in range(bins):
            # load >= sum_i (i % 5 + 1) * y[i,b]
            rows.append((
                [i * bins + b for i in range(items)] + [load],
                [-(i % 5 + 1.0) for i in range(items)] + [1.0],
                0.0,
                np.inf,
            ))
        objective = np.zeros(load + 1)
        objective[load] = 1.0
        form = MatrixForm(
            objective=objective,
            objective_constant=0.0,
            lower=np.zeros(load + 1),
            upper=np.array([1.0] * load + [1000.0]),
            integrality=np.array([1] * load + [0]),
            indptr=np.cumsum([0] + [len(columns) for columns, _, _, _ in rows]),
            indices=np.concatenate([columns for columns, _, _, _ in rows]),
            data=np.concatenate([coefficients for _, coefficients, _, _ in rows]),
            row_lower=np.array([lower for _, _, lower, _ in rows]),
            row_upper=np.array([upper for _, _, _, upper in rows]),
        )
        return solve_milp_scipy(form)

    solution = benchmark(build_and_solve)
    assert solution.is_optimal
    record("substrates", milp_medium_seconds=benchmark_seconds(benchmark))
