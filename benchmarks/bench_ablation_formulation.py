"""Formulation ablation: the Eq. 7 delay constraints written two ways.

DESIGN.md calls out one formulation choice: the paper's path enumeration
for Eq. 7 or a big-M chain form that avoids it.  This bench solves the DCT
instance under each, checks they reach the same optimum, and reports model
sizes and solve times.
"""

from __future__ import annotations

import time

from bench_utils import record

from repro.partition import FormulationOptions, IlpTemporalPartitioner, TemporalPartitioningFormulation
from repro.units import ns

VARIANTS = {
    "path": FormulationOptions(),
    "chain": FormulationOptions(delay_form="chain"),
}


def test_formulation_variants(benchmark, dct_problem):
    def run():
        rows = {}
        for label, options in VARIANTS.items():
            form = TemporalPartitioningFormulation(dct_problem, 3, options).form
            start = time.perf_counter()
            result = IlpTemporalPartitioner(options=options).partition(dct_problem)
            rows[label] = {
                "latency_ns": result.computation_latency * 1e9,
                "variables": form.num_variables,
                "constraints": form.num_constraints,
                "solve_seconds": time.perf_counter() - start,
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    for label, row in rows.items():
        print(
            f"  {label:6s}: {row['variables']:4d} vars, {row['constraints']:5d} cons, "
            f"{row['solve_seconds']:.2f} s, latency {row['latency_ns']:.0f} ns"
        )
    latencies = {round(row["latency_ns"], 3) for row in rows.values()}
    assert latencies == {round(ns(8440) * 1e9, 3)}

    record(
        "ablation_formulation",
        solve_seconds_by_variant={
            label: row["solve_seconds"] for label, row in rows.items()
        },
        constraints_by_variant={
            label: row["constraints"] for label, row in rows.items()
        },
    )
