"""Seeded, reproducible scenario generation for differential verification.

A :class:`Scenario` is one randomized-but-reproducible verification input:
a task graph drawn from one of five DAG families plus the target system it
should be synthesised on.  Everything is a pure function of the scenario's
``(family, seed, task_count)`` triple — the same scenario always builds the
same graph (bit-identical canonical hash) and the same system, which is what
lets the verification harness reproduce and *shrink* failures.

The five families stress different structures of the flow:

* ``layered``      — random layered DAGs with DSP-like statistics (the
  estimator/partitioner's bread and butter);
* ``fanout``       — one source fanning out to many parallel branches joined
  by a sink (wide ready lists, fat boundaries);
* ``chain``        — a linear pipeline (the longest possible critical path
  for its size; partitionings are contiguous chunks);
* ``diamond``      — chained reconvergent diamond motifs (the k-longest-path
  structures the delay estimator walks);
* ``degenerate``   — single-node, fully disconnected, and independent-task
  graphs (the boundary cases every traversal must survive).

A sixth, *opt-in* family exists for scale testing: ``huge`` draws layered
DAGs of hundreds of tasks — far past every flat partitioner's comfort zone
but well inside the multilevel pre-partitioner's — and always with *loose*
budgets (an infeasible 600-task instance would grind the differential
baseline through its whole relax loop for nothing).  It is deliberately not
part of :data:`FAMILIES`, so default verification runs — and their stored
verdict bytes — are unchanged; ask for it explicitly with
``families=("huge",)`` (CLI: ``--families huge``).  Huge scenarios are
verified under the ``multilevel`` primary partitioner instead of the exact
ILP (see :meth:`Scenario.implementations`).

Delay and area values are drawn from per-scenario *skew profiles* (uniform,
low-skewed, high-skewed) and the target system is drawn with *tight* or
*loose* resource and memory budgets, so the population includes both easily
feasible and genuinely infeasible instances — the oracles treat structured
infeasibility as data, not as an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch.board import RtrSystem
from ..arch.catalog import generic_system
from ..errors import SpecificationError, WorkloadError
from ..runtime.canonical import canonical_fingerprint
from ..synth.flow import FlowOptions
from ..taskgraph.builders import random_dsp_task_graph
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import Task, clb_cost
from ..units import ns

#: The scenario families, in the deterministic round-robin order the
#: generator cycles through (so any run of >= 5 scenarios covers them all).
FAMILIES: Tuple[str, ...] = ("layered", "fanout", "chain", "diamond", "degenerate")

#: The opt-in scale-testing family: hundreds-of-tasks layered DAGs verified
#: under the multilevel primary partitioner with loose budgets only.
HUGE_FAMILY = "huge"

#: Every known family, including the opt-in ``huge`` one.  Validation
#: accepts these; the default round-robin stays :data:`FAMILIES` so default
#: runs (and their byte-identical verdict stores) are unchanged.
ALL_FAMILIES: Tuple[str, ...] = FAMILIES + (HUGE_FAMILY,)

#: Per-family (min, max) task counts the generator draws from.  Sizes are
#: kept small enough that the ILP stays fast even on infeasible instances
#: (where the relax-N loop tries every bound).  The ``huge`` family is the
#: deliberate exception: big enough that every scenario actually coarsens
#: (task count far above the multilevel partitioner's ``max_coarse_tasks``).
_TASK_COUNT_RANGES: Dict[str, Tuple[int, int]] = {
    "layered": (4, 13),
    "fanout": (4, 12),
    "chain": (2, 16),
    "diamond": (4, 13),
    "degenerate": (1, 6),
    HUGE_FAMILY: (300, 800),
}

#: Skew profiles for drawing delays/areas: ``uniform`` spreads evenly,
#: ``low`` crowds values toward the minimum, ``high`` toward the maximum.
_SKEWS: Tuple[str, ...] = ("uniform", "low", "high")

#: Reconfiguration times (seconds) scenarios sample from.
_CT_CHOICES: Tuple[float, ...] = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.05)


def _skewed(rng: random.Random, low: float, high: float, skew: str) -> float:
    """One draw from ``[low, high]`` under *skew*."""
    u = rng.random()
    if skew == "low":
        u = u ** 3
    elif skew == "high":
        u = u ** (1.0 / 3.0)
    return low + (high - low) * u


def _draw_cost(rng: random.Random, area_skew: str, delay_skew: str):
    """A task cost with CLBs in [20, 300] and delay in [50 ns, 2000 ns]."""
    clbs = int(round(_skewed(rng, 20, 300, area_skew)))
    delay = ns(round(_skewed(rng, 50, 2000, delay_skew)))
    return clb_cost(clbs, delay)


def _family_rng(family: str, seed: int, task_count: int) -> random.Random:
    """The deterministic RNG one family builder draws from.

    Seeded with a string, not a platform hash: ``random.Random`` hashes
    string seeds with SHA-512, so the stream is identical across runs,
    platforms and interpreter hash randomisation.
    """
    return random.Random(f"verify:{family}:{seed}:{task_count}")


# ---------------------------------------------------------------------------
# Family builders (pure functions of family, seed and task_count)
# ---------------------------------------------------------------------------

def _build_layered(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    area_skew = rng.choice(_SKEWS)
    lo_clb = 20 if area_skew != "high" else 60
    hi_clb = 300 if area_skew != "low" else 160
    lo_d = 50 if rng.random() < 0.5 else 200
    return random_dsp_task_graph(
        task_count=task_count,
        seed=rng.randrange(2 ** 31),
        max_level_width=rng.randint(2, 5),
        clb_range=(lo_clb, hi_clb),
        delay_range_ns=(lo_d, 2000),
        words_range=(1, rng.choice((8, 24, 48))),
        edge_probability=rng.uniform(0.2, 0.8),
        env_io_words=rng.randint(0, 16),
        name=f"verify-layered-s{seed}-n{task_count}",
    )


def _build_fanout(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    area_skew = rng.choice(_SKEWS)
    delay_skew = rng.choice(_SKEWS)
    graph = TaskGraph(f"verify-fanout-s{seed}-n{task_count}")
    branch_count = max(1, task_count - 2)
    words = rng.randint(1, 32)
    graph.add_task(
        Task("source", cost=_draw_cost(rng, area_skew, delay_skew), task_type="source"),
        env_input_words=rng.randint(1, 16),
    )
    if task_count == 1:
        return graph
    sink = "sink" if task_count >= 3 else None
    if sink:
        graph.add_task(
            Task(sink, cost=_draw_cost(rng, area_skew, delay_skew), task_type="sink"),
            env_output_words=rng.randint(1, 16),
        )
    for index in range(branch_count):
        name = f"branch{index}"
        graph.add_task(
            Task(name, cost=_draw_cost(rng, area_skew, delay_skew), task_type="branch")
        )
        graph.add_edge("source", name, words=rng.randint(1, words))
        if sink:
            graph.add_edge(name, sink, words=rng.randint(1, words))
    return graph


def _build_chain(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    area_skew = rng.choice(_SKEWS)
    delay_skew = rng.choice(_SKEWS)
    graph = TaskGraph(f"verify-chain-s{seed}-n{task_count}")
    previous: Optional[str] = None
    for index in range(task_count):
        name = f"stage{index}"
        graph.add_task(
            Task(name, cost=_draw_cost(rng, area_skew, delay_skew), task_type="stage"),
            env_input_words=rng.randint(1, 16) if index == 0 else 0,
            env_output_words=rng.randint(1, 16) if index == task_count - 1 else 0,
        )
        if previous is not None:
            graph.add_edge(previous, name, words=rng.randint(1, 48))
        previous = name
    return graph


def _build_diamond(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    """Chained reconvergent diamonds: ``a -> {b, c} -> a'`` repeated."""
    area_skew = rng.choice(_SKEWS)
    delay_skew = rng.choice(_SKEWS)
    graph = TaskGraph(f"verify-diamond-s{seed}-n{task_count}")
    if task_count < 4:
        # Too few nodes for a full motif: a collapsed diamond is a short
        # chain, which keeps the family shrinkable to any task count.
        previous: Optional[str] = None
        for index in range(task_count):
            name = f"j{index}"
            graph.add_task(
                Task(name, cost=_draw_cost(rng, area_skew, delay_skew),
                     task_type="join"),
                env_input_words=rng.randint(1, 16) if index == 0 else 0,
                env_output_words=(
                    rng.randint(1, 16) if index == task_count - 1 else 0
                ),
            )
            if previous is not None:
                graph.add_edge(previous, name, words=rng.randint(1, 32))
            previous = name
        return graph
    motifs = (task_count - 1) // 3
    graph.add_task(
        Task("j0", cost=_draw_cost(rng, area_skew, delay_skew), task_type="join"),
        env_input_words=rng.randint(1, 16),
    )
    for m in range(motifs):
        entry = f"j{m}"
        left, right, join = f"l{m}", f"r{m}", f"j{m + 1}"
        for name in (left, right):
            graph.add_task(
                Task(name, cost=_draw_cost(rng, area_skew, delay_skew),
                     task_type="arm")
            )
        graph.add_task(
            Task(join, cost=_draw_cost(rng, area_skew, delay_skew), task_type="join"),
            env_output_words=rng.randint(1, 16) if m == motifs - 1 else 0,
        )
        words = rng.randint(1, 32)
        graph.add_edge(entry, left, words=words)
        graph.add_edge(entry, right, words=rng.randint(1, 32))
        graph.add_edge(left, join, words=rng.randint(1, 32))
        graph.add_edge(right, join, words=words)
    # Pad to the exact task count with extra arms on the last motif, so
    # shrinking by task count is meaningful for this family too.
    for extra in range(task_count - (1 + 3 * motifs)):
        name = f"x{extra}"
        graph.add_task(
            Task(name, cost=_draw_cost(rng, area_skew, delay_skew), task_type="arm")
        )
        graph.add_edge(f"j{motifs - 1}", name, words=rng.randint(1, 32))
        graph.add_edge(name, f"j{motifs}", words=rng.randint(1, 32))
    return graph


def _build_degenerate(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    """Single-node, disconnected-components, and no-edge graphs."""
    area_skew = rng.choice(_SKEWS)
    delay_skew = rng.choice(_SKEWS)
    variant = "single" if task_count == 1 else rng.choice(("disconnected", "independent"))
    graph = TaskGraph(f"verify-degenerate-s{seed}-n{task_count}")
    if variant == "single":
        graph.add_task(
            Task("only", cost=_draw_cost(rng, area_skew, delay_skew)),
            env_input_words=rng.randint(0, 8),
            env_output_words=rng.randint(0, 8),
        )
        return graph
    if variant == "independent":
        for index in range(task_count):
            graph.add_task(
                Task(f"iso{index}", cost=_draw_cost(rng, area_skew, delay_skew)),
                env_input_words=rng.randint(0, 8),
                env_output_words=rng.randint(0, 8),
            )
        return graph
    # Two disjoint chains with no edge between them (a disconnected DAG).
    first_len = max(1, task_count // 2)
    for component, length in (("a", first_len), ("b", task_count - first_len)):
        previous = None
        for index in range(length):
            name = f"{component}{index}"
            graph.add_task(
                Task(name, cost=_draw_cost(rng, area_skew, delay_skew)),
                env_input_words=rng.randint(1, 8) if index == 0 else 0,
                env_output_words=rng.randint(1, 8) if index == length - 1 else 0,
            )
            if previous is not None:
                graph.add_edge(previous, name, words=rng.randint(1, 24))
            previous = name
    return graph


def _build_huge(rng: random.Random, seed: int, task_count: int) -> TaskGraph:
    """Hundreds-of-tasks layered DAGs (the multilevel scale family).

    Structurally the ``layered`` family at 20-100x the size, with the wide
    levels and sparse wiring of the ``random_layered_10k/50k/100k`` workload
    tiers — the shape the multilevel coarsener is built for.  Kept a pure
    function of ``(seed, task_count)`` like every family, so huge failures
    shrink down the same ladder as small ones.
    """
    return random_dsp_task_graph(
        task_count=task_count,
        seed=rng.randrange(2 ** 31),
        max_level_width=rng.randint(8, 24),
        words_range=(1, rng.choice((8, 24, 48))),
        edge_probability=0.08,
        env_io_words=rng.randint(0, 16),
        name=f"verify-huge-s{seed}-n{task_count}",
    )


_BUILDERS = {
    "layered": _build_layered,
    "fanout": _build_fanout,
    "chain": _build_chain,
    "diamond": _build_diamond,
    "degenerate": _build_degenerate,
    HUGE_FAMILY: _build_huge,
}


def build_family_graph(family: str, seed: int, task_count: int) -> TaskGraph:
    """Build the deterministic graph of ``(family, seed, task_count)``."""
    if family not in _BUILDERS:
        raise WorkloadError(
            f"unknown scenario family {family!r}; known: {', '.join(ALL_FAMILIES)}"
        )
    if task_count < 1:
        raise SpecificationError("task_count must be >= 1")
    graph = _BUILDERS[family](_family_rng(family, seed, task_count), seed, task_count)
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# The scenario descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One reproducible verification input: a graph family plus its system.

    Everything downstream — the graph, the target system, the flow options —
    is a pure function of these fields, so a stored scenario JSON line is a
    complete counterexample recipe.
    """

    family: str
    seed: int
    task_count: int
    clb_capacity: int
    memory_words: int
    reconfiguration_time: float
    memory_profile: str = "loose"  # "tight" | "loose" (provenance only)

    @property
    def name(self) -> str:
        """Canonical display name."""
        return f"{self.family}-s{self.seed}-n{self.task_count}"

    def build_graph(self) -> TaskGraph:
        """The scenario's task graph (same scenario, same graph, always)."""
        return build_family_graph(self.family, self.seed, self.task_count)

    def build_system(self) -> RtrSystem:
        """The scenario's target system."""
        return generic_system(
            clb_capacity=self.clb_capacity,
            memory_words=self.memory_words,
            reconfiguration_time=self.reconfiguration_time,
        )

    @property
    def primary_partitioner(self) -> str:
        """The primary implementation this scenario is verified under.

        The exact ILP for every small family; the multilevel pre-partitioner
        for the ``huge`` family, where a flat exact solve is intractable.
        The oracles read this to know which optimality claims apply (a
        heuristic primary makes no "never beaten" promise).
        """
        return "multilevel" if self.family == HUGE_FAMILY else "ilp"

    def implementations(self) -> Tuple[str, str]:
        """The ``(primary, baseline)`` partitioner pair the harness runs."""
        return (self.primary_partitioner, "list")

    def flow_options(self, partitioner: str = "ilp") -> FlowOptions:
        """Flow options for one implementation under test."""
        return FlowOptions(partitioner=partitioner)

    def with_task_count(self, task_count: int) -> "Scenario":
        """The shrunk scenario: same family/seed/system, fewer tasks."""
        return replace(self, task_count=task_count)

    def fingerprint(self) -> str:
        """Content hash of the scenario (keys verdict-store records)."""
        return canonical_fingerprint(self.to_json_dict())

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form (floats hex-encoded for byte-stable stores)."""
        return {
            "family": self.family,
            "seed": self.seed,
            "task_count": self.task_count,
            "clb_capacity": self.clb_capacity,
            "memory_words": self.memory_words,
            "reconfiguration_time": float(self.reconfiguration_time).hex(),
            "memory_profile": self.memory_profile,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Rebuild a scenario from its stored form."""
        ct = data["reconfiguration_time"]
        return cls(
            family=str(data["family"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            task_count=int(data["task_count"]),  # type: ignore[arg-type]
            clb_capacity=int(data["clb_capacity"]),  # type: ignore[arg-type]
            memory_words=int(data["memory_words"]),  # type: ignore[arg-type]
            reconfiguration_time=(
                float.fromhex(ct) if isinstance(ct, str) else float(ct)  # type: ignore[arg-type]
            ),
            memory_profile=str(data.get("memory_profile", "loose")),
        )

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"scenario {self.name}: {self.task_count} tasks, "
            f"R_max={self.clb_capacity} CLBs, M_max={self.memory_words} words "
            f"({self.memory_profile}), CT={self.reconfiguration_time * 1e3:g} ms"
        )


# ---------------------------------------------------------------------------
# The seeded generator
# ---------------------------------------------------------------------------

def scenario_seed(base_seed: int, index: int) -> int:
    """The derived per-scenario seed (stable, collision-avoiding)."""
    return (base_seed * 1_000_003 + index * 7_919 + 12_289) & 0x7FFFFFFF


def generate_scenario(
    index: int,
    base_seed: int = 0,
    family: Optional[str] = None,
    families: Sequence[str] = FAMILIES,
) -> Scenario:
    """Generate scenario *index* of the stream seeded by *base_seed*.

    Families rotate round-robin over *families* (so every run of at least
    ``len(families)`` scenarios covers them all); the system budgets are
    drawn *after* the graph so tight budgets can be tight relative to the
    graph's actual demand rather than blindly infeasible.
    """
    if not families:
        raise SpecificationError("families must not be empty")
    for name in families:
        if name not in ALL_FAMILIES:
            raise WorkloadError(
                f"unknown scenario family {name!r}; known: {', '.join(ALL_FAMILIES)}"
            )
    chosen = family or families[index % len(families)]
    if chosen not in ALL_FAMILIES:
        raise WorkloadError(
            f"unknown scenario family {chosen!r}; known: {', '.join(ALL_FAMILIES)}"
        )
    seed = scenario_seed(base_seed, index)
    rng = random.Random(f"verify:scenario:{seed}:{chosen}")
    lo, hi = _TASK_COUNT_RANGES[chosen]
    task_count = rng.randint(lo, hi)
    graph = build_family_graph(chosen, seed, task_count)

    max_task_clbs = max(task.clbs for task in graph.tasks())
    total_clbs = sum(task.clbs for task in graph.tasks())

    if chosen == HUGE_FAMILY:
        # Loose budgets only: the huge family verifies the multilevel flow
        # at scale, not infeasibility handling — an infeasible 600-task
        # instance would grind the differential baseline through its whole
        # relax loop for nothing.  The area budget still forces several
        # partitions, so the coarse solve stays non-trivial.
        capacity = max(
            max_task_clbs * 4, int(total_clbs * rng.uniform(0.12, 0.35))
        )
        edge_words = [words for _, _, words in graph.weighted_edges()]
        env_words = graph.total_env_input_words() + graph.total_env_output_words()
        demand = sum(edge_words) + env_words
        floor = max(max(edge_words, default=0) * 2, 32)
        memory_words = max(floor, int(demand * rng.uniform(1.2, 2.0)) + 64)
        return Scenario(
            family=chosen,
            seed=seed,
            task_count=task_count,
            clb_capacity=capacity,
            memory_words=memory_words,
            reconfiguration_time=rng.choice(_CT_CHOICES),
            memory_profile="loose",
        )

    tight_area = rng.random() < 0.4
    if tight_area:
        capacity = max(max_task_clbs, int(total_clbs * rng.uniform(0.3, 0.7)))
    else:
        capacity = max(max_task_clbs, int(total_clbs * rng.uniform(0.8, 1.3)))

    edge_words = [words for _, _, words in graph.weighted_edges()]
    env_words = graph.total_env_input_words() + graph.total_env_output_words()
    demand = sum(edge_words) + env_words
    floor = max(max(edge_words, default=0) * 2, 32)
    tight_memory = rng.random() < 0.35
    if tight_memory:
        memory_words = max(floor, int(demand * rng.uniform(0.4, 0.9)))
    else:
        memory_words = max(floor, int(demand * rng.uniform(1.0, 2.0)) + 64)

    return Scenario(
        family=chosen,
        seed=seed,
        task_count=task_count,
        clb_capacity=capacity,
        memory_words=memory_words,
        reconfiguration_time=rng.choice(_CT_CHOICES),
        memory_profile="tight" if tight_memory else "loose",
    )


def generate_scenarios(
    count: int,
    base_seed: int = 0,
    families: Sequence[str] = FAMILIES,
) -> List[Scenario]:
    """The first *count* scenarios of the stream seeded by *base_seed*."""
    if count < 0:
        raise SpecificationError("scenario count must be non-negative")
    return [
        generate_scenario(index, base_seed=base_seed, families=families)
        for index in range(count)
    ]
