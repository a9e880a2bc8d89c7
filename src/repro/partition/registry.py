"""The partitioner registry: the one place a partitioner name becomes a solver.

Every driver — the engine's in-process and pool solves (which every flow,
the one-call :class:`~repro.synth.flow.DesignFlow` included, runs through),
``repro partition``, the serve protocol, the exploration space and the
multilevel scheme's inner engine — names, validates, keys and builds its
partitioner through this module.  Adding a partitioner is one branch in
:func:`make_partitioner` plus its two rules: whether its result depends on
the seed (:meth:`SolverSpec.cache_key_fields`) and whether it depends on the
reconfiguration time (:func:`ct_invariant_solver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from ..errors import PartitioningError
from .anneal_partitioner import AnnealTemporalPartitioner
from .greedy_partitioner import LevelClusteringPartitioner
from .ilp_formulation import FormulationOptions
from .ilp_partitioner import IlpTemporalPartitioner
from .list_partitioner import ListTemporalPartitioner
from .portfolio import PortfolioPartitioner

#: Partitioner algorithms.  ``"multilevel"`` also accepts a
#: ``multilevel:<inner>`` suffix naming the engine run on the coarse graph.
PARTITIONERS = ("ilp", "list", "level", "anneal", "portfolio", "multilevel")

#: Inner engines the multilevel scheme can drive on the coarse graph.
MULTILEVEL_INNER_CHOICES = ("portfolio", "ilp", "list", "level", "anneal")

#: Inner engine used when none is named (``"multilevel"`` without a suffix).
DEFAULT_MULTILEVEL_INNER = "portfolio"

#: Every accepted partitioner spelling.
PARTITIONER_CHOICES = PARTITIONERS + tuple(
    f"multilevel:{inner}" for inner in MULTILEVEL_INNER_CHOICES
)


def multilevel_inner(partitioner: str) -> Optional[str]:
    """The inner engine named by a ``multilevel[:inner]`` partitioner string.

    Returns ``None`` when *partitioner* is not a multilevel name at all,
    the default inner for the bare ``"multilevel"``, and raises
    :class:`PartitioningError` for an unknown ``multilevel:<inner>`` suffix.
    """
    if partitioner == "multilevel":
        return DEFAULT_MULTILEVEL_INNER
    if partitioner.startswith("multilevel:"):
        inner = partitioner.split(":", 1)[1]
        if inner not in MULTILEVEL_INNER_CHOICES:
            raise PartitioningError(
                f"unknown multilevel inner partitioner {inner!r}; "
                f"choose from {MULTILEVEL_INNER_CHOICES}"
            )
        return inner
    return None


def check_partitioner(
    partitioner: object, error: Type[Exception] = PartitioningError
) -> str:
    """Return *partitioner* if it is a known spelling; raise *error* otherwise."""
    if partitioner not in PARTITIONER_CHOICES:
        raise error(
            f"unknown partitioner {partitioner!r}; choose from {PARTITIONER_CHOICES}"
        )
    return partitioner


def ct_invariant_solver(partitioner: str, explore_extra_partitions: int = 0) -> bool:
    """Whether the partition assignment is independent of ``CT``.

    True for the greedy heuristics (they never read ``CT``) and for the
    default ILP relax-N loop (it stops at the first feasible bound;
    ``N*CT`` is a constant per bound).  False for ``explore_extra_partitions
    > 0`` (the bound *selection* compares ``N*CT + sum_p d_p`` across
    bounds), for ``anneal`` (move acceptance scores include ``N*CT`` with
    the partition count varying as partitions empty), for ``portfolio``
    (the certificate compares latencies against a CT-dependent bound and
    one arm is the annealer), and for every multilevel spelling (the coarse
    solve may run a CT-reading inner engine and refinement accepts moves on
    latency deltas).
    """
    if partitioner in ("anneal", "portfolio") or partitioner.startswith("multilevel"):
        return False
    if partitioner != "ilp":
        return True
    return explore_extra_partitions == 0


#: The solver tag every cache key carries and every outcome falls back to.
#: HiGHS is the only MILP solver, but the tag stays: it is part of every
#: stored partition key and of the ``backend`` column of batch rows.
SOLVER_TAG = "scipy"


@dataclass(frozen=True)
class SolverSpec:
    """How one problem should be solved (algorithm, limits, seed)."""

    partitioner: str = "ilp"
    time_limit: Optional[float] = None
    explore_extra_partitions: int = 0
    #: Random seed for the stochastic partitioners (``anneal``, and the
    #: anneal arm inside ``portfolio``); ignored by the deterministic ones.
    seed: int = 0

    def __post_init__(self) -> None:
        check_partitioner(self.partitioner)

    def cache_key_fields(self) -> Dict[str, object]:
        """The fields that distinguish cached results.

        ``time_limit`` is deliberately excluded: a completed solve is the
        same result whatever limit it ran under.  The ``seed`` is included
        only for the partitioners whose result depends on it, so changing
        the seed never invalidates cached deterministic solves.
        """
        fields: Dict[str, object] = {
            "partitioner": self.partitioner,
            "backend": SOLVER_TAG,
            "explore_extra_partitions": self.explore_extra_partitions,
        }
        if self.partitioner in ("anneal", "portfolio") or self.partitioner.startswith(
            "multilevel"
        ):
            # Multilevel's default/portfolio/anneal inners consume the seed,
            # so every multilevel spelling is treated as seed-dependent.
            fields["seed"] = self.seed
        return fields


def make_partitioner(
    spec: SolverSpec, ilp_options: Optional[FormulationOptions] = None
):
    """Build the partitioner *spec* names, configured from its fields.

    *ilp_options* overrides the exact solver's formulation switches (the
    multilevel scheme passes the ``"auto"`` delay form for coarse graphs);
    ``None`` keeps the defaults.
    """
    inner = multilevel_inner(spec.partitioner)
    if inner is not None:
        # Imported here: the multilevel scheme builds its own inner engine
        # through this module.
        from .hierarchy import MultilevelPartitioner

        return MultilevelPartitioner(
            inner=inner,
            seed=spec.seed,
            time_limit=spec.time_limit,
        )
    name = spec.partitioner
    if name == "ilp":
        return IlpTemporalPartitioner(
            options=ilp_options,
            explore_extra_partitions=spec.explore_extra_partitions,
            time_limit=spec.time_limit,
        )
    if name == "list":
        return ListTemporalPartitioner()
    if name == "level":
        return LevelClusteringPartitioner()
    if name == "anneal":
        return AnnealTemporalPartitioner(seed=spec.seed)
    return PortfolioPartitioner(
        anneal_seed=spec.seed,
        ilp_options=ilp_options,
        time_limit=spec.time_limit,
    )


__all__ = [
    "DEFAULT_MULTILEVEL_INNER",
    "MULTILEVEL_INNER_CHOICES",
    "PARTITIONERS",
    "PARTITIONER_CHOICES",
    "SOLVER_TAG",
    "SolverSpec",
    "check_partitioner",
    "ct_invariant_solver",
    "make_partitioner",
    "multilevel_inner",
]
