"""The ILP formulation of temporal partitioning (paper Section 2.1, Eqs. 1-8).

For a fixed partition bound ``N`` the model contains:

* binary assignment variables ``y[t][p]`` (Eq. 1 domain),
* binary boundary-liveness variables ``w[p][(t1,t2)]`` for every edge and
  every boundary ``p`` (the data of edge ``t1 -> t2`` occupies memory across
  the boundary between partitions ``p`` and ``p+1``),
* continuous per-partition delay variables ``d[p]``,

and the constraints:

* **uniqueness** (Eq. 1): every task is placed in exactly one partition;
* **temporal order** (Eq. 2): a producer may not be placed after a consumer;
* **memory** (Eq. 3): the data crossing each boundary fits in ``M_max``;
* **linearised liveness linking** (Eqs. 4-5): ``w`` is forced to 1 whenever a
  dependent pair straddles the boundary;
* **resource** (Eq. 6): each partition fits in ``R_max``;
* **path delay** (Eq. 7): for every root-to-leaf path and every partition,
  the summed delay of the path's tasks mapped to that partition is at most
  ``d[p]``;
* **delay bound**: ``sum_p d[p]`` is at least
  :meth:`PartitionProblem.delay_lower_bound` — implied by the constraints
  above on integral points, but it lifts the LP relaxation far above the
  critical path;
* **objective** (Eq. 8): minimise ``N*CT + sum_p d[p]``.

Three formulation choices are configurable (and benchmarked as ablations):

* the temporal-order constraints can be written exactly as Eq. 2
  (``order_form="paper"``) or aggregated into one position constraint per
  edge (``order_form="position"``);
* the liveness linking can use the aggregated one-constraint form
  (``linkage_form="aggregated"``, default) or the pairwise linearisation of
  the products in Eqs. 4-5 (``linkage_form="pairwise"``);
* the delay constraints can enumerate paths per the paper
  (``delay_form="path"``) or use a big-M chain-prefix formulation
  (``delay_form="chain"``) that avoids path enumeration for graphs with
  exponentially many paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import PartitioningError
from ..ilp.expr import LinExpr, Variable, linear_sum
from ..ilp.model import Model
from ..taskgraph.analysis import DEFAULT_PATH_LIMIT, count_root_to_leaf_paths
from ..taskgraph.kpaths import root_to_leaf_paths_by_delay
from .spec import PartitionProblem

#: Time scale used inside the ILP: delays are expressed in nanoseconds rather
#: than seconds so that delay coefficients (hundreds to thousands) are well
#: conditioned against MILP feasibility tolerances (~1e-7).  With delays in
#: seconds, a 1e-7 constraint violation is a 100 ns error — large enough for a
#: solver to "optimise away" real path-delay constraints.
MODEL_TIME_SCALE = 1e9


@dataclass(frozen=True)
class FormulationOptions:
    """Switches controlling how the model is written down."""

    order_form: str = "paper"  # "paper" (Eq. 2) or "position"
    linkage_form: str = "aggregated"  # "aggregated" or "pairwise"
    #: "path" (Eq. 7, fails over the path limit), "chain" (big-M prefix
    #: form), or "auto" (path when the DP-counted path total fits the
    #: limit, chain otherwise — the form the multilevel inner solves use,
    #: since coarse graphs can be arbitrarily reconvergent).
    delay_form: str = "path"
    path_limit: Optional[int] = DEFAULT_PATH_LIMIT

    def __post_init__(self) -> None:
        if self.order_form not in ("paper", "position"):
            raise PartitioningError(f"unknown order_form {self.order_form!r}")
        if self.linkage_form not in ("aggregated", "pairwise"):
            raise PartitioningError(f"unknown linkage_form {self.linkage_form!r}")
        if self.delay_form not in ("path", "chain", "auto"):
            raise PartitioningError(f"unknown delay_form {self.delay_form!r}")


class TemporalPartitioningFormulation:
    """Builds and holds the ILP model for a fixed partition bound ``N``."""

    def __init__(
        self,
        problem: PartitionProblem,
        partition_bound: int,
        options: Optional[FormulationOptions] = None,
    ) -> None:
        if partition_bound < 1:
            raise PartitioningError("partition bound N must be at least 1")
        self.problem = problem
        self.partition_bound = partition_bound
        self.options = options or FormulationOptions()
        self.model = Model(
            name=f"temporal-partitioning-{problem.graph.name}-N{partition_bound}"
        )
        self.y: Dict[Tuple[str, int], Variable] = {}
        self.w: Dict[Tuple[int, str, str], Variable] = {}
        self.d: Dict[int, Variable] = {}
        #: :meth:`PartitionProblem.delay_lower_bound` in seconds (the
        #: right-hand side of the delay-bound row, before scaling).
        self.delay_bound = 0.0
        self._build()

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph = self.problem.graph
        n = self.partition_bound
        self._create_variables()
        self._add_uniqueness_constraints()
        self._add_temporal_order_constraints()
        if n > 1:
            self._add_liveness_linking_constraints()
            self._add_memory_constraints()
        self._add_resource_constraints()
        if self._resolved_delay_form() == "path":
            self._add_path_delay_constraints()
        else:
            self._add_chain_delay_constraints()
        self._add_delay_bound_constraint()
        objective = (
            n * self.problem.reconfiguration_time * MODEL_TIME_SCALE
            + linear_sum([self.d[p] for p in range(1, n + 1)])
        )
        self.model.minimize(objective)
        # Unused: keep a reference to the graph for result extraction.
        self._graph = graph

    def _resolved_delay_form(self) -> str:
        """The concrete delay form, resolving ``"auto"`` by path count."""
        if self.options.delay_form != "auto":
            return self.options.delay_form
        limit = self.options.path_limit
        if limit is None:
            return "path"
        count = count_root_to_leaf_paths(self.problem.graph)
        return "path" if count <= limit else "chain"

    def _create_variables(self) -> None:
        graph = self.problem.graph
        n = self.partition_bound
        max_delay = graph.total_delay() * MODEL_TIME_SCALE
        for task_name in graph.task_names():
            for p in range(1, n + 1):
                self.y[(task_name, p)] = self.model.add_binary(f"y[{task_name},{p}]")
        for p in range(1, n):  # boundaries 1..N-1
            for producer, consumer in graph.edges():
                self.w[(p, producer, consumer)] = self.model.add_binary(
                    f"w[{p},{producer},{consumer}]"
                )
        for p in range(1, n + 1):
            self.d[p] = self.model.add_continuous(f"d[{p}]", 0.0, max_delay)

    def _add_uniqueness_constraints(self) -> None:
        """Eq. 1: every task is placed in exactly one partition."""
        n = self.partition_bound
        for task_name in self.problem.graph.task_names():
            terms = [self.y[(task_name, p)] for p in range(1, n + 1)]
            self.model.add_constraint(
                linear_sum(terms) == 1, name=f"unique[{task_name}]"
            )

    def _add_temporal_order_constraints(self) -> None:
        """Eq. 2: a producer may not be placed later than its consumer."""
        n = self.partition_bound
        graph = self.problem.graph
        if self.options.order_form == "paper":
            # For every edge t1 -> t2 and every partition p2 < N:
            #   y[t2,p2] + sum_{p1 > p2} y[t1,p1] <= 1
            for producer, consumer in graph.edges():
                for p2 in range(1, n):
                    later = [self.y[(producer, p1)] for p1 in range(p2 + 1, n + 1)]
                    if not later:
                        continue
                    self.model.add_constraint(
                        self.y[(consumer, p2)] + linear_sum(later) <= 1,
                        name=f"order[{producer}->{consumer},{p2}]",
                    )
        else:
            # Aggregated "position" form: sum_p p*y[t1,p] <= sum_p p*y[t2,p].
            for producer, consumer in graph.edges():
                producer_pos = linear_sum(
                    [p * self.y[(producer, p)] for p in range(1, n + 1)]
                )
                consumer_pos = linear_sum(
                    [p * self.y[(consumer, p)] for p in range(1, n + 1)]
                )
                self.model.add_constraint(
                    producer_pos <= consumer_pos,
                    name=f"order[{producer}->{consumer}]",
                )

    def _add_liveness_linking_constraints(self) -> None:
        """Eqs. 4-5 (linearised): force ``w`` to 1 when an edge straddles a boundary."""
        n = self.partition_bound
        graph = self.problem.graph
        for producer, consumer in graph.edges():
            for p in range(1, n):
                w_var = self.w[(p, producer, consumer)]
                if self.options.linkage_form == "aggregated":
                    before = [self.y[(producer, p1)] for p1 in range(1, p + 1)]
                    after = [self.y[(consumer, p2)] for p2 in range(p + 1, n + 1)]
                    self.model.add_constraint(
                        w_var >= linear_sum(before) + linear_sum(after) - 1,
                        name=f"link[{p},{producer}->{consumer}]",
                    )
                else:
                    for p1 in range(1, p + 1):
                        for p2 in range(p + 1, n + 1):
                            self.model.add_constraint(
                                w_var
                                >= self.y[(producer, p1)] + self.y[(consumer, p2)] - 1,
                                name=f"link[{p},{producer}@{p1}->{consumer}@{p2}]",
                            )

    def _add_memory_constraints(self) -> None:
        """Eq. 3: the data stored across each boundary fits in ``M_max``."""
        n = self.partition_bound
        edges = self.problem.graph.weighted_edges()
        memory = self.problem.memory_words
        for p in range(1, n):
            terms: List[LinExpr] = []
            for producer, consumer, words in edges:
                if words:
                    terms.append(words * self.w[(p, producer, consumer)])
            if terms:
                self.model.add_constraint(
                    linear_sum(terms) <= memory, name=f"memory[{p}]"
                )

    def _add_resource_constraints(self) -> None:
        """Eq. 6: each partition's resource usage fits in ``R_max``."""
        n = self.partition_bound
        graph = self.problem.graph
        capacity = self.problem.resource_capacity
        resource_names = set()
        for task in graph.tasks():
            resource_names.update(task.resources.names())
        for resource_name in sorted(resource_names):
            limit = capacity[resource_name]
            for p in range(1, n + 1):
                terms = []
                for task in graph.tasks():
                    amount = task.resources[resource_name]
                    if amount:
                        terms.append(amount * self.y[(task.name, p)])
                if terms:
                    self.model.add_constraint(
                        linear_sum(terms) <= limit,
                        name=f"resource[{resource_name},{p}]",
                    )

    def _add_path_delay_constraints(self) -> None:
        """Eq. 7: per root-to-leaf path and partition, the in-partition delay
        along the path is at most ``d[p]``.

        The path set is generated nonenumeratively (sorted by path delay,
        most critical first) so that over-limit graphs are rejected in
        ``O(V + E)`` time and the solver sees the binding constraints at
        the top of the constraint matrix.  Exactness needs the *complete*
        path set — a globally short path can still own the longest
        in-partition segment — so no path is dropped.
        """
        n = self.partition_bound
        graph = self.problem.graph
        paths = root_to_leaf_paths_by_delay(graph, limit=self.options.path_limit)
        for path_index, path in enumerate(paths):
            for p in range(1, n + 1):
                terms = [
                    graph.task(task_name).delay * MODEL_TIME_SCALE * self.y[(task_name, p)]
                    for task_name in path
                ]
                self.model.add_constraint(
                    linear_sum(terms) <= self.d[p],
                    name=f"pathdelay[{path_index},{p}]",
                )

    def _add_chain_delay_constraints(self) -> None:
        """Big-M prefix formulation equivalent to Eq. 7 without path enumeration.

        ``a[t,p]`` is (an upper bound on) the longest chain of same-partition
        tasks ending at ``t`` when ``t`` is in partition ``p``:

        * ``a[t,p] >= D(t) * y[t,p]``
        * ``a[t,p] >= a[t',p] + D(t) - M * (1 - y[t,p])`` for every edge
          ``t' -> t``
        * ``d[p] >= a[t,p]``
        """
        n = self.partition_bound
        graph = self.problem.graph
        big_m = graph.total_delay() * MODEL_TIME_SCALE
        accumulated: Dict[Tuple[str, int], Variable] = {}
        for task_name in graph.task_names():
            for p in range(1, n + 1):
                accumulated[(task_name, p)] = self.model.add_continuous(
                    f"a[{task_name},{p}]", 0.0, big_m
                )
        for task_name in graph.task_names():
            delay = graph.task(task_name).delay * MODEL_TIME_SCALE
            for p in range(1, n + 1):
                a_var = accumulated[(task_name, p)]
                self.model.add_constraint(
                    a_var >= delay * self.y[(task_name, p)],
                    name=f"chain_base[{task_name},{p}]",
                )
                for pred in graph.predecessors(task_name):
                    self.model.add_constraint(
                        a_var
                        >= accumulated[(pred, p)]
                        + delay
                        - big_m * (1 - self.y[(task_name, p)]),
                        name=f"chain_step[{pred}->{task_name},{p}]",
                    )
                self.model.add_constraint(
                    self.d[p] >= a_var, name=f"chain_bound[{task_name},{p}]"
                )

    def _add_delay_bound_constraint(self) -> None:
        """``sum_p d[p] >= delay_lower_bound`` (always on, every delay form).

        Every feasible assignment satisfies it, so the optimum is unchanged;
        the ``d[p]`` are continuous, so even a bound rounded a few ulps high
        excludes no assignment.  Without the row the LP relaxation bounds
        ``sum_p d[p]`` only by the critical path, and HiGHS can take
        thousands of nodes to prove an optimum it found at the root.
        """
        self.delay_bound = self.problem.delay_lower_bound()
        if self.delay_bound > 0:
            self.model.add_constraint(
                linear_sum([self.d[p] for p in range(1, self.partition_bound + 1)])
                >= self.delay_bound * MODEL_TIME_SCALE,
                name="delay_bound",
            )

    # ------------------------------------------------------------------
    # Solution extraction
    # ------------------------------------------------------------------

    def extract_assignment(self, solution) -> Dict[str, int]:
        """Read the task -> partition assignment out of a solver solution."""
        assignment: Dict[str, int] = {}
        for task_name in self.problem.graph.task_names():
            chosen = None
            for p in range(1, self.partition_bound + 1):
                if solution.binary_value(self.y[(task_name, p)]):
                    if chosen is not None:
                        raise PartitioningError(
                            f"task {task_name!r} assigned to two partitions "
                            f"({chosen} and {p}) — solver returned an invalid point"
                        )
                    chosen = p
            if chosen is None:
                raise PartitioningError(
                    f"task {task_name!r} is not assigned to any partition"
                )
            assignment[task_name] = chosen
        return assignment

    def statistics(self) -> Dict[str, int]:
        """Model-size statistics (variables/constraints) for reporting."""
        return self.model.statistics()

