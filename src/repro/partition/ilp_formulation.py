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

The delay constraints are configurable (and benchmarked as an ablation):
they can enumerate paths per the paper (``delay_form="path"``) or use a
big-M chain-prefix formulation (``delay_form="chain"``) that avoids path
enumeration for graphs with exponentially many paths.

The model is written straight into HiGHS's standard form
(:class:`~repro.ilp.MatrixForm`), one row of column indices and
coefficients at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import PartitioningError
from ..ilp.scipy_backend import MatrixForm
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

    #: "path" (Eq. 7, fails over the path limit), "chain" (big-M prefix
    #: form), or "auto" (path when the DP-counted path total fits the
    #: limit, chain otherwise — the form the multilevel inner solves use,
    #: since coarse graphs can be arbitrarily reconvergent).
    delay_form: str = "path"
    path_limit: Optional[int] = DEFAULT_PATH_LIMIT

    def __post_init__(self) -> None:
        if self.delay_form not in ("path", "chain", "auto"):
            raise PartitioningError(f"unknown delay_form {self.delay_form!r}")


class TemporalPartitioningFormulation:
    """Builds the ILP for a fixed partition bound ``N`` as a :attr:`form`.

    Columns are numbered ``y[t,p]`` first (task-major: tasks in graph
    order, ``p = 1..N`` within each), then ``w[p,e]`` (``p = 1..N-1``,
    edges in graph order within each), then ``d[p]``, then — for the chain
    delay form — ``a[t,p]`` task-major.  Rows are ``<=`` rows followed by
    the uniqueness equalities; a ``>=`` row is stored negated.
    """

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
        graph = problem.graph
        n = partition_bound
        self._task_names = graph.task_names()
        self._task_index = {name: i for i, name in enumerate(self._task_names)}
        self._edges = graph.weighted_edges()
        #: First column of the ``w`` and ``d`` blocks.
        self._w0 = len(self._task_names) * n
        self._d0 = self._w0 + (n - 1) * len(self._edges)
        self._indptr: List[int] = [0]
        self._indices: List[int] = []
        self._data: List[float] = []
        self._row_lower: List[float] = []
        self._row_upper: List[float] = []
        #: :meth:`PartitionProblem.delay_lower_bound` in seconds (the
        #: right-hand side of the delay-bound row, before scaling).
        self.delay_bound = 0.0

        self._add_temporal_order_constraints()
        if n > 1:
            self._add_liveness_linking_constraints()
            self._add_memory_constraints()
        self._add_resource_constraints()
        max_delay = graph.total_delay() * MODEL_TIME_SCALE
        # Upper bounds: y and w are binary, d (and a) at most the total delay.
        upper = [1.0] * self._d0 + [max_delay] * n
        if self._resolved_delay_form() == "path":
            self._add_path_delay_constraints()
        else:
            upper += [max_delay] * (len(self._task_names) * n)
            self._add_chain_delay_constraints(max_delay)
        self._add_delay_bound_constraint()
        self._add_uniqueness_constraints()
        self.form = self._matrix_form(np.array(upper))

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------

    def _resolved_delay_form(self) -> str:
        """The concrete delay form, resolving ``"auto"`` by path count."""
        if self.options.delay_form != "auto":
            return self.options.delay_form
        limit = self.options.path_limit
        if limit is None:
            return "path"
        count = count_root_to_leaf_paths(self.problem.graph)
        return "path" if count <= limit else "chain"

    def _row(
        self,
        columns: Sequence[int],
        coefficients: Sequence[float],
        upper: float,
        lower: float = -math.inf,
    ) -> None:
        """Append the row ``lower <= sum coefficients * x[columns] <= upper``."""
        self._indices.extend(columns)
        self._data.extend(coefficients)
        self._indptr.append(len(self._indices))
        self._row_lower.append(lower)
        self._row_upper.append(upper)

    def _row_at_least(
        self, columns: Sequence[int], coefficients: Sequence[float], lower: float
    ) -> None:
        """Append ``sum coefficients * x[columns] >= lower``, negated to ``<=``."""
        self._row(columns, [-c for c in coefficients], -lower)

    def _add_uniqueness_constraints(self) -> None:
        """Eq. 1: every task is placed in exactly one partition."""
        n = self.partition_bound
        ones = [1.0] * n
        for t in range(len(self._task_names)):
            self._row(range(t * n, t * n + n), ones, 1.0, lower=1.0)

    def _add_temporal_order_constraints(self) -> None:
        """Eq. 2: a producer may not be placed later than its consumer.

        For every edge ``t1 -> t2`` and every partition ``p2 < N``:
        ``y[t2,p2] + sum_{p1 > p2} y[t1,p1] <= 1``.
        """
        n = self.partition_bound
        index = self._task_index
        for producer, consumer, _ in self._edges:
            first = index[producer] * n
            consumer_first = index[consumer] * n
            for p2 in range(n - 1):
                later = range(first + p2 + 1, first + n)
                self._row([consumer_first + p2, *later], [1.0] * (len(later) + 1), 1.0)

    def _add_liveness_linking_constraints(self) -> None:
        """Eqs. 4-5 (linearised): force ``w`` to 1 when an edge straddles a boundary.

        ``w[p,e] >= sum_{p1 <= p} y[t1,p1] + sum_{p2 > p} y[t2,p2] - 1``:
        with one partition per task (Eq. 1) the right-hand side is 1
        exactly when the producer sits at or before boundary ``p`` and the
        consumer after it.
        """
        n = self.partition_bound
        index = self._task_index
        edge_count = len(self._edges)
        coefficients = [1.0] + [-1.0] * n
        for e, (producer, consumer, _) in enumerate(self._edges):
            first = index[producer] * n
            consumer_first = index[consumer] * n
            for p in range(1, n):
                columns = [
                    self._w0 + (p - 1) * edge_count + e,
                    *range(first, first + p),
                    *range(consumer_first + p, consumer_first + n),
                ]
                self._row_at_least(columns, coefficients, -1.0)

    def _add_memory_constraints(self) -> None:
        """Eq. 3: the data stored across each boundary fits in ``M_max``."""
        edge_count = len(self._edges)
        stored = [(e, float(words)) for e, (_, _, words) in enumerate(self._edges) if words]
        if not stored:
            return
        memory = float(self.problem.memory_words)
        for p in range(1, self.partition_bound):
            first = self._w0 + (p - 1) * edge_count
            self._row([first + e for e, _ in stored], [words for _, words in stored], memory)

    def _add_resource_constraints(self) -> None:
        """Eq. 6: each partition's resource usage fits in ``R_max``."""
        n = self.partition_bound
        tasks = list(self.problem.graph.tasks())
        capacity = self.problem.resource_capacity
        resource_names = set()
        for task in tasks:
            resource_names.update(task.resources.names())
        for resource_name in sorted(resource_names):
            users = [
                (t * n, float(task.resources[resource_name]))
                for t, task in enumerate(tasks)
                if task.resources[resource_name]
            ]
            if not users:
                continue
            limit = float(capacity[resource_name])
            amounts = [amount for _, amount in users]
            for p in range(n):
                self._row([first + p for first, _ in users], amounts, limit)

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
        delays = [task.delay * MODEL_TIME_SCALE for task in graph.tasks()]
        index = self._task_index
        paths = root_to_leaf_paths_by_delay(graph, limit=self.options.path_limit)
        for path in paths:
            members = [index[name] for name in path]
            coefficients = [delays[t] for t in members] + [-1.0]
            for p in range(n):
                self._row([t * n + p for t in members] + [self._d0 + p], coefficients, 0.0)

    def _add_chain_delay_constraints(self, big_m: float) -> None:
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
        a0 = self._d0 + n
        index = self._task_index
        for t, task_name in enumerate(self._task_names):
            delay = graph.task(task_name).delay * MODEL_TIME_SCALE
            predecessors = [index[pred] for pred in graph.predecessors(task_name)]
            for p in range(n):
                a = a0 + t * n + p
                y = t * n + p
                self._row_at_least([a, y], [1.0, -delay], 0.0)
                for pred in predecessors:
                    self._row_at_least(
                        [a, a0 + pred * n + p, y], [1.0, -1.0, -big_m], delay - big_m
                    )
                self._row_at_least([self._d0 + p, a], [1.0, -1.0], 0.0)

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
            n = self.partition_bound
            self._row_at_least(
                range(self._d0, self._d0 + n), [1.0] * n, self.delay_bound * MODEL_TIME_SCALE
            )

    def _matrix_form(self, upper: np.ndarray) -> MatrixForm:
        """The finished model: objective (Eq. 8), bounds and the rows, with
        zero coefficients (a zero-delay task on a path) dropped."""
        n = self.partition_bound
        columns = len(upper)
        objective = np.zeros(columns)
        objective[self._d0 : self._d0 + n] = 1.0
        integrality = np.zeros(columns, dtype=np.uint8)
        integrality[: self._d0] = 1
        indptr = np.array(self._indptr)
        indices = np.array(self._indices)
        data = np.array(self._data, dtype=float)
        nonzero = data != 0.0
        if not nonzero.all():
            rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            kept = np.bincount(rows[nonzero], minlength=len(indptr) - 1)
            indptr = np.concatenate(([0], np.cumsum(kept)))
            indices, data = indices[nonzero], data[nonzero]
        return MatrixForm(
            objective=objective,
            objective_constant=float(
                n * self.problem.reconfiguration_time * MODEL_TIME_SCALE
            ),
            lower=np.zeros(columns),
            upper=upper,
            integrality=integrality,
            indptr=indptr,
            indices=indices,
            data=data,
            row_lower=np.array(self._row_lower),
            row_upper=np.array(self._row_upper),
        )

    # ------------------------------------------------------------------
    # Solution extraction
    # ------------------------------------------------------------------

    def extract_assignment(self, values: np.ndarray) -> Dict[str, int]:
        """Read the task -> partition assignment out of a solution's value
        vector (indexed by :attr:`form` column)."""
        n = self.partition_bound
        placed = np.round(np.asarray(values[: len(self._task_names) * n])) != 0
        assignment: Dict[str, int] = {}
        for task_name, row in zip(self._task_names, placed.reshape(-1, n)):
            chosen = [int(p) + 1 for p in np.flatnonzero(row)]
            if not chosen:
                raise PartitioningError(
                    f"task {task_name!r} is not assigned to any partition"
                )
            if len(chosen) > 1:
                raise PartitioningError(
                    f"task {task_name!r} assigned to two partitions "
                    f"({chosen[0]} and {chosen[1]}) — solver returned an invalid point"
                )
            assignment[task_name] = chosen[0]
        return assignment
