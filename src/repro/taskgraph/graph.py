"""The behaviour-level task graph (the paper's Figure 3 input specification).

A :class:`TaskGraph` is a directed acyclic graph of :class:`Task` nodes.
Edges carry the number of data words communicated between the two tasks,
``B(t1, t2)``.  Each task may additionally read words from the environment
(``B(env, t)``) and write words to the environment (``B(t, env)``) — for the
DCT case study these are the 4x4 input block and the transformed output.

The whole task graph is implicitly enclosed in an outer loop whose iteration
count ``I`` is only known at run time; that loop is what the loop-fission step
restructures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .. import dag
from ..arch.device import ResourceVector
from ..errors import CycleError, GraphError, UnknownTaskError
from ..units import as_integer
from .task import Task, TaskCost


def _words(value: int, what: str) -> int:
    """A word count as a plain ``int``: integral and non-negative."""
    if type(value) is not int:
        value = as_integer(value, what, GraphError)
    if value < 0:
        raise GraphError(f"{what} must be non-negative, got {value}")
    return value


class GraphMaps(NamedTuple):
    """A task graph's own insertion-ordered maps (see :meth:`TaskGraph.maps`)."""

    tasks: Dict[str, Task]
    env_input: Dict[str, int]
    env_output: Dict[str, int]
    #: ``succ[producer][consumer]`` and ``pred[consumer][producer]`` both
    #: hold ``B(producer, consumer)``.
    succ: Dict[str, Dict[str, int]]
    pred: Dict[str, Dict[str, int]]


class TaskGraph:
    """A DAG of tasks with data-volume annotations on edges and environment I/O.

    Tasks, environment volumes and both adjacency maps are insertion-ordered
    dicts, so every query returns a deterministic order (see :mod:`repro.dag`).
    The topological order of the current structure is sorted once and kept
    until :meth:`add_task`, :meth:`add_edge` or :meth:`add_edges` changes
    the structure (see :meth:`topological_order`).
    """

    def __init__(self, name: str = "taskgraph") -> None:
        if not name:
            raise GraphError("task graph name must not be empty")
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._env_input: Dict[str, int] = {}
        self._env_output: Dict[str, int] = {}
        #: ``_succ[producer][consumer]`` and ``_pred[consumer][producer]``
        #: both hold ``B(producer, consumer)``.
        self._succ: Dict[str, Dict[str, int]] = {}
        self._pred: Dict[str, Dict[str, int]] = {}
        #: The sort of the current nodes and edges, or ``None`` until the
        #: next one; only the three structural mutators clear it.
        self._order: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_task(
        self,
        task: Task,
        env_input_words: int = 0,
        env_output_words: int = 0,
    ) -> Task:
        """Add *task* to the graph.

        ``env_input_words`` and ``env_output_words`` are the environment data
        volumes ``B(env, t)`` and ``B(t, env)`` in memory words.  Every word
        count is a non-negative integer: a ``bool``, a ``float`` or a negative
        count raises :class:`GraphError`, and a numpy integer is stored as a
        plain ``int``.
        """
        if task.name in self._tasks:
            raise GraphError(f"duplicate task name {task.name!r} in {self.name!r}")
        env_input_words = _words(env_input_words, "env_input_words")
        env_output_words = _words(env_output_words, "env_output_words")
        self._tasks[task.name] = task
        self._env_input[task.name] = env_input_words
        self._env_output[task.name] = env_output_words
        self._succ[task.name] = {}
        self._pred[task.name] = {}
        self._order = None
        return task

    def _check_new_edge(self, producer: str, consumer: str, words: int) -> int:
        """The edge's word count as a plain ``int``, once the edge is legal."""
        self._require(producer)
        self._require(consumer)
        if producer == consumer:
            raise GraphError(f"self edge on task {producer!r}")
        words = _words(words, "edge data volume")
        if consumer in self._succ[producer]:
            raise GraphError(f"duplicate edge {producer!r} -> {consumer!r}")
        return words

    def add_edge(self, producer: str, consumer: str, words: int = 1) -> None:
        """Add a data dependency ``producer -> consumer`` carrying *words* words.

        Raises :class:`CycleError`, leaving the graph unchanged, when
        *producer* is already reachable from *consumer*.
        """
        words = self._check_new_edge(producer, consumer, words)
        if producer in dag.reachable(self._succ.__getitem__, consumer):
            raise CycleError(
                f"edge {producer!r} -> {consumer!r} creates a cycle in task "
                f"graph {self.name!r}"
            )
        self._succ[producer][consumer] = words
        self._pred[consumer][producer] = words
        self._order = None

    def add_edges(self, edges: Iterable[Tuple[str, str, int]]) -> None:
        """Bulk-add ``(producer, consumer, words)`` dependencies.

        Equivalent to calling :meth:`add_edge` per triple, except that
        acyclicity is checked once, by one topological sort after all
        insertions, rather than by one reachability search per edge, so
        10k+-node graph construction stays linear.  That sort becomes the
        graph's kept order.  On any failure every edge added by this call
        is rolled back.
        """
        added: List[Tuple[str, str]] = []
        self._order = None
        try:
            for producer, consumer, words in edges:
                words = self._check_new_edge(producer, consumer, words)
                self._succ[producer][consumer] = words
                self._pred[consumer][producer] = words
                added.append((producer, consumer))
            order = dag.topological_order(self._succ, self._pred)
            if len(order) != len(self):
                raise CycleError(
                    f"bulk edge insertion creates a cycle in task graph "
                    f"{self.name!r}"
                )
        except Exception:
            for producer, consumer in added:
                del self._succ[producer][consumer]
                del self._pred[consumer][producer]
            raise
        self._order = order

    def set_env_io(
        self,
        task_name: str,
        env_input_words: Optional[int] = None,
        env_output_words: Optional[int] = None,
    ) -> None:
        """Update the environment I/O volumes of an existing task."""
        self._require(task_name)
        if env_input_words is not None:
            self._env_input[task_name] = _words(env_input_words, "env_input_words")
        if env_output_words is not None:
            self._env_output[task_name] = _words(env_output_words, "env_output_words")

    def set_cost(self, task_name: str, cost: TaskCost) -> None:
        """Attach a synthesis cost to an existing task (post-estimation)."""
        self._tasks[task_name] = self.task(task_name).with_cost(cost)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require(self, task_name: str) -> None:
        if task_name not in self._tasks:
            raise UnknownTaskError(
                f"unknown task {task_name!r} in task graph {self.name!r}"
            )

    def task(self, name: str) -> Task:
        """The :class:`Task` stored under *name*."""
        self._require(name)
        return self._tasks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def tasks(self) -> Iterator[Task]:
        """Iterate over all tasks in insertion order."""
        return iter(self._tasks.values())

    def task_names(self) -> List[str]:
        """All task names in insertion order."""
        return list(self._tasks)

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as (producer, consumer) pairs: producers in task order,
        each producer's consumers in edge insertion order."""
        return [
            (producer, consumer)
            for producer, consumers in self._succ.items()
            for consumer in consumers
        ]

    def weighted_edges(self) -> List[Tuple[str, str, int]]:
        """All edges as ``(producer, consumer, words)`` triples, in
        :meth:`edges` order."""
        return [
            (producer, consumer, words)
            for producer, consumers in self._succ.items()
            for consumer, words in consumers.items()
        ]

    def edge_count(self) -> int:
        """Number of dependency edges."""
        return sum(len(consumers) for consumers in self._succ.values())

    def edge_words(self, producer: str, consumer: str) -> int:
        """``B(producer, consumer)`` in memory words."""
        self._require(producer)
        self._require(consumer)
        try:
            return self._succ[producer][consumer]
        except KeyError:
            raise GraphError(f"no edge {producer!r} -> {consumer!r}")

    def env_input_words(self, task_name: str) -> int:
        """``B(env, task)`` in memory words."""
        self._require(task_name)
        return self._env_input[task_name]

    def env_output_words(self, task_name: str) -> int:
        """``B(task, env)`` in memory words."""
        self._require(task_name)
        return self._env_output[task_name]

    def predecessors(self, task_name: str) -> List[str]:
        """Tasks that *task_name* directly depends on, in edge insertion order."""
        self._require(task_name)
        return list(self._pred[task_name])

    def successors(self, task_name: str) -> List[str]:
        """Tasks that directly depend on *task_name*, in edge insertion order."""
        self._require(task_name)
        return list(self._succ[task_name])

    def roots(self) -> List[str]:
        """Tasks with no predecessors (the paper's ``T_r``)."""
        return [name for name, producers in self._pred.items() if not producers]

    def leaves(self) -> List[str]:
        """Tasks with no successors (the paper's ``T_l``)."""
        return [name for name, consumers in self._succ.items() if not consumers]

    def has_edge(self, producer: str, consumer: str) -> bool:
        """Whether the edge ``producer -> consumer`` exists."""
        return consumer in self._succ.get(producer, ())

    def maps(self) -> GraphMaps:
        """The graph's own task, env-word, successor and predecessor maps.

        These are the live dicts, not copies, so a whole-graph walk reads
        every task and edge end without a name check per lookup; each map
        iterates in the order the per-name queries above return.  Callers
        must treat them, and every inner dict, as read-only: only the
        graph's own methods may change them.
        """
        return GraphMaps(self._tasks, self._env_input, self._env_output, self._succ, self._pred)

    # ------------------------------------------------------------------
    # Aggregates used by the partitioner
    # ------------------------------------------------------------------

    def all_estimated(self) -> bool:
        """Whether every task carries a synthesis cost."""
        return all(task.has_cost for task in self.tasks())

    def total_resources(self) -> ResourceVector:
        """Sum of ``R(t)`` over all tasks (the partition lower bound numerator)."""
        return ResourceVector.total(task.resources for task in self.tasks())

    def total_delay(self) -> float:
        """Sum of ``D(t)`` over all tasks (an upper bound on any latency)."""
        return sum(task.delay for task in self.tasks())

    def total_env_input_words(self) -> int:
        """Total environment input volume per outer-loop iteration."""
        return sum(self._env_input.values())

    def total_env_output_words(self) -> int:
        """Total environment output volume per outer-loop iteration."""
        return sum(self._env_output.values())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Task names in generation order (see :func:`repro.dag.topological_order`).

        The order depends only on the nodes and edges, so it is sorted once
        per structure and each call returns a copy; changing a task's cost
        cannot make it stale.
        """
        return list(self._sorted())

    def _sorted(self) -> List[str]:
        """The kept topological order, sorted first if there is none."""
        if self._order is None:
            self._order = dag.topological_order(self._succ, self._pred)
        return self._order

    def validate(self) -> None:
        """Check structural invariants (acyclicity, non-empty)."""
        if len(self) == 0:
            raise GraphError(f"task graph {self.name!r} has no tasks")
        if len(self._sorted()) != len(self):
            raise CycleError(f"task graph {self.name!r} contains a cycle")

    def subgraph_copy(self, names: Iterable[str], name: Optional[str] = None) -> "TaskGraph":
        """A new task graph containing only the named tasks and induced edges."""
        selected = set(names)
        for task_name in selected:
            self._require(task_name)
        result = TaskGraph(name or f"{self.name}-sub")
        for task_name, task in self._tasks.items():
            if task_name in selected:
                result._tasks[task_name] = task
                result._env_input[task_name] = self._env_input[task_name]
                result._env_output[task_name] = self._env_output[task_name]
        result._succ, result._pred = dag.induced(self._succ, selected)
        return result

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """A copy of the whole task graph."""
        return self.subgraph_copy(self._tasks, name or self.name)

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={len(self)}, "
            f"edges={self.edge_count()})"
        )
