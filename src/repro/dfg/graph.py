"""Operation-level data-flow graph container.

A :class:`DataFlowGraph` is a directed acyclic graph of :class:`Operation`
nodes.  Edges carry no data-volume annotation (each edge is a single scalar
value of the producer's bit-width); data volumes live at the *task graph*
level, which is the granularity the temporal partitioner works at.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .. import dag
from ..errors import CycleError, GraphError
from .operations import OpKind, Operation


class DataFlowGraph:
    """A directed acyclic graph of operations describing one task's behaviour.

    Operations and both adjacency maps are insertion-ordered dicts (each
    node's neighbours a dict used as an ordered set), so every query returns
    a deterministic order (see :mod:`repro.dag`).  The topological order of
    the current structure is sorted once and kept until
    :meth:`add_operation` or :meth:`add_dependency` changes the structure
    (see :meth:`topological_order`).
    """

    #: The sort of the current operations and edges, or ``None`` until the
    #: next one; only the two structural mutators clear it.  A class-level
    #: default, so a DFG pickled before it was kept reads ``None``.
    _order: Optional[List[str]] = None

    def __init__(self, name: str = "dfg") -> None:
        if not name:
            raise GraphError("data-flow graph name must not be empty")
        self.name = name
        self._operations: Dict[str, Operation] = {}
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_operation(self, operation: Operation) -> Operation:
        """Add an operation node.  Names must be unique within the graph."""
        if operation.name in self._operations:
            raise GraphError(
                f"duplicate operation name {operation.name!r} in DFG {self.name!r}"
            )
        self._operations[operation.name] = operation
        self._succ[operation.name] = {}
        self._pred[operation.name] = {}
        self._order = None
        return operation

    def add_dependency(self, producer: str, consumer: str) -> None:
        """Add a data dependency edge from *producer* to *consumer*.

        Adding an existing edge is a no-op that keeps its position.  An
        edge that would close a cycle raises :class:`CycleError` and leaves
        the graph unchanged.
        """
        for node in (producer, consumer):
            if node not in self._operations:
                raise GraphError(
                    f"unknown operation {node!r} in DFG {self.name!r}"
                )
        if producer == consumer:
            raise GraphError(f"self dependency on operation {producer!r}")
        if consumer in self._succ[producer]:
            return
        if producer in dag.reachable(self._succ.__getitem__, consumer):
            raise CycleError(
                f"adding edge {producer!r} -> {consumer!r} creates a cycle in "
                f"DFG {self.name!r}"
            )
        self._succ[producer][consumer] = None
        self._pred[consumer][producer] = None
        self._order = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def operation(self, name: str) -> Operation:
        """The :class:`Operation` stored under *name*."""
        try:
            return self._operations[name]
        except KeyError:
            raise GraphError(f"unknown operation {name!r} in DFG {self.name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def operations(self) -> Iterator[Operation]:
        """Iterate over all operations in insertion order."""
        return iter(self._operations.values())

    def operation_names(self) -> List[str]:
        """Names of all operations in insertion order."""
        return list(self._operations)

    def edges(self) -> List[Tuple[str, str]]:
        """All dependency edges as (producer, consumer) name pairs:
        producers in operation order, each one's consumers in edge order."""
        return [
            (producer, consumer)
            for producer, consumers in self._succ.items()
            for consumer in consumers
        ]

    def predecessors(self, name: str) -> List[str]:
        """Names of operations feeding *name*, in edge insertion order."""
        self.operation(name)
        return list(self._pred[name])

    def successors(self, name: str) -> List[str]:
        """Names of operations consuming *name*'s result, in edge insertion order."""
        self.operation(name)
        return list(self._succ[name])

    def inputs(self) -> List[Operation]:
        """All :attr:`OpKind.INPUT` operations."""
        return [op for op in self.operations() if op.kind is OpKind.INPUT]

    def outputs(self) -> List[Operation]:
        """All :attr:`OpKind.OUTPUT` operations."""
        return [op for op in self.operations() if op.kind is OpKind.OUTPUT]

    def constants(self) -> List[Operation]:
        """All :attr:`OpKind.CONST` operations."""
        return [op for op in self.operations() if op.kind is OpKind.CONST]

    def compute_operations(self) -> List[Operation]:
        """Operations that consume a functional unit (non-zero-cost nodes)."""
        return [op for op in self.operations() if not op.is_zero_cost]

    def operation_counts(self) -> Dict[OpKind, int]:
        """Histogram of operation kinds (useful for software-cost estimates)."""
        counts: Dict[OpKind, int] = {}
        for op in self.operations():
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Structure / analysis
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Operation names in generation order (see :func:`repro.dag.topological_order`).

        The order depends only on the operations and edges, so it is sorted
        once per structure and each call returns a copy.
        """
        if self._order is None:
            self._order = dag.topological_order(self._succ, self._pred)
        return list(self._order)

    def validate(self) -> None:
        """Check structural invariants, raising :class:`GraphError` on failure.

        * the graph is acyclic (guaranteed by construction, rechecked here);
        * INPUT and CONST nodes have no predecessors;
        * OUTPUT nodes have no successors and exactly one predecessor;
        * every non-source operation has at least one predecessor.
        """
        if len(self.topological_order()) != len(self):
            raise CycleError(f"DFG {self.name!r} contains a cycle")
        for op in self.operations():
            preds = self.predecessors(op.name)
            succs = self.successors(op.name)
            if op.kind in (OpKind.INPUT, OpKind.CONST) and preds:
                raise GraphError(
                    f"{op.kind.value} operation {op.name!r} must not have "
                    f"predecessors (has {preds})"
                )
            if op.kind is OpKind.OUTPUT:
                if succs:
                    raise GraphError(
                        f"output operation {op.name!r} must not have successors"
                    )
                if len(preds) != 1:
                    raise GraphError(
                        f"output operation {op.name!r} must have exactly one "
                        f"predecessor, has {len(preds)}"
                    )
            if op.kind not in (OpKind.INPUT, OpKind.CONST) and not preds:
                raise GraphError(
                    f"operation {op.name!r} of kind {op.kind.value!r} has no inputs"
                )

    def longest_path_length(self) -> int:
        """Number of compute operations on the longest dependency chain."""
        lengths: Dict[str, int] = {}
        for name in self.topological_order():
            op = self.operation(name)
            own = 0 if op.is_zero_cost else 1
            best_pred = max(
                (lengths[p] for p in self.predecessors(name)), default=0
            )
            lengths[name] = best_pred + own
        return max(lengths.values(), default=0)

    def subgraph_copy(self, names: Iterable[str], name: Optional[str] = None) -> "DataFlowGraph":
        """A new DFG containing only the named operations and induced edges."""
        selected = set(names)
        result = DataFlowGraph(name or f"{self.name}-sub")
        result._operations = {
            node: operation
            for node, operation in self._operations.items()
            if node in selected
        }
        result._succ, result._pred = dag.induced(self._succ, selected)
        return result

    def copy(self, name: Optional[str] = None) -> "DataFlowGraph":
        """A shallow copy (operations are immutable, so sharing is safe)."""
        return self.subgraph_copy(self._operations, name or self.name)

    def __repr__(self) -> str:
        return (
            f"DataFlowGraph(name={self.name!r}, operations={len(self)}, "
            f"edges={sum(len(consumers) for consumers in self._succ.values())})"
        )
