"""The DAG algorithms shared by the task graph and the operation graph.

:class:`~repro.taskgraph.graph.TaskGraph` and
:class:`~repro.dfg.graph.DataFlowGraph` keep plain insertion-ordered dicts,
``succ[producer][consumer]`` and ``pred[consumer][producer]``.  Everything
the flow asks of them is a topological order, a reachability query or an
induced copy, and each is written here once.  Every result follows dict
order, so it is deterministic across runs and processes.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Hashable, Iterable, List, Mapping, Set, Tuple

Node = Hashable


def topological_order(
    succ: Mapping[Node, Iterable[Node]], pred: Mapping[Node, Collection[Node]]
) -> List[Node]:
    """The nodes one generation at a time; short of ``len(pred)`` on a cycle.

    In-degree-0 nodes come first, in node order.  Every other node comes
    when its last predecessor is taken, scanning each generation in order
    and each node's successors in edge order.  A node on or behind a cycle
    is never taken, so a short result is the acyclicity check.
    """
    waiting = {node: len(parents) for node, parents in pred.items() if parents}
    order = [node for node, parents in pred.items() if not parents]
    # The list grows while it is scanned: first-in first-out is exactly
    # one generation after another.
    for node in order:
        for child in succ[node]:
            waiting[child] -= 1
            if not waiting[child]:
                order.append(child)
    return order


def reachable(neighbours: Callable[[Node], Iterable[Node]], source: Node) -> Set[Node]:
    """Every node reachable from *source* along one or more edges.

    *neighbours* gives a node's successors (or its predecessors, to search
    backwards).  *source* is in the result only if it lies on a cycle.
    """
    seen: Set[Node] = set()
    stack = [source]
    while stack:
        for child in neighbours(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def induced(
    succ: Mapping[Node, Mapping[Node, object]], keep: Collection[Node]
) -> Tuple[Dict[Node, Dict[Node, object]], Dict[Node, Dict[Node, object]]]:
    """The ``succ`` and ``pred`` maps of the subgraph induced by *keep*.

    Nodes and each node's successors keep their order.  Each node's
    predecessors come in edge order (producers in node order), which is
    what replaying the kept edges one by one would give.  An induced
    subgraph of a DAG is a DAG, so nothing is re-checked.
    """
    sub_succ = {
        node: {child: value for child, value in children.items() if child in keep}
        for node, children in succ.items()
        if node in keep
    }
    sub_pred: Dict[Node, Dict[Node, object]] = {node: {} for node in sub_succ}
    for node, children in sub_succ.items():
        for child, value in children.items():
            sub_pred[child][node] = value
    return sub_succ, sub_pred
