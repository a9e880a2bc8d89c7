"""Behaviour-level task graphs (the input specification of Figure 3).

A task graph is a DAG of coarse-grain tasks with data-volume annotations on
edges (``B(t1, t2)``) and environment I/O per task (``B(env, t)``,
``B(t, env)``), implicitly enclosed in a data-dependent outer loop.  The
temporal partitioner, loop-fission analysis and memory mapper all operate on
this representation.
"""

from .analysis import (
    DEFAULT_PATH_LIMIT,
    asap_levels,
    cardinality_lower_bound,
    count_root_to_leaf_paths,
    critical_path,
    downstream_tasks,
    independent_task_pairs,
    max_tasks_per_partition,
    partition_lower_bound,
    path_delay,
    root_to_leaf_paths,
    tasks_by_level,
    transitive_reduction,
    upstream_tasks,
)
from .builders import (
    figure4_example,
    figure4_partition_assignment,
    fork_join,
    image_pipeline_task_graph,
    linear_pipeline,
    random_dsp_task_graph,
)
from .graph import TaskGraph
from .kpaths import (
    edge_criticalities,
    k_longest_path_delays,
    k_longest_paths,
    longest_path_through,
    root_to_leaf_paths_by_delay,
)
from .serialize import from_dict, from_json, load, save, to_dict, to_json
from .task import Task, TaskCost, clb_cost

__all__ = [
    "DEFAULT_PATH_LIMIT",
    "Task",
    "TaskCost",
    "TaskGraph",
    "asap_levels",
    "cardinality_lower_bound",
    "clb_cost",
    "count_root_to_leaf_paths",
    "critical_path",
    "downstream_tasks",
    "edge_criticalities",
    "figure4_example",
    "figure4_partition_assignment",
    "fork_join",
    "from_dict",
    "from_json",
    "image_pipeline_task_graph",
    "independent_task_pairs",
    "k_longest_path_delays",
    "k_longest_paths",
    "linear_pipeline",
    "load",
    "longest_path_through",
    "max_tasks_per_partition",
    "partition_lower_bound",
    "path_delay",
    "random_dsp_task_graph",
    "root_to_leaf_paths",
    "root_to_leaf_paths_by_delay",
    "save",
    "tasks_by_level",
    "to_dict",
    "to_json",
    "transitive_reduction",
    "upstream_tasks",
]
