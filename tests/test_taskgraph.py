"""Tests for behaviour-level task graphs (repro.taskgraph)."""

import pytest

from repro.arch import clbs
from repro.errors import CycleError, GraphError, SpecificationError, UnknownTaskError
from repro.taskgraph import (
    Task,
    TaskCost,
    TaskGraph,
    asap_levels,
    clb_cost,
    count_root_to_leaf_paths,
    critical_path,
    downstream_tasks,
    fork_join,
    from_json,
    image_pipeline_task_graph,
    independent_task_pairs,
    linear_pipeline,
    partition_lower_bound,
    path_delay,
    random_dsp_task_graph,
    root_to_leaf_paths,
    tasks_by_level,
    to_json,
    transitive_reduction,
    upstream_tasks,
)
from repro.units import ns


class TestTaskCost:
    def test_clb_cost(self):
        cost = clb_cost(70, ns(3400))
        assert cost.clbs == 70
        assert cost.delay == pytest.approx(ns(3400))

    def test_cycles_clock_consistency_enforced(self):
        with pytest.raises(SpecificationError):
            TaskCost(resources=clbs(10), delay=ns(100), cycles=3, clock_period=ns(50))

    def test_cycles_clock_consistent_accepted(self):
        cost = clb_cost(10, ns(150), cycles=3, clock_period=ns(50))
        assert cost.cycles == 3

    def test_negative_delay_rejected(self):
        with pytest.raises(SpecificationError):
            clb_cost(10, -1.0)


class TestTask:
    def test_unestimated_task_raises_on_cost_access(self):
        task = Task("t")
        assert not task.has_cost
        with pytest.raises(SpecificationError):
            _ = task.delay

    def test_with_cost(self):
        task = Task("t").with_cost(clb_cost(50, ns(100)))
        assert task.clbs == 50

    def test_empty_name_rejected(self):
        with pytest.raises(SpecificationError):
            Task("")

    def test_describe(self):
        assert "unestimated" in Task("t").describe()
        assert "70 CLBs" in Task("t", cost=clb_cost(70, ns(10))).describe()


class TestTaskGraph:
    def test_add_edge_and_words(self, two_task_graph):
        assert two_task_graph.edge_words("a", "b") == 4

    def test_env_io(self, two_task_graph):
        assert two_task_graph.env_input_words("a") == 4
        assert two_task_graph.env_output_words("b") == 4
        assert two_task_graph.total_env_input_words() == 4

    def test_set_env_io(self, two_task_graph):
        two_task_graph.set_env_io("a", env_input_words=10)
        assert two_task_graph.env_input_words("a") == 10

    def test_duplicate_task_rejected(self, two_task_graph):
        with pytest.raises(GraphError):
            two_task_graph.add_task(Task("a", cost=clb_cost(1, 0)))

    def test_duplicate_edge_rejected(self, two_task_graph):
        with pytest.raises(GraphError):
            two_task_graph.add_edge("a", "b")

    def test_unknown_task_rejected(self, two_task_graph):
        with pytest.raises(UnknownTaskError):
            two_task_graph.edge_words("a", "zzz")

    def test_cycle_rejected(self, two_task_graph):
        with pytest.raises(CycleError):
            two_task_graph.add_edge("b", "a")

    def test_roots_and_leaves(self, two_task_graph):
        assert two_task_graph.roots() == ["a"]
        assert two_task_graph.leaves() == ["b"]

    def test_total_resources_and_delay(self, two_task_graph):
        assert two_task_graph.total_resources()["clb"] == 200
        assert two_task_graph.total_delay() == pytest.approx(ns(300))

    def test_set_cost(self, two_task_graph):
        two_task_graph.set_cost("a", clb_cost(999, ns(1)))
        assert two_task_graph.task("a").clbs == 999

    def test_all_estimated(self, two_task_graph):
        assert two_task_graph.all_estimated()
        two_task_graph.add_task(Task("c"))
        assert not two_task_graph.all_estimated()

    def test_subgraph_copy(self, two_task_graph):
        sub = two_task_graph.subgraph_copy(["a"])
        assert len(sub) == 1 and sub.edge_count() == 0

    def test_validate_empty_graph(self):
        with pytest.raises(GraphError):
            TaskGraph("empty").validate()

    def test_negative_edge_words_rejected(self, two_task_graph):
        two_task_graph.add_task(Task("c", cost=clb_cost(1, 0)))
        with pytest.raises(GraphError):
            two_task_graph.add_edge("a", "c", words=-1)


class TestBulkEdgeInsertion:
    @staticmethod
    def _nodes(count):
        graph = TaskGraph("bulk")
        for index in range(count):
            graph.add_task(Task(f"t{index}", cost=clb_cost(10, ns(100))))
        return graph

    def test_matches_serial_add_edge(self):
        edges = [("t0", "t1", 4), ("t1", "t2", 8), ("t0", "t3", 2), ("t3", "t2", 6)]
        bulk = self._nodes(4)
        bulk.add_edges(edges)
        serial = self._nodes(4)
        for producer, consumer, words in edges:
            serial.add_edge(producer, consumer, words)
        assert sorted(bulk.edges()) == sorted(serial.edges())
        for producer, consumer, words in edges:
            assert bulk.edge_words(producer, consumer) == words
        bulk.validate()

    @pytest.mark.parametrize(
        "bad_edges, error",
        [
            ([("t0", "t1", 4), ("t1", "t0", 4)], CycleError),
            ([("t0", "t1", 4), ("t0", "t1", 4)], GraphError),
            ([("t0", "t1", 4), ("t1", "t1", 4)], GraphError),
            ([("t0", "t1", 4), ("t1", "t2", -1)], GraphError),
            ([("t0", "t1", 4), ("t1", "zzz", 4)], UnknownTaskError),
        ],
        ids=["cycle", "duplicate", "self-edge", "negative-words", "unknown-task"],
    )
    def test_any_failure_rolls_back_every_edge(self, bad_edges, error):
        graph = self._nodes(3)
        with pytest.raises(error):
            graph.add_edges(bad_edges)
        # The good prefix must not survive the failed bulk call.
        assert graph.edge_count() == 0

    def test_weighted_edges_follow_edges_order(self):
        edges = [("t2", "t3", 5), ("t0", "t3", 2), ("t0", "t1", 4), ("t2", "t1", 0)]
        graph = self._nodes(4)
        graph.add_edges(edges)
        assert graph.weighted_edges() == [
            (producer, consumer, graph.edge_words(producer, consumer))
            for producer, consumer in graph.edges()
        ]
        assert graph.weighted_edges() == [
            ("t0", "t3", 2), ("t0", "t1", 4), ("t2", "t3", 5), ("t2", "t1", 0),
        ]

    def test_rollback_preserves_preexisting_edges(self):
        graph = self._nodes(3)
        graph.add_edge("t0", "t1", 4)
        with pytest.raises(CycleError):
            graph.add_edges([("t1", "t2", 4), ("t2", "t0", 4)])
        assert sorted(graph.edges()) == [("t0", "t1")]


class TestAnalysis:
    def test_root_to_leaf_paths_pipeline(self):
        graph = linear_pipeline([10, 10, 10], [ns(1), ns(2), ns(3)])
        paths = root_to_leaf_paths(graph)
        assert paths == [("stage0", "stage1", "stage2")]

    def test_root_to_leaf_paths_fork_join(self):
        graph = fork_join(branch_count=3)
        assert len(root_to_leaf_paths(graph)) == 3

    def test_isolated_task_is_its_own_path(self):
        graph = TaskGraph("iso")
        graph.add_task(Task("only", cost=clb_cost(1, ns(1))))
        assert root_to_leaf_paths(graph) == [("only",)]

    def test_path_count_matches_enumeration(self):
        graph = random_dsp_task_graph(task_count=15, seed=3)
        assert count_root_to_leaf_paths(graph) == len(root_to_leaf_paths(graph))

    def test_path_limit_enforced(self):
        graph = fork_join(branch_count=5)
        with pytest.raises(GraphError):
            root_to_leaf_paths(graph, limit=2)

    def test_path_delay(self):
        graph = linear_pipeline([10, 10], [ns(100), ns(200)])
        assert path_delay(graph, ["stage0", "stage1"]) == pytest.approx(ns(300))

    def test_critical_path(self, figure4_graph):
        path, delay = critical_path(figure4_graph)
        assert delay == pytest.approx(ns(100 + 300 + 100 + 200))
        assert path[0] == "a" and path[-1] == "f"

    def test_asap_levels(self, figure4_graph):
        levels = asap_levels(figure4_graph)
        assert levels["a"] == 0 and levels["e"] == 2 and levels["f"] == 3

    def test_tasks_by_level_partition_everything(self):
        graph = random_dsp_task_graph(task_count=12, seed=1)
        grouped = tasks_by_level(graph)
        flattened = [name for level in grouped for name in level]
        assert sorted(flattened) == sorted(graph.task_names())

    def test_partition_lower_bound(self, dct_graph):
        assert partition_lower_bound(dct_graph, clbs(1600)) == 3

    def test_partition_lower_bound_oversized_task(self):
        graph = TaskGraph("big")
        graph.add_task(Task("huge", cost=clb_cost(5000, ns(1))))
        with pytest.raises(GraphError):
            partition_lower_bound(graph, clbs(1600))

    def test_upstream_downstream(self, figure4_graph):
        assert "a" in upstream_tasks(figure4_graph, "f")
        assert "f" in downstream_tasks(figure4_graph, "a")
        assert "d" not in downstream_tasks(figure4_graph, "a")

    @pytest.mark.parametrize("query", [downstream_tasks, upstream_tasks])
    def test_reachability_rejects_unknown_task(self, figure4_graph, query):
        with pytest.raises(UnknownTaskError):
            query(figure4_graph, "nope")

    def test_independent_pairs(self, figure4_graph):
        pairs = independent_task_pairs(figure4_graph)
        assert ("a", "d") in pairs or ("d", "a") in pairs
        assert ("a", "b") not in pairs and ("b", "a") not in pairs

    def test_transitive_reduction_refuses_to_drop_data(self):
        graph = TaskGraph("tr")
        for name in ("a", "b", "c"):
            graph.add_task(Task(name, cost=clb_cost(1, ns(1))))
        graph.add_edge("a", "b", words=1)
        graph.add_edge("b", "c", words=1)
        graph.add_edge("a", "c", words=1)  # redundant but carries data
        with pytest.raises(GraphError):
            transitive_reduction(graph)

    def test_transitive_reduction_drops_zero_word_edges(self):
        graph = TaskGraph("tr")
        for name in ("a", "b", "c"):
            graph.add_task(Task(name, cost=clb_cost(1, ns(1))))
        graph.add_edge("a", "b", words=1)
        graph.add_edge("b", "c", words=1)
        graph.add_edge("a", "c", words=0)
        reduced = transitive_reduction(graph)
        assert not reduced.has_edge("a", "c")


class TestBuildersAndSerialisation:
    def test_linear_pipeline_length_mismatch(self):
        with pytest.raises(SpecificationError):
            linear_pipeline([10], [ns(1), ns(2)])

    def test_figure4_partition_metadata(self, figure4_graph):
        assert figure4_graph.task("a").metadata["figure4_partition"] == 1
        assert figure4_graph.task("f").metadata["figure4_partition"] == 2

    def test_random_graph_reproducible(self):
        first = random_dsp_task_graph(task_count=20, seed=7)
        second = random_dsp_task_graph(task_count=20, seed=7)
        assert first.task_names() == second.task_names()
        assert first.edges() == second.edges()
        assert [t.clbs for t in first.tasks()] == [t.clbs for t in second.tasks()]

    def test_random_graph_different_seeds_differ(self):
        first = random_dsp_task_graph(task_count=20, seed=1)
        second = random_dsp_task_graph(task_count=20, seed=2)
        assert first.edges() != second.edges() or [t.clbs for t in first.tasks()] != [
            t.clbs for t in second.tasks()
        ]

    def test_random_graph_is_dag_and_estimated(self):
        graph = random_dsp_task_graph(task_count=30, seed=11)
        graph.validate()
        assert graph.all_estimated()

    def test_image_pipeline_shape(self):
        graph = image_pipeline_task_graph()
        assert graph.roots() == ["window"]
        assert graph.leaves() == ["threshold"]

    def test_json_roundtrip(self, dct_graph):
        text = to_json(dct_graph)
        restored = from_json(text)
        assert restored.task_names() == dct_graph.task_names()
        assert restored.edges() == dct_graph.edges()
        for name in dct_graph.task_names():
            assert restored.task(name).clbs == dct_graph.task(name).clbs
            assert restored.task(name).delay == pytest.approx(dct_graph.task(name).delay)
            assert restored.env_input_words(name) == dct_graph.env_input_words(name)

    def test_json_roundtrip_unestimated(self):
        graph = TaskGraph("raw")
        graph.add_task(Task("a"))
        restored = from_json(to_json(graph))
        assert not restored.task("a").has_cost

    def test_json_rejects_wrong_format(self):
        with pytest.raises(SpecificationError):
            from_json('{"format": "something-else", "version": 1}')

    def test_save_and_load(self, tmp_path, two_task_graph):
        from repro.taskgraph import load, save

        path = tmp_path / "graph.json"
        save(two_task_graph, path)
        assert load(path).task_names() == two_task_graph.task_names()
