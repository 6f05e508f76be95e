"""Unit tests for the ComputationGraph DAG."""

import pytest

from repro.graph.graph import ComputationGraph, GraphError
from tests.conftest import make_layer_op


def chain_graph(names, task="t"):
    graph = ComputationGraph()
    for name in names:
        graph.add_operator(make_layer_op(name, task=task))
    for src, dst in zip(names, names[1:]):
        graph.add_flow(src, dst)
    return graph


class TestNodeManagement:
    def test_add_and_lookup(self):
        graph = ComputationGraph()
        op = graph.add_operator(make_layer_op("a"))
        assert graph.has_operator("a")
        assert graph.operator("a") is op
        assert "a" in graph
        assert len(graph) == 1

    def test_duplicate_name_rejected(self):
        graph = ComputationGraph()
        graph.add_operator(make_layer_op("a"))
        with pytest.raises(GraphError):
            graph.add_operator(make_layer_op("a"))

    def test_unknown_operator_lookup(self):
        graph = ComputationGraph()
        with pytest.raises(GraphError):
            graph.operator("missing")

    def test_add_operators_bulk(self):
        graph = ComputationGraph()
        graph.add_operators(make_layer_op(n) for n in ["a", "b", "c"])
        assert graph.num_operators == 3


class TestEdges:
    def test_default_volume_is_source_activation(self):
        graph = chain_graph(["a", "b"])
        flow = graph.flow("a", "b")
        assert flow.volume_bytes == graph.operator("a").activation_bytes

    def test_explicit_volume(self):
        graph = ComputationGraph()
        graph.add_operators([make_layer_op("a"), make_layer_op("b")])
        graph.add_flow("a", "b", volume_bytes=42.0)
        assert graph.flow("a", "b").volume_bytes == 42.0

    def test_duplicate_edge_rejected(self):
        graph = chain_graph(["a", "b"])
        with pytest.raises(GraphError):
            graph.add_flow("a", "b")

    def test_edge_to_unknown_operator_rejected(self):
        graph = ComputationGraph()
        graph.add_operator(make_layer_op("a"))
        with pytest.raises(GraphError):
            graph.add_flow("a", "missing")
        with pytest.raises(GraphError):
            graph.add_flow("missing", "a")

    def test_cycle_rejected_and_rolled_back(self):
        graph = chain_graph(["a", "b", "c"])
        with pytest.raises(GraphError):
            graph.add_flow("c", "a")
        # The rejected edge must not linger.
        assert graph.num_flows == 2
        assert graph.out_degree("c") == 0


class TestTraversal:
    def test_degrees_and_neighbors(self):
        graph = chain_graph(["a", "b", "c"])
        assert graph.in_degree("a") == 0
        assert graph.out_degree("a") == 1
        assert graph.successors("a") == ["b"]
        assert graph.predecessors("c") == ["b"]

    def test_sources_and_sinks(self):
        graph = chain_graph(["a", "b", "c"])
        assert graph.sources() == ["a"]
        assert graph.sinks() == ["c"]

    def test_topological_order_respects_edges(self):
        graph = ComputationGraph()
        for name in ["a", "b", "c", "d"]:
            graph.add_operator(make_layer_op(name))
        graph.add_flow("a", "c")
        graph.add_flow("b", "c")
        graph.add_flow("c", "d")
        order = graph.topological_order()
        assert order.index("a") < order.index("c") < order.index("d")
        assert order.index("b") < order.index("c")

    def test_validate_passes_on_dag(self):
        chain_graph(["a", "b", "c"]).validate()


class TestAggregates:
    def test_tasks_and_subgraph(self):
        graph = ComputationGraph()
        graph.add_operator(make_layer_op("t1.a", task="t1"))
        graph.add_operator(make_layer_op("t1.b", task="t1"))
        graph.add_operator(make_layer_op("t2.a", task="t2"))
        graph.add_flow("t1.a", "t1.b")
        assert graph.tasks() == ["t1", "t2"]
        sub = graph.task_subgraph("t1")
        assert sub.num_operators == 2
        assert sub.num_flows == 1

    def test_subgraph_keeps_graph_order(self):
        """Operators keep the graph's order, not the string-hash order of a set,
        so topological tie-breaks do not depend on ``PYTHONHASHSEED``."""
        graph = ComputationGraph()
        for i in range(24):
            graph.add_operator(make_layer_op(f"t1.op{i:02d}", task="t1"))
            graph.add_operator(make_layer_op(f"t2.op{i:02d}", task="t2"))
        sub = graph.task_subgraph("t1")
        expected = [f"t1.op{i:02d}" for i in range(24)]
        assert list(sub.operators) == expected
        assert sub.topological_order() == expected

    def test_total_flops(self):
        graph = chain_graph(["a", "b"])
        expected = sum(op.flops for op in graph)
        assert graph.total_flops() == pytest.approx(expected)

    def test_total_param_bytes_deduplicates_shared_keys(self):
        graph = ComputationGraph()
        graph.add_operator(make_layer_op("t1.a", task="t1", param_key="shared.0"))
        graph.add_operator(make_layer_op("t2.a", task="t2", param_key="shared.0"))
        graph.add_operator(make_layer_op("t1.b", task="t1"))
        single = graph.operator("t1.a").param_bytes
        own = graph.operator("t1.b").param_bytes
        assert graph.total_param_bytes() == pytest.approx(single + own)
        assert graph.total_param_bytes(deduplicate_shared=False) == pytest.approx(
            2 * single + own
        )
