"""Unit tests for the GraphStore facade (the Neo4j substitute)."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.store import GraphStore


class TestScans:
    def test_counts_match_graph(self, figure1_store):
        assert figure1_store.count_nodes() == 7
        assert figure1_store.count_edges() == 6
        assert len(list(figure1_store.scan_nodes())) == 7
        assert len(list(figure1_store.scan_edges())) == 6

    def test_endpoints(self, figure1_store):
        edge = next(figure1_store.scan_edges())
        source, target = figure1_store.endpoints(edge)
        assert source.id == edge.source and target.id == edge.target


class TestBatches:
    def test_batches_partition_nodes(self, figure1_store):
        batches = list(figure1_store.batches(3, seed=1))
        assert len(batches) == 3
        seen = [n.id for b in batches for n in b.nodes]
        assert sorted(seen) == list(range(7))

    def test_batches_partition_edges_by_source(self, figure1_store):
        batches = list(figure1_store.batches(2, seed=1))
        edge_ids = sorted(e.id for b in batches for e in b.edges)
        assert edge_ids == list(range(6))
        # Each edge must live in the batch of its source node.
        for batch in batches:
            node_ids = {n.id for n in batch.nodes}
            for edge in batch.edges:
                assert edge.source in node_ids

    def test_batch_endpoint_labels_cover_cross_batch_targets(self, figure1_store):
        for batch in figure1_store.batches(3, seed=1):
            for edge in batch.edges:
                assert edge.source in batch.endpoint_labels
                assert edge.target in batch.endpoint_labels

    def test_single_batch_is_whole_graph(self, figure1_store):
        (batch,) = figure1_store.batches(1)
        assert len(batch.nodes) == 7
        assert len(batch.edges) == 6
        assert batch.size == 13

    def test_invalid_batch_count(self, figure1_store):
        with pytest.raises(ValueError):
            list(figure1_store.batches(0))

    def test_batching_is_seed_deterministic(self, figure1_store):
        first = [
            [n.id for n in b.nodes] for b in figure1_store.batches(3, seed=5)
        ]
        second = [
            [n.id for n in b.nodes] for b in figure1_store.batches(3, seed=5)
        ]
        assert first == second


class TestShardPlans:
    def test_shards_reproduce_batches_exactly(self, figure1_store):
        batches = list(figure1_store.batches(3, seed=5))
        plans = figure1_store.plan_shards(3, seed=5)
        for batch, plan in zip(batches, plans):
            shard = figure1_store.materialize_shard(plan)
            assert [n.id for n in shard.nodes] == [n.id for n in batch.nodes]
            assert [e.id for e in shard.edges] == [e.id for e in batch.edges]
            assert shard.endpoint_labels == batch.endpoint_labels
            assert shard.index == batch.index

    def test_shards_materialize_in_any_order(self, figure1_store):
        plans = figure1_store.plan_shards(3, seed=5)
        reversed_nodes = [
            [n.id for n in figure1_store.materialize_shard(p).nodes]
            for p in reversed(plans)
        ]
        forward_nodes = [
            [n.id for n in figure1_store.materialize_shard(p).nodes]
            for p in plans
        ]
        assert reversed_nodes == forward_nodes[::-1]

    def test_plans_are_picklable_scalars(self, figure1_store):
        import pickle

        plans = figure1_store.plan_shards(2, seed=1)
        restored = pickle.loads(pickle.dumps(plans))
        assert restored == plans
        shard = figure1_store.materialize_shard(restored[1])
        assert shard.index == 1

    def test_out_of_range_index_rejected(self, figure1_graph, tmp_path):
        from repro.graph.diskstore import write_graph_to_slabs
        from repro.graph.store import ShardPlan

        disk = write_graph_to_slabs(figure1_graph, tmp_path / "slabs")
        for store in (GraphStore(figure1_graph), disk):
            for read in (store.materialize_shard, store.columnize_shard):
                with pytest.raises(ValueError, match="out of range"):
                    read(ShardPlan(3, 3))
        disk.close()

    def test_invalid_shard_count(self, figure1_store):
        with pytest.raises(ValueError):
            figure1_store.plan_shards(0)

    def test_partition_cache_reused(self, figure1_store, monkeypatch):
        partitions = []
        partition_tables = figure1_store.partition_tables

        def counted(*args, **kwargs):
            partitions.append(args)
            return partition_tables(*args, **kwargs)

        monkeypatch.setattr(figure1_store, "partition_tables", counted)
        plans = figure1_store.plan_shards(3, seed=5)
        figure1_store.materialize_shard(plans[0])
        figure1_store.columnize_shard(plans[1])
        figure1_store.plan_shards(3, seed=5)
        assert len(partitions) == 1
        # A different sharding replaces the (single-entry) cache.
        figure1_store.plan_shards(2, seed=5)
        figure1_store.materialize_shard(plans[2])
        assert len(partitions) == 3


class TestGraphMutation:
    """A reused store must follow its graph, not serve a cached partition."""

    @staticmethod
    def _schema(store):
        from repro.core import PGHive
        from repro.schema.serialize_pgschema import serialize_pg_schema

        result = PGHive().discover_incremental(store, num_batches=2)
        return serialize_pg_schema(result.schema)

    def test_remove_node_after_discovery(self, figure1_graph):
        store = GraphStore(figure1_graph)
        self._schema(store)
        figure1_graph.remove_node(6)
        assert self._schema(store) == self._schema(GraphStore(figure1_graph))

    def test_replace_node_after_discovery(self, figure1_graph):
        from repro.graph.model import Node

        store = GraphStore(figure1_graph)
        before = self._schema(store)
        # Same element counts, different content: a cache keyed on
        # counts would stay stale.
        figure1_graph.replace_node(
            Node(6, frozenset({"City"}), {"name": "Heraklion", "zip": 71})
        )
        after = self._schema(store)
        assert after != before
        assert after == self._schema(GraphStore(figure1_graph))


class TestDegreeExtremes:
    def test_fan_out(self):
        b = GraphBuilder()
        hub = b.node(["Hub"])
        leaves = [b.node(["Leaf"]) for _ in range(4)]
        edge_ids = [b.edge(hub, leaf, ["HAS"]) for leaf in leaves]
        store = GraphStore(b.build())
        max_out, max_in = store.degree_extremes(edge_ids)
        assert (max_out, max_in) == (4, 1)

    def test_fan_in(self):
        b = GraphBuilder()
        sink = b.node(["Sink"])
        sources = [b.node(["Src"]) for _ in range(3)]
        edge_ids = [b.edge(s, sink, ["TO"]) for s in sources]
        store = GraphStore(b.build())
        assert store.degree_extremes(edge_ids) == (1, 3)

    def test_empty_edge_set(self, figure1_store):
        assert figure1_store.degree_extremes([]) == (0, 0)


class TestSampling:
    def test_sample_nodes_bounded(self, figure1_store):
        sample = figure1_store.sample_nodes(3, seed=0)
        assert len(sample) == 3

    def test_sample_nodes_all_when_large(self, figure1_store):
        assert len(figure1_store.sample_nodes(100)) == 7

    def test_sample_property_values_minimum(self, figure1_store):
        nodes = list(figure1_store.scan_nodes())
        values = figure1_store.sample_property_values(
            nodes, "name", fraction=0.1, minimum=2, seed=0
        )
        assert 2 <= len(values) <= 6  # six nodes carry "name"

    def test_sample_property_values_returns_all_when_few(self, figure1_store):
        nodes = list(figure1_store.scan_nodes())
        values = figure1_store.sample_property_values(
            nodes, "url", fraction=0.1, minimum=10
        )
        assert values == ["https://ics.example"]
