"""In-memory graph store standing in for the Neo4j backend.

The original PG-HIVE loads nodes and edges from Neo4j "using a single query
to ensure similar structure" and streams the data in batches for the
incremental mode.  :class:`GraphStore` reproduces exactly that contract:

* ``scan_nodes()`` / ``scan_edges()`` stream every element,
* ``batches(batch_size)`` yields subgraph streams for incremental runs,
* degree aggregation queries back the cardinality inference of section 4.4,
* ``sample_nodes`` / ``sample_property_values`` support the adaptive
  parameterization and sampled datatype inference.

Both backends expose their graph as interned int64 columns
(:class:`GraphColumns`): the disk store maps them from slab files, the
in-memory store interns its :class:`PropertyGraph` into an
:class:`InternedGraph` on first columnar use.  Sharding, columnization,
id lookups and the aggregations are written once, in
:class:`BaseGraphStore`, over that interface.

All randomness is seeded so experiments are reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

import numpy

from repro.graph.model import Edge, Node, PropertyGraph

if TYPE_CHECKING:
    from repro.core.columns import EdgeColumns, NodeColumns


@dataclass(frozen=True)
class ShardPlan:
    """Self-contained recipe for one shard of a node-partitioned scan.

    A plan is tiny (four scalars) and picklable, so a pool of workers can
    each receive a plan and call :meth:`BaseGraphStore.materialize_shard`
    (or ``columnize_shard``) independently -- against a fork-inherited
    store or any store over the same graph -- and obtain exactly the
    batch that :meth:`BaseGraphStore.batches` would have yielded at
    ``index``.
    """

    index: int
    num_shards: int
    seed: int = 0
    shuffle: bool = True


class GraphColumns(Protocol):
    """Interned column view of a graph (the :class:`SlabReader` shape).

    Rows are in insertion order.  Label-set and key-set ids index
    store-wide interner tables; key sets carry no order here, because
    the per-batch interners need the key order of the batch's own
    representative row (``*_properties_at``).
    """

    @property
    def node_count(self) -> int: ...
    @property
    def edge_count(self) -> int: ...
    @property
    def node_ids(self) -> numpy.ndarray: ...
    @property
    def node_label_ids(self) -> numpy.ndarray: ...
    @property
    def node_keyset_ids(self) -> numpy.ndarray: ...
    @property
    def node_label_sets(self) -> Sequence[frozenset[str]]: ...
    @property
    def edge_ids(self) -> numpy.ndarray: ...
    @property
    def edge_sources(self) -> numpy.ndarray: ...
    @property
    def edge_targets(self) -> numpy.ndarray: ...
    @property
    def edge_label_ids(self) -> numpy.ndarray: ...
    @property
    def edge_keyset_ids(self) -> numpy.ndarray: ...
    @property
    def edge_label_sets(self) -> Sequence[frozenset[str]]: ...
    def node_properties_at(self, row: int) -> Mapping[str, Any]: ...
    def edge_properties_at(self, row: int) -> Mapping[str, Any]: ...
    def node_at(self, row: int) -> Node: ...
    def edge_at(self, row: int) -> Edge: ...


def _interned_ids(values: Iterable[frozenset[str]]) -> tuple[
    numpy.ndarray, tuple[frozenset[str], ...]
]:
    """First-appearance ids for a sequence of sets, plus the id table."""
    table: dict[frozenset[str], int] = {}
    ids = [table.setdefault(value, len(table)) for value in values]
    return numpy.array(ids, dtype=numpy.int64), tuple(table)


class InternedGraph:
    """A :class:`PropertyGraph` as interned columns: an in-memory slab.

    Implements :class:`GraphColumns` with the same id semantics as the
    slab writer -- label and key sets numbered in first-seen row order
    -- and keeps the element objects by row, so materializing a row
    costs a list index.  ``version`` records the graph's mutation
    counter at build time; :class:`GraphStore` rebuilds when it moves.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self.version = graph.version
        self._nodes = list(graph.nodes())
        self._edges = list(graph.edges())
        nodes, edges = self._nodes, self._edges
        self.node_ids = numpy.array(
            [node.id for node in nodes], dtype=numpy.int64
        )
        self.node_label_ids, self.node_label_sets = _interned_ids(
            node.labels for node in nodes
        )
        self.node_keyset_ids, _ = _interned_ids(
            frozenset(node.properties) for node in nodes
        )
        self.edge_ids = numpy.array(
            [edge.id for edge in edges], dtype=numpy.int64
        )
        self.edge_sources = numpy.array(
            [edge.source for edge in edges], dtype=numpy.int64
        )
        self.edge_targets = numpy.array(
            [edge.target for edge in edges], dtype=numpy.int64
        )
        self.edge_label_ids, self.edge_label_sets = _interned_ids(
            edge.labels for edge in edges
        )
        self.edge_keyset_ids, _ = _interned_ids(
            frozenset(edge.properties) for edge in edges
        )

    @property
    def node_count(self) -> int:
        """Number of node rows."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edge rows."""
        return len(self._edges)

    def node_properties_at(self, row: int) -> Mapping[str, Any]:
        """One node row's properties (the node's own mapping)."""
        return self._nodes[row].properties

    def edge_properties_at(self, row: int) -> Mapping[str, Any]:
        """One edge row's properties (the edge's own mapping)."""
        return self._edges[row].properties

    def node_at(self, row: int) -> Node:
        """The node stored at ``row``."""
        return self._nodes[row]

    def edge_at(self, row: int) -> Edge:
        """The edge stored at ``row``."""
        return self._edges[row]


class ShardPartition:
    """Per-shard node and edge id arrays of one cached partition."""

    def __init__(
        self,
        nodes_by_shard: Sequence[numpy.ndarray],
        edges_by_shard: Sequence[numpy.ndarray],
    ) -> None:
        self._nodes_by_shard = list(nodes_by_shard)
        self._edges_by_shard = list(edges_by_shard)

    def node_array(self, shard: int) -> numpy.ndarray:
        """Shard's node ids in batch order."""
        return self._nodes_by_shard[shard]

    def edge_array(self, shard: int) -> numpy.ndarray:
        """Shard's edge ids in batch order."""
        return self._edges_by_shard[shard]

    def close(self) -> None:
        """Release what the partition holds (nothing, in memory)."""


def _sorted_index(ids: numpy.ndarray) -> tuple[numpy.ndarray, numpy.ndarray]:
    order = numpy.argsort(ids, kind="stable")
    return ids[order], order


def _rows_for(
    ids: numpy.ndarray, index: tuple[numpy.ndarray, numpy.ndarray]
) -> numpy.ndarray:
    """Rows of the given element ids; ``KeyError`` on any unknown id."""
    sorted_ids, order = index
    ids = numpy.asarray(ids, dtype=numpy.int64)
    if ids.size == 0:
        return numpy.empty(0, dtype=numpy.int64)
    positions = numpy.searchsorted(sorted_ids, ids)
    in_range = positions < sorted_ids.size
    if not in_range.all():
        raise KeyError(int(ids[numpy.flatnonzero(~in_range)[0]]))
    matched = sorted_ids[positions] == ids
    if not matched.all():
        raise KeyError(int(ids[numpy.flatnonzero(~matched)[0]]))
    result: numpy.ndarray = order[positions]
    return result


def _check_shard_count(num_shards: int) -> None:
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")


class BaseGraphStore(ABC):
    """The store contract every discovery mode runs against.

    Two backends implement it: :class:`GraphStore` (the historical
    in-memory facade over a :class:`PropertyGraph`) and
    :class:`repro.graph.diskstore.DiskGraphStore` (memory-mapped column
    slabs for graphs bigger than RAM).  The algorithmic layers --
    vectorization, clustering, the parallel driver, post-processing --
    depend only on this interface, and the contract is *byte-identity*:
    for the same logical graph both backends must partition, shuffle,
    sample and materialize exactly the same elements in exactly the same
    order, so discovery output never depends on where the bytes live.

    A backend supplies scans, point lookups and its :attr:`columns`;
    everything deterministic about sharding is implemented here, once,
    over those columns: the partition semantics (insertion-ordered ids,
    ``random.Random(seed).shuffle``, round-robin assignment, edges
    following their source node), shard materialization and
    columnization, the id-to-row index, ``degree_extremes`` and
    ``sample_nodes``.  Derived state (the partition of the last plan and
    the id indexes) is cached against the columns object it was built
    from and dropped when the backend hands out new columns.
    """

    def __init__(self) -> None:
        self._cached_for: GraphColumns | None = None
        self._partition_cache: tuple[
            tuple[int, int, bool], ShardPartition
        ] | None = None
        self._node_index: tuple[numpy.ndarray, numpy.ndarray] | None = None
        self._edge_index: tuple[numpy.ndarray, numpy.ndarray] | None = None

    # ------------------------------------------------------------------
    # Identity, scans and the column view
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def name(self) -> str:
        """Name of the stored graph."""

    @property
    @abstractmethod
    def columns(self) -> GraphColumns:
        """The stored graph as interned columns (current state)."""

    @abstractmethod
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes in insertion order."""

    @abstractmethod
    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges in insertion order."""

    @abstractmethod
    def count_nodes(self) -> int:
        """Total number of nodes."""

    @abstractmethod
    def count_edges(self) -> int:
        """Total number of edges."""

    @abstractmethod
    def node(self, node_id: int) -> Node:
        """Point lookup of a node (``KeyError`` when absent)."""

    @abstractmethod
    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge (``KeyError`` when absent)."""

    def endpoints(self, edge: Edge) -> tuple[Node, Node]:
        """Source and target node of an edge."""
        return self.node(edge.source), self.node(edge.target)

    def _current_columns(self) -> GraphColumns:
        """:attr:`columns`, dropping derived caches built from older ones."""
        columns = self.columns
        if columns is not self._cached_for:
            self._drop_caches()
            self._cached_for = columns
        return columns

    def _drop_caches(self) -> None:
        """Forget the cached partition and id indexes."""
        if self._partition_cache is not None:
            self._partition_cache[1].close()
        self._partition_cache = None
        self._node_index = None
        self._edge_index = None
        self._cached_for = None

    # ------------------------------------------------------------------
    # Id -> row index (id-sorted binary search over the id columns)
    # ------------------------------------------------------------------
    def _node_rows(self, ids: numpy.ndarray) -> numpy.ndarray:
        columns = self._current_columns()
        if self._node_index is None:
            self._node_index = _sorted_index(columns.node_ids)
        return _rows_for(ids, self._node_index)

    def _edge_rows(self, ids: numpy.ndarray) -> numpy.ndarray:
        columns = self._current_columns()
        if self._edge_index is None:
            self._edge_index = _sorted_index(columns.edge_ids)
        return _rows_for(ids, self._edge_index)

    # ------------------------------------------------------------------
    # Sharded scans
    # ------------------------------------------------------------------
    def batches(
        self,
        num_batches: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> Iterator["GraphBatch"]:
        """Split the graph into ``num_batches`` node-partitioned batches.

        Mirrors the paper's evaluation setup ("we randomly separate the
        graph into 10 batches").  Nodes are partitioned; an edge is
        assigned to the batch of its source node, and the batch record
        carries the endpoint label information an edge needs for
        vectorization even when the other endpoint lives in an earlier
        or later batch.
        """
        for plan in self.plan_shards(num_batches, seed, shuffle):
            yield self.materialize_shard(plan)

    def plan_shards(
        self,
        num_shards: int,
        seed: int = 0,
        shuffle: bool = True,
    ) -> list[ShardPlan]:
        """Plans for materializing each batch of a sharded scan on demand.

        ``materialize_shard(plan_shards(n)[k])`` is exactly the ``k``-th
        batch of ``batches(n)``; shards can therefore be built in any
        order, concurrently, and in separate processes.  Calling this in
        the parent also warms the columns and the partition cache, so
        forked workers inherit them instead of recomputing.
        """
        self._partition(num_shards, seed, shuffle)
        return [
            ShardPlan(index, num_shards, seed, shuffle)
            for index in range(num_shards)
        ]

    def materialize_shard(self, plan: ShardPlan) -> "GraphBatch":
        """Build the single batch described by ``plan``."""
        node_ids, edge_ids = self._shard_ids(plan)
        return self.materialize_index_shard(plan.index, node_ids, edge_ids)

    def columnize_shard(
        self, plan: ShardPlan
    ) -> tuple["NodeColumns", "EdgeColumns"]:
        """Columnize one shard straight from the store's columns.

        Byte-identical to columnizing the materialized batch: global
        interner ids are remapped to per-batch first-appearance dense
        ids by the from-arrays constructors, and no :class:`Node` or
        :class:`Edge` is built (on disk, only one property record per
        distinct key set is read).
        """
        from repro.core.columns import (
            edge_columns_from_arrays,
            node_columns_from_arrays,
        )

        node_ids, edge_ids = self._shard_ids(plan)
        columns = self._current_columns()
        node_rows = self._node_rows(node_ids)
        # Key orders must come from the representative *row's* own
        # property mapping (two rows with one key set may order their
        # keys differently); one lookup per distinct key set.
        node_cols = node_columns_from_arrays(
            node_ids,
            columns.node_label_ids[node_rows],
            columns.node_keyset_ids[node_rows],
            columns.node_label_sets,
            lambda position: tuple(
                columns.node_properties_at(int(node_rows[position]))
            ),
        )
        edge_rows = self._edge_rows(edge_ids)
        sources = columns.edge_sources[edge_rows]
        targets = columns.edge_targets[edge_rows]
        node_label_column = columns.node_label_ids
        edge_cols = edge_columns_from_arrays(
            edge_ids,
            sources,
            targets,
            columns.edge_label_ids[edge_rows],
            node_label_column[self._node_rows(sources)],
            node_label_column[self._node_rows(targets)],
            columns.edge_keyset_ids[edge_rows],
            columns.edge_label_sets,
            columns.node_label_sets,
            lambda position: tuple(
                columns.edge_properties_at(int(edge_rows[position]))
            ),
        )
        return node_cols, edge_cols

    def _shard_ids(
        self, plan: ShardPlan
    ) -> tuple[numpy.ndarray, numpy.ndarray]:
        """The node and edge ids of one planned shard, bounds-checked."""
        if not 0 <= plan.index < plan.num_shards:
            raise ValueError(
                f"shard index {plan.index} out of range for "
                f"{plan.num_shards} shards"
            )
        partition = self._partition(plan.num_shards, plan.seed, plan.shuffle)
        return partition.node_array(plan.index), partition.edge_array(
            plan.index
        )

    def _partition(
        self, num_shards: int, seed: int, shuffle: bool
    ) -> ShardPartition:
        """Assign nodes and edges to shards (cached for the last plan)."""
        _check_shard_count(num_shards)
        columns = self._current_columns()
        key = (num_shards, seed, shuffle)
        cached = self._partition_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        nodes_by_shard, sorted_ids, shard_of_sorted = self.partition_tables(
            num_shards, seed, shuffle
        )
        edges_by_shard = self.bucket_edge_range(
            0, columns.edge_count, sorted_ids, shard_of_sorted, num_shards
        )
        return self.install_partition(
            num_shards, seed, shuffle, nodes_by_shard, edges_by_shard
        )

    def partition_tables(
        self, num_shards: int, seed: int = 0, shuffle: bool = True
    ) -> tuple[list[numpy.ndarray], numpy.ndarray, numpy.ndarray]:
        """Parent-side half of the partition pass.

        Returns ``(nodes_by_shard, sorted_ids, shard_of_sorted)``:
        ``nodes_by_shard[s]`` is the shard's node ids in batch order
        (``random.Random(seed).shuffle`` over the insertion-ordered id
        column, then round-robin), and ``shard_of_sorted[k]`` is the
        shard of the node id ``sorted_ids[k]``.  The lookup table lets
        workers bucket *edge* slices by source shard with
        :meth:`bucket_edge_range` (``searchsorted`` instead of a dict).
        This half is O(nodes) with one Python-level shuffle.
        """
        _check_shard_count(num_shards)
        node_ids = self._current_columns().node_ids.tolist()
        if shuffle:
            random.Random(seed).shuffle(node_ids)
        shuffled = numpy.asarray(node_ids, dtype=numpy.int64)
        if shuffled.size == 0:
            empty = numpy.empty(0, dtype=numpy.int64)
            return [empty.copy() for _ in range(num_shards)], empty, empty
        order = numpy.argsort(shuffled, kind="stable")
        sorted_ids = shuffled[order]
        shard_of_sorted = (order % num_shards).astype(numpy.int64)
        nodes_by_shard = [
            shuffled[shard::num_shards].copy() for shard in range(num_shards)
        ]
        return nodes_by_shard, sorted_ids, shard_of_sorted

    def bucket_edge_range(
        self,
        start: int,
        stop: int,
        sorted_ids: numpy.ndarray,
        shard_of_sorted: numpy.ndarray,
        num_shards: int,
    ) -> list[numpy.ndarray]:
        """Bucket the edges at positions ``[start, stop)`` by shard.

        The worker-side half of the partition: a slice of the source
        column is assigned to shards via the ``searchsorted`` lookup
        table and split with a stable argsort.  Concatenating every
        slice's bucket ``s`` in slice order reproduces the single-pass
        bucketing exactly, because the stable sort preserves in-slice
        edge order.
        """
        columns = self._current_columns()
        count = max(stop - start, 0)
        consumed = max(min(stop, columns.edge_count) - start, 0)
        if consumed != count:
            raise ValueError(
                f"edge range [{start}, {stop}) exceeds the graph's "
                f"{start + consumed} edges"
            )
        edge_ids = columns.edge_ids[start:stop]
        sources = columns.edge_sources[start:stop]
        lookup = numpy.searchsorted(sorted_ids, sources)
        shards = shard_of_sorted[lookup]
        order = numpy.argsort(shards, kind="stable")
        sorted_shards = shards[order]
        sorted_edge_ids = edge_ids[order]
        bounds = numpy.searchsorted(
            sorted_shards, numpy.arange(num_shards + 1)
        )
        return [
            sorted_edge_ids[bounds[shard] : bounds[shard + 1]].copy()
            for shard in range(num_shards)
        ]

    def materialize_index_shard(
        self,
        index: int,
        node_ids: numpy.ndarray,
        edge_ids: numpy.ndarray,
    ) -> "GraphBatch":
        """Build a batch from explicit id arrays.

        Elements are materialized row by row in id-array order; the
        endpoint-label map is filled in first-seen order over the
        interleaved (source, target) endpoints, reading label sets from
        the label column without materializing endpoint nodes.
        """
        columns = self._current_columns()
        node_rows = self._node_rows(node_ids)
        nodes = [columns.node_at(row) for row in node_rows.tolist()]
        edge_rows = self._edge_rows(edge_ids)
        edges = [columns.edge_at(row) for row in edge_rows.tolist()]
        endpoint_labels: dict[int, frozenset[str]] = {}
        if edges:
            endpoint_ids = numpy.empty(edge_rows.size * 2, dtype=numpy.int64)
            endpoint_ids[0::2] = columns.edge_sources[edge_rows]
            endpoint_ids[1::2] = columns.edge_targets[edge_rows]
            _, first = numpy.unique(endpoint_ids, return_index=True)
            first.sort()
            distinct = endpoint_ids[first]
            label_ids = columns.node_label_ids[self._node_rows(distinct)]
            label_sets = columns.node_label_sets
            for nid, label_id in zip(distinct.tolist(), label_ids.tolist()):
                endpoint_labels[nid] = label_sets[label_id]
        return GraphBatch(index, nodes, edges, endpoint_labels)

    def install_partition(
        self,
        num_shards: int,
        seed: int,
        shuffle: bool,
        nodes_by_shard_ids: Sequence[numpy.ndarray],
        edges_by_shard_ids: Sequence[numpy.ndarray],
    ) -> ShardPartition:
        """Install an externally computed partition into the cache.

        Takes the array form produced by :meth:`partition_tables` plus a
        per-shard concatenation of :meth:`bucket_edge_range` buckets --
        the same elements in the same order as the single-pass
        partition, so every shard built from an installed partition is
        byte-identical; the parallel driver uses this to bucket edges on
        the worker pool and still hand workers plain :class:`ShardPlan`
        scalars.  Returns the installed partition.
        """
        self._current_columns()
        partition = self._hold_partition(
            num_shards, seed, shuffle, nodes_by_shard_ids, edges_by_shard_ids
        )
        if self._partition_cache is not None:
            self._partition_cache[1].close()
        self._partition_cache = ((num_shards, seed, shuffle), partition)
        return partition

    def _hold_partition(
        self,
        num_shards: int,
        seed: int,
        shuffle: bool,
        nodes_by_shard_ids: Sequence[numpy.ndarray],
        edges_by_shard_ids: Sequence[numpy.ndarray],
    ) -> ShardPartition:
        """Keep a partition's id arrays (in memory unless overridden)."""
        return ShardPartition(nodes_by_shard_ids, edges_by_shard_ids)

    # ------------------------------------------------------------------
    # Aggregations and sampling
    # ------------------------------------------------------------------
    def degree_extremes(self, edge_ids: Iterable[int]) -> tuple[int, int]:
        """Max out-degree and max in-degree over a set of edges.

        For an edge type rho this computes ``max_out(rho)`` (the largest
        number of the given edges leaving any single source node) and
        ``max_in(rho)`` (the largest number arriving at any single
        target), by unique-counting the endpoint columns.
        """
        ids = numpy.fromiter(
            (int(edge_id) for edge_id in edge_ids), dtype=numpy.int64
        )
        if ids.size == 0:
            return 0, 0
        columns = self._current_columns()
        rows = self._edge_rows(ids)
        sources = columns.edge_sources[rows]
        targets = columns.edge_targets[rows]
        max_out = int(numpy.unique(sources, return_counts=True)[1].max())
        max_in = int(numpy.unique(targets, return_counts=True)[1].max())
        return max_out, max_in

    def sample_nodes(self, size: int, seed: int = 0) -> list[Node]:
        """Uniform random sample of at most ``size`` nodes.

        ``random.Random(seed).sample`` selects positions as a function
        of the population *length* only, so sampling ``range(n)`` yields
        exactly the rows that sampling the materialized node list would.
        """
        columns = self._current_columns()
        total = columns.node_count
        if size >= total:
            return [columns.node_at(row) for row in range(total)]
        chosen = random.Random(seed).sample(range(total), size)
        return [columns.node_at(row) for row in chosen]

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Durable-state marker for checkpoint/journal context.

        ``None`` for ephemeral in-memory stores; persistent backends
        return something that changes whenever the stored graph does, so
        a resumed run can refuse a journal written against different
        data.
        """
        return None

    def sample_property_values(
        self,
        elements: Sequence[Node] | Sequence[Edge],
        key: str,
        fraction: float,
        minimum: int,
        seed: int = 0,
    ) -> list[Any]:
        """Sample values of one property key over a set of elements.

        Implements the paper's sampled datatype inference: take
        ``fraction`` of the available values but at least ``minimum``
        (or all of them when fewer exist).
        """
        values = [
            element.properties[key]
            for element in elements
            if key in element.properties
        ]
        target = max(minimum, int(round(fraction * len(values))))
        if target >= len(values):
            return values
        return random.Random(seed).sample(values, target)


class GraphStore(BaseGraphStore):
    """Query facade over a :class:`PropertyGraph`.

    The algorithmic layers (vectorization, clustering, post-processing)
    depend only on the :class:`BaseGraphStore` contract, never on the
    concrete graph, so a real database driver could be swapped in by
    implementing the same methods.  Scans and point lookups read the
    graph directly; the columnar side is an :class:`InternedGraph`
    built on first use and rebuilt whenever the graph's mutation
    counter moves, so a reused store never serves a stale partition.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        super().__init__()
        self._graph = graph
        self._interned: InternedGraph | None = None

    @property
    def graph(self) -> PropertyGraph:
        """The wrapped graph."""
        return self._graph

    @property
    def name(self) -> str:
        """Name of the wrapped graph."""
        return self._graph.name

    @property
    def columns(self) -> InternedGraph:
        """The wrapped graph interned as columns (rebuilt after changes)."""
        interned = self._interned
        if interned is None or interned.version != self._graph.version:
            interned = self._interned = InternedGraph(self._graph)
        return interned

    # ------------------------------------------------------------------
    # Streaming scans (the "single query" of section 4.1)
    # ------------------------------------------------------------------
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes."""
        return self._graph.nodes()

    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges."""
        return self._graph.edges()

    def count_nodes(self) -> int:
        """Total number of nodes."""
        return self._graph.num_nodes

    def count_edges(self) -> int:
        """Total number of edges."""
        return self._graph.num_edges

    def node(self, node_id: int) -> Node:
        """Point lookup of a node."""
        return self._graph.node(node_id)

    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge."""
        return self._graph.edge(edge_id)


class GraphBatch:
    """One increment of streamed data: nodes, edges, and endpoint labels.

    ``endpoint_labels`` maps the node ids referenced by this batch's edges to
    their label sets, because edge vectorization (section 4.1) embeds the
    source and target labels and an endpoint may not belong to this batch.
    """

    def __init__(
        self,
        index: int,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> None:
        self.index = index
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.endpoint_labels = dict(endpoint_labels)

    @property
    def size(self) -> int:
        """Total number of elements (nodes plus edges) in the batch."""
        return len(self.nodes) + len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphBatch(index={self.index}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )
