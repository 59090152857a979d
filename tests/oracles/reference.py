"""Element-at-a-time reference implementations: the test oracles.

Production runs one path per mode: every batch is columnized once and
each stage works per distinct (label set, key set) pattern.  The loops
below are the original one-element-at-a-time formulations of the same
stages.  They are kept here, outside the package, as the executable
specification the production kernels must match byte for byte:

* vectorization and MinHash feature sets
  (:class:`NodeVectorizerReference`, :class:`EdgeVectorizerReference`);
* MinHash signatures and LSH banding (:func:`signatures_reference`,
  :func:`cluster_by_band_union_reference`);
* label refinement and cluster summarization (:func:`_refine_by_labels`,
  :func:`build_node_clusters`, :func:`build_edge_clusters`);
* the whole batch engine (:class:`ReferenceDiscovery`, driven end to end
  by :func:`discover_reference`);
* PG-Schema conformance checking (:func:`validate_elements`), the
  semantics the columnar ``validate_columns`` engine is checked against.

``benchmarks/bench_hotpath.py`` also times :func:`discover_reference` as
the baseline of the vectorized engine.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.core.pipeline import PGHive
from repro.core.result import BatchReport
from repro.core.type_extraction import (
    PSEUDO_PREFIX,
    CandidateCluster,
    _split_pseudo,
    extract_edge_types,
    extract_node_types,
    resolve_edge_endpoints,
)
from repro.core.vectorize import EdgeVectorizer, FeatureInterner, NodeVectorizer
from repro.embeddings.embedder import LabelEmbedder
from repro.graph.model import Edge, Node, canonical_label
from repro.graph.store import BaseGraphStore
from repro.lsh.buckets import _renumber
from repro.lsh.minhash import MinHashLSH
from repro.lsh.unionfind import UnionFind
from repro.schema.model import SchemaGraph
from repro.schema.validate import (
    ValidationMode,
    ValidationReport,
    Violation,
    _check_datatypes,
    _check_endpoints,
    _check_mandatory,
    _covering_edge_types_for,
    _covering_node_types_for,
    _no_type_violation,
)
from repro.util.timing import StageTimer


# ----------------------------------------------------------------------
# Vectorization (paper section 4.1)
# ----------------------------------------------------------------------
class NodeVectorizerReference(NodeVectorizer):
    """:class:`NodeVectorizer` plus its element-at-a-time twins."""

    def vectorize_reference(self, nodes: Sequence[Node]) -> np.ndarray:
        """Element-at-a-time reference implementation of :meth:`vectorize`."""
        d = self.embedder.dimension
        out = np.zeros((len(nodes), self.dimension))
        embedding_cache = self._cache
        key_index = self._key_index
        for row, node in enumerate(nodes):
            out[row, :d] = embedding_cache.for_labels(node.labels)
            for key in node.properties:
                index = key_index.get(key)
                if index is not None:
                    out[row, d + index] = 1.0
        return out

    def feature_sets_reference(
        self, nodes: Sequence[Node], interner: FeatureInterner
    ) -> list[set[int]]:
        """Element-at-a-time reference for :meth:`feature_sets`."""
        return [self._node_feature_set(node, interner) for node in nodes]


class EdgeVectorizerReference(EdgeVectorizer):
    """:class:`EdgeVectorizer` plus its element-at-a-time twins."""

    def vectorize_reference(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> np.ndarray:
        """Element-at-a-time reference implementation of :meth:`vectorize`."""
        d = self.embedder.dimension
        out = np.zeros((len(edges), self.dimension))
        embedding_cache = self._cache
        empty = frozenset()
        key_index = self._key_index
        for row, edge in enumerate(edges):
            out[row, :d] = embedding_cache.for_labels(edge.labels)
            out[row, d:2 * d] = embedding_cache.for_labels(
                endpoint_labels.get(edge.source, empty)
            )
            out[row, 2 * d:3 * d] = embedding_cache.for_labels(
                endpoint_labels.get(edge.target, empty)
            )
            for key in edge.properties:
                index = key_index.get(key)
                if index is not None:
                    out[row, 3 * d + index] = 1.0
        return out

    def feature_sets_reference(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        interner: FeatureInterner,
    ) -> list[set[int]]:
        """Element-at-a-time reference for :meth:`feature_sets`."""
        sets: list[set[int]] = []
        empty: frozenset[str] = frozenset()
        for edge in edges:
            sets.append(self._edge_feature_set(
                edge,
                endpoint_labels.get(edge.source, empty),
                endpoint_labels.get(edge.target, empty),
                interner,
            ))
        return sets


# ----------------------------------------------------------------------
# MinHash signatures and banding (paper section 4.2)
# ----------------------------------------------------------------------
def signatures_reference(
    lsh: MinHashLSH, feature_sets: Sequence[set[int]]
) -> np.ndarray:
    """Set-at-a-time reference for :meth:`MinHashLSH.signatures`."""
    if not feature_sets:
        return np.empty((0, lsh.num_hashes), dtype=np.int64)
    return np.vstack([lsh.signature(s) for s in feature_sets])


def cluster_by_band_union_reference(
    signatures: np.ndarray, rows_per_band: int
) -> np.ndarray:
    """Row-at-a-time reference for :func:`cluster_by_band_union`."""
    if rows_per_band < 1:
        raise ValueError("rows_per_band must be >= 1")
    signatures = np.atleast_2d(signatures)
    n, width = signatures.shape
    num_bands = max(1, width // rows_per_band)
    uf = UnionFind(n)
    for band in range(num_bands):
        start = band * rows_per_band
        stop = start + rows_per_band if band < num_bands - 1 else width
        first_in_bucket: dict[tuple[int, ...], int] = {}
        for row_index in range(n):
            key = tuple(int(v) for v in signatures[row_index, start:stop])
            anchor = first_in_bucket.setdefault(key, row_index)
            if anchor != row_index:
                uf.union(anchor, row_index)
    return _renumber(uf, n)


# ----------------------------------------------------------------------
# Refinement and cluster summaries (paper section 4.3)
# ----------------------------------------------------------------------
def _refine_by_labels(elements: Sequence, assignment: np.ndarray) -> np.ndarray:
    """Split each LSH cluster by canonical label token.

    Per Definitions 3.2/3.3, elements with different label sets belong to
    different types; an (unlikely) LSH collision between them must not
    survive into type extraction, where merging is union-only.  Unlabeled
    elements (empty token) keep their structural cluster, so the
    Jaccard-based merging of section 4.3 still sees them whole.

    This is the element-at-a-time reference; the production engine uses
    ``_refine_by_label_ids`` over interned label ids instead.
    """
    if assignment.size == 0:
        return assignment
    # Keyed on the label *frozenset* (not the concatenated token), so a
    # literal "A&B" label never aliases the {A, B} label set.
    refined: dict[tuple[int, frozenset], int] = {}
    out = np.empty_like(assignment)
    for index, (element, cluster_id) in enumerate(
        zip(elements, assignment.tolist())
    ):
        key = (int(cluster_id), element.labels)
        out[index] = refined.setdefault(key, len(refined))
    return out


def build_node_clusters(
    nodes: Sequence[Node],
    assignment: np.ndarray,
    pseudo_tag: str = "",
) -> list[CandidateCluster]:
    """Summarize an LSH node assignment into candidate clusters.

    Args:
        nodes: The clustered nodes.
        assignment: Dense cluster ids aligned with ``nodes``.
        pseudo_tag: When non-empty, clusters whose members are all unlabeled
            receive the internal pseudo-label ``~{pseudo_tag}{cluster_id}``
            as their cluster token, which the edge stage uses to type
            endpoints structurally.
    """
    clusters: dict[int, CandidateCluster] = {}
    for node, cluster_id in zip(nodes, assignment.tolist()):
        cluster = clusters.get(int(cluster_id))
        if cluster is None:
            cluster = CandidateCluster(kind="node")
            clusters[int(cluster_id)] = cluster
        cluster.labels = cluster.labels | node.labels
        cluster.property_keys = cluster.property_keys | node.property_keys
        cluster.members.append(node.id)
        cluster.property_counts.update(node.properties.keys())
    if pseudo_tag:
        for cluster_id, cluster in clusters.items():
            if not cluster.labels:
                cluster.cluster_tokens = frozenset(
                    {f"{PSEUDO_PREFIX}{pseudo_tag}{cluster_id}"}
                )
    return [clusters[cid] for cid in sorted(clusters)]


def build_edge_clusters(
    edges: Sequence[Edge],
    assignment: np.ndarray,
    endpoint_labels: dict[int, frozenset[str]],
) -> list[CandidateCluster]:
    """Summarize an LSH edge assignment into candidate clusters.

    ``endpoint_labels`` may contain pseudo-labels (``~``-prefixed cluster
    tokens) for unlabeled endpoints; they are separated into the clusters'
    token sets so they inform endpoint compatibility without polluting the
    schema's label sets.
    """
    clusters: dict[int, CandidateCluster] = {}
    empty: frozenset[str] = frozenset()
    split_cache: dict[frozenset[str], tuple[frozenset[str], frozenset[str]]] = {}

    def split(labels: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
        cached = split_cache.get(labels)
        if cached is None:
            cached = _split_pseudo(labels)
            split_cache[labels] = cached
        return cached

    for edge, cluster_id in zip(edges, assignment.tolist()):
        cluster = clusters.get(int(cluster_id))
        if cluster is None:
            cluster = CandidateCluster(kind="edge")
            clusters[int(cluster_id)] = cluster
        if not edge.labels <= cluster.labels:
            cluster.labels = cluster.labels | edge.labels
        keys = edge.property_keys
        if not keys <= cluster.property_keys:
            cluster.property_keys = cluster.property_keys | keys
        cluster.members.append(edge.id)
        cluster.property_counts.update(edge.properties.keys())
        src_labels, src_tokens = split(endpoint_labels.get(edge.source, empty))
        tgt_labels, tgt_tokens = split(endpoint_labels.get(edge.target, empty))
        if not src_labels <= cluster.source_labels:
            cluster.source_labels = cluster.source_labels | src_labels
        if not tgt_labels <= cluster.target_labels:
            cluster.target_labels = cluster.target_labels | tgt_labels
        if not src_tokens <= cluster.source_tokens:
            cluster.source_tokens = cluster.source_tokens | src_tokens
        if not tgt_tokens <= cluster.target_tokens:
            cluster.target_tokens = cluster.target_tokens | tgt_tokens
    return [clusters[cid] for cid in sorted(clusters)]


# ----------------------------------------------------------------------
# The batch engine (paper section 4.6)
# ----------------------------------------------------------------------
class ReferenceDiscovery(IncrementalDiscovery):
    """:class:`IncrementalDiscovery` running the element-at-a-time body.

    Memoization, merging and checkpoints are inherited; ``process_batch``
    runs the original element loops for the per-batch embed / vectorize
    / cluster / extract body instead of columnizing.  Word2Vec is
    refitted every batch (no embedder reuse), so ``embedder_reused`` is
    always False.
    """

    def process_batch(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]] | None = None,
    ) -> BatchReport:
        started = time.perf_counter()
        if endpoint_labels is None:
            endpoint_labels = {node.id: node.labels for node in nodes}
        memo_node_hits = memo_edge_hits = 0
        if self.config.memoize_patterns:
            nodes, edges, memo_node_hits, memo_edge_hits = (
                self._absorb_known_patterns(nodes, edges, endpoint_labels)
            )
        stages = StageTimer()
        batch_schema = SchemaGraph(f"batch{self._batch_counter}")
        node_clusters, edge_clusters = self._process_batch_reference(
            nodes, edges, endpoint_labels, batch_schema, stages
        )
        report = BatchReport(
            index=self._batch_counter,
            num_nodes=len(nodes) + memo_node_hits,
            num_edges=len(edges) + memo_edge_hits,
            node_clusters=len(node_clusters),
            edge_clusters=len(edge_clusters),
            seconds=0.0,
            memo_node_hits=memo_node_hits,
            memo_edge_hits=memo_edge_hits,
            stage_seconds=stages.seconds,
        )
        self._batch_counter += 1
        return self._merge_batch(batch_schema, report, started)

    def _process_batch_reference(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        batch_schema: SchemaGraph,
        stages: StageTimer,
    ) -> tuple[list, list]:
        """Element-at-a-time pipeline (the pre-kernel implementation)."""
        with stages.stage("embed"):
            embedder = self._fit_embedder(nodes, edges, endpoint_labels)
        # Nodes first: cluster, then extract node types so the edge stage
        # can reuse them.  Clusters are refined by label token: Definition
        # 3.2 makes distinct label sets distinct types, so a rare LSH
        # collision between differently-labeled elements must not merge
        # them (unlabeled elements keep their structural cluster).
        raw_nodes = self._cluster_nodes(nodes, embedder, stages)
        with stages.stage("cluster"):
            node_assignment = _refine_by_labels(nodes, raw_nodes)
        with stages.stage("extract"):
            node_clusters = build_node_clusters(nodes, node_assignment)
            extract_node_types(
                batch_schema, node_clusters, self.config.jaccard_threshold
            )
        # Hybrid step: endpoints whose labels are missing are typed by the
        # node *type* they were extracted into, so edge vectors and
        # edge-type merging still see structural endpoint identity at 0 %
        # label availability.
        effective_labels = self._effective_endpoint_labels(
            batch_schema, nodes, endpoint_labels
        )
        raw_edges = self._cluster_edges(
            edges, effective_labels, embedder, stages
        )
        with stages.stage("cluster"):
            edge_assignment = _refine_by_labels(edges, raw_edges)
        with stages.stage("extract"):
            edge_clusters = build_edge_clusters(
                edges, edge_assignment, effective_labels
            )
            extract_edge_types(
                batch_schema,
                edge_clusters,
                self.config.jaccard_threshold,
                self.config.endpoint_jaccard_threshold,
            )
            resolve_edge_endpoints(batch_schema)
        return node_clusters, edge_clusters

    def _endpoint_label_overrides(
        self,
        batch_schema: SchemaGraph,
        nodes: Sequence[Node],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> dict[int, frozenset[str]]:
        """Type-derived label overrides for this batch's unlabeled nodes.

        An unlabeled node that was merged into a *labeled* node type (the
        paper's Example 5: Alice joins the Person type) adopts that type's
        labels as its effective endpoint identity.  Unlabeled nodes in
        ABSTRACT types get the type's pseudo cluster token instead, so edges
        still see structural endpoint identity at 0 % label availability.
        Only changed entries are returned; endpoints outside this batch
        (possible for cross-batch edges) keep whatever labels the stream
        reported for them.
        """
        batch_tag = f"b{self._batch_counter}"
        node_token: dict[int, frozenset[str]] = {}
        for node_type in batch_schema.node_types.values():
            if node_type.labels:
                token_set = node_type.labels
            else:
                token = f"{PSEUDO_PREFIX}{batch_tag}:{node_type.name}"
                node_type.cluster_tokens.add(token)
                token_set = frozenset({token})
            for member in node_type.members:
                node_token[member] = token_set
        return {
            node.id: node_token[node.id]
            for node in nodes
            if not node.labels and node.id in node_token
        }

    def _effective_endpoint_labels(
        self,
        batch_schema: SchemaGraph,
        nodes: Sequence[Node],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> dict[int, frozenset[str]]:
        """Endpoint labels with type-derived pseudo-labels for unlabeled nodes."""
        effective = dict(endpoint_labels)
        effective.update(
            self._endpoint_label_overrides(batch_schema, nodes, endpoint_labels)
        )
        return effective

    def _fit_embedder(
        self,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
    ) -> LabelEmbedder:
        """Train Word2Vec on this batch's label co-occurrences.

        Sentences are deduplicated: thousands of edges share the handful of
        distinct (src, edge, tgt) label-token triples, and training once per
        distinct triple preserves the co-occurrence structure at a fraction
        of the cost.
        """
        token_cache: dict[frozenset[str], str] = {}
        empty: frozenset[str] = frozenset()

        def token_of(labels: frozenset[str]) -> str:
            cached = token_cache.get(labels)
            if cached is None:
                cached = canonical_label(labels)
                token_cache[labels] = cached
            return cached

        sentences: set[tuple[str, ...]] = set()
        for edge in edges:
            sentence = tuple(
                token
                for token in (
                    token_of(endpoint_labels.get(edge.source, empty)),
                    token_of(edge.labels),
                    token_of(endpoint_labels.get(edge.target, empty)),
                )
                if token
            )
            if sentence:
                sentences.add(sentence)
        for node in nodes:
            token = token_of(node.labels)
            if token:
                sentences.add((token,))
        embedder = LabelEmbedder(self.config.word2vec)
        embedder.fit_tokens([list(s) for s in sorted(sentences)])
        return embedder

    def _cluster_nodes(
        self,
        nodes: Sequence[Node],
        embedder: LabelEmbedder,
        stages: StageTimer,
    ) -> np.ndarray:
        """Reference node clustering; returns dense cluster ids."""
        if not nodes:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted({k for n in nodes for k in n.properties})
        num_labels = len({label for n in nodes for label in n.labels})
        vectorizer = NodeVectorizerReference(
            property_keys, embedder, self.config.label_weight
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                vectors = vectorizer.vectorize_reference(nodes)
            with stages.stage("cluster"):
                return self._elsh_assign(
                    vectors, num_labels, "node", _identity(len(nodes))
                )
        with stages.stage("vectorize"):
            interner = FeatureInterner()
            feature_sets = vectorizer.feature_sets_reference(nodes, interner)
        with stages.stage("cluster"):
            return self._minhash_assign(feature_sets, len(nodes), kind="node")

    def _cluster_edges(
        self,
        edges: Sequence[Edge],
        endpoint_labels: dict[int, frozenset[str]],
        embedder: LabelEmbedder,
        stages: StageTimer,
    ) -> np.ndarray:
        """Reference edge clustering; returns dense cluster ids."""
        if not edges:
            return np.empty(0, dtype=np.int64)
        property_keys = sorted({k for e in edges for k in e.properties})
        num_labels = len({label for e in edges for label in e.labels})
        vectorizer = EdgeVectorizerReference(
            property_keys, embedder, self.config.label_weight
        )
        if self.config.method is LSHMethod.ELSH:
            with stages.stage("vectorize"):
                vectors = vectorizer.vectorize_reference(
                    edges, endpoint_labels
                )
            with stages.stage("cluster"):
                return self._elsh_assign(
                    vectors, num_labels, "edge", _identity(len(edges))
                )
        with stages.stage("vectorize"):
            interner = FeatureInterner()
            feature_sets = vectorizer.feature_sets_reference(
                edges, endpoint_labels, interner
            )
        with stages.stage("cluster"):
            return self._minhash_assign(feature_sets, len(edges), kind="edge")

    def _minhash_assign(
        self,
        feature_sets: list[set[int]],
        count: int,
        kind: str,
        pattern_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """MinHash clustering with per-set signatures and per-row banding."""
        if self.config.num_tables is not None:
            num_hashes = self.config.num_tables
        else:
            num_hashes = int(min(35, max(15, 5 * np.log10(max(count, 10)))))
        self.parameters[f"batch{self._batch_counter}/{kind}s"] = (
            f"minhash T={num_hashes} r={self.config.minhash_rows_per_band}"
        )
        lsh = MinHashLSH(num_hashes=num_hashes, seed=self.config.seed)
        signatures = signatures_reference(lsh, feature_sets)
        groups = cluster_by_band_union_reference(
            signatures, self.config.minhash_rows_per_band
        )
        if pattern_ids is None:
            return groups
        return groups[pattern_ids]


def _identity(count: int) -> np.ndarray:
    """Pattern ids for a full per-element matrix: every row its own."""
    return np.arange(count, dtype=np.int64)


def discover_reference(
    store: BaseGraphStore,
    config: PGHiveConfig | None = None,
    num_batches: int = 1,
) -> ReferenceDiscovery:
    """Sequential discovery through :class:`ReferenceDiscovery`.

    Mirrors the ``jobs=1`` path of :meth:`PGHive.discover_incremental`
    (same batches, same post-processing), so the serialized schema of
    the returned engine must equal the production result byte for byte.
    """
    config = config or PGHiveConfig()
    engine = ReferenceDiscovery(config, name=store.name)
    for batch in store.batches(num_batches, seed=config.seed):
        engine.process_batch(batch.nodes, batch.edges, batch.endpoint_labels)
    if config.post_processing:
        PGHive(config)._post_process(engine.schema, store)
    return engine


# ----------------------------------------------------------------------
# PG-Schema conformance (the semantics of ``validate_columns``)
# ----------------------------------------------------------------------
def validate_elements(
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    schema: SchemaGraph,
    mode: ValidationMode = ValidationMode.STRICT,
    endpoint_labels: Mapping[int, frozenset[str]] | None = None,
) -> ValidationReport:
    """Per-element reference validation of a batch of elements.

    Args:
        nodes: Batch nodes.
        edges: Batch edges (endpoints may live outside the batch).
        schema: The schema to conform to.
        mode: PG-Schema strictness.
        endpoint_labels: node id -> label set for edge endpoints; defaults
            to the labels of the batch's own nodes.  Unknown endpoints
            validate as unlabeled (endpoint checks are skipped for them,
            matching how an absent label set behaves in the paper's LOOSE
            reading).
    """
    if endpoint_labels is None:
        endpoint_labels = {node.id: node.labels for node in nodes}
    empty: frozenset[str] = frozenset()
    report = ValidationReport(mode=mode)
    for node in nodes:
        report.checked += 1
        _validate_node(node, schema, mode, report)
    for edge in edges:
        report.checked += 1
        _validate_edge(
            edge,
            endpoint_labels.get(edge.source, empty),
            endpoint_labels.get(edge.target, empty),
            schema,
            mode,
            report,
        )
    return report


def _validate_node(
    node: Node,
    schema: SchemaGraph,
    mode: ValidationMode,
    report: ValidationReport,
) -> None:
    """An element conforms when *some* covering type accepts it.

    When every covering type rejects the node, the violations of the
    least-violating candidate are reported (the most informative failure).
    """
    candidates = _covering_node_types_for(
        node.labels, node.property_keys, schema
    )
    if not candidates:
        report.violations.append(
            _no_type_violation("node", node.id, node.labels,
                               node.property_keys)
        )
        return
    if mode is not ValidationMode.STRICT:
        return
    best_failures: list[Violation] | None = None
    for node_type in candidates:
        failures: list[Violation] = []
        _check_mandatory(
            node.property_keys, node_type, "node", node.id, failures
        )
        _check_datatypes(
            node.properties, node_type, "node", node.id, failures
        )
        if not failures:
            return
        if best_failures is None or len(failures) < len(best_failures):
            best_failures = failures
    report.violations.extend(best_failures or [])


def _validate_edge(
    edge: Edge,
    source_labels: frozenset[str],
    target_labels: frozenset[str],
    schema: SchemaGraph,
    mode: ValidationMode,
    report: ValidationReport,
) -> None:
    """Find a covering edge type accepting the edge, or report failures."""
    candidates = _covering_edge_types_for(
        edge.labels, edge.property_keys, schema
    )
    if not candidates:
        report.violations.append(
            _no_type_violation("edge", edge.id, edge.labels, None)
        )
        return
    if mode is not ValidationMode.STRICT:
        return
    best_failures: list[Violation] | None = None
    for edge_type in candidates:
        failures = []
        _check_mandatory(
            edge.property_keys, edge_type, "edge", edge.id, failures
        )
        _check_datatypes(
            edge.properties, edge_type, "edge", edge.id, failures
        )
        _check_endpoints(
            edge.id, edge_type, source_labels, target_labels, failures
        )
        if not failures:
            return
        if best_failures is None or len(failures) < len(best_failures):
            best_failures = failures
    report.violations.extend(best_failures or [])
