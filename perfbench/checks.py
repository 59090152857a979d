"""Correctness checks on what a workload produced.

* A discovered schema must admit its own graph: LOOSE validation through
  the columns engine (``validate_batch``) with zero violations.  The
  graph is checked in batches of about the size the daemon's clients
  post, and each call is timed, which gives the in-process admission
  latency.
* F1* of the discovered types against the generator's ground truth
  (majority assignment, micro F1*, as the paper reports it).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.evaluation.f1star import majority_f1
from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph
from repro.schema.validate import ValidationMode, validate_batch


@dataclass
class AdmissionCheck:
    """Outcome of validating a graph against a schema, batch by batch."""

    checked: int = 0
    violations: int = 0
    first_violations: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.violations == 0

    def merge(self, other: "AdmissionCheck") -> None:
        """Fold another outcome's counts into this one."""
        self.checked += other.checked
        self.violations += other.violations
        self.first_violations.extend(
            other.first_violations[:3 - len(self.first_violations)])
        self.latencies_ms.extend(other.latencies_ms)
        self.starts.extend(other.starts)


def batches(nodes: Iterable[Node], edges: Iterable[Edge], num_nodes: int,
            num_edges: int, size: int
            ) -> Iterator[tuple[list[Node], list[Edge]]]:
    """Stream nodes and edges as batches of about ``size`` elements.

    Every batch carries the same share of nodes and of edges, so only
    one batch is materialized at a time.
    """
    count = max(1, math.ceil((num_nodes + num_edges) / size))
    node_step = math.ceil(num_nodes / count) or 1
    edge_step = math.ceil(num_edges / count) or 1
    node_iter, edge_iter = iter(nodes), iter(edges)
    for _ in range(count):
        yield (list(itertools.islice(node_iter, node_step)),
               list(itertools.islice(edge_iter, edge_step)))


def check_admits(schema: SchemaGraph,
                 parts: Iterable[tuple[list[Node], list[Edge]]],
                 labels: Mapping[int, frozenset[str]]) -> AdmissionCheck:
    """Validate every element LOOSE against ``schema``; time each batch."""
    outcome = AdmissionCheck()
    for node_part, edge_part in parts:
        endpoints = {node.id: node.labels for node in node_part}
        for edge in edge_part:
            endpoints[edge.source] = labels.get(edge.source, frozenset())
            endpoints[edge.target] = labels.get(edge.target, frozenset())
        started = time.perf_counter()
        report = validate_batch(node_part, edge_part, schema,
                                ValidationMode.LOOSE, endpoints)
        outcome.latencies_ms.append((time.perf_counter() - started) * 1e3)
        outcome.starts.append(started)
        outcome.checked += report.checked
        outcome.violations += report.violation_count
        for violation in report.violations[:3 - len(outcome.first_violations)]:
            outcome.first_violations.append(str(violation))
    return outcome


def f1_scores(schema: SchemaGraph, node_truth: Mapping[int, str],
              edge_truth: Mapping[int, str]) -> tuple[float, float]:
    """Micro F1* of the schema's node and edge members."""
    nodes = {member: name for name, node_type in schema.node_types.items()
             for member in node_type.members}
    edges = {member: name for name, edge_type in schema.edge_types.items()
             for member in edge_type.members}
    return (majority_f1(nodes, node_truth).headline,
            majority_f1(edges, edge_truth).headline)
