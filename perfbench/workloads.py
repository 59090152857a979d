"""Workload definitions and their seeded inputs.

Every input is generated from the benchmark's ``--seed``; the program
under test sees only the JSONL files written here or the HTTP bodies
built here.  The generator's ground truth stays in the benchmark for
the F1* check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.config import LSHMethod, PGHiveConfig
from repro.datasets import get_dataset, inject_noise
from repro.datasets.synthetic import GeneratedDataset
from repro.graph.io import save_graph_jsonl
from repro.graph.store import GraphStore


@dataclass(frozen=True)
class FileWorkload:
    """One-shot discovery of a generated JSONL file."""

    name: str
    dataset: str
    scale: float
    label_availability: float
    property_noise: float
    store: str  # "memory" (load_graph_jsonl) or "disk" (slab ingest)
    method: LSHMethod
    batches: int
    jobs: int

    def config(self) -> PGHiveConfig:
        return PGHiveConfig(method=self.method, jobs=self.jobs,
                            store=self.store)


@dataclass(frozen=True)
class ServeWorkload:
    """Closed-loop traffic against ``pghive serve``."""

    name: str
    dataset: str
    scale: float
    batches: int  # one pass posts the whole graph in this many batches
    heldout_scale: float  # held-out validate traffic (noisy, unlabeled)
    heldout_label_availability: float
    heldout_property_noise: float
    validate_elements: int  # elements per held-out validate body
    poll_seconds: float  # ticket poll interval of the client
    schema_every: int  # every k-th validate request is a schema GET instead
    pgschema_reads: int  # timed pgschema GETs after each pass
    speed_every: int  # host-speed reference samples every k-th ticket


FILE_WORKLOADS = {
    spec.name: spec for spec in (
        FileWorkload("unlabeled-incremental", "POLE", 16.0, 0.0, 0.1,
                     "memory", LSHMethod.ELSH, 8, 1),
        FileWorkload("outofcore-parallel", "IYP", 4.0, 0.5, 0.1, "disk",
                     LSHMethod.MINHASH, 8, 2),
    )
}

SERVE_WORKLOAD = ServeWorkload(
    name="serve-mixed", dataset="LDBC", scale=4.0, batches=16,
    heldout_scale=2.0, heldout_label_availability=0.5,
    heldout_property_noise=0.1, validate_elements=1600,
    poll_seconds=0.01, schema_every=4, pgschema_reads=8, speed_every=4,
)

WORKLOAD_NAMES = tuple(FILE_WORKLOADS) + (SERVE_WORKLOAD.name,)


def generate(dataset: str, scale: float, label_availability: float,
             property_noise: float, seed: int) -> GeneratedDataset:
    """A generated dataset with the workload's noise applied."""
    clean = get_dataset(dataset, scale=scale, seed=seed)
    return inject_noise(clean, property_noise=property_noise,
                        label_availability=label_availability, seed=seed)


def write_file_input(spec: FileWorkload, seed: int, path: Path
                     ) -> GeneratedDataset:
    """Generate the workload's graph and write it as JSONL."""
    data = generate(spec.dataset, spec.scale, spec.label_availability,
                    spec.property_noise, seed)
    save_graph_jsonl(data.graph, path)
    return data


def batch_bodies(data: GeneratedDataset, batches: int, seed: int,
                 validate_mode: str | None = None) -> list[bytes]:
    """The graph split into ``batches`` POST bodies (JSON bytes).

    Each body carries the labels of the endpoints its edges reference
    outside the batch, so the daemon never depends on post order for
    endpoint labels.  With ``validate_mode`` the bodies are validate
    requests in that mode.
    """
    bodies = []
    for batch in GraphStore(data.graph).batches(batches, seed=seed):
        own = {node.id for node in batch.nodes}
        body: dict[str, Any] = {
            "nodes": [{"id": node.id, "labels": sorted(node.labels),
                       "properties": node.properties}
                      for node in batch.nodes],
            "edges": [{"id": edge.id, "source": edge.source,
                       "target": edge.target, "labels": sorted(edge.labels),
                       "properties": edge.properties}
                      for edge in batch.edges],
            "endpoint_labels": {
                str(node_id): sorted(labels)
                for node_id, labels in sorted(batch.endpoint_labels.items())
                if node_id not in own
            },
        }
        if validate_mode is not None:
            body["mode"] = validate_mode
        bodies.append(json.dumps(body, default=str).encode("utf-8"))
    return bodies
