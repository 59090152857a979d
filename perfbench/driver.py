"""Child process of the file workloads: load and discover until time is up.

Run by ``run.py`` in a fresh process so that its peak RSS is the
driver's alone.  Each iteration goes from the JSONL file to a queryable
store (``load``) and from the store to a post-processed, serialized
schema (``discover``).  The host-speed reference (``speed.py``) is timed
around each iteration and between the probe's calls, so every
iteration's samples cover the time it ran in.  With ``--trace 1`` iterations alternate between
untraced and traced, so the tracing overhead is measured in the same
process.  A first, untimed iteration warms the process up.  After each
iteration its schema is checked against the whole graph (and the check
timed, see :func:`probe`).  Results go to ``--out`` as JSON; the schema
of the first iteration, with members, goes to ``--schema`` for F1*.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any

from checks import AdmissionCheck, batches, check_admits
from layers import STAGE_LAYERS, check_hooks, driver_hooks, ledger, total
from spans import Tracer, spans_to_records
from speed import HostSpeed
from workloads import FILE_WORKLOADS, FileWorkload

from repro.core.pipeline import PGHive
from repro.graph.diskstore import ingest_jsonl_slabs
from repro.graph.io import load_graph_jsonl
from repro.graph.store import BaseGraphStore, GraphStore
from repro.schema.model import SchemaGraph
from repro.schema.persist import save_schema, schema_to_dict
from repro.schema.serialize_pgschema import serialize_pg_schema

#: Elements per admission-check batch (about one served batch).
CHECK_BATCH_ELEMENTS = 1600
#: Minimum length of the probe after each timed iteration: many short
#: samples, spread over the run, between the longer load + discover ones.
PROBE_SECONDS = 1.0
#: Reference samples taken before and after each iteration.
SPEED_SAMPLES = 3
#: Share of the probe's time spent on reference samples.
PROBE_SPEED_SHARE = 0.25


def _directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def load(spec: FileWorkload, source: Path, slabs: Path, tracer: Tracer
         ) -> BaseGraphStore:
    """JSONL file -> queryable store (slab ingest + verified open)."""
    if spec.store == "disk":
        with tracer.span("graph.slab.ingest"):
            return ingest_jsonl_slabs(source, slabs)
    with tracer.span("graph.io.load") as args:
        graph = load_graph_jsonl(source)
        args["rows"] = graph.num_nodes + graph.num_edges
    return GraphStore(graph)


def probe(store: BaseGraphStore, schema: SchemaGraph, seconds: float,
          speed: HostSpeed) -> dict[str, Any]:
    """Check a discovered schema and time reads of it (outside the iteration).

    The whole graph is validated LOOSE against the schema in batches of
    ``CHECK_BATCH_ELEMENTS``; the first pass is the correctness check.
    Interleaved with the batches, the schema is read as its JSON
    document, as the daemon's ``format=json`` GET builds it.  Both are
    timed per call, and the two take turns by time used until the check
    is complete and ``seconds`` have passed.  Between calls the host
    speed reference gets ``PROBE_SPEED_SHARE`` of the time.
    """
    labels = {node.id: node.labels for node in store.scan_nodes()}

    def passes() -> Any:
        while True:
            yield from batches(store.scan_nodes(), store.scan_edges(),
                               store.count_nodes(), store.count_edges(),
                               CHECK_BATCH_ELEMENTS)
            yield None  # one full pass done

    first_pass = AdmissionCheck()
    validate_ms: list[float] = []
    validate_at: list[float] = []
    reads: list[float] = []
    reads_at: list[float] = []
    validate_total = read_total = 0.0
    sampled = len(speed.samples)
    checked = False
    parts = passes()
    deadline = time.perf_counter() + seconds
    while not checked or time.perf_counter() < deadline:
        speed_total = sum(ms for _, ms in speed.samples[sampled:])
        if speed_total < PROBE_SPEED_SHARE * (validate_total + read_total):
            speed.sample(1)
        elif validate_total <= read_total:
            part = next(parts)
            if part is None:
                checked = True
                continue
            outcome = check_admits(schema, [part], labels)
            validate_ms.extend(outcome.latencies_ms)
            validate_at.extend(outcome.starts)
            validate_total += sum(outcome.latencies_ms)
            if not checked:
                first_pass.merge(outcome)
        else:
            started = time.perf_counter()
            json.dumps(schema_to_dict(schema, include_members=False))
            reads.append((time.perf_counter() - started) * 1e3)
            reads_at.append(started)
            read_total += reads[-1]
    return {
        "validate_ms": validate_ms,
        "validate_at": validate_at,
        "checked": first_pass.checked,
        "violations": first_pass.violations,
        "first_violations": first_pass.first_violations,
        "schema_get_ms": reads,
        "schema_get_at": reads_at,
    }


def iteration(spec: FileWorkload, source: Path, slabs: Path,
              tracer: Tracer, traced: bool, timed: bool
              ) -> tuple[dict[str, Any], Any]:
    """One timed load + discover; returns its record and the result."""
    if slabs.exists():
        shutil.rmtree(slabs)
    config = spec.config()
    speed = HostSpeed()
    speed.sample(SPEED_SAMPLES)
    with tracer.span("iteration"):
        started = time.perf_counter()
        store = load(spec, source, slabs, tracer)
        loaded = time.perf_counter()
        result = PGHive(config).discover_incremental(store, spec.batches)
        with tracer.span("schema.serialize") as args:
            text = serialize_pg_schema(result.schema)
            args["bytes"] = len(text.encode("utf-8"))
        finished = time.perf_counter()
    # Read before the probe: in the warm-up iteration this is the peak of
    # a fresh process loading and discovering, free of the check's own
    # allocations.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The pool shuts down without waiting; let its workers exit before
    # the check is timed, so it never shares the CPUs with them.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    speed.sample(SPEED_SAMPLES)
    # The warm-up's samples are not used: its probe is only the check.
    checked = probe(store, result.schema, PROBE_SECONDS if timed else 0.0,
                    speed)
    if spec.store == "disk":
        store.close()
    reports = result.batches
    record: dict[str, Any] = {
        "traced": traced,
        "load_s": loaded - started,
        "load_at": [started, loaded],
        "discover_s": finished - loaded,
        "discover_at": [loaded, finished],
        "wall_s": finished - started,
        "peak_rss_kb": peak_rss_kb,
        "rows": sum(report.num_nodes + report.num_edges
                    for report in reports),
        "batch_ms": [report.seconds * 1e3 for report in reports],
        "busy_s": sum(report.seconds for report in reports),
        "stages": {},
        "reused": sum(report.embedder_reused for report in reports),
        "retries": sum(report.attempts > 1 for report in reports),
        "shard_failures": len(result.shard_failures),
        "degraded_shards": len(result.degraded_shards),
        "fallback": result.parallel_fallback,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
        "node_types": result.num_node_types,
        "edge_types": result.num_edge_types,
        "speed": speed.samples,
    }
    for report in reports:
        for stage, seconds in report.stage_seconds.items():
            record["stages"][stage] = record["stages"].get(stage, 0.0) + seconds
    if spec.store == "disk":
        record["slab_bytes"] = _directory_bytes(slabs)
    record.update(checked)
    return record, result


def layer_values(spans: list, record: dict[str, Any],
                 parallel: bool) -> dict[str, Any]:
    """Per-layer figures of one traced iteration."""
    root = next(span for span in spans if span.name == "iteration")
    table = ledger(spans, root)
    values = {
        "ledger": table,
        "wall_s": root.duration,
        "load_s": total(spans, "graph.io.load"),
        "load_rows": total(spans, "graph.io.load", "rows"),
        "slab_ingest_s": total(spans, "graph.slab.ingest")
        - total(spans, "graph.slab.open_verify"),
        "slab_open_s": total(spans, "graph.slab.open_verify"),
        "batches_s": total(spans, "graph.store.batches"),
        "columns_s": total(spans, "core.columns"),
        "columns_rows": total(spans, "core.columns", "rows"),
        "columns_patterns": total(spans, "core.columns", "patterns"),
        "driver_fold_s": total(spans, "schema.merge.driver_fold"),
        "constraints_s": total(spans, "core.postprocess.constraints"),
        "datatypes_s": total(spans, "core.postprocess.datatypes"),
        "cardinalities_s": total(spans, "core.postprocess.cardinalities"),
        "apply_partial_s": total(spans, "core.postprocess.apply_partial"),
        "parallel_wall_s": total(spans, "core.parallel.discover_store"),
        "serialize_s": total(spans, "schema.serialize"),
        "serialize_bytes": total(spans, "schema.serialize", "bytes"),
        "validate_s": [span.duration for span in spans
                       if span.name == "schema.validate"],
        "validate_rows": total(spans, "schema.validate.check", "rows"),
        "validate_patterns": total(spans, "schema.validate.check",
                                   "patterns"),
    }
    # Worker-side stages run in pool processes: their sums come from the
    # shard reports and overlap in time, so they stay out of the ledger.
    values["stage_s"] = {
        stage: record["stages"].get(stage, 0.0) if parallel
        else table.get(layer, 0.0)
        for stage, layer in STAGE_LAYERS.items()
    }
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(FILE_WORKLOADS))
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--schema", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = FILE_WORKLOADS[args.workload]
    slabs = args.work / "slabs"
    records: list[dict[str, Any]] = []
    spans_out: list[dict[str, Any]] = []
    longest = 0.0
    index = 0
    while True:
        # Iteration 0 warms the process up (imports, first-touch memory)
        # and is not timed; at least two more follow, and when tracing,
        # every other one is traced.
        if index == 1:
            started = time.perf_counter()
        traced = bool(args.trace) and index > 0 and index % 2 == 0
        tracer = Tracer(run=f"{spec.name}/{index}")
        hooks = driver_hooks(tracer) + check_hooks(tracer) if traced else []
        cycle_started = time.perf_counter()
        with tracer.patched(hooks):
            record, result = iteration(spec, args.input, slabs, tracer,
                                       traced, timed=index > 0)
        record["warmup"] = index == 0
        if traced:
            record["layers"] = layer_values(
                tracer.spans, record, parallel=spec.jobs > 1)
            record["layers"]["row_checks"] = tracer.counts.get(
                "validate.row_checks", 0.0)
            record["missing_hooks"] = tracer.missing_hooks
            spans_out.extend(spans_to_records(tracer.spans))
        if index == 0:
            save_schema(result.schema, args.schema, include_members=True)
        records.append(record)
        del result
        gc.collect()
        index += 1
        longest = max(longest, time.perf_counter() - cycle_started)
        if index == 1:
            continue
        elapsed = time.perf_counter() - started
        if index >= 3 and elapsed + longest > args.seconds:
            break
    args.out.write_text(json.dumps({"iterations": records,
                                    "spans": spans_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
