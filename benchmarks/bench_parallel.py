"""Parallel sharded discovery benchmark: sequential vs. worker pools.

Runs incremental discovery on the LDBC generator at two scales with
``jobs`` in {1, 2, 4, 8} and byte-compares every parallel schema against
the sequential one.  Because container CPU quotas routinely make fewer
effective cores available than ``nproc`` reports, the harness first
*calibrates* the machine with fixed-work spin tasks and reports, next to
each measured wall-clock speedup, the Amdahl projection from the
measured serial fraction (shard partitioning + merge tree; the per-shard
discovery itself is fully parallel in plan mode).  On an unconstrained
host the measured speedup approaches the projection; on a quota-limited
host the calibration documents the ceiling.

The payload also records the worker payload cost: what actually crosses
the process pipe.  Pooled runs return results through shared segments
(``shm``, or ``memmap`` files on hosts without ``/dev/shm``): only tiny
``SlabRef`` handles cross the pipe.  The ``pickle`` entry is the
counterfactual -- shard plans out and per-shard schemas back, pickled
whole -- against which ``pipe_payload_bytes`` collapses by orders of
magnitude.  The partition timing separates the parent's
serial share (node tables + bucket concatenation + install) from the
edge bucketing the driver now runs on the worker pool.  A second stage
table compares section 4.4 post-processing as the serial engine runs it
(store-backed member scans) against the sharded fold the pool uses
(``attach_partial_stats`` in each worker, one store-free
``apply_partial_stats`` at the driver), byte-compared.

Usage:

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]

``REPRO_BENCH_SCALE`` multiplies the base scales; ``--smoke`` shrinks
scales and worker counts for CI.  As a pytest benchmark the session
``scale`` fixture is the multiplier and no JSON is written.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy

from repro.core.columns import edge_columns, node_columns
from repro.core.config import PGHiveConfig
from repro.core.incremental import IncrementalDiscovery
from repro.core.parallel import ShardResult, combine_shard_results
from repro.core.pipeline import PGHive
from repro.core.postprocess import (
    apply_partial_stats,
    attach_partial_stats,
    compute_cardinalities,
    infer_datatypes,
    infer_property_constraints,
)
from repro.core import transport as transport_module
from repro.core.transport import (
    SegmentRegistry,
    publish_result_bytes,
    resolve_transport,
)
from repro.datasets import get_dataset
from repro.graph.store import GraphStore
from repro.schema import serialize_pg_schema
from repro.util.tables import render_table

BASE_SCALES = (8.0, 32.0)
JOBS = (1, 2, 4, 8)
NUM_BATCHES = 8
REPEATS = 2
SPIN_ITERATIONS = 12_000_000
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i
    return total


def calibrate_cpu(workers: int = 4) -> dict:
    """Measure how much CPU the container actually delivers.

    ``workers`` processes each execute the same fixed amount of work; on
    ``workers`` free cores the wall clock matches one task, under a CPU
    quota it stretches toward ``workers`` times one task.  The ratio is
    the machine's effective parallelism -- the hard ceiling for any
    measured wall-clock speedup below.
    """
    started = time.perf_counter()
    _spin(SPIN_ITERATIONS)
    single = time.perf_counter() - started
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        started = time.perf_counter()
        list(pool.map(_spin, [SPIN_ITERATIONS] * workers))
        group = time.perf_counter() - started
    effective = workers * single / group if group > 0 else float(workers)
    return {
        "probe_workers": workers,
        "single_task_seconds": round(single, 4),
        "parallel_group_seconds": round(group, 4),
        "effective_parallelism": round(effective, 2),
        "os_cpu_count": os.cpu_count(),
    }


@contextmanager
def _pinned_transport(transport: str):
    """Run the pool on ``transport``; memmap is forced by hiding shm.

    Yields False (and pins nothing) when the host cannot provide it.
    """
    if transport == "shm":
        yield resolve_transport() == "shm"
        return
    original = transport_module.shm_available
    transport_module.shm_available = lambda: False
    try:
        yield True
    finally:
        transport_module.shm_available = original


def _measure_transports(plans, results) -> dict:
    """What shard results send through the process pipe.

    ``pickle`` is the counterfactual: plans out and the full
    ``ShardResult`` list back through the pipe.  The segment kinds
    publish each result's pickled bytes via the real worker handshake
    (reserve in the driver, ``publish_result_bytes`` in the worker,
    ``consume_bytes`` back in the driver) and only the pickled
    ``SlabRef`` crosses the pipe -- ``ship_seconds`` times the full
    round trip either way.
    """
    plans_bytes = len(pickle.dumps(plans))
    started = time.perf_counter()
    payload = pickle.dumps(results)
    pickle.loads(payload)
    pickle_seconds = time.perf_counter() - started
    entries: dict[str, dict] = {
        "pickle": {
            "pipe_payload_bytes": plans_bytes + len(payload),
            "ship_seconds": round(pickle_seconds, 6),
        }
    }
    for transport in ("shm", "memmap"):
        if transport == "shm" and resolve_transport() != "shm":
            entries[transport] = {"degraded_to": "memmap"}
            continue
        with SegmentRegistry(transport) as registry:
            ref_bytes = 0
            started = time.perf_counter()
            for result in results:
                blob = pickle.dumps([result])
                name = registry.reserve()
                ref = publish_result_bytes(
                    transport, registry.directory, name, blob
                )
                ref_bytes += len(pickle.dumps(ref))
                pickle.loads(registry.consume_bytes(ref))
            ship_seconds = time.perf_counter() - started
        entries[transport] = {
            "pipe_payload_bytes": plans_bytes + ref_bytes,
            "ship_seconds": round(ship_seconds, 6),
        }
    return entries


def _measure_serial_components(graph, config) -> dict:
    """Time the driver's inherently serial steps and the pipe payload.

    Discovers every shard in-process (so the measurement is not polluted
    by pool scheduling), then times (a) the parent-serial share of the
    partition (node tables, bucket concatenation, install) separately
    from the pool-parallel edge bucketing, (b) the merge tree over the
    per-shard schemas, and (c) what a pool run ships across the pipe
    against the full-pickle counterfactual.
    """
    store = GraphStore(graph)
    started = time.perf_counter()
    nodes_by_shard, sorted_ids, shard_of_sorted = store.partition_tables(
        NUM_BATCHES, seed=config.seed
    )
    tables_seconds = time.perf_counter() - started
    num_edges = graph.num_edges
    step = max(1, -(-num_edges // 8))  # the slices a 4-worker pool uses
    started = time.perf_counter()
    slice_buckets = [
        store.bucket_edge_range(
            start, min(start + step, num_edges),
            sorted_ids, shard_of_sorted, NUM_BATCHES,
        )
        for start in range(0, num_edges, step)
    ]
    bucket_seconds = time.perf_counter() - started
    started = time.perf_counter()
    merged = [
        numpy.concatenate([buckets[shard] for buckets in slice_buckets])
        if slice_buckets else numpy.empty(0, dtype=numpy.int64)
        for shard in range(NUM_BATCHES)
    ]
    store.install_partition(
        NUM_BATCHES, config.seed, True, nodes_by_shard, merged
    )
    plans = store.plan_shards(NUM_BATCHES, seed=config.seed)
    concat_seconds = time.perf_counter() - started
    engine = IncrementalDiscovery(config, name="shard")
    worker_compute = 0.0
    results = []
    for plan in plans:
        batch = store.materialize_shard(plan)
        batch_started = time.perf_counter()
        schema, report = engine.discover_batch_columns(
            node_columns(batch.nodes),
            edge_columns(batch.edges, batch.endpoint_labels),
            batch_index=plan.index,
        )
        worker_compute += time.perf_counter() - batch_started
        results.append(ShardResult(plan.index, schema, report))
    started = time.perf_counter()
    combine_shard_results(graph.name, results, config)
    merge_seconds = time.perf_counter() - started
    transports = _measure_transports(plans, results)
    return {
        # Parent-serial share: the edge bucketing itself rides the pool.
        "partition_seconds": round(tables_seconds + concat_seconds, 6),
        "partition_tables_seconds": round(tables_seconds, 6),
        "partition_bucket_seconds": round(bucket_seconds, 6),
        "partition_concat_seconds": round(concat_seconds, 6),
        "merge_tree_seconds": round(merge_seconds, 6),
        "pickle_roundtrip_seconds": transports["pickle"]["ship_seconds"],
        "pipe_payload_bytes": transports["pickle"]["pipe_payload_bytes"],
        "worker_compute_seconds": round(worker_compute, 6),
        "transports": transports,
    }


def _measure_postprocess(graph, config) -> dict:
    """Time section 4.4 post-processing: store passes vs. the sharded fold.

    Discovers the same shard set twice.  The serial reference combines
    plain shard schemas and then runs ``infer_property_constraints`` /
    ``infer_datatypes`` / ``compute_cardinalities`` against the store --
    one full member scan per pass.  The sharded path instead runs
    ``attach_partial_stats`` inside each shard (the one pass a pool
    worker folds into the schema it ships back) and finishes with the
    store-free ``apply_partial_stats`` on the merged schema.  Both
    results are byte-compared.
    """
    store = GraphStore(graph)
    plans = store.plan_shards(NUM_BATCHES, seed=config.seed)

    def _discover_shards(attach: bool) -> tuple[list[ShardResult], float]:
        engine = IncrementalDiscovery(config, name="shard")
        attach_seconds = 0.0
        results = []
        for plan in plans:
            batch = store.materialize_shard(plan)
            schema, report = engine.discover_batch_columns(
                node_columns(batch.nodes),
                edge_columns(batch.edges, batch.endpoint_labels),
                batch_index=plan.index,
            )
            if attach:
                started = time.perf_counter()
                attach_partial_stats(schema, batch.nodes, batch.edges)
                attach_seconds += time.perf_counter() - started
            results.append(ShardResult(plan.index, schema, report))
        return results, attach_seconds

    plain, _ = _discover_shards(attach=False)
    serial_schema = combine_shard_results(graph.name, plain, config)
    started = time.perf_counter()
    infer_property_constraints(serial_schema)
    infer_datatypes(serial_schema, store, config)
    compute_cardinalities(serial_schema, store)
    serial_seconds = time.perf_counter() - started

    with_stats, attach_seconds = _discover_shards(attach=True)
    sharded_schema = combine_shard_results(graph.name, with_stats, config)
    started = time.perf_counter()
    applied = apply_partial_stats(sharded_schema, config)
    apply_seconds = time.perf_counter() - started
    sharded_seconds = attach_seconds + apply_seconds
    return {
        "serial_store_seconds": round(serial_seconds, 6),
        "sharded_attach_seconds": round(attach_seconds, 6),
        "sharded_apply_seconds": round(apply_seconds, 6),
        "sharded_total_seconds": round(sharded_seconds, 6),
        "partial_path_engaged": applied,
        "schemas_identical": (
            serialize_pg_schema(sharded_schema)
            == serialize_pg_schema(serial_schema)
        ),
    }


def _amdahl(serial_fraction: float, workers: int) -> float:
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / workers)


def run_parallel_bench(
    multiplier: float,
    repeats: int = REPEATS,
    jobs_list: tuple[int, ...] = JOBS,
    base_scales: tuple[float, ...] = BASE_SCALES,
) -> dict:
    """Sequential vs. pooled discovery; schemas byte-compared throughout."""
    calibration = calibrate_cpu()
    runs = []
    for base_scale in base_scales:
        scale = base_scale * multiplier
        graph = get_dataset("LDBC", scale=scale, seed=0).graph
        config = PGHiveConfig(post_processing=False)
        serial = _measure_serial_components(graph, config)
        postprocess = _measure_postprocess(
            graph, PGHiveConfig(infer_value_profiles=True)
        )
        serial_seconds = (
            serial["partition_seconds"] + serial["merge_tree_seconds"]
        )
        timings: dict[int, float] = {}
        schemas: dict[int, str] = {}
        for jobs in jobs_list:
            best = float("inf")
            for _ in range(repeats):
                store = GraphStore(graph)
                job_config = PGHiveConfig(post_processing=False, jobs=jobs)
                started = time.perf_counter()
                result = PGHive(job_config).discover_incremental(
                    store, num_batches=NUM_BATCHES
                )
                best = min(best, time.perf_counter() - started)
            timings[jobs] = best
            schemas[jobs] = serialize_pg_schema(result.schema)
        sequential_seconds = timings[jobs_list[0]]
        serial_fraction = (
            serial_seconds / sequential_seconds
            if sequential_seconds > 0 else 0.0
        )
        transport_jobs = 4 if 4 in jobs_list else jobs_list[-1]
        transport_runs: dict[str, dict] = {}
        for transport in ("shm", "memmap"):
            store = GraphStore(graph)
            transport_config = PGHiveConfig(
                post_processing=False, jobs=transport_jobs
            )
            with _pinned_transport(transport) as pinned:
                if not pinned:
                    continue
                started = time.perf_counter()
                result = PGHive(transport_config).discover_incremental(
                    store, num_batches=NUM_BATCHES
                )
                wall_seconds = time.perf_counter() - started
            transport_runs[transport] = {
                "jobs": transport_jobs,
                "wall_seconds": round(wall_seconds, 6),
                "transport": result.parameters.get(
                    "parallel/transport", ""
                ),
                "schemas_identical": (
                    serialize_pg_schema(result.schema)
                    == schemas[jobs_list[0]]
                ),
            }
        runs.append({
            "dataset": "LDBC",
            "scale": scale,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_batches": NUM_BATCHES,
            "sequential_seconds": round(sequential_seconds, 6),
            "serial_components": serial,
            "serial_fraction": round(serial_fraction, 4),
            "postprocess": postprocess,
            "transport_runs": transport_runs,
            "jobs": {
                str(jobs): {
                    "wall_seconds": round(timings[jobs], 6),
                    "measured_speedup": round(
                        sequential_seconds / timings[jobs], 3
                    ),
                    "amdahl_projected_speedup": round(
                        _amdahl(serial_fraction, jobs), 3
                    ),
                    "schemas_identical": (
                        schemas[jobs] == schemas[jobs_list[0]]
                    ),
                }
                for jobs in jobs_list
            },
        })
    return {
        "description": (
            "Incremental discovery wall-clock, sequential (jobs=1) vs. "
            f"process pools; best of {repeats} runs, byte-compared "
            "schemas.  measured_speedup is bounded above by the host's "
            "effective_parallelism (CPU-quota calibration below); "
            "amdahl_projected_speedup applies the measured serial "
            "fraction (parent-serial partition share + merge tree) to "
            "ideal cores.  Each run's transports block records the "
            "bytes shard results send through the process pipe (the "
            "full-pickle counterfactual vs. SlabRef handles into shm or "
            "memmap segments) and transport_runs byte-compares a pooled "
            "run per segment kind against the sequential schema.  Each "
            "run's "
            "postprocess block compares the serial store-backed "
            "section 4.4 passes against the sharded partial-stats fold "
            "(attach in workers + one apply at the driver)."
        ),
        "scale_multiplier": multiplier,
        "repeats": repeats,
        "cpu_calibration": calibration,
        "runs": runs,
        "ldbc_measured_speedup": {
            f"scale{run['scale']:g}_jobs{jobs}": run["jobs"][jobs][
                "measured_speedup"
            ]
            for run in runs
            for jobs in run["jobs"]
            if jobs != "1"
        },
        "ldbc_projected_speedup": {
            f"scale{run['scale']:g}_jobs{jobs}": run["jobs"][jobs][
                "amdahl_projected_speedup"
            ]
            for run in runs
            for jobs in run["jobs"]
            if jobs != "1"
        },
        "speedup_ceiling_note": (
            "measured wall speedup cannot exceed the host's "
            "effective_parallelism; compare measured against the "
            "calibration, projected against the worker count"
        ),
        "schemas_identical": all(
            entry["schemas_identical"]
            for run in runs
            for entry in run["jobs"].values()
        ) and all(
            entry["schemas_identical"]
            for run in runs
            for entry in run["transport_runs"].values()
        ) and all(
            run["postprocess"]["schemas_identical"]
            and run["postprocess"]["partial_path_engaged"]
            for run in runs
        ),
    }


def check_payload_reduction(payload: dict, factor: int = 10) -> None:
    """Fail when a zero-copy transport stops beating pickle by ``factor``.

    CI's bench smoke leg runs this against a fresh ``--smoke`` payload,
    so a change that silently reroutes full shard results back through
    the pipe (instead of SlabRef handles) turns the build red.
    """
    for run in payload["runs"]:
        transports = run["serial_components"]["transports"]
        pickle_bytes = transports["pickle"]["pipe_payload_bytes"]
        for name in ("shm", "memmap"):
            zero_copy = transports.get(name, {}).get("pipe_payload_bytes")
            if zero_copy is None:
                continue  # transport degraded on this host
            if zero_copy * factor > pickle_bytes:
                raise SystemExit(
                    f"pipe payload regression at scale {run['scale']:g}: "
                    f"{name} ships {zero_copy} bytes vs. {pickle_bytes} "
                    f"for pickle (required: {factor}x smaller)"
                )


def _print_table(payload: dict) -> None:
    rows = []
    for run in payload["runs"]:
        for jobs, entry in run["jobs"].items():
            rows.append([
                f"{run['scale']:g}",
                f"{run['num_nodes']}+{run['num_edges']}",
                jobs,
                f"{entry['wall_seconds'] * 1000:.0f}",
                f"{entry['measured_speedup']:.2f}x",
                f"{entry['amdahl_projected_speedup']:.2f}x",
                "yes" if entry["schemas_identical"] else "NO",
            ])
    effective = payload["cpu_calibration"]["effective_parallelism"]
    print(render_table(
        ["scale", "n+m", "jobs", "wall ms", "measured",
         "projected", "identical"],
        rows,
        f"Parallel sharded discovery (LDBC, {NUM_BATCHES} batches; "
        f"host delivers ~{effective:g} effective cores)",
    ))
    transport_rows = []
    for run in payload["runs"]:
        transports = run["serial_components"]["transports"]
        for name, entry in transports.items():
            if "pipe_payload_bytes" not in entry:
                transport_rows.append([
                    f"{run['scale']:g}", name, "-", "-", "-",
                    f"degraded to {entry['degraded_to']}",
                ])
                continue
            wall = run["transport_runs"].get(name)
            transport_rows.append([
                f"{run['scale']:g}",
                name,
                str(entry["pipe_payload_bytes"]),
                f"{entry['ship_seconds'] * 1000:.1f}",
                "-" if wall is None else f"{wall['wall_seconds'] * 1000:.0f}",
                "-" if wall is None
                else "yes" if wall["schemas_identical"] else "NO",
            ])
    print(render_table(
        ["scale", "transport", "pipe bytes", "ship ms",
         "pool wall ms", "identical"],
        transport_rows,
        "Shard transport comparison: bytes through the process pipe "
        "and a pooled end-to-end run per segment kind",
    ))
    post_rows = []
    for run in payload["runs"]:
        post = run["postprocess"]
        post_rows.append([
            f"{run['scale']:g}",
            f"{post['serial_store_seconds'] * 1000:.0f}",
            f"{post['sharded_attach_seconds'] * 1000:.0f}",
            f"{post['sharded_apply_seconds'] * 1000:.0f}",
            "yes" if post["partial_path_engaged"] else "NO",
            "yes" if post["schemas_identical"] else "NO",
        ])
    print(render_table(
        ["scale", "store ms", "attach ms", "apply ms",
         "partial", "identical"],
        post_rows,
        "Post-processing stage: serial store passes vs. sharded "
        "partial-stats fold (attach runs inside the pool workers)",
    ))


def test_parallel_discovery(benchmark, scale):
    """Pytest entry: parallel schemas byte-identical at every job count."""
    payload = benchmark.pedantic(
        lambda: run_parallel_bench(
            scale * 0.25, repeats=1, jobs_list=(1, 2), base_scales=(8.0,)
        ),
        rounds=1, iterations=1,
    )
    print()
    _print_table(payload)
    check_payload_reduction(payload)
    assert payload["schemas_identical"]


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if smoke:
        payload = run_parallel_bench(
            multiplier * 0.1, repeats=1, jobs_list=(1, 2),
            base_scales=(8.0,),
        )
    else:
        payload = run_parallel_bench(multiplier)
    _print_table(payload)
    if not smoke:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    check_payload_reduction(payload)
    if not payload["schemas_identical"]:
        raise SystemExit("schema mismatch between job counts")


if __name__ == "__main__":
    main()
