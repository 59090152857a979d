"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload unlabeled-incremental --seed 1 \\
        --seconds 25 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it prints every per-layer metric, a layer table whose self times plus
``unattributed`` sum to the measured wall, and writes a Chrome
trace-event file under ``.perfbench/traces/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.

Set-up (generating the seeded inputs, writing them, starting the
daemon) is repeated ``SETUP_REPEATS`` times and reported as a median.
Timed work runs for about ``--seconds`` in a fresh child process, so
its peak RSS belongs to the driver (or the daemon) alone.  End-to-end
times are scaled to the nominal host of ``speed.py`` by the reference
samples taken while they were measured; the raw figures are printed
beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from speed import NOMINAL_MS, HostSpeed, nominal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 2
#: Most samples a tail is taken over.
TAIL_SAMPLES = 200
#: Host-speed reference samples taken before and after each set-up.
SETUP_SPEED_SAMPLES = 16

#: A measured time: ``(start, end, value)``, ``perf_counter`` seconds.
Timed = tuple[float, float, float]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Of more than ``TAIL_SAMPLES`` samples (in time order) that many,
    evenly spaced, are used, so the percentile does not depend on how
    many samples a faster or slower host fitted into the run.  Returns
    ``(value, percentile, samples used)``.  With fewer than 21 samples
    that percentile would not lie above the median, and the maximum is
    reported instead.
    """
    if len(samples) > TAIL_SAMPLES:
        samples = [samples[index * len(samples) // TAIL_SAMPLES]
                   for index in range(TAIL_SAMPLES)]
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    index = count - 11 if count >= 21 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def timed_setup(make: Any, reset: Any = None
                ) -> tuple[list[Timed], list[tuple[float, float]], Any]:
    """Run ``make()`` ``SETUP_REPEATS`` times with reference samples around.

    ``reset()``, untimed, undoes the previous repeat.  Returns each
    repeat's ``(start, end, seconds)``, the reference samples and the
    last result.
    """
    speed = HostSpeed()
    repeats: list[Timed] = []
    made = None
    for _ in range(SETUP_REPEATS):
        made = None
        if reset is not None:
            reset()
        gc.collect()
        speed.sample(SETUP_SPEED_SAMPLES)
        started = time.perf_counter()
        made = make()
        ended = time.perf_counter()
        repeats.append((started, ended, ended - started))
    speed.sample(SETUP_SPEED_SAMPLES)
    return repeats, speed.samples, made


def timings(samples: dict[str, list[Timed]], elements: list[float],
            references: list[tuple[float, float]]
            ) -> tuple[dict[str, float], str]:
    """Timing metrics on the nominal host, and an info line with the raw
    ones.

    ``samples`` maps ``setup_s``, ``load_s``, ``discover_s``,
    ``ticket_ms``, ``validate_ms``, ``schema_get_ms`` and ``work_s``
    (the time that ingesting ``elements[i]`` elements took) to
    ``(start, end, value)`` triples.
    """
    def summary(values: dict[str, list[float]]) -> dict[str, float]:
        return {
            "setup_s": median(values["setup_s"]),
            "load_s": median(values["load_s"]),
            "discover_s": median(values["discover_s"]),
            "ticket_p50_ms": median(values["ticket_ms"]),
            "ticket_tail_ms": tail(values["ticket_ms"])[0],
            "ingest_elems_per_s": median([
                count / seconds
                for count, seconds in zip(elements, values["work_s"])]),
            "validate_p50_ms": median(values["validate_ms"]),
            "validate_tail_ms": tail(values["validate_ms"])[0],
            "schema_get_p50_ms": median(values["schema_get_ms"]),
        }

    raw = summary({name: [value for _, _, value in timed]
                   for name, timed in samples.items()})
    scaled = summary({name: nominal(timed, references)
                      for name, timed in samples.items()})
    reference_ms = [ms for _, ms in references]
    line = (
        f"host speed: reference median {median(reference_ms):.3f} ms over "
        f"{len(reference_ms)} samples (min {min(reference_ms):.3f}, max "
        f"{max(reference_ms):.3f}); times scaled to the {NOMINAL_MS:g} ms "
        "nominal host by the samples near each; raw: "
        + ", ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    return scaled, line


def tail_note(samples: list[float]) -> str:
    """Which percentile of how many samples :func:`tail` reports."""
    _, percentile, used = tail(samples)
    spaced = " evenly spaced" if used < len(samples) else ""
    return f"p{percentile:.1f} of {used}{spaced} of n={len(samples)}"


def host_info() -> dict[str, Any]:
    """Core count, measured effective parallelism and library versions."""
    import numpy

    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_parallel
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "calibration": bench_parallel.calibrate_cpu(workers=2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# File workloads
# ----------------------------------------------------------------------
def run_file(name: str, seed: int, seconds: float, trace: bool,
             work: Path) -> dict[str, Any]:
    from checks import f1_scores
    from layers import render_ledger
    from spans import chrome_trace, spans_from_records
    from workloads import FILE_WORKLOADS, write_file_input

    from repro.schema.persist import load_schema

    spec = FILE_WORKLOADS[name]
    source = work / "input.jsonl"
    setup, setup_speed, data = timed_setup(
        lambda: write_file_input(spec, seed, source))
    graph_size = (data.graph.num_nodes, data.graph.num_edges)
    truth = (dict(data.truth.node_types), dict(data.truth.edge_types))
    data = None
    gc.collect()

    out, schema_path = work / "driver.json", work / "schema.json"
    command = [sys.executable, str(ROOT / "perfbench" / "driver.py"),
               "--workload", name, "--input", str(source),
               "--work", str(work), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", str(out),
               "--schema", str(schema_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdin=subprocess.DEVNULL, stdout=sys.stderr)
    if process.wait() != 0:
        raise RuntimeError(f"driver exited with {process.returncode}")
    result = json.loads(out.read_text())
    iterations = result["iterations"]
    timed = [record for record in iterations
             if not record["traced"] and not record["warmup"]]
    traced = [record for record in iterations if record["traced"]]

    node_f1, edge_f1 = f1_scores(load_schema(schema_path), *truth)
    problems = []
    for number, record in enumerate(iterations):
        if record["violations"] or record["checked"] != sum(graph_size):
            problems.append(
                f"iteration {number}: schema rejects {record['violations']}"
                f" of {record['checked']} checked elements (LOOSE): "
                f"{record['first_violations']}")
    failures = sum(record["shard_failures"] + record["degraded_shards"]
                   + (record["fallback"] is not None)
                   for record in iterations)
    attempted = sum(len(record["batch_ms"]) + 1 + len(record["validate_ms"])
                    for record in iterations)
    # Per-batch engine times carry their iteration's discover interval.
    samples = {
        "setup_s": setup,
        "load_s": [(*record["load_at"], record["load_s"])
                   for record in timed],
        "discover_s": [(*record["discover_at"], record["discover_s"])
                       for record in timed],
        "ticket_ms": [(*record["discover_at"], ms) for record in timed
                      for ms in record["batch_ms"]],
        "validate_ms": [
            (start, start + ms / 1e3, ms) for record in timed
            for start, ms in zip(record["validate_at"],
                                 record["validate_ms"])],
        "schema_get_ms": [
            (start, start + ms / 1e3, ms) for record in timed
            for start, ms in zip(record["schema_get_at"],
                                 record["schema_get_ms"])],
        "work_s": [(record["load_at"][0], record["discover_at"][1],
                    record["load_s"] + record["discover_s"])
                   for record in timed],
    }
    references = setup_speed + [tuple(sample) for record in timed
                                for sample in record["speed"]]
    end_to_end, speed_line = timings(
        samples, [record["rows"] for record in timed], references)
    end_to_end.update({
        "peak_rss_mb": iterations[0]["peak_rss_kb"] / 1024.0,
        "node_f1": node_f1,
        "edge_f1": edge_f1,
        "ok_ops_frac": 1.0 - failures / attempted,
    })
    ticket_note = tail_note([ms for *_, ms in samples["ticket_ms"]])
    validate_note = tail_note([ms for *_, ms in samples["validate_ms"]])
    outputs = sorted({(record["digest"], record["node_types"],
                       record["edge_types"]) for record in iterations})
    info = [
        "schema: " + "; ".join(
            f"digest={digest} node_types={node_types} edge_types={edge_types}"
            for digest, node_types, edge_types in outputs)
        + f" (jobs={spec.jobs}, method={spec.method.value}, "
        f"batches={spec.batches}; {len(outputs)} distinct over "
        f"{len(iterations)} repeats)",
        f"input: {graph_size[0]} nodes, {graph_size[1]} edges, "
        f"{source.stat().st_size} bytes of JSONL",
        f"repeats: 1 warm-up, {len(timed)} timed iterations"
        + (f", {len(traced)} traced" if trace else ""),
        f"ticket_tail_ms: {ticket_note} per-batch engine times",
        f"validate_tail_ms: {validate_note} in-process validate_batch "
        "calls of ~1600 elements",
        speed_line,
    ]
    outcome: dict[str, Any] = {
        "end_to_end": end_to_end, "problems": problems, "info": info,
        "attempted": attempted, "failed": failures,
    }
    if trace:
        layers, table, wall = file_layers(traced, timed, spec, source)
        outcome["per_layer"] = layers
        outcome["table"] = render_ledger(
            table, wall, f"{name}: layers of one load + discover "
            f"(mean of {len(traced)} traced iterations)")
        if spec.jobs > 1:
            stages = traced[-1]["stages"]
            outcome["table"] += "\n  worker-side stages (pool processes, " \
                "overlapping, not in the wall): " + ", ".join(
                    f"{stage} {seconds:.4f} s"
                    for stage, seconds in sorted(stages.items()))
        missing = sorted({hook for record in traced
                          for hook in record["missing_hooks"]})
        if missing:
            outcome["info"].append(f"missing trace hooks: {missing}")
        trace_path = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.json"
        chrome_trace(trace_path,
                     {process.pid: spans_from_records(result["spans"])})
        outcome["info"].append(f"chrome trace: {trace_path.relative_to(ROOT)}")
    return outcome


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool, work: Path
              ) -> dict[str, Any]:
    from layers import ledger, render_ledger
    from serve import Client, Daemon, Loop, check_served, make_inputs
    from spans import Tracer, chrome_trace, spans_from_records
    from workloads import SERVE_WORKLOAD as spec

    checkpoints = work / "checkpoints"
    daemons: list[Daemon] = []

    def stop(daemon: Daemon) -> None:
        client = Client(daemon.host, daemon.port)
        try:
            daemon.stop(client)
        finally:
            client.close()

    def run_loop(daemon: Daemon, budget: float) -> tuple[Any, Any, list]:
        client_tracer = Tracer(run="client")
        try:
            tally = Loop(spec, inputs, daemon, budget, client_tracer).run()
        finally:
            stop(daemon)
        checked = check_served(inputs, tally, checkpoints)
        return tally, checked, client_tracer.spans

    def reset() -> None:
        if daemons:
            stop(daemons[-1])
        shutil.rmtree(checkpoints, ignore_errors=True)

    def make() -> Any:
        made = make_inputs(spec, seed)
        daemons.append(Daemon(ROOT, work, None, checkpoints, spec.batches))
        return made

    try:
        setup, setup_speed, inputs = timed_setup(make, reset)
        daemon = daemons[-1]
        budget = seconds / 2 if trace else seconds
        tally, checked, client_spans = run_loop(daemon, budget)
        if trace:
            untraced = tally
            shutil.rmtree(checkpoints, ignore_errors=True)
            trace_out = work / "daemon-trace.json"
            daemon = Daemon(ROOT, work, trace_out, checkpoints, spec.batches)
            daemons.append(daemon)
            tally, traced_check, client_spans = run_loop(daemon, budget)
            checked.problems += traced_check.problems
    finally:
        for each in daemons:
            each.kill()

    def spans_ms(starts: list[float], values: list[float]) -> list[Timed]:
        return [(start, start + ms / 1e3, ms)
                for start, ms in zip(starts, values)]

    passes = [(*at, seconds) for at, seconds in zip(tally.pass_at,
                                                     tally.pass_s)]
    samples = {
        "setup_s": setup,
        "load_s": passes,
        "discover_s": [(start, end, ms / 1e3) for start, end, ms
                       in spans_ms(tally.pgschema_at, tally.pgschema_ms)],
        "ticket_ms": spans_ms(tally.ticket_at, tally.ticket_ms),
        "validate_ms": spans_ms(tally.validate_at, tally.validate_ms),
        "schema_get_ms": spans_ms(tally.schema_get_at, tally.schema_get_ms),
        "work_s": passes,
    }
    end_to_end, speed_line = timings(
        samples, [inputs.elements] * len(passes),
        setup_speed + tally.speed)
    end_to_end.update({
        "peak_rss_mb": daemon.rusage_maxrss_kb / 1024.0,
        "node_f1": checked.node_f1,
        "edge_f1": checked.edge_f1,
        "ok_ops_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    })
    served = tally.served_schemas[-1] if tally.served_schemas else {}
    digest = hashlib.sha256(
        json.dumps(served, sort_keys=True).encode()).hexdigest()[:16]
    info = [
        f"schema: digest={digest} node_types={checked.types[0]} "
        f"edge_types={checked.types[1]} (served json schema of the last "
        "pass)",
        f"client: closed loop, 1 process, 1 thread; each batch POST is "
        f"polled every {spec.poll_seconds * 1e3:.0f} ms until done, then "
        "one validate request follows (a json schema GET every "
        f"{spec.schema_every}th time); {spec.pgschema_reads} pgschema "
        "GETs after each pass",
        f"passes: {len(tally.pass_s)} x {spec.batches} batches, "
        f"{len(tally.validate_ms)} validates, "
        f"{len(tally.schema_get_ms)} json and {len(tally.pgschema_ms)} "
        "pgschema GETs",
        f"ticket_tail_ms: {tail_note(tally.ticket_ms)} tickets",
        f"validate_tail_ms: {tail_note(tally.validate_ms)} validate requests",
        speed_line,
    ]
    if tally.errors:
        info.append(f"errors: {tally.errors}")
    outcome: dict[str, Any] = {
        "end_to_end": end_to_end, "problems": checked.problems,
        "info": info, "attempted": tally.attempted, "failed": tally.failed,
    }
    if trace:
        recorded = json.loads(trace_out.read_text())
        spans = spans_from_records(recorded["spans"])
        layers, table, wall = serve_layers(spans, recorded["counts"], tally,
                                           untraced)
        outcome["per_layer"] = layers
        outcome["table"] = render_ledger(
            table, wall, "serve-mixed: ingest loop (POST -> ticket done, "
            f"summed over {len(tally.pass_s)} traced passes)")
        # Validate and schema requests run in the daemon's handler
        # threads; their own ledger sums to the client's time in them.
        requests = [span for span in measured(spans, tally)
                     if not on_ingest_path(span)]
        busy = sum(span.duration for span in measured(client_spans, tally)
                   if span.name in ("client.validate", "client.get_schema",
                                    "client.get_pgschema"))
        request_table = ledger(requests)
        request_table["unattributed"] = busy - sum(request_table.values())
        outcome["table"] += "\n" + render_ledger(
            request_table, busy, "serve-mixed: validate and schema requests "
            "(summed request round trips)")
        if recorded["missing_hooks"]:
            outcome["info"].append(
                f"missing trace hooks: {recorded['missing_hooks']}")
        trace_path = ROOT / ".perfbench" / "traces" / f"serve-mixed-seed{seed}.json"
        chrome_trace(trace_path, {daemon.process.pid: spans,
                                  os.getpid(): client_spans})
        outcome["info"].append(f"chrome trace: {trace_path.relative_to(ROOT)}")
    return outcome


def file_layers(traced: list[dict[str, Any]], timed: list[dict[str, Any]],
                spec: Any, source: Path
                ) -> tuple[dict[str, float], dict[str, float], float]:
    """Per-layer figures of the traced iterations (median per iteration).

    The validator figures come from the admission check after each
    iteration, one ``validate_batch`` call per ~1600 elements.
    """
    def layer(key: str) -> float:
        return median([record["layers"][key] for record in traced])

    def stage(key: str) -> float:
        return median([record["layers"]["stage_s"][key] for record in traced])

    load_s = layer("load_s")
    columns_rows = layer("columns_rows")
    checks = [seconds for record in traced
              for seconds in record["layers"]["validate_s"]]
    checked_rows = sum(record["layers"]["validate_rows"] for record in traced)
    row_checks = sum(record["layers"]["row_checks"] for record in traced)
    parallel = spec.jobs > 1
    parallel_wall = layer("parallel_wall_s")
    busy = median([record["busy_s"] for record in traced]) if parallel else 0.0
    batches = sum(len(record["batch_ms"]) for record in traced)
    base = median([record["wall_s"] for record in timed])
    walls = [record["layers"]["wall_s"] for record in traced]
    layers = zero_layers()
    layers.update({
        "graph.io.load_s": load_s,
        "graph.io.rows_per_s": layer("load_rows") / load_s if load_s else 0.0,
        "graph.slab.ingest_s": layer("slab_ingest_s"),
        "graph.slab.bytes_per_input_byte": (
            median([record.get("slab_bytes", 0) for record in traced])
            / source.stat().st_size),
        "graph.slab.open_verify_s": layer("slab_open_s"),
        "graph.store.batches_s": layer("batches_s"),
        "core.columns.s": layer("columns_s"),
        "core.columns.rows": columns_rows,
        "core.columns.patterns_per_row": (
            layer("columns_patterns") / columns_rows if columns_rows else 0.0),
        "core.vectorize.s": stage("vectorize"),
        "lsh.cluster_s": stage("cluster"),
        "embeddings.embed_s": stage("embed"),
        "embeddings.reuse_ratio": sum(
            record["reused"] for record in traced) / max(batches, 1),
        "core.type_extraction.extract_s": stage("extract"),
        "schema.merge.merge_s": stage("merge"),
        "schema.merge.driver_fold_s": layer("driver_fold_s"),
        "core.postprocess.constraints_s": layer("constraints_s"),
        "core.postprocess.datatypes_s": layer("datatypes_s"),
        "core.postprocess.cardinalities_s": layer("cardinalities_s"),
        "core.postprocess.apply_partial_s": layer("apply_partial_s"),
        "core.parallel.wall_s": parallel_wall,
        "core.parallel.worker_busy_s": busy,
        "core.parallel.effective_parallelism": (
            busy / parallel_wall if parallel_wall else 0.0),
        "core.parallel.retries": float(sum(
            record["retries"] for record in traced)),
        "core.parallel.shard_failures": float(sum(
            record["shard_failures"] for record in traced)),
        "schema.serialize_s": layer("serialize_s"),
        "schema.serialize_bytes": layer("serialize_bytes"),
        "schema.validate.s": median(checks),
        "schema.validate.rows_checked": checked_rows / max(len(checks), 1),
        "schema.validate.patterns": sum(
            record["layers"]["validate_patterns"] for record in traced)
        / max(len(checks), 1),
        "schema.validate.row_checked_frac": (
            row_checks / checked_rows if checked_rows else 0.0),
        "trace.unattributed_frac": median([
            record["layers"]["ledger"].get("unattributed", 0.0)
            / record["layers"]["wall_s"] for record in traced]),
        "trace.overhead_frac": (median(walls) - base) / base,
    })
    table: dict[str, float] = {}
    for record in traced:
        for name, seconds in record["layers"]["ledger"].items():
            table[name] = table.get(name, 0.0) + seconds / len(traced)
    return layers, table, sum(walls) / len(walls)


def on_ingest_path(span: Any) -> bool:
    """Whether a daemon span serves batch ingestion (pool or parsing)."""
    return (span.thread.startswith("pghive-serve-worker")
            or span.name == "server.parse_batch")


def measured(spans: list, tally: Any) -> list:
    """The spans that start in or after the first timed pass."""
    since = tally.pass_at[0][0] if tally.pass_at else 0.0
    return [span for span in spans if span.start >= since]


def serve_layers(spans: list, counts: dict[str, float], tally: Any,
                 untraced: Any) -> tuple[dict[str, float], dict[str, float],
                                         float]:
    """Per-layer figures of the traced daemon, normalized per pass.

    Only spans from the first timed pass on count: the warm-up pass is
    left out as it is from the pass times.  The validator's row counter
    covers the whole run, so its ratio uses every span.
    """
    from layers import ledger, total

    every, spans = spans, measured(spans, tally)
    batches = [span for span in spans if on_ingest_path(span)]
    table = ledger(batches)
    wall = sum(tally.pass_s)
    table["unattributed"] = wall - sum(table.values())
    passes = max(len(tally.pass_s), 1)
    validates = [span.duration for span in spans
                 if span.name == "schema.validate"]
    checked_rows = total(spans, "schema.validate.check", "rows")
    checks = max(len([s for s in spans if s.name == "schema.validate.check"]),
                 1)
    columns_rows = total(batches, "core.columns", "rows")
    queue_wait = [ticket - process for ticket, process
                  in zip(tally.ticket_ms, tally.process_ms)]
    base = median(untraced.pass_s)
    layers = zero_layers()
    layers.update({
        "graph.store.batches_s": 0.0,
        "core.columns.s": total(batches, "core.columns") / passes,
        "core.columns.rows": columns_rows / passes,
        "core.columns.patterns_per_row": (
            total(batches, "core.columns", "patterns") / columns_rows
            if columns_rows else 0.0),
        "core.vectorize.s": table.get("core.vectorize", 0.0) / passes,
        "lsh.cluster_s": table.get("lsh.cluster", 0.0) / passes,
        "embeddings.embed_s": table.get("embeddings.embed", 0.0) / passes,
        "embeddings.reuse_ratio": tally.reused / max(len(tally.ticket_ms), 1),
        "core.type_extraction.extract_s": table.get(
            "core.type_extraction.extract", 0.0) / passes,
        "schema.merge.merge_s": table.get("schema.merge.merge", 0.0) / passes,
        "core.postprocess.apply_partial_s": total(
            spans, "core.postprocess.apply_partial") / passes,
        "schema.serialize_s": total(spans, "schema.serialize") / passes,
        "schema.serialize_bytes": float(tally.pgschema_bytes),
        "schema.validate.s": median(validates),
        "schema.validate.rows_checked": checked_rows / checks,
        "schema.validate.patterns": total(
            spans, "schema.validate.check", "patterns") / checks,
        "schema.validate.row_checked_frac": (
            counts.get("validate.row_checks", 0.0)
            / total(every, "schema.validate.check", "rows")
            if checked_rows else 0.0),
        "server.ticket_process_ms": median(tally.process_ms),
        "server.queue_wait_ms": median(queue_wait),
        "server.polls_per_ticket": (
            sum(tally.polls) / len(tally.polls) if tally.polls else 0.0),
        "server.refused_503": float(tally.refused_503 + untraced.refused_503),
        "trace.unattributed_frac": table["unattributed"] / wall,
        "trace.overhead_frac": (median(tally.pass_s) - base) / base,
    })
    return layers, table, wall


def zero_layers() -> dict[str, float]:
    """Every declared per-layer metric at 0 (the layer was bypassed)."""
    return {metric["name"]: 0.0 for metric in declared()["per_layer"]}


def declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    declaration = declared()
    names = [workload["name"] for workload in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    host = host_info()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            outcome = run_serve(args.seed, args.seconds, bool(args.trace),
                                work)
        else:
            outcome = run_file(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    values = outcome[group]
    metrics = {}
    for metric in declaration[group]:
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in outcome["info"]:
        print(f"  {line}")
    if "table" in outcome:
        print(outcome["table"])
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not outcome["problems"]
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
