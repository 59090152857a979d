"""Where the traced runs hook into the program, and the per-layer ledger.

Each hook wraps one public function (or the attribute through which a
caller reaches it) in a span named after the layer it belongs to.  The
ledger turns one traced iteration's spans into self times per layer;
spans of the batch engine are split further by the engine's own
``BatchReport.stage_seconds``, so the entries sum to the iteration wall.
"""

from __future__ import annotations

from typing import Any, Callable

from spans import Span, Tracer, self_times

#: Per-batch stage name -> ledger layer.
STAGE_LAYERS = {
    "embed": "embeddings.embed",
    "vectorize": "core.vectorize",
    "cluster": "lsh.cluster",
    "extract": "core.type_extraction.extract",
    "merge": "schema.merge.merge",
}

#: Spans whose self time is split by the report's ``stage_seconds``.
ENGINE_SPANS = (
    "core.incremental.process_batch",
    "core.incremental.discover_batch_columns",
)


def _columns_counters(args: dict[str, Any], call_args: tuple, result: Any
                      ) -> None:
    _, representatives = result.pattern_ids()
    args["rows"] = len(result)
    args["patterns"] = int(len(representatives))


def _report_stages(args: dict[str, Any], call_args: tuple, result: Any
                   ) -> None:
    report = result[1] if isinstance(result, tuple) else result
    args["stages"] = dict(report.stage_seconds)


def _validate_counters(args: dict[str, Any], call_args: tuple, result: Any
                       ) -> None:
    ncols, ecols = call_args[1], call_args[2]
    args["rows"] = result.checked
    args["patterns"] = int(
        len(ncols.pattern_ids()[1]) + len(ecols.pattern_ids()[1])
    )


def _span(tracer: Tracer, name: str,
          on_result: Callable[..., None] | None = None
          ) -> Callable[[Any], Any]:
    return lambda original: tracer.wrap(original, name, on_result)


def _counter(tracer: Tracer, name: str) -> Callable[[Any], Any]:
    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*call_args: Any, **kwargs: Any) -> Any:
            tracer.bump(name)
            return original(*call_args, **kwargs)
        return counted
    return make


def validate_hooks(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """The columns validator: one span per check, rows needing a row pass."""
    import repro.schema.validate as validate

    return [
        (validate, "validate_columns",
         _span(tracer, "schema.validate.check", _validate_counters)),
        (validate, "_check_row", _counter(tracer, "validate.row_checks")),
    ]


def check_hooks(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """The benchmark's own admission check, as the validate layer."""
    import checks

    return [(checks, "validate_batch", _span(tracer, "schema.validate"))
            ] + validate_hooks(tracer)


def driver_hooks(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Hooks for the one-shot discovery driver (file workloads)."""
    import repro.core.incremental as incremental
    import repro.core.parallel as parallel
    import repro.core.pipeline as pipeline
    import repro.graph.diskstore as diskstore
    import repro.graph.store as store

    return [
        (pipeline.PGHive, "discover_incremental",
         _span(tracer, "core.pipeline.discover")),
        (store.GraphStore, "__init__",
         _span(tracer, "graph.store.build")),
        (store.GraphStore, "batches",
         _span(tracer, "graph.store.batches")),
        (diskstore.DiskGraphStore, "__init__",
         _span(tracer, "graph.slab.open_verify")),
        (incremental.IncrementalDiscovery, "process_batch",
         _span(tracer, "core.incremental.process_batch", _report_stages)),
        (incremental, "node_columns",
         _span(tracer, "core.columns", _columns_counters)),
        (incremental, "edge_columns",
         _span(tracer, "core.columns", _columns_counters)),
        (pipeline, "infer_property_constraints",
         _span(tracer, "core.postprocess.constraints")),
        (pipeline, "infer_datatypes", _span(tracer, "core.postprocess.datatypes")),
        (pipeline, "compute_cardinalities",
         _span(tracer, "core.postprocess.cardinalities")),
        (pipeline, "apply_partial_stats",
         _span(tracer, "core.postprocess.apply_partial")),
        (parallel.ParallelDiscovery, "discover_store",
         _span(tracer, "core.parallel.discover_store")),
        (parallel, "combine_shard_results",
         _span(tracer, "schema.merge.driver_fold")),
    ]


def daemon_hooks(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Hooks inside the discovery daemon (serve workload)."""
    import repro.core.incremental as incremental
    import repro.server.app as app
    import repro.server.models as models
    import repro.server.session as session

    return [
        (models.BatchRequest, "from_dict",
         lambda original: classmethod(tracer.wrap(
             original.__func__, "server.parse_batch"))),
        (models.ValidateRequest, "from_dict",
         lambda original: classmethod(tracer.wrap(
             original.__func__, "server.parse_validate"))),
        (session, "node_columns",
         _span(tracer, "core.columns", _columns_counters)),
        (session, "edge_columns",
         _span(tracer, "core.columns", _columns_counters)),
        (incremental.IncrementalDiscovery, "discover_batch_columns",
         _span(tracer, "core.incremental.discover_batch_columns",
               _report_stages)),
        (incremental.IncrementalDiscovery, "save_checkpoint",
         _span(tracer, "schema.persist.checkpoint")),
        (session, "attach_partial_stats",
         _span(tracer, "core.postprocess.attach_partial")),
        (session, "merge_schemas", _span(tracer, "schema.merge.merge")),
        (session, "resolve_edge_endpoints",
         _span(tracer, "schema.merge.resolve_endpoints")),
        (session.DiscoverySession, "snapshot_schema",
         _span(tracer, "server.snapshot")),
        (session, "apply_partial_stats",
         _span(tracer, "core.postprocess.apply_partial")),
        (session, "validate_batch", _span(tracer, "schema.validate")),
        (app, "schema_to_dict", _span(tracer, "schema.serialize")),
        (app, "serialize_pg_schema", _span(tracer, "schema.serialize")),
    ] + validate_hooks(tracer)


def ledger(spans: list[Span], root: Span | None = None) -> dict[str, float]:
    """Self seconds per layer; ``unattributed`` is the root's self time.

    With a ``root`` only its descendants count, and the entries sum to
    ``root.duration``.  Without one every span counts (spans from
    several threads), and there is no ``unattributed`` entry.
    """
    selves = self_times(spans)
    by_id = {span.id: span for span in spans}
    if root is not None:
        keep = {root.id}
        for span in sorted(spans, key=lambda s: s.start):
            if span.parent in keep:
                keep.add(span.id)
        spans = [span for span in spans if span.id in keep]
    columns_in: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent else None
        if span.name == "core.columns" and parent is not None and (
                parent.name in ENGINE_SPANS):
            columns_in[parent.id] = (
                columns_in.get(parent.id, 0.0) + span.duration
            )
    table: dict[str, float] = {}

    def add(name: str, seconds: float) -> None:
        table[name] = table.get(name, 0.0) + seconds

    for span in spans:
        own = selves[span.id]
        if root is not None and span.id == root.id:
            add("unattributed", own)
            continue
        stages = span.args.get("stages")
        if span.name in ENGINE_SPANS and stages:
            inner_columns = columns_in.get(span.id, 0.0)
            split = 0.0
            for stage, seconds in stages.items():
                layer = STAGE_LAYERS.get(stage, f"stage.{stage}")
                if stage == "vectorize":
                    seconds -= inner_columns
                add(layer, seconds)
                split += seconds
            add(span.name, own - split)
            continue
        add(span.name, own)
    return table


def total(spans: list[Span], name: str, key: str | None = None) -> float:
    """Summed duration (or ``args[key]``) of every span called ``name``."""
    if key is None:
        return sum(span.duration for span in spans if span.name == name)
    return float(sum(span.args.get(key, 0) for span in spans
                     if span.name == name))


def render_ledger(table: dict[str, float], wall: float, title: str) -> str:
    """The layer table: self seconds, share of the wall, sorted."""
    lines = [f"{title}: wall {wall:.4f} s",
             f"  {'layer':<44}{'self s':>10}{'share':>9}"]
    for name, seconds in sorted(table.items(), key=lambda item: -item[1]):
        share = seconds / wall if wall else 0.0
        lines.append(f"  {name:<44}{seconds:>10.4f}{share:>8.1%}")
    accounted = sum(table.values())
    lines.append(f"  {'sum (self + unattributed)':<44}{accounted:>10.4f}"
                 f"{accounted / wall if wall else 0.0:>8.1%}")
    return "\n".join(lines)
