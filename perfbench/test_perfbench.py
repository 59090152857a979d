"""Tests of the benchmark's own checks and bookkeeping.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import batches, check_admits, f1_scores
from layers import ledger
from run import tail
from serve import Tally, check_served, make_inputs
from spans import Span, Tracer, self_times
from speed import NOMINAL_MS, HostSpeed, local_factor, nominal
from workloads import SERVE_WORKLOAD, generate

from repro.core.pipeline import PGHive
from repro.graph.store import GraphStore
from repro.schema.persist import schema_to_dict

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def discovered():
    data = generate("LDBC", 0.5, 1.0, 0.0, seed=3)
    result = PGHive().discover(GraphStore(data.graph))
    nodes, edges = list(data.graph.nodes()), list(data.graph.edges())
    labels = {node.id: node.labels for node in nodes}
    return data, result.schema, nodes, edges, labels


def test_discovered_schema_admits_its_graph(discovered):
    data, schema, nodes, edges, labels = discovered
    parts = batches(nodes, edges, len(nodes), len(edges), 200)
    outcome = check_admits(schema, parts, labels)
    assert outcome.passed
    assert outcome.checked == len(nodes) + len(edges)
    assert len(outcome.latencies_ms) > 1


def test_planted_missing_property_fails_the_check(discovered):
    data, schema, nodes, edges, labels = discovered
    planted = copy.deepcopy(schema)
    node_type = next(t for t in planted.node_types.values() if t.properties)
    node_type.properties.pop(sorted(node_type.properties)[0])
    parts = batches(nodes, edges, len(nodes), len(edges), 1600)
    outcome = check_admits(planted, parts, labels)
    assert not outcome.passed
    assert outcome.violations > 0 and outcome.first_violations


def test_planted_missing_edge_type_fails_the_check(discovered):
    data, schema, nodes, edges, labels = discovered
    planted = copy.deepcopy(schema)
    planted.remove_edge_type(sorted(planted.edge_types)[0])
    parts = batches(nodes, edges, len(nodes), len(edges), 1600)
    assert not check_admits(planted, parts, labels).passed


def test_f1_detects_merged_types(discovered):
    data, schema, *_ = discovered
    truth = (data.truth.node_types, data.truth.edge_types)
    assert f1_scores(schema, *truth) == (1.0, 1.0)
    planted = copy.deepcopy(schema)
    first, second = sorted(planted.node_types)[:2]
    planted.node_types[first].members.extend(
        planted.node_types[second].members)
    planted.node_types[second].members.clear()
    assert f1_scores(planted, *truth)[0] < 1.0


def test_served_check_fails_on_planted_schema_and_failed_ticket(
        discovered, tmp_path):
    spec = SERVE_WORKLOAD.__class__(**{
        **SERVE_WORKLOAD.__dict__, "scale": 0.5, "batches": 4,
        "heldout_scale": 0.2})
    inputs = make_inputs(spec, seed=3)
    _, schema, *_ = discovered
    good = Tally(pass_s=[1.0], ticket_ms=[1.0] * len(inputs.batches),
                 served_schemas=[schema_to_dict(schema, False)])
    assert check_served(inputs, good, tmp_path).problems == []

    planted = copy.deepcopy(schema)
    planted.remove_node_type(sorted(planted.node_types)[0])
    bad_schema = Tally(pass_s=[1.0], ticket_ms=[1.0] * len(inputs.batches),
                       served_schemas=[schema_to_dict(planted, False)])
    assert check_served(inputs, bad_schema, tmp_path).problems

    failed_ticket = Tally(pass_s=[1.0],
                          ticket_ms=[1.0] * (len(inputs.batches) - 1),
                          tickets_failed=1,
                          served_schemas=[schema_to_dict(schema, False)])
    assert len(check_served(inputs, failed_ticket, tmp_path).problems) == 2


def test_batches_cover_every_element_once():
    nodes, edges = list(range(10)), list(range(100, 131))
    parts = list(batches(iter(nodes), iter(edges), 10, 31, 8))
    assert [n for part, _ in parts for n in part] == nodes
    assert [e for _, part in parts for e in part] == edges
    assert all(len(n) + len(e) <= 9 for n, e in parts)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = tail([float(i) for i in range(100)])
    assert (value, count) == (89.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10
    assert percentile == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(i) for i in range(16)]) == (15.0, 100.0, 16)
    # Beyond 200 samples, 200 evenly spaced ones are used.
    assert tail([float(i) for i in range(1000)]) == (945.0, 95.0, 200)


def test_times_are_scaled_by_the_reference_samples_near_them():
    # The host ran at nominal speed until t=10 s, then at half speed.
    samples = [(float(t), NOMINAL_MS) for t in range(10)] + [
        (float(t), 2 * NOMINAL_MS) for t in range(10, 20)]
    fast, slow, far = nominal(
        [(3.0, 4.0, 100.0), (14.0, 15.0, 200.0), (40.0, 41.0, 200.0)],
        samples)
    assert fast == pytest.approx(100.0)
    assert slow == pytest.approx(100.0)
    # No sample within the window: the closest ones scale it.
    assert far == pytest.approx(100.0)
    assert local_factor(2.0, 6.0, samples) == pytest.approx(1.0)
    assert local_factor(12.0, 16.0, samples) == pytest.approx(0.5)


def test_reference_samples_are_recorded_with_their_time():
    speed = HostSpeed()
    speed.sample(2)
    assert len(speed.samples) == 2
    assert speed.samples[0][0] <= speed.samples[1][0]
    assert all(ms > 0 for _, ms in speed.samples)


def test_ledger_self_times_sum_to_the_root_wall():
    spans = [
        Span(1, "iteration", 0.0, 10.0, None, "t", "main"),
        Span(2, "core.incremental.process_batch", 1.0, 7.0, 1, "t", "main",
             {"stages": {"embed": 1.0, "vectorize": 2.0, "merge": 1.5}}),
        Span(3, "core.columns", 2.0, 3.0, 2, "t", "main"),
        Span(4, "graph.io.load", 7.5, 9.0, 1, "t", "main"),
    ]
    assert self_times(spans)[2] == pytest.approx(5.0)
    table = ledger(spans, spans[0])
    assert sum(table.values()) == pytest.approx(10.0)
    assert table["core.vectorize"] == pytest.approx(1.0)
    assert table["core.columns"] == pytest.approx(1.0)
    assert table["core.incremental.process_batch"] == pytest.approx(1.5)
    assert table["unattributed"] == pytest.approx(2.5)


def test_tracer_patches_and_restores():
    import checks

    tracer = Tracer(run="t")
    original = checks.validate_batch
    with tracer.patched([(checks, "validate_batch",
                          lambda fn: tracer.wrap(fn, "schema.validate")),
                         (checks, "no_such_function", lambda fn: fn)]):
        assert checks.validate_batch is not original
    assert checks.validate_batch is original
    assert tracer.missing_hooks == ["checks.no_such_function"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unlabeled-incremental",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

