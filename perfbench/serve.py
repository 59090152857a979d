"""The ``serve-mixed`` workload: a daemon and a closed-loop client.

The daemon (``daemon.py``, i.e. ``pghive serve --port 0``) runs in its
own process.  One client process with one thread and one connection
drives it, sending each request only after the previous one returned.
Per pass it creates a fresh session and posts the whole graph as
``batches`` bodies; after each post it polls the ticket every
``poll_seconds`` until it reads done, then posts one held-out validate
body (noisy, partly unlabeled) to the session, or, every
``schema_every``-th time, GETs the ``format=json`` schema instead.

After each pass the session's post-processed, serialized schema
(``format=pgschema``) is read ``pgschema_reads`` times.  Once the time
is up, the last session's JSON schema document is kept for the checks.

The host-speed reference (``speed.py``) is timed after every
``speed_every``-th batch and before each pgschema read, once the daemon
has had ``SETTLE_SECONDS`` to finish its last request.  The pass time
is the ingest time alone: it leaves out the validate requests and these
pauses.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import AdmissionCheck, batches, check_admits, f1_scores
from spans import Tracer
from speed import HostSpeed, reference
from workloads import ServeWorkload, batch_bodies, generate

from repro.core.incremental import IncrementalDiscovery
from repro.schema.persist import load_checkpoint, schema_from_dict
from repro.server.models import parse_edges, parse_nodes

LISTENING = re.compile(r"listening on http://([^:]+):(\d+) ")
#: Idle time before host-speed samples, so the daemon is idle for them.
SETTLE_SECONDS = 0.05


@dataclass
class Inputs:
    """Everything the client sends, built from the seed."""

    batches: list[bytes]
    heldout: list[bytes]
    node_truth: dict[int, str]
    edge_truth: dict[int, str]
    elements: int


def make_inputs(spec: ServeWorkload, seed: int) -> Inputs:
    """Batch bodies of the labeled graph, and held-out validate bodies.

    The held-out graph comes from the next seed, with noise and stripped
    labels, so validation also runs its per-row and no-type paths.
    """
    data = generate(spec.dataset, spec.scale, 1.0, 0.0, seed)
    heldout = generate(spec.dataset, spec.heldout_scale,
                       spec.heldout_label_availability,
                       spec.heldout_property_noise, seed + 1)
    pieces = max(1, round((heldout.graph.num_nodes + heldout.graph.num_edges)
                          / spec.validate_elements))
    return Inputs(
        batches=batch_bodies(data, spec.batches, seed),
        heldout=batch_bodies(heldout, pieces, seed, validate_mode="STRICT"),
        node_truth=dict(data.truth.node_types),
        edge_truth=dict(data.truth.edge_types),
        elements=data.graph.num_nodes + data.graph.num_edges,
    )


class Daemon:
    """A ``pghive serve`` child process on an ephemeral port."""

    def __init__(self, root: Path, work: Path, trace_out: Path | None,
                 checkpoints: Path, checkpoint_every: int) -> None:
        self.log_path = work / f"daemon-{time.monotonic_ns()}.log"
        command = [sys.executable, str(root / "perfbench" / "daemon.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "serve", "--port", "0",
                    "--checkpoint-dir", str(checkpoints),
                    "--checkpoint-every", str(checkpoint_every)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(work))
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        self.rusage_maxrss_kb = 0
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = LISTENING.search(self.log_path.read_text("utf-8",
                                                             "replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        raise RuntimeError(
            f"daemon did not start: {self.log_path.read_text()[-2000:]}")

    def stop(self, client: "Client") -> None:
        """``POST /shutdown``, then reap the process and its peak RSS."""
        try:
            client.request("POST", "/shutdown", b"{}")
        except (OSError, http.client.HTTPException):
            pass  # the daemon may close the connection as it exits
        self.reap(timeout=30.0)

    def reap(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
                return
            time.sleep(0.02)
        self.kill()

    def kill(self) -> None:
        """SIGKILL and reap, unless already reaped.  ``os.kill`` is used,
        not ``Popen.send_signal``, which would reap the process itself
        and lose its resource usage."""
        if self.process.returncode is None:
            os.kill(self.process.pid, signal.SIGKILL)
            _, status, usage = os.wait4(self.process.pid, 0)
            self._reaped(status, usage)

    def _reaped(self, status: int, usage: "resource.struct_rusage") -> None:
        self.rusage_maxrss_kb = usage.ru_maxrss
        self.process.returncode = os.waitstatus_to_exitcode(status)


class Client:
    """One keep-alive HTTP connection (one per client thread)."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.last_bytes = 0

    def request(self, method: str, path: str, body: bytes | None = None
                ) -> tuple[int, dict[str, Any]]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        payload = response.read()
        self.last_bytes = len(payload)
        return response.status, json.loads(payload) if payload else {}

    def close(self) -> None:
        self.connection.close()


@dataclass
class Tally:
    """What the client threads observed."""

    attempted: int = 0
    failed: int = 0
    refused_503: int = 0
    ticket_ms: list[float] = field(default_factory=list)
    ticket_at: list[float] = field(default_factory=list)  # perf_counter
    process_ms: list[float] = field(default_factory=list)
    polls: list[int] = field(default_factory=list)
    reused: int = 0
    pgschema_bytes: int = 0
    tickets_failed: int = 0
    pass_s: list[float] = field(default_factory=list)  # ingest time only
    pass_at: list[tuple[float, float]] = field(default_factory=list)
    pass_elements: int = 0
    pgschema_ms: list[float] = field(default_factory=list)
    pgschema_at: list[float] = field(default_factory=list)
    speed: list[tuple[float, float]] = field(default_factory=list)
    validate_ms: list[float] = field(default_factory=list)
    validate_at: list[float] = field(default_factory=list)
    schema_get_ms: list[float] = field(default_factory=list)
    schema_get_at: list[float] = field(default_factory=list)
    served_schemas: list[dict[str, Any]] = field(default_factory=list)
    sessions: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def drop_samples(self) -> None:
        """Forget the timed samples so far (a warm-up's); counts stay."""
        for name, value in vars(Tally()).items():
            if isinstance(value, list) and name not in ("sessions", "errors"):
                setattr(self, name, value)
        self.reused = self.pass_elements = 0

    def op(self, status: int, what: str) -> bool:
        """Count one operation; returns whether it succeeded."""
        self.attempted += 1
        if 200 <= status < 300:
            return True
        self.failed += 1
        if status == 503:
            self.refused_503 += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: HTTP {status}")
        return False


class Loop:
    """The client: one thread, one connection, one request at a time."""

    def __init__(self, spec: ServeWorkload, inputs: Inputs, daemon: Daemon,
                 seconds: float, tracer: Tracer) -> None:
        self.spec = spec
        self.tracer = tracer
        self.inputs = inputs
        self.daemon = daemon
        self.seconds = seconds
        self.tally = Tally()
        self.speed = HostSpeed()
        self.requests = 0  # validate-side requests sent

    def run(self) -> Tally:
        client = Client(self.daemon.host, self.daemon.port)
        try:
            session = self._ingest_loop(client)
            if session is not None:
                status, payload = client.request(
                    "GET", f"/sessions/{session}/schema?format=json")
                if self.tally.op(status, "get json schema"):
                    self.tally.served_schemas.append(payload["schema"])
        finally:
            client.close()
        self.tally.speed = self.speed.samples
        return self.tally

    def _settled_sample(self) -> None:
        """Two reference samples once the daemon has freed what its last
        response left behind, after one untimed call."""
        time.sleep(SETTLE_SECONDS)
        reference()
        self.speed.sample(2)

    def _read_schema(self, client: Client, session: str) -> None:
        """Time ``pgschema_reads`` reads of a whole pass's post-processed,
        serialized schema (``format=pgschema``)."""
        tally = self.tally
        for _ in range(self.spec.pgschema_reads):
            self._settled_sample()
            begin = time.perf_counter()
            with self.tracer.span("client.get_pgschema"):
                status, _ = client.request(
                    "GET", f"/sessions/{session}/schema?format=pgschema")
            if tally.op(status, "get pgschema"):
                tally.pgschema_ms.append((time.perf_counter() - begin) * 1e3)
                tally.pgschema_at.append(begin)
                tally.pgschema_bytes = client.last_bytes

    def _ingest_loop(self, client: Client) -> str | None:
        """Passes of fresh sessions until the time is up; returns the last
        session's name.  The first pass warms the daemon up: its requests
        are counted and checked, but not timed, and the time budget starts
        after it."""
        tally = self.tally
        started = time.perf_counter()
        longest = 0.0
        session = None
        for number in itertools.count():
            name = f"pass{number}"
            status, _ = client.request(
                "POST", "/sessions", json.dumps({"name": name}).encode())
            if not tally.op(status, "create session"):
                return session
            if session is not None:
                status, _ = client.request("DELETE", f"/sessions/{session}")
                tally.op(status, "delete session")
            session = name
            tally.sessions.append(name)
            pass_started = time.perf_counter()
            aside = 0.0  # validate requests and speed samples
            with self.tracer.span("client.pass", session=name):
                for index, body in enumerate(self.inputs.batches, 1):
                    self._post_batch(client, name, body)
                    begin = time.perf_counter()
                    self._validate(client, name)
                    if index % self.spec.speed_every == 0:
                        with self.tracer.span("client.speed_sample"):
                            self._settled_sample()
                    aside += time.perf_counter() - begin
            pass_seconds = time.perf_counter() - pass_started - aside
            tally.pass_s.append(pass_seconds)
            tally.pass_at.append((pass_started, time.perf_counter()))
            tally.pass_elements += self.inputs.elements
            self._read_schema(client, name)
            if number == 0:
                tally.drop_samples()
                started = time.perf_counter()
                continue
            longest = max(longest, time.perf_counter() - pass_started)
            if time.perf_counter() - started + longest > self.seconds:
                return session
        return session

    def _post_batch(self, client: Client, session: str, body: bytes) -> None:
        tally = self.tally
        poll = self.spec.poll_seconds
        begin = time.perf_counter()
        while True:
            with self.tracer.span("client.post_batch"):
                status, ticket = client.request(
                    "POST", f"/sessions/{session}/batches", body)
            if tally.op(status, "post batch"):
                break
            if status != 503:
                return
            time.sleep(poll)
        polls = 0
        while ticket.get("status") not in ("done", "failed"):
            time.sleep(poll)
            with self.tracer.span("client.poll"):
                status, ticket = client.request(
                    "GET", f"/tickets/{ticket['id']}")
            polls += 1
            if not tally.op(status, "poll ticket"):
                return
        elapsed_ms = (time.perf_counter() - begin) * 1e3
        if ticket["status"] != "done":
            tally.tickets_failed += 1
            tally.failed += 1
            tally.errors.append(f"ticket failed: {ticket.get('error')}")
            return
        tally.ticket_ms.append(elapsed_ms)
        tally.ticket_at.append(begin)
        tally.process_ms.append(ticket["report"]["seconds"] * 1e3)
        tally.polls.append(polls)
        tally.reused += bool(ticket["report"].get("embedder_reused"))

    def _validate(self, client: Client, session: str) -> None:
        """One held-out validate request, or every ``schema_every``-th
        time a ``format=json`` schema GET instead."""
        tally = self.tally
        self.requests += 1
        begin = time.perf_counter()
        if self.requests % self.spec.schema_every == 0:
            with self.tracer.span("client.get_schema"):
                status, _ = client.request(
                    "GET", f"/sessions/{session}/schema?format=json")
            samples, starts = tally.schema_get_ms, tally.schema_get_at
        else:
            body = self.inputs.heldout[self.requests
                                       % len(self.inputs.heldout)]
            with self.tracer.span("client.validate"):
                status, _ = client.request(
                    "POST", f"/sessions/{session}/validate", body)
            samples, starts = tally.validate_ms, tally.validate_at
        elapsed_ms = (time.perf_counter() - begin) * 1e3
        if tally.op(status, "validate/get schema"):
            samples.append(elapsed_ms)
            starts.append(begin)


@dataclass
class ServedCheck:
    """Correctness of one daemon run, plus the F1* of its first pass."""

    problems: list[str]
    node_f1: float
    edge_f1: float
    types: tuple[int, int]


def check_served(inputs: Inputs, tally: Tally, checkpoints: Path
                 ) -> ServedCheck:
    """Every ticket done; the served schema admits every ingested element.

    F1* comes from the session checkpoint the daemon writes after the
    last batch of a pass (``--checkpoint-every`` equals the batch count),
    the only place the daemon exposes type members.
    """
    problems = []
    if tally.tickets_failed:
        problems.append(f"{tally.tickets_failed} tickets did not reach done")
    if len(tally.ticket_ms) != len(tally.pass_s) * len(inputs.batches):
        problems.append("not every posted batch has a done ticket")
    nodes, edges = [], []
    for body in inputs.batches:
        record = json.loads(body)
        nodes.extend(parse_nodes(record["nodes"]))
        edges.extend(parse_edges(record["edges"]))
    labels = {node.id: node.labels for node in nodes}
    admission = AdmissionCheck()
    for served in tally.served_schemas:
        admission.merge(check_admits(
            schema_from_dict(served),
            batches(nodes, edges, len(nodes), len(edges), 1600), labels))
    if not tally.served_schemas:
        problems.append("no served schema to check")
    elif not admission.passed:
        problems.append(f"served schema rejects {admission.violations} "
                        f"ingested elements: {admission.first_violations}")
    node_f1 = edge_f1 = 0.0
    types = (0, 0)
    if tally.sessions:
        path = IncrementalDiscovery.checkpoint_path(
            checkpoints / "sessions" / tally.sessions[0])
        schema, _ = load_checkpoint(path)
        node_f1, edge_f1 = f1_scores(schema, inputs.node_truth,
                                     inputs.edge_truth)
        types = (len(schema.node_types), len(schema.edge_types))
    return ServedCheck(problems, node_f1, edge_f1, types)
