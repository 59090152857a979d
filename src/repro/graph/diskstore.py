"""Out-of-core graph store: memory-mapped column slabs on disk.

:class:`DiskGraphStore` implements the full
:class:`~repro.graph.store.BaseGraphStore` contract over the slab files
of :mod:`repro.graph.slab`, so every discovery mode -- sequential,
incremental, parallel, memoized -- runs against graphs that never fit
in RAM.  The driver's resident set stays O(id arrays + merged schema):
node/edge *objects* are materialized only inside whichever process
consumes a shard, property payloads are unpickled row-by-row straight
out of the mapped heap, and the partition that backs ``plan_shards`` is
spilled to a scratch file whose byte ranges workers re-map read-only
(the ``"file"`` flavour of :class:`~repro.core.transport.SlabRef` --
the zero-copy transport extended all the way back to ingest).

Byte-identity with the in-memory backend is the design invariant, not
an aspiration: partitioning replays the exact
``random.Random(seed).shuffle`` over the same insertion-ordered id
list, edge bucketing is the same stable-argsort math over the mapped
source column, ``sample_nodes`` exploits the fact that
``random.Random(seed).sample`` chooses *positions* as a function of
population length only, and the columnize fast path remaps the store's
global interner ids to the per-batch dense ids the reference loops
would have assigned (``tests/test_diskstore.py`` property-tests all of
it across worker counts, chunkings and transports).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Sequence

import numpy

from repro.core.transport import ArrayRef, Slab, SlabRef
from repro.graph.io import IngestReport, stream_graph_jsonl
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.slab import (
    DEFAULT_SLAB_BYTES,
    SlabCorruptionError,
    SlabReader,
    SlabWriter,
    read_manifest,
)
from repro.graph.store import BaseGraphStore, ShardPartition

#: Rows per ingest chunk handed to the slab writer in one call.
INGEST_CHUNK_ROWS = 2048

_SCRATCH_DIR = "scratch"


class _SpilledPartition(ShardPartition):
    """A partition spilled to one scratch file, attached lazily per process.

    Holds only the :class:`SlabRef` plus per-shard :class:`ArrayRef`
    byte ranges; the mmap attachment happens on first use in whichever
    process reads a shard, so fork-inherited copies in pool workers map
    the file themselves instead of inheriting a parent attachment.
    """

    def __init__(
        self,
        ref: SlabRef,
        node_refs: list[ArrayRef],
        edge_refs: list[ArrayRef],
    ) -> None:
        super().__init__((), ())
        self.ref = ref
        self.node_refs = node_refs
        self.edge_refs = edge_refs
        self._slab: Slab | None = None

    def _attached(self) -> Slab:
        if self._slab is None:
            self._slab = Slab(self.ref)
        return self._slab

    def node_array(self, shard: int) -> numpy.ndarray:
        """Shard's node ids (read-only view into the mapped spill file)."""
        return self._attached().array(self.node_refs[shard])

    def edge_array(self, shard: int) -> numpy.ndarray:
        """Shard's edge ids (read-only view into the mapped spill file)."""
        return self._attached().array(self.edge_refs[shard])

    def close(self) -> None:
        """Detach this process's mapping (the file belongs to the store)."""
        if self._slab is not None:
            self._slab.close()
            self._slab = None


class SlabIngestError(RuntimeError):
    """A streaming ingest died mid-write, but the directory is resumable.

    Raised in place of the raw ``OSError`` (ENOSPC, I/O error, ...) so
    callers learn the one fact that matters: the slab directory is
    intact at its last committed manifest generation, and re-running the
    ingest with ``resume=True`` continues from there.

    Attributes:
        directory: The slab directory left at its last commit.
        source: The ingest source key (the input file path).
        committed_line: Last fully committed line of that source.
    """

    def __init__(
        self,
        message: str,
        *,
        directory: str | Path,
        source: str,
        committed_line: int,
    ) -> None:
        super().__init__(message)
        self.directory = str(directory)
        self.source = source
        self.committed_line = committed_line


class DiskGraphStore(BaseGraphStore):
    """Store contract implementation over an on-disk slab directory.

    The slab reader *is* the store's :attr:`columns`; sharding,
    columnization and the aggregations come from
    :class:`~repro.graph.store.BaseGraphStore`.  What is disk-specific
    lives here: opening (and checksum-verifying) the slabs, re-opening
    at a newer commit, the fingerprint, and spilling the partition to a
    scratch file that pool workers map themselves.

    ``verify=True`` (the default) runs the slab reader's open-time
    checksum pass; pass ``verify=False`` only when the directory was
    just verified out of band (e.g. straight after a scrub).
    """

    def __init__(self, directory: str | Path, verify: bool = True) -> None:
        super().__init__()
        self._directory = Path(directory)
        self._verify = verify
        self._reader = SlabReader(self._directory, verify=verify)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the stored graph (from the slab manifest)."""
        return self._reader.name

    @property
    def directory(self) -> Path:
        """The slab directory backing this store."""
        return self._directory

    @property
    def reader(self) -> SlabReader:
        """The underlying slab reader (mapped columns)."""
        return self._reader

    @property
    def columns(self) -> SlabReader:
        """The mapped slab columns (the reader of the open commit)."""
        return self._reader

    def journal_fingerprint(self) -> dict[str, str] | None:
        """Durable slab state, recorded in checkpoint/journal context."""
        return {"slab": self._reader.fingerprint}

    def refresh(self) -> None:
        """Re-open at the latest commit (picks up appended segments)."""
        self.close()
        self._reader = SlabReader(self._directory, verify=self._verify)

    def close(self) -> None:
        """Release every mapping held by this process."""
        self._drop_caches()
        self._reader.close()

    def __enter__(self) -> "DiskGraphStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scans and point lookups
    # ------------------------------------------------------------------
    def scan_nodes(self) -> Iterator[Node]:
        """Stream all nodes in insertion order."""
        return self._reader.iter_nodes()

    def scan_edges(self) -> Iterator[Edge]:
        """Stream all edges in insertion order."""
        return self._reader.iter_edges()

    def count_nodes(self) -> int:
        """Total number of nodes."""
        return self._reader.node_count

    def count_edges(self) -> int:
        """Total number of edges."""
        return self._reader.edge_count

    def node(self, node_id: int) -> Node:
        """Point lookup of a node (``KeyError`` when absent)."""
        row = self._node_rows(numpy.asarray([node_id], dtype=numpy.int64))
        return self._reader.node_at(int(row[0]))

    def edge(self, edge_id: int) -> Edge:
        """Point lookup of an edge (``KeyError`` when absent)."""
        row = self._edge_rows(numpy.asarray([edge_id], dtype=numpy.int64))
        return self._reader.edge_at(int(row[0]))

    # ------------------------------------------------------------------
    # Spilled partition
    # ------------------------------------------------------------------
    def _hold_partition(
        self,
        num_shards: int,
        seed: int,
        shuffle: bool,
        nodes_by_shard_ids: Sequence[numpy.ndarray],
        edges_by_shard_ids: Sequence[numpy.ndarray],
    ) -> ShardPartition:
        """Write per-shard id arrays to one scratch file, keep byte ranges.

        Forked workers then inherit only the tiny :class:`SlabRef` plus
        byte ranges and map the file themselves.  The file is written to
        a temp name and atomically renamed, so a partition file is always
        complete; workers that mapped an older file for the same key keep
        reading their (replaced) inode.
        """
        scratch = self._directory / _SCRATCH_DIR
        scratch.mkdir(parents=True, exist_ok=True)
        file_name = f"partition-{num_shards}-{seed}-{int(shuffle)}.bin"
        refs: list[ArrayRef] = []
        offset = 0
        tmp_path = scratch / (file_name + ".tmp")
        with tmp_path.open("wb") as handle:
            for array in (*nodes_by_shard_ids, *edges_by_shard_ids):
                contiguous = numpy.ascontiguousarray(
                    array, dtype=numpy.int64
                )
                refs.append(
                    ArrayRef(offset, int(contiguous.size), contiguous.dtype.str)
                )
                raw = contiguous.tobytes()
                handle.write(raw)
                offset += len(raw)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, scratch / file_name)
        ref = SlabRef("file", file_name, offset, str(scratch))
        return _SpilledPartition(
            ref, refs[:num_shards], refs[num_shards:]
        )


# ----------------------------------------------------------------------
# Building slab directories
# ----------------------------------------------------------------------
def write_graph_to_slabs(
    graph: PropertyGraph,
    directory: str | Path,
    name: str | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
) -> DiskGraphStore:
    """Convert an in-memory graph into a slab directory.

    Convenience for tests, dataset generators and backend comparisons;
    large inputs should use :func:`ingest_jsonl_slabs` instead, which
    never holds the graph in RAM.
    """
    writer = SlabWriter(
        directory, name=name or graph.name, slab_bytes=slab_bytes
    )
    if writer.counts() != (0, 0):
        writer.reset()
    chunk: list[Node] = []
    for node in graph.nodes():
        chunk.append(node)
        if len(chunk) >= INGEST_CHUNK_ROWS:
            writer.add_nodes(chunk)
            chunk.clear()
    if chunk:
        writer.add_nodes(chunk)
    edge_chunk: list[Edge] = []
    for edge in graph.edges():
        edge_chunk.append(edge)
        if len(edge_chunk) >= INGEST_CHUNK_ROWS:
            writer.add_edges(edge_chunk)
            edge_chunk.clear()
    if edge_chunk:
        writer.add_edges(edge_chunk)
    writer.commit()
    writer.close()
    return DiskGraphStore(directory)


class SlabIngestSink:
    """Streaming ingest target: chunks land on disk, commits by bytes.

    Implements the :class:`repro.graph.io.GraphSink` protocol over a
    :class:`SlabWriter` and commits the manifest (with the source's
    line-progress marker) whenever ``slab_bytes`` of payload has
    accumulated since the last commit -- the unit of crash recovery for
    a killed ingest.
    """

    def __init__(
        self, writer: SlabWriter, source_key: str, slab_bytes: int
    ) -> None:
        self._writer = writer
        self._source_key = source_key
        self._slab_bytes = slab_bytes

    def add_nodes(self, nodes: Sequence[Node]) -> list[tuple[int, str]]:
        """Append a node chunk; returns ``(position, reason)`` rejects."""
        return self._writer.add_nodes(nodes)

    def add_edges(self, edges: Sequence[Edge]) -> list[tuple[int, str]]:
        """Append an edge chunk; returns ``(position, reason)`` rejects."""
        return self._writer.add_edges(edges)

    def chunk_done(self, line_number: int) -> None:
        """Commit durably once enough bytes accumulated since the last."""
        if self._writer.uncommitted_bytes >= self._slab_bytes:
            self._writer.commit({self._source_key: line_number})

    def finish(self, line_number: int) -> None:
        """Final commit covering everything up to ``line_number``."""
        self._writer.commit({self._source_key: line_number})


def ingest_jsonl_slabs(
    path: str | Path,
    directory: str | Path,
    name: str | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    on_error: str = "raise",
    report: IngestReport | None = None,
    chunk_rows: int = INGEST_CHUNK_ROWS,
    resume: bool = False,
    faults: str | None = None,
) -> DiskGraphStore:
    """Stream a JSONL graph file straight into a slab directory.

    Rows land on disk in bounded chunks -- peak memory is one chunk
    plus the writer's ``slab_bytes`` buffer, independent of file size.
    With ``resume=True`` an interrupted ingest continues from the last
    committed line of the same source (earlier lines are skipped
    without parsing); otherwise any existing rows are discarded first.

    Accepts the loader ``on_error`` / ``report`` policy of
    :func:`repro.graph.io.load_graph_jsonl`; a resumed ingest reports
    only the resumed portion.  ``faults`` is a
    :class:`repro.core.faults.FaultPlan` spec for the writer's storage
    fault sites (tests/CI only).

    Raises:
        SlabIngestError: An ``OSError`` (ENOSPC, I/O error, ...) hit the
            write path.  The directory is left at its last committed
            manifest generation; rerun with ``resume=True`` to continue
            from :attr:`SlabIngestError.committed_line`.
    """
    path = Path(path)
    writer = SlabWriter(
        directory,
        name=name or path.stem,
        slab_bytes=slab_bytes,
        faults=faults,
    )
    source_key = str(path)
    if resume:
        start_line = writer.source_progress(source_key)
    else:
        if writer.counts() != (0, 0) or writer.source_progress(source_key):
            writer.reset()
        start_line = 0
    sink = SlabIngestSink(writer, source_key, slab_bytes)
    try:
        last_line = stream_graph_jsonl(
            path,
            sink,
            on_error=on_error,
            report=report,
            chunk_rows=chunk_rows,
            start_line=start_line,
            on_progress=sink.chunk_done,
        )
        sink.finish(max(last_line, start_line))
    except OSError as exc:
        writer.close()
        committed = _committed_progress(Path(directory), source_key)
        raise SlabIngestError(
            f"{path}: ingest failed mid-write ({exc}); {directory} is "
            f"intact at its last commit (line {committed} of this "
            f"source) -- rerun with resume=True to continue",
            directory=directory,
            source=source_key,
            committed_line=committed,
        ) from exc
    writer.close()
    return DiskGraphStore(directory)


def _committed_progress(directory: Path, source_key: str) -> int:
    """Durable line marker for one source (0 when unreadable/absent)."""
    try:
        manifest = read_manifest(directory)
    except (FileNotFoundError, SlabCorruptionError):
        return 0
    return int(manifest.get("sources", {}).get(source_key, 0))


def is_slab_directory(path: str | Path) -> bool:
    """Whether ``path`` looks like a slab directory (has a manifest)."""
    return (Path(path) / "manifest.json").is_file()


__all__ = [
    "DiskGraphStore",
    "SlabIngestError",
    "SlabIngestSink",
    "ingest_jsonl_slabs",
    "is_slab_directory",
    "write_graph_to_slabs",
]
