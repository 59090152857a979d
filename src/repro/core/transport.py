"""Shard transport: pool results return through named shared segments.

Pickling per-shard schemas back through the process-pool pipe pushes
every byte through a byte stream -- at LDBC scale 32 a run moved
~2.7 MB through it.  This module replaces the pipe with *named shared
segments*: the driver *reserves* a segment name per task, the worker
creates the segment and writes its pickled results into it, and only a
tiny :class:`SlabRef` (name, size) crosses the pipe back.

A segment is a POSIX shared-memory object (``"shm"``) or, on hosts
without working shared memory, a plain file under a scratch directory
(``"memmap"``).  :func:`resolve_transport` picks between the two from
what the host can do; nothing else chooses.  The same :class:`Slab`
reader also maps the disk store's partition files (``"file"`` refs) and
hands out read-only ``numpy.frombuffer`` views at :class:`ArrayRef`
offsets -- no copy, no unpickling.

Cleanup protocol
----------------
Segment lifetime is owned entirely by the driver through a
:class:`SegmentRegistry` context manager.  Every name is tracked from
the moment the driver reserves it for a worker; a segment is untracked
only once it has been successfully unlinked.  On any exit path
(success, task failure, ``BrokenProcessPool`` respawn, SIGKILL of a hung
pool, an exception in the driver itself) the registry's ``close()``
sweeps every still-tracked name, ignoring the ones a crashed worker
never got to create.  The shared-memory
``resource_tracker`` cooperates: parent and forked workers share one
tracker process, its registry has set semantics, and a single unlink
unregisters a name no matter how many processes attached to it, so the
driver-side sweep leaves nothing for the tracker to warn about.

Fault site
----------
``unlink`` fires in the driver before consuming a result segment (the
result is lost, the shard re-runs, and the final sweep still reclaims
the segment).  ``tests/test_recovery.py`` exercises it under the
leak-check fixture.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy

from repro.core.faults import FaultInjector

__all__ = [
    "ArrayRef",
    "SegmentRegistry",
    "Slab",
    "SlabRef",
    "publish_result_bytes",
    "resolve_transport",
    "shm_available",
]

#: Name prefix of every segment (and memmap scratch directory) this
#: module creates; the test suite's leak fixture greps for it.
SEGMENT_PREFIX = "pghive"


def shm_available() -> bool:
    """Whether POSIX shared memory actually works on this host.

    Probes by creating and unlinking a tiny segment: containers mounting
    a read-only or absent ``/dev/shm`` fail here rather than mid-run.
    """
    try:
        segment = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    segment.close()
    segment.unlink()
    return True


def resolve_transport() -> str:
    """The segment kind this host supports: ``shm``, else ``memmap``.

    Shared memory is preferred; hosts without a usable ``/dev/shm`` fall
    back to memmap files, which always work.
    """
    return "shm" if shm_available() else "memmap"


@dataclass(frozen=True)
class SlabRef:
    """Pipe-sized handle to one shared segment.

    Attributes:
        transport: ``"shm"``, ``"memmap"`` or ``"file"``.
        name: Segment name (shm) or file name inside ``directory``.
        size: Logical payload size in bytes (shm rounds segments up to a
            page, so readers slice to this).
        directory: The memmap scratch (or ``"file"`` owner) directory;
            ``None`` for shm.

    The ``"file"`` transport is the store-owned flavour: the ref points
    at a plain file managed by its creator (the disk store's partition
    spill), attachable exactly like a memmap segment but *never* tracked
    or unlinked by a :class:`SegmentRegistry` -- lifetime belongs to the
    store, so a ref can be attached by any number of pool runs.
    """

    transport: str
    name: str
    size: int
    directory: str | None = None


@dataclass(frozen=True)
class ArrayRef:
    """Location of one array inside a slab: offset, length, dtype."""

    offset: int
    count: int
    dtype: str


class Slab:
    """A read-side attachment to a shared segment.

    Provides zero-copy ``numpy.frombuffer`` views at :class:`ArrayRef`
    offsets.  Views are marked read-only: several workers may map the
    same slab concurrently, and the driver's copy is the only mutable
    one.  ``close()`` tolerates still-exported views (a worker that
    retained a view simply keeps the mapping alive until the view dies;
    the driver-side *unlink* is what reclaims the segment name).
    """

    def __init__(self, ref: SlabRef) -> None:
        self.ref = ref
        self._shm: shared_memory.SharedMemory | None = None
        self._mmap: mmap.mmap | None = None
        self._buffer: memoryview | bytes
        if ref.transport == "shm":
            self._shm = shared_memory.SharedMemory(name=ref.name)
            self._buffer = self._shm.buf
        elif ref.transport in ("memmap", "file"):
            if ref.directory is None:
                raise ValueError(
                    f"{ref.transport} SlabRef carries no directory"
                )
            path = os.path.join(ref.directory, ref.name)
            if ref.size == 0:
                self._buffer = b""
            else:
                with open(path, "rb") as handle:
                    self._mmap = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                self._buffer = memoryview(self._mmap)
        else:
            raise ValueError(f"cannot attach transport {ref.transport!r}")

    def array(self, ref: ArrayRef) -> numpy.ndarray:
        """Read-only view of the array at ``ref`` (no copy for shm)."""
        view = numpy.frombuffer(
            self._buffer,
            dtype=numpy.dtype(ref.dtype),
            count=ref.count,
            offset=ref.offset,
        )
        view.flags.writeable = False
        return view

    def read_bytes(self) -> bytes:
        """The slab's logical payload as bytes (copies once)."""
        return bytes(self._buffer[: self.ref.size])

    def close(self) -> None:
        """Detach; never unlinks (the driver's registry owns names)."""
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                # A live numpy view still exports the buffer; the
                # mapping is reclaimed when the view is garbage
                # collected, and the segment name by the driver sweep.
                pass
            self._shm = None
        if self._mmap is not None:
            if isinstance(self._buffer, memoryview):
                try:
                    self._buffer.release()
                except BufferError:
                    pass
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None


def publish_result_bytes(
    transport: str, directory: str | None, name: str, data: bytes
) -> SlabRef:
    """Worker-side: create the driver-reserved segment and fill it.

    The driver never learns more than the name it reserved plus the
    size; a worker killed between reservation and creation leaves
    nothing behind, and one killed after creation leaves a segment the
    driver's sweep reclaims by name.
    """
    if transport == "shm":
        segment = shared_memory.SharedMemory(
            create=True, name=name, size=max(len(data), 1)
        )
        segment.buf[: len(data)] = data
        segment.close()
    elif transport == "memmap":
        if directory is None:
            raise ValueError("memmap transport requires a scratch directory")
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
    else:
        raise ValueError(f"cannot publish through transport {transport!r}")
    return SlabRef(transport, name, len(data), directory)


class SegmentRegistry:
    """Driver-side owner of every segment of one pool run.

    Context manager: ``close()`` (or ``__exit__``) unlinks every
    still-tracked segment -- including names that were only *reserved*
    for workers that crashed before creating them -- and removes the
    memmap scratch directory.  Tracking is by name; a name leaves the
    registry only on successful unlink, so no exit path can leak.
    """

    def __init__(
        self,
        transport: str,
        directory: str | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if transport not in ("shm", "memmap"):
            raise ValueError(
                f"SegmentRegistry handles shm/memmap, got {transport!r}"
            )
        self.transport = transport
        self.injector = injector
        self._counter = 0
        self._tracked: set[str] = set()
        self._closed = False
        self.directory: str | None = None
        if transport == "memmap":
            root = directory or tempfile.gettempdir()
            os.makedirs(root, exist_ok=True)
            self.directory = tempfile.mkdtemp(
                prefix=f"{SEGMENT_PREFIX}-mm-", dir=root
            )

    def reserve(self) -> str:
        """Reserve (and track) a name for a worker-created segment."""
        self._counter += 1
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{self._counter}"
        self._tracked.add(name)
        return name

    def consume_bytes(self, ref: SlabRef, index: int = 0) -> bytes:
        """Read a worker-created segment, then unlink it.

        Fires the ``unlink`` fault site first: an injected failure here
        loses the result (the shard re-runs) but never the segment --
        it stays tracked and the final sweep reclaims it.
        """
        if self.injector is not None:
            self.injector.fire("unlink", index)
        slab = Slab(ref)
        try:
            data = slab.read_bytes()
        finally:
            slab.close()
        self._unlink(ref.name)
        self._tracked.discard(ref.name)
        return data

    def release(self, name: str) -> None:
        """Unlink one tracked segment (missing segments are fine)."""
        self._unlink(name)
        self._tracked.discard(name)

    def _unlink(self, name: str) -> None:
        if self.transport == "shm":
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return  # reserved but never created, or already gone
            except ValueError:
                # A worker killed between creating the segment and
                # sizing it leaves an empty object, which SharedMemory
                # cannot map; unlink its file under /dev/shm instead.
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except FileNotFoundError:
                    pass
                return
            segment.close()
            segment.unlink()
        else:
            if self.directory is None:
                return
            try:
                os.unlink(os.path.join(self.directory, name))
            except FileNotFoundError:
                return

    def close(self) -> None:
        """Sweep every tracked segment and the memmap scratch dir."""
        if self._closed:
            return
        self._closed = True
        for name in sorted(self._tracked):
            try:
                self._unlink(name)
            except OSError:  # pragma: no cover - sweep is best-effort
                continue
        self._tracked.clear()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
