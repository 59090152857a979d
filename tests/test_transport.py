"""Unit tests for the zero-copy shard transport.

The lifecycle invariant under test: every segment a
:class:`SegmentRegistry` hands out -- reserved-then-created or
reserved-and-abandoned -- is reclaimed by the time ``close()`` returns,
on success and on every failure path.
"""

import os
import pickle

import numpy
import pytest

from repro.core import transport as transport_module
from repro.core.faults import FaultInjector, InjectedFault
from repro.core.transport import (
    SEGMENT_PREFIX,
    ArrayRef,
    SegmentRegistry,
    Slab,
    SlabRef,
    publish_result_bytes,
    resolve_transport,
    shm_available,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="host has no usable /dev/shm"
)

ZERO_COPY = ["shm", "memmap"] if shm_available() else ["memmap"]


def _registry(transport, tmp_path, injector=None):
    return SegmentRegistry(transport, str(tmp_path), injector)


def _publish(registry, data):
    """The worker half of the handshake: fill a driver-reserved name."""
    return publish_result_bytes(
        registry.transport, registry.directory, registry.reserve(), data
    )


def _pack(arrays):
    """Concatenate arrays into one buffer; returns (bytes, array refs)."""
    refs, chunks, offset = [], [], 0
    for array in arrays:
        raw = numpy.ascontiguousarray(array).tobytes()
        refs.append(ArrayRef(offset, int(array.size), array.dtype.str))
        chunks.append(raw)
        offset += len(raw)
    return b"".join(chunks), refs


class TestResolveTransport:
    def test_known_transports_resolve(self):
        expected = "shm" if transport_module.shm_available() else "memmap"
        assert resolve_transport() == expected

    def test_falls_back_to_memmap_without_shm(self, monkeypatch):
        monkeypatch.setattr(transport_module, "shm_available", lambda: False)
        assert resolve_transport() == "memmap"


class TestBytesRoundtrip:
    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_publish_consume_roundtrip(self, transport, tmp_path):
        payload = pickle.dumps({"answer": 42, "blob": b"\x00" * 4096})
        with _registry(transport, tmp_path) as registry:
            ref = _publish(registry, payload)
            assert ref.transport == transport
            assert ref.size == len(payload)
            assert registry.consume_bytes(ref) == payload

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_empty_payload_roundtrip(self, transport, tmp_path):
        with _registry(transport, tmp_path) as registry:
            ref = _publish(registry, b"")
            assert registry.consume_bytes(ref) == b""

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_worker_published_result_roundtrip(self, transport, tmp_path):
        """The reserve-in-driver / publish-in-worker handshake."""
        data = b"shard result bytes" * 100
        with _registry(transport, tmp_path) as registry:
            name = registry.reserve()
            ref = publish_result_bytes(
                transport, registry.directory, name, data
            )
            assert ref.name == name
            assert registry.consume_bytes(ref) == data


class TestArraySlabs:
    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_arrays_roundtrip_byte_identical(self, transport, tmp_path):
        arrays = [
            numpy.arange(17, dtype=numpy.int64),
            numpy.array([], dtype=numpy.int64),
            numpy.linspace(0.0, 1.0, 9),
            numpy.arange(5, dtype=numpy.int32),
        ]
        data, refs = _pack(arrays)
        with _registry(transport, tmp_path) as registry:
            slab = Slab(_publish(registry, data))
            try:
                for original, ref in zip(arrays, refs):
                    view = slab.array(ref)
                    assert view.dtype == original.dtype
                    numpy.testing.assert_array_equal(view, original)
            finally:
                view = None  # drop the last live view before detaching
                slab.close()

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_views_are_read_only(self, transport, tmp_path):
        data, refs = _pack([numpy.arange(4, dtype=numpy.int64)])
        with _registry(transport, tmp_path) as registry:
            slab = Slab(_publish(registry, data))
            try:
                view = slab.array(refs[0])
                with pytest.raises(ValueError):
                    view[0] = 99
            finally:
                view = None  # drop the live view before detaching
                slab.close()


class TestLifecycle:
    def _litter(self, tmp_path):
        litter = []
        if os.path.isdir("/dev/shm"):
            litter += [
                n for n in os.listdir("/dev/shm")
                if n.startswith(SEGMENT_PREFIX)
            ]
        for root, dirs, files in os.walk(tmp_path):
            litter += [os.path.join(root, f) for f in files]
        return litter

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_close_sweeps_unconsumed_segments(self, transport, tmp_path):
        registry = _registry(transport, tmp_path)
        _publish(registry, b"never consumed")
        _publish(registry, numpy.arange(8).tobytes())
        registry.close()
        assert self._litter(tmp_path) == []

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_reserved_but_never_created_names_are_fine(
        self, transport, tmp_path
    ):
        """A worker killed between reservation and creation leaves only
        a tracked name; the sweep must tolerate its absence."""
        registry = _registry(transport, tmp_path)
        registry.reserve()
        registry.reserve()
        registry.close()
        assert self._litter(tmp_path) == []

    @needs_shm
    def test_empty_segment_of_a_killed_worker_is_reclaimed(self, tmp_path):
        """A worker killed between creating its segment and sizing it
        leaves a zero-length object; the sweep must unlink it too."""
        import _posixshmem

        registry = _registry("shm", tmp_path)
        name = registry.reserve()
        fd = _posixshmem.shm_open(
            f"/{name}", os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
        )
        os.close(fd)
        registry.close()
        assert self._litter(tmp_path) == []

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_release_reclaims_a_published_segment(
        self, transport, tmp_path
    ):
        registry = _registry(transport, tmp_path)
        ref = _publish(registry, b"abandoned result")
        registry.release(ref.name)
        if transport == "shm":
            with pytest.raises(FileNotFoundError):
                Slab(ref)
        registry.close()
        assert self._litter(tmp_path) == []

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_close_is_idempotent(self, transport, tmp_path):
        registry = _registry(transport, tmp_path)
        _publish(registry, b"x")
        registry.close()
        registry.close()

    @pytest.mark.parametrize("transport", ZERO_COPY)
    def test_injected_unlink_fault_keeps_segment_tracked(
        self, transport, tmp_path
    ):
        """consume_bytes raising loses the result, never the segment:
        the final sweep still reclaims it."""
        injector = FaultInjector.from_spec("unlink:0:raise")
        registry = _registry(transport, tmp_path, injector)
        ref = _publish(registry, b"doomed")
        with pytest.raises(InjectedFault):
            registry.consume_bytes(ref, index=0)
        registry.close()
        assert self._litter(tmp_path) == []

    def test_registry_rejects_pickle(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentRegistry("pickle", str(tmp_path))


class TestAttachFaults:
    def test_memmap_ref_requires_directory(self):
        with pytest.raises(ValueError):
            Slab(SlabRef("memmap", "nope", 3, None))
