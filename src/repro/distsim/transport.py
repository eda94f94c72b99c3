"""Zero-copy payload transport between the executor and its site workers.

The resident process executor talks to its workers over
``multiprocessing`` pipes.  Naive ``Connection.send`` pickles with
protocol 3-ish defaults and copies every bulky value through the pickle
stream; this module layers **pickle protocol-5 out-of-band buffers**
on top of the raw pipe instead:

* the payload skeleton (tuples, strings, small ints, small blobs) is
  pickled once, with every :class:`pickle.PickleBuffer` inside it --
  the large encoded triplets, see
  :func:`repro.core.vectors.compact_with_buffers` -- collected by the
  ``buffer_callback`` instead of being serialized;
* small buffer totals ride the pipe as separate ``send_bytes`` frames
  (``recv_bytes`` hands each back as one contiguous ``bytes`` object
  that is used *directly* as the pickle buffer -- no re-copy through
  the unpickler);
* totals at or above :data:`SHM_THRESHOLD_BYTES` ride **one**
  ``multiprocessing.shared_memory`` segment: the sender copies each
  buffer into the mapping and ships only ``(name, offsets)``, so the
  bulk bytes never enter the pipe at all (pipes bounce through a
  small kernel buffer, one syscall round per ~64KB).  The receiver
  makes one bulk copy out of the mapping before unlinking it --
  detaching from the segment's lifetime is what lets the receiver
  decode lazily without holding the mapping open.

Frames are tagged with one leading byte: ``0`` (no buffers), ``P``
(buffers follow on the pipe) or ``S`` (buffers in shared memory).
Both directions of the executor's strict request-reply protocol use
the same two functions, as does any test driving a worker by hand.

On top of single-payload frames sits **batched submission**:
:class:`SubmissionQueue` coalesces every message bound for one
connection into a single framed write (a lone message ships as
itself; two or more ship as one ``("batch", (...))`` envelope), and
:func:`unwrap_batch` splits an envelope back into its messages.  One
framed write is one receiver wakeup, so a dispatcher fanning a batch
of jobs out to a worker pays one pipe round per *worker*, not one per
*job* -- the reply travels as one envelope the same way.  The envelope
is pickled as part of the ordinary payload, so out-of-band protocol-5
buffers anywhere inside the batched messages keep their zero-copy
path unchanged.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Callable

#: First element of a coalesced-frame envelope.  A plain tuple tag --
#: not a class -- so both sides of a pipe can speak it without import
#: coupling, mirroring the worker protocol's ``("job", ...)`` style.
BATCH = "batch"

#: Out-of-band buffer totals at or above this many bytes ride one
#: shared-memory segment instead of pipe frames.
SHM_THRESHOLD_BYTES = 1 << 20


class RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that refuses to import anything.

    Wire payloads -- serving-protocol messages, encoded triplets -- are
    built from containers and scalars only (ints, strings, bytes,
    floats, tuples, lists, dicts, bools, None), so a payload that
    *needs* a global is by definition malformed; and on a decoder that
    reads bytes another process wrote, refusing imports is what keeps a
    crafted payload from instantiating arbitrary classes.
    """

    def find_class(self, module, name):  # noqa: D102 - pickle hook
        raise pickle.UnpicklingError(f"payload may not reference {module}.{name}")


def restricted_loads(data) -> Any:
    """``pickle.loads`` through :class:`RestrictedUnpickler`."""
    return RestrictedUnpickler(io.BytesIO(data)).load()


def _unregister_shm(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    The tracker assumes creator-unlinks; here the *receiver* unlinks,
    so the creator must unregister or the tracker warns (and retries
    the unlink) at interpreter shutdown.  Best-effort: the private API
    has been stable across 3.10-3.13, but a miss only costs a warning.
    """
    try:
        from multiprocessing.resource_tracker import unregister

        unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass


def send_payload(conn, obj: Any, shm_threshold: int = SHM_THRESHOLD_BYTES) -> None:
    """Pickle ``obj`` with protocol 5 and ship it over ``conn``."""
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        conn.send_bytes(b"0" + body)
        return
    views = [buffer.raw().cast("B") for buffer in buffers]
    total = sum(view.nbytes for view in views)
    if total < shm_threshold:
        sizes = tuple(view.nbytes for view in views)
        conn.send_bytes(b"P" + pickle.dumps(sizes, protocol=5))
        conn.send_bytes(body)
        for view in views:
            conn.send_bytes(view)
        return
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=total)
    offsets: list[tuple[int, int]] = []
    cursor = 0
    for view in views:
        end = cursor + view.nbytes
        segment.buf[cursor:end] = view
        offsets.append((cursor, end))
        cursor = end
    conn.send_bytes(b"S" + pickle.dumps((segment.name, tuple(offsets)), protocol=5))
    conn.send_bytes(body)
    segment.close()
    _unregister_shm(segment.name)


def recv_payload(conn) -> Any:
    """Receive one :func:`send_payload` frame set and unpickle it."""
    frame = conn.recv_bytes()
    tag, header = frame[:1], frame[1:]
    if tag == b"0":
        return pickle.loads(header)
    if tag == b"P":
        sizes = pickle.loads(header)
        body = conn.recv_bytes()
        buffers = [conn.recv_bytes() for _ in sizes]
        return pickle.loads(body, buffers=buffers)
    if tag == b"S":
        from multiprocessing import shared_memory

        name, offsets = pickle.loads(header)
        body = conn.recv_bytes()
        segment = shared_memory.SharedMemory(name=name)
        try:
            # One bulk copy out of the mapping: lets the segment be
            # unlinked immediately while the decoded object keeps
            # zero-copy views into the local bytes.
            data = bytes(segment.buf)
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
        view = memoryview(data)
        buffers = [view[start:end] for start, end in offsets]
        return pickle.loads(body, buffers=buffers)
    raise ValueError(f"unknown transport frame tag {tag!r}")


def wrap_batch(payloads: tuple) -> Any:
    """The wire form of a submission flush: itself when alone, else one
    :data:`BATCH` envelope carrying all messages in submission order."""
    if len(payloads) == 1:
        return payloads[0]
    return (BATCH, payloads)


def unwrap_batch(message: Any) -> tuple:
    """Split one received frame into its logical messages.

    The inverse of :func:`wrap_batch` for any frame: a batch envelope
    yields its messages in submission order, anything else yields
    itself -- so receivers handle batched and unbatched peers with one
    code path.  Protocol messages never collide with the envelope:
    every worker message/reply leads with a kind string other than
    ``"batch"``.
    """
    if isinstance(message, tuple) and len(message) == 2 and message[0] == BATCH:
        return tuple(message[1])
    return (message,)


class SubmissionQueue:
    """Coalesce messages bound for one connection into framed writes.

    The dispatcher-side half of batched submission: ``submit`` buffers
    a message, ``flush`` ships everything buffered as **one**
    :func:`send_payload` frame (via :func:`wrap_batch`).  ``writes``
    and ``submitted`` count frames and messages respectively; their
    ratio is the observable batching factor the dispatch benchmarks
    and tests assert on.
    """

    __slots__ = ("send", "_pending", "writes", "submitted")

    def __init__(self, send: Callable[[Any], None]) -> None:
        #: One-argument sender for a finished frame, usually
        #: ``functools.partial(send_payload, conn)``; injected so the
        #: queue is transport-agnostic (tests drive it with a list).
        self.send = send
        self._pending: list = []
        self.writes = 0
        self.submitted = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, payload: Any) -> None:
        self._pending.append(payload)
        self.submitted += 1

    def flush(self) -> int:
        """Ship everything pending in one frame; returns the message count."""
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        self.send(wrap_batch(tuple(pending)))
        self.writes += 1
        return len(pending)


__all__ = [
    "RestrictedUnpickler",
    "restricted_loads",
    "send_payload",
    "recv_payload",
    "SHM_THRESHOLD_BYTES",
    "BATCH",
    "wrap_batch",
    "unwrap_batch",
    "SubmissionQueue",
]
