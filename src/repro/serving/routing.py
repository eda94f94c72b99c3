"""Batch fingerprints and a consistent-hash ring (no serving caller).

The gateway owns exactly one coordinator, so nothing under ``src/``
routes requests any more: a pool of in-process coordinators measured
as a throughput *loss* on one CPU (0.84-0.86x for 1 -> 2), and no
routing choice can change an answer anyway (Ameloot et al.'s
parallel-correctness, PAPERS.md).  The module stays only because the
end-to-end benchmark's layer replay (``benchmarks/e2e/layers.py``)
imports it when it loads, to time its ``serving.routing.route_us``
row; it goes together with that row.

* :func:`plan_fingerprint` reduces a request's query batch -- query
  texts and/or precompiled ``("qlist", entries)`` wire forms, exactly
  as they arrive in a :class:`~repro.serving.protocol.QueryRequest` --
  to one stable 64-bit integer (``blake2b`` over a canonical byte
  serialization, no interpreter hash randomization).
* :class:`HashRing` is a consistent-hash ring over node names with
  virtual nodes, so adding a node remaps ~1/N of the key space.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Optional, Sequence, Union

#: Virtual nodes per ring member: enough that two or three coordinators
#: split real key sets within a few percent of evenly, cheap enough to
#: rebuild the ring on any pool change.
DEFAULT_VNODES = 64


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def plan_fingerprint(queries: Sequence[Union[str, tuple]]) -> Optional[int]:
    """One stable 64-bit fingerprint of a request's query batch.

    Accepts the exact shapes a ``QueryRequest.queries`` field carries:
    query *texts* and precompiled ``("qlist", entries)`` tuples.  The
    two forms fingerprint differently on purpose -- they are different
    wire programs -- but any client resending the same wire form gets
    the same fingerprint, hence the same coordinator.  Returns ``None``
    for an empty or unrecognizable batch (the gateway then falls back
    to least-inflight routing); malformed entries are *not* rejected
    here -- routing must never pre-empt the coordinator's typed
    bad-request error.
    """
    if not queries:
        return None
    digest = hashlib.blake2b(digest_size=8)
    for query in queries:
        if isinstance(query, str):
            digest.update(b"s\x00")
            digest.update(query.encode("utf-8"))
        else:
            try:
                tag, obj = query
                canonical = (str(tag), tuple(tuple(entry) for entry in obj))
            except (TypeError, ValueError):
                return None
            digest.update(b"q\x00")
            digest.update(repr(canonical).encode("utf-8"))
        digest.update(b"\x1e")  # record separator: no batch concatenation aliasing
    return int.from_bytes(digest.digest(), "big")


class HashRing:
    """Consistent hashing over named nodes with virtual nodes.

    ``route(key)`` maps a 64-bit key to the first node point at or
    after it on the ring (wrapping), so each node owns a union of arcs.
    Deterministic given the node names: every gateway replica in a
    fleet would route identically.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate ring nodes in {list(nodes)}")
        points = []
        for node in self.nodes:
            for replica in range(vnodes):
                points.append((_hash64(f"{node}#{replica}".encode("utf-8")), node))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def route(self, key: int) -> str:
        """The node owning ``key``'s arc."""
        index = bisect.bisect_right(self._keys, key) % len(self._points)
        return self._points[index][1]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HashRing {len(self.nodes)} node(s), {len(self._points)} points>"


__all__ = ["DEFAULT_VNODES", "HashRing", "plan_fingerprint"]
