"""One site handler: both transports answer through the holder's one routine.

Parallel-correctness (Ameloot et al.): an answer must not depend on how
it was delivered.  The pipe worker and the site server are each only a
transport over :meth:`ResidentSiteState.accept` then ``complete``, so
the same request gets the same reply items, the same memo hits and the
same holder tallies through either, and a reference the holder cannot
serve is refused by the same typed error before any memo is read.
"""

import asyncio
import multiprocessing

import pytest

from netfixtures import hard_deadline
from repro.boolexpr.compose import CanonicalAlgebra, PaperAlgebra
from repro.core.bottom_up import bottom_up
from repro.core.plan import plan_batch
from repro.core.vectors import VectorTriplet
from repro.distsim.executors import _resident_worker_main, resident_fragment_wire
from repro.distsim.resident import (
    ResidentSiteState,
    StaleResidentError,
    UnknownAlgebraError,
    qlist_fingerprint,
)
from repro.distsim.transport import recv_payload, send_payload
from repro.serving.protocol import (
    ERR_BAD_REQUEST,
    ERR_STALE_FRAGMENT,
    ERR_UNKNOWN_FRAGMENT,
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    LoadFragments,
    read_message,
    write_message,
)
from repro.serving.site_server import SiteServer
from repro.workloads.topologies import star_ft1
from repro.xpath import compile_query

QUERIES = ["[//bidder]", "[//item and not //bidder]"]


def _fragments():
    cluster = star_ft1(3, 0.4, seed=7, nodes_per_mb=40, one_site_each=False)
    return list(cluster.fragmented_tree.fragments.values())


def _job(fragments, qlist, algebra, segments=(), epochs=None):
    """The pipe worker's ``job`` message for ``fragments``."""
    epochs = epochs or [fragment.epoch for fragment in fragments]
    refs = tuple((fragment.fragment_id, epoch) for fragment, epoch in zip(fragments, epochs))
    return (
        "job", "S0", refs, qlist_fingerprint(qlist), qlist.wire_obj(), algebra.name, segments
    )


def _request(request_id, message):
    """The site server's ``ExecuteRequest`` carrying the same job."""
    _, site_id, refs, _, qlist_obj, algebra_name, segments = message
    return ExecuteRequest(
        request_id,
        site_id,
        tuple(fragment_id for fragment_id, _ in refs),
        qlist_obj,
        algebra_name,
        tuple(segments),
        "test",
        tuple(epoch for _, epoch in refs),
    )


def _through_worker(wires, messages):
    """Replies of a hand-driven pipe worker, then its ``stats``."""
    parent, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=_resident_worker_main, args=(child,), daemon=True)
    process.start()
    child.close()
    try:
        send_payload(parent, ("push", wires))
        assert recv_payload(parent) == ("ok", len(wires))
        replies = []
        for message in messages:
            send_payload(parent, message)
            replies.append(recv_payload(parent))
        send_payload(parent, ("stats",))
        stats = recv_payload(parent)[1]
    finally:
        send_payload(parent, ("stop",))
        process.join(timeout=10)
        parent.close()
    assert not process.is_alive()
    return replies, stats


def _through_server(wires, requests):
    """Replies of a site server over TCP, then its registry snapshot."""

    async def scenario():
        server = await SiteServer("S0").start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            write_message(writer, LoadFragments(wires))
            await writer.drain()
            await read_message(reader)
            replies = []
            for request in requests:
                write_message(writer, request)
                await writer.drain()
                replies.append(await read_message(reader))
            return replies, server.registry.snapshot()
        finally:
            writer.close()
            await server.stop()

    with hard_deadline(60):
        return asyncio.run(scenario())


def _items(worker_reply):
    """A worker ``ok`` reply's items in the server's reply form."""
    assert worker_reply[0] == "ok"
    return tuple(
        (bytes(blob), nodes, ops, tuple(segment_ops))
        for blob, nodes, ops, segment_ops in worker_reply[2]
    )


@pytest.mark.parametrize("algebra", [CanonicalAlgebra(), PaperAlgebra()], ids=lambda a: a.name)
def test_both_transports_give_one_answer_and_one_tally(algebra):
    fragments = _fragments()
    wires = tuple(resident_fragment_wire(fragment) for fragment in fragments)
    plan = plan_batch([compile_query(text) for text in QUERIES])
    single = compile_query(QUERIES[0])
    messages = [
        _job(fragments, plan.combined, algebra, plan.segments),
        _job(fragments, plan.combined, algebra, plan.segments),  # a resend: all hits
        _job(fragments[:1], single, algebra),
    ]
    worker_replies, stats = _through_worker(wires, messages)
    server_replies, snapshot = _through_server(
        wires, [_request(index, message) for index, message in enumerate(messages)]
    )
    for worker_reply, server_reply, message in zip(worker_replies, server_replies, messages):
        assert isinstance(server_reply, ExecuteReply)
        assert _items(worker_reply) == server_reply.results
        qlist = plan.combined if message[3] == qlist_fingerprint(plan.combined) else single
        for fragment, (blob, nodes, _, _) in zip(fragments, server_reply.results):
            triplet, cost = bottom_up(fragment, qlist, algebra)
            assert VectorTriplet.from_compact(blob) == triplet
            assert nodes == cost.nodes_visited
    assert [reply.memo_hits for reply in server_replies] == [0, len(fragments), 0]
    # The worker's stats reply and the site registry read one tally.
    results = snapshot["resident_results_total"]["values"]
    assert (stats["result_hits"], stats["result_misses"]) == (
        results["result=hit"],
        results["result=miss"],
    ) == (len(fragments), len(fragments) + 1)
    kernel_nodes = snapshot["resident_kernel_nodes_total"]["values"]
    assert stats["kernel_nodes"] == {
        mode: kernel_nodes[f"mode={mode}"] for mode in stats["kernel_nodes"]
    }
    assert snapshot["site_requests_total"]["values"] == {"": len(messages)}
    assert snapshot["site_fragments_resident"]["values"] == {"": len(fragments)}


def test_a_reference_the_holder_cannot_serve_is_refused_alike():
    fragments = _fragments()
    wires = tuple(resident_fragment_wire(fragment) for fragment in fragments[:2])
    qlist = compile_query(QUERIES[0])
    algebra = CanonicalAlgebra()
    stale = _job(fragments[:2], qlist, algebra, epochs=[fragments[0].epoch, -1])
    unknown = _job(fragments, qlist, algebra)
    worker_replies, stats = _through_worker(wires, [stale, unknown])
    assert worker_replies == [
        ("stale", (fragments[1].fragment_id,)),
        ("stale", (fragments[2].fragment_id,)),
    ]
    server_replies, snapshot = _through_server(
        wires, [_request(1, stale), _request(2, unknown)]
    )
    assert [reply.code for reply in server_replies] == [ERR_STALE_FRAGMENT, ERR_UNKNOWN_FRAGMENT]
    assert fragments[1].fragment_id in server_replies[0].message
    assert fragments[2].fragment_id in server_replies[1].message
    # Refused before any memo read: nothing was counted either way.
    assert (stats["result_hits"], stats["result_misses"]) == (0, 0)
    assert snapshot["resident_results_total"]["values"] == {"result=hit": 0, "result=miss": 0}
    assert snapshot["site_requests_total"]["values"] == {}


def test_an_unknown_algebra_is_a_bad_request():
    fragments = _fragments()
    wires = tuple(resident_fragment_wire(fragment) for fragment in fragments)
    message = _job(fragments, compile_query(QUERIES[0]), CanonicalAlgebra())
    message = message[:5] + ("no-such-algebra",) + message[6:]
    (reply,), snapshot = _through_server(wires, [_request(1, message)])
    assert isinstance(reply, ErrorReply)
    assert (reply.code, reply.message) == (ERR_BAD_REQUEST, "unknown algebra 'no-such-algebra'")
    assert snapshot["site_errors_total"]["values"] == {f"code={ERR_BAD_REQUEST}": 1}


class TestAccept:
    def test_resolves_installs_reads_and_counts(self):
        fragments = _fragments()
        state = ResidentSiteState()
        state.store([resident_fragment_wire(fragment) for fragment in fragments])
        qlist = compile_query(QUERIES[0])
        refs = [(fragment.fragment_id, fragment.epoch) for fragment in fragments]
        args = ("S0", refs, qlist_fingerprint(qlist), qlist.wire_obj(), "canonical")
        cold = state.accept(*args)
        assert len(cold[2]) == len(fragments)
        assert state.result_counts == {"hit": 0, "miss": len(fragments)}
        results, _, hits = state.complete(cold)
        assert hits == 0
        warm = state.accept(*args)
        assert warm[2] == [] and warm[3] is state.queries[qlist_fingerprint(qlist)]
        assert state.complete(warm)[0] == results
        assert state.result_counts == {"hit": len(fragments), "miss": len(fragments)}

    def test_refusals_count_nothing(self):
        fragments = _fragments()
        state = ResidentSiteState()
        state.store([resident_fragment_wire(fragments[0])])
        qlist = compile_query(QUERIES[0])
        fingerprint = qlist_fingerprint(qlist)
        with pytest.raises(UnknownAlgebraError, match="unknown algebra 'nope'"):
            state.accept("S0", [], fingerprint, qlist.wire_obj(), "nope")
        assert fingerprint not in state.queries  # refused before the query was looked at
        with pytest.raises(StaleResidentError) as info:
            state.accept(
                "S0",
                [(fragments[0].fragment_id, fragments[0].epoch + 1)],
                fingerprint,
                qlist.wire_obj(),
                "canonical",
            )
        assert info.value.missing == (fragments[0].fragment_id,)
        assert state.result_counts == {"hit": 0, "miss": 0}
