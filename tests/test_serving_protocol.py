"""Property tests for the serving wire protocol.

The framing layer's contract: every message round-trips bit-exactly
through encode/decode under arbitrary read fragmentation, and **no**
byte sequence -- truncated, corrupted, adversarial or random -- ever
crashes the framer with anything but the typed
:class:`~repro.serving.protocol.ProtocolError` family.
"""

import asyncio
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.distsim.metrics import Metrics
from repro.serving.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MESSAGE_TYPES,
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    FrameError,
    Framer,
    FrameSplitter,
    LoadFragments,
    Loaded,
    Message,
    MetricsReply,
    MetricsRequest,
    PayloadError,
    Ping,
    Pong,
    ProtocolError,
    QueryReply,
    QueryRequest,
    Rejected,
    Shutdown,
    decode_payload,
    encode_message,
    metrics_from_wire,
    metrics_to_wire,
    read_message,
)

# ---------------------------------------------------------------------------
# One representative (and one adversarially-shaped) instance per kind
# ---------------------------------------------------------------------------

SAMPLE_MESSAGES = [
    LoadFragments(fragments=(("F0", 3, "<a><b/></a>"), ("F1", 0, "<c>x</c>"))),
    LoadFragments(fragments=()),  # zero fragments is legal
    Loaded(fragment_ids=("F0", "F1")),
    ExecuteRequest(
        request_id=7,
        site_id="S1",
        fragment_ids=("F0",),
        qlist_obj=(("label", "a", ()), ("and", None, (0, 0))),
        algebra="canonical",
        segments=((0, 2),),
        label="bottomUp",
        epochs=(3,),
    ),
    ExecuteRequest(
        request_id=0,
        site_id="",
        fragment_ids=(),
        qlist_obj=(),
        algebra="",
        segments=(),
        label="",
        epochs=(),
    ),  # all-empty fields are well-formed
    ExecuteReply(
        request_id=7,
        results=((pickle.dumps(("F0", 2, 3, 0, 0, (), ()), protocol=5), 5, 10, (10,)),),
        seconds=0.25,
        memo_hits=1,
    ),
    ExecuteReply(request_id=1, results=(), seconds=0.0),
    ErrorReply(request_id=7, code="unknown-fragment", message="no F9"),
    QueryRequest(request_id=3, queries=("[//a]", ("qlist", (("label", "a", ()),))), engine="parbox"),
    QueryRequest(
        request_id=4,
        queries=("[//a]",),
        engine="",
        trace=("a" * 32, "b" * 16),
    ),  # traced request: (trace_id, parent span)
    QueryReply(request_id=3, answers=(True, False), metrics_obj={"visits": {"S0": 1}}, details={"engine": "ParBoX"}),
    QueryReply(
        request_id=4,
        answers=(True,),
        metrics_obj={},
        details={},
        spans=(("a" * 32, "c" * 16, "b" * 16, "site.execute", "site:S0", 1700000000.0, 0.01, {"fragments": 1}),),
    ),
    Rejected(request_id=3, code="overloaded", message="shed"),
    MetricsRequest(request_id=9),
    MetricsReply(
        request_id=9,
        snapshot={"gateway_requests_total": {"type": "counter", "help": "", "labelnames": [], "values": {"": 3.0}}},
        text="# TYPE gateway_requests_total counter\ngateway_requests_total 3.0\n",
    ),
    Ping(nonce=42),
    Pong(nonce=42, version=1),
    Shutdown(),
]


def test_sample_covers_every_message_kind():
    covered = {type(message).KIND for message in SAMPLE_MESSAGES}
    assert covered == set(MESSAGE_TYPES), "add a sample for every message kind"


@pytest.mark.parametrize("message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__)
def test_round_trip_each_kind(message):
    frame = encode_message(message)
    magic, kind, length = HEADER.unpack(frame[: HEADER.size])
    assert magic == MAGIC and kind == type(message).KIND
    assert length == len(frame) - HEADER.size
    decoded = decode_payload(kind, frame[HEADER.size :])
    assert decoded == message


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 10_000])
def test_splitter_handles_interleaved_partial_reads(chunk):
    """Frames survive any read fragmentation, including byte-at-a-time."""
    stream = b"".join(encode_message(message) for message in SAMPLE_MESSAGES)
    framer = Framer()
    decoded = []
    for start in range(0, len(stream), chunk):
        decoded.extend(framer.feed(stream[start : start + chunk]))
    assert decoded == SAMPLE_MESSAGES
    assert framer.pending_bytes == 0


def test_splitter_yields_many_frames_from_one_feed():
    stream = b"".join(encode_message(Ping(nonce=i)) for i in range(20))
    assert FrameSplitter().feed(stream) == [
        (Ping.KIND, frame[HEADER.size :])
        for frame in (encode_message(Ping(nonce=i)) for i in range(20))
    ]


# ---------------------------------------------------------------------------
# Adversarial inputs
# ---------------------------------------------------------------------------


def test_zero_length_payload_is_rejected_typed():
    # A zero-length payload is a well-formed *frame*; it must fail at
    # the payload layer (no pickle in zero bytes), never crash.
    frame = HEADER.pack(MAGIC, Ping.KIND, 0)
    with pytest.raises(PayloadError):
        Framer().feed(frame)


def test_max_size_frame_round_trips():
    big = LoadFragments(fragments=(("F0", 1, "x" * 1_000_000),))
    frame = encode_message(big)
    splitter = FrameSplitter()
    # Feed in two uneven halves to cross the header/payload boundary.
    frames = splitter.feed(frame[: HEADER.size + 1])
    frames += splitter.feed(frame[HEADER.size + 1 :])
    assert len(frames) == 1
    assert decode_payload(*frames[0]) == big


def test_oversized_declared_length_is_frame_error():
    frame = HEADER.pack(MAGIC, Ping.KIND, MAX_PAYLOAD_BYTES + 1)
    with pytest.raises(FrameError):
        FrameSplitter().feed(frame)


def test_oversized_encode_is_frame_error():
    with pytest.raises(FrameError):
        encode_message(LoadFragments(fragments=(("F0", 1, "x" * (MAX_PAYLOAD_BYTES + 1)),)))


def test_bad_magic_is_frame_error_and_poisons():
    splitter = FrameSplitter()
    with pytest.raises(FrameError):
        splitter.feed(b"XXlookslikegarbage")
    # Poisoned: even valid frames are refused afterwards.
    with pytest.raises(FrameError):
        splitter.feed(encode_message(Ping(nonce=1)))


def test_unknown_kind_is_payload_error():
    payload = pickle.dumps((1,))
    frame = HEADER.pack(MAGIC, 250, len(payload)) + payload
    with pytest.raises(PayloadError):
        Framer().feed(frame)


def test_wrong_arity_payload_is_payload_error():
    payload = pickle.dumps((1, 2, 3))  # Ping wants 2 fields
    with pytest.raises(PayloadError):
        decode_payload(Ping.KIND, payload)


def test_wrong_field_type_is_payload_error():
    payload = pickle.dumps((("not", "an", "int"), 1))
    with pytest.raises(PayloadError):
        decode_payload(Ping.KIND, payload)


def test_non_tuple_payload_is_payload_error():
    with pytest.raises(PayloadError):
        decode_payload(Ping.KIND, pickle.dumps("pong?"))


def test_payload_may_not_reference_globals():
    # A crafted payload that tries to instantiate a class on decode
    # must be refused by the restricted unpickler, typed.
    crafted = pickle.dumps((Metrics(), 1))
    with pytest.raises(PayloadError):
        decode_payload(Ping.KIND, crafted)


def test_validate_rejects_malformed_loadfragments():
    with pytest.raises(PayloadError):
        LoadFragments.from_fields(((("F0", 1, b"bytes-not-str"),),))


def _raises_on_encode_and_decode(message):
    """A malformed message is refused by the sender and by the receiver."""
    with pytest.raises(ProtocolError):
        encode_message(message)
    payload = pickle.dumps(message.to_fields(), protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(ProtocolError):
        decode_payload(type(message).KIND, payload)


def test_loadfragments_refuses_the_epochless_pair():
    _raises_on_encode_and_decode(LoadFragments(fragments=(("F0", "<a/>"),)))
    _raises_on_encode_and_decode(LoadFragments(fragments=(("F0", None, "<a/>"),)))


def test_executerequest_epochs_must_parallel_fragment_ids():
    fields = dict(
        request_id=7,
        site_id="S1",
        fragment_ids=("F0", "F1"),
        qlist_obj=(("label", "a", ()),),
        algebra="canonical",
        segments=(),
        label="bottomUp",
    )
    for epochs in ((), (3,), (3, None), (3, 4, 5)):
        _raises_on_encode_and_decode(ExecuteRequest(epochs=epochs, **fields))
    # Omitting the field on the wire is no longer a way around the check.
    with pytest.raises(ProtocolError):
        decode_payload(ExecuteRequest.KIND, pickle.dumps(tuple(fields.values())))


def test_executereply_results_carry_opaque_blobs():
    blob = pickle.dumps(("F0", 2, 3, 0, 0, (), ()), protocol=5)
    good = (blob, 5, 10, (10,))
    for results in (
        ((("F0", 2, 3, 0, 0, (), ()), 5, 10, (10,)),),  # the nested tuple of old
        ((bytearray(blob), 5, 10, (10,)),),
        ((blob, 5, 10),),
        ((blob, "5", 10, ()),),
        (good, None),
    ):
        _raises_on_encode_and_decode(ExecuteReply(request_id=1, results=results, seconds=0.0))
    for memo_hits in (-1, 2, "1"):
        _raises_on_encode_and_decode(
            ExecuteReply(request_id=1, results=(good,), seconds=0.0, memo_hits=memo_hits)
        )
    # A peer that predates the field decodes as "no hits".
    old_peer = pickle.dumps((1, (good,), 0.0))
    assert decode_payload(ExecuteReply.KIND, old_peer).memo_hits == 0


@pytest.mark.parametrize(
    "bad_blob",
    [
        b"ccolorsys\nrgb_to_hls\n.",  # a global reference
        pickle.dumps(("F0", 2, 3, 0, 0, (), ()), protocol=5)[:-4],  # truncated
        pickle.dumps(["F0", 2, 3, 0, 0, (), ()], protocol=5),  # not a tuple
    ],
    ids=["global", "truncated", "non-tuple"],
)
def test_malformed_result_blob_crosses_the_wire_and_fails_typed_at_decode(bad_blob):
    # The frame layer carries blobs unopened (they are bytes, nothing
    # in them is unpickled with the frame); the coordinator's decode
    # refuses them without importing anything.
    import sys

    from repro.distsim.executors import outcome_from_wire

    sys.modules.pop("colorsys", None)
    reply = ExecuteReply(request_id=3, results=((bad_blob, 1, 1, ()),), seconds=0.0)
    (decoded,) = Framer().feed(encode_message(reply))
    assert decoded == reply
    with pytest.raises(ValueError):
        outcome_from_wire("S0", decoded.results, decoded.seconds)
    assert "colorsys" not in sys.modules


def test_queryrequest_rejects_empty_batch_and_bad_tags():
    with pytest.raises(PayloadError):
        QueryRequest.from_fields((1, (), "parbox"))
    with pytest.raises(PayloadError):
        QueryRequest.from_fields((1, (("blob", object),), "parbox"))


# ---------------------------------------------------------------------------
# Fuzz: arbitrary bytes never crash the framer
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.binary(min_size=0, max_size=400))
def test_fuzz_random_bytes_raise_typed_errors_only(data):
    framer = Framer()
    try:
        framer.feed(data)
    except ProtocolError:
        pass  # the only permitted failure mode


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fuzz_corrupted_valid_streams(seed):
    """Flip bytes inside an otherwise-valid stream: typed errors only,
    and everything decoded before the corruption is intact."""
    rng = random.Random(seed)
    stream = bytearray(
        b"".join(encode_message(m) for m in rng.sample(SAMPLE_MESSAGES, 5))
    )
    for _ in range(rng.randint(1, 4)):
        index = rng.randrange(len(stream))
        stream[index] ^= 1 << rng.randrange(8)
    framer = Framer()
    decoded = []
    try:
        for start in range(0, len(stream), 13):
            decoded.extend(framer.feed(bytes(stream[start : start + 13])))
    except ProtocolError:
        pass
    for message in decoded:
        assert isinstance(message, Message)


@settings(max_examples=100, deadline=None)
@given(prefix=st.binary(min_size=1, max_size=20))
def test_fuzz_random_prefix_then_valid_frame(prefix):
    """A poisoned stream stays poisoned: garbage + valid frame never
    silently resynchronizes."""
    framer = Framer()
    stream = prefix + encode_message(Ping(nonce=5))
    try:
        decoded = framer.feed(stream)
    except ProtocolError:
        return
    # Only possible when the prefix happened to be a valid frame start
    # that swallowed the rest; anything decoded must be a real message.
    for message in decoded:
        assert isinstance(message, Message)


# ---------------------------------------------------------------------------
# asyncio reader helper
# ---------------------------------------------------------------------------


def _feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_read_message_round_trip_and_clean_eof():
    async def scenario():
        reader = _feed_reader(
            encode_message(Ping(nonce=9)) + encode_message(Shutdown())
        )
        assert await read_message(reader) == Ping(nonce=9)
        assert await read_message(reader) == Shutdown()
        assert await read_message(reader) is None  # clean EOF

    asyncio.run(scenario())


@pytest.mark.parametrize("cut", [1, HEADER.size - 1, HEADER.size, HEADER.size + 3])
def test_read_message_truncation_is_frame_error(cut):
    async def scenario():
        frame = encode_message(Ping(nonce=9))
        assert cut < len(frame)
        with pytest.raises(FrameError):
            await read_message(_feed_reader(frame[:cut]))

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Metrics wire form
# ---------------------------------------------------------------------------


def test_metrics_wire_round_trip_counter_for_counter():
    metrics = Metrics()
    metrics.visits.update({"S0": 1, "S1": 2})
    metrics.messages = 7
    metrics.bytes_total = 1234
    metrics.bytes_by_kind.update({"query": 1000, "triplet": 234})
    metrics.nodes_processed = 55
    metrics.qlist_ops = 220
    metrics.segment_ops.update({0: 100, 1: 120})
    metrics.site_seconds.update({"S0": 0.5})
    metrics.elapsed_seconds = 1.5
    metrics.critical_site = "S1"
    metrics.parallel_batches = 2
    restored = metrics_from_wire(metrics_to_wire(metrics))
    assert restored.visits == metrics.visits
    assert restored.bytes_by_kind == metrics.bytes_by_kind
    assert restored.segment_ops == metrics.segment_ops
    assert restored.summary() == metrics.summary()
