"""Tests for the networked serving tier: protocol, admission, overload, determinism."""

import numpy as np
import pytest

from repro.minigo import PolicyValueNet
from repro.rollout.inference import FLUSH_TIMEOUT
from repro.serving import (
    BurstyProcess,
    EvalReply,
    EvalRequest,
    IncompleteFrame,
    InferenceServer,
    LoadGenerator,
    MessageStream,
    PoissonProcess,
    ProtocolError,
    RetryPolicy,
    ServingClient,
    TokenBucket,
    TraceReplay,
    build_slo_report,
    decode_message,
    encode_reply,
    encode_request,
    estimate_capacity_rows_per_sec,
    run_serving,
)

BOARD = 5
FEATURES = 3 * BOARD * BOARD
NUM_MOVES = BOARD * BOARD + 1


def make_network(seed=7):
    return PolicyValueNet(BOARD, (16,), rng=np.random.default_rng(seed))


def make_server(**kwargs):
    defaults = dict(max_batch=8, queue_capacity=64, flush_policy=FLUSH_TIMEOUT,
                    flush_timeout_us=10_000.0, seed=0)
    defaults.update(kwargs)
    return InferenceServer(make_network(), **defaults)


def rows(n=1, seed=0):
    return np.random.default_rng(seed).normal(size=(n, FEATURES)).astype(np.float32)


def request(rid, t=0.0, *, client="c0", n=1, seed=None, deadline=None, meta=None):
    return EvalRequest(request_id=rid, client_id=client,
                       features=rows(n, seed if seed is not None else rid),
                       send_us=t, first_send_us=t, deadline_us=deadline,
                       metadata=meta or {})


def decode_replies(replies):
    return [(decode_message(frame)[0], at) for frame, at in replies]


# ----------------------------------------------------------------- protocol
def test_request_roundtrip_preserves_fields_and_detaches_arrays():
    req = request(3, 42.0, client="alice", n=2, deadline=99.5,
                  meta={"tag": "x", "attempt": 0})
    req.attempt = 2
    frame = encode_request(req)
    decoded, consumed = decode_message(frame)
    assert consumed == len(frame)
    assert isinstance(decoded, EvalRequest)
    assert decoded.key == ("alice", 3)
    assert decoded.attempt == 2
    assert decoded.send_us == 42.0 and decoded.deadline_us == 99.5
    assert decoded.metadata == {"tag": "x", "attempt": 0}
    np.testing.assert_array_equal(decoded.features, req.features)
    # The wire boundary detaches state: mutating the decoded copy can never
    # reach the sender's arrays or metadata (the anti-aliasing guarantee).
    decoded.features[0, 0] += 1.0
    decoded.metadata["tag"] = "mutated"
    assert req.features[0, 0] != decoded.features[0, 0]
    assert req.metadata["tag"] == "x"


def test_decode_twice_yields_independent_messages():
    """Retrying the same frame can never alias the previous attempt."""
    frame = encode_request(request(1, meta={"attempt": 0}))
    first, _ = decode_message(frame)
    second, _ = decode_message(frame)
    first.metadata["queue_delay_us"] = 123.0
    first.features[0, 0] = 7.0
    assert "queue_delay_us" not in second.metadata
    assert second.features[0, 0] != 7.0


def test_reply_roundtrip_ok_and_shed():
    priors = np.full((2, NUM_MOVES), 1.0 / NUM_MOVES, dtype=np.float32)
    values = np.zeros(2, dtype=np.float32)
    ok = EvalReply(request_id=1, client_id="c", status="ok", priors=priors,
                   values=values, queue_delay_us=5.0, completion_us=9.0, replica=1)
    decoded, _ = decode_message(encode_reply(ok))
    assert decoded.ok and decoded.replica == 1
    np.testing.assert_array_equal(decoded.priors, priors)
    np.testing.assert_array_equal(decoded.values, values)

    shed = EvalReply(request_id=2, client_id="c", status="shed-queue",
                     completion_us=4.0, detail="queue full")
    decoded, _ = decode_message(encode_reply(shed))
    assert decoded.shed and decoded.priors is None
    assert decoded.detail == "queue full"


def test_protocol_rejects_malformed_frames():
    frame = encode_request(request(1))
    with pytest.raises(IncompleteFrame):
        decode_message(frame[:5])
    with pytest.raises(IncompleteFrame):
        decode_message(frame[:-1])
    with pytest.raises(ProtocolError):
        decode_message(b"XXXX" + frame[4:])
    with pytest.raises(ProtocolError):
        encode_reply(EvalReply(request_id=1, client_id="c", status="nonsense"))
    with pytest.raises(ProtocolError):
        encode_reply(EvalReply(request_id=1, client_id="c", status="ok"))  # no arrays
    with pytest.raises(ProtocolError):
        encode_request(request(1, n=1).__class__(
            request_id=1, client_id="c", features=np.zeros((0, 4), np.float32)))


def test_message_stream_reassembles_split_and_coalesced_frames():
    frames = [encode_request(request(i, float(i))) for i in range(3)]
    blob = b"".join(frames)
    stream = MessageStream()
    # Byte-by-byte delivery: every frame still comes out exactly once.
    seen = []
    for i in range(len(blob)):
        seen.extend(stream.feed(blob[i:i + 1]))
    assert [m.request_id for m in seen] == [0, 1, 2]
    assert stream.buffered_bytes == 0
    # Coalesced delivery: two and a half frames, then the rest.
    stream = MessageStream()
    cut = len(frames[0]) + len(frames[1]) + 7
    first = stream.feed(blob[:cut])
    assert [m.request_id for m in first] == [0, 1]
    assert stream.buffered_bytes == 7
    second = stream.feed(blob[cut:])
    assert [m.request_id for m in second] == [2]


# ------------------------------------------- malformed frames / resync (fuzz)
def _corrupt_header(frame):
    """Break the frame's JSON header while leaving the magic intact.

    The fixed struct header is 18 bytes (``<4sBBIQ``); flipping the first
    JSON byte guarantees a decode failure without touching the magic.
    """
    return frame[:18] + bytes([frame[18] ^ 0xFF]) + frame[19:]


def test_one_corrupted_frame_costs_exactly_that_frame():
    frames = [encode_request(request(i, float(i))) for i in range(3)]
    blob = frames[0] + _corrupt_header(frames[1]) + frames[2]
    stream = MessageStream()
    seen = stream.feed(blob)
    assert [m.request_id for m in seen] == [0, 2], \
        "the frames around the corruption must still decode"
    assert stream.corrupt_frames == 1
    assert stream.buffered_bytes == 0


def test_magicless_garbage_run_counts_one_incident_across_feeds():
    stream = MessageStream()
    # A garbage run split across feeds is one incident, not one per feed:
    # its bytes are indistinguishable from the tail of a destroyed frame.
    assert stream.feed(b"\x00garbage-without-magic") == []
    assert stream.feed(b"more-garbage\x01\x02\x03") == []
    assert stream.corrupt_frames == 1
    good = encode_request(request(7))
    [message] = stream.feed(good)
    assert message.request_id == 7
    assert stream.corrupt_frames == 1


def test_back_to_back_corrupted_frames_each_count():
    frames = [encode_request(request(i)) for i in range(3)]
    blob = (_corrupt_header(frames[0]) + _corrupt_header(frames[1])
            + frames[2])
    stream = MessageStream()
    seen = stream.feed(blob)
    assert [m.request_id for m in seen] == [2]
    assert stream.corrupt_frames == 2, \
        "each frame whose magic survived is a distinct incident"


def test_resync_survives_byte_at_a_time_delivery():
    frames = [encode_request(request(i, float(i))) for i in range(3)]
    blob = frames[0] + _corrupt_header(frames[1]) + frames[2]
    stream = MessageStream()
    seen = []
    for i in range(len(blob)):
        seen.extend(stream.feed(blob[i:i + 1]))
    assert [m.request_id for m in seen] == [0, 2]
    assert stream.corrupt_frames == 1


def test_stream_fuzz_never_raises_and_never_hoards():
    """Random mutations in random chunkings: feed must never raise, and the
    buffer must never grow past one maximal partial frame."""
    rng = np.random.default_rng(0xF022)
    frames = [encode_request(request(i, float(i), n=1 + i % 3))
              for i in range(6)]
    for _ in range(25):
        blob = bytearray(b"".join(frames))
        for _ in range(rng.integers(1, 6)):
            blob[rng.integers(0, len(blob))] ^= int(rng.integers(1, 256))
        stream = MessageStream()
        offset, decoded = 0, 0
        while offset < len(blob):
            step = int(rng.integers(1, 200))
            decoded += len(stream.feed(bytes(blob[offset:offset + step])))
            offset += step
        assert decoded <= len(frames)
        assert stream.buffered_bytes <= len(blob)


# ------------------------------------------------------------- token bucket
def test_token_bucket_sustains_rate_with_burst():
    bucket = TokenBucket(1_000_000.0, burst=2.0)  # one token per virtual us
    assert bucket.admit(0.0) and bucket.admit(0.0)
    assert not bucket.admit(0.0), "burst exhausted"
    assert bucket.admit(1.0), "one us refills one token"
    assert not bucket.admit(1.0)
    assert bucket.admit(100.0) and bucket.admit(100.0)
    assert not bucket.admit(100.0), "refill is capped at the burst size"
    assert TokenBucket(None).admit(0.0), "disabled bucket admits everything"
    with pytest.raises(ValueError):
        TokenBucket(0.0)


def test_rate_limit_is_per_client():
    server = make_server(rate_limit_per_sec=1_000.0, rate_burst=1.0)
    shed = decode_replies(server.offer(request(0, 0.0, client="spammer"), 0.0))
    assert shed == []  # first request admitted (burst token)
    [(reply, _)] = decode_replies(server.offer(request(1, 1.0, client="spammer"), 1.0))
    assert reply.status == "shed-rate"
    # Another client's bucket is untouched.
    assert server.offer(request(0, 1.0, client="quiet"), 1.0) == []
    assert server.stats.shed_rate == 1 and server.stats.admitted == 2


# ------------------------------------------------------- bounded ingress queue
def test_ingress_queue_sheds_exactly_at_capacity():
    server = make_server(queue_capacity=3, overload="shed-newest")
    for i in range(3):
        assert server.offer(request(i, float(i)), float(i)) == []
    assert server.occupancy(2.0) == 3
    [(reply, at)] = decode_replies(server.offer(request(3, 3.0), 3.0))
    assert reply.status == "shed-queue" and at == 3.0
    assert server.stats.shed_queue == 1 and server.stats.admitted == 3
    # The shed is in the decision log, attributed to the right request.
    assert any(event == "shed-queue" and rid == 3
               for _, event, _, rid, _ in server.decision_log)


def test_window_counts_executing_work_not_just_the_queue():
    """A dispatched batch holds its slots until completion: backlog cannot
    hide on the replica horizon."""
    server = make_server(max_batch=2, queue_capacity=2)
    server.offer(request(0, 0.0), 0.0)
    replies = server.offer(request(1, 1.0), 1.0)   # completes a full batch
    [(reply0, c0), (reply1, c1)] = decode_replies(replies)
    assert reply0.ok and reply1.ok and c0 > 1.0
    assert server.pending_tickets == 0, "the batch left the service queue"
    assert server.occupancy(1.0) == 2, "... but still occupies the window"
    [(shed, _)] = decode_replies(server.offer(request(2, 2.0), 2.0))
    assert shed.status == "shed-queue"
    # Once the batch's completion time passes, the slots free.
    assert server.occupancy(c0) == 0
    assert server.offer(request(3, c0), c0) == []


def test_shed_oldest_evicts_the_oldest_pending_request():
    server = make_server(queue_capacity=3, overload="shed-oldest")
    for i in range(3):
        server.offer(request(i, float(i)), float(i))
    [(reply, _)] = decode_replies(server.offer(request(3, 3.0), 3.0))
    assert reply.status == "shed-queue" and reply.request_id == 0, \
        "the oldest queued request is the victim, not the arrival"
    assert server.stats.admitted == 4
    # The victim's rows never reach the engine.
    drained = decode_replies(server.drain(3.0))
    assert sorted(m.request_id for m, _ in drained) == [1, 2, 3]
    assert all(m.ok for m, _ in drained)


def test_deadline_drop_purges_expired_queued_requests():
    server = make_server(queue_capacity=2, overload="deadline-drop")
    server.offer(request(0, 0.0, deadline=50.0), 0.0)
    server.offer(request(1, 1.0, deadline=5_000.0), 1.0)
    # At t=100 request 0's deadline has passed; the arrival takes its slot.
    replies = decode_replies(server.offer(request(2, 100.0, deadline=5_000.0), 100.0))
    assert [(m.request_id, m.status) for m, _ in replies] == [(0, "shed-deadline")]
    assert server.stats.shed_deadline == 1 and server.stats.admitted == 3


def test_deadline_drop_race_resolves_in_favour_of_the_departed_batch():
    """A request already dispatched in a batch is past the point of no return:
    deadline-drop may only purge *queued* requests."""
    server = make_server(max_batch=2, queue_capacity=2, overload="deadline-drop")
    server.offer(request(0, 0.0, deadline=10.0), 0.0)
    replies = decode_replies(server.offer(request(1, 1.0, deadline=10.0), 1.0))
    assert all(m.ok for m, _ in replies), "the full batch departed and served"
    completion = replies[0][1]
    assert completion > 10.0, "the batch completes after both deadlines"
    # At t=20 both served requests' deadlines are past, but they are
    # executing, not queued: the arrival cannot reclaim their slots.
    [(shed, _)] = decode_replies(server.offer(request(2, 20.0, deadline=30.0), 20.0))
    assert shed.status == "shed-queue"
    assert server.stats.shed_deadline == 0


def test_block_policy_parks_and_unblocks_in_fifo_order():
    server = make_server(max_batch=2, queue_capacity=2, overload="block")
    server.offer(request(0, 0.0), 0.0)
    [(r0, c0), (r1, _)] = decode_replies(server.offer(request(1, 1.0), 1.0))
    assert r0.ok and r1.ok
    # The window is full of executing work: the next two arrivals park.
    assert server.offer(request(2, 2.0), 2.0) == []
    assert server.offer(request(3, 3.0), 3.0) == []
    assert server.stats.blocked == 2 and server.stats.shed == 0
    # The server asks for a timer at the completion that frees the window.
    assert server.next_deadline_us() == pytest.approx(c0)
    replies = decode_replies(server.on_timer(c0))
    assert [m.request_id for m, _ in replies] == [2, 3], \
        "backlog admits FIFO and forms the next batch"
    assert all(m.ok for m, _ in replies)
    assert server.stats.block_time_us == pytest.approx((c0 - 2.0) + (c0 - 3.0))
    unblocks = [rid for _, event, _, rid, _ in server.decision_log if event == "unblock"]
    assert unblocks == [2, 3]


# ------------------------------------------------------------ client retries
def test_retry_backoff_progression_is_capped():
    policy = RetryPolicy(max_attempts=5, base_backoff_us=100.0, multiplier=2.0,
                         cap_us=400.0)
    assert [policy.backoff_us(k) for k in range(4)] == [100.0, 200.0, 400.0, 400.0]

    client = ServingClient("c0", feature_dim=FEATURES, retry=policy, seed=1)
    frame = client.new_request_frame(0.0)
    req, _ = decode_message(frame)
    shed = encode_reply(EvalReply(request_id=req.request_id, client_id="c0",
                                  status="shed-queue"))
    resend_times = []
    now = 0.0
    for _ in range(4):
        action = client.deliver(shed, now)
        assert action is not None
        now, frame = action
        resend_times.append(now)
        sent, _ = decode_message(frame)
        assert sent.attempt == len(resend_times)
        assert sent.first_send_us == 0.0, "retries keep the original send time"
    # 5th shed reply exhausts max_attempts: the request is abandoned.
    assert client.deliver(shed, now) is None
    assert resend_times == [100.0, 300.0, 700.0, 1100.0]
    assert client.stats.retries == 4 and client.stats.gave_up == 1
    assert client.outstanding == 0


def test_retry_storm_under_sustained_overload_stays_bounded():
    """Every shed spawns at most max_attempts-1 retries, then clients give up:
    total sends are bounded even when the server sheds almost everything."""
    retry = RetryPolicy(max_attempts=3, base_backoff_us=50.0, cap_us=200.0)
    server = make_server(max_batch=4, queue_capacity=4, flush_timeout_us=300.0)
    gen = LoadGenerator(PoissonProcess(150_000.0), 16, feature_dim=FEATURES,
                        retry=retry, seed=3)
    result = run_serving(server, gen, 10_000.0)
    report = build_slo_report(result)
    assert report.shed_queue > 0, "the storm must actually overload the window"
    assert report.retries > 0
    assert report.sends <= report.requests * retry.max_attempts
    assert report.gave_up > 0
    assert report.requests == report.completed + report.gave_up, \
        "every request resolves: served or abandoned, none lost"


def _shed_reply_for(client, send_us=0.0):
    frame = client.new_request_frame(send_us)
    req, _ = decode_message(frame)
    return encode_reply(EvalReply(request_id=req.request_id,
                                  client_id=client.client_id,
                                  status="shed-queue"))


def _retry_waits(seed, jitter="decorrelated", retries=3):
    policy = RetryPolicy(max_attempts=retries + 1, base_backoff_us=100.0,
                         cap_us=2_000.0, jitter=jitter)
    client = ServingClient("c0", feature_dim=FEATURES, retry=policy, seed=seed)
    shed = _shed_reply_for(client)
    waits, now = [], 0.0
    for _ in range(retries):
        resend_at, _ = client.deliver(shed, now)
        waits.append(resend_at - now)
        now = resend_at
    return waits


def test_retry_policy_rejects_unknown_jitter_mode():
    with pytest.raises(ValueError, match="unknown jitter mode"):
        RetryPolicy(jitter="bogus")


def test_jitter_is_off_by_default_and_costs_nothing_when_off():
    assert RetryPolicy().jitter == "none"
    client = ServingClient("c0", feature_dim=FEATURES, retry=RetryPolicy(),
                           seed=1)
    assert client._backoff_rng is None, \
        "jitter='none' must not even build the RNG (bit-identity guarantee)"
    # The deterministic ladder is unchanged by the jitter machinery existing.
    assert _retry_waits(1, jitter="none") == [100.0, 200.0, 400.0]


def test_decorrelated_jitter_draws_stay_within_bounds():
    base, cap = 100.0, 2_000.0
    waits = _retry_waits(5, retries=8)
    assert waits[0] == base, \
        "the first wait follows prev=0: uniform(base, base) is exactly base"
    prev = waits[0]
    for wait in waits[1:]:
        assert base <= wait <= min(cap, 3.0 * prev), \
            f"wait {wait} outside [base, min(cap, 3*prev={3 * prev})]"
        prev = wait
    assert any(w != waits[0] for w in waits[1:]), "the draws must actually jitter"


def test_decorrelated_jitter_is_a_pure_function_of_the_seed():
    assert _retry_waits(9) == _retry_waits(9)
    assert _retry_waits(9) != _retry_waits(10), \
        "different client seeds must de-synchronise the retry schedule"


def test_jittered_retry_storm_stays_bounded_and_replays():
    """Jitter de-syncs the fleet without losing the storm's guarantees."""
    def run():
        retry = RetryPolicy(max_attempts=3, base_backoff_us=50.0, cap_us=200.0,
                            jitter="decorrelated")
        server = make_server(max_batch=4, queue_capacity=4, flush_timeout_us=300.0)
        gen = LoadGenerator(PoissonProcess(150_000.0), 16, feature_dim=FEATURES,
                            retry=retry, seed=3)
        return build_slo_report(run_serving(server, gen, 10_000.0))

    report = run()
    assert report.shed_queue > 0 and report.retries > 0
    assert report.sends <= report.requests * 3
    assert report.requests == report.completed + report.gave_up, \
        "every request resolves: served or abandoned, none lost"
    assert report.format() == run().format(), \
        "the jittered fleet must still replay bit-for-bit under one seed"


def test_late_ok_reply_counts_as_timeout_miss():
    client = ServingClient("c0", feature_dim=FEATURES, request_deadline_us=100.0)
    frame = client.new_request_frame(0.0)
    req, _ = decode_message(frame)
    ok = encode_reply(EvalReply(
        request_id=req.request_id, client_id="c0", status="ok",
        priors=np.zeros((1, NUM_MOVES), np.float32),
        values=np.zeros(1, np.float32), completion_us=250.0))
    client.deliver(ok, 250.0)
    assert client.stats.completed == 1
    assert client.stats.late == 1 and client.stats.on_time == 0


# ------------------------------------------------------------- determinism
def test_arrival_processes_are_seed_deterministic():
    for process in (PoissonProcess(50_000.0),
                    BurstyProcess(20_000.0, 200_000.0, mean_calm_us=2_000.0,
                                  mean_burst_us=500.0)):
        a = list(process.arrival_times(20_000.0, np.random.default_rng(5)))
        b = list(process.arrival_times(20_000.0, np.random.default_rng(5)))
        c = list(process.arrival_times(20_000.0, np.random.default_rng(6)))
        assert a == b, f"{process!r} must replay bit-for-bit under one seed"
        assert a != c, f"{process!r} must actually depend on the seed"
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))
    trace = TraceReplay([1.0, 2.0, 5_000.0, 30_000.0])
    assert list(trace.arrival_times(10_000.0, np.random.default_rng(0))) == [
        1.0, 2.0, 5_000.0]
    with pytest.raises(ValueError):
        TraceReplay([5.0, 1.0])


def test_same_seed_same_config_reproduces_decisions_and_report():
    def run(seed):
        server = make_server(max_batch=4, queue_capacity=6, flush_timeout_us=200.0,
                             overload="shed-newest", seed=seed)
        gen = LoadGenerator(BurstyProcess(40_000.0, 300_000.0,
                                          mean_calm_us=3_000.0, mean_burst_us=800.0),
                            32, feature_dim=FEATURES, seed=seed)
        result = run_serving(server, gen, 15_000.0)
        return server, build_slo_report(result).format()

    server_a, report_a = run(11)
    server_b, report_b = run(11)
    assert server_a.decision_log_lines() == server_b.decision_log_lines()
    assert report_a == report_b
    server_c, report_c = run(12)
    assert server_a.decision_log_lines() != server_c.decision_log_lines()
    assert report_a != report_c


def test_capacity_probe_is_deterministic():
    a = estimate_capacity_rows_per_sec(make_network, feature_dim=FEATURES,
                                       max_batch=8, seed=3)
    b = estimate_capacity_rows_per_sec(make_network, feature_dim=FEATURES,
                                       max_batch=8, seed=3)
    assert a == b and a > 0


# --------------------------------------------- PR 4 service equivalence bar
def test_unlimited_server_reproduces_bare_service_stats_exactly():
    """Admission off + unbounded window = the PR 4 service, bit for bit.

    The reference drives a bare InferenceService through the same arrival
    stream with the scheduler idiom the server uses internally (eager
    full-batch serves, deadline-cutoff timeout serves).  Arrivals are sparse
    enough that virtual time never rewinds, so a plain monotonic clock
    reproduces the gateway cursor's timeline exactly.
    """
    from repro.backend import GraphEngine
    from repro.rollout.inference import InferenceService
    from repro.system import System

    seed = 0
    max_batch, timeout_us = 4, 300.0
    arrivals = [0.0, 40.0, 90.0, 130.0,          # a full batch
                5_000.0, 5_050.0,                # a timeout partial
                10_000.0, 10_030.0, 10_060.0, 10_090.0]  # another full batch
    feature_blocks = [rows(1, seed=100 + i) for i in range(len(arrivals))]

    server = InferenceServer(make_network(), max_batch=max_batch,
                             queue_capacity=None, rate_limit_per_sec=None,
                             flush_policy=FLUSH_TIMEOUT, flush_timeout_us=timeout_us,
                             seed=seed, name="equiv")
    for index, (t, features) in enumerate(zip(arrivals, feature_blocks)):
        deadline = server.next_deadline_us()
        if deadline is not None and deadline <= t:
            server.on_timer(deadline)
        server.offer(EvalRequest(request_id=index, client_id="c0",
                                 features=features, send_us=t, first_send_us=t),
                     t)
    server.drain(arrivals[-1])

    # Reference: the same wiring by hand, driven with the same triggers.
    reference_system = System.create(seed=seed + 7777, worker="equiv/gateway")
    reference = InferenceService(make_network(), max_batch=max_batch, name="equiv/service",
                                 primary_device=reference_system.device, seed=seed)
    engine = GraphEngine(reference_system, flavor="tensorflow")
    gateway = reference.connect(reference_system, engine, worker="equiv/gateway")

    def fire_due_timer(now_us):
        earliest = reference.earliest_pending_arrival_us()
        if earliest is not None and earliest + timeout_us <= now_us:
            reference_system.clock.advance_to(earliest + timeout_us)
            reference.serve_queued(policy=FLUSH_TIMEOUT, timeout_us=timeout_us,
                                   arrival_cutoff_us=earliest + timeout_us)

    for index, (t, features) in enumerate(zip(arrivals, feature_blocks)):
        fire_due_timer(t)
        reference_system.clock.advance_to(t)
        gateway.submit(features, metadata={"request_id": index, "client_id": "c0"})
        if reference.pending_rows >= max_batch:
            reference.serve_queued(policy=FLUSH_TIMEOUT, timeout_us=timeout_us,
                                   full_batches_only=True, stable_before_us=t)
    while reference.pending_tickets:
        earliest = reference.earliest_pending_arrival_us()
        reference_system.clock.advance_to(max(earliest + timeout_us, arrivals[-1]))
        reference.serve_queued(policy=FLUSH_TIMEOUT, timeout_us=timeout_us)

    served, expected = server.service.stats, reference.stats
    for field in ("requests", "rows", "engine_calls", "max_batch_rows",
                  "queued_waits", "queue_delay_us", "max_queue_delay_us"):
        assert getattr(served, field) == getattr(expected, field), field
    assert served.rows_by_worker == expected.rows_by_worker
    assert served.queue_delay_samples.sample == expected.queue_delay_samples.sample
    for actual, reference_replica in zip(server.service.replicas, reference.replicas):
        assert actual.free_us == reference_replica.free_us
        assert actual.busy_us == reference_replica.busy_us
        assert actual.stats.engine_calls == reference_replica.stats.engine_calls


# ---------------------------------------------------------------- plumbing
def test_server_rejects_bad_configuration():
    with pytest.raises(ValueError):
        make_server(overload="drop-everything")
    with pytest.raises(ValueError):
        make_server(queue_capacity=0)
    with pytest.raises(ValueError):
        make_server(flush_policy="timeout", flush_timeout_us=None)
    with pytest.raises(ValueError):
        InferenceServer(make_network(), flush_policy="sometimes")


def test_duplicate_inflight_request_is_rejected():
    server = make_server()
    server.offer(request(0, 0.0), 0.0)
    with pytest.raises(ValueError):
        server.offer(request(0, 1.0), 1.0)


def test_served_reply_carries_batch_attribution():
    server = make_server(max_batch=2, num_replicas=2)
    server.offer(request(0, 0.0), 0.0)
    replies = decode_replies(server.offer(request(1, 50.0), 50.0))
    assert len(replies) == 2
    for reply, at in replies:
        assert reply.ok
        assert reply.priors.shape == (1, NUM_MOVES)
        assert reply.values.shape == (1,)
        assert reply.replica == 0
        assert at == reply.completion_us > 50.0
    by_id = {reply.request_id: reply for reply, _ in replies}
    assert by_id[0].queue_delay_us > by_id[1].queue_delay_us, \
        "the earlier arrival waited longer for the batch to fill"


# ------------------------------------------------------ admission-time cache
def keyed_request(rid, t=0.0, *, client="c0", key=7, n=1):
    from repro.serving import key_features
    return EvalRequest(request_id=rid, client_id=client,
                       features=key_features(key, n, FEATURES),
                       send_us=t, first_send_us=t, state_key=key, metadata={})


def test_admission_hit_consumes_no_token_and_no_window_slot():
    """A cache hit is answered before every admission defence.

    With the window full of executing work and the client's token bucket
    empty, a keyed repeat is still answered OK — from the cache, at arrival
    time, on no replica — while a keyless arrival in the same state sheds.
    """
    server = make_server(max_batch=2, queue_capacity=2,
                         rate_limit_per_sec=1.0, rate_burst=2.0,
                         cache_capacity=8)
    server.offer(keyed_request(0, 0.0, key=7), 0.0)
    replies = decode_replies(server.offer(request(1, 1.0), 1.0))
    assert all(reply.ok for reply, _ in replies)  # full batch served; cache warm
    assert server.occupancy(2.0) == 2  # window full until the batch completes
    assert server._buckets["c0"].tokens < 1.0  # both admissions spent tokens

    [(hit, at)] = decode_replies(server.offer(keyed_request(2, 2.0, key=7), 2.0))
    assert hit.ok and hit.detail == "cache" and hit.replica == -1
    assert at == 2.0  # answered at admission, not at a batch completion
    assert server.stats.cache_hits == 1 and server.stats.cache_rows == 1
    assert server.occupancy(2.0) == 2, "the hit occupied no window slot"
    assert server._buckets["c0"].tokens < 1.0, "the hit consumed no token"
    assert server.stats.admitted == 2, "the hit never entered the ingress queue"
    assert any(" cache-hit " in line for line in server.decision_log_lines())

    # Same instant, no key: every defence that the hit bypassed applies.
    [(shed, _)] = decode_replies(server.offer(request(3, 2.0), 2.0))
    assert shed.status == "shed-rate"


def test_state_key_roundtrips_and_keyless_frames_are_unchanged():
    keyed = keyed_request(4, 10.0, key=123)
    decoded, _ = decode_message(encode_request(keyed))
    assert decoded.state_key == 123
    assert decoded.features.tobytes() == keyed.features.tobytes()
    keyless = request(5, 10.0)
    assert keyless.state_key is None
    frame = encode_request(keyless)
    assert b"state_key" not in frame, "keyless frames carry no cache field"
    assert decode_message(frame)[0].state_key is None


def test_keyed_run_decision_log_replays_with_cache_hits():
    def run():
        server = make_server(cache_capacity=32, seed=3)
        generator = LoadGenerator(PoissonProcess(40_000.0), 16,
                                  feature_dim=FEATURES, seed=3, key_space=4)
        run_serving(server, generator, 15_000.0)
        return server

    first, second = run(), run()
    assert first.decision_log_lines() == second.decision_log_lines()
    assert first.stats.cache_hits > 0
    assert any(" cache-hit " in line for line in first.decision_log_lines())
    report = build_slo_report(run_serving(make_server(cache_capacity=32, seed=3),
                                          LoadGenerator(PoissonProcess(40_000.0), 16,
                                                        feature_dim=FEATURES, seed=3,
                                                        key_space=4),
                                          15_000.0))
    assert "cache" in report.format()
