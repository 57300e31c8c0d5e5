"""Unit tests for the data-path batch packer (PROTOCOLS.md §15)."""

from repro.core.batching import BatchPacker
from repro.core.messages import MIXED_BATCH, LwgBatch, LwgData
from repro.vsync.view import ViewId


class FakeChannel:
    """Stands in for the HWG ordered channels: every transmit is in flight
    until :meth:`deliver_all` hands it back."""

    def __init__(self):
        self.sent = []
        self.in_flight = set()

    def transmit(self, hwg, msg):
        self.sent.append((hwg, msg))
        self.in_flight.add(hwg)

    def deliver_all(self, hwg):
        self.in_flight.discard(hwg)


def data(lwg="lwg:a", sender="p0", size=100, payload="x"):
    return LwgData(
        lwg=lwg, view_id=ViewId("p0", 1), sender=sender,
        payload=payload, payload_size=size,
    )


def make_packer(channel, max_bytes=400):
    return BatchPacker(
        node="p0",
        transmit=channel.transmit,
        in_flight=lambda hwg: hwg in channel.in_flight,
        max_bytes=max_bytes,
    )


def busy_packer(max_bytes=400, hwgs=("h1",)):
    """A packer with one send already in flight on each of ``hwgs``."""
    channel = FakeChannel()
    packer = make_packer(channel, max_bytes)
    for hwg in hwgs:
        packer.enqueue(hwg, data(payload="first"))
    channel.sent.clear()
    return channel, packer


def test_idle_enqueue_transmits_immediately():
    channel = FakeChannel()
    packer = make_packer(channel)
    packer.enqueue("h1", data(payload="a"))
    assert len(channel.sent) == 1
    hwg, msg = channel.sent[0]
    assert hwg == "h1" and isinstance(msg, LwgData) and msg.payload == "a"
    assert packer.pending_entries("h1") == 0


def test_enqueues_behind_a_pending_send_coalesce_in_send_order():
    channel, packer = busy_packer()
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    assert channel.sent == []
    assert packer.pending_entries("h1") == 2
    # A delivery of someone else's message leaves ours in flight.
    packer.release("h1")
    assert channel.sent == []


def test_own_delivery_release_emits_one_batch():
    channel, packer = busy_packer()
    for payload in "abc":
        packer.enqueue("h1", data(payload=payload))
    channel.deliver_all("h1")
    packer.release("h1")
    assert len(channel.sent) == 1
    batch = channel.sent[0][1]
    assert isinstance(batch, LwgBatch)
    assert [e.payload for e in batch.entries] == ["a", "b", "c"]
    # The batch is itself in flight: the next payload buffers behind it.
    packer.enqueue("h1", data(payload="d"))
    assert len(channel.sent) == 1 and packer.pending_entries("h1") == 1


def test_byte_cap_flushes_immediately():
    channel, packer = busy_packer(max_bytes=150)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))  # 200 bytes >= cap
    assert len(channel.sent) == 1
    assert [e.payload for e in channel.sent[0][1].entries] == ["a", "b"]
    assert packer.pending_entries("h1") == 0


def test_byte_cap_flush_disarms_window_timer():
    """Regression: a byte-cap flush must leave no stale state behind.

    The packer has no window timer any more; what stays is the rule the
    timer bug broke: the batch after a byte-cap flush must neither leave
    early (inherited byte count) nor get stuck. It waits behind the
    capped batch and leaves when that batch is delivered back to us.
    """
    channel, packer = busy_packer(max_bytes=150)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))  # byte-cap flush
    assert len(channel.sent) == 1
    packer.enqueue("h1", data(payload="c"))  # 100 bytes < cap: buffers
    assert len(channel.sent) == 1
    assert packer.pending_entries("h1") == 1
    # Someone else's delivery leaves the capped batch in flight.
    packer.release("h1")
    assert len(channel.sent) == 1
    # Our own delivery releases it as a singleton: bare LwgData.
    channel.deliver_all("h1")
    packer.release("h1")
    assert len(channel.sent) == 2
    assert channel.sent[1][1].payload == "c"


def test_control_flush_emits_the_buffer_early():
    channel, packer = busy_packer()
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    packer.flush("h1")  # control-message flush (hwg_send path)
    assert len(channel.sent) == 1
    assert [e.payload for e in channel.sent[0][1].entries] == ["a", "b"]
    # Nothing is left behind for a later release to re-send.
    channel.deliver_all("h1")
    packer.release("h1")
    assert len(channel.sent) == 1


def test_reset_drops_the_buffer():
    channel, packer = busy_packer()
    packer.enqueue("h1", data(payload="a"))
    packer.reset()  # crash: buffer wiped
    assert packer.pending_entries("h1") == 0
    channel.deliver_all("h1")
    packer.release("h1")
    assert channel.sent == []
    packer.enqueue("h1", data(payload="b"))
    assert [msg.payload for _, msg in channel.sent] == ["b"]


def test_single_lwg_batch_keeps_its_label():
    channel, packer = busy_packer()
    packer.enqueue("h1", data(lwg="lwg:a", payload="a1"))
    packer.enqueue("h1", data(lwg="lwg:a", payload="a2"))
    packer.flush("h1")
    batch = channel.sent[0][1]
    assert batch.lwg == "lwg:a"
    assert batch.lwg_counts() == {"lwg:a": 2}


def test_mixed_lwg_batch_is_marked_mixed():
    """Regression: co-mapped LWGs coalesce; the batch must say so.

    Before the fix the batch was stamped with ``entries[0].lwg``, so
    per-LWG tracing attributed every entry of a mixed batch to whichever
    group happened to be buffered first.
    """
    channel, packer = busy_packer()
    packer.enqueue("h1", data(lwg="lwg:b", payload="b1"))
    packer.enqueue("h1", data(lwg="lwg:a", payload="a1"))
    packer.enqueue("h1", data(lwg="lwg:b", payload="b2"))
    packer.flush("h1")
    batch = channel.sent[0][1]
    assert batch.lwg == MIXED_BATCH
    assert batch.lwg_counts() == {"lwg:a": 1, "lwg:b": 2}
    # Entry order (= send order) is untouched by the labeling.
    assert [e.payload for e in batch.entries] == ["b1", "a1", "b2"]


def test_buffers_are_per_hwg():
    channel, packer = busy_packer(hwgs=("h1", "h2"))
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h2", data(payload="b"))
    # h3 is idle: its payload goes straight out, h1/h2 stay buffered.
    packer.enqueue("h3", data(payload="c"))
    assert [hwg for hwg, _ in channel.sent] == ["h3"]
    channel.deliver_all("h1")
    packer.release("h1")
    assert [hwg for hwg, _ in channel.sent] == ["h3", "h1"]
    assert packer.pending_entries("h2") == 1
