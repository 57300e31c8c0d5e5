"""Cluster-level latency and liveness of the self-clocked batcher (§15).

The packer holds a payload only behind one of this process's own sends
still being ordered on the HWG.  These scenarios pin the consequences on
a live cluster: an idle send pays no batching delay, a burst reaches the
wire as one singleton plus one batch, and a buffer caught by a sequencer
crash is neither stranded nor duplicated.
"""

from collections import Counter

from repro.core import LwgConfig, LwgListener
from repro.core.messages import LwgBatch, LwgData
from repro.sim import SECOND
from repro.workloads import Cluster

MEMBERS = 4


class Deliveries(LwgListener):
    """Records every delivered payload with the sim time it arrived."""

    def __init__(self, env):
        self.env = env
        self.data = []

    def on_data(self, lwg, src, payload, size):
        self.data.append((self.env.now, src, payload))


def settled_group(seed=4, enable_batching=True):
    """A 4-member LWG on one HWG, converged and idle at t = 5 s."""
    config = LwgConfig()
    config.enable_batching = enable_batching
    cluster = Cluster(num_processes=MEMBERS, seed=seed, lwg_config=config)
    listeners = [Deliveries(cluster.env) for _ in range(MEMBERS)]
    handles = [cluster.service(i).join("g", listeners[i]) for i in range(MEMBERS)]

    def converged():
        views = [h.view for h in handles]
        return all(v is not None and len(v.members) == MEMBERS for v in views) and (
            len({v.view_id for v in views}) == 1
        )

    assert cluster.run_until(converged, timeout_us=5 * SECOND)
    cluster.run_for(5 * SECOND - cluster.env.now)
    return cluster, handles, listeners


def hwg_of(cluster, handles):
    hwg = handles[0].hwg
    assert all(h.hwg == hwg for h in handles)
    return hwg


def record_wire(cluster, node, hwg):
    """Wrap ``node``'s endpoint for ``hwg``: list every LWG data send."""
    endpoint = cluster.stack(node).endpoints[hwg]
    wire = []
    send = endpoint.send

    def recording_send(payload, size=256):
        if isinstance(payload, (LwgData, LwgBatch)):
            wire.append(payload)
        send(payload, size)

    endpoint.send = recording_send
    return endpoint, wire


def test_idle_send_pays_no_batching_delay():
    arrivals = {}
    for enable in (True, False):
        cluster, handles, listeners = settled_group(enable_batching=enable)
        sent_at = cluster.env.now
        handles[1].send("probe", 256)
        cluster.run_for(1 * SECOND)
        arrivals[enable] = [
            [t for t, _, payload in rec.data if payload == "probe"] for rec in listeners
        ]
        assert all(len(times) == 1 and times[0] > sent_at for times in arrivals[enable])
    assert arrivals[True] == arrivals[False]


def test_burst_reaches_the_wire_as_singleton_plus_one_batch():
    k = 6
    cluster, handles, listeners = settled_group()
    hwg = hwg_of(cluster, handles)
    endpoint, wire = record_wire(cluster, 1, hwg)
    assert not endpoint.channel.pending  # idle: nothing of ours in flight
    for i in range(k):
        handles[1].send(f"m{i}", 256)
    cluster.run_for(1 * SECOND)
    assert len(wire) == 2
    first, batch = wire
    assert isinstance(first, LwgData) and first.payload == "m0"
    assert isinstance(batch, LwgBatch)
    assert [e.payload for e in batch.entries] == [f"m{i}" for i in range(1, k)]
    for rec in listeners:
        assert [p for _, _, p in rec.data] == [f"m{i}" for i in range(k)]


def test_sequencer_crash_strands_no_buffered_entry():
    """Entries buffered behind a send the crashed sequencer never ordered
    reach the channel at ``on_stop``, before the next view installs, and
    are delivered exactly once there."""
    k = 5
    cluster, handles, listeners = settled_group()
    hwg = hwg_of(cluster, handles)
    sequencer = cluster.stack(0).endpoints[hwg].current_view.coordinator
    survivors = [i for i in range(MEMBERS) if cluster.node_id(i) != sequencer]
    sender = survivors[0]
    service = cluster.service(sender)
    buffered_at_install = []

    def on_record(record):
        fields = record.fields
        if (
            record.event == "view_installed"
            and fields["node"] == cluster.node_id(sender)
            and fields["group"] == hwg
        ):
            buffered_at_install.append(service.packer.pending_entries(hwg))

    cluster.env.tracer.subscribe(on_record, categories=["hwg"])
    for i in range(k):
        handles[sender].send(f"m{i}", 256)
    # m0 is in flight to the sequencer; the rest wait behind it.
    assert service.packer.pending_entries(hwg) == k - 1
    crashed_at = cluster.env.now
    cluster.crash(sequencer)
    cluster.run_for(10 * SECOND)
    assert buffered_at_install and buffered_at_install[0] == 0
    expected = Counter(f"m{i}" for i in range(k))
    for i in survivors:
        delivered = Counter(p for _, _, p in listeners[i].data)
        assert delivered == expected, (cluster.node_id(i), delivered)
        # Nothing was ordered before the crash: all of it rode the
        # view change.
        assert all(t > crashed_at for t, _, _ in listeners[i].data)
        assert len(handles[i].view.members) == MEMBERS - 1
