"""Tests for the network fabric's hot-path caches and delivery counters.

The sorted-destination memo and the partition-block cache trade repeated
work for invalidation obligations; these tests pin the invalidation
points (attach/detach, set_partitions/heal) and the per-receiver
accounting the fan-out rewrite introduced.
"""

from repro.runtime import RngRegistry
from repro.sim import LinkModel, Network, Simulation


def make_net(seed=0, **link_kwargs):
    sim = Simulation()
    link = LinkModel(jitter_us=0, **link_kwargs)
    net = Network(sim, RngRegistry(seed), link=link)
    return sim, net


def attach(net, *nodes):
    inboxes = {}
    for node in nodes:
        inboxes[node] = []
        net.attach(node, lambda src, p, s, n=node: inboxes[n].append((src, p)))
    return inboxes


# ----------------------------------------------------------------------
# Sorted-destination memo
# ----------------------------------------------------------------------
def test_repeated_multicast_reuses_memoized_order():
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c", "d")
    for _ in range(3):
        net.multicast("a", {"b", "c", "d"}, "m")
    sim.run()
    assert len(net._sorted_dsts) == 1
    assert net._sorted_dsts[frozenset({"b", "c", "d"})] == ("b", "c", "d")
    for node in ("b", "c", "d"):
        assert len(boxes[node]) == 3


def test_memo_cleared_on_attach():
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c")
    net.multicast("a", {"b", "c"}, "m1")
    assert net._sorted_dsts
    boxes.update(attach(net, "d"))
    assert not net._sorted_dsts  # attach invalidates
    net.multicast("a", {"b", "c", "d"}, "m2")
    sim.run()
    assert boxes["d"] == [("a", "m2")]


def test_memo_cleared_on_detach_and_stale_order_not_reused():
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c")
    dsts = {"b", "c"}
    net.multicast("a", dsts, "m1")
    assert frozenset(dsts) in net._sorted_dsts
    net.detach("c")
    assert not net._sorted_dsts  # detach invalidates
    # Same destination set object: "c" is gone, so only "b" receives.
    scheduled = net.multicast("a", dsts, "m2")
    sim.run()
    assert scheduled == 1
    assert boxes["b"] == [("a", "m1"), ("a", "m2")]
    assert boxes["c"] == []


def test_memo_survives_partition_changes():
    # Partitions change reachability, not the sorted order, so the memo
    # is *not* invalidated — deliveries must still respect the blocks.
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c")
    net.multicast("a", {"b", "c"}, "m1")
    memo_before = dict(net._sorted_dsts)
    net.set_partitions([["a", "b"], ["c"]])
    assert net._sorted_dsts == memo_before
    net.multicast("a", {"b", "c"}, "m2")
    sim.run()
    assert ("a", "m2") in boxes["b"]
    assert all(p != "m2" for _, p in boxes["c"])


def test_memo_bound_is_enforced():
    from repro.sim.network import _SORTED_DSTS_MEMO_MAX

    sim, net = make_net()
    attach(net, *[f"n{i}" for i in range(8)])
    net._sorted_dsts = {
        frozenset({f"x{i}"}): (f"x{i}",) for i in range(_SORTED_DSTS_MEMO_MAX)
    }
    net.multicast("n0", {"n1", "n2"}, "m")
    assert len(net._sorted_dsts) == 1  # cleared, then repopulated


# ----------------------------------------------------------------------
# Partition-block cache
# ----------------------------------------------------------------------
def test_partition_blocks_cached_until_change():
    sim, net = make_net()
    attach(net, "a", "b", "c")
    first = net.partition_blocks()
    assert first == [frozenset({"a", "b", "c"})]
    assert net.partition_blocks() is not first  # fresh list per call
    net.set_partitions([["a"], ["b", "c"]])
    assert net.partition_blocks() == [frozenset({"a"}), frozenset({"b", "c"})]


def test_partition_blocks_correct_after_heal():
    sim, net = make_net()
    attach(net, "a", "b", "c", "d")
    net.set_partitions([["a", "b"], ["c", "d"]])
    assert len(net.partition_blocks()) == 2
    net.heal()
    assert net.partition_blocks() == [frozenset({"a", "b", "c", "d"})]


def test_partition_blocks_refreshed_on_attach_detach():
    sim, net = make_net()
    attach(net, "a", "b")
    assert net.partition_blocks() == [frozenset({"a", "b"})]
    attach(net, "c")
    assert net.partition_blocks() == [frozenset({"a", "b", "c"})]
    net.detach("a")
    assert net.partition_blocks() == [frozenset({"b", "c"})]


def test_mutating_returned_blocks_does_not_corrupt_cache():
    sim, net = make_net()
    attach(net, "a", "b")
    blocks = net.partition_blocks()
    blocks.clear()
    assert net.partition_blocks() == [frozenset({"a", "b"})]


# ----------------------------------------------------------------------
# Delivery counters
# ----------------------------------------------------------------------
def test_multicast_counts_unreachable_destinations_as_drops():
    sim, net = make_net()
    attach(net, "a", "b", "c", "d")
    net.set_partitions([["a", "b"], ["c", "d"]])
    scheduled = net.multicast("a", {"b", "c", "d"}, "m")
    assert scheduled == 1  # only b is reachable
    assert net.messages_dropped == 2  # c and d, counted per receiver
    assert net.deliveries_scheduled == 1


def test_multicast_to_crashed_receiver_counts_per_receiver_drop():
    sim, net = make_net()
    attach(net, "a", "b", "c")
    net.set_alive("c", False)
    net.multicast("a", {"b", "c"}, "m")
    assert net.messages_dropped == 1
    assert net.deliveries_scheduled == 1


def test_deliveries_scheduled_counts_unicast_and_loopback():
    sim, net = make_net()
    attach(net, "a", "b")
    net.send("a", "b", "u")
    net.multicast("a", {"a", "b"}, "m")
    assert net.deliveries_scheduled == 3
    sim.run()
    assert net.messages_delivered == 3


def test_dead_sender_multicast_counts_one_drop():
    sim, net = make_net()
    attach(net, "a", "b", "c")
    net.set_alive("a", False)
    assert net.multicast("a", {"b", "c"}, "m") == 0
    assert net.messages_dropped == 1  # dropped at source, not per receiver
    assert net.deliveries_scheduled == 0


def test_multicast_loss_counts_per_receiver():
    sim, net = make_net(loss_probability=1.0)
    attach(net, "a", "b", "c")
    assert net.multicast("a", {"b", "c"}, "m") == 0
    assert net.messages_dropped == 2
    assert net.deliveries_scheduled == 0
