"""Tests for message-stability tracking and ordered-log garbage collection."""

from tests.helpers import FakeHost, converged, feed_own_multicasts, make_group, run_until

from repro.sim import SECOND
from repro.vsync.messages import Ordered, StabilityAck, StabilityAnnounce
from repro.vsync.total_order import NACK_DELAY_US, OrderedChannel
from repro.vsync.view import View, ViewId


def test_logs_are_pruned_under_continuous_traffic(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    # Pump messages over several stability periods.
    for burst in range(10):
        for endpoint in endpoints:
            endpoint.send(("m", burst, endpoint.node), size=64)
        env.sim.run_until(env.sim.now + 600_000)
    env.sim.run_until(env.sim.now + 2 * SECOND)
    for endpoint in endpoints:
        assert endpoint.channel.log_pruned > 0, endpoint.node
        # The retained log is a small suffix, not the whole history.
        assert len(endpoint.channel.log) < endpoint.channel.delivered_upto + 1


def test_stability_floor_never_exceeds_slowest_member(env):
    stacks, endpoints, _ = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    for i in range(20):
        endpoints[0].send(("m", i), size=64)
    env.sim.run_until(env.sim.now + 3 * SECOND)
    for endpoint in endpoints:
        floor = endpoint.channel.stable_upto
        assert floor <= min(e.channel.delivered_upto for e in endpoints)


def test_flush_still_correct_after_pruning(env):
    """A view change after heavy (pruned) traffic must still equalise."""
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    for i in range(30):
        endpoints[i % 3].send(("m", i), size=64)
    env.sim.run_until(env.sim.now + 3 * SECOND)
    assert endpoints[0].channel.log_pruned > 0
    # Force a flush via a join.
    from repro.vsync import ProtocolStack
    from tests.helpers import RecordingListener

    late_stack = ProtocolStack(env, "late", stacks[0].addressing)
    late = late_stack.endpoint("g", RecordingListener("late"))
    late.join()
    assert run_until(env, lambda: converged(endpoints + [late], 4), timeout_s=15)
    # All original members delivered all 30 messages exactly once.
    for listener in listeners:
        payloads = [p for _, p in listener.data]
        assert len(payloads) == 30
        assert len(set(payloads)) == 30


def test_stability_state_resets_on_view_change(env):
    stacks, endpoints, _ = make_group(env, 2)
    assert run_until(env, lambda: converged(endpoints, 2))
    for i in range(5):
        endpoints[0].send(("m", i), size=64)
    env.sim.run_until(env.sim.now + 2 * SECOND)
    old_floor = endpoints[0].channel.stable_upto
    assert old_floor >= 0
    endpoints[1].leave()
    assert run_until(env, lambda: converged(endpoints[:1], 1))
    assert endpoints[0].channel.stable_upto == -1  # fresh view, fresh floor


# ----------------------------------------------------------------------
# Tail repair: StabilityAnnounce.top and the sequencer's re-announce
# ----------------------------------------------------------------------
VIEW = View("g", ViewId("p0", 1), ("p0", "p1"))


def ordered(seq):
    return Ordered(group="g", view_id=VIEW.view_id, seq=seq, sender="p0", sender_seq=seq + 1)


def announce(floor, top):
    return StabilityAnnounce(group="g", view_id=VIEW.view_id, floor=floor, top=top)


def test_member_nacks_up_to_the_announced_top(env):
    host = FakeHost(env, "p1")
    channel = OrderedChannel(host)
    channel.install_view(VIEW, {})
    channel.on_ordered(ordered(0))
    # A top we already delivered asks for nothing.
    channel.on_stability_announce(announce(-1, 0))
    env.sim.run_until(env.sim.now + 3 * NACK_DELAY_US)
    assert host.reliable == []
    # Seqs 1 and 2 were lost and nothing later shows the gap: only the
    # announced top does.
    channel.on_stability_announce(announce(-1, 2))
    env.sim.run_until(env.sim.now + NACK_DELAY_US)
    [(dst, nack)] = host.reliable
    assert dst == "p0" and (nack.from_seq, nack.to_seq) == (1, 2)
    channel.on_ordered(ordered(1))
    channel.on_ordered(ordered(2))
    env.sim.run_until(env.sim.now + 3 * NACK_DELAY_US)
    assert len(host.reliable) == 1  # repaired: the NACK stops
    assert [payload for _, payload in host.delivered] == [None, None, None]


def test_sequencer_reannounces_while_a_fresh_ack_trails_its_prefix(env):
    host = FakeHost(env, "p0")
    channel = OrderedChannel(host)
    channel.install_view(VIEW, {})
    channel.send("m0", 1)
    feed_own_multicasts(channel, host)
    assert channel.delivered_upto == 0

    def tick_with_ack_from_p1(delivered_upto):
        env.sim.run_until(env.sim.now + 500_000)
        channel.on_stability_ack(
            StabilityAck(group="g", view_id=VIEW.view_id, member="p1", delivered_upto=delivered_upto)
        )
        channel.tick_stability()

    # p1 lost seq 0.  The tick that first sees the prefix end at 0 waits:
    # an ack from before then proves nothing.
    tick_with_ack_from_p1(-1)
    assert host.multicasts == []
    # An ack received a full idle timeout later still trails: re-announce.
    tick_with_ack_from_p1(-1)
    [reannounce] = host.multicasts
    assert (reannounce.floor, reannounce.top) == (-1, 0)
    assert channel.tail_reannounces == 1
    # Once p1 catches up the floor advances (one ordinary announce) and
    # the re-announcing stops.
    host.multicasts.clear()
    tick_with_ack_from_p1(0)
    tick_with_ack_from_p1(0)
    [floor_announce] = host.multicasts
    assert floor_announce.floor == 0
    assert channel.tail_reannounces == 1
