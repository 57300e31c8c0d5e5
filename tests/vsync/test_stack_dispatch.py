"""Tests for the protocol stack's message dispatch and handler registry."""

import pytest

from tests.helpers import RecordingListener, converged, make_group, run_until

from repro.sim import SECOND, SimRuntime
from repro.vsync import GroupAddressing, ProtocolStack
from repro.vsync.messages import Ordered, Publish, VsyncMessage
from repro.vsync.view import ViewId
from repro.workloads import Cluster


def test_extra_handler_consumes_before_vsync(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    seen = []

    def handler(src, msg):
        if msg == "custom":
            seen.append((src, msg))
            return True
        return False

    stack.register_handler(handler)
    other = ProtocolStack(env, "p1", addressing)
    other.send("p0", "custom")
    env.sim.run_until(10_000)
    assert seen == [("p1", "custom")]


def test_unconsumed_non_vsync_payloads_are_dropped(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    other.send("p0", {"random": "dict"})
    env.sim.run_until(10_000)  # no exception: silently ignored


def test_message_for_unknown_group_is_ignored(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    stray = Ordered(group="ghost", view_id=ViewId("x", 1), seq=0, sender="p1")
    other.send("p0", stray)
    env.sim.run_until(10_000)  # dropped without error


def test_any_traffic_feeds_the_failure_detector(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    stack.fd.monitor("p1")
    # Starve heartbeats by cutting p1's timers: simply never run long
    # enough for HB, but send an unrelated message.
    other.send("p0", {"noise": True})
    env.sim.run_until(10_000)
    assert not stack.fd.is_suspected("p1")


def test_two_groups_on_one_stack_are_independent(env):
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(2)]
    listeners_a = [RecordingListener(s.node) for s in stacks]
    listeners_b = [RecordingListener(s.node) for s in stacks]
    group_a = [s.endpoint("ga", listeners_a[i]) for i, s in enumerate(stacks)]
    group_b = [s.endpoint("gb", listeners_b[i]) for i, s in enumerate(stacks)]
    for endpoint in group_a + group_b:
        endpoint.join()
    assert run_until(env, lambda: converged(group_a, 2) and converged(group_b, 2))
    group_a[0].send("for-a")
    group_b[1].send("for-b")
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert [p for _, p in listeners_a[1].data] == ["for-a"]
    assert [p for _, p in listeners_b[0].data] == ["for-b"]


def test_view_seq_is_monotonic_across_groups(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    values = [stack.next_view_seq() for _ in range(10)]
    assert values == sorted(values)
    assert len(set(values)) == 10


# ----------------------------------------------------------------------
# Fast paths against the general ladder
# ----------------------------------------------------------------------
class Recorder:
    """Stands in for a sub-machine: logs every method called through it."""

    def __init__(self, log, name):
        self._log = log
        self._name = name

    def __getattr__(self, attr):
        return Recorder(self._log, f"{self._name}.{attr}")

    def __call__(self, *args, **kwargs):
        self._log.append(self._name)
        return Recorder(self._log, f"{self._name}()")


def concrete_messages():
    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return sorted(set(walk(VsyncMessage)), key=lambda cls: cls.__name__)


def route(msg, entry, zoned):
    """Handlers one message reaches when it enters the stack at ``entry``."""
    stack = ProtocolStack(SimRuntime.create(seed=1), "p0", GroupAddressing())
    endpoint = stack.endpoint("g")
    log = []
    stack.fd = Recorder(log, "fd")
    stack.transport = Recorder(log, "transport")
    if zoned:
        stack.zones = Recorder(log, "zones")
    for part in ("channel", "vcm", "participant", "apply_install"):
        setattr(endpoint, part, Recorder(log, part))
    if entry == "network":
        stack.on_message("p1", msg, msg.size_bytes())
    elif entry == "control":
        stack._deliver_control("p1", msg, msg.size_bytes())
    else:
        stack._dispatch("p1", msg)
    return log


@pytest.mark.parametrize("zoned", [False, True], ids=["flat", "zoned"])
@pytest.mark.parametrize("cls", concrete_messages(), ids=lambda cls: cls.__name__)
def test_fast_paths_reach_the_ladders_handler(cls, zoned):
    """``on_message`` and ``_deliver_control`` short-cut the data path
    (``Ordered``, ``Publish``, ``Heartbeat``) past the general isinstance
    ladder in ``_dispatch``; every concrete message type must still end
    at exactly the handlers the ladder picks."""
    msg = cls(group="g")
    ladder = route(msg, "ladder", zoned)
    assert route(msg, "network", zoned) == ["fd.on_heartbeat"] + ladder
    assert route(msg, "control", zoned) == ladder


def test_data_path_messages_reach_the_channel():
    assert route(Ordered(group="g"), "network", False) == ["fd.on_heartbeat", "channel.on_ordered"]
    assert route(Publish(group="g"), "control", False) == ["channel.on_publish"]


def test_no_registered_handler_claims_a_vsync_message():
    """The fast paths skip ``extra_handlers``: sound only while none of
    the handlers the layers above register claims a vsync message."""
    cluster = Cluster(num_processes=2, seed=1)
    stack = cluster.stack(0)
    assert stack.extra_handlers
    for cls in concrete_messages():
        for handler in stack.extra_handlers:
            assert handler("p1", cls(group="g")) is False, (handler, cls)
