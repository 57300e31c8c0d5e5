"""The ordered channel's O(1) log bookkeeping against full-log scans.

:class:`OrderedChannel` answers "is there a gap", "which range does the
NACK ask for" and "what does a new floor prune" from a held-seq marker
and seq ranges instead of scanning its log.  A hypothesis state machine
drives it side by side with :class:`ScanningChannel`, which recomputes
all three by scanning the whole log, and requires identical state and
identical output after every step.  A counting log then guards that the
delivery path never iterates the log at all.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from tests.helpers import CountingDict, FakeHost, feed_own_multicasts

from repro.sim import SimRuntime
from repro.vsync.messages import Nack, Ordered, StabilityAnnounce
from repro.vsync.total_order import NACK_DELAY_US, OrderedChannel
from repro.vsync.view import View, ViewId

SENDERS = ("p0", "p1", "p2")


class ScanningChannel(OrderedChannel):
    """Reference channel: every log question answered by a full-log scan."""

    def log_gap_exists(self):
        return any(seq > self.delivered_upto + 1 for seq in self.log)

    def _arm_nack(self):
        self._nack_armed = True
        view_at_arm = self.view.view_id if self.view else None

        def fire():
            self._nack_armed = False
            if self.view is None or self.view.view_id != view_at_arm or self.frozen:
                return
            if not self.log_gap_exists():
                return
            missing_to = max(s for s in self.log if s > self.delivered_upto + 1) - 1
            nack = Nack(
                group=self.host.group,
                view_id=self.view.view_id,
                from_seq=self.delivered_upto + 1,
                to_seq=missing_to,
                requester=self.host.node,
            )
            self.host.reliable_send(self.view.coordinator, nack)
            self._arm_nack()

        self.host.env.scheduler.schedule(NACK_DELAY_US, fire)

    def _apply_floor(self, floor):
        if self.view is None or floor <= self.stable_upto:
            return
        self.stable_upto = floor
        for seq in [s for s in self.log if s <= floor]:
            del self.log[seq]
            self.log_pruned += 1

    def apply_fill(self, cut, missing):
        for seq in [s for s in self.log if s > cut]:
            del self.log[seq]
        for seq, msg in missing.items():
            if seq not in self.log and seq <= cut:
                self.log[seq] = msg
        self._try_deliver()
        if self.delivered_upto < cut:
            raise RuntimeError("flush fill incomplete")


def ordered(view_id, seq, floor=-1):
    """The sequencer's message ``seq`` of a view (content fixed by ``seq``)."""
    return Ordered(
        group="g",
        view_id=view_id,
        seq=seq,
        sender=SENDERS[seq % len(SENDERS)],
        sender_seq=seq // len(SENDERS) + 1,
        payload=f"m{seq}",
        payload_size=1,
        stable_floor=floor,
    )


class ChannelAgainstScans(RuleBasedStateMachine):
    """A member channel and its scanning reference fed identical inputs.

    Floors are drawn at or below the member's delivered prefix: the
    sequencer computes them as a minimum over every member's reported
    prefix, this member's included, so no real floor is ever higher.
    """

    def __init__(self):
        super().__init__()
        self.env = SimRuntime.create(seed=0)
        self.hosts = (FakeHost(self.env, "p1"), FakeHost(self.env, "p1"))
        self.fast = OrderedChannel(self.hosts[0])
        self.ref = ScanningChannel(self.hosts[1])
        self.views = []
        self.install()

    def both(self, op):
        op(self.fast)
        op(self.ref)

    @property
    def view_id(self):
        return self.views[-1]

    def floor(self, data):
        return data.draw(st.integers(-1, self.ref.delivered_upto), label="floor")

    @rule()
    def install(self):
        self.views.append(ViewId("p0", len(self.views) + 1))
        view = View("g", self.view_id, ("p0", "p1", "p2"))
        floors = self.ref.floor_snapshot()
        self.both(lambda channel: channel.install_view(view, floors))

    @rule(data=st.data(), offset=st.integers(-3, 8))
    def receive(self, data, offset):
        """In-order (offset 1), out-of-order (>1) or duplicate (<1) arrival;
        a low floor stands for a NACK retransmit carrying its first floor."""
        seq = self.ref.delivered_upto + offset
        if seq >= 0:
            msg = ordered(self.view_id, seq, self.floor(data))
            self.both(lambda channel: channel.on_ordered(msg))

    @precondition(lambda self: len(self.views) > 1)
    @rule(data=st.data(), seq=st.integers(0, 8))
    def receive_from_old_view(self, data, seq):
        msg = ordered(self.views[-2], seq, data.draw(st.integers(-1, 8)))
        self.both(lambda channel: channel.on_ordered(msg))

    @rule(data=st.data())
    def announce(self, data):
        msg = StabilityAnnounce(group="g", view_id=self.view_id, floor=self.floor(data))
        self.both(lambda channel: channel.on_stability_announce(msg))

    @rule()
    def tick(self):
        """Let armed NACK timers fire (each channel records its NACKs)."""
        self.env.sim.run_until(self.env.sim.now + NACK_DELAY_US)

    @precondition(lambda self: not self.ref.frozen)
    @rule()
    def freeze(self):
        self.both(OrderedChannel.freeze)

    @precondition(lambda self: self.ref.frozen)
    @rule()
    def thaw(self):
        self.both(OrderedChannel.thaw)

    @precondition(lambda self: self.ref.frozen)
    @rule(data=st.data(), above=st.integers(0, 6))
    def fill(self, data, above):
        """A flush fill: every seq up to the cut the member lacks, plus
        (as a real fill may) some it already holds."""
        cut = self.ref.delivered_upto + above
        missing = {
            seq: ordered(self.view_id, seq)
            for seq in range(self.ref.delivered_upto + 1, cut + 1)
            if seq not in self.ref.log or data.draw(st.booleans(), label=f"resend {seq}")
        }
        self.both(lambda channel: channel.apply_fill(cut, missing))

    @invariant()
    def agrees_with_scans(self):
        fast, ref = self.fast, self.ref
        assert fast.log_gap_exists() == any(
            seq > ref.delivered_upto + 1 for seq in ref.log
        )
        assert list(fast.log.items()) == list(ref.log.items())
        assert fast.log_pruned == ref.log_pruned
        assert (fast.delivered_upto, fast.stable_upto) == (
            ref.delivered_upto,
            ref.stable_upto,
        )
        assert fast.dedup_floor == ref.dedup_floor
        # Every NACK sent, with its (from_seq, to_seq), and every delivery.
        assert self.hosts[0].reliable == self.hosts[1].reliable
        assert self.hosts[0].delivered == self.hosts[1].delivered


ChannelAgainstScans.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestChannelAgainstScans = ChannelAgainstScans.TestCase


def test_in_order_delivery_never_iterates_the_log(env):
    host = FakeHost(env, "p0")
    channel = OrderedChannel(host)
    channel.install_view(View("g", ViewId("p0", 1), ("p0", "p1")), {})
    channel.log = log = CountingDict()
    for i in range(5000):
        channel.send(i, 1)
        feed_own_multicasts(channel, host)
    assert len(host.delivered) == 5000
    assert len(log) == 5000  # the floor never advanced: nothing was pruned
    assert log.iterations == 0
