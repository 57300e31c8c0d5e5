"""The reliable transport's O(1) sender bookkeeping against full scans.

:class:`ReliableTransport` clears acknowledged segments by seq range and
reads its sender floor off the first ``unacked`` key instead of scanning
``unacked``.  A hypothesis state machine drives it side by side with
:class:`ScanningTransport`, which does both by full scans, through
random sends, acks, retransmissions, give-ups and restarts, and requires
identical retained segments, queue order and wire output after every
step.  A counting ``unacked`` then guards that acked sends cost O(1).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.helpers import CountingDict

from repro.sim import ReliableTransport, Simulation, SimRuntime
from repro.sim.transport import _PeerState, _Segment

PEERS = ("b", "c")


class ScanningTransport(ReliableTransport):
    """Reference transport: floor and ack pruning by full ``unacked`` scans."""

    def _sender_floor(self, state):
        return min(state.unacked) if state.unacked else state.next_send_seq

    def _on_ack(self, src, up_to):
        state = self._peer(src)
        if up_to > state.acked_up_to:
            state.acked_up_to = up_to
            for seq in [s for s in state.unacked if s <= up_to]:
                del state.unacked[seq]
            self._drain_queue(src)


class RecordingRuntime:
    """Just enough runtime for a transport: a shared clock and a wire log."""

    def __init__(self, sim):
        self.scheduler = sim
        self.fabric = self
        self.sent = []

    def send(self, src, dst, payload, size):
        self.sent.append((src, dst, payload, size))


class TransportAgainstScans(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        self.runtimes = (RecordingRuntime(self.sim), RecordingRuntime(self.sim))
        options = dict(retransmit_timeout_us=20_000, max_retries=2, window=4)
        self.fast = ReliableTransport(self.runtimes[0], "a", None, **options)
        self.ref = ScanningTransport(self.runtimes[1], "a", None, **options)
        self.sends = 0

    def both(self, op):
        op(self.fast)
        op(self.ref)

    @rule(dst=st.sampled_from(PEERS), size=st.integers(1, 512))
    def send(self, dst, size):
        self.sends += 1
        payload = f"m{self.sends}"
        self.both(lambda transport: transport.send(dst, payload, size))

    @rule(data=st.data(), src=st.sampled_from(PEERS), stale=st.booleans())
    def ack(self, data, src, stale):
        """A cumulative ack, possibly old or from a previous incarnation."""
        state = self.ref._peers.get(src) or _PeerState()
        up_to = data.draw(st.integers(state.acked_up_to - 2, state.next_send_seq - 1))
        incarnation = self.ref.incarnation - stale
        segment = _Segment("ack", up_to, incarnation=incarnation)
        self.both(lambda transport: transport.on_segment(src, segment))

    @rule(delay=st.integers(0, 200_000))
    def advance(self, delay):
        """Let retransmissions and give-ups fire."""
        self.sim.run_until(self.sim.now + delay)

    @rule()
    def restart(self):
        self.both(ReliableTransport.restart)

    @invariant()
    def agrees_with_scans(self):
        for peer in PEERS:
            fast, ref = self.fast._peers.get(peer), self.ref._peers.get(peer)
            assert (fast is None) == (ref is None)
            if fast is not None:
                assert list(fast.unacked.items()) == list(ref.unacked.items())
                assert (fast.acked_up_to, fast.next_send_seq) == (
                    ref.acked_up_to,
                    ref.next_send_seq,
                )
            assert list(self.fast._queued.get(peer, ())) == list(
                self.ref._queued.get(peer, ())
            )
        # Every segment on the wire, sender floor included.
        assert self.runtimes[0].sent == self.runtimes[1].sent
        assert (self.fast.retransmissions, self.fast.gave_up) == (
            self.ref.retransmissions,
            self.ref.gave_up,
        )


TransportAgainstScans.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestTransportAgainstScans = TransportAgainstScans.TestCase


def test_acked_sends_never_scan_unacked():
    env = SimRuntime.create(seed=0)
    delivered = []
    sender = ReliableTransport(env, "a", None)
    receiver = ReliableTransport(env, "b", lambda src, p, s: delivered.append(p))
    env.fabric.attach("a", lambda src, seg, size: sender.on_segment(src, seg))
    env.fabric.attach("b", lambda src, seg, size: receiver.on_segment(src, seg))
    unacked = sender._peer("b").unacked = CountingDict()
    for i in range(5000):
        sender.send("b", i)
    env.sim.run()
    assert delivered == list(range(5000))
    assert not unacked
    # Each transmission reads one key (its sender floor); nothing scans.
    assert unacked.full_scans == 0
    assert unacked.keys_visited == 5000 + sender.retransmissions
