"""The fabric's inlined send paths against the plain cost model.

``Network.send`` and ``Network.multicast`` inline the delivery-time
model and draw jitter with ``Random._randbelow(j + 1)`` instead of
``randint(0, j)``.  Both are replay-critical: one extra or reordered RNG
draw changes every later delivery time.  :class:`ReferenceNetwork` is the
model written out plainly — helper per step, ``randint`` for jitter, a
closure per delivery — and hypothesis drives both fabrics through the
same operations, requiring identical deliveries and counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RngRegistry
from repro.sim import LinkModel, Network, Simulation

NODES = ("a", "b", "c", "d")


class ReferenceNetwork(Network):
    """The delivery-time model as separate, uninlined steps."""

    def _wire_done(self, src, size):
        serialization = self.link.serialization_us(size)
        if self.shared_medium:
            start = max(self.sim.now, self._medium_free_at)
            self._medium_free_at = start + serialization
        else:
            start = max(self.sim.now, self._egress_free_at.get(src, 0))
            self._egress_free_at[src] = start + serialization
        return start + serialization

    def _jitter(self):
        return self._rng.randint(0, self.link.jitter_us) if self.link.jitter_us else 0

    def _rx_done(self, dst, arrival):
        done = max(arrival, self._rx_free_at.get(dst, 0)) + self.link.rx_cost_us
        self._rx_free_at[dst] = done
        return done

    def _schedule(self, done, src, dst, payload, size):
        self.deliveries_scheduled += 1
        self.sim.schedule_at(done, lambda: self._deliver(src, dst, payload, size))

    def _deliver(self, src, dst, payload, size):
        if not self.reachable(src, dst) or dst not in self._callbacks:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self._callbacks[dst](src, payload, size)

    def send(self, src, dst, payload, size=256):
        self.messages_sent += 1
        self.bytes_sent += size
        if not self.reachable(src, dst):
            self.messages_dropped += 1
            return False
        if self.link.loss_probability and self._rng.random() < self.link.loss_probability:
            self.messages_dropped += 1
            return False
        wire_done = self._wire_done(src, size)
        arrival = wire_done + self.link.latency_us + self._jitter()
        self._schedule(self._rx_done(dst, arrival), src, dst, payload, size)
        return True

    def multicast(self, src, dsts, payload, size=256):
        self.messages_sent += 1
        self.bytes_sent += size
        if not self.is_alive(src):
            self.messages_dropped += 1
            return 0
        wire_done = self._wire_done(src, size)
        scheduled = 0
        for dst in sorted(set(dsts)):
            if dst == src:
                arrival = self.sim.now + self.link.latency_us + self._jitter()
            elif not self.reachable(src, dst):
                self.messages_dropped += 1
                continue
            elif self.link.loss_probability and self._rng.random() < self.link.loss_probability:
                self.messages_dropped += 1
                continue
            else:
                arrival = wire_done + self.link.latency_us + self._jitter()
            self._schedule(self._rx_done(dst, arrival), src, dst, payload, size)
            scheduled += 1
        return scheduled


def build(cls, seed, link, shared_medium):
    sim = Simulation()
    net = cls(sim, RngRegistry(seed), link=link, shared_medium=shared_medium)
    inbox = []
    for node in NODES:
        net.attach(node, lambda src, payload, size, n=node: inbox.append((sim.now, src, n, payload)))
    return sim, net, inbox


nodes = st.sampled_from(NODES)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("send"), nodes, nodes, st.integers(1, 2000)),
        st.tuples(st.just("multicast"), nodes, st.frozensets(nodes), st.integers(1, 2000)),
        st.tuples(st.just("run"), st.integers(0, 3000)),
        st.tuples(st.just("partition"), st.frozensets(nodes)),
        st.tuples(st.just("heal"),),
        st.tuples(st.just("crash"), nodes),
        st.tuples(st.just("recover"), nodes),
    ),
    max_size=60,
)


def apply(sim, net, op, index):
    kind = op[0]
    if kind == "send":
        return net.send(op[1], op[2], index, size=op[3])
    if kind == "multicast":
        return net.multicast(op[1], op[2], index, size=op[3])
    if kind == "run":
        sim.run_until(sim.now + op[1])
    elif kind == "partition":
        net.set_partitions([sorted(op[1])])
    elif kind == "heal":
        net.heal()
    elif kind == "crash":
        net.set_alive(op[1], False)
    elif kind == "recover":
        net.set_alive(op[1], True)
    return None


def counters(net):
    return (
        net.messages_sent,
        net.messages_delivered,
        net.messages_dropped,
        net.deliveries_scheduled,
        net.bytes_sent,
    )


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    seed=st.integers(0, 2**16),
    jitter_us=st.sampled_from([0, 1, 100, 5000]),
    loss=st.sampled_from([0.0, 0.3]),
    shared_medium=st.booleans(),
)
def test_inlined_fabric_matches_the_plain_model(ops, seed, jitter_us, loss, shared_medium):
    link = LinkModel(jitter_us=jitter_us, loss_probability=loss)
    fast = build(Network, seed, link, shared_medium)
    ref = build(ReferenceNetwork, seed, link, shared_medium)
    for index, op in enumerate(ops):
        assert apply(fast[0], fast[1], op, index) == apply(ref[0], ref[1], op, index)
    fast[0].run()
    ref[0].run()
    assert fast[2] == ref[2]
    assert counters(fast[1]) == counters(ref[1])


@pytest.mark.parametrize("jitter_us", [1, 7, 100, 1000, 2**20])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_jitter_draw_is_randint(seed, jitter_us):
    """``_randbelow(j + 1)`` is what ``randint(0, j)`` draws, on this interpreter."""
    net = Network(Simulation(), RngRegistry(seed))
    reference = RngRegistry(seed).stream("network")
    fast = [net._randbelow(jitter_us + 1) for _ in range(500)]
    assert fast == [reference.randint(0, jitter_us) for _ in range(500)]
