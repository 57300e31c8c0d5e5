"""Totally-ordered delivery within an installed view.

Within each view the view coordinator acts as *sequencer*: members send
``Publish`` requests to it over reliable FIFO channels, the sequencer
assigns a view-local sequence number and multicasts ``Ordered`` messages
to the whole view.  Receivers deliver in sequence order and NACK gaps.

Cross-view safety is provided by two mechanisms used during flush:

* every member keeps the full ordered log of the current view, so any
  member can supply messages another member is missing;
* per-sender *dedup floors* ``(sender -> highest delivered sender_seq)``
  carried across views in ``InstallView`` make re-publication of
  unordered messages after a view change idempotent.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..runtime.interfaces import NodeId
from .messages import Nack, Ordered, Publish, StabilityAck, StabilityAnnounce
from .view import View

#: How long a receiver waits on a sequence gap before NACKing, microseconds.
NACK_DELAY_US = 30_000

#: Fallback idle-ack timeout when the host exposes no stack config
#: (unit-test fake hosts).  Matches VsyncConfig.ack_idle_timeout_us.
DEFAULT_ACK_IDLE_TIMEOUT_US = 400_000


class OrderedChannel:
    """Sequencer-based total order for one endpoint in one group.

    The ``host`` must provide: ``node``, ``group``, ``env``,
    ``reliable_send(dst, msg)``, ``multicast_view(msg, size)`` and
    ``deliver_data(sender, payload, size)``.
    """

    def __init__(self, host) -> None:
        self.host = host
        self.view: Optional[View] = None
        self.log: Dict[int, Ordered] = {}
        # Highest seq inserted into ``log`` this view.  Every held seq is
        # at or below it, and whenever it exceeds ``delivered_upto + 1``
        # it is itself still held (floors prune only delivered seqs), so
        # it answers "is there a gap, and where does it end" in O(1).
        self._held_top = -1
        self.delivered_upto = -1
        self.next_order_seq = 0  # meaningful at the sequencer only
        self.dedup_floor: Dict[NodeId, int] = {}
        self.my_send_seq = 0
        # sender_seq -> (payload, size): sent but not yet seen delivered.
        self.pending: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        self.frozen = False
        self._ordered_in_view: Set[Tuple[NodeId, int]] = set()
        self._nack_armed = False
        self.delivered_count = 0
        # Stability tracking: log entries at or below the floor are
        # delivered everywhere and can never be needed by a flush.
        self.stable_upto = -1
        self._member_delivered: Dict[NodeId, int] = {}  # sequencer only
        self.log_pruned = 0
        # Piggybacking bookkeeping: acks ride on outgoing Publish
        # headers and floors on Ordered headers; standalone stability
        # messages fire only when the channel has been idle.
        self._last_ack_sent_at = 0
        self._floor_distributed_upto = -1  # sequencer only
        self.acks_piggybacked = 0
        self.floors_piggybacked = 0
        self.standalone_acks = 0
        self.standalone_announces = 0
        # Tail-loss repair.  A member learns from StabilityAnnounce.top
        # that seqs up to ``_known_top`` exist and NACKs what it lacks.
        # The sequencer re-announces while a member's fresh ack trails
        # its delivered prefix on an idle channel (the first announce
        # may itself have been lost); ``_tail_mark`` is when that prefix
        # last moved or was last announced.
        self._known_top = -1
        self._member_acked_at: Dict[NodeId, int] = {}  # sequencer only
        self._top_seen = -1  # sequencer only
        self._tail_mark = 0  # sequencer only
        self.tail_reannounces = 0

    # ------------------------------------------------------------------
    # View lifecycle
    # ------------------------------------------------------------------
    def install_view(self, view: View, dedup_floor: Dict[NodeId, int]) -> None:
        """Reset per-view state and re-publish still-pending messages."""
        self.view = view
        self.log.clear()
        self._held_top = -1
        self.delivered_upto = -1
        self.next_order_seq = 0
        self._ordered_in_view.clear()
        self.frozen = False
        self.stable_upto = -1
        self._member_delivered.clear()
        self._floor_distributed_upto = -1
        self._last_ack_sent_at = self.host.env.now
        self._known_top = -1
        self._member_acked_at.clear()
        self._top_seen = -1
        self._tail_mark = self._last_ack_sent_at
        # The carried floors are authoritative: the flush equalised every
        # continuing member to the branch cut (so a local floor can never
        # legitimately exceed the carried one), and a sender *missing*
        # from the carried map is a fresh incarnation — a member that
        # left/seceded and rejoined — whose restarted sender_seq numbering
        # a stale local floor would silently swallow.
        self.dedup_floor = dict(dedup_floor)
        my_floor = self.dedup_floor.get(self.host.node, -1)
        for sender_seq in [s for s in self.pending if s <= my_floor]:
            del self.pending[sender_seq]
        for sender_seq, (payload, size) in list(self.pending.items()):
            self._publish(sender_seq, payload, size)

    def freeze(self) -> None:
        """Stop ordering/publishing; called when a flush begins."""
        self.frozen = True

    def thaw(self) -> None:
        """Resume in the *same* view after an abandoned view change.

        Used when a flush completed but the round was dropped without
        installing a successor (e.g. a merge-only round whose foreign
        branches all declined).  Per-view state survives; sends queued
        while frozen are (re-)published — the sequencer's
        ``_ordered_in_view`` set makes replays idempotent.
        """
        self.frozen = False
        my_floor = self.dedup_floor.get(self.host.node, -1)
        for sender_seq, (payload, size) in list(self.pending.items()):
            if sender_seq > my_floor:
                self._publish(sender_seq, payload, size)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any, size: int) -> None:
        """Multicast ``payload`` with total-order delivery in the current view.

        If the channel is frozen (view change in progress) the message is
        queued and re-published automatically in the next view.
        """
        self.my_send_seq += 1
        self.pending[self.my_send_seq] = (payload, size)
        if not self.frozen and self.view is not None:
            self._publish(self.my_send_seq, payload, size)

    def _publish(self, sender_seq: int, payload: Any, size: int) -> None:
        assert self.view is not None
        # Piggybacked stability ack: our delivered prefix rides in the
        # Publish header, so an actively-sending member never needs a
        # standalone StabilityAck (see tick_stability's idle fallback).
        msg = Publish(
            group=self.host.group,
            view_id=self.view.view_id,
            sender=self.host.node,
            sender_seq=sender_seq,
            payload=payload,
            payload_size=size,
            acked_upto=self.delivered_upto,
        )
        self._last_ack_sent_at = self.host.env.now
        self.acks_piggybacked += 1
        if self.host.node == self.view.coordinator:
            self.on_publish(self.host.node, msg)
        else:
            self.host.reliable_send(self.view.coordinator, msg)

    # ------------------------------------------------------------------
    # Sequencer side
    # ------------------------------------------------------------------
    def on_publish(self, src: NodeId, msg: Publish) -> None:
        """Sequencer: assign the next order number and multicast."""
        if self.view is None or msg.view_id != self.view.view_id:
            return  # stale view: sender will re-publish after install
        # Absorb the piggybacked ack even for messages the dedup logic
        # discards below — the sender's delivery progress is real either
        # way.  (Harmless at non-coordinators: _member_delivered is only
        # read by the sequencer's floor computation.)
        if msg.acked_upto > self._member_delivered.get(msg.sender, -1):
            self._member_delivered[msg.sender] = msg.acked_upto
        self._member_acked_at[msg.sender] = self.host.env.now
        if self.frozen or self.host.node != self.view.coordinator:
            return
        if msg.sender_seq <= self.dedup_floor.get(msg.sender, -1):
            return
        if (msg.sender, msg.sender_seq) in self._ordered_in_view:
            return
        seq = self.next_order_seq
        self.next_order_seq += 1
        self._ordered_in_view.add((msg.sender, msg.sender_seq))
        # Piggybacked stability floor: every Ordered carries the current
        # floor, so members prune their logs from the data stream itself.
        ordered = Ordered(
            group=msg.group,
            view_id=msg.view_id,
            seq=seq,
            sender=msg.sender,
            sender_seq=msg.sender_seq,
            payload=msg.payload,
            payload_size=msg.payload_size,
            stable_floor=self.stable_upto,
        )
        if self.stable_upto > self._floor_distributed_upto:
            self._floor_distributed_upto = self.stable_upto
            self.floors_piggybacked += 1
        self.host.multicast_view(ordered, ordered.size_bytes())

    def on_nack(self, msg: Nack) -> None:
        """Sequencer: retransmit the requested range to the requester."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        for seq in range(msg.from_seq, msg.to_seq + 1):
            held = self.log.get(seq)
            if held is not None:
                self.host.reliable_send(msg.requester, held)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_ordered(self, msg: Ordered) -> None:
        """Receive an ordered message; deliver contiguously, NACK gaps."""
        view = self.view
        if view is None:
            return
        # Members share the installed view's id object: ``is`` settles
        # almost every check without a call to ``ViewId.__eq__``.
        view_id = msg.view_id
        if view_id is not view.view_id and view_id != view.view_id:
            return
        # Apply the piggybacked stability floor first — it is valid even
        # for duplicates and retransmissions (the monotone guard in
        # _apply_floor discards stale floors from log retransmits; it is
        # tested here too, since the floor rarely moves).
        if msg.stable_floor > self.stable_upto:
            self._apply_floor(msg.stable_floor)
        if self.frozen:
            # Mid-flush: we already reported our delivery state, so any
            # delivery now would diverge from the branch-wide cut.  The
            # fill supplies everything at or below the cut; anything
            # above it is re-published by its sender in the next view.
            return
        seq = msg.seq
        log = self.log
        if seq <= self.delivered_upto or seq in log:
            return
        log[seq] = msg
        if seq > self._held_top:
            self._held_top = seq
        if seq == self.delivered_upto + 1:
            # ``_try_deliver`` inlined: the in-order arrival is the
            # common case, one frame fewer per delivery.
            while seq in log:
                self.delivered_upto = seq
                self._deliver(log[seq])
                seq = self.delivered_upto + 1
        # ``log_gap_exists`` inlined.
        if self._held_top > self.delivered_upto + 1 and not self._nack_armed:
            self._arm_nack()

    def _try_deliver(self) -> None:
        log = self.log
        seq = self.delivered_upto + 1
        while seq in log:
            self.delivered_upto = seq
            self._deliver(log[seq])
            seq = self.delivered_upto + 1

    def _deliver(self, msg: Ordered) -> None:
        host = self.host
        sender = msg.sender
        if msg.sender_seq > self.dedup_floor.get(sender, -1):
            self.dedup_floor[sender] = msg.sender_seq
        if sender == host.node:
            self.pending.pop(msg.sender_seq, None)
        self.delivered_count += 1
        tracer = host.env.tracer
        # Hottest emit in the stack — one per delivered message.  The
        # ``enabled`` guard skips stringifying the view id and building
        # the kwargs dict when nobody watches the "hwg" category.
        if tracer.enabled("hwg"):
            tracer.emit(
                "hwg",
                "data_delivered",
                node=host.node,
                group=host.group,
                view=str(msg.view_id),
                seq=msg.seq,
                sender=sender,
                sender_seq=msg.sender_seq,
            )
        host.deliver_data(sender, msg.payload, msg.payload_size)

    def log_gap_exists(self) -> bool:
        """True if we hold out-of-order messages past a missing sequence.

        ``_try_deliver`` leaves ``delivered_upto + 1`` absent from the
        log, so a gap exists exactly when something above it is held,
        i.e. when the highest held seq lies beyond it.
        """
        return self._held_top > self.delivered_upto + 1

    def _arm_nack(self) -> None:
        self._nack_armed = True
        view_at_arm = self.view.view_id if self.view else None

        def fire() -> None:
            self._nack_armed = False
            if self.view is None or self.view.view_id != view_at_arm or self.frozen:
                return
            # Missing: everything below the highest held seq, and up to
            # the announced top.
            missing_to = max(self._held_top - 1, self._known_top)
            if missing_to <= self.delivered_upto:
                return
            nack = Nack(
                group=self.host.group,
                view_id=self.view.view_id,
                from_seq=self.delivered_upto + 1,
                to_seq=missing_to,
                requester=self.host.node,
            )
            self.host.reliable_send(self.view.coordinator, nack)
            self._arm_nack()  # keep nagging until the gap closes

        self.host.env.scheduler.schedule(NACK_DELAY_US, fire)

    # ------------------------------------------------------------------
    # Stability and log garbage collection
    # ------------------------------------------------------------------
    def _ack_idle_timeout(self) -> int:
        stack = getattr(self.host, "stack", None)
        config = getattr(stack, "config", None)
        return getattr(config, "ack_idle_timeout_us", DEFAULT_ACK_IDLE_TIMEOUT_US)

    def tick_stability(self) -> None:
        """Periodic: report delivery progress / announce the floor.

        Stability information normally piggybacks on the data stream —
        acks ride in Publish headers, floors in Ordered headers.  This
        tick is the *idle fallback*: a member sends a standalone
        :class:`StabilityAck` only if no Publish carried its ack for
        ``ack_idle_timeout_us``; the sequencer computes the floor from
        the collected (piggybacked or standalone) acks and multicasts a
        standalone :class:`StabilityAnnounce` only if no Ordered has
        distributed the current floor yet.
        """
        if self.view is None or self.frozen:
            return
        now = self.host.env.now
        if self.host.node == self.view.coordinator:
            self._compute_floor()
            if self.delivered_upto != self._top_seen:
                self._top_seen = self.delivered_upto
                self._tail_mark = now
            if self.stable_upto > self._floor_distributed_upto:
                self._floor_distributed_upto = self.stable_upto
                self.standalone_announces += 1
                self._announce(now)
            elif self._tail_trails():
                self.tail_reannounces += 1
                self._announce(now)
        else:
            if now - self._last_ack_sent_at < self._ack_idle_timeout():
                return  # a recent Publish already carried our progress
            self._last_ack_sent_at = now
            self.standalone_acks += 1
            ack = StabilityAck(
                group=self.host.group,
                view_id=self.view.view_id,
                member=self.host.node,
                delivered_upto=self.delivered_upto,
            )
            self.host.reliable_send(self.view.coordinator, ack)

    def _announce(self, now: int) -> None:
        """Sequencer: multicast the floor and the end of our prefix."""
        assert self.view is not None
        self._tail_mark = now
        announce = StabilityAnnounce(
            group=self.host.group,
            view_id=self.view.view_id,
            floor=self.stable_upto,
            top=self.delivered_upto,
        )
        self.host.multicast_view(announce, announce.size_bytes())

    def _tail_trails(self) -> bool:
        """Sequencer: has a member acked below our prefix on an idle channel?

        Only an ack received ``ack_idle_timeout_us`` after the prefix last
        moved (or was last announced) counts: without loss, the member had
        the prefix's last message long before it sent such an ack, unless
        the medium queued that ack for longer than the timeout.  No pinned
        fuzz run and no perfbench workload re-announces.
        """
        deadline = self._tail_mark + self._ack_idle_timeout()
        top = self.delivered_upto
        for member, acked_at in self._member_acked_at.items():
            if (
                acked_at > deadline
                and member != self.host.node
                and self._member_delivered.get(member, -1) < top
            ):
                return True
        return False

    def on_stability_ack(self, msg: StabilityAck) -> None:
        """Sequencer: record a member's delivery progress."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        previous = self._member_delivered.get(msg.member, -1)
        if msg.delivered_upto > previous:
            self._member_delivered[msg.member] = msg.delivered_upto
        self._member_acked_at[msg.member] = self.host.env.now

    def _compute_floor(self) -> None:
        """Sequencer: recompute the stability floor and apply it locally.

        The floor propagates to members piggybacked on subsequent
        Ordered messages; :meth:`tick_stability` falls back to a
        standalone announce when the channel idles before that happens.
        """
        assert self.view is not None
        others = [m for m in self.view.members if m != self.host.node]
        if any(m not in self._member_delivered for m in others):
            return  # not everyone has reported yet
        floor = min(
            [self.delivered_upto] + [self._member_delivered[m] for m in others]
        )
        self._apply_floor(floor)

    def _apply_floor(self, floor: int) -> None:
        """Advance ``stable_upto`` and prune the log (monotone, idempotent).

        Nothing at or below the previous floor is held any more, so only
        the newly stable range needs visiting — not the whole log.
        """
        if self.view is None or floor <= self.stable_upto:
            return
        for seq in range(self.stable_upto + 1, floor + 1):
            if self.log.pop(seq, None) is not None:
                self.log_pruned += 1
        self.stable_upto = floor

    def on_stability_announce(self, msg: StabilityAnnounce) -> None:
        """Prune the log up to the announced floor; NACK a lost tail."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        self._apply_floor(msg.floor)
        if msg.top > self.delivered_upto and msg.top > self._known_top:
            # The sequencer's Ordered messages left ahead of this
            # announce, so without loss they are here by the time the
            # NACK timer fires, and it sends nothing.
            self._known_top = msg.top
            if not self._nack_armed:
                self._arm_nack()

    # ------------------------------------------------------------------
    # Flush support
    # ------------------------------------------------------------------
    def have_upto(self) -> int:
        """End of the contiguous prefix of this view we hold (== delivered)."""
        return self.delivered_upto

    def messages_above(self, lo: int) -> Dict[int, Ordered]:
        """Copies of every held message with ``seq > lo`` (for FlushState)."""
        return {seq: msg for seq, msg in self.log.items() if seq > lo}

    def apply_fill(self, cut: int, missing: Dict[int, Ordered]) -> None:
        """Absorb ``missing``, deliver everything up to ``cut``, drop the rest.

        Dropped messages were never delivered by anyone in the branch
        (the cut is the maximum of every member's contiguous coverage);
        their senders re-publish them in the next view.
        """
        # Drop above-cut holdings FIRST: delivering them here would break
        # the branch-wide agreement on the delivered set.
        for seq in range(cut + 1, self._held_top + 1):
            self.log.pop(seq, None)
        # Whatever is kept or filled lies at or below the cut, and the
        # fill delivers exactly up to it.
        self._held_top = cut
        for seq, msg in missing.items():
            if seq not in self.log and seq <= cut:
                self.log[seq] = msg
        self._try_deliver()
        if self.delivered_upto < cut:
            raise RuntimeError(
                f"flush fill incomplete: delivered {self.delivered_upto} < cut {cut} "
                f"(group={self.host.group}, node={self.host.node})"
            )

    def floor_snapshot(self) -> Dict[NodeId, int]:
        """Copy of the per-sender dedup floors (carried in InstallView)."""
        return dict(self.dedup_floor)
