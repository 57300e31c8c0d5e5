"""Data-path batching: pack LWG DATA payloads per destination HWG.

The paper's economics argue that many light-weight groups amortize one
heavy-weight group's machinery — membership, failure detection, flush.
This module extends the amortization to the data path: LWG ``send()``
payloads bound for the *same* HWG that pile up while one of this
process's sends is still being ordered there are coalesced into a single
:class:`~repro.core.messages.LwgBatch` occupying one slot of the HWG's
total order (one Publish, one Ordered multicast, one piggybacked ack),
instead of one full protocol round-trip per payload.

The packer is self-clocked (the Nagle / group-commit shape): on an idle
HWG a payload goes out at once, and the buffer is released when our own
outstanding send comes back delivered, so the batch size follows the
ordering round-trip and no window needs tuning.

Correctness rules (PROTOCOLS.md §15):

* **Entry order is send order.**  A batch is unpacked in tuple order at
  every receiver, inside a single totally-ordered delivery, so FIFO per
  sender and group-wide total order are exactly what the unbatched path
  gives.
* **Control messages flush first.**  Any non-DATA LWG message sent on an
  HWG (view minting, join/leave, switch, merge) flushes that HWG's
  pending batch before it is handed to the ordered channel — data sent
  before a control message is never reordered after it.
* **View changes flush first.**  The HWG ``on_stop`` upcall (flush
  protocol starting) flushes the packer before acknowledging the stop,
  so buffered payloads reach the ordered channel in the closing view —
  either ordered before the cut or queued and re-published in the next
  view by the channel's own pending machinery.
* **Crash wipes the buffer.**  Fail-stop semantics: payloads buffered at
  a crashed process are lost exactly like payloads queued in its ordered
  channel.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..naming.records import HwgId
from .messages import MIXED_BATCH, LwgBatch, LwgData


class BatchPacker:
    """Per-HWG self-clocked, byte-bounded coalescing of :class:`LwgData`.

    ``transmit(hwg, message)`` forwards a flushed message (a raw
    ``LwgData`` for singleton flushes, an ``LwgBatch`` otherwise) to the
    HWG's ordered channel; ``in_flight(hwg)`` tells whether a send of
    ours on ``hwg`` is still waiting to be delivered back to us.
    """

    def __init__(
        self,
        node: str,
        transmit: Callable[[HwgId, LwgData | LwgBatch], None],
        in_flight: Callable[[HwgId], bool],
        max_bytes: int,
    ):
        self.node = node
        self._transmit = transmit
        self._in_flight = in_flight
        self.max_bytes = max_bytes
        self._buffers: Dict[HwgId, List[LwgData]] = {}
        self._buffered_bytes: Dict[HwgId, int] = {}
        self._batch_seq = 0

    # ------------------------------------------------------------------
    # Enqueue / flush
    # ------------------------------------------------------------------
    def enqueue(self, hwg: HwgId, message: LwgData) -> None:
        """Buffer ``message`` for ``hwg``; flush on an idle HWG or the byte cap."""
        buffer = self._buffers.setdefault(hwg, [])
        buffer.append(message)
        total = self._buffered_bytes.get(hwg, 0) + message.payload_size
        self._buffered_bytes[hwg] = total
        if total >= self.max_bytes or not self._in_flight(hwg):
            self.flush(hwg)

    def release(self, hwg: HwgId) -> None:
        """One of our sends on ``hwg`` was delivered: flush if none is left.

        Liveness: a payload is only ever buffered behind one of our own
        sends still in flight on ``hwg``.  That send is either delivered,
        which lands here, or a view change starts and ``on_stop``
        flushes — so no buffer outlives the ordering round it waits on.
        """
        if self._buffers.get(hwg) and not self._in_flight(hwg):
            self.flush(hwg)

    def flush(self, hwg: HwgId) -> None:
        """Emit the pending buffer for ``hwg`` (no-op when empty)."""
        buffer = self._buffers.get(hwg)
        if not buffer:
            return
        entries, self._buffers[hwg] = buffer, []
        self._buffered_bytes[hwg] = 0
        if len(entries) == 1:
            # No packing win for a singleton: send the bare LwgData and
            # skip the batch envelope (and the unpack accounting).
            self._transmit(hwg, entries[0])
            return
        self._batch_seq += 1
        lwgs = {entry.lwg for entry in entries}
        batch = LwgBatch(
            lwg=entries[0].lwg if len(lwgs) == 1 else MIXED_BATCH,
            sender=self.node,
            batch_seq=self._batch_seq,
            entries=tuple(entries),
        )
        self._transmit(hwg, batch)

    def reset(self) -> None:
        """Drop all buffered payloads (fail-stop crash semantics)."""
        self._buffers.clear()
        self._buffered_bytes.clear()

    def pending_entries(self, hwg: HwgId) -> int:
        return len(self._buffers.get(hwg, ()))
