"""Bounded ingest queues with an explicit backpressure policy.

A queue sits between a source and its consumer, bounding how much the
process buffers.  :class:`RecordQueue` holds the stream's record batches
between window closes, with its capacity counted in records;
:class:`BoundedQueue` holds arbitrary items (the quote servers' requests).
Two policies govern a full queue:

* ``block`` — the producer must wait: the queue refuses what does not
  fit and the caller drains the queue downstream before retrying.
  Nothing is ever lost; in the in-process replay harness "waiting"
  degenerates to draining immediately, while a socket-fed deployment
  would stop reading from the exporter (TCP/SCTP backpressure).
* ``drop-oldest`` — bounded memory wins over completeness: the oldest
  buffered records or items are evicted (and counted) to make room, the
  way a fixed-size kernel socket buffer sheds load.

Every drop and forced drain is counted locally and in the global
:data:`~repro.runtime.metrics.METRICS` registry, so lossy runs are
visible in the run report rather than silent.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.errors import ConfigurationError
from repro.netflow.records import NetFlowRecord, RecordBatch
from repro.obs import METRICS

#: Accepted backpressure policies.
POLICIES = ("block", "drop-oldest")


def _validated(capacity: int, policy: str) -> int:
    if capacity < 1:
        raise ConfigurationError(f"queue capacity must be >= 1, got {capacity}")
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown backpressure policy {policy!r}; expected one of "
            f"{POLICIES}"
        )
    return int(capacity)


class RecordQueue:
    """A FIFO of record batches holding at most ``capacity`` records."""

    def __init__(self, capacity: int, policy: str = "block") -> None:
        self.capacity = _validated(capacity, policy)
        self.policy = policy
        self._batches: "collections.deque[RecordBatch]" = collections.deque()
        self._size = 0
        self.dropped = 0
        self.blocked = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        """Records queued."""
        return self._size

    def offer(self, batch: RecordBatch) -> Optional[RecordBatch]:
        """Enqueue a batch; returns the records that did not fit.

        Under ``block`` the queue takes what fits; when records remain,
        the caller must drain downstream and offer the rest again (each
        such refusal counts once in :attr:`blocked`).  Under
        ``drop-oldest`` everything is taken, and the oldest queued
        records are evicted past the capacity.  Returns ``None`` when
        nothing remains.
        """
        rest = None
        if self.policy == "block":
            room = self.capacity - self._size
            if len(batch) > room:
                self.blocked += 1
                METRICS.incr("stream.queue_blocked")
                batch, rest = batch.take(slice(0, room)), batch.take(slice(room, None))
        self._append(batch)
        excess = self._size - self.capacity
        if excess > 0:
            self.dropped += excess
            METRICS.incr("stream.queue_dropped", excess)
            self._evict(excess)
        self.high_watermark = max(self.high_watermark, self._size)
        return rest

    def _append(self, batch: RecordBatch) -> None:
        if len(batch):
            self._batches.append(batch)
            self._size += len(batch)

    def _evict(self, n: int) -> None:
        while n:
            head = self._batches[0]
            if len(head) <= n:
                self._batches.popleft()
                n -= len(head)
                self._size -= len(head)
            else:
                self._batches[0] = head.take(slice(n, None))
                self._size -= n
                n = 0

    def drain(self) -> RecordBatch:
        """Remove and return everything queued, in arrival order."""
        out = RecordBatch.concat(list(self._batches))
        self._batches.clear()
        self._size = 0
        return out

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def snapshot(self) -> RecordBatch:
        """The queued records, in order, without removing them."""
        return RecordBatch.concat(list(self._batches))

    def counters(self) -> dict:
        return {
            "dropped": self.dropped,
            "blocked": self.blocked,
            "high_watermark": self.high_watermark,
        }

    def restore(self, batch: RecordBatch, counters: "dict | None" = None) -> None:
        """Refill the queue from a checkpoint snapshot."""
        if len(batch) > self.capacity:
            raise ConfigurationError(
                f"checkpoint holds {len(batch)} queued records but the "
                f"queue capacity is {self.capacity}"
            )
        self._batches.clear()
        self._size = 0
        self._append(batch)
        counters = counters or {}
        self.dropped = int(counters.get("dropped", 0))
        self.blocked = int(counters.get("blocked", 0))
        self.high_watermark = max(int(counters.get("high_watermark", 0)), self._size)


class BoundedQueue:
    """A FIFO of items with a hard capacity and a full-queue policy."""

    def __init__(self, capacity: int, policy: str = "block") -> None:
        self.capacity = _validated(capacity, policy)
        self.policy = policy
        self._queue: "collections.deque[NetFlowRecord]" = collections.deque()
        self.dropped = 0
        self.blocked = 0
        self.high_watermark = 0
        #: Optional hook invoked with each record evicted under
        #: ``drop-oldest`` — the quote server uses it to answer shed
        #: requests with a degraded quote instead of losing them silently.
        self.on_evict = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    def offer(self, record: NetFlowRecord) -> bool:
        """Try to enqueue one record.

        Returns ``False`` only under the ``block`` policy with a full
        queue — the caller must drain downstream and retry.  Under
        ``drop-oldest`` the record is always accepted, evicting the
        oldest buffered record when full.
        """
        if self.full:
            if self.policy == "block":
                self.blocked += 1
                METRICS.incr("stream.queue_blocked")
                return False
            victim = self._queue.popleft()
            self.dropped += 1
            METRICS.incr("stream.queue_dropped")
            if self.on_evict is not None:
                self.on_evict(victim)
        self._queue.append(record)
        self.high_watermark = max(self.high_watermark, len(self._queue))
        return True

    def drain(self) -> "list[NetFlowRecord]":
        """Remove and return everything buffered, in arrival order."""
        out = list(self._queue)
        self._queue.clear()
        return out

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def snapshot(self) -> "list[NetFlowRecord]":
        """The buffered records, in order, without removing them."""
        return list(self._queue)

    def counters(self) -> dict:
        return {
            "dropped": self.dropped,
            "blocked": self.blocked,
            "high_watermark": self.high_watermark,
        }

    def restore(
        self, records: "list[NetFlowRecord]", counters: "dict | None" = None
    ) -> None:
        """Refill the queue from a checkpoint snapshot."""
        if len(records) > self.capacity:
            raise ConfigurationError(
                f"checkpoint holds {len(records)} queued records but the "
                f"queue capacity is {self.capacity}"
            )
        self._queue = collections.deque(records)
        counters = counters or {}
        self.dropped = int(counters.get("dropped", 0))
        self.blocked = int(counters.get("blocked", 0))
        self.high_watermark = max(
            int(counters.get("high_watermark", 0)), len(self._queue)
        )
