"""Cross-session measurement memoization: one table shared by all pool workers.

A :class:`~repro.sim.measure_service.MemoizedMeasurementBackend` normally
keeps a private per-workload table, which dies with the search that built it.
A :class:`SessionPool` instead hands every worker one :class:`SharedMemoTable`,
so a schedule measured by one worker is a hit for every sibling measuring the
same workload — the common case when the same kernel is fanned out over
duplicate backends, or when deterministic searches on twin workers explore
overlapping schedule prefixes.

Entries are keyed by ``scope | schedule-digest`` where the scope (see
:func:`repro.sim.measure_service.workload_memo_scope`) pins the GPU target,
workload shapes/config and measurement protocol: a hit is only possible when
the memoized timing would be bit-identical for the requester.  Values are
futures, so a schedule one worker is *currently* measuring resolves for all
waiters without a second simulation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

from repro.sim.measure_service import failed_future


@dataclass
class SharedMemoStats:
    """Counters of one shared table, aggregated across all workers."""

    #: Lookups issued against the table.
    lookups: int = 0
    #: Lookups answered from the table.
    hits: int = 0
    #: Hits on entries stored by a *different* worker — the measurements the
    #: pool saved that per-session memoization could not have.
    cross_worker_hits: int = 0
    #: Entries written.
    stores: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0

    def as_dict(self) -> dict:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "cross_worker_hits": self.cross_worker_hits,
            "stores": self.stores,
            "evictions": self.evictions,
        }


class SharedMemoTable:
    """Thread-safe, size-bounded (LRU) memo table for measurement futures.

    The table never blocks on a pending measurement: :meth:`get` returns the
    stored future immediately and the caller decides when to resolve it.  Two
    workers racing on the same unmeasured schedule may both simulate it once;
    :meth:`put` keeps the first future so later requesters converge on one
    timing object.  A future that resolved with an exception is never served:
    the next lookup drops it, so one worker's transient failure does not
    reach its siblings.
    """

    def __init__(self, max_entries: int = 65536):
        self.max_entries = int(max_entries)
        self.stats = SharedMemoStats()
        self._entries: "OrderedDict[str, tuple[Future, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def _live(self, key: str) -> "tuple[Future, str] | None":
        """The entry for ``key``; a failed measurement is dropped, not served.

        Caller holds the lock.
        """
        item = self._entries.get(key)
        if item is not None and failed_future(item[0]):
            del self._entries[key]
            return None
        return item

    def get(self, key: str, *, owner: str = "") -> "Future | None":
        """The memoized future for ``key``, or ``None`` on a miss."""
        with self._lock:
            self.stats.lookups += 1
            item = self._live(key)
            if item is None:
                return None
            self._entries.move_to_end(key)
            future, stored_by = item
            self.stats.hits += 1
            if stored_by != owner:
                self.stats.cross_worker_hits += 1
            return future

    def put(self, key: str, future: Future, *, owner: str = "") -> Future:
        """Store ``future`` under ``key`` and return the table's entry.

        If another worker won the race for this key, its future is returned
        instead, so every caller hands out the same timing object.
        """
        with self._lock:
            existing = self._live(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing[0]
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[key] = (future, owner)
            self.stats.stores += 1
            return future

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """JSON-able view: the counters plus the current table size."""
        with self._lock:
            return {**self.stats.as_dict(), "entries": len(self._entries)}
