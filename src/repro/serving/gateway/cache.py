"""LRU result cache for the serving gateway.

Results are keyed by ``(query_id, k, index_version)``.  Including the store
version in the key makes embedding hot-swaps self-invalidating: after a
daily refresh every lookup carries the new version and the stale entries
can never be served again — the gateway drops them eagerly with
:meth:`LRUTTLCache.invalidate_version`, and otherwise they age out of the
LRU order.  Entries have no time-to-live: a version key already bounds how
stale an answer can be.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUTTLCache:
    """LRU cache bounded by ``capacity`` entries.

    A ``capacity`` of 0 disables caching entirely (every ``get`` misses and
    ``put`` is a no-op) so callers need no special-casing.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate_version(self, version: int) -> int:
        """Drop every entry keyed to ``version``; returns how many were removed.

        Version keys already prevent stale serves after a hot-swap; this is
        the eager variant that also frees the memory immediately.
        """
        stale = [key for key in self._entries if key[-1] == version]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
