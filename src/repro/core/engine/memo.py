"""Bounded, stats-instrumented in-process memos for the physics caches.

The engine memoizes two families of expensive pure functions: per-spec
device-physics energy curves (:mod:`repro.core.engine.matmul`) and
per-``(geometry, context)`` variation physics
(:mod:`repro.core.engine.corners`).  Long serving runs and die sweeps
churn through thousands of distinct keys, so every memo is bounded with
the same LRU discipline as the serving layer's
:class:`~repro.serving.cache.ReportCache`: lookups refresh recency,
inserts evict the least-recently-used entry past the bound, and every
hit / miss / eviction is counted so cache behaviour is a first-class
observable (``repro sweep --json``, ``repro serve --stats``).

Example:
    >>> memo = LRUMemo(max_entries=2)
    >>> memo.get("a") is None
    True
    >>> memo.put("a", 1); memo.put("b", 2); memo.put("c", 3)
    >>> memo.get("a") is None   # evicted as LRU
    True
    >>> memo.stats.evictions
    1
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError


@dataclass
class MemoStats:
    """Lookup accounting of one :class:`LRUMemo`.

    Attributes:
        hits / misses: lookup outcomes since construction or ``reset``.
        insertions: successful ``put`` calls.
        evictions: entries dropped to enforce the bound.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUMemo:
    """A bounded LRU mapping with hit/miss/eviction accounting.

    Thread-safe: the serving flush worker shares the engine's
    module-level memos with the thread that calls ``serve``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"memo needs >= 1 entry, got {max_entries}"
            )
        self.max_entries = max_entries
        self.stats = MemoStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        """Membership probe; does not count as a lookup or touch LRU."""
        return key in self._entries

    def get(self, key: Any, default: Optional[Any] = None) -> Optional[Any]:
        """The memoized value for ``key`` (counted, recency-refreshing)."""
        with self._lock:
            if key not in self._entries:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]

    def put(self, key: Any, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past the bound."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (lookup accounting is kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the lookup accounting."""
        with self._lock:
            self.stats = MemoStats()
