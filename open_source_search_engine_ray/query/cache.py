"""Bounded decoded-list cache for long-lived serving actors.

The reference bounds its per-host page cache (``RdbCache`` /
``Msg5``-side list cache) by a configured byte budget; the engine's
searcher and shard-server actors previously cached decoded
``TermPostings`` without limit, so an adversarial stream of distinct
terms would grow an actor's heap unboundedly.  ``LruBytesCache`` is the
byte-budgeted LRU replacement: entries are sized by their numpy/bytes
payloads at insert time, and least-recently-used entries are evicted
once the budget is exceeded.  Hot lists (stopwords hit by every other
query) stay resident through recency alone — no explicit pinning needed.

Sizing is an estimate taken at insert: lazily-attached fields (the
impact-order cache ``TermPostings.impact``) are not re-measured, which
under-counts by at most ~2× for a list that later serves the
impact-ordered path — the budget is a soft bound, which is all a page
cache needs.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

import numpy as np

MISSING = object()


def approx_nbytes(obj) -> int:
    """Recursive payload size estimate (numpy arrays + byte blobs
    dominate; everything else counts a fixed overhead)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes + 64
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 64
    if isinstance(obj, (list, tuple)):
        return 64 + sum(approx_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 64 + sum(approx_nbytes(v) for v in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return 64 + sum(approx_nbytes(v) for v in vars(obj).values())
    return 64


class LruBytesCache:
    """LRU keyed map bounded by estimated payload bytes.

    ``get`` returns ``default`` on miss — ``None`` is a legitimate cached
    value (an absent term), so callers distinguish misses with the
    :data:`MISSING` sentinel.  ``hits``/``misses`` count lookups (one per
    ``get``/``lookup`` call), ``evictions`` the entries the budget
    pushed out.

    Entries carried over from another cache (:meth:`take_over`) share
    the budget but are older than every entry put here, so they are
    evicted first; lookups, ``len`` and ``in`` do not see them, and
    :meth:`take` removes one for its caller to refresh and put back.

    Every change to the maps, and :meth:`take_over`'s copy, holds the
    cache's lock: a searcher may be reopened while its predecessor still
    serves queries on another thread."""

    def __init__(self, max_bytes: int = 256 << 20):
        self._d: OrderedDict = OrderedDict()   # key -> (value, size)
        self._carried: OrderedDict = OrderedDict()
        self._bytes = 0                        # of both maps
        self.max_bytes = int(max_bytes)
        self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key, default=None):
        return self.lookup((key,), default)

    def lookup(self, keys, default=None):
        """The value of the first of ``keys`` present (made most recent),
        else ``default`` — one hit or one miss."""
        with self._lock:
            for key in keys:
                ent = self._d.get(key)
                if ent is not None:
                    self.hits += 1
                    self._d.move_to_end(key)
                    return ent[0]
            self.misses += 1
        return default

    def take_over(self, other: LruBytesCache) -> None:
        """Carry ``other``'s entries (not those it carries itself) into
        this empty cache: its most recent ones that fit the budget."""
        with other._lock:
            carried = OrderedDict(other._d)
        nbytes = sum(size for _, size in carried.values())
        while nbytes > self.max_bytes:
            _, (_, size) = carried.popitem(last=False)
            nbytes -= size
        with self._lock:
            self._carried = carried
            self._bytes += nbytes

    def take(self, key, default=None):
        """Remove the carried entry ``key`` → its value, or ``default``."""
        with self._lock:
            ent = self._carried.pop(key, None)
            if ent is None:
                return default
            self._bytes -= ent[1]
        return ent[0]

    def put(self, key, value) -> None:
        """Insert ``value``, sized by :func:`approx_nbytes`."""
        size = approx_nbytes(value)
        with self._lock:
            old = self._d.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._d[key] = (value, size)
            self._bytes += size
            # keep at least the newest entry even if it alone busts the
            # budget
            while self._bytes > self.max_bytes and (self._carried
                                                    or len(self._d) > 1):
                _, (_, s) = (self._carried or self._d).popitem(last=False)
                self._bytes -= s
                self.evictions += 1
