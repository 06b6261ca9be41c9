"""Distributed query serving: a shard-server actor pool.

The reference serves queries by fanning out to every doc-shard host
(``Msg39`` multicast) whose threads range-read termlists (``Msg2`` →
``Msg5``).  A term-partitioned index inverts that: the coordinator asks
only the servers owning the query's term shards for their posting lists
(already decoded arrays) and evaluates centrally — so a query touches
``O(#terms)`` servers, not all of them.

``ShardServer`` actors each own a static subset of shards across all
generations (segment readers + a decoded-parts cache = the per-host page
cache).  ``DistributedSearcher`` is an :class:`IndexSearcher` whose fetch
stage resolves term → owning shards → servers and fetches all terms' parts
CONCURRENTLY (the ``Msg2::getLists`` parallel fetch); the generation /
tombstone merge, the pipeline and the kernel are the local searcher's, so
it serves every request the local searcher does, bit-identically
(tested)."""

from __future__ import annotations

from .cache import MISSING, LruBytesCache
from .engine import IndexSearcher, _truncate_postings, open_generations
from .kernel import TermPostings
# not called here since the pipeline moved to IndexSearcher.run; kept
# importable because perfbench/spans.py wraps these two names
from .kernel import evaluate  # noqa: F401
from .parse import parse_query  # noqa: F401


def _owned(part: dict) -> dict:
    """A decoded part with every array copied out of the segment read's
    buffers, so the parts cache holds only the bytes it counts."""
    return {k: tuple(a.copy() for a in v) if isinstance(v, tuple)
            else v.copy() for k, v in part.items()}


class ShardServer:
    """Owns ``shard_ids`` of every generation; serves decoded parts."""

    def __init__(self, index_dir: str, shard_ids: list[int],
                 cache_bytes: int = 256 << 20):
        self.owned = frozenset(shard_ids)
        self._gens = open_generations(index_dir)
        self._cache = LruBytesCache(cache_bytes)

    def get_parts(self, term_id: int, with_positions: bool = False):
        """→ list of (gen, decoded-part dict) for owned shards."""
        key = (term_id, with_positions)
        hit = self._cache.get(key, MISSING)
        if hit is not MISSING:
            return hit
        out = [(g.gen, _owned(d)) for g in self._gens
               for d in g.raw_postings(term_id, with_positions, self.owned)]
        self._cache.put(key, out)
        return out


class DistributedSearcher(IndexSearcher):
    """Coordinator: the local searcher's pipeline, fetching from the
    actor pool."""

    def __init__(self, index_dir: str, n_servers: int = 4):
        import ray

        super().__init__(index_dir)
        # shard universe = max over generations (hot sets can differ)
        max_shard = max(
            (g.p * g.s if g.meta["config"].get("salt_all_terms")
             else g.p + len(g.hot_terms) * g.s)
            for g in self._gens)
        self.n_servers = n_servers
        server_cls = ray.remote(num_cpus=0.5)(ShardServer)
        owned = [[s for s in range(max_shard) if s % n_servers == i]
                 for i in range(n_servers)]
        self._servers = [server_cls.remote(index_dir, o) for o in owned]

    def _servers_for_term(self, term_id: int) -> list[int]:
        servers = set()
        for g in self._gens:
            for shard in g.shards_for_term(term_id):
                servers.add(shard % self.n_servers)
        return sorted(servers)

    def _collect_lists(self, pq_, position_ids, deadline, max_list_bytes):
        """Fetch stage over the pool — the closest analogue of the
        reference: ``Msg39`` launches every termlist request concurrently
        and the DEADLINE gates the collection (``Msg39.cpp:429-444``).
        Terms whose fetches miss the deadline evaluate as absent — but
        fetches that already COMPLETED are always harvested (an expired
        deadline does a non-blocking ``ray.get(timeout=0)``, so ready
        lists are never discarded).  Same contract as
        :meth:`IndexSearcher._collect_lists`."""
        import time

        import ray

        futures: dict[int, list] = {}
        for t in pq_.terms:
            tid = t.term_id
            wp = tid in position_ids
            if tid in futures or self._cached(tid, wp) is not MISSING:
                continue
            futures[tid] = [
                self._servers[s].get_parts.remote(tid, wp)
                for s in self._servers_for_term(tid)]
        partial = False
        lists: dict[int, TermPostings | None] = {}
        for t in pq_.terms:
            tid = t.term_id
            if tid in lists:
                continue
            wp = tid in position_ids
            tp = self._cached(tid, wp)
            if tp is MISSING:
                fut = futures.get(tid)
                if fut is None:     # evicted between fan-out and collect
                    fut = [self._servers[s].get_parts.remote(tid, wp)
                           for s in self._servers_for_term(tid)]
                try:
                    # remaining == 0.0 → non-blocking harvest: ready
                    # results are used, pending ones raise
                    remaining = (None if deadline is None else
                                 max(0.0, deadline - time.monotonic()))
                    chunks = ray.get(fut, timeout=remaining)
                except ray.exceptions.GetTimeoutError:
                    lists[tid] = None
                    partial = True
                    continue
                parts = [p for chunk in chunks for p in chunk]
                tp = self._merge_parts(parts, wp)
                self._cache.put((tid, wp), tp)
            if tp is not None and max_list_bytes is not None:
                tp, cut = _truncate_postings(tp, max_list_bytes, wp)
                partial = partial or cut
            lists[tid] = tp
        return lists, partial
