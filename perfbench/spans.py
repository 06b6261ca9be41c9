"""In-memory span recorder that wraps the engine's public names from outside.

``Recorder.install()`` replaces a fixed set of functions and methods with
wrappers that record a span (layer name, start, end, parent span, request
id) around each call; ``restore()`` puts the originals back.  The engine's
code is not changed: every span is taken at the boundary where one layer
calls into the next, which is where the wrapper sits.

Spans stay in memory until :meth:`Recorder.dump` writes them out.  A span's
self time is its duration minus the part covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Recorder:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.requests: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def start_request(self, query: str) -> dict:
        self.request = len(self.requests)
        rec = {"query": query, "plan": None, "dfs": [], "bytes_read": 0,
               "cache_hits": 0, "cache_misses": 0}
        self.requests.append(rec)
        return rec

    def _wrap(self, owner, attr: str, name: str, after=None, before=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                after(args, kwargs, out, state, idx)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    # -- the engine's layer boundaries ---------------------------------

    def install(self) -> None:
        import ray

        from open_source_search_engine_ray.index import build, merge
        from open_source_search_engine_ray.index.segments import SegmentReader
        from open_source_search_engine_ray.query import (distributed, engine,
                                                         kernel)

        cur = self._current

        def cache_probe(args, kwargs):
            se, term_id = args[0], args[1]
            wp = args[2] if len(args) > 2 else kwargs.get("with_positions",
                                                           False)
            hit = (term_id, wp) in se._cache or (term_id, True) in se._cache
            return hit, len(se._cache)

        def cache_count(args, kwargs, out, state, idx):
            hit, n_before = state
            rec = cur()
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
                self.cache_evictions += n_before + 1 - len(args[0]._cache)
            if rec is not None:
                rec["cache_hits" if hit else "cache_misses"] += 1
                if out is not None:
                    rec["dfs"].append(int(out.df))

        def bytes_read(args, kwargs, out, state, idx):
            rec = cur()
            if rec is not None:
                rec["bytes_read"] += int(out.nbytes)

        def decoded(args, kwargs, out, state, idx):
            self.spans[idx].append(len(out["doc_ids"]))

        def plan_tag(args, kwargs, out, state, idx):
            rec = cur()
            if rec is not None:
                rec["plan"] = out
                lists = args[1]
                rec["postings"] = int(sum(tp.df for tp in lists.values()
                                          if tp is not None))

        self._wrap(engine, "parse_query", "query.parse")
        self._wrap(engine.IndexSearcher, "__init__", "query.engine.open")
        self._wrap(engine.IndexSearcher, "get_postings",
                   "query.engine.get_postings", after=cache_count,
                   before=cache_probe)
        self._wrap(SegmentReader, "__init__", "index.segments.open")
        self._wrap(SegmentReader, "read_terms", "index.segments.read_terms",
                   after=bytes_read)
        self._wrap(engine, "decode_posting_row", "index.segments.decode",
                   after=decoded)
        self._wrap(engine, "evaluate", "query.kernel.evaluate")
        self._wrap(kernel, "select_plan", "query.kernel.select_plan",
                   after=plan_tag)
        self._wrap(distributed, "parse_query", "query.parse")
        self._wrap(distributed, "evaluate", "query.kernel.evaluate")
        self._wrap(distributed.DistributedSearcher, "_collect_lists",
                   "query.distributed.collect")
        self._wrap(distributed.DistributedSearcher, "_merge_parts",
                   "query.distributed.merge")
        orig_get = ray.get

        @functools.wraps(orig_get)
        def traced_get(*args, **kwargs):
            # only the coordinator's wait on shard servers is a fetch span
            if not self.in_span("query.distributed.collect"):
                return orig_get(*args, **kwargs)
            idx = self.begin("query.distributed.fetch")
            try:
                return orig_get(*args, **kwargs)
            finally:
                self.end(idx)

        ray.get = traced_get
        self._patched.append((ray, "get", orig_get))
        for attr in ("add_documents", "delete_docs", "delete_convs",
                     "refresh_stats", "compact_merge", "compact"):
            self._wrap(merge, attr, f"index.merge.{attr}")
        # merge holds its own reference to build_index (add and compact)
        self._wrap(merge, "build_index", "index.build.build_index")
        self._wrap(build, "build_index", "index.build.build_index")

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _current(self) -> dict | None:
        return self.requests[self.request] if self.request >= 0 else None

    # -- analysis ------------------------------------------------------

    def self_times_ms(self) -> list[float]:
        """Self time of every span, in ms (duration minus direct
        children)."""
        child = np.zeros(len(self.spans), dtype=np.int64)
        for name, t0, t1, parent, _ in (s[:5] for s in self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
        return [((s[2] - s[1]) - int(child[i])) / 1e6
                for i, s in enumerate(self.spans)]

    def layer_totals(self) -> dict[str, dict]:
        """Per layer name: call count, total ms, self ms and, for decode
        spans, postings decoded."""
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "ms": 0.0, "self_ms": 0.0, "items": 0,
                     "durations": []})
        for s, self_ms in zip(self.spans, self.self_times_ms()):
            d = out[s[0]]
            dur = (s[2] - s[1]) / 1e6
            d["count"] += 1
            d["ms"] += dur
            d["self_ms"] += self_ms
            d["durations"].append(dur)
            if len(s) > 5:
                d["items"] += s[5]
        return out

    def dump(self, f, phase: str) -> None:
        """Write every span and per-request record to ``f`` as JSON
        lines tagged with ``phase``."""
        for s, sm in zip(self.spans, self.self_times_ms()):
            f.write(json.dumps({"phase": phase, "span": s[0],
                                "start_ns": s[1], "end_ns": s[2],
                                "parent": s[3], "request": s[4],
                                "self_ms": round(sm, 6)}) + "\n")
        for i, r in enumerate(self.requests):
            f.write(json.dumps({"phase": phase, "request": i, **r}) + "\n")
