"""One benchmark run of one workload, in its own process.

``run.py`` starts this module as a child process under a watchdog; the
child starts a private Ray session, sets the index up, measures, checks the
results and prints them as one JSON line; ``run.py`` stops Ray and turns
that line into the report and the result.

    python3 perfbench/workloads.py --workload query-cold --seed 1 \
        --seconds 10 --trace 0 --run-dir .perfbench/tmp/x --ray-dir /abs/dir
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (ROOT, HERE):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import gen  # noqa: E402
import probe  # noqa: E402
from spans import Recorder  # noqa: E402

NUM_CPUS = 2          # num_cpus=1 starves the build's read tasks (hangs)
SETUP_REPS = 3        # set-up is repeated and its median reported
K = 10                # results per query
CHECK_QUERIES = 40    # fixed oracle sample per workload
FANOUT_CHECK = 50     # fan-out == local searcher on this many queries
MIN_QUERIES = 1500    # a p99 needs ten samples beyond it; more steadies it
MiB = 1 << 20
PLAN_TAGS = ("exact", "blockmax-single", "maxscore", "impact-single",
             "impact-union")
# per-layer metrics of layers a workload does not run: reported as 0, n=0
DISTRIBUTED = ("query.distributed.fetch_ms", "query.distributed.merge_ms",
               "query.distributed.request_ms")
WARM = ("warm.query.kernel.evaluate.share",
        "warm.query.kernel.evaluate.ms_p50", "warm.query.request.ms",
        "warm.query.cache.hit_ratio")
MAINTENANCE = ("index.merge.add_s_p50", "index.merge.delete_ms_p50",
               "index.merge.compact_merge_s", "index.merge.compact_s",
               "index.merge.add.build_index_s", "index.merge.refresh_stats_ms",
               "index.merge.generations", "index.merge.tombstones",
               "index.merge.bytes_written_per_input_byte")

# Sizes keep one run (Ray start, three set-ups, the measured window, the
# oracle check, shutdown) under a minute on a small shared host; see
# README.md for what each workload is for.
WORKLOADS = {
    "query-cold": {"n_conv": 700, "cache_bytes": 1 * MiB,
                   "fanout_servers": 2, "warm_pool": 300},
    "ingest": {"n_conv": 400, "cache_bytes": 1 * MiB, "gen_convs": 50, "delete_convs": 10,
               "burst": 100, "cycles": 10, "merge_every": 5},
}


def _ms(ns: int) -> float:
    return ns / 1e6


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _text_bytes(tbl: pa.Table) -> int:
    return sum(len(t.encode()) for t in tbl["text"].to_pylist())


def _write_input(tbl: pa.Table, path: str) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(tbl, os.path.join(path, "part-0.parquet"))
    return path


def _same(a, b) -> bool:
    """Same docIDs in the same order with bit-equal float64 scores."""
    return (list(map(int, a[0])) == list(map(int, b[0]))
            and list(map(float, a[1])) == list(map(float, b[1])))


class Run:
    """One run: its directories, measurements, failures and trace."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, run_dir: str, scale: float = 1.0):
        self.name = workload
        self.scale = scale
        self.cfg = dict(WORKLOADS[workload])
        for key in ("n_conv", "gen_convs", "delete_convs", "burst"):
            if key in self.cfg:
                self.cfg[key] = max(2, int(self.cfg[key] * scale))
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.info: dict = {"workload": workload, "seed": seed,
                           "num_cpus": NUM_CPUS, "seconds": seconds,
                           "trace": int(trace)}
        self.rec = Recorder()
        self.recorders = {"queries": self.rec}
        self.tracing = False

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def absent(self, *names: str) -> None:
        for name in names:
            self.metrics[name] = (0.0, "", 0)

    def op(self, fn, *args, **kwargs):
        """One attempted operation; an exception counts as failed and its
        message is kept for the report."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:    # noqa: BLE001 — counted and reported
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            return None

    def fail(self, msg: str) -> None:
        self.wrong.append(msg)

    # -- Ray -------------------------------------------------------------

    def start_ray(self, ray_dir: str) -> None:
        import ray

        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * MiB, _temp_dir=ray_dir)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        self.put("ray.init_s", time.perf_counter() - t0, "s", 1)

    # -- set-up ----------------------------------------------------------

    def setup(self, input_dir: str, turns: int, warm, after=None):
        """Build, open and warm the index ``SETUP_REPS`` times in the run's
        Ray session and keep the last one.  ``warm(index_dir, searcher)``
        is the workload's warm-up; it returns the searcher to measure.
        ``after(searcher)``, untimed here, runs after each set-up."""
        import ray.data

        from open_source_search_engine_ray.index import build
        from open_source_search_engine_ray.query.engine import IndexSearcher

        setups, builds, opens, phases = [], [], [], []
        idx = se = None
        for r in range(SETUP_REPS):
            if idx is not None:
                se = None
                shutil.rmtree(idx)
            idx = os.path.join(self.dir, f"index-{r}")
            t0 = time.perf_counter()
            meta = build.build_index(
                lambda: ray.data.read_parquet(input_dir), idx,
                input_token=f"perfbench:{self.name}:{self.seed}:{r}")
            t1 = time.perf_counter()
            se = IndexSearcher(idx, cache_bytes=self.cfg["cache_bytes"])
            t2 = time.perf_counter()
            se = warm(idx, se)
            setups.append(time.perf_counter() - t0)
            builds.append(t1 - t0)
            opens.append(t2 - t1)
            phases.append(meta["phase_sec"])
            if after is not None:
                after(se)
        n = len(setups)
        self.put("setup_s", _median(setups), "s", n)
        self.put("index.build.turns_per_s", turns / _median(builds),
                 "turns/s", n)
        self.put("query.engine.open_ms", 1e3 * _median(opens), "ms", n)
        for key in ("hot_sample", "spill", "docstats_merge", "encode"):
            self.put(f"index.build.{key}_s",
                     _median([p.get(key, 0.0) for p in phases]), "s", n)
        for key in ("pull", "tokenize", "flush"):
            self.put(f"stages.spill.{key}_s",
                     _median([p.get("spill_detail", {}).get(key, 0.0)
                              for p in phases]), "s", n)
        return idx, se

    # -- measurement -----------------------------------------------------

    def ask(self, searcher, q: str):
        """One timed query → (latency ns, result or None)."""
        rec = self.rec if self.tracing else None
        if rec is not None:
            r = rec.start_request(q)
            span = rec.begin("query.request")
        t0 = time.perf_counter_ns()
        out = self.op(searcher.search, q, K)
        t1 = time.perf_counter_ns()
        if rec is not None:
            rec.end(span)
            rec.request = -1
            r["results"] = 0 if out is None else len(out[0])
            r["ms"] = _ms(t1 - t0)
        return t1 - t0, out

    def query_loop(self, searcher, queries, seconds: float,
                   min_queries: int = 0, start: int = 0) -> list[int]:
        """Closed loop with one client: the next query is sent when the
        previous one has returned, for ``seconds`` and at least
        ``min_queries`` queries, from ``queries[start]`` on.
        → per-query latencies in ns."""
        lat: list[int] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < min_queries:
            lat.append(self.ask(searcher,
                                queries[(start + i) % len(queries)])[0])
            i += 1
        return lat

    def start_tracing(self) -> None:
        self.rec.install()
        self.tracing = True

    def stop_tracing(self) -> None:
        self.rec.restore()
        self.tracing = False

    def put_rss(self) -> None:
        self.put("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", 1)

    def put_slices(self, slices: list[tuple[list[int], float]]) -> None:
        """End-to-end query numbers over the slices measured after each
        set-up, pooled: p50 and p99 of all their requests, qps of all
        requests over all slice time.  The host this was written on
        switches between a fast and a slow phase every ten seconds or so;
        slices spread over the run make each result a blend of both
        rather than a toss-up between them."""
        ms = [[_ms(x) for x in lat] for lat, _ in slices]
        pooled = [x for m in ms for x in m]
        self.info["slice_p50_ms"] = [round(_pct(m, 50), 4) for m in ms]
        self.put("query_p50_ms", _pct(pooled, 50), "ms", len(pooled))
        self.put("query_p99_ms", _pct(pooled, 99), "ms", len(pooled))
        self.put("query_qps", len(pooled) / sum(w for _, w in slices),
                 "1/s", len(pooled))

    def slice_measurer(self, queries):
        """→ (after-set-up callback that measures one slice, slices).
        Untraced runs give the whole window to the slices; traced runs
        give them half and trace the other half (:meth:`traced_window`)."""
        slices: list[tuple[list[int], float]] = []
        share = 1.0 if not self.trace else 0.5
        seconds = self.seconds * share / SETUP_REPS
        min_q = 0 if self.trace else -(-MIN_QUERIES // SETUP_REPS)
        pos = [0]

        def after(se):
            t0 = time.perf_counter()
            lat = self.query_loop(se, queries, seconds, min_q, pos[0])
            slices.append((lat, time.perf_counter() - t0))
            pos[0] += len(lat)

        return after, slices

    def traced_window(self, searcher, queries, start: int) -> None:
        """Traced half of a traced run; the traced p50 minus the untraced
        one is the tracing overhead."""
        self.start_tracing()
        try:
            traced = self.query_loop(searcher, queries, self.seconds / 2,
                                     0, start)
        finally:
            self.stop_tracing()
        self.put("trace.overhead_ms_p50",
                 _pct([_ms(x) for x in traced], 50)
                 - self.metrics["query_p50_ms"][0], "ms", len(traced))

    def put_query_layers(self) -> None:
        """Per-layer numbers of the traced queries, per query."""
        rec = self.rec
        lay = rec.layer_totals()
        n = max(1, len(rec.requests))

        def per_q(name, field="ms"):
            return lay[name][field] / n if name in lay else 0.0

        def durations(name):
            return lay[name]["durations"] if name in lay else [0.0]

        parse = durations("query.parse")
        ev = durations("query.kernel.evaluate")
        self.put("query.parse.ms_p50", _pct(parse, 50), "ms", len(parse))
        self.put("query.kernel.evaluate.ms_p50", _pct(ev, 50), "ms", len(ev))
        self.put("query.kernel.evaluate.ms_p99", _pct(ev, 99), "ms", len(ev))
        plans: dict[str, int] = {}
        for r in rec.requests:
            if r["plan"] is not None:
                plans[r["plan"]] = plans.get(r["plan"], 0) + 1
        for tag in PLAN_TAGS:
            self.put(f"query.kernel.plan.{tag}", plans.get(tag, 0), "count",
                     n)
        notes = self.info.setdefault("notes", [])
        if not plans.get("blockmax-single"):
            notes.append(
                "blockmax-single runs for a one-term query whose list has "
                "block maxima: stored only for lists the build did not "
                "split across salted partitions, recomputed only for lists "
                "of 4096+ postings")
        if not plans.get("maxscore"):
            notes.append(
                "maxscore runs for a disjunction of optional terms "
                "(content words are required, so stopwords only) whose "
                "dfs differ more than 8x; the reference set's one such "
                "query, 'to be or not to be', has about 2x")
        if not plans.get("impact-single") or not plans.get("impact-union"):
            from open_source_search_engine_ray.query.kernel import (
                IMPACT_UNION_MIN_POSTINGS)

            most = max((sum(r["dfs"]) for r in rec.requests), default=0)
            notes.append(
                "impact-single/impact-union run only when a query's lists "
                f"hold more than {IMPACT_UNION_MIN_POSTINGS} postings; the "
                f"most any query here fetched is {most}")
        postings = sum(r.get("postings", 0) for r in rec.requests)
        results = sum(r.get("results", 0) for r in rec.requests)
        self.put("query.kernel.postings_per_result",
                 postings / max(1, results), "postings", results)
        looks = rec.cache_hits + rec.cache_misses
        self.put("query.cache.hit_ratio", rec.cache_hits / max(1, looks),
                 "ratio", looks)
        self.put("query.cache.evictions", rec.cache_evictions, "count", looks)
        self.put("index.segments.open.count",
                 per_q("index.segments.open", "count"), "count/query", n)
        self.put("index.segments.open.ms", per_q("index.segments.open"),
                 "ms/query", n)
        self.put("index.segments.read_terms.ms",
                 per_q("index.segments.read_terms"), "ms/query", n)
        self.put("index.segments.read_terms.bytes",
                 sum(r["bytes_read"] for r in rec.requests) / n, "B/query", n)
        self.put("index.segments.decode.ms", per_q("index.segments.decode"),
                 "ms/query", n)
        self.put("index.segments.decode.postings",
                 per_q("index.segments.decode", "items"), "count/query", n)
        self.put("query.engine.get_postings.self_ms",
                 per_q("query.engine.get_postings", "self_ms"), "ms/query",
                 n)
        self.put("query.request.ms", per_q("query.request"), "ms/query", n)
        # the layer split each query workload exists for
        request_ms = max(1e-9, per_q("query.request"))
        self.put("query.kernel.evaluate.share",
                 per_q("query.kernel.evaluate") / request_ms, "ratio", n)
        self.put("index.segments.share",
                 sum(per_q(f"index.segments.{k}")
                     for k in ("open", "read_terms", "decode")) / request_ms,
                 "ratio", n)

    # -- correctness -----------------------------------------------------

    def check_oracle(self, searcher, table: pa.Table, queries) -> None:
        """engine == oracle over the same corpus: docIDs and float64
        scores."""
        from open_source_search_engine_ray.query.oracle import OracleIndex

        oracle = OracleIndex(table)
        for q in queries:
            got = self.op(searcher.search, q, K)
            if got is not None and not _same(got, oracle.search(q, K)):
                self.fail(f"engine != oracle on {q!r}")


# ---------------------------------------------------------------------------
# workloads


def cold_workload(run: Run, input_dir: str, table: pa.Table) -> None:
    stream = gen.cold_queries(run.seed, 20_000)
    # another seed's stream: warms the code, not the measured lists
    warmup = gen.cold_queries(run.seed + 7919, 100)

    def warm(idx, se):
        for q in warmup:
            se.search(q, K)
        return se

    measure, slices = run.slice_measurer(stream)
    run.info["probe_mid"] = probe.host_probe()
    idx, se = run.setup(input_dir, table.num_rows, warm, measure)
    run.put_slices(slices)
    run.put("index_bytes_per_input_byte",
            _dir_bytes(idx) / _text_bytes(table), "ratio", 1)
    if run.trace:
        run.traced_window(se, stream, sum(len(lat) for lat, _ in slices))
    run.put_rss()
    if run.trace:
        run.put_query_layers()
        run.absent(*MAINTENANCE)
    run.check_oracle(se, table, gen.REFERENCE + stream[-CHECK_QUERIES:])
    fanout(run, idx, se, stream)
    if run.trace:
        warm_replay(run, idx)


def fanout(run: Run, idx: str, se, stream) -> None:
    """The shard-server pool must answer exactly like the local searcher;
    a traced run also times its fetch and merge layers."""
    from open_source_search_engine_ray.query.cache import LruBytesCache
    from open_source_search_engine_ray.query.distributed import (
        DistributedSearcher)

    ds = DistributedSearcher(idx, n_servers=run.cfg["fanout_servers"])
    # the coordinator's merged-list cache gets the local searcher's
    # budget, so fetches keep going to the shard servers
    ds._cache = LruBytesCache(run.cfg["cache_bytes"])
    for q in stream[:FANOUT_CHECK]:
        got = run.op(ds.search, q, K)
        if got is not None and not _same(got, se.search(q, K)):
            run.fail(f"fan-out != IndexSearcher on {q!r}")
    if not run.trace:
        return
    run.rec = run.recorders["fanout"] = Recorder()
    run.start_tracing()
    try:
        run.query_loop(ds, stream[FANOUT_CHECK:], run.seconds / 4)
    finally:
        run.stop_tracing()
    lay = run.rec.layer_totals()
    n = max(1, len(run.rec.requests))
    for key in ("fetch", "merge"):
        name = f"query.distributed.{key}"
        run.put(f"{name}_ms", lay[name]["ms"] / n if name in lay else 0.0,
                "ms/query", n)
    run.put("query.distributed.request_ms", lay["query.request"]["ms"] / n,
            "ms/query", n)


def warm_replay(run: Run, idx: str) -> None:
    """The kernel's share of query time when every list is cached (traced
    runs only): a searcher with the engine's default 256 MiB cache makes
    one pass over a pool of reference-set queries, then replays the pool
    with Zipf popularity."""
    from open_source_search_engine_ray.query.engine import IndexSearcher

    pool = gen.warm_pool(run.seed, run.cfg["warm_pool"])
    se = IndexSearcher(idx)
    for q in pool:
        se.search(q, K)
    stream = [pool[int(i)]
              for i in gen.zipf_replay(run.seed, len(pool), 100_000)]
    rec = run.rec = run.recorders["warm"] = Recorder()
    run.start_tracing()
    try:
        run.query_loop(se, stream, run.seconds / 4)
    finally:
        run.stop_tracing()
    lay = rec.layer_totals()
    n = max(1, len(rec.requests))
    request_ms = max(1e-9, lay["query.request"]["ms"])
    ev = lay["query.kernel.evaluate"]["durations"] or [0.0]
    looks = rec.cache_hits + rec.cache_misses
    run.put("warm.query.kernel.evaluate.share",
            lay["query.kernel.evaluate"]["ms"] / request_ms, "ratio", n)
    run.put("warm.query.kernel.evaluate.ms_p50", _pct(ev, 50), "ms", len(ev))
    run.put("warm.query.request.ms", request_ms / n, "ms/query", n)
    run.put("warm.query.cache.hit_ratio", rec.cache_hits / max(1, looks),
            "ratio", looks)


def ingest_workload(run: Run, input_dir: str, table: pa.Table) -> None:
    import ray.data

    from open_source_search_engine_ray.functions.ghash import (
        doc_ids_for_convs)
    from open_source_search_engine_ray.index import merge
    from open_source_search_engine_ray.query.engine import IndexSearcher

    cfg = run.cfg
    g = cfg["gen_convs"]
    # generation 0 is the set-up's warm-up add; 1.. feed the cycles
    gens = [gen.corpus(run.seed, cfg["n_conv"] + i * g, g)
            for i in range(cfg["cycles"] + 1)]
    gen_dirs = [_write_input(t, os.path.join(run.dir, f"gen-{i}"))
                for i, t in enumerate(gens)]
    stream = gen.cold_queries(run.seed, 20_000)

    def add(idx, i):
        path = gen_dirs[i]
        return merge.add_documents(idx, lambda: ray.data.read_parquet(path),
                                   input_token=f"perfbench:gen{i}")

    def warm(idx, se):
        add(idx, 0)
        se = IndexSearcher(idx, cache_bytes=cfg["cache_bytes"])
        for q in stream[-100:]:
            se.search(q, K)
        return se

    idx, se = run.setup(input_dir, table.num_rows, warm)
    conv_bytes = _conv_text_bytes(table)
    conv_bytes.update(_conv_text_bytes(gens[0]))
    live = set(conv_bytes)
    added = set(gens[0]["conv_id"].to_pylist())
    deleted: set[str] = set()
    rng = gen.schedule_rng(run.seed)
    ops: dict[str, list[float]] = {k: [] for k in (
        "add", "delete", "merge", "rebuild", "open")}
    seen = {"generations": [], "tombstones": [], "written": 0, "input": 0}
    lat: list[int] = []
    run.info["probe_mid"] = probe.host_probe()

    def timed(kind, fn, *args, **kwargs):
        before = _dir_bytes(idx) if run.trace else 0
        t0 = time.perf_counter()
        out = run.op(fn, *args, **kwargs)
        ops[kind].append(time.perf_counter() - t0)
        if run.trace and kind in ("add", "merge", "rebuild"):
            # an add writes one generation; a compaction the whole index
            after = _dir_bytes(idx)
            seen["written"] += after - before if kind == "add" else after
            seen["input"] += sum(conv_bytes[c] for c in (
                _conv_text_bytes(gens[cycle]) if kind == "add" else live))
        return out

    if run.trace:
        run.start_tracing()
    try:
        t_start = time.perf_counter()
        # a fixed amount of work, whatever the host's speed, so that a
        # faster engine does not see more generations and tombstones
        for cycle in range(1, cfg["cycles"] + 1):
            conv_bytes.update(_conv_text_bytes(gens[cycle]))
            if timed("add", add, idx, cycle) is not None:
                new = set(gens[cycle]["conv_id"].to_pylist())
                live |= new
                added |= new
            victims = sorted(live)
            pick = rng.choice(len(victims), size=cfg["delete_convs"],
                              replace=False)
            dead = [victims[int(p)] for p in sorted(pick)]
            if timed("delete", merge.delete_convs, idx, dead) is not None:
                live -= set(dead)
                added -= set(dead)
                deleted |= set(dead)
            if cycle % cfg["merge_every"] == 0:
                timed("merge", merge.compact_merge, idx)
            se = timed("open", IndexSearcher, idx,
                       cache_bytes=cfg["cache_bytes"])
            if se is None:
                continue
            if run.trace:
                seen["generations"].append(len(merge.read_generations(idx)
                                               ["generations"]))
                seen["tombstones"].append(len(merge.read_tombstones(idx)[0]))
            lat += [run.ask(se, q)[0] for q in
                    stream[(cycle - 1) * cfg["burst"]:cycle * cfg["burst"]]]
        busy = time.perf_counter() - t_start
        if run.trace:
            # the CLI's compaction rebuilds the live corpus with
            # build_index, which every set-up already times; it costs as
            # much as a set-up, so only the traced run pays for it
            timed("rebuild", merge.compact, idx)
    finally:
        if run.trace:
            run.stop_tracing()
    run.put_slices([(lat, busy)])
    run.put_rss()
    run.info["cycles"] = cycle
    run.put("index.merge.add_s_p50", _median(ops["add"]), "s",
            len(ops["add"]))
    run.put("index.merge.delete_ms_p50", 1e3 * _median(ops["delete"]), "ms",
            len(ops["delete"]))
    run.put("index.merge.compact_merge_s", _median(ops["merge"]), "s",
            len(ops["merge"]))
    run.put("query.engine.open_ms", 1e3 * _median(ops["open"]), "ms",
            len(ops["open"]))
    if run.trace:
        run.put("index.merge.compact_s", _median(ops["rebuild"]), "s",
                len(ops["rebuild"]))
        run.put_query_layers()
        put_merge_layers(run, seen)
        run.absent(*DISTRIBUTED, *WARM, "trace.overhead_ms_p50")

    # the final state, checked through a freshly opened searcher
    live_tbl = pa.concat_tables([table] + gens[:cycle + 1])
    live_tbl = live_tbl.filter(pa.array(
        [c in live for c in live_tbl["conv_id"].to_pylist()]))
    run.put("index_bytes_per_input_byte",
            _dir_bytes(idx) / _text_bytes(live_tbl), "ratio", 1)
    se = IndexSearcher(idx, cache_bytes=cfg["cache_bytes"])
    if se.n_docs != len(live):
        run.fail(f"n_docs {se.n_docs} != live conversations {len(live)}")
    probes = sorted(added | deleted)
    doc_of = dict(zip(probes, doc_ids_for_convs(probes).tolist()))
    for c in probes:
        docs = se.search(gen.uid_token(run.seed, int(c.rsplit("c", 1)[1])),
                         K)[0]
        want = [doc_of[c]] if c in added else []
        if list(map(int, docs)) != want:
            run.fail(f"{'added' if c in added else 'deleted'} conversation "
                     f"{c}: search by its id token gave {list(docs)}")
    run.check_oracle(se, live_tbl, stream[:CHECK_QUERIES])


def _conv_text_bytes(tbl: pa.Table) -> dict[str, int]:
    out: dict[str, int] = {}
    for c, t in zip(tbl["conv_id"].to_pylist(), tbl["text"].to_pylist()):
        out[c] = out.get(c, 0) + len(t.encode())
    return out


def put_merge_layers(run: Run, seen: dict) -> None:
    lay = run.rec.layer_totals()
    spans = run.rec.spans
    adds = [i for i, s in enumerate(spans)
            if s[0] == "index.merge.add_documents"]
    add_builds = [(s[2] - s[1]) / 1e9 for s in spans
                  if s[0] == "index.build.build_index" and s[3] in adds]
    refresh = lay["index.merge.refresh_stats"]["durations"] \
        if "index.merge.refresh_stats" in lay else []
    run.put("index.merge.add.build_index_s", _median(add_builds), "s",
            len(add_builds))
    run.put("index.merge.refresh_stats_ms", _median(refresh), "ms",
            len(refresh))
    n = len(seen["generations"])
    run.put("index.merge.generations", float(np.mean(seen["generations"])),
            "count", n)
    run.put("index.merge.tombstones", float(np.mean(seen["tombstones"])),
            "count", n)
    run.put("index.merge.bytes_written_per_input_byte",
            seen["written"] / max(1, seen["input"]), "ratio", n)


# ---------------------------------------------------------------------------

def run_workload(run: Run, ray_dir: str) -> None:
    cfg = run.cfg
    table = gen.corpus(run.seed, 0, cfg["n_conv"])
    input_dir = _write_input(table, os.path.join(run.dir, "input"))
    run.info.update(n_conv=cfg["n_conv"], turns=table.num_rows,
                    scale=run.scale,
                    text_bytes=_text_bytes(table))
    # the hash table the tokenizer loads is generated on first import and
    # cached next to the package: make sure that happens before any timing
    import open_source_search_engine_ray.functions.ghash  # noqa: F401

    run.start_ray(ray_dir)
    if run.name == "ingest":
        ingest_workload(run, input_dir, table)
    else:
        cold_workload(run, input_dir, table)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--ray-dir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    a = ap.parse_args(argv)

    run = Run(a.workload, a.seed, a.seconds, bool(a.trace), a.run_dir,
              a.scale)
    run.info["probe_before"] = probe.host_probe()
    t0 = time.perf_counter()
    run_workload(run, a.ray_dir)
    run.info["probe_after"] = probe.host_probe()
    run.info["wall_s"] = round(time.perf_counter() - t0, 3)
    if a.trace and a.trace_out:
        with open(a.trace_out, "w") as f:
            for phase, rec in run.recorders.items():
                rec.dump(f, phase)
    print(json.dumps({"info": run.info, "errors": run.errors[:20],
                      "wrong": run.wrong[:20], "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: list(v) for k, v in
                                  run.metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Ray is not shut down gracefully (about 1.7 s): run.py kills every
    # process of this run's session and waits for them, as
    # ``ray stop --force`` would
    sys.stderr.flush()
    os._exit(code)
