"""Stateful actor-pool segment writers — the fused single-read build pass.

Each writer actor (the LSM in-memory buffer → dump analogue:
``RdbBuckets`` insert + ``RdbDump`` numbered sorted files,
``Rdb.cpp:717-790``) pulls transcript batches from its ``streaming_split``
iterator and, in ONE tokenization pass, produces all three build outputs:

1. posting partials, buffered and spilled as shard-sorted Parquet runs
   (small row groups → the per-shard merge stage prunes to its row groups,
   the ``RdbMap`` page-index analogue);
2. per-turn doc-stat partials (field lengths), aggregated per writer and
   merged by the driver into the doc-stats table / avgdl;
3. the doc store (transcript rows + doc_id), written directly as Parquet
   parts.

Why not ``groupby(shard)``?  Measured on an 8→32-CPU node, the
all-to-all object-store sort of ~10M posting partials is
coordination-bound — wall time stayed flat.  Spilling shard-sorted runs
from the tokenize actors and merging per shard turns the exchange into
embarrassingly parallel file IO, and fusing stats+docstore into the same
pass makes it the build's only read of the input.  On a multi-node
cluster the spill directory is shared storage (the disk-backed shuffle
structure Spark/MR use).

Document lengths and hot terms are NOT decided here (neither is known
until the pass ends): the per-partition encode stage attaches lengths
from the doc-stats table and salts a term from its exact merged counts.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig, NUM_FIELDS
from .tokenize import TokenizePostings

FLUSH_ROWS = 1_500_000
DOCSTORE_FLUSH_ROWS = 500_000
# fractional reservation: writers overlap their own IO waits and leave
# scheduler room for the upstream read tasks
WRITER_CPUS = 0.7
# how long a build waits for CPUs that finishing tasks or killed actors
# are still releasing before it gives up
FREE_CPU_WAIT_S = 10.0


class SpillWriter:
    """Ray actor: consume one streaming split → runs + stats + docstore."""

    def __init__(self, writer_id: int, spill_dir: str, docstore_dir: str,
                 config: IndexConfig, stats_dir: str | None = None):
        self.writer_id = writer_id
        self.spill_dir = spill_dir
        self.docstore_dir = docstore_dir
        # when set, the per-writer doc-stat partial is WRITTEN here instead
        # of returned through the driver (the 10^11-doc path: partials never
        # accumulate driver-side; a distributed aggregate merges them)
        self.stats_dir = stats_dir
        self.tok = TokenizePostings(config)
        self.buf: list[pa.Table] = []
        self.buf_rows = 0
        self.store_buf: list[pa.Table] = []
        self.store_rows = 0
        self.stat_parts: list[pa.Table] = []
        self.n_runs = 0
        self.n_store = 0
        self.n_turns = 0
        self.files: list[str] = []
        self.timings = {"pull": 0.0, "tokenize": 0.0, "flush": 0.0}
        os.makedirs(spill_dir, exist_ok=True)
        if docstore_dir:
            os.makedirs(docstore_dir, exist_ok=True)

    def _flush_postings(self) -> None:
        if not self.buf:
            return
        import json
        import time as _time

        t0 = _time.time()
        tbl = pa.concat_tables(self.buf).combine_chunks()
        self.buf = []
        self.buf_rows = 0
        shard = tbl["shard"].to_numpy()
        order = np.argsort(shard, kind="stable")
        tbl = tbl.take(pa.array(order))
        shard = shard[order]
        path = os.path.join(
            self.spill_dir,
            f"run-{self.writer_id:03d}-{self.n_runs:04d}.arrow")
        tmp = path + ".writing"
        # Arrow IPC with ONE record batch per shard slice: the merge stage
        # random-accesses exactly its shards' batches, zero-copy via mmap —
        # no compression codec on the hot path (RdbMap page-index analogue)
        bounds = np.flatnonzero(
            np.concatenate([[True], shard[1:] != shard[:-1]]))
        ends = np.append(bounds[1:], len(shard))
        batch_shards = [int(shard[b]) for b in bounds]
        with pa.OSFile(tmp, "wb") as sink:
            with pa.ipc.new_file(sink, tbl.schema) as writer:
                for b, e in zip(bounds, ends):
                    writer.write_table(tbl.slice(b, e - b))
        os.replace(tmp, path)
        with open(path + ".shards.json", "w") as f:
            json.dump({"shards": batch_shards,
                       "rows": (ends - bounds).tolist()}, f)
        self.files.append(path)
        self.n_runs += 1
        self.timings["flush"] += _time.time() - t0

    def _flush_store(self) -> None:
        if not self.store_buf or not self.docstore_dir:
            return
        tbl = pa.concat_tables(self.store_buf)
        self.store_buf = []
        self.store_rows = 0
        path = os.path.join(
            self.docstore_dir,
            f"part-{self.writer_id:03d}-{self.n_store:04d}.parquet")
        tmp = path + ".writing"
        pq.write_table(tbl, tmp, compression="snappy")
        os.replace(tmp, path)
        self.n_store += 1

    def consume(self, split):
        import time as _time

        t_last = _time.time()
        for batch in split.iter_batches(batch_format="pyarrow",
                                        batch_size=4096):
            t0 = _time.time()
            self.timings["pull"] += t0 - t_last
            postings, stats = self.tok.process(batch)
            self.timings["tokenize"] += _time.time() - t0
            self.n_turns += batch.num_rows
            if postings.num_rows:
                self.buf.append(postings)
                self.buf_rows += postings.num_rows
            self.stat_parts.append(stats)
            if self.docstore_dir:
                doc_ids = stats["doc_id"]
                self.store_buf.append(batch.append_column("doc_id", doc_ids))
                self.store_rows += batch.num_rows
            if self.buf_rows >= FLUSH_ROWS:
                self._flush_postings()
            if self.store_rows >= DOCSTORE_FLUSH_ROWS:
                self._flush_store()
            t_last = _time.time()
        self._flush_postings()
        self._flush_store()
        # per-writer doc-stat partial aggregate (the driver tree-merges,
        # or — stats_dir set — a distributed aggregate reads it from disk)
        if self.stat_parts:
            df = pa.concat_tables(self.stat_parts).to_pandas()
            agg = {f"len_f{f}": "sum" for f in range(NUM_FIELDS)}
            agg["conv_id"] = "min"
            stats = (df.groupby("doc_id", as_index=False).agg(agg))
            stats_tbl = pa.Table.from_pandas(stats, preserve_index=False)
        else:
            stats_tbl = None
        if self.stats_dir is not None and stats_tbl is not None:
            os.makedirs(self.stats_dir, exist_ok=True)
            path = os.path.join(self.stats_dir,
                                f"stats-{self.writer_id:03d}.parquet")
            pq.write_table(stats_tbl, path + ".writing")
            os.replace(path + ".writing", path)
            stats_tbl = None
        return self.files, stats_tbl, self.n_turns, dict(self.timings)


def spill_postings(transcripts_ds, spill_dir: str, docstore_dir: str,
                   config: IndexConfig, num_writers: int,
                   stats_dir: str | None = None):
    """Run the fused actor pool → (run files, merged doc-stats DataFrame —
    or None when ``stats_dir`` routes the partials to disk —, input turns
    read, per-writer timings summed)."""
    import ray

    writer_cls = ray.remote(num_cpus=WRITER_CPUS)(SpillWriter)
    writers = [writer_cls.remote(i, spill_dir, docstore_dir, config,
                                 stats_dir)
               for i in range(num_writers)]
    # the pool was sized from a free-CPU reading that can lag an actor
    # just placed: writers that cannot start would leave the ray.get
    # below waiting forever.  Asked before the split is set up, so the
    # writers start while it is.
    started = [w.__ray_ready__.remote() for w in writers]
    splits = transcripts_ds.streaming_split(num_writers, equal=False)
    futs = [w.consume.remote(s) for w, s in zip(writers, splits)]
    _, pending = ray.wait(started, num_returns=len(started),
                          timeout=FREE_CPU_WAIT_S)
    if pending:
        for w in writers:
            ray.kill(w)
        raise _no_free_cpus(ray.available_resources().get("CPU", 0.0),
                            ray.cluster_resources().get("CPU", 0.0))
    files: list[str] = []
    stat_tables: list[pa.Table] = []
    n_turns = 0
    timings = {"pull": 0.0, "tokenize": 0.0, "flush": 0.0}
    for f, st, n, tm in ray.get(futs):
        files.extend(f)
        n_turns += n
        if st is not None:
            stat_tables.append(st)
        for k, v in tm.items():
            timings[k] += v
    for w in writers:
        ray.kill(w)
    merged = _merge_doc_stats(stat_tables) if stats_dir is None else None
    return files, merged, n_turns, timings


def _writers_for(cpus: float) -> int:
    # each writer reserves WRITER_CPUS and one full CPU stays free, or
    # the upstream read tasks can never schedule and the split pull
    # deadlocks
    return max(0, min(int(cpus), int((cpus - 1) / WRITER_CPUS + 1e-9)))


def reserve_spill_writers() -> int:
    """Size the writer pool to the session's free CPUs: one per CPU's
    worth when they are free, else — after waiting up to
    ``FREE_CPU_WAIT_S`` for CPUs still being released — as many as fit.
    Raises ``RuntimeError`` when not even one writer and one read task
    fit (live actors hold the CPUs, or a 1-CPU session): the pool's
    ``ray.get`` would otherwise wait forever."""
    import gc
    import time

    import ray

    total = ray.cluster_resources().get("CPU", 0.0)
    want = _writers_for(total)
    deadline = time.monotonic() + FREE_CPU_WAIT_S
    collected = False
    while True:
        free = ray.available_resources().get("CPU", 0.0)
        fits = min(want, _writers_for(free))
        if fits == want or time.monotonic() >= deadline:
            break
        if not collected:
            # unreachable actor handles (a finished Ray Data actor
            # pool's, say) hold their CPUs until the driver collects them
            gc.collect()
            collected = True
        time.sleep(0.1)
    if fits == 0:
        raise _no_free_cpus(free, total)
    return fits


def _no_free_cpus(free: float, total: float) -> RuntimeError:
    return RuntimeError(
        f"spill build needs {WRITER_CPUS + 1:g} free CPUs (one writer "
        f"× {WRITER_CPUS} + 1 read task) but {free:g} of the "
        f"session's {total:g} are free; stop the actors holding them "
        f"or start Ray with more CPUs")


# above this row count the doc-stat partial merge goes through a Ray
# aggregate instead of driver-side pandas (the partials are one row per
# (writer, doc); at 10^11 docs the driver could not hold them)
DRIVER_MERGE_MAX_ROWS = 5_000_000


def _merge_doc_stats(stat_tables: list[pa.Table]) -> pd.DataFrame:
    total = sum(t.num_rows for t in stat_tables)
    agg = {f"len_f{f}": "sum" for f in range(NUM_FIELDS)}
    agg["conv_id"] = "min"
    if total <= DRIVER_MERGE_MAX_ROWS:
        stats = pa.concat_tables(stat_tables).to_pandas()
        return stats.groupby("doc_id", as_index=False).agg(agg)
    # distributed merge: exact int sums are order-independent
    import ray.data
    from ray.data.aggregate import Min, Sum

    ds = ray.data.from_arrow(stat_tables)
    aggs = [Min("conv_id", alias_name="conv_id")]
    aggs += [Sum(f"len_f{f}", alias_name=f"len_f{f}")
             for f in range(NUM_FIELDS)]
    return ds.groupby("doc_id").aggregate(*aggs).to_pandas()


def _run_index(path: str) -> dict:
    import json

    with open(path + ".shards.json") as f:
        return json.load(f)


def estimate_shard_rows(run_files: list[str],
                        n_shards: int) -> np.ndarray:
    """Exact rows per shard from the runs' sidecar indexes — drives
    balanced contiguous chunking of the encode stage."""
    est = np.zeros(n_shards, dtype=np.float64)
    for path in run_files:
        idx = _run_index(path)
        for sh, n in zip(idx["shards"], idx["rows"]):
            if sh < n_shards:
                est[sh] += n
    return est


def read_shards(run_files: list[str], shards) -> dict[int, pa.Table]:
    """Zero-copy (mmap) read of the record batches for the given shard set
    from every run, grouped per shard.  Each batch holds exactly one
    shard's rows, so no filtering or re-sorting is needed."""
    want = frozenset(shards)
    per_shard: dict[int, list[pa.Table]] = {}
    for path in run_files:
        idx = _run_index(path)
        wanted = [(bi, sh) for bi, sh in enumerate(idx["shards"])
                  if sh in want]
        if not wanted:
            continue
        # NOTE: the map must stay open while the zero-copy tables are in
        # use; Arrow keeps a reference via the batches' buffers
        source = pa.memory_map(path, "rb")
        reader = pa.ipc.open_file(source)
        for bi, sh in wanted:
            batch = reader.get_batch(bi)
            per_shard.setdefault(sh, []).append(
                pa.Table.from_batches([batch]))
    return {sh: pa.concat_tables(parts) if len(parts) > 1 else parts[0]
            for sh, parts in per_shard.items()}
