"""Distributed index build — the flagship Ray Data pipeline.

    transcripts ──map_batches(TurnStats)────────▶ groupby(doc_id) ─▶ doc stats
        │                                             (N, avgdl, dl table)
        ├─map_batches(TokenizePostings actors)──▶ posting partials
        │        (dl via broadcast lookup, shard = term%P ⊕ hot-term salt)
        └──────────▶ groupby(shard).map_groups(encode+write segment)
                         └─ per-shard manifest (lineage+metrics, resumable)

Pipeline lifecycle mirrors the reference's index path
(``SpiderLoop → XmlDoc::indexDoc → hashAll → Msg4 shard routing → Rdb``
, SURVEY.md §3.1) re-expressed Ray-Data-first: the Msg4 shard router is the
``shard`` column + ``groupby``; the LSM buffer + dump is ``encode_shard`` +
atomic segment write; ``RdbBase::attemptMerge`` becomes a later-generation
compaction job (index/merge.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, NUM_FIELDS
from ..functions.tokenizer import TokenHashCache, terms_for_texts
from ..functions.ghash import TERMID_MASK
from ..stages.tokenize import TurnStats, TokenizePostings
from . import manifest as mf
from .segments import encode_shard, write_segment


def _fingerprint(input_token: str, config: IndexConfig) -> str:
    return hashlib.sha256(
        (input_token + "|" + config.config_hash()).encode()).hexdigest()[:24]


def _stage_manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"stage-{stage}.json")


def _stage_complete(out_dir: str, stage: str, fingerprint: str) -> bool:
    path = _stage_manifest_path(out_dir, stage)
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            doc = json.load(f)
        return bool(doc.get("complete")) and doc.get("fingerprint") == fingerprint
    except (json.JSONDecodeError, OSError):
        return False


def _mark_stage(out_dir: str, stage: str, fingerprint: str, **metrics) -> None:
    path = _stage_manifest_path(out_dir, stage)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump({"stage": stage, "fingerprint": fingerprint,
                   "complete": True, "written_at": time.time(), **metrics}, f)
    os.replace(tmp, path)


def compute_doc_stats(transcripts_ds, config: IndexConfig, out_dir: str):
    """Pass 1: per-doc field lengths + global N / avgdl (exact int sums)."""
    import shutil

    from ray.data.aggregate import Sum, Min

    stats = transcripts_ds.map_batches(
        TurnStats, fn_constructor_kwargs={"config": config},
        batch_format="pyarrow", concurrency=(1, 8))
    aggs = [Sum("dl_q", alias_name="dl_q"), Min("conv_id", alias_name="conv_id")]
    aggs += [Sum(f"len_f{f}", alias_name=f"len_f{f}") for f in range(NUM_FIELDS)]
    per_doc = stats.groupby("doc_id").aggregate(*aggs)
    path = os.path.join(out_dir, "docstats")
    shutil.rmtree(path, ignore_errors=True)  # write_parquet appends otherwise
    os.makedirs(path, exist_ok=True)
    per_doc.write_parquet(path)
    return path


def load_doc_stats(out_dir: str):
    import pyarrow.dataset as pads

    tbl = pads.dataset(os.path.join(out_dir, "docstats"),
                       format="parquet").to_table()
    doc_ids = tbl["doc_id"].to_numpy().astype(np.uint64)
    dl_q = tbl["dl_q"].to_numpy().astype(np.int64)
    order = np.argsort(doc_ids)
    return tbl, doc_ids[order], (dl_q[order].astype(np.float64) / 4.0).astype(np.float32), dl_q


def estimate_hot_terms(transcripts_ds, config: IndexConfig,
                       sample_turns: int = 8_000) -> np.ndarray:
    """Sample-based hot-term detection for salted repartitioning.

    A term is "hot" when it is both frequent and large: it occurs in at
    least ``hot_df_ratio`` of sampled turns AND its estimated posting
    count (sample count × the sample's scale) reaches ``num_salts ×
    block_size × 4``, so each split still holds ≥ 4 blocks (4096 with
    the defaults: the size at which the query side recomputes block
    maxima for split lists).  The reference likewise splits only big
    termlists (the 30MB cap, ``PosdbTable.cpp:1975-1981``) and keeps
    high-frequency-term shortcuts for the true head
    (``HighFrequencyTermShortcuts.h``); a split short list only
    multiplies the reads that fetch it.

    The scale is a pure function of the sample: 16 for a thinned sample
    that holds the whole thinned stream, 1 for an unthinned sample that
    holds the whole corpus, and an upper bound when a sample was cut at
    ``sample_turns``, so that doubt leads to salting.  A cut thinned
    sample means a corpus of ≥ 16 × ``sample_turns`` turns with no upper
    bound, so only the ratio applies (with the defaults it implies the
    floor there anyway: large builds keep their hot set).

    The sample pulls from a seeded random permutation of the input
    blocks — a metadata-only shuffle, so only ~sample_turns rows are
    read — rather than a prefix, which on a time-ordered corpus would
    mis-identify the head (a term hot only in the corpus tail is still
    caught when its blocks are drawn).
    """
    from ..functions.ghash import hash64_batch

    MOD = 16

    def thin(b: pa.Table) -> pa.Table:
        # deterministic 1/16 row sample keyed on (conv_id, turn_idx) —
        # independent of batch/block boundaries, so the sample is stable
        # across parallelism levels, and it spans ~16× more blocks of the
        # randomized order than a prefix would
        keys = [f"{c}\x1f{t}".encode() for c, t in
                zip(b["conv_id"].to_pylist(), b["turn_idx"].to_pylist())]
        keep = hash64_batch(keys) % np.uint64(MOD) == 0
        return b.filter(pa.array(keep))

    # no count() pre-pass: counting would fully execute non-parquet input
    # pipelines; instead try the thinned sample and fall back to an
    # unthinned one when the corpus is too small to survive thinning
    ds = transcripts_ds.randomize_block_order(seed=0xB10C)
    try:
        batch = (ds.map_batches(thin, batch_format="pyarrow")
                 .take_batch(sample_turns, batch_format="pyarrow"))
    except ValueError:
        batch = None
    if batch is not None and len(batch["text"]) >= sample_turns // 4:
        # a full thinned sample: no upper bound on the corpus size
        scale = MOD if len(batch["text"]) < sample_turns else np.inf
    else:
        try:
            batch = ds.take_batch(sample_turns, batch_format="pyarrow")
        except ValueError:   # empty dataset
            return np.zeros(0, dtype=np.uint64)
        # the thinned pass kept < sample_turns // 4 rows, so the corpus
        # holds fewer than about MOD × sample_turns // 4 turns
        n = len(batch["text"])
        scale = 1.0 if n < sample_turns else MOD * (sample_turns // 4) / n
    texts = [t or "" for t in batch["text"].to_pylist()]
    if not texts:
        return np.zeros(0, dtype=np.uint64)
    cache = TokenHashCache()
    rows, terms, _, _ = terms_for_texts(texts, cache,
                                        index_bigrams=config.index_bigrams)
    # distinct (row, term) → per-turn presence counts
    key = rows.astype(np.uint64) * (np.uint64(1) << np.uint64(48)) ^ terms
    _, first_idx = np.unique(key, return_index=True)
    uniq_terms, counts = np.unique(terms[first_idx], return_counts=True)
    thresh = max(2.0, config.hot_df_ratio * len(texts))
    floor = config.num_salts * config.block_size * 4
    hot = uniq_terms[(counts >= thresh) & (counts * scale >= floor)]
    return np.sort(hot.astype(np.uint64))


def _resolve_hot_terms(transcripts_ds_factory, out_dir: str,
                       config: IndexConfig, fingerprint: str,
                       resume: bool) -> np.ndarray:
    """Sample hot terms — or, on resume, read back the set the existing
    shards were salted under.  The sample depends on block structure and
    sampler version (neither in the fingerprint), so resampling on resume
    could route hot terms to salted shards that were never written; the
    set is therefore persisted as a stage manifest the moment it is drawn
    and reused verbatim whenever completed work for this fingerprint may
    be reused."""
    path = _stage_manifest_path(out_dir, "hotterms")
    if resume and _stage_complete(out_dir, "hotterms", fingerprint):
        with open(path) as f:
            return np.asarray(json.load(f).get("hot_terms", []),
                              dtype=np.uint64)
    hot = estimate_hot_terms(transcripts_ds_factory(), config)
    _mark_stage(out_dir, "hotterms", fingerprint,
                hot_terms=[int(t) for t in hot])
    return hot


def _make_segment_group_fn(out_dir: str, config: IndexConfig, avgdl: float,
                           fingerprint: str, done: frozenset[int],
                           generation: int = 0):
    p = config.num_partitions
    s = config.num_salts

    def build_group(batch: pa.Table) -> pa.Table:
        t0 = time.time()
        shard = int(batch["shard"][0].as_py())
        empty = pa.table({"shard": pa.array([shard], pa.int32()),
                          "n_terms": pa.array([0], pa.int64()),
                          "n_postings": pa.array([0], pa.int64()),
                          "skipped": pa.array([True], pa.bool_())})
        if shard in done:
            return empty
        salt = _salt_of_shard(shard, config)
        seg = encode_shard(batch, config, salt, avgdl)
        path = mf.segment_path(out_dir, shard, generation)
        write_segment(seg, path)
        n_postings = int(pa.compute.sum(seg["df"]).as_py() or 0)
        mf.write_manifest(out_dir, shard, fingerprint=fingerprint,
                          n_terms=seg.num_rows, n_postings=n_postings,
                          bytes_written=os.path.getsize(path),
                          wall_sec=time.time() - t0,
                          salt=salt if (config.salt_all_terms or shard >= p) else None,
                          generation=generation)
        return pa.table({"shard": pa.array([shard], pa.int32()),
                         "n_terms": pa.array([seg.num_rows], pa.int64()),
                         "n_postings": pa.array([n_postings], pa.int64()),
                         "skipped": pa.array([False], pa.bool_())})

    return build_group


def _salt_of_shard(shard: int, config: IndexConfig) -> int:
    if config.salt_all_terms:
        return shard % config.num_salts
    p, s = config.num_partitions, config.num_salts
    return (shard - p) % s if shard >= p else 0


def _load_dl_partition(dl_dir: str, salt: int,
                       config: IndexConfig) -> tuple[np.ndarray, np.ndarray]:
    """Load the (sorted doc_ids, float32 dl) slice for one salt from the
    partitioned dl store — 1/num_salts of the corpus' doc lengths."""
    import pyarrow.parquet as pq

    k = config.dl_subparts
    parts = []
    for sub in range(k):
        path = os.path.join(dl_dir, f"dl-{salt * k + sub:05d}.parquet")
        if os.path.exists(path):
            parts.append(pq.read_table(path))
    if not parts:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float32)
    tbl = pa.concat_tables(parts)
    ids = tbl["doc_id"].to_numpy().astype(np.uint64)
    vals = tbl["dl"].to_numpy().astype(np.float32)
    order = np.argsort(ids)
    return ids[order], vals[order]


def _encode_shard_chunk(run_files: list[str], shards: list[int],
                        out_dir: str, config: IndexConfig, avgdl: float,
                        fingerprint: str, dl) -> list[dict]:
    """Merge+encode a chunk of shards from the spilled runs (one Ray task;
    the ``RdbMerge``/``posdbMerge_r`` analogue).  ``dl`` is either the
    broadcast (sorted doc_ids, float32 dl) pair, or — doc-partitioned mode
    — ``("parts", dl_dir, salt)``: the task loads ONLY its salt's dl
    partition (1/S of the corpus), because every doc in its shards
    satisfies doc % S == salt.  Doc lengths are attached here because the
    fused spill pass ran before they were known."""
    from ..stages.spill import read_shards
    from .segments import encode_shard, write_segment

    if isinstance(dl, tuple) and len(dl) == 3 and dl[0] == "parts":
        dl_ids, dl_vals = _load_dl_partition(dl[1], dl[2], config)
    else:
        dl_ids, dl_vals = dl
    p, s = config.num_partitions, config.num_salts
    out = []
    by_shard = read_shards(run_files, shards)
    for shard in shards:
        t0 = time.time()
        tbl = by_shard.get(shard)
        if tbl is not None:
            doc = tbl["doc_id"].to_numpy().astype(np.uint64)
            idx = np.clip(np.searchsorted(dl_ids, doc), 0,
                          max(0, len(dl_ids) - 1))
            vals = dl_vals[idx].astype(np.float32)
            vals[dl_ids[idx] != doc] = np.float32(0.0)
            tbl = tbl.set_column(tbl.schema.get_field_index("dl"), "dl",
                                 pa.array(vals, pa.float32()))
        salt = _salt_of_shard(shard, config)
        if tbl is None:
            mf.write_manifest(out_dir, shard, fingerprint=fingerprint,
                              n_terms=0, n_postings=0, bytes_written=0,
                              wall_sec=time.time() - t0,
                              salt=salt if (config.salt_all_terms or shard >= p) else None)
            out.append({"shard": shard, "n_terms": 0, "n_postings": 0,
                        "skipped": False})
            continue
        seg = encode_shard(tbl, config, salt, avgdl)
        path = mf.segment_path(out_dir, shard)
        write_segment(seg, path)
        n_postings = int(pa.compute.sum(seg["df"]).as_py() or 0)
        mf.write_manifest(out_dir, shard, fingerprint=fingerprint,
                          n_terms=seg.num_rows, n_postings=n_postings,
                          bytes_written=os.path.getsize(path),
                          wall_sec=time.time() - t0,
                          salt=salt if (config.salt_all_terms or shard >= p) else None)
        out.append({"shard": shard, "n_terms": seg.num_rows,
                    "n_postings": n_postings, "skipped": False})
    return out


def _write_doc_stats_partitioned(stats_src_dir: str, out_dir: str,
                                 config: IndexConfig) -> tuple[int, int]:
    """Distributed doc-stats path (salt_all_terms mode): aggregate the
    writers' on-disk partials per doc with a Ray groupby (nothing pandas
    on the driver), write the docstats table via ``write_parquet``, and
    write the per-(salt, subpart) dl files the encode tasks read.
    Returns (n_docs, total_dlq)."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Count, Min, Sum

    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    ds = ray.data.read_parquet(stats_src_dir)
    aggs = [Min("conv_id", alias_name="conv_id")]
    aggs += [Sum(f"len_f{f}", alias_name=f"len_f{f}")
             for f in range(NUM_FIELDS)]
    per_doc = ds.groupby("doc_id").aggregate(*aggs)

    def add_dlq(b: pa.Table) -> pa.Table:
        lens = np.stack([b[f"len_f{f}"].to_numpy()
                         for f in range(NUM_FIELDS)], axis=1)
        return b.append_column("dl_q", pa.array(lens @ wq, pa.int64()))

    per_doc = per_doc.map_batches(add_dlq,
                                  batch_format="pyarrow").materialize()
    ds_dir = os.path.join(out_dir, "docstats")
    shutil.rmtree(ds_dir, ignore_errors=True)
    per_doc.write_parquet(ds_dir)

    s, k = config.num_salts, config.dl_subparts
    dl_dir = os.path.join(out_dir, "dlparts")
    shutil.rmtree(dl_dir, ignore_errors=True)
    os.makedirs(dl_dir, exist_ok=True)

    def add_part(b: pa.Table) -> pa.Table:
        doc = b["doc_id"].to_numpy().astype(np.uint64)
        part = ((doc % np.uint64(s)).astype(np.int64) * k
                + ((doc // np.uint64(s)) % np.uint64(k)).astype(np.int64))
        return pa.table({"doc_id": b["doc_id"], "dl_q": b["dl_q"],
                         "part": pa.array(part, pa.int64())})

    def write_part(g) -> "pa.Table":
        part = int(g["part"][0].as_py())
        doc = g["doc_id"].to_numpy().astype(np.uint64)
        order = np.argsort(doc)
        dl32 = (g["dl_q"].to_numpy().astype(np.float64) / 4.0).astype(
            np.float32)
        path = os.path.join(dl_dir, f"dl-{part:05d}.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array(doc[order], pa.uint64()),
            "dl": pa.array(dl32[order], pa.float32()),
        }), path + ".writing")
        os.replace(path + ".writing", path)
        return pa.table({"part": pa.array([part], pa.int64()),
                         "rows": pa.array([len(doc)], pa.int64())})

    (per_doc.map_batches(add_part, batch_format="pyarrow")
     .groupby("part").map_groups(write_part, batch_format="pyarrow")
     .materialize())
    agg = per_doc.aggregate(Sum("dl_q", alias_name="total_dlq"),
                            Count(alias_name="n_docs"))
    return int(agg["n_docs"]), int(agg["total_dlq"])


# incremental generations at or below this many TURN ROWS skip the
# distributed stages (hot-term sampling pass, spill actor pool, per-shard
# task fan) whose fixed costs dwarf the real work — the RdbBase
# minToMerge idea (small Rdb dumps don't trigger full merges,
# RdbBase.cpp:154): small inputs take the one-task path below
SMALL_BUILD_MAX_ROWS = 100_000


def _build_small_fused(table: pa.Table, out_dir: str, config: IndexConfig,
                       fingerprint: str, write_docstore: bool,
                       phase_sec: dict) -> tuple[list[dict], dict]:
    """Single-process build of a SMALL generation (the add_documents fast
    path): one tokenize pass over the in-memory table, docstats + docstore
    + every shard encoded in a loop — identical artifact layout and
    rank-identical postings vs the distributed build (asserted in
    tests/test_incremental.py), none of its fixed costs.  Hot-term
    sampling is skipped (``hot_terms = []`` is a valid layout: a corpus
    this small has no list worth salting, and query-side salting is
    per-generation via each meta's hot map)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.tokenize import TokenizePostings
    from .segments import encode_shard, write_segment

    t = time.time()
    tok = TokenizePostings(config)      # dl attached after the stats pass
    postings_parts, stats_parts = [], []
    for off in range(0, table.num_rows, 4096):
        p, s = tok.process(table.slice(off, 4096))
        if p.num_rows:
            postings_parts.append(p)
        stats_parts.append(s)
    phase_sec["small_tokenize"] = round(time.time() - t, 3)

    # doc stats — the same groupby the spill writers run, then dl_q
    t = time.time()
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    if stats_parts:
        df = pa.concat_tables(stats_parts).to_pandas()
        agg = {f"len_f{f}": "sum" for f in range(NUM_FIELDS)}
        agg["conv_id"] = "min"
        stats_df = df.groupby("doc_id", as_index=False).agg(agg)
        lens = stats_df[[f"len_f{f}"
                         for f in range(NUM_FIELDS)]].to_numpy()
        stats_df = stats_df.assign(dl_q=lens @ wq)
        stats_tbl = pa.Table.from_pandas(stats_df, preserve_index=False)
    else:
        # zero-row generation (an empty incremental feed): take the
        # TYPED empty stats straight from the tokenizer (a pandas
        # round-trip would degrade conv_id to Arrow null and diverge
        # from every sibling generation's docstats schema)
        stats_tbl = (tok.process(table.slice(0, 0))[1]
                     .append_column("dl_q", pa.array([], pa.int64())))
        import pandas as pd

        stats_df = pd.DataFrame({"doc_id": pd.Series([], dtype="uint64"),
                                 "dl_q": pd.Series([], dtype="int64")})
    ds_dir = os.path.join(out_dir, "docstats")
    import shutil

    shutil.rmtree(ds_dir, ignore_errors=True)
    os.makedirs(ds_dir, exist_ok=True)
    pq.write_table(stats_tbl, os.path.join(ds_dir, "part-0.parquet"))
    _mark_stage(out_dir, "docstats", fingerprint)
    doc_ids = stats_df["doc_id"].to_numpy().astype(np.uint64)
    order = np.argsort(doc_ids)
    doc_ids_sorted = doc_ids[order]
    dl_q = stats_df["dl_q"].to_numpy().astype(np.int64)
    dl32 = (dl_q[order].astype(np.float64) / 4.0).astype(np.float32)
    n_docs = len(doc_ids_sorted)
    total_dlq = int(dl_q.sum())
    avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(max(1, n_docs)))
    phase_sec["docstats_merge"] = round(time.time() - t, 3)

    # docstore
    t = time.time()
    if write_docstore:
        from ..stages.tokenize import _doc_ids_for_column

        store_dir = os.path.join(out_dir, "docstore")
        shutil.rmtree(store_dir, ignore_errors=True)
        os.makedirs(store_dir, exist_ok=True)
        pq.write_table(
            table.append_column("doc_id", pa.array(
                _doc_ids_for_column(table["conv_id"]), pa.uint64())),
            os.path.join(store_dir, "part-0.parquet"))
        _mark_stage(out_dir, "docstore", fingerprint)
    phase_sec["docstore"] = round(time.time() - t, 3)

    # attach dl + encode every shard in-process.  salt_all layouts get
    # their full (term % P) * S + doc % S shard fan; dlparts are not
    # written — they exist solely for DISTRIBUTED encode tasks to load
    # 1/S of the corpus lengths, and this path holds all lengths
    # in-memory already (nothing reads a generation's dlparts after its
    # own build)
    t = time.time()
    summary: list[dict] = []
    if config.salt_all_terms:
        all_shards = list(range(config.num_partitions * config.num_salts))
    else:
        all_shards = list(range(config.num_partitions))
    if postings_parts:
        postings = pa.concat_tables(postings_parts)
        doc = postings["doc_id"].to_numpy().astype(np.uint64)
        idx = np.clip(np.searchsorted(doc_ids_sorted, doc), 0,
                      max(0, len(doc_ids_sorted) - 1))
        vals = dl32[idx].astype(np.float32)
        vals[doc_ids_sorted[idx] != doc] = np.float32(0.0)
        postings = postings.set_column(
            postings.schema.get_field_index("dl"), "dl",
            pa.array(vals, pa.float32()))
        shard_col = postings["shard"].to_numpy()
    else:
        postings = None
        shard_col = np.zeros(0, dtype=np.int32)
    for shard in all_shards:
        t0 = time.time()
        salt = _salt_of_shard(shard, config)
        sel = np.flatnonzero(shard_col == shard)
        if postings is None or len(sel) == 0:
            mf.write_manifest(out_dir, shard, fingerprint=fingerprint,
                              n_terms=0, n_postings=0, bytes_written=0,
                              wall_sec=time.time() - t0,
                              salt=salt if config.salt_all_terms else None)
            summary.append({"shard": shard, "n_terms": 0, "n_postings": 0,
                            "skipped": False})
            continue
        tbl = postings.take(pa.array(sel))
        seg = encode_shard(tbl, config, salt, avgdl)
        path = mf.segment_path(out_dir, shard)
        write_segment(seg, path)
        n_postings = int(pa.compute.sum(seg["df"]).as_py() or 0)
        mf.write_manifest(out_dir, shard, fingerprint=fingerprint,
                          n_terms=seg.num_rows, n_postings=n_postings,
                          bytes_written=os.path.getsize(path),
                          wall_sec=time.time() - t0,
                          salt=salt if config.salt_all_terms else None)
        summary.append({"shard": shard, "n_terms": seg.num_rows,
                        "n_postings": n_postings, "skipped": False})
    phase_sec["encode"] = round(time.time() - t, 3)
    return summary, {"n_docs": n_docs, "total_dlq": total_dlq,
                     "avgdl": avgdl,
                     "hot_terms": np.zeros(0, dtype=np.uint64)}


def _check_dl_ceiling(n_docs: int, config: IndexConfig) -> None:
    if n_docs > config.dl_broadcast_max_docs:
        raise ValueError(
            f"default build mode broadcasts a (doc_id, dl) table of "
            f"{n_docs:,} docs (~{n_docs * 12 // (1 << 20)} MB per node), "
            f"above dl_broadcast_max_docs={config.dl_broadcast_max_docs:,}."
            f" Rebuild with IndexConfig(salt_all_terms=True) — the "
            f"doc-partitioned layout whose encode tasks each load only "
            f"their salt's dl partition — or raise the ceiling explicitly.")


def _build_fused_spill(transcripts_ds_factory, out_dir: str,
                       config: IndexConfig, fingerprint: str, resume: bool,
                       write_docstore: bool,
                       phase_sec: dict) -> tuple[list[dict], dict]:
    """Fused single-read build: spill pass (postings runs + doc stats +
    docstore) → driver stat merge → per-shard encode.  Returns (summary,
    stats) where stats has n_docs/avgdl/hot_terms."""
    import shutil

    import ray

    from ..stages.spill import reserve_spill_writers, spill_postings

    cpus = int(ray.cluster_resources().get("CPU", 8))
    # before any Ray Data work: without free CPUs the sampling pass
    # would block as well
    num_writers = reserve_spill_writers()

    t = time.time()
    if config.salt_all_terms:
        # universal doc-salting already splits the Zipf head — no sampling
        hot_terms = np.zeros(0, dtype=np.uint64)
    else:
        hot_terms = _resolve_hot_terms(transcripts_ds_factory, out_dir,
                                       config, fingerprint, resume)
    hot_ref = ray.put(hot_terms)
    phase_sec["hot_sample"] = round(time.time() - t, 3)

    done = frozenset(mf.completed_shards(out_dir, fingerprint)
                     if resume else ())
    if config.salt_all_terms:
        all_shards = list(range(config.num_partitions * config.num_salts))
    else:
        all_shards = list(range(config.num_partitions +
                                len(hot_terms) * config.num_salts))
    docstore_done = resume and _stage_complete(out_dir, "docstore",
                                               fingerprint)
    if (resume and not [sh for sh in all_shards if sh not in done]
            and _stage_complete(out_dir, "docstats", fingerprint)
            and (not write_docstore or docstore_done)):
        # everything complete for this fingerprint: reuse on-disk
        # artifacts.  Only the dl_q column is read — the full docstats
        # table would be a whole-corpus driver materialization, which
        # salt_all_terms mode exists to avoid
        import pyarrow.dataset as pads

        tbl = pads.dataset(os.path.join(out_dir, "docstats"),
                           format="parquet").to_table(columns=["dl_q"])
        n_docs = tbl.num_rows
        total_dlq = int(pa.compute.sum(tbl["dl_q"]).as_py())
        summary = [{"shard": sh, "n_terms": 0, "n_postings": 0,
                    "skipped": True} for sh in all_shards]
        return summary, {
            "n_docs": n_docs, "total_dlq": total_dlq,
            "avgdl": float(np.float64(total_dlq) / 4.0 / np.float64(n_docs)),
            "hot_terms": hot_terms}

    # resume fast path: a crash DURING the encode stage left the spilled
    # runs + spill/docstats stage manifests behind — skip re-tokenizing
    # the whole corpus and go straight to the missing shards' encode
    spill_dir = os.path.join(out_dir, "tmp_spill")
    skip_spill = False
    if resume and _stage_complete(out_dir, "spill", fingerprint) \
            and _stage_complete(out_dir, "docstats", fingerprint):
        with open(_stage_manifest_path(out_dir, "spill")) as f:
            recorded = json.load(f).get("run_files", [])
        run_files = [os.path.join(spill_dir, name) for name in recorded]
        skip_spill = bool(run_files) and all(
            os.path.exists(p) and os.path.exists(p + ".shards.json")
            for p in run_files)

    if skip_spill:
        phase_sec["spill"] = 0.0
        t = time.time()
        if config.salt_all_terms:
            import pyarrow.dataset as pads

            tbl = pads.dataset(os.path.join(out_dir, "docstats"),
                               format="parquet").to_table(columns=["dl_q"])
            n_docs = tbl.num_rows
            total_dlq = int(pa.compute.sum(tbl["dl_q"]).as_py())
            avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(n_docs))
            dl_ref = None
            dl_dir = os.path.join(out_dir, "dlparts")
        else:
            _, doc_ids_sorted, dl32, dl_q = load_doc_stats(out_dir)
            n_docs = len(doc_ids_sorted)
            total_dlq = int(dl_q.sum())
            avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(n_docs))
            _check_dl_ceiling(n_docs, config)
            dl_ref = ray.put((doc_ids_sorted, dl32))
        phase_sec["docstats_merge"] = round(time.time() - t, 3)
        stats_df = None
    else:
        # fused spill pass
        t = time.time()
        store_dir = os.path.join(out_dir, "docstore")
        if write_docstore and not docstore_done:
            shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(spill_dir, ignore_errors=True)
        stats_src = (os.path.join(out_dir, "tmp_stats")
                     if config.salt_all_terms else None)
        if stats_src:
            shutil.rmtree(stats_src, ignore_errors=True)
        run_files, stats_df, spill_timings = spill_postings(
            transcripts_ds_factory(), spill_dir,
            store_dir if (write_docstore and not docstore_done) else None,
            config, hot_ref, num_writers, stats_dir=stats_src)
        if write_docstore and not docstore_done:
            _mark_stage(out_dir, "docstore", fingerprint)
        _mark_stage(out_dir, "spill", fingerprint,
                    run_files=[os.path.basename(p) for p in run_files])
        phase_sec["spill"] = round(time.time() - t, 3)
        phase_sec["spill_detail"] = {
            k: round(v / num_writers, 3) for k, v in spill_timings.items()}

    # doc stats from the spill pass's partials
    t = time.time()
    if skip_spill:
        pass
    elif config.salt_all_terms:
        # distributed aggregate + partitioned dl store; no driver pandas,
        # no whole-corpus broadcast
        n_docs, total_dlq = _write_doc_stats_partitioned(
            stats_src, out_dir, config)
        shutil.rmtree(stats_src, ignore_errors=True)
        _mark_stage(out_dir, "docstats", fingerprint)
        avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(n_docs))
        dl_ref = None
        dl_dir = os.path.join(out_dir, "dlparts")
    else:
        import pyarrow.parquet as pq

        wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                        dtype=np.int64)
        lens = stats_df[[f"len_f{f}" for f in range(NUM_FIELDS)]].to_numpy()
        stats_df = stats_df.assign(dl_q=lens @ wq)
        ds_dir = os.path.join(out_dir, "docstats")
        shutil.rmtree(ds_dir, ignore_errors=True)
        os.makedirs(ds_dir, exist_ok=True)
        pq.write_table(pa.Table.from_pandas(stats_df, preserve_index=False),
                       os.path.join(ds_dir, "part-0.parquet"))
        _mark_stage(out_dir, "docstats", fingerprint)
        doc_ids = stats_df["doc_id"].to_numpy().astype(np.uint64)
        order = np.argsort(doc_ids)
        doc_ids_sorted = doc_ids[order]
        dl_q = stats_df["dl_q"].to_numpy().astype(np.int64)
        dl32 = (dl_q[order].astype(np.float64) / 4.0).astype(np.float32)
        n_docs = len(doc_ids_sorted)
        total_dlq = int(dl_q.sum())
        avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(n_docs))
        _check_dl_ceiling(n_docs, config)
        dl_ref = ray.put((doc_ids_sorted, dl32))
    phase_sec["docstats_merge"] = round(time.time() - t, 3)

    # per-shard merge + encode
    t = time.time()
    pending = [sh for sh in all_shards if sh not in done]
    summary: list[dict] = [{"shard": sh, "n_terms": 0, "n_postings": 0,
                            "skipped": True} for sh in done]
    if pending:
        # contiguous shard chunks balanced by estimated row mass: each task
        # decompresses every run's overlapping row groups exactly once, and
        # no task gets more than ~1/(2·cpus) of the data
        from ..stages.spill import estimate_shard_rows

        pending.sort()
        est = estimate_shard_rows(run_files, len(all_shards))
        target = max(1.0, est.sum() / (cpus * 2))

        def _chunked(shards: list[int]) -> list[list[int]]:
            chunks, cur, cur_mass = [], [], 0.0
            for sh in shards:
                cur.append(sh)
                cur_mass += est[sh]
                if cur_mass >= target:
                    chunks.append(cur)
                    cur, cur_mass = [], 0.0
            if cur:
                chunks.append(cur)
            return chunks

        task = ray.remote(num_cpus=1)(_encode_shard_chunk)
        futs = []
        if config.salt_all_terms:
            # salt-aligned chunks: a task's shards share one salt, so it
            # loads exactly one dl partition (1/S of the corpus' lengths)
            for salt in range(config.num_salts):
                sub = [sh for sh in pending
                       if sh % config.num_salts == salt]
                for chunk in _chunked(sub):
                    futs.append(task.remote(
                        run_files, chunk, out_dir, config, avgdl,
                        fingerprint, ("parts", dl_dir, salt)))
        else:
            futs = [task.remote(run_files, chunk, out_dir, config, avgdl,
                                fingerprint, dl_ref)
                    for chunk in _chunked(pending) if chunk]
        for res in ray.get(futs):
            summary.extend(res)
    shutil.rmtree(spill_dir, ignore_errors=True)
    try:   # runs are gone — drop the spill checkpoint with them
        os.remove(_stage_manifest_path(out_dir, "spill"))
    except OSError:
        pass
    phase_sec["encode"] = round(time.time() - t, 3)

    stats = {"n_docs": n_docs, "total_dlq": total_dlq, "avgdl": avgdl,
             "hot_terms": hot_terms}
    return summary, stats


def build_index(transcripts_ds_factory, out_dir: str,
                config: IndexConfig | None = None, *,
                input_token: str, resume: bool = False,
                write_docstore: bool = True, hooks=None,
                small_input_max_rows: int | None = None) -> dict:
    """Build the inverted index.  ``transcripts_ds_factory`` is a zero-arg
    callable returning a fresh Dataset over the input (the build reads the
    input twice: doc-stats pass and postings pass; a Dataset cannot be
    consumed twice without re-planning).

    ``hooks`` (optional ``functions.hooks.IndexHooks``): user callouts —
    the ``WantedChecker`` plugin-API analogue (``WantedCheckerApi.h``,
    ``Msg13.cpp:1168``) — applied at the input factory so every pass
    (doc stats, postings, doc store, hot-term sample) sees the same
    filtered/transformed corpus.  ``hooks.token()`` joins the resume
    fingerprint: bump the version to invalidate prior build state.

    ``small_input_max_rows``: when set, the input's row count is probed
    (one cheap count) and inputs at or below it take the single-task
    fast path (:func:`_build_small_fused`) — pass
    ``SMALL_BUILD_MAX_ROWS`` for incremental generations; leave ``None``
    for full corpus builds (a 100-TB build shouldn't pay the probe)."""
    import ray

    from ..functions.hooks import hooked_factory

    config = config or IndexConfig()
    if hooks is not None:
        input_token = f"{input_token}|hooks:{hooks.token()}"
        transcripts_ds_factory = hooked_factory(transcripts_ds_factory,
                                                hooks)
    if config.salt_all_terms and config.build_strategy != "spill":
        # the groupby strategy attaches dl via broadcast and samples hot
        # terms — neither belongs in doc-partitioned mode, and a mixed
        # layout would corrupt compaction
        raise ValueError("salt_all_terms requires build_strategy='spill'")
    fingerprint = _fingerprint(input_token, config)
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.time()
    phase_sec: dict[str, float] = {}

    small_table = None
    if (small_input_max_rows and config.build_strategy == "spill"
            and not resume):
        # probe + fetch in ONE input execution: limit(N+1) stops early on
        # a big input (cheap probe), and when the input IS small the
        # materialized probe already holds every row — no second pass
        probe = (transcripts_ds_factory()
                 .limit(small_input_max_rows + 1).materialize())
        if probe.count() <= small_input_max_rows:
            # drop Ray's zero-column empty blocks before the concat
            blocks = [b for b in ray.get(probe.to_arrow_refs())
                      if b.num_rows > 0]
            if blocks:
                small_table = pa.concat_tables(blocks).combine_chunks()
            else:
                sch = probe.schema()
                if sch is not None:
                    small_table = pa.schema(
                        list(zip(sch.names, sch.types))).empty_table()
                else:
                    # an all-empty Dataset loses its schema entirely —
                    # fall back to the library's transcripts contract
                    # so a zero-row generation still commits
                    from ..sources.transcripts import TRANSCRIPTS_SCHEMA

                    small_table = TRANSCRIPTS_SCHEMA.empty_table()

    if small_table is not None:
        summary, stats = _build_small_fused(
            small_table, out_dir, config, fingerprint, write_docstore,
            phase_sec)
        n_docs = stats["n_docs"]
        total_dlq = stats["total_dlq"]
        avgdl = stats["avgdl"]
        hot_terms = stats["hot_terms"]
    elif config.build_strategy == "spill":
        summary, stats = _build_fused_spill(
            transcripts_ds_factory, out_dir, config, fingerprint, resume,
            write_docstore, phase_sec)
        n_docs = stats["n_docs"]
        total_dlq = stats["total_dlq"]
        avgdl = stats["avgdl"]
        hot_terms = stats["hot_terms"]
    else:
        # pass 1: doc stats (its own resumable checkpoint stage)
        t = time.time()
        if not (resume and _stage_complete(out_dir, "docstats", fingerprint)):
            compute_doc_stats(transcripts_ds_factory(), config, out_dir)
            _mark_stage(out_dir, "docstats", fingerprint)
        phase_sec["docstats"] = round(time.time() - t, 3)
        _, doc_ids_sorted, dl32, dl_q = load_doc_stats(out_dir)
        n_docs = len(doc_ids_sorted)
        total_dlq = int(dl_q.sum())
        avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(n_docs))
        _check_dl_ceiling(n_docs, config)
        dl_ref = ray.put((doc_ids_sorted, dl32))

        # hot terms (salted repartitioning; persisted for layout-stable resume)
        t = time.time()
        hot_terms = _resolve_hot_terms(transcripts_ds_factory, out_dir,
                                       config, fingerprint, resume)
        hot_ref = ray.put(hot_terms)
        phase_sec["hot_sample"] = round(time.time() - t, 3)

        done = frozenset(mf.completed_shards(out_dir, fingerprint)
                         if resume else ())

        # pass 2: postings → segments (object-store groupby shuffle)
        t = time.time()
        postings = transcripts_ds_factory().map_batches(
            TokenizePostings,
            fn_constructor_kwargs={"config": config, "dl_ref": dl_ref,
                                   "hot_ref": hot_ref},
            batch_format="pyarrow", concurrency=(1, 16))
        group_fn = _make_segment_group_fn(out_dir, config, avgdl,
                                          fingerprint, done)
        summary = postings.groupby("shard").map_groups(
            group_fn, batch_format="pyarrow").take_all()
        phase_sec["postings_shuffle"] = round(time.time() - t, 3)

        # doc store (per-turn text equality invariant)
        t = time.time()
        if write_docstore and not (resume and _stage_complete(
                out_dir, "docstore", fingerprint)):
            import shutil

            from ..stages.tokenize import _doc_ids_for_column

            def add_doc_id(b: pa.Table) -> pa.Table:
                return b.append_column(
                    "doc_id", pa.array(_doc_ids_for_column(b["conv_id"]),
                                       pa.uint64()))
            store_dir = os.path.join(out_dir, "docstore")
            shutil.rmtree(store_dir, ignore_errors=True)
            transcripts_ds_factory().map_batches(
                add_doc_id, batch_format="pyarrow").write_parquet(store_dir)
            _mark_stage(out_dir, "docstore", fingerprint)
        phase_sec["docstore"] = round(time.time() - t, 3)

    meta = {
        "version": 1,
        "generation": 0,
        "fingerprint": fingerprint,
        "input_token": input_token,
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "n_docs": n_docs,
        "total_dlq": total_dlq,
        "avgdl": avgdl,
        "hot_terms": [int(t) for t in hot_terms],
        "num_partitions": config.num_partitions,
        "num_salts": config.num_salts,
        "built_shards": sorted(int(r["shard"]) for r in summary),
        # stats for skipped (resumed) shards come from their manifests
        "n_postings": int(sum(
            (mf.read_manifest(out_dir, int(r["shard"])) or {}).get("n_postings", 0)
            if r["skipped"] else r["n_postings"] for r in summary)),
        "n_terms": int(sum(
            (mf.read_manifest(out_dir, int(r["shard"])) or {}).get("n_terms", 0)
            if r["skipped"] else r["n_terms"] for r in summary)),
        "build_wall_sec": round(time.time() - t_start, 3),
        "phase_sec": phase_sec,
    }
    tmp = os.path.join(out_dir, "index_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(out_dir, "index_meta.json"))
    return meta


def load_meta(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "index_meta.json")) as f:
        return json.load(f)
