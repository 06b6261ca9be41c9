"""Distributed index build — the flagship Ray Data pipeline.

    transcripts ─streaming_split─▶ SpillWriter actors (one read, one tokenize)
        ├─ posting partials ─▶ shard-sorted runs (shard = term % P)
        ├─ doc-stat partials ─▶ docstats (N, avgdl, dl table)
        └─ docstore parts
    docstats ─▶ the generation's doc table (sorted doc ids + dl)
    runs ─▶ per-partition encode tasks: merge partials, count each
            term's exact docs and turns, split the hot ones by doc into
            shards P + p·S + doc % S, rank each posting's doc in the doc
            table, write segments + manifests (resumable)

Pipeline lifecycle mirrors the reference's index path
(``SpiderLoop → XmlDoc::indexDoc → hashAll → Msg4 shard routing → Rdb``
, SURVEY.md §3.1) re-expressed Ray-Data-first: the Msg4 shard router is the
runs' ``shard`` column; the LSM buffer + dump is the per-partition encode +
atomic segment write; ``RdbBase::attemptMerge`` becomes a later-generation
compaction job (index/merge.py).  Small inputs run the same encode step
in one process (:func:`_build_small_fused`), so both paths give the same
segments and the same hot terms.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, NUM_FIELDS
from ..functions.ragged import ragged_select
from ..stages.tokenize import TokenizePostings
from . import manifest as mf
from .segments import (doc_ordinals, encode_doc_table, encode_from_groups,
                       merge_partials, write_segment)


def _fingerprint(input_token: str, config: IndexConfig) -> str:
    return hashlib.sha256(
        (input_token + "|" + config.config_hash()).encode()).hexdigest()[:24]


def _stage_manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"stage-{stage}.json")


def _stage_record(out_dir: str, stage: str) -> dict:
    try:
        with open(_stage_manifest_path(out_dir, stage)) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return {}


def _stage_complete(out_dir: str, stage: str, fingerprint: str) -> bool:
    doc = _stage_record(out_dir, stage)
    return bool(doc.get("complete")) and doc.get("fingerprint") == fingerprint


def _mark_stage(out_dir: str, stage: str, fingerprint: str, **metrics) -> None:
    path = _stage_manifest_path(out_dir, stage)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump({"stage": stage, "fingerprint": fingerprint,
                   "complete": True, "written_at": time.time(), **metrics}, f)
    os.replace(tmp, path)


def load_doc_stats(out_dir: str):
    import pyarrow.dataset as pads

    tbl = pads.dataset(os.path.join(out_dir, "docstats"),
                       format="parquet").to_table()
    doc_ids = tbl["doc_id"].to_numpy().astype(np.uint64)
    dl_q = tbl["dl_q"].to_numpy().astype(np.int64)
    order = np.argsort(doc_ids)
    return tbl, doc_ids[order], dl_of(dl_q[order]), dl_q


def dl_of(dl_q: np.ndarray) -> np.ndarray:
    """float32 doc lengths from docstats' ``dl_q`` (4 × the length)."""
    return (np.asarray(dl_q).astype(np.float64) / 4.0).astype(np.float32)


def _table_of(part: int, config: IndexConfig) -> int:
    """The doc table partition ``part``'s shards index: the
    generation's one, or its salt's under ``salt_all_terms``."""
    return part % config.num_salts if config.salt_all_terms else 0


def doc_tables(doc_ids: np.ndarray, dl: np.ndarray,
               config: IndexConfig) -> list[tuple]:
    """A generation's doc tables from its sorted (doc_ids, dl): the one
    table, or under ``salt_all_terms`` one per salt, table s holding the
    docs with doc % S == s."""
    if not config.salt_all_terms:
        return [(doc_ids, dl)]
    salt = doc_ids % np.uint64(config.num_salts)
    return [(doc_ids[salt == s], dl[salt == s])
            for s in range(config.num_salts)]


def write_doc_tables(out_dir: str, tables: list[tuple],
                     first: int = 0) -> None:
    """Write doc tables ``first``, ``first`` + 1, ... of ``out_dir``."""
    for t, (ids, dl) in enumerate(tables, first):
        write_segment(encode_doc_table(ids, dl), mf.doc_table_path(out_dir, t))


def _docstats_totals(out_dir: str) -> tuple[int, int]:
    """(n_docs, total_dlq) from the docstats table's dl_q column only —
    the full table would be a whole-corpus driver materialization, which
    salt_all_terms mode exists to avoid."""
    import pyarrow.dataset as pads

    tbl = pads.dataset(os.path.join(out_dir, "docstats"),
                       format="parquet").to_table(columns=["dl_q"])
    return tbl.num_rows, int(pa.compute.sum(tbl["dl_q"]).as_py() or 0)


def _avgdl(n_docs: int, total_dlq: int) -> float:
    return float(np.float64(total_dlq) / 4.0 / np.float64(max(1, n_docs)))


def _partitions(config: IndexConfig) -> list[int]:
    """The spill keys, one encode unit each: term % P, or (term % P) × S
    + doc % S under ``salt_all_terms``."""
    n = config.num_partitions
    return list(range(n * config.num_salts if config.salt_all_terms else n))


def hot_shards(part: int, num_partitions: int, num_salts: int) -> list[int]:
    """The shards holding partition ``part``'s hot terms, one per salt
    (doc % S): ``P + part × S + salt``.  A fixed numbering, so no
    partition needs another's hot set to place its own."""
    base = num_partitions + part * num_salts
    return list(range(base, base + num_salts))


def _salt_of_shard(shard: int, config: IndexConfig) -> int:
    if config.salt_all_terms:
        return shard % config.num_salts
    p, s = config.num_partitions, config.num_salts
    return (shard - p) % s if shard >= p else 0


def _hot_terms(groups: dict, n_turns: int, config: IndexConfig) -> np.ndarray:
    """THE hot-term rule: a term is hot when it occurs in at least
    ``hot_df_ratio × n_turns`` input turns AND its list holds at least
    ``num_salts × block_size × 4`` docs, so each split still keeps ≥ 4
    blocks.  The reference likewise splits only big termlists (the 30MB
    cap, ``PosdbTable.cpp:1975-1981``); a split short list only
    multiplies the reads that fetch it.  ``groups`` holds every posting
    of its terms (one partition, merged), so both counts are exact and
    the hot set is a function of the corpus alone.  Under
    ``salt_all_terms`` every term is already split: none is hot."""
    if config.salt_all_terms:
        return np.zeros(0, dtype=np.uint64)
    term = groups["term"]
    starts = np.flatnonzero(np.concatenate([[True], term[1:] != term[:-1]]))
    docs = np.diff(np.append(starts, len(term)))
    turns = np.add.reduceat(groups["turns"], starts)
    floor = config.num_salts * config.block_size * 4
    return term[starts][(docs >= floor)
                        & (turns >= config.hot_df_ratio * n_turns)]


def _write_partition(groups: dict | None, part: int, hot: np.ndarray,
                     config: IndexConfig, out_dir: str, fingerprint: str,
                     table_ids: np.ndarray) -> list[dict]:
    """Encode and write partition ``part``: the (term, doc) groups
    (sorted by term, doc) of ``hot`` terms split by doc % S into
    :func:`hot_shards`, every other group into shard ``part``, each
    posting's doc stored as its ordinal in the partition's doc table,
    whose sorted doc ids are ``table_ids``.  The build and compaction
    both write through here.  One manifest per shard; the partition's
    own, listing its hot terms, goes last — it is the resume commit
    point of the whole partition."""
    t0 = time.time()
    p, s = config.num_partitions, config.num_salts
    hot_list = [int(t) for t in hot]
    n = 0 if groups is None else len(groups["term"])
    if n:
        ords = doc_ordinals(table_ids, groups["doc_ids"], f"partition {part}")
    shard_of = np.full(n, part, dtype=np.int64)
    if len(hot):
        is_hot = np.isin(groups["term"], hot)
        salt = (groups["doc_ids"][is_hot] % np.uint64(s)).astype(np.int64)
        shard_of[is_hot] = p + part * s + salt
    rows = []
    for shard in (hot_shards(part, p, s) if len(hot) else []) + [part]:
        sel = np.flatnonzero(shard_of == shard)
        if shard != part and len(sel) == 0:
            continue
        salt = _salt_of_shard(shard, config)
        n_terms = nbytes = 0
        if len(sel):
            flat, offs = groups["positions"]
            if len(sel) < n:
                flat, offs = ragged_select(flat, offs, sel)
            terms = groups["term"][sel]
            path = mf.segment_path(out_dir, shard)
            write_segment(encode_from_groups(
                terms, ords[sel], groups["tfs"][sel], flat, np.diff(offs),
                len(table_ids), _table_of(part, config)), path)
            # terms is sorted: count its boundaries
            n_terms = 1 + int(np.count_nonzero(terms[1:] != terms[:-1]))
            nbytes = os.path.getsize(path)
        mf.write_manifest(
            out_dir, shard, fingerprint=fingerprint, n_terms=n_terms,
            n_postings=len(sel), bytes_written=nbytes,
            wall_sec=time.time() - t0,
            salt=salt if (config.salt_all_terms or shard != part) else None,
            hot_terms=hot_list if shard == part else None)
        rows.append({"shard": shard, "n_terms": n_terms,
                     "n_postings": len(sel), "skipped": False})
    rows[-1]["hot_terms"] = hot_list
    return rows


def _encode_partition(tbl: pa.Table | None, part: int, config: IndexConfig,
                      n_turns: int, table_ids: np.ndarray, out_dir: str,
                      fingerprint: str) -> list[dict]:
    """THE build's encode step, for the spill and the small path alike:
    merge partition ``part``'s posting partials, decide its hot terms
    (:func:`_hot_terms`) and write its shards, whose ordinals index the
    doc table of sorted doc ids ``table_ids``."""
    groups = (merge_partials(tbl, config)
              if tbl is not None and tbl.num_rows else None)
    hot = (np.zeros(0, dtype=np.uint64) if groups is None
           else _hot_terms(groups, n_turns, config))
    return _write_partition(groups, part, hot, config, out_dir,
                            fingerprint, table_ids)


def _resumed_partition(out_dir: str, part: int,
                       config: IndexConfig) -> list[dict]:
    """Summary rows of a partition an earlier run completed: its
    manifest lists its hot terms, and so the hot shards it wrote."""
    hot = (mf.read_manifest(out_dir, part) or {}).get("hot_terms") or []
    shards = [sh for sh in (hot_shards(part, config.num_partitions,
                                       config.num_salts) if hot else [])
              if mf.read_manifest(out_dir, sh) is not None]
    rows = [{"shard": sh, "n_terms": 0, "n_postings": 0, "skipped": True}
            for sh in shards + [part]]
    rows[-1]["hot_terms"] = hot
    return rows


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


def _encode_shard_chunk(run_files: list[str], parts: list[int],
                        out_dir: str, config: IndexConfig,
                        n_turns: int, fingerprint: str,
                        table_ids) -> list[dict]:
    """Merge+encode a chunk of partitions from the spilled runs (one Ray
    task; the ``RdbMerge``/``posdbMerge_r`` analogue).  ``table_ids`` is
    either the broadcast sorted doc ids of the generation's doc table,
    or — doc-partitioned mode — ``("parts", dl_dir, salt)``: the task
    loads ONLY its salt's dl partition (1/S of the corpus), because
    every doc in its partitions satisfies doc % S == salt, and writes it
    as its salt's doc table.  Ordinals are assigned here because the
    fused spill pass ran before the doc set was known."""
    from ..stages.spill import read_shards

    if isinstance(table_ids, tuple):
        _, dl_dir, salt = table_ids
        ids, dl = _load_dl_partition(dl_dir, salt, config)
        write_doc_tables(out_dir, [(ids, dl)], salt)
        table_ids = ids
    by_part = read_shards(run_files, parts)
    out = []
    for part in parts:
        out.extend(_encode_partition(by_part.get(part), part, config,
                                     n_turns, table_ids, out_dir,
                                     fingerprint))
    return out


def _write_doc_stats_partitioned(stats_src_dir: str, out_dir: str,
                                 config: IndexConfig) -> tuple[int, int]:
    """Distributed doc-stats path (salt_all_terms mode): aggregate the
    writers' on-disk partials per doc with a Ray groupby (nothing pandas
    on the driver), write the docstats table via ``write_parquet``, and
    write the per-(salt, subpart) dl files the encode tasks read.
    Returns (n_docs, total_dlq)."""
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
        dl32 = dl_of(g["dl_q"].to_numpy())
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
# distributed stages (spill actor pool, per-partition task fan) whose
# fixed costs dwarf the real work — the RdbBase minToMerge idea (small
# Rdb dumps don't trigger full merges, RdbBase.cpp:154): small inputs
# take the one-task path below
SMALL_BUILD_MAX_ROWS = 100_000


def _build_small_fused(table: pa.Table, out_dir: str, config: IndexConfig,
                       fingerprint: str, write_docstore: bool,
                       phase_sec: dict) -> tuple[list[dict], dict]:
    """Single-process build of a SMALL generation (the add_documents fast
    path): one tokenize pass over the in-memory table, docstats + docstore
    + every partition encoded in a loop through the spill path's own
    encode step — the same segments and hot terms as the distributed
    build (tested), none of its fixed costs."""
    import pyarrow.parquet as pq

    t = time.time()
    tok = TokenizePostings(config)
    postings_parts, stats_parts = [], []
    for off in range(0, table.num_rows, 4096):
        p, s = tok.process(table.slice(off, 4096))
        if p.num_rows:
            postings_parts.append(p)
        stats_parts.append(s)
    phase_sec["small_tokenize"] = round(time.time() - t, 3)

    # doc stats — the same groupby the spill writers run, then dl_q
    t = time.time()
    if stats_parts:
        df = pa.concat_tables(stats_parts).to_pandas()
        agg = {f"len_f{f}": "sum" for f in range(NUM_FIELDS)}
        agg["conv_id"] = "min"
        stats_tbl = _with_dlq(df.groupby("doc_id", as_index=False).agg(agg),
                              config)
    else:
        # zero-row generation (an empty incremental feed): take the
        # TYPED empty stats straight from the tokenizer (a pandas
        # round-trip would degrade conv_id to Arrow null and diverge
        # from every sibling generation's docstats schema)
        stats_tbl = (tok.process(table.slice(0, 0))[1]
                     .append_column("dl_q", pa.array([], pa.int64())))
    ds_dir = os.path.join(out_dir, "docstats")
    shutil.rmtree(ds_dir, ignore_errors=True)
    os.makedirs(ds_dir, exist_ok=True)
    pq.write_table(stats_tbl, os.path.join(ds_dir, "part-0.parquet"))
    n_turns = table.num_rows
    _mark_stage(out_dir, "docstats", fingerprint, n_turns=n_turns)
    _, doc_ids_sorted, dl32, dl_q = load_doc_stats(out_dir)
    n_docs, total_dlq = len(doc_ids_sorted), int(dl_q.sum())
    avgdl = _avgdl(n_docs, total_dlq)
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

    # every partition through the spill path's encode step.  dlparts are
    # not written — they exist solely for DISTRIBUTED salt_all encode
    # tasks to load 1/S of the corpus lengths, and this path holds all
    # lengths in memory already
    t = time.time()
    tables = doc_tables(doc_ids_sorted, dl32, config)
    write_doc_tables(out_dir, tables)
    postings = pa.concat_tables(postings_parts) if postings_parts else None
    shard_col = (postings["shard"].to_numpy() if postings is not None
                 else np.zeros(0, dtype=np.int32))
    summary: list[dict] = []
    for part in _partitions(config):
        sel = np.flatnonzero(shard_col == part)
        tbl = postings.take(pa.array(sel)) if len(sel) else None
        summary.extend(_encode_partition(
            tbl, part, config, n_turns, tables[_table_of(part, config)][0],
            out_dir, fingerprint))
    phase_sec["encode"] = round(time.time() - t, 3)
    return summary, {"n_docs": n_docs, "total_dlq": total_dlq,
                     "avgdl": avgdl, "n_turns": n_turns}


def _with_dlq(stats_df, config: IndexConfig) -> pa.Table:
    """Per-doc field lengths → the docstats table, with dl_q (4 × the
    weighted doc length, an exact int)."""
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    lens = stats_df[[f"len_f{f}" for f in range(NUM_FIELDS)]].to_numpy()
    return pa.Table.from_pandas(stats_df.assign(dl_q=lens @ wq),
                                preserve_index=False)


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
    docstore) → driver stat merge → per-partition encode.  Returns
    (summary, stats) where stats has n_docs/total_dlq/avgdl/n_turns."""
    import ray

    from ..stages.spill import reserve_spill_writers, spill_postings

    cpus = int(ray.cluster_resources().get("CPU", 8))
    num_writers = reserve_spill_writers()

    parts = _partitions(config)
    done = frozenset(mf.completed_shards(out_dir, fingerprint)
                     if resume else ())
    pending = [pt for pt in parts if pt not in done]
    summary: list[dict] = [row for pt in parts if pt in done
                           for row in _resumed_partition(out_dir, pt, config)]
    docstore_done = resume and _stage_complete(out_dir, "docstore",
                                               fingerprint)
    docstats_done = resume and _stage_complete(out_dir, "docstats",
                                               fingerprint)
    if (not pending and docstats_done
            and (not write_docstore or docstore_done)):
        # everything complete for this fingerprint: reuse on-disk artifacts
        n_docs, total_dlq = _docstats_totals(out_dir)
        return summary, {
            "n_docs": n_docs, "total_dlq": total_dlq,
            "avgdl": _avgdl(n_docs, total_dlq),
            "n_turns": _stage_record(out_dir, "docstats")["n_turns"]}

    # resume fast path: a crash DURING the encode stage left the spilled
    # runs + spill/docstats stage manifests behind — skip re-tokenizing
    # the whole corpus and go straight to the missing partitions' encode
    spill_dir = os.path.join(out_dir, "tmp_spill")
    skip_spill = False
    if resume and docstats_done and _stage_complete(out_dir, "spill",
                                                    fingerprint):
        recorded = _stage_record(out_dir, "spill").get("run_files", [])
        run_files = [os.path.join(spill_dir, name) for name in recorded]
        skip_spill = bool(run_files) and all(
            os.path.exists(p) and os.path.exists(p + ".shards.json")
            for p in run_files)

    t = time.time()
    if skip_spill:
        phase_sec["spill"] = 0.0
        n_turns = _stage_record(out_dir, "docstats")["n_turns"]
        n_docs = total_dlq = None
    else:
        # fused spill pass: the build's one read of the input
        store_dir = os.path.join(out_dir, "docstore")
        if write_docstore and not docstore_done:
            shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(spill_dir, ignore_errors=True)
        stats_src = (os.path.join(out_dir, "tmp_stats")
                     if config.salt_all_terms else None)
        if stats_src:
            shutil.rmtree(stats_src, ignore_errors=True)
        run_files, stats_df, n_turns, spill_timings = spill_postings(
            transcripts_ds_factory(), spill_dir,
            store_dir if (write_docstore and not docstore_done) else None,
            config, num_writers, stats_dir=stats_src)
        if write_docstore and not docstore_done:
            _mark_stage(out_dir, "docstore", fingerprint)
        _mark_stage(out_dir, "spill", fingerprint,
                    run_files=[os.path.basename(p) for p in run_files])
        phase_sec["spill"] = round(time.time() - t, 3)
        phase_sec["spill_detail"] = {
            k: round(v / num_writers, 3) for k, v in spill_timings.items()}

        t = time.time()
        if config.salt_all_terms:
            # distributed aggregate + partitioned dl store; no driver
            # pandas, no whole-corpus broadcast
            n_docs, total_dlq = _write_doc_stats_partitioned(
                stats_src, out_dir, config)
            shutil.rmtree(stats_src, ignore_errors=True)
        else:
            import pyarrow.parquet as pq

            ds_dir = os.path.join(out_dir, "docstats")
            shutil.rmtree(ds_dir, ignore_errors=True)
            os.makedirs(ds_dir, exist_ok=True)
            pq.write_table(_with_dlq(stats_df, config),
                           os.path.join(ds_dir, "part-0.parquet"))
        # the input's row count rides with the doc stats: both resume
        # paths above need that stage complete, and the hot-term rule
        # needs the count
        _mark_stage(out_dir, "docstats", fingerprint, n_turns=n_turns)

    if config.salt_all_terms:
        if n_docs is None:
            n_docs, total_dlq = _docstats_totals(out_dir)
        dl_dir = os.path.join(out_dir, "dlparts")
    else:
        _, doc_ids_sorted, dl32, dl_q = load_doc_stats(out_dir)
        n_docs, total_dlq = len(doc_ids_sorted), int(dl_q.sum())
        _check_dl_ceiling(n_docs, config)
        write_doc_tables(out_dir, [(doc_ids_sorted, dl32)])
        ids_ref = ray.put(doc_ids_sorted)
    avgdl = _avgdl(n_docs, total_dlq)
    phase_sec["docstats_merge"] = round(time.time() - t, 3)

    # per-partition merge + encode
    t = time.time()
    if pending:
        # contiguous partition chunks balanced by row mass: each task
        # decompresses every run's overlapping row groups exactly once,
        # and no task gets more than ~1/(2·cpus) of the data
        from ..stages.spill import estimate_shard_rows

        est = estimate_shard_rows(run_files, len(parts))
        target = max(1.0, est.sum() / (cpus * 2))

        def _chunked(units: list[int]) -> list[list[int]]:
            chunks, cur, cur_mass = [], [], 0.0
            for u in units:
                cur.append(u)
                cur_mass += est[u]
                if cur_mass >= target:
                    chunks.append(cur)
                    cur, cur_mass = [], 0.0
            if cur:
                chunks.append(cur)
            return chunks

        task = ray.remote(num_cpus=1)(_encode_shard_chunk)
        args = (out_dir, config, n_turns, fingerprint)
        if config.salt_all_terms:
            # salt-aligned chunks: a task's partitions share one salt, so
            # it loads exactly one dl partition (1/S of the corpus)
            futs = [task.remote(run_files, chunk, *args,
                                ("parts", dl_dir, salt))
                    for salt in range(config.num_salts)
                    for chunk in _chunked([u for u in pending
                                           if u % config.num_salts == salt])]
        else:
            futs = [task.remote(run_files, chunk, *args, ids_ref)
                    for chunk in _chunked(pending)]
        for res in ray.get(futs):
            summary.extend(res)
    shutil.rmtree(spill_dir, ignore_errors=True)
    try:   # runs are gone — drop the spill checkpoint with them
        os.remove(_stage_manifest_path(out_dir, "spill"))
    except OSError:
        pass
    phase_sec["encode"] = round(time.time() - t, 3)
    return summary, {"n_docs": n_docs, "total_dlq": total_dlq,
                     "avgdl": avgdl, "n_turns": n_turns}


def build_index(transcripts_ds_factory, out_dir: str,
                config: IndexConfig | None = None, *,
                input_token: str, resume: bool = False,
                write_docstore: bool = True, hooks=None,
                small_input_max_rows: int | None = None) -> dict:
    """Build the inverted index.  ``transcripts_ds_factory`` is a zero-arg
    callable returning a fresh Dataset over the input; the build reads
    it once (plus the small-input probe below, when asked for).  The
    hot terms are an output: ``meta["hot_terms"]`` lists the terms the
    encode step salted (:func:`_hot_terms`).

    ``hooks`` (optional ``functions.hooks.IndexHooks``): user callouts —
    the ``WantedChecker`` plugin-API analogue (``WantedCheckerApi.h``,
    ``Msg13.cpp:1168``) — applied at the input factory so the postings,
    doc stats and doc store all see the same filtered/transformed corpus.
    ``hooks.token()`` joins the resume fingerprint: bump the version to
    invalidate prior build state.

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
    fingerprint = _fingerprint(input_token, config)
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.time()
    phase_sec: dict[str, float] = {}

    small_table = None
    if small_input_max_rows and not resume:
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
    else:
        summary, stats = _build_fused_spill(
            transcripts_ds_factory, out_dir, config, fingerprint, resume,
            write_docstore, phase_sec)
    hot_terms = sorted({t for r in summary for t in r.get("hot_terms", ())})

    meta = {
        "version": 1,
        "generation": 0,
        "fingerprint": fingerprint,
        "input_token": input_token,
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "writer_digest": writer_digest(),
        "n_docs": stats["n_docs"],
        "total_dlq": stats["total_dlq"],
        "avgdl": stats["avgdl"],
        "n_turns": stats["n_turns"],
        "hot_terms": hot_terms,
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


@functools.cache
def writer_digest() -> str:
    """Digest of the index writer's source (this module and
    ``segments.py``).  A build records it in its meta, so an index cache
    keyed on it never serves an index an older writer laid out under the
    same config."""
    from . import segments

    h = hashlib.sha256()
    for path in (__file__, segments.__file__):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def ensure_cached_index(idx_dir: str, build) -> str:
    """``idx_dir`` once it holds a complete index this writer built:
    reused as it is, else cleared and built by ``build(idx_dir)`` —
    the index caches' one reuse rule."""
    try:
        with open(os.path.join(idx_dir, "index_meta.json")) as f:
            digest = json.load(f).get("writer_digest")
    except (OSError, ValueError):
        pass                        # absent, or a build to resume
    else:
        if digest == writer_digest():
            return idx_dir
        shutil.rmtree(idx_dir)      # complete, but another writer's
    build(idx_dir)
    return idx_dir


def load_meta(out_dir: str) -> dict:
    """The index's ``index_meta.json``.  Raises ``ValueError`` for an
    index of another format_version: its shard numbering (or segment
    layout) is not this engine's, so it must be rebuilt."""
    with open(os.path.join(out_dir, "index_meta.json")) as f:
        meta = json.load(f)
    found = meta["config"].get("format_version")
    if found != IndexConfig.format_version:
        raise ValueError(
            f"index {out_dir} has format_version {found}; this engine "
            f"reads format_version {IndexConfig.format_version} "
            f"(block segments of doc ordinals) — rebuild the index "
            f"with build_index")
    return meta


def index_config(meta: dict) -> IndexConfig:
    """The :class:`IndexConfig` an index's meta records."""
    cfg = meta["config"]
    return IndexConfig(**{**cfg, "field_weights": tuple(cfg["field_weights"])})
