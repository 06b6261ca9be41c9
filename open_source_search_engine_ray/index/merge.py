"""Incremental index maintenance: append generations, tombstone deletes,
stats refresh, and compaction.

Mirrors the reference's LSM lifecycle re-expressed over immutable Parquet
generations:

- incremental adds land in a NEW generation (the in-memory tree dumped to a
  new numbered file, ``Rdb.cpp:717-790``) — here a self-contained sub-index
  built by the same ``build_index`` pipeline under ``gens/g{G}/``;
- deletes are tombstones ``(doc_id, dead_upto_gen)`` (negative keys with the
  del-bit, ``Rdb.h:76-88``, ``Posdb.h:226-228``): rows of generations
  ≤ ``dead_upto_gen`` for that doc are dead; a later re-add revives the doc;
- every add is an upsert: it tombstones its docs' versions in the older
  generations (the reindex's negative keys for the old document, the
  ``XmlDoc`` old-doc diff → ``Rdb`` annihilation), so one version of a doc
  is live and tombstones are the only liveness rule;
- global scoring stats (live N, avgdl) are refreshed from the
  per-generation doc-stats tables, one file at a time;
- ``compact_merge()`` k-way merges every generation's segments into a
  fresh single-generation index (``posdbMerge_r``); ``compact()``
  rebuilds the live corpus and swaps — the ``Repair``/``DocRebuild``
  rebuild-and-swap path (``Repair.cpp``, ``DocRebuild.cpp``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig, NUM_FIELDS
from .build import build_index, load_meta

GENERATIONS_FILE = "generations.json"
TOMBSTONES_FILE = "tombstones.parquet"


def _gens_path(out_dir: str) -> str:
    return os.path.join(out_dir, GENERATIONS_FILE)


def index_state_token(out_dir: str) -> str:
    """Fingerprint of the index's mutable state — the generations doc and
    the tombstone table, which every maintenance op (add/delete/compact)
    rewrites.  Derived tables built from the live docstore (spell vocab,
    doclang) embed this token when written and rebuild when it no longer
    matches, so a maintained index never serves stale derived data."""
    h = hashlib.sha1()
    # generations.json is tiny (~KB) and every maintenance op rewrites
    # it with a bumped `rev` + fresh `refreshed_at`, so hashing its
    # CONTENT is both robust (no coarse-mtime/same-size window) and
    # cheap enough for the per-query prior-cache key
    p = _gens_path(out_dir)
    try:
        with open(p, "rb") as f:
            h.update(f.read())
    except FileNotFoundError:
        pass
    t = os.path.join(out_dir, TOMBSTONES_FILE)
    try:
        st = os.stat(t)
        h.update(f"tomb:{st.st_size}:{st.st_mtime_ns};".encode())
    except FileNotFoundError:
        pass
    return h.hexdigest()


def read_generations(out_dir: str) -> dict:
    path = _gens_path(out_dir)
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"generations": [{"gen": 0, "dir": "."}], "live_stats": None}


def _write_generations(out_dir: str, doc: dict) -> None:
    # monotonic revision: guarantees the serialized CONTENT differs on
    # every write (index_state_token hashes it for staleness checks)
    doc["rev"] = int(doc.get("rev", 0)) + 1
    tmp = _gens_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, _gens_path(out_dir))


def gen_dir(out_dir: str, gen: int) -> str:
    return out_dir if gen == 0 else os.path.join(out_dir, "gens", f"g{gen}")


def read_tombstones(out_dir: str):
    """→ (doc_ids sorted uint64, dead_upto_gen int32) or empty arrays."""
    path = os.path.join(out_dir, TOMBSTONES_FILE)
    if not os.path.exists(path):
        return (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int32))
    df = pq.read_table(path).to_pandas()
    agg = df.groupby("doc_id")["dead_upto_gen"].max().sort_index()
    return (agg.index.to_numpy().astype(np.uint64),
            agg.to_numpy().astype(np.int32))


def _append_tombstones(out_dir: str, doc_ids, dead_upto_gen: int) -> None:
    """Kill ``doc_ids`` in every generation up to ``dead_upto_gen``."""
    doc = np.asarray(doc_ids, dtype=np.uint64)
    path = os.path.join(out_dir, TOMBSTONES_FILE)
    new = pa.table({
        "doc_id": pa.array(doc),
        "dead_upto_gen": pa.array(
            np.full(len(doc), dead_upto_gen, dtype=np.int32)),
    })
    if os.path.exists(path):
        new = pa.concat_tables([pq.read_table(path), new])
    tmp = path + ".tmp"
    pq.write_table(new, tmp)
    os.replace(tmp, path)


def add_documents(out_dir: str, transcripts_ds_factory, *,
                  input_token: str,
                  config: IndexConfig | None = None) -> dict:
    """Add or replace documents: append a new generation holding them and
    tombstone their versions in every older generation (an upsert — the
    respider path: delete-doc negative keys + reindex)."""
    gens = read_generations(out_dir)
    prev_gen = max(g["gen"] for g in gens["generations"])
    new_gen = prev_gen + 1
    sub = gen_dir(out_dir, new_gen)
    base_meta = load_meta(out_dir)
    cfg = config or IndexConfig(**{
        **base_meta["config"],
        "field_weights": tuple(base_meta["config"]["field_weights"])})
    # compact_merge merges partition p of every generation into partition
    # p, so the partition layout must match the base index
    base_cfg = base_meta["config"]
    if (cfg.num_partitions != base_cfg["num_partitions"]
            or cfg.num_salts != base_cfg["num_salts"]
            or cfg.salt_all_terms != bool(base_cfg.get("salt_all_terms"))):
        raise ValueError(
            "add_documents: generation partitioning must match the base "
            f"index (base num_partitions={base_cfg['num_partitions']} "
            f"num_salts={base_cfg['num_salts']} "
            f"salt_all={bool(base_cfg.get('salt_all_terms'))}, got "
            f"{cfg.num_partitions}/{cfg.num_salts}/{cfg.salt_all_terms})")
    import pyarrow.dataset as pads

    from .build import SMALL_BUILD_MAX_ROWS

    # small generations skip the distributed build stages entirely (the
    # RdbBase minToMerge idea: a small dump shouldn't pay full-merge
    # machinery, RdbBase.cpp:154); large ones take the normal path
    meta = build_index(transcripts_ds_factory, sub, cfg,
                       input_token=input_token,
                       small_input_max_rows=SMALL_BUILD_MAX_ROWS)
    # the new versions replace the live ones before the generation is
    # registered, so no reader sees a doc twice
    new_docs = pads.dataset(os.path.join(sub, "docstats"),
                            format="parquet").to_table(columns=["doc_id"])
    _append_tombstones(out_dir, new_docs["doc_id"].to_numpy(), prev_gen)
    gens["generations"].append({"gen": new_gen,
                                "dir": os.path.relpath(sub, out_dir),
                                "input_token": input_token,
                                "built_at": time.time()})
    _write_generations(out_dir, gens)
    refresh_stats(out_dir)
    return meta


def delete_docs(out_dir: str, doc_ids) -> int:
    """Tombstone documents: their postings in all current generations die;
    a later re-add revives them."""
    gens = read_generations(out_dir)
    cur = max(g["gen"] for g in gens["generations"])
    _append_tombstones(out_dir, list(doc_ids), cur)
    refresh_stats(out_dir)
    return len(doc_ids)


def delete_convs(out_dir: str, conv_ids: list[str]) -> int:
    from ..functions.ghash import doc_ids_for_convs

    return delete_docs(out_dir, doc_ids_for_convs(conv_ids).tolist())


def delete_by_query(out_dir: str, query: str, lang: str = "en") -> int:
    """Delete every live document matching ``query`` — the query-driven
    reindex/delete of the reference (``PageReindex.cpp``: run the query,
    feed the result docIds into the delete/reindex spider queue).  The
    EXACT match set (required-term intersection, negatives, phrase
    filters) is tombstoned; a later re-add revives a doc as usual.
    Returns the number of docs deleted."""
    from ..query.engine import IndexSearcher, SearchRequest

    se = IndexSearcher(out_dir)
    # a ranking as deep as the live corpus holds every match
    cand = se.run(SearchRequest(query, max(1, se.n_docs), lang=lang)).doc_ids
    if len(cand) == 0:
        return 0
    return delete_docs(out_dir, [int(d) for d in cand])


def live_keep_mask(doc: np.ndarray, gen: int, tdoc, tdead) -> np.ndarray:
    """THE negative-key-annihilation keep mask (``RdbList.cpp:2361-2372``)
    for rows of generation ``gen``: False where a tombstone covers the doc
    (``tdead >= gen``).  ``tdoc`` must be sorted.  Every live view — the
    posting merge, the live totals, compaction's carry and the streaming
    filter — calls this one helper."""
    if not len(tdoc):
        return np.ones(len(doc), dtype=bool)
    idx = np.clip(np.searchsorted(tdoc, doc), 0, len(tdoc) - 1)
    return ~((tdoc[idx] == doc) & (tdead[idx] >= gen))


def _table_files(out_dir: str, gen: int, subdir: str) -> list[str]:
    """The Parquet files of generation ``gen``'s ``docstats`` or
    ``docstore`` table."""
    import pyarrow.dataset as pads

    return sorted(pads.dataset(os.path.join(gen_dir(out_dir, gen), subdir),
                               format="parquet").files)


def _live_files(out_dir: str, gen_list: list[dict], subdir: str, tomb,
                columns: list[str] | None = None):
    """Yield the live rows of a per-generation table family, one input
    file at a time (memory is bounded by one file)."""
    for g in gen_list:
        for path in _table_files(out_dir, g["gen"], subdir):
            t = pq.ParquetFile(path).read(columns=columns)
            keep = live_keep_mask(t["doc_id"].to_numpy().astype(np.uint64),
                                  int(g["gen"]), *tomb)
            yield t if keep.all() else t.filter(pa.array(keep))


def _live_totals(out_dir: str, gen_list: list[dict],
                 tomb) -> tuple[int, int]:
    """Live (n_docs, total_dlq) from every generation's docstats."""
    n_docs = total_dlq = 0
    for t in _live_files(out_dir, gen_list, "docstats", tomb,
                         ["doc_id", "dl_q"]):
        n_docs += t.num_rows
        total_dlq += int(t["dl_q"].to_numpy().sum())
    return n_docs, total_dlq


def _carry_live(out_dir: str, gen_list: list[dict], subdir: str, tomb,
                dest: str) -> int:
    """Copy the live rows of a per-generation table family into the one
    file ``dest`` → the rows written."""
    writer, rows = None, 0
    try:
        for t in _live_files(out_dir, gen_list, subdir, tomb):
            if writer is None:
                writer = pq.ParquetWriter(dest, t.schema)
            writer.write_table(t)
            rows += t.num_rows
    finally:
        if writer is not None:
            writer.close()
    return rows


def _make_live_filter(gen: int, tomb_ref):
    """Batch filter dropping tombstoned rows — :func:`live_keep_mask` as a
    map-side filter over the broadcast tombstones."""
    import ray

    def f(b: pa.Table) -> pa.Table:
        tdoc, tdead = ray.get(tomb_ref)
        doc = b["doc_id"].to_numpy().astype(np.uint64)
        keep = live_keep_mask(doc, gen, tdoc, tdead)
        return b if keep.all() else b.filter(pa.array(keep))
    return f


def live_docs_ds(out_dir: str, subdir: str = "docstore",
                 columns: list[str] | None = None):
    """STREAMING live view of a per-generation table family (``docstats``
    or ``docstore``): tombstones applied map-side via a broadcast filter —
    no shuffle join, no driver materialization; consume with
    ``write_parquet`` / an aggregate."""
    import ray
    import ray.data

    gens = read_generations(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    tomb = read_tombstones(out_dir)
    need_filter = bool(len(tomb[0]))
    # the live filter keys on doc_id — force-include it in the pruned
    # read when the caller didn't ask for it, and drop it again after,
    # so callers like the spell vocab (columns=["text"]) survive
    # tombstoned indexes
    read_cols = columns
    prune_doc_id = False
    if need_filter and columns is not None and "doc_id" not in columns:
        read_cols = ["doc_id"] + list(columns)
        prune_doc_id = True
    tomb_ref = ray.put(tomb)
    parts = []
    for g in gen_list:
        path = os.path.join(gen_dir(out_dir, g["gen"]), subdir)
        ds = ray.data.read_parquet(path, columns=read_cols)
        if need_filter:
            ds = ds.map_batches(_make_live_filter(int(g["gen"]), tomb_ref),
                                batch_format="pyarrow")
            if prune_doc_id:
                ds = ds.select_columns(list(columns))
        parts.append(ds)
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def refresh_stats(out_dir: str) -> dict:
    """Recompute live N / avgdl into generations.json (exact int sums)."""
    from .build import _avgdl

    gens = read_generations(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    n_docs, total_dlq = _live_totals(out_dir, gen_list,
                                     read_tombstones(out_dir))
    gens["live_stats"] = {
        "n_docs": n_docs,
        "total_dlq": total_dlq,
        "avgdl": _avgdl(n_docs, total_dlq),
        "refreshed_at": time.time(),
    }
    _write_generations(out_dir, gens)
    return gens["live_stats"]


def merge_postings(parts, tomb, with_positions: bool = True,
                   by_term: bool = False) -> dict | None:
    """THE generation/tombstone merge of decoded posting parts — the
    in-memory ``posdbMerge_r`` (``RdbList.cpp:2186-2400``): sorted union
    with negative-key annihilation.  ``parts`` yields ``(gen,
    decode_posting_table output)`` pairs; each loses the postings a
    tombstone kills in its generation (:func:`live_keep_mask`; an add
    tombstones the versions it replaces), then the survivors are
    concatenated and stably sorted by docId — by (term, docId) with
    ``by_term``, for parts of many terms — so equal keys keep part order.  The searchers, the fan-out
    coordinator and compaction all merge here.

    → ``doc_ids``, ``tfs``, ``dl`` (+ ``term`` with ``by_term``,
    ``positions`` = (flat, offsets) with ``with_positions``) and
    ``block_max``: the part's stored block maxima when exactly one part
    survives, untouched; else None.  ``None`` when nothing survives."""
    from ..functions.ragged import ragged_concat, ragged_select

    tdoc, tdead = tomb
    cols = ("term", "doc_ids", "tfs", "dl") if by_term else (
        "doc_ids", "tfs", "dl")
    kept: dict[str, list] = {c: [] for c in cols}
    pos, block_max = [], None
    for gen, d in parts:
        alive = live_keep_mask(d["doc_ids"], gen, tdoc, tdead)
        if not alive.any():
            continue
        whole = bool(alive.all())
        block_max = d["block_max"] if whole else None
        for c in cols:
            kept[c].append(d[c][alive])
        if with_positions:
            flat, offs = d["positions"]
            pos.append((flat, offs) if whole else
                       ragged_select(flat, offs, np.flatnonzero(alive)))
    if not kept["doc_ids"]:
        return None
    out = {c: np.concatenate(v) for c, v in kept.items()}
    order = (np.lexsort((out["doc_ids"], out["term"])) if by_term
             else np.argsort(out["doc_ids"], kind="stable"))
    out = {c: v[order] for c, v in out.items()}
    if with_positions:
        out["positions"] = ragged_select(*ragged_concat(pos), order)
    out["block_max"] = block_max if len(kept["doc_ids"]) == 1 else None
    return out


def _merge_partition(gen_dirs: list[tuple[int, str]], part: int,
                     union_hot: np.ndarray, tomb, config: IndexConfig,
                     avgdl: float, new_dir: str,
                     fingerprint: str) -> list[dict]:
    """Merge partition ``part`` of every generation — its own shard and
    its hot shards, where every posting of its terms lives in any
    generation — and write it back split under the union hot set."""
    from .build import _write_partition, hot_shards
    from .manifest import segment_path as seg_path
    from .segments import SegmentReader, decode_posting_table

    shards = [part]
    if not config.salt_all_terms:
        shards += hot_shards(part, config.num_partitions, config.num_salts)

    def gen_parts():
        # bulk path: each shard table is decoded in ONE vectorized pass,
        # one generation at a time, and merged by (term, doc) — equal
        # keys keep generation order, the same order the searcher's
        # per-term merge produces
        for gen, d in gen_dirs:
            for shard in shards:
                path = seg_path(d, shard)
                if os.path.exists(path):
                    yield gen, decode_posting_table(
                        SegmentReader(path).read_table(), with_positions=True)

    p = np.uint64(config.num_partitions)
    return _write_partition(merge_postings(gen_parts(), tomb, by_term=True),
                            part, union_hot[union_hot % p == part], config,
                            avgdl, new_dir, fingerprint)


def compact_merge(out_dir: str) -> dict:
    """Segment-level compaction: k-way merge of every generation's posting
    lists with tombstone annihilation, re-encoded into a fresh
    single-generation index — the ``RdbMerge`` / ``posdbMerge_r`` path
    (``RdbList.cpp:2186-2400``), no re-tokenization."""
    import ray

    from .build import _avgdl, _partitions

    base_meta = load_meta(out_dir)
    cfg = IndexConfig(**{**base_meta["config"],
                         "field_weights":
                         tuple(base_meta["config"]["field_weights"])})
    gens = read_generations(out_dir)
    tomb = read_tombstones(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    gen_dirs = [(g["gen"], gen_dir(out_dir, g["gen"])) for g in gen_list]
    hot_union: set[int] = set()
    for gen, d in gen_dirs:
        m = load_meta(d)
        hot_union.update(m["hot_terms"])
        gen_salt_all = bool(m["config"].get("salt_all_terms"))
        if (m["num_partitions"] != cfg.num_partitions
                or m["num_salts"] != cfg.num_salts
                or gen_salt_all != cfg.salt_all_terms):
            raise ValueError(
                f"compact_merge: generation {gen} partitioning "
                f"({m['num_partitions']}/{m['num_salts']}"
                f"/salt_all={gen_salt_all}) differs from the base index "
                f"({cfg.num_partitions}/{cfg.num_salts}"
                f"/salt_all={cfg.salt_all_terms}); rebuild with compact() "
                "instead")
    union_hot = np.asarray(sorted(hot_union), dtype=np.uint64)

    new_dir = out_dir + ".compacting"
    shutil.rmtree(new_dir, ignore_errors=True)
    os.makedirs(new_dir, exist_ok=True)
    fingerprint = f"compact-merge:{base_meta['fingerprint']}"

    n_docs, total_dlq = _live_totals(out_dir, gen_list, tomb)
    avgdl = _avgdl(n_docs, total_dlq)
    tomb_ref = ray.put(tomb)
    # the live docstats + docstore carry (one masked copy per input file,
    # one output file per table) runs beside the posting merge
    carry = ray.remote(num_cpus=1)(_carry_live)
    carried = []
    for subdir in ("docstats", "docstore"):
        os.makedirs(os.path.join(new_dir, subdir))
        carried.append(carry.remote(
            out_dir, gen_list, subdir, tomb_ref,
            os.path.join(new_dir, subdir, "part-00000.parquet")))
    task = ray.remote(num_cpus=1)(_merge_partition)
    merged = [task.remote(gen_dirs, part, union_hot, tomb_ref, cfg, avgdl,
                          new_dir, fingerprint)
              for part in _partitions(cfg)]
    _, n_turns = ray.get(carried)
    rows = [row for res in ray.get(merged) for row in res]
    n_terms = sum(r["n_terms"] for r in rows)
    n_postings = sum(r["n_postings"] for r in rows)
    meta = dict(base_meta)
    meta.update({
        "fingerprint": fingerprint,
        "n_docs": n_docs, "total_dlq": total_dlq, "avgdl": avgdl,
        "n_turns": n_turns,
        "hot_terms": [int(t) for t in union_hot],
        "built_shards": sorted(r["shard"] for r in rows),
        "n_terms": n_terms, "n_postings": n_postings,
        "compacted_from": [g["gen"] for g in gen_list],
    })
    with open(os.path.join(new_dir, "index_meta.json"), "w") as f:
        json.dump(meta, f)

    old_dir = out_dir + ".old"
    shutil.rmtree(old_dir, ignore_errors=True)
    os.replace(out_dir, old_dir)
    os.replace(new_dir, out_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    return meta


def compact(out_dir: str, config: IndexConfig | None = None) -> dict:
    """Rebuild the live corpus into a fresh single-generation index and
    swap (Repair/DocRebuild analogue)."""
    import ray.data

    base_meta = load_meta(out_dir)
    cfg = config or IndexConfig(**{
        **base_meta["config"],
        "field_weights": tuple(base_meta["config"]["field_weights"])})
    # stream the live docstore to a partitioned corpus dir (doc_id is
    # recomputed by the build's tokenize stage, so drop it) — never a
    # single driver-materialized table
    tmp_corpus = out_dir + ".compact_corpus"
    shutil.rmtree(tmp_corpus, ignore_errors=True)
    os.makedirs(tmp_corpus, exist_ok=True)
    live_docs_ds(out_dir, "docstore").drop_columns(
        ["doc_id"]).write_parquet(tmp_corpus)
    new_dir = out_dir + ".compacting"
    shutil.rmtree(new_dir, ignore_errors=True)
    meta = build_index(lambda: ray.data.read_parquet(tmp_corpus), new_dir,
                       cfg,
                       input_token=f"compact:{base_meta['fingerprint']}:"
                                   f"{time.time()}")
    old_dir = out_dir + ".old"
    shutil.rmtree(old_dir, ignore_errors=True)
    os.replace(out_dir, old_dir)
    os.replace(new_dir, out_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    shutil.rmtree(tmp_corpus, ignore_errors=True)
    return meta
