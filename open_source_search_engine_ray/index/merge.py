"""Incremental index maintenance: append generations, tombstone deletes,
updates (delete+readd), stats refresh, and compaction.

Mirrors the reference's LSM lifecycle re-expressed over immutable Parquet
generations:

- incremental adds land in a NEW generation (the in-memory tree dumped to a
  new numbered file, ``Rdb.cpp:717-790``) — here a self-contained sub-index
  built by the same ``build_index`` pipeline under ``gens/g{G}/``;
- deletes are tombstones ``(doc_id, dead_upto_gen)`` (negative keys with the
  del-bit, ``Rdb.h:76-88``, ``Posdb.h:226-228``): postings of generations
  ≤ ``dead_upto_gen`` for that doc are dead; a later re-add revives the doc
  (newest-file-wins, ``RdbList.cpp:2361-2372`` filePos filtering);
- an update = tombstone + re-add in the next generation;
- global scoring stats (live N, avgdl) are refreshed from the per-generation
  doc-stats tables with newest-generation-wins per doc (driver-side merge
  here; a Ray aggregate at cluster scale);
- ``compact()`` rebuilds the live corpus into a fresh single-generation
  index and swaps — the ``Repair``/``DocRebuild`` rebuild-and-swap path
  (``Repair.cpp``, ``DocRebuild.cpp``); a segment-level k-way merge
  (``posdbMerge_r``) is the planned optimization.
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

# at or below this many total docstats+docstore bytes, compact_merge
# carries the live tables in-process (same masks as the streaming path);
# above it the carry stays fully distributed
LIVE_CARRY_DRIVER_MAX_BYTES = 256 << 20


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


def add_documents(out_dir: str, transcripts_ds_factory, *,
                  input_token: str,
                  config: IndexConfig | None = None) -> dict:
    """Append a new generation containing the given documents."""
    gens = read_generations(out_dir)
    new_gen = max(g["gen"] for g in gens["generations"]) + 1
    sub = gen_dir(out_dir, new_gen)
    base_meta = load_meta(out_dir)
    cfg = config or IndexConfig(**{
        **base_meta["config"],
        "field_weights": tuple(base_meta["config"]["field_weights"])})
    # compact_merge's normal-shard path merges same-numbered shard files
    # across generations, so the partition layout must match the base index
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
    from .build import SMALL_BUILD_MAX_ROWS

    # small generations skip the distributed build stages entirely (the
    # RdbBase minToMerge idea: a small dump shouldn't pay full-merge
    # machinery, RdbBase.cpp:154); large ones take the normal path
    meta = build_index(transcripts_ds_factory, sub, cfg,
                       input_token=input_token,
                       small_input_max_rows=SMALL_BUILD_MAX_ROWS)
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
    path = os.path.join(out_dir, TOMBSTONES_FILE)
    new = pa.table({
        "doc_id": pa.array(np.asarray(list(doc_ids), dtype=np.uint64)),
        "dead_upto_gen": pa.array(
            np.full(len(doc_ids), cur, dtype=np.int32)),
    })
    if os.path.exists(path):
        new = pa.concat_tables([pq.read_table(path), new])
    tmp = path + ".tmp"
    pq.write_table(new, tmp)
    os.replace(tmp, path)
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


def update_documents(out_dir: str, transcripts_ds_factory, *,
                     input_token: str,
                     config: IndexConfig | None = None) -> dict:
    """Update = tombstone the incoming documents' old versions, then index
    the new versions in a fresh generation (the respider path: delete-doc
    negative keys + reindex, ``XmlDoc`` old-doc diff → ``Rdb``
    annihilation)."""
    from ..functions.ghash import doc_ids_for_convs

    convs = (transcripts_ds_factory().unique("conv_id"))
    delete_docs(out_dir, doc_ids_for_convs(sorted(convs)).tolist())
    return add_documents(out_dir, transcripts_ds_factory,
                         input_token=input_token, config=config)


def _conflict_winners(out_dir: str, gen_list: list[dict]):
    """Docs present in MORE THAN ONE generation → (sorted doc_ids uint64,
    winning gen int32).  Distributed: a 2-column (doc_id, gen) union over
    every generation's docstats (one row per doc) → ``groupby(doc_id)``
    Max/Count — the only shuffle in the live-view machinery, over 12
    bytes/doc.  The RESULT is bounded by the number of updated (re-added)
    docs — the LSM maintenance working set, the same order of magnitude as
    the tombstone table the driver already holds — so collecting it and
    broadcasting it map-side replaces a corpus-wide shuffle join."""
    import ray.data
    from ray.data.aggregate import Count, Max

    if len(gen_list) <= 1:
        return np.zeros(0, np.uint64), np.zeros(0, np.int32)
    parts = []
    for g in gen_list:
        d = gen_dir(out_dir, g["gen"])

        def attach(b: pa.Table, _gen=int(g["gen"])) -> pa.Table:
            return pa.table({
                "doc_id": b["doc_id"],
                "gen": pa.array(np.full(b.num_rows, _gen, np.int32))})

        parts.append(ray.data.read_parquet(
            os.path.join(d, "docstats"), columns=["doc_id"])
            .map_batches(attach, batch_format="pyarrow"))
    agg = (parts[0].union(*parts[1:]).groupby("doc_id")
           .aggregate(Max("gen", alias_name="win_gen"),
                      Count(alias_name="cnt")))
    import pyarrow.compute as pc

    dup = agg.map_batches(
        lambda b: b.filter(pc.greater(b["cnt"], 1)),
        batch_format="pyarrow").to_pandas()
    if len(dup) == 0:   # empty result drops the schema
        return np.zeros(0, np.uint64), np.zeros(0, np.int32)
    doc = dup["doc_id"].to_numpy().astype(np.uint64)
    order = np.argsort(doc)
    return doc[order], dup["win_gen"].to_numpy().astype(np.int32)[order]


def live_keep_mask(doc: np.ndarray, gen: int, cdoc, cwin,
                   tdoc, tdead) -> np.ndarray:
    """THE newest-file-wins + negative-key-annihilation keep mask
    (``RdbList.cpp:2361-2372``) for rows of generation ``gen``: False
    where a newer generation re-added the doc (``cwin > gen``) or a
    tombstone covers it (``tdead >= gen``).  ``cdoc``/``tdoc`` must be
    sorted.  Every live view — the streaming batch filter, the driver
    fast paths, compact's carry — calls this one helper so the mask
    semantics cannot diverge between paths."""
    keep = np.ones(len(doc), dtype=bool)
    if len(cdoc):
        idx = np.clip(np.searchsorted(cdoc, doc), 0, len(cdoc) - 1)
        keep &= ~((cdoc[idx] == doc) & (cwin[idx] > gen))
    if len(tdoc):
        idx = np.clip(np.searchsorted(tdoc, doc), 0, len(tdoc) - 1)
        keep &= ~((tdoc[idx] == doc) & (tdead[idx] >= gen))
    return keep


def _make_live_filter(gen: int, conflict_ref, tomb_ref):
    """Batch filter dropping superseded (a newer generation re-added the
    doc) and tombstoned rows — :func:`live_keep_mask` as a map-side
    filter over broadcast arrays."""
    import ray

    def f(b: pa.Table) -> pa.Table:
        cdoc, cwin = ray.get(conflict_ref)
        tdoc, tdead = ray.get(tomb_ref)
        doc = b["doc_id"].to_numpy().astype(np.uint64)
        keep = live_keep_mask(doc, gen, cdoc, cwin, tdoc, tdead)
        return b if keep.all() else b.filter(pa.array(keep))
    return f


def live_docs_ds(out_dir: str, subdir: str = "docstore",
                 columns: list[str] | None = None,
                 _precomputed: tuple | None = None):
    """STREAMING live view of a per-generation table family (``docstats``
    or ``docstore``): newest-generation-wins + tombstones applied map-side
    via broadcast filter arrays — no shuffle join, no driver
    materialization; consume with ``write_parquet`` / an aggregate.
    ``_precomputed=(cdoc, cwin, tdoc, tdead)`` skips the conflict-winner
    job when the caller already holds the arrays (compact_merge carries
    two table families and should pay that shuffle once, not twice)."""
    import ray
    import ray.data

    gens = read_generations(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    if _precomputed is not None:
        cdoc, cwin, tdoc, tdead = _precomputed
    else:
        cdoc, cwin = _conflict_winners(out_dir, gen_list)
        tdoc, tdead = read_tombstones(out_dir)
    need_filter = bool(len(cdoc) or len(tdoc))
    # the live filter keys on doc_id — force-include it in the pruned
    # read when the caller didn't ask for it, and drop it again after,
    # so callers like the spell vocab (columns=["text"]) survive
    # tombstoned / multi-generation indexes
    read_cols = columns
    prune_doc_id = False
    if need_filter and columns is not None and "doc_id" not in columns:
        read_cols = ["doc_id"] + list(columns)
        prune_doc_id = True
    conflict_ref = ray.put((cdoc, cwin))
    tomb_ref = ray.put((tdoc, tdead))
    parts = []
    for g in gen_list:
        path = os.path.join(gen_dir(out_dir, g["gen"]), subdir)
        ds = ray.data.read_parquet(path, columns=read_cols)
        if need_filter:
            ds = ds.map_batches(
                _make_live_filter(int(g["gen"]), conflict_ref, tomb_ref),
                batch_format="pyarrow")
            if prune_doc_id:
                ds = ds.select_columns(list(columns))
        parts.append(ds)
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


# at or below this many total docstats bytes the live-stats recompute
# runs in-process (two pruned columns; exact same newest-wins + tombstone
# semantics) instead of paying two Ray jobs' fixed costs — the
# maintenance analogue of the small-generation build fast path
REFRESH_DRIVER_MAX_BYTES = 64 << 20


def _table_bytes(out_dir: str, gen_list: list[dict], subdir: str) -> int:
    total = 0
    for g in gen_list:
        d = os.path.join(gen_dir(out_dir, g["gen"]), subdir)
        if os.path.isdir(d):
            for name in os.listdir(d):
                total += os.path.getsize(os.path.join(d, name))
    return total


def _docstats_bytes(out_dir: str, gen_list: list[dict]) -> int:
    return _table_bytes(out_dir, gen_list, "docstats")


def _conflict_winners_driver(out_dir: str, gen_list: list[dict]):
    """In-process :func:`_conflict_winners` (same result, no Ray job) for
    maintenance working sets small enough to hold two numpy columns."""
    import pyarrow.dataset as pads

    if len(gen_list) <= 1:
        return np.zeros(0, np.uint64), np.zeros(0, np.int32)
    docs_per_gen, gen_ids = [], []
    for g in gen_list:
        d = os.path.join(gen_dir(out_dir, g["gen"]), "docstats")
        t = pads.dataset(d, format="parquet").to_table(columns=["doc_id"])
        docs_per_gen.append(t["doc_id"].to_numpy().astype(np.uint64))
        gen_ids.append(int(g["gen"]))
    all_docs = np.concatenate(docs_per_gen)
    all_gens = np.concatenate([np.full(len(d), gid, np.int32)
                               for d, gid in zip(docs_per_gen, gen_ids)])
    uniq, inv, cnt = np.unique(all_docs, return_inverse=True,
                               return_counts=True)
    win = np.full(len(uniq), -1, np.int32)
    np.maximum.at(win, inv, all_gens)
    dup = cnt > 1
    return uniq[dup], win[dup]


def _live_table_driver(out_dir: str, gen_list: list[dict], subdir: str,
                       cdoc, cwin, tdoc, tdead) -> pa.Table:
    """In-process live view of a generation table family — identical
    masks to :func:`_make_live_filter`, returned as one Arrow table."""
    import pyarrow.dataset as pads

    tables = []
    for g in gen_list:
        d = os.path.join(gen_dir(out_dir, g["gen"]), subdir)
        t = pads.dataset(d, format="parquet").to_table()
        if len(cdoc) or len(tdoc):
            doc = t["doc_id"].to_numpy().astype(np.uint64)
            keep = live_keep_mask(doc, int(g["gen"]), cdoc, cwin,
                                  tdoc, tdead)
            if not keep.all():
                t = t.filter(pa.array(keep))
        tables.append(t)
    return pa.concat_tables(tables)


def _live_totals_driver(out_dir: str, gen_list: list[dict],
                        tomb_doc: np.ndarray,
                        tomb_dead: np.ndarray) -> tuple[int, int]:
    """In-process live (n_docs, total_dlq): read each generation's
    (doc_id, dl_q), resolve newest-generation-wins conflicts and
    tombstones with the same masks as :func:`_make_live_filter`."""
    import pyarrow.dataset as pads

    docs_per_gen, dlq_per_gen, gen_ids = [], [], []
    for g in gen_list:
        d = os.path.join(gen_dir(out_dir, g["gen"]), "docstats")
        t = pads.dataset(d, format="parquet").to_table(
            columns=["doc_id", "dl_q"])
        docs_per_gen.append(t["doc_id"].to_numpy().astype(np.uint64))
        dlq_per_gen.append(t["dl_q"].to_numpy().astype(np.int64))
        gen_ids.append(int(g["gen"]))
    all_docs = (np.concatenate(docs_per_gen) if docs_per_gen
                else np.zeros(0, np.uint64))
    all_gens = np.concatenate(
        [np.full(len(d), gid, np.int32)
         for d, gid in zip(docs_per_gen, gen_ids)]) if docs_per_gen \
        else np.zeros(0, np.int32)
    uniq, inv, cnt = np.unique(all_docs, return_inverse=True,
                               return_counts=True)
    win = np.full(len(uniq), -1, np.int32)
    np.maximum.at(win, inv, all_gens)
    dup = cnt > 1
    cdoc, cwin = uniq[dup], win[dup]
    n_docs, total_dlq = 0, 0
    for doc, dlq, gid in zip(docs_per_gen, dlq_per_gen, gen_ids):
        keep = live_keep_mask(doc, gid, cdoc, cwin, tomb_doc, tomb_dead)
        n_docs += int(keep.sum())
        total_dlq += int(dlq[keep].sum())
    return n_docs, total_dlq


def refresh_stats(out_dir: str) -> dict:
    """Recompute live N / avgdl into generations.json (exact int sums).

    Fast paths: an untouched index (single generation, no tombstones)
    takes its totals straight from the generation's meta — no Ray job;
    a maintained index whose docstats total ≤ ``REFRESH_DRIVER_MAX_BYTES``
    recomputes in-process (same masks, no Ray-job fixed costs).  Bigger
    indexes aggregate the live docstats STREAM (Sum/Count over two
    pruned columns) — fully distributed."""
    gens = read_generations(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    tomb_doc, tomb_dead = read_tombstones(out_dir)
    if len(gen_list) == 1 and len(tomb_doc) == 0:
        m = load_meta(gen_dir(out_dir, gen_list[0]["gen"]))
        n_docs, total_dlq = int(m["n_docs"]), int(m["total_dlq"])
    elif _docstats_bytes(out_dir, gen_list) <= REFRESH_DRIVER_MAX_BYTES:
        n_docs, total_dlq = _live_totals_driver(out_dir, gen_list,
                                                tomb_doc, tomb_dead)
    else:
        from ray.data.aggregate import Count, Sum

        agg = (live_docs_ds(out_dir, "docstats",
                            columns=["doc_id", "dl_q"])
               .aggregate(Sum("dl_q", alias_name="total_dlq"),
                          Count(alias_name="n_docs")))
        # Ray returns None (not a dict) for an empty dataset — e.g.
        # every doc tombstoned
        n_docs = int(agg["n_docs"] or 0) if agg else 0
        total_dlq = int(agg["total_dlq"] or 0) if agg else 0
    gens["live_stats"] = {
        "n_docs": n_docs,
        "total_dlq": total_dlq,
        "avgdl": float(np.float64(total_dlq) / 4.0 /
                       np.float64(max(1, n_docs))),
        "refreshed_at": time.time(),
    }
    _write_generations(out_dir, gens)
    return gens["live_stats"]


_EMPTY_CDOC = np.zeros(0, np.uint64)
_EMPTY_CWIN = np.zeros(0, np.int32)


def merge_postings(parts, tomb, with_positions: bool = True,
                   by_term: bool = False) -> dict | None:
    """THE generation/tombstone merge of decoded posting parts — the
    in-memory ``posdbMerge_r`` (``RdbList.cpp:2186-2400``): sorted union
    with negative-key annihilation.  ``parts`` yields ``(gen,
    decode_posting_table output)`` pairs; each loses the postings a
    tombstone kills in its generation (:func:`live_keep_mask`; postings
    resolve newest-generation-wins through the tombstones an update
    writes), then the survivors are concatenated and stably sorted by
    docId — by (term, docId) with ``by_term``, for parts of many terms —
    so equal keys keep part order.  The searchers, the fan-out
    coordinator and both compaction tasks all merge here.

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
        alive = live_keep_mask(d["doc_ids"], gen, _EMPTY_CDOC, _EMPTY_CWIN,
                               tdoc, tdead)
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


def _merge_normal_shard(gen_dirs: list[tuple[int, str]], shard: int,
                        union_hot: np.ndarray, tomb,
                        config: IndexConfig, avgdl: float,
                        new_dir: str, fingerprint: str) -> dict:
    """Merge one normal target shard from every generation's same-numbered
    shard file (non-hot terms never move: shard = term % P in every
    generation)."""
    import pyarrow.compute as pc

    from .manifest import write_manifest
    from .segments import (SegmentReader, decode_posting_table,
                           encode_from_groups, write_segment)
    from .manifest import segment_path as seg_path

    t0 = time.time()

    def gen_parts():
        # bulk path: each generation's shard table is decoded in ONE
        # vectorized pass, one generation at a time, and merged by
        # (term, doc) — equal keys keep generation order, the same order
        # the per-term merge produces
        for gen, d in gen_dirs:
            path = seg_path(d, shard)
            if not os.path.exists(path):
                continue
            tbl = SegmentReader(path).read_table()
            if len(union_hot):
                # re-salted terms go to the hot-term tasks
                tbl = tbl.filter(pc.invert(pc.is_in(
                    tbl["term_id"],
                    value_set=pa.array(union_hot, pa.uint64()))))
            yield gen, decode_posting_table(tbl, with_positions=True)

    m = merge_postings(gen_parts(), tomb, by_term=True)
    if m is not None:
        from .build import _salt_of_shard

        flat, offs = m["positions"]
        seg = encode_from_groups(
            m["term"], m["doc_ids"], m["dl"], m["tfs"], flat, np.diff(offs),
            config, _salt_of_shard(shard, config), avgdl)
        path = seg_path(new_dir, shard)
        write_segment(seg, path)
        n_terms, n_post = seg.num_rows, int(seg["df"].to_pandas().sum())
        nbytes = os.path.getsize(path)
    else:
        n_terms = n_post = nbytes = 0
    write_manifest(new_dir, shard, fingerprint=fingerprint,
                   n_terms=n_terms, n_postings=n_post,
                   bytes_written=nbytes, wall_sec=time.time() - t0)
    return {"shard": shard, "n_terms": n_terms, "n_postings": n_post}


def _merge_hot_terms(gen_infos: list[tuple[int, str, list, int, int]],
                     hot_items: list[tuple[int, int]], union_hot: np.ndarray,
                     tomb, config: IndexConfig, avgdl: float,
                     new_dir: str, fingerprint: str,
                     target_p: int, target_s: int) -> list[dict]:
    """Merge a chunk of hot terms: gather each term's parts from every
    generation (its hot shards there, or its normal shard when that
    generation didn't salt it), merge, re-split by doc % S into the target
    hot shards."""
    from ..functions.ragged import ragged_select
    from .manifest import segment_path as seg_path, write_manifest
    from .segments import (SegmentReader, decode_posting_table,
                           encode_from_groups, write_segment)

    out = []
    per_shard_rows: dict[int, list] = {}
    for hot_idx, term in hot_items:
        parts = []
        for gen, d, hot_list, p, s in gen_infos:
            hot_arr = np.asarray(hot_list, dtype=np.uint64)
            pos = int(np.searchsorted(hot_arr, np.uint64(term)))
            if pos < len(hot_arr) and hot_arr[pos] == np.uint64(term):
                shards = range(p + pos * s, p + pos * s + s)
            else:
                shards = [int(np.uint64(term) % np.uint64(p))]
            for sh in shards:
                path = seg_path(d, sh)
                if not os.path.exists(path):
                    continue
                # a shard file holds at most one row per term
                parts.append((gen, decode_posting_table(
                    SegmentReader(path).read_terms([term]),
                    with_positions=True)))
        merged = merge_postings(parts, tomb)
        if merged is None:
            continue
        docs, tfs, dl = merged["doc_ids"], merged["tfs"], merged["dl"]
        flat, offs = merged["positions"]
        salts = (docs % np.uint64(target_s)).astype(np.int64)
        for salt in range(target_s):
            sel = np.flatnonzero(salts == salt)
            if len(sel) == 0:
                continue
            f2, o2 = ragged_select(flat, offs, sel)
            shard = target_p + hot_idx * target_s + salt
            per_shard_rows.setdefault(shard, []).append(
                (term, docs[sel], tfs[sel], dl[sel], f2, np.diff(o2), salt))
    for shard, rows in per_shard_rows.items():
        t0 = time.time()
        rows.sort(key=lambda r: r[0])
        seg = encode_from_groups(
            np.concatenate([np.full(len(r[1]), r[0], np.uint64)
                            for r in rows]),
            np.concatenate([r[1] for r in rows]),
            np.concatenate([r[3] for r in rows]),
            np.concatenate([r[2] for r in rows]),
            np.concatenate([r[4] for r in rows]),
            np.concatenate([r[5] for r in rows]),
            config, rows[0][6], avgdl)
        path = seg_path(new_dir, shard)
        write_segment(seg, path)
        write_manifest(new_dir, shard, fingerprint=fingerprint,
                       n_terms=seg.num_rows,
                       n_postings=int(seg["df"].to_pandas().sum()),
                       bytes_written=os.path.getsize(path),
                       wall_sec=time.time() - t0, salt=rows[0][6])
        out.append({"shard": shard, "n_terms": seg.num_rows})
    return out


def compact_merge(out_dir: str) -> dict:
    """Segment-level compaction: k-way merge of every generation's posting
    lists with tombstone annihilation, re-encoded into a fresh
    single-generation index — the ``RdbMerge`` / ``posdbMerge_r`` path
    (``RdbList.cpp:2186-2400``), no re-tokenization."""
    import ray
    import ray.data

    from .build import load_meta

    base_meta = load_meta(out_dir)
    cfg = IndexConfig(**{**base_meta["config"],
                         "field_weights":
                         tuple(base_meta["config"]["field_weights"])})
    gens = read_generations(out_dir)
    tomb = read_tombstones(out_dir)
    gen_list = sorted(gens["generations"], key=lambda g: g["gen"])
    gen_dirs = [(g["gen"], gen_dir(out_dir, g["gen"])) for g in gen_list]
    gen_infos = []
    hot_union: set[int] = set()
    for gen, d in gen_dirs:
        m = load_meta(d)
        gen_infos.append((gen, d, sorted(m["hot_terms"]),
                          m["num_partitions"], m["num_salts"]))
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

    # live doc stats + doc store carry.  Small maintenance working sets
    # (total table bytes ≤ LIVE_CARRY_DRIVER_MAX_BYTES) run in-process —
    # the five Ray jobs (2× conflict-winners, 2× filtered write, 1×
    # aggregate) are pure fixed cost at that size and were the dominant
    # term of the compaction wall time.  Above the threshold the carry
    # is the original STREAMING pipeline (newest-gen-wins + tombstones
    # applied map-side, partitioned write_parquet), with the
    # conflict-winner shuffle paid ONCE and shared by both writes.
    stats_dir = os.path.join(new_dir, "docstats")
    store_dir = os.path.join(new_dir, "docstore")
    os.makedirs(stats_dir, exist_ok=True)
    os.makedirs(store_dir, exist_ok=True)
    carry_bytes = (_table_bytes(out_dir, gen_list, "docstats")
                   + _table_bytes(out_dir, gen_list, "docstore"))
    if carry_bytes <= LIVE_CARRY_DRIVER_MAX_BYTES:
        cdoc, cwin = _conflict_winners_driver(out_dir, gen_list)
        tdoc, tdead = tomb
        stats_tbl = _live_table_driver(out_dir, gen_list, "docstats",
                                       cdoc, cwin, tdoc, tdead)
        pq.write_table(stats_tbl,
                       os.path.join(stats_dir, "part-00000.parquet"))
        n_docs = stats_tbl.num_rows
        total_dlq = int(stats_tbl["dl_q"].to_numpy().sum()) if n_docs else 0
        store_tbl = _live_table_driver(out_dir, gen_list, "docstore",
                                       cdoc, cwin, tdoc, tdead)
        pq.write_table(store_tbl,
                       os.path.join(store_dir, "part-00000.parquet"))
    else:
        from ray.data.aggregate import Count, Sum

        cdoc, cwin = _conflict_winners(out_dir, gen_list)
        pre = (cdoc, cwin, tomb[0], tomb[1])
        live_docs_ds(out_dir, "docstats",
                     _precomputed=pre).write_parquet(stats_dir)
        stats_files = [f for f in os.listdir(stats_dir)
                       if f.endswith(".parquet")]
        if stats_files:
            agg = (ray.data.read_parquet(stats_dir, columns=["dl_q"])
                   .aggregate(Sum("dl_q", alias_name="t"),
                              Count(alias_name="n")))
        else:
            agg = None   # all docs tombstoned: write_parquet left no files
        n_docs = int(agg["n"] or 0) if agg else 0
        total_dlq = int(agg["t"] or 0) if agg else 0
        live_docs_ds(out_dir, "docstore",
                     _precomputed=pre).write_parquet(store_dir)
    avgdl = float(np.float64(total_dlq) / 4.0 / np.float64(max(1, n_docs)))

    p, s = cfg.num_partitions, cfg.num_salts
    n_normal = p * s if cfg.salt_all_terms else p
    norm_task = ray.remote(num_cpus=1)(_merge_normal_shard)
    futs = [norm_task.remote(gen_dirs, sh, union_hot, tomb, cfg, avgdl,
                             new_dir, fingerprint) for sh in range(n_normal)]
    hot_items = list(enumerate(int(t) for t in union_hot))
    hot_task = ray.remote(num_cpus=1)(_merge_hot_terms)
    chunk = max(1, len(hot_items) // 32) if hot_items else 1
    futs += [hot_task.remote(gen_infos, hot_items[i:i + chunk], union_hot,
                             tomb, cfg, avgdl, new_dir, fingerprint, p, s)
             for i in range(0, len(hot_items), chunk)]
    results = ray.get(futs)

    n_terms = n_postings = 0
    for r in results:
        for item in (r if isinstance(r, list) else [r]):
            n_terms += item.get("n_terms", 0)
            n_postings += item.get("n_postings", 0)
    meta = dict(base_meta)
    meta.update({
        "fingerprint": fingerprint,
        "n_docs": n_docs, "total_dlq": total_dlq, "avgdl": avgdl,
        "hot_terms": [int(t) for t in union_hot],
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
