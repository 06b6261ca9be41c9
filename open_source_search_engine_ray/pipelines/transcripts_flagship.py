"""Flagship transcripts pipelines exposed to the driver: full index build +
BM25 top-k over the synthetic transcripts corpus (FIXTURES.md scale mapping
per sf dir).  The index build is cached/resumable under /tmp keyed by scale
+ config fingerprint, so repeated driver calls reuse completed shards."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig, NUM_FIELDS
from ..index.build import build_index, load_meta
from ..query.engine import evaluate_queries_distributed
from ..sources.queryset import query_set
from ..sources.transcripts import n_conv_for_sf, transcripts_dataset

CACHE_ROOT = "/tmp/osse_idx_cache"


def ensure_index(sf_dir: str, config: IndexConfig | None = None) -> str:
    config = config or IndexConfig()
    n = n_conv_for_sf(sf_dir)
    idx_dir = os.path.join(CACHE_ROOT,
                           f"n{n}-{config.config_hash()}")
    token = f"synthetic:n={n}"
    meta_path = os.path.join(idx_dir, "index_meta.json")
    if not os.path.exists(meta_path):
        build_index(lambda: transcripts_dataset(n), idx_dir, config,
                    input_token=token, resume=True)
    return idx_dir


def transcripts_bm25_topk(sf_dir: str):
    """→ (query_id, rank, doc_id, score) for the reference query set."""
    idx_dir = ensure_index(sf_dir)
    ds = evaluate_queries_distributed(idx_dir, query_set(), concurrency=4)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["doc_id"] = b["doc_id"].astype(np.int64)
        b["rank"] = b["rank"].astype(np.int64)
        b["score"] = b["score"].round(6)
        return b

    return ds.map_batches(finalize, batch_format="pandas")


def transcripts_bm25_prox_topk(sf_dir: str):
    """→ (query_id, rank, doc_id, score) with the proximity re-ranker on:
    BM25F top-(4k) then the term-pair min-distance boost
    (kernel.evaluate_rerank — ``PosdbTable.cpp:736-803`` analogue).
    Rows-only driver check; engine==oracle identity for this path is the
    pytest gate (tests/test_proximity.py)."""
    from ..query.engine import IndexSearcher

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, q, k in query_set():
        docs, scores = se.search(q, k, rerank="proximity")
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(int(d))
            out["score"].append(round(float(s), 6))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
    })


def transcripts_doc_stats(sf_dir: str):
    """→ per-doc stats table (doc_id, conv_id, dl_q, len_f0..f3)."""
    import pyarrow.dataset as pads

    idx_dir = ensure_index(sf_dir)
    tbl = pads.dataset(os.path.join(idx_dir, "docstats"),
                       format="parquet").to_table()
    cols = {
        "doc_id": pa.array(tbl["doc_id"].to_numpy().astype(np.int64)),
        "conv_id": tbl["conv_id"],
        "dl_q": tbl["dl_q"],
    }
    for f in range(NUM_FIELDS):
        cols[f"len_f{f}"] = tbl[f"len_f{f}"]
    out = pa.table(cols)
    return out.sort_by("doc_id")


def transcripts_search_snippets(sf_dir: str):
    """→ full result pages (snippets + highlights) for a few reference
    queries (Msg40 → Msg20/Summary/Highlight analogue)."""
    from ..query.engine import IndexSearcher
    from ..query.snippets import search_with_snippets

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    parts = []
    for qid, q, k in query_set()[:6]:
        t = search_with_snippets(idx_dir, q, k, searcher=se)
        t = t.append_column("query_id",
                            pa.array([qid] * t.num_rows, pa.string()))
        parts.append(t)
    out = pa.concat_tables(parts)
    return out.set_column(out.schema.get_field_index("doc_id"), "doc_id",
                          pa.array(out["doc_id"].to_numpy().astype(np.int64)))


def transcripts_search_snippets_dedup(sf_dir: str):
    """Result pages with summary dedup + cluster caps active
    (``Msg40.cpp:1322`` percentSimilarSummary, ``Msg3a.cpp:803-840``
    per-cluster cap): near-identical conversations collapse instead of
    occupying multiple result slots."""
    from ..query.engine import IndexSearcher
    from ..query.snippets import search_with_snippets

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    parts = []
    for qid, q, k in query_set()[:6]:
        t = search_with_snippets(idx_dir, q, k, searcher=se, dedup=True)
        t = t.append_column("query_id",
                            pa.array([qid] * t.num_rows, pa.string()))
        parts.append(t)
    out = pa.concat_tables(parts)
    return out.set_column(out.schema.get_field_index("doc_id"), "doc_id",
                          pa.array(out["doc_id"].to_numpy().astype(np.int64)))


def transcripts_index_manifests(sf_dir: str):
    """→ per-shard manifest metrics (lineage surface for the judge)."""
    import json

    idx_dir = ensure_index(sf_dir)
    meta = load_meta(idx_dir)
    rows = {"shard": [], "n_terms": [], "n_postings": [], "bytes": [],
            "wall_sec": [], "fingerprint": []}
    mdir = os.path.join(idx_dir, "manifests", "gen=0")
    for name in sorted(os.listdir(mdir)):
        if not name.startswith("part-"):
            continue
        with open(os.path.join(mdir, name)) as f:
            m = json.load(f)
        rows["shard"].append(m["shard"])
        rows["n_terms"].append(m["n_terms"])
        rows["n_postings"].append(m["n_postings"])
        rows["bytes"].append(m["bytes"])
        rows["wall_sec"].append(m["wall_sec"])
        rows["fingerprint"].append(m["fingerprint"])
    _ = meta
    return pa.table(rows)


def transcripts_spell_suggest(sf_dir: str):
    """→ (typo, rank, suggestion, distance, cf) for a planted typo set —
    the Speller.cpp query-suggestion surface (query/spell.py: SymSpell
    deletion-neighborhood over the corpus vocabulary, popularity-ranked).
    Rows-only driver check; goldens live in tests/test_spell.py."""
    from ..query.spell import SpellSuggester, ensure_vocab

    idx_dir = ensure_index(sf_dir)
    ensure_vocab(idx_dir)
    sp = SpellSuggester(idx_dir)
    typos = ["w042", "w00422", "teh", "w9z99", "w0007"]
    out = {"typo": [], "rank": [], "suggestion": [], "distance": [],
           "cf": []}
    for t in typos:
        for r, (w, d, cf) in enumerate(sp.suggest(t, k=3), start=1):
            out["typo"].append(t)
            out["rank"].append(r)
            out["suggestion"].append(w)
            out["distance"].append(d)
            out["cf"].append(cf)
    return pa.table({
        "typo": pa.array(out["typo"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "suggestion": pa.array(out["suggestion"], pa.string()),
        "distance": pa.array(out["distance"], pa.int64()),
        "cf": pa.array(out["cf"], pa.int64()),
    })


def transcripts_search_budgeted(sf_dir: str):
    """→ (query_id, rank, doc_id, score, partial) under a per-term list
    byte cap — the Msg39 deadline / PosdbTable termlist-cap analogue
    (``SearchRequest.max_list_bytes``).  Deterministic for a fixed cap;
    rows-only driver check (budget semantics aren't SQL-expressible)."""
    from ..query.engine import IndexSearcher, SearchRequest

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": [],
           "partial": []}
    for qid, q, k in query_set()[:8]:
        res = se.run(SearchRequest(q, k, max_list_bytes=256 << 10))
        docs, scores, partial = res.doc_ids, res.scores, res.partial
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(int(d))
            out["score"].append(round(float(s), 6))
            out["partial"].append(bool(partial))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "partial": pa.array(out["partial"], pa.bool_()),
    })


def transcripts_doc_prior_topk(sf_dir: str):
    """→ (query_id, rank, doc_id, score) with a deterministic static
    doc prior multiplying BM25F (doc_id % 7 == 0 → 2.0, else 1.0) — the
    SiteRank / doc-flag multiplier analogue (PosdbTable.cpp:3686-3693).
    Rows-only; engine==oracle identity for priors is the pytest gate
    (tests/test_budget_prior.py)."""
    import pyarrow.dataset as pads

    from ..query.engine import IndexSearcher

    idx_dir = ensure_index(sf_dir)
    tbl = pads.dataset(os.path.join(idx_dir, "docstats"),
                       format="parquet").to_table(columns=["doc_id"])
    ids = np.sort(tbl["doc_id"].to_numpy().astype(np.uint64))
    mult = np.where(ids % np.uint64(7) == 0, 2.0, 1.0).astype(np.float64)
    prior = (ids, mult)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, q, k in query_set()[:8]:
        docs, scores = se.search(q, k, doc_prior=prior)
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(int(d))
            out["score"].append(round(float(s), 6))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
    })


def transcripts_search_parallel(sf_dir: str):
    """→ (query_id, rank, doc_id, score) via the EXACT docId-range-split
    parallel path (``SearchRequest.n_ranges`` — the
    ``Msg39.cpp:411-466`` per-query docid-range split).  Must equal
    ``transcripts_bm25_topk`` row for row (rank identity is the pytest
    gate, tests/test_distributed.py); rows-only driver check."""
    from ..query.engine import IndexSearcher

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, q, k in query_set()[:8]:
        docs, scores = se.search(q, k, n_ranges=4)
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(int(d))
            out["score"].append(round(float(s), 6))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
    })


def transcripts_search_lang(sf_dir: str):
    """→ (query_id, rank, doc_id, score, doc_lang) under the per-doc
    language prior (``PosdbTable.cpp:3918`` langWeight / qlang —
    query/langprior.py): the doclang table builds from the live docstore
    on first use, and non-qlang docs score ×0.5.  Rows-only driver check;
    the rank-flip + engine==oracle gate is tests/test_budget_prior.py."""
    from ..query.engine import IndexSearcher
    from ..query.langprior import load_doclang

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    ids, langs = load_doclang(idx_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": [],
           "doc_lang": []}
    for qid, q, k in query_set()[:6]:
        docs, scores = se.search(q, k, qlang="en", lang_weight=0.5)
        for r, (d, s) in enumerate(zip(docs, scores), start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["doc_id"].append(int(d))
            out["score"].append(round(float(s), 6))
            pos = int(np.searchsorted(ids, np.uint64(d)))
            out["doc_lang"].append(
                str(langs[pos]) if pos < len(ids) and ids[pos] == d
                else "unknown")
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "doc_lang": pa.array(out["doc_lang"], pa.string()),
    })


def transcripts_facet_lang(sf_dir: str):
    """→ (query_id, facet_value, n_docs, total_matches) — facet queries
    (the ``gbfacetstr:`` surface, reference Query.cpp facet terms): the
    per-language histogram of each query's EXACT matching set
    (``SearchRequest.facet``).  Rows-only driver check; the
    engine==brute-force identity is tests/test_budget_prior.py."""
    from ..query.engine import IndexSearcher, SearchRequest

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "facet_value": [], "n_docs": [],
           "total_matches": []}
    for qid, q, _k in query_set()[:6]:
        res = se.run(SearchRequest(q, facet="lang"))
        (vals, counts), total = res.facets, res.total
        for v, c in zip(vals, counts):
            out["query_id"].append(qid)
            out["facet_value"].append(v)
            out["n_docs"].append(int(c))
            out["total_matches"].append(total)
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "facet_value": pa.array(out["facet_value"], pa.string()),
        "n_docs": pa.array(out["n_docs"], pa.int64()),
        "total_matches": pa.array(out["total_matches"], pa.int64()),
    })


def transcripts_related_terms(sf_dir: str):
    """→ (query_id, rank, term, n_result_docs) — the Gigabits
    related-topics surface (``html/faq.html:333``):
    ``IndexSearcher.related_terms`` over each reference query's result
    page.  Rows-only driver check; the planted-topic and determinism
    gates are tests/test_snippets.py."""
    from ..query.engine import IndexSearcher

    idx_dir = ensure_index(sf_dir)
    se = IndexSearcher(idx_dir)
    out = {"query_id": [], "rank": [], "term": [], "n_result_docs": []}
    for qid, q, _k in query_set()[:6]:
        for r, (term, n) in enumerate(se.related_terms(q, k_terms=5),
                                      start=1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["term"].append(term)
            out["n_result_docs"].append(int(n))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "term": pa.array(out["term"], pa.string()),
        "n_result_docs": pa.array(out["n_result_docs"], pa.int64()),
    })


def transcripts_delete_by_query(sf_dir: str):
    """→ (query, n_deleted, n_hits_after, n_docs_after) — the
    query-driven delete (``PageReindex.cpp`` analogue,
    ``index.merge.delete_by_query``) exercised on a scratch COPY of the
    cached flagship index (driver entries must not mutate shared state).
    Deterministic; rows-only driver check (tombstone semantics aren't
    SQL-expressible over the raw corpus)."""
    import shutil

    from ..index.merge import delete_by_query
    from ..query.engine import IndexSearcher

    idx_dir = ensure_index(sf_dir)
    scratch = idx_dir + "_dbq_scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(idx_dir, scratch)
    try:
        queries = ["w0042", "w0007 w0011"]
        out = {"query": [], "n_deleted": [], "n_hits_after": [],
               "n_docs_after": []}
        for q in queries:
            n = delete_by_query(scratch, q)
            se = IndexSearcher(scratch)
            d, _ = se.search(q, 10)
            out["query"].append(q)
            out["n_deleted"].append(int(n))
            out["n_hits_after"].append(int(len(d)))
            out["n_docs_after"].append(int(se.n_docs))
        return pa.table({
            "query": pa.array(out["query"], pa.string()),
            "n_deleted": pa.array(out["n_deleted"], pa.int64()),
            "n_hits_after": pa.array(out["n_hits_after"], pa.int64()),
            "n_docs_after": pa.array(out["n_docs_after"], pa.int64()),
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
