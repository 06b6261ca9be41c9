"""Document-table search pipelines with ANSI-SQL-replicable semantics.

These run the engine's scoring over the ``documents`` table using the
*simplified* tokenizer (``tokenize_simple``: lowercase ``[a-z0-9]+`` —
exactly replicable as ``regexp_split_to_array`` in the DuckDB oracle), so
the driver's side-by-side correctness gate can hash-compare results.  The
full Gigablast-rule tokenizer is covered by unit goldens and the pytest
oracle instead (its comma/apostrophe/script rules are not ANSI-SQL).

``bm25_topk_docs`` is query-time scoring without a prebuilt index — the
analogue of the reference's query-driven reindex scans (``DocReindex.cpp``,
``PageReindex.cpp``): tokenize → filter to query terms at the map side →
tiny df aggregate → second streaming pass accumulating per-(query, doc)
contributions → per-query top-k.  Scoring matches functions/bm25.py's
formula with scalar tf/dl (single field).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenizer import tokenize_simple

K1 = 1.2
B = 0.75

# fixed reference query set over the documents vocabulary
DOC_QUERIES: list[tuple[str, str]] = [
    ("dq01", "spark window"),
    ("dq02", "hash join"),
    ("dq03", "merge sort batch"),
    ("dq04", "customer query"),
    ("dq05", "stream"),
    ("dq06", "big table scan"),
    ("dq07", "group agg filter"),
    ("dq08", "slow"),
]
TOP_K = 10


def _read_docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])


def _term_tf_batch(batch: pa.Table, terms: set[str]) -> pa.Table:
    """Per-doc tf for the query terms, each row carrying the doc's token
    count (dl) — dl rides the tf rows from the SAME tokenize pass, so
    scoring needs no per-doc side table (the corpus-sized dl broadcast
    this pipeline used to build on the driver)."""
    doc_ids = batch["doc_id"].to_numpy()
    out_doc, out_term, out_tf, out_dl = [], [], [], []
    for d, text in zip(doc_ids, batch["text"].to_pylist()):
        toks = tokenize_simple(text or "")
        counts: dict[str, int] = {}
        for t in toks:
            if t in terms:
                counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            out_doc.append(int(d))
            out_term.append(t)
            out_tf.append(c)
            out_dl.append(len(toks))
    return pa.table({
        "doc_id": pa.array(out_doc, pa.int64()),
        "term": pa.array(out_term, pa.string()),
        "tf": pa.array(out_tf, pa.int64()),
        "dl": pa.array(out_dl, pa.int64()),
    })


def _doc_len_batch(batch: pa.Table) -> pa.Table:
    """Per-doc token count via the Arrow RE2 kernel.  For ASCII text the
    number of ``tokenize_simple`` tokens equals the number of
    ``[a-zA-Z0-9]+`` runs (ASCII lowercasing never splits or joins an
    alnum run), so the whole-column count replaces the per-row Python
    tokenize (~20× on this stage).  Non-ASCII rows fall back to
    ``tokenize_simple`` itself: Python's full case mapping can split a
    run (``'İ'.lower()`` → ``'i\\u0307'``) where Arrow's simple mapping
    does not, and dl must match the tf pass and the SQL oracle exactly."""
    import pyarrow.compute as pc

    text = pc.fill_null(batch["text"], "")
    dl = pc.count_substring_regex(text, "[a-zA-Z0-9]+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    non_ascii = np.nonzero(
        ~pc.string_is_ascii(text).to_numpy(zero_copy_only=False))[0]
    if len(non_ascii):
        rows = text.take(pa.array(non_ascii)).to_pylist()
        for i, t in zip(non_ascii, rows):
            dl[i] = len(tokenize_simple(t))
    return pa.table({
        "doc_id": pa.array(batch["doc_id"].to_numpy().astype(np.int64)),
        "dl": pa.array(dl, pa.int64()),
    })


def bm25_topk_docs(sf_dir: str):
    """→ (query_id, rank, doc_id, score) — disjunctive (OR) BM25 top-10."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    terms = {t for _, q in DOC_QUERIES for t in tokenize_simple(q)}

    # pass 1: N + avgdl as SCALAR exact-int aggregates — nothing
    # per-doc ever reaches the driver or is broadcast
    stats = (_read_docs(sf_dir)
             .map_batches(_doc_len_batch, batch_format="pyarrow")
             .aggregate(Sum("dl", alias_name="t"), Count(alias_name="n")))
    n_docs = int(stats["n"])
    avgdl = float(np.float64(int(stats["t"])) / np.float64(n_docs))

    # pass 2: per-(doc, term) tf for query terms only (map-side pruning),
    # each row carrying its doc's dl from the same tokenize pass
    tfs = _read_docs(sf_dir).map_batches(
        lambda b: _term_tf_batch(b, terms), batch_format="pyarrow")
    # df per term (tiny aggregate)
    df_tbl = tfs.groupby("term").aggregate(Count(alias_name="df")).to_pandas()
    df_map = dict(zip(df_tbl["term"], df_tbl["df"].astype(int)))

    idf = {t: float(np.log1p((n_docs - df_map.get(t, 0) + 0.5) /
                             (df_map.get(t, 0) + 0.5))) for t in terms}

    def score_batch(batch: pa.Table) -> pa.Table:
        doc = batch["doc_id"].to_numpy()
        tf = batch["tf"].to_numpy().astype(np.float64)
        term = batch["term"].to_pylist()
        dl = batch["dl"].to_numpy().astype(np.float64)
        denom = tf + K1 * (1.0 - B + B * dl / avgdl)
        base = tf * (K1 + 1.0) / denom
        out = {"query_id": [], "doc_id": [], "contrib": []}
        for qid, q in DOC_QUERIES:
            qterms = set(tokenize_simple(q))
            sel = np.fromiter((t in qterms for t in term), dtype=bool,
                              count=len(term))
            if not sel.any():
                continue
            iv = np.asarray([idf[t] for t, s in zip(term, sel) if s])
            out["query_id"].extend([qid] * int(sel.sum()))
            out["doc_id"].extend(doc[sel].tolist())
            out["contrib"].extend((iv * base[sel]).tolist())
        return pa.table({"query_id": pa.array(out["query_id"], pa.string()),
                         "doc_id": pa.array(out["doc_id"], pa.int64()),
                         "contrib": pa.array(out["contrib"], pa.float64())})

    scored = tfs.map_batches(score_batch, batch_format="pyarrow")
    agg = scored.groupby(["query_id", "doc_id"]).aggregate(
        Sum("contrib", alias_name="score"))

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["score"] = g["score"].round(6)
        return g[["query_id", "rank", "doc_id", "score"]]

    return agg.groupby("query_id").map_groups(topk, batch_format="pandas")


def bm25_topk_docs_sql() -> str:
    queries_values = ", ".join(
        f"('{qid}', '{q}')" for qid, q in DOC_QUERIES)
    return f"""
WITH queries(query_id, query) AS (VALUES {queries_values}),
qterms AS (
  SELECT DISTINCT query_id, t.term
  FROM queries, UNNEST(regexp_split_to_array(lower(query), '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
),
toks AS (
  SELECT doc_id, t.term
  FROM documents, UNNEST(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT count(*) AS n_docs,
                 sum(dl)::DOUBLE / count(*) AS avgdl FROM dl),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN (SELECT DISTINCT term FROM qterms)
  GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) *
         tf.tf * ({K1} + 1) /
         (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf
  JOIN qterms q USING (term)
  JOIN df USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN stats s
),
scored AS (
  SELECT query_id, doc_id, sum(c) AS score
  FROM contrib GROUP BY query_id, doc_id
)
SELECT query_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY score DESC, doc_id ASC) AS rank,
       doc_id, round(score, 6) AS score
FROM scored
QUALIFY rank <= {TOP_K}
ORDER BY query_id, rank
"""


FACET_BUCKET = 16           # doc-length facet bucket width (tokens)


def doc_facet_dl(sf_dir: str):
    """→ (bucket, n_docs) — facet query over the documents corpus (the
    ``gbfacetint:`` analogue, reference Query.cpp facet terms): every
    document matching the first reference query (OR semantics) is
    bucketed by its token count (``dl // FACET_BUCKET``) and counted —
    the histogram covers the EXACT matching set, not a top-k page.
    Fully SQL-replicable (same tokenizer contract as bm25_topk_docs)."""
    import ray.data
    from ray.data.aggregate import Count

    terms = set(tokenize_simple(DOC_QUERIES[0][1]))

    def match(b: pa.Table) -> pa.Table:
        buckets = []
        for t in b["text"].to_pylist():
            toks = tokenize_simple(t or "")
            if terms.intersection(toks):
                buckets.append(len(toks) // FACET_BUCKET)
        return pa.table({"bucket": pa.array(buckets, pa.int64())})

    return (_read_docs(sf_dir)
            .map_batches(match, batch_format="pyarrow")
            .groupby("bucket").aggregate(Count(alias_name="n_docs"))
            .sort("bucket"))


def doc_facet_dl_sql() -> str:
    terms = sorted(set(tokenize_simple(DOC_QUERIES[0][1])))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, t.term
  FROM documents,
       UNNEST(regexp_split_to_array(lower(coalesce(text, '')),
                                    '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({in_list}))
SELECT (dl.dl // {FACET_BUCKET})::BIGINT AS bucket,
       count(*)::BIGINT AS n_docs
FROM m JOIN dl USING (doc_id)
GROUP BY 1 ORDER BY 1
"""


SORTBY_MIN_DL = 8            # gbmin analogue: range filter bounds
SORTBY_MAX_DL = 160          # gbmax analogue
SORTBY_K = 20


def doc_sortby_dl(sf_dir: str):
    """→ (rank, doc_id, dl) — sort-by-field query over the documents
    corpus (the ``gbsortby:``/``gbmin:``/``gbmax:`` analogue, reference
    Query.cpp:1700-1720): documents matching the second reference query
    (OR semantics) with token count in [SORTBY_MIN_DL, SORTBY_MAX_DL],
    top-SORTBY_K by (dl desc, doc_id asc) — attribute order, not
    relevance.  Fully SQL-replicable."""
    terms = set(tokenize_simple(DOC_QUERIES[1][1]))

    def match(b: pa.Table) -> pa.Table:
        ids, dls = [], []
        for d, t in zip(b["doc_id"].to_numpy(), b["text"].to_pylist()):
            toks = tokenize_simple(t or "")
            n = len(toks)
            if SORTBY_MIN_DL <= n <= SORTBY_MAX_DL and \
                    terms.intersection(toks):
                ids.append(int(d))
                dls.append(n)
        ids = np.asarray(ids, dtype=np.int64)
        dls = np.asarray(dls, dtype=np.int64)
        # the batch's own top-K: (dl desc, doc_id asc) is a total order,
        # so the global top-K is among the batches' top-Ks and the driver
        # collects at most K rows per batch
        top = np.lexsort((ids, -dls))[:SORTBY_K]
        return pa.table({"doc_id": ids[top], "dl": dls[top]})

    def topk(df):
        df = df.sort_values(["dl", "doc_id"],
                            ascending=[False, True]).head(SORTBY_K)
        df = df.reset_index(drop=True)
        df.insert(0, "rank", np.arange(1, len(df) + 1, dtype=np.int64))
        return df

    ds = _read_docs(sf_dir).map_batches(match, batch_format="pyarrow")
    df = ds.to_pandas()
    if "doc_id" not in df.columns:
        df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                           "dl": pd.Series([], dtype="int64")})
    return topk(df)


def doc_sortby_dl_sql() -> str:
    terms = sorted(set(tokenize_simple(DOC_QUERIES[1][1])))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, t.term
  FROM documents,
       UNNEST(regexp_split_to_array(lower(coalesce(text, '')),
                                    '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({in_list}))
SELECT row_number() OVER (ORDER BY dl.dl DESC, m.doc_id ASC)
           ::BIGINT AS rank,
       m.doc_id, dl.dl::BIGINT AS dl
FROM m JOIN dl USING (doc_id)
WHERE dl.dl BETWEEN {SORTBY_MIN_DL} AND {SORTBY_MAX_DL}
QUALIFY rank <= {SORTBY_K}
ORDER BY rank
"""


def doc_term_df(sf_dir: str):
    """→ (term, df) document frequency of every simple-token term."""
    import ray.data
    from ray.data.aggregate import Count

    def distinct_terms(batch: pa.Table) -> pa.Table:
        out = []
        for text in batch["text"].to_pylist():
            out.extend(set(tokenize_simple(text or "")))
        return pa.table({"term": pa.array(out, pa.string())})

    ds = _read_docs(sf_dir).map_batches(distinct_terms,
                                        batch_format="pyarrow")
    return ds.groupby("term").aggregate(Count(alias_name="df"))


def doc_term_df_sql() -> str:
    return """
SELECT term, count(*) AS df FROM (
  SELECT DISTINCT doc_id, t.term
  FROM documents, UNNEST(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
) GROUP BY term ORDER BY term
"""
