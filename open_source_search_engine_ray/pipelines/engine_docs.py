"""The flagship engine, SQL-verified end-to-end: build a real segment
index over the ``documents`` table (each document = a one-turn
conversation) and answer BM25 queries through the full
IndexSearcher/WAND path — with a DuckDB oracle reproducing the exact
scoring contract.

This closes the loop the transcripts pytest oracle can't: an
*independent* (SQL) implementation checks the whole distributed path —
tokenize → spill → shuffle → block segments → block-max
query engine — value-for-value.

What makes SQL replication exact:
- the documents text is lowercase ``[a-z0-9 ]`` so the Gigablast tokenizer
  and ``regexp_split_to_array`` agree token-for-token;
- bigram indexing is disabled for this index (bigram term ids are not
  SQL-expressible) and query terms avoid stopwords, so every term is
  required (AND = HAVING count = n_terms);
- per-posting doc length is float32 — the oracle casts through REAL;
  avgdl and tf are exact integers;
- results are *top-k with ties* on the rounded score (SQL ``rank()``),
  because the engine tie-breaks on its internal hashed docIds while the
  oracle only sees the original ids.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig
from ..functions.tokenizer import tokenize_simple

ENGINE_DOC_QUERIES: list[tuple[str, str]] = [
    ("eq01", "spark window"),
    ("eq02", "hash join"),
    ("eq03", "stream"),
    ("eq04", "merge sort batch"),
    ("eq05", "slow scan"),
    ("eq06", "customer"),
]
TOP_K = 10
K1 = 1.2
B = 0.75
# built indexes, one per (sf dir, config, writer)
DOCS_CACHE_ROOT = "/tmp/osse_docs_idx"


def _docs_as_transcripts(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def to_turns(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "conv_id": pa.array([f"doc-{int(d):08d}"
                                 for d in b["doc_id"].to_numpy()]),
            "turn_idx": pa.array(np.zeros(n, dtype=np.int32)),
            "role": pa.array(["user"] * n),
            "text": b["text"],
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(np.zeros(n, dtype=np.int64), pa.timestamp("us")),
        })

    return ds.map_batches(to_turns, batch_format="pyarrow")


def _ensure_docs_index(sf_dir: str) -> str:
    from ..index.build import build_index, ensure_cached_index, writer_digest

    cfg = IndexConfig(index_bigrams=False, num_partitions=8, num_salts=4)
    return ensure_cached_index(
        os.path.join(DOCS_CACHE_ROOT,
                     f"{os.path.basename(sf_dir.rstrip('/'))}-"
                     f"{cfg.config_hash()}-{writer_digest()}"),
        lambda d: build_index(lambda: _docs_as_transcripts(sf_dir), d, cfg,
                              input_token=f"docs:{sf_dir}", resume=True,
                              write_docstore=False))


def _topk_with_ties(se, q: str):
    """Top-``TOP_K``-with-ties on the rounded score via a geometric-k
    deepening search: fetch 4×TOP_K, and only when the LAST fetched
    rounded score still equals the k-th (ties may extend past the fetch)
    deepen 4× — never k = corpus size, so driver memory is O(ties), not
    O(N).  Rounding is monotone on the descending scores, so once the
    tail drops below the threshold no unfetched doc can tie."""
    k = 4 * TOP_K
    while True:
        docs, scores = se.search(q, k)
        rounded = np.round(scores, 6)
        if len(docs) < k or len(rounded) < TOP_K:
            break                       # exhausted every match
        if rounded[-1] < rounded[TOP_K - 1]:
            break                       # tie group fully fetched
        k *= 4
    if len(docs) > TOP_K:
        keep = rounded >= rounded[TOP_K - 1]
        docs, rounded = docs[keep], rounded[keep]
    return docs, rounded


def _conv_lookup(idx_dir: str, doc_ids: list[int]) -> dict:
    """docId → conv_id for a bounded hit set: predicate-pushdown ``isin``
    scan of the docstats family (the ``Msg22`` docid→titlerec point
    lookup shape — only matching row groups decode)."""
    import pyarrow.dataset as pads

    want = pa.array(np.asarray(doc_ids, dtype=np.uint64))
    t = pads.dataset(os.path.join(idx_dir, "docstats"),
                     format="parquet").to_table(
        columns=["doc_id", "conv_id"],
        filter=pads.field("doc_id").isin(want))
    return dict(zip(t["doc_id"].to_numpy().astype(np.uint64),
                    t["conv_id"].to_pylist()))


def engine_bm25_docs(sf_dir: str):
    """→ (query_id, doc_id, score): top-10-with-ties answered by the REAL
    engine (segments + block-max kernel) over the documents corpus."""
    from ..query.engine import IndexSearcher

    idx_dir = _ensure_docs_index(sf_dir)
    se = IndexSearcher(idx_dir)
    hits = {qid: _topk_with_ties(se, q) for qid, q in ENGINE_DOC_QUERIES}
    winners = sorted({int(d) for docs, _ in hits.values() for d in docs})
    conv_of = _conv_lookup(idx_dir, winners)

    out = {"query_id": [], "doc_id": [], "score": []}
    for qid, _ in ENGINE_DOC_QUERIES:
        docs, rounded = hits[qid]
        for d, s in zip(docs, rounded):
            out["query_id"].append(qid)
            out["doc_id"].append(int(conv_of[np.uint64(d)].split("-")[1]))
            out["score"].append(float(s))
    return pd.DataFrame(out)


def engine_bm25_docs_sql() -> str:
    qvals = ", ".join(f"('{qid}', '{q}')" for qid, q in ENGINE_DOC_QUERIES)
    nterms = {qid: len(set(tokenize_simple(q)))
              for qid, q in ENGINE_DOC_QUERIES}
    ncase = " ".join(f"WHEN '{qid}' THEN {n}" for qid, n in nterms.items())
    return f"""
WITH queries(query_id, query) AS (VALUES {qvals}),
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
         (tf.tf + {K1} * (1 - {B} + {B} * CAST(dl.dl AS REAL) / s.avgdl)) AS c
  FROM tf
  JOIN qterms q USING (term)
  JOIN df USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN stats s
),
scored AS (
  SELECT query_id, doc_id, sum(c) AS score, count(*) AS n_matched
  FROM contrib GROUP BY query_id, doc_id
),
conj AS (
  SELECT query_id, doc_id, round(score, 6) AS score FROM scored
  WHERE n_matched = (CASE query_id {ncase} END)
)
SELECT query_id, doc_id, score
FROM conj
QUALIFY rank() OVER (PARTITION BY query_id ORDER BY score DESC) <= {TOP_K}
ORDER BY query_id, score DESC, doc_id
"""
