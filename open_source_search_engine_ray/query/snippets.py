"""Result assembly: titles, snippets and term highlighting for top-k hits.

The reference fetches each result's stored document and generates a
summary around query-term matches (``Msg40::launchMsg20s``
``Msg40.cpp:507-534`` → ``Msg20`` → ``Summary::setSummary``
``Summary.cpp:181``, ``Highlight.cpp``, match windows ``Matches.cpp:248``).
Here: the top-k docIds are a broadcast-small side joined against the
doc-store Parquet (point lookups by doc_id), the best-matching turn is the
summary window, and matched tokens get ``<b>`` markers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..functions.ghash import TERMID_MASK, hash_tokens_lower
from ..functions.tokenizer import tokenize
from .engine import IndexSearcher, SearchRequest
from .parse import parse_query


def _docstore_rows(index_dir: str, doc_ids: list[int]) -> pa.Table:
    from ..index.merge import gen_dir, read_generations

    gens = read_generations(index_dir)
    import os

    tables = []
    want = pa.array(np.asarray(doc_ids, dtype=np.uint64))
    for g in gens["generations"]:
        store = os.path.join(gen_dir(index_dir, g["gen"]), "docstore")
        ds = pads.dataset(store, format="parquet")
        t = ds.to_table(filter=pads.field("doc_id").isin(want))
        if t.num_rows:
            tables.append(t.append_column(
                "gen", pa.array([g["gen"]] * t.num_rows, pa.int32())))
    if not tables:
        return None
    t = pa.concat_tables(tables).to_pandas()
    # newest generation wins per doc (update semantics)
    newest = t.groupby("doc_id")["gen"].transform("max")
    t = t[t["gen"] == newest].drop(columns=["gen"])
    return pa.Table.from_pandas(t, preserve_index=False)


def _best_turn_snippet(turns: list[tuple[int, str, str]],
                       query_terms: set[int],
                       max_len: int = 240) -> tuple[str, str, int]:
    """Pick the turn with the most query-term matches (Summary window
    analogue) and highlight matches.  → (snippet, role, turn_idx)."""
    best = (-1, 0, "", "")  # (n_matches, -turn_idx, text, role)
    for turn_idx, role, text in turns:
        toks, _, _ = tokenize(text or "")
        if not toks:
            continue
        wids = hash_tokens_lower(toks) & TERMID_MASK
        n = int(np.isin(wids, np.asarray(list(query_terms),
                                         dtype=np.uint64)).sum())
        if n > best[0]:
            best = (n, turn_idx, text, role)
    n, turn_idx, text, role = best
    if not text:
        return "", "", -1
    # highlight: wrap matched alnum tokens (Highlight.cpp analogue)
    toks, _, _ = tokenize(text)
    wids = hash_tokens_lower(toks) & TERMID_MASK if toks else []
    matched = {t for t, w in zip(toks, wids) if int(w) in query_terms}
    out = text
    import re

    for m in sorted(matched, key=len, reverse=True):
        out = re.sub(
            rf"(?<![a-zA-Z0-9<]){re.escape(m)}(?![a-zA-Z0-9>])",
            f"<b>{m}</b>", out)
    if len(out) > max_len:
        # center the window on the first highlight
        pos = out.find("<b>")
        start = max(0, pos - max_len // 3)
        out = ("…" if start else "") + out[start:start + max_len] + "…"
    return out, role, turn_idx


def export_snippets(index_dir: str, queries: list[tuple[str, str, int]],
                    concurrency: int = 4, join_partitions: int = 16):
    """Distributed batch snippet export — the scale path for bulk result
    pages (the driver-side :func:`search_with_snippets` loop is fine for
    one query's top-10; exporting thousands of result pages needs the
    regex/highlight work inside workers):

    1. the query set evaluates through the ``QueryEvalStage`` actor pool;
    2. the (small) hit set broadcasts to the doc-store read tasks, which
       semi-filter + fan out per hitting query map-side — only HIT docs'
       turns ever shuffle (the hits side is ≤ |queries|·k rows by
       construction, the textbook broadcast side);
    3. ``groupby(query_id, doc_id).map_groups`` assembles each result's
       best-turn snippet with the per-query term sets broadcast once.

    → Dataset (query_id, rank, doc_id, conv_id, score, snippet,
    snippet_role, snippet_turn_idx), equal to the driver-side pages
    (asserted in tests).
    """
    import os

    import ray
    import ray.data

    from ..index.merge import gen_dir, read_generations
    from .engine import IndexSearcher, evaluate_queries_distributed

    se = IndexSearcher(index_dir)
    qterms = {}
    for qid, q, k in queries:
        pq_ = parse_query(q, se.config.bigram_weight,
                          position_mode=se.config.position_mode)
        qterms[qid] = {t.term_id for t in pq_.terms if not t.negative}
    qterms_ref = ray.put(qterms)

    hits_df = (evaluate_queries_distributed(index_dir, queries,
                                            concurrency=concurrency)
               .to_pandas())   # ≤ |queries|·k rows — the small side

    # broadcast semi-join: the hit set rides to every docstore read task
    # via ray.put (sorted ids for the membership test + per-doc hit
    # metadata for the fan-out), so only HIT docs' turns are shuffled —
    # Ray's Dataset.join is avoided both for its all-rows shuffle and
    # for its empty-hash-partition crash (see pipelines/dedup.py)
    hit_ids = np.sort(hits_df["doc_id"].to_numpy().astype(np.int64))
    by_doc: dict[int, list] = {}
    for row in hits_df.itertuples(index=False):
        by_doc.setdefault(int(row.doc_id), []).append(
            (str(row.query_id), int(row.rank), float(row.score)))
    hits_ref = ray.put((np.unique(hit_ids), by_doc))

    _fan_schema = pa.schema([
        ("query_id", pa.string()), ("rank", pa.int32()),
        ("doc_id", pa.int64()), ("score", pa.float64()),
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("role", pa.string()), ("text", pa.string()),
        ("gen", pa.int32())])

    gens = read_generations(index_dir)
    parts = []
    for g in gens["generations"]:
        d = os.path.join(gen_dir(index_dir, g["gen"]), "docstore")
        gen_no = int(g["gen"])

        def fan(b: pa.Table, _g=gen_no) -> pa.Table:
            from .kernel import in_sorted

            ids_sorted, meta = ray.get(hits_ref)
            doc = b["doc_id"].to_numpy().astype(np.int64)
            keep = np.flatnonzero(in_sorted(doc, ids_sorted))
            if len(keep) == 0:
                return _fan_schema.empty_table()
            kept = b.take(pa.array(keep))
            kdoc = doc[keep]
            out = {c: [] for c in ("query_id", "rank", "score")}
            rep = []
            for i, d_ in enumerate(kdoc):
                for qid, rank, score in meta[int(d_)]:
                    rep.append(i)
                    out["query_id"].append(qid)
                    out["rank"].append(rank)
                    out["score"].append(score)
            rep_t = kept.take(pa.array(np.asarray(rep, np.int64)))
            return pa.table({
                "query_id": pa.array(out["query_id"], pa.string()),
                "rank": pa.array(out["rank"], pa.int32()),
                "doc_id": pa.array(kdoc[rep].astype(np.int64)),
                "score": pa.array(out["score"], pa.float64()),
                "conv_id": rep_t["conv_id"],
                "turn_idx": pc.cast(rep_t["turn_idx"], pa.int32()),
                "role": rep_t["role"],
                "text": rep_t["text"],
                "gen": pa.array(np.full(len(rep), _g, np.int32)),
            }).cast(_fan_schema)

        parts.append(ray.data.read_parquet(
            d, columns=["doc_id", "conv_id", "turn_idx", "role", "text"])
            .map_batches(fan, batch_format="pyarrow"))
    joined = parts[0]
    for p in parts[1:]:
        joined = joined.union(p)

    def build_page_row(g: pa.Table) -> pa.Table:
        qt = ray.get(qterms_ref)
        qid = g["query_id"][0].as_py()
        terms = qt.get(qid, set())
        gen_col = g["gen"].to_numpy()
        newest = gen_col == gen_col.max()   # update semantics: newest wins
        turns = sorted(zip(np.asarray(g["turn_idx"].to_pylist())[newest],
                           np.asarray(g["role"].to_pylist())[newest],
                           np.asarray(g["text"].to_pylist())[newest]))
        snippet, role, tix = _best_turn_snippet(turns, terms)
        return pa.table({
            "query_id": pa.array([qid], pa.string()),
            "rank": pa.array([g["rank"][0].as_py()], pa.int32()),
            "doc_id": pa.array([g["doc_id"][0].as_py()], pa.int64()),
            "conv_id": pa.array([g["conv_id"][0].as_py()], pa.string()),
            "score": pa.array([g["score"][0].as_py()], pa.float64()),
            "snippet": pa.array([snippet], pa.string()),
            "snippet_role": pa.array([role], pa.string()),
            "snippet_turn_idx": pa.array([tix], pa.int32()),
        })

    return joined.groupby(["query_id", "doc_id"]).map_groups(
        build_page_row, batch_format="pyarrow")


def _summary_tokens(snippet: str) -> set:
    text = snippet.replace("<b>", "").replace("</b>", "")
    toks, _, _ = tokenize(text)
    return {t.lower() for t in toks}


def _percent_similar(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return 200.0 * len(a & b) / (len(a) + len(b))


def dedup_result_page(tbl: pa.Table, k: int, max_per_cluster: int = 2,
                      similar_pct: float = 80.0,
                      cluster_pct: float = 50.0) -> pa.Table:
    """Result-page dedup + clustering caps (``Msg40.cpp:1322``
    ``percentSimilarSummary`` + the ≤2-per-site merge cap
    ``Msg3a.cpp:803-840``, with the near-dup CLUSTER playing the role of
    the site):

    - a result whose summary is ≥ ``similar_pct`` token-similar to a
      higher-ranked kept result is dropped (duplicate);
    - kept results ≥ ``cluster_pct`` similar join that result's cluster;
      each cluster keeps at most ``max_per_cluster`` results;
    - survivors are re-ranked 1..n and truncated to ``k``.
    """
    df = tbl.to_pandas()
    sets = [_summary_tokens(s) for s in df["snippet"]]
    kept: list[int] = []
    cluster_of: dict[int, int] = {}
    csize: dict[int, int] = {}
    for i in range(len(df)):
        dup = False
        cluster = None
        for j in kept:
            pct = _percent_similar(sets[i], sets[j])
            if pct >= similar_pct:
                dup = True
                break
            if pct >= cluster_pct and cluster is None:
                cluster = cluster_of[j]
        if dup:
            continue
        if cluster is None:
            cluster = i
        if csize.get(cluster, 0) >= max_per_cluster:
            continue
        cluster_of[i] = cluster
        csize[cluster] = csize.get(cluster, 0) + 1
        kept.append(i)
        if len(kept) >= k:
            break
    out = df.iloc[kept].reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int32)
    return pa.Table.from_pandas(out, preserve_index=False).cast(tbl.schema)


def search_with_snippets(index_dir: str, query: str, k: int = 10,
                         searcher: IndexSearcher | None = None,
                         dedup: bool = False, max_per_cluster: int = 2,
                         similar_pct: float = 80.0,
                         oversample: int = 4, **options) -> pa.Table:
    """→ (rank, doc_id, conv_id, score, snippet, snippet_role,
    snippet_turn_idx): the full result page (Msg40 → PageResults
    analogue) of ``SearchRequest(query, k, **options)``.  ``dedup=True``
    collapses near-identical summaries and caps results per similarity
    cluster (see :func:`dedup_result_page`), over-fetching
    ``oversample×k`` candidates so the page refills."""
    se = searcher or IndexSearcher(index_dir)
    req = SearchRequest(query, k * oversample if dedup else k, **options)
    res = se.run(req)
    docs, scores = res.doc_ids, res.scores
    pq_ = parse_query(query, se.config.bigram_weight,
                      lang=req.qlang or req.lang,
                      position_mode=se.config.position_mode)
    qterms = {t.term_id for t in pq_.terms if not t.negative}
    empty = pa.table({
        "rank": pa.array([], pa.int32()),
        "doc_id": pa.array([], pa.uint64()),
        "conv_id": pa.array([], pa.string()),
        "score": pa.array([], pa.float64()),
        "snippet": pa.array([], pa.string()),
        "snippet_role": pa.array([], pa.string()),
        "snippet_turn_idx": pa.array([], pa.int32()),
    })
    if len(docs) == 0:
        return empty
    store = _docstore_rows(index_dir, [int(d) for d in docs])
    if store is None:
        return empty
    sdf = store.to_pandas()
    out = {k2: [] for k2 in ("rank", "doc_id", "conv_id", "score",
                             "snippet", "snippet_role", "snippet_turn_idx")}
    for rank, (d, s) in enumerate(zip(docs, scores), start=1):
        rows = sdf[sdf["doc_id"] == int(d)].sort_values("turn_idx")
        if len(rows) == 0:
            continue
        turns = list(zip(rows["turn_idx"], rows["role"], rows["text"]))
        snippet, role, tix = _best_turn_snippet(turns, qterms)
        out["rank"].append(rank)
        out["doc_id"].append(int(d))
        out["conv_id"].append(rows["conv_id"].iloc[0])
        out["score"].append(float(s))
        out["snippet"].append(snippet)
        out["snippet_role"].append(role)
        out["snippet_turn_idx"].append(tix)
    res = pa.table({
        "rank": pa.array(out["rank"], pa.int32()),
        "doc_id": pa.array(out["doc_id"], pa.uint64()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "score": pa.array(out["score"], pa.float64()),
        "snippet": pa.array(out["snippet"], pa.string()),
        "snippet_role": pa.array(out["snippet_role"], pa.string()),
        "snippet_turn_idx": pa.array(out["snippet_turn_idx"], pa.int32()),
    })
    if dedup:
        res = dedup_result_page(res, k, max_per_cluster, similar_pct)
    return res
