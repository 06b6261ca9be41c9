"""Related-terms summary of a result set — the "Gigabits" surface
(reference ``html/faq.html:333`` "Shows popular topics of search
results (Gigabits), like a faceted search on all the possible
phrases"; generated per-query in ``Msg40``'s result post-processing).

The analogue, defined deterministically: take the top-``sample_docs``
results (the same (score desc, docId asc) order the result page
shows), fetch their live doc-store texts, tokenize with the engine
tokenizer, and rank terms by the number of DISTINCT result documents
containing them (df within the result set), excluding the query's own
terms, their expansion, and the query language's stopwords.  Ties
break (count desc, term asc) so the output is a pure function of the
corpus + query.
"""

from __future__ import annotations

from ..functions.stopwords import query_stopwords
from ..functions.tokenizer import tokenize
from .engine import SearchRequest
from .parse import parse_query
from .snippets import _docstore_rows


def related_terms(searcher, query: str,
                  k_terms: int = 10, sample_docs: int = 100,
                  lang: str = "en") -> list[tuple[str, int]]:
    """→ ``[(term, n_result_docs), ...]`` ranked (count desc, term asc).

    ``searcher`` is an ``IndexSearcher``; its ``index_dir`` locates the
    doc store, so result docIds and texts always come from ONE index."""
    docs = searcher.run(SearchRequest(query, sample_docs, lang=lang)).doc_ids
    if len(docs) == 0:
        return []
    rows = _docstore_rows(searcher.index_dir, [int(d) for d in docs])
    if rows is None:
        return []
    # exclusion set: the query's raw tokens + stopwords of its language
    pq_ = parse_query(query)
    exclude = {w.lower() for w in tokenize(query)[0]}
    exclude |= {t.token for t in pq_.terms if t.token}
    exclude |= query_stopwords(lang)

    per_doc: dict[int, set[str]] = {}
    for d, text in zip(rows["doc_id"].to_numpy(),
                       rows["text"].to_pylist()):
        words, _, _ = tokenize(text or "")
        s = per_doc.setdefault(int(d), set())
        s.update(w.lower() for w in words)
    counts: dict[str, int] = {}
    for terms in per_doc.values():
        for t in terms:
            if t not in exclude and len(t) > 1 and not t.isdigit():
                counts[t] = counts.get(t, 0) + 1
    if not counts:
        return []
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return items[:k_terms]
