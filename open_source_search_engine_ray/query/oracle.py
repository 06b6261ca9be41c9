"""Single-process oracle: pure Python/numpy reference implementation of
tokenize → index → BM25F top-k over an in-memory transcripts table.

This is the rank-identity gate (SURVEY.md §5, FIXTURES.md §3-4): the
distributed engine must reproduce the oracle's top-k docIDs *and* float64
scores exactly.  The postings assembly here is an independent, simple
dict-based implementation (so index-side bugs don't cancel out); only the
scoring kernel (query/kernel.py) and tokenizer/hash modules are shared —
they ARE the contract.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, TURN_STRIDE, NUM_FIELDS, role_tool_to_field
from ..functions.ghash import doc_id_for_conv
from ..functions.tokenizer import TokenHashCache, terms_for_texts
from .kernel import TermPostings, evaluate
from .parse import parse_query


class OracleIndex:
    def __init__(self, transcripts: pa.Table, config: IndexConfig | None = None,
                 hooks=None):
        self.config = config or IndexConfig()
        cfg = self.config
        if hooks is not None:
            from ..functions.hooks import apply_hooks_batch
            transcripts = apply_hooks_batch(transcripts, hooks)
        wq = [int(round(w * 4)) for w in cfg.field_weights]

        conv = transcripts["conv_id"].to_pylist()
        turn = transcripts["turn_idx"].to_pylist()
        role = transcripts["role"].to_pylist()
        text = transcripts["text"].to_pylist()
        tool = transcripts["tool"].to_pylist()

        doc_of: dict[str, int] = {}
        for c in conv:
            if c not in doc_of:
                doc_of[c] = doc_id_for_conv(c)

        cache = TokenHashCache()
        rows, terms, pos, is_big = terms_for_texts(
            [t or "" for t in text], cache, index_bigrams=cfg.index_bigrams,
            fragment_suppress=cfg.fragment_suppress,
            position_mode=cfg.position_mode)

        # doc stats (word tokens only)
        field_lens: dict[int, list[int]] = {}
        n_words = np.zeros(len(text), dtype=np.int64)
        word_rows = rows[~is_big]
        np.add.at(n_words, word_rows, 1)
        for r in range(len(text)):
            d = doc_of[conv[r]]
            f = role_tool_to_field(role[r], tool[r])
            field_lens.setdefault(d, [0] * NUM_FIELDS)[f] += int(n_words[r])
        self.n_docs = len(field_lens)
        total_dlq = 0
        self.dl32: dict[int, np.float32] = {}
        for d, lens in field_lens.items():
            dq = sum(wq[f] * lens[f] for f in range(NUM_FIELDS))
            total_dlq += dq
            self.dl32[d] = np.float32(np.float64(dq) / 4.0)
        self.avgdl = float(np.float64(total_dlq) / 4.0 /
                           np.float64(self.n_docs))

        # postings: term → doc → [tfs per field, positions]
        post: dict[int, dict[int, list]] = {}
        for i in range(len(rows)):
            r = int(rows[i])
            d = doc_of[conv[r]]
            f = role_tool_to_field(role[r], tool[r])
            gpos = turn[r] * TURN_STRIDE + min(int(pos[i]), TURN_STRIDE - 1)
            entry = post.setdefault(int(terms[i]), {}).setdefault(
                d, [[0] * NUM_FIELDS, []])
            entry[0][f] += 1
            entry[1].append(gpos)

        self._lists: dict[int, TermPostings] = {}
        for t, docs in post.items():
            dids = np.asarray(sorted(docs), dtype=np.uint64)
            tfs = np.asarray([docs[int(d)][0] for d in dids], dtype=np.int64)
            dl = np.asarray([self.dl32[int(d)] for d in dids],
                            dtype=np.float32)
            # same deterministic cap as the engine (segments.py:encode_shard):
            # first max_positions_per_doc sorted positions per (term, doc)
            cap = cfg.max_positions_per_doc
            plists = [sorted(docs[int(d)][1])[:cap] for d in dids]
            offsets = np.concatenate(
                [[0], np.cumsum([len(p) for p in plists])]).astype(np.int64)
            flat = (np.concatenate([np.asarray(p, dtype=np.uint64)
                                    for p in plists])
                    if plists else np.zeros(0, dtype=np.uint64))
            self._lists[t] = TermPostings(dids, tfs, dl, len(dids),
                                          positions=(flat, offsets))

        self.doc_to_conv = {v: k for k, v in doc_of.items()}

    def get_postings(self, term_id: int, with_positions: bool = False):
        return self._lists.get(term_id)

    def search(self, query: str, k: int = 10,
               synonyms: dict[str, list[str]] | None = None,
               field_weights: tuple | None = None,
               lang: str = "en", rerank: str | None = None,
               oversample: int = 4,
               wiki_bigrams: frozenset | None = None,
               doc_prior=None):
        from dataclasses import replace

        if rerank == "proximity" and doc_prior is not None:
            raise ValueError(
                "doc_prior is not supported with rerank='proximity'")
        if synonyms == "default":
            from ..functions.synonyms import synonyms_table
            synonyms = synonyms_table(lang)   # expansion follows qlang
        if wiki_bigrams == "default":
            from ..functions.wiki_phrases import DEFAULT_WIKI_BIGRAMS
            wiki_bigrams = DEFAULT_WIKI_BIGRAMS
        pq = parse_query(query, self.config.bigram_weight, synonyms=synonyms,
                         lang=lang,
                         position_mode=self.config.position_mode,
                         wiki_bigrams=wiki_bigrams)
        lists = {t.term_id: self._lists.get(t.term_id) for t in pq.terms}
        cfg = self.config
        if field_weights is not None:
            cfg = replace(cfg, field_weights=tuple(field_weights))
        if rerank == "proximity":
            from .kernel import evaluate_rerank

            return evaluate_rerank(pq, lists, self.n_docs, self.avgdl,
                                   cfg, k, prune=False,
                                   oversample=oversample)
        return evaluate(pq, lists, self.n_docs, self.avgdl, cfg, k,
                        prune=False, prior=doc_prior)

    def search_page(self, query: str, k: int = 10, offset: int = 0,
                    with_total: bool = False):
        """Mirror of an ``offset``/``with_total`` request (same contract,
        exact path)."""
        from .kernel import candidate_docs

        pq = parse_query(query, self.config.bigram_weight,
                         position_mode=self.config.position_mode)
        lists = {t.term_id: self._lists.get(t.term_id) for t in pq.terms}
        docs, scores = evaluate(pq, lists, self.n_docs, self.avgdl,
                                self.config, offset + k, prune=False)
        total = int(len(candidate_docs(pq, lists))) if with_total else None
        return docs[offset:offset + k], scores[offset:offset + k], total

    def search_after(self, query: str, k: int = 10,
                     after: tuple | None = None,
                     telemetry: dict | None = None):
        """Mirror of an ``after`` cursor request (same kernel path)."""
        from .kernel import evaluate_after

        pq = parse_query(query, self.config.bigram_weight,
                         position_mode=self.config.position_mode)
        lists = {t.term_id: self._lists.get(t.term_id) for t in pq.terms}
        docs, scores = evaluate_after(pq, lists, self.n_docs, self.avgdl,
                                      self.config, k, after=after,
                                      telemetry=telemetry)
        cursor = ((float(scores[-1]), int(docs[-1]))
                  if len(docs) == k else None)
        return docs, scores, cursor

    def golden_topk(self, queries: list[tuple[str, str, int]]) -> pa.Table:
        """FIXTURES.md §3 golden_topk table."""
        out = {"query_id": [], "rank": [], "doc_id": [], "conv_id": [],
               "score": []}
        for qid, q, k in queries:
            docs, scores = self.search(q, k)
            for r, (d, s) in enumerate(zip(docs, scores), start=1):
                out["query_id"].append(qid)
                out["rank"].append(r)
                out["doc_id"].append(int(d))
                out["conv_id"].append(self.doc_to_conv.get(int(d), ""))
                out["score"].append(float(s))
        return pa.table({
            "query_id": pa.array(out["query_id"], pa.string()),
            "rank": pa.array(out["rank"], pa.int32()),
            "doc_id": pa.array(out["doc_id"], pa.uint64()),
            "conv_id": pa.array(out["conv_id"], pa.string()),
            "score": pa.array(out["score"], pa.float64()),
        })
