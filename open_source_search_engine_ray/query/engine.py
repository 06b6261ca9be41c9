"""Query engine over a built index (single- or multi-generation).

``IndexSearcher`` is the single-process search path (segment readers +
decoded-list cache, loaded once — the page-cache / ``Msg5`` analogue).  A
multi-generation index (see index/merge.py) is a union of per-generation
segment sets: a term's postings are fetched from every generation, each
generation filtered by the tombstone set (the ``DocumentIndexChecker`` /
newest-file-wins filtering of ``Msg39.cpp:408`` / ``RdbList.cpp:2361``),
then merged docId-sorted.  df is the live posting count after filtering,
and N/avgdl come from the refreshed live stats — so scores over an
incrementally-maintained index are exactly those of a fresh build over the
live corpus (asserted in tests/test_incremental.py).

It is used three ways: driver-side single-query latency (bench p50);
inside a Ray actor pool for batch evaluation
(``queries_ds.map_batches(QueryEvalStage, concurrency=N)`` — the
``Msg39``/``Msg3a`` fan-out analogue for a term-partitioned index); and by
tests comparing against the oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig
from ..index.build import load_meta
from ..index.manifest import segment_path
from ..index.segments import SegmentReader, decode_posting_row
from .cache import MISSING, LruBytesCache, approx_nbytes
from .kernel import TermPostings, evaluate
from .parse import ParsedQuery, parse_query


def _truncate_postings(tp: TermPostings,
                       max_bytes: int) -> tuple[TermPostings, bool]:
    """Cap a decoded list to its first-N postings (docId order) whose
    array payload fits ``max_bytes`` — the per-termlist read cap of the
    reference (``PosdbTable.cpp:1975-1981``, ~30 MB key-ordered
    truncation).  Returns ``(list, truncated?)``; never mutates the
    cached object."""
    per_row = float(tp.doc_ids.itemsize + tp.dl.itemsize
                    + tp.tfs.itemsize * tp.tfs.shape[1])
    if tp.positions is not None:
        # the reference's ~30 MB cap bounds the WHOLE termlist read —
        # positions payloads (phrase/proximity terms) must count too,
        # at their average per-posting share
        flat, offs = tp.positions
        n = max(1, len(tp.doc_ids))
        per_row += offs.itemsize + (flat.size * flat.itemsize) / n
    n_keep = max(1, int(max_bytes / per_row))
    if n_keep >= len(tp.doc_ids):
        return tp, False
    positions = None
    if tp.positions is not None:
        from ..functions.ragged import ragged_select

        flat, offs = tp.positions
        positions = ragged_select(flat, offs,
                                  np.arange(n_keep, dtype=np.int64))
    # df stays the ORIGINAL term frequency: the reference caps the list
    # READ, never the corpus df — rewriting df would inflate the idf of
    # exactly the hot terms the cap truncates and let capped stopwords
    # dominate the budgeted ranking
    return TermPostings(
        doc_ids=tp.doc_ids[:n_keep], tfs=tp.tfs[:n_keep],
        dl=tp.dl[:n_keep], df=int(tp.df), positions=positions,
        block_max=None), True


# target postings per docId range of the parallel exact path — below
# this per-range size, task fixed costs beat the kernel time saved
PARALLEL_MIN_POSTINGS = 150_000

_EMPTY_U64 = np.zeros(0, np.uint64)
_EMPTY_I32 = np.zeros(0, np.int32)


def _check_attr_table(table: tuple, name: str):
    """Validate a caller ``(sorted_doc_ids, values)`` table.  The uint64
    id cast is load-bearing: int64 ids would promote the searchsorted
    against uint64 candidates to float64 and misplace 2^53+ hash
    docIds.  Values keep their dtype (facets take strings, sortby keeps
    integer ordering exact)."""
    fids, fvals = table
    fids = np.asarray(fids, dtype=np.uint64)
    fvals = np.asarray(fvals)
    if not (len(fids) == len(fvals) and np.all(fids[:-1] <= fids[1:])):
        raise ValueError(f"{name} must be (sorted ids, values) "
                         "of equal length")
    return fids, fvals


def _attr_join(fids: np.ndarray, fvals: np.ndarray, ids: np.ndarray):
    """Sorted-membership join: → ``(values aligned to ids, hit mask)``;
    ``(None, all-False)`` when the table is empty."""
    if len(fids) == 0:
        return None, np.zeros(len(ids), dtype=bool)
    pos = np.clip(np.searchsorted(fids, ids), 0, len(fids) - 1)
    hit = fids[pos] == ids
    return fvals[pos], hit


def _select_postings(tp: TermPostings,
                     sel: np.ndarray) -> TermPostings | None:
    """Postings at sorted row indices ``sel`` (fancy-index copy) — the
    restricted-list contract shared with :func:`_slice_postings`: ``df``
    stays GLOBAL (idf unchanged), ``block_max`` dropped (bounds belong
    to the full list), empty → ``None`` (absent-term semantics)."""
    if len(sel) == 0:
        return None
    positions = None
    if tp.positions is not None:
        from ..functions.ragged import ragged_select

        positions = ragged_select(*tp.positions, sel)
    return TermPostings(doc_ids=tp.doc_ids[sel], tfs=tp.tfs[sel],
                        dl=tp.dl[sel], df=int(tp.df),
                        positions=positions, block_max=None)


def _slice_postings(tp: TermPostings, lo: int, hi: int
                    ) -> TermPostings | None:
    """Postings restricted to docIds in ``[lo, hi)`` — zero-copy views of
    the docId-sorted arrays (the ragged positions slice is the one copy);
    ``df`` stays the GLOBAL term frequency, so per-doc idf — and thus the
    per-doc score — is identical to a whole-corpus evaluation."""
    i0 = int(np.searchsorted(tp.doc_ids, lo, side="left"))
    i1 = int(np.searchsorted(tp.doc_ids, hi, side="left"))
    if i0 == i1:
        # no postings in this range — identical semantics to a term
        # absent from the index (required → no candidates, negative →
        # nothing to exclude), and the kernel's None handling is the
        # tested path for that
        return None
    positions = None
    if tp.positions is not None:
        flat, offs = tp.positions
        o0, o1 = int(offs[i0]), int(offs[i1])
        positions = (flat[o0:o1], offs[i0:i1 + 1] - o0)
    return TermPostings(doc_ids=tp.doc_ids[i0:i1], tfs=tp.tfs[i0:i1],
                        dl=tp.dl[i0:i1], df=int(tp.df),
                        positions=positions, block_max=None)


def _eval_docid_range(refs: dict, pq_: ParsedQuery, lo: int, hi: int,
                      n_docs: int, avgdl: float, config: IndexConfig,
                      k: int):
    """One docId range of a range-split query: slice every term's list to
    [lo, hi), run the exact kernel, return the range-local top-k.  Term
    payloads arrive as object refs inside ``refs`` (NOT auto-resolved —
    ``ray.get`` here is a zero-copy read of the shared numpy arrays)."""
    import ray

    lists: dict[int, TermPostings | None] = {}
    for tid, ref in refs.items():
        if ref is None:
            lists[tid] = None
            continue
        d = ray.get(ref)
        tp = TermPostings(doc_ids=d["doc_ids"], tfs=d["tfs"], dl=d["dl"],
                          df=int(d["df"]), positions=d.get("positions"))
        lists[tid] = _slice_postings(tp, lo, hi)
    return evaluate(pq_, lists, n_docs, avgdl, config, k, prune=False)


_RANGE_TASK = None


def _get_range_task():
    global _RANGE_TASK
    if _RANGE_TASK is None:
        import ray

        _RANGE_TASK = ray.remote(num_cpus=1)(_eval_docid_range)
    return _RANGE_TASK


def parallel_evaluate(pq_: ParsedQuery,
                      lists: dict[int, TermPostings | None],
                      n_docs: int, avgdl: float, config: IndexConfig,
                      k: int, n_ranges: int | None,
                      part_refs: dict):
    """Shared docId-range-split evaluation used by both the local and the
    distributed searcher (the lists are already in coordinator memory
    either way).  ``part_refs`` is the caller's (term, positions?) →
    ObjectRef cache so repeated queries over hot terms pay ``ray.put``
    once; it is an :class:`LruBytesCache` bounded by the PAYLOAD bytes
    each ref pins in the object store (a count bound would let 256
    hot-term lists pin gigabytes), and eviction drops the driver's
    reference so Ray reclaims the copy."""
    import ray

    from ..functions.bm25 import topk_merge

    sizes = [len(tp.doc_ids) for tp in lists.values() if tp is not None]
    total = int(np.sum(sizes)) if sizes else 0
    if n_ranges is None:
        n_ranges = min(16, total // PARALLEL_MIN_POSTINGS)
    if n_ranges <= 1 or not sizes or not ray.is_initialized():
        return evaluate(pq_, lists, n_docs, avgdl, config, k)
    # boundaries: quantile docIds of the LARGEST list (the dominant
    # scan), so ranges carry near-equal work even under docId skew
    big = max((tp.doc_ids for tp in lists.values()
               if tp is not None), key=len)
    cut_idx = np.linspace(0, len(big) - 1,
                          n_ranges + 1).astype(np.int64)[1:-1]
    cuts = np.unique(big[cut_idx]).astype(np.uint64)
    bounds = np.concatenate([[np.uint64(0)], cuts,
                             [np.uint64(1) << np.uint64(63)]])
    refs: dict[int, object] = {}
    for tid, tp in lists.items():
        if tp is None:
            refs[tid] = None
            continue
        key = (tid, tp.positions is not None)
        ref = part_refs.get(key)
        if ref is None:
            d = {"doc_ids": tp.doc_ids, "tfs": tp.tfs, "dl": tp.dl,
                 "df": int(tp.df)}
            if tp.positions is not None:
                d["positions"] = tp.positions
            ref = ray.put(d)
            part_refs.put(key, ref, size=approx_nbytes(d))
        refs[tid] = ref
    task = _get_range_task()
    futs = [task.remote(refs, pq_, int(lo), int(hi), n_docs,
                        avgdl, config, k)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    parts = ray.get(futs)
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return topk_merge(docs, scores, k)


class _GenIndex:
    """Readers + hot map for one generation directory."""

    def __init__(self, gen: int, index_dir: str):
        self.gen = gen
        self.dir = index_dir
        self.meta = load_meta(index_dir)
        self.p = int(self.meta["num_partitions"])
        self.s = int(self.meta["num_salts"])
        self.hot_terms = np.asarray(self.meta["hot_terms"], dtype=np.uint64)
        self._readers: dict[int, SegmentReader | None] = {}

    def _reader(self, shard: int) -> SegmentReader | None:
        r = self._readers.get(shard, False)
        if r is not False:
            return r
        path = segment_path(self.dir, shard, 0)
        r = SegmentReader(path) if os.path.exists(path) else None
        self._readers[shard] = r
        return r

    def shards_for_term(self, term_id: int) -> list[int]:
        t = np.uint64(term_id)
        if self.meta["config"].get("salt_all_terms"):
            base = int(t % np.uint64(self.p)) * self.s
            return list(range(base, base + self.s))
        if len(self.hot_terms):
            i = int(np.searchsorted(self.hot_terms, t))
            if i < len(self.hot_terms) and self.hot_terms[i] == t:
                base = self.p + i * self.s
                return list(range(base, base + self.s))
        return [int(t % np.uint64(self.p))]

    def raw_postings(self, term_id: int,
                     with_positions: bool = False) -> list[dict]:
        decoded = []
        for shard in self.shards_for_term(term_id):
            rd = self._reader(shard)
            if rd is None:
                continue
            tbl = rd.read_terms([term_id], with_positions=with_positions)
            decoded.extend(decode_posting_row(tbl.slice(i, 1), with_positions)
                           for i in range(tbl.num_rows))
        return decoded


class IndexSearcher:
    def __init__(self, index_dir: str, cache_bytes: int = 256 << 20):
        from ..index.merge import gen_dir, read_generations, read_tombstones

        self.index_dir = index_dir
        gens_doc = read_generations(index_dir)
        self._gens = [
            _GenIndex(g["gen"], gen_dir(index_dir, g["gen"]))
            for g in sorted(gens_doc["generations"], key=lambda g: g["gen"])]
        self.meta = self._gens[0].meta
        cfg = dict(self.meta["config"])
        cfg["field_weights"] = tuple(cfg["field_weights"])
        self.config = IndexConfig(**cfg)
        live = gens_doc.get("live_stats")
        if live:
            self.n_docs = int(live["n_docs"])
            self.avgdl = float(live["avgdl"])
        else:
            self.n_docs = int(self.meta["n_docs"])
            self.avgdl = float(self.meta["avgdl"])
        self.tomb_doc, self.tomb_dead = read_tombstones(index_dir)
        # byte-bounded LRU (the RdbCache budget analogue) — a long-lived
        # serving actor can't grow without limit under a distinct-term
        # query stream; hot stopword lists stay resident via recency
        self._cache = LruBytesCache(cache_bytes)
        # object-store refs of broadcast term payloads for the parallel
        # exact path (ray.put once, zero-copy read per range task);
        # byte-bounded like the decoded-list cache — each ref pins its
        # full payload in the object store until evicted
        self._part_refs = LruBytesCache(cache_bytes)

    def _dead_mask(self, doc_ids: np.ndarray, gen: int) -> np.ndarray:
        """True where the doc is tombstoned for this generation — the
        tombstone half of :func:`index.merge.live_keep_mask` (postings
        resolve newest-generation-wins during the merge itself, so only
        annihilation applies here)."""
        from ..index.merge import live_keep_mask

        if len(self.tomb_doc) == 0 or len(doc_ids) == 0:
            return np.zeros(len(doc_ids), dtype=bool)
        return ~live_keep_mask(doc_ids, gen, _EMPTY_U64, _EMPTY_I32,
                               self.tomb_doc, self.tomb_dead)

    def get_postings(self, term_id: int,
                     with_positions: bool = False) -> TermPostings | None:
        key = (term_id, with_positions)
        hit = self._cache.get(key, MISSING)
        if hit is MISSING:
            hit = self._cache.get((term_id, True), MISSING)
        if hit is not MISSING:
            return hit
        from ..functions.ragged import ragged_concat, ragged_select

        docs_parts, tfs_parts, dl_parts, pos_parts = [], [], [], []
        single_bm = None
        n_parts = 0
        for g in self._gens:
            for d in g.raw_postings(term_id, with_positions):
                alive = ~self._dead_mask(d["doc_ids"], g.gen)
                if not alive.any():
                    continue
                n_parts += 1
                single_bm = d["block_max"] if alive.all() else None
                docs_parts.append(d["doc_ids"][alive])
                tfs_parts.append(d["tfs"][alive])
                dl_parts.append(d["dl"][alive])
                if with_positions:
                    flat, offs = d["positions"]
                    if alive.all():
                        pos_parts.append((flat, offs))
                    else:
                        pos_parts.append(ragged_select(
                            flat, offs, np.flatnonzero(alive)))
        if not docs_parts:
            self._cache.put(key, None)
            return None
        docs = np.concatenate(docs_parts)
        tfs = np.concatenate(tfs_parts)
        dl = np.concatenate(dl_parts)
        order = np.argsort(docs, kind="stable")
        # stored block maxima are admissible only for an untouched
        # single-generation single-split list scored with the build avgdl
        stored_ok = (n_parts == 1 and single_bm is not None
                     and len(self._gens) == 1
                     and len(self.tomb_doc) == 0
                     and float(self.meta["avgdl"]) == self.avgdl)
        tp = TermPostings(
            doc_ids=docs[order], tfs=tfs[order], dl=dl[order],
            df=int(len(docs)),
            positions=None,
            # a copy: the decoded block maxima view the segment read's buffers,
            # which the cache budget does not count
            block_max=single_bm.copy() if stored_ok else None)
        if tp.block_max is None and tp.df >= 4096:
            # recompute (once, cached): salted/merged/maintained lists keep
            # a pruning path too — the cost is one scan, amortized across
            # queries hitting this term
            from ..functions.bm25 import max_block_impact

            wq = np.asarray([int(round(w * 4))
                             for w in self.config.field_weights],
                            dtype=np.int64)
            tfw = (tp.tfs @ wq).astype(np.float64) / 4.0
            tp.block_max = max_block_impact(
                tfw, tp.dl, self.avgdl, self.config.k1, self.config.b,
                self.config.block_size)
        if with_positions:
            flat_all, offs_all = ragged_concat(pos_parts)
            tp.positions = ragged_select(flat_all, offs_all, order)
        self._cache.put(key, tp)
        return tp

    def _lists_for(self, pq_: ParsedQuery,
                   extra_position_ids: set[int] = frozenset()
                   ) -> dict[int, TermPostings | None]:
        phrase_terms = pq_.position_term_ids() | set(extra_position_ids)
        lists: dict[int, TermPostings | None] = {}
        for t in pq_.terms:
            if t.term_id not in lists:
                lists[t.term_id] = self.get_postings(
                    t.term_id, with_positions=t.term_id in phrase_terms)
        return lists

    def search(self, query: str, k: int = 10,
               synonyms: dict[str, list[str]] | None = None,
               field_weights: tuple | None = None,
               lang: str = "en", rerank: str | None = None,
               oversample: int = 4,
               wiki_bigrams: frozenset | None = None,
               doc_prior=None):
        """→ (doc_ids, scores) exact BM25F top-k.

        ``doc_prior`` is an optional ``(sorted_doc_ids uint64,
        multipliers float64)`` static per-document prior (e.g. a quality
        score): final score = BM25F × multiplier, missing docs get 1.0 —
        the SiteRank / doc-flag score-multiplier analogue
        (``PosdbTable.cpp:3686-3693,3901-3941``).  Pruned plans are
        bypassed when a prior is active (their bounds don't include it);
        results stay oracle-shared via the common kernel.

        ``rerank="proximity"`` applies the term-pair min-distance boost
        over the top-(oversample·k) BM25F page
        (:func:`kernel.evaluate_rerank` — the ``PosdbTable`` term-pair
        signal under the BM25F contract); positions of every scoring term
        are fetched for it.

        ``field_weights`` overrides the per-role/tool weights for this
        query (the reference's per-search ``&hgw_*`` parms,
        ``Parms.cpp:3730-3875``).  The tf side re-weights exactly; the
        per-posting doc length stays frozen at build weights (documented
        contract — the oracle applies the same rule).  Pruning bounds are
        only valid for build weights, so overrides evaluate exactly.

        ``synonyms`` is a token→alternatives dict, or the string
        ``"default"`` for the shipped number-variant + curated-set +
        word-variation table (functions/synonyms.py).

        ``wiki_bigrams`` is a phrase dictionary (or ``"default"`` for the
        shipped curated set): bigram boost terms whose pair is in the
        dictionary get the ``WIKI_BIGRAM_WEIGHT²`` boost
        (functions/wiki_phrases.py; ``PosdbTable.cpp:436``)."""
        from dataclasses import replace

        if rerank == "proximity" and doc_prior is not None:
            # refusing beats silently ignoring the prior: the rerank
            # boost and the static multiplier compose ambiguously
            # (boost-then-multiply vs multiply-then-boost differ) —
            # validated BEFORE any list fetch
            raise ValueError(
                "doc_prior is not supported with rerank='proximity'")
        if synonyms == "default":
            from ..functions.synonyms import synonyms_table
            synonyms = synonyms_table(lang)   # expansion follows qlang
        if wiki_bigrams == "default":
            from ..functions.wiki_phrases import DEFAULT_WIKI_BIGRAMS
            wiki_bigrams = DEFAULT_WIKI_BIGRAMS
        pq_ = parse_query(query, self.config.bigram_weight,
                          synonyms=synonyms, lang=lang,
                          position_mode=self.config.position_mode,
                          wiki_bigrams=wiki_bigrams)
        extra: set[int] = set()
        if rerank == "proximity":
            extra = {t.term_id for t in pq_.terms
                     if not t.negative and not t.is_bigram}
        lists = self._lists_for(pq_, extra)
        cfg = self.config
        prune = True
        if field_weights is not None and \
                tuple(field_weights) != tuple(cfg.field_weights):
            cfg = replace(cfg, field_weights=tuple(field_weights))
            prune = False
        if rerank == "proximity":
            from .kernel import evaluate_rerank

            return evaluate_rerank(pq_, lists, self.n_docs, self.avgdl,
                                   cfg, k, prune=prune,
                                   oversample=oversample)
        return evaluate(pq_, lists, self.n_docs, self.avgdl, cfg, k,
                        prune=prune, prior=doc_prior)

    def search_budgeted(self, query: str, k: int = 10,
                        timeout_ms: float | None = None,
                        max_list_bytes: int | None = None,
                        lang: str = "en"):
        """Budgeted search → ``(doc_ids, scores, partial)``.

        The reference caps every query two ways: a deadline that returns
        PARTIAL results when the docid-range walk runs out of time
        (``Msg39.cpp:429-444``) and a ~30 MB per-termlist read cap
        (``PosdbTable.cpp:1975-1981``).  Analogues here:

        - ``timeout_ms``: checked before each term's posting-list FETCH
          (the I/O-dominant stage — the unit of work, like the
          reference's docid-range splits); terms whose fetch would start
          past the deadline are treated as absent and ``partial=True``.
        - ``max_list_bytes``: each decoded list is truncated to its
          first N postings (docId order — the reference truncates the
          key-ordered termlist read identically) such that the array
          payload fits the cap; any truncation sets ``partial=True``.

        Results are the exact evaluation over the (possibly truncated)
        lists — deterministic for a given budget.  ``partial=False``
        means the budget was never hit and the results equal an
        unbudgeted :meth:`search`."""
        import time

        deadline = (time.monotonic() + timeout_ms / 1000.0
                    if timeout_ms is not None else None)
        pq_ = parse_query(query, self.config.bigram_weight, lang=lang,
                          position_mode=self.config.position_mode)
        phrase_terms = pq_.position_term_ids()
        partial = False
        lists: dict[int, object] = {}
        for t in pq_.terms:
            if t.term_id in lists:
                continue
            if deadline is not None and time.monotonic() > deadline:
                lists[t.term_id] = None
                partial = True
                continue
            tp = self.get_postings(t.term_id,
                                   with_positions=t.term_id in phrase_terms)
            if tp is not None and max_list_bytes is not None:
                tp, trunc = _truncate_postings(tp, max_list_bytes)
                partial = partial or trunc
            lists[t.term_id] = tp
        docs, scores = evaluate(pq_, lists, self.n_docs, self.avgdl,
                                self.config, k, prune=not partial)
        return docs, scores, partial

    def search_parallel(self, query: str, k: int = 10,
                        n_ranges: int | None = None, lang: str = "en"):
        """EXACT intra-query parallelism: split the docId space into
        ranges, evaluate each range in a Ray task over zero-copy slices
        of the broadcast posting arrays, merge the range top-ks — the
        reference's per-query docid-range split (``Msg39.cpp:411-466``
        splits each query across hosts by docid range;
        ``JobScheduler.h:26-31`` runs the intersect threads).

        BM25F is doc-local (df / N / avgdl stay global, every other input
        is the doc's own row), so per-doc scores are bit-identical to
        :meth:`search` and the (score desc, docId asc) merge reproduces
        its ranking exactly (tests/test_distributed.py).  Unlike
        :meth:`search_budgeted` this is the exact path for pathological
        conjunctions — no flagged partial results.

        ``n_ranges=None`` sizes ranges to ~PARALLEL_MIN_POSTINGS postings
        and falls back to the single-process kernel for small queries."""
        pq_ = parse_query(query, self.config.bigram_weight, lang=lang,
                          position_mode=self.config.position_mode)
        lists = self._lists_for(pq_)
        return parallel_evaluate(pq_, lists, self.n_docs, self.avgdl,
                                 self.config, k, n_ranges,
                                 self._part_refs)

    def search_lang(self, query: str, k: int = 10, qlang: str = "en",
                    lang_weight: float | None = None):
        """Query-language-weighted search (``PosdbTable.cpp:3918``
        ``langWeight`` under the ``qlang`` parm, ``SearchInput.cpp``):
        documents whose classified language (query/langprior.py — built
        from the live docstore on first use) differs from ``qlang``
        score ×``lang_weight``.  Rides the doc_prior hook, so engine and
        oracle share the kernel."""
        from .langprior import DEFAULT_LANG_WEIGHT, language_prior

        w = DEFAULT_LANG_WEIGHT if lang_weight is None else lang_weight
        prior = language_prior(self.index_dir, qlang, w)
        return self.search(query, k, lang=qlang, doc_prior=prior)

    def search_facets(self, query: str, facet: str = "lang",
                      k_facets: int = 10, lang: str = "en",
                      facet_table: tuple | None = None):
        """Facet query — the ``gbfacetstr:``/``gbfacetint:`` analogue
        (``Query.cpp:1388-1779`` facet terms; ``html/faq.html:360-361``
        "facets over fields"): the histogram of a per-document attribute
        over the EXACT matching set (``candidate_docs`` — every match,
        not the top-k page), ranked (count desc, value asc).

        Returns ``(values, counts, total_matches)``.  ``facet="lang"``
        facets over the doclang classification (built from the live
        docstore on first use, staleness-tokened); ``facet_table=
        (sorted_doc_ids uint64, values)`` facets over any caller
        attribute (the reference faceted arbitrary hashed fields)."""
        from .kernel import candidate_docs

        if facet_table is not None:
            fids, fvals = _check_attr_table(facet_table, "facet_table")
        elif facet == "lang":
            from .langprior import doclang_cached

            fids, fvals = doclang_cached(self.index_dir)
        else:
            raise ValueError(
                f"unknown facet {facet!r}: use 'lang' or pass facet_table")
        pq_ = parse_query(query, self.config.bigram_weight, lang=lang,
                          position_mode=self.config.position_mode)
        ids = candidate_docs(pq_, self._lists_for(pq_))
        total = int(len(ids))
        if total == 0:
            return [], np.zeros(0, np.int64), 0
        joined, hit = _attr_join(fids, fvals, ids)
        vals = (np.where(hit, joined, "unknown") if joined is not None
                else np.full(total, "unknown", dtype=object))
        uniq, cnt = np.unique(vals, return_counts=True)
        order = np.lexsort((uniq, -cnt))[:k_facets]
        return [str(v) for v in uniq[order]], cnt[order].astype(np.int64), \
            total

    def search_docids(self, query: str, doc_ids, k: int = 10,
                      lang: str = "en"):
        """DocId-restricted search — the ``gbdocid:`` surface
        (``Query.cpp:287-297`` ``m_docIdRestriction``): evaluate the
        query over ONLY the given documents and return their top-k by
        the normal relevance order.  Scores are identical to the
        unrestricted search (df/idf stay global — the same contract as
        the parallel path's range slices), so the result equals
        filtering a full-depth search to this doc set."""
        restrict = np.unique(np.asarray(list(doc_ids), dtype=np.uint64))
        pq_ = parse_query(query, self.config.bigram_weight, lang=lang,
                          position_mode=self.config.position_mode)
        lists = self._lists_for(pq_)
        sliced: dict[int, TermPostings | None] = {}
        for tid, tp in lists.items():
            if tp is None or len(tp.doc_ids) == 0:
                sliced[tid] = None
                continue
            # probe the SMALL side into the list: O(|restrict| log n)
            # per term, not O(n log |restrict|) — a hot-term list is
            # orders of magnitude longer than a candidate set
            idx = np.minimum(np.searchsorted(tp.doc_ids, restrict),
                             len(tp.doc_ids) - 1)
            found = tp.doc_ids[idx] == restrict
            sliced[tid] = _select_postings(tp, idx[found].astype(np.int64))
        # prune=False: block-max bounds belong to the full lists
        return evaluate(pq_, sliced, self.n_docs, self.avgdl,
                        self.config, k, prune=False)

    def search_sortby(self, query: str, attr_table: tuple, k: int = 10,
                      descending: bool = True,
                      min_val: float | None = None,
                      max_val: float | None = None,
                      lang: str = "en"):
        """Sort-by-attribute query — the ``gbsortby:``/``gbsortbyint:``
        + ``gbmin:``/``gbmax:`` surface (``Query.cpp:1700-1720,3150``):
        the EXACT matching set (``candidate_docs``), filtered to
        ``[min_val, max_val]`` on a per-document numeric attribute, then
        top-k by (attribute, docId asc) instead of relevance.

        ``attr_table`` is ``(sorted_doc_ids uint64, values numeric)`` —
        integer values keep integer ordering (the gbsortbyint contract:
        no float64 rounding above 2^53); docs absent from the table are
        dropped (the reference only returns docs that indexed the sort
        field).  Returns ``(doc_ids, values)``."""
        from .kernel import candidate_docs

        fids, fvals = _check_attr_table(attr_table, "attr_table")
        if fvals.dtype.kind == "u":
            if len(fvals) and int(fvals.max()) >= (1 << 63):
                raise ValueError("uint64 attribute values >= 2^63 are "
                                 "not sortable (int64 negate overflow)")
            fvals = fvals.astype(np.int64)
        elif fvals.dtype.kind not in "if":
            fvals = np.asarray(fvals, dtype=np.float64)
        pq_ = parse_query(query, self.config.bigram_weight, lang=lang,
                          position_mode=self.config.position_mode)
        ids = candidate_docs(pq_, self._lists_for(pq_))
        if len(ids) == 0 or len(fids) == 0:
            return np.zeros(0, np.uint64), np.zeros(0, fvals.dtype)
        joined, hit = _attr_join(fids, fvals, ids)
        ids, vals = ids[hit], joined[hit]
        keep = np.ones(len(ids), dtype=bool)
        if min_val is not None:
            keep &= vals >= min_val
        if max_val is not None:
            keep &= vals <= max_val
        ids, vals = ids[keep], vals[keep]
        order = np.lexsort((ids, -vals if descending else vals))[:k]
        return ids[order], vals[order]

    def related_terms(self, query: str, k_terms: int = 10,
                      sample_docs: int = 100, lang: str = "en"):
        """Related-topics summary of the result page — the Gigabits
        surface (``html/faq.html:333``; generated in ``Msg40``'s result
        post-processing).  → ``[(term, n_result_docs), ...]`` ranked
        (count desc, term asc); see query/related.py for the contract."""
        from .related import related_terms

        return related_terms(self, query, k_terms=k_terms,
                             sample_docs=sample_docs, lang=lang)

    def search_page(self, query: str, k: int = 10, offset: int = 0,
                    with_total: bool = False,
                    synonyms: dict[str, list[str]] | None = None,
                    lang: str = "en"):
        """Paginated search (``m_firstResultNum``/``m_docsWanted``,
        ``SearchInput.h:177-178``): returns ``(doc_ids, scores, total)``
        for result ranks [offset, offset+k).  Internally evaluates
        top-(offset+k) — result-identical under pruning on/off, so page 2
        is exactly rows k..2k of a deeper search.  ``with_total=True``
        also returns the EXACT candidate-set size (the total-hits field of
        every reference reply, ``Msg39.cpp:486-523``); it costs one
        un-pruned candidate pass over the already-decoded lists."""
        from .kernel import candidate_docs

        if synonyms == "default":
            from ..functions.synonyms import synonyms_table
            synonyms = synonyms_table(lang)   # expansion follows qlang
        pq_ = parse_query(query, self.config.bigram_weight,
                          synonyms=synonyms, lang=lang,
                          position_mode=self.config.position_mode)
        lists = self._lists_for(pq_)
        docs, scores = evaluate(pq_, lists, self.n_docs, self.avgdl,
                                self.config, offset + k)
        total = int(len(candidate_docs(pq_, lists))) if with_total else None
        return docs[offset:offset + k], scores[offset:offset + k], total

    def search_after(self, query: str, k: int = 10,
                     after: tuple | None = None,
                     synonyms: dict[str, list[str]] | None = None,
                     lang: str = "en", telemetry: dict | None = None):
        """Deep-paging cursor (``minSerpDocId``/``maxSerpScore`` resume,
        ``PosdbTable.cpp:3948-3983``): returns ``(doc_ids, scores,
        cursor)`` for the next ``k`` results strictly after
        ``after=(score, doc_id)``; pass the returned ``cursor`` back to
        continue.  ``cursor`` is ``None`` once exhausted.  Unlike
        ``search_page`` the cost per step does not grow with depth: the
        cursor filters candidates BEFORE top-k selection (see
        :func:`kernel.evaluate_after`), which is what makes bulk export
        by rank O(total) instead of O(total²/k)."""
        from .kernel import evaluate_after

        if synonyms == "default":
            from ..functions.synonyms import synonyms_table
            synonyms = synonyms_table(lang)   # expansion follows qlang
        pq_ = parse_query(query, self.config.bigram_weight,
                          synonyms=synonyms, lang=lang,
                          position_mode=self.config.position_mode)
        lists = self._lists_for(pq_)
        docs, scores = evaluate_after(pq_, lists, self.n_docs, self.avgdl,
                                      self.config, k, after=after,
                                      telemetry=telemetry)
        cursor = ((float(scores[-1]), int(docs[-1]))
                  if len(docs) == k else None)
        return docs, scores, cursor

    def explain(self, query: str, k: int = 10,
                rerank: str | None = None, oversample: int = 4) -> dict:
        """Query plan inspection (the PageStats/&debug=1 analogue): parsed
        terms with per-term df/idf, phrase chains, OR units, boolean tree,
        which evaluation path :func:`kernel.evaluate` will take, and the
        re-rank stage when one is requested."""
        from ..functions.bm25 import idf as bm25_idf
        from .kernel import select_plan

        pq_ = parse_query(query, self.config.bigram_weight,
                          position_mode=self.config.position_mode)
        lists = self._lists_for(pq_)
        terms = []
        for t in pq_.terms:
            tp = lists.get(t.term_id)
            terms.append({
                "token": t.token, "term_id": t.term_id,
                "required": t.required, "negative": t.negative,
                "is_bigram": t.is_bigram, "field": t.field,
                "weight": t.weight,
                "df": int(tp.df) if tp else 0,
                "idf": float(bm25_idf(tp.df, self.n_docs)) if tp else None,
            })
        # the SAME predicate evaluate() dispatches on — the reported plan
        # is the path that runs, by construction
        plan = select_plan(pq_, lists, k, prune=True)
        if pq_.bool_tree is not None:
            path = "boolean-tree"
        elif pq_.phrases or pq_.neg_phrases or pq_.or_groups:
            path = "exact (phrase/or-unit filters)"
        else:
            path = {
                "impact-single": "impact-ordered single-term",
                "blockmax-single": "block-max single-term",
                "maxscore": "MaxScore disjunction",
                "impact-union": "impact-ordered union",
            }.get(plan, "exact" if len(pq_.terms) <= 1
                  else "exact (required-unit intersection)")
        return {
            "query": query, "n_docs": self.n_docs, "avgdl": self.avgdl,
            "terms": terms, "phrases": pq_.phrases,
            "neg_phrases": pq_.neg_phrases, "or_groups": pq_.or_groups,
            "bool_tree": pq_.bool_tree, "eval_path": path,
            "rerank": (f"proximity (term-pair min-dist boost over "
                       f"top-{max(oversample * k, k)})"
                       if rerank == "proximity" else None),
        }

    def search_table(self, query: str, k: int = 10) -> pa.Table:
        docs, scores = self.search(query, k)
        return pa.table({
            "rank": pa.array(np.arange(1, len(docs) + 1, dtype=np.int32)),
            "doc_id": pa.array(docs, pa.uint64()),
            "score": pa.array(scores, pa.float64()),
        })


class QueryEvalStage:
    """Actor-pool callable: batch of queries → top-k rows per query."""

    def __init__(self, index_dir: str):
        self.searcher = IndexSearcher(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        for qid, q, k in zip(batch["query_id"].to_pylist(),
                             batch["query"].to_pylist(),
                             batch["k"].to_pylist()):
            docs, scores = self.searcher.search(q, int(k))
            n = len(docs)
            out["query_id"].extend([qid] * n)
            out["rank"].extend(range(1, n + 1))
            out["doc_id"].extend(int(d) for d in docs)
            out["score"].extend(float(s) for s in scores)
        return pa.table({
            "query_id": pa.array(out["query_id"], pa.string()),
            "rank": pa.array(out["rank"], pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),  # 63-bit-safe
            "score": pa.array(out["score"], pa.float64()),
        })


def evaluate_queries_distributed(index_dir: str, queries: list[tuple[str, str, int]],
                                 concurrency: int = 4):
    """Batch query evaluation as a Dataset pipeline (bench path)."""
    import ray.data

    qds = ray.data.from_items(
        [{"query_id": qid, "query": q, "k": k} for qid, q, k in queries])
    # small batches so the actor pool load-balances: one skewed query
    # (a stopword disjunction) must not serialize the whole pool behind
    # one actor's single giant batch
    return qds.map_batches(
        QueryEvalStage, fn_constructor_kwargs={"index_dir": index_dir},
        batch_format="pyarrow", batch_size=2,
        concurrency=concurrency)
