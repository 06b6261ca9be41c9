"""Shared query-evaluation kernel — ONE code path for the oracle and the
distributed engine, so rank identity is float-for-float by construction.

Evaluation (the docid-vote intersection + scoring of
``PosdbTable::intersectLists``, SURVEY.md §2.5/§2.12, re-expressed):

1. candidate generation: intersect required terms' docId lists starting
   from the smallest df (``m_minTermListIdx`` / ``findCandidateDocIds``,
   ``PosdbTable.cpp:1956-2068``); OR-union of positive terms when no term
   is required;
2. negative terms: sorted anti-join (``delDocIdVotes``);
3. quoted phrases: positional adjacency filter (consecutive token
   ordinals within a turn);
4. scoring: BM25F contributions accumulated term-at-a-time in expansion
   order (fixed float64 accumulation order — the rank-identity contract,
   functions/bm25.py);
5. top-k: (score desc, docId asc), ``Msg3a::mergeLists`` tie order.

A term's postings arrive as ``TermPostings`` regardless of origin (decoded
segment list columns in the engine, in-memory dicts in the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import IndexConfig
from ..functions.bm25 import idf as bm25_idf, term_scores, topk_merge
from .parse import ParsedQuery


@dataclass
class TermPostings:
    doc_ids: np.ndarray            # uint64, sorted
    tfs: np.ndarray                # (n, NUM_FIELDS) int64
    dl: np.ndarray                 # float32
    df: int                        # global df (sum over salt splits)
    # per-doc position lists as (flat uint64, offsets int64 len n+1)
    positions: tuple | None = None
    block_max: np.ndarray | None = None  # float32 per block (engine only)
    # lazily-built impact order (posting indices sorted by descending
    # idf-free score) + the sorted scores — cached on the object because
    # the engine caches TermPostings per term; ~12 bytes/posting
    impact: tuple | None = None


# below this summed-df the exhaustive union scan is cheaper than building
# impact orders (tests lower it to force the impact-ordered path)
IMPACT_UNION_MIN_POSTINGS = 100_000


def in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in a sorted unique array — avoids the
    internal re-sort ``np.isin`` pays on every call."""
    if len(sorted_set) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx = np.minimum(idx, len(sorted_set) - 1)
    return sorted_set[idx] == values


def _tf_weighted(tp: TermPostings, field: int | None,
                 wq: np.ndarray) -> np.ndarray:
    if field is None:
        return (tp.tfs @ wq).astype(np.float64) / 4.0
    return tp.tfs[:, field].astype(np.float64)


def _phrase_docs(chain: list[int], lists: dict[int, TermPostings | None],
                 offsets: list[int] | None = None) -> np.ndarray:
    """Docs where the phrase terms appear at the expected relative
    positions (consecutive ordinals by default; in monotone position mode
    ``offsets`` carries the query-side cursor positions and the document
    must reproduce that spacing) — fully vectorized: positions of
    candidate docs are packed into (doc_index << 32 | position) keys and
    the chain is verified with sorted-set membership, no per-doc loop."""
    from ..functions.ragged import ragged_arange

    tps = [lists.get(t) for t in chain]
    if any(tp is None or tp.positions is None for tp in tps):
        return np.zeros(0, dtype=np.uint64)
    cand = tps[0].doc_ids
    for tp in tps[1:]:
        cand = cand[in_sorted(cand, tp.doc_ids)]
    if len(cand) == 0:
        return cand

    def keys_for(tp: TermPostings) -> np.ndarray:
        flat, offs = tp.positions
        offs = np.asarray(offs, dtype=np.int64)
        sel = np.searchsorted(tp.doc_ids, cand)
        lens = offs[sel + 1] - offs[sel]
        idx = np.repeat(offs[sel], lens) + ragged_arange(lens)
        pos = flat[idx].astype(np.uint64)
        drep = np.repeat(np.arange(len(cand), dtype=np.uint64), lens)
        return (drep << np.uint64(32)) | pos

    base = keys_for(tps[0])
    for j, tp in enumerate(tps[1:], start=1):
        off = (offsets[j] - offsets[0]) if offsets else j
        base = base[in_sorted(base + np.uint64(off), np.sort(keys_for(tp)))]
        if len(base) == 0:
            return np.zeros(0, dtype=np.uint64)
    doc_idx = np.unique((base >> np.uint64(32)).astype(np.int64))
    return cand[doc_idx]


def _blockmax_single_term(t, tp: TermPostings, n_docs: int, avgdl: float,
                          config: IndexConfig, k: int):
    """Impact-ordered single-term top-k via per-block maxima: visit blocks
    in descending stored max impact, stop when the next block's bound is
    strictly below the current k-th score (ties continue, so the result is
    identical to the exact scan — asserted in tests).

    This is the direct analogue of the reference's
    ``getMaxPossibleScore``-vs-``minWinningScore`` pruning
    (``PosdbTable.cpp:4102-4264,3726-3781``) with precomputed block bounds.
    """
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    iv = float(bm25_idf(tp.df, n_docs))
    bs = config.block_size
    # tiny inflation keeps the bound admissible under float multiplication
    # reordering (bound and contribution multiply iv/weight in different
    # orders; 1e-12 relative covers the ulp drift)
    bm = (tp.block_max.astype(np.float64) * iv * np.float64(t.weight)
          * np.float64(1.0 + 1e-12))
    order = np.argsort(-bm, kind="stable")
    cand_docs: list[np.ndarray] = []
    cand_scores: list[np.ndarray] = []
    heap_kth = -np.inf
    n_seen = 0
    tfw_all = _tf_weighted(tp, t.field, wq)
    for bi in order:
        if bm[bi] < heap_kth and n_seen >= k:
            break
        s = bi * bs
        e = min(s + bs, len(tp.doc_ids))
        contrib = np.float64(t.weight) * term_scores(
            tfw_all[s:e], tp.dl[s:e], avgdl, config.k1, config.b, iv)
        cand_docs.append(tp.doc_ids[s:e])
        cand_scores.append(contrib)
        n_seen += e - s
        if n_seen >= k:
            allsc = np.concatenate(cand_scores)
            if len(allsc) >= k:
                heap_kth = np.partition(allsc, len(allsc) - k)[len(allsc) - k]
    docs = np.concatenate(cand_docs)
    scores = np.concatenate(cand_scores)
    return topk_merge(docs, scores, k)


def _term_upper_bound(t, tp: TermPostings, n_docs: int, avgdl: float,
                      config: IndexConfig, wq: np.ndarray) -> float:
    """Admissible upper bound of one term's contribution to any doc."""
    iv = float(bm25_idf(tp.df, n_docs))
    if tp.block_max is not None and t.field is None:
        m = float(tp.block_max.max())
    else:
        m = float(term_scores(_tf_weighted(tp, t.field, wq), tp.dl, avgdl,
                              config.k1, config.b, 1.0).max())
    return m * iv * float(t.weight) * (1.0 + 1e-12)


def _maxscore_candidates(scorable, lists, n_docs: float, avgdl: float,
                         config: IndexConfig, k: int,
                         wq: np.ndarray) -> np.ndarray:
    """MaxScore candidate generation for disjunctive (all-optional)
    queries: process terms in descending upper bound; once the summed
    bounds of the remaining terms fall strictly below the current k-th
    partial score, remaining terms stop introducing new candidates (the
    surviving set provably contains the exact top-k, which is then
    re-scored in canonical order).  The WAND/MaxScore analogue of the
    reference's ``getMaxPossibleScore`` pruning."""
    terms = [(t, lists[t.term_id]) for t in scorable
             if lists.get(t.term_id) is not None]
    if not terms:
        return np.zeros(0, dtype=np.uint64)
    ubs = np.asarray([_term_upper_bound(t, tp, n_docs, avgdl, config, wq)
                      for t, tp in terms])
    order = np.argsort(-ubs, kind="stable")
    terms = [terms[i] for i in order]
    ubs = ubs[order]
    rem_after = np.concatenate([np.cumsum(ubs[::-1])[::-1][1:], [0.0]])

    cand = np.zeros(0, dtype=np.uint64)
    partial = np.zeros(0, dtype=np.float64)
    theta = -np.inf
    for j, (t, tp) in enumerate(terms):
        iv = bm25_idf(tp.df, n_docs)
        grow = not (len(partial) >= k and ubs[j] + rem_after[j] < theta)
        if grow:
            merged = np.union1d(cand, docs_of_term(t, tp))
            new_partial = np.zeros(len(merged), dtype=np.float64)
            pos = np.searchsorted(merged, cand)
            new_partial[pos] = partial
            cand, partial = merged, new_partial
        if len(cand) == 0:
            continue
        idx = np.searchsorted(tp.doc_ids, cand)
        idx_c = np.minimum(idx, len(tp.doc_ids) - 1)
        present = tp.doc_ids[idx_c] == cand
        if t.field is not None:
            present &= tp.tfs[idx_c, t.field] > 0
        if present.any():
            sel = idx_c[present]
            tfw = _tf_weighted(tp, t.field, wq)[sel]
            partial[present] += np.float64(t.weight) * term_scores(
                tfw, tp.dl[sel], avgdl, config.k1, config.b, float(iv))
        if len(partial) >= k:
            # deflate one part in 1e12: partial sums here accumulate in ub
            # order, not canonical order — the margin absorbs the ulp drift
            # so no doc whose canonical score ties the threshold is dropped
            theta = np.partition(partial, len(partial) - k)[len(partial) - k] \
                * np.float64(1.0 - 1e-12)
        # drop candidates that can no longer reach theta
        if len(partial) > 4 * k and np.isfinite(theta):
            keep = partial + rem_after[j] >= theta
            cand, partial = cand[keep], partial[keep]
    return cand


def _impact_ordered_union(scorable, lists, n_docs: int, avgdl: float,
                          config: IndexConfig, k: int, wq: np.ndarray,
                          chunk: int = 8192):
    """Impact-ordered evaluation for uniform disjunctions — the fallback
    MaxScore can't help with (uniform stopword lists: every doc matches
    every term, bounds prune nothing doc-at-a-time).

    Threshold-algorithm (Fagin TA) shape, vectorized: each term's postings
    are visited in DESCENDING idf-free impact (frequency/impact-sorted
    duplicate view, built lazily once per cached TermPostings — the
    impact-ordered-posting analogue of the reference's high-frequency term
    shortcuts).  Rounds consume one chunk per term, pool every doc seen,
    score the pool EXACTLY in canonical order, and stop when the k-th
    pooled score strictly exceeds the sum of the terms' next-impact bounds
    — every unseen doc is then provably below the k-th result even on
    ties, so the answer is identical to the exhaustive scan (asserted in
    tests/test_pruning.py).  Stopword impacts correlate across terms (all
    driven by 1/dl), so the first chunks already contain the winners."""
    terms = []
    for t in scorable:
        tp = lists.get(t.term_id)
        if tp is None or tp.df == 0:
            continue
        if tp.impact is None:
            tfw_full = _tf_weighted(tp, None, wq)
            s = term_scores(tfw_full, tp.dl, avgdl,
                            config.k1, config.b, 1.0)
            order = np.argsort(-s, kind="stable").astype(np.int64)
            # cache the idf-free weighted tf too — incremental scoring
            # below must not recompute it over the full list every round
            tp.impact = (order, s[order], tfw_full)
        terms.append((t, tp, float(bm25_idf(tp.df, n_docs)) * float(t.weight)))
    if not terms:
        return (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))

    def score_docs(docs: np.ndarray) -> np.ndarray:
        """Exact canonical scoring (same per-doc float path as the
        exhaustive evaluator — term-at-a-time in expansion order)."""
        scores = np.zeros(len(docs), dtype=np.float64)
        for t2 in scorable:
            tp2 = lists.get(t2.term_id)
            if tp2 is None or tp2.df == 0:
                continue
            idx = np.searchsorted(tp2.doc_ids, docs)
            idx_c = np.minimum(idx, len(tp2.doc_ids) - 1)
            present = tp2.doc_ids[idx_c] == docs
            if present.any():
                sel = idx_c[present]
                tfw = (tp2.impact[2][sel] if tp2.impact is not None
                       else _tf_weighted(tp2, None, wq)[sel])
                iv2 = bm25_idf(tp2.df, n_docs)
                scores[present] += np.float64(t2.weight) * term_scores(
                    tfw, tp2.dl[sel], avgdl, config.k1, config.b,
                    float(iv2))
        return scores

    # pool grows incrementally: each round scores ONLY newly seen docs and
    # merges them into the sorted pool, so a run to exhaustion costs
    # O(df·T) total scoring work, not O(df²/chunk)
    pool = np.zeros(0, dtype=np.uint64)
    pool_scores = np.zeros(0, dtype=np.float64)
    cursors = [0] * len(terms)
    while True:
        exhausted = True
        round_docs: list[np.ndarray] = []
        for i, (t, tp, iv) in enumerate(terms):
            order = tp.impact[0]
            c = cursors[i]
            if c < len(order):
                round_docs.append(tp.doc_ids[order[c:c + chunk]])
                cursors[i] = c + chunk
                exhausted = exhausted and cursors[i] >= len(order)
            # else exhausted stays as-is for this term
        if round_docs:
            fresh = np.unique(np.concatenate(round_docs))
            fresh = fresh[~in_sorted(fresh, pool)]
            if len(fresh):
                fs = score_docs(fresh)
                merged = np.concatenate([pool, fresh])
                order2 = np.argsort(merged, kind="stable")
                pool = merged[order2]
                pool_scores = np.concatenate([pool_scores, fs])[order2]
        # remaining-impact bound: for each term, the impact of its next
        # (unconsumed) entry; docs outside the pool score below the sum
        theta = 0.0
        for i, (t, tp, iv) in enumerate(terms):
            order, s_sorted = tp.impact[0], tp.impact[1]
            c = cursors[i]
            if c < len(order):
                theta += float(s_sorted[c]) * iv
        if len(pool) >= k:
            kth = np.partition(pool_scores,
                               len(pool_scores) - k)[len(pool_scores) - k]
            if exhausted or kth > theta * (1.0 + 1e-12):
                return topk_merge(pool, pool_scores, k)
        elif exhausted:
            return topk_merge(pool, pool_scores, k)


def _pos_keys_for(cand: np.ndarray, tp: TermPostings) -> np.ndarray:
    """Packed ``(candidate_index << 32) | position`` keys for the
    candidate docs that contain the term — ascending by construction
    (candidate indices increase, positions increase within a doc), so a
    single searchsorted resolves nearest-occurrence lookups."""
    from ..functions.ragged import ragged_arange

    flat, offs = tp.positions
    offs = np.asarray(offs, dtype=np.int64)
    sel = np.searchsorted(tp.doc_ids, cand)
    sel_c = np.minimum(sel, len(tp.doc_ids) - 1)
    present = tp.doc_ids[sel_c] == cand
    pidx = np.flatnonzero(present)
    if len(pidx) == 0:
        return np.zeros(0, dtype=np.uint64)
    sel = sel_c[pidx]
    lens = offs[sel + 1] - offs[sel]
    idx = np.repeat(offs[sel], lens) + ragged_arange(lens)
    drep = np.repeat(pidx.astype(np.uint64), lens)
    return (drep << np.uint64(32)) | flat[idx].astype(np.uint64)


def _min_pair_dists(n_cand: int, keys_a: np.ndarray,
                    keys_b: np.ndarray) -> np.ndarray:
    """Per-candidate-doc minimum |pos_a - pos_b| between two terms'
    occurrences (float64, +inf where either term is absent) — vectorized:
    for every A-occurrence the nearest B-occurrence is one of the two
    searchsorted neighbors in the same doc."""
    best = np.full(n_cand, np.inf)
    if len(keys_a) == 0 or len(keys_b) == 0:
        return best
    idx = np.searchsorted(keys_b, keys_a)
    for cnd in (idx - 1, idx):
        ok = (cnd >= 0) & (cnd < len(keys_b))
        if not ok.any():
            continue
        ka = keys_a[ok]
        kb = keys_b[cnd[ok]]
        same = (ka >> np.uint64(32)) == (kb >> np.uint64(32))
        if not same.any():
            continue
        # same doc → the packed high bits cancel in the difference
        d = np.abs(kb[same].astype(np.int64) - ka[same].astype(np.int64))
        di = (ka[same] >> np.uint64(32)).astype(np.int64)
        np.minimum.at(best, di, d.astype(np.float64))
    return best


PROXIMITY_WEIGHT = 0.25    # default boost weight (contract constant)


def proximity_rerank(query: ParsedQuery,
                     lists: dict[int, TermPostings | None],
                     docs: np.ndarray, scores: np.ndarray,
                     prox_weight: float = PROXIMITY_WEIGHT):
    """Term-pair proximity boost over an already-scored candidate page —
    the ``PosdbTable`` sliding-window term-pair signal
    (``PosdbTable.cpp:736-803,3077-3444,3871-3895``) re-expressed under
    the BM25F contract as a deterministic re-ranker:

        boosted = score · (1 + w · Σ_{i<j} weight_i·weight_j /
                                     (1 + min_dist(i, j)))

    over unordered pairs of DISTINCT positive non-bigram query terms,
    where ``min_dist`` is the minimum absolute difference of stored global
    positions (``turn_idx·TURN_STRIDE + ordinal`` — cross-turn pairs get a
    naturally huge distance and contribute ~0, the cross-section penalty
    analogue).  Pairs iterate in expansion order and the math is plain
    float64 over identical inputs, so engine and oracle agree
    bit-for-bit."""
    if len(docs) == 0:
        return docs, scores
    terms, seen = [], set()
    for t in query.terms:
        if t.negative or t.is_bigram or t.term_id in seen:
            continue
        tp = lists.get(t.term_id)
        if tp is None or tp.positions is None:
            continue
        seen.add(t.term_id)
        terms.append((t, tp))
    if len(terms) < 2:
        return topk_merge(docs, scores, len(docs))
    keys = [_pos_keys_for(docs, tp) for _, tp in terms]
    prox = np.zeros(len(docs), dtype=np.float64)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            best = _min_pair_dists(len(docs), keys[i], keys[j])
            has = np.isfinite(best)
            if has.any():
                w = (np.float64(terms[i][0].weight)
                     * np.float64(terms[j][0].weight))
                prox[has] += w / (1.0 + best[has])
    boosted = scores * (1.0 + np.float64(prox_weight) * prox)
    return topk_merge(docs, boosted, len(docs))


def evaluate_rerank(query: ParsedQuery,
                    lists: dict[int, TermPostings | None],
                    n_docs: int, avgdl: float, config: IndexConfig, k: int,
                    prune: bool = True, oversample: int = 4,
                    prox_weight: float = PROXIMITY_WEIGHT):
    """Proximity-boosted evaluation: exact BM25F top-(oversample·k)
    page (result-identical under pruning), then :func:`proximity_rerank`
    and re-sort — the candidate oversampling mirrors the reference's
    rescoring of its top pool rather than every voter."""
    kp = max(int(oversample) * k, k)
    docs, scores = evaluate(query, lists, n_docs, avgdl, config, kp,
                            prune=prune)
    docs2, boosted = proximity_rerank(query, lists, docs, scores,
                                      prox_weight)
    return docs2[:k], boosted[:k]


def docs_of_term(t, tp: TermPostings) -> np.ndarray:
    if t.field is not None:
        return tp.doc_ids[tp.tfs[:, t.field] > 0]
    return tp.doc_ids


def select_plan(query: ParsedQuery, lists: dict[int, TermPostings | None],
                k: int, prune: bool = True) -> str:
    """The ONE dispatch predicate for :func:`evaluate` — also what
    ``IndexSearcher.explain()`` reports, so the displayed plan cannot
    diverge from the path that actually runs.

    Tags: ``impact-single`` (huge single-term list, TA chunks),
    ``blockmax-single`` (block-max bound walk), ``maxscore`` (disjunction
    with df spread), ``impact-union`` (uniform stopword disjunction),
    ``exact`` (candidate generation + canonical scoring)."""
    if not (prune and not query.phrases and not query.neg_phrases
            and not query.or_groups and query.bool_tree is None):
        return "exact"
    positives_all = [t for t in query.terms
                     if not t.negative and not t.is_bigram]
    if len(query.terms) == 1 and len(positives_all) == 1:
        t = positives_all[0]
        tp = lists.get(t.term_id)
        if tp is not None and t.field is None:
            # huge lists (df≈N stopwords): near-uniform block maxima
            # make the block-bound walk visit most blocks — the
            # impact-ordered path answers from its first chunk instead
            if tp.df > IMPACT_UNION_MIN_POSTINGS:
                return "impact-single"
            if tp.block_max is not None and tp.df > 4 * k:
                return "blockmax-single"
    if (len(positives_all) > 1
            and not any(t.required for t in positives_all)
            and not any(t.negative for t in query.terms)):
        dfs = [lists[t.term_id].df for t in positives_all
               if lists.get(t.term_id) is not None]
        scorable = [t for t in query.terms if not t.negative]
        # df spread → MaxScore bounds have something to prune
        if dfs and max(dfs) > 8 * min(dfs):
            return "maxscore"
        # uniform big lists (stopword disjunctions): doc-at-a-time
        # bounds prune nothing — switch to impact-ordered evaluation
        if (dfs and sum(dfs) > IMPACT_UNION_MIN_POSTINGS
                and all(t.field is None for t in scorable)):
            return "impact-union"
    return "exact"


def prior_multipliers(cand: np.ndarray, prior) -> np.ndarray:
    """Per-candidate static multipliers from a ``(sorted_doc_ids uint64,
    multipliers float64)`` prior table; docs absent from the table get
    1.0.  Vectorized sorted lookup."""
    pids, pvals = prior
    if len(pids) == 0 or len(cand) == 0:
        return np.ones(len(cand), dtype=np.float64)
    idx = np.minimum(np.searchsorted(pids, cand), len(pids) - 1)
    return np.where(pids[idx] == cand, pvals[idx], 1.0)


def evaluate(query: ParsedQuery, lists: dict[int, TermPostings | None],
             n_docs: int, avgdl: float, config: IndexConfig, k: int,
             prune: bool = True, prior=None):
    """→ (doc_ids desc-by-score, scores float64).  ``lists`` maps term_id →
    TermPostings (or None when the term is absent from the index).

    ``prune=True`` enables the block-max fast paths where applicable; both
    are result-identical to the exact path (tests/test_pruning.py) — the
    multi-term path re-scores surviving candidates in canonical expansion
    order so even the float accumulation matches.

    ``prior`` is an optional ``(sorted_doc_ids, multipliers)`` static
    document prior: the final score of each doc is its BM25F score times
    its multiplier (default 1.0) — the reference's SiteRank /
    page-temperature / doc-flag score multipliers
    (``PosdbTable.cpp:3686-3693,3901-3941``).  A prior invalidates the
    stored per-term bounds, so the pruned plans are bypassed (the
    bounds-scaling alternative — multiply every bound by max(multiplier)
    — stays admissible but prunes poorly when the max is loose; exact
    evaluation is the predictable choice)."""
    if prior is not None:
        cand = candidate_docs(query, lists)
        wq_ = np.asarray([int(round(w * 4)) for w in config.field_weights],
                         dtype=np.int64)
        return _score_candidates(query, lists, cand, n_docs, avgdl,
                                 config, k, wq_, prior=prior)
    plan = select_plan(query, lists, k, prune)
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    if plan == "impact-single":
        t = next(t for t in query.terms
                 if not t.negative and not t.is_bigram)
        return _impact_ordered_union([t], lists, n_docs, avgdl,
                                     config, k, wq)
    if plan == "blockmax-single":
        t = next(t for t in query.terms
                 if not t.negative and not t.is_bigram)
        return _blockmax_single_term(t, lists[t.term_id], n_docs, avgdl,
                                     config, k)
    if plan == "maxscore":
        scorable = [t for t in query.terms if not t.negative]
        cand = _maxscore_candidates(scorable, lists, n_docs, avgdl,
                                    config, k, wq)
        return _score_candidates(query, lists, cand, n_docs, avgdl,
                                 config, k, wq)
    if plan == "impact-union":
        scorable = [t for t in query.terms if not t.negative]
        return _impact_ordered_union(scorable, lists, n_docs,
                                     avgdl, config, k, wq)
    cand = candidate_docs(query, lists)
    return _score_candidates(query, lists, cand, n_docs, avgdl, config, k,
                             wq)


def _eval_tree(node, lists) -> np.ndarray:
    """Evaluate a boolean expression tree → sorted unique docIds
    (``Expression::isTruth``, ``Query.h:364`` — set algebra over the
    decoded termlists instead of per-doc bit recursion)."""
    kind = node[0]
    if kind == "term":
        tp = lists.get(node[1])
        if tp is None:
            return np.zeros(0, dtype=np.uint64)
        if node[2] is not None:
            return tp.doc_ids[tp.tfs[:, node[2]] > 0]
        return tp.doc_ids
    if kind == "phrase":
        return _phrase_docs(node[1], lists,
                            node[2] if len(node) > 2 else None)
    if kind == "or":
        arrs = [_eval_tree(c, lists) for c in node[1]]
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            return np.zeros(0, dtype=np.uint64)
        return np.unique(np.concatenate(arrs))
    if kind == "and":
        pos, neg = node[1], node[2]
        if not pos:
            return np.zeros(0, dtype=np.uint64)  # pure-negative: no matches
        units = sorted((_eval_tree(c, lists) for c in pos), key=len)
        cand = units[0]
        for d in units[1:]:
            if len(cand) == 0:
                return cand
            cand = cand[in_sorted(cand, d)]
        for c in neg:
            nd = _eval_tree(c, lists)
            if len(nd) and len(cand):
                cand = cand[~in_sorted(cand, nd)]
        return cand
    if kind == "neg":   # bare top-level negation: matches nothing
        return np.zeros(0, dtype=np.uint64)
    raise ValueError(f"unknown tree node {kind!r}")


def candidate_docs(query: ParsedQuery,
                   lists: dict[int, TermPostings | None]) -> np.ndarray:
    """EXACT candidate set of a query (sorted docIds): required-unit
    intersection (or OR-union when nothing is required), negative-term
    anti-join, positive/negative phrase filters.  This is the exact-path
    candidate generator of :func:`evaluate`, also used standalone for the
    total-hit count the reference returns with every reply
    (``Msg39.cpp:486-523`` — exact here rather than estimated, since every
    term's postings are already decoded in memory)."""
    if query.bool_tree is not None:
        return _eval_tree(query.bool_tree, lists)

    def docs_of(t) -> np.ndarray:
        tp = lists.get(t.term_id)
        if tp is None:
            return np.zeros(0, dtype=np.uint64)
        if t.field is not None:
            return tp.doc_ids[tp.tfs[:, t.field] > 0]
        return tp.doc_ids

    positives = [t for t in query.terms if not t.negative and not t.is_bigram]
    required = [t for t in positives if t.required]
    # plain negative terms anti-join on the whole list; terms of a negated
    # phrase (quote_id >= 0) only exclude via the adjacency check below
    negatives = [t for t in query.terms if t.negative and t.quote_id < 0]

    # required units: single required terms + OR disjunction groups
    # (a unit matches when any alternative matches; units intersect)
    by_id = {t.term_id: t for t in positives}
    units: list[np.ndarray] = [docs_of(t) for t in required]
    for group in query.or_groups:
        arrs = [docs_of(by_id[t]) for t in group if t in by_id]
        if arrs:
            units.append(np.unique(np.concatenate(arrs)))

    if units:
        # rarest-first intersection (m_minTermListIdx analogue)
        units.sort(key=len)
        cand = units[0]
        for d in units[1:]:
            if len(cand) == 0:
                break
            cand = cand[in_sorted(cand, d)]
    else:
        arrs = [docs_of(t) for t in positives]
        cand = (np.unique(np.concatenate(arrs)) if arrs
                else np.zeros(0, dtype=np.uint64))

    for t in negatives:
        nd = docs_of(t)
        if len(nd) and len(cand):
            cand = cand[~in_sorted(cand, nd)]

    p_offs = query.phrase_offsets or [None] * len(query.phrases)
    for chain, po in zip(query.phrases, p_offs):
        pd = _phrase_docs(chain, lists, po)
        cand = cand[in_sorted(cand, pd)]

    n_offs = query.neg_phrase_offsets or [None] * len(query.neg_phrases)
    for chain, po in zip(query.neg_phrases, n_offs):
        pd = _phrase_docs(chain, lists, po)
        if len(pd) and len(cand):
            cand = cand[~in_sorted(cand, pd)]
    return cand


def _score_candidates(query: ParsedQuery,
                      lists: dict[int, TermPostings | None],
                      cand: np.ndarray, n_docs: int, avgdl: float,
                      config: IndexConfig, k: int, wq: np.ndarray,
                      prior=None):
    """Canonical scoring: contributions accumulate term-at-a-time in
    expansion order — the ONE float path both the exact and pruned routes
    share, so results are bit-identical.  ``prior`` multiplies the final
    per-doc score (see :func:`evaluate`)."""
    if len(cand) == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64)
    scores = _scores_for(query, lists, cand, n_docs, avgdl, config, wq)
    if prior is not None:
        scores = scores * prior_multipliers(cand, prior)
    return topk_merge(cand, scores, k)


def _scores_for(query: ParsedQuery,
                lists: dict[int, TermPostings | None],
                cand: np.ndarray, n_docs: int, avgdl: float,
                config: IndexConfig, wq: np.ndarray) -> np.ndarray:
    """Canonical float64 scores aligned with ``cand`` (unsorted)."""
    scores = np.zeros(len(cand), dtype=np.float64)
    scorable = [t for t in query.terms if not t.negative]
    for t in scorable:
        tp = lists.get(t.term_id)
        if tp is None or tp.df == 0:
            continue
        idx = np.searchsorted(tp.doc_ids, cand)
        idx_c = np.minimum(idx, len(tp.doc_ids) - 1)
        present = tp.doc_ids[idx_c] == cand
        if t.field is not None:
            present &= tp.tfs[idx_c, t.field] > 0
        if not present.any():
            continue
        sel = idx_c[present]
        tfw = _tf_weighted(tp, t.field, wq)[sel]
        iv = bm25_idf(tp.df, n_docs)
        contrib = term_scores(tfw, tp.dl[sel], avgdl, config.k1, config.b,
                              float(iv))
        scores[present] += np.float64(t.weight) * contrib
    return scores


def evaluate_after(query: ParsedQuery,
                   lists: dict[int, TermPostings | None],
                   n_docs: int, avgdl: float, config: IndexConfig, k: int,
                   after: tuple | None = None,
                   telemetry: dict | None = None, prior=None):
    """Cursor-paged evaluation — the ``minSerpDocId``/``maxSerpScore``
    resume of the reference (``PosdbTable.cpp:3948-3983``): return the
    next ``k`` results STRICTLY after ``after=(score, doc_id)`` in the
    global (score desc, docId asc) order.

    Unlike offset paging (``SearchRequest.offset``, which evaluates
    top-(offset+k)), the cursor filter runs BEFORE top-k selection, so
    the selection pool holds only post-cursor docs: per step the cost is
    one candidate scan (unavoidable — scores above the cursor must be
    recognized to be excluded, exactly as the reference re-intersects
    with the serp window) plus selection over the SHRINKING pool, with
    no O(offset) re-ranking of earlier pages.  ``telemetry`` (optional
    dict) receives ``scanned`` (candidate count) and ``pool`` (post-
    cursor candidates actually ranked) — tests assert ``pool`` decreases
    page over page.  ``prior`` multiplies the scores as in
    :func:`evaluate`, before the cursor filter."""
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    cand = candidate_docs(query, lists)
    scores = _scores_for(query, lists, cand, n_docs, avgdl, config, wq)
    if prior is not None:
        scores = scores * prior_multipliers(cand, prior)
    n_scanned = len(cand)
    if after is not None:
        a_s = np.float64(after[0])
        a_d = np.uint64(after[1])
        keep = (scores < a_s) | ((scores == a_s) & (cand > a_d))
        cand, scores = cand[keep], scores[keep]
    if telemetry is not None:
        telemetry["scanned"] = int(n_scanned)
        telemetry["pool"] = int(len(cand))
    return topk_merge(cand, scores, k)
