"""Block-max pruning must be result-identical to the exact scan
(FIXTURES §4 determinism family; the reference analogue is that
``getMaxPossibleScore`` pruning never changes the top-k, only skips
losers)."""

import shutil

import pytest

from open_source_search_engine_ray.index.build import build_index
from open_source_search_engine_ray.query.engine import IndexSearcher
from open_source_search_engine_ray.query.kernel import evaluate
from open_source_search_engine_ray.query.parse import parse_query
from open_source_search_engine_ray.sources.queryset import query_set
from open_source_search_engine_ray.sources.transcripts import (
    transcripts_dataset)

IDX = "/tmp/osse_prune_idx"


@pytest.fixture(scope="module")
def searcher(ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(lambda: transcripts_dataset(400), IDX,
                input_token="prune:n=400")
    return IndexSearcher(IDX)


def _lists(se, pq):
    """The searcher's fetch stage, unbudgeted."""
    return se._collect_lists(pq, pq.position_term_ids(), None, None)[0]


def test_pruned_equals_exact(searcher):
    se = searcher
    queries = [q for _, q, _ in query_set()] + [
        "w0003", "w0015", "the", "of", "w0000", "roleonlyterm_user",
        # multi-term all-optional → MaxScore candidate path
        "the of and", "to be or not", "the w0000 of", "is it not and the"]
    n_pruned_applicable = 0
    for q in queries:
        for k in (3, 10, 50):
            pq = parse_query(q, se.config.bigram_weight)
            lists = _lists(se, pq)
            d_exact, s_exact = evaluate(pq, lists, se.n_docs, se.avgdl,
                                        se.config, k, prune=False)
            d_fast, s_fast = evaluate(pq, lists, se.n_docs, se.avgdl,
                                      se.config, k, prune=True)
            assert list(d_exact) == list(d_fast), (q, k)
            assert list(s_exact) == list(s_fast), (q, k)
            if (len(pq.terms) == 1 and not pq.phrases):
                tp = lists.get(pq.terms[0].term_id)
                if tp is not None and tp.block_max is not None \
                        and tp.df > 4 * k:
                    n_pruned_applicable += 1
    assert n_pruned_applicable > 0  # the fast path actually ran


def test_impact_ordered_union_identical(searcher, monkeypatch):
    """The impact-ordered union path (uniform stopword disjunctions, the
    MaxScore-disengaged case) is result-identical to the exhaustive scan,
    including float64 scores and tie order."""
    from open_source_search_engine_ray.query import kernel

    monkeypatch.setattr(kernel, "IMPACT_UNION_MIN_POSTINGS", 0)
    se = searcher
    queries = ["to be or not to be", "the of and", "is it not and the",
               "the to of in a", "we as at by an"]
    engaged = 0
    for q in queries:
        for k in (3, 10, 100):
            pq = parse_query(q, se.config.bigram_weight)
            lists = _lists(se, pq)
            d_exact, s_exact = evaluate(pq, lists, se.n_docs, se.avgdl,
                                        se.config, k, prune=False)
            d_fast, s_fast = evaluate(pq, lists, se.n_docs, se.avgdl,
                                      se.config, k, prune=True)
            assert list(d_exact) == list(d_fast), (q, k)
            assert list(s_exact) == list(s_fast), (q, k)
            dfs = [lists[t.term_id].df for t in pq.terms
                   if not t.negative and not t.is_bigram
                   and lists.get(t.term_id) is not None]
            if dfs and max(dfs) <= 8 * min(dfs):
                engaged += 1
    assert engaged > 0
