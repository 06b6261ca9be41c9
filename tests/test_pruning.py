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


def test_pruned_equals_exact(searcher, monkeypatch):
    """Every plan is result-identical to the exact scan.  The block-max
    floor is lowered so a fresh searcher's fetches compute block maxima
    and one-term queries take ``blockmax-single``."""
    from open_source_search_engine_ray.query import engine, kernel

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 64)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", 64)
    se = IndexSearcher(IDX)
    queries = [q for _, q, _ in query_set()] + [
        "w0003", "w0015", "the", "of", "w0000", "roleonlyterm_user",
        # multi-term all-optional → MaxScore candidate path
        "the of and", "to be or not", "the w0000 of", "is it not and the"]
    plans = []
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
            plans.append(kernel.select_plan(pq, lists, k))
    assert "blockmax-single" in plans  # the fast path actually ran


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


def test_head_list_plan_matches_explain(searcher, monkeypatch):
    """A one-term query over a list of df > ``IMPACT_UNION_MIN_POSTINGS``
    takes ``impact-single``, cold (its first use builds the impact
    order) and warm alike; ``explain()`` reports the plan ``run()``
    takes, and both runs return exactly the exact results.  The
    thresholds are lowered so the test corpus has such lists."""
    from open_source_search_engine_ray.query import engine, kernel
    from open_source_search_engine_ray.query.engine import SearchRequest

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 64)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", 64)
    monkeypatch.setattr(kernel, "IMPACT_UNION_MIN_POSTINGS", 64)
    ran = []
    select = kernel.select_plan

    def recorded(*args, **kwargs):
        ran.append(select(*args, **kwargs))
        return ran[-1]

    monkeypatch.setattr(kernel, "select_plan", recorded)
    se = IndexSearcher(IDX)
    pq = parse_query("the", se.config.bigram_weight)
    tp = _lists(se, pq)[pq.terms[0].term_id]
    assert tp.df > kernel.IMPACT_UNION_MIN_POSTINGS and tp.impact is None
    exact = evaluate(pq, {pq.terms[0].term_id: tp}, se.n_docs, se.avgdl,
                     se.config, 10, prune=False)
    for cold in (True, False):
        assert (tp.impact is None) == cold
        assert se.explain(SearchRequest("the"))["plan"] == "impact-single"
        ran.clear()
        r = se.run(SearchRequest("the"))
        assert ran == ["impact-single"]
        assert list(r.doc_ids) == list(exact[0])
        assert list(r.scores) == list(exact[1])
