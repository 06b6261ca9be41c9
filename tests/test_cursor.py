"""Deep-paging cursor (SearchRequest.after): page-chain equals one deep top-N,
cost telemetry shrinks with depth (no O(offset) re-ranking), engine ==
oracle on every page."""

import shutil

import numpy as np
import pytest

from open_source_search_engine_ray.index.build import build_index
from open_source_search_engine_ray.query.engine import (IndexSearcher,
                                                        SearchRequest)
from open_source_search_engine_ray.query.oracle import OracleIndex
from open_source_search_engine_ray.sources.transcripts import (
    transcripts_dataset, transcripts_table)

IDX = "/tmp/osse_test_idx_cursor"
N_CONV = 150
QUERIES = ["w0001", "w0001 w0002", "the", "w0003 w0100 w0200"]


@pytest.fixture(scope="module")
def se(ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(lambda: transcripts_dataset(N_CONV), IDX,
                input_token=f"synthetic:n={N_CONV}:cursor")
    return IndexSearcher(IDX)


@pytest.fixture(scope="module")
def oracle():
    return OracleIndex(transcripts_table(N_CONV))


def _drain(searcher, q, k):
    """Iterate pages via cursor; returns (docs, scores, pool_telemetry)."""
    docs, scores, pools = [], [], []
    after = None
    for _ in range(200):  # bounded: fails loudly instead of looping forever
        tel = {}
        res = searcher.run(SearchRequest(q, k, after=after, telemetry=tel))
        d, s, after = res.doc_ids, res.scores, res.cursor
        pools.append(tel["pool"])
        docs.extend(int(x) for x in d)
        scores.extend(float(x) for x in s)
        if after is None:
            break
    else:
        raise AssertionError("cursor did not exhaust")
    return docs, scores, pools


@pytest.mark.parametrize("q", QUERIES)
def test_page_chain_equals_deep_topn(se, q):
    docs, scores, _ = _drain(se, q, 7)
    deep_d, deep_s = se.search(q, len(docs) + 10)
    assert docs == [int(x) for x in deep_d]
    assert scores == [float(x) for x in deep_s]  # float64-exact


@pytest.mark.parametrize("q", QUERIES)
def test_pool_shrinks_per_page(se, q):
    """O(page) selection: each step ranks only what is left below the
    cursor — pool telemetry must drop by exactly the page size."""
    _, _, pools = _drain(se, q, 7)
    for prev, nxt in zip(pools, pools[1:]):
        assert nxt == prev - 7


@pytest.mark.parametrize("q", QUERIES)
def test_engine_oracle_identity_per_page(se, oracle, q):
    after = None
    for _ in range(5):
        res = se.run(SearchRequest(q, 5, after=after))
        d1, s1, c1 = res.doc_ids, res.scores, res.cursor
        d2, s2, c2 = oracle.search_after(q, 5, after=after)
        assert list(d1) == list(d2) and list(s1) == list(s2)
        assert c1 == c2
        if c1 is None:
            break
        after = c1


def test_first_page_matches_search(se):
    d0, s0 = se.search("w0001", 10)
    res = se.run(SearchRequest("w0001", 10, telemetry={}))
    d1, s1 = res.doc_ids, res.scores
    assert list(d0) == list(d1) and list(s0) == list(s1)
