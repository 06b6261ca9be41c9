"""Distributed shard-server query path must be bit-identical to the local
searcher (same kernel, same merged lists; only the fetch topology differs)."""

import pytest

from open_source_search_engine_ray.query.distributed import (
    DistributedSearcher)
from open_source_search_engine_ray.query.engine import IndexSearcher
from open_source_search_engine_ray.sources.queryset import query_set

from conftest import TEST_INDEX as IDX

MG_IDX = "/tmp/osse_test_idx_fanout_mg"


@pytest.fixture(scope="module", autouse=True)
def no_leaked_actors(assert_cpus_released):
    """Torn down after every other fixture of this module: the shard
    servers must have released their CPUs, or the next build waits for
    them."""
    yield
    assert_cpus_released("the distributed tests")


def _stop(dist: DistributedSearcher) -> None:
    import ray

    for server in dist._servers:
        ray.kill(server)


@pytest.fixture(scope="module")
def multi_gen(ray_session):
    """Three generations with tombstones in the first two: the fan-out
    merges the same parts, tombstones and block maxima as the local
    searcher."""
    import shutil

    import numpy as np
    import ray.data

    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.functions.ghash import (
        doc_ids_for_convs)
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.index.merge import (add_documents,
                                                           delete_docs)
    from open_source_search_engine_ray.sources.transcripts import (
        generate_conv_rows, transcripts_dataset)

    shutil.rmtree(MG_IDX, ignore_errors=True)
    # salting floor 128: the base salts its head, so the fan-out merges
    # salted splits (added generations inherit this config)
    meta = build_index(lambda: transcripts_dataset(150), MG_IDX,
                       IndexConfig(num_salts=2, block_size=16),
                       input_token="fanout-mg:base")
    assert meta["hot_terms"]
    add_documents(MG_IDX, lambda: ray.data.from_arrow(
        generate_conv_rows(np.arange(150, 190))), input_token="fanout-mg:g1")
    delete_docs(MG_IDX, doc_ids_for_convs(
        [f"conv-{i:08d}" for i in (3, 17, 42, 151, 160)]).tolist())
    add_documents(MG_IDX, lambda: ray.data.from_arrow(
        generate_conv_rows(np.arange(190, 210))), input_token="fanout-mg:g2")
    delete_docs(MG_IDX, doc_ids_for_convs(
        [f"conv-{i:08d}" for i in (5, 170, 195)]).tolist())
    yield MG_IDX
    shutil.rmtree(MG_IDX, ignore_errors=True)


@pytest.fixture(scope="module")
def both(multi_gen, test_index):
    # both indexes are built before the shard servers start: a build
    # cannot get the CPUs that live shard servers hold
    dist = DistributedSearcher(IDX, n_servers=3)
    yield IndexSearcher(IDX), dist
    _stop(dist)


def test_distributed_equals_local(both):
    local, dist = both
    for qid, q, k in query_set():
        d1, s1 = local.search(q, k)
        d2, s2 = dist.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)


def test_distributed_cache_warm(both):
    _, dist = both
    d1, s1 = dist.search("w0002 w0042", 10)
    d2, s2 = dist.search("w0002 w0042", 10)  # cached lists
    assert list(d1) == list(d2) and list(s1) == list(s2)


def _requests(local, q):
    """One request per mode, built from the local searcher's answers."""
    import numpy as np

    from open_source_search_engine_ray.query.engine import SearchRequest

    full = local.run(SearchRequest(q, local.n_docs))
    ids = np.sort(np.asarray(full.doc_ids, dtype=np.uint64))
    first = local.run(SearchRequest(q, 5))
    reqs = [SearchRequest(q, 10),
            SearchRequest(q, 5, offset=5, with_total=True),
            SearchRequest(q, 10, doc_ids=list(full.doc_ids[::2]) + [7]),
            SearchRequest(q, facet_table=(ids, ids % np.uint64(3))),
            SearchRequest(q, 7, attr_table=(ids, (ids % np.uint64(97))
                                            .astype(np.float64))),
            SearchRequest(q, 10, timeout_ms=60_000, max_list_bytes=64 * 24)]
    if first.cursor is not None:
        reqs.append(SearchRequest(q, 5, after=first.cursor))
    return reqs


def test_fanout_run_equals_local_across_modes(multi_gen, monkeypatch):
    """DistributedSearcher.run(req) == IndexSearcher.run(req) for ranked,
    page+total, cursor, restricted, facet, sortby and budgeted requests
    over generations and tombstones — and the merged lists match field by
    field, block maxima included (recomputed: the threshold is lowered so
    this small index reaches it, for the recompute and for the
    block-max plan alike)."""
    from open_source_search_engine_ray.query import engine, kernel

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 16)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", 16)
    local = IndexSearcher(MG_IDX)
    dist = DistributedSearcher(MG_IDX, n_servers=3)
    try:
        _compare_fanout(local, dist)
    finally:
        _stop(dist)


def _compare_fanout(local, dist):
    import numpy as np

    from open_source_search_engine_ray.query import engine

    n_block_max = 0
    for qid, q, _k in query_set():
        for req in _requests(local, q):
            a, b = local.run(req), dist.run(req)
            assert list(a.doc_ids) == list(b.doc_ids), (qid, req)
            assert list(a.scores) == list(b.scores), (qid, req)
            assert (a.total, a.cursor, a.partial) == \
                (b.total, b.cursor, b.partial), (qid, req)
            if a.facets is not None:
                assert a.facets[0] == b.facets[0], (qid, req)
                assert list(a.facets[1]) == list(b.facets[1]), (qid, req)
        pq = engine.parse_query(q, local.config.bigram_weight,
                                position_mode=local.config.position_mode)
        pos = pq.position_term_ids()
        la = local._collect_lists(pq, pos, None, None)[0]
        lb = dist._collect_lists(pq, pos, None, None)[0]
        assert la.keys() == lb.keys()
        for tid, ta in la.items():
            tb = lb[tid]
            assert (ta is None) == (tb is None), (qid, tid)
            if ta is None:
                continue
            for f in ("doc_ids", "tfs", "dl"):
                assert np.array_equal(getattr(ta, f), getattr(tb, f)), f
            assert ta.df == tb.df
            assert (ta.positions is None) == (tb.positions is None)
            if ta.positions is not None:
                assert all(np.array_equal(x, y) for x, y in
                           zip(ta.positions, tb.positions))
            assert (ta.block_max is None) == (tb.block_max is None)
            if ta.block_max is not None:
                n_block_max += 1
                assert np.array_equal(ta.block_max, tb.block_max)
    assert n_block_max > 0
