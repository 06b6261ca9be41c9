"""Round-3 hardening: byte-bounded decoded-list caches (VERDICT r2
next-step #6) and hot-term layout persistence across resume (ADVICE r2
medium — a resume must place hot terms in the shards a completed
partition actually wrote)."""

import os
import shutil

import numpy as np
import pytest

from open_source_search_engine_ray.query.cache import LruBytesCache, MISSING


def test_lru_bytes_cache_semantics():
    c = LruBytesCache(max_bytes=1000)
    a = np.zeros(50, dtype=np.int64)            # ~400 + 64 bytes
    c.put("a", a)
    c.put("b", np.zeros(50, dtype=np.int64))
    assert c.get("a") is a
    # inserting a third 464-byte entry busts 1000 → evict LRU ("b",
    # since "a" was touched last)
    c.put("c", np.zeros(50, dtype=np.int64))
    assert c.get("b", MISSING) is MISSING
    assert c.get("a") is a
    assert c.get("c") is not None
    # None is a legitimate cached value, distinct from a miss
    c.put("n", None)
    assert c.get("n", MISSING) is None
    # a single entry over budget is kept (never evict the newest)
    c.put("big", np.zeros(1000, dtype=np.int64))
    assert c.get("big") is not None
    assert len(c) >= 1


def test_cache_counters(test_index):
    """Every lookup is one hit or one miss; evictions count the entries
    the budget pushed out."""
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    from open_source_search_engine_ray.query.engine import IndexSearcher

    from conftest import TEST_INDEX

    c = LruBytesCache(max_bytes=1000)
    for key in "abc":                  # 464 bytes each: "c" evicts "a"
        c.put(key, np.zeros(50, dtype=np.int64))
    c.get("a")
    c.lookup(["a", "b"])
    d = LruBytesCache(max_bytes=1000)
    d.take_over(c)                     # carries "c", then "b" (newest)
    assert d.take("a", MISSING) is MISSING and d.take("b") is not None
    d.put("x", np.zeros(100, dtype=np.int64))   # 864 bytes: evicts "c"
    assert d.take("c", MISSING) is MISSING and d.nbytes == 864
    # carrying and taking are not lookups
    assert (c.hits, c.misses, c.evictions) == (1, 1, 1)
    assert (d.hits, d.misses, d.evictions) == (0, 0, 1)

    a, b, t = (int(np.uint64(hash64_lower_utf8(tok)) & TERMID_MASK)
               for tok in ("w0002", "w0042", "the"))
    # a list read with positions serves a fetch without them; the counts
    # are the same whether or not the searcher took over lists
    seq = [(a, False), (a, False), (b, True), (b, False), (b, True),
           (t, False), (a, False)]
    se = IndexSearcher(TEST_INDEX)
    for tid, wp in seq:
        se.get_postings(tid, with_positions=wp)
    cache = se._cache
    assert (cache.hits, cache.misses) == (4, 3)
    assert cache.hits + cache.misses == len(seq)
    assert se.carried <= cache.misses


def test_searcher_cache_bounded(ray_session):
    """A distinct-term query stream through a capped searcher stays within
    the byte budget and returns the same results as an uncapped one."""
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.query.engine import IndexSearcher
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset)

    idx = "/tmp/osse_cache_idx"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(150), idx,
                input_token="synthetic:n=150")
    cap = 150_000
    capped = IndexSearcher(idx, cache_bytes=cap)
    full = IndexSearcher(idx)
    hits = 0
    for i in range(250):
        q = f"w{i:04d}"
        d1, s1 = capped.search(q, 5)
        d2, s2 = full.search(q, 5)
        assert list(d1) == list(d2) and list(s1) == list(s2), q
        hits += len(d1) > 0
    assert hits > 50                      # the stream actually hit terms
    # soft bound: at most the budget + one oversized newest entry
    assert capped._cache.nbytes <= cap * 2
    assert len(capped._cache) < len(full._cache)
    shutil.rmtree(idx, ignore_errors=True)


def test_hot_terms_persisted_for_resume(ray_session, monkeypatch):
    """Resume must reuse the hot-term set the completed partitions were
    salted under — read from their manifests, never decided again — and
    re-decide only the partitions it re-encodes."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index import build as B
    from open_source_search_engine_ray.index.manifest import manifest_path
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset)

    idx = "/tmp/osse_hotresume_idx"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = IndexConfig(num_salts=2, block_size=16)   # salting floor 128
    meta1 = B.build_index(lambda: transcripts_dataset(150), idx, cfg,
                          input_token="synthetic:n=150")
    assert meta1["hot_terms"], "nothing salted: the test proves nothing"

    def poisoned(*a, **k):
        raise AssertionError("resume decided hot terms again")

    # everything complete: every hot term comes from a manifest
    monkeypatch.setattr(B, "_hot_terms", poisoned)
    meta2 = B.build_index(lambda: transcripts_dataset(150), idx, cfg,
                          input_token="synthetic:n=150", resume=True)
    assert meta2["hot_terms"] == meta1["hot_terms"]
    monkeypatch.undo()
    # one hot partition lost its manifest: it alone is re-encoded, and
    # the union of decided and recorded hot terms comes out the same
    part = meta1["hot_terms"][0] % cfg.num_partitions
    os.remove(manifest_path(idx, part))
    meta3 = B.build_index(lambda: transcripts_dataset(150), idx, cfg,
                          input_token="synthetic:n=150", resume=True)
    assert meta3["hot_terms"] == meta1["hot_terms"]
    shutil.rmtree(idx, ignore_errors=True)


def test_asof_join_click_only_user(ray_session, tmp_path):
    """Review fix: a user with clicks but zero views must produce null
    view_value rows, not an IndexError; tied view timestamps must resolve
    deterministically to the max value (both engine and oracle)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from open_source_search_engine_ray.pipelines import relational

    ts = pd.to_datetime([
        "2024-01-01 10:00:00",           # u1 click (no views at all)
        "2024-01-01 10:05:00",           # u2 view  (value 1.0)
        "2024-01-01 10:05:00",           # u2 view  tied ts (value 9.0)
        "2024-01-01 10:06:00",           # u2 click -> view_value 9.0
    ])
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(ts.to_numpy(), pa.timestamp("us")),
        "user_id": pa.array([1, 2, 2, 2], pa.int64()),
        "event_type": pa.array(["click", "view", "view", "click"]),
        "value": pa.array([5.0, 1.0, 9.0, 3.0]),
        "props": pa.array(["{}"] * 4),
    })
    sf = str(tmp_path)
    pq.write_table(tbl, f"{sf}/events.parquet")

    got = (relational.events_asof_join(sf).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    assert len(got) == 2
    assert np.isnan(got.loc[0, "view_value"])        # click-only user
    assert got.loc[0, "lag_us"] == -1
    assert got.loc[1, "view_value"] == 9.0           # max of the tie

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(relational.events_asof_join_sql()).fetchdf()
    assert want.loc[1, "view_value"] == 9.0


def test_refresh_and_compact_on_fully_tombstoned_index(ray_session):
    """Review fix: Ray returns None for an empty-dataset aggregate —
    refresh_stats and compact_merge must survive an index whose every
    document is tombstoned (n_docs == 0, no crash, empty search)."""
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.index.merge import (
        compact_merge, delete_convs, refresh_stats)
    from open_source_search_engine_ray.query.engine import IndexSearcher
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset, transcripts_table)

    idx = "/tmp/osse_alltomb_idx"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(60), idx,
                input_token="synthetic:n=60")
    convs = transcripts_table(60)["conv_id"].unique()
    delete_convs(idx, [str(c) for c in convs])

    stats = refresh_stats(idx)
    assert stats["n_docs"] == 0 and stats["total_dlq"] == 0

    compact_merge(idx)
    docs, scores = IndexSearcher(idx).search("w0042", 10)
    assert len(docs) == 0
    shutil.rmtree(idx, ignore_errors=True)


def test_top_terms_fallback_exact_under_tiny_sketch(ray_session,
                                                    monkeypatch):
    """Review fix: with a sketch too small to certify the candidate set
    (every batch truncates heavily), top_terms must detect the failed
    soundness bound and fall back to the exact full-vocabulary count —
    the result must STILL equal the SQL oracle."""
    import duckdb
    import pandas as pd

    from open_source_search_engine_ray.pipelines import text_analysis as T

    SF = "/root/testdata/sf0.001"
    monkeypatch.setattr(T, "MG_CAPACITY", 8)   # force truncation everywhere
    got = T.top_terms(SF).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(T.top_terms_sql()).fetchdf()
    pd.testing.assert_frame_equal(
        got.sort_values(["n", "term"], ascending=[False, True])
           .reset_index(drop=True),
        want.sort_values(["n", "term"], ascending=[False, True])
            .reset_index(drop=True),
        check_dtype=False)


def test_pii_scan_and_redact_planted_corpus(ray_session, tmp_path):
    """PII ops against a PLANTED corpus (the synthetic tables are
    PII-free, so this is the real oracle check): engine == DuckDB on
    detection counts and redacted text."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from open_source_search_engine_ray.pipelines import curation

    texts = [
        "contact me at jane.doe+test@example.co.uk or call 555-867-5309",
        "two mails: a@b.io c.d@e-f.org and +1 (212) 555-0187 x99",
        "clean document with no sensitive spans at all",
        "edge@case.museum trailing, phone 1-800-555-12345 overlong",
        "",
        None,  # NULL text: engine coalesces to '', SQL COALESCEs too
    ]
    tbl = pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "lang": pa.array(["en"] * 6),
        "text": pa.array(texts, pa.string()),
    })
    sf = str(tmp_path)
    pq.write_table(tbl, f"{sf}/documents.parquet")

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    def _pd(res):
        return res.to_pandas() if hasattr(res, "to_pandas") else res

    for fn, sql in ((curation.pii_scan, curation.pii_scan_sql()),
                    (curation.pii_redact, curation.pii_redact_sql())):
        got = (_pd(fn(sf)).sort_values("doc_id")
               .reset_index(drop=True))
        want = (con.execute(sql).fetchdf().sort_values("doc_id")
                .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    scan = _pd(curation.pii_scan(sf))
    assert len(scan) >= 3                         # planted dirty docs hit
    red = _pd(curation.pii_redact(sf)).sort_values("doc_id")
    assert "<EMAIL>" in red["text"].iloc[0] and "<PHONE>" in red["text"].iloc[0]
    assert red["text"].iloc[2] == texts[2]        # clean doc untouched
