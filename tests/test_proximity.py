"""Proximity re-ranker (kernel.evaluate_rerank): term-pair min-distance
boost over the BM25F top page — the ``PosdbTable.cpp:736-803,3077-3444``
term-pair signal under the BM25F contract (VERDICT r2 next-step #2)."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from open_source_search_engine_ray.functions.ghash import doc_id_for_conv
from open_source_search_engine_ray.query.oracle import OracleIndex


def _mk(rows):
    conv_id, turn_idx, role, text, tool, ts = [], [], [], [], [], []
    for c, t, r, x in rows:
        conv_id.append(c)
        turn_idx.append(t)
        role.append(r)
        text.append(x)
        tool.append("bash" if r == "tool" else None)
        ts.append(0)
    return pa.table({
        "conv_id": pa.array(conv_id),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(role), "text": pa.array(text),
        "tool": pa.array(tool, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })


def test_proximity_flips_tied_docs():
    """Two docs with IDENTICAL BM25 profiles (same tf, same dl): baseline
    tie-break is doc_id asc; the adjacent-terms doc is planted on the
    LARGER doc_id, so only the proximity boost can put it first."""
    ids = {c: doc_id_for_conv(c) for c in ("convA", "convB")}
    lo, hi = sorted(ids, key=lambda c: ids[c])
    near_text = "alpha z9 beta w1 w2 w3 w4"      # dist 2 (no bigram match)
    far_text = "alpha v1 v2 v3 v4 v5 beta"       # dist 6, same 7 tokens
    o = OracleIndex(_mk([(hi, 0, "user", near_text),
                         (lo, 0, "user", far_text)]))
    docs, scores = o.search("alpha beta", 2)
    assert list(docs) == [ids[lo], ids[hi]]      # tie → doc_id asc
    assert scores[0] == scores[1]
    rdocs, rscores = o.search("alpha beta", 2, rerank="proximity")
    assert list(rdocs) == [ids[hi], ids[lo]]     # proximity flips it
    assert rscores[0] > rscores[1]
    # boost contract: score · (1 + 0.25 · 1/(1+min_dist))
    assert rscores[0] == pytest.approx(scores[0] * (1 + 0.25 / 3.0))
    assert rscores[1] == pytest.approx(scores[1] * (1 + 0.25 / 7.0))


def test_proximity_cross_turn_contributes_little():
    """Terms in different turns sit TURN_STRIDE apart — the boost must be
    negligible relative to a same-turn pair."""
    o = OracleIndex(_mk([
        ("same", 0, "user", "alpha beta w1 w2"),
        ("cross", 0, "user", "alpha w1 w2 w3"),
        ("cross", 1, "user", "beta w4 w5 w6"),
    ]))
    d_same, s_same = o.search("alpha beta", 2, rerank="proximity")
    base_d, base_s = o.search("alpha beta", 2)
    same_id = doc_id_for_conv("same")
    i_r = list(d_same).index(same_id)
    i_b = list(base_d).index(same_id)
    boost_same = s_same[i_r] / base_s[i_b]
    cross_id = doc_id_for_conv("cross")
    j_r = list(d_same).index(cross_id)
    j_b = list(base_d).index(cross_id)
    boost_cross = s_same[j_r] / base_s[j_b]
    assert boost_same > 1.05
    assert 1.0 <= boost_cross < 1.001


def test_proximity_single_term_noop():
    o = OracleIndex(_mk([("A", 0, "user", "alpha w1"),
                         ("B", 0, "user", "alpha alpha")]))
    d1, s1 = o.search("alpha", 2)
    d2, s2 = o.search("alpha", 2, rerank="proximity")
    assert list(d1) == list(d2)
    assert list(s1) == list(s2)


def test_engine_oracle_rerank_identity(ray_session):
    """Engine == oracle (docIDs + float64 scores) with rerank on, across
    the standard query set — same bar as the base rank-identity test."""
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.query.engine import (IndexSearcher,
                                                            SearchRequest)
    from open_source_search_engine_ray.sources.queryset import query_set
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset, transcripts_table)

    n = 120
    idx = "/tmp/osse_prox_idx"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(n), idx,
                input_token=f"synthetic:n={n}")
    se = IndexSearcher(idx)
    o = OracleIndex(transcripts_table(n))
    n_checked = 0
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k, rerank="proximity")
        d2, s2 = o.search(q, k, rerank="proximity")
        assert list(d1) == list(d2), (qid, q)
        assert list(map(float, s1)) == list(map(float, s2)), (qid, q)
        n_checked += 1
    assert n_checked >= 10
    e = se.explain(SearchRequest("hello world", rerank="proximity"))
    assert "proximity" in (e["rerank"] or "")
    shutil.rmtree(idx, ignore_errors=True)
