"""End-to-end invariants (FIXTURES.md §4): per-turn text equality, rank
identity vs the oracle, determinism across parallelism, salting
transparency, resume correctness."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from open_source_search_engine_ray.config import IndexConfig
from open_source_search_engine_ray.index.build import build_index, load_meta
from open_source_search_engine_ray.query.engine import IndexSearcher
from open_source_search_engine_ray.query.oracle import OracleIndex
from open_source_search_engine_ray.sources.queryset import query_set
from open_source_search_engine_ray.sources.transcripts import (
    transcripts_dataset, transcripts_table)

N_CONV = 300
IDX = "/tmp/osse_test_idx"


@pytest.fixture(scope="module")
def built_index(ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    meta = build_index(lambda: transcripts_dataset(N_CONV), IDX,
                       input_token=f"synthetic:n={N_CONV}")
    return meta


@pytest.fixture(scope="module")
def oracle():
    return OracleIndex(transcripts_table(N_CONV))


def test_build_meta(built_index):
    assert built_index["n_docs"] == N_CONV
    assert built_index["n_postings"] > 0
    assert built_index["avgdl"] > 0


def test_per_turn_text_equality(built_index):
    """Doc store read back + stable (conv_id, turn_idx) sort == input."""
    store = pads.dataset(os.path.join(IDX, "docstore"),
                         format="parquet").to_table()
    store = store.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    inp = transcripts_table(N_CONV).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert store.num_rows == inp.num_rows
    for col in ("conv_id", "turn_idx", "role", "text", "tool"):
        assert store[col].to_pylist() == inp[col].to_pylist(), col


def test_rank_identity(built_index, oracle):
    se = IndexSearcher(IDX)
    n_nonempty = 0
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)  # float64-exact
        n_nonempty += bool(len(d1))
    assert n_nonempty >= 8  # the query set actually exercises the corpus


def test_cached_lists_own_their_memory(built_index):
    """Decode returns views of the segment read's Arrow buffers; a cached
    list must copy them, or it pins buffers the cache budget never
    counts."""
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)

    n_block_max = 0
    for tok in ("w0002", "the", "w0123"):
        tid = int(np.uint64(hash64_lower_utf8(tok)) & TERMID_MASK)
        for wp in (False, True):
            se = IndexSearcher(IDX)
            tp = se.get_postings(tid, with_positions=wp)
            assert tp is not None and se._cache.get((tid, wp)) is tp
            arrays = [tp.doc_ids, tp.tfs, tp.dl]
            arrays += list(tp.positions) if wp else []
            if tp.block_max is not None:
                arrays.append(tp.block_max)
                n_block_max += 1
            for a in arrays:
                assert a.base is None and a.flags.owndata, tok
    assert n_block_max > 0


def test_field_weight_signal(built_index, oracle):
    """Marker terms planted per-role must hit, and the role filter must
    restrict to docs whose hits are in that field."""
    se = IndexSearcher(IDX)
    d, s = se.search("roleonlyterm_assistant", 10)
    assert len(d) > 0
    d2, _ = se.search("role:system roleonlyterm_assistant", 10)
    assert len(d2) == 0  # marker never appears in system turns


def test_determinism_across_parallelism(built_index, ray_session):
    """FIXTURES §4.3: different block counts → identical index contents."""
    idx2 = IDX + "_p2"
    shutil.rmtree(idx2, ignore_errors=True)
    build_index(lambda: transcripts_dataset(N_CONV, override_num_blocks=3),
                idx2, input_token=f"synthetic:n={N_CONV}:blocks3")
    se1, se2 = IndexSearcher(IDX), IndexSearcher(idx2)
    assert se1.n_docs == se2.n_docs and se1.avgdl == se2.avgdl
    for qid, q, k in query_set():
        d1, s1 = se1.search(q, k)
        d2, s2 = se2.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    # spot-check identical decoded postings for a few terms
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    for tok in ("w0002", "the", "w0123"):
        tid = int(np.uint64(hash64_lower_utf8(tok)) & TERMID_MASK)
        p1, p2 = se1.get_postings(tid), se2.get_postings(tid)
        assert (p1 is None) == (p2 is None)
        if p1 is not None:
            assert p1.doc_ids.tolist() == p2.doc_ids.tolist()
            assert p1.tfs.tolist() == p2.tfs.tolist()
            assert p1.dl.tolist() == p2.dl.tolist()
    shutil.rmtree(idx2, ignore_errors=True)


def test_salting_transparency(built_index, oracle, ray_session):
    """FIXTURES §4.4: hot-term salting on vs off → identical results."""
    idx3 = IDX + "_nosalt"
    shutil.rmtree(idx3, ignore_errors=True)
    cfg = IndexConfig(hot_df_ratio=10.0)  # threshold unreachable → no salting
    build_index(lambda: transcripts_dataset(N_CONV), idx3, cfg,
                input_token=f"synthetic:n={N_CONV}")
    assert load_meta(idx3)["hot_terms"] == []
    se = IndexSearcher(idx3)
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx3, ignore_errors=True)


def test_resume_after_partial_build(built_index, oracle, ray_session):
    """FIXTURES §4.5: delete some shards' segments+manifests, resume, and
    results must equal a fresh build."""
    idx4 = IDX + "_resume"
    shutil.rmtree(idx4, ignore_errors=True)
    shutil.copytree(IDX, idx4)
    # simulate a crash: 2 shards incomplete (one missing manifest, one
    # missing both manifest and segment)
    meta = load_meta(idx4)
    shards = meta["built_shards"][:2]
    from open_source_search_engine_ray.index.manifest import (
        manifest_path, segment_path)
    os.remove(manifest_path(idx4, shards[0]))
    os.remove(manifest_path(idx4, shards[1]))
    os.remove(segment_path(idx4, shards[1]))
    build_index(lambda: transcripts_dataset(N_CONV), idx4,
                input_token=f"synthetic:n={N_CONV}", resume=True)
    se = IndexSearcher(idx4)
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx4, ignore_errors=True)


def test_distributed_batch_eval(built_index, ray_session):
    from open_source_search_engine_ray.query.engine import (
        evaluate_queries_distributed)
    res = evaluate_queries_distributed(IDX, query_set(), concurrency=2)
    df = res.to_pandas()
    se = IndexSearcher(IDX)
    for qid, q, k in query_set():
        d, s = se.search(q, k)
        sub = df[df.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(x) for x in d]


def test_positions_cap_contract(ray_session):
    """max_positions_per_doc is applied once per (term, doc) at encode time
    after all batch partials merge — engine and oracle store identical
    (capped) positions regardless of batch boundaries, tf stays uncapped,
    and phrase semantics match (ADVICE r1 regression)."""
    import ray.data

    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)

    idx = IDX + "_cap"
    shutil.rmtree(idx, ignore_errors=True)
    rows = []
    for t in range(3):  # 360 occurrences of "spam" spread over 3 turns
        text = " ".join(["spam"] * 120) + (" endmark" if t == 2 else "")
        rows.append(("CAPA", t, "user", text))
    rows.append(("CAPB", 0, "user", "spam plain"))
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([None] * len(rows), pa.string()),
        "ts": pa.array([0] * len(rows), pa.timestamp("us")),
    })
    # repartition(3): the heavy doc's turns land in different batches
    build_index(lambda: ray.data.from_arrow(tbl).repartition(3), idx,
                input_token="captest")
    from open_source_search_engine_ray.query.oracle import OracleIndex
    orc = OracleIndex(tbl)
    se = IndexSearcher(idx)
    tid = int(np.uint64(hash64_lower_utf8("spam")) & TERMID_MASK)
    pe = se.get_postings(tid, with_positions=True)
    po = orc.get_postings(tid)
    assert pe.doc_ids.tolist() == po.doc_ids.tolist()
    fe, oe = pe.positions
    fo, oo = po.positions
    assert list(oe) == list(oo) and list(fe) == list(fo)
    cap = se.config.max_positions_per_doc
    lens = np.diff(np.asarray(oe))
    assert lens.max() == cap          # heavy doc truncated to the cap
    assert pe.tfs.sum(axis=1).max() == 360  # tf NOT capped
    # phrase semantics identical: "spam endmark" is adjacent only past the
    # cap → missed by BOTH sides (the documented contract)
    for q in ('"spam spam"', '"spam endmark"'):
        d1, s1 = se.search(q, 10)
        d2, s2 = orc.search(q, 10)
        assert list(d1) == list(d2) and list(s1) == list(s2), q
    d1, _ = se.search('"spam spam"', 10)
    assert len(d1) == 1               # only the heavy doc repeats spam
    shutil.rmtree(idx, ignore_errors=True)


def test_field_weight_override(built_index, oracle):
    """Per-query field-weight override (&hgw_* parm analogue): engine and
    oracle agree, and boosting the assistant field reorders results."""
    se = IndexSearcher(IDX)
    boost = (0.25, 4.0, 0.25, 0.25)  # assistant-heavy
    for q in ("w0002", "w0042 w0777", "the"):
        d1, s1 = se.search(q, 10, field_weights=boost)
        d2, s2 = oracle.search(q, 10, field_weights=boost)
        assert list(d1) == list(d2) and list(s1) == list(s2), q
    # the marker term lives only in assistant turns: boosting that field
    # must increase its top score vs the default weights
    d_def, s_def = se.search("roleonlyterm_assistant", 5)
    d_b, s_b = se.search("roleonlyterm_assistant", 5, field_weights=boost)
    assert len(s_b) and s_b[0] > s_def[0]


def test_doc_partitioned_build(oracle, ray_session):
    """salt_all_terms (the 10^11-doc path): every term split by doc % S, dl
    attached from per-salt partition files — no whole-corpus broadcast, no
    driver-side doc-stats merge — with exact rank identity vs the oracle."""
    import os

    idx = IDX + "_saltall"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = IndexConfig(salt_all_terms=True, num_salts=4)
    meta = build_index(lambda: transcripts_dataset(N_CONV), idx, cfg,
                       input_token=f"synthetic:n={N_CONV}")
    assert meta["hot_terms"] == []           # universal salting, no sampling
    assert len(meta["built_shards"]) == cfg.num_partitions * cfg.num_salts
    assert os.path.isdir(os.path.join(idx, "dlparts"))
    se = IndexSearcher(idx)
    assert se.n_docs == oracle.n_docs and se.avgdl == oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx, ignore_errors=True)


def test_hot_sampling_covers_corpus_tail(ray_session):
    """Hot-term estimation samples from a seeded random block permutation
    with row thinning — a term hot only in the corpus TAIL is still
    detected (the round-1 prefix take_batch missed it), deterministically."""
    import ray.data

    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    from open_source_search_engine_ray.index.build import estimate_hot_terms

    rows = []
    for i in range(50_000):
        txt = ("common filler words here" if i < 45_000
               else "tailhot tailhot marker")
        rows.append({"conv_id": f"c{i}", "turn_idx": 0, "role": "user",
                     "text": txt, "tool": None})
    ds = ray.data.from_items(rows).repartition(20)
    hot = estimate_hot_terms(ds, IndexConfig())
    tid = int(np.uint64(hash64_lower_utf8("tailhot")) & TERMID_MASK)
    assert tid in set(int(t) for t in hot)
    hot2 = estimate_hot_terms(ds, IndexConfig())
    assert set(map(int, hot)) == set(map(int, hot2))  # seeded → stable


def test_pagination_and_total_hits(built_index, oracle):
    """search_page: page 2 equals rows 11-20 of a k=20 search (identical
    under pruning — engine prunes, oracle doesn't), and with_total returns
    the exact candidate count (Msg39 total-hits analogue)."""
    se = IndexSearcher(IDX)
    for q in ("the", "w0042 w0777", '"w0042 w0777"', "w0002"):
        d20, s20, tot = se.search_page(q, 20, 0, with_total=True)
        d2, s2, _ = se.search_page(q, 10, offset=10)
        assert list(d2) == list(d20[10:20]) and list(s2) == list(s20[10:20])
        od, osc, otot = oracle.search_page(q, 20, 0, with_total=True)
        assert list(d20) == list(od) and list(s20) == list(osc)
        assert tot == otot
        dall, _, _ = se.search_page(q, 10 ** 6)
        assert tot == len(dall), q  # total == number of all matches


def test_default_synonym_table(built_index, oracle):
    """The shipped synonym/variation table (functions/synonyms.py — the
    STO/WordVariations stand-in): number variants per the reference's own
    expansion test ('the one' → the, one, 1), possessive strip, engine ==
    oracle with the table active, and variant-only matches scored at 0.9."""
    from open_source_search_engine_ray.functions.synonyms import (
        DEFAULT_SYNONYMS, variants_for)
    from open_source_search_engine_ray.query.parse import parse_query

    # reference parity: test/system/test_search_terms.py:4-18
    pq = parse_query("the one", synonyms=DEFAULT_SYNONYMS)
    toks = [t.token for t in pq.terms]
    assert "the" in toks and "one" in toks and "1" in toks
    assert "the one" in toks            # bigram boost term
    assert variants_for("dave's") == ["dave"]
    assert "8" in variants_for("eight") and "eight" in variants_for("8")
    assert "quick" in variants_for("fast")

    se = IndexSearcher(IDX)
    # engine == oracle with the table active (float64-exact)
    for q in ("eight", "prices eight", "the one", "dave's code"):
        d1, s1 = se.search(q, 10, synonyms="default")
        d2, s2 = oracle.search(q, 10, synonyms="default")
        assert list(d1) == list(d2) and list(s1) == list(s2), q
    # 'eight' is OOV in the corpus: its hits come solely from the '8'
    # variant at weight 0.9
    d8, s8 = se.search("8", 10)
    dv, sv = se.search("eight", 10, synonyms="default")
    assert len(dv) and list(dv) == list(d8)
    assert np.allclose(np.asarray(sv), 0.9 * np.asarray(s8), rtol=1e-12)


def test_resume_skips_spill_after_encode_crash(ray_session, monkeypatch,
                                               oracle):
    """A crash during the encode stage leaves the spilled runs + stage
    manifests behind; resume must NOT re-tokenize the corpus (the spill
    pass is ~55% of build time) and must produce an identical index."""
    import open_source_search_engine_ray.index.build as build_mod
    import open_source_search_engine_ray.stages.spill as spill_mod

    idx = IDX + "_spillresume"
    shutil.rmtree(idx, ignore_errors=True)
    orig_encode = build_mod._encode_shard_chunk

    def boom(*a, **k):
        raise RuntimeError("injected encode crash")

    monkeypatch.setattr(build_mod, "_encode_shard_chunk", boom)
    with pytest.raises(Exception):
        build_index(lambda: transcripts_dataset(N_CONV), idx,
                    input_token=f"synthetic:n={N_CONV}")
    monkeypatch.setattr(build_mod, "_encode_shard_chunk", orig_encode)

    def no_spill(*a, **k):
        raise AssertionError("spill pass re-ran on resume")

    monkeypatch.setattr(spill_mod, "spill_postings", no_spill)
    meta = build_index(lambda: transcripts_dataset(N_CONV), idx,
                       input_token=f"synthetic:n={N_CONV}", resume=True)
    assert meta["phase_sec"]["spill"] == 0.0
    se = IndexSearcher(idx)
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx, ignore_errors=True)


def test_explain(built_index):
    """explain() reports per-term stats and the chosen evaluation path."""
    se = IndexSearcher(IDX)
    e = se.explain("w0042 w0777")
    assert e["n_docs"] == N_CONV and len(e["terms"]) >= 2
    toks = {t["token"]: t for t in e["terms"]}
    assert toks["w0042"]["df"] > 0 and toks["w0042"]["idf"] is not None
    assert e["eval_path"].startswith("exact")
    assert se.explain('"w0042 w0777"')["phrases"]
    assert se.explain("(w0042 OR w0777)")["eval_path"] == "boolean-tree"
    # at this corpus scale single terms have df < 4096 → no block-max
    # metadata → the kernel truly takes the exact route, and explain must
    # say so (it mirrors evaluate's guards, incl. the field-scope one)
    assert se.explain("w0002")["eval_path"] == "exact"
    assert se.explain("role:user w0002")["eval_path"].startswith("exact")
