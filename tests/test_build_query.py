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
from open_source_search_engine_ray.query.engine import (IndexSearcher,
                                                        SearchRequest)
from open_source_search_engine_ray.query.oracle import OracleIndex
from open_source_search_engine_ray.sources.queryset import query_set
from open_source_search_engine_ray.sources.transcripts import (
    transcripts_dataset, transcripts_table)

from conftest import TEST_INDEX as IDX

N_CONV = 300


@pytest.fixture(scope="module")
def oracle():
    return OracleIndex(transcripts_table(N_CONV))


# the salting floor (num_salts × block_size × 4) is 128 here, so this
# corpus salts its head; at the default settings it salts nothing
SALTED = IndexConfig(num_salts=2, block_size=16)


@pytest.fixture(scope="module")
def salted_index(ray_session):
    idx = IDX + "_salted"
    shutil.rmtree(idx, ignore_errors=True)
    meta = build_index(lambda: transcripts_dataset(N_CONV), idx, SALTED,
                       input_token=f"synthetic:n={N_CONV}")
    assert meta["hot_terms"], "the salted fixture salted nothing"
    yield idx
    shutil.rmtree(idx, ignore_errors=True)


def test_build_meta(test_index):
    assert test_index["n_docs"] == N_CONV
    assert test_index["n_postings"] > 0
    assert test_index["avgdl"] > 0


def test_per_turn_text_equality(test_index):
    """Doc store read back + stable (conv_id, turn_idx) sort == input."""
    store = pads.dataset(os.path.join(IDX, "docstore"),
                         format="parquet").to_table()
    store = store.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    inp = transcripts_table(N_CONV).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert store.num_rows == inp.num_rows
    for col in ("conv_id", "turn_idx", "role", "text", "tool"):
        assert store[col].to_pylist() == inp[col].to_pylist(), col


def test_rank_identity(test_index, oracle):
    se = IndexSearcher(IDX)
    n_nonempty = 0
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)  # float64-exact
        n_nonempty += bool(len(d1))
    assert n_nonempty >= 8  # the query set actually exercises the corpus


def test_cached_lists_own_their_memory(test_index, monkeypatch):
    """Decode returns views of the segment read's Arrow buffers; a cached
    list must copy them, or it pins buffers the cache budget never
    counts.  The block-max floor is lowered so lists carry block maxima
    computed at fetch."""
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    from open_source_search_engine_ray.query import engine, kernel

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 16)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", 16)
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


def test_block_maxima_ignore_salting(test_index, salted_index, monkeypatch):
    """Block maxima are computed from the merged list at fetch: a term
    split across salts gets the same ones as the same term unsplit."""
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    from open_source_search_engine_ray.query import engine, kernel

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 16)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", 16)
    # the salted build's config with nothing hot: only the split differs
    idx = IDX + "_unsplit"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(N_CONV), idx,
                IndexConfig(num_salts=2, block_size=16, hot_df_ratio=2.0),
                input_token=f"synthetic:n={N_CONV}:unsplit")
    assert load_meta(idx)["hot_terms"] == []
    hot = load_meta(salted_index)["hot_terms"]
    unsplit, salted = IndexSearcher(idx), IndexSearcher(salted_index)
    assert unsplit.avgdl == salted.avgdl
    n_hot = 0
    for tok in ("w0002", "the", "w0042"):
        tid = int(np.uint64(hash64_lower_utf8(tok)) & TERMID_MASK)
        a, b = unsplit.get_postings(tid), salted.get_postings(tid)
        assert np.array_equal(a.doc_ids, b.doc_ids), tok
        assert a.block_max is not None and b.block_max is not None, tok
        assert a.block_max.dtype == np.float32
        assert np.array_equal(a.block_max, b.block_max), tok
        n_hot += tid in hot
    assert n_hot > 0
    shutil.rmtree(idx, ignore_errors=True)


def test_field_weight_signal(test_index, oracle):
    """Marker terms planted per-role must hit, and the role filter must
    restrict to docs whose hits are in that field."""
    se = IndexSearcher(IDX)
    d, s = se.search("roleonlyterm_assistant", 10)
    assert len(d) > 0
    d2, _ = se.search("role:system roleonlyterm_assistant", 10)
    assert len(d2) == 0  # marker never appears in system turns


def test_determinism_across_parallelism(test_index, ray_session):
    """FIXTURES §4.3: different block counts → identical index contents:
    byte-identical segment files and doc tables, and the same results."""
    idx2 = IDX + "_p2"
    shutil.rmtree(idx2, ignore_errors=True)
    build_index(lambda: transcripts_dataset(N_CONV, override_num_blocks=3),
                idx2, input_token=f"synthetic:n={N_CONV}:blocks3")
    files = _segment_bytes(IDX)
    assert "table-00000.docs" in files and any(
        name.endswith(".seg") for name in files)
    assert _segment_bytes(idx2) == files
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


def test_salting_transparency(test_index, salted_index, oracle):
    """FIXTURES §4.4: hot-term salting on vs off → identical results."""
    assert test_index["hot_terms"] == []   # below the floor: unsalted
    plain, salted = IndexSearcher(IDX), IndexSearcher(salted_index)
    for qid, q, k in query_set():
        d1, s1 = salted.search(q, k)
        d2, s2 = plain.search(q, k)
        d3, s3 = oracle.search(q, k)
        assert list(d1) == list(d2) == list(d3), qid
        assert list(s1) == list(s2) == list(s3), qid


def test_resume_after_partial_build(test_index, oracle, ray_session):
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


def test_distributed_batch_eval(test_index, ray_session,
                                assert_cpus_released):
    from open_source_search_engine_ray.query.engine import (
        evaluate_queries_distributed)

    def run():
        return evaluate_queries_distributed(IDX, query_set(),
                                            concurrency=2).to_pandas()

    df = run()
    # the pool is gone when the call returns: no collection needed
    assert_cpus_released("evaluate_queries_distributed")
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


def test_field_weight_override(test_index, oracle):
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
    assert meta["hot_terms"] == []           # universal salting: none hot
    assert len(meta["built_shards"]) == cfg.num_partitions * cfg.num_salts
    assert os.path.isdir(os.path.join(idx, "dlparts"))
    se = IndexSearcher(idx)
    assert se.n_docs == oracle.n_docs and se.avgdl == oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx, ignore_errors=True)


def _hot_tokens(ds, cfg, tokens) -> set:
    """The ``tokens`` a spill build of ``ds`` under ``cfg`` salts."""
    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)

    idx = IDX + "_hot"
    shutil.rmtree(idx, ignore_errors=True)
    hot = set(build_index(lambda: ds, idx, cfg,
                          input_token="hot-rule")["hot_terms"])
    shutil.rmtree(idx, ignore_errors=True)
    return {tok for tok in tokens
            if int(np.uint64(hash64_lower_utf8(tok)) & TERMID_MASK) in hot}


def test_hot_terms_cover_corpus_tail(ray_session):
    """A term hot only in the corpus TAIL is salted: the encode step
    counts every posting, so where a term sits in the input does not
    matter (a round-1 prefix sample missed exactly this term)."""
    import ray.data

    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "role": "user",
             "text": ("common filler words here" if i < 4_500
                      else "tailhot tailhot marker"), "tool": None}
            for i in range(5_000)]
    ds = ray.data.from_items(rows).repartition(20)
    assert "tailhot" in _hot_tokens(ds, SALTED, ("tailhot",))


def test_hot_terms_need_ratio_and_floor(ray_session):
    """A term is salted only when it occurs in ≥ hot_df_ratio of the input
    turns AND its list holds ≥ num_salts × block_size × 4 docs; the
    result does not depend on the input's blocks."""
    import ray.data

    cfg = IndexConfig(num_salts=2, block_size=64)        # floor 512
    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "role": "user",
             "text": " ".join(["bigterm"] * (i % 10 < 3)
                              + ["smallterm"] * (i % 20 < 3)
                              + [f"u{i}"]),
             "tool": None} for i in range(2000)]
    toks = ("bigterm", "smallterm")        # 600 and 300 turns, both ≥ 5%
    # ratio without floor: smallterm's 300 docs stay below 512
    hot = _hot_tokens(ray.data.from_items(rows).repartition(3), cfg, toks)
    assert hot == {"bigterm"}
    assert _hot_tokens(ray.data.from_items(rows).repartition(11), cfg,
                       toks) == hot
    # floor 4: the ratio alone decides, and both are salted
    assert _hot_tokens(ray.data.from_items(rows).repartition(3),
                       IndexConfig(num_salts=1, block_size=1),
                       toks) == set(toks)
    # floor without ratio: bigterm's 600 docs clear the floor, but 30% of
    # the turns is below a 50% ratio
    assert _hot_tokens(ray.data.from_items(rows).repartition(3),
                       IndexConfig(num_salts=2, block_size=64,
                                   hot_df_ratio=0.5), toks) == set()


def _segment_bytes(idx: str) -> dict:
    seg = os.path.join(idx, "segments", "gen=0")
    out = {}
    for name in sorted(os.listdir(seg)):
        with open(os.path.join(seg, name), "rb") as f:
            out[name] = f.read()
    return out


def test_build_is_a_function_of_the_corpus(salted_index, ray_session,
                                           monkeypatch):
    """Under a salting config, the segment files and the hot set depend
    on the corpus alone: (a) the input's partitioning, (b) the small
    in-process path vs the spill path and (c) a resume after an encode
    crash all give byte-identical segments and the same hot terms."""
    import ray.data

    import open_source_search_engine_ray.index.build as build_mod

    ref_meta = load_meta(salted_index)
    ref = _segment_bytes(salted_index)
    assert ref_meta["hot_terms"]
    assert ref_meta["n_turns"] == transcripts_table(N_CONV).num_rows
    tbl = transcripts_table(N_CONV)
    idx = IDX + "_determinism"

    def check(meta):
        assert meta["hot_terms"] == ref_meta["hot_terms"]
        assert meta["n_turns"] == ref_meta["n_turns"]
        assert _segment_bytes(idx) == ref

    # (a) partitioning
    for blocks in (3, 11):
        shutil.rmtree(idx, ignore_errors=True)
        check(build_index(lambda: ray.data.from_arrow(tbl).repartition(
            blocks), idx, SALTED, input_token=f"synthetic:n={N_CONV}"))
    # (b) the small in-process path
    shutil.rmtree(idx, ignore_errors=True)
    meta = build_index(lambda: transcripts_dataset(N_CONV), idx, SALTED,
                       input_token=f"synthetic:n={N_CONV}",
                       small_input_max_rows=100_000)
    assert "small_tokenize" in meta["phase_sec"]
    check(meta)
    # (c) the chunk holding the first hot term's partition fails after
    # writing it; that partition also loses its manifest, as if the crash
    # had come before the manifest write
    hot_part = ref_meta["hot_terms"][0] % SALTED.num_partitions
    orig = build_mod._encode_shard_chunk

    def crash(run_files, parts, *a):
        out = orig(run_files, parts, *a)
        if hot_part in parts:
            raise RuntimeError("injected encode crash")
        return out

    shutil.rmtree(idx, ignore_errors=True)
    monkeypatch.setattr(build_mod, "_encode_shard_chunk", crash)
    with pytest.raises(Exception, match="injected encode crash"):
        build_index(lambda: transcripts_dataset(N_CONV), idx, SALTED,
                    input_token=f"synthetic:n={N_CONV}")
    monkeypatch.setattr(build_mod, "_encode_shard_chunk", orig)
    from open_source_search_engine_ray.index.manifest import manifest_path
    os.remove(manifest_path(idx, hot_part))
    meta = build_index(lambda: transcripts_dataset(N_CONV), idx, SALTED,
                       input_token=f"synthetic:n={N_CONV}", resume=True)
    assert meta["phase_sec"]["spill"] == 0.0
    check(meta)
    shutil.rmtree(idx, ignore_errors=True)


def test_old_layout_fails_loudly(salted_index, tmp_path):
    """A format_version 3 index numbered its hot shards by hot-term rank,
    a format_version 4 one stored statistics and block maxima in its
    segments, a format_version 5 one wrote Arrow IPC segment files, a
    format_version 6 one Parquet segment files and a format_version 7
    one docId gaps and doc lengths in its posting blocks: opening any
    must fail, name the index and ask for a rebuild, not read wrong
    shards, columns or no files."""
    import json
    import re

    from open_source_search_engine_ray.index.merge import compact_merge

    idx = str(tmp_path / "v3")
    shutil.copytree(salted_index, idx)
    path = os.path.join(idx, "index_meta.json")
    with open(path) as f:
        meta = json.load(f)
    assert meta["hot_terms"]
    for version in (3, 4, 5, 6, 7):
        meta["config"]["format_version"] = version
        with open(path, "w") as f:
            json.dump(meta, f)
        match = f"{re.escape(idx)} has format_version {version}.*rebuild"
        with pytest.raises(ValueError, match=match):
            IndexSearcher(idx)
        with pytest.raises(ValueError, match=match):
            compact_merge(idx)


def test_index_caches_rebuild_another_writers_index(tmp_path,
                                                    monkeypatch):
    """The pipelines' index caches reuse a cached index only when the
    writer that built it is this one: an index whose meta records
    another writer digest (an older segment layout under the same
    config) is cleared and rebuilt, and this writer's index is reused
    without a build."""
    import json

    from open_source_search_engine_ray.index.build import writer_digest
    from open_source_search_engine_ray.pipelines import (engine_docs,
                                                         transcripts_flagship)

    builds = []

    def fake_build(factory, out_dir, config, **kwargs):
        builds.append(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "index_meta.json"), "w") as f:
            json.dump({"writer_digest": writer_digest()}, f)

    for mod, root, ensure in (
            (transcripts_flagship, "CACHE_ROOT", "ensure_index"),
            (engine_docs, "DOCS_CACHE_ROOT", "_ensure_docs_index")):
        monkeypatch.setattr(mod, root, str(tmp_path / root))
        monkeypatch.setattr(mod, "build_index", fake_build, raising=False)
        monkeypatch.setattr(
            "open_source_search_engine_ray.index.build.build_index",
            fake_build)
        builds.clear()
        idx = getattr(mod, ensure)("/data/sf0.001")
        assert builds == [idx] and writer_digest() in idx
        # plant an index another writer built in the same directory
        stale = os.path.join(idx, "segments", "stale.seg")
        os.makedirs(os.path.dirname(stale))
        open(stale, "wb").close()
        with open(os.path.join(idx, "index_meta.json"), "w") as f:
            json.dump({"writer_digest": "0" * 16}, f)
        assert getattr(mod, ensure)("/data/sf0.001") == idx
        assert builds == [idx, idx] and not os.path.exists(stale)
        assert getattr(mod, ensure)("/data/sf0.001") == idx
        assert builds == [idx, idx]


def test_missing_segments_fail_loudly(test_index, tmp_path):
    """An index whose meta counts terms but whose segment directory
    holds no segment file (moved, or of another layout) must fail on
    open, naming the generation directory, not answer every query with
    nothing."""
    idx = str(tmp_path / "moved")
    shutil.copytree(IDX, idx)
    assert test_index["n_terms"] > 0
    os.rename(os.path.join(idx, "segments"),
              os.path.join(idx, "segments.moved"))
    with pytest.raises(ValueError, match=f"{idx}: .*no part-"):
        IndexSearcher(idx)


def test_pagination_and_total_hits(test_index, oracle):
    """offset paging: page 2 equals rows 11-20 of a k=20 search (identical
    under pruning — engine prunes, oracle doesn't), and with_total returns
    the exact candidate count (Msg39 total-hits analogue)."""
    se = IndexSearcher(IDX)
    for q in ("the", "w0042 w0777", '"w0042 w0777"', "w0002"):
        r20 = se.run(SearchRequest(q, 20, with_total=True))
        d20, s20, tot = r20.doc_ids, r20.scores, r20.total
        d2, s2 = se.search(q, 10, offset=10)
        assert list(d2) == list(d20[10:20]) and list(s2) == list(s20[10:20])
        od, osc, otot = oracle.search_page(q, 20, 0, with_total=True)
        assert list(d20) == list(od) and list(s20) == list(osc)
        assert tot == otot
        dall, _ = se.search(q, 10 ** 6)
        assert tot == len(dall), q  # total == number of all matches


def test_default_synonym_table(test_index, oracle):
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


def test_explain(test_index, salted_index, oracle, monkeypatch):
    """explain() reports per-term stats and the chosen evaluation path."""
    from open_source_search_engine_ray.query import engine, kernel

    se = IndexSearcher(IDX)
    e = se.explain(SearchRequest("w0042 w0777"))
    assert e["n_docs"] == N_CONV and len(e["terms"]) >= 2
    toks = {t["token"]: t for t in e["terms"]}
    assert toks["w0042"]["df"] > 0 and toks["w0042"]["idf"] is not None
    assert e["eval_path"].startswith("exact")
    assert se.explain(SearchRequest('"w0042 w0777"'))["phrases"]
    assert se.explain(SearchRequest("(w0042 OR w0777)"))["eval_path"] == \
        "boolean-tree"
    # the plan explain reports is the plan the kernel runs: below
    # BLOCK_MAX_MIN_DF a list gets no block maxima, since the block-max
    # walk costs more than exact scoring, so a one-term query is scored
    # exactly, split across salts or not
    d2, s2 = oracle.search("w0002", 10)
    e = se.explain(SearchRequest("w0002"))
    df = e["terms"][0]["df"]
    assert df < kernel.BLOCK_MAX_MIN_DF
    assert (e["plan"], e["eval_path"]) == ("exact", "exact")
    d1, s1 = se.search("w0002", 10)
    assert list(d1) == list(d2) and list(s1) == list(s2)
    assert se.explain(SearchRequest("role:user w0002"))[
        "eval_path"].startswith("exact")
    salted = IndexSearcher(salted_index)
    e = salted.explain(SearchRequest("w0002"))
    assert e["terms"][0]["term_id"] in load_meta(salted_index)["hot_terms"]
    assert (e["plan"], e["eval_path"]) == ("exact", "exact")
    d1, s1 = salted.search("w0002", 10)
    assert list(d1) == list(d2) and list(s1) == list(s2)
    # at a floor lowered to the list's df, a fresh fetch computes its
    # block maxima — one rule, unsplit or split — and the one-term query
    # walks them, with the same results
    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", df)
    monkeypatch.setattr(kernel, "BLOCK_MAX_MIN_DF", df)
    se = salted = None
    for idx in (IDX, salted_index):
        se = IndexSearcher(idx)
        e = se.explain(SearchRequest("w0002"))
        assert (e["plan"], e["eval_path"]) == ("blockmax-single",
                                               "block-max single-term"), idx
        d1, s1 = se.search("w0002", 10)
        assert list(d1) == list(d2) and list(s1) == list(s2), idx


def _build_while_cpus_held(monkeypatch, wait_s: float,
                           watchdog_s: float) -> list:
    """Run ``build_index`` while an actor holds every session CPU, with
    ``FREE_CPU_WAIT_S`` = ``wait_s`` → its outcome (None or the
    ``RuntimeError``); a watchdog thread turns a hang of more than
    ``watchdog_s`` into a failure."""
    import threading

    import ray

    from open_source_search_engine_ray.stages import spill

    monkeypatch.setattr(spill, "FREE_CPU_WAIT_S", wait_s, raising=False)

    @ray.remote(num_cpus=ray.cluster_resources()["CPU"])
    class Holder:
        def ready(self):
            return True

    holder = Holder.remote()
    idx = IDX + "_nocpu"
    outcome = []

    def run():
        try:
            build_index(lambda: transcripts_dataset(20), idx,
                        input_token="synthetic:n=20:nocpu")
            outcome.append(None)
        except RuntimeError as e:
            outcome.append(e)

    try:
        assert ray.get(holder.ready.remote(), timeout=60)
        th = threading.Thread(target=run, daemon=True)
        th.start()
        th.join(timeout=watchdog_s)
        assert not th.is_alive(), "build_index hung without free CPUs"
    finally:
        ray.kill(holder)
    shutil.rmtree(idx, ignore_errors=True)
    return outcome


def test_build_without_free_cpus_fails_loudly(ray_session, monkeypatch):
    """An actor holding the session's CPUs starves the spill writers and
    their read tasks: the build must raise, naming the free and needed
    CPUs, instead of waiting forever."""
    outcome = _build_while_cpus_held(monkeypatch, 1.0, 60)
    assert outcome and isinstance(outcome[0], RuntimeError), outcome
    msg = str(outcome[0])
    assert "free CPUs" in msg and "of the session's" in msg, msg


def test_stale_free_cpu_reading_fails_loudly(ray_session, monkeypatch):
    """A free-CPU reading that still shows every CPU free while an actor
    holds them all sizes a writer pool that cannot start: the build must
    raise once the writers have not started within ``FREE_CPU_WAIT_S``,
    instead of waiting forever."""
    import ray

    real = ray.available_resources
    readings = iter([ray.cluster_resources()])
    monkeypatch.setattr(ray, "available_resources",
                        lambda: next(readings, None) or real())
    outcome = _build_while_cpus_held(monkeypatch, 2.0, 2.0 + 30)
    assert outcome and isinstance(outcome[0], RuntimeError), outcome
    msg = str(outcome[0])
    assert "free CPUs" in msg and "of the session's" in msg, msg
