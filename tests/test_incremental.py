"""Incremental maintenance invariants: a multi-generation index with
appends, tombstone deletes, revivals and compaction scores exactly like a
fresh build / oracle over the live corpus."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from open_source_search_engine_ray.functions.ghash import doc_ids_for_convs
from open_source_search_engine_ray.index.build import build_index
from open_source_search_engine_ray.index.merge import (
    add_documents, compact, compact_merge, delete_convs, read_generations)
from open_source_search_engine_ray.query.engine import IndexSearcher
from open_source_search_engine_ray.query.oracle import OracleIndex
from open_source_search_engine_ray.sources.queryset import query_set
from open_source_search_engine_ray.sources.transcripts import (
    generate_conv_rows, transcripts_dataset, transcripts_dataset_range)

IDX = "/tmp/osse_incr_idx"
BASE = 200
EXTRA = 100
DELETED = [f"conv-{i:08d}" for i in list(range(10, 30)) + [205, 211]]
REVIVED = ["conv-00000015"]


def _live_table() -> pa.Table:
    dead = set(DELETED) - set(REVIVED)
    idx = [i for i in range(BASE + EXTRA)
           if f"conv-{i:08d}" not in dead]
    return generate_conv_rows(np.asarray(idx))


@pytest.fixture(scope="module")
def incr_index(ray_session):
    from open_source_search_engine_ray.config import IndexConfig

    shutil.rmtree(IDX, ignore_errors=True)
    # salting floor 128: the base salts its head, so compaction merges
    # salted splits (generations added later inherit this config)
    meta = build_index(lambda: transcripts_dataset(BASE), IDX,
                       IndexConfig(num_salts=2, block_size=16),
                       input_token=f"incr:base:{BASE}")
    assert meta["hot_terms"]
    # generation 1: append new conversations
    add_documents(IDX, lambda: transcripts_dataset_range(BASE, BASE + EXTRA),
                  input_token=f"incr:add:{BASE}-{BASE + EXTRA}")
    # tombstone deletes across both generations
    delete_convs(IDX, DELETED)
    # revival: re-add one deleted conversation in a new generation
    revived_idx = [int(c.split("-")[1]) for c in REVIVED]
    add_documents(
        IDX,
        lambda: transcripts_dataset_range(revived_idx[0], revived_idx[0] + 1),
        input_token="incr:revive")
    return IDX


@pytest.fixture(scope="module")
def live_oracle():
    return OracleIndex(_live_table())


def test_generations_recorded(incr_index):
    gens = read_generations(incr_index)
    assert [g["gen"] for g in gens["generations"]] == [0, 1, 2]
    assert gens["live_stats"]["n_docs"] == BASE + EXTRA - len(DELETED) + 1


def test_incremental_rank_identity(incr_index, live_oracle):
    se = IndexSearcher(incr_index)
    assert se.n_docs == live_oracle.n_docs
    assert se.avgdl == live_oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = live_oracle.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)


def test_deleted_docs_absent(incr_index):
    se = IndexSearcher(incr_index)
    dead_ids = set(
        int(d) for d in doc_ids_for_convs(
            [c for c in DELETED if c not in REVIVED]))
    d, _ = se.search("the", 200)
    assert not (set(int(x) for x in d) & dead_ids)


def test_compaction_preserves_results(incr_index, live_oracle, ray_session):
    idx2 = IDX + "_compact"
    shutil.rmtree(idx2, ignore_errors=True)
    shutil.copytree(IDX, idx2)
    compact(idx2)
    gens = read_generations(idx2)
    assert [g["gen"] for g in gens["generations"]] == [0]
    se = IndexSearcher(idx2)
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = live_oracle.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)
    shutil.rmtree(idx2, ignore_errors=True)


def test_segment_merge_compaction(incr_index, live_oracle, ray_session):
    """Segment-level compaction (posdbMerge analogue): same results as the
    live-corpus oracle, single generation, no re-tokenization."""
    from open_source_search_engine_ray.index.merge import compact_merge

    idx5 = IDX + "_segmerge"
    shutil.rmtree(idx5, ignore_errors=True)
    shutil.copytree(IDX, idx5)
    meta = compact_merge(idx5)
    assert meta["compacted_from"] == [0, 1, 2]
    assert meta["hot_terms"]       # the salted splits went through a merge
    gens = read_generations(idx5)
    assert [g["gen"] for g in gens["generations"]] == [0]
    se = IndexSearcher(idx5)
    assert se.n_docs == live_oracle.n_docs
    assert se.avgdl == live_oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = live_oracle.search(q, k)
        assert list(d1) == list(d2), (qid, q)
        assert list(s1) == list(s2), (qid, q)
    shutil.rmtree(idx5, ignore_errors=True)


def test_compact_merge_carries_live_tables(incr_index):
    """compact_merge carries exactly the live rows: the compacted docstore
    holds the live corpus's (conv_id, turn_idx) rows and its docstats the
    live doc ids — the rows the streaming live view (the input of the
    spell vocabulary and of doclang) yields on the uncompacted index."""
    import pyarrow.dataset as pads

    from open_source_search_engine_ray.index.merge import live_docs_ds

    live = _live_table()
    want = sorted(zip(live["conv_id"].to_pylist(),
                      live["turn_idx"].to_pylist()))
    want_ids = sorted(int(d) for d in doc_ids_for_convs(
        sorted(set(live["conv_id"].to_pylist()))))
    view = live_docs_ds(incr_index, "docstore").to_pandas()
    assert sorted(zip(view["conv_id"], view["turn_idx"])) == want

    idx8 = IDX + "_carrytables"
    shutil.rmtree(idx8, ignore_errors=True)
    shutil.copytree(IDX, idx8)
    compact_merge(idx8)
    store = pads.dataset(os.path.join(idx8, "docstore"),
                         format="parquet").to_table()
    assert sorted(zip(store["conv_id"].to_pylist(),
                      store["turn_idx"].to_pylist())) == want
    stats = pads.dataset(os.path.join(idx8, "docstats"),
                         format="parquet").to_table()
    assert sorted(stats["doc_id"].to_pylist()) == want_ids
    shutil.rmtree(idx8, ignore_errors=True)


def _assert_no_duplicate_postings(se) -> None:
    """No merged list of a reference-set term holds a doc id twice."""
    from open_source_search_engine_ray.query.parse import parse_query

    for qid, q, _ in query_set():
        for t in parse_query(q, se.config.bigram_weight,
                             position_mode=se.config.position_mode).terms:
            tp = se.get_postings(t.term_id)
            if tp is not None:
                assert len(np.unique(tp.doc_ids)) == len(tp.doc_ids), \
                    (qid, t.term_id)


def test_readd_replaces_live_version(ray_session):
    """An add is an upsert: re-adding conversations 10..19 onto a
    100-conversation index replaces their live versions, so the index
    scores like the oracle over conversations 0..99 and no merged list
    holds a doc twice — before and after compact_merge."""
    idx6 = IDX + "_readd"
    shutil.rmtree(idx6, ignore_errors=True)
    build_index(lambda: transcripts_dataset(100), idx6,
                input_token="readd:base")
    # "re-crawl" convs 10..19 (same deterministic content)
    add_documents(idx6, lambda: transcripts_dataset_range(10, 20),
                  input_token="readd:delta")
    assert read_generations(idx6)["live_stats"]["n_docs"] == 100
    se = IndexSearcher(idx6)
    _assert_oracle(se, list(range(100)))
    _assert_no_duplicate_postings(se)
    se = None
    compact_merge(idx6)
    se = IndexSearcher(idx6)
    _assert_oracle(se, list(range(100)))
    _assert_no_duplicate_postings(se)
    shutil.rmtree(idx6, ignore_errors=True)


def test_mismatched_partitioning_rejected(incr_index):
    """add_documents must refuse a generation whose partition layout
    differs from the base index (compact_merge merges same-numbered
    shards; ADVICE r1 regression)."""
    from open_source_search_engine_ray.config import IndexConfig

    with pytest.raises(ValueError, match="partitioning must match"):
        add_documents(
            incr_index, lambda: transcripts_dataset_range(900, 905),
            input_token="incr:badcfg",
            config=IndexConfig(num_partitions=7))


def test_export_snippets_multi_generation(incr_index):
    """Distributed snippet export applies newest-generation-wins over the
    multi-generation doc store (same pages as the driver-side path, which
    resolves generations via _docstore_rows)."""
    from open_source_search_engine_ray.query.snippets import (
        export_snippets, search_with_snippets)

    dist = (export_snippets(incr_index, [("q1", "w0042", 5)])
            .to_pandas().sort_values("rank").reset_index(drop=True))
    want = search_with_snippets(incr_index, "w0042", 5).to_pandas()
    assert dist["doc_id"].astype(int).tolist() == \
        want["doc_id"].astype(int).tolist()
    assert dist["snippet"].tolist() == want["snippet"].tolist()


def test_salt_all_incremental_lifecycle(ray_session):
    """Doc-partitioned mode (salt_all_terms) through the full lifecycle:
    append generation, tombstone, revive — rank-identical to the oracle
    over the live corpus (multi-gen salted merge + per-gen filtering)."""
    from open_source_search_engine_ray.config import IndexConfig

    idx = IDX + "_sainc"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = IndexConfig(salt_all_terms=True, num_salts=4)
    build_index(lambda: transcripts_dataset(150), idx, cfg,
                input_token="sainc:base")
    add_documents(idx, lambda: transcripts_dataset_range(150, 200),
                  input_token="sainc:add")
    dead = [f"conv-{i:08d}" for i in range(5, 15)]
    delete_convs(idx, dead)
    add_documents(idx, lambda: transcripts_dataset_range(7, 8),
                  input_token="sainc:revive")   # revive conv 7
    live_idx = [i for i in range(200) if not (5 <= i < 15) or i == 7]
    oracle = OracleIndex(generate_conv_rows(np.asarray(live_idx)),
                         config=cfg)
    se = IndexSearcher(idx)
    assert se.n_docs == oracle.n_docs and se.avgdl == oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), qid
    shutil.rmtree(idx, ignore_errors=True)


def test_delete_by_query_then_revive(ray_session):
    """PageReindex analogue: delete every doc matching a query, then
    revive one by re-adding its conversation — scores must equal a fresh
    build over the corresponding live corpus at each step."""
    from open_source_search_engine_ray.functions.ghash import (
        doc_id_for_conv)
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.index.merge import delete_by_query

    idx7 = IDX + "_dbq"
    shutil.rmtree(idx7, ignore_errors=True)
    build_index(lambda: transcripts_dataset(80), idx7,
                input_token="dbq:base")
    se0 = IndexSearcher(idx7)
    victims, _ = se0.search("w0042", se0.n_docs)
    victim_set = {int(v) for v in victims}
    assert len(victims) >= 2
    assert delete_by_query(idx7, "w0042") == len(victims)

    se1 = IndexSearcher(idx7)
    d, _ = se1.search("w0042", 10)
    assert len(d) == 0                       # all matches tombstoned
    # every query behaves like a fresh build over the survivors
    live_idx = [i for i in range(80)
                if doc_id_for_conv(f"conv-{i:08d}") not in victim_set]
    oracle = OracleIndex(generate_conv_rows(np.array(live_idx)))
    assert se1.n_docs == oracle.n_docs
    for qid, q, k in query_set():
        d1, s1 = se1.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), (qid, q)

    # revive ONE victim by re-adding its conversation
    ri = next(i for i in range(80)
              if doc_id_for_conv(f"conv-{i:08d}") in victim_set)
    add_documents(idx7, lambda: transcripts_dataset_range(ri, ri + 1),
                  input_token="dbq:revive")
    se2 = IndexSearcher(idx7)
    d, _ = se2.search("w0042", 10)
    assert doc_id_for_conv(f"conv-{ri:08d}") in {int(x) for x in d}
    oracle2 = OracleIndex(generate_conv_rows(
        np.array(sorted(live_idx + [ri]))))
    for qid, q, k in query_set():
        d1, s1 = se2.search(q, k)
        d2, s2 = oracle2.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), (qid, q)
    shutil.rmtree(idx7, ignore_errors=True)


def _readers(se) -> dict:
    """Every segment reader of a searcher, opened, by (gen, shard)."""
    out = {}
    for g in se._gens:
        for shard in list(g._unopened):
            g._reader(shard)
        out.update({(g.gen, shard): rd for shard, rd in g._readers.items()})
    return out


def _assert_oracle(se, live: list[int]) -> None:
    oracle = OracleIndex(generate_conv_rows(np.asarray(live)))
    assert se.n_docs == oracle.n_docs and se.avgdl == oracle.avgdl
    for qid, q, k in query_set():
        d1, s1 = se.search(q, k)
        d2, s2 = oracle.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), (qid, q)


def test_reopen_shares_unchanged_readers(ray_session, monkeypatch):
    """``se = IndexSearcher(idx)`` after a write — the new searcher is
    constructed while the old one is alive, which dies when the name is
    rebound — keeps (``is``) the readers of every unchanged file: after
    an add it constructs readers only for the new generation's files,
    after a delete none, and after compact_merge (same paths, new files)
    it keeps none.  Each reopen scores like the oracle over the live
    corpus."""
    import weakref

    from open_source_search_engine_ray.index import segments

    idx = IDX + "_reopen"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(80), idx,
                input_token="reopen:base")
    opened = []
    init = segments.SegmentReader.__init__

    def counted(self, path):
        opened.append(os.path.abspath(path))
        init(self, path)

    monkeypatch.setattr(segments.SegmentReader, "__init__", counted)
    state = {}

    def reopen(live):
        """Reopen as a serving loop does → the (gen, shard) keys of the old
        searcher's readers kept (``is``), the files opened, and the new
        searcher's file paths by key."""
        opened.clear()
        se = IndexSearcher(idx)
        state.pop("se", None)          # the rebinding drops the old one
        old = state.pop("refs", {})
        cur = _readers(se)
        kept = sorted(key for key, ref in old.items()
                      if key in cur and cur[key] is ref())
        _assert_oracle(se, live)
        state.update(se=se, refs={key: weakref.ref(rd)
                                  for key, rd in cur.items()})
        return kept, sorted(opened), {key: os.path.abspath(rd.path)
                                      for key, rd in cur.items()}

    live = list(range(80))
    kept, files, cur = reopen(live)
    assert kept == [] and files == sorted(cur.values()) != []

    add_documents(idx, lambda: transcripts_dataset_range(80, 110),
                  input_token="reopen:g1")
    live += list(range(80, 110))
    kept, files, cur = reopen(live)
    assert kept == sorted(key for key in cur if key[0] == 0)
    assert files == sorted(p for key, p in cur.items() if key[0] == 1) != []

    dead = (3, 50, 95)
    delete_convs(idx, [f"conv-{i:08d}" for i in dead])
    live = [i for i in live if i not in dead]
    kept, files, cur = reopen(live)
    assert kept == sorted(cur) and files == []

    compact_merge(idx)
    kept, files, cur = reopen(live)
    assert kept == [] and files == sorted(cur.values()) != []
    state.clear()
    shutil.rmtree(idx, ignore_errors=True)


def test_rebuilt_index_gets_fresh_readers(ray_session):
    """An index rebuilt in place (rmtree + build_index at the same path)
    while a searcher of the old one is alive is never served the old
    files' readers."""
    idx = IDX + "_rebuilt"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(60), idx,
                input_token="rebuilt:a")
    s1 = IndexSearcher(idx)
    r1 = _readers(s1)
    s1.search("w0042 the", 10)
    shutil.rmtree(idx)
    build_index(lambda: transcripts_dataset_range(60, 130), idx,
                input_token="rebuilt:b")
    s2 = IndexSearcher(idx)
    r2 = _readers(s2)
    old = {id(rd) for rd in r1.values()}
    assert r2 and not any(id(rd) in old for rd in r2.values())
    _assert_oracle(s2, list(range(60, 130)))
    del s1, s2
    shutil.rmtree(idx, ignore_errors=True)


def test_no_reader_outlives_its_searchers(incr_index):
    """Readers are shared, not cached: they live while some searcher
    holds them and leave the registry with the last one (no garbage
    collection needed)."""
    import weakref

    from open_source_search_engine_ray.index import segments

    s1 = IndexSearcher(incr_index)
    refs = {key: weakref.ref(rd) for key, rd in _readers(s1).items()}
    s2 = IndexSearcher(incr_index)
    assert all(rd is refs[key]() for key, rd in _readers(s2).items())
    del s1
    assert all(r() is not None for r in refs.values())
    s2.search("w0042 the", 10)
    del s2
    assert all(r() is None for r in refs.values())
    prefix = os.path.abspath(incr_index) + os.sep
    assert not [key for key in segments._LIVE.keys()
                if key[0].startswith(prefix)]


class _Fresh(IndexSearcher):
    """A searcher that takes over no lists (subclasses neither take over
    nor hand over): the reference a reopened searcher must equal."""


def _lists_equal(a, b, wp: bool) -> bool:
    if a is None or b is None:
        return a is b
    same = (np.array_equal(a.doc_ids, b.doc_ids)
            and np.array_equal(a.tfs, b.tfs) and np.array_equal(a.dl, b.dl)
            and a.df == b.df and (a.block_max is None) == (b.block_max is None)
            and (a.block_max is None or np.array_equal(a.block_max,
                                                       b.block_max)))
    if wp:
        same = same and all(np.array_equal(x, y) for x, y in
                            zip(a.positions, b.positions))
    return same


def _merged_keys(se) -> list[tuple]:
    return sorted(se._cache._d)


def _carried_keys(se) -> list[tuple]:
    return sorted(se._cache._carried)


def _assert_like_fresh(se, idx: str, keys) -> int:
    """Every list in ``keys`` and every reference query (plus phrase
    queries, which read positions) equal a fresh searcher's, docIDs and
    float64 scores → the number of lists with block maxima."""
    fresh = _Fresh(idx)
    n_block_max = 0
    for tid, wp in keys:
        tp = se.get_postings(tid, with_positions=wp)
        assert _lists_equal(tp, fresh.get_postings(tid, with_positions=wp),
                            wp), (tid, wp)
        n_block_max += tp is not None and tp.block_max is not None
    for q, k in [(q, k) for _, q, k in query_set()] + [
            ('"w0001 w0002"', 20), ('"the w0002" w0042', 20)]:
        d1, s1 = se.search(q, k)
        d2, s2 = fresh.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), q
    return n_block_max


def test_reopen_carries_merged_lists(ray_session, monkeypatch):
    """A searcher reopened while its predecessor is alive takes over the
    predecessor's merged lists and reads, for each, only the generations
    added since: through add, delete, update, delete-only, a no-op reopen
    and compact_merge it serves every list, block maxima included (at a
    lowered block-max floor), exactly as a fresh searcher does, and
    scores like the oracle.  After compact_merge nothing is carried."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index import segments
    from open_source_search_engine_ray.query import engine

    monkeypatch.setattr(engine, "BLOCK_MAX_MIN_DF", 16)
    idx = IDX + "_carry"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(80), idx,
                IndexConfig(num_salts=2, block_size=16),
                input_token="carry:base")
    reads = []
    read_terms = segments.SegmentReader.read_terms

    def counted(self, *args, **kwargs):
        reads.append(os.path.abspath(self.path))
        return read_terms(self, *args, **kwargs)

    monkeypatch.setattr(segments.SegmentReader, "read_terms", counted)
    state = {"se": IndexSearcher(idx)}
    live = list(range(80))
    _assert_oracle(state["se"], live)
    _assert_like_fresh(state["se"], idx, [])

    def reopen(live):
        """Reopen with the old searcher alive → (files read by the carried
        lists' first fetches, lists with block maxima)."""
        before = _merged_keys(state["se"])
        se = IndexSearcher(idx)
        carried = _carried_keys(se)
        assert carried == before != []
        reads.clear()
        # without positions first: each carried entry serves its own fetch
        for tid, wp in sorted(carried, key=lambda key: key[1]):
            se.get_postings(tid, with_positions=wp)
        assert se.carried == len(carried)
        read = sorted(set(reads))
        n_block_max = _assert_like_fresh(se, idx, carried)
        _assert_oracle(se, live)
        state["se"] = se
        return read, n_block_max

    def newest_gen_dir() -> str:
        gen = max(g["gen"] for g in read_generations(idx)["generations"])
        return os.path.abspath(os.path.join(idx, "gens", f"g{gen}")) + os.sep

    add_documents(idx, lambda: transcripts_dataset_range(80, 110),
                  input_token="carry:g1")
    live += list(range(80, 110))
    read, n_block_max = reopen(live)
    assert read and all(p.startswith(newest_gen_dir()) for p in read)
    assert n_block_max > 0

    dead = (3, 50, 95)
    delete_convs(idx, [f"conv-{i:08d}" for i in dead])
    live = [i for i in live if i not in dead]
    read, n_block_max = reopen(live)
    assert read == [] and n_block_max > 0

    # update: delete and re-add the same conversation
    delete_convs(idx, ["conv-00000007"])
    add_documents(idx, lambda: transcripts_dataset_range(7, 8),
                  input_token="carry:update")
    read, _ = reopen(live)
    assert read and all(p.startswith(newest_gen_dir()) for p in read)

    delete_convs(idx, ["conv-00000020"])
    live.remove(20)
    read, _ = reopen(live)
    assert read == []

    # nothing changed: the carried lists are refreshed without a read
    read, _ = reopen(live)
    assert read == []

    # the second compaction rewrites one generation without tombstones:
    # the same state but new files, so still nothing is carried
    for _ in range(2):
        compact_merge(idx)
        se = IndexSearcher(idx)
        assert _carried_keys(se) == [] and se._since is None
        reads.clear()
        _assert_like_fresh(se, idx, _merged_keys(state["se"]))
        _assert_oracle(se, live)
        assert se.carried == 0 and reads
        state["se"] = se
    state.clear()
    shutil.rmtree(idx, ignore_errors=True)


def test_short_lived_searcher_keeps_the_carry(ray_session):
    """A searcher built and dropped while the serving one is alive
    (``delete_by_query``'s) takes over its lists but does not cost it
    them: the next reopen still takes over the serving searcher's lists
    and equals a fresh searcher and the oracle."""
    from open_source_search_engine_ray.functions.ghash import (
        doc_id_for_conv)
    from open_source_search_engine_ray.index.merge import delete_by_query

    idx = IDX + "_shortlived"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(60), idx,
                input_token="shortlived:base")
    se = IndexSearcher(idx)
    for _, q, k in query_set():
        se.search(q, k)
    doomed = {int(d) for d in se.search("w0042", se.n_docs)[0]}
    victims = [i for i in range(60)
               if doc_id_for_conv(f"conv-{i:08d}") in doomed]
    served = _merged_keys(se)
    assert victims and delete_by_query(idx, "w0042") == len(victims)
    se2 = IndexSearcher(idx)
    assert _carried_keys(se2) == served != []
    _assert_like_fresh(se2, idx, served)
    assert se2.carried == len(served)
    _assert_oracle(se2, [i for i in range(60) if i not in victims])
    del se, se2
    shutil.rmtree(idx, ignore_errors=True)


def test_carried_lists_fit_the_new_budget(incr_index):
    """Lists taken over count against the new searcher's own
    ``cache_bytes``, also when it is smaller than the predecessor's: the
    most recent that fit are carried, never more bytes than the budget."""
    def predecessor():
        se = IndexSearcher(incr_index)
        for _, q, k in query_set():
            se.search(q, k)
        return se

    big = predecessor()
    budget = big._cache.nbytes // 3
    small = IndexSearcher(incr_index, cache_bytes=budget)
    assert _carried_keys(small) and small._cache.nbytes <= budget
    for _, q, k in query_set():
        d1, s1 = small.search(q, k)
        d2, s2 = big.search(q, k)
        assert list(d1) == list(d2) and list(s1) == list(s2), q
    # the newest live searcher hands over: with small dropped, big does
    del small
    budget = min(size for _, size in big._cache._d.values()) - 1
    tiny = IndexSearcher(incr_index, cache_bytes=budget)
    assert _carried_keys(tiny) == [] and tiny._cache.nbytes == 0


def test_low_tombstone_disables_carry(ray_session):
    """A tombstone that kills less than the predecessor's newest
    generation (``delete_docs`` never writes one) would not be exact on a
    carried list: nothing is carried, and results equal a fresh
    searcher's and the oracle's."""
    import pyarrow.parquet as pq

    from open_source_search_engine_ray.index.merge import (
        TOMBSTONES_FILE, read_tombstones, refresh_stats)

    idx = IDX + "_lowtomb"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(60), idx,
                input_token="lowtomb:base")
    add_documents(idx, lambda: transcripts_dataset_range(60, 80),
                  input_token="lowtomb:g1")
    delete_convs(idx, ["conv-00000004"])
    prev = IndexSearcher(idx)
    for _, q, k in query_set():
        prev.search(q, k)
    # conv 12 lives in generation 0 only: dead up to 0 deletes it
    path = os.path.join(idx, TOMBSTONES_FILE)
    tomb = pa.concat_tables([pq.read_table(path), pa.table({
        "doc_id": pa.array(doc_ids_for_convs(["conv-00000012"]),
                           type=pa.uint64()),
        "dead_upto_gen": pa.array([0], type=pa.int32())})])
    pq.write_table(tomb, path)
    refresh_stats(idx)
    # the add's 20 (convs 60..79, dead up to 0), conv 4's and conv 12's
    assert len(read_tombstones(idx)[0]) == 22
    se = IndexSearcher(idx)
    assert se._since is None and _carried_keys(se) == []
    _assert_like_fresh(se, idx, _merged_keys(prev))
    _assert_oracle(se, [i for i in range(80) if i not in (4, 12)])
    del prev, se
    shutil.rmtree(idx, ignore_errors=True)


def test_fanout_searcher_neither_takes_nor_hands_over(ray_session):
    """A fan-out coordinator built between two reopens takes over no
    lists, and the next plain searcher takes over from the plain one
    before it, not from the coordinator; fan-out == local."""
    import ray

    from open_source_search_engine_ray.functions.ghash import (
        TERMID_MASK, hash64_lower_utf8)
    from open_source_search_engine_ray.query.distributed import (
        DistributedSearcher)

    idx = IDX + "_fanout_carry"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(lambda: transcripts_dataset(60), idx,
                input_token="fanout-carry:base")
    se1 = IndexSearcher(idx)
    for _, q, k in query_set():
        se1.search(q, k)
    dist = DistributedSearcher(idx, n_servers=2)
    try:
        assert dist._since is None and _carried_keys(dist) == []
        for qid, q, k in query_set():
            d1, s1 = se1.search(q, k)
            d2, s2 = dist.search(q, k)
            assert list(d1) == list(d2) and list(s1) == list(s2), (qid, q)
        only_dist = int(np.uint64(hash64_lower_utf8("w0300")) & TERMID_MASK)
        dist.search("w0300", 10)
        assert (only_dist, False) in dist._cache
        assert (only_dist, False) not in se1._cache
        delete_convs(idx, ["conv-00000009"])
        se2 = IndexSearcher(idx)
        assert _carried_keys(se2) == _merged_keys(se1)
        _assert_like_fresh(se2, idx, _carried_keys(se2))
        _assert_oracle(se2, [i for i in range(60) if i != 9])
        dist2 = DistributedSearcher(idx, n_servers=2)
        try:
            assert _carried_keys(dist2) == []
            for qid, q, k in query_set():
                d1, s1 = se2.search(q, k)
                d2, s2 = dist2.search(q, k)
                assert list(d1) == list(d2) and list(s1) == list(s2), (qid, q)
        finally:
            for server in dist2._servers:
                ray.kill(server)
    finally:
        for server in dist._servers:
            ray.kill(server)
    del se1, se2
    shutil.rmtree(idx, ignore_errors=True)
