"""Round-4 query features: doc-prior multiplier (PosdbTable SiteRank
multiplier analogue) and query budget (Msg39 deadline / PosdbTable
termlist-cap analogues)."""

import shutil
import time

import numpy as np
import pytest

IDX = "/tmp/idx_bp_test"
N_CONV = 300


@pytest.fixture(scope="module")
def bp_index(ray_session):
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset)

    shutil.rmtree(IDX, ignore_errors=True)
    build_index(lambda: transcripts_dataset(N_CONV), IDX,
                input_token=f"synthetic:n={N_CONV}")
    yield IDX
    shutil.rmtree(IDX, ignore_errors=True)


def _searcher(idx):
    from open_source_search_engine_ray.query.engine import IndexSearcher

    return IndexSearcher(idx)


def _run(searcher, query, k=10, **options):
    from open_source_search_engine_ray.query.engine import SearchRequest

    return searcher.run(SearchRequest(query, k, **options))


def _budgeted(searcher, query, k=10, **budget):
    res = _run(searcher, query, k, **budget)
    return res.doc_ids, res.scores, res.partial


def _facets(searcher, query, **options):
    res = _run(searcher, query, **options)
    return res.facets[0], res.facets[1], res.total


def _page(searcher, query, k, **options):
    res = _run(searcher, query, k, with_total=True, **options)
    return res.doc_ids, res.scores, res.total


def _oracle():
    from open_source_search_engine_ray.query.oracle import OracleIndex
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_table)

    return OracleIndex(transcripts_table(N_CONV))


def test_doc_prior_flips_order_and_matches_oracle(bp_index):
    """A planted prior must (a) demote the unboosted #1 below a boosted
    lower-ranked doc and (b) produce IDENTICAL ranks+scores in engine and
    oracle (shared kernel)."""
    se, orc = _searcher(bp_index), _oracle()
    base_docs, base_scores = se.search("w0042", 5)
    assert len(base_docs) >= 3

    # boost the 3rd-ranked doc hard, demote the 1st
    prior_ids = np.sort(np.array([base_docs[0], base_docs[2]],
                                 dtype=np.uint64))
    mult = np.where(prior_ids == base_docs[2], 10.0, 0.1)
    prior = (prior_ids, mult.astype(np.float64))

    d1, s1 = se.search("w0042", 5, doc_prior=prior)
    d2, s2 = orc.search("w0042", 5, doc_prior=prior)
    assert list(d1) == list(d2) and list(s1) == list(s2)
    assert d1[0] == base_docs[2]                    # boost flipped the top
    assert base_docs[0] not in d1[:2]               # demotion pushed #1 down

    # no prior entries -> identical to unbudgeted search
    empty = (np.array([], dtype=np.uint64), np.array([], dtype=np.float64))
    d3, s3 = se.search("w0042", 5, doc_prior=empty)
    assert list(d3) == list(base_docs) and list(s3) == list(base_scores)


def test_budget_unbudgeted_identical(bp_index):
    se = _searcher(bp_index)
    d0, s0 = se.search("w0042 w0007", 10)
    d1, s1, partial = _budgeted(se, "w0042 w0007", 10, timeout_ms=60_000)
    assert not partial
    assert list(d0) == list(d1) and list(s0) == list(s1)


def test_budget_deadline_partial(bp_index):
    """An already-expired deadline returns immediately with the partial
    flag — no list is fetched."""
    se = _searcher(bp_index)
    t0 = time.monotonic()
    docs, scores, partial = _budgeted(se, "w0042 w0007", 10, timeout_ms=0)
    assert partial
    assert time.monotonic() - t0 < 1.0
    assert len(docs) == 0


def test_budget_list_cap_partial_and_bounded(bp_index):
    """A tiny per-term byte cap truncates the hot list: partial=True and
    every result doc comes from the truncated (docId-order) prefix."""
    from open_source_search_engine_ray.query.engine import (
        _truncate_postings)
    from open_source_search_engine_ray.query.parse import parse_query

    se = _searcher(bp_index)
    tid = parse_query("the", 0.0).terms[0].term_id
    full = se.get_postings(tid)
    assert full is not None and full.df > 64
    cap = 64 * 24
    trunc, was_cut = _truncate_postings(full, cap)
    assert was_cut and len(trunc.doc_ids) < len(full.doc_ids)
    assert trunc.df == full.df     # read cap never rewrites corpus df
    docs, scores, partial = _budgeted(se, "the", 10, max_list_bytes=cap)
    assert partial
    prefix = set(int(d) for d in trunc.doc_ids)
    assert len(docs) > 0
    assert all(int(d) in prefix for d in docs)
    # the cut does not depend on cache history: a searcher that cached
    # "the" WITH positions (for a phrase) cuts the same prefix
    se2 = _searcher(bp_index)
    se2.search('"the of"', 10)
    d2, s2, p2 = _budgeted(se2, "the", 10, max_list_bytes=cap)
    assert p2 and list(d2) == list(docs) and list(s2) == list(scores)


def test_distributed_budgeted_matches_driver(bp_index):
    """A budgeted DistributedSearcher request must equal the driver-side
    budgeted search for the same byte cap, and equal unbudgeted search
    under a generous deadline."""
    from open_source_search_engine_ray.query.distributed import (
        DistributedSearcher)

    se = _searcher(bp_index)
    ds = DistributedSearcher(bp_index, n_servers=2)

    d0, s0 = se.search("w0042 w0007", 10)
    d1, s1, p1 = _budgeted(ds, "w0042 w0007", 10, timeout_ms=60_000)
    assert not p1
    assert list(d0) == list(d1) and list(s0) == list(s1)

    cap = 64 * 24
    da, sa, pa_ = _budgeted(se, "the", 10, max_list_bytes=cap)
    db, sb, pb = _budgeted(ds, "the", 10, max_list_bytes=cap)
    assert pa_ and pb
    assert list(da) == list(db) and list(sa) == list(sb)


def test_language_prior_build_and_rank_flip(ray_session, tmp_path):
    """Per-doc language prior (PosdbTable.cpp:3918 langWeight / qlang):
    build_doclang classifies every live doc, language_prior feeds the
    doc_prior hook, and qlang='de' lifts a planted German doc over the
    synthetic-English docs on a shared term — engine == oracle."""
    import pyarrow as pa
    import ray.data

    from open_source_search_engine_ray.functions.ghash import (
        doc_ids_for_convs)
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.index.merge import add_documents
    from open_source_search_engine_ray.query.langprior import (
        build_doclang, language_prior, load_doclang)
    from open_source_search_engine_ray.query.oracle import OracleIndex
    from open_source_search_engine_ray.sources.transcripts import (
        TRANSCRIPTS_SCHEMA, generate_conv_rows, transcripts_dataset)

    idx = str(tmp_path / "lp_idx")
    build_index(lambda: transcripts_dataset(40), idx,
                input_token="lp:base")
    de_text = ("der hund und die katze sind nicht im haus aber der "
               "w0042 ist hier und das ist gut so oder nicht")
    de_tbl = pa.table({
        "conv_id": ["conv-de"], "turn_idx": pa.array([0], pa.int32()),
        "role": ["user"], "text": [de_text],
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([0], pa.timestamp("us")),
    }).cast(TRANSCRIPTS_SCHEMA)
    add_documents(idx, lambda: ray.data.from_arrow(de_tbl),
                  input_token="lp:de")

    build_doclang(idx)
    ids, langs = load_doclang(idx)
    se = _searcher(idx)
    assert len(ids) == se.n_docs               # one row per live doc
    de_doc = int(doc_ids_for_convs(["conv-de"])[0])
    assert langs[np.searchsorted(ids, np.uint64(de_doc))] == "de"

    base_docs, _ = se.search("w0042", se.n_docs)
    base_rank = list(base_docs).index(de_doc)
    assert base_rank == 0       # short dl → the German doc tops unweighted
    den, _ = se.search("w0042", se.n_docs, qlang="en", lang_weight=0.05)
    assert list(den).index(de_doc) > base_rank    # qlang=en demotes it
    d1, s1 = se.search("w0042", se.n_docs, qlang="de", lang_weight=0.05)
    assert list(d1).index(de_doc) == 0            # qlang=de keeps it on top

    # engine == oracle under the same prior (shared kernel)
    corpus = pa.concat_tables(
        [generate_conv_rows(np.arange(40)), de_tbl])
    orc = OracleIndex(corpus)
    prior = language_prior(idx, "de", 0.05)
    d2, s2 = orc.search("w0042", se.n_docs, doc_prior=prior, lang="de")
    assert list(d1) == list(d2) and list(s1) == list(s2)


def test_doclang_independent_of_blocks(ray_session, tmp_path):
    """doclang.parquet is a function of the live corpus, not of how its
    docstore is split into blocks: each doc's turns are gathered in
    turn_idx order and its first PREFIX_CHARS classified once (a
    per-block vote let a doc's later turns outvote its opening ones)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.query.langprior import build_doclang
    from open_source_search_engine_ray.sources.transcripts import (
        TRANSCRIPTS_SCHEMA)

    turns = [
        "der hund und die katze sind nicht im haus aber der garten ist "
        "gross und schön",
        "wir haben das mit den kindern auf dem markt gekauft und es ist "
        "für die ganze familie",
        "the weather was fine and we walked along the river with the "
        "children in the afternoon",
        "they said that it would be the best way to get there before the "
        "evening of the day",
        "nous avons mangé dans le jardin avec les enfants et le chat de la "
        "maison pour la fête",
        "il est dans la cuisine avec une tasse de café et les journaux du "
        "matin sur la table",
    ]
    n_docs = 20
    # turn-major rows: every block holds a slice of every doc's turns
    tbl = pa.table({
        "conv_id": [f"mix-{d:03d}" for t in range(len(turns))
                    for d in range(n_docs)],
        "turn_idx": pa.array([t for t in range(len(turns))
                              for d in range(n_docs)], pa.int32()),
        "role": ["user"] * (len(turns) * n_docs),
        "text": [turns[(t + d) % len(turns)] * (1 + d % 3)
                 for t in range(len(turns)) for d in range(n_docs)],
        "tool": pa.array([None] * (len(turns) * n_docs), pa.string()),
        "ts": pa.array([0] * (len(turns) * n_docs), pa.timestamp("us")),
    }).cast(TRANSCRIPTS_SCHEMA)
    tables = []
    for blocks in (3, 11):
        idx = str(tmp_path / f"doclang{blocks}")
        build_index(lambda: ray.data.from_arrow(tbl).repartition(blocks),
                    idx, input_token="doclang-blocks")
        tables.append(pq.read_table(build_doclang(idx)).replace_schema_metadata())
    assert tables[0].num_rows == n_docs
    assert tables[0].equals(tables[1])
    assert len(set(tables[0]["lang"].to_pylist())) > 1


def test_search_facets_matches_bruteforce(bp_index):
    """Facet query (gbfacetstr analogue): the per-language histogram of
    the EXACT matching set must equal a brute-force recount from the
    doclang table over the oracle candidate set, for every reference
    query; total_matches must equal a ranked request's exact total."""
    from open_source_search_engine_ray.query.langprior import load_doclang
    from open_source_search_engine_ray.sources.queryset import query_set

    se = _searcher(bp_index)
    fids, fvals = load_doclang(bp_index)
    lang_of = dict(zip(fids.tolist(), fvals.tolist()))
    for qid, q, _k in query_set():
        vals, counts, total = _facets(se, q, facet="lang", k_facets=100)
        docs, _, exact_total = _page(se, q, se.n_docs)
        assert total == exact_total, qid
        brute: dict[str, int] = {}
        for d in docs:
            brute[lang_of.get(int(d), "unknown")] = \
                brute.get(lang_of.get(int(d), "unknown"), 0) + 1
        got = dict(zip(vals, (int(c) for c in counts)))
        assert got == brute, (qid, got, brute)
        # ranked (count desc, value asc)
        pairs = list(zip(vals, (int(c) for c in counts)))
        assert pairs == sorted(pairs, key=lambda p: (-p[1], p[0])), qid

    # caller-supplied facet tables: plain lists / int64 ids coerce to
    # the uint64 the kernel needs (no silent float64 promotion), and an
    # unsorted table is rejected loudly
    q = query_set()[0][1]
    v1, c1, t1 = _facets(se, q, facet="lang", k_facets=100)
    v2, c2, t2 = _facets(
        se, q, k_facets=100,
        facet_table=(fids.astype(np.int64).tolist(), list(fvals)))
    assert v1 == v2 and list(c1) == list(c2) and t1 == t2
    with pytest.raises(ValueError):
        _run(se, q, facet_table=(fids[::-1], fvals))
    with pytest.raises(ValueError):
        _run(se, q, facet="n_turns")


def test_numeric_facet_values_order_numerically(bp_index):
    """Numeric facet values keep their dtype and rank (count desc, value
    asc) numerically — 2 before 10 at equal counts, not "10" < "2" — and
    docs missing from the table count as "unknown", after the values of
    its count."""
    se = _searcher(bp_index)
    q = "w0042"
    docs, _, total = _page(se, q, se.n_docs)
    ids = np.sort(np.asarray(docs, dtype=np.uint64))
    assert total >= 5
    # two docs valued 10, two valued 2, the rest absent from the table
    table = (ids[:4], np.asarray([10, 2, 10, 2], dtype=np.int64))
    vals, counts, t = _facets(se, q, facet_table=table)
    assert t == total
    rest = total - 4
    want = [(2, 2), (10, 2)]
    want.insert(0 if rest > 2 else len(want), ("unknown", rest))
    assert list(zip(vals, (int(c) for c in counts))) == want
    assert all(type(v) is int for v in vals if v != "unknown")


def test_search_sortby_matches_bruteforce(bp_index):
    """gbsortby/gbmin/gbmax analogue: attribute-ordered results over the
    exact matching set must equal a brute-force recount, both
    directions, with and without range bounds."""
    from open_source_search_engine_ray.query.langprior import load_doclang
    from open_source_search_engine_ray.sources.queryset import query_set

    se = _searcher(bp_index)
    fids, _ = load_doclang(bp_index)          # one row per live doc
    attr = (fids, (fids % np.uint64(97)).astype(np.float64))
    for qid, q, _k in query_set()[:8]:
        docs, _, total = _page(se, q, se.n_docs)
        match = np.sort(np.asarray(docs, dtype=np.uint64))
        vals_all = match % np.uint64(97)
        for desc, lo, hi in [(True, None, None), (False, None, None),
                             (True, 10.0, 80.0)]:
            res = _run(se, q, 15, attr_table=attr, descending=desc,
                       min_val=lo, max_val=hi)
            ids, vals = res.doc_ids, res.scores
            keep = np.ones(len(match), dtype=bool)
            if lo is not None:
                keep &= vals_all >= lo
            if hi is not None:
                keep &= vals_all <= hi
            m, v = match[keep], vals_all[keep].astype(np.float64)
            order = np.lexsort((m, -v if desc else v))[:15]
            assert list(ids) == list(m[order]), (qid, desc, lo)
            assert list(vals) == list(v[order]), (qid, desc, lo)
    with pytest.raises(ValueError):
        _run(se, "w0042", attr_table=(fids[::-1], fids.astype(float)))


def test_search_docids_restriction(bp_index):
    """gbdocid analogue: a docId-restricted search must equal filtering
    a full-depth search to the restriction set — identical docs AND
    scores (df/idf stay global) — for every reference query and several
    restriction shapes (subset of hits, misses mixed in, empty)."""
    from open_source_search_engine_ray.sources.queryset import query_set

    se = _searcher(bp_index)
    for qid, q, _k in query_set()[:8]:
        docs, scores = se.search(q, se.n_docs)
        if len(docs) == 0:
            continue
        # every other hit, plus ids that match nothing
        subset = np.asarray(docs[::2], dtype=np.uint64)
        probe = np.concatenate([subset, np.asarray([1, 2**60],
                                                   np.uint64)])
        rd, rs = se.search(q, 10, doc_ids=probe)
        keep = np.isin(np.asarray(docs, np.uint64), subset)
        want_d = np.asarray(docs, np.uint64)[keep][:10]
        want_s = np.asarray(scores)[keep][:10]
        assert list(rd) == list(want_d), qid
        assert list(rs) == list(want_s), qid
    rd, rs = se.search("w0042", 5, doc_ids=[])
    assert len(rd) == 0


def test_derived_tables_rebuild_after_maintenance(ray_session, tmp_path):
    """doclang.parquet and vocab.parquet embed the index-state token and
    REBUILD when the index is maintained after they were written — a
    maintained index must never serve stale derived data (the maintained
    == fresh invariant extends to qlang requests and the spell
    suggester)."""
    import pyarrow as pa
    import ray.data

    from open_source_search_engine_ray.functions.ghash import (
        doc_ids_for_convs)
    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.index.merge import add_documents
    from open_source_search_engine_ray.query.langprior import load_doclang
    from open_source_search_engine_ray.query.spell import (
        SpellSuggester, ensure_vocab)
    from open_source_search_engine_ray.sources.transcripts import (
        TRANSCRIPTS_SCHEMA, transcripts_dataset)

    idx = str(tmp_path / "stale_idx")
    build_index(lambda: transcripts_dataset(30), idx,
                input_token="stale:base")
    ids0, _ = load_doclang(idx)                  # builds fresh
    ensure_vocab(idx)
    sp0 = SpellSuggester(idx)
    assert "zqvxw" not in sp0.cf_of

    de_text = ("der hund und die katze sind nicht im haus aber der "
               "zqvxw ist hier und das ist gut so oder nicht wirklich")
    de_tbl = pa.table({
        "conv_id": ["conv-st"], "turn_idx": pa.array([0], pa.int32()),
        "role": ["user"], "text": [de_text],
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([0], pa.timestamp("us")),
    }).cast(TRANSCRIPTS_SCHEMA)
    add_documents(idx, lambda: ray.data.from_arrow(de_tbl),
                  input_token="stale:de")

    # doclang: the new doc appears with its classified language
    ids1, langs1 = load_doclang(idx)
    assert len(ids1) == len(ids0) + 1
    d = int(doc_ids_for_convs(["conv-st"])[0])
    pos = int(np.searchsorted(ids1, np.uint64(d)))
    assert ids1[pos] == np.uint64(d) and langs1[pos] == "de"

    # vocab: ensure_vocab detects the stale token and rebuilds
    ensure_vocab(idx)
    sp1 = SpellSuggester(idx)
    assert "zqvxw" in sp1.cf_of
