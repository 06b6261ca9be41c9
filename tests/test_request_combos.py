"""Every pair of query options through the one request pipeline equals the
oracle (docIDs and float64 scores), and the pairs the pipeline refuses
raise before any list is fetched.

Where the oracle has no direct form of an option, the expected page is
composed from a full-depth oracle ranking: a restriction is that ranking
filtered to the set, page 2 is its rows [k, 2k), a cursor at rank k
continues at the same rows, and the proximity rerank boosts the
ranking's top-(4·depth) with the kernel's re-ranker."""

import itertools
import shutil

import numpy as np
import pyarrow as pa
import pytest

from open_source_search_engine_ray.query.engine import (IndexSearcher,
                                                        SearchRequest)

IDX = "/tmp/osse_test_idx_combos"
N_CONV = 120
K = 5
# a rare stopword beside the corpus' common ones: "the because" is a
# disjunction of optional terms whose dfs differ > 8x (the MaxScore plan)
RARE = "because"
N_RARE = 3

OPTIONS = ["synonyms", "field_weights", "doc_prior", "offset", "after",
           "doc_ids", "budget", "rerank"]
# pairs with no single meaning: refused with ValueError before any fetch
REFUSED = {("doc_prior", "rerank"), ("offset", "after"),
           ("after", "rerank")}


def _corpus() -> pa.Table:
    from open_source_search_engine_ray.sources.transcripts import (
        TRANSCRIPTS_SCHEMA, transcripts_table)

    base = transcripts_table(N_CONV)
    planted = pa.table({
        "conv_id": [f"conv-rare-{i}" for i in range(N_RARE)],
        "turn_idx": pa.array([0] * N_RARE, pa.int32()),
        "role": ["user"] * N_RARE,
        "text": [f"{RARE} w0042 w0777 it works" for _ in range(N_RARE)],
        "tool": pa.array([None] * N_RARE, pa.string()),
        "ts": pa.array([0] * N_RARE, pa.timestamp("us")),
    }).cast(TRANSCRIPTS_SCHEMA)
    return pa.concat_tables([base, planted])


@pytest.fixture(scope="module")
def setup(ray_session):
    import ray.data

    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.query.oracle import OracleIndex

    table = _corpus()
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(lambda: ray.data.from_arrow(table), IDX,
                input_token=f"combos:n={N_CONV}+{N_RARE}")
    se = IndexSearcher(IDX)
    oracle = OracleIndex(table)
    rng = np.random.default_rng(20240605)
    ids = np.sort(np.asarray(list(oracle.doc_to_conv), dtype=np.uint64))
    values = {
        "synonyms": {"synonyms": "default"},
        "field_weights": {"field_weights": (0.5, 2.0, 1.0, 1.5)},
        "doc_prior": {"doc_prior": (ids, rng.uniform(0.5, 2.0, len(ids)))},
        "offset": {"offset": K},
        "doc_ids": {"doc_ids": np.concatenate([
            rng.choice(ids, len(ids) // 2, replace=False),
            np.asarray([1, 2 ** 60], np.uint64)])},
        "budget": {"timeout_ms": 1e9, "max_list_bytes": 1 << 40},
        "rerank": {"rerank": "proximity"},
    }
    yield se, oracle, values
    shutil.rmtree(IDX, ignore_errors=True)


def _expected(oracle, q: str, opts: dict):
    """Oracle page for a request's options (``after`` excluded: the
    caller places the cursor) → (docs, scores, start)."""
    from open_source_search_engine_ray.functions.synonyms import (
        synonyms_table)
    from open_source_search_engine_ray.query.kernel import proximity_rerank
    from open_source_search_engine_ray.query.parse import parse_query

    kw = {o: opts[o] for o in ("synonyms", "field_weights", "doc_prior")
          if o in opts}
    docs, scores = oracle.search(q, oracle.n_docs + 10, **kw)
    if "doc_ids" in opts:
        keep = np.isin(docs, np.asarray(opts["doc_ids"], np.uint64))
        docs, scores = docs[keep], scores[keep]
    depth = opts.get("offset", 0) + K
    if "rerank" in opts:
        syn = kw.get("synonyms")
        pq_ = parse_query(q, oracle.config.bigram_weight,
                          synonyms=synonyms_table("en") if syn else None,
                          position_mode=oracle.config.position_mode)
        lists = {t.term_id: oracle.get_postings(t.term_id)
                 for t in pq_.terms}
        docs, scores = proximity_rerank(pq_, lists, docs[:4 * depth],
                                        scores[:4 * depth])
        docs, scores = docs[:depth], scores[:depth]
    return docs, scores


def _check(se, oracle, values, q: str, names: tuple):
    opts = {}
    for n in names:
        opts.update(values.get(n, {}))
    docs, scores = _expected(oracle, q, opts)
    start = opts.get("offset", 0)
    if "after" in names:
        # the cursor sits on rank K of the same ranking (or past its end)
        start = min(K, len(docs))
        opts["after"] = ((float(scores[start - 1]), int(docs[start - 1]))
                         if start else (float("inf"), 0))
    res = se.run(SearchRequest(q, K, **opts))
    want_d, want_s = docs[start:start + K], scores[start:start + K]
    assert [int(d) for d in res.doc_ids] == [int(d) for d in want_d], \
        (names, q)
    assert [float(s) for s in res.scores] == [float(s) for s in want_s], \
        (names, q)
    assert not res.partial, (names, q)


def test_single_options_match_oracle(setup):
    """Each option alone (the direct oracle form where one exists)."""
    from open_source_search_engine_ray.sources.queryset import query_set

    se, oracle, values = setup
    for _qid, q, _k in query_set():
        for name in OPTIONS:
            _check(se, oracle, values, q, (name,))
        d1, s1 = se.search(q, K, rerank="proximity")
        d2, s2 = oracle.search(q, K, rerank="proximity")
        assert list(d1) == list(d2) and list(s1) == list(s2), q


def test_option_pairs_match_oracle(setup):
    from open_source_search_engine_ray.sources.queryset import query_set

    se, oracle, values = setup
    pairs = [p for p in itertools.combinations(OPTIONS, 2)
             if p not in REFUSED]
    assert len(pairs) == 28 - len(REFUSED)
    for _qid, q, _k in query_set():
        for names in pairs:
            _check(se, oracle, values, q, names)


def test_refused_pairs_raise_before_fetch(setup):
    se, _, values = setup
    values = dict(values, after={"after": (1.0, 1)})
    probe = IndexSearcher(IDX)

    def no_fetch(*args, **kwargs):
        raise AssertionError("a refused request fetched lists")

    probe._collect_lists = no_fetch
    for a, b in itertools.combinations(OPTIONS, 2):
        req = SearchRequest("w0042 w0777", K, **values[a], **values[b])
        if (a, b) in REFUSED:
            with pytest.raises(ValueError):
                probe.run(req)
        else:
            req.validate()


def test_explain_reports_the_plan_run_takes(setup):
    """explain() takes the request run() takes: a MaxScore disjunction
    reports maxscore, and exact once a weight override or a prior turns
    pruning off; synonym expansion shows in its terms."""
    se, _, values = setup
    q = f"the {RARE}"
    assert se.explain(SearchRequest(q))["plan"] == "maxscore"
    assert se.explain(SearchRequest(q))["eval_path"] == \
        "MaxScore disjunction"
    for name in ("field_weights", "doc_prior", "doc_ids"):
        e = se.explain(SearchRequest(q, **values[name]))
        assert e["plan"] == "exact", name
    e = se.explain(SearchRequest("eight errors", synonyms="default"))
    toks = {t["token"] for t in e["terms"]}
    assert {"8", "error"} <= toks
