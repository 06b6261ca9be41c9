"""Pinned hash/tokenizer goldens (FIXTURES.md §3 golden_tokens /
golden_postings): regression anchors so any accidental change to the
hashing or tokenization contract fails loudly — termIds define index
identity (``SURVEY.md`` §7.5 hard part #1)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from open_source_search_engine_ray.functions.ghash import (
    TERMID_MASK, doc_id_for_conv, hash64_lower_utf8)
from open_source_search_engine_ray.functions.tokenizer import (
    TokenHashCache, terms_for_texts)

# (token, hash64Lower_utf8, termId) — computed once from the verified
# glibc-rand table, pinned forever
GOLDEN_WORD_IDS = [
    ("the", 297427748605399427, 190173198946691),
    ("w0042", 13004773059611817057, 66185626088545),
    ("cdrom", 1750302235397337179, 90830210478171),
    ("café", 11110975347448049763, 32116771614819),
    ("we're", 15748438787388270398, 195315403777854),
    ("c++", 14037569479522935247, 130915985809871),
    ("1,000", 9155164114417072398, 190496902985998),
    ("hello", 11716599326945049354, 203421363993354),
]

GOLDEN_DOC_IDS = [
    ("conv-00000000", 786185004971996227),
    ("conv-00000042", 2177045036047658972),
]


def test_pinned_word_hashes():
    for tok, h, tid in GOLDEN_WORD_IDS:
        assert hash64_lower_utf8(tok) == h, tok
        assert int(np.uint64(h) & TERMID_MASK) == tid, tok


def test_pinned_doc_ids():
    for conv, d in GOLDEN_DOC_IDS:
        assert doc_id_for_conv(conv) == d, conv


def test_golden_tokens_table():
    """FIXTURES §3 golden_tokens: the edge-case inventory round-trips
    through the batch path with the pinned ids."""
    cache = TokenHashCache()
    rows, term, pos, is_big = terms_for_texts(
        ["the w0042 cd-rom café we're C++ 1,000 hello"], cache)
    singles = term[~is_big]
    expect = [190173198946691, 66185626088545,
              # cd-rom tokenizes as cd + rom (two singles)
              None, None,
              32116771614819, 195315403777854, 130915985809871,
              190496902985998, 203421363993354]
    got = [int(x) for x in singles]
    assert got[0] == expect[0]
    assert got[1] == expect[1]
    assert got[4:] == expect[4:]
    # bigram "cd rom" (hyphenated) == wordId("cdrom") masked
    assert 90830210478171 in [int(x) for x in term[is_big]]


def _synthetic_postings(rng, n_terms: int = 1200, n: int = 8000) -> pa.Table:
    """Posting partials as the build's shuffle delivers them: several rows
    per (term, doc) (one per turn/field), docIds >= 2^62, doc lengths a
    function of the doc, and about a fifth of the rows without positions
    (fields that carry no positions)."""
    term = rng.integers(0, n_terms, n).astype(np.uint64) * np.uint64(7919)
    doc = (np.uint64(1) << np.uint64(62)) + rng.integers(
        0, 3000, n).astype(np.uint64) * np.uint64(1 << 40)
    n_pos = np.where(rng.random(n) < 0.2, 0, rng.integers(1, 4, n))
    pos = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(n_pos)]).astype(np.int32)),
        pa.array(rng.integers(0, 100000, int(n_pos.sum())).astype(np.int32)))
    return pa.table({
        "term_id": pa.array(term),
        "doc_id": pa.array(doc),
        "field": pa.array(rng.integers(0, 4, n).astype(np.uint8), pa.uint8()),
        "tf": pa.array(rng.integers(1, 5, n).astype(np.int32)),
        "positions": pos,
        "dl": pa.array((doc % np.uint64(997)).astype(np.float32) + 5),
    })


def test_golden_postings_roundtrip(tmp_path):
    """FIXTURES §3 golden_postings: posting lists go through a segment
    file (encode_shard -> write_segment -> SegmentReader.read_terms ->
    decode) and come back as the dict-built reference lists: docIds,
    per-field tfs, doc lengths and per-doc positions."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import (
        POSITION_COLUMNS, SegmentReader, decode_posting_row,
        decode_posting_table, encode_shard, write_segment)

    tbl = _synthetic_postings(np.random.default_rng(7))
    ref: dict[int, dict[int, dict]] = {}
    for t, d, f, tf, pos, dl in zip(*(tbl[c].to_pylist()
                                      for c in tbl.column_names)):
        e = ref.setdefault(t, {}).setdefault(
            d, {"tfs": [0, 0, 0, 0], "pos": [], "dl": dl})
        e["tfs"][f] += tf
        e["pos"].extend(pos)

    cfg = IndexConfig()
    path = str(tmp_path / "seg.parquet")
    write_segment(encode_shard(tbl, cfg), path)
    assert pq.ParquetFile(path).metadata.num_row_groups >= 2
    rd = SegmentReader(path)
    got = rd.read_terms(list(ref), with_positions=True)
    assert got.num_rows == len(ref)
    assert not set(POSITION_COLUMNS) & set(
        rd.read_terms(list(ref), with_positions=False).column_names)
    n_no_pos = 0
    for i in range(got.num_rows):
        d = decode_posting_row(got.slice(i, 1), with_positions=True)
        exp = ref[got["term_id"][i].as_py()]
        docs = sorted(exp)
        assert d["doc_ids"].tolist() == docs
        assert d["tfs"].tolist() == [exp[x]["tfs"] for x in docs]
        assert d["dl"].tolist() == [exp[x]["dl"] for x in docs]
        flat, offsets = d["positions"]
        assert len(offsets) == len(docs) + 1
        for j, x in enumerate(docs):
            assert flat[offsets[j]:offsets[j + 1]].tolist() == \
                sorted(exp[x]["pos"])
            n_no_pos += not exp[x]["pos"]
    assert n_no_pos > 0
    # the bulk decode is the per-row decodes concatenated
    bulk = decode_posting_table(got, with_positions=True)
    rows = [decode_posting_row(got.slice(i, 1), with_positions=True)
            for i in range(got.num_rows)]
    for key in ("doc_ids", "tfs", "dl"):
        assert np.array_equal(bulk[key],
                              np.concatenate([r[key] for r in rows]))
    assert np.array_equal(bulk["positions"][0], np.concatenate(
        [r["positions"][0] for r in rows]))


def test_lone_part_merge_equals_general_merge(tmp_path):
    """``merge_postings`` returns a lone, fully live part as it is:
    equal to the general merge of the same postings as two parts,
    positions included.  A tombstone in the part takes the general path.
    The one-row decode copies out of the read's buffers, so what the
    searcher caches owns its memory, the transposed ``tfs`` included."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.functions.ragged import ragged_select
    from open_source_search_engine_ray.index.merge import merge_postings
    from open_source_search_engine_ray.index.segments import (
        SegmentReader, decode_posting_row, encode_shard, write_segment)

    path = str(tmp_path / "seg.parquet")
    write_segment(encode_shard(_synthetic_postings(
        np.random.default_rng(9)), IndexConfig()), path)
    rd = SegmentReader(path)
    no_tomb = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int32))

    def part(d, sel):
        return {"doc_ids": d["doc_ids"][sel], "tfs": d["tfs"][sel],
                "dl": d["dl"][sel],
                "positions": ragged_select(*d["positions"], sel)}

    def assert_equal(got, want):
        for key in ("doc_ids", "tfs", "dl"):
            assert np.array_equal(got[key], want[key]), key
        for a, b in zip(got["positions"], want["positions"]):
            assert np.array_equal(a, b)

    n_lists = 0
    for t in rd._terms[::40]:
        d = decode_posting_row(rd.read_terms([int(t)]), with_positions=True)
        n = len(d["doc_ids"])
        if n < 2:
            continue
        n_lists += 1
        for a in [d["doc_ids"], d["tfs"], d["dl"], *d["positions"]]:
            assert a.base is None and a.flags.owndata
        lone = merge_postings([(0, d)], no_tomb)
        assert all(lone[key] is d[key] for key in ("doc_ids", "tfs", "dl"))
        general = merge_postings(
            [(0, part(d, np.arange(1, n, 2))),
             (0, part(d, np.arange(0, n, 2)))], no_tomb)
        assert_equal(lone, general)
        # the part's first doc dead in its generation
        tomb = (d["doc_ids"][:1].copy(), np.zeros(1, dtype=np.int32))
        assert_equal(merge_postings([(0, d)], tomb),
                     part(d, np.arange(1, n)))
    assert n_lists > 0


def test_segment_encode_is_order_independent():
    """The same postings in shuffled row order encode to an equal segment
    table: a segment is a pure function of the postings (ROADMAP aim 3)."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import encode_shard

    rng = np.random.default_rng(11)
    tbl = _synthetic_postings(rng)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    cfg = IndexConfig()
    assert encode_shard(tbl, cfg).equals(encode_shard(shuffled, cfg))


def test_old_segment_format_fails_loudly(tmp_path):
    """Segments of format_version 2 (varbyte blobs) and 4 (stored
    statistics and block maxima) are refused on open with an error naming
    the format, not a KeyError at the first query."""
    from open_source_search_engine_ray.index.segments import SegmentReader

    stats = [("term_id", pa.uint64()), ("salt", pa.int32()),
             ("df", pa.int64()), ("cf", pa.int64()), ("max_tfq", pa.int64())]
    v2 = pa.schema(stats + [
        ("doc_blob", pa.large_binary()), ("dl_blob", pa.large_binary()),
        ("tf_blobs", pa.list_(pa.large_binary(), 4)),
        ("cnt_blob", pa.large_binary()), ("pos_blob", pa.large_binary()),
        ("bm_blob", pa.large_binary())])
    v4 = pa.schema(stats + [
        (name, pa.large_list(t)) for name, t in (
            ("doc_ids", pa.uint64()), ("dl", pa.float32()),
            ("tfs", pa.uint32()), ("pos_counts", pa.uint32()),
            ("pos_deltas", pa.uint32()), ("block_max", pa.float32()))])
    for version, schema in ((2, v2), (4, v4)):
        path = str(tmp_path / f"seg-v{version}.parquet")
        pq.write_table(schema.empty_table(), path)
        with pytest.raises(ValueError,
                           match=f"format_version {version}.*rebuild"):
            SegmentReader(path)


def test_term_addressed_reads_equal_full_filter(tmp_path):
    """``read_terms`` finds rows through the reader's resident term
    dictionary and reads only their row groups: it returns exactly the
    rows a filter over the whole table keeps, for terms at row-group
    edges, below the min, above the max, in a gap, duplicated, unsorted
    and spread over row groups; a term the file lacks costs no read."""
    import pyarrow.compute as pc

    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import (
        POSITION_COLUMNS, QUERY_COLUMNS, SegmentReader, encode_shard,
        write_segment)

    tbl = _synthetic_postings(np.random.default_rng(5))
    # term ids 5 + 7919·i: one below the min, gaps between terms
    tbl = tbl.set_column(0, "term_id", pc.add(tbl["term_id"], 5))
    path = str(tmp_path / "seg.parquet")
    write_segment(encode_shard(tbl, IndexConfig()), path)
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups >= 3
    rd = SegmentReader(path)
    full = rd.read_table()
    terms = full["term_id"].to_numpy()
    starts = rd._rg_start
    edges = [int(terms[i]) for i in (0, starts[1] - 1, starts[1],
                                     starts[2] - 1, starts[2], -1)]
    lo, hi = int(terms.min()), int(terms.max())
    gap = int(terms[100]) + 1
    reads = []
    real = rd._pf.read_row_groups

    def counted(rgs, **kw):
        reads.append(list(rgs))
        return real(rgs, **kw)

    rd._pf.read_row_groups = counted
    requests = [[t] for t in edges] + [
        [lo - 1], [hi + 1], [gap], [0],
        [lo - 1, hi + 1, gap],                       # all absent
        [edges[3], edges[0], edges[3], edges[1]],    # unsorted, repeated
        [edges[1], edges[2]],                        # adjacent rows, 2 groups
        [int(terms[3]), int(terms[600]), int(terms[1100]), gap, hi + 1],
        [int(t) for t in terms[::7]] + [int(t) for t in terms[::7]],
    ]
    for want in requests:
        for with_positions in (False, True):
            cols = QUERY_COLUMNS + (POSITION_COLUMNS if with_positions
                                    else [])
            n_reads = len(reads)
            got = rd.read_terms(want, with_positions=with_positions)
            exp = full.select(cols).filter(pc.is_in(
                full["term_id"], value_set=pa.array(want, pa.uint64())))
            assert got.column_names == cols
            assert got.equals(exp), want
            present = [t for t in want if t in rd]
            assert sorted(set(present)) == \
                exp["term_id"].to_pylist(), want
            # absent terms are never read; present ones in one call
            assert len(reads) - n_reads == (1 if present else 0), want
            if len(set(present)) == 1:
                assert len(reads[-1]) == 1   # just the term's row group


def test_open_segment_one_reader_per_file(tmp_path):
    """Threads opening the same file at once share one reader: the
    registry's check-then-open is atomic."""
    import sys
    import threading

    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import (
        encode_shard, open_segment, write_segment)

    path = str(tmp_path / "seg.parquet")
    write_segment(encode_shard(_synthetic_postings(
        np.random.default_rng(3), n_terms=50, n=400), IndexConfig()),
        path)
    got, start = [], threading.Barrier(8)

    def worker():
        start.wait(timeout=30)
        got.append(open_segment(path))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(rd is got[0] for rd in got)
