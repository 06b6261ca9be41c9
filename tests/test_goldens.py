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
    write_segment(encode_shard(tbl, cfg, 0, 100.0), path)
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
        assert len(d["block_max"]) == -(-len(docs) // cfg.block_size)
    assert n_no_pos > 0
    # the bulk decode is the per-row decodes concatenated
    bulk = decode_posting_table(got, with_positions=True)
    rows = [decode_posting_row(got.slice(i, 1), with_positions=True)
            for i in range(got.num_rows)]
    for key in ("doc_ids", "tfs", "dl", "block_max"):
        assert np.array_equal(bulk[key],
                              np.concatenate([r[key] for r in rows]))
    assert np.array_equal(bulk["positions"][0], np.concatenate(
        [r["positions"][0] for r in rows]))


def test_segment_encode_is_order_independent():
    """The same postings in shuffled row order encode to an equal segment
    table: a segment is a pure function of the postings (ROADMAP aim 3)."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import encode_shard

    rng = np.random.default_rng(11)
    tbl = _synthetic_postings(rng)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    cfg = IndexConfig()
    assert encode_shard(tbl, cfg, 3, 80.0).equals(
        encode_shard(shuffled, cfg, 3, 80.0))


def test_old_segment_format_fails_loudly(tmp_path):
    """A format_version 2 (varbyte blob) segment is refused on open with
    an error naming the format, not a KeyError at the first query."""
    from open_source_search_engine_ray.index.segments import SegmentReader

    v2 = pa.schema([
        ("term_id", pa.uint64()), ("salt", pa.int32()), ("df", pa.int64()),
        ("cf", pa.int64()), ("max_tfq", pa.int64()),
        ("doc_blob", pa.large_binary()), ("dl_blob", pa.large_binary()),
        ("tf_blobs", pa.list_(pa.large_binary(), 4)),
        ("cnt_blob", pa.large_binary()), ("pos_blob", pa.large_binary()),
        ("bm_blob", pa.large_binary())])
    path = str(tmp_path / "seg-v2.parquet")
    pq.write_table(v2.empty_table(), path)
    with pytest.raises(ValueError, match="format_version 2.*rebuild"):
        SegmentReader(path)
