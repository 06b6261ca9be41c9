"""Pinned hash/tokenizer goldens (FIXTURES.md §3 golden_tokens /
golden_postings): regression anchors so any accidental change to the
hashing or tokenization contract fails loudly — termIds define index
identity (``SURVEY.md`` §7.5 hard part #1)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from open_source_search_engine_ray.functions.ghash import (
    TERMID_MASK, doc_id_for_conv, hash64_lower_utf8)
from open_source_search_engine_ray.functions.ragged import ragged_concat
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


def _reference_lists(tbl: pa.Table) -> dict[int, dict[int, dict]]:
    """term → doc → per-field tfs, positions and dl, built with dicts
    from posting partials."""
    ref: dict[int, dict[int, dict]] = {}
    for t, d, f, tf, pos, dl in zip(*(tbl[c].to_pylist()
                                      for c in tbl.column_names)):
        e = ref.setdefault(t, {}).setdefault(
            d, {"tfs": [0, 0, 0, 0], "pos": [], "dl": dl})
        e["tfs"][f] += tf
        e["pos"].extend(pos)
    return ref


def _write_shard(postings: pa.Table, path: str) -> None:
    """Write ``encode_shard``'s segment at ``path`` and its doc table
    beside it."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.manifest import doc_table_name
    from open_source_search_engine_ray.index.segments import (
        encode_shard, write_segment)

    segment, table = encode_shard(postings, IndexConfig())
    write_segment(table, os.path.join(os.path.dirname(path),
                                      doc_table_name(0)))
    write_segment(segment, path)


def _filler_postings(n: int) -> pa.Table:
    """One term (id 0) in ``n`` docs interleaved with
    :func:`_synthetic_postings`' (``2^62 + 2^39 + i × 2^40``), one
    posting and one position each: a list longer than a block, and the
    docs that put a wide rank between two docs of another term."""
    doc = (np.uint64(1) << np.uint64(62)) + (np.uint64(1) << np.uint64(39)) \
        + np.arange(n, dtype=np.uint64) * np.uint64(1 << 40)
    return pa.table({
        "term_id": pa.array(np.zeros(n, dtype=np.uint64)),
        "doc_id": pa.array(doc),
        "field": pa.array(np.ones(n, dtype=np.uint8), pa.uint8()),
        "tf": pa.array(np.ones(n, dtype=np.int32)),
        "positions": pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)),
            pa.array(np.arange(n, dtype=np.int32) % 4000)),
        "dl": pa.array((doc % np.uint64(997)).astype(np.float32) + 5),
    })


def test_golden_postings_roundtrip(tmp_path):
    """FIXTURES §3 golden_postings: posting lists go through a segment
    file and its doc table (encode_shard -> write_segment ->
    SegmentReader.read_terms -> decode_posting_row) and come back as the
    dict-built reference lists — docIds >= 2^62 exact through the table,
    ordinal gaps above 2^16, per-field tfs, doc lengths and per-doc
    positions — read with and without positions, for terms on both
    sides of every block boundary and a list longer than one block.  One
    whole-file decode (compaction's read) equals the per-term reads, and
    an empty shard round-trips to no rows."""
    from open_source_search_engine_ray.index.segments import (
        BLOCK_BYTES, SegmentReader, decode_posting_row, decode_postings)

    rng = np.random.default_rng(7)
    # docs 2^62 + 47j × 2^40 among 140k filler docs: about 48 ranks apart
    main = _synthetic_postings(rng)
    main = main.set_column(1, "doc_id", pa.array(
        (np.uint64(1) << np.uint64(62)) + (main["doc_id"].to_numpy()
                                           - (np.uint64(1) << np.uint64(62)))
        * np.uint64(47)))
    main = main.set_column(5, "dl", pa.array(
        (main["doc_id"].to_numpy() % np.uint64(997)).astype(np.float32) + 5))
    # term 0's list is longer than a block
    tbl = pa.concat_tables([main, _filler_postings(140_000)])
    ref = _reference_lists(tbl)
    all_docs = sorted({d for lst in ref.values() for d in lst})
    rank = {d: i for i, d in enumerate(all_docs)}
    assert all_docs[0] >= 1 << 62
    assert max(rank[b] - rank[a] for lst in ref.values()
               for a, b in zip(sorted(lst), sorted(lst)[1:])) > 1 << 16
    path = str(tmp_path / "seg.seg")
    _write_shard(tbl, path)
    rd = SegmentReader(path)
    post_first, pos_first = rd._post[0], rd._pos[0]
    assert len(post_first) > 3 and len(pos_first) > 3   # >= 2 blocks each
    assert rd._terms.tolist() == sorted(ref)
    assert rd.table().doc_ids.tolist() == all_docs
    assert 20 * len(ref[0]) > BLOCK_BYTES
    n_no_pos = 0
    rows = []
    for t in sorted(ref):
        exp = ref[t]
        docs = sorted(exp)
        for with_positions in (False, True):
            got = rd.read_terms(t, with_positions=with_positions)
            assert got.terms.tolist() == [t]
            assert got.nbytes >= (20 + 4 * with_positions) * len(docs)
            assert got.table is rd.table()
            d = decode_posting_row(got, with_positions=with_positions)
            assert d["doc_ids"].tolist() == docs
            assert d["tfs"].tolist() == [exp[x]["tfs"] for x in docs]
            assert d["dl"].tolist() == [exp[x]["dl"] for x in docs]
            assert ("positions" in d) == with_positions
        flat, offsets = d["positions"]
        assert len(offsets) == len(docs) + 1
        for j, x in enumerate(docs):
            assert flat[offsets[j]:offsets[j + 1]].tolist() == \
                sorted(exp[x]["pos"])
            n_no_pos += not exp[x]["pos"]
        rows.append(d)
    assert n_no_pos > 0
    # the whole-file decode is the per-term decodes concatenated
    bulk = decode_postings(rd.read_all(), with_positions=True)
    assert bulk["term"].tolist() == [t for t in sorted(ref)
                                     for _ in ref[t]]
    for key in ("doc_ids", "tfs", "dl"):
        assert np.array_equal(bulk[key],
                              np.concatenate([r[key] for r in rows]))
    for i in (0, 1):
        assert np.array_equal(bulk["positions"][i], ragged_concat(
            [r["positions"] for r in rows])[i])
    # an empty shard: a footer, no blocks and an empty doc table
    _write_shard(tbl.slice(0, 0), path)
    rd = SegmentReader(path)
    assert len(rd._terms) == 0 and 0 not in rd
    assert len(rd.table().doc_ids) == 0
    for raw in (rd.read_all(), rd.read_terms(0), rd.read_terms(7919)):
        assert raw.nbytes == 0
        assert all(len(v) == 0 for v in decode_postings(raw, True).values()
                   if isinstance(v, np.ndarray))
        assert all(len(v) == 0 for v in decode_posting_row(raw).values())


def test_encode_refuses_docs_its_table_lacks(tmp_path):
    """A posting whose doc the doc table does not hold would name
    another doc by its ordinal: the encode step raises a ``ValueError``
    naming the partition, and refuses a generation of more docs than a
    uint32 ordinal addresses."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.build import _encode_partition
    from open_source_search_engine_ray.index.segments import (
        MAX_DOCS, encode_from_groups)

    tbl = _synthetic_postings(np.random.default_rng(4)).drop_columns(["dl"])
    docs = np.unique(tbl["doc_id"].to_numpy())
    out = str(tmp_path / "idx")
    for table in (docs[1:], docs[:-1], docs[::2]):
        with pytest.raises(ValueError, match="partition 3: .* docs its "
                           "doc table does not hold"):
            _encode_partition(tbl, 3, IndexConfig(), 10 ** 9, table, out,
                              "fp")
    assert not os.path.exists(out)
    _encode_partition(tbl, 3, IndexConfig(), 10 ** 9, docs, out, "fp")
    z = np.zeros(0, dtype=np.int64)
    encode_from_groups(z, z, np.zeros((0, 4)), z, z, MAX_DOCS)
    with pytest.raises(ValueError, match="uint32 ordinal"):
        encode_from_groups(z, z, np.zeros((0, 4)), z, z, MAX_DOCS + 1)


def test_lone_part_merge_equals_general_merge(tmp_path):
    """``merge_postings`` returns a lone, fully live part as it is:
    equal to the general merge of the same postings as two parts,
    positions included.  A tombstone in the part takes the general path.
    The one-row decode copies out of the read's buffers, so what the
    searcher caches owns its memory, the transposed ``tfs`` included."""
    from open_source_search_engine_ray.functions.ragged import ragged_select
    from open_source_search_engine_ray.index.merge import merge_postings
    from open_source_search_engine_ray.index.segments import (
        SegmentReader, decode_posting_row)

    path = str(tmp_path / "seg.seg")
    _write_shard(_synthetic_postings(np.random.default_rng(9)), path)
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
        d = decode_posting_row(rd.read_terms(int(t)), with_positions=True)
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
    """The same postings in shuffled row order encode to the same segment
    and doc table bytes: both are pure functions of the postings
    (ROADMAP aim 3)."""
    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.segments import encode_shard

    rng = np.random.default_rng(11)
    tbl = _synthetic_postings(rng)
    shuffled = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
    cfg = IndexConfig()
    assert encode_shard(tbl, cfg) == encode_shard(shuffled, cfg)


def test_old_segment_format_fails_loudly(tmp_path):
    """A segment the engine cannot read is refused on open with a
    ``ValueError`` naming the file: a format_version 6 Parquet segment
    (and any older Parquet layout), a format_version 7 block file (docId
    gaps and doc lengths in its posting blocks), another format version,
    a wrong magic and a file truncated anywhere.  A doc table it cannot
    read — missing, truncated, of another version or of another doc
    count than the segment indexes — is refused, naming the table, by
    the first read that needs it."""
    import struct

    from open_source_search_engine_ray.config import IndexConfig
    from open_source_search_engine_ray.index.manifest import doc_table_name
    from open_source_search_engine_ray.index.segments import (
        SegmentReader, encode_doc_table, encode_shard, write_segment)

    v6 = pa.schema([("term_id", pa.uint64())] + [
        (name, pa.large_list(t)) for name, t in (
            ("doc_ids", pa.uint64()), ("dl", pa.float32()),
            ("tfs", pa.uint32()), ("pos_counts", pa.uint32()),
            ("pos_deltas", pa.uint32()))])
    path = str(tmp_path / "part-00000.parquet")
    pq.write_table(v6.empty_table(), path)
    with pytest.raises(ValueError, match=f"{path} has the Parquet layout "
                       "of format_version 6.*rebuild"):
        SegmentReader(path)

    tbl = _synthetic_postings(np.random.default_rng(1))
    good, table = encode_shard(tbl, IndexConfig())
    assert good[-4:] == b"OSEG" and table[-4:] == b"ODOC"
    version = len(good) - 8
    packed, raw = struct.unpack_from("<QQ", good, len(good) - 36)
    bad = {
        "magic": good[:-1] + b"X",
        "version": good[:version] + (6).to_bytes(4, "little") + good[-4:],
        # format 7's trailer: footer sizes, version, magic
        "format 7": good[:-36] + struct.pack("<QQI4s", packed, raw, 7,
                                             b"OSEG"),
        "no trailer": good[:-5],
        "no footer": good[-36:],
        "half": good[:len(good) // 2],
        "no block": good[1000:],
        "empty": b"",
    }
    for what, data in bad.items():
        path = str(tmp_path / f"part-{what.replace(' ', '_')}.seg")
        with open(path, "wb") as f:
            f.write(data)
        match = {"version": "format_version 6; .*rebuild",
                 "format 7": "format_version 7; .*rebuild"}.get(
            what, "truncated|corrupt|no segment magic")
        with pytest.raises(ValueError, match=f"segment {path} .*({match})"):
            SegmentReader(path)

    seg_dir = tmp_path / "gen"
    path, table_path = str(seg_dir / "part-good.seg"), str(
        seg_dir / doc_table_name(0))
    write_segment(good, path)
    docs = np.unique(tbl["doc_id"].to_numpy())
    term = int(tbl["term_id"][0].as_py())
    bad_tables = {
        "missing": (None, "is missing"),
        "truncated": (table[:-5], "no doc-table magic"),
        "half": (table[:len(table) // 2], "no doc-table magic"),
        "short": (table[12:], "truncated or corrupt"),
        "format 7": (table[:-8] + struct.pack("<I4s", 7, b"ODOC"),
                     "format_version 7; .*rebuild"),
        "other docs": (encode_doc_table(docs[1:], np.ones(len(docs) - 1)),
                       f"holds {len(docs) - 1} docs; segment {path} "
                       f"indexes a table of {len(docs)}"),
    }
    for what, (data, match) in bad_tables.items():
        if data is not None:
            write_segment(data, table_path)
        rd = SegmentReader(path)
        assert rd.read_terms(term + 1).nbytes == 0    # no posting, no table
        with pytest.raises(ValueError, match=f"doc table {table_path} "
                                             f".*{match}"):
            rd.read_terms(term)
        if data is not None:
            os.remove(table_path)
    write_segment(table, table_path)
    assert SegmentReader(path).read_terms(term).nbytes > 0


def test_term_addressed_reads_equal_full_filter(tmp_path, monkeypatch):
    """``read_terms`` finds a term's row through the reader's resident
    footer and reads only its block: it returns exactly the rows a
    filter over the whole-file decode keeps, for terms at block edges,
    inside blocks, below the min, above the max and in a gap.  A term
    the file lacks costs no read, and a present one costs one ``pread``
    of its posting block (and one of its position block with
    positions)."""
    import pyarrow.compute as pc

    from open_source_search_engine_ray.functions.ragged import ragged_select
    from open_source_search_engine_ray.index.segments import (
        SegmentReader, decode_postings)

    tbl = _synthetic_postings(np.random.default_rng(5))
    # term ids 5 + 7919·i: one below the min, gaps between terms
    tbl = tbl.set_column(0, "term_id", pc.add(tbl["term_id"], 5))
    path = str(tmp_path / "seg.seg")
    _write_shard(tbl, path)
    rd = SegmentReader(path)
    full = decode_postings(rd.read_all(), with_positions=True)
    terms = rd._terms
    first = rd._post[0]
    assert len(first) > 3
    edges = [int(terms[i]) for i in (0, first[1] - 1, first[1],
                                     first[2] - 1, first[2], -1)]
    lo, hi = int(terms.min()), int(terms.max())
    gap = int(terms[100]) + 1
    reads = []
    pread = os.pread

    def counted(fd, n, offset):
        reads.append(offset)
        return pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", counted)
    requests = edges + [int(t) for t in terms[3::97]] + [
        lo - 1, hi + 1, gap, 0]
    for want in requests:
        keep = np.flatnonzero(full["term"] == np.uint64(want))
        for with_positions in (False, True):
            n_reads = len(reads)
            raw = rd.read_terms(want, with_positions=with_positions)
            got = decode_postings(raw, with_positions=with_positions)
            for key in ("term", "doc_ids", "tfs", "dl"):
                assert np.array_equal(got[key], full[key][keep]), want
            if with_positions:
                for a, b in zip(got["positions"],
                                ragged_select(*full["positions"], keep)):
                    assert np.array_equal(a, b), want
            present = want in rd
            assert raw.terms.tolist() == [want] * present, want
            assert len(reads) - n_reads == present * (1 + with_positions)
            assert (raw.nbytes > 0) == present, want


def test_open_segment_one_reader_per_file(tmp_path):
    """Threads opening the same file at once share one reader, and
    readers one doc table: the registry's check-then-open is atomic."""
    import sys
    import threading

    from open_source_search_engine_ray.index.segments import open_segment

    path = str(tmp_path / "seg.seg")
    _write_shard(_synthetic_postings(
        np.random.default_rng(3), n_terms=50, n=400), path)
    got, tables, start = [], [], threading.Barrier(8)

    def worker():
        start.wait(timeout=30)
        got.append(open_segment(path))
        tables.append(got[-1].table())

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
    assert len(tables) == 8 and all(t is tables[0] for t in tables)
