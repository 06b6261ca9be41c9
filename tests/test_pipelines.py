"""The driver's correctness gate, embedded: every queries() entry runs at
smoke scale, and every SQL-checked entry is compared against its DuckDB
oracle (row count + sorted-value equality), inside the repo's own pytest
suite."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__

    return __ray_entry__


@pytest.fixture(scope="module")
def ducks():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    return con


def _to_pandas(res):
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype(np.float64)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def test_entry_smoke(entrymod):
    df = _to_pandas(entrymod.entry())
    assert len(df) >= 0
    assert list(df.columns) == ["query_id", "rank", "doc_id", "score"]


def test_all_queries_run(entrymod):
    qs = entrymod.queries()
    assert len(qs) >= 20
    for name, fn in qs.items():
        df = _to_pandas(fn(SF))
        assert isinstance(df, pd.DataFrame), name
        assert len(df.columns) > 0, name


def test_sql_checked_queries_match_oracle(entrymod, ducks):
    qs = entrymod.queries()
    osql = entrymod.oracle_sql()
    assert len(osql) >= 12
    for name, sql in osql.items():
        ray_df = _normalize(_to_pandas(qs[name](SF)))
        sql_df = _normalize(ducks.execute(sql).fetchdf())
        assert len(ray_df) == len(sql_df), name
        assert list(ray_df.columns) == list(sql_df.columns), name
        pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False,
                                      obj=name)


def test_search_parallel_equals_bm25_topk(entrymod):
    """``transcripts_search_parallel`` is ``transcripts_bm25_topk``'s
    ranking of the first 8 reference queries, row for row."""
    from open_source_search_engine_ray.sources.queryset import query_set

    cols = ["query_id", "rank", "doc_id", "score"]
    qs = entrymod.queries()
    got = _to_pandas(qs["transcripts_search_parallel"](SF))[cols]
    full = _to_pandas(qs["transcripts_bm25_topk"](SF))
    first8 = [qid for qid, _, _ in query_set()[:8]]
    want = full[full["query_id"].isin(first8)][cols]
    assert len(want) > 0
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


def test_embedding_neardup_lsh_anchor(entrymod):
    """The subquadratic LSH path is anchored to its exact sibling: every
    reported pair is a true ≥tau pair (the in-bucket verify is exact), and
    recall ≥ 0.8 at smoke scale (expected ≈0.95 by construction)."""
    from open_source_search_engine_ray.pipelines import similarity

    ex = similarity.embedding_neardup_pairs(SF).to_pandas()
    lsh = similarity.embedding_neardup_lsh(SF).to_pandas()
    ek = set(zip(ex["vec_a"].astype(int), ex["vec_b"].astype(int)))
    lk = set(zip(lsh["vec_a"].astype(int), lsh["vec_b"].astype(int)))
    assert lk <= ek                       # precision 1 (exact verify)
    assert len(lk & ek) >= 0.8 * len(ek)  # recall gate
    # sims agree with the exact values for common pairs
    exm = {(int(a), int(b)): s for a, b, s in
           zip(ex["vec_a"], ex["vec_b"], ex["sim"])}
    for a, b, s in zip(lsh["vec_a"], lsh["vec_b"], lsh["sim"]):
        assert abs(exm[(int(a), int(b))] - s) < 1e-9


def test_embedding_kmeans_anchor(entrymod):
    """Rows-only entry anchored by its defining invariant: every vector is
    assigned to the centroid it is most cosine-similar to, the reported
    sim equals that similarity, and every corpus vector appears once."""
    import pyarrow.parquet as pq

    from open_source_search_engine_ray.pipelines import similarity

    out = similarity.embedding_kmeans(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet")
    assert len(out) == emb.num_rows
    assert out["vec_id"].is_unique
    cents = similarity._train_ivf_centroids(SF)
    ids, x = similarity._norm_rows(emb)
    sims = x @ cents.T
    best = dict(zip(ids.astype(int), np.argmax(sims, axis=1)))
    bsim = dict(zip(ids.astype(int), np.max(sims, axis=1)))
    for vid, cid, s in zip(out["vec_id"], out["cluster_id"], out["sim"]):
        assert int(cid) == int(best[int(vid)])
        assert abs(s - bsim[int(vid)]) < 1e-9


def test_curate_and_write_resumable(ray_session, tmp_path):
    """Partitioned curation output: first run writes all shards; after a
    simulated mid-job failure (one shard's _SUCCESS removed) the re-run
    recomputes ONLY that shard, and the union of shards equals the
    pipeline's own result."""
    import os

    import pyarrow.parquet as pq

    from open_source_search_engine_ray.pipelines import curation

    out = str(tmp_path / "curated")
    r1 = curation.curate_and_write(SF, out)
    assert len(r1["written"]) == curation.N_OUT_PARTS
    assert r1["skipped"] == []

    r2 = curation.curate_and_write(SF, out)          # fully committed
    assert r2["written"] == []
    assert len(r2["skipped"]) == curation.N_OUT_PARTS

    os.remove(os.path.join(out, "part=3", "_SUCCESS"))
    r3 = curation.curate_and_write(SF, out)          # resume one shard
    assert r3["written"] == ["part=3"]
    assert len(r3["skipped"]) == curation.N_OUT_PARTS - 1

    got = pd.concat([
        pq.read_table(os.path.join(out, f"part={p}", "data.parquet"))
        .to_pandas() for p in range(curation.N_OUT_PARTS)])
    want = curation.curate_corpus(SF).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_jaccard_hot_shingle_corpus(ray_session, tmp_path):
    """Exactness under an injected hot shingle: hundreds of docs share a
    boilerplate prefix (a pathological skew key for the round-1
    shared-shingle pair join); the prefix-filtered algorithm must still
    produce exactly the DuckDB answer."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from open_source_search_engine_ray.pipelines import dedup

    boiler = "all rights reserved contact the administrator for details"
    rows = []
    for i in range(300):   # hot shingles: df=300 for every boiler shingle
        rows.append((i, f"{boiler} unique tail {i} zz{i:04d} qq{i:04d}"))
    # two true near-dup pairs sharing long bodies
    rows.append((1000, "alpha beta gamma delta epsilon zeta eta theta"))
    rows.append((1001, "alpha beta gamma delta epsilon zeta eta iota"))
    rows.append((1002, boiler + " shared tail marker one two"))
    rows.append((1003, boiler + " shared tail marker one three"))
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })
    p = tmp_path / "documents.parquet"
    pq.write_table(tbl, p)

    res = dedup.ngram_jaccard_pairs(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    ora = con.execute(dedup.ngram_jaccard_pairs_sql()).fetchdf()
    res = res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    ora = ora.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(res) == len(ora) and len(res) >= 2
    assert res["doc_a"].tolist() == ora["doc_a"].astype(int).tolist()
    assert res["doc_b"].tolist() == ora["doc_b"].astype(int).tolist()
    assert np.allclose(res["jaccard"], ora["jaccard"])
    # the dupe-cluster labeling over the same corpus, distributed
    labels = dedup.label_propagation_components(
        dedup.ngram_jaccard_pairs(str(tmp_path))).to_pandas()
    lab = dict(zip(labels["doc_id"].astype(int),
                   labels["cluster_id"].astype(int)))
    assert lab[1001] == 1000 and lab[1003] == 1002


def test_multimodal_real_decode(entrymod):
    """The decode stage performs REAL decoding for uncompressed formats:
    PPM pixel parse round-trips and WAV features reflect the signal."""
    import io
    import wave as wave_mod

    import numpy as np

    from open_source_search_engine_ray.pipelines.multimodal import (
        DecodeStage, decode_ppm, decode_wav, frame_sample, resize_gray)

    # constant-color PPM: decode must recover the exact pixels
    px = np.full((4, 6, 3), (10, 200, 30), dtype=np.uint8)
    ppm = b"P6\n6 4\n255\n" + px.tobytes()
    img = decode_ppm(ppm)
    assert img.shape == (4, 6, 3) and (img == px).all()
    thumb = resize_gray(img)
    assert np.allclose(thumb, thumb[0, 0])   # constant image → flat thumb

    # pure 1 kHz sine WAV: spectral centroid ≈ 1000 Hz, rms ≈ 0.7/√2
    rate, n = 8000, 2048
    t = np.arange(n) / rate
    pcm = (0.7 * np.sin(2 * np.pi * 1000 * t) * 32767).astype("<i2")
    buf = io.BytesIO()
    with wave_mod.open(buf, "wb") as wf:
        wf.setnchannels(1); wf.setsampwidth(2); wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())
    samples, r = decode_wav(buf.getvalue())
    assert r == rate and len(samples) == n
    assert abs(np.sqrt((samples ** 2).mean()) - 0.7 / np.sqrt(2)) < 0.01
    assert len(frame_sample(samples, 4)) == n // 4
    stage = DecodeStage()
    feats = stage._features_for(buf.getvalue(), "audio/wav")
    assert abs(feats[2] * (rate / 2) - 1000) < 50   # centroid ≈ 1 kHz

    # formats that genuinely need codec libraries stay gated
    with pytest.raises(NotImplementedError):
        stage._features_for(b"\x00\x01", "audio/mpeg")

    # the full pipeline runs over the corpus
    df = entrymod.queries()["multimodal_features"](SF).to_pandas()
    assert len(df) == 500 and len(df["features"].iloc[0]) == 8
    assert set(df["media_type"]) == {"image/x-portable-pixmap",
                                     "image/png", "image/jpeg",
                                     "audio/wav"}


def test_png_codec_byte_exact():
    """decode_png must recover the EXACT pixels: encoder round-trip for
    every supported channel count, plus hand-filtered scanlines
    exercising all five PNG filter types against a per-byte reference
    unfilter."""
    import struct
    import zlib

    import numpy as np

    from open_source_search_engine_ray.pipelines.multimodal import (
        PNG_SIG, _png_chunk, decode_png, encode_png)

    rng = np.random.default_rng(7)
    for ch in (1, 2, 3, 4):
        px = rng.integers(0, 256, (9, 7, ch), dtype=np.uint8)
        out = decode_png(encode_png(px))
        assert out.shape == (9, 7, ch) and (out == px).all(), ch

    # hand-build a 5-row RGB image where row i uses filter type i,
    # and unfilter it with an independent per-byte reference
    h, w, ch = 5, 6, 3
    stride = w * ch
    px = rng.integers(0, 256, (h, stride), dtype=np.uint8)
    raw = bytearray()
    for i in range(h):
        f = i % 5
        raw.append(f)
        prev = px[i - 1].astype(int) if i else np.zeros(stride, int)
        for x in range(stride):
            left = int(px[i, x - ch]) if x >= ch else 0
            up = int(prev[x])
            ul = int(prev[x - ch]) if x >= ch else 0
            cur = int(px[i, x])
            if f == 0:
                filt = cur
            elif f == 1:
                filt = cur - left
            elif f == 2:
                filt = cur - up
            elif f == 3:
                filt = cur - ((left + up) >> 1)
            else:
                p = left + up - ul
                pa_, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if (pa_ <= pb and pa_ <= pc) else \
                    (up if pb <= pc else ul)
                filt = cur - pred
            raw.append(filt & 0xFF)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
               + _png_chunk(b"IEND", b""))
    out = decode_png(payload)
    assert (out.reshape(h, stride) == px).all()


def test_jpeg_codec_roundtrip():
    """Baseline JPEG codec: real entropy decode + dequant + IDCT.
    Uniform images round-trip exactly (DC-only), smooth gradients are
    quantization-bounded, and the decoder's profile gates (progressive
    SOF2, subsampled chroma, restart intervals) raise loudly."""
    import struct

    import numpy as np

    from open_source_search_engine_ray.functions.jpeg import (
        decode_jpeg, encode_jpeg)

    # uniform color: every 8x8 block is DC-only → exact reconstruction
    px = np.full((16, 24, 3), (60, 120, 200), np.uint8)
    out = decode_jpeg(encode_jpeg(px, 90))
    assert out.shape == (16, 24, 3) and (out == px).all()

    # smooth gradient (non-multiple-of-8 dims): error bounded by the
    # q=90 quantization step, well under visual thresholds
    yy, xx = np.mgrid[0:24, 0:17]
    img = np.stack([np.clip(yy * 8, 0, 255), np.clip(xx * 10, 0, 255),
                    np.clip(100 + yy * 3 + xx * 2, 0, 255)],
                   -1).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, 90))
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.max() <= 6 and err.mean() < 2.0

    # grayscale single-component scan
    g = np.clip(yy * 7 + xx * 3, 0, 255).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(g, 90))
    assert out.shape == (24, 17, 1)
    assert np.abs(out[:, :, 0].astype(int) - g.astype(int)).max() <= 3

    # random noise survives the round trip structurally (lossy values)
    rng = np.random.default_rng(5)
    nz = rng.integers(0, 256, (13, 29, 3), np.uint8)
    assert decode_jpeg(encode_jpeg(nz, 75)).shape == (13, 29, 3)

    # spec-legal 0xFF fill bytes before a marker decode identically
    j = encode_jpeg(img, 90)
    i = j.find(b"\xff\xdb")
    assert (decode_jpeg(j[:i] + b"\xff\xff" + j[i:])
            == decode_jpeg(j)).all()

    # SOS scan order != SOF frame order is spec-legal (T.81 B.2.3):
    # the decoder must follow the scan's interleave, not frame order
    assert (decode_jpeg(encode_jpeg(img, 90, scan_order=(2, 1, 0)))
            == decode_jpeg(j)).all()

    # 4:2:0 chroma subsampling (the dominant real-world layout):
    # uniform chroma survives exactly; smooth gradients stay bounded
    out420 = decode_jpeg(encode_jpeg(img, 90, subsampling="420"))
    err = np.abs(out420.astype(int) - img.astype(int))
    assert out420.shape == img.shape and err.max() <= 15 and \
        err.mean() < 4.0
    assert (decode_jpeg(encode_jpeg(px, 90, subsampling="420"))
            == px).all()

    # restart intervals: RSTn segmentation + DC-predictor reset must
    # reproduce the no-DRI decode bit-for-bit (same quantized coefs)
    assert (decode_jpeg(encode_jpeg(img, 90, restart_interval=2))
            == decode_jpeg(j)).all()
    assert (decode_jpeg(encode_jpeg(img, 90, subsampling="420",
                                    restart_interval=1,
                                    scan_order=(2, 0, 1)))
            == out420).all()

    # profile gates
    payload = bytearray(encode_jpeg(g, 90))
    i = payload.find(b"\xff\xc0")
    payload[i + 1] = 0xC2                       # rewrite SOF0 → SOF2
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))
    payload = bytearray(encode_jpeg(img, 90))
    i = payload.find(b"\xff\xc0")
    payload[i + 2 + 2 + 6 + 4] += 0x10          # comp 2 sampling → 2x1
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))
    payload = bytearray(encode_jpeg(g, 90))
    i = payload.find(b"\xff\xda")
    dri = b"\xff\xdd" + struct.pack(">HH", 4, 4)
    payload[i:i] = dri                 # claim restarts that aren't there
    with pytest.raises(ValueError):
        decode_jpeg(bytes(payload))

    with pytest.raises(ValueError):
        decode_jpeg(b"\x89PNG not a jpeg")


def test_url_normalize_goldens(entrymod):
    """Url.cpp / Punycode.cpp analogue: RFC 3986 syntax normalization +
    IDNA hosts, golden cases + idempotence + the grouped pipeline."""
    from open_source_search_engine_ray.functions.urlnorm import (
        domain_of, normalize_url, synth_url)

    goldens = [
        ("HTTP://Example.COM:80/a/b/../c#frag", "http://example.com/a/c"),
        ("https://example.com:443/./x/y", "https://example.com/x/y"),
        ("example.com/p%61th/%7Euser", "http://example.com/path/~user"),
        ("http://münchen.example/", "http://xn--mnchen-3ya.example/"),
        ("http://example.com.", "http://example.com/"),
        ("http://example.com/a/../../b", "http://example.com/b"),
        ("http://example.com/a/b/..", "http://example.com/a/"),
        ("http://example.com/%2F?a=%2F", "http://example.com/%2F?a=%2F"),
        # RFC 3986 §6 preserves userinfo and IPv6 brackets; malformed
        # ports survive verbatim (be liberal — Url.cpp indexed them)
        ("http://[::1]:8080/x", "http://[::1]:8080/x"),
        ("http://[2001:DB8::1]:80/x", "http://[2001:db8::1]/x"),
        ("http://alice@Example.com/x", "http://alice@example.com/x"),
        ("http://example.com:99999/", "http://example.com:99999/"),
        ("http://example.com:bad/a", "http://example.com:bad/a"),
    ]
    for raw, want in goldens:
        assert normalize_url(raw) == want, raw
        assert normalize_url(want) == want      # idempotent
    assert domain_of("wiki.example.org") == "example.org"

    df = entrymod.queries()["url_host_stats"](SF).to_pandas()
    # every messy synthetic variant collapses to a canonical host:
    # no uppercase, no trailing dots, no non-ASCII
    assert int(df["n_urls"].sum()) == 500
    hosts = set(df["host"])
    assert all(h == h.lower() and not h.endswith(".") and h.isascii()
               for h in hosts)
    assert "xn--mnchen-3ya.example" in hosts
    assert set(df.columns) == {"host", "domain", "n_urls"}


def test_ivf_cosine_recall_anchor(entrymod):
    """IVF approximate top-k: per-query recall@10 vs the exact brute force
    ≥ 0.5 on average (nprobe/nlist = 8/32 scans ~25% of the corpus; the
    synthetic embeddings are near-uniform so this is the expected regime),
    and every returned sim is the true cosine (no approximation in the
    scored values, only in candidate coverage)."""
    from open_source_search_engine_ray.pipelines import similarity

    exact = similarity.cosine_topk(SF).to_pandas()
    ivf = similarity.ivf_cosine_topk(SF).to_pandas()
    recalls = []
    for q in exact["query_vec_id"].unique():
        e = set(exact[exact.query_vec_id == q]["vec_id"].astype(int))
        a = set(ivf[ivf.query_vec_id == q]["vec_id"].astype(int))
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls
    ex = {(int(q), int(v)): s for q, v, s in zip(
        exact["query_vec_id"], exact["vec_id"], exact["sim"])}
    for q, v, s in zip(ivf["query_vec_id"], ivf["vec_id"], ivf["sim"]):
        if (int(q), int(v)) in ex:
            assert abs(ex[(int(q), int(v))] - s) < 1e-9


def test_minhash_anchor_vs_exact(entrymod):
    """MinHash+LSH banding anchored to the exact Jaccard sibling: pairs
    with true J ≥ 0.7 are recalled at ≥ 0.9 (expected ≈0.99 at 16 bands ×
    4 rows), and signature estimates track true Jaccard within 0.25."""
    from open_source_search_engine_ray.pipelines import dedup

    exact = dedup.ngram_jaccard_pairs(SF).to_pandas()
    mh = dedup.minhash_lsh_pairs(SF).to_pandas()
    mh_keys = {(int(a), int(b)): e for a, b, e in
               zip(mh["doc_a"], mh["doc_b"], mh["est_jaccard"])}
    high = exact[exact["jaccard"] >= 0.7]
    assert len(high) > 0
    found = sum((int(a), int(b)) in mh_keys
                for a, b in zip(high["doc_a"], high["doc_b"]))
    assert found >= 0.9 * len(high)
    for a, b, j in zip(exact["doc_a"], exact["doc_b"], exact["jaccard"]):
        est = mh_keys.get((int(a), int(b)))
        if est is not None:
            assert abs(est - j) <= 0.25, (a, b, j, est)


@pytest.mark.parametrize("n_blocks", [None, 32])
def test_doc_sortby_dl_top_k_per_batch(ray_session, sf_correct, monkeypatch,
                                       n_blocks):
    """The sort-by-dl entry keeps each batch's top SORTBY_K before the
    driver collect; the global top-K still equals its SQL oracle on
    sf0.01, read as it is and split into 32 blocks (one batch each)."""
    from open_source_search_engine_ray.pipelines import doc_search

    sf = sf_correct
    if n_blocks is not None:
        read = doc_search._read_docs
        monkeypatch.setattr(doc_search, "_read_docs",
                            lambda d: read(d).repartition(n_blocks))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(doc_search.doc_sortby_dl_sql()).fetchdf()
    got = doc_search.doc_sortby_dl(sf)
    assert len(want) == doc_search.SORTBY_K
    assert got["rank"].tolist() == want["rank"].tolist()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["dl"].tolist() == want["dl"].tolist()
