"""Per-document language prior — the reference's query-language weight
(``PosdbTable.cpp:3918`` ``langWeight``: a result whose document language
matches the query language — the ``qlang`` parm, ``SearchInput.cpp`` —
keeps full score; others are multiplied down by the sameLangWeight parm).

Two halves, both riding machinery that already exists:

- **Build** (:func:`build_doclang`): one streaming pass over the index's
  LIVE docstore (same view as the spell vocabulary).  Map-side, each
  batch concatenates the turns it holds per doc and classifies the
  prefix with the TextCat n-gram classifier (functions/langid.py) —
  only tiny ``(doc_id, lang, n_chars)`` rows ever shuffle; a
  ``groupby(doc_id)`` picks the classification that saw the most text
  (deterministic ties by lang asc).  Written as ``doclang.parquet``
  beside the generations file.

- **Serve** (:func:`language_prior`): loads the doclang table once
  (sorted doc_id + lang code arrays — 9 bytes/doc, the same
  broadcast-sized shape as the tombstone set) and builds the
  ``(sorted_doc_ids, multipliers)`` pair the engine's existing
  ``doc_prior`` hook consumes: ``1.0`` where the doc's language equals
  the query language, ``weight`` elsewhere.  Because it is a doc_prior,
  engine and oracle share the kernel — rank identity holds by
  construction (tests/test_budget_prior.py).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

DOCLANG_FILE = "doclang.parquet"
DEFAULT_LANG_WEIGHT = 0.5       # the sameLangWeight analogue
PREFIX_CHARS = 600              # classification prefix per doc


def _doclang_path(out_dir: str) -> str:
    return os.path.join(out_dir, DOCLANG_FILE)


def build_doclang(out_dir: str) -> str:
    """Classify every live document's language and write
    ``doclang.parquet``.  Returns the file path."""
    from ..functions.langid import classify
    from ..index.merge import live_docs_ds

    def partial(b: pa.Table) -> pa.Table:
        texts: dict[int, list[str]] = {}
        for d, t in zip(b["doc_id"].to_numpy(),
                        b["text"].to_pylist()):
            lst = texts.setdefault(int(d), [])
            if sum(len(s) for s in lst) < PREFIX_CHARS:
                lst.append(t or "")
        ids, langs, chars = [], [], []
        for d, lst in texts.items():
            prefix = " ".join(lst)[:PREFIX_CHARS]
            lang, _conf = classify(prefix)
            ids.append(d)
            langs.append(lang)
            chars.append(len(prefix))
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, dtype=np.uint64)),
            "lang": pa.array(langs, pa.string()),
            "n_chars": pa.array(chars, pa.int64()),
        })

    def best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "lang"],
                          ascending=[False, True]).head(1)
        return g[["doc_id", "lang"]]

    tbl = (live_docs_ds(out_dir, "docstore", columns=["doc_id", "text"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("doc_id").map_groups(best, batch_format="pandas")
           .to_pandas())
    if "doc_id" not in tbl.columns:     # empty corpus
        out = pa.table({"doc_id": pa.array([], pa.uint64()),
                        "lang": pa.array([], pa.string())})
    else:
        tbl = tbl.sort_values("doc_id")
        out = pa.table({
            "doc_id": pa.array(tbl["doc_id"].to_numpy().astype(np.uint64)),
            "lang": pa.array(tbl["lang"], pa.string()),
        })
    from ..index.merge import index_state_token

    path = _doclang_path(out_dir)
    tmp = path + ".tmp"
    out = out.replace_schema_metadata(
        {b"index_state": index_state_token(out_dir).encode()})
    pq.write_table(out, tmp)
    os.replace(tmp, path)
    return path


def load_doclang(out_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """→ (sorted doc_ids uint64, lang codes object array); builds the
    table on first use and REBUILDS it whenever the index has been
    maintained (add/delete/compact) since it was written — the embedded
    index-state token is the staleness check, so a maintained index
    scores exactly like a fresh build over the live corpus."""
    from ..index.merge import index_state_token

    path = _doclang_path(out_dir)
    current = index_state_token(out_dir)
    if os.path.exists(path):
        meta = pq.read_schema(path).metadata or {}
        if meta.get(b"index_state", b"").decode() != current:
            build_doclang(out_dir)
    else:
        build_doclang(out_dir)
    t = pq.read_table(path)
    return (t["doc_id"].to_numpy().astype(np.uint64),
            np.asarray(t["lang"].to_pylist(), dtype=object))


def doclang_cached(out_dir: str, _cache: dict = {}):
    """:func:`load_doclang` behind a single-entry cache keyed on the
    index-state token, so per-query consumers (language_prior,
    facet requests) pay the parquet read once per index state."""
    from ..index.merge import index_state_token

    key = (out_dir, index_state_token(out_dir))
    hit = _cache.get(key)
    if hit is None:
        _cache.clear()
        hit = load_doclang(out_dir)
        _cache[key] = hit
    return hit


def language_prior(out_dir: str, qlang: str,
                   weight: float = DEFAULT_LANG_WEIGHT):
    """→ ``(sorted_doc_ids, multipliers)`` for ``search(doc_prior=...)``:
    docs classified as ``qlang`` keep score ×1.0, every other doc scores
    ×``weight``.  The loaded table is cached per index dir, keyed on the
    index-state token so any add/delete/compact invalidates it."""
    ids, langs = doclang_cached(out_dir)
    mults = np.where(langs == qlang, 1.0, float(weight))
    return ids, mults
