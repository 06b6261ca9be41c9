"""Per-document language prior — the reference's query-language weight
(``PosdbTable.cpp:3918`` ``langWeight``: a result whose document language
matches the query language — the ``qlang`` parm, ``SearchInput.cpp`` —
keeps full score; others are multiplied down by the sameLangWeight parm).

Two halves, both riding machinery that already exists:

- **Build** (:func:`build_doclang`): one streaming pass over the index's
  LIVE docstore (same view as the spell vocabulary).  A
  ``groupby(doc_id)`` gathers each doc's turns (each clipped map-side to
  ``PREFIX_CHARS``, so little text shuffles), orders them by
  ``turn_idx`` and classifies the doc's first ``PREFIX_CHARS`` once with
  the TextCat n-gram classifier (functions/langid.py) — so the table
  does not depend on how the docstore is split into blocks.  Written as
  ``doclang.parquet`` beside the generations file.

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
import pyarrow as pa
import pyarrow.compute as pc
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

    def clip(b: pa.Table) -> pa.Table:
        # no turn adds more than PREFIX_CHARS to a prefix: shuffle no more
        return b.set_column(b.schema.get_field_index("text"), "text",
                            pc.utf8_slice_codeunits(
                                pc.fill_null(b["text"], ""), 0, PREFIX_CHARS))

    def classify_doc(g: pa.Table) -> pa.Table:
        # the doc's turns in turn_idx order (text breaks ties), then the
        # first PREFIX_CHARS of their text, classified once
        g = g.sort_by([("turn_idx", "ascending"), ("text", "ascending")])
        parts, n = [], 0
        for t in g["text"].to_pylist():
            if n >= PREFIX_CHARS:
                break
            parts.append(t)
            n += len(t)
        lang, _conf = classify(" ".join(parts)[:PREFIX_CHARS])
        return pa.table({"doc_id": g["doc_id"].slice(0, 1),
                         "lang": pa.array([lang], pa.string())})

    tbl = (live_docs_ds(out_dir, "docstore",
                        columns=["doc_id", "turn_idx", "text"])
           .map_batches(clip, batch_format="pyarrow")
           .groupby("doc_id").map_groups(classify_doc,
                                         batch_format="pyarrow")
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
