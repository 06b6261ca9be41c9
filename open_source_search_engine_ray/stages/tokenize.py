"""Tokenize stages: transcripts → per-turn doc-stat rows and posting partials.

``TokenizePostings`` runs inside each spill writer actor (and in-process
for small builds): the token-hash cache and compiled regexes are loaded
once per actor in ``__init__`` (the analogue of the reference loading
unicode tables once per process, ``SURVEY.md`` §2.4).

Positions: ``pos = turn_idx * TURN_STRIDE + token_ordinal`` (see
config.TURN_STRIDE).  This makes position assignment embarrassingly
parallel per turn — no conversation-wide scan — while the reference walks a
monotone cursor over the whole document (``XmlDoc.cpp:20055-20142``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, TURN_STRIDE, NUM_FIELDS, role_tool_to_field
from ..functions.ghash import doc_ids_for_convs
from ..functions.tokenizer import TokenHashCache, terms_for_texts


def _doc_ids_for_column(conv_col) -> np.ndarray:
    """Vectorized doc ids with a tiny per-batch memo over unique conv ids."""
    convs = conv_col.to_pylist()
    uniq = list(dict.fromkeys(convs))
    ids = doc_ids_for_convs(uniq)
    memo = dict(zip(uniq, ids))
    return np.fromiter((memo[c] for c in convs), dtype=np.uint64,
                       count=len(convs))


def _fields_for(role_col, tool_col) -> np.ndarray:
    roles = role_col.to_pylist()
    tools = tool_col.to_pylist()
    return np.fromiter(
        (role_tool_to_field(r, t) for r, t in zip(roles, tools)),
        dtype=np.uint8, count=len(roles))


class TokenizePostings:
    """Per-turn postings, partially aggregated per (doc, term, field) within
    the batch (map-side combine before the term shuffle, the analogue of the
    per-doc term table ``XmlDoc.cpp:13296-13650`` metalist assembly).

    Output: term_id u64, doc_id u64, field u8, tf i32, positions list<i32>,
    shard i32 (the spill key: term % P, or (term % P) × S + doc % S under
    ``salt_all_terms``).  Doc lengths and hot-term salting are both
    decided at encode, where every posting of a term has been merged.
    """

    def __init__(self, config: IndexConfig | None = None):
        self.config = config or IndexConfig()
        self.cache = TokenHashCache()

    def _shards(self, term_ids: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
        cfg = self.config
        shard = (term_ids % np.uint64(cfg.num_partitions)).astype(np.int32)
        if cfg.salt_all_terms:
            # doc-partitioned layout: (term % P) * S + doc % S
            shard = (shard * np.int32(cfg.num_salts)
                     + (doc_ids % np.uint64(cfg.num_salts)).astype(np.int32))
        return shard

    def process(self, batch: pa.Table):
        """→ (postings table, per-turn stats table).  The stats side reuses
        the same tokenization pass (fused build: one read, one tokenize)."""
        texts = batch["text"].to_pylist()
        row_doc = _doc_ids_for_column(batch["conv_id"])
        row_field = _fields_for(batch["role"], batch["tool"])
        turn_idx = batch["turn_idx"].to_numpy().astype(np.int64)

        rows, terms, pos, is_big = terms_for_texts(
            [t or "" for t in texts], self.cache,
            index_bigrams=self.config.index_bigrams,
            fragment_suppress=self.config.fragment_suppress,
            position_mode=self.config.position_mode)

        # per-turn word-token counts → doc-stat partials
        n = len(texts)
        counts = np.zeros(n, dtype=np.int64)
        if len(rows):
            np.add.at(counts, rows[~is_big], 1)
        lens = np.zeros((n, NUM_FIELDS), dtype=np.int64)
        lens[np.arange(n), row_field] = counts
        stat_cols = {"doc_id": pa.array(row_doc, pa.uint64()),
                     "conv_id": batch["conv_id"]}
        for f in range(NUM_FIELDS):
            stat_cols[f"len_f{f}"] = pa.array(lens[:, f], pa.int64())
        stats = pa.table(stat_cols)

        if len(terms) == 0:
            empty = pa.table({
                "term_id": pa.array([], pa.uint64()),
                "doc_id": pa.array([], pa.uint64()),
                "field": pa.array([], pa.uint8()),
                "tf": pa.array([], pa.int32()),
                "positions": pa.array([], pa.list_(pa.int32())),
                "shard": pa.array([], pa.int32()),
            })
            return empty, stats

        doc = row_doc[rows]
        field = row_field[rows]
        gpos = (turn_idx[rows] * TURN_STRIDE +
                np.minimum(pos.astype(np.int64), TURN_STRIDE - 1)).astype(np.int64)

        # partial aggregation: group by (doc, term, field)
        order = np.lexsort((gpos, field, terms, doc))
        doc, terms, field, gpos = doc[order], terms[order], field[order], gpos[order]
        new_group = np.empty(len(doc), dtype=bool)
        new_group[0] = True
        new_group[1:] = ((doc[1:] != doc[:-1]) | (terms[1:] != terms[:-1]) |
                         (field[1:] != field[:-1]))
        starts = np.flatnonzero(new_group)
        tf = np.diff(np.append(starts, len(doc))).astype(np.int32)
        g_doc = doc[starts]
        g_term = terms[starts]
        g_field = field[starts]
        # positions list per group — uncapped here; the deterministic
        # max_positions_per_doc cap is applied once per (term, doc) at
        # encode time (index/segments.py:merge_partials), where partials
        # from all batches have been merged, so segment bytes don't
        # depend on batch boundaries
        offsets32 = np.append(starts, len(doc)).astype(np.int64)
        pos_list = pa.ListArray.from_arrays(
            pa.array(offsets32, pa.int32()),
            pa.array(gpos.astype(np.int32), pa.int32()))

        shard = self._shards(g_term, g_doc)
        postings = pa.table({
            "term_id": pa.array(g_term, pa.uint64()),
            "doc_id": pa.array(g_doc, pa.uint64()),
            "field": pa.array(g_field, pa.uint8()),
            "tf": pa.array(tf, pa.int32()),
            "positions": pos_list,
            "shard": pa.array(shard, pa.int32()),
        })
        return postings, stats
