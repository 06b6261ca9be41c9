"""Posting-list segment files: encode (build side) and read (query side).

A segment file is one Parquet file per shuffle shard holding one row per
(term_id, salt).  Each row carries the term's df, cf and max_tfq and its
posting list as Arrow list columns: absolute docIds, float32 doc lengths,
field-major per-field tfs, per-doc position counts and position gaps, and
float32 per-block max impacts.

Integer list columns are written ``DELTA_BINARY_PACKED`` under zstd, so
the sorted docIds keep the delta compression of the reference's
prefix-compressed termlists (``Posdb.h:230-235``, ``RdbList.h:13-47``)
with no hand-written codec.  The block-max column replaces
per-candidate upper-bound scans (``PosdbTable.cpp:4102-4264``).

Rows are sorted by term_id and written with small row groups, so the query
side prunes to the row groups containing the requested terms (the RdbMap
16KB page-index analogue, ``RdbMap.h:1-50``) and reads only the columns it
scores.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig, NUM_FIELDS
from ..functions.ragged import ragged_arange

SEGMENT_SCHEMA = pa.schema([
    ("term_id", pa.uint64()),
    ("salt", pa.int32()),
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("max_tfq", pa.int64()),
    # one value per posting, docIds absolute and ascending
    ("doc_ids", pa.large_list(pa.uint64())),
    ("dl", pa.large_list(pa.float32())),
    # NUM_FIELDS x df values: every posting's field-0 tf, then field 1, ...
    ("tfs", pa.large_list(pa.uint32())),
    # positions per posting, then the positions as gaps that restart at
    # each doc's first position (stored absolute)
    ("pos_counts", pa.large_list(pa.uint32())),
    ("pos_deltas", pa.large_list(pa.uint32())),
    # one value per block of config.block_size postings
    ("block_max", pa.large_list(pa.float32())),
])

# what the query path reads; compaction reads the whole table
QUERY_COLUMNS = ["term_id", "doc_ids", "dl", "tfs", "block_max"]
POSITION_COLUMNS = ["pos_counts", "pos_deltas"]
_DELTA_COLUMNS = ["doc_ids", "tfs", "pos_counts", "pos_deltas"]


def encode_shard(postings: pa.Table, config: IndexConfig, salt: int,
                 avgdl: float) -> pa.Table:
    """Encode one shard's posting partials into segment rows.

    ``postings`` columns: term_id, doc_id, field, tf, positions, dl.
    Partials with the same (term, doc) from different turns/batches are
    merged here (tf summed per field, positions concatenated sorted) — the
    posting-merge analogue of ``RdbList::posdbMerge_r``.
    """
    if postings.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    postings = postings.combine_chunks()
    term = postings["term_id"].to_numpy()
    doc = postings["doc_id"].to_numpy()
    field = postings["field"].to_numpy()          # uint8
    tf = postings["tf"].to_numpy()                # int32
    dl = postings["dl"].to_numpy()                # float32
    pos_col = postings["positions"].combine_chunks()
    pos_offsets = pos_col.offsets.to_numpy().astype(np.int64)
    pos_values = pos_col.values.to_numpy()        # int32

    # sort by (term, doc) only — rows of the same (term, doc) merge via
    # commutative accumulation, so field order inside a group is free
    order = np.lexsort((doc, term))
    term, doc, field, tf, dl = (term[order], doc[order], field[order],
                                tf[order], dl[order])
    tf = tf.astype(np.int64)

    # (term, doc) group boundaries
    new_td = np.empty(len(term), dtype=bool)
    new_td[0] = True
    new_td[1:] = (term[1:] != term[:-1]) | (doc[1:] != doc[:-1])
    td_starts = np.flatnonzero(new_td)
    td_id = np.cumsum(new_td) - 1           # group index per row
    n_td = len(td_starts)

    # per-(term,doc) per-field tf matrix
    tfs = np.zeros((n_td, NUM_FIELDS), dtype=np.int64)
    np.add.at(tfs, (td_id, field), tf)
    g_term = term[td_starts]
    g_doc = doc[td_starts]
    g_dl = dl[td_starts]

    # positions per (term,doc): concatenate source lists in row order
    # (sorted by (term,doc,field); within each original list positions are
    # ascending, and lists from different turns don't interleave-sort —
    # we re-sort the concatenation per group)
    row_pos_lens = pos_offsets[1:] - pos_offsets[:-1]
    row_pos_lens = row_pos_lens[order]
    src_starts = pos_offsets[:-1][order]
    flat_idx = np.repeat(src_starts, row_pos_lens) + ragged_arange(row_pos_lens)
    flat_pos = pos_values[flat_idx]
    grp_of_pos = np.repeat(td_id, row_pos_lens)
    pos_order = np.lexsort((flat_pos, grp_of_pos))
    flat_pos = flat_pos[pos_order]
    grp_pos_counts = np.zeros(n_td, dtype=np.int64)
    np.add.at(grp_pos_counts, grp_of_pos, 1)

    # deterministic positions cap: per (term, doc), after the merge of all
    # batch partials and the ascending sort, keep only the first
    # max_positions_per_doc positions.  tf is NOT capped (scoring exact);
    # only phrase matching sees the truncation — same rule in OracleIndex.
    cap = config.max_positions_per_doc
    if int(grp_pos_counts.max(initial=0)) > cap:
        keep = ragged_arange(grp_pos_counts) < cap
        flat_pos = flat_pos[keep]
        grp_pos_counts = np.minimum(grp_pos_counts, cap)

    return encode_from_groups(g_term, g_doc, g_dl, tfs, flat_pos,
                              grp_pos_counts, config, salt, avgdl)


def encode_from_groups(g_term: np.ndarray, g_doc: np.ndarray,
                       g_dl: np.ndarray, tfs: np.ndarray,
                       flat_pos: np.ndarray, grp_pos_counts: np.ndarray,
                       config: IndexConfig, salt: int,
                       avgdl: float) -> pa.Table:
    """Encode already-merged (term, doc) groups (sorted by term then doc)
    into segment rows.  Shared by the build path (``encode_shard``) and
    segment-level compaction (index/merge.py) — same rows either way."""
    if len(g_term) == 0:
        return SEGMENT_SCHEMA.empty_table()
    n_td = len(g_term)
    wq = np.asarray([int(round(w * 4)) for w in config.field_weights],
                    dtype=np.int64)
    tfq = tfs @ wq

    # term boundaries over the (term,doc) groups: each term's postings are
    # one list, so the list offsets are the term starts
    new_t = np.empty(n_td, dtype=bool)
    new_t[0] = True
    new_t[1:] = g_term[1:] != g_term[:-1]
    t_starts = np.flatnonzero(new_t)
    post_offs = np.append(t_starts, n_td).astype(np.int64)
    df_per_term = np.diff(post_offs)
    n_terms = len(t_starts)
    k1, b, bs = config.k1, config.b, config.block_size

    tf_vals = np.empty(NUM_FIELDS * n_td, dtype=np.uint32)
    tf_vals[_field_major_index(df_per_term)] = tfs

    # position gaps, restarting at each doc's first position
    grp_pos_offsets = np.concatenate([[0], np.cumsum(grp_pos_counts)])
    pos = flat_pos.astype(np.int64)
    pos_deltas = pos.copy()
    pos_deltas[1:] -= pos[:-1]
    firsts = grp_pos_offsets[:-1][grp_pos_counts > 0]
    pos_deltas[firsts] = pos[firsts]

    # per-block max impacts (block-max WAND metadata)
    s_all = _scores_noidf(tfq.astype(np.float64) / 4.0, g_dl, avgdl, k1, b)
    nblocks = (df_per_term + bs - 1) // bs
    blk_starts = (np.repeat(t_starts, nblocks) +
                  ragged_arange(nblocks) * bs).astype(np.int64)
    bm_all = np.maximum.reduceat(s_all, blk_starts)
    bm32 = bm_all.astype(np.float32)
    low = bm32.astype(np.float64) < bm_all
    bm32[low] = np.nextafter(bm32[low], np.float32(np.inf))
    bm_offs = np.concatenate([[0], np.cumsum(nblocks)])

    # per-term cf / max_tfq via segmented reductions
    cf_all = np.add.reduceat(tfs.sum(axis=1), t_starts)
    maxtfq_all = np.maximum.reduceat(tfq, t_starts)

    def lists(offsets, values, value_type):
        return pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(values, value_type))

    return pa.table({
        "term_id": g_term[t_starts],
        "salt": np.full(n_terms, salt, dtype=np.int32),
        "df": df_per_term,
        "cf": cf_all.astype(np.int64),
        "max_tfq": maxtfq_all.astype(np.int64),
        "doc_ids": lists(post_offs, g_doc, pa.uint64()),
        "dl": lists(post_offs, g_dl.astype(np.float32), pa.float32()),
        "tfs": lists(NUM_FIELDS * post_offs, tf_vals, pa.uint32()),
        "pos_counts": lists(post_offs, grp_pos_counts.astype(np.uint32),
                            pa.uint32()),
        "pos_deltas": lists(grp_pos_offsets[post_offs],
                            pos_deltas.astype(np.uint32), pa.uint32()),
        "block_max": lists(bm_offs, bm32, pa.float32()),
    }, schema=SEGMENT_SCHEMA)


def _scores_noidf(tf_w: np.ndarray, dl_w: np.ndarray, avgdl: float,
                  k1: float, b: float) -> np.ndarray:
    from ..functions.bm25 import term_scores

    return term_scores(tf_w, dl_w, avgdl, k1, b, 1.0)


def _field_major_index(df: np.ndarray) -> np.ndarray:
    """(sum(df), NUM_FIELDS) index of each posting's per-field tf in the
    flat ``tfs`` values of consecutive rows holding ``df`` postings each
    (row-local layout: field 0 of every posting, then field 1, ...)."""
    first = np.repeat(np.cumsum(df) - df, df)     # row start per posting
    per_row = np.repeat(df, df)
    base = np.arange(len(first), dtype=np.int64) + (NUM_FIELDS - 1) * first
    return base[:, None] + per_row[:, None] * np.arange(NUM_FIELDS)


def write_segment(table: pa.Table, path: str) -> None:
    """Idempotent write: tmp file + atomic rename (the ``*.writing`` →
    final-name pattern of ``RdbBase``)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".writing.%d" % os.getpid()
    pq.write_table(table, tmp, row_group_size=512, compression="zstd",
                   use_dictionary=False,
                   column_encoding={f"{c}.list.element": "DELTA_BINARY_PACKED"
                                    for c in _DELTA_COLUMNS})
    os.replace(tmp, path)


class SegmentReader:
    """Reads term rows from a shard's segment file with row-group pruning
    (the searcher keeps one reader, and so one footer, per file)."""

    def __init__(self, path: str):
        self.path = path
        self._pf = pq.ParquetFile(path)
        schema = self._pf.schema_arrow
        if not schema.equals(SEGMENT_SCHEMA):
            found = ("format_version 2 (varbyte blob columns)"
                     if "doc_blob" in schema.names else "an unknown layout")
            raise ValueError(
                f"segment {path} has {found}; this engine reads "
                f"format_version {IndexConfig.format_version} list columns "
                f"— rebuild the index with build_index")
        self._rg_min: np.ndarray | None = None
        self._rg_max: np.ndarray | None = None
        self._load_rg_stats()

    def _load_rg_stats(self):
        mins, maxs = [], []
        md = self._pf.metadata
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(0)
            st = col.statistics
            mins.append(st.min if st else 0)
            maxs.append(st.max if st else 2**64 - 1)
        self._rg_min = np.asarray(mins, dtype=np.uint64)
        self._rg_max = np.asarray(maxs, dtype=np.uint64)

    def read_terms(self, term_ids: list[int],
                   with_positions: bool = True) -> pa.Table:
        """Rows of ``term_ids``, with only the columns a query scores (and
        the position columns when ``with_positions``)."""
        want = np.asarray(sorted(set(term_ids)), dtype=np.uint64)
        rgs = [rg for rg in range(len(self._rg_min))
               if ((want >= self._rg_min[rg]) & (want <= self._rg_max[rg])).any()]
        cols = QUERY_COLUMNS + (POSITION_COLUMNS if with_positions else [])
        if not rgs:
            return SEGMENT_SCHEMA.empty_table().select(cols)
        tbl = self._pf.read_row_groups(rgs, columns=cols, use_threads=False)
        mask = pc.is_in(tbl["term_id"], value_set=pa.array(want, pa.uint64()))
        return tbl.filter(mask)

    def read_table(self) -> pa.Table:
        """Every row and column (compaction)."""
        return self._pf.read()


def _list_values(tbl: pa.Table, name: str) -> np.ndarray:
    """Zero-copy numpy view of list column ``name``'s values, all rows."""
    col = tbl[name]
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return arr.flatten().to_numpy()


def decode_posting_table(tbl: pa.Table, with_positions: bool = False) -> dict:
    """Decode every row of a segment table into flat per-posting arrays.

    Returns ``term`` and ``doc_ids`` uint64, ``tfs`` (n, NUM_FIELDS) int64,
    ``dl`` float32, ``block_max`` float32 (the rows' blocks concatenated)
    and, with positions, ``positions`` = (flat uint64, offsets int64 of
    len n+1).  ``doc_ids``, ``dl`` and ``block_max`` view the table's
    buffers: a caller that keeps one copies it.
    """
    docs = _list_values(tbl, "doc_ids")
    df = pc.list_value_length(tbl["doc_ids"]).to_numpy().astype(np.int64)
    tf_vals = _list_values(tbl, "tfs")
    out = {
        "term": np.repeat(tbl["term_id"].to_numpy(), df),
        "doc_ids": docs,
        "tfs": tf_vals[_field_major_index(df)].astype(np.int64),
        "dl": _list_values(tbl, "dl"),
        "block_max": _list_values(tbl, "block_max"),
    }
    if with_positions:
        counts = _list_values(tbl, "pos_counts").astype(np.int64)
        deltas = _list_values(tbl, "pos_deltas")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # one cumsum over every doc's gaps, then subtract each doc's
        # running total before its first (absolute) position
        flat = np.cumsum(deltas, dtype=np.uint64)
        nz = counts > 0
        firsts = offsets[:-1][nz]
        flat -= np.repeat(flat[firsts] - deltas[firsts], counts[nz])
        out["positions"] = (flat, offsets)
    return out


def decode_posting_row(row: pa.Table, with_positions: bool = False) -> dict:
    """Decode one segment row (a one-row table slice) — the per-row view
    of :func:`decode_posting_table` the query path calls."""
    return decode_posting_table(row, with_positions)
