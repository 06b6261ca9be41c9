"""Posting-list segment files: encode (build side) and read (query side).

A segment file is one Parquet file per shuffle shard holding one row per
term: the term id and its posting list as Arrow list columns — absolute
docIds, float32 doc lengths, field-major per-field tfs, per-doc position
counts and position gaps — and nothing else, like the reference's posdb
keys, which hold only the key and its payload (``Posdb.h:3-51``).  df
is the list's length and cf its tf sum; block maxima for the pruned
plans are computed from the merged list when it is fetched.

Integer list columns are written ``DELTA_BINARY_PACKED`` under zstd, so
the sorted docIds keep the delta compression of the reference's
prefix-compressed termlists (``Posdb.h:230-235``, ``RdbList.h:13-47``)
with no hand-written codec.

Rows are sorted by term_id, in row groups of ``ROW_GROUP_ROWS`` rows
written without min/max statistics.  A reader keeps the file's term
dictionary resident — the sorted ``term_id`` column and each row group's
first row, read once at open — the per-file key index of the reference
(``RdbMap``, ``RdbMap.h:1-50``; ``RdbIndex``, ``RdbIndex.h:21-60``).  A
term lookup is then a binary search: a term the file lacks costs no I/O,
and a term it holds costs one read of its small row group, of only the
columns the query scores, sliced to the term's row.

Files are immutable once written, so readers are shared: every searcher
in a process that opens the same file (same path, inode, size and
mtime) gets the same reader (:func:`open_segment`).  The registry holds
readers weakly, so a reader lives exactly as long as some searcher
holds it, and a reopen after an add keeps the readers of the
generations the add did not touch.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig, NUM_FIELDS, TURN_STRIDE
from ..functions.ragged import ragged_arange

SEGMENT_SCHEMA = pa.schema([
    ("term_id", pa.uint64()),
    # one value per posting, docIds absolute and ascending
    ("doc_ids", pa.large_list(pa.uint64())),
    ("dl", pa.large_list(pa.float32())),
    # NUM_FIELDS x df values: every posting's field-0 tf, then field 1, ...
    ("tfs", pa.large_list(pa.uint32())),
    # positions per posting, then the positions as gaps that restart at
    # each doc's first position (stored absolute)
    ("pos_counts", pa.large_list(pa.uint32())),
    ("pos_deltas", pa.large_list(pa.uint32())),
])

# what the query path reads; compaction reads the whole table.  A read
# takes term_id from the reader's resident dictionary, not the file
QUERY_COLUMNS = ["term_id", "doc_ids", "dl", "tfs"]
POSITION_COLUMNS = ["pos_counts", "pos_deltas"]
# rows per row group: the unit one term read decodes
ROW_GROUP_ROWS = 128
_EMPTY = SEGMENT_SCHEMA.empty_table()
_DELTA_COLUMNS = ["doc_ids", "tfs", "pos_counts", "pos_deltas"]


def encode_shard(postings: pa.Table, config: IndexConfig) -> pa.Table:
    """Encode one shard's posting partials into segment rows."""
    g = merge_partials(postings, config)
    if g is None:
        return SEGMENT_SCHEMA.empty_table()
    flat, offs = g["positions"]
    return encode_from_groups(g["term"], g["doc_ids"], g["dl"], g["tfs"],
                              flat, np.diff(offs))


def merge_partials(postings: pa.Table, config: IndexConfig) -> dict | None:
    """Merge posting partials into one group per (term, doc).

    ``postings`` columns: term_id, doc_id, field, tf, positions, dl.
    Partials with the same (term, doc) from different turns/batches are
    merged here (tf summed per field, positions concatenated sorted) — the
    posting-merge analogue of ``RdbList::posdbMerge_r``.

    → groups sorted by (term, doc): ``term``, ``doc_ids``, ``dl``, ``tfs``
    (n, NUM_FIELDS), ``positions`` = (flat, offsets) capped at
    ``max_positions_per_doc``, and ``turns``: the distinct turns the
    (term, doc) occurs in, counted before the cap (exact whatever the
    batch boundaries: positions are ``turn_idx × TURN_STRIDE + ordinal``).
    None when there are no postings.
    """
    if postings.num_rows == 0:
        return None
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
    grp_of_pos = grp_of_pos[pos_order]
    grp_pos_counts = np.bincount(grp_of_pos, minlength=n_td)

    turn = flat_pos // TURN_STRIDE
    new_turn = np.ones(len(flat_pos), dtype=bool)
    new_turn[1:] = (grp_of_pos[1:] != grp_of_pos[:-1]) | (turn[1:] != turn[:-1])
    turns = np.bincount(grp_of_pos[new_turn], minlength=n_td)

    # deterministic positions cap: per (term, doc), after the merge of all
    # batch partials and the ascending sort, keep only the first
    # max_positions_per_doc positions.  tf is NOT capped (scoring exact);
    # only phrase matching sees the truncation — same rule in OracleIndex.
    cap = config.max_positions_per_doc
    if int(grp_pos_counts.max(initial=0)) > cap:
        keep = ragged_arange(grp_pos_counts) < cap
        flat_pos = flat_pos[keep]
        grp_pos_counts = np.minimum(grp_pos_counts, cap)

    return {"term": term[td_starts], "doc_ids": doc[td_starts],
            "dl": dl[td_starts], "tfs": tfs,
            "positions": (flat_pos, np.concatenate(
                [[0], np.cumsum(grp_pos_counts)]).astype(np.int64)),
            "turns": turns}


def encode_from_groups(g_term: np.ndarray, g_doc: np.ndarray,
                       g_dl: np.ndarray, tfs: np.ndarray,
                       flat_pos: np.ndarray,
                       grp_pos_counts: np.ndarray) -> pa.Table:
    """Encode already-merged (term, doc) groups (sorted by term then doc)
    into segment rows.  Shared by the build path (``merge_partials``) and
    segment-level compaction (index/merge.py) — same rows either way."""
    if len(g_term) == 0:
        return SEGMENT_SCHEMA.empty_table()
    n_td = len(g_term)
    # term boundaries over the (term,doc) groups: each term's postings are
    # one list, so the list offsets are the term starts
    new_t = np.empty(n_td, dtype=bool)
    new_t[0] = True
    new_t[1:] = g_term[1:] != g_term[:-1]
    t_starts = np.flatnonzero(new_t)
    post_offs = np.append(t_starts, n_td).astype(np.int64)

    tf_vals = np.empty(NUM_FIELDS * n_td, dtype=np.uint32)
    tf_vals[_field_major_index(np.diff(post_offs))] = tfs

    # position gaps, restarting at each doc's first position
    grp_pos_offsets = np.concatenate([[0], np.cumsum(grp_pos_counts)])
    pos = flat_pos.astype(np.int64)
    pos_deltas = pos.copy()
    pos_deltas[1:] -= pos[:-1]
    firsts = grp_pos_offsets[:-1][grp_pos_counts > 0]
    pos_deltas[firsts] = pos[firsts]

    def lists(offsets, values, value_type):
        return pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(values, value_type))

    return pa.table({
        "term_id": g_term[t_starts],
        "doc_ids": lists(post_offs, g_doc, pa.uint64()),
        "dl": lists(post_offs, g_dl.astype(np.float32), pa.float32()),
        "tfs": lists(NUM_FIELDS * post_offs, tf_vals, pa.uint32()),
        "pos_counts": lists(post_offs, grp_pos_counts.astype(np.uint32),
                            pa.uint32()),
        "pos_deltas": lists(grp_pos_offsets[post_offs],
                            pos_deltas.astype(np.uint32), pa.uint32()),
    }, schema=SEGMENT_SCHEMA)


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
    pq.write_table(table, tmp, row_group_size=ROW_GROUP_ROWS,
                   compression="zstd", use_dictionary=False,
                   write_statistics=False,
                   column_encoding={f"{c}.list.element": "DELTA_BINARY_PACKED"
                                    for c in _DELTA_COLUMNS})
    os.replace(tmp, path)


class SegmentReader:
    """Reads term rows from one segment file through its resident term
    dictionary (the searcher keeps one reader, and so one footer and one
    dictionary, per file; :func:`open_segment` shares them)."""

    def __init__(self, path: str):
        self.path = path
        self._pf = pq.ParquetFile(path)
        schema = self._pf.schema_arrow
        if not schema.equals(SEGMENT_SCHEMA):
            if "block_max" in schema.names:
                found = "format_version 4 (stored block maxima)"
            elif "doc_blob" in schema.names:
                found = "format_version 2 (varbyte blob columns)"
            else:
                found = "an unknown layout"
            raise ValueError(
                f"segment {path} has {found}; this engine reads "
                f"format_version {IndexConfig.format_version} list columns "
                f"— rebuild the index with build_index")
        # a plain numpy copy: the Arrow read buffers are dropped at once
        self._terms = np.array(self._pf.read(
            columns=["term_id"], use_threads=False)["term_id"].to_numpy(),
            dtype=np.uint64)
        if np.any(self._terms[1:] <= self._terms[:-1]):
            raise ValueError(f"segment {path} is not sorted by unique "
                             "term_id")
        md = self._pf.metadata
        sizes = [md.row_group(rg).num_rows for rg in range(md.num_row_groups)]
        # first row of every row group, then the row count
        self._rg_start = np.concatenate([[0], np.cumsum(sizes)]).astype(
            np.int64)

    def __contains__(self, term_id: int) -> bool:
        t = np.uint64(term_id)
        i = int(np.searchsorted(self._terms, t))
        return i < len(self._terms) and self._terms[i] == t

    def read_terms(self, term_ids: list[int],
                   with_positions: bool = True) -> pa.Table:
        """Rows of ``term_ids`` in term order, with only the columns a
        query scores (and the position columns when ``with_positions``).
        Terms the file lacks cost no I/O; the rest cost one read of the
        row groups holding them."""
        cols = QUERY_COLUMNS + (POSITION_COLUMNS if with_positions else [])
        if len(term_ids) == 1:
            # the query path's read: one search, one row group, one slice
            t = np.uint64(term_ids[0])
            i = int(np.searchsorted(self._terms, t))
            if i == len(self._terms) or self._terms[i] != t:
                return _EMPTY.select(cols)
            rg = int(np.searchsorted(self._rg_start, i, side="right")) - 1
            tbl = self._pf.read_row_groups([rg], columns=cols[1:],
                                           use_threads=False)
            return tbl.slice(i - int(self._rg_start[rg]), 1).add_column(
                0, "term_id", pa.array(self._terms[i:i + 1]))
        want = np.unique(np.asarray(term_ids, dtype=np.uint64))
        lo = np.searchsorted(self._terms, want, side="left")
        rows = lo[np.searchsorted(self._terms, want, side="right") > lo]
        if len(rows) == 0:
            return _EMPTY.select(cols)
        rgs = np.unique(
            np.searchsorted(self._rg_start, rows, side="right") - 1)
        # the file rows the read returns: its row groups', in order
        read = np.concatenate([np.arange(self._rg_start[g],
                                         self._rg_start[g + 1]) for g in rgs])
        tbl = self._pf.read_row_groups(rgs.tolist(), columns=cols[1:],
                                       use_threads=False)
        return tbl.take(pa.array(np.searchsorted(read, rows))).add_column(
            0, "term_id", pa.array(self._terms[rows]))

    def read_table(self) -> pa.Table:
        """Every row and column (compaction)."""
        return self._pf.read()


# live readers by file identity; weak, so a reader lives exactly as long
# as some searcher holds it
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_OPENING = threading.Lock()


def file_identity(path: str, st: os.stat_result) -> tuple:
    """(absolute path, inode, size, mtime_ns): a file rewritten in place
    gets another one."""
    return (os.path.abspath(path), st.st_ino, st.st_size, st.st_mtime_ns)


def live_reader(identity: tuple) -> SegmentReader | None:
    """The reader some searcher already holds of the file with this
    :func:`file_identity`, or None."""
    return _LIVE.get(identity)


def open_segment(path: str) -> SegmentReader:
    """The shared reader of the file at ``path``: the live one when a
    searcher holds it, else a new one, registered for the next.  A file
    rewritten in place has another identity, so it is never served a
    reader of its predecessor."""
    key = file_identity(path, os.stat(path))
    with _OPENING:      # one reader per file, whichever thread asks first
        rd = _LIVE.get(key)
        if rd is None:
            rd = _LIVE[key] = SegmentReader(path)
    return rd


def _list_values(tbl: pa.Table, name: str) -> np.ndarray:
    """Zero-copy numpy view of list column ``name``'s values, all rows."""
    col = tbl[name]
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return arr.flatten().to_numpy()


def _row_values(row: pa.Table, name: str) -> np.ndarray:
    """Zero-copy numpy view of list column ``name``'s values in a one-row
    table, cut from the child array at the row's list offsets."""
    arr = row[name].chunk(0)
    lo, hi = arr.offsets.to_numpy()
    return arr.values.to_numpy()[lo:hi]


def _positions(counts: np.ndarray, deltas: np.ndarray) -> tuple:
    """Per-doc position counts and gaps → (flat uint64, offsets int64)."""
    counts = counts.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # one cumsum over every doc's gaps, then subtract each doc's running
    # total before its first (absolute) position
    flat = np.cumsum(deltas, dtype=np.uint64)
    nz = counts > 0
    firsts = offsets[:-1][nz]
    flat -= np.repeat(flat[firsts] - deltas[firsts], counts[nz])
    return flat, offsets


def decode_posting_table(tbl: pa.Table, with_positions: bool = False) -> dict:
    """Decode every row of a segment table into flat per-posting arrays.

    Returns ``term`` and ``doc_ids`` uint64, ``tfs`` (n, NUM_FIELDS) int64,
    ``dl`` float32 and, with positions, ``positions`` = (flat uint64,
    offsets int64 of len n+1).  ``doc_ids`` and ``dl`` view the table's
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
    }
    if with_positions:
        out["positions"] = _positions(_list_values(tbl, "pos_counts"),
                                      _list_values(tbl, "pos_deltas"))
    return out


def decode_posting_row(row: pa.Table, with_positions: bool = False) -> dict:
    """Decode one segment row (a one-row table slice) — the query path's
    decode: :func:`decode_posting_table`'s arrays without ``term``, cut
    at the row's list offsets, ``tfs`` a transpose of the field-major
    row.  Every array owns its memory, so a cache holding one does not
    pin the read's buffers."""
    docs = _row_values(row, "doc_ids").copy()
    out = {"doc_ids": docs,
           "tfs": _row_values(row, "tfs").reshape(
               NUM_FIELDS, len(docs)).T.astype(np.int64),
           "dl": _row_values(row, "dl").copy()}
    if with_positions:
        out["positions"] = _positions(_row_values(row, "pos_counts"),
                                      _row_values(row, "pos_deltas"))
    return out
