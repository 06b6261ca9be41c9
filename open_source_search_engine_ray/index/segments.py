"""Posting-list segment files and doc tables: encode (build side) and
read (query side).

A segment file holds one shuffle shard's posting lists, sorted by term
id, as the reference's posdb files hold them: delta-compressed byte
ranges that a resident per-file map locates (``RdbMap.h:1-50``,
``Posdb.h:230-235``, ``RdbList.h:13-47``).  A posting names its doc by
*ordinal*: the doc's index in its generation's doc table, the sorted
doc ids — the reference's short docId in a Posdb key (``Posdb.h:3-51``)
instead of a 63-bit hash whose gaps do not compress.

Format 8 has two kinds of file.  A generation writes one **doc table**
(one per salt under ``salt_all_terms``) beside its segment files: its
sorted doc ids (uint64), then their doc lengths (float32), 12 B per
doc, then a trailer with the doc count, the format version and the
magic ``ODOC``.  A **segment file** has three parts:

- posting blocks: the scored columns of consecutive terms, cut into
  blocks of about ``BLOCK_BYTES`` raw (a term is never split, so a long
  list is a block of its own).  A block holds its terms' ordinal gaps
  (uint32, restarting at each term: a term's first gap is its first
  ordinal), then their per-field tfs (uint32, field-major per term:
  every posting's field-0 tf, then field 1, ...), as one zstd frame;
- position blocks, cut the same way: per-doc position counts, then the
  position gaps that restart at each doc's first position (uint32);
- a footer with the sorted term ids (as gaps), each term's df and
  position count, and each block's first term and compressed size, as
  int64 byte planes under zstd, followed by a fixed trailer: the
  footer's sizes, the doc count and number of the doc table its
  ordinals index, the format version and a magic.

df is the list's length and cf its tf sum; block maxima for the pruned
plans are computed from the merged list when it is fetched.

A reader keeps the footer resident — the ``RdbMap`` role.  A term the
file lacks costs no I/O; a term it holds costs a binary search, one
``os.pread`` of its posting block (and one of its position block when
positions are wanted), one decompress each and numpy slices.  Its read
carries the doc table, which the reader opens on its first read, and
the decode gathers doc ids and doc lengths through it: everything above
the reader sees uint64 doc ids and float32 doc lengths.  Compaction
decodes whole files through the same reader.

Files are immutable once written, so readers and doc tables are shared:
every searcher in a process that opens the same file (same path, inode,
size and mtime) gets the same reader (:func:`open_segment`), and every
reader of a generation the same resident doc table.  The registry holds
them weakly, so a reader — and its file descriptor — lives exactly as
long as some searcher holds it, a table as long as some reader does,
and a reopen after an add keeps the readers of the generations the add
did not touch.  ``pread`` is positional, so threads share a reader.
"""

from __future__ import annotations

import bisect
import os
import struct
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, NUM_FIELDS, TURN_STRIDE
from ..functions.ragged import ragged_arange
from .manifest import doc_table_name

# a block's window of raw bytes: it takes the terms that start in it
BLOCK_BYTES = 4096
_CODEC = pa.Codec("zstd", compression_level=1)
MAGIC = b"OSEG"
DOC_MAGIC = b"ODOC"
# every format's files end in their format version and magic
_VERSION = struct.Struct("<I4s")
# footer compressed size, footer raw size, the doc table's docs and
# number, format version, magic
_TRAILER = struct.Struct("<QQQI" + _VERSION.format[1:])
# docs, format version, magic
_DOC_TRAILER = struct.Struct("<Q" + _VERSION.format[1:])
# a uint32 ordinal addresses this many docs
MAX_DOCS = 1 << 32
# a block's columns in order: (dtype, unit, values per unit), the unit a
# posting (0) or a position (1)
_POSTING_BLOCK = ((np.dtype(np.uint32), 0, 1),
                  (np.dtype(np.uint32), 0, NUM_FIELDS))
_POSITION_BLOCK = ((np.dtype(np.uint32), 0, 1), (np.dtype(np.uint32), 1, 1))


def encode_shard(postings: pa.Table,
                 config: IndexConfig) -> tuple[bytes, bytes]:
    """Encode one shard's posting partials, a ``dl`` column beside
    :func:`merge_partials`' columns, into (a segment file image, the
    image of doc table 0 that ranks the shard's own docs)."""
    doc_ids, first = np.unique(postings["doc_id"].to_numpy(),
                               return_index=True)
    table = encode_doc_table(doc_ids, postings["dl"].to_numpy()[first])
    g = merge_partials(postings.drop_columns(["dl"]), config)
    if g is None:
        z = np.zeros(0, dtype=np.int64)
        return encode_from_groups(z, z, np.zeros((0, NUM_FIELDS)), z, z,
                                  0), table
    flat, offs = g["positions"]
    return encode_from_groups(
        g["term"], doc_ordinals(doc_ids, g["doc_ids"], "the shard"),
        g["tfs"], flat, np.diff(offs), len(doc_ids)), table


def merge_partials(postings: pa.Table, config: IndexConfig) -> dict | None:
    """Merge posting partials into one group per (term, doc).

    ``postings`` columns: term_id, doc_id, field, tf, positions.
    Partials with the same (term, doc) from different turns/batches are
    merged here (tf summed per field, positions concatenated sorted) — the
    posting-merge analogue of ``RdbList::posdbMerge_r``.

    → groups sorted by (term, doc): ``term``, ``doc_ids``, ``tfs``
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
    pos_col = postings["positions"].combine_chunks()
    pos_offsets = pos_col.offsets.to_numpy().astype(np.int64)
    pos_values = pos_col.values.to_numpy()        # int32

    # sort by (term, doc) only — rows of the same (term, doc) merge via
    # commutative accumulation, so field order inside a group is free
    order = np.lexsort((doc, term))
    term, doc, field, tf = term[order], doc[order], field[order], tf[order]
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

    return {"term": term[td_starts], "doc_ids": doc[td_starts], "tfs": tfs,
            "positions": (flat_pos, np.concatenate(
                [[0], np.cumsum(grp_pos_counts)]).astype(np.int64)),
            "turns": turns}


def doc_ordinals(table_ids: np.ndarray, doc_ids: np.ndarray,
                 where: str) -> np.ndarray:
    """Each of ``doc_ids``' ordinal: its index in the sorted doc table
    ``table_ids``.  A doc the table lacks would name another doc, so it
    raises a ``ValueError`` naming ``where``."""
    ords = np.searchsorted(table_ids, doc_ids)
    held = ords < len(table_ids)
    held[held] = table_ids[ords[held]] == doc_ids[held]
    if not held.all():
        missing = doc_ids[~held]
        raise ValueError(f"{where}: {len(missing)} posting(s) of docs "
                         f"its doc table does not hold (doc {missing[0]})")
    return ords


def encode_doc_table(doc_ids: np.ndarray, dl: np.ndarray) -> bytes:
    """A doc table image: the sorted, unique ``doc_ids`` (uint64), then
    their doc lengths (float32), then its trailer."""
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    _check_docs(len(doc_ids))
    if np.any(doc_ids[1:] <= doc_ids[:-1]):
        raise ValueError("a doc table's doc ids must be sorted and unique")
    return b"".join([doc_ids.tobytes(),
                     np.asarray(dl, dtype=np.float32).tobytes(),
                     _DOC_TRAILER.pack(len(doc_ids),
                                       IndexConfig.format_version,
                                       DOC_MAGIC)])


def _check_docs(n_docs: int) -> None:
    if n_docs > MAX_DOCS:
        raise ValueError(f"a generation of {n_docs:,} docs: a uint32 "
                         f"ordinal addresses at most {MAX_DOCS:,}")


def encode_from_groups(g_term: np.ndarray, g_ord: np.ndarray,
                       tfs: np.ndarray, flat_pos: np.ndarray,
                       grp_pos_counts: np.ndarray, n_docs: int,
                       table: int = 0) -> bytes:
    """Encode already-merged (term, doc) groups (sorted by term then doc)
    into a segment file image whose ordinals ``g_ord`` index doc table
    ``table`` of ``n_docs`` docs.  Shared by the build path
    (``merge_partials``), ingest adds and segment-level compaction
    (index/merge.py) — the same bytes either way.  Vectorized over
    terms; the only loop is over blocks, one zstd frame each."""
    _check_docs(n_docs)
    g_term = np.asarray(g_term, dtype=np.uint64)
    g_ord = np.asarray(g_ord, dtype=np.int64)
    n_td = len(g_term)
    new_t = np.ones(n_td, dtype=bool)
    new_t[1:] = g_term[1:] != g_term[:-1]
    t_starts = np.flatnonzero(new_t)
    df = np.diff(np.append(t_starts, n_td))
    grp_pos_counts = np.asarray(grp_pos_counts, dtype=np.int64)
    npos = (np.add.reduceat(grp_pos_counts, t_starts) if n_td
            else np.zeros(0, dtype=np.int64))

    # ordinal gaps, restarting at each term's first (absolute) ordinal
    gaps = g_ord.copy()
    gaps[1:] -= g_ord[:-1]
    gaps[t_starts] = g_ord[t_starts]
    tf_vals = np.empty(NUM_FIELDS * n_td, dtype=np.uint32)
    tf_vals[_field_major_index(df)] = tfs
    # position gaps, restarting at each doc's first position
    grp_pos_offsets = np.concatenate([[0], np.cumsum(grp_pos_counts)])
    pos = flat_pos.astype(np.int64)
    pos_deltas = pos.copy()
    pos_deltas[1:] -= pos[:-1]
    firsts = grp_pos_offsets[:-1][grp_pos_counts > 0]
    pos_deltas[firsts] = pos[firsts]

    units = (df, npos)
    post_frames, post_first = _blocks(_POSTING_BLOCK, units, (
        gaps.astype(np.uint32), tf_vals))
    pos_frames, pos_first = _blocks(_POSITION_BLOCK, units, (
        grp_pos_counts.astype(np.uint32), pos_deltas.astype(np.uint32)))
    footer = np.concatenate([
        [len(t_starts), len(post_first), len(pos_first)],
        np.diff(g_term[t_starts], prepend=np.uint64(0)).view(np.int64),
        df, npos, post_first, [f.size for f in post_frames],
        pos_first, [f.size for f in pos_frames]]).astype(np.int64)
    # byte planes (every value's low byte, then the next byte, ...): the
    # values are small or gaps, so the high planes compress away
    packed = _CODEC.compress(footer.view(np.uint8).reshape(-1, 8).T.copy())
    return b"".join(post_frames + pos_frames + [packed, _TRAILER.pack(
        packed.size, footer.nbytes, n_docs, table,
        IndexConfig.format_version, MAGIC)])


def _blocks(layout: tuple, units: tuple, arrays: tuple) -> tuple:
    """Cut consecutive terms into blocks of ``layout`` columns → (one
    zstd frame per block, each block's first term).  A block takes the
    terms whose first raw byte falls in its ``BLOCK_BYTES`` window, so a
    term is never split.  ``units`` holds each term's postings and
    positions; ``arrays`` the columns' values, terms in order."""
    raw = sum(t.itemsize * k * units[u] for t, u, k in layout)
    window = (np.cumsum(raw) - raw) // BLOCK_BYTES
    first = np.flatnonzero(np.concatenate([[True], window[1:] != window[:-1]])
                           if len(raw) else np.zeros(0, dtype=bool))
    starts = [np.concatenate([[0], np.cumsum(u)]) for u in units]
    # each column's value bounds of every block
    cuts = [(k * starts[u][np.append(first, len(raw))]).tolist()
            for _, u, k in layout]
    frames = [_CODEC.compress(b"".join(a[c[b]:c[b + 1]]
                                       for a, c in zip(arrays, cuts)))
              for b in range(len(first))]
    return frames, first


def _field_major_index(df: np.ndarray) -> np.ndarray:
    """(sum(df), NUM_FIELDS) index of each posting's per-field tf in the
    flat ``tfs`` values of consecutive rows holding ``df`` postings each
    (row-local layout: field 0 of every posting, then field 1, ...)."""
    first = np.repeat(np.cumsum(df) - df, df)     # row start per posting
    per_row = np.repeat(df, df)
    base = np.arange(len(first), dtype=np.int64) + (NUM_FIELDS - 1) * first
    return base[:, None] + per_row[:, None] * np.arange(NUM_FIELDS)


def write_segment(data: bytes, path: str) -> None:
    """Idempotent write of a segment or doc table image: tmp file +
    atomic rename (the ``*.writing`` → final-name pattern of
    ``RdbBase``)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".writing.%d" % os.getpid()
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


@dataclass(eq=False)
class DocTable:
    """A generation's doc table, resident: its sorted doc ids (uint64)
    and their doc lengths (float32); a posting's ordinal indexes both.
    Read whole on open (12 B per doc) and shared through the registry
    (:func:`open_doc_table`), so it holds no file open."""

    path: str | None
    doc_ids: np.ndarray
    dl: np.ndarray


def _read_doc_table(path: str) -> DocTable:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ValueError(f"doc table {path} cannot be read ({e}); "
                         f"rebuild the index with build_index") from e
    version, magic = _version(data)
    if magic != DOC_MAGIC:
        raise ValueError(f"doc table {path} has no doc-table magic "
                         f"(truncated, or not a doc table)")
    if version != IndexConfig.format_version:
        raise _version_error("doc table", path, version)
    n = (_DOC_TRAILER.unpack_from(data, len(data) - _DOC_TRAILER.size)[0]
         if len(data) >= _DOC_TRAILER.size else -1)
    if len(data) != 12 * n + _DOC_TRAILER.size:
        raise ValueError(f"doc table {path} is truncated or corrupt: "
                         f"{len(data)} bytes")
    return DocTable(path, np.frombuffer(data, np.uint64, n),
                    np.frombuffer(data, np.float32, n, 8 * n))


def _version(data: bytes) -> tuple:
    """(format version, magic) from a file's last bytes, or (None, the
    bytes there) when it is too short to hold them."""
    if len(data) < _VERSION.size:
        return None, data[-4:]
    return _VERSION.unpack_from(data, len(data) - _VERSION.size)


def _version_error(what: str, path: str, version: int) -> ValueError:
    return ValueError(f"{what} {path} has format_version {version}; this "
                      f"engine reads format_version "
                      f"{IndexConfig.format_version} — rebuild the index "
                      f"with build_index")


# a read's table when it holds no posting: no file to open
_NO_DOCS = DocTable(None, np.zeros(0, np.uint64), np.zeros(0, np.float32))


@dataclass
class RawRows:
    """Undecoded rows of a segment read, in term order: flat columns
    cut from the decompressed blocks (views of them), and the doc table
    their ordinals index, as :func:`decode_posting_row` and
    :func:`decode_postings` take them.  ``nbytes`` is the decompressed
    bytes the read produced."""

    terms: np.ndarray       # uint64, one per row
    df: np.ndarray          # int64 postings per row
    gaps: np.ndarray        # uint32 ordinal gaps, restarting at each row
    tfs: np.ndarray         # uint32, field-major per row
    table: DocTable
    nbytes: int
    pos_counts: np.ndarray | None = None    # uint32 positions per posting
    pos_deltas: np.ndarray | None = None    # uint32 gaps, restarting per
                                            # posting


class SegmentReader:
    """Reads term rows from one segment file through its resident footer
    (the searcher keeps one reader, and so one footer, per file;
    :func:`open_segment` shares them).  The file stays open for the
    reader's life and closes when it is collected; the doc table is
    opened on the first read that returns a posting."""

    def __init__(self, path: str):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        size = os.fstat(self._fd).st_size
        tail = os.pread(self._fd, _TRAILER.size,
                        max(0, size - _TRAILER.size))
        version, magic = _version(tail)
        if magic != MAGIC:
            found = ("the Parquet layout of format_version 6 or older"
                     if tail[-4:] == b"PAR1" else
                     "no segment magic (truncated, or not a segment)")
            raise ValueError(
                f"segment {path} has {found}; this engine reads "
                f"format_version {IndexConfig.format_version} block files "
                f"— rebuild the index with build_index")
        if version != IndexConfig.format_version:
            raise _version_error("segment", path, version)
        if len(tail) < _TRAILER.size:
            raise ValueError(f"segment {path} is truncated: {size} bytes")
        packed, raw, self._n_docs, table, _, _ = _TRAILER.unpack(tail)
        self._table_path = os.path.join(os.path.dirname(path),
                                        doc_table_name(table))
        self._table: DocTable | None = None
        end = size - _TRAILER.size - packed
        if end < 0:
            raise ValueError(f"segment {path} is truncated: a footer of "
                             f"{packed} bytes in a file of {size}")
        try:
            planes = np.frombuffer(_CODEC.decompress(
                os.pread(self._fd, packed, end), decompressed_size=raw),
                dtype=np.uint8)
        except pa.ArrowException as e:
            raise ValueError(f"segment {path} is corrupt: its footer does "
                             f"not decompress ({e})") from e
        if len(planes) % 8:
            raise ValueError(f"segment {path} is corrupt: a footer of "
                             f"{len(planes)} bytes")
        footer = planes.reshape(8, -1).T.copy().view(np.int64).ravel()
        n, nb, mb = (footer[:3].tolist() + [-1] * 3)[:3]
        at = np.cumsum([3, n, n, n, nb, nb, mb, mb])
        if min(n, nb, mb) < 0 or len(footer) != at[-1]:
            raise ValueError(f"segment {path} is corrupt: a footer of "
                             f"{len(footer)} values")
        terms, df, npos, post_first, post_size, pos_first, pos_size = (
            footer[a:b] for a, b in zip(at[:-1], at[1:]))
        self._terms = np.cumsum(terms.view(np.uint64), dtype=np.uint64)
        if np.any(self._terms[1:] <= self._terms[:-1]):
            raise ValueError(f"segment {path} is not sorted by unique "
                             "term_id")
        # per unit (posting, position): each term's first value, then
        # the total
        self._starts = tuple(np.concatenate([[0], np.cumsum(u)])
                             for u in (df, npos))
        offsets = np.concatenate([[0], np.cumsum(np.concatenate(
            [post_size, pos_size]))]).astype(np.int64)
        if offsets[-1] != end:
            raise ValueError(f"segment {path} is truncated or corrupt: its "
                             f"blocks end at {offsets[-1]}, its footer "
                             f"starts at {end}")
        # per block kind: each block's first term (then n), and its byte
        # offsets, as lists: a read indexes them a few times per block
        self._post = (post_first.tolist() + [n], offsets[:nb + 1].tolist())
        self._pos = (pos_first.tolist() + [n], offsets[nb:].tolist())

    def __contains__(self, term_id: int) -> bool:
        t = np.uint64(term_id)
        i = int(np.searchsorted(self._terms, t))
        return i < len(self._terms) and self._terms[i] == t

    def table(self) -> DocTable:
        """The doc table this file's ordinals index: the generation's
        shared one, opened on first use."""
        if self._table is None:
            tbl = open_doc_table(self._table_path)
            if len(tbl.doc_ids) != self._n_docs:
                raise ValueError(
                    f"doc table {tbl.path} holds {len(tbl.doc_ids)} docs; "
                    f"segment {self.path} indexes a table of "
                    f"{self._n_docs} — rebuild the index with build_index")
            self._table = tbl
        return self._table

    def read_terms(self, term_id: int,
                   with_positions: bool = True) -> RawRows:
        """The row of ``term_id`` (none when the file lacks it, at no
        I/O), with the position columns when ``with_positions``."""
        t = np.uint64(term_id)
        i = int(np.searchsorted(self._terms, t))
        n = int(i < len(self._terms) and self._terms[i] == t)
        return self._run(i, i + n, with_positions)

    def read_all(self) -> RawRows:
        """Every row, positions included (compaction)."""
        return self._run(0, len(self._terms), True)

    def _run(self, i0: int, i1: int, with_positions: bool) -> RawRows:
        """Rows ``[i0, i1)``: one read of each block holding them."""
        (gaps, tfs), nbytes = self._columns(i0, i1, self._post,
                                            _POSTING_BLOCK)
        counts = deltas = None
        if with_positions:
            (counts, deltas), n = self._columns(i0, i1, self._pos,
                                                _POSITION_BLOCK)
            nbytes += n
        return RawRows(self._terms[i0:i1],
                       np.diff(self._starts[0][i0:i1 + 1]), gaps, tfs,
                       self.table() if len(gaps) else _NO_DOCS,
                       nbytes, counts, deltas)

    def _columns(self, i0: int, i1: int, blocks: tuple,
                 layout: tuple) -> tuple:
        """Columns of rows ``[i0, i1)`` from the blocks of one kind
        (``blocks`` = each block's first row, then its byte offsets) →
        (one array per ``layout`` column, decompressed bytes)."""
        first, offsets = blocks
        if i0 == i1:
            return [np.zeros(0, t) for t, _, _ in layout], 0
        b0 = bisect.bisect_right(first, i0) - 1
        b1 = bisect.bisect_right(first, i1 - 1)
        parts: list[list] = [[] for _ in layout]
        nbytes = 0
        for b in range(b0, b1):
            r0, r1 = first[b], first[b + 1]
            counts = [k * int(self._starts[u][r1] - self._starts[u][r0])
                      for _, u, k in layout]
            raw = sum(t.itemsize * c for (t, _, _), c in zip(layout, counts))
            lo, hi = offsets[b], offsets[b + 1]
            data = os.pread(self._fd, hi - lo, lo)
            if len(data) != hi - lo:
                raise ValueError(f"segment {self.path} is truncated at "
                                 f"block bytes {lo}-{hi}")
            buf = _CODEC.decompress(data, decompressed_size=raw)
            at = 0
            for part, (t, _, _), c in zip(parts, layout, counts):
                part.append(np.frombuffer(buf, t, c, at))
                at += t.itemsize * c
            nbytes += raw
        out = []
        for part, (_, u, k) in zip(parts, layout):
            arr = part[0] if len(part) == 1 else np.concatenate(part)
            base = self._starts[u][first[b0]]
            out.append(arr[k * int(self._starts[u][i0] - base):
                           k * int(self._starts[u][i1] - base)])
        return out, nbytes


# live readers and doc tables by file identity; weak, so a reader lives
# exactly as long as some searcher holds it, a table as some reader
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
    return _open_shared(path, os.stat(path), SegmentReader)


def open_doc_table(path: str) -> DocTable:
    """The shared doc table at ``path``, as :func:`open_segment`."""
    try:
        st = os.stat(path)
    except OSError as e:
        raise ValueError(f"doc table {path} is missing ({e}); rebuild the "
                         f"index with build_index") from e
    return _open_shared(path, st, _read_doc_table)


def _open_shared(path: str, st: os.stat_result, load):
    key = file_identity(path, st)
    with _OPENING:      # one object per file, whichever thread asks first
        obj = _LIVE.get(key)
        if obj is None:
            obj = _LIVE[key] = load(path)
    return obj


def _restart_cumsum(values: np.ndarray, counts: np.ndarray,
                    dtype=np.uint64) -> np.ndarray:
    """Running sums of ``values`` restarting at each group of ``counts``
    values (gaps → absolute values), in ``dtype``: one cumsum over every
    group, then each group's running total before its first value
    subtracted.  uint64 arithmetic wraps exactly, so values ≥ 2^63 come
    back exact."""
    flat = np.cumsum(values, dtype=dtype)
    nz = counts > 0
    firsts = (np.cumsum(counts) - counts)[nz]
    flat -= np.repeat(flat[firsts] - values[firsts], counts[nz])
    return flat


def _positions(counts: np.ndarray, deltas: np.ndarray) -> tuple:
    """Per-doc position counts and gaps → (flat uint64, offsets int64)."""
    counts = counts.astype(np.int64)
    return (_restart_cumsum(deltas, counts),
            np.concatenate([[0], np.cumsum(counts)]))


def decode_postings(raw: RawRows, with_positions: bool = False) -> dict:
    """Decode every row of a read into flat per-posting arrays.

    Returns ``term`` and ``doc_ids`` uint64, ``tfs`` (n, NUM_FIELDS) int64,
    ``dl`` float32 and, with positions, ``positions`` = (flat uint64,
    offsets int64 of len n+1); ``doc_ids`` and ``dl`` are gathered
    through the read's doc table.
    """
    ords = _restart_cumsum(raw.gaps, raw.df, np.int64)
    out = {
        "term": np.repeat(raw.terms, raw.df),
        "doc_ids": raw.table.doc_ids[ords],
        "tfs": raw.tfs[_field_major_index(raw.df)].astype(np.int64),
        "dl": raw.table.dl[ords],
    }
    if with_positions:
        out["positions"] = _positions(raw.pos_counts, raw.pos_deltas)
    return out


def decode_posting_row(raw: RawRows, with_positions: bool = False) -> dict:
    """Decode a one-row read — the query path's decode:
    :func:`decode_postings`'s arrays without ``term``, ``doc_ids`` and
    ``dl`` one gather of the ordinals through the doc table, ``tfs`` a
    transpose of the field-major row.  Every array owns its memory, so a
    cache holding one does not pin the read's buffers or the table."""
    ords = np.cumsum(raw.gaps, dtype=np.intp)
    out = {"doc_ids": raw.table.doc_ids[ords],
           "tfs": raw.tfs.reshape(NUM_FIELDS, len(ords)).T.astype(np.int64),
           "dl": raw.table.dl[ords]}
    if with_positions:
        out["positions"] = _positions(raw.pos_counts, raw.pos_deltas)
    return out
